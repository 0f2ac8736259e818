//! Property-style tests over the core machinery, driven by a deterministic
//! in-repo generator (no external PRNG/proptest dependency — the build must
//! stay hermetic):
//!
//! * exact rational arithmetic obeys field axioms,
//! * affine algebra is a faithful homomorphism under evaluation,
//! * the linear-system solver inverts arbitrary unimodular staging maps,
//! * randomly generated staging kernels survive Grover semantically,
//! * the optimisation pipeline (GVN/LICM/fold) preserves kernel results,
//! * the cache model satisfies counting and inclusion-style invariants.

use grover::devsim::{Cache, CacheConfig};
use grover::frontend::{compile, BuildOptions};
use grover::pass::{solve, Affine, Atom, Grover, Rational};
use grover::runtime::{enqueue, ArgValue, Context, Launch, NdRange, NullSink};

// The SplitMix64 generator lives in the fuzzing crate (`grover::fuzz::Gen`)
// so the property tests and the differential fuzzer share one seeded
// randomness source; domain-specific draws stay local.
use grover::fuzz::Gen;

fn rational(g: &mut Gen) -> Rational {
    Rational::new(g.int(-1000, 1000), g.int(1, 100))
}

fn small_affine(g: &mut Gen) -> Affine {
    let (a, b, k) = (g.int(-8, 8), g.int(-8, 8), g.int(-64, 64));
    Affine::atom(Atom::LocalId(0))
        .scale(Rational::int(a))
        .add(&Affine::atom(Atom::LocalId(1)).scale(Rational::int(b)))
        .add(&Affine::constant(k))
}

const CASES: usize = 256;

// ---------------- rationals ----------------

#[test]
fn rational_field_axioms() {
    let mut g = Gen::new(1);
    for _ in 0..CASES {
        let (a, b, c) = (rational(&mut g), rational(&mut g), rational(&mut g));
        assert_eq!(a + b, b + a, "addition commutes");
        assert_eq!(a * b, b * a, "multiplication commutes");
        assert_eq!((a + b) + c, a + (b + c), "addition associates");
        assert_eq!(a * (b + c), a * b + a * c, "distributivity");
        assert_eq!(a - b + b, a, "sub/add round-trip");
        if !a.is_zero() {
            assert_eq!(a * a.recip(), Rational::ONE, "multiplicative inverse");
        }
    }
}

#[test]
fn rational_normalised() {
    let mut g = Gen::new(2);
    for _ in 0..CASES {
        let r = Rational::new(g.int(-1000, 1000), g.int(1, 100));
        assert!(r.denominator() > 0);
        let gg = gcd(r.numerator().abs(), r.denominator());
        assert!(gg <= 1 || r.numerator() == 0);
    }
}

fn gcd(mut a: i64, mut b: i64) -> i64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

// ---------------- affine forms ----------------

#[test]
fn affine_eval_is_additive_and_scales() {
    let mut g = Gen::new(3);
    for _ in 0..CASES {
        let (a, b) = (small_affine(&mut g), small_affine(&mut g));
        let (lx, ly, s) = (g.int(0, 16), g.int(0, 16), g.int(-8, 8));
        let v = |at: Atom| match at {
            Atom::LocalId(0) => lx,
            Atom::LocalId(1) => ly,
            _ => 0,
        };
        assert_eq!(a.add(&b).eval(v), a.eval(v) + b.eval(v));
        assert_eq!(
            a.scale(Rational::int(s)).eval(v),
            a.eval(v) * Rational::int(s)
        );
    }
}

#[test]
fn split_by_stride_recomposes() {
    let mut g = Gen::new(4);
    for _ in 0..CASES {
        let a = small_affine(&mut g);
        let stride = g.int(1, 64);
        let (lx, ly) = (g.int(0, 16), g.int(0, 16));
        if let Some((hi, lo)) = a.split_by_stride(stride) {
            let v = |at: Atom| match at {
                Atom::LocalId(0) => lx,
                Atom::LocalId(1) => ly,
                _ => 0,
            };
            assert_eq!(hi.eval(v) * Rational::int(stride) + lo.eval(v), a.eval(v));
        }
    }
}

#[test]
fn substitution_matches_eval() {
    let mut g = Gen::new(5);
    for _ in 0..CASES {
        let a = small_affine(&mut g);
        let (rx, rk, ly) = (g.int(-8, 8), g.int(-8, 8), g.int(0, 16));
        // Substitute lx := rx*ly + rk and compare against direct evaluation.
        let rep = Affine::atom(Atom::LocalId(1))
            .scale(Rational::int(rx))
            .add(&Affine::constant(rk));
        let sub = a.substitute(|at| (at == Atom::LocalId(0)).then(|| rep.clone()));
        let v_orig = |at: Atom| match at {
            Atom::LocalId(0) => rx * ly + rk,
            Atom::LocalId(1) => ly,
            _ => 0,
        };
        let v_sub = |at: Atom| match at {
            Atom::LocalId(1) => ly,
            _ => 0,
        };
        assert_eq!(sub.eval(v_sub), a.eval(v_orig));
    }
}

// ---------------- solver round-trip ----------------

/// For any unimodular 2x2 integer map M and offset d, solving
/// `M·l' + d = rhs` and substituting the solution back must reproduce
/// the right-hand side exactly.
#[test]
fn solver_inverts_unimodular_maps() {
    let mut g = Gen::new(6);
    for _ in 0..CASES {
        let (a, b, k) = (g.int(-3, 4), g.int(-3, 4), g.int(-3, 4));
        let (d0, d1) = (g.int(-8, 8), g.int(-8, 8));
        // Unimodular construction: [[1, a],[b, 1+ab]] has determinant 1;
        // scale rows by ±1 via k parity for variety.
        let m = [[1, a], [b, 1 + a * b]];
        let sign = if k % 2 == 0 { 1 } else { -1 };
        let m = [[m[0][0] * sign, m[0][1] * sign], m[1]];
        let lx = Affine::atom(Atom::LocalId(0));
        let ly = Affine::atom(Atom::LocalId(1));
        let ls0 = lx
            .scale(Rational::int(m[0][0]))
            .add(&ly.scale(Rational::int(m[0][1])))
            .add(&Affine::constant(d0));
        let ls1 = lx
            .scale(Rational::int(m[1][0]))
            .add(&ly.scale(Rational::int(m[1][1])))
            .add(&Affine::constant(d1));
        // Symbolic RHS: two opaque atoms (the loader's index values).
        let r0 = Affine::atom(Atom::Value(grover::ir::ValueId(9000)));
        let r1 = Affine::atom(Atom::Value(grover::ir::ValueId(9001)));
        let sol = solve(&[ls0.clone(), ls1.clone()], &[r0.clone(), r1.clone()])
            .expect("unimodular systems always solve");
        // Substitute back: ls_i(sol) must equal r_i.
        let back0 = ls0.substitute(|at| match at {
            Atom::LocalId(d) => sol.for_dim(d).cloned(),
            _ => None,
        });
        let back1 = ls1.substitute(|at| match at {
            Atom::LocalId(d) => sol.for_dim(d).cloned(),
            _ => None,
        });
        assert_eq!(back0, r0);
        assert_eq!(back1, r1);
    }
}

/// Singular maps must be rejected, never "solved".
#[test]
fn solver_rejects_singular_maps() {
    let mut g = Gen::new(7);
    for _ in 0..CASES {
        let (a, b, s) = (g.int(-3, 4), g.int(-3, 4), g.int(-3, 4));
        if a == 0 && b == 0 {
            continue;
        }
        // Rows are scalar multiples: rank <= 1 with two unknowns.
        let lx = Affine::atom(Atom::LocalId(0));
        let ly = Affine::atom(Atom::LocalId(1));
        let row = lx.scale(Rational::int(a)).add(&ly.scale(Rational::int(b)));
        let row2 = row.scale(Rational::int(s));
        let r0 = Affine::atom(Atom::Value(grover::ir::ValueId(9000)));
        let r1 = Affine::atom(Atom::Value(grover::ir::ValueId(9001)));
        assert!(solve(&[row, row2], &[r0, r1]).is_err());
    }
}

// ---------------- randomly generated staging kernels ----------------

/// Generate a staging kernel whose LL reads a bijective remapping of the
/// written window (`LS` stores at `(ly+oy, lx+ox)`), transform it with
/// Grover, run both versions and compare. Variants cover identity, swap,
/// and the two reflections — all affine, all invertible, all staying
/// inside the staged region (the pattern's own precondition).
fn staging_roundtrip(variant: u8, ox: i64, oy: i64) {
    const S: i64 = 8;
    let (py, px) = match variant % 4 {
        0 => ("ly".to_string(), "lx".to_string()),
        1 => ("lx".to_string(), "ly".to_string()),
        2 => (format!("{} - ly", S - 1), format!("{} - lx", S - 1)),
        _ => (format!("{} - lx", S - 1), format!("{} - ly", S - 1)),
    };
    let src = format!(
        "__kernel void gen(__global float* in, __global float* out, int w) {{
             __local float lm[{sx}][{sx}];
             int lx = get_local_id(0);
             int ly = get_local_id(1);
             int gx = get_global_id(0);
             int gy = get_global_id(1);
             lm[ly + {oy}][lx + {ox}] = in[gy * w + gx];
             barrier(CLK_LOCAL_MEM_FENCE);
             out[gy * w + gx] = lm[({py}) + {oy}][({px}) + {ox}];
         }}",
        sx = S + 4, // room for offsets
    );
    let module = compile(&src, &BuildOptions::new()).expect("compile");
    let original = module.kernel("gen").unwrap().clone();
    let mut transformed = original.clone();
    let report = Grover::new().run_on(&mut transformed);
    assert!(report.all_removed(), "{}\n{src}", report.to_text());

    let n = 16u64;
    let input: Vec<f32> = (0..n * n).map(|i| (i as f32).sin()).collect();
    let run = |kernel: &grover::ir::Function| -> Vec<f32> {
        let mut ctx = Context::new();
        let bi = ctx.buffer_f32(&input);
        let bo = ctx.zeros_f32((n * n) as usize);
        enqueue(
            &mut ctx,
            kernel,
            &[
                ArgValue::Buffer(bi),
                ArgValue::Buffer(bo),
                ArgValue::I32(n as i32),
            ],
            &NdRange::d2(n, n, S as u64, S as u64),
            &mut NullSink,
            &Launch::default(),
        )
        .unwrap_or_else(|e| panic!("{e}\n{src}"));
        ctx.read_f32(bo).to_vec()
    };
    assert_eq!(run(&original), run(&transformed), "{src}");
}

#[test]
fn random_staging_kernels_roundtrip() {
    let mut g = Gen::new(8);
    for _ in 0..24 {
        staging_roundtrip(g.int(0, 4) as u8, g.int(0, 4), g.int(0, 4));
    }
}

// ---------------- optimisation pipeline preserves semantics ----------------

fn arith_kernel(c1: i32, c2: i32, c3: i32, use_loop: bool) -> String {
    let body = if use_loop {
        format!(
            "float acc = 0.0f;
             for (int i = 0; i < 8; i++) {{
                 acc += in[(gx + i) % n] * {c1}.0f + {c2}.0f;
             }}
             out[gx] = acc * {c3}.0f;"
        )
    } else {
        format!(
            "float t = in[gx] * {c1}.0f + {c2}.0f;
             float u = in[gx] * {c1}.0f + {c2}.0f;
             out[gx] = (t + u) * {c3}.0f;"
        )
    };
    format!(
        "__kernel void a(__global float* in, __global float* out, int n) {{
             int gx = get_global_id(0);
             {body}
         }}"
    )
}

#[test]
fn optimisation_pipeline_preserves_results() {
    let mut g = Gen::new(9);
    for _ in 0..32 {
        let (c1, c2, c3) = (
            g.int(-4, 5) as i32,
            g.int(-4, 5) as i32,
            g.int(-4, 5) as i32,
        );
        let use_loop = g.int(0, 2) == 1;
        let src = arith_kernel(c1, c2, c3, use_loop);
        let module = compile(&src, &BuildOptions::new()).unwrap();
        let plain = module.kernel("a").unwrap().clone();
        let mut opt = plain.clone();
        grover::ir::passes::PassManager::optimize_pipeline().run_to_fixpoint(&mut opt, 8);
        grover::ir::verify(&opt).unwrap();

        let input: Vec<f32> = (0..32).map(|i| (i as f32) * 0.25 - 3.0).collect();
        let run = |kernel: &grover::ir::Function| -> Vec<f32> {
            let mut ctx = Context::new();
            let bi = ctx.buffer_f32(&input);
            let bo = ctx.zeros_f32(32);
            enqueue(
                &mut ctx,
                kernel,
                &[
                    ArgValue::Buffer(bi),
                    ArgValue::Buffer(bo),
                    ArgValue::I32(32),
                ],
                &NdRange::d1(32, 8),
                &mut NullSink,
                &Launch::default(),
            )
            .unwrap();
            ctx.read_f32(bo).to_vec()
        };
        assert_eq!(run(&plain), run(&opt), "{src}");
    }
}

// ---------------- cache invariants ----------------

#[test]
fn cache_counts_are_consistent() {
    let mut g = Gen::new(10);
    for _ in 0..64 {
        let n = g.int(1, 200) as usize;
        let addrs: Vec<u64> = (0..n).map(|_| g.int(0, 4096) as u64).collect();
        let mut c = Cache::new(CacheConfig::new(512, 32, 2, 1));
        for (i, &a) in addrs.iter().enumerate() {
            c.access(a, i % 3 == 0);
        }
        assert_eq!(c.stats.accesses(), addrs.len() as u64);
        assert!(c.stats.writebacks <= c.stats.evictions);
        assert!(c.stats.hit_rate() >= 0.0 && c.stats.hit_rate() <= 1.0);
    }
}

/// A cache never misses on an address accessed within the last
/// `ways` *distinct same-set lines* — the LRU stack property.
#[test]
fn immediate_reaccess_always_hits() {
    let mut g = Gen::new(11);
    for _ in 0..64 {
        let n = g.int(1, 100) as usize;
        let addrs: Vec<u64> = (0..n).map(|_| g.int(0, 65536) as u64).collect();
        let mut c = Cache::new(CacheConfig::new(4096, 64, 4, 1));
        for &a in &addrs {
            c.access(a, false);
            let hits_before = c.stats.hits;
            c.access(a, false);
            assert_eq!(c.stats.hits, hits_before + 1);
        }
    }
}

/// Working sets no larger than one way-set always fit.
#[test]
fn small_working_set_fully_cached() {
    let mut g = Gen::new(12);
    for _ in 0..64 {
        let start = g.int(0, 1024) as u64;
        // 4 KiB / 64 B lines / 4 ways = 16 sets; 16 consecutive lines span
        // all sets exactly once.
        let mut c = Cache::new(CacheConfig::new(4096, 64, 4, 1));
        let base = start * 64;
        for _rep in 0..4 {
            for i in 0..16u64 {
                c.access(base + i * 64, false);
            }
        }
        assert_eq!(c.stats.misses, 16);
        assert_eq!(c.stats.hits, 48);
    }
}

// ---------------- textual IR round-trip ----------------

/// print ∘ parse is a fixpoint and preserves execution results for
/// generated arithmetic kernels.
#[test]
fn text_ir_roundtrip_preserves_semantics() {
    let mut g = Gen::new(13);
    for _ in 0..24 {
        let (c1, c2, c3) = (
            g.int(-4, 5) as i32,
            g.int(-4, 5) as i32,
            g.int(-4, 5) as i32,
        );
        let use_loop = g.int(0, 2) == 1;
        let src = arith_kernel(c1, c2, c3, use_loop);
        let module = compile(&src, &BuildOptions::new()).unwrap();
        let plain = module.kernel("a").unwrap().clone();
        let text1 = grover::ir::printer::function_to_string(&plain);
        let parsed = grover::ir::parse_function(&text1).unwrap();
        grover::ir::verify(&parsed).unwrap();
        let text2 = grover::ir::printer::function_to_string(&parsed);
        let parsed2 = grover::ir::parse_function(&text2).unwrap();
        let text3 = grover::ir::printer::function_to_string(&parsed2);
        assert_eq!(&text2, &text3, "fixpoint");

        let input: Vec<f32> = (0..32).map(|i| (i as f32) * 0.5 - 8.0).collect();
        let run = |kernel: &grover::ir::Function| -> Vec<f32> {
            let mut ctx = Context::new();
            let bi = ctx.buffer_f32(&input);
            let bo = ctx.zeros_f32(32);
            enqueue(
                &mut ctx,
                kernel,
                &[
                    ArgValue::Buffer(bi),
                    ArgValue::Buffer(bo),
                    ArgValue::I32(32),
                ],
                &NdRange::d1(32, 8),
                &mut NullSink,
                &Launch::default(),
            )
            .unwrap();
            ctx.read_f32(bo).to_vec()
        };
        assert_eq!(run(&plain), run(&parsed));
    }
}

// ---------------- interpreter determinism ----------------

#[test]
fn interpreter_is_deterministic() {
    let mut g = Gen::new(14);
    for _ in 0..8 {
        let seed = g.int(0, 1000) as u64;
        let src = "__kernel void d(__global float* a, __global float* b) {
            __local float lm[8];
            int lx = get_local_id(0);
            int gx = get_global_id(0);
            lm[lx] = a[gx];
            barrier(CLK_LOCAL_MEM_FENCE);
            b[gx] = lm[7 - lx] + lm[lx];
        }";
        let module = compile(src, &BuildOptions::new()).unwrap();
        let k = module.kernel("d").unwrap();
        let input: Vec<f32> = (0..32).map(|i| ((i as u64 * seed) % 97) as f32).collect();
        let mut outs = Vec::new();
        for _ in 0..2 {
            let mut ctx = Context::new();
            let ba = ctx.buffer_f32(&input);
            let bb = ctx.zeros_f32(32);
            enqueue(
                &mut ctx,
                k,
                &[ArgValue::Buffer(ba), ArgValue::Buffer(bb)],
                &NdRange::d1(32, 8),
                &mut NullSink,
                &Launch::default(),
            )
            .unwrap();
            outs.push(ctx.read_f32(bb).to_vec());
        }
        assert_eq!(&outs[0], &outs[1]);
    }
}
