//! The tune workloads: repeated cache-miss `Tuner::tune` calls over a case
//! set, and the traced serial replica that splits each tune into layers.

use std::time::{Duration, Instant};

use grover_core::{apply_sequence, GroverOptions, Sequence};
use grover_devsim::Device;
use grover_frontend::compile;
use grover_ir::passes::PassManager;
use grover_ir::Function;
use grover_kernels::{prepare_pair, run_prepared, AppRun, Prepared, Scale};
use grover_runtime::{AccessEvent, CountingSink, NullSink, TraceSink};
use grover_tuner::{Decision, Tuner, Workload};

use crate::cases::{is_cpu, tune_cases, Case, Expected, Outcome, Path, Rng};
use crate::clock::{self, measure, probe, scaled, Cost};
use crate::report::Report;
use crate::stats::{geomean, median, percentile, supported_percentile};
use crate::trace::{Open, Tracer};

/// How often set-up is repeated; `setup_s` is the median. A set-up
/// prepares every case's kernels, under twenty milliseconds.
const SETUPS: usize = 5;

/// Tune-then-replica rounds per case in the traced pass. The replica's
/// layers are reconciled with the median tune, and alternating the two
/// keeps a slow host episode from landing on one side only.
const ROUNDS: usize = 3;

/// Largest share of tune-small's tune CPU the replica may leave
/// unexplained.
const UNATTRIBUTED_LIMIT: f64 = 0.10;

/// A case ready to tune: the `prepare_pair` original kernel and a workload
/// factory over the app's own dataset.
pub struct Prepped {
    pub case: Case,
    pub kernel: Function,
    workload: Workload,
}

fn prepare(cases: &[Case]) -> Result<Vec<Prepped>, String> {
    cases
        .iter()
        .map(|&case| {
            let pair = prepare_pair(case.app, case.scale)?;
            let (prepare, scale) = (case.app.prepare, case.scale);
            Ok(Prepped {
                case,
                kernel: pair.original,
                workload: Workload::new(move || {
                    let p = prepare(scale);
                    (p.ctx, p.args, p.nd)
                }),
            })
        })
        .collect()
}

/// Set up `SETUPS` times, each followed by a probe, reporting the median
/// scaled time as `setup_s`.
fn setup(cases: &[Case], report: &mut Report) -> Result<Vec<Prepped>, String> {
    let (mut times, mut raw) = (Vec::with_capacity(SETUPS), Vec::with_capacity(SETUPS));
    let mut prepped = Vec::new();
    for _ in 0..SETUPS {
        let (p, cost) = measure(|| prepare(cases));
        let speed = probe();
        raw.push(cost.wall.as_secs_f64());
        times.push(scaled(cost.wall.as_secs_f64(), speed));
        prepped = p?;
    }
    report.set_scaled("setup_s", median(&times), median(&raw));
    Ok(prepped)
}

/// The buffers the app's paper variant disables (NVD-MM-A/B/AB).
fn buffers(case: &Case) -> Option<Vec<String>> {
    case.app
        .disable
        .map(|b| b.iter().map(|s| s.to_string()).collect())
}

pub fn outcome(d: &Decision) -> Outcome {
    Outcome::new(
        &d.device,
        d.choice.kind(),
        &d.sequence,
        d.fallback.as_ref().map(|f| f.kind()),
        (d.cycles_with, d.cycles_without),
    )
}

/// One cache-miss tune on a fresh tuner with production defaults.
/// Returns the decision, its cost and the launches it ran.
fn tune(p: &Prepped) -> (Result<Decision, String>, Cost, u64) {
    let mut tuner = Tuner::new();
    tuner.buffers = buffers(&p.case);
    let (d, cost) = measure(|| tuner.tune(&p.kernel, p.case.device, &p.workload));
    (
        d.map_err(|e| format!("{}: {e}", p.case.label())),
        cost,
        tuner.launches_run(),
    )
}

fn checked(p: &Prepped, d: &Result<Decision, String>, expected: &Expected) -> Result<(), String> {
    let d = d.as_ref().map_err(Clone::clone)?;
    expected.check(Path::InProcess, &p.case, &outcome(d))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One timed tune and the probe that followed it.
#[derive(Clone, Copy)]
struct Timed {
    cost: Cost,
    speed: f64,
}

impl Timed {
    fn raw_wall_ms(&self) -> f64 {
        ms(self.cost.wall)
    }

    fn raw_cpu_ms(&self) -> f64 {
        ms(self.cost.cpu)
    }

    fn wall_ms(&self) -> f64 {
        scaled(self.raw_wall_ms(), self.speed)
    }

    fn cpu_ms(&self) -> f64 {
        scaled(self.raw_cpu_ms(), self.speed)
    }
}

/// The timed phase: sweeps over every case in a seeded order, each tune a
/// cache miss followed by a probe, until `seconds` have passed and every
/// case ran at least once.
pub fn timed(scale: Scale, seed: u64, seconds: f64, report: &mut Report) -> Result<(), String> {
    let expected = Expected::committed();
    let prepped = setup(&tune_cases(scale), report)?;
    if let Err(e) = clock::reset_peak_rss() {
        report.note(format!("  peak_rss_mb includes set-up: {e}"));
    }
    let mut rng = Rng::new(seed);
    // Per case, one `Timed` per tune.
    let mut runs: Vec<Vec<Timed>> = vec![Vec::new(); prepped.len()];
    let start = Instant::now();
    let faults = clock::minor_faults();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut sweeps = 0;
    'sweeps: loop {
        let mut order: Vec<usize> = (0..prepped.len()).collect();
        rng.shuffle(&mut order);
        for i in order {
            if sweeps > 0 && Instant::now() >= deadline {
                break 'sweeps;
            }
            let (d, cost, _) = tune(&prepped[i]);
            let speed = probe();
            report.check(checked(&prepped[i], &d, &expected));
            runs[i].push(Timed { cost, speed });
        }
        sweeps += 1;
    }
    let elapsed = start.elapsed().as_secs_f64();

    let per_case = |f: fn(&Timed) -> f64| -> Vec<f64> {
        runs.iter()
            .filter_map(|r| median(&r.iter().map(f).collect::<Vec<_>>()))
            .collect()
    };
    let pooled = |f: fn(&Timed) -> f64| -> Vec<f64> { runs.iter().flatten().map(f).collect() };
    let (case_wall, case_raw) = (per_case(Timed::wall_ms), per_case(Timed::raw_wall_ms));
    let tunes = pooled(Timed::wall_ms).len();
    let tail = supported_percentile(tunes).ok_or("too few tunes for a tail percentile")?;
    report.set_scaled("latency_ms", geomean(&case_wall), geomean(&case_raw));
    report.set_scaled(
        "tail_latency_ms",
        percentile(&pooled(Timed::wall_ms), tail),
        percentile(&pooled(Timed::raw_wall_ms), tail),
    );
    report.set_scaled(
        "cpu_ms",
        geomean(&per_case(Timed::cpu_ms)),
        geomean(&per_case(Timed::raw_cpu_ms)),
    );
    // A sweep of the suite at each case's median: independent of which
    // cases the last, partial sweep happened to reach.
    let sweep_rate = |m: &[f64]| 1e3 * m.len() as f64 / m.iter().sum::<f64>();
    report.set_scaled(
        "throughput_per_s",
        Some(sweep_rate(&case_wall)),
        Some(sweep_rate(&case_raw)),
    );
    report.note(format!("  tail_latency_ms is the p{tail} of {tunes} tunes"));
    report.note(format!(
        "  {:.0} page faults per tune",
        clock::minor_faults().saturating_sub(faults) as f64 / tunes as f64
    ));
    report.samples.insert("tunes".into(), tunes as u64);
    report.samples.insert("cases".into(), prepped.len() as u64);
    report.samples.insert("sweeps_started".into(), sweeps + 1);
    report.samples.insert(
        "min_tunes_per_case".into(),
        runs.iter().map(Vec::len).min().unwrap_or(0) as u64,
    );
    report.durations.insert("timed_s".into(), elapsed);
    for (p, (w, c)) in prepped
        .iter()
        .zip(case_wall.iter().zip(&per_case(Timed::cpu_ms)))
    {
        report.note(format!(
            "  {:<24} median tune {w:>9.2} ms wall {c:>9.2} ms cpu (scaled)",
            p.case.label()
        ));
    }
    Ok(())
}

/// One recorded trace event, in emission order.
enum Event {
    Access(AccessEvent),
    Barrier(u32, u32),
    ItemDone(u32, u32, u64),
    GroupDone(u32),
}

/// Records a launch's whole event stream so it can be replayed into a
/// device model on its own clock.
#[derive(Default)]
struct Recording {
    events: Vec<Event>,
    accesses: u64,
}

impl TraceSink for Recording {
    fn access(&mut self, ev: &AccessEvent) {
        self.accesses += 1;
        self.events.push(Event::Access(*ev));
    }

    fn barrier(&mut self, group: u32, items: u32) {
        self.events.push(Event::Barrier(group, items));
    }

    fn workitem_done(&mut self, group: u32, local: u32, instructions: u64) {
        self.events
            .push(Event::ItemDone(group, local, instructions));
    }

    fn workgroup_done(&mut self, group: u32) {
        self.events.push(Event::GroupDone(group));
    }
}

impl Recording {
    fn replay(&self, dev: &mut Device) -> u64 {
        for e in &self.events {
            match e {
                Event::Access(ev) => dev.access(ev),
                Event::Barrier(g, n) => dev.barrier(*g, *n),
                Event::ItemDone(g, l, i) => dev.workitem_done(*g, *l, *i),
                Event::GroupDone(g) => dev.workgroup_done(*g),
            }
        }
        dev.finish().cycles
    }
}

/// Layer span names of the replica, in the order they sum to a tune.
const LAYERS: [&str; 7] = [
    "core.pipeline",
    "kernels.prepare",
    "runtime.exec",
    "runtime.trace_overhead",
    "devsim.new",
    "devsim.replay",
    "tuner.verify",
];

/// What one replica found besides its spans.
struct ReplicaOut {
    instructions: u64,
    events: u64,
    nondeterministic: bool,
}

fn launch(
    label: &str,
    kernel: &Function,
    case: &Case,
    prepared: Prepared,
    sink: &mut dyn TraceSink,
) -> Result<AppRun, String> {
    run_prepared(kernel, prepared, sink).map_err(|e| format!("{} {label}: {e}", case.label()))
}

/// Repeat, serially and one step at a time, what `Tuner::tune` did for
/// `p`: the fail-fast device lookup, one pass pipeline per candidate
/// sequence, and for the original and every candidate a workload, an
/// execution and a device-model replay; then the two verify launches.
/// Every launch is checked against the app's scalar reference, and on CPU
/// devices the replayed cycles must equal the decision's.
fn replica(
    p: &Prepped,
    d: &Decision,
    tracer: &mut Tracer,
    trace: u128,
) -> (u64, Result<ReplicaOut, String>) {
    let root = tracer.open("replica", trace, None);
    let out = replica_steps(p, d, tracer, &root);
    (tracer.close(root).id, out)
}

fn replica_steps(
    p: &Prepped,
    d: &Decision,
    tracer: &mut Tracer,
    root: &Open,
) -> Result<ReplicaOut, String> {
    let case = &p.case;
    let new_device = || Device::by_name(case.device).expect("case devices exist");
    let prepare = || (case.app.prepare)(case.scale);
    drop(tracer.time("devsim.new", root, new_device));

    let options = GroverOptions {
        buffers: buffers(case),
        ..Default::default()
    };
    let mut versions = vec![("original".to_string(), p.kernel.clone())];
    for spec in grover_devsim::candidate_sequences(case.device) {
        let seq = Sequence::parse(spec).map_err(|e| format!("{spec}: {e}"))?;
        let (k, removed) = tracer.time("core.pipeline", root, || {
            let mut k = p.kernel.clone();
            let removed = apply_sequence(&mut k, &seq, &options)
                .report
                .removed_count();
            (k, removed)
        });
        if removed == 0 {
            return Err(format!("{} {spec}: nothing removed", case.label()));
        }
        versions.push((seq.spec(), k));
    }

    let mut out = ReplicaOut {
        instructions: 0,
        events: 0,
        nondeterministic: false,
    };
    let mut cycles = Vec::with_capacity(versions.len());
    for (label, k) in &versions {
        // The tuner's launch is one execution streaming into the device;
        // here it is split into preparing the workload, execution alone,
        // the cost of emitting the event stream (counting sink minus null
        // sink), and the replay.
        let prepared = tracer.time("kernels.prepare", root, prepare);
        let run = tracer.time("runtime.exec", root, || {
            launch(label, k, case, prepared, &mut NullSink)
        })?;
        out.instructions += run.stats.instructions;
        let prepared = prepare();
        tracer.time("runtime.exec_counting", root, || {
            launch(label, k, case, prepared, &mut CountingSink::default())
        })?;
        let mut rec = Recording::default();
        launch(label, k, case, prepare(), &mut rec)?;
        out.events += rec.accesses;

        let mut dev = tracer.time("devsim.new", root, new_device);
        let c = tracer.time("devsim.replay", root, || rec.replay(&mut dev));
        tracer.time("devsim.new", root, || drop(dev));
        out.nondeterministic |= rec.replay(&mut new_device()) != c;
        cycles.push(c);
    }

    // The tuner's winner: the fastest candidate, the earliest on ties.
    let best = (1..versions.len())
        .min_by_key(|&i| (cycles[i], i))
        .expect("every device seeds candidates");
    let named = versions
        .iter()
        .position(|(spec, _)| *spec == d.sequence)
        .ok_or_else(|| format!("{}: decision names unknown sequence", case.label()))?;
    // A verify launch prepares its own workload, as the tuner's does.
    for i in [0, named] {
        let (label, k) = &versions[i];
        tracer.time("tuner.verify", root, || {
            launch(label, k, case, prepare(), &mut NullSink)
        })?;
    }
    if is_cpu(case.device) {
        let replayed = (cycles[0], cycles[best], versions[best].0.as_str());
        let decided = (d.cycles_with, d.cycles_without, d.sequence.as_str());
        if replayed != decided {
            return Err(format!(
                "{}: replica (cycles with, without, sequence) {replayed:?} != decision {decided:?}",
                case.label()
            ));
        }
    }
    Ok(out)
}

/// The per-case layer compile costs: the front end, and the IR optimiser
/// `prepare_pair` runs on each kernel version.
fn compile_layers(cases: &[Case], tracer: &mut Tracer, report: &mut Report) {
    let root = tracer.open("compile", 0, None);
    for case in cases {
        let opts = (case.app.options)(case.scale);
        let compiled = tracer.time("frontend.compile", &root, || {
            compile(case.app.source, &opts)
        });
        let Ok(module) = compiled else {
            report.fail(format!("{}: compile failed", case.label()));
            continue;
        };
        let Some(kernel) = module.kernel(case.app.kernel) else {
            report.fail(format!("{}: kernel missing", case.label()));
            continue;
        };
        let mut k = kernel.clone();
        tracer.time("ir.optimize", &root, || {
            PassManager::optimize_pipeline().run_to_fixpoint(&mut k, 8)
        });
    }
    let root = tracer.close(root).id;
    let per_case = |name| tracer.cpu_us_under(root, name) as f64 / 1e3 / cases.len() as f64;
    report.set("frontend.compile_ms", per_case("frontend.compile"));
    report.set("ir.optimize_ms", per_case("ir.optimize"));
}

/// The traced pass over `cases`: for each, `ROUNDS` rounds of one real
/// tune then its serial replica, the replica's layers reconciled against
/// the median tune. With `gate`, an aggregate unattributed share above
/// `UNATTRIBUTED_LIMIT` fails the run.
pub fn traced(
    cases: &[Case],
    seed: u64,
    gate: bool,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let expected = Expected::committed();
    let prepped = prepare(cases)?;
    compile_layers(cases, tracer, report);
    let mut order: Vec<usize> = (0..prepped.len()).collect();
    Rng::new(seed).shuffle(&mut order);

    let (mut tune_cpu_us, mut tune_wall_us, mut layer_us) = (0.0, 0.0, 0.0);
    let (mut instructions, mut events, mut launches) = (0u64, 0u64, 0u64);
    let (mut replicas, mut nondeterministic) = (Vec::new(), 0u64);
    for (n, &i) in order.iter().enumerate() {
        let p = &prepped[i];
        let trace = (u128::from(seed) << 64) | (n as u128 + 1);
        let (mut cpu, mut wall, mut layers) = (Vec::new(), Vec::new(), Vec::new());
        let mut unstable = false;
        for round in 0..ROUNDS {
            let span = tracer.open("tuner.tune", trace, None);
            let (d, cost, l) = tune(p);
            tracer.close(span);
            report.check(checked(p, &d, &expected));
            cpu.push(cost.cpu.as_secs_f64() * 1e6);
            wall.push(cost.wall.as_secs_f64() * 1e6);
            launches += l;
            let Ok(d) = d else { continue };
            let (root, replayed) = replica(p, &d, tracer, trace);
            report.check(replayed.as_ref().map(|_| ()).map_err(Clone::clone));
            let Ok(r) = replayed else { continue };
            replicas.push(root);
            layers.push(
                LAYERS
                    .iter()
                    .map(|l| layer_cpu_us(tracer, root, l))
                    .sum::<f64>(),
            );
            unstable |= r.nondeterministic;
            // Work counts repeat exactly; count them once per case.
            if round == 0 {
                instructions += r.instructions;
                events += r.events;
            }
        }
        nondeterministic += u64::from(unstable);
        let (Some(c), Some(w), Some(l)) = (median(&cpu), median(&wall), median(&layers)) else {
            continue;
        };
        tune_cpu_us += c;
        tune_wall_us += w;
        layer_us += l;
    }

    // Per tune: the mean over cases of the median tune, and the mean
    // replica; work counts are per sweep of the cases.
    let cases_n = prepped.len() as f64;
    let tune_cpu_ms = tune_cpu_us / cases_n / 1e3;
    let layer_ms = |name| {
        replicas
            .iter()
            .map(|&r| layer_cpu_us(tracer, r, name))
            .sum::<f64>()
            / replicas.len().max(1) as f64
            / 1e3
    };
    let (exec_ms, replay_ms) = (layer_ms("runtime.exec"), layer_ms("devsim.replay"));
    let unattributed = (tune_cpu_us - layer_us) / tune_cpu_us;
    report.set("tuner.tune_cpu_ms", tune_cpu_ms);
    report.set("tuner.parallelism", tune_cpu_us / tune_wall_us);
    report.set(
        "tuner.launches_per_tune",
        launches as f64 / (cases_n * ROUNDS as f64),
    );
    report.set("tuner.verify_ms", layer_ms("tuner.verify"));
    report.set(
        "tuner.unattributed_ms",
        (tune_cpu_us - layer_us) / cases_n / 1e3,
    );
    report.set("tuner.unattributed_share", unattributed);
    report.set("core.pipeline_ms", layer_ms("core.pipeline"));
    report.set("kernels.prepare_ms", layer_ms("kernels.prepare"));
    report.set("runtime.exec_ms", exec_ms);
    report.set("runtime.exec_share", exec_ms / tune_cpu_ms);
    // Instructions per µs is millions per second.
    report.set(
        "runtime.minsts_per_s",
        instructions as f64 / (exec_ms * 1e3 * cases_n),
    );
    report.set(
        "runtime.trace_overhead_ms",
        layer_ms("runtime.trace_overhead"),
    );
    report.set("runtime.instructions", instructions as f64);
    report.set("runtime.events", events as f64);
    report.set("devsim.new_ms", layer_ms("devsim.new"));
    report.set("devsim.replay_ms", replay_ms);
    report.set(
        "devsim.mevents_per_s",
        events as f64 / (replay_ms * 1e3 * cases_n),
    );
    report.set("devsim.nondeterministic_cases", nondeterministic as f64);
    report.note(format!(
        "  replica: layers explain {:.1} % of the median tune's CPU over {} cases",
        100.0 * layer_us / tune_cpu_us,
        prepped.len()
    ));
    if gate {
        report.check(if unattributed.abs() <= UNATTRIBUTED_LIMIT {
            Ok(())
        } else {
            Err(format!(
                "replica leaves {:.1} % of tune CPU unattributed (limit {:.0} %)",
                100.0 * unattributed,
                100.0 * UNATTRIBUTED_LIMIT
            ))
        });
    }
    report
        .samples
        .insert("replica_cases".into(), prepped.len() as u64);
    report
        .samples
        .insert("replicas".into(), replicas.len() as u64);
    Ok(())
}

/// CPU µs a replica spent in `layer`. The trace overhead is not a span of
/// its own: it is the counting-sink run minus the null-sink run.
fn layer_cpu_us(tracer: &Tracer, replica: u64, layer: &str) -> f64 {
    match layer {
        "runtime.trace_overhead" => {
            tracer.cpu_us_under(replica, "runtime.exec_counting") as f64
                - tracer.cpu_us_under(replica, "runtime.exec") as f64
        }
        _ => tracer.cpu_us_under(replica, layer) as f64,
    }
}

/// One tune of every case, for `--bless`.
pub fn bless(scale: Scale, table: &mut Expected) -> Result<(), String> {
    for p in prepare(&tune_cases(scale))? {
        let (d, _, _) = tune(&p);
        table.insert(Path::InProcess, &p.case, outcome(&d?));
    }
    Ok(())
}
