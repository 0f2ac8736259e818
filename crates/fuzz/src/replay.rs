//! Corpus replay.
//!
//! Every checked-in corpus kernel (and every reproducer the shrinker
//! writes) is a standalone `.cl` file carrying `// fuzz:` directives in its
//! header that encode the expected pass outcome and, for must-transform
//! kernels, the launch geometry:
//!
//! ```text
//! // fuzz: expect=transform
//! // fuzz: nd=16/8            (1-D: global/local; 2-D: 16x8/4x4)
//! // fuzz: in=64 out=32 w=16
//! ```
//!
//! ```text
//! // fuzz: expect=reject kind=declined reason=not affine in the work-item indices
//! ```
//!
//! The front-end strips comments, so directives never affect compilation.
//! Replaying a file runs the same oracle the campaign uses — corpus files
//! are ordinary fuzz cases that happen to live in git.

use crate::oracle::{check_source_seqs, CaseOutcome, Expectation};
use crate::spec::ExecShape;
use grover_core::Sequence;
use grover_runtime::fault::Faults;
use std::path::Path;

/// Parsed `// fuzz:` header.
#[derive(Clone, Debug)]
pub struct Directives {
    pub expect: Expectation,
    /// Launch geometry; required when `expect` is `Transform`.
    pub shape: Option<ExecShape>,
    /// Pass sequences to race as extra legs (`// fuzz: passes=SPEC`, one
    /// directive per sequence). Empty for pre-pipeline corpus files.
    pub sequences: Vec<Sequence>,
}

fn parse_nd(v: &str) -> Result<([usize; 2], [usize; 2]), String> {
    let (g, l) = v
        .split_once('/')
        .ok_or_else(|| format!("nd `{v}`: expected GLOBAL/LOCAL"))?;
    let parse_pair = |s: &str| -> Result<[usize; 2], String> {
        match s.split_once('x') {
            Some((a, b)) => Ok([
                a.parse().map_err(|_| format!("bad nd component `{a}`"))?,
                b.parse().map_err(|_| format!("bad nd component `{b}`"))?,
            ]),
            None => Ok([s.parse().map_err(|_| format!("bad nd component `{s}`"))?, 1]),
        }
    };
    Ok((parse_pair(g)?, parse_pair(l)?))
}

/// Extract the directives from a corpus kernel's header comments.
pub fn parse_directives(src: &str) -> Result<Directives, String> {
    let mut expect: Option<Expectation> = None;
    let mut nd: Option<([usize; 2], [usize; 2])> = None;
    let mut sizes: Option<(usize, usize, i64)> = None;
    let mut sequences: Vec<Sequence> = Vec::new();
    for line in src.lines() {
        let Some(rest) = line.trim().strip_prefix("// fuzz:") else {
            continue;
        };
        let rest = rest.trim();
        if let Some(v) = rest.strip_prefix("expect=") {
            if v == "transform" {
                expect = Some(Expectation::Transform);
            } else if let Some(r) = v.strip_prefix("reject ") {
                let r = r.trim();
                let kv = r
                    .strip_prefix("kind=")
                    .ok_or_else(|| format!("reject directive `{r}`: missing kind="))?;
                let (kind, rest2) = kv
                    .split_once(' ')
                    .ok_or_else(|| format!("reject directive `{r}`: missing reason="))?;
                let reason = rest2
                    .trim()
                    .strip_prefix("reason=")
                    .ok_or_else(|| format!("reject directive `{r}`: missing reason="))?;
                expect = Some(Expectation::Reject {
                    kind: kind.to_string(),
                    reason: reason.to_string(),
                });
            } else {
                return Err(format!("unknown expect value `{v}`"));
            }
        } else if let Some(v) = rest.strip_prefix("nd=") {
            nd = Some(parse_nd(v.trim())?);
        } else if let Some(v) = rest.strip_prefix("passes=") {
            sequences.push(
                Sequence::parse(v.trim()).map_err(|e| format!("passes directive `{v}`: {e}"))?,
            );
        } else if rest.starts_with("in=") {
            let mut in_len = None;
            let mut out_len = None;
            let mut w = None;
            for tok in rest.split_whitespace() {
                if let Some(v) = tok.strip_prefix("in=") {
                    in_len = v.parse().ok();
                } else if let Some(v) = tok.strip_prefix("out=") {
                    out_len = v.parse().ok();
                } else if let Some(v) = tok.strip_prefix("w=") {
                    w = v.parse().ok();
                }
            }
            match (in_len, out_len, w) {
                (Some(i), Some(o), Some(w)) => sizes = Some((i, o, w)),
                _ => return Err(format!("bad sizes directive `{rest}`")),
            }
        }
    }
    let expect = expect.ok_or("missing `// fuzz: expect=` directive")?;
    let shape = match (nd, sizes) {
        (Some((global, local)), Some((in_len, out_len, w))) => Some(ExecShape {
            global,
            local,
            in_len,
            out_len,
            w,
        }),
        _ => None,
    };
    if matches!(expect, Expectation::Transform) && shape.is_none() {
        return Err("expect=transform needs `nd=` and `in=/out=/w=` directives".to_string());
    }
    Ok(Directives {
        expect,
        shape,
        sequences,
    })
}

/// Replay one corpus kernel source, every launch carrying `faults`. `Err`
/// carries the failure description.
pub fn replay_source(src: &str, faults: &Faults) -> Result<(), String> {
    let d = parse_directives(src)?;
    match check_source_seqs(src, &d.expect, d.shape.as_ref(), &d.sequences, faults) {
        CaseOutcome::Transformed | CaseOutcome::Rejected => Ok(()),
        CaseOutcome::Failed(f) => Err(format!("{}: {}", f.kind.name(), f.detail)),
    }
}

/// Replay every `.cl` file under `dir` (sorted by name for stable output).
/// Returns one `(file name, result)` row per file; an unreadable directory
/// yields an empty list.
pub fn replay_dir(dir: &Path) -> Vec<(String, Result<(), String>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "cl"))
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let name = p
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            let res = std::fs::read_to_string(&p)
                .map_err(|e| format!("read: {e}"))
                .and_then(|src| replay_source(&src, &Faults::default()));
            (name, res)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Gen;
    use crate::spec::KernelSpec;

    #[test]
    fn rendered_specs_replay_from_their_own_directives() {
        // The renderer's directive header and the parser must agree: any
        // generated kernel replays standalone, with no spec in sight.
        for seed in [0u64, 5, 9, 21] {
            let spec = KernelSpec::random(&mut Gen::new(seed), None);
            let src = spec.render();
            replay_source(&src, &Faults::default())
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_directives("__kernel void k() {}").is_err());
        assert!(parse_directives("// fuzz: expect=transform\n").is_err()); // no nd
        assert!(parse_directives("// fuzz: expect=reject kind=declined\n").is_err());
    }

    #[test]
    fn passes_directives_parse_and_replay() {
        let spec = KernelSpec::random(&mut Gen::new(5), None);
        let mut src = spec.render();
        src.push_str("// fuzz: passes=local-removal,barrier-elim,remap\n");
        src.push_str("// fuzz: passes=local-removal\n");
        let d = parse_directives(&src).unwrap();
        assert_eq!(d.sequences.len(), 2);
        assert_eq!(d.sequences[0].spec(), "local-removal,barrier-elim,remap");
        replay_source(&src, &Faults::default()).unwrap_or_else(|e| panic!("{e}\n{src}"));
        // An illegal sequence is a parse error, not a silent skip.
        let bad = format!("{src}// fuzz: passes=barrier-elim\n");
        assert!(parse_directives(&bad).is_err());
    }

    #[test]
    fn parse_2d_nd() {
        let src = "// fuzz: expect=transform\n// fuzz: nd=16x8/4x2\n// fuzz: in=256 out=256 w=16\n";
        let d = parse_directives(src).unwrap();
        let s = d.shape.unwrap();
        assert_eq!(s.global, [16, 8]);
        assert_eq!(s.local, [4, 2]);
        assert_eq!((s.in_len, s.out_len, s.w), (256, 256, 16));
    }

    #[test]
    fn reason_may_contain_spaces() {
        let src =
            "// fuzz: expect=reject kind=declined reason=not affine in the work-item indices\nx";
        match parse_directives(src).unwrap().expect {
            Expectation::Reject { kind, reason } => {
                assert_eq!(kind, "declined");
                assert_eq!(reason, "not affine in the work-item indices");
            }
            other => panic!("{other:?}"),
        }
    }
}
