//! Corpus replay as ordinary `cargo test` cases.
//!
//! `corpus/must-reject/` holds kernels the pass must refuse, each asserting
//! its exact `BufferOutcome` kind and reason; `corpus/regressions/` holds
//! shrunk reproducers and conformance cases from past fuzzing. Both replay
//! through the same oracle the campaign uses, so every transform case is
//! also re-executed on the bytecode engine against the interpreter's bits.

use grover_fuzz::replay_dir;
use std::path::PathBuf;

fn corpus(sub: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("corpus")
        .join(sub)
}

fn replay_all(sub: &str, min_files: usize) {
    let rows = replay_dir(&corpus(sub));
    assert!(
        rows.len() >= min_files,
        "expected at least {min_files} corpus kernels under corpus/{sub}, found {}",
        rows.len()
    );
    let mut bad = Vec::new();
    for (file, res) in rows {
        if let Err(e) = res {
            bad.push(format!("{file}: {e}"));
        }
    }
    assert!(bad.is_empty(), "corpus/{sub} failures:\n{}", bad.join("\n"));
}

#[test]
fn must_reject_corpus_is_refused_for_the_right_reasons() {
    replay_all("must-reject", 5);
}

#[test]
fn regression_corpus_replays_clean() {
    replay_all("regressions", 2);
}
