//! The fuzzer must actually catch bugs: inject a deterministic
//! index-arithmetic fault into every transformed (local-memory-free)
//! kernel and demand the campaign (a) flags every positive case as a
//! mismatch, (b) shrinks each one to a small standalone reproducer, and
//! (c) the reproducer keeps failing while the bug exists and passes once
//! it is gone.
//!
//! The plan travels in the campaign's options and the replay's argument,
//! so it reaches only the launches of this test.

use grover_fuzz::{replay_source, run_campaign, CampaignOptions, FailureKind};
use grover_obs::NOOP;
use grover_runtime::fault::{FaultKind, FaultPlan, FaultSite, FaultTarget, Faults};
use std::path::PathBuf;

#[test]
fn injected_index_offset_bug_is_caught_and_shrunk() {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("fuzz-fault-catch");
    let _ = std::fs::remove_dir_all(&out_dir);

    // Offset every global load of local-memory-free kernels by one element:
    // a stand-in for an off-by-one in the pass's index rewrite. Originals
    // still use local memory, so only the transformed side is hit.
    let faults = Faults::new(FaultPlan {
        target: FaultTarget::transformed("fz"),
        site: FaultSite::LaunchStart,
        kind: FaultKind::OffsetGlobalLoads(1),
        max_fires: 0,
    });

    let opts = CampaignOptions {
        seed: 42,
        cases: 25,
        out_dir: Some(out_dir.clone()),
        faults: faults.clone(),
    };
    let summary = run_campaign(&opts, &NOOP);

    // All 20 positive cases mismatch; the 5 poison cases still reject fine
    // (they are never executed).
    assert_eq!(summary.failures.len(), 20, "{}", summary.to_text());
    assert_eq!(summary.rejected, 5);
    for f in &summary.failures {
        assert_eq!(
            f.kind,
            FailureKind::Mismatch,
            "case {}: {}",
            f.case,
            f.detail
        );
        let lines = f.source.lines().count();
        assert!(
            lines <= 25,
            "case {} reproducer not minimal: {lines} lines\n{}",
            f.case,
            f.source
        );
        let path = f.reproducer.as_ref().expect("reproducer written");
        assert!(path.exists());
    }

    // With the bug in place, a written reproducer replays as failing…
    let repro = std::fs::read_to_string(summary.failures[0].reproducer.as_ref().unwrap()).unwrap();
    let err =
        replay_source(&repro, &faults).expect_err("reproducer must fail while the bug exists");
    assert!(err.contains("mismatch"), "{err}");

    // …and once the bug is fixed (no plan), the same file passes.
    replay_source(&repro, &Faults::default())
        .expect("reproducer passes after the fault is removed");
}
