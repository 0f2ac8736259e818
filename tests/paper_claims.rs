//! Locks the reproduced paper numbers that the bench bins only print, so a
//! refactor of the launch path, the passes or the device models cannot move
//! them unnoticed.
//!
//! Table IV: the gain/loss/similar distribution of the 33 Fig. 10 cases
//! (11 apps × SNB/Nehalem/MIC) at the paper's 5 % similarity threshold,
//! measured at `Scale::Test` exactly as `table4` measures it.
//!
//! Fig. 2: the directions of the Matrix Transpose row across all six
//! devices at `Scale::Small`, as `fig2` prints them — disabling local
//! memory gains on the CPUs and loses on the NVIDIA GPUs.

use std::collections::BTreeMap;

use grover::devsim::{Device, ALL_DEVICES, CPU_DEVICES};
use grover::ir::Function;
use grover::kernels::{all_apps, app_by_id, prepare_pair, run_prepared, App, Scale};

fn cycles(app: &App, kernel: &Function, device: &str, scale: Scale) -> u64 {
    let mut dev = Device::by_name(device).expect("paper devices exist");
    run_prepared(kernel, (app.prepare)(scale), &mut dev)
        .unwrap_or_else(|e| panic!("{} on {device}: {e}", app.id));
    dev.finish().cycles
}

#[test]
fn table4_distribution_at_test_scale() {
    // [gain, loss, similar] per device.
    let mut counts: BTreeMap<&str, [u32; 3]> = BTreeMap::new();
    for app in all_apps() {
        let pair = prepare_pair(&app, Scale::Test).unwrap_or_else(|e| panic!("{e}"));
        for device in CPU_DEVICES {
            let with_lm = cycles(&app, &pair.original, device, Scale::Test);
            let without_lm = cycles(&app, &pair.transformed, device, Scale::Test);
            let np = with_lm as f64 / without_lm.max(1) as f64;
            let slot = if np > 1.05 {
                0
            } else if np < 0.95 {
                1
            } else {
                2
            };
            counts.entry(device).or_default()[slot] += 1;
        }
    }
    let expected = BTreeMap::from([
        ("SNB", [9, 0, 2]),
        ("Nehalem", [9, 0, 2]),
        ("MIC", [5, 2, 4]),
    ]);
    assert_eq!(counts, expected, "per-device [gain, loss, similar]");
    let total = counts.values().fold([0; 3], |acc, c| {
        [acc[0] + c[0], acc[1] + c[1], acc[2] + c[2]]
    });
    assert_eq!(total, [23, 2, 8], "Table IV total row");
}

#[test]
fn fig2_mt_directions_at_small_scale() {
    let app = app_by_id("NVD-MT").expect("MT is a paper app");
    let pair = prepare_pair(&app, Scale::Small).unwrap_or_else(|e| panic!("{e}"));
    for device in ALL_DEVICES {
        let with_lm = cycles(&app, &pair.original, device, Scale::Small);
        let without_lm = cycles(&app, &pair.transformed, device, Scale::Small);
        let np = with_lm as f64 / without_lm.max(1) as f64;
        let holds = match device {
            // Caches only: the staging copy is pure overhead.
            "SNB" | "Nehalem" | "MIC" => np > 1.05,
            // Uncoalesced global reads cost more than the staging copy.
            "Fermi" | "Kepler" => np < 0.95,
            // Tahiti sits within the similarity band.
            "Tahiti" => (0.95..=1.05).contains(&np),
            other => panic!("no Fig. 2 direction for {other}"),
        };
        assert!(
            holds,
            "MT on {device}: np = {np:.3} ({with_lm} / {without_lm})"
        );
    }
}
