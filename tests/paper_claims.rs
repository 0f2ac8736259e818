//! Locks the reproduced paper numbers that the bench bins only print, so a
//! refactor of the launch path, the passes or the device models cannot move
//! them unnoticed.
//!
//! Table IV: the gain/loss/similar distribution of the 33 Fig. 10 cases
//! (11 apps × SNB/Nehalem/MIC) at the paper's 5 % similarity threshold,
//! measured at `Scale::Test` exactly as `table4` measures it.

use std::collections::BTreeMap;

use grover::devsim::{Device, CPU_DEVICES};
use grover::ir::Function;
use grover::kernels::{all_apps, prepare_pair, run_prepared, App, Scale};

fn cycles(app: &App, kernel: &Function, device: &str) -> u64 {
    let mut dev = Device::by_name(device).expect("CPU devices exist");
    run_prepared(kernel, (app.prepare)(Scale::Test), &mut dev)
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
            let with_lm = cycles(&app, &pair.original, device);
            let without_lm = cycles(&app, &pair.transformed, device);
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
