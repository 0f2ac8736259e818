//! The paper-facing acceptance gate: leave-one-app-out evaluation over a
//! corpus of measured decisions for the full 12-app suite on all six
//! device profiles. The model must agree with the measured verdict on at
//! least 75 % of held-out apps, and — the safety half of the contract —
//! every disagreement must sit below the default serving threshold, so a
//! predict-hit can never silently serve a wrong answer.

use grover_devsim::ALL_DEVICES;
use grover_kernels::{all_apps, extension_apps, prepare_pair, App, Scale};
use grover_predict::{evaluate_loo, FeatureVector, TrainConfig, TrainRow, Verdict};
use grover_tuner::{Tuner, Workload};

fn suite() -> Vec<App> {
    let mut apps = all_apps();
    apps.extend(extension_apps());
    apps
}

/// Measure the full suite × device grid once. No output verification:
/// this corpus feeds the evaluator, not the safety pipeline, and the
/// differential guard is exercised elsewhere.
fn measured_corpus() -> Vec<TrainRow> {
    let mut rows = Vec::new();
    for app in suite() {
        let pair = prepare_pair(&app, Scale::Test).expect("suite app prepares");
        let nd = (app.prepare)(Scale::Test).nd;
        let features = FeatureVector::extract(&pair.original, nd.global, nd.local);
        let prepare = app.prepare;
        let workload = Workload::new(move || {
            let p = prepare(Scale::Test);
            (p.ctx, p.args, p.nd)
        });
        for device in ALL_DEVICES {
            let mut tuner = Tuner::new();
            tuner.verify_outputs = false;
            let d = tuner
                .tune(&pair.original, device, &workload)
                .expect("suite app tunes");
            rows.push(TrainRow {
                device: device.to_string(),
                // Group by app id, not kernel symbol: the NVD-MM variants
                // share one kernel, and leave-one-out must hold out the
                // whole app.
                kernel: app.id.to_string(),
                features: features.clone(),
                choice: Verdict::parse(d.choice.kind())
                    .expect("tuner choice tags and predict verdicts coincide"),
                np: d.np,
            });
        }
    }
    rows
}

#[test]
fn leave_one_app_out_meets_acceptance() {
    let rows = measured_corpus();
    assert_eq!(rows.len(), 12 * ALL_DEVICES.len(), "full grid measured");

    let epoch = grover_core::pass_fingerprint();
    let cfg = TrainConfig::default();
    let report = evaluate_loo(&rows, &epoch, &cfg);

    let acc = report.accuracy();
    assert!(
        acc >= 0.75,
        "LOO agreement {acc:.3} below the 0.75 acceptance floor; disagreements: {:?}",
        report
            .cases
            .iter()
            .filter(|c| !c.agrees())
            .map(|c| (c.kernel.as_str(), c.device.as_str(), c.confidence))
            .collect::<Vec<_>>()
    );

    // Every wrong prediction abstains at the default serving threshold
    // (0.7 — `Tuner::predict_threshold` / `ServeConfig::predict_threshold`).
    let max_wrong = report.max_wrong_confidence();
    assert!(
        max_wrong < 0.7,
        "a wrong prediction is over-confident: {max_wrong:.3}"
    );
}
