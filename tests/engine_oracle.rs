//! The production engine against the reference oracle, one level above
//! the launch: for all 11 paper apps × {SNB, MIC, Fermi} at `Scale::Test`,
//! the decision `Tuner::new().tune` reaches on the bytecode engine must
//! equal the one recomputed from interpreter launches of the same
//! candidates — same choice, winning sequence and cycle counts.

use grover::devsim::{candidate_sequences, Device};
use grover::ir::Function;
use grover::kernels::{all_apps, prepare_pair, App, Scale};
use grover::pass::{apply_sequence, GroverOptions, Sequence};
use grover::runtime::{enqueue, Backend, Launch};
use grover::tuner::{Choice, Tuner, Workload};

const DEVICES: [&str; 3] = ["SNB", "MIC", "Fermi"];

/// Device-model cycles of one interpreter launch into a fresh `Device`.
fn oracle_cycles(app: &App, kernel: &Function, device: &str) -> u64 {
    let mut p = (app.prepare)(Scale::Test);
    let mut dev = Device::by_name(device).expect("known device");
    enqueue(
        &mut p.ctx,
        kernel,
        &p.args,
        &p.nd,
        &mut dev,
        &Launch {
            backend: Backend::Interp,
            ..Launch::default()
        },
    )
    .unwrap_or_else(|e| panic!("{} on {device}: {e}", app.id));
    dev.finish().cycles
}

#[test]
fn tuner_decisions_match_the_interpreter_oracle() {
    for app in all_apps() {
        let pair = prepare_pair(&app, Scale::Test).unwrap_or_else(|e| panic!("{e}"));
        let buffers: Option<Vec<String>> = app
            .disable
            .map(|names| names.iter().map(|s| s.to_string()).collect());
        let prepare = app.prepare;
        let workload = Workload::new(move || {
            let p = prepare(Scale::Test);
            (p.ctx, p.args, p.nd)
        });
        for device in DEVICES {
            let case = format!("{} on {device}", app.id);
            let mut tuner = Tuner::new();
            tuner.buffers = buffers.clone();
            let d = tuner
                .tune(&pair.original, device, &workload)
                .unwrap_or_else(|e| panic!("{case}: {e}"));
            assert!(d.fallback.is_none(), "{case}: {:?}", d.fallback);

            let options = GroverOptions {
                buffers: buffers.clone(),
                keep_barriers: false,
            };
            let cycles_with = oracle_cycles(&app, &pair.original, device);
            // Lowest cycles wins; the earliest candidate wins ties.
            let mut best: Option<(String, u64)> = None;
            for spec in candidate_sequences(device) {
                let seq = Sequence::parse(spec).expect("seeded sequences parse");
                let mut kernel = pair.original.clone();
                apply_sequence(&mut kernel, &seq, &options);
                let cycles = oracle_cycles(&app, &kernel, device);
                if best.as_ref().is_none_or(|(_, b)| cycles < *b) {
                    best = Some((seq.spec(), cycles));
                }
            }
            let (sequence, cycles_without) = best.expect("every device seeds candidates");
            let np = cycles_with as f64 / cycles_without as f64;
            let choice = if np > 1.0 + tuner.threshold {
                Choice::WithoutLocalMemory
            } else if np < 1.0 - tuner.threshold {
                Choice::WithLocalMemory
            } else {
                Choice::Similar
            };
            assert_eq!(
                (d.choice, d.sequence, d.cycles_with, d.cycles_without),
                (choice, sequence, cycles_with, cycles_without),
                "{case}"
            );
        }
    }
}
