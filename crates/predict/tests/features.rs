//! Feature-extraction contracts: determinism (byte-identical JSON for
//! identical inputs), a locked schema hash, and the static-vs-dynamic
//! reconciliation — every feature the extractor claims is present must be
//! corroborated by the observed execution counters of the bundled suite,
//! and the counters themselves must be schedule-independent
//! (serial ≡ parallel).

use grover_kernels::{all_apps, extension_apps, prepare_pair, run_prepared_with, App, Scale};
use grover_predict::{schema_hash, FeatureVector, FEATURE_NAMES};
use grover_runtime::{CountingSink, ExecPolicy, Launch};

/// The full 12-app suite: the 11 Table-I applications plus EXT-CONV.
fn suite() -> Vec<App> {
    let mut apps = all_apps();
    apps.extend(extension_apps());
    apps
}

/// Observed execution counters of the original (local-memory) kernel.
fn observe(app: &App, policy: ExecPolicy) -> CountingSink {
    let pair = prepare_pair(app, Scale::Test).expect("suite app prepares");
    let prepared = (app.prepare)(Scale::Test);
    let mut sink = CountingSink::default();
    let launch = Launch {
        policy,
        ..Launch::default()
    };
    run_prepared_with(&pair.original, prepared, &mut sink, &launch).expect("suite app runs");
    sink
}

#[test]
fn schema_hash_is_locked() {
    // Any change to the feature list (order, name, count, version) must be
    // deliberate: bump `FEATURES_VERSION` and update this literal, then
    // retrain every model — stale ones are rejected by hash, not by luck.
    assert_eq!(FEATURE_NAMES.len(), 14);
    assert_eq!(schema_hash(), "9e396297c70b5aaceb4e3e4039429e64");
}

#[test]
fn extraction_is_deterministic_and_byte_stable() {
    for app in suite() {
        let a = prepare_pair(&app, Scale::Test).expect("prepares");
        let b = prepare_pair(&app, Scale::Test).expect("prepares");
        let nd = (app.prepare)(Scale::Test).nd;
        let fa = FeatureVector::extract(&a.original, nd.global, nd.local);
        let fb = FeatureVector::extract(&b.original, nd.global, nd.local);
        // Two independent compiles of the same source yield byte-identical
        // serialisations — the corpus-determinism contract.
        assert_eq!(fa.to_json(), fb.to_json(), "{}", app.id);
        assert_eq!(fa.values_json(), fb.values_json(), "{}", app.id);
        // And a round-trip through the wire form is exact.
        let parsed = grover_obs::json::parse(&fa.values_json()).expect("valid json");
        let back = FeatureVector::from_values_json(&parsed).expect("parses back");
        assert_eq!(back, fa, "{}", app.id);
    }
}

#[test]
fn static_features_reconcile_with_observed_counters() {
    for app in suite() {
        let pair = prepare_pair(&app, Scale::Test).expect("prepares");
        let nd = (app.prepare)(Scale::Test).nd;
        let fv = FeatureVector::extract(&pair.original, nd.global, nd.local);
        let get = |name: &str| fv.get(name).expect("known feature");

        let obs = observe(&app, ExecPolicy::Serial);
        // Sound direction only: an executed operation must be visible to
        // the static extractor. (The converse can fail legitimately —
        // statically present code may be guarded off at this scale.)
        if obs.barriers > 0 {
            assert!(get("barrier_density") > 0.0, "{}: barriers ran", app.id);
        }
        if obs.local_loads > 0 {
            assert!(get("local_load_frac") > 0.0, "{}: local loads ran", app.id);
        }
        if obs.local_stores > 0 {
            assert!(
                get("local_store_frac") > 0.0,
                "{}: local stores ran",
                app.id
            );
        }
        if obs.global_loads > 0 {
            assert!(
                get("global_load_frac") > 0.0,
                "{}: global loads ran",
                app.id
            );
        }
        if obs.global_stores > 0 {
            assert!(
                get("global_store_frac") > 0.0,
                "{}: global stores ran",
                app.id
            );
        }
        // Footprint: the geometry-normalised local-buffer feature is
        // positive exactly when the kernel declares `__local` storage.
        assert_eq!(
            get("local_bytes_per_item") > 0.0,
            pair.original.local_mem_bytes() > 0,
            "{}: local footprint",
            app.id
        );
        // Geometry features mirror the launch, not the trace.
        let wg: u64 = nd.local.iter().product();
        let groups: u64 = nd.global.iter().product::<u64>() / wg.max(1);
        assert_eq!(
            get("wg_items_log2"),
            (wg.max(1) as f64).log2(),
            "{}",
            app.id
        );
        assert_eq!(
            get("groups_log2"),
            (groups.max(1) as f64).log2(),
            "{}",
            app.id
        );
    }
}

#[test]
fn observed_counters_are_schedule_independent() {
    // The reconciliation above is only meaningful if the dynamic side is
    // itself deterministic: a parallel schedule must count exactly what
    // the serial one does.
    for app in suite() {
        let s = observe(&app, ExecPolicy::Serial);
        let p = observe(&app, ExecPolicy::Parallel { threads: 4 });
        assert_eq!(s.barriers, p.barriers, "{}", app.id);
        assert_eq!(s.instructions, p.instructions, "{}", app.id);
        assert_eq!(s.global_loads, p.global_loads, "{}", app.id);
        assert_eq!(s.global_stores, p.global_stores, "{}", app.id);
        assert_eq!(s.local_loads, p.local_loads, "{}", app.id);
        assert_eq!(s.local_stores, p.local_stores, "{}", app.id);
        assert_eq!(s.bytes_loaded, p.bytes_loaded, "{}", app.id);
        assert_eq!(s.bytes_stored, p.bytes_stored, "{}", app.id);
    }
}
