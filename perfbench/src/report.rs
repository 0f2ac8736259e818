//! The metric catalogue and the result of one run.
//!
//! `END_TO_END` and `PER_LAYER` mirror `BENCHMARK.json` at the repository
//! root; a test keeps the two in step.

use std::collections::BTreeMap;

use grover_obs::json::{self, Obj};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn tag(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// a change counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the tuner or the service sees. Each workload defines its
/// timed operation (README.md, "End-to-end metrics").
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("latency_ms", "ms", Lower, 0.20),
    e2e("tail_latency_ms", "ms", Lower, 0.25),
    e2e("cpu_ms", "ms", Lower, 0.25),
    e2e("throughput_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.10),
];

/// One layer each, measured from outside by timing the layer's public
/// entry points in the traced pass.
pub const PER_LAYER: &[MetricDef] = &[
    layer("tuner.tune_cpu_ms", "ms", Lower),
    layer("tuner.parallelism", "ratio", Higher),
    layer("tuner.launches_per_tune", "count", Lower),
    layer("tuner.verify_ms", "ms", Lower),
    layer("tuner.unattributed_ms", "ms", Lower),
    layer("tuner.unattributed_share", "share", Lower),
    layer("core.pipeline_ms", "ms", Lower),
    layer("kernels.prepare_ms", "ms", Lower),
    layer("runtime.exec_ms", "ms", Lower),
    layer("runtime.exec_share", "share", Lower),
    layer("runtime.minsts_per_s", "Minst/s", Higher),
    layer("runtime.trace_overhead_ms", "ms", Lower),
    layer("runtime.instructions", "count", Lower),
    layer("runtime.events", "count", Lower),
    layer("devsim.new_ms", "ms", Lower),
    layer("devsim.replay_ms", "ms", Lower),
    layer("devsim.mevents_per_s", "Mevent/s", Higher),
    layer("devsim.nondeterministic_cases", "count", Lower),
    layer("frontend.compile_ms", "ms", Lower),
    layer("ir.optimize_ms", "ms", Lower),
    layer("core.fingerprint_us", "us", Lower),
    layer("obs.json_parse_us", "us", Lower),
    layer("predict.extract_us", "us", Lower),
    layer("predict.score_us", "us", Lower),
    layer("serve.journal.append_us", "us", Lower),
    layer("serve.transport_p50_ms", "ms", Lower),
    layer("serve.server_hit_p50_ms", "ms", Lower),
    layer("serve.server_predict_p50_ms", "ms", Lower),
    layer("serve.server_miss_p50_ms", "ms", Lower),
    layer("serve.client_wait_p99_ms", "ms", Lower),
    layer("serve.gen_late_p99_ms", "ms", Lower),
    layer("serve.launches_per_miss", "count", Lower),
];

pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Everything one workload run measured and checked.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    /// Unscaled value of each end-to-end time scaled to the reference
    /// host speed (`clock::scaled`).
    raw: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
    /// Sample counts behind the metrics, by name.
    pub samples: BTreeMap<String, u64>,
    /// Length of each timed phase, seconds.
    pub durations: BTreeMap<String, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// Failure messages kept for printing; the count is always exact.
const KEPT_FAILURES: usize = 20;

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(find(name).is_some(), "{name} is not in the catalogue");
        self.values.insert(name, value);
    }

    /// An end-to-end time scaled to the reference host speed, and its raw
    /// measurement. A value that could not be measured is left out, and
    /// `metrics_json` reports it missing.
    pub fn set_scaled(&mut self, name: &'static str, scaled: Option<f64>, raw: Option<f64>) {
        if let Some(v) = scaled {
            self.set(name, v);
        }
        if let Some(v) = raw {
            self.raw.insert(name, v);
        }
    }

    /// One checked operation: attempted, and failed when `r` is `Err`.
    pub fn check(&mut self, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.fail(e);
        }
    }

    /// A failed check that is not an operation of its own.
    pub fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(e);
        }
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// `{"name": {"value": v, "unit": u}, ...}` over `defs`; `Err` lists
    /// the metrics this run did not produce.
    pub fn metrics_json(&self, defs: &[MetricDef]) -> Result<String, String> {
        let missing: Vec<&str> = defs
            .iter()
            .filter(|d| !self.values.get(d.name).is_some_and(|v| v.is_finite()))
            .map(|d| d.name)
            .collect();
        if !missing.is_empty() {
            return Err(format!("metrics not measured: {}", missing.join(", ")));
        }
        let obj = defs.iter().fold(Obj::new(), |obj, d| {
            obj.raw(
                d.name,
                &Obj::new()
                    .f64("value", self.values[d.name])
                    .str("unit", d.unit)
                    .finish(),
            )
        });
        Ok(obj.finish())
    }

    /// The result object the benchmark prints as its last line.
    pub fn result_json(&self, metrics: &str) -> String {
        Obj::new()
            .bool("correct", self.correct())
            .u64("attempted", self.attempted)
            .u64("failed", self.failed)
            .raw("metrics", metrics)
            .finish()
    }

    pub fn raw_json(&self) -> String {
        let obj = self.raw.iter().fold(Obj::new(), |o, (k, v)| o.f64(k, *v));
        obj.finish()
    }

    pub fn samples_json(&self) -> String {
        let obj = self
            .samples
            .iter()
            .fold(Obj::new(), |o, (k, v)| o.u64(k, *v));
        obj.finish()
    }

    pub fn durations_json(&self) -> String {
        let obj = self
            .durations
            .iter()
            .fold(Obj::new(), |o, (k, v)| o.f64(k, *v));
        obj.finish()
    }

    /// `name = value unit` for each of `defs` this run measured, with the
    /// raw value of a scaled time.
    pub fn metric_lines(&self, defs: &[MetricDef]) -> Vec<String> {
        defs.iter()
            .filter_map(|d| {
                let v = self.values.get(d.name)?;
                let raw = self
                    .raw
                    .get(d.name)
                    .map_or(String::new(), |r| format!(", raw {}", json::number(*r)));
                Some(format!(
                    "{:<32} {:>14} {} ({} is better{raw})",
                    d.name,
                    json::number(*v),
                    d.unit,
                    d.better.tag()
                ))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grover_obs::json::Json;

    /// The catalogue must match `BENCHMARK.json` name for name.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).and_then(Json::as_arr).unwrap();
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (l, d) in listed.iter().zip(defs) {
                assert_eq!(l.str_of("name"), Some(d.name));
                assert_eq!(l.str_of("unit"), Some(d.unit), "{}", d.name);
                assert_eq!(l.str_of("better"), Some(d.better.tag()), "{}", d.name);
                assert_eq!(l.f64_of("bound"), d.bound, "{}", d.name);
            }
        }
    }

    #[test]
    fn missing_metrics_are_reported() {
        let mut r = Report::default();
        r.set("setup_s", 1.5);
        let err = r.metrics_json(&END_TO_END[..2]).unwrap_err();
        assert!(err.contains("latency_ms"), "{err}");
        r.set("latency_ms", 2.0);
        let m = r.metrics_json(&END_TO_END[..2]).unwrap();
        assert_eq!(
            m,
            r#"{"setup_s":{"value":1.5,"unit":"s"},"latency_ms":{"value":2,"unit":"ms"}}"#
        );
        r.check(Ok(()));
        r.check(Err("boom".into()));
        assert!(!r.correct());
        assert_eq!((r.attempted, r.failed), (2, 1));
    }
}
