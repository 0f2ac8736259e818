//! Observed kernel launches: with an enabled [`crate::Launch::recorder`],
//! [`crate::enqueue`] wraps the launch engine in a [`grover_obs::Recorder`]
//! span carrying the launch's aggregate metrics — instructions,
//! per-address-space access counts and bytes, geometry, wall time — plus
//! one event per worker with its utilisation.
//!
//! With the recorder disabled (the default [`grover_obs::NoopRecorder`])
//! `enqueue` never reaches this module: no tee sink, no clock reads, no
//! per-group timing — production pays nothing.

use std::time::Instant;

use grover_ir::Function;
use grover_obs::Value;

use crate::buffer::Context;
use crate::interp::{enqueue_impl, ArgValue, ExecPolicy, Launch, LaunchStats, NdRange, WorkerStat};
use crate::trace::{AccessEvent, CountingSink, TraceSink};
use crate::ExecError;

/// Forwards every callback to the wrapped sink while tallying counts for
/// the launch span, so observation composes with whatever sink the caller
/// brought (a device model, a [`crate::VecSink`], ...).
struct TeeSink<'a> {
    inner: &'a mut dyn TraceSink,
    counts: CountingSink,
}

impl TraceSink for TeeSink<'_> {
    fn access(&mut self, ev: &AccessEvent) {
        self.counts.access(ev);
        self.inner.access(ev);
    }

    fn barrier(&mut self, group: u32, items: u32) {
        self.counts.barrier(group, items);
        self.inner.barrier(group, items);
    }

    fn workitem_done(&mut self, group: u32, local: u32, instructions: u64) {
        self.counts.workitem_done(group, local, instructions);
        self.inner.workitem_done(group, local, instructions);
    }

    fn workgroup_done(&mut self, group: u32) {
        self.inner.workgroup_done(group);
    }

    // The tee itself always consumes accesses (it counts them), regardless
    // of what the inner sink wants.
    fn wants_events(&self) -> bool {
        true
    }
}

/// [`crate::enqueue`] with an enabled recorder: the launch wrapped in a
/// `launch` span carrying its aggregate metrics, one `worker` event per
/// worker and, for a profiled launch, one `profile` event.
pub(crate) fn observed(
    ctx: &mut Context,
    kernel: &Function,
    args: &[ArgValue],
    nd: &NdRange,
    sink: &mut dyn TraceSink,
    launch: &Launch,
) -> Result<LaunchStats, ExecError> {
    let (recorder, policy) = (launch.recorder, launch.policy);
    let span = recorder.span_start("launch", launch.parent);
    recorder.span_attr(span, "kernel", Value::from(kernel.name.as_str()));
    let (policy_name, workers) = match policy {
        ExecPolicy::Serial => ("serial", 1),
        ExecPolicy::Parallel { .. } => ("parallel", policy.worker_count()),
    };
    recorder.span_attr(span, "policy", Value::from(policy_name));
    recorder.span_attr(span, "workers", Value::from(workers));

    let mut tee = TeeSink {
        inner: sink,
        counts: CountingSink::default(),
    };
    let mut worker_stats: Vec<WorkerStat> = Vec::new();
    let t0 = Instant::now();
    let result = enqueue_impl(
        ctx,
        kernel,
        args,
        nd,
        &mut tee,
        launch,
        Some(&mut worker_stats),
    );
    let wall = t0.elapsed();

    let c = &tee.counts;
    recorder.span_attr(span, "instructions", Value::from(c.instructions));
    recorder.span_attr(span, "barriers", Value::from(c.barriers));
    recorder.span_attr(span, "global_loads", Value::from(c.global_loads));
    recorder.span_attr(span, "global_stores", Value::from(c.global_stores));
    recorder.span_attr(span, "local_loads", Value::from(c.local_loads));
    recorder.span_attr(span, "local_stores", Value::from(c.local_stores));
    recorder.span_attr(span, "constant_loads", Value::from(c.constant_loads));
    recorder.span_attr(span, "private_loads", Value::from(c.private_loads));
    recorder.span_attr(span, "private_stores", Value::from(c.private_stores));
    recorder.span_attr(span, "bytes_loaded", Value::from(c.bytes_loaded));
    recorder.span_attr(span, "bytes_stored", Value::from(c.bytes_stored));
    recorder.span_attr(
        span,
        "global_bytes_loaded",
        Value::from(c.global_bytes.loaded),
    );
    recorder.span_attr(
        span,
        "global_bytes_stored",
        Value::from(c.global_bytes.stored),
    );
    recorder.span_attr(
        span,
        "local_bytes_loaded",
        Value::from(c.local_bytes.loaded),
    );
    recorder.span_attr(
        span,
        "local_bytes_stored",
        Value::from(c.local_bytes.stored),
    );
    recorder.span_attr(
        span,
        "constant_bytes_loaded",
        Value::from(c.constant_bytes.loaded),
    );
    recorder.span_attr(span, "wall_us", Value::from(wall.as_micros() as u64));
    match &result {
        Ok(stats) => {
            recorder.span_attr(span, "ok", Value::from(true));
            recorder.span_attr(span, "work_items", Value::from(stats.work_items));
            recorder.span_attr(span, "work_groups", Value::from(stats.work_groups));
        }
        Err(e) => {
            recorder.span_attr(span, "ok", Value::from(false));
            recorder.span_attr(span, "error", Value::from(e.to_string()));
        }
    }

    let wall_us = wall.as_micros().max(1) as f64;
    for (i, w) in worker_stats.iter().enumerate() {
        let busy_us = w.busy.as_micros() as u64;
        recorder.event(
            "worker",
            Some(span),
            &[
                ("worker", Value::from(i)),
                ("groups", Value::from(w.groups)),
                ("busy_us", Value::from(busy_us)),
                ("max_group_us", Value::from(w.max_group.as_micros() as u64)),
                ("util", Value::from(busy_us as f64 / wall_us)),
            ],
        );
    }
    if let Some(p) = result.as_ref().ok().and_then(|s| s.profile.as_ref()) {
        let mut attrs: Vec<(String, Value)> = vec![
            ("total_count".to_string(), Value::from(p.total_count)),
            ("total_charged".to_string(), Value::from(p.total_charged)),
        ];
        for row in &p.ops {
            attrs.push((format!("count.{}", row.kind), Value::from(row.count)));
            attrs.push((format!("charged.{}", row.kind), Value::from(row.charged)));
        }
        let borrowed: Vec<(&str, Value)> =
            attrs.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
        recorder.event("profile", Some(span), &borrowed);
    }
    recorder.span_end(span);
    result
}
