#![warn(missing_docs)]
//! # grover-tuner
//!
//! The auto-tuning framework the paper sketches as future work (§VIII):
//! *"Ultimately, we aim to incorporate Grover into a high-level auto-tuning
//! framework for OpenCL kernels, where code specialization is automated for
//! different classes of platforms."*
//!
//! Given a kernel and a representative workload, the [`Tuner`]:
//!
//! 1. runs the Grover pass to obtain the local-memory-free version,
//! 2. races both versions on the target device model,
//! 3. returns the winning kernel — and caches the decision per
//!    `(kernel, device)` so later launches pay nothing.
//!
//! ```
//! use grover_frontend::{compile, BuildOptions};
//! use grover_runtime::{ArgValue, Context, NdRange};
//! use grover_tuner::{Tuner, Workload};
//!
//! let module = compile(
//!     "__kernel void rev(__global float* in, __global float* out) {
//!          __local float lm[16];
//!          int lx = get_local_id(0);
//!          int wx = get_group_id(0);
//!          lm[lx] = in[wx * 16 + lx];
//!          barrier(CLK_LOCAL_MEM_FENCE);
//!          out[wx * 16 + lx] = lm[15 - lx];
//!      }",
//!     &BuildOptions::new(),
//! ).unwrap();
//! let kernel = module.kernel("rev").unwrap();
//!
//! let mut tuner = Tuner::new();
//! let workload = Workload::new(|| {
//!     let mut ctx = Context::new();
//!     let a = ctx.buffer_f32(&[0.0; 64]);
//!     let b = ctx.zeros_f32(64);
//!     (ctx, vec![ArgValue::Buffer(a), ArgValue::Buffer(b)], NdRange::d1(64, 16))
//! });
//! let decision = tuner.tune(kernel, "SNB", &workload).unwrap();
//! assert!(decision.np > 0.0);
//! let _best = tuner.best_kernel(kernel, "SNB", &workload).unwrap();
//! ```

use std::cell::Cell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use grover_core::{apply_sequence, GroverOptions, GroverReport, Sequence};
use grover_devsim::Device;
use grover_ir::Function;
use grover_obs::{NoopRecorder, Recorder, SpanId, Value};
use grover_predict::{FeatureVector, Model as PredictModel, Prediction, Verdict};
use grover_runtime::fault::Faults;
use grover_runtime::{
    enqueue, ArgValue, BufferData, Context, ExecError, ExecPolicy, Launch, Limits, NdRange,
    NullSink,
};

/// Which kernel version won.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Choice {
    /// Keep the original (local memory enabled).
    WithLocalMemory,
    /// Use the Grover-transformed version.
    WithoutLocalMemory,
    /// Within the similarity threshold — either works; the tuner returns
    /// the original for stability.
    Similar,
}

impl Choice {
    /// Stable machine-readable tag (`with_local_memory`,
    /// `without_local_memory`, `similar`) — shared by the CLI's `--json`
    /// output and the telemetry decision record.
    pub fn kind(&self) -> &'static str {
        match self {
            Choice::WithLocalMemory => "with_local_memory",
            Choice::WithoutLocalMemory => "without_local_memory",
            Choice::Similar => "similar",
        }
    }
}

/// Why a tuning run was demoted to the original kernel regardless of the
/// measured cycle counts. The tuner never recommends a transformed kernel
/// that failed to run, panicked, timed out, or produced different output
/// bits — [`Tuner::best_kernel`] falls back to the original instead.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FallbackReason {
    /// The transformed kernel's output buffers differ bit-for-bit from the
    /// original's on the representative workload.
    OutputMismatch {
        /// Index of the first differing buffer (creation order).
        buffer: u32,
        /// First differing element inside that buffer.
        index: usize,
    },
    /// The transformed kernel failed with an execution error.
    ExecFailed(String),
    /// A measurement of the transformed kernel panicked; the panic was
    /// isolated to the race thread and converted.
    Panicked(String),
    /// The transformed measurement exceeded the wall-clock deadline.
    DeadlineExceeded,
    /// No measurement was attempted at all: a serving layer's circuit
    /// breaker was open (the tuner had been failing repeatedly) and the
    /// conservative original-kernel decision was served instead. Decisions
    /// carrying this reason are degraded placeholders — they must never be
    /// cached or persisted.
    CircuitOpen(String),
}

impl std::fmt::Display for FallbackReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FallbackReason::OutputMismatch { buffer, index } => write!(
                f,
                "transformed kernel output differs (buffer {buffer}, element {index})"
            ),
            FallbackReason::ExecFailed(e) => write!(f, "transformed kernel failed: {e}"),
            FallbackReason::Panicked(m) => write!(f, "transformed measurement panicked: {m}"),
            FallbackReason::DeadlineExceeded => {
                f.write_str("transformed measurement exceeded the deadline")
            }
            FallbackReason::CircuitOpen(detail) => {
                write!(f, "tuner circuit breaker open: {detail}")
            }
        }
    }
}

/// Stable machine-readable tag for a [`FallbackReason`] (CLI `--json`).
impl FallbackReason {
    /// One of `output_mismatch`, `exec_error`, `panic`, `deadline`,
    /// `circuit_open`.
    pub fn kind(&self) -> &'static str {
        match self {
            FallbackReason::OutputMismatch { .. } => "output_mismatch",
            FallbackReason::ExecFailed(_) => "exec_error",
            FallbackReason::Panicked(_) => "panic",
            FallbackReason::DeadlineExceeded => "deadline",
            FallbackReason::CircuitOpen(_) => "circuit_open",
        }
    }
}

/// Retry policy for transient measurement failures (panics and deadline
/// overruns; deterministic [`ExecError`]s are never retried).
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts per measurement, including the first (min 1).
    pub max_attempts: u32,
    /// Sleep between attempts.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 2,
            backoff: Duration::ZERO,
        }
    }
}

/// Outcome of one tuning run.
#[derive(Clone, Debug)]
pub struct Decision {
    /// Device the decision applies to.
    pub device: String,
    /// The winning version.
    pub choice: Choice,
    /// The pass sequence (spec form, e.g.
    /// `local-removal,barrier-elim,index-simplify`) that produced the
    /// winning transformed candidate. Recorded even when `choice` keeps
    /// the original: it names the best candidate the race found.
    pub sequence: String,
    /// `np = t_with / t_without` (paper §VI-B). `0.0` when the transformed
    /// version never completed a measurement (see `fallback`).
    pub np: f64,
    /// Simulated cycles with local memory.
    pub cycles_with: u64,
    /// Simulated cycles without local memory (`0` when the transformed
    /// version never completed a measurement).
    pub cycles_without: u64,
    /// What Grover did to the kernel.
    pub report: GroverReport,
    /// `Some` when the decision was demoted to [`Choice::WithLocalMemory`]
    /// by the hardening pipeline rather than by the cycle race.
    pub fallback: Option<FallbackReason>,
    /// `Some(confidence)` when the decision came from the predictive model
    /// with **zero launches** (`cycles_with`/`cycles_without` are then `0`
    /// and `np` is the model's estimate); `None` when it was measured.
    pub predicted: Option<f64>,
}

/// A representative workload: a factory producing a fresh context,
/// argument list and launch geometry for each measurement run.
pub struct Workload {
    make: Box<dyn Fn() -> (Context, Vec<ArgValue>, NdRange)>,
}

impl Workload {
    /// Wrap a workload factory.
    pub fn new(make: impl Fn() -> (Context, Vec<ArgValue>, NdRange) + 'static) -> Workload {
        Workload {
            make: Box::new(make),
        }
    }

    fn instantiate(&self) -> (Context, Vec<ArgValue>, NdRange) {
        (self.make)()
    }
}

/// Tuning failures.
///
/// These report failures of the *original* kernel or of the tuner itself —
/// there is no correct version left to fall back to. Failures of the
/// *transformed* kernel never surface here; they demote the [`Decision`]
/// to the original kernel with a recorded [`FallbackReason`] instead.
#[derive(Clone, Debug)]
pub enum TuneError {
    /// Grover could not remove any local memory — there is nothing to tune.
    NothingToDisable(String),
    /// A requested pass sequence failed to parse or validate
    /// ([`grover_core::SequenceError`], rendered).
    InvalidSequence(String),
    /// No device model of that name exists.
    UnknownDevice(String),
    /// The execution engine failed while measuring.
    Execution(String),
    /// A measurement of the original kernel panicked (isolated from the
    /// process and converted).
    Panicked(String),
    /// A measurement of the original kernel exceeded the wall-clock
    /// deadline even after retries.
    Deadline,
    /// Tuner invariant violation (a bug).
    Internal(String),
}

impl std::fmt::Display for TuneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TuneError::NothingToDisable(r) => {
                write!(f, "kernel has no removable local memory:\n{r}")
            }
            TuneError::InvalidSequence(e) => write!(f, "invalid pass sequence: {e}"),
            TuneError::UnknownDevice(d) => write!(f, "unknown device `{d}`"),
            TuneError::Execution(e) => write!(f, "execution failed: {e}"),
            TuneError::Panicked(m) => write!(f, "measurement panicked: {m}"),
            TuneError::Deadline => f.write_str("measurement exceeded the wall-clock deadline"),
            TuneError::Internal(m) => write!(f, "internal tuner error: {m}"),
        }
    }
}

impl std::error::Error for TuneError {}

/// The auto-tuner. Decisions are cached per `(kernel name, device)`.
///
/// Since PR 9 a tuning run is an *N-way sequence race*: the original
/// kernel plus one transformed candidate per pass sequence (seeded per
/// device profile from `grover_devsim::candidate_sequences`, or overridden
/// via [`Tuner::sequences`]) are measured concurrently on scoped threads —
/// each measurement owns its device model, context and trace, so they are
/// independent and the measured cycle counts are identical to a
/// back-to-back run. The fastest candidate becomes the transformed side of
/// the decision, and its sequence is recorded in [`Decision::sequence`].
/// `policy` additionally selects the work-group schedule used inside each
/// measurement.
///
/// # Hardening
///
/// The tune/launch path degrades gracefully: a panic in either race thread
/// is caught ([`TuneError::Panicked`] / [`FallbackReason::Panicked`]), each
/// measurement runs under `limits` (instruction budget + optional
/// wall-clock deadline), transient failures are retried per `retry`, and —
/// with `verify_outputs` on — the original and the race winner are re-run
/// on the workload, at the same time on two threads, and their output
/// buffers bit-compared. Any failure or mismatch of the
/// *transformed* kernel demotes the decision to the original with a
/// [`FallbackReason`], so [`Tuner::best_kernel`] can never return a broken
/// kernel; only a failure of the *original* kernel is a [`TuneError`].
pub struct Tuner {
    /// Similarity threshold (paper uses 5 %).
    pub threshold: f64,
    /// Work-group schedule used for the measurement launches.
    pub policy: ExecPolicy,
    /// Per-measurement execution limits (instruction budget and optional
    /// wall-clock deadline, enforced by the runtime watchdog).
    pub limits: Limits,
    /// Retry policy for transient measurement failures.
    pub retry: RetryPolicy,
    /// Run the differential-output guard after measuring (default on).
    /// The guard re-runs the original and the winner on fresh workload
    /// instantiations — each launch `ExecPolicy::Serial`, the two at the
    /// same time — so the workload factory must be deterministic, which
    /// meaningful tuning requires anyway. Two more launches per tune.
    pub verify_outputs: bool,
    /// Restrict the Grover transform to these `__local` buffers
    /// (`None` = remove all).
    pub buffers: Option<Vec<String>>,
    /// Candidate pass sequences (spec strings) to race. `None` seeds the
    /// bounded per-device set from
    /// `grover_devsim::candidate_sequences`; an explicit list (e.g. the
    /// CLI's `--passes`) restricts the race to exactly those sequences.
    pub sequences: Option<Vec<String>>,
    /// Telemetry sink. Each uncached [`Tuner::tune_pair`] records one
    /// `tune` span (every race measurement appears as a nested `launch`
    /// span, each guard launch as a nested `verify` span),
    /// `retry`/`measure`/`verify` events, and a final `decision` event;
    /// cache hits record a `decision` event with `cached: true`.
    /// Defaults to the no-op recorder: nothing is constructed or stored.
    pub recorder: Arc<dyn Recorder>,
    /// Parent span for the `tune` spans this tuner records. A serving
    /// layer that traces requests sets this to the request's span so the
    /// whole tune — race launches included — nests under it and inherits
    /// its trace id; standalone callers leave it `None` (root spans).
    pub parent: Option<SpanId>,
    /// Attach a per-opcode execution profile to race measurements: each
    /// nested `launch` span gains a `profile` event with per-opcode-kind
    /// count/charge attributes. Default off.
    pub profile_ops: bool,
    /// Predictive model consulted by [`Tuner::predict_first`] mode.
    /// `None` means every tune is measured.
    pub predictor: Option<Arc<PredictModel>>,
    /// Answer from [`Tuner::predictor`] before measuring: when the model's
    /// confidence clears [`Tuner::predict_threshold`] the decision is
    /// served with zero launches; otherwise the model abstains and the
    /// measured race runs as usual (and a disagreeing measured outcome
    /// increments [`Tuner::predict_wrong`]). Default off.
    pub predict_first: bool,
    /// Minimum model confidence for a zero-launch predicted decision.
    pub predict_threshold: f64,
    /// The fault plan every launch of this tuner carries (race, retries
    /// and verify guard). Empty by default, and always empty and
    /// zero-sized without the runtime's `fault-injection` feature.
    pub faults: Faults,
    cache: HashMap<(String, String), Decision>,
    transformed: HashMap<(String, String), Function>,
    races: u64,
    launches: u64,
    predict_hits: u64,
    predict_abstains: u64,
    predict_wrong: u64,
}

/// One transformed contender in a sequence race.
struct Candidate {
    /// The sequence spec that produced it.
    sequence: String,
    /// The transformed kernel.
    kernel: Function,
    /// What the pipeline did.
    report: GroverReport,
}

impl Default for Tuner {
    fn default() -> Tuner {
        Tuner::new()
    }
}

impl Tuner {
    /// A tuner with the paper's 5 % similarity threshold.
    pub fn new() -> Tuner {
        Tuner {
            threshold: 0.05,
            policy: ExecPolicy::Serial,
            limits: Limits::default(),
            retry: RetryPolicy::default(),
            verify_outputs: true,
            buffers: None,
            sequences: None,
            recorder: Arc::new(NoopRecorder),
            parent: None,
            profile_ops: false,
            predictor: None,
            predict_first: false,
            predict_threshold: 0.7,
            faults: Faults::default(),
            cache: HashMap::new(),
            transformed: HashMap::new(),
            races: 0,
            launches: 0,
            predict_hits: 0,
            predict_abstains: 0,
            predict_wrong: 0,
        }
    }

    /// A tuner measuring under an explicit work-group schedule.
    pub fn with_policy(policy: ExecPolicy) -> Tuner {
        Tuner {
            policy,
            ..Tuner::new()
        }
    }

    /// Number of cached decisions.
    pub fn cached_decisions(&self) -> usize {
        self.cache.len()
    }

    /// Number of race measurements this tuner has actually executed.
    /// A cache hit serves the stored [`Decision`] without racing, so this
    /// counter is how callers (tests, the `grover-serve` metrics) prove
    /// that repeated tunes do not re-measure.
    pub fn races_run(&self) -> u64 {
        self.races
    }

    /// Number of individual kernel launches this tuner has executed —
    /// race measurements, retries, and differential-output verification
    /// runs all count. A predicted decision performs none; callers (the
    /// `grover-serve` `grover_serve_launches_total` metric, the
    /// `serve_load --predict` scenario) use this to *prove* the
    /// zero-launch property rather than assert it.
    pub fn launches_run(&self) -> u64 {
        self.launches
    }

    /// Decisions served from the model with zero launches.
    pub fn predict_hits(&self) -> u64 {
        self.predict_hits
    }

    /// Predict-first tunes where the model abstained (no model, unknown
    /// device, or confidence below [`Tuner::predict_threshold`]) and the
    /// measured race ran instead.
    pub fn predict_abstains(&self) -> u64 {
        self.predict_abstains
    }

    /// Abstained predictions whose verdict disagreed with the measured
    /// race that followed — the model's observable error counter.
    pub fn predict_wrong(&self) -> u64 {
        self.predict_wrong
    }

    /// Tune `kernel` for `device` using `workload`; cached after the first
    /// call. Runs the sequence race: one transformed candidate per spec in
    /// [`Tuner::sequences`] (or the device-seeded default set) against the
    /// original kernel.
    pub fn tune(
        &mut self,
        kernel: &Function,
        device: &str,
        workload: &Workload,
    ) -> Result<Decision, TuneError> {
        let key = (kernel.name.clone(), device.to_string());
        if let Some(d) = self.cache.get(&key) {
            if self.recorder.enabled() {
                self.recorder
                    .event("decision", self.parent, &decision_attrs(&key.0, d, true));
            }
            return Ok(d.clone());
        }
        // Fail fast on a bad device name before any transform work.
        if !grover_devsim::is_device(device) {
            return Err(TuneError::UnknownDevice(device.to_string()));
        }
        let candidates = self.build_candidates(kernel, device)?;

        // Predict-first: consult the model before spending any launch.
        // A confident answer is served directly (zero launches); an
        // abstention falls through to the measured race, whose outcome is
        // then compared against the abstained verdict.
        let mut abstained: Option<Prediction> = None;
        if self.predict_first {
            match self.predict_decision(kernel, device, &candidates, workload) {
                (Some(d), _) => return Ok(d),
                (None, p) => abstained = p,
            }
        }
        let d = self.tune_candidates(kernel, candidates, device, workload)?;
        if let Some(p) = abstained {
            if choice_of(p.verdict) != d.choice {
                self.predict_wrong += 1;
                if self.recorder.enabled() {
                    self.recorder.event(
                        "predict.wrong",
                        self.parent,
                        &[
                            ("kernel", Value::from(kernel.name.as_str())),
                            ("device", Value::from(device)),
                            ("predicted", Value::from(p.verdict.kind())),
                            ("measured", Value::from(d.choice.kind())),
                            ("confidence", Value::from(p.confidence)),
                        ],
                    );
                }
            }
        }
        Ok(d)
    }

    /// The model half of predict-first mode: extract features (static,
    /// no launch), score, and either build a zero-launch [`Decision`] or
    /// abstain. Returns `(hit decision, prediction)` — the prediction is
    /// returned even on abstain so the caller can grade it against the
    /// measured race.
    fn predict_decision(
        &mut self,
        kernel: &Function,
        device: &str,
        candidates: &[Candidate],
        workload: &Workload,
    ) -> (Option<Decision>, Option<Prediction>) {
        let Some(model) = self.predictor.clone() else {
            self.predict_abstains += 1;
            return (None, None);
        };
        let recorder = self.recorder.clone();
        let rec: &dyn Recorder = &*recorder;
        // Geometry comes from one workload instantiation; building a
        // context is pure host work, not a launch.
        let (_ctx, _args, nd) = workload.instantiate();
        let fv = FeatureVector::extract(kernel, nd.global, nd.local);

        let span = rec
            .enabled()
            .then(|| rec.span_start("predict", self.parent));
        if let Some(span) = span {
            rec.span_attr(span, "kernel", Value::from(kernel.name.as_str()));
            rec.span_attr(span, "device", Value::from(device));
            rec.span_attr(span, "threshold", Value::from(self.predict_threshold));
            rec.span_attr(span, "features", Value::from(fv.values_json()));
        }
        let p = model.predict(device, &fv);
        let result = match p {
            Some(p) if p.confidence >= self.predict_threshold => {
                self.predict_hits += 1;
                if let Some(span) = span {
                    rec.event(
                        "outcome",
                        Some(span),
                        &[
                            ("outcome", Value::from("hit")),
                            ("verdict", Value::from(p.verdict.kind())),
                            ("confidence", Value::from(p.confidence)),
                            ("np_est", Value::from(p.np_est)),
                            ("exact_match", Value::from(p.exact_match)),
                            ("neighbor", Value::from(p.neighbor_kernel.as_str())),
                        ],
                    );
                }
                // The default-sequence candidate stands in as the
                // transformed side; a predicted decision names it so
                // `best_kernel` resolves without a race.
                let winner = &candidates[0];
                self.transformed
                    .entry((kernel.name.clone(), device.to_string()))
                    .or_insert_with(|| winner.kernel.clone());
                let d = Decision {
                    device: device.to_string(),
                    choice: choice_of(p.verdict),
                    sequence: winner.sequence.clone(),
                    np: p.np_est,
                    cycles_with: 0,
                    cycles_without: 0,
                    report: winner.report.clone(),
                    fallback: None,
                    predicted: Some(p.confidence),
                };
                self.cache
                    .insert((kernel.name.clone(), device.to_string()), d.clone());
                (Some(d), Some(p))
            }
            p => {
                self.predict_abstains += 1;
                if let Some(span) = span {
                    let mut attrs = vec![("outcome", Value::from("abstain"))];
                    if let Some(p) = &p {
                        attrs.push(("verdict", Value::from(p.verdict.kind())));
                        attrs.push(("confidence", Value::from(p.confidence)));
                    } else {
                        attrs.push(("reason", Value::from("no model for device")));
                    }
                    rec.event("outcome", Some(span), &attrs);
                }
                (None, p)
            }
        };
        if let Some(span) = span {
            rec.span_end(span);
        }
        result
    }

    /// Tune an externally-prepared `(original, transformed)` pair — for
    /// callers that run their own transform/optimisation pipeline (e.g. the
    /// CLI's benchmark harness, which may restrict Grover to a subset of
    /// buffers). The pair races exactly as before PR 9 (two launches); the
    /// decision records the tuned pipeline's sequence, which is what
    /// `prepare_pair`-style callers apply. Caches under
    /// `(kernel.name, device)` exactly like [`Tuner::tune`], and registers
    /// `transformed` so [`Tuner::best_kernel`] resolves it.
    pub fn tune_pair(
        &mut self,
        kernel: &Function,
        transformed: &Function,
        report: GroverReport,
        device: &str,
        workload: &Workload,
    ) -> Result<Decision, TuneError> {
        // Fail fast on a bad device name before spending any measurement.
        if !grover_devsim::is_device(device) {
            return Err(TuneError::UnknownDevice(device.to_string()));
        }
        let candidate = Candidate {
            sequence: Sequence::tuned_pipeline().spec(),
            kernel: transformed.clone(),
            report,
        };
        self.tune_candidates(kernel, vec![candidate], device, workload)
    }

    /// Build one transformed candidate per sequence spec: parse + validate
    /// the sequence, apply it to a fresh clone, refuse kernels with nothing
    /// to disable. Every candidate set starts from the same pristine
    /// kernel, so all candidates report the same removals and differ only
    /// in cleanup.
    fn build_candidates(
        &self,
        kernel: &Function,
        device: &str,
    ) -> Result<Vec<Candidate>, TuneError> {
        let specs: Vec<String> = match &self.sequences {
            Some(s) => s.clone(),
            None => grover_devsim::candidate_sequences(device)
                .iter()
                .map(|s| s.to_string())
                .collect(),
        };
        if specs.is_empty() {
            return Err(TuneError::InvalidSequence(
                "empty candidate sequence set".into(),
            ));
        }
        let options = self.grover_options();
        let mut out = Vec::with_capacity(specs.len());
        for spec in specs {
            let seq = Sequence::parse(&spec)
                .map_err(|e| TuneError::InvalidSequence(format!("`{spec}`: {e}")))?;
            let mut k = kernel.clone();
            let pr = apply_sequence(&mut k, &seq, &options);
            if pr.report.removed_count() == 0 {
                return Err(TuneError::NothingToDisable(pr.report.to_text()));
            }
            out.push(Candidate {
                sequence: seq.spec(),
                kernel: k,
                report: pr.report,
            });
        }
        Ok(out)
    }

    /// The cache-check + telemetry shell around the race.
    fn tune_candidates(
        &mut self,
        kernel: &Function,
        candidates: Vec<Candidate>,
        device: &str,
        workload: &Workload,
    ) -> Result<Decision, TuneError> {
        let recorder = self.recorder.clone();
        let rec: &dyn Recorder = &*recorder;
        let key = (kernel.name.clone(), device.to_string());
        if let Some(d) = self.cache.get(&key) {
            if rec.enabled() {
                rec.event("decision", self.parent, &decision_attrs(&key.0, d, true));
            }
            return Ok(d.clone());
        }

        let span = rec.enabled().then(|| rec.span_start("tune", self.parent));
        if let Some(span) = span {
            rec.span_attr(span, "kernel", Value::from(kernel.name.as_str()));
            rec.span_attr(span, "device", Value::from(device));
            rec.span_attr(span, "policy", Value::from(policy_name(self.policy)));
            rec.span_attr(span, "threshold", Value::from(self.threshold));
            rec.span_attr(span, "verify_outputs", Value::from(self.verify_outputs));
            rec.span_attr(span, "candidates", Value::from(candidates.len()));
            let seqs: Vec<&str> = candidates.iter().map(|c| c.sequence.as_str()).collect();
            rec.span_attr(span, "sequences", Value::from(seqs.join(";")));
        }
        let result = self.race_candidates(kernel, &candidates, device, workload, span);
        if let Some(span) = span {
            match &result {
                Ok(d) => {
                    rec.event(
                        "decision",
                        Some(span),
                        &decision_attrs(&kernel.name, d, false),
                    );
                }
                Err(e) => rec.span_attr(span, "error", Value::from(e.to_string())),
            }
            rec.span_end(span);
        }
        result
    }

    /// The uncached measurement body: race the original against every
    /// candidate, retry transients, verify the winner, decide. `span` is
    /// the enclosing `tune` span (`None` when the recorder is disabled).
    fn race_candidates(
        &mut self,
        kernel: &Function,
        candidates: &[Candidate],
        device: &str,
        workload: &Workload,
        span: Option<SpanId>,
    ) -> Result<Decision, TuneError> {
        let recorder = self.recorder.clone();
        let rec: &dyn Recorder = &*recorder;
        // Every measurement launch: the race, its retries and (serial and
        // unobserved, see `run_for_outputs`) the verify guard.
        let launch = Launch {
            limits: self.limits,
            policy: self.policy,
            recorder: rec,
            parent: span,
            profile: self.profile_ops,
            faults: self.faults.clone(),
            ..Launch::default()
        };
        let launch = &launch;
        let retry = self.retry;
        self.races += 1;

        // Race the original plus every candidate: the original on this
        // thread, each candidate on its own scoped thread. The workloads
        // are instantiated up front on this thread (the factory need not be
        // `Sync`); each measurement then runs fully independently. Each is
        // wrapped in `catch_unwind`, so a panicking measurement is isolated
        // to its race thread and converted instead of aborting the tuner.
        let w_with = workload.instantiate();
        let w_cands: Vec<_> = candidates.iter().map(|_| workload.instantiate()).collect();
        let (res_with, cand_results) = std::thread::scope(|s| {
            let handles: Vec<_> = candidates
                .iter()
                .zip(w_cands)
                .map(|(c, w)| {
                    let ck = &c.kernel;
                    s.spawn(move || simulate_caught(ck, device, w, launch))
                })
                .collect();
            let with = simulate_caught(kernel, device, w_with, launch);
            // `simulate_caught` already catches panics; `join` only fails if
            // one escapes the isolation (a bug) — still convert, never abort.
            let cands: Vec<Result<u64, MeasureFailure>> = handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|p| {
                        Err(MeasureFailure::Panicked(panic_message(p.as_ref())))
                    })
                })
                .collect();
            (with, cands)
        });
        // Every simulate above was one launch: the original plus each
        // candidate.
        self.launches += 1 + candidates.len() as u64;

        // Transient failures (panics, deadline overruns) are retried
        // serially on fresh workload instantiations.
        let attempts_with = Cell::new(1u32);
        let res_with = retry_measure(res_with, retry, || {
            self.launches += 1;
            attempts_with.set(attempts_with.get() + 1);
            if rec.enabled() {
                rec.event(
                    "retry",
                    span,
                    &retry_attrs("original", None, attempts_with.get()),
                );
            }
            simulate_caught(kernel, device, workload.instantiate(), launch)
        });
        let mut cand_cycles: Vec<Result<u64, MeasureFailure>> =
            Vec::with_capacity(candidates.len());
        for (c, first) in candidates.iter().zip(cand_results) {
            let attempts = Cell::new(1u32);
            let res = retry_measure(first, retry, || {
                self.launches += 1;
                attempts.set(attempts.get() + 1);
                if rec.enabled() {
                    rec.event(
                        "retry",
                        span,
                        &retry_attrs("transformed", Some(&c.sequence), attempts.get()),
                    );
                }
                simulate_caught(&c.kernel, device, workload.instantiate(), launch)
            });
            if rec.enabled() {
                rec.event(
                    "measure",
                    span,
                    &measure_attrs("transformed", Some(&c.sequence), &res, attempts.get()),
                );
            }
            cand_cycles.push(res);
        }
        if rec.enabled() {
            rec.event(
                "measure",
                span,
                &measure_attrs("original", None, &res_with, attempts_with.get()),
            );
        }

        // The original kernel must measure: without a working baseline
        // there is nothing to fall back to.
        let cycles_with = res_with.map_err(fatal)?;

        // Winner: the fastest candidate that measured (earliest wins ties,
        // so with equal cycles the default sequence is preferred — it is
        // always candidate 0 of the seeded sets).
        let mut best: Option<(usize, u64)> = None;
        for (i, r) in cand_cycles.iter().enumerate() {
            if let Ok(c) = r {
                if best.is_none_or(|(_, bc)| *c < bc) {
                    best = Some((i, *c));
                }
            }
        }

        let mut fallback: Option<FallbackReason> = None;
        let (winner_idx, cycles_without) = match best {
            Some((i, c)) => (i, c),
            None => {
                // Every candidate failed: demote, reporting the first
                // failure (candidate 0 is the default sequence).
                let first = cand_cycles
                    .into_iter()
                    .next()
                    .unwrap_or(Err(MeasureFailure::Panicked("no candidates".into())));
                fallback = Some(match first {
                    Err(f) => reason_of(f),
                    Ok(_) => unreachable!("best is None but a candidate measured"),
                });
                (0, 0)
            }
        };
        let winner = &candidates[winner_idx];

        // Differential-output guard: re-run the original and the winning
        // candidate on fresh instantiations and bit-compare every buffer.
        // The two launches run at the same time, the winner on a scoped
        // thread and the original here; both workloads are instantiated
        // up front on this thread (the factory need not be `Sync`). A
        // reference failure is fatal and wins over anything the winner
        // did; a winner failure or any differing bit demotes the whole
        // decision to the original — conservative by design: a search
        // that produced even one wrong-output candidate is not trusted for
        // this kernel.
        if fallback.is_none() && self.verify_outputs {
            let w_reference = workload.instantiate();
            let w_winner = workload.instantiate();
            let seq = winner.sequence.as_str();
            let (reference, candidate) = std::thread::scope(|s| {
                let handle =
                    s.spawn(|| run_for_outputs(&winner.kernel, w_winner, launch, "winner", seq));
                let reference = run_for_outputs(kernel, w_reference, launch, "original", seq);
                // `run_for_outputs` catches panics; `join` only fails if one
                // escapes the isolation (a bug) — still convert, never abort.
                let candidate = handle
                    .join()
                    .unwrap_or_else(|p| Err(MeasureFailure::Panicked(panic_message(p.as_ref()))));
                (reference, candidate)
            });
            self.launches += 2;
            let reference = reference.map_err(fatal)?;
            match candidate {
                Err(f) => fallback = Some(reason_of(f)),
                Ok(candidate) => {
                    if let Some((buffer, index)) = first_bit_mismatch(&reference, &candidate) {
                        fallback = Some(FallbackReason::OutputMismatch { buffer, index });
                    }
                }
            }
            if rec.enabled() {
                let mut attrs = vec![
                    ("ok", Value::from(fallback.is_none())),
                    ("sequence", Value::from(seq)),
                ];
                if let Some(reason) = &fallback {
                    attrs.push(("reason", Value::from(reason.to_string())));
                }
                rec.event("verify", span, &attrs);
            }
        }

        let np = if cycles_without == 0 {
            0.0
        } else {
            cycles_with as f64 / cycles_without as f64
        };
        let choice = if fallback.is_some() {
            Choice::WithLocalMemory
        } else if np > 1.0 + self.threshold {
            Choice::WithoutLocalMemory
        } else if np < 1.0 - self.threshold {
            Choice::WithLocalMemory
        } else {
            Choice::Similar
        };
        self.transformed
            .entry((kernel.name.clone(), device.to_string()))
            .or_insert_with(|| winner.kernel.clone());
        let d = Decision {
            device: device.to_string(),
            choice,
            sequence: winner.sequence.clone(),
            np,
            cycles_with,
            cycles_without,
            report: winner.report.clone(),
            fallback,
            predicted: None,
        };
        self.cache
            .insert((kernel.name.clone(), device.to_string()), d.clone());
        Ok(d)
    }

    /// The kernel version the tuner recommends for `device`.
    ///
    /// Guaranteed to be runnable: any failure or output divergence of the
    /// transformed version during [`Tuner::tune`] demotes the decision, so
    /// this returns the original kernel in every fallback case.
    pub fn best_kernel(
        &mut self,
        kernel: &Function,
        device: &str,
        workload: &Workload,
    ) -> Result<Function, TuneError> {
        let d = self.tune(kernel, device, workload)?;
        Ok(match d.choice {
            Choice::WithoutLocalMemory => self
                .transformed
                .get(&(kernel.name.clone(), device.to_string()))
                .cloned()
                .ok_or_else(|| {
                    TuneError::Internal("transformed kernel not cached by tune()".into())
                })?,
            _ => kernel.clone(),
        })
    }

    /// Tune across several devices at once (the per-platform specialisation
    /// table the paper's future work describes).
    pub fn tune_all(
        &mut self,
        kernel: &Function,
        devices: &[&str],
        workload: &Workload,
    ) -> Vec<(String, Result<Decision, TuneError>)> {
        devices
            .iter()
            .map(|&d| (d.to_string(), self.tune(kernel, d, workload)))
            .collect()
    }

    fn grover_options(&self) -> GroverOptions {
        GroverOptions {
            buffers: self.buffers.clone(),
            keep_barriers: false,
        }
    }
}

/// A single measurement failure, before it is classified as fatal
/// (original kernel → [`TuneError`]) or demoting (transformed kernel →
/// [`FallbackReason`]).
enum MeasureFailure {
    Exec(ExecError),
    Panicked(String),
}

impl MeasureFailure {
    /// Worth retrying? Panics and deadline overruns may be environmental
    /// (scheduling jitter, injected faults with limited fires);
    /// deterministic execution errors are not.
    fn transient(&self) -> bool {
        matches!(
            self,
            MeasureFailure::Panicked(_)
                | MeasureFailure::Exec(ExecError::DeadlineExceeded)
                | MeasureFailure::Exec(ExecError::WorkerPanic { .. })
        )
    }
}

fn fatal(f: MeasureFailure) -> TuneError {
    match f {
        MeasureFailure::Panicked(m) => TuneError::Panicked(m),
        MeasureFailure::Exec(ExecError::WorkerPanic { message, .. }) => {
            TuneError::Panicked(message)
        }
        MeasureFailure::Exec(ExecError::DeadlineExceeded) => TuneError::Deadline,
        MeasureFailure::Exec(e) => TuneError::Execution(e.to_string()),
    }
}

fn reason_of(f: MeasureFailure) -> FallbackReason {
    match f {
        MeasureFailure::Panicked(m) => FallbackReason::Panicked(m),
        MeasureFailure::Exec(ExecError::WorkerPanic { message, .. }) => {
            FallbackReason::Panicked(message)
        }
        MeasureFailure::Exec(ExecError::DeadlineExceeded) => FallbackReason::DeadlineExceeded,
        MeasureFailure::Exec(e) => FallbackReason::ExecFailed(e.to_string()),
    }
}

/// Map a model verdict onto the tuner's choice vocabulary (they share
/// the same wire names; the types stay separate so `grover-predict`
/// remains dependency-free of the tuner).
fn choice_of(v: Verdict) -> Choice {
    match v {
        Verdict::WithLocalMemory => Choice::WithLocalMemory,
        Verdict::WithoutLocalMemory => Choice::WithoutLocalMemory,
        Verdict::Similar => Choice::Similar,
    }
}

fn policy_name(policy: ExecPolicy) -> &'static str {
    match policy {
        ExecPolicy::Serial => "serial",
        ExecPolicy::Parallel { .. } => "parallel",
    }
}

/// `(kind, detail)` tags of a measurement failure, matching the
/// [`FallbackReason::kind`] vocabulary.
fn failure_tag(f: &MeasureFailure) -> (&'static str, String) {
    match f {
        MeasureFailure::Panicked(m) => ("panic", m.clone()),
        MeasureFailure::Exec(ExecError::WorkerPanic { message, .. }) => ("panic", message.clone()),
        MeasureFailure::Exec(ExecError::DeadlineExceeded) => {
            ("deadline", "wall-clock deadline exceeded".to_string())
        }
        MeasureFailure::Exec(e) => ("exec_error", e.to_string()),
    }
}

fn retry_attrs(
    version: &'static str,
    sequence: Option<&str>,
    attempt: u32,
) -> Vec<(&'static str, Value)> {
    let mut attrs = vec![
        ("version", Value::from(version)),
        ("attempt", Value::from(attempt)),
    ];
    if let Some(seq) = sequence {
        attrs.push(("sequence", Value::from(seq.to_string())));
    }
    attrs
}

fn measure_attrs(
    version: &'static str,
    sequence: Option<&str>,
    result: &Result<u64, MeasureFailure>,
    attempts: u32,
) -> Vec<(&'static str, Value)> {
    let mut attrs = vec![
        ("version", Value::from(version)),
        ("attempts", Value::from(attempts)),
    ];
    if let Some(seq) = sequence {
        attrs.push(("sequence", Value::from(seq.to_string())));
    }
    match result {
        Ok(cycles) => {
            attrs.push(("ok", Value::from(true)));
            attrs.push(("cycles", Value::from(*cycles)));
        }
        Err(f) => {
            let (kind, detail) = failure_tag(f);
            attrs.push(("ok", Value::from(false)));
            attrs.push(("failure", Value::from(kind)));
            attrs.push(("detail", Value::from(detail)));
        }
    }
    attrs
}

/// The one-record summary of a tuning outcome: the race measurements, the
/// normalised performance, the verdict and — when demoted — the structured
/// fallback reason.
fn decision_attrs(kernel: &str, d: &Decision, cached: bool) -> Vec<(&'static str, Value)> {
    let mut attrs = vec![
        ("kernel", Value::from(kernel.to_string())),
        ("device", Value::from(d.device.as_str())),
        ("choice", Value::from(d.choice.kind())),
        ("sequence", Value::from(d.sequence.as_str())),
        ("np", Value::from(d.np)),
        ("cycles_with", Value::from(d.cycles_with)),
        ("cycles_without", Value::from(d.cycles_without)),
        ("cached", Value::from(cached)),
    ];
    if let Some(reason) = &d.fallback {
        attrs.push(("fallback_kind", Value::from(reason.kind())));
        attrs.push(("fallback_detail", Value::from(reason.to_string())));
    }
    attrs
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Retry `first` via `again` while the failure is transient, up to
/// `retry.max_attempts` total attempts with `retry.backoff` between them.
fn retry_measure<T>(
    first: Result<T, MeasureFailure>,
    retry: RetryPolicy,
    mut again: impl FnMut() -> Result<T, MeasureFailure>,
) -> Result<T, MeasureFailure> {
    let mut result = first;
    let mut attempts = 1u32;
    while attempts < retry.max_attempts.max(1) {
        match &result {
            Err(f) if f.transient() => {
                if !retry.backoff.is_zero() {
                    std::thread::sleep(retry.backoff);
                }
                attempts += 1;
                result = again();
            }
            _ => break,
        }
    }
    result
}

fn simulate(
    kernel: &Function,
    device: &str,
    workload: (Context, Vec<ArgValue>, NdRange),
    launch: &Launch,
) -> Result<u64, MeasureFailure> {
    // The device name is validated by `tune_pair` before any measurement;
    // a lookup failure here means the registry changed under us.
    let mut dev = Device::by_name(device).ok_or_else(|| {
        MeasureFailure::Exec(ExecError::Internal(format!(
            "device `{device}` disappeared mid-tune"
        )))
    })?;
    let (mut ctx, args, nd) = workload;
    // With profiling on, the launch span gains a `profile` event; the
    // aggregate itself is not needed here, the recorder carries it.
    enqueue(&mut ctx, kernel, &args, &nd, &mut dev, launch).map_err(MeasureFailure::Exec)?;
    Ok(dev.finish().cycles)
}

/// [`simulate`] with panic isolation: a panic anywhere in the measurement
/// (execution engine, device model, injected fault) becomes a
/// [`MeasureFailure::Panicked`] instead of unwinding into the race scope.
fn simulate_caught(
    kernel: &Function,
    device: &str,
    workload: (Context, Vec<ArgValue>, NdRange),
    launch: &Launch,
) -> Result<u64, MeasureFailure> {
    catch_unwind(AssertUnwindSafe(|| {
        simulate(kernel, device, workload, launch)
    }))
    .unwrap_or_else(|p| Err(MeasureFailure::Panicked(panic_message(p.as_ref()))))
}

/// Run `kernel` once, serially into a [`NullSink`] under `launch`'s limits
/// and faults, returning the final context for the differential-output
/// guard. The launch itself records nothing: with `launch`'s recorder
/// enabled it is wrapped in a `verify` span under `launch.parent`, opened
/// and closed on the calling thread and tagged with `version` (`original`
/// or `winner`) and the winning `sequence` the pair verifies.
fn run_for_outputs(
    kernel: &Function,
    workload: (Context, Vec<ArgValue>, NdRange),
    launch: &Launch,
    version: &'static str,
    sequence: &str,
) -> Result<Context, MeasureFailure> {
    let rec = launch.recorder;
    let span = rec.enabled().then(|| {
        let span = rec.span_start("verify", launch.parent);
        rec.span_attr(span, "version", Value::from(version));
        rec.span_attr(span, "sequence", Value::from(sequence));
        span
    });
    let guard_launch = Launch {
        limits: launch.limits,
        faults: launch.faults.clone(),
        ..Launch::default()
    };
    let (mut ctx, args, nd) = workload;
    let run = catch_unwind(AssertUnwindSafe(|| {
        enqueue(&mut ctx, kernel, &args, &nd, &mut NullSink, &guard_launch)
    }));
    if let Some(span) = span {
        rec.span_end(span);
    }
    match run {
        Ok(Ok(_)) => Ok(ctx),
        Ok(Err(e)) => Err(MeasureFailure::Exec(e)),
        Err(p) => Err(MeasureFailure::Panicked(panic_message(p.as_ref()))),
    }
}

/// First bit-level difference between two contexts' buffers, as
/// `(buffer, element)` — `None` when identical. Floats compare by bit
/// pattern, so NaNs compare equal to themselves and `-0.0 != 0.0`.
fn first_bit_mismatch(a: &Context, b: &Context) -> Option<(u32, usize)> {
    let (ab, bb) = (a.buffers(), b.buffers());
    if ab.len() != bb.len() {
        return Some((ab.len().min(bb.len()) as u32, 0));
    }
    for (i, (x, y)) in ab.iter().zip(bb).enumerate() {
        let diff = match (x, y) {
            (BufferData::F32(x), BufferData::F32(y)) => mismatch_at(x, y, |v| v.to_bits() as u64),
            (BufferData::I32(x), BufferData::I32(y)) => mismatch_at(x, y, |v| *v as u32 as u64),
            (BufferData::I64(x), BufferData::I64(y)) => mismatch_at(x, y, |v| *v as u64),
            // Differing element types at the same slot: flag element 0.
            _ => Some(0),
        };
        if let Some(j) = diff {
            return Some((i as u32, j));
        }
    }
    None
}

fn mismatch_at<T>(a: &[T], b: &[T], key: impl Fn(&T) -> u64) -> Option<usize> {
    if a.len() != b.len() {
        return Some(a.len().min(b.len()));
    }
    a.iter().zip(b).position(|(x, y)| key(x) != key(y))
}

#[cfg(test)]
mod tests {
    use super::*;
    use grover_frontend::{compile, BuildOptions};

    fn staged_kernel() -> Function {
        compile(
            "__kernel void rev(__global float* in, __global float* out) {
                 __local float lm[16];
                 int lx = get_local_id(0);
                 int wx = get_group_id(0);
                 lm[lx] = in[wx * 16 + lx];
                 barrier(CLK_LOCAL_MEM_FENCE);
                 out[wx * 16 + lx] = lm[15 - lx];
             }",
            &BuildOptions::new(),
        )
        .unwrap()
        .kernels
        .remove(0)
    }

    fn workload() -> Workload {
        Workload::new(|| {
            let mut ctx = Context::new();
            let a = ctx.buffer_f32(&vec![1.0; 256]);
            let b = ctx.zeros_f32(256);
            (
                ctx,
                vec![ArgValue::Buffer(a), ArgValue::Buffer(b)],
                NdRange::d1(256, 16),
            )
        })
    }

    #[test]
    fn tunes_and_caches() {
        let k = staged_kernel();
        let w = workload();
        let mut t = Tuner::new();
        let d1 = t.tune(&k, "SNB", &w).unwrap();
        assert_eq!(t.cached_decisions(), 1);
        let d2 = t.tune(&k, "SNB", &w).unwrap();
        assert_eq!(d1.np, d2.np);
        assert!(d1.cycles_with > 0 && d1.cycles_without > 0);
    }

    #[test]
    fn cache_hits_do_not_race() {
        let k = staged_kernel();
        let w = workload();
        let mut t = Tuner::new();
        assert_eq!(t.races_run(), 0);
        t.tune(&k, "SNB", &w).unwrap();
        assert_eq!(t.races_run(), 1);
        t.tune(&k, "SNB", &w).unwrap();
        assert_eq!(t.races_run(), 1, "cached decision must not re-measure");
    }

    #[test]
    fn decisions_differ_across_devices() {
        let k = staged_kernel();
        let w = workload();
        let mut t = Tuner::new();
        let all = t.tune_all(&k, &["SNB", "Fermi"], &w);
        assert_eq!(all.len(), 2);
        assert_eq!(t.cached_decisions(), 2);
        for (_, d) in &all {
            assert!(d.is_ok());
        }
    }

    #[test]
    fn best_kernel_has_no_local_memory_when_transformed_wins() {
        let k = staged_kernel();
        let w = workload();
        let mut t = Tuner::new();
        let d = t.tune(&k, "SNB", &w).unwrap();
        let best = t.best_kernel(&k, "SNB", &w).unwrap();
        match d.choice {
            Choice::WithoutLocalMemory => assert_eq!(best.local_mem_bytes(), 0),
            _ => assert_eq!(best.local_mem_bytes(), k.local_mem_bytes()),
        }
    }

    #[test]
    fn untunable_kernel_reports_cleanly() {
        let k = compile(
            "__kernel void plain(__global float* a) { a[0] = 1.0f; }",
            &BuildOptions::new(),
        )
        .unwrap()
        .kernels
        .remove(0);
        let w = Workload::new(|| {
            let mut ctx = Context::new();
            let a = ctx.zeros_f32(4);
            (ctx, vec![ArgValue::Buffer(a)], NdRange::d1(1, 1))
        });
        let mut t = Tuner::new();
        assert!(matches!(
            t.tune(&k, "SNB", &w),
            Err(TuneError::NothingToDisable(_))
        ));
    }

    #[test]
    fn unknown_device_rejected() {
        let k = staged_kernel();
        let w = workload();
        let mut t = Tuner::new();
        assert!(matches!(
            t.tune(&k, "TPU", &w),
            Err(TuneError::UnknownDevice(_))
        ));
    }

    #[test]
    fn tuning_records_decision_telemetry() {
        let k = staged_kernel();
        let w = workload();
        let rec = Arc::new(grover_obs::MemoryRecorder::new());
        let mut t = Tuner::new();
        t.recorder = rec.clone();
        let d = t.tune(&k, "SNB", &w).unwrap();

        let snap = rec.snapshot();
        let tune = snap.span("tune").expect("tune span recorded");
        assert_eq!(tune.attr_str("kernel"), Some("rev"));
        assert_eq!(tune.attr_str("device"), Some("SNB"));
        // The original plus every seeded candidate appear as launch spans
        // nested in the tune span.
        let n_cands = grover_devsim::candidate_sequences("SNB").len();
        assert!(n_cands >= 2, "seeded set should be a real search space");
        let launches = snap.spans_named("launch");
        assert_eq!(launches.len(), 1 + n_cands);
        for l in &launches {
            assert_eq!(l.parent, Some(tune.id));
            assert!(l.attr_u64("instructions").unwrap() > 0);
        }
        let measures = snap.events_named("measure");
        assert_eq!(measures.len(), 1 + n_cands);
        // Each of the guard's two launches has its own `verify` span under
        // the tune span, tagged with the version it ran and the winning
        // sequence the pair verifies.
        let verifies = snap.spans_named("verify");
        assert_eq!(verifies.len(), 2);
        let mut versions: Vec<&str> = verifies
            .iter()
            .map(|v| v.attr_str("version").expect("version attribute"))
            .collect();
        versions.sort_unstable();
        assert_eq!(versions, ["original", "winner"]);
        for v in &verifies {
            assert_eq!(v.parent, Some(tune.id));
            assert_eq!(v.attr_str("sequence"), Some(d.sequence.as_str()));
            assert!(v.duration.is_some(), "verify span left open");
        }
        let decisions = snap.events_named("decision");
        assert_eq!(decisions.len(), 1);
        assert_eq!(
            decisions[0].attr("choice").and_then(Value::as_str),
            Some(d.choice.kind())
        );
        assert_eq!(
            decisions[0].attr("sequence").and_then(Value::as_str),
            Some(d.sequence.as_str())
        );
        assert_eq!(
            decisions[0].attr("cached").and_then(|v| match v {
                Value::Bool(b) => Some(*b),
                _ => None,
            }),
            Some(false)
        );

        // A cache hit records a decision event tagged cached.
        t.tune(&k, "SNB", &w).unwrap();
        let snap = rec.snapshot();
        let decisions = snap.events_named("decision");
        assert_eq!(decisions.len(), 2);
        assert!(matches!(
            decisions[1].attr("cached"),
            Some(Value::Bool(true))
        ));
        // No second tune span was opened.
        assert_eq!(snap.spans_named("tune").len(), 1);
    }

    #[test]
    fn decision_records_winning_sequence_from_seeded_set() {
        let k = staged_kernel();
        let w = workload();
        let mut t = Tuner::new();
        let d = t.tune(&k, "SNB", &w).unwrap();
        let specs = grover_devsim::candidate_sequences("SNB");
        assert!(
            specs.contains(&d.sequence.as_str()),
            "winning sequence `{}` not in the seeded set",
            d.sequence
        );
        assert_eq!(t.races_run(), 1, "one race covers the whole candidate set");
    }

    #[test]
    fn explicit_sequences_restrict_the_race() {
        let k = staged_kernel();
        let w = workload();
        let mut t = Tuner::new();
        t.sequences = Some(vec!["local-removal".into()]);
        let d = t.tune(&k, "SNB", &w).unwrap();
        assert_eq!(d.sequence, "local-removal");
        assert!(d.fallback.is_none(), "{:?}", d.fallback);
        // An illegal explicit sequence is rejected before any measurement.
        let mut t2 = Tuner::new();
        t2.sequences = Some(vec!["barrier-elim".into()]);
        assert!(matches!(
            t2.tune(&k, "SNB", &w),
            Err(TuneError::InvalidSequence(_))
        ));
        assert_eq!(t2.races_run(), 0);
    }

    #[test]
    fn tune_pair_still_races_two_and_labels_the_tuned_pipeline() {
        let k = staged_kernel();
        let w = workload();
        let rec = Arc::new(grover_obs::MemoryRecorder::new());
        let mut t = Tuner::new();
        t.recorder = rec.clone();
        let mut transformed = k.clone();
        let report = grover_core::Grover::new().run_on(&mut transformed);
        let d = t.tune_pair(&k, &transformed, report, "SNB", &w).unwrap();
        assert_eq!(d.sequence, Sequence::tuned_pipeline().spec());
        assert_eq!(rec.snapshot().spans_named("launch").len(), 2);
    }

    #[test]
    fn gpu_prefers_local_memory_for_uncoalesced_reads() {
        // The reversal makes the transformed version read backwards within
        // each warp-chunk; the GPU should tend to keep local memory or be
        // similar, while SNB drops it. At minimum the decisions must be
        // internally consistent with np.
        let k = staged_kernel();
        let w = workload();
        let mut t = Tuner::new();
        for dev in ["SNB", "Fermi"] {
            let d = t.tune(&k, dev, &w).unwrap();
            match d.choice {
                Choice::WithoutLocalMemory => assert!(d.np > 1.05),
                Choice::WithLocalMemory => assert!(d.np < 0.95),
                Choice::Similar => assert!(d.np >= 0.95 && d.np <= 1.05),
            }
        }
    }
}
