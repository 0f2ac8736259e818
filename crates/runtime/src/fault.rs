//! Deterministic fault injection for the launch and tuning pipeline.
//!
//! A [`FaultPlan`] names a *target* (which kernels), a *site* (where inside
//! a launch) and a *kind* (what goes wrong). [`Faults::new`] arms a plan
//! into a cloneable handle that travels with the launches it should reach
//! ([`crate::Launch::faults`], and the `faults` fields of the tuner, the
//! server configuration and the fuzz campaign options that build those
//! launches). A launch without the handle never sees the plan, however it
//! overlaps in time with one that has it. The engine consults the plan
//! once per launch and at cheap, well-defined points, so every recovery
//! path — panic isolation, the tuner's differential-output guard, the
//! measurement watchdog and the retry loop — is deterministically
//! exercisable without special test-only builds of the interpreter core.
//! [`IoFaultPlan`]s do the same for named persistence sites through
//! [`IoFaults`].
//!
//! The plan types and the handle constructors exist only with the
//! `fault-injection` cargo feature. Without it, [`Faults`] and
//! [`IoFaults`] are zero-sized, `Default` (no plan) is their only
//! constructor, and every hook compiles away.
//!
//! ```
//! use grover_runtime::fault::{FaultKind, FaultPlan, FaultSite, FaultTarget, Faults};
//! use grover_runtime::Launch;
//!
//! let launch = Launch {
//!     faults: Faults::new(FaultPlan {
//!         target: FaultTarget::kernel("my_kernel"),
//!         site: FaultSite::Group(2),
//!         kind: FaultKind::Panic,
//!         max_fires: 1,
//!     }),
//!     ..Launch::default()
//! };
//! // ... `enqueue(.., &launch)` of `my_kernel` panics at work-group 2,
//! // exactly once; launches without this handle are untouched ...
//! # let _ = launch;
//! ```

#[cfg(feature = "fault-injection")]
use std::sync::atomic::{AtomicU32, Ordering};
#[cfg(feature = "fault-injection")]
use std::sync::Arc;
#[cfg(feature = "fault-injection")]
use std::time::Duration;

#[cfg(feature = "fault-injection")]
use grover_ir::Function;

#[cfg(feature = "fault-injection")]
use crate::ExecError;

/// Which kernels a [`FaultPlan`] applies to. All set conditions must match.
#[cfg(feature = "fault-injection")]
#[derive(Clone, Debug, Default)]
pub struct FaultTarget {
    /// Match kernels with this exact name (`None` = any name).
    pub kernel: Option<String>,
    /// Match on local-memory usage: `Some(true)` hits only kernels with no
    /// `__local` buffers (the Grover-transformed side of a tuner race),
    /// `Some(false)` only kernels that still stage through local memory.
    pub local_mem_free: Option<bool>,
}

#[cfg(feature = "fault-injection")]
impl FaultTarget {
    /// Every kernel.
    pub fn any() -> FaultTarget {
        FaultTarget::default()
    }

    /// Kernels named `name`, either version.
    pub fn kernel(name: &str) -> FaultTarget {
        FaultTarget {
            kernel: Some(name.to_string()),
            local_mem_free: None,
        }
    }

    /// The Grover-transformed (local-memory-free) version of `name`.
    pub fn transformed(name: &str) -> FaultTarget {
        FaultTarget {
            kernel: Some(name.to_string()),
            local_mem_free: Some(true),
        }
    }

    /// The original (local-memory-using) version of `name`.
    pub fn original(name: &str) -> FaultTarget {
        FaultTarget {
            kernel: Some(name.to_string()),
            local_mem_free: Some(false),
        }
    }

    fn matches(&self, f: &Function) -> bool {
        if let Some(k) = &self.kernel {
            if *k != f.name {
                return false;
            }
        }
        if let Some(free) = self.local_mem_free {
            if (f.local_mem_bytes() == 0) != free {
                return false;
            }
        }
        true
    }
}

/// Where inside a launch the fault triggers.
#[cfg(feature = "fault-injection")]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSite {
    /// At launch entry, before any work-group runs (the panic propagates
    /// out of `enqueue` itself — this is how a tuner race *thread* is
    /// killed, as opposed to a launch *worker*).
    LaunchStart,
    /// At the start of the work-group with this linear id. For
    /// [`FaultKind::CorruptStores`] the effect covers every group with an
    /// id `>=` this one.
    Group(u32),
    /// After one engine worker has executed this many IR instructions
    /// (launch-deterministic under the serial schedule; per-worker under
    /// the parallel one).
    Instruction(u64),
}

/// What happens when the fault triggers.
#[cfg(feature = "fault-injection")]
#[derive(Clone, Debug)]
pub enum FaultKind {
    /// Panic — exercises panic isolation.
    Panic,
    /// Fail with this [`ExecError`].
    Error(ExecError),
    /// Sleep this long — exercises the wall-clock watchdog.
    Sleep(Duration),
    /// Perturb every global store from the trigger point on (floats are
    /// offset by 1.0, integers XOR-ed with 1) — exercises the tuner's
    /// differential-output guard. Ignores `max_fires`.
    CorruptStores,
    /// Offset the element index of every *global* load by this many
    /// elements from the trigger point on ([`FaultSite::LaunchStart`] =
    /// the whole launch, [`FaultSite::Group`] = every group with an id
    /// `>=` the site's), falling back to the original address at buffer
    /// edges. A deterministic stand-in for an index-arithmetic bug in a
    /// transformed kernel — exercises differential-output oracles such as
    /// the fuzzer's. Ignores `max_fires`.
    OffsetGlobalLoads(i64),
}

/// A deterministic fault to inject into matching launches.
#[cfg(feature = "fault-injection")]
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Which kernels to hit.
    pub target: FaultTarget,
    /// Where inside the launch.
    pub site: FaultSite,
    /// What goes wrong.
    pub kind: FaultKind,
    /// Fire at most this many times across launches (`0` = unlimited) —
    /// lets tests model transient failures that a retry survives.
    pub max_fires: u32,
}

/// A plan plus the fire counter every clone of its handle shares.
#[cfg(feature = "fault-injection")]
#[derive(Debug)]
pub(crate) struct Armed<P> {
    plan: P,
    fires: AtomicU32,
}

#[cfg(feature = "fault-injection")]
impl<P> Armed<P> {
    fn new(plan: P) -> Arc<Armed<P>> {
        Arc::new(Armed {
            plan,
            fires: AtomicU32::new(0),
        })
    }

    /// Consume one fire; `false` once `max_fires` (`0` = unlimited) is
    /// spent.
    fn take(&self, max_fires: u32) -> bool {
        max_fires == 0 || self.fires.fetch_add(1, Ordering::Relaxed) < max_fires
    }
}

/// The armed launch plan the engine consults.
#[cfg(feature = "fault-injection")]
pub(crate) type ArmedPlan = Armed<FaultPlan>;

#[cfg(feature = "fault-injection")]
impl ArmedPlan {
    fn fire(&self, where_: &str) -> Result<(), ExecError> {
        if !self.take(self.plan.max_fires) {
            return Ok(());
        }
        match &self.plan.kind {
            FaultKind::Panic => panic!("fault-injection: injected panic at {where_}"),
            FaultKind::Error(e) => Err(e.clone()),
            FaultKind::Sleep(d) => {
                std::thread::sleep(*d);
                Ok(())
            }
            // Corruption/offsetting is handled by the memory-access paths,
            // not the trigger.
            FaultKind::CorruptStores | FaultKind::OffsetGlobalLoads(_) => Ok(()),
        }
    }

    /// Launch-entry hook. Returns whether stores of the whole launch
    /// corrupt.
    pub(crate) fn launch_hook(&self) -> Result<bool, ExecError> {
        if self.plan.site != FaultSite::LaunchStart {
            return Ok(false);
        }
        if matches!(self.plan.kind, FaultKind::CorruptStores) {
            return Ok(true);
        }
        self.fire("launch start").map(|()| false)
    }

    /// Group-start hook. Returns whether stores of this group corrupt.
    pub(crate) fn group_hook(&self, group: u32) -> Result<bool, ExecError> {
        let FaultSite::Group(g) = self.plan.site else {
            return Ok(false);
        };
        if matches!(self.plan.kind, FaultKind::CorruptStores) {
            return Ok(group >= g);
        }
        if group != g {
            return Ok(false);
        }
        self.fire("group start").map(|()| false)
    }

    /// Element offset applied to this group's global loads, if the plan
    /// injects [`FaultKind::OffsetGlobalLoads`] covering this group.
    pub(crate) fn load_offset(&self, group: u32) -> Option<i64> {
        let FaultKind::OffsetGlobalLoads(n) = self.plan.kind else {
            return None;
        };
        match self.plan.site {
            FaultSite::LaunchStart => Some(n),
            FaultSite::Group(g) if group >= g => Some(n),
            _ => None,
        }
    }

    /// Instruction countdown for a worker's budget, if the plan has an
    /// instruction site.
    pub(crate) fn instruction_trigger(&self) -> Option<u64> {
        match self.plan.site {
            // A zero countdown would never fire in the spend loop; fire on
            // the first instruction instead.
            FaultSite::Instruction(n) => Some(n.max(1)),
            _ => None,
        }
    }

    /// Instruction-site hook, called when a worker's countdown hits zero.
    pub(crate) fn instruction_hook(&self) -> Result<(), ExecError> {
        self.fire("instruction site")
    }
}

/// The launch fault plan a launch carries ([`crate::Launch::faults`]):
/// a cloneable handle to one [`FaultPlan`] and its fire counter, or to no
/// plan at all ([`Faults::default`]). Clones share the counter, so a
/// `max_fires` budget is spent across every launch holding the handle.
///
/// Without the `fault-injection` feature the handle is zero-sized and
/// `Default` is its only constructor.
#[derive(Clone, Debug, Default)]
pub struct Faults {
    #[cfg(feature = "fault-injection")]
    armed: Option<Arc<ArmedPlan>>,
}

impl Faults {
    /// Arm `plan` for the launches this handle (and its clones) reach.
    #[cfg(feature = "fault-injection")]
    pub fn new(plan: FaultPlan) -> Faults {
        Faults {
            armed: Some(Armed::new(plan)),
        }
    }

    /// The plan, if it targets `kernel`. Resolved once per launch.
    #[cfg(feature = "fault-injection")]
    pub(crate) fn for_kernel(&self, kernel: &Function) -> Option<Arc<ArmedPlan>> {
        self.armed
            .as_ref()
            .filter(|a| a.plan.target.matches(kernel))
            .cloned()
    }
}

// ---------------------------------------------------------------------------
// Named I/O fault sites (journal writes, fsync, ...) — used by service-level
// persistence code to prove crash-safety without a real crash.

/// What goes wrong at an I/O fault site.
#[cfg(feature = "fault-injection")]
#[derive(Clone, Debug)]
pub enum IoFaultKind {
    /// The operation fails outright with an `std::io::Error` carrying this
    /// message (a full short-circuit: nothing reaches the file).
    Error(String),
    /// The write persists only this many bytes of the payload before
    /// failing — the torn record a crash mid-`write` leaves behind.
    Torn(usize),
}

/// A deterministic fault to inject into named I/O sites.
///
/// Unlike [`FaultPlan`], which targets kernel launches, an [`IoFaultPlan`]
/// targets persistence operations by site name (e.g. `"journal.append"`,
/// `"journal.fsync"`); it travels in an [`IoFaults`] handle, separate from
/// the launch plan's [`Faults`].
#[cfg(feature = "fault-injection")]
#[derive(Clone, Debug)]
pub struct IoFaultPlan {
    /// The site name the consuming code passes to [`io_fault`].
    pub site: String,
    /// What goes wrong.
    pub kind: IoFaultKind,
    /// Fire at most this many times (`0` = unlimited).
    pub max_fires: u32,
}

/// The I/O fault plan persistence code carries: a cloneable handle to one
/// [`IoFaultPlan`] and its fire counter, or to no plan at all
/// ([`IoFaults::default`]). Clones share the counter.
///
/// Without the `fault-injection` feature the handle is zero-sized,
/// `Default` is its only constructor and [`IoFaults::fire`] always
/// answers "no fault".
#[derive(Clone, Debug, Default)]
pub struct IoFaults {
    #[cfg(feature = "fault-injection")]
    armed: Option<Arc<Armed<IoFaultPlan>>>,
}

impl IoFaults {
    /// Arm `plan` for the persistence code this handle (and its clones)
    /// reach.
    #[cfg(feature = "fault-injection")]
    pub fn new(plan: IoFaultPlan) -> IoFaults {
        IoFaults {
            armed: Some(Armed::new(plan)),
        }
    }

    /// Consult the plan at `site`.
    ///
    /// * `Ok(None)` — no fault: perform the operation normally.
    /// * `Ok(Some(n))` — torn write: persist only the first `n` payload
    ///   bytes, then report failure.
    /// * `Err(e)` — short-circuit: fail without touching the file.
    #[inline]
    pub fn fire(&self, site: &str) -> Result<Option<usize>, std::io::Error> {
        #[cfg(feature = "fault-injection")]
        if let Some(a) = self.armed.as_ref().filter(|a| a.plan.site == site) {
            if a.take(a.plan.max_fires) {
                return match &a.plan.kind {
                    IoFaultKind::Error(msg) => Err(std::io::Error::other(format!(
                        "fault-injection: {msg} (site {site})"
                    ))),
                    IoFaultKind::Torn(n) => Ok(Some(*n)),
                };
            }
        }
        #[cfg(not(feature = "fault-injection"))]
        let _ = site;
        Ok(None)
    }
}

// Production builds carry the handles for free.
#[cfg(not(feature = "fault-injection"))]
const _: () = assert!(std::mem::size_of::<Faults>() == 0 && std::mem::size_of::<IoFaults>() == 0);
