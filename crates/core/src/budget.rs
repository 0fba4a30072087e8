//! Search governor: deterministic work budgets, cooperative
//! cancellation, and graceful partial results.
//!
//! Phase I's candidate vector is a complete filter, but Phase II is
//! still backtracking search on an NP-complete problem — a single
//! pathological candidate (high symmetry, few safe labels) can stall a
//! whole run. `max_passes_per_candidate` / `max_guesses_per_candidate`
//! cap work *per candidate*; nothing bounds the search globally or
//! lets a caller stop it. This module adds both:
//!
//! * [`WorkBudget`] — a global cap measured in deterministic *effort
//!   units* (the Phase I/II counters the search already maintains:
//!   refinement iterations, labeling passes, guesses, backtracks),
//!   with an optional wall-clock deadline layered on top.
//! * [`CancelToken`] — a lock-free flag checked cooperatively by
//!   Phase I refinement rounds and every Phase II worker.
//! * [`Completeness`] / [`TruncationReason`] — how an outcome reports
//!   that it stopped early, and why, without losing the instances that
//!   were already verified.
//!
//! # Determinism contract
//!
//! Effort is charged at *candidate granularity*, in candidate-vector
//! order, by the serial merge loop — never from raw time and never in
//! worker completion order. A candidate's cost (`1 + Δpasses +
//! Δguesses + Δbacktracks`) is a pure function of the pattern, the
//! main circuit, and the options, so the truncation point and the
//! reported instance set are identical across `threads 1/2/8`. Worker
//! threads may *precompute* candidates beyond the truncation point
//! (they observe a shared effort accumulator and stop within one
//! candidate of exhaustion), but precomputed results past the cutoff
//! are simply never consumed. Wall-clock deadlines are inherently
//! timing-dependent and therefore only map onto the same machinery as
//! cancellation — with the one deterministic special case of a zero
//! deadline, which always truncates at the very first check site.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::options::MatchOptions;

/// A global cap on search work, in deterministic effort units, with an
/// optional wall-clock deadline layered on top.
///
/// One *effort unit* is one refinement iteration (Phase I) or one
/// labeling pass, guess, or backtrack (Phase II); every candidate
/// additionally costs one unit to open. See the module docs for the
/// determinism contract.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkBudget {
    /// Maximum effort units to spend; `None` = unlimited.
    pub max_effort: Option<u64>,
    /// Wall-clock deadline in milliseconds from the start of the
    /// search; `None` = no deadline. A deadline of `0` deterministically
    /// truncates at the first check site.
    pub deadline_ms: Option<u64>,
}

impl WorkBudget {
    /// A budget of `units` effort units, no deadline.
    pub fn effort(units: u64) -> Self {
        WorkBudget {
            max_effort: Some(units),
            deadline_ms: None,
        }
    }

    /// A wall-clock deadline of `ms` milliseconds, no effort cap.
    pub fn deadline(ms: u64) -> Self {
        WorkBudget {
            max_effort: None,
            deadline_ms: Some(ms),
        }
    }

    /// `true` when neither an effort cap nor a deadline is set.
    pub fn is_unlimited(&self) -> bool {
        self.max_effort.is_none() && self.deadline_ms.is_none()
    }
}

/// A lock-free cancellation flag shared between a caller and a running
/// search.
///
/// Clones share the flag. Phase I checks it once per refinement cycle;
/// Phase II checks it before every candidate (in the serial merge and
/// in every worker), so all workers stop within one check interval of
/// [`CancelToken::cancel`]. A cancelled search returns gracefully with
/// the instances verified so far and
/// [`Completeness::Truncated`]`{ reason: `[`TruncationReason::Cancelled`]`, .. }`.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Raises the flag. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether [`CancelToken::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Identity comparison (same shared flag): tokens have no meaningful
/// value equality, and `MatchOptions` must stay `Eq`.
impl PartialEq for CancelToken {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Eq for CancelToken {}

/// Why a search stopped before exhausting the candidate vector.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TruncationReason {
    /// The [`WorkBudget::max_effort`] cap was reached.
    EffortExhausted,
    /// The [`WorkBudget::deadline_ms`] wall-clock deadline passed.
    DeadlineExpired,
    /// [`CancelToken::cancel`] was called.
    Cancelled,
}

impl TruncationReason {
    /// Stable snake_case name, used in reports and the event journal.
    pub fn as_str(&self) -> &'static str {
        match self {
            TruncationReason::EffortExhausted => "effort_exhausted",
            TruncationReason::DeadlineExpired => "deadline_expired",
            TruncationReason::Cancelled => "cancelled",
        }
    }
}

/// Whether an outcome covered the whole candidate vector or stopped
/// early under a budget, deadline, or cancellation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum Completeness {
    /// Every candidate was considered; the instance list is the full
    /// answer (subject only to the caller's own `max_instances`).
    #[default]
    Complete,
    /// The search stopped early; the instance list is a valid prefix
    /// of the complete answer (everything reported did verify).
    Truncated {
        /// What stopped the search.
        reason: TruncationReason,
        /// Candidates actually verified before the stop.
        candidates_tried: usize,
        /// Candidates never considered because of the stop.
        candidates_skipped: usize,
    },
}

impl Completeness {
    /// `true` for [`Completeness::Complete`].
    pub fn is_complete(&self) -> bool {
        matches!(self, Completeness::Complete)
    }

    /// `true` for [`Completeness::Truncated`].
    pub fn is_truncated(&self) -> bool {
        !self.is_complete()
    }
}

/// Wall-clock deadline state: fixed at search start so every check
/// site compares against the same origin.
#[derive(Clone, Debug)]
pub(crate) struct Deadline {
    start: Instant,
    limit: Duration,
}

impl Deadline {
    fn expired(&self) -> bool {
        self.start.elapsed() >= self.limit
    }
}

/// The per-search governor: owns the effort ledger and answers "should
/// this search keep going?" at every cooperative check site. Built
/// only when the options carry a budget or a cancel token, so a
/// governor-free search does no extra work at all.
#[derive(Debug)]
pub(crate) struct Governor {
    max_effort: Option<u64>,
    spent: u64,
    cancel: Option<CancelToken>,
    deadline: Option<Deadline>,
}

impl Governor {
    /// A governor for these options, or `None` when neither a budget
    /// nor a cancel token is configured (the zero-cost default).
    pub(crate) fn from_options(options: &MatchOptions) -> Option<Governor> {
        let budget = options.budget.as_ref();
        if budget.is_none_or(WorkBudget::is_unlimited) && options.cancel.is_none() {
            return None;
        }
        let deadline = budget.and_then(|b| b.deadline_ms).map(|ms| Deadline {
            start: Instant::now(),
            limit: Duration::from_millis(ms),
        });
        Some(Governor {
            max_effort: budget.and_then(|b| b.max_effort),
            spent: 0,
            cancel: options.cancel.clone(),
            deadline,
        })
    }

    /// Adds `units` to the effort ledger.
    pub(crate) fn charge(&mut self, units: u64) {
        self.spent = self.spent.saturating_add(units);
    }

    /// Effort units charged so far.
    pub(crate) fn spent(&self) -> u64 {
        self.spent
    }

    /// The effort cap, if one is set.
    pub(crate) fn limit(&self) -> Option<u64> {
        self.max_effort
    }

    /// `true` once the charged effort has reached the cap.
    pub(crate) fn effort_exhausted(&self) -> bool {
        self.max_effort.is_some_and(|m| self.spent >= m)
    }

    /// Non-effort stop conditions: cancellation first (an explicit
    /// caller action), then the wall-clock deadline.
    pub(crate) fn interrupted(&self) -> Option<TruncationReason> {
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return Some(TruncationReason::Cancelled);
        }
        if self.deadline.as_ref().is_some_and(Deadline::expired) {
            return Some(TruncationReason::DeadlineExpired);
        }
        None
    }

    /// The full stop check used in candidate-vector order: effort
    /// exhaustion dominates interruption so effort-budget truncation
    /// stays deterministic even when a deadline is also set.
    pub(crate) fn should_stop(&self) -> Option<TruncationReason> {
        if self.effort_exhausted() {
            return Some(TruncationReason::EffortExhausted);
        }
        self.interrupted()
    }

    /// A thread-shareable view for Phase II workers, seeded with the
    /// effort already charged (Phase I's iterations). Owning (the
    /// cancel token is an `Arc` clone, the deadline a copied origin),
    /// so the streaming merge can keep charging the authoritative
    /// `&mut Governor` ledger while workers poll this view.
    pub(crate) fn shared(&self) -> SharedGovernor {
        SharedGovernor {
            spent: AtomicU64::new(self.spent),
            max_effort: self.max_effort,
            cancel: self.cancel.clone(),
            deadline: self.deadline.clone(),
            halt: AtomicBool::new(false),
            claim_epoch: AtomicU64::new(0),
        }
    }
}

/// The governor's broadcast face: Phase II workers observe a shared
/// effort accumulator plus the cancel/deadline flags, so exhaustion
/// stops every worker within one check interval. The accumulator is a
/// *stop signal only* — the authoritative, deterministic ledger is the
/// serial merge's, charged in candidate-vector order.
///
/// The scheduler rides two extra signals on the same broadcast object:
/// [`halt`](SharedGovernor::halt), raised by the streaming merge when
/// it stops consuming (`max_instances` reached, truncation, or normal
/// completion), and a monotone [claim epoch](SharedGovernor::claim_epoch),
/// bumped each time the merge publishes newly claimed devices under
/// `OverlapPolicy::ClaimDevices` — workers use it as a cheap "any
/// claims yet?" gate before consulting the claim board.
#[derive(Debug)]
pub(crate) struct SharedGovernor {
    spent: AtomicU64,
    max_effort: Option<u64>,
    cancel: Option<CancelToken>,
    deadline: Option<Deadline>,
    halt: AtomicBool,
    claim_epoch: AtomicU64,
}

impl SharedGovernor {
    /// A broadcast face with no budget, cancel, or deadline: never
    /// stops on its own, but still carries the scheduler's halt and
    /// claim-epoch signals. Used on ungoverned parallel runs.
    pub(crate) fn unlimited() -> SharedGovernor {
        SharedGovernor {
            spent: AtomicU64::new(0),
            max_effort: None,
            cancel: None,
            deadline: None,
            halt: AtomicBool::new(false),
            claim_epoch: AtomicU64::new(0),
        }
    }

    /// Adds a finished candidate's effort to the broadcast accumulator.
    pub(crate) fn charge(&self, units: u64) {
        self.spent.fetch_add(units, Ordering::Relaxed);
    }

    /// Whether workers should stop taking new candidates.
    pub(crate) fn should_stop(&self) -> bool {
        if self
            .max_effort
            .is_some_and(|m| self.spent.load(Ordering::Relaxed) >= m)
        {
            return true;
        }
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return true;
        }
        self.deadline.as_ref().is_some_and(Deadline::expired)
    }

    /// Tells workers the merge has stopped consuming: no new claims
    /// are worth making. Raised on every merge exit path so workers
    /// blocked on the reorder window always drain promptly.
    pub(crate) fn halt(&self) {
        self.halt.store(true, Ordering::Release);
    }

    /// Whether [`halt`](Self::halt) has been raised.
    pub(crate) fn halted(&self) -> bool {
        self.halt.load(Ordering::Acquire)
    }

    /// Publishes that the claim board grew. Called by the merge *after*
    /// setting the board's bits, so a worker that observes the new
    /// epoch also observes the bits.
    pub(crate) fn bump_claim_epoch(&self) {
        self.claim_epoch.fetch_add(1, Ordering::Release);
    }

    /// The current claim epoch (0 = nothing claimed yet).
    pub(crate) fn claim_epoch(&self) -> u64 {
        self.claim_epoch.load(Ordering::Acquire)
    }
}

/// The effort-unit reading of a Phase II stats block; per-candidate
/// costs are differences of this quantity plus the per-candidate
/// opening unit.
pub(crate) fn effort_of(stats: &crate::instance::Phase2Stats) -> u64 {
    (stats.passes + stats.guesses + stats.backtracks) as u64
}

/// Named fault-injection sites for the budget/cancellation test layer.
///
/// Compiled only under `cfg(test)` or the `failpoints` cargo feature;
/// in ordinary release builds every hook is a `const None` that the
/// optimizer deletes (verified by the bench regression gate). Tests
/// use `failpoint::configure` to inject deterministic guess storms,
/// stalls, or worker death at a named site, and must call
/// `failpoint::clear_all` afterwards — the registry is process-global.
/// Both exist only where the sites are compiled in.
pub mod failpoint {
    /// What to inject at a site.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum Action {
        /// Sleep this many milliseconds at the site (simulates a stall;
        /// exercises wall-clock deadlines without relying on real
        /// workload timing).
        StallMs(u64),
        /// Burn this many guesses from the per-candidate guess budget
        /// before verification starts (a deterministic "guess storm":
        /// inflates every candidate's effort identically on every
        /// thread count).
        GuessStorm(u64),
        /// Simulated worker death. At `phase2.worker` a spawned Phase
        /// II worker returns before claiming anything; at
        /// `phase2.steal` a worker abandons the candidate it just
        /// claimed and claims no more (the calling thread keeps
        /// merging). The other threads claim what is left and the
        /// merge recomputes any hole, so results are unchanged.
        KillWorker,
        /// Panic at the site. At `phase2.merge` the merging thread
        /// panics while spawned workers may be parked on the reorder
        /// window: the panic must still reach the caller of the
        /// search.
        Panic,
    }

    /// Sites the search consults. Checked at: every Phase I refinement
    /// cycle (`phase1.cycle`), every Phase II candidate verification
    /// (`phase2.candidate`), every spawned Phase II worker's startup
    /// (`phase2.worker`; the calling thread, also a worker, never
    /// runs it), and every work-stealing claim attempt, the calling
    /// thread's included (`phase2.steal`) — where `KillWorker`
    /// abandons an already-claimed candidate, exercising the merge's
    /// hole recovery — and every candidate the merge reaches, on the
    /// merging thread only (`phase2.merge`).
    pub const SITES: [&str; 5] = [
        "phase1.cycle",
        "phase2.candidate",
        "phase2.worker",
        "phase2.steal",
        "phase2.merge",
    ];

    #[cfg(any(test, feature = "failpoints"))]
    mod registry {
        use super::Action;
        use std::collections::HashMap;
        use std::sync::{Mutex, OnceLock};

        fn map() -> &'static Mutex<HashMap<String, Action>> {
            static REGISTRY: OnceLock<Mutex<HashMap<String, Action>>> = OnceLock::new();
            REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
        }

        /// Arms `site` with `action` (replacing any previous arming).
        pub fn configure(site: &str, action: Action) {
            map()
                .lock()
                .expect("failpoint registry lock")
                .insert(site.to_string(), action);
        }

        /// Disarms one site.
        pub fn clear(site: &str) {
            map().lock().expect("failpoint registry lock").remove(site);
        }

        /// Disarms every site.
        pub fn clear_all() {
            map().lock().expect("failpoint registry lock").clear();
        }

        /// The action armed at `site`, if any.
        pub fn get(site: &str) -> Option<Action> {
            map()
                .lock()
                .expect("failpoint registry lock")
                .get(site)
                .copied()
        }
    }

    #[cfg(any(test, feature = "failpoints"))]
    pub use registry::{clear, clear_all, configure, get};

    /// With the `failpoints` feature off, every site is permanently
    /// disarmed and the check folds to a constant.
    #[cfg(not(any(test, feature = "failpoints")))]
    #[inline(always)]
    pub(crate) fn get(_site: &str) -> Option<Action> {
        None
    }

    /// Sleeps when the armed action is a stall; used by the search's
    /// check sites so stall injection is one call.
    pub(crate) fn stall(site: &str) {
        if let Some(Action::StallMs(ms)) = get(site) {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_is_shared_and_identity_compared() {
        let a = CancelToken::new();
        let b = a.clone();
        let c = CancelToken::new();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(!b.is_cancelled());
        a.cancel();
        assert!(b.is_cancelled());
        assert!(!c.is_cancelled());
    }

    #[test]
    fn governor_absent_without_budget_or_cancel() {
        let opts = MatchOptions::default();
        assert!(Governor::from_options(&opts).is_none());
        let opts = MatchOptions {
            budget: Some(WorkBudget::default()),
            ..MatchOptions::default()
        };
        assert!(
            Governor::from_options(&opts).is_none(),
            "an unlimited budget is the same as no budget"
        );
    }

    #[test]
    fn effort_charging_and_exhaustion() {
        let opts = MatchOptions {
            budget: Some(WorkBudget::effort(10)),
            ..MatchOptions::default()
        };
        let mut g = Governor::from_options(&opts).expect("budgeted");
        assert!(!g.effort_exhausted());
        g.charge(9);
        assert!(!g.effort_exhausted());
        g.charge(1);
        assert!(g.effort_exhausted());
        assert_eq!(g.should_stop(), Some(TruncationReason::EffortExhausted));
        assert_eq!(g.spent(), 10);
        assert_eq!(g.limit(), Some(10));
    }

    #[test]
    fn zero_deadline_expires_immediately() {
        let opts = MatchOptions {
            budget: Some(WorkBudget::deadline(0)),
            ..MatchOptions::default()
        };
        let g = Governor::from_options(&opts).expect("deadlined");
        assert_eq!(g.interrupted(), Some(TruncationReason::DeadlineExpired));
    }

    #[test]
    fn cancellation_dominates_deadline() {
        let token = CancelToken::new();
        token.cancel();
        let opts = MatchOptions {
            budget: Some(WorkBudget::deadline(0)),
            cancel: Some(token),
            ..MatchOptions::default()
        };
        let g = Governor::from_options(&opts).expect("governed");
        assert_eq!(g.interrupted(), Some(TruncationReason::Cancelled));
    }

    #[test]
    fn shared_governor_broadcasts_exhaustion() {
        let opts = MatchOptions {
            budget: Some(WorkBudget::effort(5)),
            ..MatchOptions::default()
        };
        let mut g = Governor::from_options(&opts).expect("budgeted");
        g.charge(3);
        let shared = g.shared();
        assert!(!shared.should_stop());
        shared.charge(2);
        assert!(shared.should_stop());
    }

    #[test]
    fn shared_governor_halt_and_claim_epoch_signals() {
        let shared = SharedGovernor::unlimited();
        assert!(!shared.should_stop());
        assert!(!shared.halted());
        assert_eq!(shared.claim_epoch(), 0);
        shared.bump_claim_epoch();
        shared.bump_claim_epoch();
        assert_eq!(shared.claim_epoch(), 2);
        shared.halt();
        assert!(shared.halted());
        // Halt is a scheduler signal, not a governor stop: an
        // unlimited governor still never reports should_stop.
        assert!(!shared.should_stop());
    }

    #[test]
    fn truncation_reason_names_are_stable() {
        assert_eq!(
            TruncationReason::EffortExhausted.as_str(),
            "effort_exhausted"
        );
        assert_eq!(
            TruncationReason::DeadlineExpired.as_str(),
            "deadline_expired"
        );
        assert_eq!(TruncationReason::Cancelled.as_str(), "cancelled");
    }

    #[test]
    fn failpoints_configure_and_clear() {
        failpoint::configure("phase2.candidate", failpoint::Action::GuessStorm(7));
        assert_eq!(
            failpoint::get("phase2.candidate"),
            Some(failpoint::Action::GuessStorm(7))
        );
        failpoint::clear("phase2.candidate");
        assert_eq!(failpoint::get("phase2.candidate"), None);
        failpoint::configure("phase1.cycle", failpoint::Action::StallMs(1));
        failpoint::clear_all();
        assert_eq!(failpoint::get("phase1.cycle"), None);
    }
}
