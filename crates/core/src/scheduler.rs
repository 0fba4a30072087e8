//! Deterministic work-stealing scheduler for the Phase II pre-pass.
//!
//! The candidate vector is an ordered list of jobs whose *results*
//! must be consumed in order (the serial merge is the determinism
//! authority — see `DESIGN.md` §3e), but whose *computation* is
//! order-free: every candidate verification starts from the same base
//! state and rolls back afterwards, so it is a pure function of the
//! candidate. That split is what makes work stealing deterministic
//! here: workers may claim candidates in any interleaving, yet the
//! merge consumes slot `i` only after slots `0..i`, charging effort
//! and deciding truncation in candidate-vector order exactly as the
//! serial path would.
//!
//! The pieces that live in this module:
//!
//! * [`StealQueue`] — a shared claim cursor plus a bounded reorder
//!   window. Workers claim the next unclaimed candidate index with one
//!   `fetch_add`; the window (`merge_pos + window`) stops workers from
//!   racing arbitrarily far ahead of the merge, bounding the number of
//!   computed-but-unconsumed slots (memory) and the work wasted when
//!   the merge truncates.
//! * [`ClaimBoard`] — one bit per target device, set by the merge when
//!   `OverlapPolicy::ClaimDevices` claims an instance's devices: the
//!   merge's own claim record, serial or parallel. Workers consult it
//!   before verifying: a candidate whose key image is already claimed
//!   will be skipped by the merge anyway, so verifying it is pure
//!   waste. Bits only ever turn on, and only the merge sets them, so a
//!   worker-side skip can never disagree with the merge's own
//!   (authoritative) claim check.
//! * [`Dispatch`] and [`Worker`] — the one worker loop. A worker
//!   claims the next candidate from the [`StealQueue`] and verifies it
//!   into its [`SlotData`]. Spawned threads run the loop to the end
//!   ([`Dispatch::run`]); the thread that merges takes single turns
//!   ([`Dispatch::step`]) between slots it consumes. Every
//!   verification, the merge's serial path and recomputes included,
//!   goes through [`Dispatch::verify`].
//! * [`WorkerStats`] — per-worker scheduler counters, summed into the
//!   `scheduler.*` metrics namespace by the harvest.
//!
//! All synchronization is acquire/release on three counters; there are
//! no locks on the claim path and the hot cursor is cache-line padded
//! to keep claim traffic off neighbouring data.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use subgemini_netlist::Vertex;

use crate::budget::{effort_of, failpoint, SharedGovernor};
use crate::events::{EventBuffer, RejectTally};
use crate::instance::{Phase2Stats, SubMatch};
use crate::metrics::{Histogram, PhaseTimer};
use crate::phase2::{BaseState, CandidateTiming, Phase2Runner, SearchState};
use crate::trace::Phase2Trace;

/// Pads (and aligns) a value to a 64-byte cache line so a hot atomic
/// does not false-share with its neighbours.
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct CachePadded<T>(pub T);

/// Outcome of a claim attempt ([`StealQueue::try_claim`]) or of one
/// turn of the worker loop ([`Dispatch::step`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Claim {
    /// The caller owns candidate `i` and must either fill its slot or
    /// abandon it (the merge recovers abandoned slots serially). From
    /// [`Dispatch::step`]: candidate `i` has been dealt with.
    Got(usize),
    /// The next candidate is outside the reorder window; retry after
    /// the merge advances (callers should briefly yield).
    Blocked,
    /// Nothing is left for this worker: every candidate has been
    /// claimed, or the broadcast told it to stop.
    Drained,
}

/// Shared claim cursor with a bounded reorder window.
///
/// `cursor` is the next unclaimed candidate index; `merge_pos` is the
/// index the serial merge is currently waiting on. Workers may only
/// claim indices below `merge_pos + window`, which keeps the set of
/// in-flight-or-parked slots bounded. Because the window is anchored
/// at `merge_pos`, the candidate the merge needs next is always
/// claimable — the pipeline cannot deadlock on the window.
#[derive(Debug)]
pub(crate) struct StealQueue {
    cursor: CachePadded<AtomicUsize>,
    merge_pos: CachePadded<AtomicUsize>,
    /// Spawned workers still inside their claim/verify loop. The merge
    /// uses this to decide when a never-filled slot is a permanent hole
    /// (worker died or was halted) rather than still in flight. The
    /// merging thread is not counted: it never waits on itself.
    active: CachePadded<AtomicUsize>,
    len: usize,
    window: usize,
}

impl StealQueue {
    /// A queue over `len` candidates verified by `threads` threads: the
    /// merging thread and `threads - 1` spawned workers. The window
    /// scales with the thread count so every worker can stay several
    /// candidates deep without contending on the merge position.
    pub(crate) fn new(len: usize, threads: usize) -> Self {
        StealQueue {
            cursor: CachePadded(AtomicUsize::new(0)),
            merge_pos: CachePadded(AtomicUsize::new(0)),
            active: CachePadded(AtomicUsize::new(threads.saturating_sub(1))),
            len,
            window: (8 * threads.max(1)).max(32),
        }
    }

    /// Attempts to claim the next candidate. Lock-free: one relaxed
    /// load pair plus one `fetch_add` on success.
    pub(crate) fn try_claim(&self) -> Claim {
        let next = self.cursor.0.load(Ordering::Relaxed);
        if next >= self.len {
            return Claim::Drained;
        }
        let merge = self.merge_pos.0.load(Ordering::Relaxed);
        if next >= merge.saturating_add(self.window) {
            return Claim::Blocked;
        }
        let got = self.cursor.0.fetch_add(1, Ordering::Relaxed);
        if got >= self.len {
            Claim::Drained
        } else {
            Claim::Got(got)
        }
    }

    /// The merge reports it is now waiting on candidate `i`, sliding
    /// the reorder window forward.
    pub(crate) fn advance_merge(&self, i: usize) {
        self.merge_pos.0.store(i, Ordering::Relaxed);
    }

    /// A spawned worker reports it has exited its claim loop (normally,
    /// on a stop signal, or via an injected kill).
    pub(crate) fn worker_done(&self) {
        self.active.0.fetch_sub(1, Ordering::Release);
    }

    /// Whether any spawned worker is still claiming or verifying. Pairs with
    /// [`worker_done`](Self::worker_done): once this returns false it
    /// stays false, and every slot write by an exited worker is
    /// visible (release/acquire on `active`).
    pub(crate) fn workers_active(&self) -> bool {
        self.active.0.load(Ordering::Acquire) > 0
    }

    /// The reorder-window size (exposed for tests and docs).
    #[cfg(test)]
    pub(crate) fn window(&self) -> usize {
        self.window
    }
}

/// One atomic bit per target device: "some merged instance claimed
/// this device". Written only by the merge, which also reads it as its
/// claim record, and read by workers as a best-effort skip hint.
/// Monotone (bits only set), so stale reads are safe: a worker that
/// misses a bit merely does wasted work; a worker that sees a bit is
/// observing a claim the merge has already committed at an earlier
/// candidate-vector position.
#[derive(Debug)]
pub(crate) struct ClaimBoard {
    bits: Vec<AtomicUsize>,
}

const BITS: usize = usize::BITS as usize;

impl ClaimBoard {
    pub(crate) fn new(devices: usize) -> Self {
        ClaimBoard {
            bits: (0..devices.div_ceil(BITS).max(1))
                .map(|_| AtomicUsize::new(0))
                .collect(),
        }
    }

    /// Marks a device claimed. Merge-side only.
    pub(crate) fn publish(&self, device: usize) {
        self.bits[device / BITS].fetch_or(1 << (device % BITS), Ordering::Relaxed);
    }

    /// Whether a device has been claimed by a merged instance.
    pub(crate) fn is_claimed(&self, device: usize) -> bool {
        self.bits[device / BITS].load(Ordering::Relaxed) & (1 << (device % BITS)) != 0
    }
}

/// Per-worker scheduler counters, harvested into `scheduler.*` metrics.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct WorkerStats {
    /// Candidates this worker claimed (and attempted).
    pub claimed: u64,
    /// Claims outside the worker's home chunk — i.e. work an even,
    /// fixed split of the candidate vector would have left to another
    /// worker.
    pub steals: u64,
    /// Candidates skipped because the claim board already covered
    /// their key image.
    pub claim_skips: u64,
    /// Times the worker found the reorder window full and had to
    /// yield before claiming.
    pub window_stalls: u64,
}

impl WorkerStats {
    pub(crate) fn absorb(&mut self, o: &WorkerStats) {
        self.claimed += o.claimed;
        self.steals += o.steals;
        self.claim_skips += o.claim_skips;
        self.window_stalls += o.window_stalls;
    }
}

/// One candidate's complete verification product. Stats, events, and
/// tallies live here — per candidate, not per worker — so the merge
/// can absorb exactly the candidates it consumes, making the outcome's
/// accounting independent of how candidates were distributed over
/// workers. `done: false` marks an abandoned claim (injected worker
/// death): the default, empty payload; the merge recomputes.
#[derive(Default)]
pub(crate) struct SlotData {
    pub(crate) result: Option<SubMatch>,
    /// The found instance's Phase II trace, when one was recorded (the
    /// serial path only).
    pub(crate) trace: Option<Phase2Trace>,
    pub(crate) stats: Phase2Stats,
    pub(crate) effort: u64,
    pub(crate) events: Option<EventBuffer>,
    pub(crate) tally: RejectTally,
    pub(crate) done: bool,
}

/// What every Phase II worker shares: the candidate vector, the slots
/// they fill, the claim queue and the broadcast signals. The merging
/// thread owns one [`Worker`] of its own, so `threads` threads verify
/// while only `threads - 1` are spawned.
pub(crate) struct Dispatch<'a> {
    pub(crate) runner: &'a Phase2Runner<'a>,
    pub(crate) base: &'a BaseState,
    pub(crate) key: Vertex,
    pub(crate) candidates: &'a [Vertex],
    /// Fingerprint-pruned candidates: never verified, never awaited.
    pub(crate) pruned: Option<&'a [bool]>,
    pub(crate) slots: &'a [OnceLock<SlotData>],
    pub(crate) queue: &'a StealQueue,
    pub(crate) shared: &'a SharedGovernor,
    /// Present exactly under `OverlapPolicy::ClaimDevices`.
    pub(crate) board: Option<&'a ClaimBoard>,
    /// Home-chunk length: `candidates / threads`, rounded up. A claim
    /// outside a worker's home chunk counts as a steal.
    pub(crate) chunk: usize,
    pub(crate) collect: bool,
}

/// One Phase II worker's private state: its search state and what it
/// measured.
pub(crate) struct Worker {
    pub(crate) search: SearchState,
    pub(crate) timing: Option<CandidateTiming>,
    pub(crate) sched: WorkerStats,
    /// The worker's even share of the candidate vector. A claim outside
    /// it is a steal: work a fixed split would have left to another
    /// worker.
    home: Range<usize>,
}

/// What a worker hands back for the harvest.
#[derive(Default)]
pub(crate) struct WorkerPart {
    pub(crate) timing: Option<CandidateTiming>,
    pub(crate) backtrack_hist: Option<Histogram>,
    pub(crate) sched: WorkerStats,
}

impl Worker {
    /// Ends the worker: its timing, backtrack histogram and counters.
    pub(crate) fn finish(mut self) -> WorkerPart {
        WorkerPart {
            timing: self.timing,
            backtrack_hist: self.search.take_backtrack_hist(),
            sched: self.sched,
        }
    }
}

impl Dispatch<'_> {
    /// Worker `w` (0 is the merging thread) with a fresh search state.
    pub(crate) fn worker(&self, w: usize) -> Worker {
        let n = self.candidates.len();
        Worker {
            search: self.runner.make_state(self.base),
            timing: self.collect.then(CandidateTiming::default),
            sched: WorkerStats::default(),
            home: (w * self.chunk)..((w + 1) * self.chunk).min(n),
        }
    }

    /// A spawned worker's whole life: turns of [`step`](Self::step)
    /// until it drains or is stopped, yielding while the reorder window
    /// is full.
    pub(crate) fn run(&self, w: usize) -> WorkerPart {
        if let Some(failpoint::Action::KillWorker) = failpoint::get("phase2.worker") {
            // Simulated worker death at startup: its candidates are
            // claimed by the other threads or recomputed by the merge.
            self.queue.worker_done();
            return WorkerPart {
                timing: self.collect.then(CandidateTiming::default),
                ..WorkerPart::default()
            };
        }
        failpoint::stall("phase2.worker");
        let mut worker = self.worker(w);
        loop {
            match self.step(&mut worker) {
                Claim::Got(_) => {}
                Claim::Blocked => {
                    worker.sched.window_stalls += 1;
                    std::thread::yield_now();
                }
                Claim::Drained => break,
            }
        }
        self.queue.worker_done();
        worker.finish()
    }

    /// One turn of the worker loop: unless the broadcast says stop,
    /// claim one candidate and verify it into its slot. The governor
    /// broadcast is checked per candidate, so exhaustion stops a worker
    /// within one candidate; the merge recomputes any hole serially,
    /// keeping results byte-identical.
    pub(crate) fn step(&self, w: &mut Worker) -> Claim {
        if self.shared.halted() || self.shared.should_stop() {
            return Claim::Drained;
        }
        let claim = self.claim();
        let Claim::Got(i) = claim else {
            return claim;
        };
        if self.pruned.is_some_and(|p| p[i]) {
            // Fingerprint-pruned: like a claim-skip, no slot is written
            // and the merge's own check never waits on one.
            return claim;
        }
        w.sched.claimed += 1;
        if !w.home.contains(&i) {
            w.sched.steals += 1;
        }
        let c = self.candidates[i];
        if let (Some(b), Some(d)) = (self.board, c.as_device()) {
            if self.shared.claim_epoch() > 0 && b.is_claimed(d.index()) {
                w.sched.claim_skips += 1;
                return claim;
            }
        }
        let data = self.verify(w, i, false);
        let effort = data.effort;
        let _ = self.slots[i].set(data);
        self.shared.charge(effort);
        claim
    }

    /// Verifies candidate `i` on `w`'s search state: the one path from a
    /// claimed candidate to its [`SlotData`] — the result, the stats and
    /// the effort they cost, the candidate's own events and reject
    /// tally, and its time on the worker's clock. Spawned workers, the
    /// merging thread's own claims, the serial path and hole recomputes
    /// all call it. `record_trace` asks for the found instance's trace.
    pub(crate) fn verify(&self, w: &mut Worker, i: usize, record_trace: bool) -> SlotData {
        let timer = w.timing.is_some().then(PhaseTimer::start);
        let mut stats = Phase2Stats::default();
        let found = self.runner.run_candidate(
            &mut w.search,
            self.key,
            self.candidates[i],
            i as u32,
            &mut stats,
            record_trace,
        );
        if let (Some(t), Some(timer)) = (w.timing.as_mut(), timer) {
            let ns = timer.elapsed_ns();
            t.sum_ns += ns;
            t.max_ns = t.max_ns.max(ns);
            t.hist.record(ns);
        }
        let (result, trace) = match found {
            Some((m, trace)) => (Some(m), trace),
            None => (None, None),
        };
        SlotData {
            result,
            trace,
            effort: 1 + effort_of(&stats),
            stats,
            events: w.search.drain_events(),
            tally: w.search.drain_reject_tally(),
            done: true,
        }
    }

    /// The next candidate from the shared queue.
    fn claim(&self) -> Claim {
        if let Some(failpoint::Action::KillWorker) = failpoint::get("phase2.steal") {
            // Death *after* claiming: abandon the candidate so the
            // merge's hole recovery has to repair it.
            if let Claim::Got(i) = self.queue.try_claim() {
                let _ = self.slots[i].set(SlotData::default());
            }
            return Claim::Drained;
        }
        failpoint::stall("phase2.steal");
        self.queue.try_claim()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn claims_are_unique_and_exhaustive() {
        let q = StealQueue::new(10, 2);
        let mut got = Vec::new();
        loop {
            match q.try_claim() {
                Claim::Got(i) => got.push(i),
                Claim::Blocked => q.advance_merge(got.len()),
                Claim::Drained => break,
            }
        }
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn window_blocks_runaway_claims_but_never_the_merge_position() {
        let q = StealQueue::new(1000, 1);
        let w = q.window();
        for i in 0..w {
            assert_eq!(q.try_claim(), Claim::Got(i));
        }
        // Window full: merge at 0, cursor at merge + window.
        assert_eq!(q.try_claim(), Claim::Blocked);
        // Advancing the merge re-opens exactly one slot — and the
        // merge's own position is always inside the window.
        q.advance_merge(1);
        assert_eq!(q.try_claim(), Claim::Got(w));
        assert_eq!(q.try_claim(), Claim::Blocked);
    }

    #[test]
    fn concurrent_claims_partition_the_range() {
        let q = StealQueue::new(500, 4);
        let sum = AtomicU64::new(0);
        let count = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| loop {
                    match q.try_claim() {
                        Claim::Got(i) => {
                            sum.fetch_add(i as u64, Ordering::Relaxed);
                            count.fetch_add(1, Ordering::Relaxed);
                            // Keep the window open: emulate a merge
                            // that instantly consumes.
                            q.advance_merge(i);
                        }
                        Claim::Blocked => std::thread::yield_now(),
                        Claim::Drained => break,
                    }
                });
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 500);
        assert_eq!(sum.load(Ordering::Relaxed), (0..500u64).sum());
    }

    #[test]
    fn worker_done_drains_active() {
        // Four threads: the merging thread plus three spawned workers,
        // and only the spawned ones count as active.
        let q = StealQueue::new(4, 4);
        assert!(q.workers_active());
        q.worker_done();
        q.worker_done();
        assert!(q.workers_active());
        q.worker_done();
        assert!(!q.workers_active());
    }

    #[test]
    fn claim_board_bits_are_monotone_and_word_spanning() {
        let b = ClaimBoard::new(130);
        assert!(!b.is_claimed(0));
        assert!(!b.is_claimed(129));
        b.publish(0);
        b.publish(63);
        b.publish(64);
        b.publish(129);
        for d in [0, 63, 64, 129] {
            assert!(b.is_claimed(d), "device {d} should be claimed");
        }
        assert!(!b.is_claimed(1));
        assert!(!b.is_claimed(128));
    }

    #[test]
    fn empty_claim_board_is_well_formed() {
        let b = ClaimBoard::new(0);
        assert!(!b.is_claimed(0));
    }

    #[test]
    fn worker_stats_absorb_sums_fields() {
        let mut a = WorkerStats {
            claimed: 1,
            steals: 2,
            claim_skips: 3,
            window_stalls: 4,
        };
        a.absorb(&WorkerStats {
            claimed: 10,
            steals: 20,
            claim_skips: 30,
            window_stalls: 40,
        });
        assert_eq!(a.claimed, 11);
        assert_eq!(a.steals, 22);
        assert_eq!(a.claim_skips, 33);
        assert_eq!(a.window_stalls, 44);
    }
}
