//! The deterministic single-threaded executor and virtual clock.
//!
//! [`Sim`] is a cheaply-clonable handle to the simulation core. Components
//! capture a clone; every clone sees the same clock, run queue and timer
//! heap. The executor is strictly single-threaded: tasks are `!Send`
//! futures, and determinism follows from (a) a FIFO ready queue, (b) a timer
//! heap totally ordered by `(deadline, registration sequence)`, and (c) the
//! absence of any other event source.
//!
//! ## Allocation-free steady state
//!
//! The hot path — poll a task, arm a timer, fire it, wake the task — does
//! not allocate once the simulation has warmed up:
//!
//! * tasks live in a **generational slab** (`Vec` + intrusive free list),
//!   so a task lookup is an index, not a hash, and completed slots are
//!   recycled with a bumped generation that invalidates stale wakes;
//! * each task's [`Waker`] is created **once at spawn**; a poll moves a
//!   second handle to it out of the slab and back, so polling touches no
//!   refcount, and the copy left in the slab identifies the task;
//! * each task carries a **`scheduled` flag**, so redundant wakes coalesce:
//!   a task already in the ready queue is never pushed (or polled) twice;
//!   popping an empty ready queue reads one atomic length and takes no
//!   lock;
//! * timer slots live in a second generational slab instead of per-sleep
//!   `Rc<RefCell<_>>` allocations; a dropped [`Sleep`] cancels **lazily** —
//!   the slot is reclaimed when its heap entry pops. Heap entries are 24
//!   bytes (`{at, ord, key}`); the arm sequence and arm instant live in
//!   the slot;
//! * timers are **task-addressed**: a [`Sleep`] polled by its own task with
//!   that task's cached waker records the task id, not a waker clone, and
//!   its fire is dispatched straight into the task's poll — no `Waker`
//!   traffic, no ready-queue round trip. A sleep polled with any other
//!   waker (by hand, or under a combinator's own waker) keeps a clone and
//!   wakes it on fire;
//! * timers fire **one at a time**: each pop consumes exactly one heap
//!   entry, and the ready queue is drained to exhaustion before the next
//!   pop — so timers tied at one instant still run in `(deadline,
//!   sequence)` order, each continuation finishing before the next timer
//!   fires. Because the queue is empty at every pop, polling a
//!   task-addressed sleeper at once is exactly where a push followed by
//!   the next pop would have polled it.
//!
//! Event/poll/wake counters for all of the above are exposed through
//! [`Sim::stats`]; a direct timer dispatch counts as one wake, exactly as
//! the `Waker::wake` it replaces would have.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering as MemOrder};
// simlint: allow(cross-shard-state) -- ReadyQueue's mutex; see its doc comment
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};

use crate::stats::SimStats;
use crate::sync::{oneshot, OneshotReceiver};
use crate::time::{SimDuration, SimTime};

type LocalFuture = Pin<Box<dyn Future<Output = ()>>>;

/// Slab address of a task: index plus an ABA-guarding generation. A wake
/// addressed to a completed (recycled) slot compares generations and is
/// dropped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct TaskId {
    index: u32,
    gen: u32,
}

/// Slab address of a timer slot, generation-guarded like [`TaskId`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct TimerKey {
    index: u32,
    gen: u32,
}

/// Shared FIFO of runnable task ids. This is the only piece of executor
/// state touched by [`Waker`]s, which the `std::task` contract requires to
/// be `Send + Sync`; the mutex is never contended because the simulation is
/// single-threaded.
#[derive(Default)]
struct ReadyQueue {
    // simlint: allow(cross-shard-state) -- std::task requires Send+Sync wakers; never contended, never crosses shards
    queue: Mutex<VecDeque<TaskId>>,
    /// Mirror of the queue's length, written under the lock, so that
    /// popping an empty queue (the end of every drain) takes no lock. Its
    /// Release stores pair with the Acquire load in `pop`.
    len: AtomicUsize,
    /// `Waker::wake` calls on task wakers (timer fires that bypass them
    /// are counted in `Core::timer_wakes`).
    wakes: AtomicU64,
    /// Wakes dropped because the task was already scheduled.
    redundant_wakes: AtomicU64,
}

impl ReadyQueue {
    fn push(&self, id: TaskId) {
        let mut queue = self.queue.lock().expect("ready queue poisoned");
        queue.push_back(id);
        self.len.store(queue.len(), MemOrder::Release);
    }

    fn pop(&self) -> Option<TaskId> {
        if self.len.load(MemOrder::Acquire) == 0 {
            return None;
        }
        let mut queue = self.queue.lock().expect("ready queue poisoned");
        let id = queue.pop_front();
        self.len.store(queue.len(), MemOrder::Release);
        id
    }
}

/// One waker per task, allocated at spawn and reused for every poll. The
/// `scheduled` flag is the wake-coalescing protocol: the first wake of an
/// idle task flips it and enqueues; further wakes see it set and do
/// nothing; the executor clears it immediately before polling, so a wake
/// that lands *during* the poll re-enqueues the task.
struct TaskWaker {
    id: TaskId,
    scheduled: AtomicBool,
    ready: Arc<ReadyQueue>,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        // The executor is single-threaded; these atomics exist only because
        // `Wake` requires `Send + Sync`. No cross-thread ordering can arise.
        // simlint: allow(relaxed-atomics) -- observational wake counter, single-threaded executor
        self.ready.wakes.fetch_add(1, MemOrder::Relaxed);
        // simlint: allow(relaxed-atomics) -- wake-coalescing flag, single-threaded executor
        if !self.scheduled.swap(true, MemOrder::Relaxed) {
            self.ready.push(self.id);
        } else {
            // simlint: allow(relaxed-atomics) -- observational wake counter, single-threaded executor
            self.ready.redundant_wakes.fetch_add(1, MemOrder::Relaxed);
        }
    }
}

/// A task slab slot. `gen` survives vacancy so recycled slots invalidate
/// stale ids.
struct TaskSlot {
    gen: u32,
    state: TaskState,
}

enum TaskState {
    Vacant { next_free: Option<u32> },
    Occupied(TaskEntry),
}

struct TaskEntry {
    /// The future and the waker it is polled with; `None` while checked
    /// out for polling. Moving the waker out and back touches no refcount.
    run: Option<(LocalFuture, Waker)>,
    /// The task's identity waker, which stays in the slab while the task
    /// is polled: a [`Sleep`] whose context waker `will_wake` it is
    /// addressed to this task (see [`Waiter::Task`]).
    waker: Waker,
    /// Same `Arc` that backs `waker`; gives the executor the scheduled flag.
    shared: Arc<TaskWaker>,
    /// A wake for this task (a ready-queue entry or a timer dispatch) was
    /// consumed while its future was checked out (re-entrant `drive`);
    /// re-enqueue after the poll returns.
    repoll: bool,
}

/// A timer slab slot, lifecycle `Pending → Fired → freed` (or
/// `Pending → Cancelled → freed-at-pop` when the [`Sleep`] is dropped).
struct TimerSlot {
    gen: u32,
    /// Arm sequence number of the slot's timer; folded into the
    /// event-ordering trace when its heap entry pops.
    seq: u64,
    /// Instant the timer was armed. Seqs are assigned in arm order, so at
    /// equal deadlines an earlier-armed timer always fires first; the
    /// pipeline fast path uses this to replay tie-breaks it never armed
    /// real timers for (see `Sim::last_fired_timer`).
    armed: SimTime,
    state: TimerState,
}

enum TimerState {
    Vacant {
        next_free: Option<u32>,
    },
    /// Armed; fires into `waiter`.
    Pending {
        waiter: Waiter,
    },
    /// The deadline was reached; the [`Sleep`] will observe and free it.
    Fired,
    /// The [`Sleep`] was dropped first; the heap entry frees it at pop.
    Cancelled,
}

/// Whom a pending timer wakes when it fires.
enum Waiter {
    /// The task that last polled the [`Sleep`] with its own cached waker.
    /// The fire is dispatched straight into that task's poll.
    Task(TaskId),
    /// Any other waker (a sleep polled by hand, or under a combinator's own
    /// waker): cloned when the sleep is polled, woken when it fires.
    Foreign(Waker),
}

impl Waiter {
    /// The waiter for a sleep polled with `waker`, where `task` is the
    /// polling task if `waker` is that task's cached waker.
    fn new(task: Option<TaskId>, waker: &Waker) -> Waiter {
        match task {
            Some(id) => Waiter::Task(id),
            None => Waiter::Foreign(waker.clone()),
        }
    }
}

/// The task being polled, if `waker` is its cached waker.
fn polled_task(tasks: &[TaskSlot], current: Option<TaskId>, waker: &Waker) -> Option<TaskId> {
    let id = current?;
    match &tasks[id.index as usize].state {
        TaskState::Occupied(entry) if entry.waker.will_wake(waker) => Some(id),
        _ => None,
    }
}

/// Heap entry: 24 bytes of plain `Copy` data, no allocation, no shared
/// ownership. The arm sequence and arm instant live in the slot.
#[derive(Clone, Copy)]
struct TimerEntry {
    at: SimTime,
    /// Tie-break rank among equal deadlines. Equal to the arm sequence in
    /// normal runs; under a schedule-perturbation salt (see
    /// [`crate::perturb`]) it is an injective scramble of it, permuting
    /// same-instant firing order while leaving deadline order untouched.
    ord: u64,
    key: TimerKey,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.ord == other.ord
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    /// Reversed so that `BinaryHeap` (a max-heap) pops the *earliest*
    /// `(deadline, ord)` first. `ord == seq` unless a perturbation salt is
    /// active, so the default order is arm order.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.ord).cmp(&(self.at, self.ord))
    }
}

/// Outcome of one bounded timer-heap pop (see `Sim::pop_due_timer`).
enum TimerPop {
    /// Heap empty: no pending timers at all.
    Quiescent,
    /// Earliest heap entry is at or past the bound; nothing was popped.
    /// Carries that entry's deadline — the shard's next-event report.
    AtHorizon(SimTime),
    /// One entry was consumed (fired, or a cancelled slot reclaimed).
    Fired(Option<Waiter>),
}

struct Core {
    now: SimTime,
    timers: BinaryHeap<TimerEntry>,
    timer_slots: Vec<TimerSlot>,
    timer_free: Option<u32>,
    tasks: Vec<TaskSlot>,
    task_free: Option<u32>,
    live_tasks: u64,
    next_timer_seq: u64,
    /// The task whose poll is running (restored when a nested `drive`
    /// returns), so a [`Sleep`] can tell whether it is polled by its own
    /// task.
    current: Option<TaskId>,
    // Counters surfaced through `Sim::stats`.
    spawns: u64,
    polls: u64,
    /// Timer fires counted as wakes outside `TaskWaker`: every direct
    /// dispatch into a task's poll (each stands for the `Waker::wake` it
    /// replaces), and every fire into a foreign waker that does not count
    /// itself.
    timer_wakes: u64,
    /// Direct dispatches that found the task already scheduled.
    timer_redundant_wakes: u64,
    timer_events: u64,
    timers_set: u64,
    timers_cancelled: u64,
    // Pipeline cut-through fast-path accounting (updated by `pipe`).
    fast_path_enabled: bool,
    fast_path_hits: u64,
    slow_path_falls: u64,
    events_coalesced: u64,
    calendar_peak_len: u64,
    // Whole-transfer memoization (see `crate::memo` and `pipe`).
    transfer_memo_enabled: bool,
    memo_hits: u64,
    memo_misses: u64,
    memo_evictions: u64,
    /// Fingerprint of the active fault plane (0 = disabled); folded into
    /// transfer memo keys so entries never replay across fault regimes.
    fault_fp: u64,
    // Fault-plane accounting (updated by `fault` and the fabric recovery
    // engines).
    faults_injected: u64,
    retransmits: u64,
    rto_fires: u64,
    /// Cross-shard events delivered *into* this simulation by the sharded
    /// engine's merge channels (see [`crate::shard`]).
    cross_shard_events: u64,
    // Open-loop workload accounting (updated by `netbench::workload`).
    flows_issued: u64,
    flows_completed: u64,
    gen_backlog_peak: u64,
    /// `(deadline, armed)` of the most recently fired timer.
    last_fired: Option<(SimTime, SimTime)>,
    /// Schedule-perturbation salt captured from [`crate::perturb`] at
    /// construction; 0 = arm-order tie-breaks (the production contract).
    tie_salt: u64,
    /// FNV-1a digest over `(deadline, seq)` of every fired timer, in firing
    /// order — the executor's event-ordering trace. Two runs of the same
    /// workload fire the same timer *set*; the digest differs iff the
    /// *order* did (e.g. under a perturbation salt).
    trace_digest: u64,
    /// Fired timers whose deadline equalled the previously fired one's —
    /// i.e. members of same-instant tie groups, the only events a
    /// perturbation salt can reorder.
    tie_fires: u64,
}

/// FNV-1a offset basis / prime (64-bit), shared with the figure digests in
/// the integration tests and the cross-shard merge trace.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

pub(crate) fn fnv1a_u64(mut digest: u64, value: u64) -> u64 {
    for b in value.to_le_bytes() {
        digest ^= u64::from(b);
        digest = digest.wrapping_mul(FNV_PRIME);
    }
    digest
}

/// Injective tie-break scramble: XOR with the salt then multiply by an odd
/// constant (a bijection on `u64`). With `salt == 0` the identity is
/// deliberately preserved (`ord == seq`) so production runs keep the
/// arm-order contract bit-for-bit.
fn scramble_ord(seq: u64, salt: u64) -> u64 {
    if salt == 0 {
        seq
    } else {
        (seq ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

/// Handle to the simulation: clock, spawner and executor in one.
///
/// Cloning is cheap (`Rc` bump). All clones refer to the same simulation.
#[derive(Clone)]
pub struct Sim {
    core: Rc<RefCell<Core>>,
    ready: Arc<ReadyQueue>,
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Sim@{}", self.now())
    }
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Create a fresh simulation with the clock at [`SimTime::ZERO`].
    ///
    /// Captures the thread's schedule-perturbation salt (see
    /// [`crate::perturb::with_tie_break_salt`]); a nonzero salt permutes
    /// same-instant timer tie-breaks and disables the pipeline cut-through
    /// fast path (which replays arm-order tie-breaks and so must not run
    /// under a perturbed schedule).
    pub fn new() -> Self {
        let tie_salt = crate::perturb::current_salt();
        Sim {
            core: Rc::new(RefCell::new(Core {
                now: SimTime::ZERO,
                timers: BinaryHeap::new(),
                timer_slots: Vec::new(),
                timer_free: None,
                tasks: Vec::new(),
                task_free: None,
                live_tasks: 0,
                next_timer_seq: 0,
                current: None,
                spawns: 0,
                polls: 0,
                timer_wakes: 0,
                timer_redundant_wakes: 0,
                timer_events: 0,
                timers_set: 0,
                timers_cancelled: 0,
                fast_path_enabled: tie_salt == 0,
                fast_path_hits: 0,
                slow_path_falls: 0,
                events_coalesced: 0,
                calendar_peak_len: 0,
                transfer_memo_enabled: crate::memo::default_enabled(),
                memo_hits: 0,
                memo_misses: 0,
                memo_evictions: 0,
                fault_fp: 0,
                faults_injected: 0,
                retransmits: 0,
                rto_fires: 0,
                cross_shard_events: 0,
                flows_issued: 0,
                flows_completed: 0,
                gen_backlog_peak: 0,
                last_fired: None,
                tie_salt,
                trace_digest: FNV_OFFSET,
                tie_fires: 0,
            })),
            ready: Arc::new(ReadyQueue::default()),
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.borrow().now
    }

    /// Snapshot of the executor's event/poll/wake counters.
    pub fn stats(&self) -> SimStats {
        let core = self.core.borrow();
        SimStats {
            spawns: core.spawns,
            polls: core.polls,
            // simlint: allow(relaxed-atomics) -- stats snapshot of observational counter
            wakes: self.ready.wakes.load(MemOrder::Relaxed) + core.timer_wakes,
            // simlint: allow(relaxed-atomics) -- stats snapshot of observational counter
            redundant_wakes: self.ready.redundant_wakes.load(MemOrder::Relaxed)
                + core.timer_redundant_wakes,
            timer_events: core.timer_events,
            timers_set: core.timers_set,
            timers_cancelled: core.timers_cancelled,
            tasks_live: core.live_tasks,
            timers_pending: core.timers.len() as u64,
            fast_path_hits: core.fast_path_hits,
            slow_path_falls: core.slow_path_falls,
            events_coalesced: core.events_coalesced,
            calendar_peak_len: core.calendar_peak_len,
            memo_hits: core.memo_hits,
            memo_misses: core.memo_misses,
            memo_evictions: core.memo_evictions,
            faults_injected: core.faults_injected,
            retransmits: core.retransmits,
            rto_fires: core.rto_fires,
            // Shard-level counters: `cross_shard_events` counts deliveries
            // *into* this shard; the other three describe the sharded run
            // as a whole and are filled in by `shard::ShardOutcome::stats`.
            cross_shard_events: core.cross_shard_events,
            shards: 0,
            lookahead_rounds: 0,
            merge_queue_peak: 0,
            flows_issued: core.flows_issued,
            flows_completed: core.flows_completed,
            gen_backlog_peak: core.gen_backlog_peak,
        }
    }

    /// Enable or disable the pipeline cut-through fast path (on by
    /// default). Disabling forces every [`crate::Pipeline`] transfer down
    /// the per-segment walk; the differential tests run the same workload
    /// both ways and assert identical timing.
    pub fn set_fast_path(&self, enabled: bool) {
        self.core.borrow_mut().fast_path_enabled = enabled;
    }

    /// Whether the pipeline cut-through fast path is enabled.
    pub fn fast_path_enabled(&self) -> bool {
        self.core.borrow().fast_path_enabled
    }

    /// Record a committed cut-through traversal and the scheduling events
    /// (timer firings + task spawns) it avoided.
    pub(crate) fn note_fast_path_hit(&self, coalesced: u64) {
        let mut core = self.core.borrow_mut();
        core.fast_path_hits += 1;
        core.events_coalesced += coalesced;
    }

    /// Record a transfer that took (or was demoted to) the per-segment walk.
    pub(crate) fn note_slow_path_fall(&self) {
        self.core.borrow_mut().slow_path_falls += 1;
    }

    /// Enable or disable the whole-transfer memo cache (see
    /// [`crate::memo`]). On by default unless the process default was
    /// turned off ([`crate::memo::set_default_enabled`]); captured at
    /// [`Sim::new`]. Disabling forces every fast-path transfer to
    /// recompute its closed-form plan — output is byte-identical either
    /// way, which the `--no-memo` CI gates and `tests/memo_diff.rs`
    /// assert.
    pub fn set_transfer_memo(&self, enabled: bool) {
        self.core.borrow_mut().transfer_memo_enabled = enabled;
    }

    /// Whether the whole-transfer memo cache is enabled.
    pub fn transfer_memo_enabled(&self) -> bool {
        self.core.borrow().transfer_memo_enabled
    }

    /// Record a transfer replayed from the memo cache (including cached
    /// "plan refused" outcomes that skip straight to the walk).
    pub(crate) fn note_memo_hit(&self) {
        self.core.borrow_mut().memo_hits += 1;
    }

    /// Record a memo-eligible transfer whose fingerprint was not cached.
    pub(crate) fn note_memo_miss(&self) {
        self.core.borrow_mut().memo_misses += 1;
    }

    /// Record a memo entry evicted — either by a mid-window demotion of a
    /// replayed transfer or by the capacity cap.
    pub(crate) fn note_memo_eviction(&self) {
        self.core.borrow_mut().memo_evictions += 1;
    }

    /// Install the fingerprint of the active fault plane
    /// ([`crate::FaultPlane::fingerprint`]). Folded into every transfer
    /// memo key so entries cached under one fault regime are never
    /// replayed under another. Public because the fabric crates own their
    /// planes and install them from outside `simnet`.
    pub fn set_fault_fingerprint(&self, fp: u64) {
        self.core.borrow_mut().fault_fp = fp;
    }

    /// The currently installed fault-plane fingerprint (0 = no active
    /// plane).
    pub fn fault_fingerprint(&self) -> u64 {
        self.core.borrow().fault_fp
    }

    /// Track the high-water mark of a pipe calendar's interval count.
    pub(crate) fn note_calendar_len(&self, len: u64) {
        let mut core = self.core.borrow_mut();
        if len > core.calendar_peak_len {
            core.calendar_peak_len = len;
        }
    }

    /// Record a fault injected by a [`crate::fault::FaultPlane`] (a drop,
    /// corruption or delay decision). Public because the fabric crates own
    /// their recovery engines and judge transfers from outside `simnet`.
    pub fn note_fault_injected(&self) {
        self.core.borrow_mut().faults_injected += 1;
    }

    /// Record `n` retransmitted units (segments, packets or messages,
    /// whatever granularity the fabric's recovery engine works in).
    pub fn note_retransmits(&self, n: u64) {
        self.core.borrow_mut().retransmits += n;
    }

    /// Record one retransmission-timeout expiry (as opposed to a fast
    /// retransmit triggered by feedback such as dup-ACKs or NAKs).
    pub fn note_rto_fire(&self) {
        self.core.borrow_mut().rto_fires += 1;
    }

    /// Record one cross-shard event delivered into this simulation through
    /// the sharded engine's merge channels (see [`crate::shard`]).
    pub(crate) fn note_cross_shard_event(&self) {
        self.core.borrow_mut().cross_shard_events += 1;
    }

    /// Record one flow issued by an open-loop workload generator. Public
    /// because the workload engine (`netbench::workload`) drives the
    /// fabric data paths from outside `simnet`.
    pub fn note_flow_issued(&self) {
        self.core.borrow_mut().flows_issued += 1;
    }

    /// Record one flow whose response (or final streaming byte) completed.
    /// At quiesce the `workload.conservation` oracle requires
    /// `flows_issued == flows_completed + in-flight`.
    pub fn note_flow_completed(&self) {
        self.core.borrow_mut().flows_completed += 1;
    }

    /// Track the high-water mark of a workload generator's backlog (flows
    /// issued but not yet picked up by a service loop).
    pub fn note_gen_backlog(&self, depth: u64) {
        let mut core = self.core.borrow_mut();
        if depth > core.gen_backlog_peak {
            core.gen_backlog_peak = depth;
        }
    }

    /// `(deadline, armed)` of the most recently fired timer. At equal
    /// deadlines timers fire in arm order, so a speculated sleep armed
    /// strictly before this one would already have fired by now — the
    /// pipeline fast path consults this to replay same-instant ordering
    /// against sleeps it never actually armed.
    pub(crate) fn last_fired_timer(&self) -> Option<(SimTime, SimTime)> {
        self.core.borrow().last_fired
    }

    /// The schedule-perturbation salt this simulation was created under
    /// (0 = unperturbed arm-order tie-breaks).
    pub fn tie_break_salt(&self) -> u64 {
        self.core.borrow().tie_salt
    }

    /// FNV-1a digest of the executor's event-ordering trace: every fired
    /// timer's `(deadline, arm-sequence)` pair, in firing order. Identical
    /// workloads produce identical digests; a perturbation salt that
    /// actually reordered a same-instant tie group produces a different
    /// one. See [`crate::perturb`].
    pub fn order_trace_digest(&self) -> u64 {
        self.core.borrow().trace_digest
    }

    /// How many fired timers shared their deadline with the previously
    /// fired one — the size of the schedule-perturbation surface. 0 means
    /// a salt cannot change anything.
    pub fn tie_fires(&self) -> u64 {
        self.core.borrow().tie_fires
    }

    /// Spawn a task. It will not run until the executor is driven by
    /// [`Sim::block_on`] or [`Sim::run_until_quiescent`].
    pub fn spawn<F>(&self, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        let (tx, rx) = oneshot();
        let wrapped: LocalFuture = Box::pin(async move {
            let out = fut.await;
            // The receiver may have been dropped; that simply means nobody
            // cares about the result.
            tx.send(out);
        });
        let id = {
            let mut core = self.core.borrow_mut();
            core.spawns += 1;
            core.live_tasks += 1;
            let index = match core.task_free {
                Some(i) => {
                    let TaskState::Vacant { next_free } = core.tasks[i as usize].state else {
                        unreachable!("task free list points at occupied slot");
                    };
                    core.task_free = next_free;
                    i
                }
                None => {
                    core.tasks.push(TaskSlot {
                        gen: 0,
                        state: TaskState::Vacant { next_free: None },
                    });
                    (core.tasks.len() - 1) as u32
                }
            };
            let slot = &mut core.tasks[index as usize];
            let id = TaskId {
                index,
                gen: slot.gen,
            };
            let shared = Arc::new(TaskWaker {
                id,
                // Born scheduled: we enqueue it right below.
                scheduled: AtomicBool::new(true),
                ready: Arc::clone(&self.ready),
            });
            let waker = Waker::from(Arc::clone(&shared));
            slot.state = TaskState::Occupied(TaskEntry {
                run: Some((wrapped, waker.clone())),
                waker,
                shared,
                repoll: false,
            });
            id
        };
        self.ready.push(id);
        JoinHandle { rx }
    }

    /// Sleep for `d` of virtual time.
    pub fn sleep(&self, d: SimDuration) -> Sleep {
        self.sleep_until(self.now() + d)
    }

    /// Sleep until the given virtual instant (completes immediately if it is
    /// already in the past).
    pub fn sleep_until(&self, at: SimTime) -> Sleep {
        Sleep {
            sim: self.clone(),
            at,
            key: None,
        }
    }

    /// Yield to every other currently-runnable task once, without advancing
    /// time. Useful to model "post then immediately test" API patterns.
    pub fn yield_now(&self) -> YieldNow {
        YieldNow { yielded: false }
    }

    /// Drive the simulation until `fut` completes, then return its output.
    ///
    /// Background tasks that are still pending when `fut` completes are left
    /// in place (they resume if `block_on` is called again).
    ///
    /// # Panics
    ///
    /// Panics on deadlock: no runnable task, no pending timer, and `fut`
    /// still incomplete. In a deterministic simulation this is always a bug
    /// in the simulated protocol, so failing fast with a diagnostic beats
    /// hanging.
    pub fn block_on<F>(&self, fut: F) -> F::Output
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        let handle = self.spawn(fut);
        let mut out = None;
        self.drive(|sim| {
            if let Some(v) = handle.try_take(sim) {
                out = Some(v);
                true
            } else {
                false
            }
        });
        match out {
            Some(v) => v,
            None => panic!(
                "simnet deadlock at {}: root task blocked with {} task(s) live and no timers",
                self.now(),
                self.core.borrow().live_tasks,
            ),
        }
    }

    /// Drive the simulation until no task is runnable and no timer is
    /// pending. Returns the final virtual time.
    pub fn run_until_quiescent(&self) -> SimTime {
        self.drive(|_| false);
        self.now()
    }

    /// Drive the simulation up to (but excluding) virtual time `bound`:
    /// drain the ready queue, then fire timers strictly below `bound`,
    /// exactly as [`Sim::run_until_quiescent`] would have fired them.
    ///
    /// Returns the deadline of the earliest still-pending heap entry
    /// (`>= bound`), or `None` if the shard is quiescent. The returned
    /// deadline may belong to a lazily-cancelled sleep — that is
    /// deliberate: a serial run advances the clock through cancelled
    /// entries too, so reporting them keeps the sharded round schedule a
    /// pure function of simulation state, independent of thread count.
    ///
    /// This is the per-round workhorse of [`crate::shard`]'s conservative
    /// lookahead loop: events below the bound cannot be affected by
    /// cross-shard traffic that has not arrived yet, so each shard may
    /// process them without synchronization.
    pub fn run_until_horizon(&self, bound: SimTime) -> Option<SimTime> {
        loop {
            while let Some(id) = self.ready.pop() {
                self.poll_task(id, false);
            }
            match self.pop_due_timer(Some(bound)) {
                TimerPop::Quiescent => return None,
                TimerPop::AtHorizon(at) => return Some(at),
                TimerPop::Fired(waiter) => self.fire(waiter),
            }
        }
    }

    /// Core event loop. `done` is checked after each batch of polls; when it
    /// returns true the loop exits early.
    fn drive(&self, mut done: impl FnMut(&Sim) -> bool) {
        loop {
            // Drain the ready queue FIFO. Tasks woken while we drain are
            // appended and handled in the same batch.
            while let Some(id) = self.ready.pop() {
                self.poll_task(id, false);
            }
            if done(self) {
                return;
            }
            match self.pop_due_timer(None) {
                TimerPop::Quiescent => return,
                TimerPop::AtHorizon(_) => unreachable!("unbounded pop hit a horizon"),
                TimerPop::Fired(waiter) => self.fire(waiter),
            }
        }
    }

    /// Deliver a popped timer to its waiter. Both event loops drain the
    /// ready queue before they pop a timer, so polling a [`Waiter::Task`]
    /// here is exactly where a push followed by the next pop would have
    /// polled it.
    fn fire(&self, waiter: Option<Waiter>) {
        match waiter {
            Some(Waiter::Task(id)) => self.poll_task(id, true),
            Some(Waiter::Foreign(w)) => {
                // A task waker counts its own wake; a fire into any other
                // waker is counted here, so every delivered fire is one.
                // The counter is written only on this thread; Acquire (not
                // Relaxed) just keeps these loads out of the lint's waivers.
                let counted = self.ready.wakes.load(MemOrder::Acquire);
                w.wake();
                if self.ready.wakes.load(MemOrder::Acquire) == counted {
                    self.core.borrow_mut().timer_wakes += 1;
                }
            }
            None => {}
        }
    }

    /// Advance virtual time to the next timer and fire it. Exactly one heap
    /// entry is consumed per call so that, when several timers share an
    /// instant, each sleeper's continuation runs to exhaustion before the
    /// next timer fires — the `(time, seq)` interleaving every model above
    /// us was validated against. With `bound` set, entries at or past the
    /// bound are left in place and reported instead of fired.
    fn pop_due_timer(&self, bound: Option<SimTime>) -> TimerPop {
        let mut core = self.core.borrow_mut();
        let Some(&head) = core.timers.peek() else {
            return TimerPop::Quiescent;
        };
        if let Some(b) = bound {
            if head.at >= b {
                return TimerPop::AtHorizon(head.at);
            }
        }
        let entry = core.timers.pop().expect("peeked timer vanished");
        debug_assert!(entry.at >= core.now, "timer heap went backwards");
        core.now = core.now.max(entry.at);
        let idx = entry.key.index as usize;
        if core.timer_slots[idx].gen != entry.key.gen {
            debug_assert!(false, "timer heap entry outlived its slot");
            return TimerPop::Fired(None);
        }
        let free = core.timer_free;
        let slot = &mut core.timer_slots[idx];
        let (seq, armed) = (slot.seq, slot.armed);
        match std::mem::replace(&mut slot.state, TimerState::Fired) {
            TimerState::Pending { waiter } => {
                core.timer_events += 1;
                // Event-ordering trace: digest `(deadline, seq)` in
                // firing order, and count same-instant tie members —
                // the only events a perturbation salt can reorder.
                if let Some((prev_at, _)) = core.last_fired {
                    if prev_at == entry.at {
                        core.tie_fires += 1;
                    }
                }
                core.trace_digest =
                    fnv1a_u64(fnv1a_u64(core.trace_digest, entry.at.as_nanos()), seq);
                core.last_fired = Some((entry.at, armed));
                TimerPop::Fired(Some(waiter))
            }
            TimerState::Cancelled => {
                // Lazy cancellation: reclaim the slot now that its
                // heap entry is gone. Time still advanced to
                // `entry.at` above, exactly as the seed executor did
                // for orphaned timers.
                slot.gen = slot.gen.wrapping_add(1);
                slot.state = TimerState::Vacant { next_free: free };
                core.timer_free = Some(entry.key.index);
                TimerPop::Fired(None)
            }
            other => {
                slot.state = other;
                debug_assert!(false, "popped timer neither pending nor cancelled");
                TimerPop::Fired(None)
            }
        }
    }

    /// Poll task `id`, either popped from the ready queue or, with `fired`,
    /// dispatched directly by its timer. A direct dispatch is a wake: it is
    /// counted and coalesced here exactly as `TaskWaker::wake_by_ref`
    /// followed by a pop would have counted and coalesced it.
    fn poll_task(&self, id: TaskId, fired: bool) {
        // Check the future out of the slab so the task body may re-borrow
        // the core (spawn, sleep, wake) without RefCell re-entrancy.
        let (mut fut, waker, outer) = {
            let mut guard = self.core.borrow_mut();
            let core = &mut *guard;
            if fired {
                core.timer_wakes += 1;
            }
            let Some(slot) = core.tasks.get_mut(id.index as usize) else {
                return;
            };
            if slot.gen != id.gen {
                return; // task completed; stale wake
            }
            let TaskState::Occupied(entry) = &mut slot.state else {
                return;
            };
            // The queue is empty at every timer pop, so a set flag here
            // means the task is checked out with a wake already pending.
            // This Acquire load pairs with the Release store below.
            if fired && entry.shared.scheduled.load(MemOrder::Acquire) {
                core.timer_redundant_wakes += 1;
                return;
            }
            match entry.run.take() {
                Some((fut, waker)) => {
                    // Clear the flag *before* polling: a wake that lands
                    // mid-poll must re-enqueue the task.
                    // simlint: allow(relaxed-atomics) -- wake-coalescing flag, single-threaded executor
                    entry.shared.scheduled.store(false, MemOrder::Relaxed);
                    core.polls += 1;
                    (fut, waker, core.current.replace(id))
                }
                None => {
                    // Checked out by an outer poll (re-entrant drive). Mark
                    // for re-enqueue when that poll restores the future, so
                    // the wake this entry represents is not lost. A queue
                    // entry already set the flag; a direct dispatch sets it
                    // here, as the push it replaces would have.
                    entry.repoll = true;
                    entry.shared.scheduled.store(true, MemOrder::Release);
                    return;
                }
            }
        };
        let mut cx = Context::from_waker(&waker);
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(()) => {
                let mut core = self.core.borrow_mut();
                core.current = outer;
                core.live_tasks -= 1;
                let free = core.task_free;
                let slot = &mut core.tasks[id.index as usize];
                slot.gen = slot.gen.wrapping_add(1);
                slot.state = TaskState::Vacant { next_free: free };
                core.task_free = Some(id.index);
            }
            Poll::Pending => {
                let mut core = self.core.borrow_mut();
                core.current = outer;
                let TaskState::Occupied(entry) = &mut core.tasks[id.index as usize].state else {
                    unreachable!("pending task's slot vanished during poll");
                };
                entry.run = Some((fut, waker));
                if entry.repoll {
                    entry.repoll = false;
                    // simlint: allow(relaxed-atomics) -- wake-coalescing flag, single-threaded executor
                    entry.shared.scheduled.store(true, MemOrder::Relaxed);
                    drop(core);
                    self.ready.push(id);
                }
            }
        }
    }

    /// Arm a timer at `(at, next seq)` backed by a pooled slot holding the
    /// sleeper's [`Waiter`]. Returns the slot key for [`Sleep`] to
    /// poll/free.
    fn register_timer(&self, at: SimTime, waker: &Waker) -> TimerKey {
        let mut guard = self.core.borrow_mut();
        let core = &mut *guard;
        core.timers_set += 1;
        let waiter = Waiter::new(polled_task(&core.tasks, core.current, waker), waker);
        let index = match core.timer_free {
            Some(i) => {
                let TimerState::Vacant { next_free } = core.timer_slots[i as usize].state else {
                    unreachable!("timer free list points at occupied slot");
                };
                core.timer_free = next_free;
                i
            }
            None => {
                core.timer_slots.push(TimerSlot {
                    gen: 0,
                    seq: 0,
                    armed: SimTime::ZERO,
                    state: TimerState::Vacant { next_free: None },
                });
                (core.timer_slots.len() - 1) as u32
            }
        };
        let seq = core.next_timer_seq;
        core.next_timer_seq += 1;
        let slot = &mut core.timer_slots[index as usize];
        slot.seq = seq;
        slot.armed = core.now;
        slot.state = TimerState::Pending { waiter };
        let key = TimerKey {
            index,
            gen: slot.gen,
        };
        let ord = scramble_ord(seq, core.tie_salt);
        core.timers.push(TimerEntry { at, ord, key });
        key
    }

    /// Free a timer slot whose heap entry has already popped (state Fired).
    fn free_fired_timer(&self, key: TimerKey) {
        let mut core = self.core.borrow_mut();
        let free = core.timer_free;
        let slot = &mut core.timer_slots[key.index as usize];
        debug_assert_eq!(slot.gen, key.gen, "freeing a recycled timer slot");
        debug_assert!(matches!(slot.state, TimerState::Fired));
        slot.gen = slot.gen.wrapping_add(1);
        slot.state = TimerState::Vacant { next_free: free };
        core.timer_free = Some(key.index);
    }
}

/// Future returned by [`Sim::sleep`] / [`Sim::sleep_until`].
pub struct Sleep {
    sim: Sim,
    at: SimTime,
    key: Option<TimerKey>,
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if let Some(key) = self.key {
            let fired = {
                let mut guard = self.sim.core.borrow_mut();
                let core = &mut *guard;
                let slot = &mut core.timer_slots[key.index as usize];
                debug_assert_eq!(slot.gen, key.gen, "sleep outlived its timer slot");
                match &mut slot.state {
                    TimerState::Fired => true,
                    TimerState::Pending { waiter } => {
                        // Re-registration only matters when the sleep is
                        // re-polled by another task or under another
                        // waker; the common same-task re-poll keeps it.
                        let waker = cx.waker();
                        match (polled_task(&core.tasks, core.current, waker), &*waiter) {
                            (Some(task), Waiter::Task(id)) if task == *id => {}
                            (None, Waiter::Foreign(w)) if w.will_wake(waker) => {}
                            (task, _) => *waiter = Waiter::new(task, waker),
                        }
                        false
                    }
                    _ => unreachable!("armed sleep found vacant/cancelled slot"),
                }
            };
            if fired {
                self.sim.free_fired_timer(key);
                self.key = None;
                return Poll::Ready(());
            }
            return Poll::Pending;
        }
        if self.sim.now() >= self.at {
            return Poll::Ready(());
        }
        let key = self.sim.register_timer(self.at, cx.waker());
        self.key = Some(key);
        Poll::Pending
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        let Some(key) = self.key.take() else { return };
        let mut core = self.sim.core.borrow_mut();
        let free = core.timer_free;
        let slot = &mut core.timer_slots[key.index as usize];
        if slot.gen != key.gen {
            return;
        }
        match slot.state {
            TimerState::Fired => {
                // Heap entry already popped: reclaim immediately.
                slot.gen = slot.gen.wrapping_add(1);
                slot.state = TimerState::Vacant { next_free: free };
                core.timer_free = Some(key.index);
            }
            TimerState::Pending { .. } => {
                // Lazy cancel: drop the waiter now, let the heap entry
                // reclaim the slot when it pops.
                slot.state = TimerState::Cancelled;
                core.timers_cancelled += 1;
            }
            _ => {}
        }
    }
}

/// Future returned by [`Sim::yield_now`].
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

/// Handle to a spawned task's result.
///
/// Await it inside the simulation, or use [`JoinHandle::try_take`] from
/// outside the executor loop.
pub struct JoinHandle<T> {
    rx: OneshotReceiver<T>,
}

impl<T> JoinHandle<T> {
    /// Non-blocking: returns the task output if it has completed.
    pub fn try_take(&self, _sim: &Sim) -> Option<T> {
        self.rx.try_recv()
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        match Pin::new(&mut self.rx).poll(cx) {
            Poll::Ready(Some(v)) => Poll::Ready(v),
            Poll::Ready(None) => panic!("joined task dropped its result channel"),
            Poll::Pending => Poll::Pending,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn clock_starts_at_zero() {
        let sim = Sim::new();
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn sleep_advances_virtual_time() {
        let sim = Sim::new();
        let s = sim.clone();
        let t = sim.block_on(async move {
            s.sleep(SimDuration::from_micros(7)).await;
            s.now()
        });
        assert_eq!(t.as_nanos(), 7_000);
    }

    #[test]
    fn nested_sleeps_accumulate() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.block_on(async move {
            s.sleep(SimDuration::from_nanos(10)).await;
            s.sleep(SimDuration::from_nanos(5)).await;
            assert_eq!(s.now().as_nanos(), 15);
        });
    }

    #[test]
    fn simultaneous_timers_fire_in_registration_order() {
        let sim = Sim::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..4 {
            let s = sim.clone();
            let order = Rc::clone(&order);
            sim.spawn(async move {
                s.sleep(SimDuration::from_nanos(100)).await;
                order.borrow_mut().push(i);
            });
        }
        sim.run_until_quiescent();
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn spawn_runs_concurrently_with_root() {
        let sim = Sim::new();
        let hits = Rc::new(Cell::new(0));
        let h = Rc::clone(&hits);
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(SimDuration::from_nanos(3)).await;
            h.set(h.get() + 1);
        });
        let s = sim.clone();
        sim.block_on(async move {
            s.sleep(SimDuration::from_nanos(10)).await;
        });
        assert_eq!(hits.get(), 1);
    }

    #[test]
    fn join_handle_returns_value() {
        let sim = Sim::new();
        let s = sim.clone();
        let h = sim.spawn(async move {
            s.sleep(SimDuration::from_nanos(1)).await;
            42u32
        });
        let got = sim.block_on(h);
        assert_eq!(got, 42);
    }

    #[test]
    fn yield_now_interleaves_without_time() {
        let sim = Sim::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        for name in ["a", "b"] {
            let s = sim.clone();
            let log = Rc::clone(&log);
            sim.spawn(async move {
                for round in 0..2 {
                    log.borrow_mut().push(format!("{name}{round}"));
                    s.yield_now().await;
                }
            });
        }
        let end = sim.run_until_quiescent();
        assert_eq!(end, SimTime::ZERO);
        assert_eq!(*log.borrow(), vec!["a0", "b0", "a1", "b1"]);
    }

    #[test]
    fn run_until_quiescent_returns_last_event_time() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(SimDuration::from_micros(3)).await;
            s.sleep(SimDuration::from_micros(4)).await;
        });
        assert_eq!(sim.run_until_quiescent().as_nanos(), 7_000);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_panics_with_diagnostic() {
        let sim = Sim::new();
        let (_tx, rx) = crate::sync::oneshot::<()>();
        // _tx is alive, so the receive can never complete and no timer exists.
        sim.block_on(async move {
            rx.await;
        });
    }

    #[test]
    fn determinism_two_identical_runs() {
        fn run() -> Vec<(u64, u32)> {
            let sim = Sim::new();
            let log = Rc::new(RefCell::new(Vec::new()));
            for i in 0..8u32 {
                let s = sim.clone();
                let log = Rc::clone(&log);
                sim.spawn(async move {
                    // Deliberately interleaved deadlines.
                    s.sleep(SimDuration::from_nanos(((i * 37) % 11) as u64 * 10))
                        .await;
                    log.borrow_mut().push((s.now().as_nanos(), i));
                });
            }
            sim.run_until_quiescent();
            Rc::try_unwrap(log).unwrap().into_inner()
        }
        assert_eq!(run(), run());
    }

    /// A future that records every poll and parks its waker where the test
    /// can reach it.
    struct Probe {
        polls: Rc<Cell<u32>>,
        waker: Rc<RefCell<Option<Waker>>>,
        done: Rc<Cell<bool>>,
    }

    impl Future for Probe {
        type Output = ();
        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            self.polls.set(self.polls.get() + 1);
            if self.done.get() {
                Poll::Ready(())
            } else {
                *self.waker.borrow_mut() = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }

    #[test]
    fn redundant_wakes_coalesce_into_a_single_poll() {
        let sim = Sim::new();
        let polls = Rc::new(Cell::new(0u32));
        let waker = Rc::new(RefCell::new(None::<Waker>));
        let done = Rc::new(Cell::new(false));
        sim.spawn(Probe {
            polls: Rc::clone(&polls),
            waker: Rc::clone(&waker),
            done: Rc::clone(&done),
        });
        sim.run_until_quiescent();
        assert_eq!(polls.get(), 1, "probe should have parked after one poll");

        // Wake the parked task N times; only ONE further poll may result.
        done.set(true);
        let w = waker.borrow().clone().expect("probe parked a waker");
        const N: u32 = 7;
        for _ in 0..N {
            w.wake_by_ref();
        }
        sim.run_until_quiescent();
        assert_eq!(
            polls.get(),
            2,
            "{N} wakes of one task must coalesce into a single poll"
        );
        let st = sim.stats();
        assert_eq!(st.wakes, N as u64);
        assert_eq!(st.redundant_wakes, (N - 1) as u64);
    }

    #[test]
    fn stale_wake_after_completion_is_ignored() {
        let sim = Sim::new();
        let waker = Rc::new(RefCell::new(None::<Waker>));
        let done = Rc::new(Cell::new(false));
        let polls = Rc::new(Cell::new(0u32));
        sim.spawn(Probe {
            polls: Rc::clone(&polls),
            waker: Rc::clone(&waker),
            done: Rc::clone(&done),
        });
        sim.run_until_quiescent();
        done.set(true);
        let w = waker.borrow().clone().unwrap();
        w.wake_by_ref();
        sim.run_until_quiescent();
        assert_eq!(polls.get(), 2);
        // The task completed and its slot was recycled; this wake must be
        // dropped on generation mismatch, not poll a stranger.
        w.wake();
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(SimDuration::from_nanos(1)).await;
        });
        sim.run_until_quiescent();
        assert_eq!(polls.get(), 2, "stale wake must not reach a recycled slot");
    }

    #[test]
    fn task_slots_are_recycled_not_grown() {
        let sim = Sim::new();
        for _ in 0..100 {
            let s = sim.clone();
            sim.block_on(async move {
                s.sleep(SimDuration::from_nanos(1)).await;
            });
        }
        // block_on spawns one root task per call; sequential tasks must
        // reuse one slot (plus the slot vacated between iterations).
        assert!(
            sim.core.borrow().tasks.len() <= 2,
            "sequential tasks must recycle slab slots, got {}",
            sim.core.borrow().tasks.len()
        );
        assert_eq!(sim.stats().spawns, 100);
        assert_eq!(sim.stats().tasks_live, 0);
    }

    #[test]
    fn timer_slots_are_recycled_not_grown() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.block_on(async move {
            for _ in 0..1000 {
                s.sleep(SimDuration::from_nanos(3)).await;
            }
        });
        let core = sim.core.borrow();
        assert!(
            core.timer_slots.len() <= 2,
            "sequential sleeps must recycle timer slots, got {}",
            core.timer_slots.len()
        );
        drop(core);
        assert_eq!(sim.stats().timers_set, 1000);
        assert_eq!(sim.stats().timer_events, 1000);
    }

    #[test]
    fn dropped_sleep_cancels_lazily_and_slot_is_reclaimed() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.block_on(async move {
            // Race a short sleep against a long one; the loser is dropped.
            let short = s.sleep(SimDuration::from_nanos(10));
            let long = s.sleep(SimDuration::from_micros(50));
            let winner = crate::sync::select2(short, long).await;
            assert!(matches!(winner, crate::sync::Either::Left(())));
        });
        // The long timer is cancelled but still in the heap; draining to
        // quiescence pops it and reclaims the slot.
        assert_eq!(sim.stats().timers_cancelled, 1);
        let end = sim.run_until_quiescent();
        // Seed semantics: orphaned timers still advance the clock at pop.
        assert_eq!(end.as_nanos(), 50_000);
        let core = sim.core.borrow();
        assert!(core
            .timer_slots
            .iter()
            .all(|s| matches!(s.state, TimerState::Vacant { .. })));
    }

    #[test]
    fn same_instant_timers_interleave_continuations_in_seq_order() {
        // When many timers share an instant, each sleeper's continuation —
        // including any task it spawns — must run to exhaustion before the
        // next timer fires. Batching the wakes up front would instead
        // produce [0, 1, ..., 15, 100, 101, ...].
        let sim = Sim::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..16 {
            let s = sim.clone();
            let order = Rc::clone(&order);
            sim.spawn(async move {
                s.sleep(SimDuration::from_nanos(100)).await;
                order.borrow_mut().push(i);
                let order = Rc::clone(&order);
                s.spawn(async move {
                    order.borrow_mut().push(100 + i);
                });
            });
        }
        sim.run_until_quiescent();
        let expect: Vec<i32> = (0..16).flat_map(|i| [i, 100 + i]).collect();
        assert_eq!(*order.borrow(), expect);
        assert_eq!(sim.stats().timer_events, 16);
    }

    #[test]
    fn stats_reflect_a_simple_run() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.block_on(async move {
            s.sleep(SimDuration::from_nanos(5)).await;
        });
        let st = sim.stats();
        assert_eq!(st.spawns, 1);
        assert_eq!(st.timers_set, 1);
        assert_eq!(st.timer_events, 1);
        // Poll #1 arms the timer, poll #2 observes it fired.
        assert_eq!(st.polls, 2);
        assert_eq!(st.tasks_live, 0);
        assert_eq!(st.timers_pending, 0);
    }

    #[test]
    fn timer_heap_entries_are_24_bytes() {
        assert_eq!(std::mem::size_of::<TimerEntry>(), 24);
    }

    /// A `Wake` impl that only counts its wakes.
    #[derive(Default)]
    struct CountingWake(AtomicU64);

    impl Wake for CountingWake {
        fn wake(self: Arc<Self>) {
            self.wake_by_ref();
        }

        fn wake_by_ref(self: &Arc<Self>) {
            self.0.fetch_add(1, MemOrder::SeqCst);
        }
    }

    #[test]
    fn sleep_polled_outside_any_task_wakes_its_waker_once() {
        let sim = Sim::new();
        let count = Arc::new(CountingWake::default());
        let waker = Waker::from(Arc::clone(&count));
        let mut cx = Context::from_waker(&waker);
        let mut sleep = sim.sleep(SimDuration::from_nanos(10));
        assert!(Pin::new(&mut sleep).poll(&mut cx).is_pending());
        // A re-poll under the same waker keeps the one registration.
        assert!(Pin::new(&mut sleep).poll(&mut cx).is_pending());
        assert_eq!(sim.run_until_quiescent().as_nanos(), 10);
        assert_eq!(count.0.load(MemOrder::SeqCst), 1);
        let st = sim.stats();
        assert_eq!((st.wakes, st.redundant_wakes, st.polls), (1, 0, 0));
        assert_eq!(st.timer_events, 1);
        assert!(Pin::new(&mut sleep).poll(&mut cx).is_ready());
    }

    /// Counts the polls of the future it wraps.
    struct CountPolls<F> {
        fut: Pin<Box<F>>,
        polls: Rc<Cell<u32>>,
    }

    impl<F: Future> Future for CountPolls<F> {
        type Output = F::Output;
        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
            self.polls.set(self.polls.get() + 1);
            self.fut.as_mut().poll(cx)
        }
    }

    #[test]
    fn sleep_moved_to_another_task_wakes_that_task() {
        let sim = Sim::new();
        let stash = Rc::new(RefCell::new(None::<Sleep>));
        let a_polls = Rc::new(Cell::new(0u32));
        // Task A arms a 10 ns sleep, hands it over, then parks for 1 µs.
        let (s, st) = (sim.clone(), Rc::clone(&stash));
        sim.spawn(CountPolls {
            fut: Box::pin(async move {
                let mut sleep = s.sleep(SimDuration::from_nanos(10));
                std::future::poll_fn(|cx| {
                    assert!(Pin::new(&mut sleep).poll(cx).is_pending());
                    Poll::Ready(())
                })
                .await;
                *st.borrow_mut() = Some(sleep);
                s.sleep(SimDuration::from_micros(1)).await;
            }),
            polls: Rc::clone(&a_polls),
        });
        // Task B re-polls the moved sleep under its own waker.
        let woke = Rc::new(Cell::new(None::<(u64, u32)>));
        let (s, st, w, ap) = (
            sim.clone(),
            Rc::clone(&stash),
            Rc::clone(&woke),
            Rc::clone(&a_polls),
        );
        sim.spawn(async move {
            let sleep = st.borrow_mut().take().expect("task A ran first");
            sleep.await;
            w.set(Some((s.now().as_nanos(), ap.get())));
        });
        assert_eq!(sim.run_until_quiescent().as_nanos(), 1_000);
        assert_eq!(
            woke.get(),
            Some((10, 1)),
            "B must wake at 10 ns, with A still parked after its one poll"
        );
        assert_eq!(a_polls.get(), 2, "A is polled again only by its own timer");
    }

    #[test]
    fn wake_consumed_during_nested_block_on_repolls_the_task() {
        // The 10 ns timer fires inside the nested drive while this task's
        // future is checked out; the task's poll then parks on the 80 ns
        // sleep only. The consumed wake must still re-poll it at 20 ns.
        let sim = Sim::new();
        let seen = Rc::new(Cell::new(None::<u64>));
        let (s, seen2) = (sim.clone(), Rc::clone(&seen));
        sim.spawn(async move {
            let mut first = s.sleep(SimDuration::from_nanos(10));
            let mut long = s.sleep(SimDuration::from_nanos(80));
            let mut nested = false;
            std::future::poll_fn(|cx| {
                if !nested {
                    nested = true;
                    assert!(Pin::new(&mut first).poll(cx).is_pending());
                    let inner = s.clone();
                    s.block_on(async move { inner.sleep(SimDuration::from_nanos(20)).await });
                    return Pin::new(&mut long).poll(cx);
                }
                if Pin::new(&mut first).poll(cx).is_ready() {
                    seen2.set(Some(s.now().as_nanos()));
                    return Poll::Ready(());
                }
                Pin::new(&mut long).poll(cx)
            })
            .await;
        });
        sim.run_until_quiescent();
        assert_eq!(seen.get(), Some(20));
    }

    #[test]
    fn timer_fires_into_a_checked_out_task_coalesce() {
        // Both of the task's timers fire inside the nested drive while its
        // future is checked out: the first marks it for a re-poll, the
        // second finds it already scheduled and counts as redundant.
        let sim = Sim::new();
        let s = sim.clone();
        sim.spawn(async move {
            let mut a = s.sleep(SimDuration::from_nanos(10));
            let mut b = s.sleep(SimDuration::from_nanos(15));
            std::future::poll_fn(|cx| {
                assert!(Pin::new(&mut a).poll(cx).is_pending());
                assert!(Pin::new(&mut b).poll(cx).is_pending());
                let inner = s.clone();
                s.block_on(async move { inner.sleep(SimDuration::from_nanos(20)).await });
                Poll::Ready(())
            })
            .await;
            a.await;
            b.await;
        });
        assert_eq!(sim.run_until_quiescent().as_nanos(), 20);
        let st = sim.stats();
        assert_eq!((st.wakes, st.redundant_wakes, st.polls), (3, 1, 3));
        assert_eq!(st.tasks_live, 0);
    }

    #[test]
    fn mixed_run_stats_are_pinned() {
        // Timers, a Notify ping-pong, spawns, self-wakes that coalesce and
        // select2 cancellations in one run. The counts were recorded with
        // the waker-only timer path; any counting drift fails here.
        let sim = Sim::new();
        let ping = crate::sync::Notify::new();
        let pong = crate::sync::Notify::new();
        let (ping2, pong2) = (ping.clone(), pong.clone());
        let s = sim.clone();
        sim.spawn(async move {
            for _ in 0..8 {
                ping2.notified().await;
                s.sleep(SimDuration::from_nanos(3)).await;
                pong2.notify_one();
            }
        });
        for i in 0..4u64 {
            let s = sim.clone();
            sim.spawn(async move {
                s.sleep(SimDuration::from_nanos(5 * i + 1)).await;
                // Wake itself twice in one poll: the second wake coalesces.
                let mut parked = false;
                std::future::poll_fn(|cx| {
                    if parked {
                        return Poll::Ready(());
                    }
                    parked = true;
                    cx.waker().wake_by_ref();
                    cx.waker().wake_by_ref();
                    Poll::Pending
                })
                .await;
                s.sleep(SimDuration::from_nanos(5)).await;
            });
        }
        let s = sim.clone();
        sim.block_on(async move {
            for round in 0..8u64 {
                ping.notify_one();
                // The pong lands at +3 ns, so the long sleep is cancelled.
                let won = crate::sync::select2(
                    pong.notified(),
                    s.sleep(SimDuration::from_nanos(50 + round)),
                )
                .await;
                assert!(matches!(won, crate::sync::Either::Left(())));
                let c = s.clone();
                s.spawn(async move {
                    c.sleep(SimDuration::from_nanos(2)).await;
                })
                .await;
            }
        });
        sim.run_until_quiescent();
        let st = sim.stats();
        assert_eq!(
            (
                st.polls,
                st.wakes,
                st.redundant_wakes,
                st.timer_events,
                st.spawns
            ),
            (66, 56, 4, 24, 14)
        );
        assert_eq!((st.timers_set, st.timers_cancelled), (32, 8));
    }
}
