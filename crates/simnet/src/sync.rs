//! Intra-simulation synchronization primitives: oneshot and mpsc channels,
//! counting semaphore, and notify cell.
//!
//! All primitives are `!Send`; they live entirely inside the single-threaded
//! simulation and synchronize *tasks*, not threads. Wake-ups are mediated by
//! the executor's FIFO ready queue, so ordering stays deterministic.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

// ---------------------------------------------------------------------------
// oneshot
// ---------------------------------------------------------------------------

struct OneshotState<T> {
    value: Option<T>,
    waker: Option<Waker>,
    sender_dropped: bool,
}

/// Sending half of a oneshot channel.
pub struct OneshotSender<T> {
    state: Rc<RefCell<OneshotState<T>>>,
}

/// Receiving half of a oneshot channel; it is itself a future yielding
/// `Some(value)` or `None` if the sender was dropped without sending.
pub struct OneshotReceiver<T> {
    state: Rc<RefCell<OneshotState<T>>>,
}

/// Create a single-value channel.
pub fn oneshot<T>() -> (OneshotSender<T>, OneshotReceiver<T>) {
    let state = Rc::new(RefCell::new(OneshotState {
        value: None,
        waker: None,
        sender_dropped: false,
    }));
    (
        OneshotSender {
            state: Rc::clone(&state),
        },
        OneshotReceiver { state },
    )
}

impl<T> OneshotSender<T> {
    /// Deliver the value, waking the receiver. Consumes the sender.
    /// Delivery to a dropped receiver is silently discarded.
    pub fn send(self, value: T) {
        let mut s = self.state.borrow_mut();
        s.value = Some(value);
        if let Some(w) = s.waker.take() {
            w.wake();
        }
    }
}

impl<T> Drop for OneshotSender<T> {
    fn drop(&mut self) {
        let mut s = self.state.borrow_mut();
        s.sender_dropped = true;
        if let Some(w) = s.waker.take() {
            w.wake();
        }
    }
}

impl<T> OneshotReceiver<T> {
    /// Non-blocking probe for the value.
    pub fn try_recv(&self) -> Option<T> {
        self.state.borrow_mut().value.take()
    }
}

impl<T> Future for OneshotReceiver<T> {
    type Output = Option<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Option<T>> {
        let mut s = self.state.borrow_mut();
        if let Some(v) = s.value.take() {
            return Poll::Ready(Some(v));
        }
        if s.sender_dropped {
            return Poll::Ready(None);
        }
        // Re-registering the same task's waker would be a no-op; skip the
        // clone (the executor hands out one cached waker per task, so this
        // is the common case).
        if !s.waker.as_ref().is_some_and(|w| w.will_wake(cx.waker())) {
            s.waker = Some(cx.waker().clone());
        }
        Poll::Pending
    }
}

// ---------------------------------------------------------------------------
// mpsc (unbounded)
// ---------------------------------------------------------------------------

struct MpscState<T> {
    queue: VecDeque<T>,
    recv_waker: Option<Waker>,
    senders: usize,
    receiver_alive: bool,
}

/// Sending half of an unbounded mpsc channel. Clonable.
pub struct Sender<T> {
    state: Rc<RefCell<MpscState<T>>>,
}

/// Receiving half of an unbounded mpsc channel.
pub struct Receiver<T> {
    state: Rc<RefCell<MpscState<T>>>,
}

/// Create an unbounded multi-producer single-consumer channel.
///
/// Unbounded is the right model here: queue *occupancy* in the simulated
/// protocols is bounded by credit/window schemes implemented at the protocol
/// layer, where the paper's systems bound it too.
pub fn mpsc<T>() -> (Sender<T>, Receiver<T>) {
    let state = Rc::new(RefCell::new(MpscState {
        queue: VecDeque::new(),
        recv_waker: None,
        senders: 1,
        receiver_alive: true,
    }));
    (
        Sender {
            state: Rc::clone(&state),
        },
        Receiver { state },
    )
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.state.borrow_mut().senders += 1;
        Sender {
            state: Rc::clone(&self.state),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut s = self.state.borrow_mut();
        s.senders -= 1;
        if s.senders == 0 {
            if let Some(w) = s.recv_waker.take() {
                w.wake();
            }
        }
    }
}

impl<T> Sender<T> {
    /// Enqueue a message and wake the receiver. Returns `Err(msg)` if the
    /// receiver is gone.
    pub fn send(&self, msg: T) -> Result<(), T> {
        let mut s = self.state.borrow_mut();
        if !s.receiver_alive {
            return Err(msg);
        }
        s.queue.push_back(msg);
        if let Some(w) = s.recv_waker.take() {
            w.wake();
        }
        Ok(())
    }
}

impl<T> Receiver<T> {
    /// Await the next message; `None` once every sender has dropped and the
    /// queue is drained.
    pub fn recv(&mut self) -> Recv<'_, T> {
        Recv { rx: self }
    }

    /// Non-blocking dequeue.
    pub fn try_recv(&mut self) -> Option<T> {
        self.state.borrow_mut().queue.pop_front()
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.state.borrow().queue.len()
    }

    /// True when no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.state.borrow_mut().receiver_alive = false;
    }
}

/// Future returned by [`Receiver::recv`].
pub struct Recv<'a, T> {
    rx: &'a mut Receiver<T>,
}

impl<T> Future for Recv<'_, T> {
    type Output = Option<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Option<T>> {
        let mut s = self.rx.state.borrow_mut();
        if let Some(v) = s.queue.pop_front() {
            return Poll::Ready(Some(v));
        }
        if s.senders == 0 {
            return Poll::Ready(None);
        }
        // Same-task re-poll: keep the cached waker, skip the clone.
        if !s
            .recv_waker
            .as_ref()
            .is_some_and(|w| w.will_wake(cx.waker()))
        {
            s.recv_waker = Some(cx.waker().clone());
        }
        Poll::Pending
    }
}

// ---------------------------------------------------------------------------
// Semaphore
// ---------------------------------------------------------------------------

struct SemState {
    permits: usize,
    waiters: VecDeque<Waker>,
}

/// A counting semaphore with FIFO wake-up, used to model finite resources
/// (completion-queue credit, send-window slots, NIC work-queue depth).
///
/// **Known defect:** [`Acquire`] registers a waker on every permit-less
/// poll and never removes one, so a waiter re-polled by a join combinator
/// leaves stale registrations behind, and [`Semaphore::release`] may spend
/// its wake on one of them. See [`Notify`], where this causes a deadlock.
#[derive(Clone)]
pub struct Semaphore {
    state: Rc<RefCell<SemState>>,
}

impl Semaphore {
    /// Create a semaphore holding `permits` initial permits.
    pub fn new(permits: usize) -> Self {
        Semaphore {
            state: Rc::new(RefCell::new(SemState {
                permits,
                waiters: VecDeque::new(),
            })),
        }
    }

    /// Acquire one permit, waiting if none are available.
    pub fn acquire(&self) -> Acquire {
        Acquire { sem: self.clone() }
    }

    /// Return one permit and wake the longest-waiting acquirer, if any.
    pub fn release(&self) {
        let mut s = self.state.borrow_mut();
        s.permits += 1;
        if let Some(w) = s.waiters.pop_front() {
            w.wake();
        }
    }

    /// Currently available permits.
    pub fn available(&self) -> usize {
        self.state.borrow().permits
    }
}

/// Future returned by [`Semaphore::acquire`].
pub struct Acquire {
    sem: Semaphore,
}

impl Future for Acquire {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let mut s = self.sem.state.borrow_mut();
        if s.permits > 0 {
            s.permits -= 1;
            return Poll::Ready(());
        }
        // Register at the back on every permit-less poll. A previously
        // registered waker has either been consumed by a `release` (so this
        // poll is the resulting wake losing the race and it must re-queue)
        // or this is a spurious poll from a join combinator, in which case
        // the stale registration wakes us harmlessly later.
        s.waiters.push_back(cx.waker().clone());
        Poll::Pending
    }
}

// ---------------------------------------------------------------------------
// Notify
// ---------------------------------------------------------------------------

struct NotifyState {
    permit: bool,
    waiters: VecDeque<Waker>,
}

/// Edge-triggered notification cell: `notify_one` stores at most one permit;
/// `notified().await` consumes it or waits.
///
/// **Known defect:** [`Notified`] pushes a waker on every permit-less poll
/// and never removes one. A task whose `notified()` is re-polled by a
/// `join2` leaves duplicate registrations, and they outlive the task. When
/// a later `block_on` drives the same cell, [`Notify::notify_one`] can pop
/// a stale entry of a finished task and wake nobody while the live waiter
/// stays asleep. This is the split-`block_on` deadlock over an iWARP or IB
/// `netbench::userlevel::UserPair` that perfbench pins with
/// `known_defect_split_block_on_panics`; skipping a registration whose
/// waker `will_wake` the polling one makes that test stop panicking. The
/// fix can change wake order, so it must land together with new perfbench
/// baselines.
#[derive(Clone)]
pub struct Notify {
    state: Rc<RefCell<NotifyState>>,
}

impl Default for Notify {
    fn default() -> Self {
        Self::new()
    }
}

impl Notify {
    /// Create an empty notify cell.
    pub fn new() -> Self {
        Notify {
            state: Rc::new(RefCell::new(NotifyState {
                permit: false,
                waiters: VecDeque::new(),
            })),
        }
    }

    /// Store a permit (coalescing with any already stored) and wake the
    /// longest-waiting task, which will consume the permit when polled.
    pub fn notify_one(&self) {
        let mut s = self.state.borrow_mut();
        s.permit = true;
        if let Some(w) = s.waiters.pop_front() {
            w.wake();
        }
    }

    /// Wait for a notification (or consume a stored permit immediately).
    pub fn notified(&self) -> Notified {
        Notified {
            notify: self.clone(),
        }
    }
}

/// Future returned by [`Notify::notified`].
pub struct Notified {
    notify: Notify,
}

impl Future for Notified {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let mut s = self.notify.state.borrow_mut();
        if s.permit {
            s.permit = false;
            return Poll::Ready(());
        }
        s.waiters.push_back(cx.waker().clone());
        Poll::Pending
    }
}

// ---------------------------------------------------------------------------
// Barrier
// ---------------------------------------------------------------------------

struct BarrierState {
    n: usize,
    arrived: usize,
    generation: u64,
    waiters: VecDeque<Waker>,
}

/// A reusable rendezvous barrier for `n` tasks. Used by the benchmark
/// harness to phase-align ranks out-of-band (the paper excludes
/// `MPI_Barrier` cost from its timed sections the same way).
#[derive(Clone)]
pub struct Barrier {
    state: Rc<RefCell<BarrierState>>,
}

impl Barrier {
    /// Create a barrier for `n` participants.
    pub fn new(n: usize) -> Self {
        assert!(n > 0);
        Barrier {
            state: Rc::new(RefCell::new(BarrierState {
                n,
                arrived: 0,
                generation: 0,
                waiters: VecDeque::new(),
            })),
        }
    }

    /// Wait until all `n` participants have arrived, then release together.
    pub async fn wait(&self) {
        let gen = {
            let mut s = self.state.borrow_mut();
            s.arrived += 1;
            if s.arrived == s.n {
                s.arrived = 0;
                s.generation += 1;
                for w in s.waiters.drain(..) {
                    w.wake();
                }
                return;
            }
            s.generation
        };
        std::future::poll_fn(move |cx| {
            let mut s = self.state.borrow_mut();
            if s.generation != gen {
                Poll::Ready(())
            } else {
                s.waiters.push_back(cx.waker().clone());
                Poll::Pending
            }
        })
        .await;
    }
}

// ---------------------------------------------------------------------------
// FifoGate
// ---------------------------------------------------------------------------

struct FifoGateState {
    issued: u64,
    next: u64,
    waiters: VecDeque<Waker>,
}

/// An ordering gate: callers take a numbered ticket, and `enter` admits
/// tickets strictly in issue order. Models in-order delivery guarantees
/// (a TCP byte stream, an InfiniBand reliable connection): an operation
/// that physically finishes early still may not take effect before its
/// predecessors on the same connection.
#[derive(Clone)]
pub struct FifoGate {
    state: Rc<RefCell<FifoGateState>>,
}

impl Default for FifoGate {
    fn default() -> Self {
        Self::new()
    }
}

impl FifoGate {
    /// Create a gate with no outstanding tickets.
    pub fn new() -> Self {
        FifoGate {
            state: Rc::new(RefCell::new(FifoGateState {
                issued: 0,
                next: 0,
                waiters: VecDeque::new(),
            })),
        }
    }

    /// Take the next ticket (issue order = program order).
    pub fn ticket(&self) -> u64 {
        let mut s = self.state.borrow_mut();
        let t = s.issued;
        s.issued += 1;
        t
    }

    /// Wait until every earlier ticket has left the gate.
    pub async fn enter(&self, ticket: u64) {
        std::future::poll_fn(|cx| {
            let mut s = self.state.borrow_mut();
            if s.next == ticket {
                Poll::Ready(())
            } else {
                s.waiters.push_back(cx.waker().clone());
                Poll::Pending
            }
        })
        .await;
    }

    /// Release the gate for the next ticket.
    pub fn leave(&self) {
        let mut s = self.state.borrow_mut();
        s.next += 1;
        for w in s.waiters.drain(..) {
            w.wake();
        }
    }
}

// ---------------------------------------------------------------------------
// join helpers
// ---------------------------------------------------------------------------

/// Outcome of [`select2`]: which future won the race.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Either<A, B> {
    /// The first future completed first.
    Left(A),
    /// The second future completed first.
    Right(B),
}

/// Await whichever future completes first and drop the loser (cancelling
/// any resources it holds — e.g. a pending [`crate::executor::Sleep`]
/// timer, which is reclaimed lazily by the executor).
pub async fn select2<A: Future, B: Future>(a: A, b: B) -> Either<A::Output, B::Output> {
    let mut a = Box::pin(a);
    let mut b = Box::pin(b);
    std::future::poll_fn(move |cx| {
        if let Poll::Ready(v) = a.as_mut().poll(cx) {
            return Poll::Ready(Either::Left(v));
        }
        if let Poll::Ready(v) = b.as_mut().poll(cx) {
            return Poll::Ready(Either::Right(v));
        }
        Poll::Pending
    })
    .await
}

/// Await two futures concurrently, returning both outputs.
pub async fn join2<A: Future, B: Future>(a: A, b: B) -> (A::Output, B::Output) {
    let mut a = Box::pin(a);
    let mut b = Box::pin(b);
    let mut ra = None;
    let mut rb = None;
    std::future::poll_fn(move |cx| {
        if ra.is_none() {
            if let Poll::Ready(v) = a.as_mut().poll(cx) {
                ra = Some(v);
            }
        }
        if rb.is_none() {
            if let Poll::Ready(v) = b.as_mut().poll(cx) {
                rb = Some(v);
            }
        }
        if ra.is_some() && rb.is_some() {
            Poll::Ready((
                ra.take().expect("is_some() checked above"),
                rb.take().expect("is_some() checked above"),
            ))
        } else {
            Poll::Pending
        }
    })
    .await
}

/// Await every future in the vector, returning outputs in input order.
pub async fn join_all<F: Future>(futs: Vec<F>) -> Vec<F::Output> {
    let mut pinned: Vec<_> = futs.into_iter().map(Box::pin).collect();
    let mut outs: Vec<Option<F::Output>> = pinned.iter().map(|_| None).collect();
    std::future::poll_fn(move |cx| {
        let mut all = true;
        for (fut, out) in pinned.iter_mut().zip(outs.iter_mut()) {
            if out.is_none() {
                match fut.as_mut().poll(cx) {
                    Poll::Ready(v) => *out = Some(v),
                    Poll::Pending => all = false,
                }
            }
        }
        if all {
            Poll::Ready(
                outs.iter_mut()
                    .map(|o| o.take().expect("`all` implies every slot resolved"))
                    .collect(),
            )
        } else {
            Poll::Pending
        }
    })
    .await
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sim, SimDuration};

    #[test]
    fn oneshot_delivers_value() {
        let sim = Sim::new();
        let (tx, rx) = oneshot::<u32>();
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(SimDuration::from_nanos(5)).await;
            tx.send(9);
        });
        assert_eq!(sim.block_on(rx), Some(9));
    }

    #[test]
    fn oneshot_sender_drop_yields_none() {
        let sim = Sim::new();
        let (tx, rx) = oneshot::<u32>();
        sim.spawn(async move {
            drop(tx);
        });
        assert_eq!(sim.block_on(rx), None);
    }

    #[test]
    fn mpsc_preserves_fifo_order_across_senders() {
        let sim = Sim::new();
        let (tx, mut rx) = mpsc::<u32>();
        for i in 0..4u32 {
            let tx = tx.clone();
            let s = sim.clone();
            sim.spawn(async move {
                s.sleep(SimDuration::from_nanos(10 * (i as u64 + 1))).await;
                tx.send(i).unwrap();
            });
        }
        drop(tx);
        let got = sim.block_on(async move {
            let mut v = Vec::new();
            while let Some(x) = rx.recv().await {
                v.push(x);
            }
            v
        });
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn mpsc_recv_returns_none_after_senders_drop() {
        let sim = Sim::new();
        let (tx, mut rx) = mpsc::<u32>();
        tx.send(1).unwrap();
        drop(tx);
        let got = sim.block_on(async move {
            let a = rx.recv().await;
            let b = rx.recv().await;
            (a, b)
        });
        assert_eq!(got, (Some(1), None));
    }

    #[test]
    fn mpsc_send_to_dead_receiver_errors() {
        let (tx, rx) = mpsc::<u32>();
        drop(rx);
        assert_eq!(tx.send(7), Err(7));
    }

    #[test]
    fn semaphore_limits_concurrency() {
        let sim = Sim::new();
        let sem = Semaphore::new(2);
        let peak = Rc::new(RefCell::new((0usize, 0usize))); // (current, max)
        let mut handles = Vec::new();
        for _ in 0..6 {
            let sem = sem.clone();
            let s = sim.clone();
            let peak = Rc::clone(&peak);
            handles.push(sim.spawn(async move {
                sem.acquire().await;
                {
                    let mut p = peak.borrow_mut();
                    p.0 += 1;
                    p.1 = p.1.max(p.0);
                }
                s.sleep(SimDuration::from_nanos(100)).await;
                peak.borrow_mut().0 -= 1;
                sem.release();
            }));
        }
        sim.block_on(async move { join_all(handles).await });
        assert_eq!(peak.borrow().1, 2);
        assert_eq!(sem.available(), 2);
    }

    #[test]
    fn notify_stores_one_permit() {
        let sim = Sim::new();
        let n = Notify::new();
        n.notify_one();
        n.notify_one(); // coalesces
        let n2 = n.clone();
        sim.block_on(async move {
            n2.notified().await; // consumes stored permit
        });
        // Second wait must block until notified again.
        let n3 = n.clone();
        sim.spawn({
            let s = sim.clone();
            async move {
                s.sleep(SimDuration::from_nanos(50)).await;
                n.notify_one();
            }
        });
        let t = sim.block_on({
            let s = sim.clone();
            async move {
                n3.notified().await;
                s.now().as_nanos()
            }
        });
        assert_eq!(t, 50);
    }

    #[test]
    fn join2_waits_for_both() {
        let sim = Sim::new();
        let s = sim.clone();
        let (a, b) = sim.block_on(async move {
            join2(
                {
                    let s = s.clone();
                    async move {
                        s.sleep(SimDuration::from_nanos(30)).await;
                        "a"
                    }
                },
                {
                    let s = s.clone();
                    async move {
                        s.sleep(SimDuration::from_nanos(70)).await;
                        "b"
                    }
                },
            )
            .await
        });
        assert_eq!((a, b), ("a", "b"));
        assert_eq!(sim.now().as_nanos(), 70);
    }

    #[test]
    fn join_all_collects_in_order() {
        let sim = Sim::new();
        let futs: Vec<_> = (0..5u64)
            .map(|i| {
                let s = sim.clone();
                async move {
                    // Reverse deadlines: later index finishes earlier.
                    s.sleep(SimDuration::from_nanos(100 - i * 10)).await;
                    i
                }
            })
            .collect();
        let out = sim.block_on(async move { join_all(futs).await });
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
    }
}

#[cfg(test)]
mod barrier_tests {
    use super::*;
    use crate::{Sim, SimDuration};

    #[test]
    fn barrier_releases_all_participants_together() {
        let sim = Sim::new();
        let bar = Barrier::new(3);
        let mut handles = Vec::new();
        for i in 0..3u64 {
            let bar = bar.clone();
            let s = sim.clone();
            handles.push(sim.spawn(async move {
                s.sleep(SimDuration::from_micros(i * 10)).await;
                bar.wait().await;
                s.now().as_nanos()
            }));
        }
        let ends = sim.block_on(async move { join_all(handles).await });
        // Everyone leaves at the last arrival (20 µs).
        assert_eq!(ends, vec![20_000, 20_000, 20_000]);
    }

    #[test]
    fn barrier_is_reusable_across_generations() {
        let sim = Sim::new();
        let bar = Barrier::new(2);
        let log = std::rc::Rc::new(RefCell::new(Vec::new()));
        for id in 0..2 {
            let bar = bar.clone();
            let s = sim.clone();
            let log = std::rc::Rc::clone(&log);
            sim.spawn(async move {
                for round in 0..3 {
                    s.sleep(SimDuration::from_nanos(10 * (id + 1))).await;
                    bar.wait().await;
                    log.borrow_mut().push((round, id));
                }
            });
        }
        sim.run_until_quiescent();
        // Rounds complete in order; within a round both ids appear.
        let log = log.borrow();
        assert_eq!(log.len(), 6);
        for r in 0..3 {
            let ids: Vec<u64> = log
                .iter()
                .filter(|(round, _)| *round == r)
                .map(|(_, id)| *id)
                .collect();
            assert_eq!(ids.len(), 2, "round {r}");
        }
    }

    #[test]
    fn single_participant_barrier_never_blocks() {
        let sim = Sim::new();
        let bar = Barrier::new(1);
        sim.block_on(async move {
            bar.wait().await;
            bar.wait().await;
        });
    }
}
