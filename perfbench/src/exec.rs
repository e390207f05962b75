//! Runs one op through its layer's public API and checks what it simulated.
//!
//! Every op builds its own `Sim` and runs it inside a single `block_on`,
//! as every figure generator does: a second `block_on` after traffic over
//! an iWARP or IB pair panics (see the benchmark notes).

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::rc::Rc;
use std::time::Instant;

use bench::sketch::LatencySketch;
use hostmodel::cpu::{Cpu, CpuCosts};
use hostmodel::mem::{MemKey, VirtAddr};
use hostmodel::nic::CqeStatus;
use mpisim::rank::{recv, send, MpiRank, Source};
use mpisim::{FabricKind, MpiWorld};
use netbench::userlevel::UserPair;
use netbench::workload::{run_workload, FlowSink, WorkloadSpec};
use simnet::sync::{join2, join_all};
use simnet::{Sim, SimDuration, SimStats};

use crate::ops::{cluster_spec, Mix, Op, Queue, Span};
use crate::trace::{self, span};

/// What a passing op produced.
#[derive(Clone, Copy, Debug)]
pub struct Outcome {
    /// Fold of the op's simulated results; must repeat for the same op.
    pub digest: u64,
    /// Executor counters of the op's simulation(s).
    pub stats: SimStats,
    /// Flow latencies recorded into the benchmark's sketch.
    pub records: u64,
}

pub type OpResult = Result<Outcome, String>;

/// FNV-1a over 64-bit words.
#[derive(Clone, Copy)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn push(mut self, v: u64) -> Self {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }
}

fn ensure(cond: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(what())
    }
}

/// Start a new op on `kind`: its root span is named after the fabric model
/// whose cost `<fabric>.op_ms` tracks.
pub fn op_span(kind: FabricKind) -> trace::Guard {
    trace::begin_op();
    span(match kind {
        FabricKind::Iwarp => "iwarp.op",
        FabricKind::InfiniBand => "infiniband.op",
        FabricKind::MxoE | FabricKind::MxoM => "mx10g.op",
    })
}

/// Run `op` to quiescence and check it.
pub fn execute(op: &Op) -> OpResult {
    let _op = op_span(op.kind());
    match *op {
        Op::UserPing { kind, size, iters } => user_ping(kind, size, iters),
        Op::Mpi {
            kind,
            size,
            iters,
            queue,
        } => mpi(kind, size, iters, queue),
        Op::ConnLatency {
            kind,
            conns,
            size,
            rounds,
        } => conn_latency(kind, conns, size, rounds).map(|(o, _)| o),
        Op::ConnStream {
            kind,
            conns,
            size,
            msgs,
        } => conn_stream(kind, conns, size, msgs),
        Op::OpenLoop {
            kind,
            mix,
            tenants,
            flows,
            gap_ns,
            seed,
        } => open_loop(kind, mix, tenants, flows, gap_ns, seed),
        Op::Ring { kind, hosts, span } => ring(kind, hosts, span),
    }
}

/// `sim.block_on(fut)` with the future wrapped in the poll timer; in the
/// traced run, records `block_on` time minus wrapped-poll time as the
/// executor's self time.
fn block_on<F: Future + 'static>(sim: &Sim, fut: F) -> F::Output
where
    F::Output: 'static,
{
    let _g = span("simnet.block_on");
    if !trace::enabled() {
        return sim.block_on(fut);
    }
    let (t0, p0) = (Instant::now(), trace::poll_ns());
    let out = sim.block_on(trace::timed(fut));
    let total = t0.elapsed().as_nanos() as u64;
    trace::add_total(
        "simnet.executor.self",
        total.saturating_sub(trace::poll_ns() - p0),
    );
    out
}

fn user_ping(kind: FabricKind, size: u64, iters: u64) -> OpResult {
    let sim = Sim::new();
    let s = sim.clone();
    let half_us = block_on(&sim, async move {
        let pair = {
            let _g = span("setup");
            UserPair::build(&s, kind).await
        };
        let _g = span("run");
        pair.half_rtt_us(size, iters).await
    });
    let _g = span("check");
    ensure(half_us.is_finite() && half_us > 0.0, || {
        format!("{kind:?} half-RTT {half_us} us at {size} B")
    })?;
    Ok(Outcome {
        digest: Digest::default()
            .push(half_us.to_bits())
            .push(sim.now().as_nanos())
            .0,
        stats: sim.stats(),
        records: 0,
    })
}

const PING: u32 = 1;
const PONG: u32 = 2;
const DECOY_TAG: u32 = 7777;
/// Decoy payloads: unexpected-queue decoys and posted-queue completions.
const UNEXPECTED_DECOY: u64 = 8;
const POSTED_DECOY: u64 = 4;

/// Byte and status tallies of one MPI op.
#[derive(Default)]
struct Tally {
    sent: Cell<u64>,
    received: Cell<u64>,
    bad: Cell<u64>,
}

impl Tally {
    async fn send(&self, r: &dyn MpiRank, dest: usize, tag: u32, buf: VirtAddr, len: u64) {
        send(r, dest, tag, buf, len, None).await;
        self.sent.set(self.sent.get() + len);
    }

    fn got(&self, st: mpisim::request::MpiStatus, src: usize, tag: u32, len: u64) {
        self.received.set(self.received.get() + st.len);
        if st.source != src || st.tag != tag || st.len != len {
            self.bad.set(self.bad.get() + 1);
        }
    }
}

fn mpi(kind: FabricKind, size: u64, iters: u64, queue: Queue) -> OpResult {
    let sim = Sim::new();
    let world = {
        let _g = span("setup");
        MpiWorld::build(&sim, kind, 2)
    };
    let r0 = Rc::clone(world.rank(0));
    let r1 = Rc::clone(world.rank(1));
    let layer = match queue {
        Queue::Empty => "mpisim.pingpong",
        Queue::Posted(_) => "mpisim.posted_queue",
        Queue::Unexpected(_) => "mpisim.unexpected_queue",
    };
    let tally = Rc::new(Tally::default());
    let t = Rc::clone(&tally);
    let s = sim.clone();
    let elapsed_ns = {
        let _g = span(layer);
        block_on(&sim, async move {
            let (r0, r1, t) = (&*r0, &*r1, &*t);
            let b0 = r0.alloc_buffer(size.max(64));
            let b1 = r1.alloc_buffer(size.max(64));
            match queue {
                Queue::Empty => {
                    let t0 = s.now();
                    let ping = async {
                        for _ in 0..iters {
                            t.send(r0, 1, PING, b0, size).await;
                            t.got(
                                recv(r0, Source::Rank(1), PONG, b0, size).await,
                                1,
                                PONG,
                                size,
                            );
                        }
                    };
                    let pong = async {
                        for _ in 0..iters {
                            t.got(
                                recv(r1, Source::Rank(0), PING, b1, size).await,
                                0,
                                PING,
                                size,
                            );
                            t.send(r1, 0, PONG, b1, size).await;
                        }
                    };
                    join2(ping, pong).await;
                    (s.now() - t0).as_nanos()
                }
                Queue::Posted(depth) => {
                    let mut decoys = Vec::new();
                    for i in 0..depth as u32 {
                        let tag = DECOY_TAG + 1 + i;
                        decoys.push((0, tag, r0.irecv(Source::Rank(1), tag, b0, 64).await));
                        decoys.push((1, tag, r1.irecv(Source::Rank(0), tag, b1, 64).await));
                    }
                    let t0 = s.now();
                    let ping = async {
                        for _ in 0..iters {
                            let r = r0.irecv(Source::Rank(1), PONG, b0, size).await;
                            t.send(r0, 1, PING, b0, size).await;
                            t.got(r.wait().await, 1, PONG, size);
                        }
                    };
                    let pong = async {
                        for _ in 0..iters {
                            let r = r1.irecv(Source::Rank(0), PING, b1, size).await;
                            t.got(r.wait().await, 0, PING, size);
                            t.send(r1, 0, PONG, b1, size).await;
                        }
                    };
                    join2(ping, pong).await;
                    let elapsed = (s.now() - t0).as_nanos();
                    for i in 0..depth as u32 {
                        t.send(r1, 0, DECOY_TAG + 1 + i, b1, POSTED_DECOY).await;
                        t.send(r0, 1, DECOY_TAG + 1 + i, b0, POSTED_DECOY).await;
                    }
                    for (rank, tag, d) in &decoys {
                        t.got(d.wait().await, 1 - rank, *tag, POSTED_DECOY);
                    }
                    elapsed
                }
                Queue::Unexpected(depth) => {
                    for _ in 0..depth {
                        t.send(r0, 1, DECOY_TAG, b0, UNEXPECTED_DECOY).await;
                        t.send(r1, 0, DECOY_TAG, b1, UNEXPECTED_DECOY).await;
                    }
                    s.sleep(SimDuration::from_millis(2)).await;
                    let t0 = s.now();
                    let ping = async {
                        for _ in 0..iters {
                            t.send(r0, 1, PING, b0, size).await;
                            while !r0.probe_unexpected(Source::Rank(1), PONG) {
                                s.sleep(SimDuration::from_nanos(200)).await;
                            }
                            t.got(
                                recv(r0, Source::Rank(1), PONG, b0, size).await,
                                1,
                                PONG,
                                size,
                            );
                        }
                    };
                    let pong = async {
                        for _ in 0..iters {
                            while !r1.probe_unexpected(Source::Rank(0), PING) {
                                s.sleep(SimDuration::from_nanos(200)).await;
                            }
                            t.got(
                                recv(r1, Source::Rank(0), PING, b1, size).await,
                                0,
                                PING,
                                size,
                            );
                            t.send(r1, 0, PONG, b1, size).await;
                        }
                    };
                    join2(ping, pong).await;
                    let elapsed = (s.now() - t0).as_nanos();
                    for _ in 0..depth {
                        let st = recv(r0, Source::Rank(1), DECOY_TAG, b0, 64).await;
                        t.got(st, 1, DECOY_TAG, UNEXPECTED_DECOY);
                        let st = recv(r1, Source::Rank(0), DECOY_TAG, b1, 64).await;
                        t.got(st, 0, DECOY_TAG, UNEXPECTED_DECOY);
                    }
                    elapsed
                }
            }
        })
    };
    let _g = span("check");
    let (sent, received, bad) = (tally.sent.get(), tally.received.get(), tally.bad.get());
    ensure(bad == 0, || {
        format!("{kind:?} {queue:?}: {bad} receives matched wrongly")
    })?;
    ensure(sent == received, || {
        format!("{kind:?} {queue:?}: sent {sent} B, received {received} B")
    })?;
    ensure(elapsed_ns > 0, || {
        format!("{kind:?} {queue:?}: zero-time ping-pong")
    })?;
    Ok(Outcome {
        digest: Digest::default()
            .push(elapsed_ns)
            .push(sim.now().as_nanos())
            .push(received)
            .0,
        stats: sim.stats(),
        records: 0,
    })
}

/// One fig. 2 connection: both queue pairs plus each side's registered
/// 16 KiB target buffer.
enum Conn {
    Iwarp(iwarp::IwarpQp, iwarp::IwarpQp, [(MemKey, VirtAddr); 2]),
    Ib(infiniband::IbQp, infiniband::IbQp, [(MemKey, VirtAddr); 2]),
}

const CONN_BUF: u64 = 16384;

/// Side `from` (0 = A, 1 = B) RDMA-writes `size` bytes into the peer's buffer.
async fn write(c: &Conn, from: usize, size: u64) {
    match c {
        Conn::Iwarp(qa, qb, keys) => {
            let (key, addr) = keys[1 - from];
            let qp = if from == 0 { qa } else { qb };
            qp.post_send_wr(iwarp::WorkRequest::RdmaWrite {
                wr_id: 0,
                len: size,
                payload: None,
                remote_stag: key,
                remote_addr: addr,
            })
            .await;
        }
        Conn::Ib(qa, qb, keys) => {
            let (key, addr) = keys[1 - from];
            let qp = if from == 0 { qa } else { qb };
            qp.post_send_wr(infiniband::IbWorkRequest::RdmaWrite {
                wr_id: 0,
                len: size,
                payload: None,
                rkey: key,
                remote_addr: addr,
            })
            .await;
        }
    }
}

async fn wait_placement(c: &Conn, side: usize) {
    match c {
        Conn::Iwarp(qa, qb, _) => if side == 0 { qa } else { qb }.wait_placement().await,
        Conn::Ib(qa, qb, _) => if side == 0 { qa } else { qb }.wait_placement().await,
    }
}

/// Await `n` completions on `side` of `c`; returns how many were good
/// `size`-byte writes.
async fn reap(c: &Conn, side: usize, n: u64, size: u64) -> u64 {
    let mut good = 0;
    for _ in 0..n {
        let cqe = match c {
            Conn::Iwarp(qa, qb, _) => if side == 0 { qa } else { qb }.next_cqe().await,
            Conn::Ib(qa, qb, _) => if side == 0 { qa } else { qb }.next_cqe().await,
        };
        good += u64::from(cqe.status == CqeStatus::Success && cqe.len == size);
    }
    good
}

/// True when neither CQ of `c` holds an unreaped completion.
fn drained(c: &Conn) -> bool {
    match c {
        Conn::Iwarp(qa, qb, _) => qa.poll_cq().is_none() && qb.poll_cq().is_none(),
        Conn::Ib(qa, qb, _) => qa.poll_cq().is_none() && qb.poll_cq().is_none(),
    }
}

/// Allocate a `CONN_BUF` target buffer on the QP's device and pin it; the
/// `register_pinned` call is timed. Both QP types expose the same fields.
macro_rules! register {
    ($qp:expr, $cpu:expr) => {{
        let buf = $qp.device().mem.alloc_buffer(CONN_BUF);
        let _g = span("hostmodel.mem.register");
        let key = $qp
            .device()
            .registry
            .register_pinned($cpu, buf, CONN_BUF)
            .await;
        (key, buf)
    }};
}

/// `n` connections between nodes 0 and 1, built in the same order as
/// `netbench::multiconn` so the simulated results match it exactly.
async fn build_conns(sim: &Sim, kind: FabricKind, n: usize) -> Vec<Conn> {
    let _g = span("setup");
    let cpu_a = Cpu::new(sim, CpuCosts::default());
    let cpu_b = Cpu::new(sim, CpuCosts::default());
    let mut conns = Vec::with_capacity(n);
    match kind {
        FabricKind::Iwarp => {
            let fab = iwarp::IwarpFabric::with_calib(sim, 2, iwarp::NetEffectCalib::default());
            for _ in 0..n {
                let (qa, qb) = {
                    let _g = span("iwarp.connect");
                    iwarp::verbs::connect(&fab, 0, 1, &cpu_a, &cpu_b).await
                };
                let a = register!(qa, &cpu_a);
                let b = register!(qb, &cpu_b);
                conns.push(Conn::Iwarp(qa, qb, [a, b]));
            }
        }
        FabricKind::InfiniBand => {
            let calib = infiniband::MellanoxCalib::default();
            let fab = infiniband::IbFabric::with_calib(sim, 2, calib);
            for _ in 0..n {
                let (qa, qb) = {
                    let _g = span("infiniband.connect");
                    infiniband::connect(&fab, 0, 1, &cpu_a, &cpu_b).await
                };
                let a = register!(qa, &cpu_a);
                let b = register!(qb, &cpu_b);
                conns.push(Conn::Ib(qa, qb, [a, b]));
            }
        }
        FabricKind::MxoE | FabricKind::MxoM => unreachable!("fig. 2 covers iWARP and IB only"),
    }
    conns
}

/// Side A pings every connection, side B answers each; the round ends
/// when every pong has landed.
async fn batched_rounds(conns: &[Conn], size: u64, rounds: u64) {
    for _ in 0..rounds {
        let a = async {
            for c in conns {
                write(c, 0, size).await;
            }
            for c in conns {
                wait_placement(c, 0).await;
            }
        };
        let b = async {
            for c in conns {
                wait_placement(c, 1).await;
                write(c, 1, size).await;
            }
        };
        join2(a, b).await;
    }
}

/// Fig. 2 normalized latency (µs) plus the op outcome. Every posted write
/// must be reaped from its CQ.
pub fn conn_latency(
    kind: FabricKind,
    n: usize,
    size: u64,
    rounds: u64,
) -> Result<(Outcome, f64), String> {
    let sim = Sim::new();
    let s = sim.clone();
    let (lat_us, good, clean) = block_on(&sim, async move {
        let conns = build_conns(&s, kind, n).await;
        let _g = span("run");
        batched_rounds(&conns, size, 1).await;
        let t0 = s.now();
        batched_rounds(&conns, size, rounds).await;
        let lat = (s.now() - t0).as_micros_f64() / (2.0 * rounds as f64 * n as f64);
        let mut good = 0;
        for c in &conns {
            good += reap(c, 0, rounds + 1, size).await + reap(c, 1, rounds + 1, size).await;
        }
        (lat, good, conns.iter().all(drained))
    });
    let _g = span("check");
    let posted = 2 * n as u64 * (rounds + 1);
    ensure(good == posted && clean, || {
        format!("{kind:?} x{n}: reaped {good} of {posted} writes, CQs drained: {clean}")
    })?;
    ensure(lat_us.is_finite() && lat_us > 0.0, || {
        format!("{kind:?} x{n}: latency {lat_us}")
    })?;
    let outcome = Outcome {
        digest: Digest::default()
            .push(lat_us.to_bits())
            .push(sim.now().as_nanos())
            .0,
        stats: sim.stats(),
        records: 0,
    };
    Ok((outcome, lat_us))
}

/// Fig. 2 both-way streaming: per connection, one task per direction posts
/// `msgs` writes and then reaps every completion.
fn conn_stream(kind: FabricKind, n: usize, size: u64, msgs: u64) -> OpResult {
    let sim = Sim::new();
    let s = sim.clone();
    let (mbps, good, clean) = block_on(&sim, async move {
        let conns = Rc::new(build_conns(&s, kind, n).await);
        let _g = span("run");
        let t0 = s.now();
        let mut tasks = Vec::with_capacity(2 * n);
        for i in 0..n {
            for side in 0..2 {
                let cs = Rc::clone(&conns);
                tasks.push(s.spawn(trace::timed(async move {
                    for _ in 0..msgs {
                        write(&cs[i], side, size).await;
                    }
                    reap(&cs[i], side, msgs, size).await
                })));
            }
        }
        let good: u64 = join_all(tasks).await.into_iter().sum();
        let bytes = 2 * n as u64 * msgs * size;
        let mbps = bytes as f64 / (s.now() - t0).as_secs_f64() / 1e6;
        (mbps, good, conns.iter().all(drained))
    });
    let _g = span("check");
    let posted = 2 * n as u64 * msgs;
    ensure(good == posted && clean, || {
        format!("{kind:?} x{n}: reaped {good} of {posted} writes, CQs drained: {clean}")
    })?;
    ensure(mbps.is_finite() && mbps > 0.0, || {
        format!("{kind:?} x{n}: {mbps} MB/s")
    })?;
    Ok(Outcome {
        digest: Digest::default()
            .push(mbps.to_bits())
            .push(sim.now().as_nanos())
            .0,
        stats: sim.stats(),
        records: 0,
    })
}

fn open_loop(
    kind: FabricKind,
    mix: Mix,
    tenants: usize,
    flows: u64,
    gap_ns: u64,
    seed: u64,
) -> OpResult {
    let gap = SimDuration::from_nanos(gap_ns);
    let spec = match mix {
        Mix::Mixed => WorkloadSpec::mixed(kind, tenants, flows, gap, seed),
        Mix::RpcKv => WorkloadSpec::rpc_kv(kind, tenants, flows, gap, seed),
    };
    let sketch = Rc::new(RefCell::new(LatencySketch::new()));
    let per_tenant = Rc::new(RefCell::new(vec![0u64; tenants]));
    let sink: FlowSink = {
        let (sketch, per_tenant) = (Rc::clone(&sketch), Rc::clone(&per_tenant));
        Rc::new(RefCell::new(move |tenant: usize, lat: SimDuration| {
            let _g = span("bench.sketch.record");
            sketch.borrow_mut().record(lat.as_nanos());
            per_tenant.borrow_mut()[tenant] += 1;
        }))
    };
    let out = {
        let _g = span("netbench.workload.run");
        run_workload(&spec, &sink)
    };
    drop(sink);
    let _g = span("check");
    let total = tenants as u64 * flows;
    let expect = vec![flows; tenants];
    ensure(out.issued == expect && out.completed == expect, || {
        format!(
            "{kind:?} {mix:?}: issued {:?}, completed {:?}",
            out.issued, out.completed
        )
    })?;
    ensure(*per_tenant.borrow() == expect, || {
        format!("{kind:?} {mix:?}: sink saw {:?}", per_tenant.borrow())
    })?;
    let sk = sketch.borrow();
    ensure(
        sk.count() == total
            && out.stats.flows_issued == total
            && out.stats.flows_completed == total,
        || format!("{kind:?} {mix:?}: {} recorded of {total} flows", sk.count()),
    )?;
    Ok(Outcome {
        digest: Digest::default()
            .push(out.end.as_nanos())
            .push(sk.p50())
            .push(sk.p99())
            .push(sk.p999())
            .push(sk.min_ns())
            .push(sk.max_ns())
            .0,
        stats: out.stats,
        records: sk.count(),
    })
}

/// MX endpoints opened directly (the only benchmark call site of
/// `MxEndpoint::open`), then one matched message each way.
pub fn mx_open_exchange(size: u64) -> OpResult {
    let _op = op_span(FabricKind::MxoM);
    let sim = Sim::new();
    let fab = mx10g::MxFabric::new(&sim, 2, mx10g::LinkMode::MxoM);
    let cpu_a = Cpu::new(&sim, CpuCosts::default());
    let cpu_b = Cpu::new(&sim, CpuCosts::default());
    let (ea, eb) = {
        let _g = span("mx10g.open");
        (
            mx10g::MxEndpoint::open(&fab, 0, &cpu_a),
            mx10g::MxEndpoint::open(&fab, 1, &cpu_b),
        )
    };
    let (ab, ba) = (ea.connect(&fab, &eb), eb.connect(&fab, &ea));
    let lens = block_on(&sim, async move {
        let tag = mx10g::MatchInfo::mpi(0, 0, 1);
        let exact = mx10g::MatchInfo::EXACT;
        let (buf_a, buf_b) = (
            ea.nic().mem.alloc_buffer(size),
            eb.nic().mem.alloc_buffer(size),
        );
        let r_b = eb.irecv(tag, exact, buf_b, size).await;
        let s_a = ea.isend(&ab, tag, buf_a, size, None).await;
        let (sent_ab, got_b) = (s_a.wait().await.len, r_b.wait().await.len);
        let r_a = ea.irecv(tag, exact, buf_a, size).await;
        let s_b = eb.isend(&ba, tag, buf_b, size, None).await;
        [sent_ab, got_b, s_b.wait().await.len, r_a.wait().await.len]
    });
    ensure(lens == [size; 4], || {
        format!("MX exchange lengths {lens:?}, want {size}")
    })?;
    Ok(Outcome {
        digest: Digest::default().push(sim.now().as_nanos()).0,
        stats: sim.stats(),
        records: 0,
    })
}

fn ring(kind: FabricKind, hosts: usize, shape: Span) -> OpResult {
    let spec = cluster_spec(hosts, shape);
    let out = {
        let _g = span("simnet.shard.run");
        netbench::cluster::cluster_exchange(kind, spec)
    };
    let _g = span("check");
    ensure(out.bytes_moved == spec.total_bytes(), || {
        format!(
            "ring moved {} of {} bytes",
            out.bytes_moved,
            spec.total_bytes()
        )
    })?;
    ensure(out.lookahead_rounds > 0 && out.cross_events > 0, || {
        "ring ran without cross-shard traffic".into()
    })?;
    Ok(Outcome {
        digest: Digest::default()
            .push(out.end_ns)
            .push(out.bytes_moved)
            .push(out.cross_events)
            .0,
        stats: out.stats,
        records: 0,
    })
}
