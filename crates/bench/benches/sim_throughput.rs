//! Simulation-throughput microbenchmarks for the `simnet` DES core.
//!
//! Unlike `figures_bench` (which times whole paper figures, dominated by
//! protocol and pipe bookkeeping), these isolate the executor hot path:
//! timer arm/fire, wake→poll dispatch, task spawn/recycle, same-instant
//! timer fan-out, and lazy sleep cancellation. Run with
//!
//! ```text
//! cargo bench -p bench --bench sim_throughput
//! BENCH_JSON=$PWD/results/sim_throughput.json \
//!     cargo bench -p bench --bench sim_throughput
//! ```
//!
//! Every benchmark drives a fixed event count per iteration, so ns/iter
//! divided by the event count is ns/event — the executor's core figure of
//! merit tracked across optimisation work.

use std::future::Future;
use std::task::Poll;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use simnet::{Sim, SimDuration};

const ROUNDS: u64 = 10_000;

/// Local race helper so this bench also compiles against executor
/// revisions that predate `simnet::sync::select2`.
async fn race2<A: Future, B: Future>(a: A, b: B) {
    let mut a = Box::pin(a);
    let mut b = Box::pin(b);
    std::future::poll_fn(move |cx| {
        if a.as_mut().poll(cx).is_ready() || b.as_mut().poll(cx).is_ready() {
            return Poll::Ready(());
        }
        Poll::Pending
    })
    .await;
}

/// One task arming and waiting out 10 000 sequential timers: the
/// arm → fire → wake → poll cycle with no contention.
fn sequential_timers(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_throughput");
    g.sample_size(10);
    g.bench_function("sequential_timers_10k", |b| {
        b.iter(|| {
            let sim = Sim::new();
            let s = sim.clone();
            sim.block_on(async move {
                for _ in 0..ROUNDS {
                    s.sleep(SimDuration::from_nanos(100)).await;
                }
            });
            black_box(sim.now().as_nanos())
        });
    });
    g.finish();
}

/// Two tasks handing a notification back and forth 10 000 times: the
/// wake → ready-queue → poll dispatch path with zero timers.
fn notify_ping_pong(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_throughput");
    g.sample_size(10);
    g.bench_function("notify_ping_pong_10k", |b| {
        b.iter(|| {
            let sim = Sim::new();
            let ping = simnet::sync::Notify::new();
            let pong = simnet::sync::Notify::new();
            let (ping2, pong2) = (ping.clone(), pong.clone());
            sim.spawn(async move {
                for _ in 0..ROUNDS {
                    ping2.notified().await;
                    pong2.notify_one();
                }
            });
            sim.block_on(async move {
                for _ in 0..ROUNDS {
                    ping.notify_one();
                    pong.notified().await;
                }
            });
        });
    });
    g.finish();
}

/// Spawn, run and retire 10 000 short-lived tasks one after another:
/// exercises task-slot recycling (slab free list vs. map churn).
fn spawn_churn(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_throughput");
    g.sample_size(10);
    g.bench_function("spawn_churn_10k", |b| {
        b.iter(|| {
            let sim = Sim::new();
            let s = sim.clone();
            sim.block_on(async move {
                for _ in 0..ROUNDS {
                    let c = s.clone();
                    s.spawn(async move {
                        c.sleep(SimDuration::from_nanos(1)).await;
                    })
                    .await;
                }
            });
        });
    });
    g.finish();
}

/// 10 000 tasks all sleeping to the same instant: a long run of equal-`at`
/// heap pops, each draining one continuation.
fn fanout_same_instant(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_throughput");
    g.sample_size(10);
    g.bench_function("fanout_same_instant_10k", |b| {
        b.iter(|| {
            let sim = Sim::new();
            for _ in 0..ROUNDS {
                let s = sim.clone();
                sim.spawn(async move {
                    s.sleep(SimDuration::from_nanos(50)).await;
                });
            }
            sim.run_until_quiescent();
        });
    });
    g.finish();
}

/// 10 000 rounds of racing a short sleep against a long one: every round
/// cancels a pending timer, exercising the lazy-reclaim path.
fn sleep_cancellation(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_throughput");
    g.sample_size(10);
    g.bench_function("sleep_cancellation_10k", |b| {
        b.iter(|| {
            let sim = Sim::new();
            let s = sim.clone();
            sim.block_on(async move {
                for _ in 0..ROUNDS {
                    let short = s.sleep(SimDuration::from_nanos(10));
                    let long = s.sleep(SimDuration::from_micros(1));
                    race2(short, long).await;
                }
            });
            sim.run_until_quiescent();
        });
    });
    g.finish();
}

/// A bandwidth pipe under 4-way contention: the full stack (executor +
/// calendar reservation) that the figure generators actually stress.
fn pipe_contention(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_throughput");
    g.sample_size(10);
    g.bench_function("pipe_contention_4x2500", |b| {
        b.iter(|| {
            let sim = Sim::new();
            let pipe = simnet::Pipe::new(
                &sim,
                simnet::ByteRate::from_gbps(8),
                SimDuration::from_nanos(40),
            );
            let mut handles = Vec::new();
            for _ in 0..4 {
                let p = pipe.clone();
                handles.push(sim.spawn(async move {
                    for _ in 0..2_500u32 {
                        p.transfer(simnet::Bytes::new(1_500)).await;
                    }
                }));
            }
            sim.block_on(async move {
                simnet::sync::join_all(handles).await;
            });
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    sequential_timers,
    notify_ping_pong,
    spawn_churn,
    fanout_same_instant,
    sleep_cancellation,
    pipe_contention,
);
criterion_main!(benches);
