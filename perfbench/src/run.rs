//! One benchmark run: set-up, the timed phase, and the metrics.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use mpisim::FabricKind;
use simnet::SimStats;

use crate::exec::{self, Digest};
use crate::ops::{op_list, Mix, Op, Queue, Scale, Span, SplitMix, Workload};
use crate::reference::{kernel_ms, speed_factor};
use crate::trace;

/// Set-up passes per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;
/// Tail percentile reported, and the ops an op list must have beyond it.
pub const TAIL_Q: f64 = 0.9;
pub const TAIL_BEYOND: usize = 10;
/// Rounds a run makes at least, so every op's median time has company.
pub const MIN_ROUNDS: u64 = 3;

pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Every failure message (set-up smoke pass and timed ops).
    pub errors: Vec<String>,
    /// Fold of the first round's per-op digests.
    pub digest: u64,
    pub rounds: u64,
    /// Ops in the op list whose time lies beyond the tail percentile.
    pub beyond_tail: usize,
    pub ops_per_round: usize,
    pub end_to_end: Vec<Metric>,
    /// The same timings before scaling by the reference kernel, and the
    /// kernel's median time: printed, not scored.
    pub raw: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }
}

fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default();
        Err(format!("panic: {msg}"))
    })
}

/// One minimal op through every layer's public API, run before timing: it
/// warms lazy state, proves each layer answers correctly, and gives every
/// per-layer time a sample on every workload. Includes the fig. 2
/// cross-check against `netbench::multiconn::normalized_latency`.
pub fn smoke_pass(seed: u64) -> Vec<String> {
    let mut rng = SplitMix::new(seed ^ 0x5EED_F00D);
    let mut ops: Vec<Op> = FabricKind::ALL
        .into_iter()
        .map(|kind| Op::UserPing {
            kind,
            size: 4096,
            iters: 64,
        })
        .collect();
    let mpi = |kind, queue| Op::Mpi {
        kind,
        size: 64,
        iters: 16,
        queue,
    };
    ops.extend([
        mpi(FabricKind::Iwarp, Queue::Empty),
        mpi(FabricKind::InfiniBand, Queue::Posted(256)),
        mpi(FabricKind::MxoE, Queue::Unexpected(256)),
        Op::ConnStream {
            kind: FabricKind::Iwarp,
            conns: 64,
            size: 2048,
            msgs: 4,
        },
        Op::ConnStream {
            kind: FabricKind::InfiniBand,
            conns: 64,
            size: 2048,
            msgs: 4,
        },
        Op::OpenLoop {
            kind: FabricKind::MxoM,
            mix: Mix::Mixed,
            tenants: 8,
            flows: 64,
            gap_ns: 256_000,
            seed,
        },
        Op::Ring {
            kind: FabricKind::Iwarp,
            hosts: 8,
            span: Span::SameSwitch,
        },
    ]);
    let mut errors: Vec<String> = ops
        .iter()
        .filter_map(|op| guarded(|| exec::execute(op)).err())
        .collect();
    if let Err(e) = guarded(|| exec::mx_open_exchange(4096)) {
        errors.push(e);
    }

    let kind = [FabricKind::Iwarp, FabricKind::InfiniBand][rng.range(0, 1) as usize];
    let sizes = netbench::multiconn::latency_sizes();
    let (n, size) = (
        rng.range(1, 4) as usize,
        sizes[rng.range(0, sizes.len() as u64 - 1) as usize],
    );
    let ours = guarded(|| {
        let _op = exec::op_span(kind);
        exec::conn_latency(kind, n, size, 2)
    });
    match ours {
        Ok((_, lat)) => {
            let theirs = netbench::multiconn::normalized_latency(kind, n, size, 2);
            if lat.to_bits() != theirs.to_bits() {
                errors.push(format!(
                    "fig2 cross-check {kind:?} x{n} {size} B: benchmark {lat} us, netbench {theirs} us"
                ));
            }
        }
        Err(e) => errors.push(e),
    }
    errors
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    percentile(v, 0.5)
}

/// The `q`-quantile of a sorted, non-empty slice, linearly interpolated
/// between the two nearest order statistics.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    let h = (sorted.len() - 1) as f64 * q;
    let (lo, hi) = (h.floor() as usize, h.ceil() as usize);
    sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
}

/// Peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Everything the timed phase produced.
#[derive(Default)]
struct Tally {
    stats: SimStats,
    records: u64,
    /// Summed here: `SimStats::absorb` keeps the maximum.
    lookahead_rounds: u64,
    /// Host time inside ops.
    op_time: Duration,
    /// Per-round message rates scaled to the nominal machine, untraced and
    /// traced rounds.
    plain_rates: Vec<f64>,
    traced_rates: Vec<f64>,
}

/// Median of a run's per-round quantities, scaled (`.0`) and raw (`.1`).
fn medians(v: &[(f64, f64)]) -> (f64, f64) {
    let (mut a, mut b): (Vec<f64>, Vec<f64>) = v.iter().copied().unzip();
    (median(&mut a), median(&mut b))
}

/// Run the benchmark. `start` is process start (the first set-up pass is
/// timed from it).
pub fn run(cfg: &Config, start: Instant) -> Report {
    trace::set_enabled(cfg.trace);
    let mut errors = Vec::new();
    // (scaled, raw) seconds per set-up pass, and every kernel time.
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut kernels = Vec::new();
    let mut ops = Vec::new();
    for rep in 0..SETUP_REPS {
        let t0 = if rep == 0 { start } else { Instant::now() };
        let _g = trace::span("setup_pass");
        ops = op_list(cfg.workload, cfg.seed, cfg.scale);
        for e in smoke_pass(cfg.seed) {
            if !errors.contains(&e) {
                errors.push(e);
            }
        }
        let raw = t0.elapsed().as_secs_f64();
        kernels.push(kernel_ms());
        setup.push((raw * speed_factor(kernels[kernels.len() - 1]), raw));
    }

    // Timed phase: whole rounds until the time is up, at least
    // `MIN_ROUNDS`. In the traced run, rounds alternate traced / untraced
    // so the tracing overhead is measured in the same process.
    let mut first: Vec<Option<u64>> = vec![None; ops.len()];
    // Per op, its (scaled, raw) ms in every round.
    let mut times: Vec<Vec<(f64, f64)>> = vec![Vec::new(); ops.len()];
    let mut round_ms = vec![0.0; ops.len()];
    let mut raw_rates = Vec::new();
    let mut attempted = 0;
    let mut tally = Tally::default();
    let mut failed = 0;
    let mut rounds = 0u64;
    let t0 = Instant::now();
    loop {
        let traced = cfg.trace && rounds.is_multiple_of(2);
        trace::set_enabled(traced);
        let (round_start, mut round_msgs) = (Instant::now(), 0);
        for (i, op) in ops.iter().enumerate() {
            let t = Instant::now();
            let res = guarded(|| exec::execute(op));
            let dt = t.elapsed();
            round_ms[i] = dt.as_secs_f64() * 1e3;
            attempted += 1;
            tally.op_time += dt;
            match res {
                Ok(o) => {
                    round_msgs += op.msgs();
                    tally.stats.absorb(&o.stats);
                    tally.records += o.records;
                    tally.lookahead_rounds += o.stats.lookahead_rounds;
                    match first[i] {
                        None => first[i] = Some(o.digest),
                        Some(d) if d != o.digest => {
                            failed += 1;
                            errors
                                .push(format!("{op:?}: digest {:x} != first run {d:x}", o.digest));
                        }
                        Some(_) => {}
                    }
                }
                Err(e) => {
                    failed += 1;
                    errors.push(format!("{op:?}: {e}"));
                }
            }
        }
        let rate = round_msgs as f64 / round_start.elapsed().as_secs_f64();
        trace::set_enabled(false);
        kernels.push(kernel_ms());
        let f = speed_factor(kernels[kernels.len() - 1]);
        for (t, &ms) in times.iter_mut().zip(&round_ms) {
            t.push((ms * f, ms));
        }
        raw_rates.push(rate);
        if traced {
            &mut tally.traced_rates
        } else {
            &mut tally.plain_rates
        }
        .push(rate / f);
        rounds += 1;
        if t0.elapsed().as_secs_f64() >= cfg.seconds && rounds >= MIN_ROUNDS {
            break;
        }
    }

    let rss = peak_rss_mb().unwrap_or_else(|| {
        errors.push("no VmHWM in /proc/self/status".into());
        0.0
    });
    // An op's time is its median over the rounds: machine noise spreads
    // repeated runs of one deterministic op, the op list spreads the cost.
    let (mut op_ms, mut raw_op_ms): (Vec<f64>, Vec<f64>) = times.iter().map(|t| medians(t)).unzip();
    op_ms.sort_by(f64::total_cmp);
    raw_op_ms.sort_by(f64::total_cmp);
    let p90 = percentile(&op_ms, TAIL_Q);
    let mut rates = [tally.plain_rates.as_slice(), &tally.traced_rates].concat();
    let (setup_s, raw_setup_s) = medians(&setup);
    let end_to_end = vec![
        ("msgs_per_s", median(&mut rates), "1/s"),
        ("op_p50_ms", percentile(&op_ms, 0.5), "ms"),
        ("op_p90_ms", p90, "ms"),
        ("setup_s", setup_s, "s"),
        ("peak_rss_mb", rss, "MB"),
        ("failed_frac", failed as f64 / attempted as f64, "ratio"),
    ];
    let raw = vec![
        ("raw.msgs_per_s", median(&mut raw_rates), "1/s"),
        ("raw.op_p50_ms", percentile(&raw_op_ms, 0.5), "ms"),
        ("raw.op_p90_ms", percentile(&raw_op_ms, TAIL_Q), "ms"),
        ("raw.setup_s", raw_setup_s, "s"),
        ("reference.kernel_ms", median(&mut kernels), "ms"),
    ];
    let per_layer = if cfg.trace {
        per_layer(&tally, rounds)
    } else {
        Vec::new()
    };
    Report {
        attempted,
        failed,
        errors,
        digest: first
            .iter()
            .fold(Digest::default(), |d, x| d.push(x.unwrap_or(0)))
            .0,
        rounds,
        beyond_tail: op_ms.iter().filter(|&&t| t > p90).count(),
        ops_per_round: ops.len(),
        end_to_end,
        raw,
        per_layer,
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Per-layer metrics of a traced run. Counts are per round of the op list
/// (timed phase, every round); times are means over every traced span of
/// that name, set-up smoke pass included.
fn per_layer(t: &Tally, rounds: u64) -> Vec<Metric> {
    let s = &t.stats;
    let spans = trace::totals();
    let mean = |name: &str, scale: f64| {
        spans
            .get(name)
            .map_or(0.0, |&(n, ns)| ns as f64 / n as f64 / scale)
    };
    let per_round = |v: u64| v as f64 / rounds as f64;
    let ns_total = t.op_time.as_nanos() as u64;
    let wl_ns = spans.get("netbench.workload.run").map_or(0, |&(_, ns)| ns);
    let records = spans.get("bench.sketch.record").map_or(0, |&(n, _)| n);
    let (traced, plain) = (
        median(&mut t.traced_rates.clone()),
        median(&mut t.plain_rates.clone()),
    );
    vec![
        ("simnet.executor.events", per_round(s.events()), "count"),
        ("simnet.executor.polls", per_round(s.polls), "count"),
        ("simnet.executor.wakes", per_round(s.wakes), "count"),
        (
            "simnet.executor.redundant_wakes",
            per_round(s.redundant_wakes),
            "count",
        ),
        (
            "simnet.executor.timers_set",
            per_round(s.timers_set),
            "count",
        ),
        (
            "simnet.executor.timers_cancelled",
            per_round(s.timers_cancelled),
            "count",
        ),
        ("simnet.executor.spawns", per_round(s.spawns), "count"),
        (
            "simnet.executor.ns_per_event",
            ratio(ns_total, s.events()),
            "ns",
        ),
        (
            "simnet.executor.self_s",
            mean("simnet.executor.self", 1e9),
            "s",
        ),
        (
            "simnet.pipe.fast_path_hits",
            per_round(s.fast_path_hits),
            "count",
        ),
        (
            "simnet.pipe.slow_path_falls",
            per_round(s.slow_path_falls),
            "count",
        ),
        (
            "simnet.pipe.fast_path_ratio",
            ratio(s.fast_path_hits, s.fast_path_hits + s.slow_path_falls),
            "ratio",
        ),
        (
            "simnet.pipe.events_coalesced",
            per_round(s.events_coalesced),
            "count",
        ),
        (
            "simnet.pipe.calendar_peak_len",
            s.calendar_peak_len as f64,
            "count",
        ),
        ("simnet.memo.hits", per_round(s.memo_hits), "count"),
        ("simnet.memo.misses", per_round(s.memo_misses), "count"),
        (
            "simnet.memo.evictions",
            per_round(s.memo_evictions),
            "count",
        ),
        (
            "simnet.memo.hit_ratio",
            ratio(s.memo_hits, s.memo_hits + s.memo_misses),
            "ratio",
        ),
        (
            "simnet.shard.lookahead_rounds",
            per_round(t.lookahead_rounds),
            "count",
        ),
        (
            "simnet.shard.cross_shard_events",
            per_round(s.cross_shard_events),
            "count",
        ),
        (
            "simnet.shard.merge_queue_peak",
            s.merge_queue_peak as f64,
            "count",
        ),
        (
            "simnet.shard.events_per_round",
            ratio(s.events(), t.lookahead_rounds),
            "count",
        ),
        ("simnet.shard.run_s", mean("simnet.shard.run", 1e9), "s"),
        (
            "netbench.workload.flows_issued",
            per_round(s.flows_issued),
            "count",
        ),
        (
            "netbench.workload.flows_completed",
            per_round(s.flows_completed),
            "count",
        ),
        (
            "netbench.workload.gen_backlog_peak",
            s.gen_backlog_peak as f64,
            "count",
        ),
        (
            "netbench.workload.run_s",
            mean("netbench.workload.run", 1e9),
            "s",
        ),
        ("netbench.workload.ns_per_flow", ratio(wl_ns, records), "ns"),
        ("bench.sketch.records", per_round(t.records), "count"),
        (
            "bench.sketch.record_ns",
            mean("bench.sketch.record", 1.0),
            "ns",
        ),
        ("mpisim.pingpong_ms", mean("mpisim.pingpong", 1e6), "ms"),
        (
            "mpisim.posted_queue_ms",
            mean("mpisim.posted_queue", 1e6),
            "ms",
        ),
        (
            "mpisim.unexpected_queue_ms",
            mean("mpisim.unexpected_queue", 1e6),
            "ms",
        ),
        ("iwarp.connect_ms", mean("iwarp.connect", 1e6), "ms"),
        ("iwarp.op_ms", mean("iwarp.op", 1e6), "ms"),
        (
            "infiniband.connect_ms",
            mean("infiniband.connect", 1e6),
            "ms",
        ),
        ("infiniband.op_ms", mean("infiniband.op", 1e6), "ms"),
        ("mx10g.open_ms", mean("mx10g.open", 1e6), "ms"),
        ("mx10g.op_ms", mean("mx10g.op", 1e6), "ms"),
        (
            "hostmodel.mem.register_ms",
            mean("hostmodel.mem.register", 1e6),
            "ms",
        ),
        ("perfbench.trace.msgs_per_s", traced, "1/s"),
        ("perfbench.trace.untraced_msgs_per_s", plain, "1/s"),
        (
            "perfbench.trace.overhead",
            if traced > 0.0 { plain / traced } else { 0.0 },
            "ratio",
        ),
    ]
}
