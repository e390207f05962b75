//! Workloads and their seeded op lists.
//!
//! An op is one independent simulation, built and run to quiescence. One
//! *round* is a workload's whole op list: a stratified sample of the
//! workload's parameter space in a seeded order. Every stratum appears
//! once per round, so a run that repeats whole rounds measures the same
//! mix of work whatever the seed; the seed moves parameters only within
//! their stratum and shuffles the order.

use mpisim::FabricKind;

/// splitmix64: the counter-stream generator the workload engine also uses.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Log-uniform in `lo..=hi` (both positive).
    pub fn log_range(&mut self, lo: u64, hi: u64) -> u64 {
        let (a, b) = ((lo as f64).ln(), (hi as f64).ln());
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        ((a + u * (b - a)).exp().round() as u64).clamp(lo, hi)
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PingpongSweep,
    MulticonnContended,
    OpenLoopMix,
    ShardedRing,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PingpongSweep,
        Workload::MulticonnContended,
        Workload::OpenLoopMix,
        Workload::ShardedRing,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PingpongSweep => "pingpong-sweep",
            Workload::MulticonnContended => "multiconn-contended",
            Workload::OpenLoopMix => "open-loop-mix",
            Workload::ShardedRing => "sharded-ring",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Which MPI queue an MPI ping-pong op loads before it measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Queue {
    /// Plain ping-pong.
    Empty,
    /// `depth` never-matched receives pre-posted on both ranks.
    Posted(usize),
    /// `depth` unexpected messages parked at both ranks; every receive is
    /// posted after its message arrived.
    Unexpected(usize),
}

/// Open-loop tenant mix (the two `WorkloadSpec` constructors).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    Mixed,
    RpcKv,
}

/// Ring shape (the two `ClusterSpec` constructors).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Span {
    SameSwitch,
    Campus,
}

/// One independent simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `UserPair::half_rtt_us` ping-pong.
    UserPing {
        kind: FabricKind,
        size: u64,
        iters: u64,
    },
    /// `mpisim` send/recv ping-pong, optionally against a loaded queue.
    Mpi {
        kind: FabricKind,
        size: u64,
        iters: u64,
        queue: Queue,
    },
    /// Fig. 2 batched ping-pong over `conns` connections (one warm round,
    /// then `rounds` timed rounds), on the verbs API.
    ConnLatency {
        kind: FabricKind,
        conns: usize,
        size: u64,
        rounds: u64,
    },
    /// Fig. 2 both-way streaming over `conns` connections.
    ConnStream {
        kind: FabricKind,
        conns: usize,
        size: u64,
        msgs: u64,
    },
    /// `netbench::workload::run_workload`, `flows` flows per tenant.
    OpenLoop {
        kind: FabricKind,
        mix: Mix,
        tenants: usize,
        flows: u64,
        gap_ns: u64,
        seed: u64,
    },
    /// `netbench::cluster::cluster_exchange` ring.
    Ring {
        kind: FabricKind,
        hosts: usize,
        span: Span,
    },
}

impl Op {
    /// Simulated application messages the op completes: ping-pong legs
    /// (MPI queue decoys included), streamed messages, open-loop flows or
    /// ring messages.
    pub fn msgs(&self) -> u64 {
        match *self {
            Op::UserPing { iters, .. } => 2 * iters,
            Op::Mpi { iters, queue, .. } => match queue {
                Queue::Empty => 2 * iters,
                Queue::Posted(d) | Queue::Unexpected(d) => 2 * iters + 2 * d as u64,
            },
            Op::ConnLatency { conns, rounds, .. } => 2 * conns as u64 * (rounds + 1),
            Op::ConnStream { conns, msgs, .. } => 2 * conns as u64 * msgs,
            Op::OpenLoop { tenants, flows, .. } => tenants as u64 * flows,
            Op::Ring { hosts, span, .. } => {
                let s = cluster_spec(hosts, span);
                (s.hosts * s.endpoints) as u64 * s.messages
            }
        }
    }

    pub fn kind(&self) -> FabricKind {
        match *self {
            Op::UserPing { kind, .. }
            | Op::Mpi { kind, .. }
            | Op::ConnLatency { kind, .. }
            | Op::ConnStream { kind, .. }
            | Op::OpenLoop { kind, .. }
            | Op::Ring { kind, .. } => kind,
        }
    }
}

/// Worker threads for a sharded ring. One never exceeds `nproc` and keeps
/// the timing independent of the machine's width and of other load on it.
const RING_THREADS: usize = 1;

pub fn cluster_spec(hosts: usize, span: Span) -> netbench::cluster::ClusterSpec {
    let mut s = match span {
        Span::SameSwitch => netbench::cluster::ClusterSpec::small(hosts),
        Span::Campus => netbench::cluster::ClusterSpec::scaling(hosts),
    };
    s.threads = Some(RING_THREADS);
    s
}

/// Tunable op sizes. [`Scale::FULL`] is the benchmark; tests use
/// [`Scale::TINY`] so a whole round of every workload runs in seconds.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub user_iters: u64,
    pub mpi_iters: u64,
    pub max_depth: usize,
    pub max_conns: usize,
    pub conn_rounds: u64,
    pub stream_msgs: u64,
    pub flows: u64,
    pub max_tenants: usize,
    pub max_hosts: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        user_iters: 32,
        mpi_iters: 16,
        max_depth: 1024,
        max_conns: 256,
        conn_rounds: 2,
        stream_msgs: 4,
        flows: 64,
        max_tenants: 16,
        max_hosts: 32,
    };
    pub const TINY: Scale = Scale {
        user_iters: 2,
        mpi_iters: 2,
        max_depth: 8,
        max_conns: 4,
        conn_rounds: 1,
        stream_msgs: 2,
        flows: 4,
        max_tenants: 4,
        max_hosts: 4,
    };
}

/// Stratum bounds `[lo, hi]` covering `min..=max` on a geometric grid of
/// ratio `step`.
fn geometric_strata(min: u64, max: u64, step: u64) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    let mut lo = min;
    while lo <= max {
        let hi = (lo.saturating_mul(step) - 1).min(max);
        out.push((lo, if lo == max { max } else { hi }));
        if hi >= max {
            break;
        }
        lo = hi + 1;
    }
    out
}

/// `x` shrunk by a seeded 0–10 %, so a grid point keeps its cost class.
fn jitter(rng: &mut SplitMix, x: u64) -> u64 {
    (x * rng.range(90, 100) / 100).max(x.min(1))
}

/// Posted / unexpected queue depths, dense near the top so the deep-queue
/// tail is made of many ops rather than a few.
const DEPTHS: [u64; 13] = [0, 8, 32, 64, 128, 192, 256, 384, 512, 640, 768, 896, 1024];
/// Fig. 2 connection counts plus two points between the last ones.
const CONNS: [u64; 11] = [1, 2, 4, 8, 16, 32, 64, 96, 128, 192, 256];
/// Fig. 2 message sizes spanning its 128 B–16 KiB range.
const CONN_SIZES: [u64; 4] = [128, 1024, 4096, 16384];
/// Open-loop tenant counts.
const TENANTS: [u64; 5] = [4, 6, 8, 12, 16];
/// Aggregate mean gap between arrivals, in ns, below, near and past the
/// knee of each mix. The per-tenant gap scales with the tenant count, so
/// the load level is a property of its stratum. The mixed shape's 64 KiB
/// streams saturate the host path at a far lower flow rate than RPCs.
fn load_levels_ns(mix: Mix) -> [u64; 3] {
    match mix {
        Mix::Mixed => [96_000, 32_000, 8_000],
        Mix::RpcKv => [8_000, 3_000, 1_000],
    }
}

/// Ring sizes: every even size from 8 to 32 hosts.
const HOSTS: [u64; 13] = [8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30, 32];

/// One round of `w`'s op list: a pure function of `(w, seed, scale)`.
pub fn op_list(w: Workload, seed: u64, scale: Scale) -> Vec<Op> {
    let mut rng = SplitMix::new(seed ^ (w as u64).wrapping_mul(0xA24B_AED4_963E_E407));
    let mut ops = Vec::new();
    let capped = |grid: &[u64], max: u64| -> Vec<u64> {
        let mut v: Vec<u64> = grid.iter().copied().filter(|&x| x <= max).collect();
        if v.is_empty() {
            v.push(max);
        }
        v
    };
    match w {
        Workload::PingpongSweep => {
            for kind in FabricKind::ALL {
                for (lo, hi) in geometric_strata(1, 4 << 20, 4) {
                    let size = rng.log_range(lo, hi);
                    ops.push(Op::UserPing {
                        kind,
                        size,
                        iters: scale.user_iters,
                    });
                }
                for (lo, hi) in geometric_strata(1, 4 << 20, 16) {
                    let size = rng.log_range(lo, hi);
                    ops.push(Op::Mpi {
                        kind,
                        size,
                        iters: scale.mpi_iters,
                        queue: Queue::Empty,
                    });
                }
                for d in capped(&DEPTHS, scale.max_depth as u64) {
                    for posted in [true, false] {
                        let depth = jitter(&mut rng, d) as usize;
                        let queue = if posted {
                            Queue::Posted(depth)
                        } else {
                            Queue::Unexpected(depth)
                        };
                        let size = rng.log_range(1, 1024);
                        ops.push(Op::Mpi {
                            kind,
                            size,
                            iters: scale.mpi_iters,
                            queue,
                        });
                    }
                }
            }
        }
        Workload::MulticonnContended => {
            for kind in [FabricKind::Iwarp, FabricKind::InfiniBand] {
                // Connection counts stay on the grid: host memory grows in
                // doubling steps with the connection count, so a jittered
                // count would move peak memory with the seed.
                for n in capped(&CONNS, scale.max_conns as u64) {
                    let conns = n as usize;
                    for grid in CONN_SIZES {
                        let size = jitter(&mut rng, grid);
                        ops.push(Op::ConnLatency {
                            kind,
                            conns,
                            size,
                            rounds: scale.conn_rounds,
                        });
                        let size = jitter(&mut rng, grid);
                        ops.push(Op::ConnStream {
                            kind,
                            conns,
                            size,
                            msgs: scale.stream_msgs,
                        });
                    }
                }
            }
        }
        Workload::OpenLoopMix => {
            for kind in FabricKind::ALL {
                for mix in [Mix::Mixed, Mix::RpcKv] {
                    for tenants in capped(&TENANTS, scale.max_tenants as u64) {
                        for level in load_levels_ns(mix) {
                            ops.push(Op::OpenLoop {
                                kind,
                                mix,
                                tenants: tenants as usize,
                                flows: scale.flows,
                                gap_ns: jitter(&mut rng, level * tenants),
                                seed: rng.next_u64(),
                            });
                        }
                    }
                }
            }
        }
        Workload::ShardedRing => {
            for kind in FabricKind::ALL {
                for span in [Span::SameSwitch, Span::Campus] {
                    for h in capped(&HOSTS, scale.max_hosts as u64) {
                        let hosts = jitter(&mut rng, h).max(2) as usize;
                        ops.push(Op::Ring { kind, hosts, span });
                    }
                }
            }
        }
    }
    rng.shuffle(&mut ops);
    ops
}
