//! The benchmark's own tests: replay-stable op lists, well-formed and
//! declared metric names, the tail rule, tiny passing runs of every
//! workload, repeatable digests, the fig. 2 cross-check, and the known
//! split-`block_on` defect.

use std::time::Instant;

use mpisim::FabricKind;
use perfbench::ops::{op_list, Scale, Workload};
use perfbench::run::{self, Config, Report, TAIL_BEYOND, TAIL_Q};

fn tiny(workload: Workload, seed: u64, trace: bool) -> Report {
    let cfg = Config {
        workload,
        seed,
        seconds: 0.01,
        trace,
        scale: Scale::TINY,
    };
    perfbench::trace::reset();
    run::run(&cfg, Instant::now())
}

#[test]
fn op_list_is_a_pure_function_of_the_seed() {
    for w in Workload::ALL {
        for seed in [0, 1, 42, u64::MAX] {
            let a = op_list(w, seed, Scale::FULL);
            assert_eq!(a, op_list(w, seed, Scale::FULL), "{w:?} seed {seed}");
            assert!(!a.is_empty());
        }
        // Every seed draws the same strata: same op count, same messages
        // per fabric to within the 10 % jitter.
        let (a, b) = (op_list(w, 1, Scale::FULL), op_list(w, 2, Scale::FULL));
        assert_ne!(a, b, "{w:?}: the seed must move the inputs");
        assert_eq!(a.len(), b.len(), "{w:?}");
        let msgs = |ops: &[perfbench::ops::Op]| ops.iter().map(|o| o.msgs()).sum::<u64>() as f64;
        let ratio = msgs(&a) / msgs(&b);
        assert!(
            (0.85..1.18).contains(&ratio),
            "{w:?}: message totals differ by {ratio}"
        );
    }
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

#[test]
fn metric_names_are_well_formed_and_declared() {
    let declared =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    let traced = tiny(Workload::ShardedRing, 3, true);
    let plain = tiny(Workload::ShardedRing, 3, false);
    assert!(
        plain.per_layer.is_empty(),
        "per-layer metrics only in the traced run"
    );
    let mut names: Vec<&str> = traced.per_layer.iter().map(|m| m.0).collect();
    names.extend(
        plain
            .end_to_end
            .iter()
            .map(|m| m.0)
            .filter(|&n| n != "failed_frac"),
    );
    for (i, n) in names.iter().enumerate() {
        assert!(well_formed(n), "{n}");
        assert!(!names[..i].contains(n), "{n} printed twice");
        assert!(
            declared.contains(&format!("\"name\": \"{n}\"")),
            "{n} not in BENCHMARK.json"
        );
    }
    assert_eq!(
        declared.matches("\"unit\":").count(),
        names.len(),
        "BENCHMARK.json declares other metrics"
    );
    for (name, value, unit) in traced.per_layer.iter().chain(&plain.end_to_end) {
        assert!(value.is_finite() && *value >= 0.0, "{name} = {value}");
        assert!(!unit.is_empty() && unit.len() <= 16, "{name}: unit {unit}");
    }
}

#[test]
fn op_lists_put_at_least_ten_ops_beyond_the_tail_percentile() {
    let needed = (TAIL_BEYOND as f64 / (1.0 - TAIL_Q)).round() as usize;
    for w in Workload::ALL {
        for seed in [1, 2, 3] {
            let n = op_list(w, seed, Scale::FULL).len();
            assert!(n >= needed, "{w:?}: {n} ops per round, p90 needs {needed}");
        }
    }
    let sorted: Vec<f64> = (0..100).map(f64::from).collect();
    let p90 = run::percentile(&sorted, TAIL_Q);
    assert!(sorted.iter().filter(|&&t| t > p90).count() >= TAIL_BEYOND);
}

#[test]
fn tiny_runs_of_every_workload_pass() {
    for w in Workload::ALL {
        let r = tiny(w, 7, false);
        assert!(r.correct(), "{w:?}: {:?}", r.errors);
        assert_eq!(r.failed, 0, "{w:?}");
        assert!(r.rounds >= run::MIN_ROUNDS, "{w:?}");
        let frac = r
            .end_to_end
            .iter()
            .find(|m| m.0 == "failed_frac")
            .expect("failed_frac printed");
        assert_eq!(frac.1.to_bits(), 0f64.to_bits(), "{w:?}");
        for (name, value, _) in &r.end_to_end {
            assert!(value.is_finite(), "{w:?} {name} = {value}");
            if *name != "failed_frac" {
                assert!(*value > 0.0, "{w:?} {name} = {value}");
            }
        }
    }
}

#[test]
fn digest_repeats_for_a_seed_and_traced_runs_agree() {
    for w in Workload::ALL {
        let a = tiny(w, 11, false);
        let b = tiny(w, 11, true);
        assert_eq!(
            a.digest, b.digest,
            "{w:?}: tracing or a rerun changed a simulated result"
        );
        assert!(b.correct(), "{w:?}: {:?}", b.errors);
        assert_ne!(
            a.digest,
            tiny(w, 12, false).digest,
            "{w:?}: digest ignores the inputs"
        );
    }
}

#[test]
fn benchmark_fig2_op_matches_netbench() {
    for kind in [FabricKind::Iwarp, FabricKind::InfiniBand] {
        for (n, size) in [(1, 128), (3, 4096), (12, 16384)] {
            let (_, ours) = perfbench::exec::conn_latency(kind, n, size, 3).expect("op passes");
            let theirs = netbench::multiconn::normalized_latency(kind, n, size, 3);
            assert_eq!(ours.to_bits(), theirs.to_bits(), "{kind:?} x{n} {size} B");
        }
    }
}

/// Known defect, kept visible on purpose: once a ping-pong has run over an
/// iWARP (or IB) `UserPair`, a ping-pong in a second `block_on` reports a
/// deadlock, although `block_on`'s documentation says pending tasks resume
/// when it is called again. Both ping-pongs inside one `block_on` pass, and
/// MX pairs pass either way. When this test starts failing the defect is
/// fixed: turn it into a passing check.
#[test]
#[should_panic(expected = "deadlock")]
fn known_defect_split_block_on_panics() {
    use netbench::userlevel::UserPair;
    use std::rc::Rc;

    for kind in [FabricKind::Iwarp, FabricKind::MxoM] {
        let sim = simnet::Sim::new();
        let s = sim.clone();
        let (a, b) = sim.block_on(async move {
            let p = UserPair::build(&s, kind).await;
            (p.half_rtt_us(64, 2).await, p.half_rtt_us(64, 2).await)
        });
        assert!(a > 0.0 && b > 0.0, "{kind:?}: one block_on");
    }
    let split = |kind| {
        let sim = simnet::Sim::new();
        let s = sim.clone();
        let pair = Rc::new(sim.block_on(async move {
            let p = UserPair::build(&s, kind).await;
            p.half_rtt_us(64, 2).await;
            p
        }));
        sim.block_on(async move { pair.half_rtt_us(64, 2).await })
    };
    assert!(split(FabricKind::MxoM) > 0.0, "MX: split block_on");
    split(FabricKind::Iwarp);
}
