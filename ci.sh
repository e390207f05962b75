#!/usr/bin/env bash
# Repository CI gate: build, test, lint, and smoke-run the figure harness.
#
#   ./ci.sh
#
# Fails fast on the first broken step. The smoke step regenerates fig1
# (cheapest end-to-end figure) with JSON output into results/ci/ so a CI
# artifact exists to diff against the committed expectations.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (broken intra-doc links are errors)"
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc -q --no-deps --workspace

echo "==> simlint --deny-all --dataflow --units (determinism, panic-path, FSM & units gates)"
# Workspace-wide AST lint pass: rejects hash-order iteration, wall-clock
# reads, OS threads, unseeded RNGs, unordered float accumulation, and
# Relaxed atomics inside simulation-state code. --dataflow layers the
# interprocedural passes on top — nondeterminism taint through calls,
# unwraps reachable from the fabric transfer hot paths, and static FSM
# conformance between the fabric machines and the simcheck tables — gated
# on the committed crates/simlint/dataflow.baseline: only NEW findings
# (or stale baseline entries) fail. See DESIGN.md §11. --units adds the
# dimensional abstract interpretation (unit-mismatch, unit-arith,
# raw-quantity, lossy-time-cast) gated on crates/simlint/units.baseline,
# which is committed EMPTY: the Bytes/ByteRate migration is complete and
# any new finding is a real dimension bug. See DESIGN.md §12.
cargo run -q -p simlint -- --deny-all --dataflow --units

mkdir -p results/ci
echo "==> simlint artifacts: results/ci/simlint.json + simlint.sarif"
# Machine-readable per-rule violation/allow tally for trend tracking,
# plus a SARIF 2.1.0 log for code-scanning UI ingestion.
cargo run -q -p simlint -- --deny-all --dataflow --units \
    --sarif results/ci/simlint.sarif --json > results/ci/simlint.json
test -s results/ci/simlint.sarif

echo "==> units baseline stays empty (typed-quantity migration is complete)"
# The committed units baseline has zero fingerprints by design. This guard
# fails if someone regenerates it to paper over a new dimension bug instead
# of fixing the code (the --deny-all gate above would otherwise accept it).
if grep -v '^#' crates/simlint/units.baseline | grep -q .; then
    echo "crates/simlint/units.baseline must stay empty; fix the finding instead" >&2
    exit 1
fi

echo "==> simlint --audit-allows: waiver budget no-regression"
# Every inline allow is a standing exception to a determinism rule. The
# audit fails on stale waivers, and the committed results/allow_budget.json
# caps the total: adding an allow means consciously raising the budget in
# the same diff that justifies it. Shrinking is always welcome.
cargo run -q -p simlint -- --deny-all --audit-allows --json \
    > results/ci/allow_audit.json
python3 - <<'EOF'
import json
audit = json.load(open("results/ci/allow_audit.json"))
budget = json.load(open("results/allow_budget.json"))
assert audit["stale"] == 0, f"stale allow annotations: {audit}"
assert audit["allows"] <= budget["allows"], (
    f"allow count grew: {audit['allows']} > budgeted {budget['allows']}; "
    "raise results/allow_budget.json deliberately or drop the new waiver"
)
print(f"allow audit: {audit['allows']} waivers (budget {budget['allows']}), 0 stale")
EOF

echo "==> differential sweep: fast path vs per-segment walk (100k cases)"
FASTPATH_DIFF_CASES=100000 cargo test -q --release --test fastpath_diff

echo "==> differential sweep: transfer memo vs unmemoized replay (100k cases)"
# Same harness shape for the whole-transfer memo: every scenario (bursts,
# demotions, observers, fault-judged sends) must be observationally
# identical with the fingerprint-keyed cache enabled and force-disabled.
MEMO_DIFF_CASES=100000 cargo test -q --release --test memo_diff

echo "==> determinism suite in release (full --threads {1,2,4,8} digest matrix)"
# The fig2/fig-loss thread-sweep digests are ignored in debug builds for
# wall-clock; release runs the whole matrix in seconds.
cargo test -q --release --test determinism -- --include-ignored

echo "==> perfbench: benchmark-owned tests"
cargo test -q --release --manifest-path perfbench/Cargo.toml

echo "==> perfbench: seed-1 run digests match the recorded baseline"
# Each op folds its simulated results into the run digest, so a speed-only
# change must reproduce the recorded seed-1 digest of every scored workload
# bit for bit. A drift means simulated output changed, not host speed.
for w in $(python3 -c 'import json; print(*(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); do
    got=$(cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
        --workload "$w" --seed 1 --seconds 1 --trace 0 | grep -o 'digest=[0-9a-f]*')
    want=$(python3 - "$w" <<'EOF'
import json, re, sys
runs = json.load(open(f"perfbench/baseline/{sys.argv[1]}.json"))["untraced"]
print(next(re.search(r"digest=[0-9a-f]+", r["summary"]).group(0) for r in runs if r["seed"] == 1))
EOF
)
    if [ "$got" != "$want" ]; then
        echo "perfbench $w seed 1: $got, baseline $want" >&2
        exit 1
    fi
    echo "    $w $got"
done

echo "==> smoke: cargo bench -p bench --bench pipeline_throughput"
# Keeps the bench compiling and its uncontended/contended split honest;
# the recorded baseline lives in results/pipeline_throughput.json.
cargo bench -p bench --bench pipeline_throughput > /dev/null

echo "==> smoke: cargo bench -p bench --bench transfer_memo"
# Memo hit vs cold miss vs pre-memo per-segment walk on one steady-state
# burst shape; the committed baseline lives in results/transfer_memo.json.
# (Absolute path: cargo bench runs with the package dir as its CWD.)
BENCH_JSON="$PWD/results/ci/transfer_memo.json" \
    cargo bench -p bench --bench transfer_memo > /dev/null

echo "==> smoke: cargo bench -p bench --bench sim_throughput"
# Executor hot-path microbenchmarks (timer arm/fire, wake dispatch, spawn
# churn, same-instant fan-out, lazy cancellation); the committed baseline
# lives in results/sim_throughput.json.
BENCH_JSON="$PWD/results/ci/sim_throughput.json" \
    cargo bench -p bench --bench sim_throughput > /dev/null

echo "==> selftest: engine events/sec + memo hit-rate artifact"
# The steady-state phase of --selftest replays one transfer shape 2000
# times, so the whole-transfer memo must be carrying it: memo_hits == 0
# here means the cache is disconnected from the data path.
BENCH_JSON=results/ci/selftest.json ./target/release/figures --selftest
python3 - <<'EOF'
import json
row = json.load(open("results/ci/selftest.json"))[0]
assert row["memo_hits"] > 0, f"selftest ran with zero memo hits: {row}"
EOF

echo "==> smoke: figures fig1 --json results/ci/"
# Drop stale figure JSON first so a generator that silently stops writing
# a file cannot pass the digest check on a leftover from a previous run.
rm -f results/ci/fig1-*.json
./target/release/figures fig1 --json results/ci/ > /dev/null
test -s results/ci/fig1-latency.json || {
    ls results/ci/ >&2
    echo "smoke run produced no fig1 JSON" >&2
    exit 1
}

echo "==> digest: fig1 output matches recorded seed digest"
# The figure data is bit-for-bit deterministic; any drift from the
# committed digest means simulation output changed and results/fig1.sha256
# must be regenerated alongside a deliberate model change.
(cd results/ci && sha256sum -c ../fig1.sha256)

echo "==> smoke + digest: fig4 (the transfer memo's hottest consumer)"
# fig4's windowed bandwidth sweeps replay one message shape thousands of
# times, so nearly every transfer comes out of the whole-transfer memo —
# its digest gate is the one that would catch a cache replaying a wrong
# outcome.
rm -f results/ci/fig4-*.json
./target/release/figures fig4 --json results/ci/ > /dev/null
(cd results/ci && sha256sum -c ../fig4.sha256)

echo "==> determinism: --no-memo output is byte-identical (fig1 + fig4)"
# The whole-transfer memo is an optimization, never a semantic switch:
# force-disabling the cache may change wall-clock time only. Any byte of
# drift means a cached outcome diverged from the walk it claims to replay.
memo_on=$(./target/release/figures fig1 fig4 | sha256sum | cut -d' ' -f1)
memo_off=$(./target/release/figures fig1 fig4 --no-memo | sha256sum | cut -d' ' -f1)
if [ "$memo_on" != "$memo_off" ]; then
    echo "figures fig1 fig4 output differs between memo-on ($memo_on) and --no-memo ($memo_off)" >&2
    exit 1
fi

echo "==> smoke + digest: fig-tail (open-loop workload engine end to end)"
# The tail-latency family stacks the seeded arrival generators, the mpsc
# flow queues, every fabric's host path and the quantile sketch; its
# digest gate is the one that catches a nondeterministic workload engine.
rm -f results/ci/fig-tail-*.json
./target/release/figures fig-tail --json results/ci/ > /dev/null
(cd results/ci && sha256sum -c ../fig-tail.sha256)

echo "==> determinism: --threads 1 vs --threads 4 output is byte-identical"
# The worker-pool cap (figure groups AND the sharded engine's worker
# count) may change wall-clock time only. Compare the full table output
# of the cheapest paper figure, the sharded cluster figure and the
# open-loop workload figures across thread counts; any byte of drift is
# a synchronization bug, not noise.
for sel in fig1 shard fig-tail; do
    t1=$(./target/release/figures "$sel" --threads 1 | sha256sum | cut -d' ' -f1)
    t4=$(./target/release/figures "$sel" --threads 4 | sha256sum | cut -d' ' -f1)
    if [ "$t1" != "$t4" ]; then
        echo "figures $sel output differs between --threads 1 ($t1) and --threads 4 ($t4)" >&2
        exit 1
    fi
done

echo "==> smoke: cargo bench -p bench --bench shard_scaling"
# Wall-clock scaling of the sharded engine at 1/2/4 workers; the
# committed single-core baseline lives in results/shard_scaling.json.
BENCH_JSON="$PWD/results/ci/shard_scaling.json" \
    cargo bench -p bench --bench shard_scaling > /dev/null
if [ "$(nproc)" -ge 4 ]; then
    # Only meaningful with real cores: assert the 4-worker run is at
    # least 2x faster than the 1-worker run on the scaling scenario.
    # Single-core hosts (like the seed container) skip — there the three
    # thread counts are equal modulo barrier overhead by construction.
    python3 - <<'EOF'
import json
rows = {r["id"]: r["median_ns"] for r in json.load(open("results/ci/shard_scaling.json"))}
t1 = rows["shard_scaling/cluster_8_hosts_t1"]
t4 = rows["shard_scaling/cluster_8_hosts_t4"]
speedup = t1 / t4
print(f"shard_scaling: t1={t1}ns t4={t4}ns speedup={speedup:.2f}x")
assert speedup >= 2.0, f"expected >=2x speedup at 4 workers, got {speedup:.2f}x"
EOF
else
    echo "    (single-core host: speedup assertion skipped, nproc=$(nproc))"
fi

echo "==> artifact: figures fig-loss --json results/ (degradation sweep)"
# Archive the loss-recovery sweep next to the committed figure JSON. The
# sweep is bit-deterministic (tests/determinism.rs double-runs it), so
# any diff in the archived artifact is a deliberate model change.
rm -f results/fig-loss-*.json
./target/release/figures fig-loss --json results/ > /dev/null
test -s results/fig-loss-latency.json -a -s results/fig-loss-bandwidth.json || {
    ls results/ >&2
    echo "fig-loss run produced no JSON" >&2
    exit 1
}

echo "==> fault injection: recovery suite under --features simcheck"
# The lossy integration tests with the exactly-once delivery and
# retransmit-budget oracles compiled into every recovery engine.
cargo test -q --features simcheck --test fault_injection

echo "==> conformance: cargo test --features simcheck (oracles on)"
# Re-run the workspace tests with the runtime conformance oracles compiled
# in (DESIGN.md "Runtime conformance checking"). Covers the per-oracle
# mutation tests in crates/simcheck and the simcheck_e2e figure run.
cargo test -q --workspace --features simcheck

echo "==> conformance: checked fig1 run is byte-identical to unchecked"
# The oracles are pure observers: a figure run with them compiled in must
# reproduce the exact bytes of the unchecked run above. A separate output
# directory keeps the two artifacts distinguishable, and a separate build
# avoids clobbering the unchecked figures binary used above.
cargo build -q --release -p bench --features simcheck
mkdir -p results/ci-simcheck
rm -f results/ci-simcheck/fig1-*.json
./target/release/figures fig1 --json results/ci-simcheck/ > /dev/null
(cd results/ci-simcheck && sha256sum -c ../fig1.sha256)

echo "==> conformance: workload.conservation armed on a checked fig-tail run"
# Every open-loop workload run re-derives flow conservation through the
# shadow-tally oracle; the checked binary exits nonzero on any violation.
# Assert the rule actually executed (a disconnected oracle would pass
# silently) and that the checked bytes match the unchecked digest.
rm -f results/ci-simcheck/fig-tail-*.json
./target/release/figures fig-tail --json results/ci-simcheck/ \
    2> results/ci/fig-tail-simcheck.stderr > /dev/null
grep -q "workload.conservation" results/ci/fig-tail-simcheck.stderr || {
    cat results/ci/fig-tail-simcheck.stderr >&2
    echo "checked fig-tail run never exercised workload.conservation" >&2
    exit 1
}
(cd results/ci-simcheck && sha256sum -c ../fig-tail.sha256)

echo "==> perf trajectory: results/bench_summary.json (figures all, memo on vs off)"
# Times the full figure suite with the transfer memo enabled and
# force-disabled, asserts the two outputs are byte-identical, and folds
# the per-figure wall clocks (from results/figures.log), the selftest
# throughput/memo counters, and the transfer_memo bench medians into one
# machine-readable summary so the perf trajectory is tracked across PRs.
python3 - <<'EOF'
import json
import subprocess

LOG = "results/figures.log"


def run_once(extra):
    out = subprocess.run(
        ["./target/release/figures", "all", *extra],
        check=True, capture_output=True,
    ).stdout
    # Each figures process truncates the log on its first write (one run
    # per log, no accretion), so after the subprocess exits the whole log
    # is exactly that run's group lines.
    groups = {}
    for line in open(LOG):
        kv = dict(f.split("=", 1) for f in line.split())
        groups[kv["group"]] = int(kv["wall_ms"])
    return out, groups


def run_all(extra):
    # Per-figure minimum over two runs: whole-process wall on a shared CI
    # host is mostly page-cache and scheduler noise, but per-group floors
    # are stable run to run.
    (out, a), (_, b) = run_once(extra), run_once(extra)
    return out, {k: min(a[k], b[k]) for k in a}

memo_out, on = run_all([])
off_out, off = run_all(["--no-memo"])
assert memo_out == off_out, "figures all output drifted between memo on and --no-memo"

selftest = json.load(open("results/ci/selftest.json"))[0]
bench = {r["id"]: r["median_ns"] for r in json.load(open("results/ci/transfer_memo.json"))}

sum_on, sum_off = sum(on.values()), sum(off.values())
summary = {
    "figures_all": {
        "wall_ms_memo_on": sum_on,
        "wall_ms_memo_off": sum_off,
        "speedup": round(sum_off / sum_on, 3),
        "byte_identical": True,
    },
    "per_figure_wall_ms": {
        k: {"memo_on": on[k], "memo_off": off[k]} for k in on
    },
    "selftest": {
        "events_per_sec": selftest["events_per_sec"],
        "memo_hits": selftest["memo_hits"],
        "memo_misses": selftest["memo_misses"],
        "memo_evictions": selftest["memo_evictions"],
        "memo_hit_rate": selftest["memo_hit_rate"],
    },
    "fig_tail": {
        # Wall clock of the open-loop workload group plus the selftest's
        # sketch percentiles (nearest-rank, integer ns) — the workload
        # engine's perf and tail shape tracked across PRs in one place.
        "wall_ms_memo_on": on["fig-tail"],
        "wall_ms_memo_off": off["fig-tail"],
        "flows_issued": selftest["flows_issued"],
        "flows_completed": selftest["flows_completed"],
        "gen_backlog_peak": selftest["gen_backlog_peak"],
        "flow_p50_ns": selftest["flow_p50_ns"],
        "flow_p99_ns": selftest["flow_p99_ns"],
        "flow_p999_ns": selftest["flow_p999_ns"],
    },
    "transfer_memo_median_ns": bench,
}
with open("results/bench_summary.json", "w") as f:
    json.dump(summary, f, indent=2)
    f.write("\n")
print(json.dumps(summary, indent=2))
EOF

echo "CI OK"
