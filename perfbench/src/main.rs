//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints a human-readable summary, then, as the last line, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}` with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use perfbench::ops::{Scale, Workload};
use perfbench::run::{self, Config, Metric};

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut traced) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(30.0),
        trace: traced.unwrap_or(false),
        scale: Scale::FULL,
    })
}

fn json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = run::run(&cfg, start);
    for e in report.errors.iter().take(20) {
        eprintln!("perfbench: FAILED {e}");
    }
    println!(
        "workload={} seed={} rounds={} ops_per_round={} ops={} beyond_p90={} digest={:016x} spans_dropped={}",
        cfg.workload.name(),
        cfg.seed,
        report.rounds,
        report.ops_per_round,
        report.attempted,
        report.beyond_tail,
        report.digest,
        perfbench::trace::dropped()
    );
    let printed = [&report.end_to_end, &report.raw, &report.per_layer];
    for (name, value, unit) in printed.into_iter().flatten() {
        println!("{name:<36} {value:>16.6} {unit}");
    }
    // failed_frac is printed above but left out of the scored metrics: it
    // is 0 on every passing run, and the result's `failed` carries it.
    let metrics: Vec<Metric> = if cfg.trace {
        report.per_layer.clone()
    } else {
        report
            .end_to_end
            .iter()
            .copied()
            .filter(|m| m.0 != "failed_frac")
            .collect()
    };
    if cfg.trace {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{}.jsonl", cfg.workload.name()));
        if let Err(e) = perfbench::trace::write_jsonl(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.correct(),
        report.attempted,
        report.failed,
        json(&metrics)
    );
    ExitCode::SUCCESS
}
