//! `perfbench` — the repository's benchmark: four workloads over the FUP
//! maintenance system, timed from outside through the public APIs of
//! `fup_core`, `fup_mining` and `fup_tidb`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-insert|churn|serve|cluster-churn> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs come from the seed and are generated before any timer starts.
//! Every run checks the workload's outputs outside the timed region. The
//! last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The line before
//! it tags the run with host and parameters. A traced run also writes
//! its spans to `.bench_out/`. See `perfbench/README.md` for what each
//! metric measures and which layer metric should move which end-to-end
//! metric.

mod closed;
mod cluster;
mod flat;
mod inputs;
mod probes;
mod serve;
mod stats;
mod storage;
mod trace;

use stats::Outcome;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Every end-to-end metric, with its unit, in output order.
const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("round_ms_p50", "ms"),
    ("round_ms_p90", "ms"),
    ("update_ops_per_s", "1/s"),
    ("remine_s", "s"),
    ("visible_ms_p50", "ms"),
    ("visible_ms_p99", "ms"),
    ("max_tps_slo", "txn/s"),
    ("ops_ok_frac", "frac"),
    ("peak_rss_mb", "MiB"),
];

/// Every per-layer metric, with its unit. A layer a workload does not
/// run reports 0.
const LAYERS: &[(&str, &str)] = &[
    ("session.index_builds", "count"),
    ("session.index_extends", "count"),
    ("session.remine_rounds", "count"),
    ("fup.candidates_generated", "count"),
    ("fup.candidates_checked", "count"),
    ("fup.k2.candidates_checked", "count"),
    ("fup.large_found", "count"),
    ("fup.useful_ratio", "ratio"),
    ("diff.rules_changed", "count"),
    ("engine.count_items_ms", "ms"),
    ("gen.apriori_gen_ms", "ms"),
    ("vertical.build_ms", "ms"),
    ("vertical.extend_ms", "ms"),
    ("vertical.count_ms", "ms"),
    ("vertical.index_bytes", "bytes"),
    ("rules.generate_ms", "ms"),
    ("paper.dhp_s", "s"),
    ("paper.apriori_s", "s"),
    ("paper.speedup_vs_dhp", "x"),
    ("paper.speedup_vs_apriori", "x"),
    ("paper.cand_ratio_vs_dhp", "ratio"),
    ("paper.fup_candidates", "count"),
    ("paper.dhp_candidates", "count"),
    ("paper.apriori_candidates", "count"),
    ("staging.stage_us_p50", "us"),
    ("staging.stage_ms_p99", "ms"),
    ("staging.max_backlog_ops", "ops"),
    ("staging.backpressure_rejections", "count"),
    ("storage.append_calls", "count"),
    ("storage.append_bytes_per_txn", "bytes"),
    ("storage.sync_calls", "count"),
    ("storage.sync_ms_total", "ms"),
    ("storage.atomic_writes", "count"),
    ("storage.atomic_write_bytes", "bytes"),
    ("storage.atomic_write_ms_total", "ms"),
    ("service.rounds", "count"),
    ("service.round_ops_mean", "ops"),
    ("service.round_ms_p50", "ms"),
    ("service.round_ms_p99", "ms"),
    ("service.busy_frac", "frac"),
    ("service.staleness_rounds_max", "count"),
    ("read.read_us_p50", "us"),
    ("read.read_us_p99", "us"),
    ("read.snapshot_us_p50", "us"),
    ("read.query_us_p50", "us"),
    ("durable.transient_retries", "count"),
    ("durable.degraded_ms", "ms"),
    ("durable.committer_restarts", "count"),
    ("cluster.seam_ratio", "ratio"),
    ("cluster.shard_live_max_over_min", "ratio"),
    ("cluster.worker_append_bytes", "bytes"),
    ("loadgen.lag_ms_p99", "ms"),
    ("loadgen.lag_ms_max", "ms"),
    ("trace.overhead_frac", "frac"),
];

const WORKLOADS: &[&str] = &["paper-insert", "churn", "serve", "cluster-churn"];

/// Where traced runs write spans and `serve` keeps its storage, relative
/// to the directory the benchmark runs from.
pub const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=600"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The host and run tags printed before the result line and written at
/// the head of the span file.
fn meta_line(args: &Args, out: &Outcome) -> String {
    let mut s = format!(
        "{{\"meta\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"host\":{{\"available_parallelism\":{},\"cpu_model\":{}}},\"params\":{{",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        stats::available_parallelism(),
        json_str(&stats::cpu_model()),
    );
    for (i, (k, v)) in out.params.iter().enumerate() {
        let _ = write!(
            s,
            "{}{}:{}",
            if i == 0 { "" } else { "," },
            json_str(k),
            json_str(v)
        );
    }
    let _ = write!(s, "}},\"errors\":[");
    for (i, e) in out.errors.iter().enumerate() {
        let _ = write!(s, "{}{}", if i == 0 { "" } else { "," }, json_str(e));
    }
    s.push_str("]}}");
    s
}

fn result_line(out: &Outcome, trace: bool) -> Result<String, String> {
    let (wanted, got) = if trace {
        (LAYERS, &out.layers)
    } else {
        (E2E, &out.e2e)
    };
    let mut s = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        out.failed == 0,
        out.attempted,
        out.failed
    );
    for (i, &(name, unit)) in wanted.iter().enumerate() {
        let value = match got.iter().find(|m| m.name == name) {
            Some(m) if m.unit != unit => {
                return Err(format!("{name}: unit {} but {unit} expected", m.unit))
            }
            Some(m) if !m.value.is_finite() => {
                return Err(format!("{name}: non-finite value {}", m.value))
            }
            Some(m) => m.value,
            None if trace => 0.0,
            None => return Err(format!("{name}: not measured")),
        };
        let _ = write!(
            s,
            "{}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}",
            if i == 0 { "" } else { "," }
        );
    }
    s.push_str("}}");
    Ok(s)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut out = Outcome::default();
    out.param(
        "cpus_used_by_load",
        "1 caller thread (serve: 1 writer + 1 reader)",
    );
    match args.workload.as_str() {
        "paper-insert" => flat::run(
            &flat::PAPER_INSERT,
            args.seed,
            args.seconds,
            args.trace,
            &mut out,
        ),
        "churn" => flat::run(&flat::CHURN, args.seed, args.seconds, args.trace, &mut out),
        "serve" => serve::run(args.seed, args.seconds, args.trace, &mut out),
        "cluster-churn" => cluster::run(args.seed, args.seconds, args.trace, &mut out),
        _ => unreachable!("workload validated by parse_args"),
    }
    let ok = out.attempted - out.failed.min(out.attempted);
    out.e2e(
        "ops_ok_frac",
        "frac",
        ok as f64 / out.attempted.max(1) as f64,
    );
    for e in &out.errors {
        eprintln!("perfbench: failed: {e}");
    }
    let meta = meta_line(&args, &out);
    if args.trace {
        let path =
            PathBuf::from(OUT_DIR).join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        let spans = trace::drain();
        if let Err(e) = trace::write_file(&path, &meta, &spans) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!(
            "perfbench: {} spans written to {}",
            spans.len(),
            path.display()
        );
    }
    match result_line(&out, args.trace) {
        Ok(line) => {
            println!("{meta}");
            println!("{line}");
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
