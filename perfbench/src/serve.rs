//! `serve`: a durable `MaintainerService` over `DiskStorage`, fed by one
//! open-loop writer on a fixed rate ladder while one open-loop reader
//! takes snapshots and runs the query mix.
//!
//! The writer sends insert-only batches on a schedule fixed in advance
//! and never slows down for the service: a full staging area sheds the
//! batch (`try_stage`), it does not queue. A batch's visibility latency
//! runs from its scheduled send time to the first snapshot the reader
//! sees whose transaction count covers it.

use crate::closed::read_once;
use crate::flat::repeat_setup;
use crate::inputs::{self, QueryMix};
use crate::probes;
use crate::stats::{median, ms, quantile, us, windowed_quantile, Outcome};
use crate::storage::{CountingStorage, StorageTotals};
use crate::trace;
use fup_core::service::{CommitPolicy, MaintainerService, ServiceError};
use fup_core::{DurabilityPolicy, Maintainer};
use fup_mining::{MinConfidence, MinSupport};
use fup_tidb::{DiskStorage, DurableStorage, Transaction, TransactionDb, UpdateBatch};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub const BASE_N: u64 = 100_000;
/// Bootstraps per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
pub const MINSUP_BP: u64 = 200;
/// Transactions per staged batch.
pub const BATCH: usize = 10;
/// The rate ladder: offered load in transactions per second and the
/// share of `--seconds` each step lasts. The first step is the reference
/// load every latency metric is read at; the steps above it only decide
/// `max_tps_slo`.
pub const LADDER: [(u64, f64); 3] = [(8_000, 0.6), (16_000, 0.2), (32_000, 0.2)];
/// The latency objective behind `max_tps_slo`: a step meets it when its
/// batches' visibility p99 stays under this limit, nothing is shed and
/// the staged backlog at the step's end would drain within the limit.
pub const VISIBLE_P99_LIMIT_MS: f64 = 300.0;
/// Staging capacity in ops; a batch arriving at a full area is shed.
pub const STAGING_CAP: u64 = 40_000;
/// Slices of the reference step; its latency metrics are the median of
/// the per-slice percentiles.
pub const WINDOWS: u32 = 8;
/// The reader's schedule.
pub const READ_PERIOD: Duration = Duration::from_millis(1);

/// WAL records reach the operating system on every append but are not
/// fsynced; checkpoints (written atomically, with fsync) keep the default
/// cadence. With WAL fsync on, `try_stage` waits behind the committer's
/// fsync, and on a 2-CPU virtual machine with a shared disk the fsync
/// latency moved the p99 of `try_stage` by a factor of three between runs.
fn durability() -> DurabilityPolicy {
    DurabilityPolicy {
        fsync: false,
        ..DurabilityPolicy::default()
    }
}

fn commit_policy() -> CommitPolicy {
    CommitPolicy::manual()
        .every_ops(1)
        .staging_capacity(STAGING_CAP)
        .with_poll_interval(Duration::from_millis(1))
}

/// One accepted batch: id, ladder step, scheduled send time, live
/// transactions once it is applied, and its `try_stage` wall time.
struct Accepted {
    id: u64,
    step: usize,
    sched: Instant,
    covers: u64,
    stage: Duration,
}

#[derive(Default)]
struct Writer {
    accepted: Vec<Accepted>,
    shed: Vec<usize>,
    lag_ms: Vec<f64>,
    /// `(time, staged backlog ops, staleness rounds)` samples.
    backlog: Vec<(Instant, u64, u64)>,
    /// Committed rounds when each step began, and when the last ended.
    step_rounds: Vec<u64>,
    errors: Vec<String>,
}

#[derive(Default)]
struct Reader {
    /// `(start, snapshot µs, query µs)` of every read.
    reads: Vec<(Instant, f64, f64)>,
    /// `(time, live transactions)` each time the count changed.
    seen: Vec<(Instant, u64)>,
}

/// One pass of the ladder against a fresh service, with its samples.
struct Pass {
    writer: Writer,
    reader: Reader,
    /// `(step, scheduled send, visibility ms)` of every seen batch.
    visible_ms: Vec<(usize, Instant, f64)>,
    steps: Vec<(Instant, Instant)>,
    /// Every round since setup, oldest first; round `i` here is the
    /// service's committed round `rounds_before + i`.
    latencies_ms: Vec<f64>,
    rounds_before: u64,
    committed_ops: u64,
    wall: Duration,
    maintainer: Maintainer,
    metrics: fup_core::ServiceMetrics,
    health: fup_core::ServiceHealth,
    last_round_checked: u64,
    setup: Vec<f64>,
    storage: StorageTotals,
    staged_txns: u64,
    errors: Vec<String>,
    /// Storage directories of this pass's services; removed by `Drop`.
    dirs: Vec<PathBuf>,
}

impl Drop for Pass {
    fn drop(&mut self) {
        for d in &self.dirs {
            let _ = std::fs::remove_dir_all(d);
        }
    }
}

/// A fresh directory for one service's storage, inside the run directory.
fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    PathBuf::from(crate::OUT_DIR).join(format!(
        "serve-{}-{tag}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

fn run_pass(
    base: &[Transaction],
    batches: &[Vec<Transaction>],
    seconds: u64,
    setup_reps: usize,
    counting: bool,
) -> Pass {
    let minsup = MinSupport::basis_points(MINSUP_BP);
    let minconf = MinConfidence::percent(crate::flat::MIN_CONF_PCT);
    let dirs: Mutex<Vec<PathBuf>> = Mutex::new(Vec::new());
    let counters: Mutex<Vec<Arc<CountingStorage>>> = Mutex::new(Vec::new());
    let base_vec = base.to_vec();
    let (service, setup) = repeat_setup(setup_reps, &base_vec, |base| {
        let dir = scratch_dir("svc");
        dirs.lock().expect("dirs").push(dir.clone());
        let disk: Arc<dyn DurableStorage> =
            Arc::new(DiskStorage::open(&dir).expect("open the service directory"));
        let storage = if counting {
            let c = Arc::new(CountingStorage::new(disk));
            counters.lock().expect("counters").push(Arc::clone(&c));
            c as Arc<dyn DurableStorage>
        } else {
            disk
        };
        let m = Maintainer::builder()
            .min_support(minsup)
            .min_confidence(minconf)
            .durability(durability())
            .build_durable(base, storage)
            .expect("durable bootstrap");
        MaintainerService::launch(m, commit_policy()).expect("valid commit policy")
    });
    let counter = counters.lock().expect("counters").last().cloned();
    let storage_before = counter.as_ref().map(|c| c.totals()).unwrap_or_default();
    let mix = QueryMix::from_large(service.snapshot().large_itemsets());
    let rounds_before = service.metrics().committed_rounds;
    let ops_before = service.metrics().committed_inserts;
    let start = Instant::now() + Duration::from_millis(20);
    let mut steps: Vec<(Instant, Instant)> = Vec::new();
    let mut at = start;
    for &(_, share) in &LADDER {
        let end = at + Duration::from_secs_f64(seconds as f64 * share);
        steps.push((at, end));
        at = end;
    }
    let stop = AtomicBool::new(false);
    let final_n = AtomicU64::new(u64::MAX);
    let base_n = base.len() as u64;

    let (writer, reader, report, wall) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut r = Reader::default();
            let mut next = start;
            let mut last_n = u64::MAX;
            let deadline = steps.last().expect("steps").1 + Duration::from_secs(60);
            let mut j = 0usize;
            loop {
                let now = Instant::now();
                if now < next {
                    std::thread::sleep(next - now);
                }
                // Missed slots are skipped, not replayed in a burst.
                next = (next + READ_PERIOD).max(Instant::now());
                let mut n = 0;
                let read_at = Instant::now();
                let (snap_t, query_t) = read_once(
                    || {
                        let s = service.snapshot();
                        n = s.num_transactions();
                        s
                    },
                    &mix,
                    j,
                );
                j += 1;
                let seen_at = Instant::now();
                r.reads.push((read_at, us(snap_t), us(query_t)));
                if n != last_n {
                    r.seen.push((seen_at, n));
                    last_n = n;
                }
                if stop.load(Ordering::SeqCst) && n >= final_n.load(Ordering::SeqCst) {
                    break;
                }
                if seen_at > deadline {
                    break;
                }
            }
            r
        });
        let writer = scope.spawn(|| {
            let mut w = Writer::default();
            let mut covers = base_n;
            let mut id = 0u64;
            let mut batches = batches.iter();
            for (k, &(tps, _)) in LADDER.iter().enumerate() {
                w.step_rounds.push(service.metrics().committed_rounds);
                let gap = Duration::from_secs_f64(BATCH as f64 / tps as f64);
                let (step_start, step_end) = steps[k];
                let mut sched = step_start;
                while sched < step_end {
                    let batch = batches.next().expect("enough batches for the ladder");
                    let batch = UpdateBatch::insert_only(batch.clone());
                    let now = Instant::now();
                    if now < sched {
                        std::thread::sleep(sched - now);
                    }
                    let sent = Instant::now();
                    w.lag_ms.push(ms(sent - sched));
                    let staged = {
                        let _span = trace::span_batch("service.try_stage", Some(id));
                        service.try_stage(batch)
                    };
                    let stage = sent.elapsed();
                    match staged {
                        Ok(()) => {
                            covers += BATCH as u64;
                            w.accepted.push(Accepted {
                                id,
                                step: k,
                                sched,
                                covers,
                                stage,
                            });
                        }
                        Err(ServiceError::WouldBlock { .. }) => w.shed.push(k),
                        Err(e) => w.errors.push(format!("batch {id}: try_stage: {e}")),
                    }
                    if id.is_multiple_of(16) {
                        let m = service.metrics();
                        w.backlog.push((
                            Instant::now(),
                            m.backlog_ops,
                            m.snapshot_staleness_rounds,
                        ));
                    }
                    id += 1;
                    sched += gap;
                }
            }
            w.step_rounds.push(service.metrics().committed_rounds);
            w
        });
        let writer = writer.join().expect("writer thread");
        let report = {
            let _span = trace::span("service.flush");
            service.flush()
        };
        let wall = start.elapsed();
        final_n.store(
            writer.accepted.last().map_or(base_n, |a| a.covers),
            Ordering::SeqCst,
        );
        stop.store(true, Ordering::SeqCst);
        let reader = reader.join().expect("reader thread");
        (writer, reader, report, wall)
    });

    let mut errors = Vec::new();
    let last_round_checked = match &report {
        Ok(r) => r.stats.total_candidates_checked(),
        Err(e) => {
            errors.push(format!("flush: {e}"));
            0
        }
    };
    let latencies_ms: Vec<f64> = service
        .round_latencies()
        .iter()
        .map(|&u| u as f64 / 1e3)
        .collect();
    let health = service.health();
    let (maintainer, metrics) = {
        let _span = trace::span("service.shutdown");
        service.shutdown()
    };
    let storage = counter
        .map(|c| c.totals() - storage_before)
        .unwrap_or_default();
    let rounds = metrics.committed_rounds - rounds_before;
    let latencies_ms = latencies_ms[latencies_ms.len() - rounds as usize..].to_vec();

    // Visibility: the first observation covering each accepted batch.
    let mut visible_ms = Vec::with_capacity(writer.accepted.len());
    let mut seen = reader.seen.iter().peekable();
    for a in &writer.accepted {
        while seen.peek().is_some_and(|&&(_, n)| n < a.covers) {
            seen.next();
        }
        match seen.peek() {
            Some(&&(at, _)) => {
                trace::event_at("service.visible", Some(a.id), at);
                visible_ms.push((a.step, a.sched, ms(at.saturating_duration_since(a.sched))));
            }
            None => errors.push(format!("batch {} was never seen by the reader", a.id)),
        }
    }
    let staged_txns = writer.accepted.len() as u64 * BATCH as u64;
    Pass {
        writer,
        reader,
        visible_ms,
        steps,
        latencies_ms,
        rounds_before,
        committed_ops: metrics.committed_inserts - ops_before,
        wall,
        maintainer,
        metrics,
        health,
        last_round_checked,
        setup,
        storage,
        staged_txns,
        errors,
        dirs: dirs.into_inner().expect("dirs"),
    }
}

/// Transactions the reader saw applied within `[from, to)`; `seen`
/// starts at the base size.
fn delivered(seen: &[(Instant, u64)], from: Instant, to: Instant) -> u64 {
    let at = |t: Instant| {
        seen.iter()
            .take_while(|&&(s, _)| s <= t)
            .last()
            .or(seen.first())
            .map_or(0, |&(_, n)| n)
    };
    at(to).saturating_sub(at(from))
}

pub fn run(seed: u64, seconds: u64, traced: bool, out: &mut Outcome) {
    let minsup = MinSupport::basis_points(MINSUP_BP);
    let minconf = MinConfidence::percent(crate::flat::MIN_CONF_PCT);
    out.param("base_transactions", BASE_N);
    out.param("generator", "T10.I4 (QuestGenerator, paper defaults)");
    out.param("minsup_bp", MINSUP_BP);
    out.param("minconf_pct", crate::flat::MIN_CONF_PCT);
    out.param("batch_transactions", BATCH);
    out.param("ladder_tps_and_share", format!("{LADDER:?}"));
    out.param("reference_tps", LADDER[0].0);
    out.param("visible_p99_limit_ms", VISIBLE_P99_LIMIT_MS);
    out.param("staging_capacity_ops", STAGING_CAP);
    out.param(
        "flush_policy",
        "DiskStorage; WAL appended per batch without fsync; atomic fsynced checkpoint \
         every 8 rounds (default)",
    );
    out.param(
        "commit_policy",
        "commit whenever anything is staged (every_ops 1)",
    );
    out.param("read_period_ms", READ_PERIOD.as_secs_f64() * 1e3);
    out.param("setup_reps", SETUP_REPS);
    out.param("remine_budget_s", crate::flat::REMINE_BUDGET_S);
    // Enough transactions for every step, with a second of slack.
    let total_txns: u64 = LADDER
        .iter()
        .map(|&(tps, share)| (tps as f64 * (seconds as f64 * share + 1.0)) as u64)
        .sum();
    let stream = inputs::stream(seed, BASE_N, 1, total_txns, 0);
    let increments: Vec<Vec<Transaction>> = stream.rounds[0]
        .inserts
        .chunks(BATCH)
        .map(<[Transaction]>::to_vec)
        .collect();
    let _ = std::fs::create_dir_all(crate::OUT_DIR);
    let at_step = |p: &Pass, k: usize| -> Vec<f64> {
        p.visible_ms
            .iter()
            .filter(|v| v.0 == k)
            .map(|v| v.2)
            .collect()
    };

    let untraced_p50 = traced.then(|| {
        let p = run_pass(&stream.base, &increments, seconds, 1, false);
        trace::set_enabled(true);
        let v: Vec<f64> = at_step(&p, 0);
        median(&v)
    });
    let mut p = run_pass(&stream.base, &increments, seconds, SETUP_REPS, traced);
    let maintained = p.maintainer.large_itemsets().clone();
    // A checkpoint first, untimed, so that no re-mine also pays for one
    // the checkpoint cadence happens to make due.
    if let Err(e) = p.maintainer.checkpoint() {
        out.check(false, || format!("checkpoint before re-mine: {e}"));
    }
    let remine_s = median(&crate::flat::remine_samples(
        crate::flat::REMINE_BUDGET_S,
        || {
            p.maintainer.remine();
        },
    ));
    let rss = crate::stats::peak_rss_mb();

    // Output checks, outside every timer.
    let accepted = &p.writer.accepted;
    let offered = accepted.len() + p.writer.shed.len() + p.writer.errors.len();
    out.attempted += offered as u64;
    out.failed += (p.writer.shed.len() + p.writer.errors.len()) as u64;
    out.errors.extend(p.writer.errors.iter().cloned());
    for e in &p.errors {
        out.check(false, || e.clone());
    }
    let live = TransactionDb::from_transactions(
        stream
            .base
            .iter()
            .chain(
                accepted
                    .iter()
                    .flat_map(|a| increments[a.id as usize].iter()),
            )
            .cloned(),
    );
    let n_live = live.len() as u64;
    out.check(p.maintainer.len() as u64 == n_live, || {
        format!(
            "final state holds {} transactions, base plus accepted batches is {n_live}",
            p.maintainer.len()
        )
    });
    let b = probes::baselines(&live, minsup, traced);
    probes::same(&maintained, &b.apriori.large, "serve vs Apriori", out);
    probes::same(
        p.maintainer.large_itemsets(),
        &b.apriori.large,
        "remine vs Apriori",
        out,
    );

    // End-to-end metrics: latencies at the reference step, throughput
    // over the whole run, `max_tps_slo` over the ladder.
    let (r0, r1) = (p.writer.step_rounds[0], p.writer.step_rounds[1]);
    let first = p.rounds_before;
    let ref_rounds = &p.latencies_ms[(r0 - first) as usize..(r1 - first) as usize];
    let (from, to) = p.steps[0];
    let ref_visible: Vec<(Instant, f64)> = p
        .visible_ms
        .iter()
        .filter(|v| v.0 == 0)
        .map(|v| (v.1, v.2))
        .collect();
    let ref_stage: Vec<(Instant, f64)> = accepted
        .iter()
        .filter(|a| a.step == 0)
        .map(|a| (a.sched, ms(a.stage)))
        .collect();
    let ref_reads: Vec<(Instant, f64)> = p.reader.reads.iter().map(|r| (r.0, r.1 + r.2)).collect();
    let windowed = |v: &[(Instant, f64)], q| windowed_quantile(v, from, to, WINDOWS, q);
    out.e2e("setup_s", "s", median(&p.setup));
    out.e2e("round_ms_p50", "ms", quantile(ref_rounds, 0.5));
    out.e2e("round_ms_p90", "ms", quantile(ref_rounds, 0.9));
    let busy_s = p.latencies_ms.iter().sum::<f64>() / 1e3;
    out.e2e("update_ops_per_s", "1/s", p.committed_ops as f64 / busy_s);
    out.e2e("remine_s", "s", remine_s);
    out.e2e("visible_ms_p50", "ms", windowed(&ref_visible, 0.5));
    out.e2e("visible_ms_p99", "ms", windowed(&ref_visible, 0.99));
    let mut max_tps = 0.0;
    for (k, &(tps, _)) in LADDER.iter().enumerate() {
        let (from, to) = p.steps[k];
        let p99 = quantile(&at_step(&p, k), 0.99);
        let shed = p.writer.shed.iter().filter(|&&s| s == k).count();
        let tail = from + (to - from).mul_f64(0.9);
        let end_backlog = p
            .writer
            .backlog
            .iter()
            .filter(|b| b.0 >= tail && b.0 < to)
            .map(|b| b.1)
            .max()
            .unwrap_or(0);
        let drains = (end_backlog as f64) <= tps as f64 * VISIBLE_P99_LIMIT_MS / 1e3;
        let rate = delivered(&p.reader.seen, from, to) as f64 / (to - from).as_secs_f64();
        eprintln!(
            "serve: step {k} offered {tps} txn/s: visible p99 {p99:.1} ms, shed {shed}, \
             end backlog {end_backlog} ops, delivered {rate:.0} txn/s"
        );
        if p99 < VISIBLE_P99_LIMIT_MS && shed == 0 && drains {
            max_tps = rate;
        }
    }
    out.e2e("max_tps_slo", "txn/s", max_tps);
    out.e2e("peak_rss_mb", "MiB", rss);

    if let Some(untraced) = untraced_p50 {
        let m = &p.metrics;
        out.layer("session.index_builds", "count", m.index_builds as f64);
        out.layer("session.index_extends", "count", m.index_extends as f64);
        out.layer(
            "staging.stage_us_p50",
            "us",
            windowed(&ref_stage, 0.5) * 1e3,
        );
        out.layer("staging.stage_ms_p99", "ms", windowed(&ref_stage, 0.99));
        out.layer("read.read_us_p50", "us", windowed(&ref_reads, 0.5));
        out.layer("read.read_us_p99", "us", windowed(&ref_reads, 0.99));
        out.layer("staging.max_backlog_ops", "ops", m.max_backlog_ops as f64);
        out.layer(
            "staging.backpressure_rejections",
            "count",
            m.backpressure_rejections as f64,
        );
        let s = &p.storage;
        out.layer("storage.append_calls", "count", s.append_calls as f64);
        out.layer(
            "storage.append_bytes_per_txn",
            "bytes",
            s.append_bytes as f64 / p.staged_txns.max(1) as f64,
        );
        out.layer("storage.sync_calls", "count", s.sync_calls as f64);
        out.layer("storage.sync_ms_total", "ms", s.sync_ms);
        out.layer("storage.atomic_writes", "count", s.atomic_writes as f64);
        out.layer("storage.atomic_write_bytes", "bytes", s.atomic_bytes as f64);
        out.layer("storage.atomic_write_ms_total", "ms", s.atomic_ms);
        let rounds = p.latencies_ms.len();
        out.layer("service.rounds", "count", rounds as f64);
        out.layer(
            "service.round_ops_mean",
            "ops",
            p.committed_ops as f64 / rounds.max(1) as f64,
        );
        out.layer("service.round_ms_p50", "ms", quantile(&p.latencies_ms, 0.5));
        out.layer(
            "service.round_ms_p99",
            "ms",
            quantile(&p.latencies_ms, 0.99),
        );
        out.layer("service.busy_frac", "frac", busy_s / p.wall.as_secs_f64());
        out.layer(
            "service.staleness_rounds_max",
            "count",
            p.writer.backlog.iter().map(|b| b.2).max().unwrap_or(0) as f64,
        );
        let snap: Vec<f64> = p.reader.reads.iter().map(|r| r.1).collect();
        let query: Vec<f64> = p.reader.reads.iter().map(|r| r.2).collect();
        out.layer("read.snapshot_us_p50", "us", quantile(&snap, 0.5));
        out.layer("read.query_us_p50", "us", quantile(&query, 0.5));
        out.layer(
            "durable.transient_retries",
            "count",
            p.health.transient_retries as f64,
        );
        out.layer("durable.degraded_ms", "ms", p.health.degraded_ms as f64);
        out.layer(
            "durable.committer_restarts",
            "count",
            p.health.committer_restarts as f64,
        );
        out.layer("loadgen.lag_ms_p99", "ms", quantile(&p.writer.lag_ms, 0.99));
        out.layer(
            "loadgen.lag_ms_max",
            "ms",
            p.writer.lag_ms.iter().copied().fold(0.0, f64::max),
        );
        probes::paper_layers(
            out,
            &b,
            quantile(ref_rounds, 0.5) / 1e3,
            p.last_round_checked,
        );
        let tail = &live.raw()[live.len().saturating_sub(crate::flat::INSERTS as usize)..];
        probes::kernels(out, &live, tail, &maintained, minconf);
        out.layer(
            "trace.overhead_frac",
            "frac",
            windowed(&ref_visible, 0.5) / untraced - 1.0,
        );
    }
}
