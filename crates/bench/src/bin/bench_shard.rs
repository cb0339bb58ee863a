//! `bench_shard` — tid-range sharding benchmark, emitting a
//! machine-readable `BENCH_shard.json` for the perf trajectory (CI runs
//! this briefly on every push).
//!
//! Replays one maintenance workload — a `T10.I4` base corpus followed by
//! N update rounds of fresh inserts plus a contiguous window of deletes —
//! through sessions at each requested shard count (always including one
//! shard, the baseline), all on the vertical backend. After **every**
//! round, every session is certified **bit-identical** to an untimed
//! reference run of a default session (itemsets with supports, rules with
//! counts, the live tid view) before any number is reported; the scaling
//! curve never certifies a broken merge.
//!
//! The measured effect is *scan volume*, not thread parallelism, so the
//! curve is meaningful on any CPU count: the delete window is contiguous,
//! so under a coarse stripe it lands on one shard per round — the
//! one-shard session must rebuild its whole persistent index every round
//! (its base shrank), while a multi-shard session rebuilds only the
//! touched shard and *extends* the rest. A default session *is* a
//! one-shard session, so the one-shard row is the baseline every speedup
//! is measured against, and the JSON's `flat` object repeats it.
//! `--min-shard-speedup` gates the best shard count's maintenance-round
//! speedup over that baseline (0 disables; CI asserts the sharded path
//! wins on the churn workload).
//!
//! A second scenario generates a Zipf-skewed corpus (`--item-skew`, the
//! `fup_datagen` knob added alongside sharding) and certifies one
//! maintenance round bit-identical under skew too, reporting the
//! shard-size balance (striping routes by tid, so shard sizes stay
//! balanced however skewed the *items* are).
//!
//! ```text
//! bench_shard [--out PATH] [--transactions N] [--rounds R]
//!             [--increment D] [--deletes K] [--shards S1,S2,..]
//!             [--stripe W] [--minsup-bp B] [--threads T] [--reps R]
//!             [--seed S] [--item-skew Z] [--min-shard-speedup X]
//! ```

use fup_core::{IndexStats, Maintainer};
use fup_datagen::{corpus, GenParams, QuestGenerator};
use fup_mining::{CountingBackend, LargeItemsets, MinConfidence, MinSupport, RuleSet};
use fup_tidb::{ShardSpec, Tid, Transaction, UpdateBatch};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

struct Options {
    out: String,
    transactions: u64,
    rounds: usize,
    increment: u64,
    deletes: u64,
    shards: Vec<u32>,
    stripe: u64,
    minsup_bp: u64,
    threads: usize,
    reps: usize,
    seed: u64,
    item_skew: f64,
    /// Exit non-zero unless the best shard count beats the one-shard
    /// session's maintenance-round total by this factor (0.0 disables).
    min_shard_speedup: f64,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        out: "BENCH_shard.json".to_string(),
        transactions: 50_000,
        rounds: 8,
        increment: 500,
        deletes: 64,
        shards: vec![1, 2, 4, 8],
        stripe: 1024,
        minsup_bp: 200,
        threads: 1,
        reps: 2,
        seed: 1996,
        item_skew: 1.0,
        min_shard_speedup: 0.0,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match arg.as_str() {
            "--out" => opts.out = value("--out")?,
            "--transactions" => {
                opts.transactions = value("--transactions")?
                    .parse()
                    .map_err(|e| format!("--transactions: {e}"))?
            }
            "--rounds" => {
                opts.rounds = value("--rounds")?
                    .parse()
                    .map_err(|e| format!("--rounds: {e}"))?
            }
            "--increment" => {
                opts.increment = value("--increment")?
                    .parse()
                    .map_err(|e| format!("--increment: {e}"))?
            }
            "--deletes" => {
                opts.deletes = value("--deletes")?
                    .parse()
                    .map_err(|e| format!("--deletes: {e}"))?
            }
            "--shards" => {
                opts.shards = value("--shards")?
                    .split(',')
                    .map(|s| s.trim().parse().map_err(|e| format!("--shards: {e}")))
                    .collect::<Result<Vec<u32>, String>>()?;
            }
            "--stripe" => {
                opts.stripe = value("--stripe")?
                    .parse()
                    .map_err(|e| format!("--stripe: {e}"))?
            }
            "--minsup-bp" => {
                opts.minsup_bp = value("--minsup-bp")?
                    .parse()
                    .map_err(|e| format!("--minsup-bp: {e}"))?
            }
            "--threads" => {
                opts.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--reps" => {
                opts.reps = value("--reps")?
                    .parse()
                    .map_err(|e| format!("--reps: {e}"))?
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--item-skew" => {
                opts.item_skew = value("--item-skew")?
                    .parse()
                    .map_err(|e| format!("--item-skew: {e}"))?
            }
            "--min-shard-speedup" => {
                opts.min_shard_speedup = value("--min-shard-speedup")?
                    .parse()
                    .map_err(|e| format!("--min-shard-speedup: {e}"))?
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if opts.reps == 0 || opts.threads == 0 || opts.rounds == 0 {
        return Err("--reps, --threads and --rounds must be at least 1".into());
    }
    if opts.shards.is_empty() || opts.shards.contains(&0) {
        return Err("--shards needs explicit counts ≥ 1".into());
    }
    if opts.deletes * opts.rounds as u64 >= opts.transactions {
        return Err("delete schedule would drain the base corpus".into());
    }
    Ok(opts)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The live tid view, sorted, for exact store comparison.
fn live(m: &Maintainer) -> Vec<(Tid, Transaction)> {
    let mut v: Vec<(Tid, Transaction)> = m.store().iter().map(|(t, x)| (t, x.clone())).collect();
    v.sort_unstable_by_key(|&(t, _)| t);
    v
}

/// One round's reference state, snapshotted so every replay can be
/// certified against it without re-running the reference.
struct RefState {
    large: LargeItemsets,
    rules: RuleSet,
    live: Vec<(Tid, Transaction)>,
}

fn snapshot(m: &Maintainer) -> RefState {
    RefState {
        large: m.large_itemsets().clone(),
        rules: m.rules().clone(),
        live: live(m),
    }
}

/// The bit-identity contract the curve is conditioned on.
fn assert_bit_identical(reference: &RefState, sharded: &Maintainer, label: &str) {
    assert!(
        sharded.large_itemsets().same_itemsets(&reference.large),
        "{label}: itemsets/supports diverge: {:?}",
        sharded.large_itemsets().diff(&reference.large)
    );
    assert_eq!(sharded.rules(), &reference.rules, "{label}: rules diverge");
    assert_eq!(live(sharded), reference.live, "{label}: live view diverges");
}

fn builder(opts: &Options) -> fup_core::MaintainerBuilder {
    Maintainer::builder()
        .min_support(MinSupport::basis_points(opts.minsup_bp))
        .min_confidence(MinConfidence::percent(50))
        .backend(CountingBackend::Vertical)
        .threads(opts.threads)
}

/// One timed replay: bootstrap the session, then apply every batch,
/// timing only the `build` and `apply` calls (identity checks and stat
/// collection stay outside the clock).
struct Replay {
    bootstrap: Duration,
    rounds_total: Duration,
    session: Maintainer,
}

fn replay(
    opts: &Options,
    history: &[Transaction],
    batches: &[UpdateBatch],
    spec: ShardSpec,
    reference: Option<&[RefState]>,
    label: &str,
) -> Replay {
    let b = builder(opts).shard_spec(spec);
    let start = Instant::now();
    let mut session = b.build(history.to_vec()).expect("valid shard spec");
    let bootstrap = start.elapsed();
    if let Some(refs) = reference {
        assert_bit_identical(&refs[0], &session, &format!("{label} bootstrap"));
    }
    let mut rounds_total = Duration::ZERO;
    for (round, batch) in batches.iter().enumerate() {
        let start = Instant::now();
        session.apply(batch.clone()).expect("maintenance round");
        rounds_total += start.elapsed();
        if let Some(refs) = reference {
            assert_bit_identical(
                &refs[round + 1],
                &session,
                &format!("{label} round {}", round + 1),
            );
        }
    }
    session.verify_consistency().expect("consistent session");
    Replay {
        bootstrap,
        rounds_total,
        session,
    }
}

struct ShardRow {
    shards: u32,
    bootstrap_ms: f64,
    rounds_ms: f64,
    speedup: f64,
    stats: IndexStats,
    shard_lens: Vec<usize>,
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("bench_shard: {e}");
            std::process::exit(2);
        }
    };
    let params = corpus::t10_i4_d100_d1()
        .with_seed(opts.seed)
        .with_increment(opts.increment);
    let params = GenParams {
        num_transactions: opts.transactions,
        ..params
    };
    eprintln!(
        "generating {} corpus ({} transactions, {} rounds x {} inserts / {} deletes)...",
        params.name(),
        opts.transactions,
        opts.rounds,
        opts.increment,
        opts.deletes,
    );
    let mut gen = QuestGenerator::new(params);
    let history = gen.generate(opts.transactions);
    // Round r inserts a fresh slice of the stream and deletes the next
    // contiguous window of original tids — under the coarse stripe the
    // window lands on one shard, so only that shard's index must rebuild.
    let batches: Vec<UpdateBatch> = (0..opts.rounds)
        .map(|r| UpdateBatch {
            inserts: gen.generate(opts.increment),
            deletes: (r as u64 * opts.deletes..(r as u64 + 1) * opts.deletes)
                .map(Tid)
                .collect(),
        })
        .collect();

    // Reference, run once untimed on a default session: per-round state
    // snapshots every replay certifies against.
    let mut reference: Vec<RefState> = Vec::with_capacity(opts.rounds + 1);
    {
        let mut m = builder(&opts).build(history.clone()).unwrap();
        reference.push(snapshot(&m));
        for batch in &batches {
            m.apply(batch.clone()).unwrap();
            reference.push(snapshot(&m));
        }
    }

    // One shard first: it is the baseline the other rows are timed against.
    let mut counts = opts.shards.clone();
    counts.push(1);
    counts.sort_unstable();
    counts.dedup();
    let mut rows: Vec<ShardRow> = Vec::new();
    for &shards in &counts {
        let spec = ShardSpec::striped_with(shards, opts.stripe);
        let mut boot = Duration::MAX;
        let mut rounds = Duration::MAX;
        let mut last = None;
        for rep in 0..opts.reps {
            // Certify only on the first rep; later reps are pure timing.
            let refs = (rep == 0).then_some(reference.as_slice());
            let r = replay(
                &opts,
                &history,
                &batches,
                spec.clone(),
                refs,
                &format!("{shards} shard(s)"),
            );
            boot = boot.min(r.bootstrap);
            rounds = rounds.min(r.rounds_total);
            last = Some(r.session);
        }
        let session = last.expect("--reps is at least 1");
        let (stats, shard_lens) = (session.index_stats(), session.store().shard_lens());
        let baseline_ms = rows.first().map_or(ms(rounds), |b| b.rounds_ms);
        let speedup = baseline_ms / ms(rounds).max(1e-6);
        eprintln!(
            "{shards} shard(s): bootstrap {:.1} ms, rounds {:.1} ms -> {speedup:.2}x \
             ({} builds, {} extends, shard lens {:?})",
            ms(boot),
            ms(rounds),
            stats.builds,
            stats.extends,
            shard_lens,
        );
        rows.push(ShardRow {
            shards,
            bootstrap_ms: ms(boot),
            rounds_ms: ms(rounds),
            speedup,
            stats,
            shard_lens,
        });
    }
    let baseline = &rows[0];

    // ---- skewed-corpus scenario: identity + shard balance under Zipf --
    // Item popularity is skewed (the datagen knob), tids stay striped, so
    // the shards must remain size-balanced and — far more importantly —
    // the merged mining state must stay bit-identical to flat even when
    // the hot items concentrate on a few ids.
    let skew = {
        let shards = *opts.shards.iter().max().expect("non-empty shard list");
        let skew_params = corpus::t10_i4_d100_d1()
            .with_seed(opts.seed ^ 0x5eed)
            .with_increment(opts.increment)
            .with_item_skew(opts.item_skew);
        let skew_params = GenParams {
            num_transactions: opts.transactions / 4,
            ..skew_params
        };
        let mut gen = QuestGenerator::new(skew_params);
        let history = gen.generate(opts.transactions / 4);
        let batch = UpdateBatch {
            inserts: gen.generate(opts.increment),
            deletes: (0..opts.deletes).map(Tid).collect(),
        };
        let mut flat = builder(&opts).build(history.clone()).unwrap();
        let mut sharded = builder(&opts)
            .shard_spec(ShardSpec::striped_with(shards, opts.stripe))
            .build(history)
            .unwrap();
        flat.apply(batch.clone()).unwrap();
        let start = Instant::now();
        sharded.apply(batch).unwrap();
        let round_ms = ms(start.elapsed());
        assert_bit_identical(&snapshot(&flat), &sharded, "skewed corpus");
        sharded.verify_consistency().unwrap();
        let lens = sharded.store().shard_lens();
        let max = *lens.iter().max().unwrap_or(&0);
        let min = *lens.iter().min().unwrap_or(&0);
        let balance = max as f64 / (min.max(1)) as f64;
        eprintln!(
            "skew {}: {} shard(s) stay balanced ({:?} -> max/min {balance:.2}) and bit-identical",
            opts.item_skew, shards, lens
        );
        (shards, round_ms, lens, balance)
    };

    let mut json = String::new();
    let _ = write!(
        json,
        concat!(
            "{{\n",
            "  \"bench\": \"shard\",\n",
            "  \"corpus\": \"T10.I4\",\n",
            "  \"transactions\": {},\n",
            "  \"rounds\": {},\n",
            "  \"increment\": {},\n",
            "  \"deletes_per_round\": {},\n",
            "  \"stripe\": {},\n",
            "  \"minsup_bp\": {},\n",
            "  \"threads\": {},\n",
            "  \"reps\": {},\n",
            "  \"note\": \"speedup is scan volume (deletes rebuild only their shard's ",
            "index), so the curve holds on any CPU count; flat repeats the one-shard ",
            "row, the baseline (a default session is a one-shard session)\",\n",
            "  \"flat\": {{ \"bootstrap_ms\": {:.3}, \"rounds_ms\": {:.3}, ",
            "\"index_builds\": {}, \"index_extends\": {} }},\n",
            "  \"rows\": [\n",
        ),
        opts.transactions,
        opts.rounds,
        opts.increment,
        opts.deletes,
        opts.stripe,
        opts.minsup_bp,
        opts.threads,
        opts.reps,
        baseline.bootstrap_ms,
        baseline.rounds_ms,
        baseline.stats.builds,
        baseline.stats.extends,
    );
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 < rows.len() { "," } else { "" };
        let lens = r
            .shard_lens
            .iter()
            .map(|l| l.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(
            json,
            "    {{ \"shards\": {}, \"bootstrap_ms\": {:.3}, \"rounds_ms\": {:.3}, \
             \"speedup\": {:.3}, \"index_builds\": {}, \"index_extends\": {}, \
             \"shard_lens\": [{lens}] }}{sep}",
            r.shards, r.bootstrap_ms, r.rounds_ms, r.speedup, r.stats.builds, r.stats.extends,
        );
    }
    json.push_str("  ],\n");
    let skew_lens = skew
        .2
        .iter()
        .map(|l| l.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    let _ = writeln!(
        json,
        concat!(
            "  \"skew\": {{ \"item_skew\": {}, \"shards\": {}, \"round_ms\": {:.3}, ",
            "\"shard_lens\": [{}], \"balance\": {:.3}, \"identical\": true }}\n",
            "}}"
        ),
        opts.item_skew, skew.0, skew.1, skew_lens, skew.3,
    );
    if let Err(e) = std::fs::write(&opts.out, &json) {
        eprintln!("bench_shard: writing {}: {e}", opts.out);
        std::process::exit(1);
    }
    print!("{json}");

    // Gate: the best shard count must beat the one-shard session's
    // maintenance rounds — the per-shard index lifecycle is the win the
    // curve claims.
    let best = rows.iter().map(|r| r.speedup).fold(0.0, f64::max);
    fup_bench::cli::require_min_speedup(
        "bench_shard",
        "best shard-count maintenance-round speedup over one shard",
        best,
        opts.min_shard_speedup,
    );
}
