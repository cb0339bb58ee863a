//! `cluster-churn`: the `churn` stream through `Cluster` at two shards
//! over in-memory storage namespaces, certified after every round against
//! a flat replay of the same stream computed before the timed part.

use crate::closed::{run_rounds, Rounds};
use crate::flat::{self, CHURN, INSERTS, MIN_CONF_PCT, ROUNDS_PER_EPISODE};
use crate::inputs::{self, QueryMix};
use crate::probes;
use crate::stats::{median, quantile, Outcome};
use crate::storage::{CountingStorage, StorageTotals};
use crate::trace;
use fup_core::{Cluster, FupConfig, Maintainer, UpdatePolicy};
use fup_mining::{CountingBackend, LargeItemsets, MinConfidence, MinSupport, RuleSet};
use fup_tidb::{DurableStorage, MemStorage, ShardSpec};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const SHARDS: u32 = 2;
/// Episodes beyond the flat workloads' count (8 at 15 s): the cluster's
/// round tails follow the host's bursts more than the flat rounds do, so
/// `round_ms_p90` and `visible_ms_p99` need more episodes to pool over.
pub const EXTRA_EPISODES: usize = 2;

/// The flat session's published state after one round.
struct RefState {
    large: LargeItemsets,
    rules: RuleSet,
    live: u64,
}

impl RefState {
    fn of(m: &Maintainer) -> RefState {
        RefState {
            large: m.large_itemsets().clone(),
            rules: m.rules().clone(),
            live: m.len() as u64,
        }
    }
}

fn storages(counting: bool) -> (Vec<Arc<dyn DurableStorage>>, Vec<Arc<CountingStorage>>) {
    let mut all: Vec<Arc<dyn DurableStorage>> = Vec::new();
    let mut counted = Vec::new();
    for _ in 0..SHARDS {
        let mem: Arc<dyn DurableStorage> = Arc::new(MemStorage::new());
        if counting {
            let c = Arc::new(CountingStorage::new(mem));
            counted.push(Arc::clone(&c));
            all.push(c);
        } else {
            all.push(mem);
        }
    }
    (all, counted)
}

fn totals(counted: &[Arc<CountingStorage>]) -> StorageTotals {
    counted
        .iter()
        .map(|c| c.totals())
        .fold(StorageTotals::default(), |a, b| a + b)
}

pub fn run(seed: u64, seconds: u64, traced: bool, out: &mut Outcome) {
    let spec = &CHURN;
    let minsup = MinSupport::basis_points(spec.minsup_bp);
    let minconf = MinConfidence::percent(MIN_CONF_PCT);
    let episodes = flat::episodes_for(seconds) + EXTRA_EPISODES;
    out.param("base_transactions", flat::BASE_N);
    out.param("generator", "T10.I4 (QuestGenerator, paper defaults)");
    out.param("minsup_bp", spec.minsup_bp);
    out.param("minconf_pct", MIN_CONF_PCT);
    out.param("episodes", episodes);
    out.param("rounds_per_episode", ROUNDS_PER_EPISODE);
    out.param("inserts_per_round", INSERTS);
    out.param("deletes_per_round", spec.deletes);
    out.param("shards", SHARDS);
    out.param("shard_spec", "striped, default stripe");
    out.param("storage", "MemStorage per shard");
    out.param("remine_budget_s", flat::REMINE_BUDGET_S);
    let bootstrap = |base, counting: bool| {
        let (all, counted) = storages(counting);
        let cluster = Cluster::bootstrap(
            ShardSpec::striped(SHARDS),
            all,
            base,
            minsup,
            minconf,
            FupConfig::default(),
        )
        .expect("cluster bootstrap");
        (cluster, counted)
    };

    let mut pooled = Rounds::default();
    let mut flat_pooled = Rounds::default();
    let (mut setup, mut remine) = (Vec::new(), Vec::new());
    let (mut wall, mut rss) = (Duration::ZERO, 0.0);
    let mut storage = StorageTotals::default();
    let (mut live_max, mut live_min) = (0u64, u64::MAX);
    let (mut untraced_p50, mut traced_p50) = (0.0, 0.0);
    for e in 0..episodes {
        let stream = inputs::stream(
            inputs::episode_seed(seed, e),
            flat::BASE_N,
            ROUNDS_PER_EPISODE,
            INSERTS,
            spec.deletes,
        );
        let live = inputs::live_after(&stream);

        // The flat reference, replayed before the timed part. Its round
        // times are the base of `cluster.seam_ratio`.
        let was_tracing = trace::enabled();
        trace::set_enabled(false);
        let mut flat_m = Maintainer::builder()
            .min_support(minsup)
            .min_confidence(minconf)
            .backend(CountingBackend::Vertical)
            .build(stream.base.clone())
            .expect("valid config");
        let mix = QueryMix::from_large(flat_m.large_itemsets());
        let mut reference = vec![RefState::of(&flat_m)];
        let flat_rounds = run_rounds(&mut flat_m, &stream.rounds, &mix, |_, m, _| {
            reference.push(RefState::of(m))
        });
        drop(flat_m);
        flat_pooled.absorb(flat_rounds);
        if traced && e == 0 {
            // The traced run also replays episode 0 untraced, so the
            // tracing overhead is a comparison made within one run.
            let (mut c, _) = bootstrap(stream.base.clone(), false);
            let r = run_rounds(&mut c, &stream.rounds, &mix, |_, _, _| {});
            c.shutdown();
            untraced_p50 = quantile(&r.round_ms, 0.5);
        }
        trace::set_enabled(was_tracing || traced);

        let certify = |r: usize, c: &Cluster, o: &mut Rounds| {
            let want = &reference[r + 1];
            let snap = c.snapshot();
            let ok = snap.large_itemsets().same_itemsets(&want.large)
                && snap.rules() == &want.rules
                && c.num_transactions() == want.live;
            o.attempted += 1;
            if !ok {
                o.failed += 1;
                o.errors.push(format!(
                    "episode {e} round {r}: cluster state differs from the flat replay"
                ));
            }
        };
        let ((mut cluster, counted), t) = flat::timed_setup(|| bootstrap(stream.base, traced));
        setup.push(t);
        let before = totals(&counted);
        let start = Instant::now();
        let r = run_rounds(&mut cluster, &stream.rounds, &mix, certify);
        wall += start.elapsed();
        storage = storage + (totals(&counted) - before);
        let maintained = cluster.snapshot().large_itemsets().clone();
        for s in 0..SHARDS as usize {
            let n = cluster.probe(s).map_or(0, |p| p.live);
            live_max = live_max.max(n);
            live_min = live_min.min(n);
        }

        // The §4.5 fallback through the cluster: a policy-routed re-mine
        // of the live set, as an empty round.
        cluster.set_policy(UpdatePolicy::AlwaysRemine);
        let mut remine_errors = Vec::new();
        remine.extend(flat::remine_samples(
            flat::REMINE_BUDGET_S / episodes as f64,
            || {
                if let Err(err) = cluster.commit() {
                    remine_errors.push(err.to_string());
                }
            },
        ));
        let remined = cluster.snapshot().large_itemsets().clone();
        if e == 0 {
            // Before any output check allocates.
            rss = crate::stats::peak_rss_mb();
            traced_p50 = quantile(&r.round_ms, 0.5);
        }
        cluster.shutdown();

        // Output checks, outside every timer.
        for err in remine_errors {
            out.check(false, || format!("episode {e}: cluster re-mine: {err}"));
        }
        let last = e + 1 == episodes;
        let b = probes::baselines(&live, minsup, traced && last);
        probes::same(&maintained, &b.apriori.large, "cluster vs Apriori", out);
        probes::same(
            &remined,
            &b.apriori.large,
            "cluster re-mine vs Apriori",
            out,
        );
        if last && traced {
            let round_s = quantile(&r.round_ms, 0.5) / 1e3;
            let checked = r.counts.last().map_or(0, |c| c.candidates_checked);
            probes::paper_layers(out, &b, round_s, checked);
            let increment = &stream.rounds.last().expect("rounds").inserts;
            probes::kernels(out, &live, increment, &maintained, minconf);
        }
        pooled.absorb(r);
    }
    for r in [&pooled, &flat_pooled] {
        out.attempted += r.attempted;
        out.failed += r.failed;
        out.errors.extend(r.errors.iter().cloned());
    }

    flat::closed_loop_e2e(
        out,
        &setup,
        &pooled,
        median(&remine),
        crate::serve::VISIBLE_P99_LIMIT_MS,
    );
    out.e2e("peak_rss_mb", "MiB", rss);
    if traced {
        flat::closed_loop_layers(out, &pooled, wall);
        out.layer(
            "staging.max_backlog_ops",
            "ops",
            (INSERTS + spec.deletes) as f64,
        );
        let txns = pooled.inserts.max(1) as f64;
        out.layer("storage.append_calls", "count", storage.append_calls as f64);
        out.layer(
            "storage.append_bytes_per_txn",
            "bytes",
            storage.append_bytes as f64 / txns,
        );
        out.layer("storage.sync_calls", "count", storage.sync_calls as f64);
        out.layer("storage.sync_ms_total", "ms", storage.sync_ms);
        out.layer(
            "storage.atomic_writes",
            "count",
            storage.atomic_writes as f64,
        );
        out.layer(
            "storage.atomic_write_bytes",
            "bytes",
            storage.atomic_bytes as f64,
        );
        out.layer("storage.atomic_write_ms_total", "ms", storage.atomic_ms);
        out.layer(
            "cluster.seam_ratio",
            "ratio",
            quantile(&pooled.round_ms, 0.5) / quantile(&flat_pooled.round_ms, 0.5),
        );
        out.layer(
            "cluster.shard_live_max_over_min",
            "ratio",
            live_max as f64 / live_min.max(1) as f64,
        );
        out.layer(
            "cluster.worker_append_bytes",
            "bytes",
            storage.append_bytes as f64,
        );
        out.layer(
            "trace.overhead_frac",
            "frac",
            traced_p50 / untraced_p50 - 1.0,
        );
    }
}
