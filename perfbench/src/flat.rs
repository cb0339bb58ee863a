//! `paper-insert` and `churn`: a flat `Maintainer` bootstrapped on the
//! base, driven through a closed loop of rounds, then re-mined.
//!
//! A run is several episodes, each with its own inputs drawn from the
//! run's seed: a fresh bootstrap, `ROUNDS_PER_EPISODE` rounds, re-mines
//! and the output checks. Round samples are pooled over the episodes.
//! Which rounds of a stream are cheap depends on the transactions drawn,
//! so pooling independent streams keeps the round percentiles from
//! following one draw.

use crate::closed::{run_rounds, Rounds};
use crate::inputs::{self, QueryMix};
use crate::probes;
use crate::stats::{median, quantile, Outcome};
use crate::trace;
use fup_core::Maintainer;
use fup_mining::{MinConfidence, MinSupport};
use std::time::{Duration, Instant};

/// Base database size: the paper's D100.
pub const BASE_N: u64 = 100_000;
/// Inserts per round: the paper's d1.
pub const INSERTS: u64 = 1_000;
/// Rounds per episode; four episodes give `round_ms_p90` ten samples
/// above it.
pub const ROUNDS_PER_EPISODE: usize = 25;
/// Re-mines: at least one per episode, more until the run has spent
/// `REMINE_BUDGET_S` on them. `remine_s` is the median.
pub const REMINE_BUDGET_S: f64 = 2.0;
pub const MIN_CONF_PCT: u64 = 50;

pub struct FlatSpec {
    pub minsup_bp: u64,
    pub deletes: u64,
    /// Also certify the last episode against DHP (the paper's own
    /// baseline).
    pub dhp_check: bool,
}

pub const PAPER_INSERT: FlatSpec = FlatSpec {
    minsup_bp: 100,
    deletes: 0,
    dhp_check: true,
};

pub const CHURN: FlatSpec = FlatSpec {
    minsup_bp: 200,
    deletes: 100,
    dhp_check: false,
};

/// Episodes in a run of `seconds`: four at ten seconds, sized so a run
/// lasts about `seconds` on a 2-CPU host.
pub fn episodes_for(seconds: u64) -> usize {
    (seconds as usize * 2).div_ceil(5).max(4)
}

/// Times one call to `build` as a set-up sample.
pub fn timed_setup<T>(build: impl FnOnce() -> T) -> (T, f64) {
    let _span = trace::span("setup");
    let start = Instant::now();
    let t = build();
    (t, start.elapsed().as_secs_f64())
}

/// Runs `build` on a fresh copy of `input` `reps` times, timing only the
/// call; returns the last result and every sample in seconds.
pub fn repeat_setup<I: Clone, T>(
    reps: usize,
    input: &I,
    mut build: impl FnMut(I) -> T,
) -> (T, Vec<f64>) {
    let mut samples = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let copy = input.clone();
        drop(last.take());
        let (t, s) = timed_setup(|| build(copy));
        last = Some(t);
        samples.push(s);
    }
    (last.expect("at least one setup"), samples)
}

/// Runs `remine` once, then again until `budget_s` seconds were spent;
/// every wall time in seconds.
pub fn remine_samples(budget_s: f64, mut remine: impl FnMut()) -> Vec<f64> {
    let mut samples = Vec::new();
    while samples.is_empty() || samples.iter().sum::<f64>() < budget_s {
        let _span = trace::span("session.remine");
        let start = Instant::now();
        remine();
        samples.push(start.elapsed().as_secs_f64());
    }
    samples
}

/// The end-to-end metrics every closed-loop workload reports, from the
/// rounds pooled over the episodes. `visible_ms_p99` is the median over
/// episodes of each episode's p99, so one slow round moves at most one
/// episode.
pub fn closed_loop_e2e(out: &mut Outcome, setup: &[f64], r: &Rounds, remine_s: f64, limit_ms: f64) {
    out.e2e("setup_s", "s", median(setup));
    out.e2e("round_ms_p50", "ms", quantile(&r.round_ms, 0.5));
    out.e2e("round_ms_p90", "ms", quantile(&r.round_ms, 0.9));
    out.e2e("update_ops_per_s", "1/s", r.ops as f64 / r.sum_round_s());
    out.e2e("remine_s", "s", remine_s);
    let visible_p99 = median(&r.episode_p99);
    out.e2e("visible_ms_p50", "ms", quantile(&r.visible_ms, 0.5));
    out.e2e("visible_ms_p99", "ms", visible_p99);
    // A closed loop offers exactly what it sustains: its rate meets the
    // objective when the visibility tail does.
    let rate = r.inserts as f64 / r.sum_visible_s();
    out.e2e(
        "max_tps_slo",
        "txn/s",
        if visible_p99 < limit_ms { rate } else { 0.0 },
    );
}

/// The per-layer metrics every closed-loop workload reports.
pub fn closed_loop_layers(out: &mut Outcome, r: &Rounds, wall: Duration) {
    let n = r.counts.len().max(1) as f64;
    let sum = |f: fn(&crate::closed::RoundCounts) -> u64| r.counts.iter().map(f).sum::<u64>();
    out.layer(
        "session.remine_rounds",
        "count",
        sum(|c| u64::from(c.remine)) as f64,
    );
    out.layer(
        "fup.candidates_generated",
        "count",
        sum(|c| c.candidates_generated) as f64 / n,
    );
    let checked = sum(|c| c.candidates_checked);
    out.layer("fup.candidates_checked", "count", checked as f64 / n);
    out.layer(
        "fup.k2.candidates_checked",
        "count",
        sum(|c| c.k2_candidates_checked) as f64 / n,
    );
    let large = sum(|c| c.large_found);
    out.layer("fup.large_found", "count", large as f64 / n);
    out.layer(
        "fup.useful_ratio",
        "ratio",
        large as f64 / checked.max(1) as f64,
    );
    out.layer(
        "diff.rules_changed",
        "count",
        sum(|c| c.rules_changed) as f64 / n,
    );
    out.layer(
        "staging.stage_us_p50",
        "us",
        quantile(&r.stage_ms, 0.5) * 1e3,
    );
    out.layer("staging.stage_ms_p99", "ms", quantile(&r.stage_ms, 0.99));
    out.layer("read.read_us_p50", "us", quantile(&r.read_us, 0.5));
    out.layer("read.read_us_p99", "us", quantile(&r.read_us, 0.99));
    out.layer("service.rounds", "count", r.counts.len() as f64);
    out.layer("service.round_ops_mean", "ops", r.ops as f64 / n);
    out.layer("service.round_ms_p50", "ms", quantile(&r.round_ms, 0.5));
    out.layer("service.round_ms_p99", "ms", quantile(&r.round_ms, 0.99));
    out.layer(
        "service.busy_frac",
        "frac",
        r.sum_round_s() / wall.as_secs_f64(),
    );
    out.layer("read.snapshot_us_p50", "us", quantile(&r.snapshot_us, 0.5));
    out.layer("read.query_us_p50", "us", quantile(&r.query_us, 0.5));
}

pub fn run(spec: &FlatSpec, seed: u64, seconds: u64, traced: bool, out: &mut Outcome) {
    let minsup = MinSupport::basis_points(spec.minsup_bp);
    let minconf = MinConfidence::percent(MIN_CONF_PCT);
    let episodes = episodes_for(seconds);
    out.param("base_transactions", BASE_N);
    out.param("generator", "T10.I4 (QuestGenerator, paper defaults)");
    out.param("minsup_bp", spec.minsup_bp);
    out.param("minconf_pct", MIN_CONF_PCT);
    out.param("episodes", episodes);
    out.param("rounds_per_episode", ROUNDS_PER_EPISODE);
    out.param("inserts_per_round", INSERTS);
    out.param("deletes_per_round", spec.deletes);
    out.param("remine_budget_s", REMINE_BUDGET_S);
    out.param("engine_threads", "default (available parallelism)");
    let builder = || {
        Maintainer::builder()
            .min_support(minsup)
            .min_confidence(minconf)
    };
    let streams = (0..episodes).map(|e| {
        inputs::stream(
            inputs::episode_seed(seed, e),
            BASE_N,
            ROUNDS_PER_EPISODE,
            INSERTS,
            spec.deletes,
        )
    });

    // The traced run first replays episode 0 untraced, so the tracing
    // overhead is a comparison made within one run.
    let untraced_p50 = traced.then(|| {
        let stream = streams.clone().next().expect("one episode");
        let mut m = builder().build(stream.base).expect("valid config");
        let mix = QueryMix::from_large(m.large_itemsets());
        let r = run_rounds(&mut m, &stream.rounds, &mix, |_, _, _| {});
        trace::set_enabled(true);
        quantile(&r.round_ms, 0.5)
    });

    let mut pooled = Rounds::default();
    let (mut setup, mut remine) = (Vec::new(), Vec::new());
    let (mut wall, mut builds, mut extends, mut rss) = (Duration::ZERO, 0, 0, 0.0);
    let mut traced_p50 = 0.0;
    for (e, stream) in streams.enumerate() {
        let live = inputs::live_after(&stream);
        let (mut m, t) = timed_setup(|| builder().build(stream.base).expect("valid config"));
        setup.push(t);
        let mix = QueryMix::from_large(m.large_itemsets());
        let before = m.index_stats();
        let start = Instant::now();
        let r = run_rounds(&mut m, &stream.rounds, &mix, |_, _, _| {});
        wall += start.elapsed();
        let after = m.index_stats();
        builds += after.builds - before.builds;
        extends += after.extends - before.extends;
        let maintained = m.large_itemsets().clone();
        remine.extend(remine_samples(REMINE_BUDGET_S / episodes as f64, || {
            m.remine();
        }));
        if e == 0 {
            // Before any output check allocates.
            rss = crate::stats::peak_rss_mb();
            traced_p50 = quantile(&r.round_ms, 0.5);
        }

        // Output checks, outside every timer.
        let last = e + 1 == episodes;
        let b = probes::baselines(&live, minsup, last && (spec.dhp_check || traced));
        probes::same(&maintained, &b.apriori.large, "rounds vs Apriori", out);
        probes::same(
            m.large_itemsets(),
            &b.apriori.large,
            "remine vs Apriori",
            out,
        );
        if let (true, Some((dhp, _))) = (spec.dhp_check, &b.dhp) {
            probes::same(&maintained, &dhp.large, "rounds vs DHP", out);
        }
        if last && traced {
            let round_s = quantile(&r.round_ms, 0.5) / 1e3;
            let checked = r.counts.last().map_or(0, |c| c.candidates_checked);
            probes::paper_layers(out, &b, round_s, checked);
            let increment = &stream.rounds.last().expect("rounds").inserts;
            probes::kernels(out, &live, increment, &maintained, minconf);
        }
        pooled.absorb(r);
    }
    out.attempted += pooled.attempted;
    out.failed += pooled.failed;
    out.errors.extend(pooled.errors.iter().cloned());

    closed_loop_e2e(
        out,
        &setup,
        &pooled,
        median(&remine),
        crate::serve::VISIBLE_P99_LIMIT_MS,
    );
    out.e2e("peak_rss_mb", "MiB", rss);
    if let Some(untraced) = untraced_p50 {
        out.layer("session.index_builds", "count", builds as f64);
        out.layer("session.index_extends", "count", extends as f64);
        closed_loop_layers(out, &pooled, wall);
        out.layer(
            "staging.max_backlog_ops",
            "ops",
            (INSERTS + spec.deletes) as f64,
        );
        out.layer("trace.overhead_frac", "frac", traced_p50 / untraced - 1.0);
    }
}
