//! Public `fup_mining` kernels timed on a workload's final state after the
//! timed part, and the paper's baselines (Apriori and DHP re-mining
//! `DB′` from scratch).

use crate::stats::{median, ms, Outcome};
use crate::trace;
use fup_mining::gen::apriori_gen_with;
use fup_mining::rules::generate_rules;
use fup_mining::vertical::item_bitmap;
use fup_mining::{
    Apriori, Dhp, EngineConfig, Itemset, ItemsetTable, LargeItemsets, MinConfidence, MinSupport,
    MiningOutcome, VerticalIndex,
};
use fup_tidb::{Transaction, TransactionDb};
use std::hint::black_box;
use std::time::{Duration, Instant};

fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, Duration) {
    let _span = trace::span(name);
    let start = Instant::now();
    let r = black_box(f());
    (r, start.elapsed())
}

fn median_ms<R>(name: &'static str, reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| ms(timed(name, &mut f).1)).collect();
    median(&samples)
}

fn level(large: &LargeItemsets, k: usize) -> Vec<Itemset> {
    large.level_sorted(k).into_iter().map(|(s, _)| s).collect()
}

/// Times the counting, generation, index and rule kernels on `live`
/// (the final `DB′`), `increment` (one round's inserts) and `large` (the
/// final large itemsets).
pub fn kernels(
    out: &mut Outcome,
    live: &TransactionDb,
    increment: &[Transaction],
    large: &LargeItemsets,
    minconf: MinConfidence,
) {
    let engine = EngineConfig::default();
    let inc = TransactionDb::from_transactions(increment.iter().cloned());
    out.layer(
        "engine.count_items_ms",
        "ms",
        median_ms("probe.count_items", 11, || {
            fup_mining::engine::count_items_with(&inc, &engine)
        }),
    );
    let l1 = level(large, 1);
    let l2 = level(large, 2);
    out.layer(
        "gen.apriori_gen_ms",
        "ms",
        median_ms("probe.apriori_gen", 5, || {
            (
                apriori_gen_with(&l1, &engine.gen),
                apriori_gen_with(&l2, &engine.gen),
            )
        }),
    );
    let keep = item_bitmap(l1.iter().map(|s| s.items()[0]));
    let build = || VerticalIndex::build(live, Some(&keep), &engine);
    out.layer(
        "vertical.build_ms",
        "ms",
        median_ms("probe.vertical_build", 3, build),
    );
    let index = build();
    let (sparse, dense) = index.arena_bytes();
    out.layer("vertical.index_bytes", "bytes", (sparse + dense) as f64);
    let extend_samples: Vec<f64> = (0..3)
        .map(|_| {
            let mut copy = index.clone();
            ms(timed("probe.vertical_extend", || copy.extend(&inc, &engine)).1)
        })
        .collect();
    out.layer("vertical.extend_ms", "ms", median(&extend_samples));
    let c2 = ItemsetTable::from_itemsets(&apriori_gen_with(&l1, &engine.gen));
    out.layer(
        "vertical.count_ms",
        "ms",
        median_ms("probe.vertical_count", 1, || index.count_rows(&c2, &engine)),
    );
    out.layer(
        "rules.generate_ms",
        "ms",
        median_ms("probe.rules_generate", 5, || generate_rules(large, minconf)),
    );
}

/// The paper's re-mining baselines on `live`, each run once.
pub struct Baselines {
    pub apriori: MiningOutcome,
    pub apriori_s: f64,
    pub dhp: Option<(MiningOutcome, f64)>,
}

pub fn baselines(live: &TransactionDb, minsup: MinSupport, with_dhp: bool) -> Baselines {
    let (apriori, t) = timed("baseline.apriori", || Apriori::new().run(live, minsup));
    let dhp = with_dhp.then(|| {
        let (out, t) = timed("baseline.dhp", || Dhp::new().run(live, minsup));
        (out, t.as_secs_f64())
    });
    Baselines {
        apriori,
        apriori_s: t.as_secs_f64(),
        dhp,
    }
}

/// Checks `got` (itemsets and supports) against a re-mine.
pub fn same(got: &LargeItemsets, want: &LargeItemsets, label: &str, out: &mut Outcome) {
    out.check(got.same_itemsets(want), || {
        let diff = got.diff(want);
        format!(
            "{label}: {} itemset/support mismatches, first: {:?}",
            diff.len(),
            diff.first()
        )
    });
}

/// The Fig. 2/3 quantities: baseline times on `DB′`, their ratio to one
/// FUP round (`fup_round_s`, the round median) and the candidate counts,
/// with `fup_candidates` taken from the round that produced `DB′`.
pub fn paper_layers(out: &mut Outcome, b: &Baselines, fup_round_s: f64, fup_candidates: u64) {
    let (dhp_s, dhp_cand) = b
        .dhp
        .as_ref()
        .map_or((0.0, 0), |(o, t)| (*t, o.stats.total_candidates_checked()));
    let apriori_cand = b.apriori.stats.total_candidates_checked();
    out.layer("paper.dhp_s", "s", dhp_s);
    out.layer("paper.apriori_s", "s", b.apriori_s);
    out.layer("paper.speedup_vs_dhp", "x", dhp_s / fup_round_s);
    out.layer("paper.speedup_vs_apriori", "x", b.apriori_s / fup_round_s);
    out.layer("paper.fup_candidates", "count", fup_candidates as f64);
    out.layer("paper.dhp_candidates", "count", dhp_cand as f64);
    out.layer("paper.apriori_candidates", "count", apriori_cand as f64);
    out.layer(
        "paper.cand_ratio_vs_dhp",
        "ratio",
        if dhp_cand == 0 {
            0.0
        } else {
            fup_candidates as f64 / dhp_cand as f64
        },
    );
}
