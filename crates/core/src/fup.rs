//! The FUP algorithm (§3 of the paper).
//!
//! Each iteration `k` does (at most) two scans — one over the small
//! increment `db`, one over the original database `DB`:
//!
//! 1. **Filter the old large itemsets.** `W = L_k` minus the Lemma-3
//!    losers (supersets of (k−1)-losers need no scan at all). One scan of
//!    `db` updates `X.support_UD = X.support_D + X.support_d` for every
//!    `X ∈ W`; Lemma 1/4 decides winners and losers exactly.
//! 2. **Find the new large itemsets.** Candidates
//!    `C_k = apriori-gen(L'_{k−1}) − L_k` are counted *in the same `db`
//!    scan*; Lemma 2/5 prunes every candidate whose increment support is
//!    below `s × d`. Only the survivors are counted against `DB`.
//!
//! The `Reduce-db`/`Reduce-DB` trimming and the P-set optimisation of §3.4
//! shrink the scanned data each iteration, and DHP-style pair hashing over
//! the increment (also §3.4) thins `C₂` before it is ever counted.

use crate::config::FupConfig;
use crate::error::{Error, Result};
use crate::reduce;
use crate::vindex::{IndexSlot, SlotProvider, VerticalProvider};
use fup_mining::engine::{self, pair_bucket, ChunkedCollector};
use fup_mining::gen::apriori_gen_with;
use fup_mining::vertical::{PassProfile, ResolvedBackend};
use fup_mining::{
    HashTree, Itemset, ItemsetTable, LargeItemsets, MinSupport, MiningStats, PassStats,
};
use fup_tidb::{ItemId, TransactionDb, TransactionSource};
use std::collections::HashSet;
use std::time::Instant;

/// Per-iteration detail beyond the common [`PassStats`] — the quantities
/// the paper's narrative tracks (losers filtered for free, candidates
/// pruned by the increment check, winners from each side).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FupPassDetail {
    /// Iteration number `k`.
    pub k: usize,
    /// `|L_k|` — old large itemsets entering the iteration.
    pub old_large: u64,
    /// Old itemsets discarded by Lemma 3 without scanning anything.
    pub lemma3_losers: u64,
    /// Old itemsets confirmed large in `DB ∪ db` (scan of `db` only).
    pub winners_from_old: u64,
    /// `|apriori-gen(L'_{k−1}) − L_k|` (or, for k = 1, distinct new items
    /// seen in the increment).
    pub candidates_generated: u64,
    /// Candidates surviving the DHP pair-hash filter (k = 2 only;
    /// equals `candidates_generated` elsewhere).
    pub candidates_after_hash: u64,
    /// Candidates surviving the Lemma-2/5 increment-support pruning —
    /// the pool actually counted against `DB` (the Figure 3 quantity).
    pub candidates_checked: u64,
    /// New large itemsets found among the candidates.
    pub winners_from_new: u64,
}

/// The result of one FUP run.
#[derive(Debug, Clone)]
pub struct FupOutcome {
    /// `L'`: all large itemsets of `DB ∪ db` with exact support counts.
    pub large: LargeItemsets,
    /// Common per-pass statistics (comparable with Apriori/DHP).
    pub stats: MiningStats,
    /// FUP-specific per-pass detail.
    pub detail: Vec<FupPassDetail>,
}

/// The FUP incremental updater.
#[derive(Debug, Clone, Default)]
pub struct Fup {
    config: FupConfig,
}

impl Fup {
    /// Creates an updater with the paper's full configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an updater with an explicit configuration.
    pub fn with_config(config: FupConfig) -> Self {
        Fup { config }
    }

    /// Computes `L'`, the large itemsets of `DB ∪ db`.
    ///
    /// * `db` — the original database (the paper's `DB`, `D` transactions),
    /// * `old` — its large itemsets **with support counts**, as produced by
    ///   a previous mining run at the same `minsup`,
    /// * `increment` — the new transactions (the paper's `db`, `d`),
    /// * `minsup` — the unchanged minimum support threshold.
    ///
    /// Fails with [`Error::StaleBaseline`] if `old` was not mined over a
    /// database of exactly `db`'s size.
    pub fn update(
        &self,
        db: &dyn TransactionSource,
        old: &LargeItemsets,
        increment: &dyn TransactionSource,
        minsup: MinSupport,
    ) -> Result<FupOutcome> {
        let mut slot = IndexSlot::new();
        let mut provider = SlotProvider::new(&mut slot, db, increment, db.num_transactions());
        self.update_with_provider(db, old, increment, minsup, &mut provider)
    }

    /// [`update`](Self::update) generalised over the source of vertical
    /// splits: `update` counts through a throwaway [`SlotProvider`] (one
    /// index over `DB`, built for the round), the session through a
    /// [`ShardProvider`](crate::shard::ShardProvider) that keeps one
    /// persistent index per tid shard — a single one by default — and
    /// sums their splits. Every threshold decision is made on the summed
    /// supports, so the result is provider-independent.
    pub(crate) fn update_with_provider(
        &self,
        db: &dyn TransactionSource,
        old: &LargeItemsets,
        increment: &dyn TransactionSource,
        minsup: MinSupport,
        provider: &mut dyn VerticalProvider,
    ) -> Result<FupOutcome> {
        let start = Instant::now();
        let d_orig = db.num_transactions();
        if old.num_transactions() != d_orig {
            return Err(Error::StaleBaseline {
                baseline: old.num_transactions(),
                database: d_orig,
            });
        }
        let d_inc = increment.num_transactions();
        let n = d_orig + d_inc;

        // Empty increment: DB ∪ db = DB, so the baseline is the answer.
        if d_inc == 0 {
            let mut stats = MiningStats::new("fup");
            stats.elapsed = start.elapsed();
            return Ok(FupOutcome {
                large: old.clone(),
                stats,
                detail: Vec::new(),
            });
        }

        let mut result = LargeItemsets::new(n);
        let mut stats = MiningStats::new("fup");
        let mut detail = Vec::new();

        // ------------------------- Iteration 1 -------------------------
        // One scan of the increment: per-item counts, plus (optionally)
        // DHP pair-bucket counts for the iteration-2 filter. Bucket count
        // adapts to the increment: ~one bucket per expected pair
        // occurrence gives strong filtering without allocating a huge
        // table for a small `db`. `config.hash_buckets` caps it.
        let nbuckets = if self.config.dhp_hash {
            let estimated_pairs = (d_inc.saturating_mul(64)).next_power_of_two();
            estimated_pairs.clamp(1024, self.config.hash_buckets.max(1024) as u64) as usize
        } else {
            0
        };
        let (inc_item_counts, pair_buckets) =
            engine::count_items_and_pairs(increment, nbuckets, &self.config.engine);
        let inc_count =
            |item: ItemId| -> u64 { inc_item_counts.get(item.index()).copied().unwrap_or(0) };

        // Winners and losers among the old L₁ (Lemma 1).
        let mut losers_prev: HashSet<Itemset> = HashSet::new();
        let mut winners_from_old = 0u64;
        for (x, sup_d_orig) in old.level(1) {
            let item = x.items()[0];
            let sup_ud = sup_d_orig + inc_count(item);
            if minsup.is_large(sup_ud, n) {
                result.insert(x.clone(), sup_ud);
                winners_from_old += 1;
            } else {
                losers_prev.insert(x.clone());
            }
        }

        // New candidates from the increment (Lemma 2) and the P set.
        let mut c1: Vec<(ItemId, u64)> = Vec::new();
        let mut p_pruned = 0u64; // |P|: items Lemma 2 proved hopeless
        let mut generated1 = 0u64;
        for (i, &count) in inc_item_counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let item = ItemId(i as u32);
            if old.contains(&Itemset::single(item)) {
                continue;
            }
            generated1 += 1;
            if minsup.is_large(count, d_inc) {
                c1.push((item, count));
            } else {
                p_pruned += 1;
            }
        }

        // Scan DB for the C₁ supports (skipped entirely when Lemma 2
        // pruned every candidate — FUP's headline saving).
        //
        // Deviation from the paper's letter, kept to its spirit: the paper
        // rewrites DB without the P items *during* this scan, because on
        // disk the rewrite rides along for free. In memory a copy is pure
        // overhead, and the `Reduce-DB` keep-set applied at iteration 2
        // (items of `L₂ ∪ C₂` only) strictly subsumes P-removal, so the
        // first trimmed copy is built there instead.
        let mut db_working: Option<TransactionDb> = None;
        let mut winners_from_new1 = 0u64;
        if !c1.is_empty() {
            let c1_items: Vec<ItemId> = c1.iter().map(|(item, _)| *item).collect();
            let c1_db_counts =
                if let Some(counts) = provider.count_base_items(&c1_items, &self.config.engine) {
                    // A remote provider counted DB where its rows live; the
                    // summed per-shard counts are the same sums this scan
                    // would have produced.
                    counts
                } else {
                    // Items are dense, so the candidate index is a flat array
                    // (u32::MAX = not a candidate) — no hashing in the hot loop.
                    let max_item = c1.iter().map(|(i, _)| i.index()).max().unwrap_or(0);
                    let mut index_of: Vec<u32> = vec![u32::MAX; max_item + 1];
                    for (idx, (item, _)) in c1.iter().enumerate() {
                        index_of[item.index()] = idx as u32;
                    }
                    let tables = engine::scan_fold(
                        db,
                        &self.config.engine,
                        || vec![0u64; c1.len()],
                        |counts: &mut Vec<u64>, _chunk, t| {
                            for &item in t {
                                if let Some(&idx) = index_of.get(item.index()) {
                                    if idx != u32::MAX {
                                        counts[idx as usize] += 1;
                                    }
                                }
                            }
                        },
                    );
                    engine::merge_dense(tables)
                };
            for ((item, sup_d), sup_db) in c1.iter().zip(&c1_db_counts) {
                let sup_ud = sup_db + sup_d;
                if minsup.is_large(sup_ud, n) {
                    result.insert(Itemset::single(*item), sup_ud);
                    winners_from_new1 += 1;
                }
            }
        }
        debug_assert_eq!(generated1, c1.len() as u64 + p_pruned);

        stats.passes.push(PassStats {
            k: 1,
            candidates_generated: generated1,
            candidates_checked: c1.len() as u64,
            large_found: winners_from_old + winners_from_new1,
        });
        detail.push(FupPassDetail {
            k: 1,
            old_large: old.len_at(1) as u64,
            lemma3_losers: 0,
            winners_from_old,
            candidates_generated: generated1,
            candidates_after_hash: generated1,
            candidates_checked: c1.len() as u64,
            winners_from_new: winners_from_new1,
        });

        // --------------------- Iterations k ≥ 2 ------------------------
        // Backend selection input: the increment's raw average transaction
        // length stands in for the frequent-item residue the miners feed
        // `Auto` (the frequent set of DB ∪ db is not known here without
        // extra work) — an overestimate on filler-heavy data, so `Auto`
        // may engage slightly earlier than the calibrated thresholds
        // intend; the index itself *is* filtered to old L₁ ∪ new L₁ (see
        // `vindex::build_update_index`).
        let residue = inc_item_counts.iter().sum::<u64>() as f64 / d_inc as f64;
        // The vertical index (or per-shard indexes) covering DB ∪ db is
        // built lazily by the provider: the old-DB tid-lists are
        // materialised once and the increment's delta scan only *extends*
        // them, after which one intersection per itemset yields
        // (support in DB, support in db) split at tid |DB|.
        let mut inc_working: Option<TransactionDb> = None;
        let mut k = 2;
        while (old.len_at(k) > 0 || result.len_at(k - 1) > 0)
            && self.config.max_k.is_none_or(|m| k <= m)
        {
            // Lemma 3: drop old itemsets with a losing (k−1)-subset.
            let mut w: Vec<(Itemset, u64)> = Vec::with_capacity(old.len_at(k));
            let mut lemma3 = 0u64;
            let mut losers_k: HashSet<Itemset> = HashSet::new();
            for (x, sup) in old.level(k) {
                let lost = !losers_prev.is_empty()
                    && x.proper_subsets().any(|sub| losers_prev.contains(&sub));
                if lost {
                    lemma3 += 1;
                    losers_k.insert(x.clone());
                } else {
                    w.push((x.clone(), sup));
                }
            }

            // C_k = apriori-gen(L'_{k−1}) − L_k.
            let prev_new: Vec<Itemset> = result.level(k - 1).map(|(x, _)| x.clone()).collect();
            let mut candidates: Vec<Itemset> = apriori_gen_with(&prev_new, &self.config.engine.gen)
                .into_iter()
                .filter(|x| !old.contains(x))
                .collect();
            let generated = candidates.len() as u64;

            // DHP hash filter for the size-2 candidates (§3.4): a pair's
            // bucket total bounds its increment support, so a light bucket
            // proves Lemma 5's condition fails.
            if k == 2 && nbuckets > 0 {
                candidates.retain(|c| {
                    let b = pair_bucket(c.items()[0], c.items()[1], nbuckets);
                    minsup.is_large(pair_buckets[b], d_inc)
                });
            }
            let after_hash = candidates.len() as u64;

            if w.is_empty() && candidates.is_empty() {
                stats.passes.push(PassStats {
                    k,
                    candidates_generated: generated,
                    candidates_checked: 0,
                    large_found: 0,
                });
                detail.push(FupPassDetail {
                    k,
                    old_large: old.len_at(k) as u64,
                    lemma3_losers: lemma3,
                    winners_from_old: 0,
                    candidates_generated: generated,
                    candidates_after_hash: after_hash,
                    candidates_checked: 0,
                    winners_from_new: 0,
                });
                // Every remaining old itemset at this level is a loser.
                losers_prev = losers_k;
                k += 1;
                continue;
            }

            // Vertical path (sticky once engaged): every W and C support
            // comes from tid-list intersections split at |DB| — no scan
            // of either source beyond the one-time index build. Decisions
            // mirror the hash-tree path exactly (Lemma 4 on W, Lemma 5
            // gating candidates), so the result is bit-identical.
            // Only `C` can force scans of the big original database (W is
            // counted over the small increment either way), so backend
            // selection weighs the candidate pool alone: FUP's own
            // pruning usually keeps it tiny, and then the classic path is
            // already near-optimal.
            let use_vertical = provider.engaged()
                || self.config.engine.backend.resolve(&PassProfile {
                    k,
                    candidates: candidates.len(),
                    transactions: n,
                    residue,
                }) == ResolvedBackend::Vertical;
            if use_vertical {
                provider.engage(old, &result, &self.config.engine);
                // Trimmed working copies are never consulted again.
                inc_working = None;
                db_working = None;
                let w_table = crate::vindex::sorted_w_table(&mut w, k);
                let w_splits = provider.count_split(&w_table, &self.config.engine);
                let mut winners_old_k = 0u64;
                for ((x, sup_d_orig), (_, sup_d)) in w.iter().zip(&w_splits) {
                    let sup_ud = sup_d_orig + sup_d;
                    if minsup.is_large(sup_ud, n) {
                        result.insert(x.clone(), sup_ud);
                        winners_old_k += 1;
                    } else {
                        losers_k.insert(x.clone());
                    }
                }
                let c_table = ItemsetTable::from_sorted_itemsets(&candidates);
                let c_splits = provider.count_split(&c_table, &self.config.engine);
                let mut checked = 0u64;
                let mut winners_new_k = 0u64;
                for (x, (sup_db, sup_d)) in candidates.into_iter().zip(c_splits) {
                    // Lemma 5: candidates light in the increment cannot
                    // win; keeping the gate keeps the `checked` statistic
                    // (and the result) identical to the scanning path.
                    if !minsup.is_large(sup_d, d_inc) {
                        continue;
                    }
                    checked += 1;
                    let sup_ud = sup_db + sup_d;
                    if minsup.is_large(sup_ud, n) {
                        result.insert(x, sup_ud);
                        winners_new_k += 1;
                    }
                }
                stats.passes.push(PassStats {
                    k,
                    candidates_generated: generated,
                    candidates_checked: checked,
                    large_found: winners_old_k + winners_new_k,
                });
                detail.push(FupPassDetail {
                    k,
                    old_large: old.len_at(k) as u64,
                    lemma3_losers: lemma3,
                    winners_from_old: winners_old_k,
                    candidates_generated: generated,
                    candidates_after_hash: after_hash,
                    candidates_checked: checked,
                    winners_from_new: winners_new_k,
                });
                losers_prev = losers_k;
                k += 1;
                continue;
            }

            // One scan of the increment counts W and C together.
            let w_len = w.len();
            let mut combined: Vec<Itemset> = Vec::with_capacity(w_len + candidates.len());
            combined.extend(w.iter().map(|(x, _)| x.clone()));
            combined.extend(candidates.iter().cloned());
            let mut tree = HashTree::build(combined);

            // One engine pass over the increment: every worker counts into
            // its own scratch; `Reduce-db` keeps trimmed transactions per
            // chunk so the working copy is deterministic.
            let reduce_inc = self.config.reduce_db;
            {
                let src: &dyn TransactionSource = match &inc_working {
                    Some(wdb) => wdb,
                    None => increment,
                };
                let view = tree.view();
                let folds = engine::scan_fold(
                    src,
                    &self.config.engine,
                    || (tree.new_scratch(), ChunkedCollector::new()),
                    |(scratch, kept), chunk, t| {
                        if reduce_inc {
                            let mut matched: Vec<usize> = Vec::new();
                            view.count_with(t, scratch, &mut |i| matched.push(i));
                            if let Some(reduced) = reduce::reduce_db_transaction(
                                t,
                                matched.iter().map(|&i| view.candidate(i)),
                                k,
                            ) {
                                kept.push(chunk, reduced);
                            }
                        } else {
                            view.count(t, scratch);
                        }
                    },
                );
                let mut collectors = Vec::with_capacity(folds.len());
                for (scratch, kept) in folds {
                    tree.absorb(scratch);
                    collectors.push(kept);
                }
                if reduce_inc {
                    inc_working = Some(TransactionDb::from_transactions(ChunkedCollector::merge(
                        collectors,
                    )));
                }
            }
            let inc_counts = tree.counts().to_vec();

            // Winners/losers among W (Lemma 4).
            let mut winners_old_k = 0u64;
            for (idx, (x, sup_d_orig)) in w.iter().enumerate() {
                let sup_ud = sup_d_orig + inc_counts[idx];
                if minsup.is_large(sup_ud, n) {
                    result.insert(x.clone(), sup_ud);
                    winners_old_k += 1;
                } else {
                    losers_k.insert(x.clone());
                }
            }

            // Lemma 5: prune candidates light in the increment.
            let mut pruned: Vec<(Itemset, u64)> = Vec::new();
            for (idx, x) in candidates.into_iter().enumerate() {
                let sup_d = inc_counts[w_len + idx];
                if minsup.is_large(sup_d, d_inc) {
                    pruned.push((x, sup_d));
                }
            }
            let checked = pruned.len() as u64;

            // Scan DB for the surviving candidates; apply Reduce-DB.
            let mut winners_new_k = 0u64;
            if !pruned.is_empty() {
                let keep_items = if self.config.reduce_db {
                    Some(reduce::item_universe(
                        old.level(k)
                            .map(|(x, _)| x)
                            .chain(pruned.iter().map(|(x, _)| x)),
                    ))
                } else {
                    None
                };
                let cand_sets: Vec<Itemset> = pruned.iter().map(|(x, _)| x.clone()).collect();
                let mut ctree = HashTree::build(cand_sets);
                {
                    let src: &dyn TransactionSource = match &db_working {
                        Some(wdb) => wdb,
                        None => db,
                    };
                    let view = ctree.view();
                    let keep_ref = keep_items.as_ref();
                    let folds = engine::scan_fold(
                        src,
                        &self.config.engine,
                        || (ctree.new_scratch(), ChunkedCollector::new()),
                        |(scratch, kept), chunk, t| {
                            view.count(t, scratch);
                            if let Some(keep) = keep_ref {
                                if let Some(reduced) = reduce::reduce_full_transaction(t, keep, k) {
                                    kept.push(chunk, reduced);
                                }
                            }
                        },
                    );
                    let mut collectors = Vec::with_capacity(folds.len());
                    for (scratch, kept) in folds {
                        ctree.absorb(scratch);
                        collectors.push(kept);
                    }
                    if keep_items.is_some() {
                        db_working = Some(TransactionDb::from_transactions(
                            ChunkedCollector::merge(collectors),
                        ));
                    }
                }
                for ((x, sup_d), sup_db) in pruned.into_iter().zip(ctree.counts()) {
                    let sup_ud = sup_db + sup_d;
                    if minsup.is_large(sup_ud, n) {
                        result.insert(x, sup_ud);
                        winners_new_k += 1;
                    }
                }
            }

            stats.passes.push(PassStats {
                k,
                candidates_generated: generated,
                candidates_checked: checked,
                large_found: winners_old_k + winners_new_k,
            });
            detail.push(FupPassDetail {
                k,
                old_large: old.len_at(k) as u64,
                lemma3_losers: lemma3,
                winners_from_old: winners_old_k,
                candidates_generated: generated,
                candidates_after_hash: after_hash,
                candidates_checked: checked,
                winners_from_new: winners_new_k,
            });

            losers_prev = losers_k;
            k += 1;
        }

        // The provider's index(es) now cover DB ∪ db — exactly the
        // database after this update commits; the next round can extend.
        provider.finish();
        stats.elapsed = start.elapsed();
        Ok(FupOutcome {
            large: result,
            stats,
            detail,
        })
    }
}

/// Convenience: mines the baseline with Apriori, then maintains it with
/// FUP — used pervasively in tests and examples.
pub fn mine_then_update(
    db: &dyn TransactionSource,
    increment: &dyn TransactionSource,
    minsup: MinSupport,
    config: FupConfig,
) -> Result<FupOutcome> {
    let baseline = fup_mining::Apriori::new().run(db, minsup).large;
    Fup::with_config(config).update(db, &baseline, increment, minsup)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fup_mining::apriori::mine_naive;
    use fup_mining::Apriori;
    use fup_tidb::source::ChainSource;
    use fup_tidb::{Transaction, TransactionDb};

    fn db(rows: &[&[u32]]) -> TransactionDb {
        TransactionDb::from_transactions(
            rows.iter()
                .map(|r| Transaction::from_items(r.iter().copied())),
        )
    }

    fn s(items: &[u32]) -> Itemset {
        Itemset::from_items(items.iter().copied())
    }

    /// The central correctness property: FUP(DB, L, db) equals a full
    /// re-mine of DB ∪ db.
    fn assert_fup_matches_remine(
        original: &TransactionDb,
        increment: &TransactionDb,
        minsup: MinSupport,
        config: FupConfig,
    ) -> FupOutcome {
        let outcome = mine_then_update(original, increment, minsup, config).unwrap();
        let whole = ChainSource::new(original, increment);
        let remined = Apriori::new().run(&whole, minsup).large;
        assert!(
            outcome.large.same_itemsets(&remined),
            "FUP disagrees with re-mining: {:?}",
            outcome.large.diff(&remined)
        );
        outcome
    }

    #[test]
    fn paper_example_1_first_iteration() {
        // D = 1000, d = 100, s = 3%. I1, I2 large with supports 32, 31.
        // In db: I1 appears 4×, I2 1×, I3 6×, I4 2×.
        // Expected: I1 stays (36 ≥ 33), I2 loses (32 < 33), I4 pruned
        // from C1 (2 < 3), I3 checked against DB (28 there) → 34 ≥ 33.
        let mut original = TransactionDb::new();
        // 32 transactions with I1, 31 with I2, 28 with I3; pad to 1000.
        for i in 0..1000u32 {
            let mut items = vec![900 + (i % 50)]; // filler items, never large
            if i < 32 {
                items.push(1);
            }
            if i < 31 {
                items.push(2);
            }
            if i < 28 {
                items.push(3);
            }
            original.push(Transaction::from_items(items));
        }
        let mut increment = TransactionDb::new();
        for i in 0..100u32 {
            let mut items = vec![800 + (i % 50)];
            if i < 4 {
                items.push(1);
            }
            if i < 1 {
                items.push(2);
            }
            if i < 6 {
                items.push(3);
            }
            if i < 2 {
                items.push(4);
            }
            increment.push(Transaction::from_items(items));
        }
        let minsup = MinSupport::percent(3);
        let baseline = Apriori::new().run(&original, minsup).large;
        assert_eq!(baseline.support(&s(&[1])), Some(32));
        assert_eq!(baseline.support(&s(&[2])), Some(31));
        assert_eq!(baseline.support(&s(&[3])), None); // 28 < 30

        let out = Fup::new()
            .update(&original, &baseline, &increment, minsup)
            .unwrap();
        assert_eq!(out.large.support(&s(&[1])), Some(36));
        assert_eq!(out.large.support(&s(&[2])), None); // loser
        assert_eq!(out.large.support(&s(&[3])), Some(34)); // new winner
        assert_eq!(out.large.support(&s(&[4])), None); // pruned by Lemma 2

        let d1 = &out.detail[0];
        assert_eq!(d1.winners_from_old, 1);
        assert_eq!(d1.winners_from_new, 1);
        // I4 was generated as a candidate but pruned before the DB scan.
        assert!(d1.candidates_checked < d1.candidates_generated);
    }

    #[test]
    fn equivalence_on_small_handcrafted_updates() {
        let original = db(&[
            &[1, 2, 3],
            &[1, 2],
            &[2, 3, 4],
            &[1, 3, 4],
            &[2, 4],
            &[1, 2, 3, 4],
        ]);
        let increment = db(&[&[1, 2, 3, 4], &[4, 5], &[1, 5], &[2, 3]]);
        for pct in [10, 25, 40, 60, 90] {
            assert_fup_matches_remine(
                &original,
                &increment,
                MinSupport::percent(pct),
                FupConfig::full(),
            );
            assert_fup_matches_remine(
                &original,
                &increment,
                MinSupport::percent(pct),
                FupConfig::bare(),
            );
        }
    }

    #[test]
    fn equivalence_against_naive_reference() {
        let original = db(&[&[1, 2, 3], &[2, 3], &[1, 3], &[3, 4]]);
        let increment = db(&[&[1, 2], &[1, 2, 3], &[4]]);
        let minsup = MinSupport::percent(40);
        let out = mine_then_update(&original, &increment, minsup, FupConfig::full()).unwrap();
        let whole = ChainSource::new(&original, &increment);
        let naive = mine_naive(&whole, minsup);
        assert!(
            out.large.same_itemsets(&naive),
            "{:?}",
            out.large.diff(&naive)
        );
    }

    #[test]
    fn empty_increment_returns_baseline() {
        let original = db(&[&[1, 2], &[1, 2], &[3]]);
        let increment = db(&[]);
        let minsup = MinSupport::percent(50);
        let baseline = Apriori::new().run(&original, minsup).large;
        let out = Fup::new()
            .update(&original, &baseline, &increment, minsup)
            .unwrap();
        assert!(out.large.same_itemsets(&baseline));
        assert_eq!(out.stats.num_passes(), 0);
    }

    #[test]
    fn empty_original_database() {
        let original = db(&[]);
        let increment = db(&[&[1, 2], &[1, 2], &[2, 3]]);
        let minsup = MinSupport::percent(50);
        assert_fup_matches_remine(&original, &increment, minsup, FupConfig::full());
    }

    #[test]
    fn stale_baseline_is_rejected() {
        let original = db(&[&[1], &[2]]);
        let increment = db(&[&[3]]);
        let wrong = LargeItemsets::new(99);
        let err = Fup::new()
            .update(&original, &wrong, &increment, MinSupport::percent(10))
            .unwrap_err();
        assert!(matches!(
            err,
            Error::StaleBaseline {
                baseline: 99,
                database: 2
            }
        ));
    }

    #[test]
    fn increment_larger_than_database() {
        // §4.4/Figure 4 territory: d ≫ D must still be exact.
        let original = db(&[&[1, 2], &[2, 3]]);
        let increment = db(&[
            &[1, 2, 3],
            &[1, 2],
            &[1, 3],
            &[2, 3],
            &[1, 2, 3],
            &[3, 4],
            &[1, 4],
            &[2, 4],
        ]);
        for pct in [20, 40, 60] {
            assert_fup_matches_remine(
                &original,
                &increment,
                MinSupport::percent(pct),
                FupConfig::full(),
            );
        }
    }

    #[test]
    fn deep_itemsets_are_maintained() {
        // A 4-itemset that only becomes large thanks to the increment.
        let original = db(&[
            &[1, 2, 3, 4],
            &[1, 2, 3, 4],
            &[5, 6],
            &[5, 6],
            &[1, 2],
            &[3, 4],
        ]);
        let increment = db(&[&[1, 2, 3, 4], &[1, 2, 3, 4], &[5, 6]]);
        let minsup = MinSupport::ratio(4, 9); // 4 of 9
        let out = assert_fup_matches_remine(&original, &increment, minsup, FupConfig::full());
        assert_eq!(out.large.support(&s(&[1, 2, 3, 4])), Some(4));
    }

    #[test]
    fn losers_cascade_via_lemma3() {
        // {1,2} is large initially; the increment floods unrelated
        // transactions so 1 itself drops below threshold. The 2-itemset
        // must be filtered by Lemma 3 without a candidate scan.
        let original = db(&[&[1, 2], &[1, 2], &[3], &[3]]);
        let increment = db(&[&[3], &[3], &[3], &[3]]);
        let minsup = MinSupport::percent(50);
        let out = assert_fup_matches_remine(&original, &increment, minsup, FupConfig::full());
        assert!(!out.large.contains(&s(&[1, 2])));
        let d2 = out.detail.iter().find(|d| d.k == 2).unwrap();
        assert_eq!(d2.lemma3_losers, 1);
        assert_eq!(d2.winners_from_old, 0);
    }

    #[test]
    fn vertical_backend_matches_remine_and_hash_tree() {
        use fup_mining::{CountingBackend, EngineConfig};
        let original = db(&[
            &[1, 2, 3, 4],
            &[1, 2, 3],
            &[2, 3, 4],
            &[1, 3, 4],
            &[2, 4],
            &[1, 2, 4, 5],
            &[5, 6],
        ]);
        let increment = db(&[&[1, 2, 3, 4], &[4, 5, 6], &[1, 5], &[2, 3, 6]]);
        for pct in [15, 30, 50] {
            let minsup = MinSupport::percent(pct);
            let vertical_cfg = FupConfig {
                engine: EngineConfig::default().with_backend(CountingBackend::Vertical),
                ..FupConfig::full()
            };
            let out = assert_fup_matches_remine(&original, &increment, minsup, vertical_cfg);
            // And the per-pass statistics agree with the hash-tree path.
            let hash = mine_then_update(&original, &increment, minsup, FupConfig::full()).unwrap();
            assert_eq!(out.detail, hash.detail, "minsup {pct}%");
        }
    }

    #[test]
    fn reduce_db_configurations_agree() {
        let original = db(&[
            &[1, 2, 3, 4, 5],
            &[1, 2, 3],
            &[2, 3, 4],
            &[1, 4, 5],
            &[2, 5],
            &[1, 2, 4, 5],
        ]);
        let increment = db(&[&[1, 2, 3], &[3, 4, 5], &[1, 2, 3, 4, 5], &[2, 3]]);
        for pct in [20, 35, 50] {
            let minsup = MinSupport::percent(pct);
            let full = mine_then_update(&original, &increment, minsup, FupConfig::full()).unwrap();
            let bare = mine_then_update(&original, &increment, minsup, FupConfig::bare()).unwrap();
            assert!(
                full.large.same_itemsets(&bare.large),
                "minsup {pct}%: {:?}",
                full.large.diff(&bare.large)
            );
        }
    }

    #[test]
    fn no_db_scan_when_no_candidates_survive() {
        // All increment items already large; C1 empty and C2 pruned to
        // nothing → with trimming disabled, DB is never scanned after
        // pass 1.
        let original = db(&[&[1, 2], &[1, 2], &[1, 2], &[1, 2]]);
        let increment = db(&[&[1, 2]]);
        let minsup = MinSupport::percent(80);
        let baseline = Apriori::new().run(&original, minsup).large;
        let scans_before = original.metrics().full_scans();
        let out = Fup::with_config(FupConfig::bare())
            .update(&original, &baseline, &increment, minsup)
            .unwrap();
        // No candidates at any level → zero additional DB scans.
        assert_eq!(original.metrics().full_scans(), scans_before);
        assert!(out.large.contains(&s(&[1, 2])));
        assert_eq!(out.large.support(&s(&[1, 2])), Some(5));
    }

    #[test]
    fn max_k_limits_iterations() {
        let original = db(&[&[1, 2, 3], &[1, 2, 3]]);
        let increment = db(&[&[1, 2, 3]]);
        let minsup = MinSupport::percent(100);
        let baseline = Apriori::new().run(&original, minsup).large;
        let out = Fup::with_config(FupConfig {
            max_k: Some(2),
            ..FupConfig::full()
        })
        .update(&original, &baseline, &increment, minsup)
        .unwrap();
        assert_eq!(out.large.max_size(), 2);
    }

    #[test]
    fn detail_candidate_accounting_is_consistent() {
        let original = db(&[&[1, 2, 3], &[1, 2], &[2, 3], &[1, 3], &[4, 5]]);
        let increment = db(&[&[4, 5], &[4, 5], &[1, 2, 3]]);
        let out = mine_then_update(
            &original,
            &increment,
            MinSupport::percent(40),
            FupConfig::full(),
        )
        .unwrap();
        for d in &out.detail {
            assert!(d.candidates_after_hash <= d.candidates_generated, "{d:?}");
            assert!(d.candidates_checked <= d.candidates_after_hash, "{d:?}");
            assert!(d.winners_from_new <= d.candidates_checked, "{d:?}");
            assert!(d.winners_from_old + d.lemma3_losers <= d.old_large, "{d:?}");
        }
        // Stats mirror detail.
        assert_eq!(out.stats.num_passes(), out.detail.len());
    }
}
