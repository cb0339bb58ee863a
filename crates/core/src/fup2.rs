//! FUP2 — the general insert/delete maintenance algorithm.
//!
//! §5 of the paper: "We have also investigated the cases of deletion and
//! modification of a transaction database." FUP2 generalises FUP to an
//! update `DB' = (DB − db⁻) ∪ db⁺` (a modification is a delete plus an
//! insert):
//!
//! * For an **old** large itemset `X ∈ L_k`, the new support is exact
//!   arithmetic over the small parts alone:
//!   `X.support' = X.support_D − X.support_{db⁻} + X.support_{db⁺}` —
//!   no scan of the remaining database `DB⁻ = DB − db⁻` is needed.
//! * For a **candidate** `X ∉ L_k`, only the bound
//!   `X.support_D ≤ ⌈s×D⌉ − 1` is known; `X` can be large in `DB'` only if
//!   `(⌈s×D⌉ − 1) − X.support_{db⁻} + X.support_{db⁺} ≥ ⌈s×(D−d⁻+d⁺)⌉`.
//!   Candidates failing this test are pruned before the `DB⁻` scan — the
//!   FUP2 analogue of Lemma 2/5. (With `db⁻ = ∅` the test reduces exactly
//!   to FUP's `support_{db} ≥ s×d` up to the known-small slack, and FUP's
//!   stronger form is applied in that case.)
//!
//! Trimming: the insert side and `DB⁻` are trimmed as in FUP; the *delete*
//! side is never trimmed — undercounting `support_{db⁻}` would inflate
//! `support'` and could fabricate winners, so `db⁻` is always scanned
//! whole (it is small by assumption).

use crate::config::FupConfig;
use crate::error::{Error, Result};
use crate::fup::{FupOutcome, FupPassDetail};
use crate::reduce;
use crate::vindex::{IndexSlot, SlotProvider, VerticalProvider};
use fup_mining::engine::{self, count_items_and_pairs, pair_bucket, ChunkedCollector};
use fup_mining::gen::apriori_gen_with;
use fup_mining::vertical::{PassProfile, ResolvedBackend};
use fup_mining::{
    HashTree, Itemset, ItemsetTable, LargeItemsets, MinSupport, MiningStats, PassStats,
};
use fup_tidb::{ItemId, TransactionDb, TransactionSource};
use std::collections::HashSet;
use std::time::Instant;

/// The FUP2 incremental updater (insertions + deletions).
#[derive(Debug, Clone, Default)]
pub struct Fup2 {
    config: FupConfig,
}

impl Fup2 {
    /// Creates an updater with the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an updater with an explicit configuration.
    pub fn with_config(config: FupConfig) -> Self {
        Fup2 { config }
    }

    /// Computes `L'`, the large itemsets of `DB' = (DB − db⁻) ∪ db⁺`.
    ///
    /// * `remainder` — `DB⁻ = DB − db⁻` (e.g. a
    ///   [`SegmentedDb`](fup_tidb::SegmentedDb) with a staged update),
    /// * `old` — the large itemsets of the *original* `DB` (including the
    ///   deleted transactions) with support counts,
    /// * `deleted` — `db⁻`, the removed transactions,
    /// * `inserted` — `db⁺`, the new transactions,
    /// * `minsup` — the unchanged minimum support threshold.
    pub fn update(
        &self,
        remainder: &dyn TransactionSource,
        old: &LargeItemsets,
        deleted: &dyn TransactionSource,
        inserted: &dyn TransactionSource,
        minsup: MinSupport,
    ) -> Result<FupOutcome> {
        let mut slot = IndexSlot::new();
        let mut provider =
            SlotProvider::new(&mut slot, remainder, inserted, remainder.num_transactions());
        self.update_with_provider(remainder, old, deleted, inserted, minsup, &mut provider)
    }

    /// [`update`](Self::update) generalised over the source of vertical
    /// splits, exactly as [`Fup::update_with_provider`](crate::fup::Fup):
    /// `update` counts through a throwaway [`SlotProvider`] over
    /// `DB⁻`/`db⁺`, the session through a
    /// [`ShardProvider`](crate::shard::ShardProvider) whose per-shard
    /// persistent indexes (a single one by default) merge by summation.
    /// The delete side is never indexed — it is counted whole either way.
    pub(crate) fn update_with_provider(
        &self,
        remainder: &dyn TransactionSource,
        old: &LargeItemsets,
        deleted: &dyn TransactionSource,
        inserted: &dyn TransactionSource,
        minsup: MinSupport,
        provider: &mut dyn VerticalProvider,
    ) -> Result<FupOutcome> {
        let start = Instant::now();
        let d_rem = remainder.num_transactions();
        let d_minus = deleted.num_transactions();
        let d_plus = inserted.num_transactions();
        let d_orig = d_rem + d_minus;
        if old.num_transactions() != d_orig {
            return Err(Error::StaleBaseline {
                baseline: old.num_transactions(),
                database: d_orig,
            });
        }
        let n = d_rem + d_plus;

        let mut stats = MiningStats::new("fup2");
        if d_minus == 0 && d_plus == 0 {
            stats.elapsed = start.elapsed();
            return Ok(FupOutcome {
                large: old.clone(),
                stats,
                detail: Vec::new(),
            });
        }
        if n == 0 {
            // Everything was deleted; no itemset has support.
            stats.elapsed = start.elapsed();
            return Ok(FupOutcome {
                large: LargeItemsets::new(0),
                stats,
                detail: Vec::new(),
            });
        }

        let mut result = LargeItemsets::new(n);
        let mut detail = Vec::new();

        // The candidate-pruning bound: X ∉ L_k means
        // support_D(X) ≤ old_cap = ⌈s×D⌉ − 1.
        let old_cap = minsup.required_count(d_orig).saturating_sub(1);
        let survives = |sup_minus: u64, sup_plus: u64| -> bool {
            // (old_cap − sup_minus + sup_plus ≥ required(n)), in i128 to
            // dodge underflow.
            let bound = i128::from(old_cap) - i128::from(sup_minus) + i128::from(sup_plus);
            bound >= i128::from(minsup.required_count(n))
        };

        // ------------------------- Iteration 1 -------------------------
        // Adaptive bucket count, as in `Fup`: ~one bucket per expected pair
        // occurrence in `db⁺`, capped by the configuration.
        let nbuckets_plus = if self.config.dhp_hash && d_plus > 0 {
            (d_plus.saturating_mul(64))
                .next_power_of_two()
                .clamp(1024, self.config.hash_buckets.max(1024) as u64) as usize
        } else {
            0
        };
        let (plus_counts, pair_buckets) =
            count_items_and_pairs(inserted, nbuckets_plus, &self.config.engine);
        let (minus_counts, _) = count_items_and_pairs(deleted, 0, &self.config.engine);
        let at = |v: &Vec<u64>, item: ItemId| v.get(item.index()).copied().unwrap_or(0);

        let mut losers_prev: HashSet<Itemset> = HashSet::new();
        let mut winners_from_old = 0u64;
        for (x, sup_d) in old.level(1) {
            let item = x.items()[0];
            let sup_new = sup_d + at(&plus_counts, item) - at(&minus_counts, item);
            if minsup.is_large(sup_new, n) {
                result.insert(x.clone(), sup_new);
                winners_from_old += 1;
            } else {
                losers_prev.insert(x.clone());
            }
        }

        // Candidate items: anything not in L₁ may emerge (deletions can
        // promote items that never occur in db⁺), so all items are counted
        // in one dense pass over DB⁻ and decided afterwards. The
        // `survives` bound still prunes the *reporting*, and for the
        // insert-only case FUP's stronger Lemma-2 check applies.
        let rem_counts = if let Some(counts) = provider.count_base_dense(&self.config.engine) {
            // A remote provider histogrammed DB⁻ where its rows live;
            // per-shard histograms sum to exactly this scan's output.
            counts
        } else {
            engine::merge_dense(engine::scan_fold(
                remainder,
                &self.config.engine,
                Vec::new,
                |counts: &mut Vec<u64>, _chunk, t| {
                    for &item in t {
                        let i = item.index();
                        if i >= counts.len() {
                            counts.resize(i + 1, 0);
                        }
                        counts[i] += 1;
                    }
                },
            ))
        };
        let max_len = rem_counts
            .len()
            .max(plus_counts.len())
            .max(minus_counts.len());
        let mut winners_from_new1 = 0u64;
        let mut generated1 = 0u64;
        let mut checked1 = 0u64;
        for i in 0..max_len {
            let item = ItemId(i as u32);
            let x = Itemset::single(item);
            if old.contains(&x) {
                continue;
            }
            let plus = at(&plus_counts, item);
            let minus = at(&minus_counts, item);
            let rem = rem_counts.get(i).copied().unwrap_or(0);
            if plus == 0 && minus == 0 && rem == 0 {
                continue;
            }
            generated1 += 1;
            if !survives(minus, plus) {
                continue;
            }
            checked1 += 1;
            let sup_new = rem + plus;
            if minsup.is_large(sup_new, n) {
                result.insert(x, sup_new);
                winners_from_new1 += 1;
            }
        }
        stats.passes.push(PassStats {
            k: 1,
            candidates_generated: generated1,
            candidates_checked: checked1,
            large_found: winners_from_old + winners_from_new1,
        });
        detail.push(FupPassDetail {
            k: 1,
            old_large: old.len_at(1) as u64,
            lemma3_losers: 0,
            winners_from_old,
            candidates_generated: generated1,
            candidates_after_hash: generated1,
            candidates_checked: checked1,
            winners_from_new: winners_from_new1,
        });

        // --------------------- Iterations k ≥ 2 ------------------------
        // Backend selection input: raw average transaction length of
        // whichever delta side has data stands in for the frequent-item
        // residue (an overestimate on filler-heavy data, as in `Fup`; the
        // index itself is filtered to old L₁ ∪ new L₁).
        let residue = if d_plus > 0 {
            plus_counts.iter().sum::<u64>() as f64 / d_plus as f64
        } else {
            minus_counts.iter().sum::<u64>() as f64 / d_minus.max(1) as f64
        };
        // The vertical index (or per-shard indexes) covering DB⁻ ∪ db⁺
        // (the updated database) is built lazily by the provider: the
        // remainder's tid-lists are materialised once and the insert
        // side's delta scan only extends them; one intersection split at
        // tid |DB⁻| yields (support in DB⁻, support in db⁺). The delete
        // side is never indexed — it is counted whole, as the trimming
        // rules already require.
        let nbuckets = pair_buckets.len();
        let mut plus_working: Option<TransactionDb> = None;
        let mut rem_working: Option<TransactionDb> = None;
        let mut k = 2;
        while (old.len_at(k) > 0 || result.len_at(k - 1) > 0)
            && self.config.max_k.is_none_or(|m| k <= m)
        {
            // Lemma 3 (unchanged): supersets of losers lose.
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

            let prev_new: Vec<Itemset> = result.level(k - 1).map(|(x, _)| x.clone()).collect();
            let mut candidates: Vec<Itemset> = apriori_gen_with(&prev_new, &self.config.engine.gen)
                .into_iter()
                .filter(|x| !old.contains(x))
                .collect();
            let generated = candidates.len() as u64;
            if k == 2 && nbuckets > 0 && d_minus == 0 {
                // Pure insertion: the db⁺ pair buckets bound support_{db⁺},
                // and FUP's Lemma-5 form applies.
                candidates.retain(|c| {
                    let b = pair_bucket(c.items()[0], c.items()[1], nbuckets);
                    minsup.is_large(pair_buckets[b], d_plus)
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
                losers_prev = losers_k;
                k += 1;
                continue;
            }

            // Vertical path (sticky once engaged): (DB⁻, db⁺) supports
            // come from one split intersection per itemset; only the
            // small delete side still runs a counting pass. Decisions
            // mirror the scanning path exactly.
            // As in FUP: only `C` can force scans of the remaining
            // database, so backend selection weighs the candidate pool
            // alone.
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
                plus_working = None;
                rem_working = None;
                let w_table = crate::vindex::sorted_w_table(&mut w, k);
                let w_len = w.len();
                // db⁻ supports for W ∪ C (in W-then-C order) via one pass
                // over the (small, never trimmed) delete side.
                let minus_k: Vec<u64> = if d_minus > 0 {
                    let mut combined: Vec<Itemset> = Vec::with_capacity(w_len + candidates.len());
                    combined.extend(w.iter().map(|(x, _)| x.clone()));
                    combined.extend(candidates.iter().cloned());
                    let mut tree = HashTree::build(combined);
                    engine::count_source_into(&mut tree, deleted, &self.config.engine);
                    tree.into_counts()
                } else {
                    vec![0; w_len + candidates.len()]
                };
                let w_splits = provider.count_split(&w_table, &self.config.engine);
                let mut winners_old_k = 0u64;
                for (i, ((x, sup_d), &(_, sup_plus))) in w.iter().zip(&w_splits).enumerate() {
                    let sup_new = sup_d + sup_plus - minus_k[i];
                    if minsup.is_large(sup_new, n) {
                        result.insert(x.clone(), sup_new);
                        winners_old_k += 1;
                    } else {
                        losers_k.insert(x.clone());
                    }
                }
                let c_table = ItemsetTable::from_sorted_itemsets(&candidates);
                let c_splits = provider.count_split(&c_table, &self.config.engine);
                let mut checked = 0u64;
                let mut winners_new_k = 0u64;
                for (i, (x, (sup_rem, sup_plus))) in
                    candidates.into_iter().zip(c_splits).enumerate()
                {
                    let sup_minus = minus_k[w_len + i];
                    // The FUP2 bound (or FUP's stronger Lemma 5 without
                    // deletions) gates winners exactly as the scanning
                    // path does, keeping `checked` and the result
                    // identical.
                    let keep = if d_minus == 0 {
                        minsup.is_large(sup_plus, d_plus)
                    } else {
                        survives(sup_minus, sup_plus)
                    };
                    if !keep {
                        continue;
                    }
                    checked += 1;
                    let sup_new = sup_rem + sup_plus;
                    if minsup.is_large(sup_new, n) {
                        result.insert(x, sup_new);
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

            // Count W ∪ C over db⁺ (trimming allowed) and db⁻ (never
            // trimmed — see module docs).
            let w_len = w.len();
            let mut combined: Vec<Itemset> = Vec::with_capacity(w_len + candidates.len());
            combined.extend(w.iter().map(|(x, _)| x.clone()));
            combined.extend(candidates.iter().cloned());
            let mut tree = HashTree::build(combined);
            // Engine pass over db⁺ with optional `Reduce-db` trimming
            // (chunk-ordered, so the working copy is deterministic).
            let reduce_plus = self.config.reduce_db;
            {
                let src: &dyn TransactionSource = match &plus_working {
                    Some(wdb) => wdb,
                    None => inserted,
                };
                let view = tree.view();
                let folds = engine::scan_fold(
                    src,
                    &self.config.engine,
                    || (tree.new_scratch(), ChunkedCollector::new()),
                    |(scratch, kept), chunk, t| {
                        if reduce_plus {
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
                if reduce_plus {
                    plus_working = Some(TransactionDb::from_transactions(ChunkedCollector::merge(
                        collectors,
                    )));
                }
            }
            let plus_counts_k = tree.counts().to_vec();
            // The delete side is never trimmed (see module docs); counting
            // it on top of the db⁺ counts gives the combined totals.
            engine::count_source_into(&mut tree, deleted, &self.config.engine);
            let total_counts_k = tree.counts().to_vec();
            let minus_of = |i: usize| total_counts_k[i] - plus_counts_k[i];

            // Winners/losers among W, by exact delta arithmetic.
            let mut winners_old_k = 0u64;
            for (idx, (x, sup_d)) in w.iter().enumerate() {
                let sup_new = sup_d + plus_counts_k[idx] - minus_of(idx);
                if minsup.is_large(sup_new, n) {
                    result.insert(x.clone(), sup_new);
                    winners_old_k += 1;
                } else {
                    losers_k.insert(x.clone());
                }
            }

            // Prune candidates by the FUP2 bound (and FUP's stronger
            // Lemma-5 when there are no deletions).
            let mut pruned: Vec<(Itemset, u64)> = Vec::new();
            for (idx, x) in candidates.into_iter().enumerate() {
                let sup_plus = plus_counts_k[w_len + idx];
                let sup_minus = minus_of(w_len + idx);
                let keep = if d_minus == 0 {
                    minsup.is_large(sup_plus, d_plus)
                } else {
                    survives(sup_minus, sup_plus)
                };
                if keep {
                    pruned.push((x, sup_plus));
                }
            }
            let checked = pruned.len() as u64;

            // Scan DB⁻ for the survivors; apply Reduce-DB.
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
                    let src: &dyn TransactionSource = match &rem_working {
                        Some(wdb) => wdb,
                        None => remainder,
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
                        rem_working = Some(TransactionDb::from_transactions(
                            ChunkedCollector::merge(collectors),
                        ));
                    }
                }
                for ((x, sup_plus), sup_rem) in pruned.into_iter().zip(ctree.counts()) {
                    let sup_new = sup_rem + sup_plus;
                    if minsup.is_large(sup_new, n) {
                        result.insert(x, sup_new);
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

        // The provider's index(es) now cover DB⁻ ∪ db⁺ — exactly the
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

#[cfg(test)]
mod tests {
    use super::*;
    use fup_mining::Apriori;
    use fup_tidb::source::ChainSource;
    use fup_tidb::{SegmentedDb, Transaction, UpdateBatch};

    fn tx(items: &[u32]) -> Transaction {
        Transaction::from_items(items.iter().copied())
    }

    fn s(items: &[u32]) -> Itemset {
        Itemset::from_items(items.iter().copied())
    }

    /// Drives a staged update through FUP2 and cross-checks against a full
    /// re-mine of the updated database.
    fn check_fup2(
        initial: Vec<Transaction>,
        delete_idx: &[usize],
        inserts: Vec<Transaction>,
        minsup: MinSupport,
        config: FupConfig,
    ) -> FupOutcome {
        let mut store = SegmentedDb::new();
        let tids = store.append_all(initial);
        let baseline = Apriori::new().run(&store, minsup).large;
        let batch = UpdateBatch {
            inserts,
            deletes: delete_idx.iter().map(|&i| tids[i]).collect(),
        };
        let staged = store.stage(batch).unwrap();
        let out = Fup2::with_config(config)
            .update(
                &store,
                &baseline,
                staged.deleted(),
                staged.inserted(),
                minsup,
            )
            .unwrap();
        // Re-mine the committed database for the ground truth.
        let updated = ChainSource::new(&store, staged.inserted());
        let remined = Apriori::new().run(&updated, minsup).large;
        assert!(
            out.large.same_itemsets(&remined),
            "FUP2 disagrees with re-mining: {:?}",
            out.large.diff(&remined)
        );
        store.commit(staged);
        out
    }

    #[test]
    fn insert_only_matches_fup_semantics() {
        check_fup2(
            vec![tx(&[1, 2, 3]), tx(&[1, 2]), tx(&[2, 3]), tx(&[3, 4])],
            &[],
            vec![tx(&[1, 2, 3]), tx(&[1, 4])],
            MinSupport::percent(40),
            FupConfig::full(),
        );
    }

    #[test]
    fn delete_only_can_promote_itemsets() {
        // {4,5} has support 2 of 6 (33%) — small at 40%. Deleting two
        // transactions without {4,5} lifts it to 2 of 4 (50%).
        let out = check_fup2(
            vec![
                tx(&[4, 5]),
                tx(&[4, 5]),
                tx(&[1, 2]),
                tx(&[1, 2]),
                tx(&[1, 3]),
                tx(&[2, 3]),
            ],
            &[4, 5],
            vec![],
            MinSupport::percent(40),
            FupConfig::full(),
        );
        assert_eq!(out.large.support(&s(&[4, 5])), Some(2));
    }

    #[test]
    fn delete_only_can_demote_itemsets() {
        // Deleting the transactions that carried {1,2} kills it.
        let out = check_fup2(
            vec![tx(&[1, 2]), tx(&[1, 2]), tx(&[3, 4]), tx(&[3, 4])],
            &[0, 1],
            vec![],
            MinSupport::percent(50),
            FupConfig::full(),
        );
        assert!(!out.large.contains(&s(&[1, 2])));
        assert_eq!(out.large.support(&s(&[3, 4])), Some(2));
    }

    #[test]
    fn mixed_insert_delete() {
        for pct in [25, 40, 60] {
            check_fup2(
                vec![
                    tx(&[1, 2, 3]),
                    tx(&[1, 2]),
                    tx(&[2, 3, 4]),
                    tx(&[1, 3, 4]),
                    tx(&[2, 4]),
                    tx(&[5, 6]),
                ],
                &[1, 4],
                vec![tx(&[5, 6]), tx(&[5, 6, 1]), tx(&[1, 2, 3, 4])],
                MinSupport::percent(pct),
                FupConfig::full(),
            );
        }
    }

    #[test]
    fn mixed_update_bare_config() {
        check_fup2(
            vec![tx(&[1, 2, 3]), tx(&[2, 3]), tx(&[1, 3]), tx(&[3, 4])],
            &[3],
            vec![tx(&[1, 2]), tx(&[1, 2, 3])],
            MinSupport::percent(40),
            FupConfig::bare(),
        );
    }

    #[test]
    fn vertical_backend_matches_remine_on_mixed_updates() {
        use fup_mining::{CountingBackend, EngineConfig};
        let vertical_cfg = || FupConfig {
            engine: EngineConfig::default().with_backend(CountingBackend::Vertical),
            ..FupConfig::full()
        };
        for pct in [25, 40, 60] {
            // Mixed insert + delete.
            check_fup2(
                vec![
                    tx(&[1, 2, 3]),
                    tx(&[1, 2]),
                    tx(&[2, 3, 4]),
                    tx(&[1, 3, 4]),
                    tx(&[2, 4]),
                    tx(&[5, 6]),
                ],
                &[1, 4],
                vec![tx(&[5, 6]), tx(&[5, 6, 1]), tx(&[1, 2, 3, 4])],
                MinSupport::percent(pct),
                vertical_cfg(),
            );
        }
        // Delete-only (db⁺ empty: the index covers DB⁻ alone).
        check_fup2(
            vec![
                tx(&[4, 5]),
                tx(&[4, 5]),
                tx(&[1, 2]),
                tx(&[1, 2]),
                tx(&[1, 3]),
                tx(&[2, 3]),
            ],
            &[4, 5],
            vec![],
            MinSupport::percent(40),
            vertical_cfg(),
        );
        // Insert-only (FUP's stronger Lemma-5 gate applies).
        check_fup2(
            vec![tx(&[1, 2, 3]), tx(&[1, 2]), tx(&[2, 3]), tx(&[3, 4])],
            &[],
            vec![tx(&[1, 2, 3]), tx(&[1, 4])],
            MinSupport::percent(40),
            vertical_cfg(),
        );
    }

    #[test]
    fn delete_everything_yields_empty() {
        let mut store = SegmentedDb::new();
        let tids = store.append_all(vec![tx(&[1, 2]), tx(&[1, 2])]);
        let minsup = MinSupport::percent(50);
        let baseline = Apriori::new().run(&store, minsup).large;
        let staged = store.stage(UpdateBatch::delete_only(tids)).unwrap();
        let out = Fup2::new()
            .update(
                &store,
                &baseline,
                staged.deleted(),
                staged.inserted(),
                minsup,
            )
            .unwrap();
        assert!(out.large.is_empty());
        assert_eq!(out.large.num_transactions(), 0);
    }

    #[test]
    fn noop_update_returns_baseline() {
        let mut store = SegmentedDb::new();
        store.append_all(vec![tx(&[1, 2]), tx(&[2, 3])]);
        let minsup = MinSupport::percent(50);
        let baseline = Apriori::new().run(&store, minsup).large;
        let staged = store.stage(UpdateBatch::default()).unwrap();
        let out = Fup2::new()
            .update(
                &store,
                &baseline,
                staged.deleted(),
                staged.inserted(),
                minsup,
            )
            .unwrap();
        assert!(out.large.same_itemsets(&baseline));
        assert_eq!(out.stats.num_passes(), 0);
    }

    #[test]
    fn stale_baseline_rejected() {
        let store = SegmentedDb::from_transactions(vec![tx(&[1])]);
        let empty = TransactionDb::new();
        let wrong = LargeItemsets::new(7);
        let err = Fup2::new()
            .update(&store, &wrong, &empty, &empty, MinSupport::percent(10))
            .unwrap_err();
        assert!(matches!(
            err,
            Error::StaleBaseline {
                baseline: 7,
                database: 1
            }
        ));
    }

    #[test]
    fn deep_itemsets_with_mixed_updates() {
        check_fup2(
            vec![
                tx(&[1, 2, 3, 4]),
                tx(&[1, 2, 3, 4]),
                tx(&[1, 2, 3]),
                tx(&[9, 8]),
                tx(&[9, 8, 7]),
            ],
            &[2],
            vec![tx(&[1, 2, 3, 4]), tx(&[9, 8, 7]), tx(&[7, 8])],
            MinSupport::percent(40),
            FupConfig::full(),
        );
    }

    #[test]
    fn deletions_that_shift_threshold_boundary() {
        // Threshold boundary: 3 of 10 at 30%; delete 3 → 3 of 7 (42.9%) vs
        // required ⌈2.1⌉ = 3 — stays large; items at 2 of 10 → 2 of 7 vs 3
        // — still small.
        let mut initial = vec![tx(&[1]), tx(&[1]), tx(&[1]), tx(&[2]), tx(&[2])];
        for _ in 0..5 {
            initial.push(tx(&[99]));
        }
        check_fup2(
            initial,
            &[7, 8, 9],
            vec![],
            MinSupport::percent(30),
            FupConfig::full(),
        );
    }

    use fup_tidb::TransactionDb;
}
