//! The FUP/FUP2 round loop — the one place incremental maintenance runs.
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
//!   FUP2 analogue of Lemma 2/5.
//!
//! **FUP is the `db⁻ = ∅` case.** The arithmetic then reduces to FUP's
//! Lemmas 1 and 4, and the loop applies FUP's stronger Lemma 2/5 gate
//! (`X.support_{db⁺} ≥ s × d⁺`) instead of the bound, together with the
//! two savings it enables: pass 1 counts `DB` only for the items of
//! `db⁺` that survive Lemma 2 (no `DB` scan at all when none do), and
//! the DHP pair buckets over `db⁺` thin `C₂` before it is counted (§3.4).
//! [`Fup::update`](crate::Fup::update) is this loop with an empty `db⁻`,
//! and reports itself as `"fup"`; a round with deletions reports
//! `"fup2"`.
//!
//! Each iteration `k` scans at most the small sides `db⁺`/`db⁻` and, for
//! the candidates that pass the gate, `DB⁻` once. `Lemma 3` filters old
//! itemsets with a losing `(k−1)`-subset without any scan.
//!
//! Trimming: the insert side and `DB⁻` are trimmed as in FUP (`Reduce-db`
//! and `Reduce-DB`, §3.4); the *delete* side is never trimmed —
//! undercounting `support_{db⁻}` would inflate `support'` and could
//! fabricate winners, so `db⁻` is always scanned whole (it is small by
//! assumption).

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
    ///
    /// With an empty `deleted` this is exactly
    /// [`Fup::update`](crate::Fup::update).
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
    /// splits: `update` counts through a throwaway [`SlotProvider`] over
    /// `DB⁻`/`db⁺`, the session through a
    /// [`ShardProvider`](crate::shard::ShardProvider) whose per-shard
    /// persistent indexes (a single one by default) merge by summation.
    /// Every threshold decision is made on the summed supports, so the
    /// result is provider-independent. The delete side is never indexed —
    /// it is counted whole either way.
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

        let mut stats = MiningStats::new(if d_minus == 0 { "fup" } else { "fup2" });
        if d_minus == 0 && d_plus == 0 {
            // DB' = DB, so the baseline is the answer.
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

        // The candidate gate. Without deletions it is FUP's Lemma 2/5: a
        // candidate light in db⁺ cannot win. With deletions only the
        // bound X ∉ L_k ⇒ support_D(X) ≤ old_cap = ⌈s×D⌉ − 1 is known, so
        // X survives iff old_cap − support_{db⁻} + support_{db⁺} reaches
        // ⌈s×n⌉ (in i128 to dodge underflow).
        let old_cap = minsup.required_count(d_orig).saturating_sub(1);
        let gate = |sup_minus: u64, sup_plus: u64| -> bool {
            if d_minus == 0 {
                return minsup.is_large(sup_plus, d_plus);
            }
            let bound = i128::from(old_cap) - i128::from(sup_minus) + i128::from(sup_plus);
            bound >= i128::from(minsup.required_count(n))
        };

        // ------------------------- Iteration 1 -------------------------
        // One scan of db⁺: per-item counts, plus (optionally) DHP
        // pair-bucket counts for the iteration-2 filter. The buckets bound
        // support_{db⁺}, which decides a candidate only without
        // deletions, so they are hashed only then. Bucket count adapts to
        // the increment: ~one bucket per expected pair occurrence gives
        // strong filtering without allocating a huge table for a small
        // db⁺. `config.hash_buckets` caps it.
        let nbuckets = if self.config.dhp_hash && d_minus == 0 {
            (d_plus.saturating_mul(64))
                .next_power_of_two()
                .clamp(1024, self.config.hash_buckets.max(1024) as u64) as usize
        } else {
            0
        };
        let (plus_counts, pair_buckets) =
            count_items_and_pairs(inserted, nbuckets, &self.config.engine);
        let minus_counts = if d_minus > 0 {
            count_items_and_pairs(deleted, 0, &self.config.engine).0
        } else {
            Vec::new()
        };
        let at = |v: &[u64], item: ItemId| v.get(item.index()).copied().unwrap_or(0);

        // Winners and losers among the old L₁ (Lemma 1).
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

        // New candidate items: how many there are, and each one that
        // passes the gate with its support in DB'.
        let (generated1, checked1) = if d_minus == 0 {
            self.new_items_insert_only(remainder, old, &plus_counts, minsup, d_plus, provider)
        } else {
            self.new_items_with_deletes(remainder, old, &plus_counts, &minus_counts, gate, provider)
        };
        let mut winners_from_new1 = 0u64;
        for &(item, sup_new) in &checked1 {
            if minsup.is_large(sup_new, n) {
                result.insert(Itemset::single(item), sup_new);
                winners_from_new1 += 1;
            }
        }
        stats.passes.push(PassStats {
            k: 1,
            candidates_generated: generated1,
            candidates_checked: checked1.len() as u64,
            large_found: winners_from_old + winners_from_new1,
        });
        detail.push(FupPassDetail {
            k: 1,
            old_large: old.len_at(1) as u64,
            lemma3_losers: 0,
            winners_from_old,
            candidates_generated: generated1,
            candidates_after_hash: generated1,
            candidates_checked: checked1.len() as u64,
            winners_from_new: winners_from_new1,
        });

        // --------------------- Iterations k ≥ 2 ------------------------
        // Backend selection input: raw average transaction length of
        // whichever delta side has data stands in for the frequent-item
        // residue the miners feed `Auto` (the frequent set of DB' is not
        // known here without extra work) — an overestimate on
        // filler-heavy data, so `Auto` may engage slightly earlier than
        // the calibrated thresholds intend; the index itself *is* filtered
        // to old L₁ ∪ new L₁ (see `vindex::build_update_index`).
        let residue = if d_plus > 0 {
            plus_counts.iter().sum::<u64>() as f64 / d_plus as f64
        } else {
            minus_counts.iter().sum::<u64>() as f64 / d_minus as f64
        };
        // The vertical index (or per-shard indexes) covering DB⁻ ∪ db⁺
        // (the updated database) is built lazily by the provider: the
        // remainder's tid-lists are materialised once and the insert
        // side's delta scan only extends them; one intersection split at
        // tid |DB⁻| yields (support in DB⁻, support in db⁺).
        let mut plus_working: Option<TransactionDb> = None;
        let mut rem_working: Option<TransactionDb> = None;
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
            // bucket total bounds its db⁺ support, so a light bucket proves
            // Lemma 5's condition fails.
            if k == 2 && !pair_buckets.is_empty() {
                let nbuckets = pair_buckets.len();
                candidates.retain(|c| {
                    let b = pair_bucket(c.items()[0], c.items()[1], nbuckets);
                    minsup.is_large(pair_buckets[b], d_plus)
                });
            }
            let after_hash = candidates.len() as u64;

            let (winners_old_k, checked, winners_new_k) = if w.is_empty() && candidates.is_empty() {
                // Every remaining old itemset at this level is a loser.
                (0, 0, 0)
            } else {
                let w_len = w.len();
                // Vertical path (sticky once engaged): every (DB⁻, db⁺)
                // support of W ∪ C comes from one split intersection per
                // itemset — no scan of either source beyond the one-time
                // index build. Only `C` can force scans of the big
                // remaining database (W is counted over the small sides
                // either way), so backend selection weighs the candidate
                // pool alone: the gate usually keeps it tiny, and then the
                // classic path is already near-optimal.
                let use_vertical = provider.engaged()
                    || self.config.engine.backend.resolve(&PassProfile {
                        k,
                        candidates: candidates.len(),
                        transactions: n,
                        residue,
                    }) == ResolvedBackend::Vertical;
                // db⁺ supports of W then C, db⁻ supports likewise (empty
                // without deletions), and — from the index — the DB⁻
                // supports of every candidate.
                let (plus_k, minus_k, rem_c) = if use_vertical {
                    provider.engage(old, &result, &self.config.engine);
                    // Trimmed working copies are never consulted again.
                    plus_working = None;
                    rem_working = None;
                    let w_table = crate::vindex::sorted_w_table(&mut w, k);
                    let minus_k = if d_minus > 0 {
                        let mut tree = HashTree::build(
                            w.iter()
                                .map(|(x, _)| x.clone())
                                .chain(candidates.iter().cloned())
                                .collect(),
                        );
                        engine::count_source_into(&mut tree, deleted, &self.config.engine);
                        tree.into_counts()
                    } else {
                        Vec::new()
                    };
                    let mut plus_k: Vec<u64> = provider
                        .count_split(&w_table, &self.config.engine)
                        .into_iter()
                        .map(|(_, sup_plus)| sup_plus)
                        .collect();
                    let c_table = ItemsetTable::from_sorted_itemsets(&candidates);
                    let (rem_c, plus_c): (Vec<u64>, Vec<u64>) = provider
                        .count_split(&c_table, &self.config.engine)
                        .into_iter()
                        .unzip();
                    plus_k.extend(plus_c);
                    (plus_k, minus_k, Some(rem_c))
                } else {
                    let (plus_k, minus_k) = self.count_small_sides(
                        &w,
                        &candidates,
                        k,
                        inserted,
                        deleted,
                        &mut plus_working,
                    );
                    (plus_k, minus_k, None)
                };
                let minus_at = |i: usize| minus_k.get(i).copied().unwrap_or(0);

                // Winners/losers among W by exact delta arithmetic
                // (Lemma 4 when nothing is deleted).
                let mut winners_old_k = 0u64;
                for (i, (x, sup_d)) in w.iter().enumerate() {
                    let sup_new = sup_d + plus_k[i] - minus_at(i);
                    if minsup.is_large(sup_new, n) {
                        result.insert(x.clone(), sup_new);
                        winners_old_k += 1;
                    } else {
                        losers_k.insert(x.clone());
                    }
                }

                // Gate the candidates; only survivors need their DB⁻
                // support.
                let mut pruned: Vec<(Itemset, u64)> = Vec::new();
                let mut rem_pruned: Vec<u64> = Vec::new();
                for (i, x) in candidates.into_iter().enumerate() {
                    let sup_plus = plus_k[w_len + i];
                    if gate(minus_at(w_len + i), sup_plus) {
                        pruned.push((x, sup_plus));
                        if let Some(rem_c) = &rem_c {
                            rem_pruned.push(rem_c[i]);
                        }
                    }
                }
                let checked = pruned.len() as u64;
                if rem_c.is_none() && !pruned.is_empty() {
                    rem_pruned = self.count_remainder(&pruned, old, k, remainder, &mut rem_working);
                }
                let mut winners_new_k = 0u64;
                for ((x, sup_plus), sup_rem) in pruned.into_iter().zip(rem_pruned) {
                    let sup_new = sup_rem + sup_plus;
                    if minsup.is_large(sup_new, n) {
                        result.insert(x, sup_new);
                        winners_new_k += 1;
                    }
                }
                (winners_old_k, checked, winners_new_k)
            };

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

    /// Pass 1's new items without deletions (FUP's iteration 1): only
    /// items of db⁺ can emerge, Lemma 2 drops those light in db⁺ (the
    /// paper's P set), and `DB` is counted for the survivors alone —
    /// not at all when none survive, FUP's headline saving. Returns the
    /// number of candidates and each survivor with its support in `DB'`.
    ///
    /// Deviation from the paper's letter, kept to its spirit: the paper
    /// rewrites `DB` without the P items *during* this scan, because on
    /// disk the rewrite rides along for free. In memory a copy is pure
    /// overhead, and the `Reduce-DB` keep-set applied at iteration 2
    /// (items of `L₂ ∪ C₂` only) strictly subsumes P-removal, so the
    /// first trimmed copy is built there instead.
    fn new_items_insert_only(
        &self,
        remainder: &dyn TransactionSource,
        old: &LargeItemsets,
        plus_counts: &[u64],
        minsup: MinSupport,
        d_plus: u64,
        provider: &dyn VerticalProvider,
    ) -> (u64, Vec<(ItemId, u64)>) {
        let mut generated = 0u64;
        let mut c1: Vec<(ItemId, u64)> = Vec::new();
        for (i, &count) in plus_counts.iter().enumerate() {
            let item = ItemId(i as u32);
            if count == 0 || old.contains(&Itemset::single(item)) {
                continue;
            }
            generated += 1;
            if minsup.is_large(count, d_plus) {
                c1.push((item, count));
            }
        }
        if c1.is_empty() {
            return (generated, c1);
        }
        let items: Vec<ItemId> = c1.iter().map(|(item, _)| *item).collect();
        // A remote provider counts DB where its rows live; the summed
        // per-shard counts are the same sums this scan would produce.
        let db_counts = provider
            .count_base_items(&items, &self.config.engine)
            .unwrap_or_else(|| {
                // Items are dense, so the candidate index is a flat array
                // (u32::MAX = not a candidate) — no hashing in the hot loop.
                let max_item = items.iter().map(|i| i.index()).max().unwrap_or(0);
                let mut index_of: Vec<u32> = vec![u32::MAX; max_item + 1];
                for (idx, item) in items.iter().enumerate() {
                    index_of[item.index()] = idx as u32;
                }
                let tables = engine::scan_fold(
                    remainder,
                    &self.config.engine,
                    || vec![0u64; items.len()],
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
            });
        for ((_, sup), sup_db) in c1.iter_mut().zip(db_counts) {
            *sup += sup_db;
        }
        (generated, c1)
    }

    /// Pass 1's new items with deletions: an item absent from db⁺ can
    /// still emerge once rows leave, so every item of `DB⁻` is counted in
    /// one dense pass, and `gate` (the FUP2 bound) decides which are
    /// checked. Returns the number of candidates and each checked one
    /// with its support in `DB'`.
    fn new_items_with_deletes(
        &self,
        remainder: &dyn TransactionSource,
        old: &LargeItemsets,
        plus_counts: &[u64],
        minus_counts: &[u64],
        gate: impl Fn(u64, u64) -> bool,
        provider: &dyn VerticalProvider,
    ) -> (u64, Vec<(ItemId, u64)>) {
        // A remote provider histograms DB⁻ where its rows live;
        // per-shard histograms sum to exactly this scan's output.
        let rem_counts = provider
            .count_base_dense(&self.config.engine)
            .unwrap_or_else(|| {
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
            });
        let at = |v: &[u64], i: usize| v.get(i).copied().unwrap_or(0);
        let max_len = rem_counts
            .len()
            .max(plus_counts.len())
            .max(minus_counts.len());
        let mut generated = 0u64;
        let mut checked = Vec::new();
        for i in 0..max_len {
            let item = ItemId(i as u32);
            if old.contains(&Itemset::single(item)) {
                continue;
            }
            let (plus, minus, rem) = (at(plus_counts, i), at(minus_counts, i), at(&rem_counts, i));
            if plus == 0 && minus == 0 && rem == 0 {
                continue;
            }
            generated += 1;
            if gate(minus, plus) {
                checked.push((item, rem + plus));
            }
        }
        (generated, checked)
    }

    /// Hash-tree path of iteration `k`: the db⁺ and db⁻ supports of
    /// `W` then `C`. One engine pass over db⁺ (or its trimmed working
    /// copy) counts them and, with `Reduce-db`, keeps the trimmed
    /// transactions per chunk so the next working copy is deterministic.
    /// The delete side is never trimmed (see module docs) and is counted
    /// only when non-empty; its supports come back empty otherwise.
    fn count_small_sides(
        &self,
        w: &[(Itemset, u64)],
        candidates: &[Itemset],
        k: usize,
        inserted: &dyn TransactionSource,
        deleted: &dyn TransactionSource,
        plus_working: &mut Option<TransactionDb>,
    ) -> (Vec<u64>, Vec<u64>) {
        let mut combined: Vec<Itemset> = Vec::with_capacity(w.len() + candidates.len());
        combined.extend(w.iter().map(|(x, _)| x.clone()));
        combined.extend(candidates.iter().cloned());
        let mut tree = HashTree::build(combined);
        let reduce_plus = self.config.reduce_db;
        {
            let src: &dyn TransactionSource = match plus_working {
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
                *plus_working = Some(TransactionDb::from_transactions(ChunkedCollector::merge(
                    collectors,
                )));
            }
        }
        let plus_k = tree.counts().to_vec();
        if deleted.num_transactions() == 0 {
            return (plus_k, Vec::new());
        }
        // Counting db⁻ on top of the db⁺ counts gives the combined totals.
        engine::count_source_into(&mut tree, deleted, &self.config.engine);
        let minus_k = tree
            .counts()
            .iter()
            .zip(&plus_k)
            .map(|(total, plus)| total - plus)
            .collect();
        (plus_k, minus_k)
    }

    /// Hash-tree path of iteration `k`: the `DB⁻` supports of the gated
    /// candidates `pruned`, by one scan of `DB⁻` (or its trimmed working
    /// copy) that, with `Reduce-DB`, also trims it to the items of
    /// `L_k ∪ pruned` for the next iteration.
    fn count_remainder(
        &self,
        pruned: &[(Itemset, u64)],
        old: &LargeItemsets,
        k: usize,
        remainder: &dyn TransactionSource,
        rem_working: &mut Option<TransactionDb>,
    ) -> Vec<u64> {
        let keep_items = self.config.reduce_db.then(|| {
            reduce::item_universe(
                old.level(k)
                    .map(|(x, _)| x)
                    .chain(pruned.iter().map(|(x, _)| x)),
            )
        });
        let mut ctree = HashTree::build(pruned.iter().map(|(x, _)| x.clone()).collect());
        let src: &dyn TransactionSource = match rem_working {
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
            *rem_working = Some(TransactionDb::from_transactions(ChunkedCollector::merge(
                collectors,
            )));
        }
        ctree.into_counts()
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
