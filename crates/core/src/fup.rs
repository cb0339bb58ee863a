//! The FUP algorithm (§3 of the paper): FUP2 with an empty delete side.
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
//!
//! With `db⁻ = ∅`, FUP2's arithmetic and candidate gate reduce to exactly
//! these lemmas, so there is one round loop for both algorithms, in
//! [`fup2`](crate::fup2): [`Fup::update`] runs it with an empty delete
//! side. This module keeps the paper's `FUP(DB, L, db)` signature and the
//! result types both algorithms share.

use crate::config::FupConfig;
use crate::error::Result;
use crate::fup2::Fup2;
use fup_mining::{LargeItemsets, MinSupport, MiningStats};
use fup_tidb::{TransactionDb, TransactionSource};

/// Per-iteration detail beyond the common [`PassStats`](fup_mining::PassStats) — the quantities
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
    /// Fails with [`Error::StaleBaseline`](crate::Error::StaleBaseline) if `old` was not mined over a
    /// database of exactly `db`'s size.
    pub fn update(
        &self,
        db: &dyn TransactionSource,
        old: &LargeItemsets,
        increment: &dyn TransactionSource,
        minsup: MinSupport,
    ) -> Result<FupOutcome> {
        Fup2::with_config(self.config.clone()).update(
            db,
            old,
            &TransactionDb::new(),
            increment,
            minsup,
        )
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
    use crate::error::Error;
    use fup_mining::apriori::mine_naive;
    use fup_mining::Apriori;
    use fup_mining::Itemset;
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
