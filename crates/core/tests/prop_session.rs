//! Property tests for the session API.
//!
//! * **Staging is associative:** `stage(a); stage(b); commit()` is
//!   bit-identical — itemsets, supports, and report counts — to
//!   `apply(a + b)` on an identically-configured reference session,
//!   across counting backends and thread counts.
//! * **Index persistence is invisible:** a session that keeps its
//!   [`VerticalIndex`] across rounds (extending it on insert-only
//!   commits, rebuilding after deletions or dictionary growth) produces
//!   supports bit-identical to a fresh index rebuild — an Apriori re-mine
//!   on the vertical backend — after every round.
//! * **An independent oracle agrees:** after bootstrap and every round,
//!   each session's itemsets and supports equal a brute-force count of
//!   every subset of every live transaction (`support/oracle.rs`).

#[path = "support/oracle.rs"]
mod oracle;

use fup_core::{FupConfig, Maintainer};
use fup_mining::apriori::AprioriConfig;
use fup_mining::{Apriori, CountingBackend, MinConfidence, MinSupport};
use fup_tidb::{Tid, Transaction, UpdateBatch};
use oracle::assert_matches_oracle;
use proptest::prelude::*;

/// A random transaction over a small item alphabet (1–6 items of 0..12).
fn arb_transaction() -> impl Strategy<Value = Transaction> {
    proptest::collection::vec(0u32..12, 1..6).prop_map(Transaction::from_items)
}

fn arb_db(max: usize) -> impl Strategy<Value = Vec<Transaction>> {
    proptest::collection::vec(arb_transaction(), 0..max)
}

fn arb_minsup() -> impl Strategy<Value = MinSupport> {
    (1u64..=100).prop_map(MinSupport::percent)
}

fn arb_backend() -> impl Strategy<Value = CountingBackend> {
    (0usize..3).prop_map(|i| {
        [
            CountingBackend::HashTree,
            CountingBackend::Vertical,
            CountingBackend::Auto,
        ][i]
    })
}

/// The thread counts the engine property tests pin throughout the repo.
fn arb_threads() -> impl Strategy<Value = usize> {
    (0usize..3).prop_map(|i| [1usize, 2, 8][i])
}

/// Distinct delete targets drawn from `tids` by index.
fn pick_deletes(tids: &[Tid], seed: &[proptest::sample::Index]) -> Vec<Tid> {
    let mut deletes: Vec<Tid> = seed
        .iter()
        .filter(|_| !tids.is_empty())
        .map(|ix| tids[ix.index(tids.len())])
        .collect();
    deletes.sort();
    deletes.dedup();
    deletes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Satellite: stage(a); stage(b); commit() ≡ apply(a+b) on a second,
    /// identically-configured session, bit-identical across backends ×
    /// threads.
    #[test]
    fn staged_commit_equals_concatenated_apply(
        history in arb_db(30),
        inserts_a in arb_db(10),
        inserts_b in arb_db(10),
        delete_seed in proptest::collection::vec(any::<prop::sample::Index>(), 0..8),
        split in any::<prop::sample::Index>(),
        minsup in arb_minsup(),
        backend in arb_backend(),
        threads in arb_threads(),
    ) {
        let minconf = MinConfidence::percent(60);
        let mut config = FupConfig::default().with_threads(threads);
        config.engine.backend = backend;

        let mut reference = Maintainer::builder()
            .min_support(minsup)
            .min_confidence(minconf)
            .fup_config(config.clone())
            .build(history.clone())
            .unwrap();
        let mut session = Maintainer::builder()
            .min_support(minsup)
            .min_confidence(minconf)
            .fup_config(config)
            .build(history)
            .unwrap();
        assert_matches_oracle(&session, "bootstrap");

        // Distinct delete targets, split between the two staged batches.
        let tids: Vec<Tid> = session.store().iter().map(|(tid, _)| tid).collect();
        let deletes = pick_deletes(&tids, &delete_seed);
        let cut = split.index(deletes.len() + 1);
        let batch_a = UpdateBatch {
            inserts: inserts_a,
            deletes: deletes[..cut].to_vec(),
        };
        let batch_b = UpdateBatch {
            inserts: inserts_b,
            deletes: deletes[cut..].to_vec(),
        };
        let concatenated = UpdateBatch {
            inserts: batch_a
                .inserts
                .iter()
                .chain(&batch_b.inserts)
                .cloned()
                .collect(),
            deletes: deletes.clone(),
        };

        session.stage(batch_a).unwrap();
        session.stage(batch_b).unwrap();
        let staged_report = session.commit().unwrap();
        let reference_report = reference.apply(concatenated).unwrap();

        // Bit-identical state: itemsets with supports, and rules with
        // counts.
        prop_assert!(
            session.large_itemsets().same_itemsets(reference.large_itemsets()),
            "staged vs reference itemsets: {:?}",
            session.large_itemsets().diff(reference.large_itemsets())
        );
        prop_assert_eq!(session.rules(), reference.rules());

        // Bit-identical report counts.
        prop_assert_eq!(staged_report.algorithm, reference_report.algorithm);
        prop_assert_eq!(staged_report.version, reference_report.version);
        prop_assert_eq!(staged_report.num_transactions, reference_report.num_transactions);
        prop_assert_eq!(&staged_report.inserted_tids, &reference_report.inserted_tids);
        prop_assert_eq!(&staged_report.itemsets, &reference_report.itemsets);
        prop_assert_eq!(&staged_report.rules.added, &reference_report.rules.added);
        prop_assert_eq!(&staged_report.rules.removed, &reference_report.rules.removed);
        prop_assert_eq!(staged_report.rules.retained, reference_report.rules.retained);

        reference.verify_consistency().unwrap();
        session.verify_consistency().unwrap();
        assert_matches_oracle(&session, "staged commit");
        assert_matches_oracle(&reference, "concatenated apply");
    }

    /// Satellite: persistent-index commits produce supports bit-identical
    /// to a fresh `VerticalIndex` rebuild after every round — including
    /// rounds whose deletions (or newly-large items) invalidate the held
    /// index and force the rebuild path.
    #[test]
    fn persistent_index_matches_fresh_rebuild_every_round(
        history in arb_db(25),
        rounds in proptest::collection::vec(
            (arb_db(8), proptest::collection::vec(any::<prop::sample::Index>(), 0..4)),
            1..4,
        ),
        minsup in arb_minsup(),
    ) {
        let minconf = MinConfidence::percent(60);
        // Pin the vertical backend so every round counts through the
        // session's persistent index.
        let mut session = Maintainer::builder()
            .min_support(minsup)
            .min_confidence(minconf)
            .backend(CountingBackend::Vertical)
            .build(history)
            .unwrap();
        assert_matches_oracle(&session, "bootstrap");
        let fresh_miner = Apriori::with_config(AprioriConfig {
            engine: fup_mining::EngineConfig::default()
                .with_backend(CountingBackend::Vertical),
            ..Default::default()
        });

        for (inserts, delete_seed) in rounds {
            let tids: Vec<Tid> = session.store().iter().map(|(tid, _)| tid).collect();
            let deletes = pick_deletes(&tids, &delete_seed);
            session.apply(UpdateBatch { inserts, deletes }).unwrap();

            // Ground truth: a from-scratch mine whose vertical index is
            // freshly rebuilt over the updated store.
            let fresh = fresh_miner.run(session.store(), minsup).large;
            prop_assert!(
                session.large_itemsets().same_itemsets(&fresh),
                "persistent index diverged from fresh rebuild: {:?}",
                session.large_itemsets().diff(&fresh)
            );
            assert_matches_oracle(&session, "round");
        }
    }
}
