//! Equivalence and effectiveness on the paper's own workload family:
//! scaled-down `T10.I4` databases from the Quest generator.

use fup_core::{Fup, FupConfig, FupPassDetail};
use fup_datagen::corpus;
use fup_datagen::generate_split;
use fup_mining::{Apriori, CountingBackend, Dhp, MinSupport, PassStats};
use fup_tidb::source::ChainSource;

/// One scaled workload: T10.I4 with D = 2000, d = 200.
fn workload(seed: u64) -> fup_datagen::DbAndIncrement {
    let params = corpus::scaled(corpus::t10_i4_d100_d1(), 50).with_seed(seed);
    assert_eq!(params.num_transactions, 2_000);
    // Scaled d1 gives d = 20; widen to 200 for a meatier increment.
    generate_split(&params.with_increment(200))
}

#[test]
fn fup_matches_apriori_and_dhp_on_quest_data() {
    let data = workload(0xabcd);
    for bp in [200u64, 100, 75] {
        let minsup = MinSupport::basis_points(bp);
        let baseline = Apriori::new().run(&data.db, minsup).large;
        let out = Fup::new()
            .update(&data.db, &baseline, &data.increment, minsup)
            .unwrap();
        let whole = ChainSource::new(&data.db, &data.increment);
        let apriori = Apriori::new().run(&whole, minsup).large;
        assert!(
            out.large.same_itemsets(&apriori),
            "minsup {bp}bp vs Apriori: {:?}",
            out.large.diff(&apriori)
        );
        let dhp = Dhp::new().run(&whole, minsup).large;
        assert!(
            out.large.same_itemsets(&dhp),
            "minsup {bp}bp vs DHP: {:?}",
            out.large.diff(&dhp)
        );
        assert!(
            out.large.len() > 10,
            "workload too sparse to be meaningful: {} itemsets",
            out.large.len()
        );
    }
}

#[test]
fn fup_candidate_pool_is_much_smaller_than_baselines() {
    // The Figure 3 phenomenon, asserted qualitatively: candidates checked
    // against DB by FUP are a small fraction of the baselines'.
    let data = workload(0x1357);
    let minsup = MinSupport::percent(1);
    let baseline = Apriori::new().run(&data.db, minsup).large;
    let out = Fup::new()
        .update(&data.db, &baseline, &data.increment, minsup)
        .unwrap();
    let whole = ChainSource::new(&data.db, &data.increment);
    let apriori = Apriori::new().run(&whole, minsup);
    let fup_checked = out.stats.total_candidates_checked();
    let apriori_checked = apriori.stats.total_candidates_checked();
    assert!(
        fup_checked * 4 < apriori_checked,
        "expected ≥4× candidate reduction, got FUP {fup_checked} vs Apriori {apriori_checked}"
    );
}

#[test]
fn optimisation_configs_agree_on_quest_data() {
    let data = workload(0x2468);
    let minsup = MinSupport::percent(1);
    let baseline = Apriori::new().run(&data.db, minsup).large;
    let full = Fup::with_config(FupConfig::full())
        .update(&data.db, &baseline, &data.increment, minsup)
        .unwrap();
    let bare = Fup::with_config(FupConfig::bare())
        .update(&data.db, &baseline, &data.increment, minsup)
        .unwrap();
    assert!(
        full.large.same_itemsets(&bare.large),
        "{:?}",
        full.large.diff(&bare.large)
    );
    // The DHP hash filter must thin the size-2 candidates (or at worst
    // leave them equal).
    let full2 = full.detail.iter().find(|d| d.k == 2);
    if let Some(d2) = full2 {
        assert!(d2.candidates_after_hash <= d2.candidates_generated);
    }
}

/// FUP's per-pass numbers on one fixed Quest corpus, recorded as
/// literals: the Figure 3 quantity (`candidates_checked`) and every
/// pruning step that feeds it. Both counting backends must reproduce
/// them exactly.
#[test]
fn fup_pass_numbers_are_pinned_on_quest_data() {
    let data = workload(0x1357);
    let minsup = MinSupport::percent(1);
    let baseline = Apriori::new().run(&data.db, minsup).large;
    let pass = |k, candidates_generated, candidates_checked, large_found| PassStats {
        k,
        candidates_generated,
        candidates_checked,
        large_found,
    };
    let expected_passes = vec![
        pass(1, 277, 152, 417),
        pass(2, 86_699, 505, 31),
        pass(3, 9, 8, 1),
        pass(4, 0, 0, 0),
    ];
    let detail =
        |k, old_large, winners_from_old, generated, after_hash, checked, winners_from_new| {
            FupPassDetail {
                k,
                old_large,
                lemma3_losers: 0,
                winners_from_old,
                candidates_generated: generated,
                candidates_after_hash: after_hash,
                candidates_checked: checked,
                winners_from_new,
            }
        };
    let expected_detail = vec![
        detail(1, 417, 403, 277, 277, 152, 14),
        detail(2, 37, 23, 86_699, 12_437, 505, 8),
        detail(3, 0, 0, 9, 9, 8, 1),
        detail(4, 0, 0, 0, 0, 0, 0),
    ];
    for backend in [CountingBackend::HashTree, CountingBackend::Vertical] {
        let mut config = FupConfig::full();
        config.engine.backend = backend;
        let out = Fup::with_config(config)
            .update(&data.db, &baseline, &data.increment, minsup)
            .unwrap();
        assert_eq!(out.stats.algorithm, "fup", "{backend:?}");
        assert_eq!(out.stats.passes, expected_passes, "{backend:?}");
        assert_eq!(out.detail, expected_detail, "{backend:?}");
    }
}
