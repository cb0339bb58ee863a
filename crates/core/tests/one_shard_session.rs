//! A session that never asks for shards is a one-shard session.
//!
//! * **Default ≡ `.shards(1)`:** two durable sessions on `MemStorage`
//!   and the Auto backend, one with the default builder and one with
//!   `.shards(1)`, run the same rounds. Their index counters agree after
//!   every round, and their storage (checkpoint images, embedded index
//!   included, and WAL) is byte-identical after bootstrap and after the
//!   insert-only rounds.
//! * **Recovery restores the index:** a default session recovered from a
//!   checkpoint that embedded its index builds nothing while recovering,
//!   and its first insert-only commit extends the restored index without
//!   reading a transaction of the old database.

use fup_core::{Maintainer, MaintainerBuilder};
use fup_datagen::{generate_multi_split, GenParams};
use fup_mining::{CountingBackend, MinConfidence, MinSupport};
use fup_tidb::{DurableStorage, MemStorage, Transaction, UpdateBatch};
use std::sync::Arc;

/// 6 000 transactions: past the Auto backend's size threshold, so the
/// bootstrap mine builds a vertical index the session adopts.
fn history() -> Vec<Transaction> {
    let params = GenParams {
        num_transactions: 6_000,
        increment_size: 0,
        num_items: 400,
        num_patterns: 300,
        pool_size: 30,
        seed: 0xa07e,
        ..GenParams::default()
    };
    generate_multi_split(&params, &[]).0.into_transactions()
}

fn builder() -> MaintainerBuilder {
    Maintainer::builder()
        .min_support(MinSupport::percent(1))
        .min_confidence(MinConfidence::percent(60))
        .backend(CountingBackend::Auto)
}

/// 500 transactions over the 60 most frequent large items, rotated by
/// `round`: no item outside the index's filter (so the index extends),
/// and enough fresh pairs for Auto to count through the index.
fn increment(m: &Maintainer, round: u64) -> Vec<Transaction> {
    let mut top: Vec<(u64, u32)> = m
        .large_itemsets()
        .level(1)
        .map(|(x, c)| (c, x.items()[0].raw()))
        .collect();
    top.sort_unstable_by(|a, b| b.cmp(a));
    let alphabet: Vec<u32> = top.iter().take(60).map(|&(_, it)| it).collect();
    (0..500u64)
        .map(|i| {
            let i = i + 500 * round;
            Transaction::from_items(
                (0..10u64).map(|j| alphabet[((i * 13 + j * 7 + i * j) % 60) as usize]),
            )
        })
        .collect()
}

fn durable(builder: MaintainerBuilder) -> (Maintainer, Arc<MemStorage>) {
    let storage = Arc::new(MemStorage::new());
    let m = builder
        .build_durable(history(), Arc::clone(&storage) as Arc<dyn DurableStorage>)
        .unwrap();
    (m, storage)
}

fn recover(storage: &MemStorage) -> Maintainer {
    let image = Arc::new(MemStorage::from_files(storage.files()));
    builder()
        .recover(image as Arc<dyn DurableStorage>)
        .unwrap()
        .0
}

#[test]
fn default_session_is_a_one_shard_session() {
    let (mut flat, flat_storage) = durable(builder());
    let (mut one, one_storage) = durable(builder().shards(1));
    assert_eq!(one.store().num_shards(), 1);
    assert_eq!(flat.store().num_shards(), 1);
    assert!(
        flat.index_stats().resident,
        "Auto bootstrap adopts its index"
    );
    assert_eq!(flat.index_stats(), one.index_stats());
    assert_eq!(flat_storage.files(), one_storage.files(), "bootstrap");

    for round in 0..2 {
        let batch = UpdateBatch::insert_only(increment(&flat, round));
        flat.apply(batch.clone()).unwrap();
        one.apply(batch).unwrap();
        assert_eq!(flat.index_stats(), one.index_stats(), "round {round}");
    }
    assert_eq!(flat.checkpoint().unwrap(), one.checkpoint().unwrap());
    assert_eq!(
        flat_storage.files(),
        one_storage.files(),
        "insert-only rounds"
    );
    // The images carry the index: recovering from them builds nothing,
    // yet holds one.
    for storage in [&flat_storage, &one_storage] {
        let stats = recover(storage).index_stats();
        assert_eq!((stats.builds, stats.resident), (0, true));
    }

    let victims: Vec<_> = flat.store().iter().take(50).map(|(tid, _)| tid).collect();
    let batch = UpdateBatch {
        inserts: increment(&flat, 2),
        deletes: victims,
    };
    flat.apply(batch.clone()).unwrap();
    one.apply(batch).unwrap();
    assert_eq!(flat.index_stats(), one.index_stats(), "delete round");
    assert!(flat.large_itemsets().same_itemsets(one.large_itemsets()));
}

#[test]
fn recovery_restores_the_checkpointed_index() {
    let (mut m, storage) = durable(builder());
    m.apply(UpdateBatch::insert_only(increment(&m, 0))).unwrap();
    m.checkpoint().unwrap();

    let mut r = recover(&storage);
    let stats = r.index_stats();
    assert_eq!(stats.builds, 0, "recovery must restore, not build");
    assert!(stats.resident);

    let reads_before = r.store().metrics().snapshot().transactions_read;
    let report = r.apply(UpdateBatch::insert_only(increment(&r, 1))).unwrap();
    assert_eq!(report.algorithm, "fup");
    let reads_after = r.store().metrics().snapshot().transactions_read;
    assert_eq!(
        reads_before, reads_after,
        "the first commit after recovery rescanned the old database"
    );
    let after = r.index_stats();
    assert_eq!((after.builds, after.extends), (0, stats.extends + 1));
    r.verify_consistency().unwrap();
}
