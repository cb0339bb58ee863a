//! Shard-parallel vertical counting for the maintenance session — the
//! count-distribution half of tid-range sharding.
//!
//! A [`ShardedDb`](fup_tidb::ShardedDb) partitions the live set into
//! disjoint tid ranges, and a support count is a sum over transactions —
//! so every `(support in base, support in delta)` split the FUP/FUP2
//! round loop asks for is the element-wise **sum of per-shard splits**:
//!
//! ```text
//! sup_base(X)  = Σᵢ sup_{baseᵢ}(X)      (shard i's base rows)
//! sup_delta(X) = Σᵢ sup_{deltaᵢ}(X)     (shard i's routed delta rows)
//! ```
//!
//! [`ShardProvider`] is the session's one
//! [`VerticalProvider`](crate::vindex::VerticalProvider), built on exactly
//! that identity: one [`SlotProvider`] per shard, each acquiring its
//! shard's persistent [`IndexSlot`] against the shard's base (`DBᵢ` for
//! FUP, `DB⁻ᵢ` for FUP2 — after staging, the shard *is* its remainder)
//! extended with the shard's routed insert slice; `count_split` sums the
//! per-shard splits. The round loop gates every threshold decision on the
//! summed supports, so the result is bit-identical at any shard count. A
//! session that never asks for shards has exactly one, the whole store,
//! and the provider hands that part's splits through unchanged.
//!
//! Deletions invalidate only the shards they touch: each shard's slot is
//! reacquired independently, and the acquire step's size check (shard
//! row count vs. index coverage) rebuilds exactly the shards whose live
//! set changed — an untouched shard reuses its index and scans only its
//! delta slice.

use crate::vindex::{IndexSlot, SlotProvider, VerticalProvider};
use fup_mining::{EngineConfig, ItemsetTable, LargeItemsets};
use fup_tidb::{ShardedDb, ShardedStaged, TransactionSource};

/// The session's [`VerticalProvider`]: one [`SlotProvider`] per shard
/// (per-shard persistent indexes), local splits merged by summation
/// (count distribution).
pub(crate) struct ShardProvider<'a> {
    parts: Vec<SlotProvider<'a>>,
}

impl<'a> ShardProvider<'a> {
    /// Assembles the provider for one maintenance round over `store`
    /// (already staged: each shard exposes its remainder) and the staged
    /// update's per-shard insert slices. `slots` must hold exactly one
    /// slot per shard, in shard order.
    pub(crate) fn new(
        store: &'a ShardedDb,
        staged: &'a ShardedStaged,
        slots: &'a mut [IndexSlot],
    ) -> Self {
        assert_eq!(
            slots.len(),
            store.num_shards(),
            "one index slot per shard required"
        );
        let parts = slots
            .iter_mut()
            .enumerate()
            .map(|(s, slot)| {
                let base = store.shard(s);
                SlotProvider::new(
                    slot,
                    base,
                    staged.shard_inserted(s),
                    base.num_transactions(),
                )
            })
            .collect();
        ShardProvider { parts }
    }
}

impl VerticalProvider for ShardProvider<'_> {
    fn engaged(&self) -> bool {
        // Shards engage together (one loop in `engage`), so the first
        // part speaks for all of them.
        self.parts[0].engaged()
    }

    fn engage(&mut self, old: &LargeItemsets, result: &LargeItemsets, engine: &EngineConfig) {
        for part in &mut self.parts {
            part.engage(old, result, engine);
        }
    }

    fn count_split(&self, table: &ItemsetTable, engine: &EngineConfig) -> Vec<(u64, u64)> {
        // One shard's splits are the totals: no copy, no add loop.
        let (first, rest) = self.parts.split_first().expect("a store has a shard");
        let mut totals = first.count_split(table, engine);
        for part in rest {
            for (acc, (b, d)) in totals.iter_mut().zip(part.count_split(table, engine)) {
                acc.0 += b;
                acc.1 += d;
            }
        }
        totals
    }

    fn finish(&mut self) {
        for part in &mut self.parts {
            part.finish();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fup_mining::{Apriori, Itemset, MinSupport};
    use fup_tidb::{SegmentedDb, ShardSpec, Transaction, UpdateBatch};

    fn tx(items: &[u32]) -> Transaction {
        Transaction::from_items(items.iter().copied())
    }

    fn rows(n: u64) -> Vec<Transaction> {
        (0..n)
            .map(|i| {
                let mut items = vec![(i % 5) as u32, 10 + (i % 3) as u32];
                if i % 2 == 0 {
                    items.push(20);
                }
                tx(&items)
            })
            .collect()
    }

    /// Per-shard splits summed must equal the flat single-index splits
    /// for the same logical update — the count-distribution identity the
    /// whole subsystem rests on.
    #[test]
    fn summed_shard_splits_equal_flat_splits() {
        let initial = rows(40);
        let batch = UpdateBatch {
            inserts: rows(10),
            deletes: vec![],
        };
        let minsup = MinSupport::percent(10);
        let engine = EngineConfig::serial();

        // Flat reference.
        let mut flat = SegmentedDb::from_transactions(initial.clone());
        let old = Apriori::new().run(&flat, minsup).large;
        let fs = flat.stage(batch.clone()).unwrap();
        let mut flat_slot = IndexSlot::new();
        let boundary = flat.num_transactions();
        let mut flat_provider = SlotProvider::new(&mut flat_slot, &flat, fs.inserted(), boundary);

        // Sharded, several shard counts.
        for shards in [1u32, 2, 3, 8] {
            let mut sharded = fup_tidb::ShardedDb::from_transactions(
                ShardSpec::striped_with(shards, 4),
                initial.clone(),
            )
            .unwrap();
            let ss = sharded.stage(batch.clone()).unwrap();
            let mut slots: Vec<IndexSlot> = (0..shards).map(|_| IndexSlot::new()).collect();
            let mut provider = ShardProvider::new(&sharded, &ss, &mut slots);

            let result = LargeItemsets::new(50);
            assert!(!provider.engaged());
            flat_provider.engage(&old, &result, &engine);
            provider.engage(&old, &result, &engine);
            assert!(provider.engaged());

            let sets: Vec<Itemset> = vec![
                Itemset::from_items([0u32, 10]),
                Itemset::from_items([0u32, 20]),
                Itemset::from_items([10u32, 20]),
            ];
            let table = ItemsetTable::from_sorted_itemsets(&sets);
            assert_eq!(
                provider.count_split(&table, &engine),
                flat_provider.count_split(&table, &engine),
                "{shards} shard(s)"
            );
            // Empty tables stay empty through the summation.
            assert!(provider
                .count_split(&ItemsetTable::empty(), &engine)
                .is_empty());

            provider.finish();
            for slot in &slots {
                assert!(slot.has_index(), "finish must stash every shard's index");
            }
        }
    }

    /// Deletions rebuild only the shards they touch; untouched shards
    /// extend their held index.
    #[test]
    fn deletes_invalidate_only_their_shard() {
        let initial = rows(24);
        // Stripe 4 over 2 shards: tids 0..4,8..12,16..20 → shard 0.
        let mut sharded =
            fup_tidb::ShardedDb::from_transactions(ShardSpec::striped_with(2, 4), initial).unwrap();
        let minsup = MinSupport::percent(10);
        let old = Apriori::new().run(&sharded, minsup).large;
        let engine = EngineConfig::serial();
        let mut slots: Vec<IndexSlot> = vec![IndexSlot::new(), IndexSlot::new()];

        // Round 1: insert-only — both shards build.
        let ss = sharded.stage(UpdateBatch::insert_only(rows(6))).unwrap();
        {
            let mut provider = ShardProvider::new(&sharded, &ss, &mut slots);
            provider.engage(&old, &LargeItemsets::new(30), &engine);
            provider.finish();
        }
        sharded.commit(ss);
        assert_eq!((slots[0].builds(), slots[1].builds()), (1, 1));

        // Round 2: delete one tid owned by shard 0. Shard 0 must rebuild
        // (its base shrank), shard 1 must extend.
        let old2 = Apriori::new().run(&sharded, minsup).large;
        let ss = sharded
            .stage(UpdateBatch {
                inserts: rows(4),
                deletes: vec![fup_tidb::Tid(1)],
            })
            .unwrap();
        {
            let mut provider = ShardProvider::new(&sharded, &ss, &mut slots);
            provider.engage(&old2, &LargeItemsets::new(33), &engine);
            provider.finish();
        }
        sharded.commit(ss);
        assert_eq!((slots[0].builds(), slots[0].extends()), (2, 0));
        assert_eq!((slots[1].builds(), slots[1].extends()), (1, 1));
    }
}
