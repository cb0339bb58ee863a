//! Vertical-index plumbing for the maintenance layer: the shared bits of
//! the FUP/FUP2 vertical counting paths (index construction and `W` table
//! building), plus [`IndexSlot`] — the holder that lets a
//! [`Maintainer`](crate::Maintainer) keep one [`VerticalIndex`] per shard
//! (one in all, unless the session asks for shards) alive *across*
//! maintenance rounds instead of rebuilding it on first use every round.
//!
//! ## The persistent-index contract
//!
//! A [`VerticalIndex`] identifies transactions positionally (tid = scan
//! order), so an index stored in a slot is only reusable for a later
//! update if the update's base source replays **exactly** the transactions
//! the index covers, in the same order, and the index's build filter still
//! covers every item the round needs. The slot's acquire step checks both
//! (size match + [`VerticalIndex::covers`]); when they hold it *extends*
//! the held index with the round's delta (one scan of the small delta, no
//! scan of the base), and otherwise it rebuilds from scratch. The
//! [`Maintainer`](crate::Maintainer) upholds the order half of the
//! contract by clearing the slot whenever the store mutates in a way the
//! slot did not track (deletions reorder the live set).

use fup_mining::vertical::item_bitmap;
use fup_mining::{EngineConfig, Itemset, ItemsetTable, LargeItemsets, VerticalIndex};
use fup_tidb::TransactionSource;

/// Holds a [`VerticalIndex`] between FUP/FUP2 rounds so insert-only
/// updates extend it (one delta scan) instead of rebuilding it (a full
/// base scan). Rebuilds still happen — and are counted — when a round's
/// base does not match what the index covers (deletions) or when a newly
/// frequent item falls outside the build filter (dictionary growth).
///
/// The default slot is empty; the first round that engages the vertical
/// backend builds into it.
#[derive(Debug, Default)]
pub struct IndexSlot {
    index: Option<VerticalIndex>,
    builds: u64,
    extends: u64,
    touched: bool,
}

impl IndexSlot {
    /// An empty slot (no index held yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` if the slot currently holds an index.
    pub fn has_index(&self) -> bool {
        self.index.is_some()
    }

    /// Number of from-scratch index builds this slot has performed.
    pub fn builds(&self) -> u64 {
        self.builds
    }

    /// Number of times the held index was extended with a delta instead
    /// of being rebuilt.
    pub fn extends(&self) -> u64 {
        self.extends
    }

    /// Drops the held index (the next round that wants one rebuilds).
    /// Called by the maintainer whenever the store mutates in a way the
    /// slot did not track.
    pub fn clear(&mut self) {
        self.index = None;
    }

    /// Seeds the slot with a freshly built index over `base`, filtered to
    /// `keep_items` (see [`item_bitmap`]). Used at bootstrap when the
    /// backend is pinned vertical, so even the *first* commit extends.
    pub fn seed<S>(
        &mut self,
        base: &S,
        keep_items: impl IntoIterator<Item = fup_tidb::ItemId>,
        engine: &EngineConfig,
    ) where
        S: TransactionSource + ?Sized,
    {
        let keep = item_bitmap(keep_items);
        self.builds += 1;
        self.index = Some(VerticalIndex::build(base, Some(&keep), engine));
    }

    /// Adopts an index built elsewhere — typically the one a bootstrap or
    /// re-mine [`Apriori::run_with_index`](fup_mining::Apriori::run_with_index)
    /// already paid for — counting it as a build. The caller guarantees
    /// the index covers the store's live set in scan order.
    pub fn adopt(&mut self, idx: VerticalIndex) {
        self.builds += 1;
        self.index = Some(idx);
    }

    /// Restores an index deserialised from a durable checkpoint without
    /// counting a build — the build was paid for (and counted) in the
    /// session that wrote the checkpoint.
    pub(crate) fn restore(&mut self, idx: VerticalIndex) {
        self.index = Some(idx);
    }

    /// The held index, if any — serialised into durable checkpoints when
    /// it covers the store in tid order.
    pub(crate) fn resident_index(&self) -> Option<&VerticalIndex> {
        self.index.as_ref()
    }

    /// Extends the held index (if any) with `delta` at the current tid
    /// offset — the maintainer's way of keeping the slot aligned with an
    /// insert-only commit whose counting ran on the hash-tree path.
    pub fn extend_with<S>(&mut self, delta: &S, engine: &EngineConfig)
    where
        S: TransactionSource + ?Sized,
    {
        if let Some(idx) = &mut self.index {
            idx.extend(delta, engine);
            self.extends += 1;
            self.touched = true;
        }
    }

    /// Takes an index an updater can count this round against: the `base`
    /// source's tid-lists extended by the `delta` source's scan (FUP: `DB`
    /// then the increment; FUP2: `DB⁻` then `db⁺`).
    ///
    /// Every `W` item is in the old `L₁` and every candidate item is in
    /// the updated `L₁` (both complete after iteration 1), so the index is
    /// filtered to their union and skips everything else. If the slot
    /// holds an index that already covers `base` (same transaction count —
    /// the caller guarantees same order — and a covering item filter),
    /// only `delta` is scanned; otherwise the index is rebuilt.
    ///
    /// The updater must [`stash`](IndexSlot::stash) the index back after a
    /// successful run so the next round can reuse it.
    pub(crate) fn acquire(
        &mut self,
        old: &LargeItemsets,
        result: &LargeItemsets,
        base: &dyn TransactionSource,
        delta: &dyn TransactionSource,
        engine: &EngineConfig,
    ) -> VerticalIndex {
        self.acquire_items(
            old.level(1)
                .chain(result.level(1))
                .map(|(x, _)| x.items()[0]),
            base,
            delta,
            engine,
        )
    }

    /// [`acquire`](IndexSlot::acquire) with the keep filter given as an
    /// explicit item list instead of the two `L₁` levels — the shape a
    /// cluster shard worker receives over the wire (the coordinator
    /// computes `old L₁ ∪ result L₁` and broadcasts just the items).
    /// Same reuse contract, same counters.
    pub(crate) fn acquire_items(
        &mut self,
        keep_items: impl IntoIterator<Item = fup_tidb::ItemId>,
        base: &dyn TransactionSource,
        delta: &dyn TransactionSource,
        engine: &EngineConfig,
    ) -> VerticalIndex {
        let keep = item_bitmap(keep_items);
        if let Some(mut idx) = self.index.take() {
            if idx.num_transactions() == base.num_transactions() && idx.covers(&keep) {
                idx.extend(delta, engine);
                self.extends += 1;
                return idx;
            }
        }
        self.builds += 1;
        let mut idx = VerticalIndex::build(base, Some(&keep), engine);
        idx.extend(delta, engine);
        idx
    }

    /// Returns an index to the slot after a successful update round. The
    /// index now covers the round's `base ∪ delta` — exactly the store
    /// after the round commits.
    pub(crate) fn stash(&mut self, idx: VerticalIndex) {
        self.index = Some(idx);
        self.touched = true;
    }

    /// Clears and returns the per-round "slot participated" flag — set by
    /// [`stash`](IndexSlot::stash) / [`extend_with`](IndexSlot::extend_with),
    /// read by the maintainer after each commit to decide whether the held
    /// index still matches the store.
    pub(crate) fn take_touched(&mut self) -> bool {
        std::mem::take(&mut self.touched)
    }
}

/// The vertical-counting seam of the FUP/FUP2 round loop: where the
/// per-pass `(support in base, support in delta)` splits come from once
/// the vertical backend engages. Every in-process session hands the loop
/// a [`ShardProvider`](crate::shard::ShardProvider): one [`SlotProvider`]
/// per tid-range shard, local splits merged by summation (count
/// distribution); a default session has one shard, the whole store. The
/// standalone [`Fup2::update`](crate::Fup2::update) — and
/// [`Fup::update`](crate::Fup::update), which is it with an empty delete
/// side — hands it a lone, throwaway [`SlotProvider`]. The loop cannot
/// tell the difference: supports are additive over disjoint tid ranges,
/// so the summed splits equal the whole-store splits exactly.
pub(crate) trait VerticalProvider {
    /// `true` once [`engage`](VerticalProvider::engage) has run — the
    /// round loop uses this for the sticky once-vertical-always-vertical
    /// decision.
    fn engaged(&self) -> bool;

    /// Materialises the round's index (or indexes), filtered to
    /// `old L₁ ∪ result L₁`. Idempotent: a second call in the same round
    /// is a no-op.
    fn engage(&mut self, old: &LargeItemsets, result: &LargeItemsets, engine: &EngineConfig);

    /// `(support in base, support in delta)` for every row of `table`,
    /// in row order.
    ///
    /// # Panics
    ///
    /// May panic if [`engage`](VerticalProvider::engage) has not run.
    fn count_split(&self, table: &ItemsetTable, engine: &EngineConfig) -> Vec<(u64, u64)>;

    /// Pass-1 offload: supports of `items` in the round's **base** rows
    /// only (FUP's `C₁`-over-`DB` scan, pass 1 of a round without
    /// deletions). `None` — the default, and what
    /// every in-process provider returns — tells the round loop to scan
    /// its base source directly, exactly as it always has; a remote
    /// provider whose base rows live in other processes answers
    /// `Some(counts)` (one per item, request order) and the loop skips
    /// the scan. Summed remote counts equal the local scan's counts (a
    /// support is a sum over disjoint tid ranges), so results stay
    /// bit-identical either way.
    fn count_base_items(
        &self,
        items: &[fup_tidb::ItemId],
        engine: &EngineConfig,
    ) -> Option<Vec<u64>> {
        let _ = (items, engine);
        None
    }

    /// Pass-1 offload, dense flavour: the full item histogram of the
    /// round's base rows (FUP2's all-items pass over `DB⁻`, pass 1 of a
    /// round with deletions). Same
    /// contract as [`count_base_items`](VerticalProvider::count_base_items):
    /// `None` means "scan it yourself"; `Some(counts)` has `counts[i]`
    /// counting `ItemId(i)` and may be shorter than the dictionary
    /// (missing tail = zero occurrences).
    fn count_base_dense(&self, engine: &EngineConfig) -> Option<Vec<u64>> {
        let _ = engine;
        None
    }

    /// Returns the round's index (or indexes) to their slot(s) after a
    /// successful run. A no-op when the round never engaged.
    fn finish(&mut self);
}

/// One index over one base and one delta: one [`IndexSlot`], one base
/// source, one delta source, one boundary. Engaging acquires from the
/// slot; finishing stashes back. A shard's part of a
/// [`ShardProvider`](crate::shard::ShardProvider), and the whole of the
/// standalone [`Fup2::update`](crate::Fup2::update) round (and so of
/// [`Fup::update`](crate::Fup::update)).
pub(crate) struct SlotProvider<'a> {
    slot: &'a mut IndexSlot,
    base: &'a dyn TransactionSource,
    delta: &'a dyn TransactionSource,
    /// Tid splitting the base's supports from the delta's
    /// (`|DB|` for FUP, `|DB⁻|` for FUP2).
    boundary: u64,
    index: Option<VerticalIndex>,
}

impl<'a> SlotProvider<'a> {
    pub(crate) fn new(
        slot: &'a mut IndexSlot,
        base: &'a dyn TransactionSource,
        delta: &'a dyn TransactionSource,
        boundary: u64,
    ) -> Self {
        SlotProvider {
            slot,
            base,
            delta,
            boundary,
            index: None,
        }
    }
}

impl VerticalProvider for SlotProvider<'_> {
    fn engaged(&self) -> bool {
        self.index.is_some()
    }

    fn engage(&mut self, old: &LargeItemsets, result: &LargeItemsets, engine: &EngineConfig) {
        if self.index.is_none() {
            self.index = Some(
                self.slot
                    .acquire(old, result, self.base, self.delta, engine),
            );
        }
    }

    fn count_split(&self, table: &ItemsetTable, engine: &EngineConfig) -> Vec<(u64, u64)> {
        self.index
            .as_ref()
            .expect("engage() before count_split()")
            .count_rows_split(table, self.boundary, engine)
    }

    fn finish(&mut self) {
        if let Some(idx) = self.index.take() {
            self.slot.stash(idx);
        }
    }
}

/// Sorts `W` lexicographically (tables need sorted rows; `W` comes out
/// of a hash map) and returns its flat level table. The caller keeps
/// iterating `w` in the new order, so indices into parallel count
/// vectors stay aligned.
pub(crate) fn sorted_w_table(w: &mut [(Itemset, u64)], k: usize) -> ItemsetTable {
    w.sort_by(|a, b| a.0.cmp(&b.0));
    let mut rows = Vec::with_capacity(w.len() * k);
    for (x, _) in w.iter() {
        rows.extend_from_slice(x.items());
    }
    ItemsetTable::from_flat_rows(k, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fup_mining::MinSupport;
    use fup_tidb::{Transaction, TransactionDb};

    fn db(rows: &[&[u32]]) -> TransactionDb {
        TransactionDb::from_transactions(
            rows.iter()
                .map(|r| Transaction::from_items(r.iter().copied())),
        )
    }

    fn mine(d: &TransactionDb) -> LargeItemsets {
        fup_mining::Apriori::new()
            .run(d, MinSupport::percent(30))
            .large
    }

    #[test]
    fn acquire_reuses_matching_index_and_rebuilds_on_mismatch() {
        let base = db(&[&[1, 2], &[1, 2], &[2, 3], &[1, 3]]);
        let inc1 = db(&[&[1, 2], &[2, 3]]);
        let old = mine(&base);
        let cfg = EngineConfig::serial();

        let mut slot = IndexSlot::new();
        assert!(!slot.has_index());
        let idx = slot.acquire(&old, &LargeItemsets::new(6), &base, &inc1, &cfg);
        assert_eq!((slot.builds(), slot.extends()), (1, 0));
        assert_eq!(idx.num_transactions(), 6);
        slot.stash(idx);
        assert!(slot.take_touched());
        assert!(!slot.take_touched());

        // Next round: base is now base ∪ inc1 (6 transactions) — the held
        // index matches, so only the new delta is scanned.
        let merged = db(&[&[1, 2], &[1, 2], &[2, 3], &[1, 3], &[1, 2], &[2, 3]]);
        let old2 = mine(&merged);
        let inc2 = db(&[&[1, 3]]);
        let idx = slot.acquire(&old2, &LargeItemsets::new(7), &merged, &inc2, &cfg);
        assert_eq!((slot.builds(), slot.extends()), (1, 1));
        slot.stash(idx);

        // A cleared slot rebuilds.
        slot.clear();
        assert!(!slot.has_index());
        let _ = slot.acquire(&old2, &LargeItemsets::new(7), &merged, &inc2, &cfg);
        assert_eq!(slot.builds(), 2);
    }

    #[test]
    fn acquire_rebuilds_on_dictionary_growth() {
        let base = db(&[&[1, 2], &[1, 2], &[1, 2]]);
        let empty = db(&[]);
        let old = mine(&base);
        let cfg = EngineConfig::serial();
        let mut slot = IndexSlot::new();
        let idx = slot.acquire(&old, &LargeItemsets::new(3), &base, &empty, &cfg);
        slot.stash(idx);

        // Item 9 becomes large: it is outside the held index's filter, so
        // reuse is unsound and the slot must rebuild.
        let mut result = LargeItemsets::new(3);
        result.insert(Itemset::from_items([9u32]), 3);
        let idx = slot.acquire(&old, &result, &base, &empty, &cfg);
        assert_eq!((slot.builds(), slot.extends()), (2, 0));
        assert_eq!(idx.support(fup_tidb::ItemId(9)), 0); // filtered but covered
        assert!(idx.covers(&item_bitmap([fup_tidb::ItemId(9)])));
    }

    #[test]
    fn extend_with_keeps_slot_aligned() {
        let base = db(&[&[1, 2], &[1, 2]]);
        let old = mine(&base);
        let cfg = EngineConfig::serial();
        let mut slot = IndexSlot::new();
        let empty = db(&[]);
        let idx = slot.acquire(&old, &LargeItemsets::new(2), &base, &empty, &cfg);
        slot.stash(idx);
        let _ = slot.take_touched();

        let delta = db(&[&[1, 2], &[2]]);
        slot.extend_with(&delta, &cfg);
        assert_eq!(slot.extends(), 1);
        assert!(slot.take_touched());
        // Empty slots ignore the call.
        let mut empty_slot = IndexSlot::new();
        empty_slot.extend_with(&delta, &cfg);
        assert_eq!(empty_slot.extends(), 0);
    }
}
