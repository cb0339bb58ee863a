//! Workload inputs, generated from the seed before any timer starts, and
//! the fixed read query mix.

use fup_datagen::{corpus, QuestGenerator};
use fup_mining::{Itemset, LargeItemsets};
use fup_tidb::{ItemId, Tid, Transaction, TransactionDb, UpdateBatch};

/// The generator seed of the pattern universe, fixed for every run: the
/// number of large itemsets, and so the work of a round, depends on the
/// pattern set far more than on which transactions are drawn from it.
pub const UNIVERSE_SEED: u64 = 0x5eed_f00d;

/// A base database and a stream of update rounds drawn from the paper's
/// T10.I4 generator.
pub struct Stream {
    pub base: Vec<Transaction>,
    pub rounds: Vec<UpdateBatch>,
}

/// The seed of episode `e` of a run seeded with `seed`: each episode of
/// a closed-loop run draws its own inputs.
pub fn episode_seed(seed: u64, e: usize) -> u64 {
    mix(seed ^ mix(e as u64))
}

/// SplitMix64: spreads consecutive seeds over the whole range.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce5_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `base_n` base transactions, then `rounds` rounds of `inserts` fresh
/// transactions each; round `r` also deletes the `deletes` oldest live
/// tids (the base is loaded as tids `0..base_n`, so those are
/// `r * deletes .. (r + 1) * deletes`).
///
/// The seed picks where in the generator's transaction stream the inputs
/// start: it discards a seed-derived number of transactions (each call
/// to the generator also re-draws its pattern pool), so two seeds draw
/// different transactions from the same pattern universe.
pub fn stream(seed: u64, base_n: u64, rounds: usize, inserts: u64, deletes: u64) -> Stream {
    assert!(
        deletes * rounds as u64 <= base_n,
        "deletes would drain the base"
    );
    let mut gen = QuestGenerator::new(corpus::t10_i4_d100_d1().with_seed(UNIVERSE_SEED));
    gen.generate(1 + mix(seed) % 10_007);
    let base = gen.generate(base_n);
    let rounds = (0..rounds as u64)
        .map(|r| UpdateBatch {
            inserts: gen.generate(inserts),
            deletes: (r * deletes..(r + 1) * deletes).map(Tid).collect(),
        })
        .collect();
    Stream { base, rounds }
}

/// The live set after every round of `s` has been applied, rebuilt from
/// the inputs alone (no engine state): the surviving base rows followed
/// by every insert, in tid order.
pub fn live_after(s: &Stream) -> TransactionDb {
    let deleted: usize = s.rounds.iter().map(|b| b.deletes.len()).sum();
    TransactionDb::from_transactions(
        s.base[deleted..]
            .iter()
            .chain(s.rounds.iter().flat_map(|b| b.inserts.iter()))
            .cloned(),
    )
}

/// Items one read of the mix looks up supports for.
pub const ITEMS_PER_READ: usize = 32;
/// Items one read of the mix asks rule queries about.
pub const RULE_ITEMS_PER_READ: usize = 2;

/// Arguments of the read mix: the items of the bootstrap state's large
/// 1-itemsets, in sorted order. Every read asks the same kinds of
/// questions whatever the data, so its cost hardly depends on the seed.
pub struct QueryMix {
    items: Vec<ItemId>,
}

impl QueryMix {
    pub fn from_large(large: &LargeItemsets) -> QueryMix {
        let items: Vec<ItemId> = large
            .level_sorted(1)
            .into_iter()
            .map(|(s, _)| s.items()[0])
            .collect();
        assert!(
            items.len() >= 2,
            "bootstrap mined fewer than two large items"
        );
        QueryMix { items }
    }

    /// Read `j` of the mix: the top rules by confidence, the rules about
    /// and the rules led by `RULE_ITEMS_PER_READ` items, then the
    /// supports of `ITEMS_PER_READ` items and of the pair each forms with
    /// the next item. Returns a value derived from every answer so none
    /// is optimized away.
    ///
    /// Support lookups dominate: at 2% support a state holds zero to a
    /// few rules, and a rule lookup on an empty rule index costs far less
    /// than on a non-empty one, so rule queries are kept few.
    pub fn run(&self, snap: &fup_core::RuleSnapshot, j: usize) -> u64 {
        let n = self.items.len();
        let mut sink = snap.top_k_by_confidence(10).len() as u64;
        for i in j * RULE_ITEMS_PER_READ..(j + 1) * RULE_ITEMS_PER_READ {
            let a = self.items[i % n];
            sink += snap.rules_about(a).len() as u64;
            sink += snap.rules_with_antecedent(&Itemset::single(a)).len() as u64;
        }
        for i in j * ITEMS_PER_READ..(j + 1) * ITEMS_PER_READ {
            let (a, b) = (self.items[i % n], self.items[(i + 1) % n]);
            sink += snap.support_of(&Itemset::single(a)).unwrap_or(0);
            sink += snap.support_of(&Itemset::from_items([a, b])).unwrap_or(0);
        }
        sink
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn seeds_draw_different_transactions() {
        let a = super::stream(1, 5_000, 0, 0, 0).base;
        let b = super::stream(2, 5_000, 0, 0, 0).base;
        let same = a.iter().zip(&b).filter(|(x, y)| x == y).count();
        assert!(same < 500, "{same} of 5000 rows coincide");
        assert_eq!(a, super::stream(1, 5_000, 0, 0, 0).base);
    }
}
