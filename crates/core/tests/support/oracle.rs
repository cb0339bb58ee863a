//! A brute-force frequent-itemset oracle for the property suites.
//!
//! It counts every non-empty subset of every live transaction into a
//! `HashMap` and keeps the subsets whose count meets the support
//! threshold. It shares no code with the mining engine: no candidate
//! generation, hash tree, vertical index, scan driver or `Itemset` type,
//! so a bug in any of those cannot hide in both a session and its
//! reference. The cost is exponential in transaction width, which is
//! fine for the suites' transactions of at most five items.

use fup_core::Maintainer;
use fup_mining::{LargeItemsets, MinSupport};
use std::collections::HashMap;

/// Every itemset (sorted raw item ids) whose count `c` over
/// `transactions` satisfies `c / n ≥ num / den`, with that count.
pub fn brute_force_large(transactions: &[Vec<u32>], num: u64, den: u64) -> HashMap<Vec<u32>, u64> {
    let mut counts: HashMap<Vec<u32>, u64> = HashMap::new();
    for t in transactions {
        let mut items = t.clone();
        items.sort_unstable();
        items.dedup();
        assert!(items.len() < 16, "the oracle enumerates 2^width subsets");
        for mask in 1u32..(1 << items.len()) {
            let subset: Vec<u32> = (0..items.len())
                .filter(|&i| mask >> i & 1 == 1)
                .map(|i| items[i])
                .collect();
            *counts.entry(subset).or_default() += 1;
        }
    }
    let n = transactions.len() as u128;
    counts.retain(|_, &mut c| u128::from(c) * u128::from(den) >= n * u128::from(num));
    counts
}

/// Asserts that `m`'s maintained large itemsets and supports equal the
/// oracle's over `m`'s live transactions.
pub fn assert_matches_oracle(m: &Maintainer, label: &str) {
    let live: Vec<Vec<u32>> = m
        .store()
        .iter()
        .map(|(_, t)| t.items().iter().map(|i| i.raw()).collect())
        .collect();
    assert_large_matches_oracle(m.large_itemsets(), &live, m.minsup(), label);
}

/// Asserts that `large` — itemsets and supports — equals the oracle's
/// over `transactions` at `minsup`.
pub fn assert_large_matches_oracle(
    large: &LargeItemsets,
    transactions: &[Vec<u32>],
    minsup: MinSupport,
    label: &str,
) {
    let expected = brute_force_large(transactions, minsup.num(), minsup.den());
    let actual: HashMap<Vec<u32>, u64> = large
        .iter()
        .map(|(x, c)| (x.items().iter().map(|i| i.raw()).collect(), c))
        .collect();
    assert_eq!(
        actual, expected,
        "{label}: result disagrees with the brute-force oracle"
    );
}
