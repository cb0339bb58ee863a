//! The closed-loop rounds shared by `paper-insert`, `churn` and
//! `cluster-churn`: one caller stages a round's batch, commits it, reads
//! the new snapshot, runs the read mix, and only then sends the next
//! round.

use crate::inputs::QueryMix;
use crate::stats::{ms, quantile, us};
use crate::trace;
use fup_core::{Cluster, Maintainer, MaintenanceReport, RuleSnapshot};
use fup_tidb::UpdateBatch;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Reads of the query mix after every round.
pub const READS_PER_ROUND: usize = 40;
/// A round's batch is staged as this many slices (inserts and deletes
/// split evenly) before the commit, so the stage percentiles have enough
/// samples.
pub const STAGES_PER_ROUND: usize = 10;

/// Splits `batch` into `STAGES_PER_ROUND` slices, in order.
fn slices(batch: UpdateBatch) -> Vec<UpdateBatch> {
    let per = |n: usize| n.div_ceil(STAGES_PER_ROUND).max(1);
    let (ins, del) = (per(batch.inserts.len()), per(batch.deletes.len()));
    let mut inserts = batch.inserts.chunks(ins).map(<[_]>::to_vec);
    let mut deletes = batch.deletes.chunks(del).map(<[_]>::to_vec);
    (0..STAGES_PER_ROUND)
        .map(|_| UpdateBatch {
            inserts: inserts.next().unwrap_or_default(),
            deletes: deletes.next().unwrap_or_default(),
        })
        .filter(|b| b.num_ops() > 0)
        .collect()
}

/// The calls a closed-loop round makes, over a flat session or a cluster.
pub trait Session {
    fn stage(&mut self, batch: UpdateBatch) -> Result<(), String>;
    fn commit(&mut self) -> Result<MaintenanceReport, String>;
    fn snapshot(&self) -> RuleSnapshot;
}

impl Session for Maintainer {
    fn stage(&mut self, batch: UpdateBatch) -> Result<(), String> {
        Maintainer::stage(self, batch).map_err(|e| e.to_string())
    }
    fn commit(&mut self) -> Result<MaintenanceReport, String> {
        Maintainer::commit(self).map_err(|e| e.to_string())
    }
    fn snapshot(&self) -> RuleSnapshot {
        Maintainer::snapshot(self)
    }
}

impl Session for Cluster {
    fn stage(&mut self, batch: UpdateBatch) -> Result<(), String> {
        Cluster::stage(self, batch)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }
    fn commit(&mut self) -> Result<MaintenanceReport, String> {
        Cluster::commit(self).map_err(|e| e.to_string())
    }
    fn snapshot(&self) -> RuleSnapshot {
        Cluster::snapshot(self)
    }
}

/// Counters of one round's `MaintenanceReport`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundCounts {
    pub candidates_generated: u64,
    pub candidates_checked: u64,
    pub k2_candidates_checked: u64,
    pub large_found: u64,
    pub rules_changed: u64,
    pub remine: bool,
}

impl RoundCounts {
    pub fn of(report: &MaintenanceReport) -> RoundCounts {
        RoundCounts {
            candidates_generated: report.stats.total_candidates_generated(),
            candidates_checked: report.stats.total_candidates_checked(),
            k2_candidates_checked: report
                .stats
                .passes
                .iter()
                .filter(|p| p.k == 2)
                .map(|p| p.candidates_checked)
                .sum(),
            large_found: report.stats.total_large(),
            rules_changed: (report.rules.added.len() + report.rules.removed.len()) as u64,
            remine: report.algorithm == "apriori-remine",
        }
    }
}

/// Samples of one pass over a round stream.
#[derive(Debug, Default)]
pub struct Rounds {
    pub round_ms: Vec<f64>,
    pub stage_ms: Vec<f64>,
    pub visible_ms: Vec<f64>,
    pub read_us: Vec<f64>,
    pub snapshot_us: Vec<f64>,
    pub query_us: Vec<f64>,
    pub counts: Vec<RoundCounts>,
    pub ops: u64,
    pub inserts: u64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Visible p99 of every episode absorbed.
    pub episode_p99: Vec<f64>,
}

impl Rounds {
    /// Pools `other`'s samples and counts into `self`, recording the
    /// episode's visible p99 first.
    pub fn absorb(&mut self, other: Rounds) {
        self.episode_p99.push(quantile(&other.visible_ms, 0.99));
        self.round_ms.extend(other.round_ms);
        self.stage_ms.extend(other.stage_ms);
        self.visible_ms.extend(other.visible_ms);
        self.read_us.extend(other.read_us);
        self.snapshot_us.extend(other.snapshot_us);
        self.query_us.extend(other.query_us);
        self.counts.extend(other.counts);
        self.ops += other.ops;
        self.inserts += other.inserts;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
    }

    pub fn sum_round_s(&self) -> f64 {
        self.round_ms.iter().sum::<f64>() / 1e3
    }
    pub fn sum_visible_s(&self) -> f64 {
        self.visible_ms.iter().sum::<f64>() / 1e3
    }
}

/// Runs every batch of `rounds` through `s`. `after_round` runs outside
/// every timer once a round is visible (the cluster workload certifies
/// each round there).
pub fn run_rounds<S: Session>(
    s: &mut S,
    rounds: &[UpdateBatch],
    mix: &QueryMix,
    mut after_round: impl FnMut(usize, &S, &mut Rounds),
) -> Rounds {
    let mut out = Rounds::default();
    let mut expected = s.snapshot().num_transactions();
    for (r, batch) in rounds.iter().enumerate() {
        let ops = batch.num_ops();
        let inserts = batch.inserts.len() as u64;
        expected = expected + inserts - batch.deletes.len() as u64;
        let parts = slices(batch.clone());
        out.attempted += 1;
        let round_span = trace::span("round");
        let send = Instant::now();
        let mut staged = Ok(());
        for part in parts {
            let start = Instant::now();
            staged = {
                let _span = trace::span("session.stage");
                s.stage(part)
            };
            out.stage_ms.push(ms(start.elapsed()));
            if staged.is_err() {
                break;
            }
        }
        let committed = staged.and_then(|()| {
            let _span = trace::span("session.commit");
            s.commit()
        });
        let round_t = send.elapsed();
        drop(round_span);
        let report = match committed {
            Ok(report) => report,
            Err(e) => {
                out.failed += 1;
                out.errors.push(format!("round {r}: {e}"));
                continue;
            }
        };
        let snap = {
            let _span = trace::span("session.snapshot");
            s.snapshot()
        };
        let visible_t = send.elapsed();
        if snap.num_transactions() != expected {
            out.failed += 1;
            out.errors.push(format!(
                "round {r}: snapshot holds {} transactions, expected {expected}",
                snap.num_transactions()
            ));
            continue;
        }
        out.round_ms.push(ms(round_t));
        out.visible_ms.push(ms(visible_t));
        out.counts.push(RoundCounts::of(&report));
        out.ops += ops;
        out.inserts += inserts;
        for j in 0..READS_PER_ROUND {
            let (snap_t, query_t) = read_once(|| s.snapshot(), mix, r * READS_PER_ROUND + j);
            out.snapshot_us.push(us(snap_t));
            out.query_us.push(us(query_t));
            out.read_us.push(us(snap_t + query_t));
        }
        after_round(r, s, &mut out);
    }
    out
}

/// One read: a snapshot, then read `j` of the mix on it.
pub fn read_once(
    snapshot: impl FnOnce() -> RuleSnapshot,
    mix: &QueryMix,
    j: usize,
) -> (Duration, Duration) {
    let _span = trace::span("read");
    let start = Instant::now();
    let snap = {
        let _span = trace::span("read.snapshot");
        snapshot()
    };
    let snap_t = start.elapsed();
    let start = Instant::now();
    {
        let _span = trace::span("read.query");
        black_box(mix.run(black_box(&snap), j));
    }
    (snap_t, start.elapsed())
}
