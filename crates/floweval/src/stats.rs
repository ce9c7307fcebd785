//! Evaluation statistics reported by the engine.

use serde::{Deserialize, Serialize};

/// Counters describing how a batch (or a whole run) was evaluated.
///
/// `passes_requested` is what running every flow on its own
/// (`FlowRunner::run`) would apply: the sum of all requested flow lengths.  `passes_applied` is what the
/// engine actually executed after store hits and state-graph sharing; the
/// difference is pure savings.  For the flows that were evaluated (not
/// cancelled), every requested pass is either applied or memoized, and every
/// flow's mapping is either run or memoized.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EvalStats {
    /// Flows requested through the engine.
    pub flows_requested: usize,
    /// Flows answered directly from the persistent QoR store.
    pub store_hits: usize,
    /// Flows evaluated through the state graph (requested − store hits).
    pub flows_evaluated: usize,
    /// Transform passes a naive evaluator would have applied.
    pub passes_requested: usize,
    /// Transform passes actually applied.
    pub passes_applied: usize,
    /// Passes answered by the state graph without running: known identity
    /// edges, known edges into a resident (or already-mapped) state, and
    /// edges another flow of the same batch applied.
    pub passes_memoized: usize,
    /// Evaluated flows that started below their design's root state, i.e.
    /// whose first steps the state graph already knew (the name predates the
    /// state graph).
    pub trie_hits: usize,
    /// Technology-mapping runs performed.
    pub mappings_run: usize,
    /// Evaluated flows whose final graph was already mapped (by an earlier
    /// flow, or by another flow of the same batch).
    pub mappings_memoized: usize,
    /// QoR-store append/flush failures (the result is still served and kept
    /// in memory; only its on-disk record is lost).
    pub store_write_errors: usize,
    /// Torn final lines healed when the store was opened (benign crash
    /// truncation: at most the in-flight record).
    pub store_torn_tail: usize,
    /// Mid-file corrupt lines (checksum/shape failures) quarantined when the
    /// store was opened.
    pub store_corrupt: usize,
    /// Wall-clock seconds spent inside the engine.
    pub wall_s: f64,
}

impl EvalStats {
    /// Passes saved relative to naive batch evaluation.
    pub fn passes_avoided(&self) -> usize {
        self.passes_requested.saturating_sub(self.passes_applied)
    }

    /// Fraction of requested flows answered from the persistent store.
    pub fn store_hit_rate(&self) -> f64 {
        if self.flows_requested == 0 {
            0.0
        } else {
            self.store_hits as f64 / self.flows_requested as f64
        }
    }

    /// Fraction of requested passes that were never executed.
    pub fn pass_savings_rate(&self) -> f64 {
        if self.passes_requested == 0 {
            0.0
        } else {
            self.passes_avoided() as f64 / self.passes_requested as f64
        }
    }

    /// The difference between this (later) snapshot and an `earlier` one —
    /// the activity that happened in between.
    pub fn since(&self, earlier: &EvalStats) -> EvalStats {
        EvalStats {
            flows_requested: self.flows_requested.saturating_sub(earlier.flows_requested),
            store_hits: self.store_hits.saturating_sub(earlier.store_hits),
            flows_evaluated: self.flows_evaluated.saturating_sub(earlier.flows_evaluated),
            passes_requested: self
                .passes_requested
                .saturating_sub(earlier.passes_requested),
            passes_applied: self.passes_applied.saturating_sub(earlier.passes_applied),
            passes_memoized: self.passes_memoized.saturating_sub(earlier.passes_memoized),
            trie_hits: self.trie_hits.saturating_sub(earlier.trie_hits),
            mappings_run: self.mappings_run.saturating_sub(earlier.mappings_run),
            mappings_memoized: self
                .mappings_memoized
                .saturating_sub(earlier.mappings_memoized),
            store_write_errors: self
                .store_write_errors
                .saturating_sub(earlier.store_write_errors),
            store_torn_tail: self.store_torn_tail.saturating_sub(earlier.store_torn_tail),
            store_corrupt: self.store_corrupt.saturating_sub(earlier.store_corrupt),
            wall_s: (self.wall_s - earlier.wall_s).max(0.0),
        }
    }

    /// Accumulates another stats record into this one.
    pub fn absorb(&mut self, other: &EvalStats) {
        self.flows_requested += other.flows_requested;
        self.store_hits += other.store_hits;
        self.flows_evaluated += other.flows_evaluated;
        self.passes_requested += other.passes_requested;
        self.passes_applied += other.passes_applied;
        self.passes_memoized += other.passes_memoized;
        self.trie_hits += other.trie_hits;
        self.mappings_run += other.mappings_run;
        self.mappings_memoized += other.mappings_memoized;
        self.store_write_errors += other.store_write_errors;
        self.store_torn_tail += other.store_torn_tail;
        self.store_corrupt += other.store_corrupt;
        self.wall_s += other.wall_s;
    }
}

impl std::fmt::Display for EvalStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "flows {} (store hits {}, evaluated {})  passes {}/{} applied ({:.0}% saved, \
             {} memoized)  trie hits {}  mappings {} (+{} memoized)  {:.2}s",
            self.flows_requested,
            self.store_hits,
            self.flows_evaluated,
            self.passes_applied,
            self.passes_requested,
            self.pass_savings_rate() * 100.0,
            self.passes_memoized,
            self.trie_hits,
            self.mappings_run,
            self.mappings_memoized,
            self.wall_s,
        )?;
        if self.store_write_errors > 0 {
            write!(f, "  store write errors {}", self.store_write_errors)?;
        }
        if self.store_torn_tail > 0 {
            write!(f, "  store torn tail {}", self.store_torn_tail)?;
        }
        if self.store_corrupt > 0 {
            write!(f, "  store corrupt {}", self.store_corrupt)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_and_absorb() {
        let mut a = EvalStats {
            flows_requested: 10,
            store_hits: 4,
            flows_evaluated: 6,
            passes_requested: 100,
            passes_applied: 25,
            passes_memoized: 15,
            trie_hits: 5,
            mappings_run: 4,
            mappings_memoized: 2,
            store_write_errors: 2,
            store_torn_tail: 1,
            store_corrupt: 1,
            wall_s: 1.0,
        };
        assert_eq!(a.passes_avoided(), 75);
        assert!((a.store_hit_rate() - 0.4).abs() < 1e-12);
        assert!((a.pass_savings_rate() - 0.75).abs() < 1e-12);
        let b = a;
        a.absorb(&b);
        assert_eq!(a.flows_requested, 20);
        assert_eq!(a.passes_applied, 50);
        assert_eq!((a.passes_memoized, a.mappings_memoized), (30, 4));
        assert_eq!(a.since(&b).passes_memoized, 15);
        assert_eq!(a.since(&b).mappings_memoized, 2);
        assert!(a.to_string().contains("30 memoized"));
        assert!(a.to_string().contains("mappings 8 (+4 memoized)"));
        assert_eq!(a.store_write_errors, 4);
        assert_eq!(a.since(&b).store_write_errors, 2);
        assert_eq!(a.store_torn_tail, 2);
        assert_eq!(a.store_corrupt, 2);
        assert_eq!(a.since(&b).store_corrupt, 1);
        assert!(a.to_string().contains("store write errors 4"));
        assert!(a.to_string().contains("store torn tail 2"));
        assert!(a.to_string().contains("store corrupt 2"));
        assert_eq!(EvalStats::default().store_hit_rate(), 0.0);
        assert_eq!(EvalStats::default().pass_savings_rate(), 0.0);
    }

    #[test]
    fn display_mentions_key_counters() {
        let s = EvalStats {
            flows_requested: 3,
            ..Default::default()
        };
        let text = s.to_string();
        assert!(text.contains("flows 3"));
        assert!(text.contains("passes"));
    }
}
