//! A deterministic compile-farm model.
//!
//! The paper runs its searches on a 64-core machine and pitches the
//! autotuner at "compilation farms" (§1, §6): every evaluation is an
//! independent compile, so wall-clock is a scheduling question. This
//! module models it: greedy list scheduling of independent compile tasks
//! onto `workers` identical machines, plus helpers that turn a search's
//! structure into task lists.
//!
//! The model is intentionally simple — no network, no stragglers — but it
//! answers the questions the paper answers informally: how long does an
//! exhaustive search or an autotuning round take at a given farm size, and
//! where does adding workers stop helping (the critical path: an
//! autotuning *round* is perfectly parallel, but rounds are sequential).

/// Greedy list scheduling (longest-processing-time first) of independent
/// tasks onto `workers` machines; returns the makespan.
///
/// LPT is a 4/3-approximation of optimal makespan — plenty for capacity
/// planning.
///
/// # Panics
///
/// Panics if `workers == 0`.
pub fn makespan(tasks: &[u64], workers: usize) -> u64 {
    assert!(workers > 0, "a farm needs at least one worker");
    if tasks.is_empty() {
        return 0;
    }
    let mut sorted: Vec<u64> = tasks.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let mut loads = vec![0u64; workers.min(sorted.len())];
    for t in sorted {
        let min = loads.iter_mut().min().expect("at least one worker");
        *min += t;
    }
    loads.into_iter().max().unwrap_or(0)
}

/// A phased workload: phases run sequentially, tasks within a phase are
/// independent. An autotuning session is `rounds` phases of `n + 2` compile
/// tasks; an inlining-tree evaluation is (conservatively) one phase of leaf
/// compiles followed by one phase of combine compiles.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhasedWork {
    /// Per-phase task cost lists (e.g. microseconds per compile).
    pub phases: Vec<Vec<u64>>,
}

impl PhasedWork {
    /// Uniform-cost helper: `phase_sizes[i]` tasks of `cost` each.
    pub fn uniform(phase_sizes: &[usize], cost: u64) -> Self {
        PhasedWork { phases: phase_sizes.iter().map(|&n| vec![cost; n]).collect() }
    }

    /// Total work (the single-worker makespan).
    pub fn total(&self) -> u64 {
        self.phases.iter().flatten().sum()
    }

    /// Makespan on `workers` machines: phases serialize, tasks within a
    /// phase schedule greedily.
    pub fn makespan(&self, workers: usize) -> u64 {
        self.phases.iter().map(|p| makespan(p, workers)).sum()
    }

    /// Smallest worker count achieving within `slack` (e.g. `1.05`) of the
    /// asymptotic (infinite-worker) makespan.
    pub fn saturation_point(&self, slack: f64) -> usize {
        let floor = self.makespan(usize::MAX / 2) as f64;
        let mut w = 1;
        while (self.makespan(w) as f64) > floor * slack {
            w *= 2;
            if w > 1 << 20 {
                break;
            }
        }
        w
    }
}

/// Builds the phased work of an autotuning session: `rounds` phases, each
/// `n_sites + 2` compiles of `compile_cost` (the `+2` being the base and
/// combined evaluations, which serialize with the probes; we charge them
/// into the parallel phase, a ≤2-task underestimate per round).
pub fn autotune_work(n_sites: usize, rounds: usize, compile_cost: u64) -> PhasedWork {
    PhasedWork::uniform(&vec![n_sites + 2; rounds], compile_cost)
}

/// Builds the phased work of an inlining-tree evaluation: all leaves in one
/// phase, then the component-combining compiles in a second. (The true
/// dependency structure is a tree; two phases is the conservative shape —
/// combines wait for every leaf.)
pub fn tree_work(leaves: u128, combines: u128, compile_cost: u64) -> PhasedWork {
    PhasedWork::uniform(
        &[leaves.min(1 << 30) as usize, combines.min(1 << 30) as usize],
        compile_cost,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_worker_makespan_is_total() {
        assert_eq!(makespan(&[3, 5, 2], 1), 10);
    }

    #[test]
    fn many_workers_hit_the_longest_task() {
        assert_eq!(makespan(&[3, 5, 2], 100), 5);
    }

    #[test]
    fn lpt_balances_reasonably() {
        // Sorted 4,3,3 onto two workers: {4} and {3,3} — makespan 6, which
        // is optimal here.
        assert_eq!(makespan(&[4, 3, 3], 2), 6);
    }

    #[test]
    fn zero_tasks_take_no_time() {
        assert_eq!(makespan(&[], 4), 0);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_is_rejected() {
        makespan(&[1], 0);
    }

    #[test]
    fn phases_serialize() {
        let w = PhasedWork::uniform(&[10, 10], 1);
        assert_eq!(w.makespan(10), 2);
        assert_eq!(w.makespan(1), 20);
        assert_eq!(w.total(), 20);
    }

    #[test]
    fn speedup_saturates_at_phase_width() {
        // 4 rounds of 18 tasks: beyond 18 workers nothing improves.
        let w = autotune_work(16, 4, 100);
        assert!(w.makespan(18) < w.makespan(4));
        assert_eq!(w.makespan(18), w.makespan(1000));
        assert_eq!(w.makespan(1000), 4 * 100);
    }

    #[test]
    fn saturation_point_finds_the_knee() {
        let w = autotune_work(16, 4, 100);
        let sat = w.saturation_point(1.01);
        assert!(sat <= 32, "saturation at {sat}");
        assert!(w.makespan(sat) as f64 <= w.makespan(usize::MAX / 2) as f64 * 1.01);
    }

    #[test]
    fn tree_work_reflects_leaf_dominance() {
        let w = tree_work(1000, 10, 50);
        assert_eq!(w.total(), 50 * 1010);
        // With 1000 workers: leaves take 50, combines 50.
        assert_eq!(w.makespan(1000), 100);
    }
}
