//! The coordination problem's two safety clauses (§2), consistency and
//! nontriviality, written once: every outcome type and every sweep
//! classification reads them from [`Verdict`].

use crate::protocol::Val;
use crate::sweep::TrialOutcome;

/// Safety and liveness of one run, computed from its decisions, inputs and
/// per-processor step counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// The value the decided processors agree on: `None` if nobody decided
    /// or two decided processors disagree.
    pub agreed: Option<Val>,
    /// Consistency (paper requirement 1): no two processors decided
    /// different values. Vacuously true while nobody has decided.
    pub consistent: bool,
    /// Nontriviality (paper requirement 2): every decided value is the
    /// input of some processor that took at least one step.
    pub nontrivial: bool,
    /// Whether every processor decided.
    pub all_decided: bool,
}

impl Verdict {
    /// Folds `decisions` (one per processor) against the run's `inputs` and
    /// per-processor `steps`, in one pass and without allocating.
    pub fn new(
        decisions: impl IntoIterator<Item = Option<Val>>,
        inputs: &[Val],
        steps: &[u64],
    ) -> Self {
        let mut v = Verdict {
            agreed: None,
            consistent: true,
            nontrivial: true,
            all_decided: true,
        };
        for d in decisions {
            v.all_decided &= d.is_some();
            let Some(d) = d else { continue };
            match v.agreed {
                None if v.consistent => v.agreed = Some(d),
                Some(a) if a != d => {
                    v.consistent = false;
                    v.agreed = None;
                }
                _ => {}
            }
            v.nontrivial &= inputs
                .iter()
                .zip(steps)
                .any(|(&input, &s)| s > 0 && input == d);
        }
        v
    }

    /// The common value, if *every* processor decided it.
    pub fn unanimous(&self) -> Option<Val> {
        self.agreed.filter(|_| self.all_decided)
    }

    /// Classifies the run as sweeps count it: inconsistency dominates
    /// triviality; a safe run is `Undecided` if it was stopped by its step
    /// budget, `Decided` otherwise.
    pub fn outcome(&self, stopped_by_budget: bool) -> TrialOutcome {
        match (self.consistent, self.nontrivial, stopped_by_budget) {
            (false, _, _) => TrialOutcome::Inconsistent,
            (_, false, _) => TrialOutcome::Trivial,
            (_, _, true) => TrialOutcome::Undecided,
            _ => TrialOutcome::Decided,
        }
    }
}
