//! The one safety classifier, `cil_sim::Verdict`: a table over its cases,
//! and a check that every outcome type reading it — the simulator's
//! `RunOutcome`, the thread runner's `ThreadOutcome`, the controlled
//! runner's `ConcOutcome` and serve's `InstanceOutcome` — gives the same
//! classification and agreed value on the same decisions.

use cil_conc::{classify, ControlledRun, RandomWalk};
use cil_registers::{ReaderSet, RegId, RegisterSpec};
use cil_serve::InstanceSlot;
use cil_sim::{
    run_on_threads, Choice, Op, PackCodec, Protocol, RoundRobin, Runner, Trial, TrialOutcome,
    TrialResult, Val, Verdict,
};

const A: Val = Val::A;
const B: Val = Val::B;

/// Two processors with inputs a, b. Columns: case, decisions, steps,
/// stopped by budget, then the expected agreed value, consistent,
/// nontrivial, all decided and outcome.
type Row = (
    &'static str,
    [Option<Val>; 2],
    [u64; 2],
    bool,
    Option<Val>,
    bool,
    bool,
    bool,
    TrialOutcome,
);

#[test]
fn verdict_table() {
    use TrialOutcome::{Decided, Inconsistent, Trivial, Undecided};
    #[rustfmt::skip]
    let cases: [Row; 7] = [
        ("no decisions",            [None, None],                 [3, 3], true,  None,         true,  true,  false, Undecided),
        ("one decided processor",   [Some(B), None],              [2, 1], false, Some(B),      true,  true,  false, Decided),
        ("disagreement",            [Some(A), Some(B)],           [1, 1], false, None,         false, true,  true,  Inconsistent),
        ("value is no input",       [Some(Val(7)), Some(Val(7))], [1, 1], false, Some(Val(7)), true,  false, true,  Trivial),
        ("input of a 0-step pid",   [Some(B), Some(B)],           [4, 0], false, Some(B),      true,  false, true,  Trivial),
        ("stopped by budget",       [Some(A), None],              [5, 5], true,  Some(A),      true,  true,  false, Undecided),
        ("inconsistency dominates", [Some(Val(7)), Some(B)],      [1, 1], true,  None,         false, false, true,  Inconsistent),
    ];
    for (case, decisions, steps, budget, agreed, consistent, nontrivial, all_decided, outcome) in
        cases
    {
        let v = Verdict::new(decisions, &[A, B], &steps);
        let expected = Verdict {
            agreed,
            consistent,
            nontrivial,
            all_decided,
        };
        assert_eq!(v, expected, "{case}");
        assert_eq!(v.outcome(budget), outcome, "{case}");
        assert_eq!(v.unanimous(), agreed.filter(|_| all_decided), "{case}");
    }
}

/// When a processor of [`Scripted`] decides.
#[derive(Debug, Clone, Copy)]
enum Plan {
    /// Decided in its initial state: it never takes a step.
    AtInit(Val),
    /// Decides after its first write.
    AfterOneStep(Val),
    /// Writes forever without deciding.
    Never,
}

/// The protocol behind the call-site check: each processor decides a fixed
/// value at a fixed point, so every backend reaches the same decision
/// vector whatever its schedule.
#[derive(Debug)]
struct Scripted {
    plans: Vec<Plan>,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum S {
    Running,
    Done(Val),
}

impl Protocol for Scripted {
    type State = S;
    type Reg = u64;

    fn processes(&self) -> usize {
        self.plans.len()
    }

    fn registers(&self) -> Vec<RegisterSpec<u64>> {
        cil_registers::access::per_process_registers(self.plans.len(), 0, |_| ReaderSet::All)
    }

    fn init(&self, pid: usize, _input: Val) -> S {
        match self.plans[pid] {
            Plan::AtInit(v) => S::Done(v),
            _ => S::Running,
        }
    }

    fn choose(&self, pid: usize, _state: &S) -> Choice<Op<u64>> {
        Choice::det(Op::Write(RegId(pid), 1))
    }

    fn transit(&self, pid: usize, _state: &S, _op: &Op<u64>, _read: Option<&u64>) -> Choice<S> {
        match self.plans[pid] {
            Plan::AfterOneStep(v) => Choice::det(S::Done(v)),
            _ => Choice::det(S::Running),
        }
    }

    fn decision(&self, state: &S) -> Option<Val> {
        match state {
            S::Done(v) => Some(*v),
            S::Running => None,
        }
    }
}

/// Step budget of every backend: enough for each deciding processor to
/// take its step under any of the schedulers.
const BUDGET: u64 = 64;

#[test]
fn every_outcome_type_gives_the_same_verdict() {
    use Plan::{AfterOneStep, AtInit, Never};
    // (case, plans, expected classification, agreed value among the decided)
    let cases = [
        (
            "no decisions",
            vec![Never, Never],
            TrialOutcome::Undecided,
            None,
        ),
        (
            "one decided processor, the other out of budget",
            vec![AfterOneStep(A), Never],
            TrialOutcome::Undecided,
            Some(A),
        ),
        (
            "disagreement",
            vec![AfterOneStep(A), AfterOneStep(B)],
            TrialOutcome::Inconsistent,
            None,
        ),
        (
            "decided value is no processor's input",
            vec![AfterOneStep(Val(7)), AfterOneStep(Val(7))],
            TrialOutcome::Trivial,
            Some(Val(7)),
        ),
        (
            "decided value is the input of a 0-step processor",
            vec![AfterOneStep(B), AtInit(B)],
            TrialOutcome::Trivial,
            Some(B),
        ),
        (
            "agreement on an activated input",
            vec![AfterOneStep(A), AfterOneStep(A)],
            TrialOutcome::Decided,
            Some(A),
        ),
    ];
    let inputs = [A, B];
    for (case, plans, expected, agreed) in cases {
        let p = Scripted { plans };
        let all_decided = p.plans.iter().all(|plan| !matches!(plan, Never));
        let unanimous = agreed.filter(|_| all_decided);

        let run = Runner::new(&p, &inputs, RoundRobin::new())
            .max_steps(BUDGET)
            .run();
        assert_eq!(TrialResult::from_run(&run).outcome, expected, "{case}");
        assert_eq!(run.agreement(), agreed, "{case}");
        assert_eq!(run.consistent(), expected != TrialOutcome::Inconsistent);

        let conc = ControlledRun::new(&p, &inputs)
            .budget(BUDGET)
            .run(Box::new(RandomWalk::new(1)));
        assert_eq!(conc.decisions, run.decisions, "{case}");
        assert_eq!(classify(&conc).outcome, expected, "{case}");
        assert_eq!(conc.agreement(), unanimous, "{case}");
        assert_eq!(conc.all_decided(), all_decided, "{case}");
        assert_eq!(conc.consistent(), run.consistent(), "{case}");
        assert_eq!(conc.nontrivial(), run.nontrivial(), "{case}");

        let threads = run_on_threads(&p, &inputs, 1, BUDGET);
        assert_eq!(threads.decisions, run.decisions, "{case}");
        assert_eq!(threads.agreed(), unanimous, "{case}");

        let mut slot = InstanceSlot::new(&p, &PackCodec, &inputs, BUDGET);
        slot.begin(Trial { index: 0, seed: 1 });
        let served = loop {
            if let Some(done) = slot.step_batch(8) {
                break done;
            }
        };
        assert_eq!(served.result.outcome, expected, "{case}");
        assert_eq!(
            served.value,
            agreed.filter(|_| expected == TrialOutcome::Decided),
            "{case}"
        );
    }
}
