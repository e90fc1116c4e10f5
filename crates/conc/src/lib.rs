//! # cil-conc — controlled native-thread concurrency testing
//!
//! The paper's closing remark — the model "is implementable in existing
//! technology" — is only *testable* if native executions can be steered and
//! reproduced. Free-running threads (`cil_sim::run_on_threads`) let the OS
//! play the adversary: unreproducible, unauditable, and unable to seek out
//! bad interleavings. This crate closes that gap with systematic
//! concurrency testing over the real-atomics backend:
//!
//! * **[`Coordinator`]** — a [`cil_sim::ThreadGate`] that turns every
//!   register operation into a yield point and serializes threads under a
//!   pluggable [`Strategy`], so a run is a deterministic function of
//!   `(seed, strategy)`.
//! * **Strategies** — [`RandomWalk`] (seeded uniform adversary), [`Pct`]
//!   (randomized priorities with `d − 1` change points and the PCT
//!   detection guarantee), and [`ReplaySchedule`] (exact re-execution of a
//!   recorded schedule, strict or best-effort).
//! * **[`ControlledRun`]** — single-run harness producing a
//!   [`ConcOutcome`]: decisions, per-thread steps and coin flips, the
//!   executed schedule, and optionally the full `cil-obs` event trace in
//!   the simulator's format — so the happens-before auditor
//!   (`cil-audit`) verifies that real-atomics traces serialize as atomic
//!   register operations.
//! * **[`stress`]** — a trial-sweep adapter folding controlled runs into
//!   the jobs-invariant `SweepStats`, making native decided-by-`k` decay
//!   directly comparable with the simulator's Corollary curve.
//! * **[`ddmin_schedule`]** — delta-debugging of failing schedules to a
//!   1-minimal repro, re-validated via best-effort replay.
//! * **[`RacyTwo`]** — a planted interleaving-sensitive mutant calibrating
//!   the strategies' bug-finding power.
//! * **[`explore`]** — stateless DPOR: *exhaustive* enumeration of every
//!   interleaving and coin outcome up to a depth bound, with sleep-set
//!   partial-order reduction keyed on register-access independence
//!   ([`Access`]), a bounded-preemption hunt prelude, and a partitioned
//!   parallel mode whose results are byte-identical at any `--jobs` —
//!   cross-validated config-for-config against the simulator's
//!   configuration graph ([`cross_validate`]).
//!
//! The CLI surface is `cil conc stress|replay|shrink|explore`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coordinator;
mod dpor;
mod indep;
mod mutant;
mod run;
mod shrink;
mod strategy;
mod stress;

pub use coordinator::{ConcHalt, Coordinator, ThreadTimes};
pub use dpor::{
    cross_validate, explore, explore_timed_with_codec, explore_with_codec, CrossCheck, DporConfig,
    DporReport, DporTiming, DporViolation, HuntReport, TerminalConfig,
};
pub use indep::{stays_asleep, Access, AccessSet, StaticIndep};
pub use mutant::{RacyState, RacyTwo};
pub use run::{ConcOutcome, ControlledRun};
pub use shrink::ddmin_schedule;
pub use strategy::{Pct, RandomWalk, ReplaySchedule, Strategy, StrategySpec};
pub use stress::{
    classify, rerun_trial_with_codec, stress, stress_timed_with_codec, stress_with_codec,
    GateTimingAgg, StressConfig,
};

#[cfg(test)]
mod tests {
    use super::*;
    use cil_core::two::TwoProcessor;
    use cil_sim::Val;

    #[test]
    fn controlled_run_is_deterministic() {
        let p = TwoProcessor::new();
        let run = |seed: u64| {
            ControlledRun::new(&p, &[Val::A, Val::B])
                .seed(seed)
                .budget(256)
                .capture(true)
                .run(Box::new(RandomWalk::new(seed)))
        };
        for seed in 0..16 {
            let a = run(seed);
            let b = run(seed);
            assert_eq!(a, b, "seed {seed}");
            assert!(a.consistent() && a.nontrivial(), "seed {seed}: {a:?}");
        }
    }

    #[test]
    fn recorded_schedule_replays_byte_for_byte() {
        let p = TwoProcessor::new();
        for seed in 0..16 {
            let original = ControlledRun::new(&p, &[Val::A, Val::B])
                .seed(seed)
                .budget(256)
                .capture(true)
                .run(Box::new(RandomWalk::new(seed)));
            let replayed = ControlledRun::new(&p, &[Val::A, Val::B])
                .seed(seed)
                .budget(256)
                .capture(true)
                .run(Box::new(ReplaySchedule::strict(original.schedule.clone())));
            assert_eq!(
                original.events_jsonl(),
                replayed.events_jsonl(),
                "seed {seed}"
            );
            assert_eq!(original.halt, replayed.halt, "seed {seed}");
        }
    }

    #[test]
    fn budget_halts_and_replays_identically() {
        let p = TwoProcessor::new();
        // A tiny budget forces Budget halts; replaying the truncated
        // schedule must reproduce the same truncated trace, including the
        // halt reason in the closing span.
        let original = ControlledRun::new(&p, &[Val::A, Val::B])
            .seed(3)
            .budget(3)
            .capture(true)
            .run(Box::new(RandomWalk::new(3)));
        assert_eq!(original.halt, ConcHalt::Budget);
        assert_eq!(original.total_steps, 3);
        let replayed = ControlledRun::new(&p, &[Val::A, Val::B])
            .seed(3)
            .budget(3)
            .capture(true)
            .run(Box::new(ReplaySchedule::strict(original.schedule.clone())));
        assert_eq!(original.events_jsonl(), replayed.events_jsonl());
    }

    #[test]
    fn zero_budget_halts_on_budget_with_nobody_decided() {
        let p = TwoProcessor::new();
        let out = ControlledRun::new(&p, &[Val::A, Val::B])
            .budget(0)
            .run(Box::new(RandomWalk::new(0)));
        assert_eq!(out.halt, ConcHalt::Budget);
        assert_eq!(out.total_steps, 0);
        assert_eq!(out.decisions, vec![None, None]);
        assert_eq!(classify(&out).outcome, cil_sim::TrialOutcome::Undecided);
    }

    #[test]
    fn stress_digest_is_jobs_invariant() {
        let p = TwoProcessor::new();
        let cfg = |jobs| StressConfig {
            trials: 40,
            root_seed: 11,
            budget: 512,
            jobs,
            strategy: StrategySpec::Random,
            max_failure_samples: 5,
        };
        let serial = stress(&p, &[Val::A, Val::B], &cfg(1), None);
        let parallel = stress(&p, &[Val::A, Val::B], &cfg(4), None);
        assert_eq!(serial, parallel);
        assert_eq!(serial.violations(), 0);
        assert_eq!(serial.decided, 40);
    }
}
