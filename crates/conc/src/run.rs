//! One controlled native run: builder, outcome, and safety classification.

use crate::coordinator::{ConcHalt, Coordinator, ThreadTimes};
use crate::strategy::Strategy;
use cil_obs::RunEvent;
use cil_registers::Packable;
use cil_sim::{run_on_threads_gated, PackCodec, Protocol, Val, Verdict, WordCodec};

/// Builder for a controlled native run of one protocol.
///
/// Mirrors the simulator's `Runner` builder: protocol + inputs, then
/// `seed`/`budget`/`capture` knobs, then [`run`](ControlledRun::run) with a
/// strategy. The run executes on real OS threads over atomic hardware
/// registers, serialized by a [`Coordinator`].
#[derive(Debug)]
pub struct ControlledRun<'a, P> {
    protocol: &'a P,
    inputs: &'a [Val],
    seed: u64,
    budget: u64,
    capture: bool,
}

impl<'a, P> ControlledRun<'a, P>
where
    P: Protocol + Sync,
    P::Reg: Send + Sync,
{
    /// A run of `protocol` with one input per processor.
    pub fn new(protocol: &'a P, inputs: &'a [Val]) -> Self {
        ControlledRun {
            protocol,
            inputs,
            seed: 0,
            budget: 4096,
            capture: false,
        }
    }

    /// Seed for the per-thread coin-flip streams.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Global step budget (total register operations across all threads).
    pub fn budget(mut self, budget: u64) -> Self {
        self.budget = budget;
        self
    }

    /// Record `cil-obs` events (grants, coins, steps, decisions) for JSONL
    /// export, replay comparison, and happens-before auditing.
    pub fn capture(mut self, yes: bool) -> Self {
        self.capture = yes;
        self
    }

    /// Runs under `strategy` with a custom [`WordCodec`] (for protocols
    /// whose registers have no uniform [`Packable`] encoding).
    pub fn run_with_codec<C>(&self, codec: &C, strategy: Box<dyn Strategy>) -> ConcOutcome
    where
        C: WordCodec<P::Reg>,
    {
        self.run_timed_with_codec(codec, strategy, false).0
    }

    /// [`run_with_codec`](ControlledRun::run_with_codec) with optional
    /// per-thread gate-wait/run wall-clock accounting. The timing rides
    /// outside [`ConcOutcome`], so outcome equality (replay checks, DPOR
    /// digests) never depends on the clock.
    pub fn run_timed_with_codec<C>(
        &self,
        codec: &C,
        strategy: Box<dyn Strategy>,
        timed: bool,
    ) -> (ConcOutcome, Option<ThreadTimes>)
    where
        C: WordCodec<P::Reg>,
    {
        let n = self.protocol.processes();
        let coordinator =
            Coordinator::new(n, self.budget, strategy, self.capture).with_timing(timed);
        // The coordinator owns the budget, so even at budget 0 every
        // undecided thread reaches the gate and the run halts on `Budget`.
        let out = run_on_threads_gated(
            self.protocol,
            self.inputs,
            self.seed,
            u64::MAX,
            codec,
            &coordinator,
        );
        let (halt, schedule, step_events, times) = coordinator.finish();
        let mut events = Vec::new();
        if self.capture {
            events.reserve(step_events.len() + 2);
            events.push(RunEvent::SpanBegin {
                name: "conc".into(),
                detail: self.protocol.name(),
            });
            events.extend(step_events);
            events.push(RunEvent::SpanEnd {
                name: "conc".into(),
                detail: format!("{halt:?}"),
            });
        }
        (
            ConcOutcome {
                inputs: self.inputs.to_vec(),
                decisions: out.decisions,
                steps: out.steps,
                flips: out.flips,
                reg_words: out.reg_words,
                total_steps: schedule.len() as u64,
                halt,
                schedule,
                events,
            },
            times,
        )
    }
}

impl<P> ControlledRun<'_, P>
where
    P: Protocol + Sync,
    P::Reg: Packable + Send + Sync,
{
    /// Runs under `strategy` with the [`Packable`] encoding.
    pub fn run(&self, strategy: Box<dyn Strategy>) -> ConcOutcome {
        self.run_with_codec(&PackCodec, strategy)
    }
}

/// What a controlled native run produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConcOutcome {
    /// The inputs the run started from (for nontriviality checking).
    pub inputs: Vec<Val>,
    /// Decision per processor (`None` = undecided when the run halted).
    pub decisions: Vec<Option<Val>>,
    /// Steps each thread performed.
    pub steps: Vec<u64>,
    /// Coin flips each thread consumed.
    pub flips: Vec<u64>,
    /// Final raw word of each register (spec order) — the terminal
    /// configuration's shared-memory half, in the run's [`WordCodec`]
    /// encoding.
    pub reg_words: Vec<u64>,
    /// Total serialized steps (= `schedule.len()`).
    pub total_steps: u64,
    /// Why the run stopped.
    pub halt: ConcHalt,
    /// The executed schedule: the pid of each step, in serialization order.
    pub schedule: Vec<usize>,
    /// Captured `cil-obs` events (empty unless capturing was requested).
    pub events: Vec<RunEvent>,
}

impl ConcOutcome {
    /// The run's [`Verdict`] over its decisions, inputs and step counts.
    pub fn verdict(&self) -> Verdict {
        Verdict::new(self.decisions.iter().copied(), &self.inputs, &self.steps)
    }

    /// The common decided value, if every processor decided on one value.
    pub fn agreement(&self) -> Option<Val> {
        self.verdict().unanimous()
    }

    /// Paper requirement 1 (consistency): no two processors decided
    /// different values. Vacuously true while undecided.
    pub fn consistent(&self) -> bool {
        self.verdict().consistent
    }

    /// Paper requirement 2 (nontriviality): every decided value is the
    /// input of some processor that took at least one step.
    pub fn nontrivial(&self) -> bool {
        self.verdict().nontrivial
    }

    /// Whether every processor decided.
    pub fn all_decided(&self) -> bool {
        self.verdict().all_decided
    }

    /// The captured events as JSON lines (one per event, no trailing
    /// newline).
    pub fn events_jsonl(&self) -> String {
        self.events
            .iter()
            .map(RunEvent::to_json)
            .collect::<Vec<_>>()
            .join("\n")
    }
}
