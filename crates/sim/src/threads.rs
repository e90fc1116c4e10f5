//! Real-thread execution over hardware atomic registers.
//!
//! The simulator's serialized executor is faithful to the paper's model, but
//! the paper's punchline is that the model "is implementable in existing
//! technology". [`run_on_threads`] demonstrates it: each processor becomes an
//! OS thread, each shared register one `AtomicU64` cell
//! ([`cil_registers::HwRegisterFile`]), and the *operating system* plays the
//! adversary scheduler. Coin flips come from per-thread forks of the
//! deterministic generator (per-run results are still randomized because the
//! OS interleaving is).
//!
//! Each thread calls the shared [`kernel::step`] in a loop. Two hooks make
//! that loop reusable beyond free-running stress:
//!
//! * [`WordCodec`] — how a register value maps to the raw `u64` word in its
//!   cell. [`PackCodec`] covers every [`Packable`] register type; protocols
//!   whose registers need per-register encodings (e.g. `kvalued`) supply
//!   their own codec.
//! * [`ThreadGate`] — a yield point wrapped around every register operation.
//!   [`FreeGate`] lets the OS scheduler play adversary (the historical
//!   behavior); `cil-conc` plugs in a controlled scheduler that serializes
//!   steps under a deterministic strategy and records/replays schedules.
//!
//! The protocols never busy-wait on other processors (wait-freedom), so no
//! thread can be blocked by another — every thread either decides, exhausts
//! its own step budget, or is retired by its gate.

use crate::kernel;
use crate::protocol::{Protocol, Val};
use crate::rng::{Rng, Xoshiro256StarStar};
use crate::verdict::Verdict;
use cil_obs::{CoinStage, OpKind, RunEvent};
use cil_registers::{HwRegisterFile, Packable, Pid, RegId};
use std::fmt;

/// Maps register values to and from the raw `u64` words stored in hardware
/// cells, per register.
///
/// The register id is passed so heterogeneous register banks (different
/// encodings for different registers of one protocol) can be hosted without
/// a uniform [`Packable`] impl.
pub trait WordCodec<R>: Sync {
    /// Encodes `value` for storage in register `reg`.
    fn pack(&self, reg: RegId, value: &R) -> u64;
    /// Decodes a word loaded from register `reg`.
    fn unpack(&self, reg: RegId, word: u64) -> R;
}

/// The uniform codec for register types that implement [`Packable`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PackCodec;

impl<R: Packable> WordCodec<R> for PackCodec {
    fn pack(&self, _reg: RegId, value: &R) -> u64 {
        value.pack()
    }
    fn unpack(&self, _reg: RegId, word: u64) -> R {
        R::unpack(word)
    }
}

/// Everything a scheduler needs to know about one completed step, handed to
/// [`ThreadGate::release`] while the step is still exclusive.
///
/// `value` is the step's observable value — the value read for reads, the
/// value written for writes — borrowed as `dyn Debug` so gates that do not
/// record traces pay nothing for formatting.
pub struct StepRecord<'a> {
    /// Processor that took the step.
    pub pid: usize,
    /// Whether the operation was a write (`false` = read).
    pub write: bool,
    /// The register operated on.
    pub reg: RegId,
    /// The observable value (read result or written value).
    pub value: &'a dyn fmt::Debug,
    /// Branch count of the choose-stage coin, if one was flipped.
    pub choose_branches: Option<usize>,
    /// Branch count of the transit-stage coin, if one was flipped.
    pub transit_branches: Option<usize>,
    /// The processor's decision immediately after the step, if any.
    pub decision: Option<Val>,
}

impl StepRecord<'_> {
    /// Emits the step's `cil-obs` events at step `index`, in stream order:
    /// the choose and transit coin flips, the step, then the decision. The
    /// value is rendered in its `Debug` form, the same every time, so
    /// captured streams are byte-for-byte reproducible.
    pub fn emit_events(&self, index: u64, mut emit: impl FnMut(RunEvent)) {
        let pid = self.pid;
        for (branches, stage) in [
            (self.choose_branches, CoinStage::Choose),
            (self.transit_branches, CoinStage::Transit),
        ] {
            if let Some(branches) = branches {
                emit(RunEvent::CoinFlip {
                    index,
                    pid,
                    stage,
                    branches,
                });
            }
        }
        emit(RunEvent::Step {
            index,
            pid,
            op: if self.write {
                OpKind::Write
            } else {
                OpKind::Read
            },
            reg: self.reg.0,
            value: format!("{:?}", self.value),
        });
        if let Some(v) = self.decision {
            emit(RunEvent::Decision {
                index,
                pid,
                value: v.0,
            });
        }
    }
}

/// A yield point wrapped around every register operation of every thread.
///
/// The contract: a thread calls [`acquire`](ThreadGate::acquire) before
/// sampling its choose coin and touching memory, performs exactly one
/// register operation plus its transition, then calls
/// [`release`](ThreadGate::release) with the step's record. When the thread
/// will take no further steps (decided, exhausted its budget, or denied by
/// the gate) it calls [`retire`](ThreadGate::retire) exactly once.
pub trait ThreadGate: Sync {
    /// Blocks until the thread may take its next step. Returning `false`
    /// denies the step: the thread must stop and retire.
    fn acquire(&self, pid: usize) -> bool {
        let _ = pid;
        true
    }
    /// Forces the outcome of a probabilistic branch with `branches` weighted
    /// alternatives (`transit` distinguishes the transit-stage coin from the
    /// choose-stage coin). Called between `acquire` and `release`, while the
    /// step is exclusive. Returning `Some(i)` makes the thread take branch
    /// `i` of [`crate::Choice::branches`]; `None` (the default) samples from
    /// the thread's own deterministic RNG stream — the historical behavior.
    ///
    /// This is the hook that lets a systematic explorer (`cil-conc`'s DPOR
    /// module) turn every coin flip into an explicit, enumerable branch of
    /// the schedule tree instead of a sampled one.
    fn coin_branch(&self, pid: usize, transit: bool, branches: usize) -> Option<usize> {
        let _ = (pid, transit, branches);
        None
    }
    /// Reports the step just taken, before any other thread may be granted.
    fn release(&self, record: StepRecord<'_>) {
        let _ = record;
    }
    /// Reports that the thread will take no further steps.
    fn retire(&self, pid: usize) {
        let _ = pid;
    }
}

/// The free-running gate: every step is granted immediately, so the OS
/// scheduler and the hardware play the adversary.
#[derive(Debug, Clone, Copy, Default)]
pub struct FreeGate;

impl ThreadGate for FreeGate {}

/// Retires the thread on drop, so a panicking thread (protocol bug) still
/// reports itself dead to a controlling gate instead of deadlocking the
/// other threads that wait on its next yield point.
struct RetireGuard<'a, G: ThreadGate> {
    gate: &'a G,
    pid: usize,
}

impl<G: ThreadGate> Drop for RetireGuard<'_, G> {
    fn drop(&mut self) {
        self.gate.retire(self.pid);
    }
}

/// Outcome of a real-thread run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadOutcome {
    /// Decision of each processor (`None` = step budget exhausted or
    /// retired by the gate while undecided).
    pub decisions: Vec<Option<Val>>,
    /// Steps (register operations) each thread performed.
    pub steps: Vec<u64>,
    /// Coin flips each thread consumed — choose- and transit-stage samples
    /// with more than one branch — matching the simulator's accounting, so
    /// native and simulated step/flip statistics are directly comparable.
    pub flips: Vec<u64>,
    /// Final raw word of every register, in spec order, read after all
    /// threads joined. Together with `decisions` this is the run's terminal
    /// configuration, directly comparable (through the same [`WordCodec`])
    /// with the simulator's `Config` registers.
    pub reg_words: Vec<u64>,
}

impl ThreadOutcome {
    /// Whether all threads decided on a single common value.
    pub fn agreed(&self) -> Option<Val> {
        // No inputs are kept here; agreement does not read them.
        Verdict::new(self.decisions.iter().copied(), &[], &self.steps).unanimous()
    }
}

/// Runs `protocol` with the given inputs on real OS threads, with a
/// pluggable [`WordCodec`] and [`ThreadGate`].
///
/// `max_steps_per_thread` bounds each thread's own work; a controlling gate
/// may additionally stop threads earlier by denying
/// [`acquire`](ThreadGate::acquire). Per-thread RNG streams derive from
/// `seed`, so for a fixed sequence of gate grants the run is fully
/// deterministic.
///
/// # Panics
///
/// Panics if `inputs.len() != protocol.processes()`, if the register specs
/// are rejected by the hardware backend, or if the protocol violates its
/// declared access structure or register widths at runtime.
pub fn run_on_threads_gated<P, C, G>(
    protocol: &P,
    inputs: &[Val],
    seed: u64,
    max_steps_per_thread: u64,
    codec: &C,
    gate: &G,
) -> ThreadOutcome
where
    P: Protocol + Sync,
    P::Reg: Send + Sync,
    C: WordCodec<P::Reg>,
    G: ThreadGate,
{
    assert_eq!(
        inputs.len(),
        protocol.processes(),
        "one input per processor"
    );
    let n = protocol.processes();
    let file = HwRegisterFile::with_packer(protocol.registers(), |reg, v| codec.pack(reg, v))
        .expect("valid register specs");
    let mut seeder = Xoshiro256StarStar::new(seed);
    let seeds: Vec<u64> = (0..n).map(|_| seeder.next_u64()).collect();

    let per_thread: Vec<(Option<Val>, u64, u64)> = std::thread::scope(|scope| {
        let file = &file;
        let handles: Vec<_> = (0..n)
            .map(|pid| {
                let input = inputs[pid];
                let thread_seed = seeds[pid];
                scope.spawn(move || {
                    let _retire = RetireGuard { gate, pid };
                    let mut rng = Xoshiro256StarStar::new(thread_seed);
                    let mut state = protocol.init(pid, input);
                    let mut taken = 0u64;
                    let mut flipped = 0u64;
                    while protocol.decision(&state).is_none() && taken < max_steps_per_thread {
                        if !gate.acquire(pid) {
                            break;
                        }
                        let step = kernel::step(
                            protocol,
                            pid,
                            &mut state,
                            &mut (file, codec),
                            &mut rng,
                            |transit, branches| gate.coin_branch(pid, transit, branches),
                        );
                        taken += 1;
                        flipped += step.choose_branches.is_some() as u64;
                        flipped += step.transit_branches.is_some() as u64;
                        gate.release(step.record(pid));
                    }
                    (protocol.decision(&state), taken, flipped)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("protocol thread panicked"))
            .collect()
    });
    // Terminal register snapshot: every cell read through a permitted
    // reader (the register file enforces reader sets even after the run).
    let reg_words = file
        .specs()
        .iter()
        .map(|spec| {
            (0..n)
                .find(|&p| spec.readers.allows(Pid(p)))
                .and_then(|p| file.read_word(Pid(p), spec.id).ok())
                .unwrap_or_else(|| codec.pack(spec.id, &spec.init))
        })
        .collect();
    ThreadOutcome {
        decisions: per_thread.iter().map(|t| t.0).collect(),
        steps: per_thread.iter().map(|t| t.1).collect(),
        flips: per_thread.iter().map(|t| t.2).collect(),
        reg_words,
    }
}

/// Runs `protocol` with the given inputs on real OS threads, free-running
/// (the OS plays the adversary) over the [`Packable`] encoding.
///
/// `max_steps_per_thread` bounds each thread's work (the randomized
/// protocols decide in expected O(1) steps, so budgets in the thousands are
/// already astronomically safe).
///
/// # Panics
///
/// Panics if `inputs.len() != protocol.processes()` or if the protocol
/// violates its declared register access structure.
pub fn run_on_threads<P>(
    protocol: &P,
    inputs: &[Val],
    seed: u64,
    max_steps_per_thread: u64,
) -> ThreadOutcome
where
    P: Protocol + Sync,
    P::Reg: Packable + Send + Sync,
{
    run_on_threads_gated(
        protocol,
        inputs,
        seed,
        max_steps_per_thread,
        &PackCodec,
        &FreeGate,
    )
}
