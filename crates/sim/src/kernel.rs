//! The paper's step (§2), written once: a possibly random choice of
//! operation, one atomic register read or write, and a possibly random state
//! transition. The [`Runner`](crate::Runner), `cil-serve`'s arena slots and
//! the thread runner all call [`step`]; each keeps only its own scheduling,
//! stop conditions and records.

use crate::protocol::{Choice, Op, Protocol, Val};
use crate::rng::Rng;
use crate::threads::{StepRecord, WordCodec};
use cil_registers::{HwRegisterFile, Pid, RegId, SharedMemory};
use std::fmt;

/// The atomic registers a step reads and writes: the simulator's
/// [`SharedMemory`], or a borrowed `(&HwRegisterFile, &codec)` pair whose
/// [`WordCodec`] hides the word encoding. Both panic when a protocol breaks
/// its declared access structure.
pub trait RegisterStore<R> {
    /// Reads register `reg` on behalf of processor `pid`.
    fn read(&mut self, pid: usize, reg: RegId) -> R;
    /// Writes `value` to register `reg` on behalf of processor `pid`.
    fn write(&mut self, pid: usize, reg: RegId, value: &R);
}

impl<R: Clone> RegisterStore<R> for SharedMemory<R> {
    fn read(&mut self, pid: usize, reg: RegId) -> R {
        SharedMemory::read(self, Pid(pid), reg)
            .expect("protocol read within its reader set")
            .clone()
    }
    fn write(&mut self, pid: usize, reg: RegId, value: &R) {
        SharedMemory::write(self, Pid(pid), reg, value.clone())
            .expect("protocol write to its own register");
    }
}

impl<R, C: WordCodec<R>> RegisterStore<R> for (&HwRegisterFile<R>, &C) {
    #[inline]
    fn read(&mut self, pid: usize, reg: RegId) -> R {
        let word = self.0.read_word(Pid(pid), reg);
        self.1
            .unpack(reg, word.expect("protocol read within its reader set"))
    }
    #[inline]
    fn write(&mut self, pid: usize, reg: RegId, value: &R) {
        self.0
            .write_word(Pid(pid), reg, self.1.pack(reg, value))
            .expect("protocol write within its own register and width");
    }
}

/// What one [`step`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepOutcome<R> {
    /// The register operation performed.
    pub op: Op<R>,
    /// The value read (`None` for a write).
    pub read: Option<R>,
    /// Branch count of the choose-stage coin, if one was flipped.
    pub choose_branches: Option<usize>,
    /// Branch count of the transit-stage coin, if one was flipped.
    pub transit_branches: Option<usize>,
    /// The processor's decision after the step, if any.
    pub decision: Option<Val>,
}

impl<R: fmt::Debug> StepOutcome<R> {
    /// The step of processor `pid` as gates and event streams see it: its
    /// value is the value written, or the value read.
    pub(crate) fn record(&self, pid: usize) -> StepRecord<'_> {
        StepRecord {
            pid,
            write: self.op.is_write(),
            reg: self.op.reg(),
            value: match (&self.op, &self.read) {
                (Op::Write(_, v), _) | (Op::Read(_), Some(v)) => v,
                (Op::Read(_), None) => &"?",
            },
            choose_branches: self.choose_branches,
            transit_branches: self.transit_branches,
            decision: self.decision,
        }
    }
}

/// Takes one step of processor `pid`: choose → sample → apply → transit →
/// sample, replacing `state` by the sampled next state.
///
/// `force(transit, branches)` is asked about every coin (a choice with more
/// than one branch; `transit` tells the transit-stage coin from the
/// choose-stage one): `Some(i)` takes branch `i` of [`Choice::branches`],
/// `None` samples from `rng`. Drivers that only sample pass `|_, _| None`.
#[inline]
pub fn step<P: Protocol>(
    protocol: &P,
    pid: usize,
    state: &mut P::State,
    store: &mut impl RegisterStore<P::Reg>,
    rng: &mut dyn Rng,
    mut force: impl FnMut(bool, usize) -> Option<usize>,
) -> StepOutcome<P::Reg> {
    let choice = protocol.choose(pid, state);
    let (op, choose_branches) = pick(&choice, |b| force(false, b), rng);
    let op = op.clone();
    let read = match &op {
        Op::Read(r) => Some(store.read(pid, *r)),
        Op::Write(r, v) => {
            store.write(pid, *r, v);
            None
        }
    };
    let transition = protocol.transit(pid, state, &op, read.as_ref());
    let (next, transit_branches) = pick(&transition, |b| force(true, b), rng);
    *state = next.clone();
    StepOutcome {
        op,
        read,
        choose_branches,
        transit_branches,
        decision: protocol.decision(state),
    }
}

/// Samples `choice`, or takes the branch `force` names, and returns it with
/// the coin's branch count if the choice is a coin.
#[inline]
fn pick<'c, T>(
    choice: &'c Choice<T>,
    force: impl FnOnce(usize) -> Option<usize>,
    rng: &mut dyn Rng,
) -> (&'c T, Option<usize>) {
    let branches = (!choice.is_det()).then(|| choice.branches().len());
    match branches.and_then(force) {
        Some(i) => (&choice.branches()[i].1, branches),
        None => (choice.sample(rng), branches),
    }
}
