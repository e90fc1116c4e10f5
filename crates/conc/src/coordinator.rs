//! The controlled scheduler: serializes native threads at register-op
//! granularity under a pluggable [`Strategy`].
//!
//! The coordinator implements [`cil_sim::ThreadGate`], so it plugs directly
//! into [`cil_sim::run_on_threads_gated`]'s yield points. Scheduling is
//! fully distributed over the protocol threads themselves (no extra
//! scheduler thread): a mutex-protected state machine tracks each thread as
//! *running*, *parked*, *granted*, or *retired*, and a dispatch is attempted
//! whenever a thread parks or retires. A step is only granted when **every**
//! live thread is parked, so the strategy always chooses from the complete
//! runnable set and at most one thread touches shared registers at a time —
//! this is what makes a run a deterministic function of `(seed, strategy)`
//! and lets a recorded schedule be replayed exactly.
//!
//! While serialized, each step appends its `cil-obs` events (grant, coins,
//! step, decision) in the same order the simulator's `Runner` emits them,
//! so the happens-before auditor consumes controlled native traces
//! unchanged.

use crate::strategy::Strategy;
use cil_obs::RunEvent;
use cil_sim::{StepRecord, ThreadGate};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Instant;

/// Per-thread wall-clock split of a controlled run: how long each thread
/// spent blocked at the gate waiting for a grant versus running (register
/// ops plus local compute between yield points). Real time — reproducible
/// in shape, never in value.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ThreadTimes {
    /// Nanoseconds each thread spent parked at the gate.
    pub gate_wait_ns: Vec<u64>,
    /// Nanoseconds each thread spent off the gate (granted or computing).
    pub run_ns: Vec<u64>,
}

/// Wall-clock bookkeeping while the run is live (all updates happen under
/// the scheduler mutex, so plain integers suffice).
struct TimingState {
    epoch: Instant,
    times: ThreadTimes,
    /// ns-since-epoch when each thread last left the gate (`Some(0)` at
    /// start: pre-first-park compute counts as running).
    resumed_at: Vec<Option<u64>>,
    /// ns-since-epoch when each thread parked, while it waits.
    parked_at: Vec<Option<u64>>,
}

impl TimingState {
    fn new(threads: usize) -> Self {
        TimingState {
            epoch: Instant::now(),
            times: ThreadTimes {
                gate_wait_ns: vec![0; threads],
                run_ns: vec![0; threads],
            },
            resumed_at: vec![Some(0); threads],
            parked_at: vec![None; threads],
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The thread stops running (parks or retires).
    fn note_stopped(&mut self, pid: usize) {
        let now = self.now();
        if let Some(at) = self.resumed_at[pid].take() {
            self.times.run_ns[pid] += now.saturating_sub(at);
        }
        self.parked_at[pid] = Some(now);
    }

    /// The thread leaves the gate (granted, or bailing out on halt).
    fn note_resumed(&mut self, pid: usize) {
        let now = self.now();
        if let Some(at) = self.parked_at[pid].take() {
            self.times.gate_wait_ns[pid] += now.saturating_sub(at);
        }
        self.resumed_at[pid] = Some(now);
    }
}

/// Why a controlled run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConcHalt {
    /// Every thread decided.
    Done,
    /// The global step budget was exhausted.
    Budget,
    /// The strategy declined to schedule (strict replay diverged or ran out
    /// of schedule).
    ScheduleEnded,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Between yield points (initially, or after a grant was used).
    Running,
    /// Waiting at a yield point for a grant.
    Parked,
    /// Allowed to take the next step.
    Granted,
    /// Will take no further steps.
    Retired,
}

struct SchedState {
    status: Vec<Status>,
    strategy: Box<dyn Strategy>,
    /// Completed steps (also the index of the next step).
    step: u64,
    budget: u64,
    /// Set once the run aborts; retains the reason for [`Coordinator::finish`].
    halt: Option<ConcHalt>,
    schedule: Vec<usize>,
    events: Option<Vec<RunEvent>>,
    timing: Option<TimingState>,
}

/// A [`ThreadGate`] that serializes steps under a [`Strategy`], records the
/// schedule, and optionally captures `cil-obs` events.
pub struct Coordinator {
    state: Mutex<SchedState>,
    cv: Condvar,
}

impl Coordinator {
    /// A coordinator for `threads` threads, stopping after `budget` total
    /// steps. With `capture`, every step's events are recorded for JSONL
    /// export and auditing.
    pub fn new(threads: usize, budget: u64, strategy: Box<dyn Strategy>, capture: bool) -> Self {
        Coordinator {
            state: Mutex::new(SchedState {
                status: vec![Status::Running; threads],
                strategy,
                step: 0,
                budget,
                halt: None,
                schedule: Vec::new(),
                events: capture.then(Vec::new),
                timing: None,
            }),
            cv: Condvar::new(),
        }
    }

    /// Enables per-thread gate-wait/run wall-clock accounting (see
    /// [`ThreadTimes`]). Call before any protocol thread starts.
    pub fn with_timing(self, yes: bool) -> Self {
        if yes {
            let mut st = self.lock();
            let threads = st.status.len();
            st.timing = Some(TimingState::new(threads));
            drop(st);
        }
        self
    }

    /// Consumes the coordinator after all threads joined, yielding the halt
    /// reason, the executed schedule (one pid per step, in order), the
    /// captured events (empty unless capturing), and the per-thread timing
    /// split (if [`with_timing`](Coordinator::with_timing) was enabled).
    pub fn finish(self) -> (ConcHalt, Vec<usize>, Vec<RunEvent>, Option<ThreadTimes>) {
        let st = self
            .state
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        (
            st.halt.unwrap_or(ConcHalt::Done),
            st.schedule,
            st.events.unwrap_or_default(),
            st.timing.map(|t| t.times),
        )
    }

    /// Attempts to grant the next step. Called whenever a thread parks or
    /// retires; a no-op unless *every* live thread is parked (so the
    /// strategy always sees the complete runnable set) and no grant is
    /// outstanding.
    fn try_dispatch(st: &mut SchedState, cv: &Condvar) {
        if st.halt.is_some() {
            cv.notify_all();
            return;
        }
        if st
            .status
            .iter()
            .any(|s| matches!(s, Status::Granted | Status::Running))
        {
            return;
        }
        let runnable: Vec<usize> = st
            .status
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == Status::Parked)
            .map(|(pid, _)| pid)
            .collect();
        if runnable.is_empty() {
            // Everyone retired; joining threads need no wake-up.
            return;
        }
        if st.step >= st.budget {
            st.halt = Some(ConcHalt::Budget);
            cv.notify_all();
            return;
        }
        match st.strategy.next(&runnable, st.step) {
            Some(pid) => {
                debug_assert!(
                    runnable.contains(&pid),
                    "strategy scheduled non-runnable thread {pid}"
                );
                if let Some(events) = st.events.as_mut() {
                    events.push(RunEvent::Grant {
                        index: st.step,
                        pid,
                        runnable: runnable.len(),
                    });
                }
                st.status[pid] = Status::Granted;
                cv.notify_all();
            }
            None => {
                st.halt = Some(ConcHalt::ScheduleEnded);
                cv.notify_all();
            }
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SchedState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl ThreadGate for Coordinator {
    fn coin_branch(&self, pid: usize, transit: bool, branches: usize) -> Option<usize> {
        let mut st = self.lock();
        st.strategy.coin(pid, transit, branches)
    }

    fn acquire(&self, pid: usize) -> bool {
        let mut st = self.lock();
        if let Some(t) = st.timing.as_mut() {
            t.note_stopped(pid);
        }
        if st.halt.is_some() {
            if let Some(t) = st.timing.as_mut() {
                t.note_resumed(pid);
            }
            return false;
        }
        st.status[pid] = Status::Parked;
        Self::try_dispatch(&mut st, &self.cv);
        loop {
            if st.status[pid] == Status::Granted || st.halt.is_some() {
                let granted = st.status[pid] == Status::Granted;
                if let Some(t) = st.timing.as_mut() {
                    t.note_resumed(pid);
                }
                return granted;
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn release(&self, record: StepRecord<'_>) {
        let mut st = self.lock();
        debug_assert_eq!(st.status[record.pid], Status::Granted);
        st.status[record.pid] = Status::Running;
        st.strategy.observe(record.pid, record.reg.0, record.write);
        let index = st.step;
        if let Some(events) = st.events.as_mut() {
            record.emit_events(index, |e| events.push(e));
        }
        st.schedule.push(record.pid);
        st.step += 1;
        // No dispatch here: the next grant happens when this thread parks
        // again or retires, so between a release and the releasing thread's
        // next yield point nothing else runs — exactly one step in flight.
    }

    fn retire(&self, pid: usize) {
        let mut st = self.lock();
        if let Some(t) = st.timing.as_mut() {
            t.note_stopped(pid);
            t.parked_at[pid] = None; // retiring, not waiting
        }
        st.status[pid] = Status::Retired;
        Self::try_dispatch(&mut st, &self.cv);
    }
}
