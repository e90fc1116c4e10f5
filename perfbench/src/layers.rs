//! The traced run: per-layer metrics of every workload.
//!
//! Entry points are timed directly (`ServeEngine::run`,
//! `InstanceSlot::begin`/`step_batch`, `TrialSweep::run`, `Runner::run`,
//! `CompactMdp::build`/`survival`, `explore_timed_with_codec`); calls into
//! `Protocol`, `WordCodec` and `Adversary` are timed through
//! [`Traced`](crate::spans::Traced) wrappers, which count them and place
//! them in the span tree. Costs an engine pays inside its own loop
//! (register load/store/reset, the RNG draw) come from replaying the same
//! instances through `HwRegisterFile` or `SharedMemory` and
//! `Choice::sample`. Every traced pass and every replay must reproduce the
//! untraced digest; a mismatch fails the run.
//!
//! Calls of a few nanoseconds are shorter than one clock read, so their
//! cost is measured by re-issuing the replay's logged calls back to back
//! ([`per_call`]); a parent's self time is its span time, with the
//! calibrated recording cost removed ([`Calibration`]), minus its children's
//! call counts times those costs. Span trees and every per-layer figure
//! (as a `perfbench.<metric>.milli` gauge, value × 1000) are written to
//! `out/trace.json` next to this crate's manifest as a `cil-obs` metrics
//! snapshot, which `cil report` reads.

use crate::spans::{self, by_name, take, under, Calibration, NameStat, Span, Traced};
use crate::workloads::{
    self, batch_seed, curve_ok, dpor_config, hist_quantile, inputs_ab, median, nproc, quantile,
    DPOR_DEPTH, DPOR_DIGEST, DPOR_EXECUTIONS, EXACT_CLASSES, EXACT_DEPTH, EXACT_KMAX, SWEEP_N,
};
use crate::{json_num, Args, Outcome};
use cil_conc::{explore, explore_timed_with_codec, DporTiming};
use cil_core::n_unbounded::NUnbounded;
use cil_core::two::TwoProcessor;
use cil_mc::{CompactMdp, CompactOptions};
use cil_obs::{LogHistogram, Registry};
use cil_registers::{HwRegisterFile, Pid, RegId, SharedMemory};
use cil_serve::{
    InstanceSlot, ServeEngine, ServeLimit, DEFAULT_BATCH, DEFAULT_MAX_STEPS, DEFAULT_SLOTS,
};
use cil_sim::{
    Adversary, Choice, Halt, Op, PackCodec, Protocol, Rng, RunOutcome, Runner, SplitKeeper,
    SplitMix64, SweepStats, Trial, TrialResult, TrialSweep, Val, View, WordCodec,
    Xoshiro256StarStar,
};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

/// Instances of each traced `serve-two` pass.
const SERVE_TRACE_INSTANCES: u64 = 16_384;
/// Instances per engine run of the shard-scaling curve.
const SCALING_INSTANCES: u64 = 300_000;
/// Trials of each traced `sweep-adaptive` pass.
const SWEEP_TRACE_TRIALS: u64 = 64;
/// Calls per thread of the clock and histogram probes.
const MICRO_CALLS: u64 = 1_000_000;

/// Per-layer figures plus the spans folded so far.
struct Trace {
    out: Outcome,
    cal: Calibration,
    registry: Registry,
}

impl Trace {
    fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.out.metric(name, value, unit);
        self.registry
            .gauge(&format!("perfbench.{name}.milli"))
            .set((value * 1e3).max(0.0) as u64);
    }

    fn fold(&self, spans: &[Span]) {
        self.registry.merge_spans(&spans::tree(spans));
    }

    fn digest_check(&mut self, what: &str, got: &SweepStats, want: &SweepStats) {
        self.out.check(got.digest() == want.digest(), || {
            format!("{what}: digest differs from the untraced run")
        });
    }
}

fn wall<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_nanos() as f64)
}

pub fn run(args: &Args) -> Outcome {
    let cal = spans::calibrate();
    let mut t = Trace {
        out: Outcome::default(),
        cal,
        registry: Registry::new(),
    };
    t.layer("trace.clock_ns", cal.clock_ns, "ns");
    t.out.detail("trace.span_floor_ns", json_num(cal.floor_ns));
    t.out.detail("trace.span_cost_ns", json_num(cal.span_ns));
    serve_layers(&mut t, args.seed);
    sweep_layers(&mut t, args.seed);
    exact_layers(&mut t);
    dpor_layers(&mut t);
    obs_layers(&mut t);

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join("trace.json"), t.registry.snapshot().to_json()));
    match written {
        Ok(()) => t.out.detail(
            "trace_file",
            crate::json_str(&dir.join("trace.json").display().to_string()),
        ),
        Err(e) => eprintln!("could not write the trace snapshot: {e}"),
    }
    t.out
}

// ---------------------------------------------------------------- serve

fn serve_engine<'a, P: Protocol + Sync, C: WordCodec<P::Reg>>(
    p: &'a P,
    codec: &'a C,
    inputs: &[Val],
    instances: u64,
    seed: u64,
    shards: usize,
) -> ServeEngine<'a, P, C>
where
    P::State: Send,
{
    ServeEngine::new(p, codec, inputs, ServeLimit::Instances(instances))
        .root_seed(seed)
        .shards(shards)
}

/// What a slot pass measured.
struct SlotPass {
    stats: SweepStats,
    /// Admission to finish minus the instance's own begin and stepping time.
    waits: Vec<u64>,
}

/// Drives `InstanceSlot`s the way a serve shard does (64 resident per
/// shard, closed loop, chunked admission from a shared cursor), timing
/// `begin` and `step_batch` and each instance's wait.
fn slot_pass<P, C>(p: &P, codec: &C, inputs: &[Val], n: u64, seed: u64, shards: usize) -> SlotPass
where
    P: Protocol + Sync,
    P::State: Send,
    C: WordCodec<P::Reg>,
{
    let cursor = AtomicU64::new(0);
    let parts: Vec<(SweepStats, Vec<u64>)> = spans::root("serve.slots", || {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..shards)
                .map(|_| scope.spawn(|| slot_shard(p, codec, inputs, n, seed, &cursor)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("slot shard panicked"))
                .collect()
        })
    });
    let mut stats = SweepStats::new(8);
    let mut waits = Vec::new();
    for (s, w) in parts {
        stats.merge(s);
        waits.extend(w);
    }
    waits.sort_unstable();
    SlotPass { stats, waits }
}

/// One shard of [`slot_pass`]: its stats and its instances' waits.
fn slot_shard<P, C>(
    p: &P,
    codec: &C,
    inputs: &[Val],
    n: u64,
    seed: u64,
    cursor: &AtomicU64,
) -> (SweepStats, Vec<u64>)
where
    P: Protocol,
    C: WordCodec<P::Reg>,
{
    const CHUNK: u64 = 64;
    // Each slot with its instance's admission time and own busy time.
    let mut slots: Vec<_> = (0..DEFAULT_SLOTS)
        .map(|_| {
            (
                InstanceSlot::new(p, codec, inputs, DEFAULT_MAX_STEPS),
                0u64,
                0u64,
            )
        })
        .collect();
    let mut stats = SweepStats::new(8);
    let mut waits = Vec::new();
    let mut pending = 0..0;
    let mut active = 0usize;
    loop {
        for (slot, admitted, own) in &mut slots {
            if !slot.busy() {
                if pending.is_empty() {
                    let start = cursor.fetch_add(CHUNK, Ordering::Relaxed);
                    if start < n {
                        pending = start..(start + CHUNK).min(n);
                    }
                }
                let Some(index) = pending.next() else {
                    continue;
                };
                *admitted = spans::now_ns();
                spans::span("serve.begin", || slot.begin(trial_at(seed, index)));
                *own = spans::now_ns() - *admitted;
                active += 1;
            }
            let t0 = spans::now_ns();
            let done = spans::span("serve.step_batch", || slot.step_batch(DEFAULT_BATCH));
            let t1 = spans::now_ns();
            *own += t1 - t0;
            if let Some(done) = done {
                active -= 1;
                waits.push((t1 - *admitted).saturating_sub(*own));
                stats.absorb(done.index, done.result);
            }
        }
        if active == 0 && pending.is_empty() && cursor.load(Ordering::Relaxed) >= n {
            return (stats, waits);
        }
    }
}

/// A register frame the replay can step against.
trait Frame<R> {
    fn reset(&mut self);
    fn load(&mut self, pid: usize, reg: RegId) -> R;
    fn store(&mut self, pid: usize, reg: RegId, value: &R);
}

/// `cil-serve`'s frame: atomic cells behind a word codec.
struct HwFrame<'a, R, C> {
    file: HwRegisterFile<R>,
    codec: &'a C,
}

impl<R, C: WordCodec<R>> Frame<R> for HwFrame<'_, R, C> {
    fn reset(&mut self) {
        self.file.reset();
    }
    fn load(&mut self, pid: usize, reg: RegId) -> R {
        let word = self
            .file
            .read_word(Pid(pid), reg)
            .expect("protocol read within its reader set");
        self.codec.unpack(reg, word)
    }
    fn store(&mut self, pid: usize, reg: RegId, value: &R) {
        self.file
            .write_word(Pid(pid), reg, self.codec.pack(reg, value))
            .expect("protocol write to its own register");
    }
}

/// The simulator's frame: a fresh `SharedMemory` per run, as `Runner` has.
struct SimFrame<R> {
    memory: SharedMemory<R>,
    specs: Vec<cil_registers::RegisterSpec<R>>,
}

impl<R: Clone> Frame<R> for SimFrame<R> {
    fn reset(&mut self) {
        self.memory =
            SharedMemory::new(self.specs.clone()).expect("protocol register specs are valid");
    }
    fn load(&mut self, pid: usize, reg: RegId) -> R {
        self.memory
            .read(Pid(pid), reg)
            .expect("protocol read within its reader set")
            .clone()
    }
    fn store(&mut self, pid: usize, reg: RegId, value: &R) {
        self.memory
            .write(Pid(pid), reg, value.clone())
            .expect("protocol write to its own register");
    }
}

/// One replayed step: the arguments and results of every call it made.
struct Step<P: Protocol> {
    pid: usize,
    state: P::State,
    choice: Choice<Op<P::Reg>>,
    op: Op<P::Reg>,
    read: Option<P::Reg>,
    transition: Choice<P::State>,
}

/// Steps kept for the per-call timings: few enough that the log stays in
/// cache, so the timings measure the calls rather than the log.
const LOG_STEPS: usize = 4_096;
/// Calls per pass of a per-call timing.
const PASS_CALLS: usize = 1 << 20;

/// Replays instance `trial` of an engine: the same stop checks, pick,
/// choose → sample → apply → transit → sample sequence, logging each step.
/// `pick` chooses among the undecided processors.
fn replay_one<P: Protocol, F: Frame<P::Reg>>(
    p: &P,
    inputs: &[Val],
    frame: &mut F,
    trial: Trial,
    log: &mut Vec<Step<P>>,
    mut pick: impl FnMut(&P, &[P::State], &[u64], u64, &F) -> usize,
) -> TrialResult {
    frame.reset();
    let n = p.processes();
    let mut rng = Xoshiro256StarStar::new(trial.seed);
    let mut states: Vec<P::State> = (0..n).map(|pid| p.init(pid, inputs[pid])).collect();
    let mut steps = vec![0u64; n];
    let mut total = 0u64;
    let halt = loop {
        if states.iter().all(|s| p.decision(s).is_some()) {
            break Halt::Done;
        }
        if total >= DEFAULT_MAX_STEPS {
            break Halt::MaxSteps;
        }
        let pid = pick(p, &states, &steps, total, frame);
        let choice = p.choose(pid, &states[pid]);
        let op = choice.sample(&mut rng).clone();
        let read = match &op {
            Op::Read(r) => Some(frame.load(pid, *r)),
            Op::Write(r, v) => {
                frame.store(pid, *r, v);
                None
            }
        };
        let transition = p.transit(pid, &states[pid], &op, read.as_ref());
        let next = transition.sample(&mut rng).clone();
        if log.len() < LOG_STEPS {
            log.push(Step {
                pid,
                state: states[pid].clone(),
                choice,
                op,
                read,
                transition,
            });
        }
        states[pid] = next;
        steps[pid] += 1;
        total += 1;
    };
    TrialResult::from_run(&RunOutcome::<P> {
        inputs: inputs.to_vec(),
        decisions: states.iter().map(|s| p.decision(s)).collect(),
        steps,
        total_steps: total,
        crashed: vec![false; n],
        final_regs: Vec::new(),
        final_states: states,
        halt,
        trace: None,
    })
}

fn trial_at(seed: u64, index: u64) -> Trial {
    Trial {
        index,
        seed: SplitMix64::jump(seed, index).next_u64(),
    }
}

/// Mean wall time of one `f(i)`, cycling `i` over `0..n`: median of five
/// passes of about [`PASS_CALLS`] calls. Calls too short to time one by
/// one are timed back to back instead.
fn per_call(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let rounds = (PASS_CALLS / n.max(1)).max(1);
    let passes: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..rounds {
                for i in 0..n {
                    f(i);
                }
            }
            t.elapsed().as_nanos() as f64 / (rounds * n).max(1) as f64
        })
        .collect();
    median(&passes)
}

/// Per-call cost of the protocol's methods and of the RNG draw, over the
/// logged calls.
struct CoreCosts {
    choose: f64,
    transit: f64,
    decision: f64,
    sample: f64,
}

fn core_costs<P: Protocol>(p: &P, log: &[Step<P>]) -> CoreCosts {
    let mut rng = Xoshiro256StarStar::new(1);
    CoreCosts {
        choose: per_call(log.len(), |i| {
            black_box(p.choose(log[i].pid, &log[i].state));
        }),
        transit: per_call(log.len(), |i| {
            let s = &log[i];
            black_box(p.transit(s.pid, &s.state, &s.op, s.read.as_ref()));
        }),
        decision: per_call(log.len(), |i| {
            black_box(p.decision(&log[i].state));
        }),
        sample: per_call(2 * log.len(), |i| {
            let s = &log[i / 2];
            if i % 2 == 0 {
                black_box(s.choice.sample(&mut rng));
            } else {
                black_box(s.transition.sample(&mut rng));
            }
        }),
    }
}

/// Calls of each core method made under `parent` (all calls when `None`),
/// from the wrapped pass.
struct CoreCalls {
    choose: u64,
    transit: u64,
    decision: u64,
}

impl CoreCalls {
    fn under(spans: &[Span], parent: &str) -> Self {
        CoreCalls {
            choose: under(spans, parent, "core.choose").count,
            transit: under(spans, parent, "core.transit").count,
            decision: under(spans, parent, "core.decision").count,
        }
    }

    fn all(names: &HashMap<&'static str, NameStat>) -> Self {
        let count = |k: &str| names.get(k).map_or(0, |s| s.count);
        CoreCalls {
            choose: count("core.choose"),
            transit: count("core.transit"),
            decision: count("core.decision"),
        }
    }

    fn ns(&self, c: &CoreCosts) -> f64 {
        self.choose as f64 * c.choose
            + self.transit as f64 * c.transit
            + self.decision as f64 * c.decision
    }
}

fn core_layers(t: &mut Trace, costs: &CoreCosts, calls: &CoreCalls, steps: f64, w: &str) {
    t.layer(&format!("core.choose_ns.{w}"), costs.choose, "ns");
    t.layer(&format!("core.transit_ns.{w}"), costs.transit, "ns");
    t.layer(&format!("core.decision_ns.{w}"), costs.decision, "ns");
    t.layer(
        &format!("core.calls_per_step.{w}"),
        (calls.choose + calls.transit + calls.decision) as f64 / steps,
        "count",
    );
    t.layer(&format!("sim.sample_ns.{w}"), costs.sample, "ns");
}

fn serve_layers(t: &mut Trace, seed: u64) {
    let p = TwoProcessor::new();
    let inputs = inputs_ab(2);
    let shards = nproc();
    let n = SERVE_TRACE_INSTANCES;

    // Untraced engine: the digest every pass must reproduce.
    let mut plain_walls = Vec::new();
    let mut plain = None;
    for _ in 0..3 {
        let (r, ns) = wall(|| serve_engine(&p, &PackCodec, &inputs, n, seed, shards).run());
        plain_walls.push(ns);
        plain = Some(r);
    }
    let plain = plain.expect("three runs");
    let steps = plain.stats.metric_sum as f64;
    let (traced, traced_ns) = wall(|| {
        spans::root("serve.run", || {
            serve_engine(&Traced(p), &Traced(PackCodec), &inputs, n, seed, shards).run()
        })
    });
    t.digest_check("serve-two traced engine", &traced.stats, &plain.stats);
    t.layer(
        "trace.overhead_ratio.serve-two",
        traced_ns / median(&plain_walls),
        "ratio",
    );
    t.fold(&take());

    // Entry points only: begin, step_batch and the waits.
    let bare = slot_pass(&p, &PackCodec, &inputs, n, seed, shards);
    t.digest_check("serve-two slot pass", &bare.stats, &plain.stats);
    let spans_e = take();
    let names = by_name(&spans_e);
    let step_batch_ns = t.cal.total(names["serve.step_batch"]);
    t.layer("serve.begin_ns", t.cal.mean(names["serve.begin"]), "ns");
    t.layer(
        "serve.steps_per_decision",
        steps / plain.stats.decided.max(1) as f64,
        "count",
    );
    t.layer("serve.wait_ns_p99", quantile(&bare.waits, 0.99), "ns");
    t.out
        .detail("serve.wait_ns_p50", json_num(quantile(&bare.waits, 0.5)));
    t.out.detail(
        "serve.step_batch_ns_per_step",
        json_num(step_batch_ns / steps),
    );
    t.fold(&spans_e);

    // Wrapped protocol and codec: which calls step_batch makes.
    let wrapped = slot_pass(&Traced(p), &Traced(PackCodec), &inputs, n, seed, shards);
    t.digest_check("serve-two traced slot pass", &wrapped.stats, &plain.stats);
    let spans_w = take();
    let in_batch = CoreCalls::under(&spans_w, "serve.step_batch");
    let codec_calls = under(&spans_w, "serve.step_batch", "sim.codec").count;
    let all_calls = CoreCalls::all(&by_name(&spans_w));
    t.fold(&spans_w);

    // Engine internals replayed; the logged calls give per-call costs.
    let mut frame = HwFrame {
        file: HwRegisterFile::with_packer(p.registers(), |r, v| PackCodec.pack(r, v))
            .expect("protocol register specs are valid"),
        codec: &PackCodec,
    };
    let mut replay = SweepStats::new(8);
    let mut log = Vec::new();
    spans::root("serve.replay", || {
        for index in 0..n {
            let mut rr = 0usize;
            let result = replay_one(
                &p,
                &inputs,
                &mut frame,
                trial_at(seed, index),
                &mut log,
                |p, states, _, _, _| {
                    let n = states.len();
                    (0..n)
                        .map(|_| {
                            let c = rr % n;
                            rr = (c + 1) % n;
                            c
                        })
                        .find(|&c| p.decision(&states[c]).is_none())
                        .expect("an undecided processor exists")
                },
            );
            replay.absorb(index, result);
        }
    });
    t.digest_check("serve-two register replay", &replay, &plain.stats);
    t.fold(&take());

    let costs = core_costs(&p, &log);
    let words: Vec<u64> = log
        .iter()
        .map(|s| {
            let value =
                s.op.write_value()
                    .or(s.read.as_ref())
                    .expect("reads log their value");
            PackCodec.pack(s.op.reg(), value)
        })
        .collect();
    let codec_ns = per_call(log.len(), |i| match &log[i].op {
        Op::Write(r, v) => {
            black_box(WordCodec::pack(&PackCodec, *r, v));
        }
        Op::Read(r) => {
            black_box(WordCodec::<<TwoProcessor as Protocol>::Reg>::unpack(
                &PackCodec, *r, words[i],
            ));
        }
    });
    let file = &mut frame.file;
    let (reads, writes): (Vec<usize>, Vec<usize>) =
        (0..log.len()).partition(|&i| !log[i].op.is_write());
    let load = per_call(reads.len(), |k| {
        let s = &log[reads[k]];
        black_box(file.read_word(Pid(s.pid), s.op.reg())).expect("logged read is allowed");
    });
    let store = per_call(writes.len(), |k| {
        let i = writes[k];
        black_box(file.write_word(Pid(log[i].pid), log[i].op.reg(), words[i]))
            .expect("logged write is allowed");
    });
    let reset = per_call(1, |_| file.reset());
    t.layer("registers.hw_load_ns", load, "ns");
    t.layer("registers.hw_store_ns", store, "ns");
    t.layer("registers.hw_reset_ns", reset, "ns");
    t.layer("sim.codec_ns", codec_ns, "ns");
    core_layers(t, &costs, &all_calls, steps, "serve-two");
    let children = in_batch.ns(&costs) + codec_calls as f64 * codec_ns;
    t.layer(
        "serve.self_ns_per_step",
        ((step_batch_ns - children) / steps).max(0.0),
        "ns",
    );

    // Shard scaling: decisions/sec at 1..=nproc shards.
    let mut rates = Vec::new();
    for s in 1..=shards {
        let runs: Vec<f64> = (0..3)
            .map(|r| {
                serve_engine(
                    &p,
                    &PackCodec,
                    &inputs,
                    SCALING_INSTANCES,
                    batch_seed(seed, r),
                    s,
                )
                .run()
                .decisions_per_sec()
            })
            .collect();
        rates.push(median(&runs));
    }
    t.layer("serve.shard_speedup", rates[shards - 1] / rates[0], "ratio");
    let curve: Vec<String> = rates.iter().map(|r| json_num(*r)).collect();
    t.out.detail(
        "serve.decisions_per_s_by_shards",
        format!("[{}]", curve.join(", ")),
    );
}

// ---------------------------------------------------------------- sweep

fn sweep_layers(t: &mut Trace, seed: u64) {
    let p = NUnbounded::new(SWEEP_N);
    let inputs = inputs_ab(SWEEP_N);
    let jobs = nproc();
    let n = SWEEP_TRACE_TRIALS;
    let sweep = || TrialSweep::new(n).root_seed(seed).jobs(jobs);

    let mut plain_walls = Vec::new();
    let mut plain = None;
    for _ in 0..3 {
        let (s, ns) = wall(|| {
            sweep().run(|tr| {
                TrialResult::from_run(
                    &Runner::new(&p, &inputs, SplitKeeper::new())
                        .seed(tr.seed)
                        .run(),
                )
            })
        });
        plain_walls.push(ns);
        plain = Some(s);
    }
    let plain = plain.expect("three runs");
    let steps = plain.metric_sum as f64;

    // Entry points: TrialSweep::run, each Runner::run and each pick.
    let (timed, sweep_ns) = wall(|| {
        spans::root("sim.sweep", || {
            sweep().run(|tr| {
                spans::span("sim.run", || {
                    TrialResult::from_run(
                        &Runner::new(&p, &inputs, Traced(SplitKeeper::new()))
                            .seed(tr.seed)
                            .run(),
                    )
                })
            })
        })
    });
    t.digest_check("sweep-adaptive timed sweep", &timed, &plain);
    let spans_e = take();
    let names = by_name(&spans_e);
    let (run, pick) = (names["sim.run"], names["sim.pick"]);
    // A pick span adds its whole recording cost to the run around it.
    let run_ns = t.cal.total(run) - pick.count as f64 * t.cal.span_ns;
    let pick_ns = t.cal.total(pick);
    t.layer("sim.run_ns_per_step", run_ns / steps, "ns");
    t.layer("sim.pick_ns", pick_ns / pick.count.max(1) as f64, "ns");
    t.layer("sim.steps_per_trial", steps / plain.trials as f64, "count");
    t.layer(
        "sim.sweep_efficiency",
        run.total_ns as f64 / (jobs as f64 * sweep_ns),
        "ratio",
    );
    t.fold(&spans_e);

    // Wrapped protocol and adversary: which calls Runner makes.
    let tp = Traced(p);
    let (wrapped, wrapped_ns) = wall(|| {
        spans::root("sim.sweep", || {
            sweep().run(|tr| {
                spans::span("sim.run", || {
                    TrialResult::from_run(
                        &Runner::new(&tp, &inputs, Traced(SplitKeeper::new()))
                            .seed(tr.seed)
                            .run(),
                    )
                })
            })
        })
    });
    t.digest_check("sweep-adaptive traced sweep", &wrapped, &plain);
    t.layer(
        "trace.overhead_ratio.sweep-adaptive",
        wrapped_ns / median(&plain_walls),
        "ratio",
    );
    let spans_w = take();
    let in_run = CoreCalls::under(&spans_w, "sim.run");
    let all_calls = CoreCalls::all(&by_name(&spans_w));
    t.fold(&spans_w);

    // Replay through SharedMemory, View and SplitKeeper for the logged calls.
    let specs = p.registers();
    let mut frame = SimFrame {
        memory: SharedMemory::new(specs.clone()).expect("protocol register specs are valid"),
        specs,
    };
    let mut replay = SweepStats::new(8);
    let mut log = Vec::new();
    spans::root("sim.replay", || {
        for index in 0..n {
            let mut adversary = SplitKeeper::new();
            let result = replay_one(
                &p,
                &inputs,
                &mut frame,
                trial_at(seed, index),
                &mut log,
                |p, states, steps, total, f| {
                    let crashed = vec![false; states.len()];
                    adversary.pick(&View {
                        protocol: p,
                        states,
                        regs: f.memory.snapshot(),
                        steps,
                        crashed: &crashed,
                        total_steps: total,
                    })
                },
            );
            replay.absorb(index, result);
        }
    });
    t.digest_check("sweep-adaptive replay", &replay, &plain);
    t.fold(&take());

    let costs = core_costs(&p, &log);
    core_layers(t, &costs, &all_calls, steps, "sweep-adaptive");
    let runner_self = run_ns - pick_ns - in_run.ns(&costs);
    t.layer(
        "sim.runner_self_ns_per_step",
        (runner_self / steps).max(0.0),
        "ns",
    );
}

// ---------------------------------------------------------------- exact

fn exact_layers(t: &mut Trace) {
    let (plain, plain_ns) = wall(|| workloads::exact_query(EXACT_DEPTH));
    let (traced, traced_ns) = wall(|| {
        spans::root("mc.query", || {
            let p = NUnbounded::three();
            let opts = CompactOptions {
                max_depth: Some(EXACT_DEPTH),
                target: Some(0),
                ..CompactOptions::default()
            };
            let mdp = spans::span("mc.build", || {
                CompactMdp::build(&p, &[Val::A, Val::B, Val::A], &opts)
            })?;
            let curve = spans::span("mc.survival", || {
                mdp.survival(0, EXACT_KMAX, 1e-13, 200_000, nproc())
            });
            Ok::<_, String>((mdp, curve))
        })
    });
    let (Ok((plain_mdp, plain_curve, _, _)), Ok((mdp, curve))) = (plain, traced) else {
        t.out.check(false, || "exact-fig2: a query failed".into());
        return;
    };
    t.out.check(
        mdp.size() == EXACT_CLASSES
            && plain_mdp.size() == EXACT_CLASSES
            && curve == plain_curve
            && curve_ok(&curve),
        || "exact-fig2: traced query differs from the untraced one".into(),
    );
    t.layer(
        "trace.overhead_ratio.exact-fig2",
        traced_ns / plain_ns,
        "ratio",
    );
    let spans_e = take();
    let names = by_name(&spans_e);
    let stats = *mdp.stats();
    t.layer("mc.classes", stats.classes as f64, "count");
    t.layer("mc.transitions", stats.transitions as f64, "count");
    t.layer(
        "mc.dedup_share",
        stats.dedup_hits as f64 / (stats.dedup_hits as f64 + stats.classes as f64),
        "ratio",
    );
    t.layer(
        "mc.build_ns_per_class",
        names["mc.build"].total_ns as f64 / stats.classes as f64,
        "ns",
    );
    t.layer(
        "mc.solve_ns_per_transition_layer",
        names["mc.survival"].total_ns as f64 / (stats.transitions as f64 * (EXACT_KMAX + 1) as f64),
        "ns",
    );
    mdp.export_metrics(&t.registry);
    t.fold(&spans_e);
}

// ---------------------------------------------------------------- dpor

fn dpor_layers(t: &mut Trace) {
    let p = TwoProcessor::new();
    let inputs = inputs_ab(2);
    let cfg = dpor_config(DPOR_DEPTH);
    let (plain, plain_ns) = wall(|| explore(&p, &inputs, &cfg, None));
    let timing = DporTiming::new(&t.registry, "conc.dpor");
    let (report, traced_ns) = wall(|| {
        spans::root("conc.explore", || {
            explore_timed_with_codec(&p, &inputs, &PackCodec, &cfg, None, Some(&timing))
        })
    });
    t.out.check(
        report.digest == plain.digest
            && report.executions == plain.executions
            && report.digest == DPOR_DIGEST
            && report.executions == DPOR_EXECUTIONS
            && report.violations == 0,
        || {
            format!(
                "dpor-two: traced digest {:016x} / untraced {:016x}",
                report.digest, plain.digest
            )
        },
    );
    t.layer(
        "trace.overhead_ratio.dpor-two",
        traced_ns / plain_ns,
        "ratio",
    );
    let execs = report.executions as f64;
    t.layer("conc.executions", execs, "count");
    t.layer(
        "conc.steps_per_execution",
        report.steps_total as f64 / execs,
        "count",
    );
    t.layer(
        "conc.complete_share",
        report.complete as f64 / execs,
        "ratio",
    );
    t.layer(
        "conc.sleep_blocked_share",
        report.sleep_blocked as f64 / execs,
        "ratio",
    );
    let snap = t.registry.snapshot();
    let hist = |name: &str| {
        snap.log_histogram(&format!("conc.dpor.{name}"))
            .cloned()
            .expect("the timing sink registers its histograms")
    };
    let exec = hist("exec_ns");
    t.layer("conc.exec_ns_p50", hist_quantile(&exec, 0.5), "ns");
    t.layer("conc.exec_ns_p99", hist_quantile(&exec, 0.99), "ns");
    for name in ["gate_wait_ns", "run_ns"] {
        let h = hist(name);
        t.layer(
            &format!("conc.{name}"),
            h.sum as f64 / h.count().max(1) as f64,
            "ns",
        );
    }
    t.fold(&take());
}

// ---------------------------------------------------------------- obs

/// Latency-like values for the histogram probes.
fn sample_values(seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    (0..4096).map(|_| 150 + rng.next_u64() % 40_000).collect()
}

fn observe_ns(h: &LogHistogram, values: &[u64]) -> f64 {
    let t = Instant::now();
    for i in 0..MICRO_CALLS {
        h.observe(values[i as usize % values.len()]);
    }
    t.elapsed().as_nanos() as f64 / MICRO_CALLS as f64
}

fn obs_layers(t: &mut Trace) {
    // What a serve instance pays for its latency: one read at admission,
    // one elapsed() at finish.
    let start = Instant::now();
    for _ in 0..MICRO_CALLS {
        black_box(Instant::now().elapsed());
    }
    t.layer(
        "obs.clock_ns",
        start.elapsed().as_nanos() as f64 / MICRO_CALLS as f64,
        "ns",
    );

    let values = sample_values(7);
    t.layer(
        "obs.observe_ns_1t",
        observe_ns(&LogHistogram::new(5), &values),
        "ns",
    );
    let threads = nproc();
    let shared = LogHistogram::new(5);
    let barrier = Barrier::new(threads);
    let per_thread: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    observe_ns(&shared, &values)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("histogram probe panicked"))
            .collect()
    });
    t.layer("obs.observe_ns_shared", median(&per_thread), "ns");
    t.out.detail("obs.observe_threads", threads);
}
