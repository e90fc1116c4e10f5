//! The four workloads, timed with tracing off, each with its output checks.
//!
//! Every workload reports the same end-to-end metrics, so one definition
//! holds across them; the unit of work differs:
//!
//! | workload         | one operation                     | `work_per_s` counts   |
//! |------------------|-----------------------------------|-----------------------|
//! | `serve-two`      | one consensus instance            | decisions             |
//! | `sweep-adaptive` | one simulated trial               | trials                |
//! | `exact-fig2`     | one exact query (build + solve)   | classes solved        |
//! | `dpor-two`       | one explored interleaving         | executions            |
//!
//! `latency_p50_us`/`latency_p99_us` are the median and 99th percentile of
//! one operation's wall time.
//!
//! A run is a sequence of batches, and it reports its quietest tenth (at
//! least eight batches): the batches with the highest rate. Other tenants
//! of a shared host only ever slow a batch down, and how much of a run they
//! slow changes from run to run; the quietest tenth is what the program
//! itself costs. `work_per_s` is the median rate of those batches. Where
//! the workload keeps a latency histogram (`serve-two`, `dpor-two`) the
//! percentiles are read from the histogram pooled over those batches;
//! elsewhere they are the median of those batches' percentiles.

use crate::{json_num, Args, Outcome};
use cil_conc::{explore_timed_with_codec, DporConfig, DporTiming};
use cil_core::n_unbounded::NUnbounded;
use cil_core::two::TwoProcessor;
use cil_mc::{CompactMdp, CompactOptions, Objective};
use cil_obs::{LogHistogramSnapshot, Registry};
use cil_serve::{ServeEngine, ServeLimit};
use cil_sim::{
    PackCodec, Protocol, Rng, RoundRobin, Runner, SplitKeeper, SplitMix64, SweepStats, TrialResult,
    TrialSweep, Val,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Instances per measured `serve-two` batch.
pub const SERVE_BATCH: u64 = 500_000;
/// Instances of one `serve-two` set-up: enough that a shard thread starting
/// late does not dominate the set-up time.
const SERVE_SETUP: u64 = 100_000;
/// Instances compared against the simulator sweep in the prefix check.
pub const SERVE_PREFIX: u64 = 20_000;
/// Trials per measured `sweep-adaptive` batch.
pub const SWEEP_BATCH: u64 = 1_000;
/// Trials compared at jobs 1 and jobs `nproc` in the prefix check.
pub const SWEEP_PREFIX: u64 = 256;
/// Processors of the `sweep-adaptive` protocol.
pub const SWEEP_N: usize = 6;
/// BFS depth bound of the `exact-fig2` build.
pub const EXACT_DEPTH: usize = 30;
/// BFS depth bound of one `exact-fig2` set-up (a build without the solve:
/// the solve's worker threads make a short solve's time follow the host's
/// scheduling).
const EXACT_SETUP_DEPTH: usize = 20;
/// Survival horizon of the `exact-fig2` solve.
pub const EXACT_KMAX: usize = 20;
/// Canonical classes of the `exact-fig2` build at [`EXACT_DEPTH`].
pub const EXACT_CLASSES: usize = 43_325;
/// DPOR depth bound of `dpor-two`.
pub const DPOR_DEPTH: u64 = 16;
/// Executions of the `dpor-two` exploration at [`DPOR_DEPTH`].
pub const DPOR_EXECUTIONS: u64 = 11_802;
/// Execution digest of the `dpor-two` exploration at [`DPOR_DEPTH`].
pub const DPOR_DIGEST: u64 = 0x2d03_efb3_2b38_a8c0;
/// Repetitions of a workload's set-up; `setup_s` is their median.
const SETUP_REPS: usize = 21;
/// Share of a run's batches that it reports (see the module docs).
const QUIET_SHARE: f64 = 0.1;
/// Fewest batches a run reports (all of them if it has fewer): the fastest
/// of a handful of batches is itself a noisy figure.
const QUIET_MIN: usize = 8;
/// Most batches a run reports. Only this many are kept while it runs, so
/// the harness's memory does not grow with the run and show in
/// `peak_rss_mb`.
const QUIET_MAX: usize = 64;

/// Worker threads the workloads use: the host's available parallelism.
pub fn nproc() -> usize {
    cil_sim::resolve_jobs(0).max(1)
}

/// Inputs `a,b,a,b,…` for `n` processors.
pub fn inputs_ab(n: usize) -> Vec<Val> {
    (0..n)
        .map(|i| if i % 2 == 0 { Val::A } else { Val::B })
        .collect()
}

/// Root seed of batch `b` of a run seeded with `seed`.
pub fn batch_seed(seed: u64, b: u64) -> u64 {
    SplitMix64::jump(seed, b).next_u64()
}

/// Median of `v` (interpolated between the middle two when even).
pub fn median(v: &[f64]) -> f64 {
    quantile_f64(v, 0.5)
}

/// Nearest-rank quantile of raw samples.
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// Quantile of a log-histogram, interpolated linearly inside the bucket
/// that holds the rank (bucket midpoints alone would make medians of a run
/// repeat exactly).
pub fn hist_quantile(h: &LogHistogramSnapshot, q: f64) -> f64 {
    let rank = (q * h.count() as f64).max(1.0);
    let mut seen = 0u64;
    for (&idx, &c) in &h.buckets {
        if (seen + c) as f64 >= rank {
            let (lo, hi) = h.bucket_bounds(idx);
            return lo as f64 + (hi - lo) as f64 * (rank - seen as f64) / c as f64;
        }
        seen += c;
    }
    f64::NAN
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One measured batch.
struct Batch {
    rate: f64,
    p50_ns: f64,
    p99_ns: f64,
    /// The batch's latencies, where the workload keeps a histogram.
    latency: Option<LogHistogramSnapshot>,
}

/// The batches of a measured loop.
#[derive(Default)]
struct Batches {
    /// Every batch's rate.
    rates: Vec<f64>,
    /// The [`QUIET_MAX`] fastest batches so far.
    kept: Vec<Batch>,
    samples: u64,
}

impl Batches {
    fn push(&mut self, rate: f64, p50_ns: f64, p99_ns: f64, samples: u64) {
        self.keep(rate, || Batch {
            rate,
            p50_ns,
            p99_ns,
            latency: None,
        });
        self.samples += samples;
    }

    /// A batch whose latencies are a histogram. The run's percentiles are
    /// read from the pooled histograms of its quiet batches rather than
    /// taken per batch: a tail with more than one mode makes a batch's
    /// percentile jump between the modes, while the pooled histogram
    /// weighs each mode by its share.
    fn push_hist(&mut self, rate: f64, latency: &LogHistogramSnapshot) {
        self.keep(rate, || Batch {
            rate,
            p50_ns: hist_quantile(latency, 0.5),
            p99_ns: hist_quantile(latency, 0.99),
            latency: Some(latency.clone()),
        });
        self.samples += latency.count();
    }

    /// Records a batch's rate, and keeps the batch if it is among the
    /// [`QUIET_MAX`] fastest so far.
    fn keep(&mut self, rate: f64, batch: impl FnOnce() -> Batch) {
        self.rates.push(rate);
        if self.kept.len() < QUIET_MAX {
            self.kept.push(batch());
            return;
        }
        let (slowest, _) = self
            .kept
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.rate.total_cmp(&b.rate))
            .expect("QUIET_MAX is positive");
        if rate > self.kept[slowest].rate {
            self.kept[slowest] = batch();
        }
    }

    /// Reports the run: its quietest [`QUIET_SHARE`] of batches (at least
    /// [`QUIET_MIN`], at most [`QUIET_MAX`]), those with the highest rate.
    /// `rate_name` is the conventional name of the workload's rate, printed
    /// in the envelope line.
    fn report(mut self, out: &mut Outcome, setup_s: f64, rate_name: &str) {
        let rates = &self.rates;
        out.detail(
            "work_per_s_batch_min_median_max",
            format!(
                "[{}, {}, {}]",
                json_num(quantile_f64(rates, 0.0)),
                json_num(median(rates)),
                json_num(quantile_f64(rates, 1.0))
            ),
        );
        self.kept.sort_by(|a, b| b.rate.total_cmp(&a.rate));
        let k = ((rates.len() as f64 * QUIET_SHARE).ceil() as usize)
            .clamp(QUIET_MIN, QUIET_MAX)
            .min(self.kept.len());
        let quiet = &self.kept[..k];
        let rate = median(&quiet.iter().map(|b| b.rate).collect::<Vec<_>>());
        let hists: Option<Vec<&LogHistogramSnapshot>> =
            quiet.iter().map(|b| b.latency.as_ref()).collect();
        let (p50_ns, p99_ns) = match hists {
            Some(hists) => {
                let mut pooled = hists[0].clone();
                for h in &hists[1..] {
                    pooled
                        .merge(h)
                        .expect("batch histograms share one resolution");
                }
                out.detail("quiet_latency_samples", pooled.count());
                (hist_quantile(&pooled, 0.5), hist_quantile(&pooled, 0.99))
            }
            None => (
                median(&quiet.iter().map(|b| b.p50_ns).collect::<Vec<_>>()),
                median(&quiet.iter().map(|b| b.p99_ns).collect::<Vec<_>>()),
            ),
        };
        out.detail(rate_name, json_num(rate));
        out.detail("batches", rates.len());
        out.detail("quiet_batches", quiet.len());
        out.detail("latency_samples", self.samples);
        out.metric("setup_s", setup_s, "s");
        out.metric("peak_rss_mb", peak_rss_mb(), "MB");
        out.metric("work_per_s", rate, "1/s");
        out.metric("latency_p50_us", p50_ns / 1e3, "us");
        out.metric("latency_p99_us", p99_ns / 1e3, "us");
    }
}

/// Linearly interpolated quantile `q` of `v` (`0.5` is the median).
pub fn quantile_f64(v: &[f64], q: f64) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let x = q * (v.len() - 1) as f64;
    let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (x - lo as f64)
}

/// Runs `batch(b)` for `b = 0, 1, …` until `seconds` have passed (at least
/// one batch), and `setup` [`SETUP_REPS`] times spread evenly over the run,
/// between batches. Returns the median wall time of a `setup`: spread over
/// the run, it sees the same host as the batches, not only the run's first
/// moments.
fn measure(seconds: f64, mut setup: impl FnMut(), mut batch: impl FnMut(u64)) -> f64 {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let mut reps = Vec::with_capacity(SETUP_REPS);
    let mut set_up = |reps: &mut Vec<f64>| {
        let t = Instant::now();
        setup();
        reps.push(t.elapsed().as_secs_f64());
    };
    let mut b = 0;
    loop {
        let due = seconds * reps.len() as f64 / SETUP_REPS as f64;
        if reps.len() < SETUP_REPS && started.elapsed().as_secs_f64() >= due {
            set_up(&mut reps);
        }
        batch(b);
        b += 1;
        if Instant::now() >= deadline {
            break;
        }
    }
    while reps.len() < SETUP_REPS {
        set_up(&mut reps);
    }
    median(&reps)
}

pub fn run(args: &Args) -> Outcome {
    match args.workload.as_str() {
        "serve-two" => serve_two(args),
        "sweep-adaptive" => sweep_adaptive(args),
        "exact-fig2" => exact_fig2(args),
        "dpor-two" => dpor_two(args),
        w => unreachable!("workload {w} was validated by the argument parser"),
    }
}

/// The simulator reference for `serve-two`: a `TrialSweep` of `Runner` +
/// `RoundRobin`, with its decided-value counts.
fn serve_reference<P: Protocol + Sync>(
    p: &P,
    inputs: &[Val],
    instances: u64,
    seed: u64,
) -> (SweepStats, BTreeMap<u64, u64>) {
    let values = Mutex::new(BTreeMap::new());
    let stats = TrialSweep::new(instances)
        .root_seed(seed)
        .jobs(nproc())
        .run(|t| {
            let out = Runner::new(p, inputs, RoundRobin::new()).seed(t.seed).run();
            let result = TrialResult::from_run(&out);
            if result.outcome == cil_sim::TrialOutcome::Decided {
                if let Some(v) = out.agreement() {
                    *values
                        .lock()
                        .expect("value counter poisoned")
                        .entry(v.0)
                        .or_insert(0) += 1;
                }
            }
            result
        });
    (stats, values.into_inner().expect("value counter poisoned"))
}

fn serve_two(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let p = TwoProcessor::new();
    let inputs = inputs_ab(2);
    let shards = nproc();
    let engine = |instances: u64, seed: u64| {
        ServeEngine::new(&p, &PackCodec, &inputs, ServeLimit::Instances(instances))
            .root_seed(seed)
            .shards(shards)
    };

    let setup = || {
        black_box(engine(SERVE_SETUP, args.seed).run());
    };

    let prefix = engine(SERVE_PREFIX, args.seed).run();
    let (reference, values) = serve_reference(&p, &inputs, SERVE_PREFIX, args.seed);
    out.check(prefix.stats.digest() == reference.digest(), || {
        "serve-two: prefix digest differs from the simulator sweep".into()
    });
    out.check(prefix.decided_values == values, || {
        format!(
            "serve-two: decided values {:?} differ from the simulator's {values:?}",
            prefix.decided_values
        )
    });

    let mut batches = Batches::default();
    let setup_s = measure(args.seconds, setup, |b| {
        let report = engine(SERVE_BATCH, batch_seed(args.seed, b + 1)).run();
        out.attempted += report.instances;
        out.failed += report.instances - report.stats.decided;
        out.check(
            report.instances == SERVE_BATCH && report.stats.violations() == 0,
            || {
                format!(
                    "serve-two: batch {b} ran {} instances with {} violations",
                    report.instances,
                    report.stats.violations()
                )
            },
        );
        batches.push_hist(report.decisions_per_sec(), &report.latency);
    });
    out.detail("shards", shards);
    out.detail("instances_per_batch", SERVE_BATCH);
    batches.report(&mut out, setup_s, "decisions_per_s");
    out
}

/// One `sweep-adaptive` batch: `Runner` + `SplitKeeper` trials, with each
/// trial's wall time.
fn adaptive_sweep(
    p: &NUnbounded,
    inputs: &[Val],
    trials: u64,
    seed: u64,
    jobs: usize,
) -> (SweepStats, Vec<u64>) {
    let times = Mutex::new(Vec::with_capacity(trials as usize));
    let stats = TrialSweep::new(trials).root_seed(seed).jobs(jobs).run(|t| {
        let started = Instant::now();
        let result = TrialResult::from_run(
            &Runner::new(p, inputs, SplitKeeper::new())
                .seed(t.seed)
                .run(),
        );
        let ns = started.elapsed().as_nanos() as u64;
        times.lock().expect("trial timer poisoned").push(ns);
        result
    });
    let mut times = times.into_inner().expect("trial timer poisoned");
    times.sort_unstable();
    (stats, times)
}

fn sweep_adaptive(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let p = NUnbounded::new(SWEEP_N);
    let inputs = inputs_ab(SWEEP_N);
    let jobs = nproc();

    let setup = || {
        black_box(adaptive_sweep(&p, &inputs, 32, args.seed, jobs));
    };

    let (serial, _) = adaptive_sweep(&p, &inputs, SWEEP_PREFIX, args.seed, 1);
    let (parallel, _) = adaptive_sweep(&p, &inputs, SWEEP_PREFIX, args.seed, jobs);
    out.check(serial.digest() == parallel.digest(), || {
        format!("sweep-adaptive: prefix digest differs between jobs 1 and jobs {jobs}")
    });

    let mut batches = Batches::default();
    let mut steps = 0u128;
    let setup_s = measure(args.seconds, setup, |b| {
        let started = Instant::now();
        let (stats, times) =
            adaptive_sweep(&p, &inputs, SWEEP_BATCH, batch_seed(args.seed, b + 1), jobs);
        let wall = started.elapsed().as_secs_f64();
        out.attempted += stats.trials;
        out.failed += stats.trials - stats.decided;
        out.check(stats.violations() == 0 && stats.undecided == 0, || {
            format!(
                "sweep-adaptive: batch {b} has {} violations and {} undecided trials",
                stats.violations(),
                stats.undecided
            )
        });
        steps += stats.metric_sum;
        batches.push(
            stats.trials as f64 / wall,
            quantile(&times, 0.5),
            quantile(&times, 0.99),
            times.len() as u64,
        );
    });
    out.detail("jobs", jobs);
    out.detail("trials_per_batch", SWEEP_BATCH);
    out.detail(
        "steps_per_trial",
        json_num(steps as f64 / (batches.samples.max(1)) as f64),
    );
    batches.report(&mut out, setup_s, "trials_per_s");
    out
}

/// The `exact-fig2` query: depth-bounded build targeting P0, then the
/// survival curve. Returns the build, the curve and both phase times.
pub fn exact_query(depth: usize) -> Result<(CompactMdp<NUnbounded>, Vec<f64>, f64, f64), String> {
    let t = Instant::now();
    let mdp = exact_build(depth)?;
    let build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let curve = mdp.survival(0, EXACT_KMAX, 1e-13, 200_000, nproc());
    Ok((mdp, curve, build_s, t.elapsed().as_secs_f64()))
}

/// The build of the `exact-fig2` query, to depth `depth`.
fn exact_build(depth: usize) -> Result<CompactMdp<NUnbounded>, String> {
    let opts = CompactOptions {
        max_depth: Some(depth),
        target: Some(0),
        ..CompactOptions::default()
    };
    CompactMdp::build(&NUnbounded::three(), &[Val::A, Val::B, Val::A], &opts)
}

/// The survival curve starts at 1 and never rises.
pub fn curve_ok(curve: &[f64]) -> bool {
    curve.first() == Some(&1.0) && curve.windows(2).all(|w| w[1] <= w[0])
}

/// Two-processor expected total steps under the optimal adversary; the
/// closed form is 16.
pub fn two_expected_total_steps() -> Result<f64, String> {
    let mdp = CompactMdp::build(
        &TwoProcessor::new(),
        &[Val::A, Val::B],
        &CompactOptions::default(),
    )?;
    Ok(mdp
        .expected_steps(Objective::TotalSteps, 1e-12, 100_000, nproc())
        .value)
}

fn exact_fig2(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let setup = || {
        black_box(exact_build(EXACT_SETUP_DEPTH).expect("the set-up build fits the class bound"));
    };

    let total = two_expected_total_steps();
    out.check(matches!(total, Ok(v) if (v - 16.0).abs() < 1e-6), || {
        format!("exact-fig2: two-processor expected total steps {total:?}, closed form 16")
    });

    let (mut builds, mut solves) = (Vec::new(), Vec::new());
    let mut batches = Batches::default();
    let mut first_curve: Option<Vec<f64>> = None;
    // One query is one operation and one batch, so the run's latency_p50_us
    // and latency_p99_us are the same figure: one query's wall time.
    let setup_s = measure(args.seconds, setup, |b| {
        let t = Instant::now();
        let query = exact_query(EXACT_DEPTH);
        let wall_ns = t.elapsed().as_nanos() as f64;
        out.attempted += 1;
        let (mdp, curve, build_s, solve_s) = match query {
            Ok(q) => q,
            Err(e) => {
                out.failed += 1;
                out.check_failures
                    .push(format!("exact-fig2: query {b} failed: {e}"));
                return;
            }
        };
        let classes = mdp.size();
        let same = first_curve.get_or_insert_with(|| curve.clone()) == &curve;
        out.check(classes == EXACT_CLASSES && curve_ok(&curve) && same, || {
            format!("exact-fig2: query {b}: {classes} classes (expected {EXACT_CLASSES}), curve {curve:?}")
        });
        builds.push(build_s);
        solves.push(solve_s);
        batches.push(classes as f64 / (wall_ns / 1e9), wall_ns, wall_ns, 1);
    });
    out.detail("depth", EXACT_DEPTH);
    out.detail("k_max", EXACT_KMAX);
    out.detail("classes", EXACT_CLASSES);
    out.detail("mdp_build_s", json_num(median(&builds)));
    out.detail("mdp_solve_s", json_num(median(&solves)));
    out.detail("seed_used", false);
    batches.report(&mut out, setup_s, "classes_per_s");
    out
}

pub fn dpor_config(depth: u64) -> DporConfig {
    DporConfig {
        depth_bound: depth,
        jobs: 1,
        ..DporConfig::default()
    }
}

fn dpor_two(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let p = TwoProcessor::new();
    let inputs = inputs_ab(2);
    let setup = || {
        black_box(cil_conc::explore(&p, &inputs, &dpor_config(8), None));
    };

    let cfg = dpor_config(DPOR_DEPTH);
    let mut batches = Batches::default();
    let setup_s = measure(args.seconds, setup, |b| {
        let registry = Registry::new();
        let timing = DporTiming::new(&registry, "dpor");
        let t = Instant::now();
        let report = explore_timed_with_codec(&p, &inputs, &PackCodec, &cfg, None, Some(&timing));
        let wall = t.elapsed().as_secs_f64();
        out.attempted += report.executions;
        out.failed += report.violations;
        out.check(
            report.exhaustive
                && report.violations == 0
                && report.executions == DPOR_EXECUTIONS
                && report.digest == DPOR_DIGEST,
            || {
                format!(
                    "dpor-two: exploration {b}: {} executions digest {:016x} violations {} (pinned {DPOR_EXECUTIONS}, {DPOR_DIGEST:016x}, 0)",
                    report.executions, report.digest, report.violations
                )
            },
        );
        let snap = registry.snapshot();
        let exec = snap
            .log_histogram("dpor.exec_ns")
            .expect("the timing sink registers dpor.exec_ns");
        batches.push_hist(report.executions as f64 / wall, exec);
    });
    out.detail("depth_bound", DPOR_DEPTH);
    out.detail("jobs", 1);
    out.detail("seed_used", false);
    batches.report(&mut out, setup_s, "dpor_executions_per_s");
    out
}
