//! Benchmark of the CIL workspace: four workloads timed with tracing off,
//! and a traced run that breaks the time down by layer.
//!
//! ```text
//! cil-perfbench --workload <serve-two|sweep-adaptive|exact-fig2|dpor-two|all>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run checks the program's outputs. The last line of standard output
//! is one JSON object `{"correct", "attempted", "failed", "metrics"}`: with
//! `--trace 0` the metrics are the end-to-end metrics of `BENCHMARK.json`,
//! with `--trace 1` the per-layer metrics. The line before it records the
//! run envelope (host, toolchain, commit, seed) and the workload's own
//! figures under their conventional names. A failed check exits 1; a usage
//! error exits 2. `--workload all` runs every benchmark workload in its own
//! process and exits 1 if any of them failed.

mod layers;
mod spans;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;

/// The benchmark's workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 2] = ["serve-two", "exact-fig2"];

/// Workloads that run on request but are left out of the benchmark and of
/// `--workload all`: on a shared two-core host their run-to-run spread is
/// wider than any bound the benchmark may set (see README.md). The traced
/// run still measures their layers.
pub const UNSTEADY_WORKLOADS: [&str; 2] = ["sweep-adaptive", "dpor-two"];

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted, output checks included.
    pub attempted: u64,
    /// Operations that failed or did not decide, plus failed checks.
    pub failed: u64,
    /// Descriptions of the checks that failed.
    pub check_failures: Vec<String>,
    /// The metrics of the final line.
    pub metrics: Vec<Metric>,
    /// Extra figures for the envelope line (name, JSON value).
    pub detail: Vec<(String, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn detail(&mut self, name: &str, value: impl std::fmt::Display) {
        self.detail.push((name.to_string(), value.to_string()));
    }

    /// Records one output check; a failing check counts as a failed
    /// operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.check_failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag}: missing value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| format!("--seed: bad value {value}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("--seconds: bad value {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let known = WORKLOADS.iter().chain(&UNSTEADY_WORKLOADS);
    if workload != "all" && !known.clone().any(|w| *w == workload) {
        let known: Vec<&str> = known.copied().collect();
        return Err(format!(
            "--workload: unknown workload {workload} (expected one of {} or all)",
            known.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// `JSON` string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite float as JSON (non-finite values, which no metric should take,
/// become `null` so the line stays parseable).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The run envelope: what a result must be read together with.
fn envelope(args: &Args) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let sha = command_line("git", &["rev-parse", "HEAD"]);
    let sha = if sha == "unknown" {
        "unknown (not a git checkout)".to_string()
    } else {
        sha
    };
    format!(
        "{{\"nproc\": {}, \"cpu_model\": {}, \"rustc\": {}, \"git_sha\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
        workloads::nproc(),
        json_str(&cpu),
        json_str(&command_line("rustc", &["-V"])),
        json_str(&sha),
        args.seed,
        json_num(args.seconds),
        args.trace
    )
}

fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

fn run_one(args: &Args) -> ExitCode {
    let outcome = if args.trace {
        layers::run(args)
    } else {
        workloads::run(args)
    };
    for failure in &outcome.check_failures {
        eprintln!("check failed: {failure}");
    }
    let detail: Vec<String> = outcome
        .detail
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), v))
        .collect();
    println!(
        "{{\"workload\": {}, \"envelope\": {}, \"fail_ratio\": {}, \"detail\": {{{}}}}}",
        json_str(&args.workload),
        envelope(args),
        json_num(outcome.failed as f64 / outcome.attempted.max(1) as f64),
        detail.join(", ")
    );
    println!("{}", result_line(&outcome));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs every benchmark workload in a child process (so each reports its
/// own peak memory) and prints a combined line keyed by workload.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate the benchmark executable: {e}");
            return ExitCode::from(2);
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut parts = Vec::new();
    for w in WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output();
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                eprintln!("cannot run workload {w}: {e}");
                return ExitCode::from(2);
            }
        };
        let text = String::from_utf8_lossy(&out.stdout);
        print!("{text}");
        let last = text.lines().last().unwrap_or("");
        let field = |key: &str| -> Option<u64> {
            let rest = last.split(&format!("\"{key}\": ")).nth(1)?;
            rest.split([',', '}']).next()?.trim().parse().ok()
        };
        let metrics = last
            .split_once("\"metrics\": ")
            .and_then(|(_, m)| m.strip_suffix('}'))
            .map(str::to_string);
        match (field("attempted"), field("failed"), metrics) {
            (Some(a), Some(f), Some(m)) if out.status.success() => {
                attempted += a;
                failed += f;
                parts.push(format!("{}: {m}", json_str(w)));
            }
            (a, f, _) => {
                correct = false;
                attempted += a.unwrap_or(1);
                failed += f.unwrap_or(1).max(1);
            }
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        parts.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    }
}
