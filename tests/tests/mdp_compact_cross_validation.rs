//! Cross-validation between the exact engine (`cil_mc::compact`) and the
//! plain reference oracle of this package (`cil_tests::oracle`), which
//! keys on whole configurations without any reduction.
//!
//! The compact engine must be an *observation-preserving* quotient: same
//! worst-case expected steps for every objective, same survival curves,
//! a policy that is still optimal when scored against the oracle's value
//! function, and the same safety reports. Protocols with infinite reachable
//! spaces (the paper's §5/§6 families) are compared under the same BFS
//! depth bound on both sides — the truncation disciplines are defined to
//! match exactly.

use cil_core::deterministic::{DetRule, DetTwo};
use cil_core::kvalued::KValued;
use cil_core::n_unbounded::NUnbounded;
use cil_core::n_unbounded_1w1r::NUnbounded1W1R;
use cil_core::naive::Naive;
use cil_core::three_bounded::ThreeBounded;
use cil_core::two::TwoProcessor;
use cil_mc::config::{successors, Config};
use cil_mc::{CompactExplorer, CompactMdp, CompactOptions, Objective, Symmetric};
use cil_sim::{Runner, StopWhen, Val};
use cil_tests::oracle::{self, Mdp};
use std::collections::HashSet;

const VAL_TOL: f64 = 1e-9;
const CURVE_TOL: f64 = 1e-12;
const KMAX: usize = 12;

fn opts(depth: Option<usize>, target: Option<usize>) -> CompactOptions {
    CompactOptions {
        max_depth: depth,
        target,
        ..CompactOptions::default()
    }
}

/// Builds the oracle and the compact engine (optionally depth-bounded) and
/// compares expected steps under every objective and the survival curve of
/// every processor.
///
/// `compare_steps: false` skips the expected-steps comparisons for
/// protocols whose truncated graph still contains undecided cycles (the
/// naive protocol): there the fixpoint diverges, and the oracle's
/// Gauss–Seidel and the compact Jacobi sweeps blow up at different rates.
/// Survival curves are bounded in [0, 1] and stay well-defined.
fn assert_backends_agree<P: Symmetric>(
    name: &str,
    p: &P,
    inputs: &[Val],
    depth: Option<usize>,
    compare_steps: bool,
) {
    let dense = Mdp::build(p, inputs, depth);
    let compact_any = CompactMdp::build(p, inputs, &opts(depth, None)).unwrap();
    assert!(
        compact_any.size() <= dense.size(),
        "{name}: quotient larger than the dense space"
    );
    if compare_steps {
        let dt = dense.expected_steps(p, Objective::TotalSteps, 1e-13, 1_000_000)[0];
        let ct = compact_any.expected_steps(Objective::TotalSteps, 1e-13, 1_000_000, 1);
        assert!(
            (dt - ct.value).abs() <= VAL_TOL,
            "{name} TotalSteps: oracle {dt} vs compact {}",
            ct.value
        );
    }
    for t in 0..p.processes() {
        let compact_t = CompactMdp::build(p, inputs, &opts(depth, Some(t))).unwrap();
        if compare_steps {
            let ds = dense.expected_steps(p, Objective::StepsOf(t), 1e-13, 1_000_000)[0];
            let cs = compact_t.expected_steps(Objective::StepsOf(t), 1e-13, 1_000_000, 1);
            assert!(
                (ds - cs.value).abs() <= VAL_TOL,
                "{name} StepsOf({t}): oracle {ds} vs compact {}",
                cs.value
            );
        }
        let dcurve = dense.survival(p, t, KMAX, 1e-14, 1_000_000);
        let ccurve = compact_t.survival(t, KMAX, 1e-14, 1_000_000, 1);
        assert_eq!(dcurve.len(), ccurve.len(), "{name}: curve lengths");
        for (k, (a, b)) in dcurve.iter().zip(&ccurve).enumerate() {
            assert!(
                (a - b).abs() <= CURVE_TOL,
                "{name} survival[{k}] of P{t}: oracle {a} vs compact {b}"
            );
        }
    }
}

#[test]
fn finite_space_protocols_agree_between_backends() {
    assert_backends_agree(
        "two(a,b)",
        &TwoProcessor::new(),
        &[Val::A, Val::B],
        None,
        true,
    );
    assert_backends_agree(
        "two(a,a)",
        &TwoProcessor::new(),
        &[Val::A, Val::A],
        None,
        true,
    );
    assert_backends_agree(
        "kvalued:4",
        &KValued::new(TwoProcessor::new(), 4),
        &[Val(0), Val(3)],
        None,
        true,
    );
}

#[test]
fn deterministic_victim_agrees_under_a_depth_bound() {
    // Theorem 4 keeps deterministic victims undecided forever, so the
    // unbounded expected-steps fixpoint diverges; a depth bound makes the
    // comparison well-defined on both sides.
    assert_backends_agree(
        "det:always-adopt",
        &DetTwo::new(DetRule::AlwaysAdopt),
        &[Val::A, Val::B],
        Some(8),
        true,
    );
}

#[test]
fn infinite_space_protocols_agree_under_a_depth_bound() {
    assert_backends_agree(
        "fig2",
        &NUnbounded::three(),
        &[Val::A, Val::B, Val::A],
        Some(6),
        true,
    );
    assert_backends_agree(
        "fig2-literal",
        &NUnbounded::literal_fig2(3),
        &[Val::A, Val::B, Val::A],
        Some(6),
        true,
    );
    assert_backends_agree(
        "fig2-1w1r",
        &NUnbounded1W1R::three(),
        &[Val::A, Val::B, Val::A],
        Some(6),
        true,
    );
    assert_backends_agree(
        "fig3",
        &ThreeBounded::new(),
        &[Val::A, Val::B, Val::A],
        Some(6),
        true,
    );
    assert_backends_agree(
        "naive",
        &Naive::new(3),
        &[Val::A, Val::B, Val::A],
        Some(7),
        false,
    );
    assert_backends_agree(
        "n:4",
        &NUnbounded::new(4),
        &[Val::A, Val::B, Val::A, Val::B],
        Some(5),
        true,
    );
}

#[test]
fn value_iteration_is_jobs_invariant_to_the_bit() {
    let p = KValued::new(TwoProcessor::new(), 4);
    let inputs = [Val(0), Val(3)];
    let mdp = CompactMdp::build(&p, &inputs, &opts(None, None)).unwrap();
    let s1 = mdp.expected_steps(Objective::TotalSteps, 1e-13, 1_000_000, 1);
    let s8 = mdp.expected_steps(Objective::TotalSteps, 1e-13, 1_000_000, 8);
    assert_eq!(s1.iterations, s8.iterations);
    assert_eq!(s1.policy, s8.policy);
    for (i, (a, b)) in s1.values.iter().zip(&s8.values).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "value of class {i}");
    }
    let t = CompactMdp::build(&p, &inputs, &opts(None, Some(0))).unwrap();
    let c1 = t.survival(0, KMAX, 1e-13, 1_000_000, 1);
    let c8 = t.survival(0, KMAX, 1e-13, 1_000_000, 8);
    for (k, (a, b)) in c1.iter().zip(&c8).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "survival[{k}]");
    }
}

#[test]
fn compact_policy_is_optimal_under_dense_values() {
    // Gap-aware policy check: at every reachable configuration the compact
    // policy's scheduling choice must achieve (within 1e-9) the best
    // one-step lookahead value computed from the oracle's (dense) solution.
    // This is stronger than comparing policies pointwise — distinct optimal
    // moves are fine, suboptimal ones are not.
    let p = KValued::new(TwoProcessor::new(), 4);
    let inputs = [Val(0), Val(3)];
    let dense = Mdp::build(&p, &inputs, None);
    let dvalues = dense.expected_steps(&p, Objective::TotalSteps, 1e-13, 1_000_000);
    let compact = CompactMdp::build(&p, &inputs, &opts(None, None)).unwrap();
    let csolve = compact.expected_steps(Objective::TotalSteps, 1e-13, 1_000_000, 1);

    let mut seen: HashSet<Config<KValued<TwoProcessor>>> = HashSet::new();
    let mut queue = vec![Config::initial(&p, &inputs)];
    let mut checked = 0usize;
    while let Some(cfg) = queue.pop() {
        if !seen.insert(cfg.clone()) {
            continue;
        }
        let eligible = cfg.eligible(&p);
        if !eligible.is_empty() {
            let q = |pid: usize| -> f64 {
                1.0 + successors(&p, &cfg, pid)
                    .into_iter()
                    .map(|(pr, succ)| pr * dvalues[dense.find(&succ).unwrap()])
                    .sum::<f64>()
            };
            let best = eligible
                .iter()
                .map(|&pid| q(pid))
                .fold(f64::NEG_INFINITY, f64::max);
            let chosen = compact
                .decide_config(&p, &cfg, &csolve.policy)
                .expect("reachable, non-absorbing configuration has a policy move");
            assert!(
                eligible.contains(&chosen),
                "policy schedules ineligible P{chosen}"
            );
            assert!(
                q(chosen) >= best - VAL_TOL,
                "suboptimal move P{chosen}: Q {} vs best {best}",
                q(chosen)
            );
            checked += 1;
        }
        for pid in eligible {
            for (_, succ) in successors(&p, &cfg, pid) {
                if !seen.contains(&succ) {
                    queue.push(succ);
                }
            }
        }
    }
    assert!(checked > 50, "walked only {checked} configurations");
}

#[test]
fn compact_policy_adversary_reproduces_the_exact_optimum_in_monte_carlo() {
    // The symmetry-reduced policy is keyed on classes; replaying it has to
    // map every concrete configuration back to its class and the chosen
    // move back through the symmetry.
    let p = TwoProcessor::new();
    let inputs = [Val::A, Val::B];
    let mdp = CompactMdp::build(&p, &inputs, &opts(None, Some(1))).unwrap();
    let solve = mdp.expected_steps(Objective::StepsOf(1), 1e-12, 100_000, 0);
    let runs = 30_000u64;
    let mut total = 0u64;
    for seed in 0..runs {
        let out = Runner::new(&p, &inputs, mdp.policy_adversary(&p, &solve))
            .seed(seed)
            .stop_when(StopWhen::PidDecided(1))
            .max_steps(100_000)
            .run();
        total += out.steps[1];
    }
    let mean = total as f64 / runs as f64;
    assert!(
        (mean - solve.value).abs() < 0.3,
        "MC mean {mean} vs exact optimum {}",
        solve.value
    );
}

#[test]
fn two_survival_curve_is_exactly_the_corollary_geometric_decay() {
    // P0 cannot decide before its fourth own step; from there the
    // worst-case survival decays by a factor 3/4 every second step:
    // curve[k] = (3/4)^⌊(k-2)/2⌋ for k >= 2 (Corollary of Theorem 7).
    let p = TwoProcessor::new();
    let mdp = CompactMdp::build(&p, &[Val::A, Val::B], &opts(None, Some(0))).unwrap();
    let curve = mdp.survival(0, 16, 1e-14, 1_000_000, 1);
    assert_eq!(curve[0], 1.0);
    assert_eq!(curve[1], 1.0);
    for (k, v) in curve.iter().enumerate().skip(2) {
        let expect = 0.75f64.powi(((k - 2) / 2) as i32);
        assert!(
            (v - expect).abs() <= CURVE_TOL,
            "survival[{k}] = {v}, expected {expect}"
        );
    }
}

#[test]
fn unreduced_compact_build_has_one_class_per_oracle_configuration() {
    // The dense_configs column of BENCH_mdp.json: 37, 128 and 208.
    let unreduced = CompactOptions {
        use_symmetry: false,
        merge_decided: false,
        ..CompactOptions::default()
    };
    let two = TwoProcessor::new();
    let kv4 = KValued::new(TwoProcessor::new(), 4);
    let kv8 = KValued::new(TwoProcessor::new(), 8);
    let sizes = [
        (
            Mdp::build(&two, &[Val::A, Val::B], None).size(),
            CompactMdp::build(&two, &[Val::A, Val::B], &unreduced)
                .unwrap()
                .size(),
        ),
        (
            Mdp::build(&kv4, &[Val(0), Val(3)], None).size(),
            CompactMdp::build(&kv4, &[Val(0), Val(3)], &unreduced)
                .unwrap()
                .size(),
        ),
        (
            Mdp::build(&kv8, &[Val(0), Val(7)], None).size(),
            CompactMdp::build(&kv8, &[Val(0), Val(7)], &unreduced)
                .unwrap()
                .size(),
        ),
    ];
    assert_eq!(sizes, [(37, 37), (128, 128), (208, 208)]);
}

/// The compact explorer without symmetry must reproduce the oracle's
/// report exactly (classes biject with configurations); with symmetry it
/// must keep the verdict, completeness and depth on fewer classes.
fn assert_explorers_agree<P: Symmetric>(name: &str, p: &P, inputs: &[Val], depth: usize) {
    let reference = oracle::explore(p, inputs, depth);
    let plain = CompactExplorer::new(p, inputs)
        .max_depth(depth)
        .use_symmetry(false)
        .run();
    assert_eq!(plain, reference, "{name}");
    let (reduced, stats) = CompactExplorer::new(p, inputs)
        .max_depth(depth)
        .run_with_stats();
    assert_eq!(reduced.safe(), reference.safe(), "{name}");
    assert_eq!(reduced.complete, reference.complete, "{name}");
    assert_eq!(reduced.max_depth, reference.max_depth, "{name}");
    assert!(reduced.explored <= reference.explored, "{name}");
    assert_eq!(stats.classes, reduced.explored, "{name}");
}

#[test]
fn compact_explorer_matches_the_oracle_report() {
    let two = TwoProcessor::new();
    for inputs in [[Val::A, Val::B], [Val::A, Val::A], [Val::B, Val::A]] {
        assert_explorers_agree("two", &two, &inputs, usize::MAX);
        // Depth 4 from unanimous inputs cuts nothing off: complete.
        assert_explorers_agree("two, depth 4", &two, &inputs, 4);
    }
    assert_explorers_agree(
        "kvalued:4",
        &KValued::new(TwoProcessor::new(), 4),
        &[Val(0), Val(3)],
        usize::MAX,
    );
    for rule in DetRule::ALL {
        assert_explorers_agree("det", &DetTwo::new(rule), &[Val::A, Val::B], 12);
    }
    assert_explorers_agree("fig3", &ThreeBounded::new(), &[Val::A, Val::B, Val::A], 6);
    assert_explorers_agree("naive", &Naive::new(3), &[Val::A, Val::B, Val::A], 7);
}
