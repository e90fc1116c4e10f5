//! Reference oracle for the exact engine.
//!
//! `cil_mc::compact` hash-conses configurations, quotients them by
//! symmetry, merges decided states and solves by parallel Jacobi sweeps.
//! This module does none of that: it keys on whole cloned [`Config`]s, one
//! state per configuration, and solves by serial Gauss–Seidel value
//! iteration. Agreement between the two is evidence that the reductions
//! preserve every observable: safety verdicts, class counts of the
//! unreduced space, expected steps and survival curves.

use cil_mc::config::{successors, Config};
use cil_mc::{LevelStats, Objective, Report, Violation};
use cil_sim::{Protocol, Val};
use std::collections::{HashMap, HashSet};

/// Breadth-first walk over every configuration reachable within
/// `max_depth` steps, checking consistency and nontriviality on each.
///
/// The report is incomplete only when a configuration at the depth bound
/// still has an eligible processor. There is no violation cap and no
/// configuration cap, so callers keep to small, safe spaces.
pub fn explore<P: Protocol>(protocol: &P, inputs: &[Val], max_depth: usize) -> Report {
    let init = Config::initial(protocol, inputs);
    let mut seen = HashSet::from([init.clone()]);
    let mut frontier = vec![init];
    let mut report = Report {
        explored: 0,
        violations: Vec::new(),
        complete: true,
        max_depth: 0,
        levels: Vec::new(),
    };
    let mut depth = 0;
    while !frontier.is_empty() {
        let mut level = LevelStats {
            depth,
            frontier: frontier.len(),
            generated: 0,
            fresh: 0,
        };
        let mut next = Vec::new();
        for cfg in &frontier {
            let dvals = cfg.decision_values(protocol);
            if dvals.len() > 1 {
                report.violations.push(Violation::Inconsistent {
                    values: dvals.clone(),
                    depth,
                });
            }
            for &value in &dvals {
                let activated_input = inputs
                    .iter()
                    .enumerate()
                    .any(|(i, &inp)| cfg.active & (1 << i) != 0 && inp == value);
                if !activated_input {
                    report.violations.push(Violation::Trivial { value, depth });
                }
            }
            let eligible = cfg.eligible(protocol);
            if depth >= max_depth {
                report.complete &= eligible.is_empty();
                continue;
            }
            for pid in eligible {
                for (_, succ) in successors(protocol, cfg, pid) {
                    level.generated += 1;
                    if seen.insert(succ.clone()) {
                        level.fresh += 1;
                        next.push(succ);
                    }
                }
            }
        }
        report.levels.push(level);
        report.max_depth = depth;
        frontier = next;
        depth += 1;
    }
    report.explored = seen.len();
    report
}

/// One adversary move: the stepping processor and its probabilistic
/// branches `(probability, successor index)`, one per coin outcome.
type Move = (usize, Vec<(f64, usize)>);

/// The protocol plus an adaptive adversary as an MDP over plain
/// configurations. Index 0 is the initial configuration.
pub struct Mdp<P: Protocol> {
    configs: Vec<Config<P>>,
    index: HashMap<Config<P>, usize>,
    moves: Vec<Vec<Move>>,
}

impl<P: Protocol> Mdp<P> {
    /// Enumerates the reachable configurations in BFS order. With
    /// `Some(d)`, configurations first reached at depth `d` keep no moves,
    /// so their value stays 0 under every objective.
    pub fn build(protocol: &P, inputs: &[Val], max_depth: Option<usize>) -> Self {
        let init = Config::initial(protocol, inputs);
        let mut mdp = Mdp {
            configs: vec![init.clone()],
            index: HashMap::from([(init, 0)]),
            moves: Vec::new(),
        };
        let mut depths = vec![0usize];
        while mdp.moves.len() < mdp.configs.len() {
            let i = mdp.moves.len();
            let cfg = mdp.configs[i].clone();
            let mut cfg_moves = Vec::new();
            if max_depth.is_none_or(|d| depths[i] < d) {
                for pid in cfg.eligible(protocol) {
                    let mut branches = Vec::new();
                    for (p, succ) in successors(protocol, &cfg, pid) {
                        let j = *mdp.index.entry(succ.clone()).or_insert_with(|| {
                            mdp.configs.push(succ);
                            depths.push(depths[i] + 1);
                            mdp.configs.len() - 1
                        });
                        branches.push((p, j));
                    }
                    cfg_moves.push((pid, branches));
                }
            }
            mdp.moves.push(cfg_moves);
        }
        mdp
    }

    /// Number of configurations.
    pub fn size(&self) -> usize {
        self.configs.len()
    }

    /// The index of a configuration (activation mask included).
    pub fn find(&self, cfg: &Config<P>) -> Option<usize> {
        self.index.get(cfg).copied()
    }

    fn decided(&self, protocol: &P, i: usize, pid: usize) -> bool {
        protocol.decision(&self.configs[i].states[pid]).is_some()
    }

    /// Worst-case expected cost of every configuration, by Gauss–Seidel
    /// value iteration from 0 up to the least fixpoint. Stops when a sweep
    /// changes no value by `tol` or more, or after `max_iter` sweeps.
    pub fn expected_steps(
        &self,
        protocol: &P,
        objective: Objective,
        tol: f64,
        max_iter: usize,
    ) -> Vec<f64> {
        let n = self.size();
        let absorbing: Vec<bool> = (0..n)
            .map(|i| match objective {
                Objective::StepsOf(t) => self.decided(protocol, i, t),
                Objective::TotalSteps => self.configs[i].eligible(protocol).is_empty(),
            })
            .collect();
        let mut v = vec![0.0f64; n];
        for _ in 0..max_iter {
            let mut delta = 0.0f64;
            for i in (0..n).filter(|&i| !absorbing[i] && !self.moves[i].is_empty()) {
                let best = self.moves[i]
                    .iter()
                    .map(|(pid, branches)| {
                        let cost = match objective {
                            Objective::StepsOf(t) => f64::from(u8::from(*pid == t)),
                            Objective::TotalSteps => 1.0,
                        };
                        cost + branches.iter().map(|&(p, j)| p * v[j]).sum::<f64>()
                    })
                    .fold(f64::NEG_INFINITY, f64::max);
                delta = delta.max((best - v[i]).abs());
                v[i] = best;
            }
            if delta < tol {
                break;
            }
        }
        v
    }

    /// Worst-case survival curve from the initial configuration: for
    /// `k = 0..=k_max`, the supremum over adversaries of `P[target
    /// undecided after k more of its own activations]`. Each layer is a
    /// least fixpoint: non-target steps stay in the layer, a target step
    /// drops to the previous one.
    pub fn survival(
        &self,
        protocol: &P,
        target: usize,
        k_max: usize,
        tol: f64,
        max_iter: usize,
    ) -> Vec<f64> {
        let n = self.size();
        let undecided: Vec<bool> = (0..n).map(|i| !self.decided(protocol, i, target)).collect();
        let mut prev: Vec<f64> = undecided.iter().map(|&u| f64::from(u8::from(u))).collect();
        let mut curve = vec![prev[0]];
        for _ in 0..k_max {
            let mut g = vec![0.0f64; n];
            for _ in 0..max_iter {
                let mut delta = 0.0f64;
                for i in (0..n).filter(|&i| undecided[i]) {
                    let best = self.moves[i]
                        .iter()
                        .map(|(pid, branches)| {
                            let layer = if *pid == target { &prev } else { &g };
                            branches.iter().map(|&(p, j)| p * layer[j]).sum::<f64>()
                        })
                        .fold(0.0f64, f64::max);
                    delta = delta.max((best - g[i]).abs());
                    g[i] = best;
                }
                if delta < tol {
                    break;
                }
            }
            curve.push(g[0]);
            prev = g;
        }
        curve
    }
}
