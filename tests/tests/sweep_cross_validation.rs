//! Cross-validation of the exhaustive explorer against the valence
//! analysis: an invariant hook sees every explored class exactly once, and
//! the bivalent configurations it counts come from the exact valence map.

use cil_core::deterministic::{DetRule, DetTwo};
use cil_mc::valence::ValenceMap;
use cil_mc::CompactExplorer;
use cil_sim::Val;
use std::cell::Cell;

#[test]
fn bivalent_census_runs_once_per_class() {
    // The valence map requires a deterministic protocol, so use the
    // Theorem 4 victim.
    let p = DetTwo::new(DetRule::AlwaysAdopt);
    let inputs = [Val::A, Val::B];
    let map = ValenceMap::build(&p, &inputs, 1_000_000);
    let bivalent = Cell::new(0usize);
    let total = Cell::new(0usize);
    let depth = if cfg!(debug_assertions) { 10 } else { 14 };
    let report = CompactExplorer::new(&p, &inputs)
        .max_depth(depth)
        .check_invariant(|cfg| {
            total.set(total.get() + 1);
            if map.is_bivalent(cfg) {
                bivalent.set(bivalent.get() + 1);
            }
            Ok(())
        })
        .run();
    assert!(report.safe());
    assert_eq!(total.get(), report.explored);
    // The initial configuration with split inputs is bivalent (the paper's
    // Lemma 2 situation), so the census is non-trivial.
    assert!(bivalent.get() > 0, "expected bivalent configs");
}
