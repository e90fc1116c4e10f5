//! Integration-test package for the CIL reproduction workspace.
//!
//! The tests live in `tests/tests/*.rs` and exercise the public APIs of
//! every workspace crate together (protocol → simulator → analysis
//! pipelines, model-checker cross-validation, register-backend swaps). The
//! library exports one thing they share: [`oracle`], a deliberately plain
//! reference implementation of the exact engine that `cil_mc::compact` is
//! checked against.

pub mod oracle;
