//! The contract every benchmark workload implements.

use std::collections::BTreeMap;
use std::path::PathBuf;

use crate::trace::Tracer;

/// Exact, deterministic statistics of one op, keyed by per-layer metric
/// name. At a fixed seed they must repeat bit for bit across ops, runs
/// and the traced run.
pub type Exact = BTreeMap<&'static str, f64>;

/// Inputs shared by every workload's set-up.
#[derive(Debug, Clone)]
pub struct Config {
    /// Seed for every generated input.
    pub seed: u64,
    /// Multiplier on the default input sizes (1.0 for measurement runs).
    pub scale: f64,
    /// Directory for input files; removed when the run ends.
    pub tmp_dir: PathBuf,
}

impl Config {
    /// `base` tuples scaled, at least one.
    pub fn scaled(&self, base: usize) -> usize {
        ((base as f64 * self.scale) as usize).max(1)
    }
}

/// One workload: set-up, a timed op, and its out-of-timer check.
pub trait Workload: Sized {
    /// What an op hands to [`Workload::check`].
    type Output;

    /// Generate the inputs and compute the reference results. Records
    /// `datagen.gen`, `io.write` and `setup.reference` spans.
    fn setup(cfg: &Config, tr: &mut Tracer) -> Result<Self, String>;

    /// Input tuples one op processes.
    fn tuples(&self) -> u64;

    /// One op: nothing but calls into the library, each inside a span.
    fn op(&self, tr: &mut Tracer) -> Result<Self::Output, String>;

    /// Compare an op's output with the reference and return its exact
    /// statistics. Runs outside the timed region.
    fn check(&self, out: Self::Output) -> Result<Exact, String>;

    /// Simulated 200 MHz FPGA throughput in Mtuples/s of this input,
    /// given the exact statistics of a checked op.
    fn sim_mtuples_per_s(&self, exact: &Exact) -> Result<f64, String>;

    /// Layer timings taken outside the ops, for the traced run only.
    fn probes(&self) -> Vec<(&'static str, f64)>;
}
