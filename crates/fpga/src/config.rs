//! Configuration of the partitioner circuit (Section 4.5's two binary
//! parameters, plus synthesis-time knobs).

use fpart_hash::PartitionFn;
use fpart_types::{FpartError, Input, Result, Tuple};

/// Largest log2 size of an on-chip table the BRAM budget holds: 2^20
/// partitions for the partitioner's fill counters, or 2^20 slots for the
/// aggregating cache.
pub const MAX_BRAM_BITS: u32 = 20;

pub use fpart_obs::ObsLevel;

/// How the output is formatted (first binary parameter of Section 4.5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OutputMode {
    /// Histogram building mode: a first pass builds a histogram in BRAM
    /// (nothing is written back), a second pass scatters tuples using the
    /// prefix sum. Minimal intermediate memory; robust against any skew.
    Hist,
    /// Padding mode: each partition is preassigned
    /// `#Tuples/#Partitions + padding` slots and the data is scattered in
    /// a single pass. Overflow aborts with
    /// [`FpartError::PartitionOverflow`].
    Pad {
        /// How much padding each partition gets beyond the mean fill.
        padding: PaddingSpec,
    },
}

impl OutputMode {
    /// PAD mode with the default padding.
    pub fn pad_default() -> Self {
        Self::Pad {
            padding: PaddingSpec::default(),
        }
    }

    /// The paper's `f_mode` factor (Table 3): HIST scans the data twice.
    pub fn f_mode(self) -> f64 {
        match self {
            Self::Hist => 2.0,
            Self::Pad { .. } => 1.0,
        }
    }

    /// Short label for reports ("HIST" / "PAD").
    pub fn label(self) -> &'static str {
        match self {
            Self::Hist => "HIST",
            Self::Pad { .. } => "PAD",
        }
    }
}

/// Padding for PAD mode, resolved against the mean partition fill.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PaddingSpec {
    /// Extra capacity as a fraction of the mean fill (`0.15` = 15 %).
    Fraction(f64),
    /// Extra capacity as an absolute tuple count.
    Tuples(usize),
}

impl PaddingSpec {
    /// Resolve to a per-partition capacity in tuples for `n` tuples over
    /// `parts` partitions.
    ///
    /// The fractional padding is floored at `6·√mean + 2·lanes²`: the
    /// first term covers the binomial fill deviation of an unskewed
    /// workload (≈6σ) so small-scale runs do not spuriously overflow, the
    /// second covers flush dummy padding and per-combiner cache-line
    /// rounding. [`PaddingSpec::Tuples`] is taken literally (plus the
    /// structural `2·lanes²` term), so tests can force overflows.
    pub fn capacity(self, n: usize, parts: usize, lanes: usize) -> usize {
        let mean = n.div_ceil(parts);
        let structural = 2 * lanes * lanes;
        let pad = match self {
            Self::Fraction(f) => {
                let frac = ((mean as f64) * f).ceil() as usize;
                let statistical = (6.0 * (mean as f64).sqrt()).ceil() as usize;
                frac.max(statistical)
            }
            Self::Tuples(t) => t,
        };
        mean + pad + structural
    }
}

impl Default for PaddingSpec {
    /// 15 % of the mean fill — "realistic padding" that survives Zipf
    /// 0.25 but fails beyond it (Section 5.4), verified experimentally in
    /// this reproduction's figure-13 harness.
    fn default() -> Self {
        Self::Fraction(0.15)
    }
}

/// Row-store vs column-store input (second binary parameter of
/// Section 4.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputMode {
    /// Record-ID mode: tuples reside in memory as `<key, payload>`.
    Rid,
    /// Virtual-record-ID mode: the FPGA reads only the key column and
    /// appends the key's position as the payload; per input cache line the
    /// circuit internally generates `key_expansion` tuple lines.
    Vrid,
}

impl InputMode {
    /// The mode that reads `input`: RID for a row store, VRID for a
    /// column store, plain or run-length encoded.
    pub fn of<T: Tuple>(input: &Input<'_, T>) -> Self {
        match input {
            Input::Rows(_) => Self::Rid,
            Input::Columns { .. } | Input::Rle { .. } => Self::Vrid,
        }
    }

    /// Short label for reports ("RID" / "VRID").
    pub fn label(self) -> &'static str {
        match self {
            Self::Rid => "RID",
            Self::Vrid => "VRID",
        }
    }
}

/// How faithfully the simulator executes a run.
///
/// The circuit itself is deterministic and fully pipelined, so its
/// *functional* output and its *cycle count* can be computed separately:
/// the batched fidelity models the write combiners' counts, moves the
/// tuples with a software write-combining scatter and derives cycles
/// analytically from the QPI token-bucket model,
/// instead of ticking every module once per simulated clock. Differential
/// tests (`crates/fpga/tests/fastpath_equivalence.rs` and
/// `tests/fault_equivalence.rs`) pin the two fidelities to
/// identical partition contents, closely bounded cycle counts and the
/// same outcome of every fault plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimFidelity {
    /// Tick every pipeline stage once per simulated FPGA clock: the
    /// reference model, for where per-cycle behaviour is the output —
    /// exact port counters, lane-FIFO occupancy and the
    /// `scatter/interval` utilisation trace (`fpart trace`). Throughput:
    /// roughly one simulated cache line per microsecond of host time.
    CycleAccurate,
    /// Execute the datapath functionally from per-(lane, partition)
    /// counts and fast-forward the QPI clock analytically
    /// ([`fpart_hwsim::QpiConfig::link_cycles`]). Orders of magnitude
    /// faster; identical partition multisets; cycle counts within the
    /// warm-up/drain slack of cycle-accurate. An armed fault plan runs
    /// here too, with the ticked engine's outcome.
    #[default]
    Batched,
}

/// Depth of the first-stage FIFOs after the hash modules; their free
/// slots throttle read requests (Section 4.3).
pub(crate) const FIFO_CAPACITY: usize = 64;

/// Depth of each write combiner's output FIFO.
pub(crate) const OUT_FIFO_CAPACITY: usize = 8;

// First-stage FIFOs need 4 slots to cover the read latency. The
// combiner's accept threshold reserves 4 output slots for its in-flight
// stages (see `WriteCombiner::can_accept`); a smaller output FIFO could
// never accept a tuple and the pipeline would deadlock.
const _: () = assert!(FIFO_CAPACITY >= 4 && OUT_FIFO_CAPACITY >= 4);

/// Mode label like "HIST/RID" as used in Figure 9.
pub fn mode_label(output: OutputMode, input: InputMode) -> String {
    format!("{}/{}", output.label(), input.label())
}

/// Full configuration of one partitioner instantiation.
#[derive(Debug, Clone)]
pub struct PartitionerConfig {
    /// Radix or hash partitioning and the fan-out (Section 4.1: either
    /// "murmur hashing or a radix-bit operation").
    pub partition_fn: PartitionFn,
    /// HIST or PAD output formatting.
    pub output: OutputMode,
    /// RID or VRID input.
    pub input: InputMode,
    /// Batched (the default) or cycle-accurate simulation (a harness
    /// knob, not a property of the modelled hardware — both fidelities
    /// describe the same circuit).
    pub fidelity: SimFidelity,
    /// Observability level. At [`ObsLevel::Off`] (the default) the run
    /// still publishes exact end-of-run totals into its snapshot, but no
    /// per-cycle counting happens.
    pub obs: ObsLevel,
}

impl PartitionerConfig {
    /// The paper's default evaluation configuration for a given mode pair:
    /// murmur hashing, 8192 partitions.
    pub fn paper_default(output: OutputMode, input: InputMode) -> Self {
        Self {
            partition_fn: PartitionFn::Murmur {
                bits: fpart_hash::PAPER_PARTITION_BITS,
            },
            output,
            input,
            fidelity: SimFidelity::default(),
            obs: ObsLevel::default(),
        }
    }

    /// This configuration with the given simulation fidelity (builder
    /// style): `SimFidelity::CycleAccurate` is the one way into the tick
    /// loop.
    pub fn with_fidelity(mut self, fidelity: SimFidelity) -> Self {
        self.fidelity = fidelity;
        self
    }

    /// This configuration with the given observability level (builder
    /// style — `fpart trace` and the observability suite turn it up).
    pub fn with_obs(mut self, obs: ObsLevel) -> Self {
        self.obs = obs;
        self
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.partition_fn.fan_out()
    }

    /// Validate synthesis constraints.
    pub fn validate(&self) -> Result<()> {
        let bits = self.partition_fn.bits();
        if !(1..=MAX_BRAM_BITS).contains(&bits) {
            return Err(FpartError::InvalidConfig(format!(
                "partition bits must be in 1..={MAX_BRAM_BITS} (BRAM budget), got {bits}"
            )));
        }
        Ok(())
    }

    /// This configuration's [`mode_label`].
    pub fn mode_label(&self) -> String {
        mode_label(self.output, self.input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f_mode_matches_table3() {
        assert_eq!(OutputMode::Hist.f_mode(), 2.0);
        assert_eq!(OutputMode::pad_default().f_mode(), 1.0);
    }

    #[test]
    fn padding_capacity_resolution() {
        // mean = 100: fractional 15 is floored at the 6·√100 = 60
        // statistical term, plus structural 2·2² = 8.
        let cap = PaddingSpec::Fraction(0.15).capacity(10_000, 100, 2);
        assert_eq!(cap, 100 + 60 + 8);
        // Large means: the fraction dominates. mean = 100_000 → 15 000 >
        // 6·316 ≈ 1898.
        let cap = PaddingSpec::Fraction(0.15).capacity(100_000 * 100, 100, 2);
        assert_eq!(cap, 100_000 + 15_000 + 8);
        // Absolute padding is literal (plus structural).
        let cap = PaddingSpec::Tuples(50).capacity(10_000, 100, 2);
        assert_eq!(cap, 100 + 50 + 8);
        let cap = PaddingSpec::Tuples(0).capacity(800, 100, 8);
        assert_eq!(cap, 8 + 128);
    }

    #[test]
    fn paper_default_is_8192_murmur() {
        let cfg = PartitionerConfig::paper_default(OutputMode::Hist, InputMode::Rid);
        assert_eq!(cfg.partitions(), 8192);
        assert!(cfg.partition_fn.is_hash());
        assert_eq!(cfg.mode_label(), "HIST/RID");
        cfg.validate().unwrap();
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut cfg = PartitionerConfig::paper_default(OutputMode::Hist, InputMode::Rid);
        cfg.partition_fn = PartitionFn::Radix { bits: 25 };
        assert!(cfg.validate().is_err());
    }
}
