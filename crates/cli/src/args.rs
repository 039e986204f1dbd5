//! Hand-rolled argument parsing (no CLI dependency; the surface is
//! small and the parser is fully unit-tested).

use fpart::fpga::MAX_BRAM_BITS;
use fpart::prelude::*;
use fpart_costmodel::ModePair;

/// Usage reference printed on parse errors and by `fpart help`.
pub const USAGE: &str = "\
fpart <command> [flags]

commands:
  gen         generate a relation and write it to a file
  partition   partition a generated relation and report throughput
  join        run a Table 4 join workload
  dist        run a distributed join across a simulated cluster
  select      run the streaming selection accelerator (simulated)
  groupby     run the FPGA aggregating-cache group-by (simulated)
  sort        sort a generated relation via partitioning
  model       print the Section 4.6 analytical prediction
  plan        explain what the engine planner would pick for a relation
  faults      sweep fault-injection points through the degradation chain
  trace       run one simulated partitioning and dump its observability snapshot
  help        show this text

common flags:
  --n <tuples>          relation size (partition/sort; default 1000000)
  --dist <d>            linear|random|grid|revgrid (default random)
  --seed <s>            data seed (default 42)
  --threads <t>         worker threads (default: all cores)
  --bits <b>            partition bits, 1..=20 (default 13 = 8192 partitions)

gen flags:
  --out <file>          destination (.csv suffix → CSV, else FPRT binary)

partition flags:
  --in <file>           read the relation from a file instead of generating
  --backend <b>         cpu|fpga (default cpu)
  --fn <f>              radix|murmur (default murmur)
  --mode <m>            hist/rid|hist/vrid|pad/rid|pad/vrid (fpga; default pad/rid)

join flags:
  --workload <w>        A|B|C|D|E (default A)
  --scale <f>           fraction of paper size (default 0.01)
  --backend <b>         cpu|hybrid (default cpu)
  --zipf <z>            skew the probe side (exponent >= 0)

dist flags:
  --nodes <n>           cluster size, power of two (default 4)
  --scale <f>           fraction of workload A (default 0.005)
  --net <n>             ib|10gbe (default ib)

select flags:
  --pct <p>             predicate selectivity target in percent (default 25)

groupby flags:
  --groups <g>          distinct keys to generate (default 1000)
  --zipf <z>            key skew, >= 0 (default 0.5)
  --cache-bits <b>      aggregating-cache size in bits, 1..=20 (default: sized to groups)

sort flags:
  --algo <a>            lsd|sample (default lsd)

model flags:
  --mode <m>            as above (default pad/rid)
  --gbps <g>            override link bandwidth, > 0 (flat curve)

plan flags:
  --fn <f>              radix|murmur (default murmur)
  --hybrid              let the planner consider the CPU+FPGA split engine
  --json                emit the plan explanation as JSON on stdout (stable schema)

trace flags:
  --mode <m>            hist/rid|hist/vrid|pad/rid|pad/vrid (default hist/rid)
  --fn <f>              radix|murmur (default murmur)
  --level <l>           off|counters|trace observability level (default trace)
  --json                emit the snapshot as JSON on stdout (stable schema)

faults flags:
  --sweep <k>           PAD-overflow injection points to sweep (default 8)
  --pad <p>             PAD padding per partition in tuples (default 64)
  --fault-seed <s>      seed for the background fault plan (default 7)
  --qpi <q>             QPI transients injected per pass (default 2)
  --burst <b>           worst-case CRC replay burst length (default 3)
  --policy <p>          full|hist|cpu|fail escalation policy (default full)";

/// A parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `fpart gen`.
    Gen {
        /// Tuples to generate.
        n: usize,
        /// Key distribution.
        dist: KeyDistribution,
        /// Seed.
        seed: u64,
        /// Destination path.
        out: String,
    },
    /// `fpart partition`.
    Partition {
        /// Optional input file (overrides generation).
        input: Option<String>,
        /// Tuples to generate.
        n: usize,
        /// Key distribution.
        dist: KeyDistribution,
        /// Seed.
        seed: u64,
        /// Worker threads.
        threads: usize,
        /// Partition bits.
        bits: u32,
        /// cpu or fpga.
        backend: EngineChoice,
        /// radix or murmur.
        hash: bool,
        /// FPGA mode pair.
        mode: ModePair,
    },
    /// `fpart join`.
    Join {
        /// Table 4 workload.
        workload: WorkloadId,
        /// Fraction of paper size.
        scale: f64,
        /// cpu or fpga (`hybrid`: the FPGA-partitioned join).
        backend: EngineChoice,
        /// Threads.
        threads: usize,
        /// Partition bits.
        bits: u32,
        /// Optional Zipf skew on S.
        zipf: Option<f64>,
        /// Seed.
        seed: u64,
    },
    /// `fpart dist`.
    Dist {
        /// Cluster size (power of two).
        nodes: usize,
        /// Fraction of workload A.
        scale: f64,
        /// Local partition bits per node.
        bits: u32,
        /// Threads per local join.
        threads: usize,
        /// Seed.
        seed: u64,
        /// Use InfiniBand (true) or 10 GbE (false).
        infiniband: bool,
    },
    /// `fpart select`.
    Select {
        /// Tuples to scan.
        n: usize,
        /// Selectivity target in percent.
        pct: u64,
        /// Seed.
        seed: u64,
    },
    /// `fpart groupby`.
    GroupBy {
        /// Input rows.
        n: usize,
        /// Distinct keys.
        groups: usize,
        /// Zipf skew of the key stream.
        zipf: f64,
        /// Aggregating-cache bits (None = auto).
        cache_bits: Option<u32>,
        /// Seed.
        seed: u64,
    },
    /// `fpart sort`.
    Sort {
        /// Tuples.
        n: usize,
        /// Distribution.
        dist: KeyDistribution,
        /// Seed.
        seed: u64,
        /// Threads.
        threads: usize,
        /// lsd or sample.
        lsd: bool,
    },
    /// `fpart model`.
    Model {
        /// Tuples.
        n: usize,
        /// Mode pair.
        mode: ModePair,
        /// Optional flat link bandwidth.
        gbps: Option<f64>,
    },
    /// `fpart plan`.
    Plan {
        /// Tuples.
        n: usize,
        /// Distribution.
        dist: KeyDistribution,
        /// Seed.
        seed: u64,
        /// Partition bits.
        bits: u32,
        /// Threads the CPU back-end would use.
        threads: usize,
        /// radix or murmur.
        hash: bool,
        /// Let the planner consider the CPU⊕FPGA split engine.
        hybrid: bool,
        /// Emit the explanation as JSON instead of human-readable text.
        json: bool,
    },
    /// `fpart faults`.
    Faults(FaultsArgs),
    /// `fpart trace`.
    Trace {
        /// Tuples.
        n: usize,
        /// Distribution.
        dist: KeyDistribution,
        /// Seed.
        seed: u64,
        /// Partition bits.
        bits: u32,
        /// radix or murmur.
        hash: bool,
        /// FPGA mode pair.
        mode: ModePair,
        /// Observability level for the run.
        level: ObsLevel,
        /// Emit the snapshot as JSON instead of human-readable text.
        json: bool,
    },
    /// `fpart help`.
    Help,
}

/// The flags of `fpart faults` (bundled; the flag surface is wide).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultsArgs {
    /// Tuples.
    pub n: usize,
    /// Distribution.
    pub dist: KeyDistribution,
    /// Data seed.
    pub seed: u64,
    /// Threads for the CPU reference / fallback.
    pub threads: usize,
    /// Partition bits.
    pub bits: u32,
    /// PAD padding per partition in tuples.
    pub pad: usize,
    /// Number of PAD-overflow injection points swept.
    pub sweep: usize,
    /// Seed for the background fault plan (QPI / page-table noise).
    pub fault_seed: u64,
    /// QPI transients injected per pass.
    pub qpi: u32,
    /// Worst-case CRC replay burst length.
    pub burst: u32,
    /// Escalation chain: retry an aborted PAD run in HIST mode.
    pub hist_retry: bool,
    /// Escalation chain: fall back to the CPU partitioner.
    pub cpu_fallback: bool,
}

struct Flags<'a> {
    pairs: Vec<(&'a str, &'a str)>,
}

impl<'a> Flags<'a> {
    fn parse(argv: &'a [String]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let flag = argv[i]
                .strip_prefix("--")
                .ok_or_else(|| format!("expected a --flag, got {:?}", argv[i]))?;
            let value = argv
                .get(i + 1)
                .ok_or_else(|| format!("--{flag} needs a value"))?;
            pairs.push((flag, value.as_str()));
            i += 2;
        }
        Ok(Self { pairs })
    }

    fn get(&self, name: &str) -> Option<&'a str> {
        self.pairs.iter().find(|(f, _)| *f == name).map(|(_, v)| *v)
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name}: bad value {v:?}")),
        }
    }

    /// A count flag that must be at least 1.
    fn count(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.num(name, default)? {
            0 => Err(format!("--{name} must be at least 1")),
            v => Ok(v),
        }
    }

    /// An optional finite real flag: above 0 when `positive`, else at
    /// least 0.
    fn real(&self, name: &str, positive: bool) -> Result<Option<f64>, String> {
        if self.get(name).is_none() {
            return Ok(None);
        }
        let v: f64 = self.num(name, 0.0)?;
        if v.is_finite() && (v > 0.0 || (v == 0.0 && !positive)) {
            Ok(Some(v))
        } else {
            let want = if positive { "positive" } else { "non-negative" };
            Err(format!("--{name} must be a {want} number, got {v}"))
        }
    }

    /// An optional log2 table size: 1 up to the FPGA's BRAM bound
    /// ([`MAX_BRAM_BITS`]).
    fn bits(&self, name: &str) -> Result<Option<u32>, String> {
        if self.get(name).is_none() {
            return Ok(None);
        }
        match self.num(name, 0)? {
            b if (1..=MAX_BRAM_BITS).contains(&b) => Ok(Some(b)),
            b => Err(format!("--{name} must be in 1..={MAX_BRAM_BITS}, got {b}")),
        }
    }

    fn unknown_check(&self, allowed: &[&str]) -> Result<(), String> {
        for (f, _) in &self.pairs {
            if !allowed.contains(f) {
                return Err(format!("unknown flag --{f}"));
            }
        }
        Ok(())
    }
}

fn parse_dist(v: Option<&str>) -> Result<KeyDistribution, String> {
    Ok(match v.unwrap_or("random") {
        "linear" => KeyDistribution::Linear,
        "random" => KeyDistribution::Random,
        "grid" => KeyDistribution::Grid,
        "revgrid" | "rev-grid" => KeyDistribution::ReverseGrid,
        other => return Err(format!("--dist: unknown distribution {other:?}")),
    })
}

fn parse_mode(v: Option<&str>) -> Result<ModePair, String> {
    Ok(match v.unwrap_or("pad/rid").to_ascii_lowercase().as_str() {
        "hist/rid" => ModePair::HistRid,
        "hist/vrid" => ModePair::HistVrid,
        "pad/rid" => ModePair::PadRid,
        "pad/vrid" => ModePair::PadVrid,
        other => return Err(format!("--mode: unknown mode {other:?}")),
    })
}

/// `--backend`: `cpu` (the default) or `fpga`. `hybrid` names the
/// paper's hybrid join — FPGA partitioning feeding CPU build+probe — so
/// it also parses to [`EngineChoice::Fpga`].
fn parse_backend(v: Option<&str>) -> Result<EngineChoice, String> {
    Ok(match v {
        None | Some("cpu") => EngineChoice::Cpu,
        Some("fpga") | Some("hybrid") => EngineChoice::Fpga,
        Some(other) => return Err(format!("--backend: unknown backend {other:?}")),
    })
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Parse an argv (without the program name) into a [`Command`].
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let Some((cmd, rest)) = argv.split_first() else {
        return Err("missing command".into());
    };
    // `--json` (trace, plan) and `--hybrid` (plan) are the only
    // valueless flags in the surface; strip them before the pair-wise
    // parse.
    let json = (cmd == "trace" || cmd == "plan") && rest.iter().any(|a| a == "--json");
    let hybrid = cmd == "plan" && rest.iter().any(|a| a == "--hybrid");
    let filtered: Vec<String>;
    let rest: &[String] = if json || hybrid {
        filtered = rest
            .iter()
            .filter(|a| *a != "--json" && *a != "--hybrid")
            .cloned()
            .collect();
        &filtered
    } else {
        rest
    };
    let flags = Flags::parse(rest)?;
    match cmd.as_str() {
        "gen" => {
            flags.unknown_check(&["n", "dist", "seed", "out"])?;
            Ok(Command::Gen {
                n: flags.num("n", 1_000_000)?,
                dist: parse_dist(flags.get("dist"))?,
                seed: flags.num("seed", 42)?,
                out: flags
                    .get("out")
                    .ok_or_else(|| "gen requires --out <file>".to_string())?
                    .to_string(),
            })
        }
        "partition" => {
            flags.unknown_check(&[
                "n", "dist", "seed", "threads", "bits", "backend", "fn", "mode", "in",
            ])?;
            Ok(Command::Partition {
                input: flags.get("in").map(str::to_string),
                n: flags.num("n", 1_000_000)?,
                dist: parse_dist(flags.get("dist"))?,
                seed: flags.num("seed", 42)?,
                threads: flags.count("threads", default_threads())?,
                bits: flags.bits("bits")?.unwrap_or(13),
                backend: parse_backend(flags.get("backend"))?,
                hash: match flags.get("fn").unwrap_or("murmur") {
                    "murmur" | "hash" => true,
                    "radix" => false,
                    other => return Err(format!("--fn: unknown function {other:?}")),
                },
                mode: parse_mode(flags.get("mode"))?,
            })
        }
        "join" => {
            flags.unknown_check(&[
                "workload", "scale", "backend", "threads", "bits", "zipf", "seed",
            ])?;
            let workload = match flags.get("workload").unwrap_or("A") {
                "A" | "a" => WorkloadId::A,
                "B" | "b" => WorkloadId::B,
                "C" | "c" => WorkloadId::C,
                "D" | "d" => WorkloadId::D,
                "E" | "e" => WorkloadId::E,
                other => return Err(format!("--workload: unknown workload {other:?}")),
            };
            Ok(Command::Join {
                workload,
                scale: flags.real("scale", true)?.unwrap_or(0.01),
                backend: parse_backend(flags.get("backend"))?,
                threads: flags.count("threads", default_threads())?,
                bits: flags.bits("bits")?.unwrap_or(13),
                zipf: flags.real("zipf", false)?,
                seed: flags.num("seed", 42)?,
            })
        }
        "dist" => {
            flags.unknown_check(&["nodes", "scale", "bits", "threads", "seed", "net"])?;
            let nodes: usize = flags.num("nodes", 4)?;
            if !nodes.is_power_of_two() {
                return Err("--nodes must be a power of two".into());
            }
            Ok(Command::Dist {
                nodes,
                scale: flags.real("scale", true)?.unwrap_or(0.005),
                bits: flags.bits("bits")?.unwrap_or(8),
                threads: flags.count("threads", default_threads())?,
                seed: flags.num("seed", 42)?,
                infiniband: match flags.get("net").unwrap_or("ib") {
                    "ib" | "infiniband" => true,
                    "10gbe" | "gbe" => false,
                    other => return Err(format!("--net: unknown network {other:?}")),
                },
            })
        }
        "select" => {
            flags.unknown_check(&["n", "pct", "seed"])?;
            let pct: u64 = flags.num("pct", 25)?;
            if pct > 100 {
                return Err("--pct must be 0..=100".into());
            }
            Ok(Command::Select {
                n: flags.num("n", 1_000_000)?,
                pct,
                seed: flags.num("seed", 42)?,
            })
        }
        "groupby" => {
            flags.unknown_check(&["n", "groups", "zipf", "cache-bits", "seed"])?;
            Ok(Command::GroupBy {
                n: flags.count("n", 1_000_000)?,
                groups: flags.count("groups", 1000)?,
                zipf: flags.real("zipf", false)?.unwrap_or(0.5),
                cache_bits: flags.bits("cache-bits")?,
                seed: flags.num("seed", 42)?,
            })
        }
        "sort" => {
            flags.unknown_check(&["n", "dist", "seed", "threads", "algo"])?;
            Ok(Command::Sort {
                n: flags.num("n", 1_000_000)?,
                dist: parse_dist(flags.get("dist"))?,
                seed: flags.num("seed", 42)?,
                threads: flags.count("threads", default_threads())?,
                lsd: match flags.get("algo").unwrap_or("lsd") {
                    "lsd" | "radix" => true,
                    "sample" => false,
                    other => return Err(format!("--algo: unknown algorithm {other:?}")),
                },
            })
        }
        "model" => {
            flags.unknown_check(&["n", "mode", "gbps"])?;
            Ok(Command::Model {
                n: flags.num("n", 128_000_000)?,
                mode: parse_mode(flags.get("mode"))?,
                gbps: flags.real("gbps", true)?,
            })
        }
        "plan" => {
            flags.unknown_check(&["n", "dist", "seed", "bits", "threads", "fn"])?;
            Ok(Command::Plan {
                n: flags.num("n", 1_000_000)?,
                dist: parse_dist(flags.get("dist"))?,
                seed: flags.num("seed", 42)?,
                bits: flags.bits("bits")?.unwrap_or(13),
                threads: flags.count("threads", default_threads())?,
                hash: match flags.get("fn").unwrap_or("murmur") {
                    "murmur" | "hash" => true,
                    "radix" => false,
                    other => return Err(format!("--fn: unknown function {other:?}")),
                },
                hybrid,
                json,
            })
        }
        "faults" => {
            flags.unknown_check(&[
                "n",
                "dist",
                "seed",
                "threads",
                "bits",
                "pad",
                "sweep",
                "fault-seed",
                "qpi",
                "burst",
                "policy",
            ])?;
            let (hist_retry, cpu_fallback) = match flags.get("policy").unwrap_or("full") {
                "full" | "chain" => (true, true),
                "hist" => (true, false),
                "cpu" => (false, true),
                "fail" => (false, false),
                other => return Err(format!("--policy: unknown policy {other:?}")),
            };
            Ok(Command::Faults(FaultsArgs {
                n: flags.num("n", 65_536)?,
                dist: parse_dist(flags.get("dist"))?,
                seed: flags.num("seed", 42)?,
                threads: flags.count("threads", default_threads())?,
                bits: flags.bits("bits")?.unwrap_or(6),
                pad: flags.num("pad", 64)?,
                sweep: flags.count("sweep", 8)?,
                fault_seed: flags.num("fault-seed", 7)?,
                qpi: flags.num("qpi", 2)?,
                burst: flags.num("burst", 3)?,
                hist_retry,
                cpu_fallback,
            }))
        }
        "trace" => {
            flags.unknown_check(&["n", "dist", "seed", "bits", "fn", "mode", "level"])?;
            Ok(Command::Trace {
                n: flags.num("n", 65_536)?,
                dist: parse_dist(flags.get("dist"))?,
                seed: flags.num("seed", 42)?,
                bits: flags.bits("bits")?.unwrap_or(6),
                hash: match flags.get("fn").unwrap_or("murmur") {
                    "murmur" | "hash" => true,
                    "radix" => false,
                    other => return Err(format!("--fn: unknown function {other:?}")),
                },
                mode: parse_mode(Some(flags.get("mode").unwrap_or("hist/rid")))?,
                level: match flags.get("level") {
                    None => ObsLevel::Trace,
                    Some(v) => {
                        ObsLevel::parse(v).ok_or_else(|| format!("--level: unknown level {v:?}"))?
                    }
                },
                json,
            })
        }
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(format!("unknown command {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn partition_defaults() {
        let cmd = parse(&argv("partition")).unwrap();
        match cmd {
            Command::Partition {
                n,
                bits,
                backend,
                hash,
                mode,
                ..
            } => {
                assert_eq!(n, 1_000_000);
                assert_eq!(bits, 13);
                assert_eq!(backend, EngineChoice::Cpu);
                assert!(hash);
                assert_eq!(mode, ModePair::PadRid);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn fpga_partition_with_mode() {
        let cmd = parse(&argv(
            "partition --backend fpga --mode hist/vrid --n 4096 --bits 6 --fn radix",
        ))
        .unwrap();
        match cmd {
            Command::Partition {
                backend,
                mode,
                hash,
                n,
                bits,
                ..
            } => {
                assert_eq!(backend, EngineChoice::Fpga);
                assert_eq!(mode, ModePair::HistVrid);
                assert!(!hash);
                assert_eq!((n, bits), (4096, 6));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn join_with_zipf() {
        let cmd = parse(&argv("join --workload E --zipf 1.25 --backend hybrid")).unwrap();
        match cmd {
            Command::Join {
                workload,
                zipf,
                backend,
                ..
            } => {
                assert_eq!(workload, WorkloadId::E);
                assert_eq!(zipf, Some(1.25));
                assert_eq!(backend, EngineChoice::Fpga);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse(&argv("")).is_err());
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("partition --bogus 1")).is_err());
        assert!(parse(&argv("partition --n")).is_err());
        assert!(parse(&argv("partition --n abc")).is_err());
        assert!(parse(&argv("join --workload Z")).is_err());
        assert!(parse(&argv("partition --mode pad/xyz")).is_err());
        // Boundary values that reached a datagen assert or ran with zero
        // workers.
        for bad in [
            "join --scale 0",
            "join --scale -0.5",
            "join --scale nan",
            "join --scale inf",
            "dist --scale 0",
            "dist --scale -1",
            "groupby --groups 0",
            "partition --threads 0",
            "join --threads 0",
            "dist --threads 0",
            "sort --threads 0",
            "plan --threads 0",
            "faults --threads 0",
            // Inputs that panicked, tripped a library assert or aborted
            // on a huge allocation.
            "groupby --n 0",
            "groupby --cache-bits 40",
            "groupby --cache-bits 0",
            "join --zipf -1",
            "join --zipf nan",
            "join --zipf inf",
            "groupby --zipf -1",
            "groupby --zipf nan",
            "partition --bits 31",
            "partition --bits 0",
            "join --bits 31",
            "dist --bits 30",
            "plan --bits 21",
            "trace --bits 21",
            "faults --bits 21",
            "model --gbps 0",
            "model --gbps -1",
            "model --gbps nan",
        ] {
            assert!(parse(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn help_and_model() {
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        let cmd = parse(&argv("model --mode pad/vrid --gbps 25.6")).unwrap();
        match cmd {
            Command::Model { mode, gbps, n } => {
                assert_eq!(mode, ModePair::PadVrid);
                assert_eq!(gbps, Some(25.6));
                assert_eq!(n, 128_000_000);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn faults_defaults_and_flags() {
        let cmd = parse(&argv("faults")).unwrap();
        match cmd {
            Command::Faults(FaultsArgs {
                n,
                sweep,
                pad,
                fault_seed,
                qpi,
                burst,
                hist_retry,
                cpu_fallback,
                ..
            }) => {
                assert_eq!(n, 65_536);
                assert_eq!(sweep, 8);
                assert_eq!(pad, 64);
                assert_eq!(fault_seed, 7);
                assert_eq!((qpi, burst), (2, 3));
                assert!(hist_retry && cpu_fallback);
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse(&argv(
            "faults --sweep 4 --pad 0 --policy cpu --fault-seed 99 --burst 10",
        ))
        .unwrap();
        match cmd {
            Command::Faults(FaultsArgs {
                sweep,
                pad,
                hist_retry,
                cpu_fallback,
                fault_seed,
                burst,
                ..
            }) => {
                assert_eq!((sweep, pad), (4, 0));
                assert!(!hist_retry && cpu_fallback);
                assert_eq!((fault_seed, burst), (99, 10));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn faults_rejects_bad_flags() {
        assert!(parse(&argv("faults --sweep 0")).is_err());
        assert!(parse(&argv("faults --policy never")).is_err());
        assert!(parse(&argv("faults --gbps 1.0")).is_err());
    }

    #[test]
    fn trace_defaults_and_flags() {
        let cmd = parse(&argv("trace")).unwrap();
        match cmd {
            Command::Trace {
                n,
                bits,
                mode,
                level,
                json,
                ..
            } => {
                assert_eq!(n, 65_536);
                assert_eq!(bits, 6);
                assert_eq!(mode, ModePair::HistRid);
                assert_eq!(level, ObsLevel::Trace);
                assert!(!json);
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse(&argv(
            "trace --json --n 1000 --mode pad/vrid --level counters --fn radix",
        ))
        .unwrap();
        match cmd {
            Command::Trace {
                n,
                mode,
                level,
                json,
                hash,
                ..
            } => {
                assert_eq!(n, 1000);
                assert_eq!(mode, ModePair::PadVrid);
                assert_eq!(level, ObsLevel::Counters);
                assert!(json);
                assert!(!hash);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn trace_rejects_bad_flags() {
        assert!(parse(&argv("trace --level verbose")).is_err());
        assert!(parse(&argv("trace --sweep 2")).is_err());
        // --json is only valueless under trace and plan.
        assert!(parse(&argv("partition --json")).is_err());
        // --hybrid is only valueless under plan.
        assert!(parse(&argv("trace --hybrid")).is_err());
    }

    #[test]
    fn plan_defaults_and_flags() {
        let cmd = parse(&argv("plan")).unwrap();
        match cmd {
            Command::Plan {
                n,
                bits,
                hash,
                hybrid,
                json,
                ..
            } => {
                assert_eq!(n, 1_000_000);
                assert_eq!(bits, 13);
                assert!(hash);
                assert!(!hybrid);
                assert!(!json);
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse(&argv(
            "plan --json --hybrid --n 4096 --bits 6 --threads 4 --fn radix",
        ))
        .unwrap();
        match cmd {
            Command::Plan {
                n,
                bits,
                threads,
                hash,
                hybrid,
                json,
                ..
            } => {
                assert_eq!((n, bits, threads), (4096, 6, 4));
                assert!(!hash);
                assert!(hybrid);
                assert!(json);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sort_algorithms() {
        assert!(matches!(
            parse(&argv("sort --algo sample")).unwrap(),
            Command::Sort { lsd: false, .. }
        ));
        assert!(matches!(
            parse(&argv("sort")).unwrap(),
            Command::Sort { lsd: true, .. }
        ));
    }
}

#[cfg(test)]
mod dist_tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn dist_defaults_and_flags() {
        let cmd = parse(&argv("dist")).unwrap();
        assert!(matches!(
            cmd,
            Command::Dist {
                nodes: 4,
                infiniband: true,
                ..
            }
        ));
        let cmd = parse(&argv("dist --nodes 8 --net 10gbe --scale 0.01")).unwrap();
        match cmd {
            Command::Dist {
                nodes,
                infiniband,
                scale,
                ..
            } => {
                assert_eq!(nodes, 8);
                assert!(!infiniband);
                assert_eq!(scale, 0.01);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn dist_rejects_bad_cluster() {
        assert!(parse(&argv("dist --nodes 3")).is_err());
        assert!(parse(&argv("dist --net token-ring")).is_err());
    }
}

#[cfg(test)]
mod gen_tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn gen_requires_out() {
        assert!(parse(&argv("gen")).is_err());
        let cmd = parse(&argv("gen --n 5 --out /tmp/x.fprt")).unwrap();
        assert!(matches!(cmd, Command::Gen { n: 5, .. }));
    }

    #[test]
    fn partition_accepts_input_file() {
        let cmd = parse(&argv("partition --in /tmp/x.fprt --bits 6")).unwrap();
        match cmd {
            Command::Partition { input, bits, .. } => {
                assert_eq!(input.as_deref(), Some("/tmp/x.fprt"));
                assert_eq!(bits, 6);
            }
            other => panic!("{other:?}"),
        }
    }
}
