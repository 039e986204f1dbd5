//! Hand-rolled argument parsing (no CLI dependency). One table,
//! [`FLAGS`], states every flag once: the commands that take it, its
//! value, its default and its help. The help text, the unknown-flag
//! check, the switches and every default are read from it; [`parse`]
//! then validates each value and builds the command's argument struct.

use fpart::fpga::MAX_BRAM_BITS;
use fpart::prelude::*;

/// Every command and what it does, in help order.
#[rustfmt::skip]
const COMMANDS: &[(&str, &str)] = &[
    ("gen", "generate a relation and write it to a file"),
    ("partition", "partition a generated relation and report throughput"),
    ("join", "run a Table 4 join workload"),
    ("dist", "run a distributed join across a simulated cluster"),
    ("select", "run the streaming selection accelerator (simulated)"),
    ("groupby", "run the FPGA aggregating-cache group-by (simulated)"),
    ("sort", "sort a generated relation via partitioning"),
    ("model", "print the Section 4.6 analytical prediction"),
    ("plan", "explain what the engine planner would pick for a relation"),
    ("faults", "sweep fault-injection points through the degradation chain"),
    ("trace", "run one simulated partitioning and dump its observability snapshot"),
    ("help", "show this text"),
];

/// One row of [`FLAGS`].
struct Flag {
    /// The flag without its `--`.
    name: &'static str,
    /// The commands that take the flag with this row's default.
    commands: &'static [&'static str],
    /// The value placeholder; empty for a switch.
    value: &'static str,
    /// The default as printed; empty when the flag is optional or required.
    default: &'static str,
    help: &'static str,
}

/// The printed default of `--threads`, which the parser computes.
const ALL_CORES: &str = "all cores";

/// Every flag of every command. A flag whose default differs between
/// commands has one row per default.
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    Flag { name: "n",          commands: &["gen", "partition", "select", "groupby", "sort", "plan"], value: "tuples", default: "1000000",   help: "relation size" },
    Flag { name: "n",          commands: &["faults", "trace"],                                       value: "tuples", default: "65536",     help: "relation size" },
    Flag { name: "n",          commands: &["model"],                                                 value: "tuples", default: "128000000", help: "relation size" },
    Flag { name: "dist",       commands: &["gen", "partition", "sort", "plan", "faults", "trace"],   value: "d",      default: "random",    help: "linear|random|grid|revgrid" },
    Flag { name: "seed",       commands: &["gen", "partition", "join", "dist", "select", "groupby", "sort", "plan", "faults", "trace"], value: "s",      default: "42",        help: "data seed" },
    Flag { name: "threads",    commands: &["partition", "join", "dist", "sort", "plan", "faults"],   value: "t",      default: ALL_CORES,   help: "worker threads" },
    Flag { name: "bits",       commands: &["partition", "join", "plan"],                             value: "b",      default: "13",        help: "partition bits, 1..=20; 2^b partitions" },
    Flag { name: "bits",       commands: &["dist"],                                                  value: "b",      default: "8",         help: "partition bits, 1..=20; 2^b partitions" },
    Flag { name: "bits",       commands: &["faults", "trace"],                                       value: "b",      default: "6",         help: "partition bits, 1..=20; 2^b partitions" },
    Flag { name: "out",        commands: &["gen"],                                                   value: "file",   default: "",          help: "destination, required (.csv suffix → CSV, else FPRT binary)" },
    Flag { name: "in",         commands: &["partition"],                                             value: "file",   default: "",          help: "read the relation from a file instead of generating" },
    Flag { name: "backend",    commands: &["partition", "join"],                                     value: "b",      default: "cpu",       help: "cpu|fpga|hybrid; hybrid is the paper's hybrid join (FPGA partitioning, CPU build+probe), i.e. fpga" },
    Flag { name: "fn",         commands: &["partition", "plan", "trace"],                            value: "f",      default: "murmur",    help: "radix|murmur" },
    Flag { name: "mode",       commands: &["partition", "model"],                                    value: "m",      default: "pad/rid",   help: "FPGA mode: hist/rid|hist/vrid|pad/rid|pad/vrid" },
    Flag { name: "mode",       commands: &["trace"],                                                 value: "m",      default: "hist/rid",  help: "FPGA mode: hist/rid|hist/vrid|pad/rid|pad/vrid" },
    Flag { name: "workload",   commands: &["join"],                                                  value: "w",      default: "A",         help: "A|B|C|D|E" },
    Flag { name: "scale",      commands: &["join"],                                                  value: "f",      default: "0.01",      help: "fraction of paper size" },
    Flag { name: "scale",      commands: &["dist"],                                                  value: "f",      default: "0.005",     help: "fraction of workload A" },
    Flag { name: "zipf",       commands: &["join"],                                                  value: "z",      default: "",          help: "skew the probe side (exponent >= 0)" },
    Flag { name: "zipf",       commands: &["groupby"],                                               value: "z",      default: "0.5",       help: "key skew, >= 0" },
    Flag { name: "nodes",      commands: &["dist"],                                                  value: "n",      default: "4",         help: "cluster size, power of two" },
    Flag { name: "net",        commands: &["dist"],                                                  value: "n",      default: "ib",        help: "ib|10gbe" },
    Flag { name: "pct",        commands: &["select"],                                                value: "p",      default: "25",        help: "predicate selectivity target in percent" },
    Flag { name: "groups",     commands: &["groupby"],                                               value: "g",      default: "1000",      help: "distinct keys to generate" },
    Flag { name: "cache-bits", commands: &["groupby"],                                               value: "b",      default: "",          help: "aggregating-cache size in bits, 1..=20; sized to groups when absent" },
    Flag { name: "algo",       commands: &["sort"],                                                  value: "a",      default: "lsd",       help: "lsd|sample" },
    Flag { name: "gbps",       commands: &["model"],                                                 value: "g",      default: "",          help: "override link bandwidth, > 0 (flat curve)" },
    Flag { name: "hybrid",     commands: &["plan"],                                                  value: "",       default: "",          help: "let the planner consider the CPU+FPGA split engine" },
    Flag { name: "json",       commands: &["plan"],                                                  value: "",       default: "",          help: "emit the plan explanation as JSON on stdout (stable schema)" },
    Flag { name: "json",       commands: &["trace"],                                                 value: "",       default: "",          help: "emit the snapshot as JSON on stdout (stable schema)" },
    Flag { name: "level",      commands: &["trace"],                                                 value: "l",      default: "trace",     help: "off|counters|trace observability level" },
    Flag { name: "sweep",      commands: &["faults"],                                                value: "k",      default: "8",         help: "PAD-overflow injection points to sweep" },
    Flag { name: "pad",        commands: &["faults"],                                                value: "p",      default: "64",        help: "PAD padding per partition in tuples" },
    Flag { name: "fault-seed", commands: &["faults"],                                                value: "s",      default: "7",         help: "seed for the background fault plan" },
    Flag { name: "qpi",        commands: &["faults"],                                                value: "q",      default: "2",         help: "QPI transients injected per pass" },
    Flag { name: "burst",      commands: &["faults"],                                                value: "b",      default: "3",         help: "worst-case CRC replay burst length" },
    Flag { name: "policy",     commands: &["faults"],                                                value: "p",      default: "full",      help: "full|hist|cpu|fail escalation policy" },
];

/// The row of `--name` for `cmd`, if `cmd` takes it.
fn row(cmd: &str, name: &str) -> Option<&'static Flag> {
    FLAGS
        .iter()
        .find(|f| f.name == name && f.commands.contains(&cmd))
}

/// The help text, printed by `fpart help` and on parse errors: every
/// command, then each command's flags with the defaults it uses.
pub fn usage() -> String {
    let mut s = String::from("fpart <command> [flags]\n\ncommands:\n");
    for (cmd, what) in COMMANDS {
        s.push_str(&format!("  {cmd:<11} {what}\n"));
    }
    for (cmd, _) in COMMANDS {
        let mut rows = FLAGS.iter().filter(|f| f.commands.contains(cmd)).peekable();
        if rows.peek().is_some() {
            s.push_str(&format!("\n{cmd} flags:\n"));
        }
        for f in rows {
            let name = match f.value {
                "" => format!("--{}", f.name),
                v => format!("--{} <{v}>", f.name),
            };
            let default = match f.default {
                "" => String::new(),
                d => format!(" (default {d})"),
            };
            s.push_str(&format!("  {name:<21} {}{default}\n", f.help));
        }
    }
    s
}

/// `fpart gen`. Each field of an argument struct is the flag of its
/// name in [`FLAGS`], unless its doc names another.
#[derive(Debug, Clone, PartialEq)]
pub struct GenArgs {
    pub n: usize,
    pub dist: KeyDistribution,
    pub seed: u64,
    pub out: String,
}

/// `fpart partition`.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionArgs {
    /// `--in`: the file to read instead of generating.
    pub input: Option<String>,
    pub n: usize,
    pub dist: KeyDistribution,
    pub seed: u64,
    pub threads: usize,
    pub bits: u32,
    pub backend: EngineChoice,
    /// `--fn`: murmur (true) or radix.
    pub hash: bool,
    pub mode: (OutputMode, InputMode),
}

/// `fpart join`.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinArgs {
    pub workload: WorkloadId,
    pub scale: f64,
    pub backend: EngineChoice,
    pub threads: usize,
    pub bits: u32,
    pub zipf: Option<f64>,
    pub seed: u64,
}

/// `fpart dist`.
#[derive(Debug, Clone, PartialEq)]
pub struct DistArgs {
    pub nodes: usize,
    pub scale: f64,
    pub bits: u32,
    pub threads: usize,
    pub seed: u64,
    /// `--net`: InfiniBand (true) or 10 GbE.
    pub infiniband: bool,
}

/// `fpart select`.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectArgs {
    pub n: usize,
    pub pct: u64,
    pub seed: u64,
}

/// `fpart groupby`.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupByArgs {
    pub n: usize,
    pub groups: usize,
    pub zipf: f64,
    pub cache_bits: Option<u32>,
    pub seed: u64,
}

/// `fpart sort`.
#[derive(Debug, Clone, PartialEq)]
pub struct SortArgs {
    pub n: usize,
    pub dist: KeyDistribution,
    pub seed: u64,
    pub threads: usize,
    /// `--algo`: LSD radix (true) or sample sort.
    pub lsd: bool,
}

/// `fpart model`.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelArgs {
    pub n: usize,
    pub mode: (OutputMode, InputMode),
    pub gbps: Option<f64>,
}

/// `fpart plan`.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanArgs {
    pub n: usize,
    pub dist: KeyDistribution,
    pub seed: u64,
    pub bits: u32,
    pub threads: usize,
    /// `--fn`: murmur (true) or radix.
    pub hash: bool,
    pub hybrid: bool,
    pub json: bool,
}

/// `fpart faults`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultsArgs {
    pub n: usize,
    pub dist: KeyDistribution,
    pub seed: u64,
    pub threads: usize,
    pub bits: u32,
    pub pad: usize,
    pub sweep: usize,
    pub fault_seed: u64,
    pub qpi: u32,
    pub burst: u32,
    /// `--policy`: retry an aborted PAD run in HIST mode.
    pub hist_retry: bool,
    /// `--policy`: fall back to the CPU partitioner.
    pub cpu_fallback: bool,
}

/// `fpart trace`.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceArgs {
    pub n: usize,
    pub dist: KeyDistribution,
    pub seed: u64,
    pub bits: u32,
    /// `--fn`: murmur (true) or radix.
    pub hash: bool,
    pub mode: (OutputMode, InputMode),
    pub level: ObsLevel,
    pub json: bool,
}

/// A parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    Gen(GenArgs),
    Partition(PartitionArgs),
    Join(JoinArgs),
    Dist(DistArgs),
    Select(SelectArgs),
    GroupBy(GroupByArgs),
    Sort(SortArgs),
    Model(ModelArgs),
    Plan(PlanArgs),
    Faults(FaultsArgs),
    Trace(TraceArgs),
    Help,
}

/// One command's flags as given, each checked against [`FLAGS`].
struct Flags<'a> {
    cmd: &'a str,
    given: Vec<(&'a str, &'a str)>,
}

impl<'a> Flags<'a> {
    /// Pair each flag of `cmd` with its value; a switch takes none.
    fn parse(cmd: &'a str, argv: &'a [String]) -> Result<Self, String> {
        let mut given = Vec::new();
        let mut args = argv.iter();
        while let Some(arg) = args.next() {
            let name = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("expected a --flag, got {arg:?}"))?;
            let flag = row(cmd, name).ok_or_else(|| format!("unknown flag --{name}"))?;
            let value = match flag.value {
                "" => "",
                _ => args
                    .next()
                    .ok_or_else(|| format!("--{name} needs a value"))?,
            };
            given.push((name, value));
        }
        Ok(Self { cmd, given })
    }

    fn given(&self, name: &str) -> Option<&'a str> {
        self.given.iter().find(|(f, _)| *f == name).map(|(_, v)| *v)
    }

    fn switch(&self, name: &str) -> bool {
        self.given(name).is_some()
    }

    /// The value given for `name`, else this command's default for it.
    fn get(&self, name: &str) -> Option<&'a str> {
        let row = row(self.cmd, name)?;
        self.given(name)
            .or((!row.default.is_empty()).then_some(row.default))
    }

    /// [`Self::get`] for a flag that has a default or is required.
    fn value(&self, name: &str) -> Result<&'a str, String> {
        self.get(name)
            .ok_or_else(|| format!("{} requires --{name}", self.cmd))
    }

    /// `read(self, name)` for a flag that has a value, else `None`.
    fn opt<T>(
        &self,
        name: &str,
        read: impl FnOnce(&Self, &str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        self.get(name).map(|_| read(self, name)).transpose()
    }

    /// An enumerated value, read by one of the `parse_*` functions.
    fn choice<T>(&self, name: &str, parse: fn(&str) -> Result<T, String>) -> Result<T, String> {
        parse(self.value(name)?)
    }

    fn num<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let v = self.value(name)?;
        v.parse().map_err(|_| format!("--{name}: bad value {v:?}"))
    }

    /// A count flag that must be at least 1.
    fn count(&self, name: &str) -> Result<usize, String> {
        match self.num(name)? {
            0 => Err(format!("--{name} must be at least 1")),
            v => Ok(v),
        }
    }

    /// `--threads`: a count, all cores when not given.
    fn threads(&self) -> Result<usize, String> {
        match self.given("threads") {
            Some(_) => self.count("threads"),
            None => Ok(std::thread::available_parallelism().map_or(1, |p| p.get())),
        }
    }

    /// A finite real: above 0 when `positive`, else at least 0.
    fn real(&self, name: &str, positive: bool) -> Result<f64, String> {
        let v: f64 = self.num(name)?;
        if v.is_finite() && (v > 0.0 || (v == 0.0 && !positive)) {
            Ok(v)
        } else {
            let want = if positive { "positive" } else { "non-negative" };
            Err(format!("--{name} must be a {want} number, got {v}"))
        }
    }

    /// A log2 table size: 1 up to the FPGA's BRAM bound
    /// ([`MAX_BRAM_BITS`]).
    fn bits(&self, name: &str) -> Result<u32, String> {
        match self.num(name)? {
            b if (1..=MAX_BRAM_BITS).contains(&b) => Ok(b),
            b => Err(format!("--{name} must be in 1..={MAX_BRAM_BITS}, got {b}")),
        }
    }
}

fn parse_dist(v: &str) -> Result<KeyDistribution, String> {
    Ok(match v {
        "linear" => KeyDistribution::Linear,
        "random" => KeyDistribution::Random,
        "grid" => KeyDistribution::Grid,
        "revgrid" | "rev-grid" => KeyDistribution::ReverseGrid,
        other => return Err(format!("--dist: unknown distribution {other:?}")),
    })
}

/// `--mode`: the circuit's output and input modes, PAD at its default
/// padding.
fn parse_mode(v: &str) -> Result<(OutputMode, InputMode), String> {
    Ok(match v.to_ascii_lowercase().as_str() {
        "hist/rid" => (OutputMode::Hist, InputMode::Rid),
        "hist/vrid" => (OutputMode::Hist, InputMode::Vrid),
        "pad/rid" => (OutputMode::pad_default(), InputMode::Rid),
        "pad/vrid" => (OutputMode::pad_default(), InputMode::Vrid),
        other => return Err(format!("--mode: unknown mode {other:?}")),
    })
}

/// `--backend`: `cpu` or `fpga`. `hybrid` names the paper's hybrid join
/// — FPGA partitioning feeding CPU build+probe — so it also parses to
/// [`EngineChoice::Fpga`].
fn parse_backend(v: &str) -> Result<EngineChoice, String> {
    Ok(match v {
        "cpu" => EngineChoice::Cpu,
        "fpga" | "hybrid" => EngineChoice::Fpga,
        other => return Err(format!("--backend: unknown backend {other:?}")),
    })
}

/// `--fn`: true for murmur (alias `hash`), false for radix.
fn parse_fn(v: &str) -> Result<bool, String> {
    match v {
        "murmur" | "hash" => Ok(true),
        "radix" => Ok(false),
        other => Err(format!("--fn: unknown function {other:?}")),
    }
}

/// Parse an argv (without the program name) into a [`Command`].
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let Some((cmd, rest)) = argv.split_first() else {
        return Err("missing command".into());
    };
    let cmd = match cmd.as_str() {
        "--help" | "-h" => "help",
        c if COMMANDS.iter().any(|(name, _)| *name == c) => c,
        other => return Err(format!("unknown command {other:?}")),
    };
    let flags = Flags::parse(cmd, rest)?;
    Ok(match cmd {
        "gen" => Command::Gen(GenArgs {
            n: flags.num("n")?,
            dist: flags.choice("dist", parse_dist)?,
            seed: flags.num("seed")?,
            out: flags.value("out")?.to_string(),
        }),
        "partition" => Command::Partition(PartitionArgs {
            input: flags.get("in").map(str::to_string),
            n: flags.num("n")?,
            dist: flags.choice("dist", parse_dist)?,
            seed: flags.num("seed")?,
            threads: flags.threads()?,
            bits: flags.bits("bits")?,
            backend: flags.choice("backend", parse_backend)?,
            hash: flags.choice("fn", parse_fn)?,
            mode: flags.choice("mode", parse_mode)?,
        }),
        "join" => Command::Join(JoinArgs {
            workload: match flags.value("workload")? {
                "A" | "a" => WorkloadId::A,
                "B" | "b" => WorkloadId::B,
                "C" | "c" => WorkloadId::C,
                "D" | "d" => WorkloadId::D,
                "E" | "e" => WorkloadId::E,
                other => return Err(format!("--workload: unknown workload {other:?}")),
            },
            scale: flags.real("scale", true)?,
            backend: flags.choice("backend", parse_backend)?,
            threads: flags.threads()?,
            bits: flags.bits("bits")?,
            zipf: flags.opt("zipf", |f, name| f.real(name, false))?,
            seed: flags.num("seed")?,
        }),
        "dist" => Command::Dist(DistArgs {
            nodes: match flags.num("nodes")? {
                n if usize::is_power_of_two(n) => n,
                _ => return Err("--nodes must be a power of two".into()),
            },
            scale: flags.real("scale", true)?,
            bits: flags.bits("bits")?,
            threads: flags.threads()?,
            seed: flags.num("seed")?,
            infiniband: match flags.value("net")? {
                "ib" | "infiniband" => true,
                "10gbe" | "gbe" => false,
                other => return Err(format!("--net: unknown network {other:?}")),
            },
        }),
        "select" => Command::Select(SelectArgs {
            n: flags.num("n")?,
            pct: match flags.num("pct")? {
                p @ 0..=100 => p,
                _ => return Err("--pct must be 0..=100".into()),
            },
            seed: flags.num("seed")?,
        }),
        "groupby" => Command::GroupBy(GroupByArgs {
            n: flags.count("n")?,
            groups: flags.count("groups")?,
            zipf: flags.real("zipf", false)?,
            cache_bits: flags.opt("cache-bits", Flags::bits)?,
            seed: flags.num("seed")?,
        }),
        "sort" => Command::Sort(SortArgs {
            n: flags.num("n")?,
            dist: flags.choice("dist", parse_dist)?,
            seed: flags.num("seed")?,
            threads: flags.threads()?,
            lsd: match flags.value("algo")? {
                "lsd" | "radix" => true,
                "sample" => false,
                other => return Err(format!("--algo: unknown algorithm {other:?}")),
            },
        }),
        "model" => Command::Model(ModelArgs {
            n: flags.num("n")?,
            mode: flags.choice("mode", parse_mode)?,
            gbps: flags.opt("gbps", |f, name| f.real(name, true))?,
        }),
        "plan" => Command::Plan(PlanArgs {
            n: flags.num("n")?,
            dist: flags.choice("dist", parse_dist)?,
            seed: flags.num("seed")?,
            bits: flags.bits("bits")?,
            threads: flags.threads()?,
            hash: flags.choice("fn", parse_fn)?,
            hybrid: flags.switch("hybrid"),
            json: flags.switch("json"),
        }),
        "faults" => {
            let (hist_retry, cpu_fallback) = match flags.value("policy")? {
                "full" | "chain" => (true, true),
                "hist" => (true, false),
                "cpu" => (false, true),
                "fail" => (false, false),
                other => return Err(format!("--policy: unknown policy {other:?}")),
            };
            Command::Faults(FaultsArgs {
                n: flags.num("n")?,
                dist: flags.choice("dist", parse_dist)?,
                seed: flags.num("seed")?,
                threads: flags.threads()?,
                bits: flags.bits("bits")?,
                pad: flags.num("pad")?,
                sweep: flags.count("sweep")?,
                fault_seed: flags.num("fault-seed")?,
                qpi: flags.num("qpi")?,
                burst: flags.num("burst")?,
                hist_retry,
                cpu_fallback,
            })
        }
        "trace" => Command::Trace(TraceArgs {
            n: flags.num("n")?,
            dist: flags.choice("dist", parse_dist)?,
            seed: flags.num("seed")?,
            bits: flags.bits("bits")?,
            hash: flags.choice("fn", parse_fn)?,
            mode: flags.choice("mode", parse_mode)?,
            level: flags.choice("level", |v| {
                ObsLevel::parse(v).ok_or_else(|| format!("--level: unknown level {v:?}"))
            })?,
            json: flags.switch("json"),
        }),
        // `help`, the one command in COMMANDS without flags.
        _ => Command::Help,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpart::fpga::mode_label;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn partition_defaults() {
        let cmd = parse(&argv("partition")).unwrap();
        match cmd {
            Command::Partition(PartitionArgs {
                n,
                bits,
                backend,
                hash,
                mode,
                ..
            }) => {
                assert_eq!(n, 1_000_000);
                assert_eq!(bits, 13);
                assert_eq!(backend, EngineChoice::Cpu);
                assert!(hash);
                assert_eq!(mode, (OutputMode::pad_default(), InputMode::Rid));
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
            Command::Partition(PartitionArgs {
                backend,
                mode,
                hash,
                n,
                bits,
                ..
            }) => {
                assert_eq!(backend, EngineChoice::Fpga);
                assert_eq!(mode, (OutputMode::Hist, InputMode::Vrid));
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
            Command::Join(JoinArgs {
                workload,
                zipf,
                backend,
                ..
            }) => {
                assert_eq!(workload, WorkloadId::E);
                assert_eq!(zipf, Some(1.25));
                assert_eq!(backend, EngineChoice::Fpga);
            }
            other => panic!("{other:?}"),
        }
        // The help says so, for both commands that take --backend.
        let help = usage();
        for cmd in ["partition", "join"] {
            let flags = help.split(&format!("\n{cmd} flags:\n")).nth(1).unwrap();
            let row = flags
                .lines()
                .find(|l| l.starts_with("  --backend"))
                .unwrap();
            assert!(
                row.contains("cpu|fpga|hybrid; hybrid is the paper's hybrid join"),
                "{row}"
            );
        }
    }

    /// Every `--mode` value names the pair whose label it is.
    #[test]
    fn modes_round_trip_through_their_labels() {
        for v in ["hist/rid", "hist/vrid", "pad/rid", "pad/vrid"] {
            let (output, input) = parse_mode(v).unwrap();
            assert_eq!(mode_label(output, input), v.to_ascii_uppercase());
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
            Command::Model(ModelArgs { mode, gbps, n }) => {
                assert_eq!(mode, (OutputMode::pad_default(), InputMode::Vrid));
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
            Command::Trace(TraceArgs {
                n,
                bits,
                mode,
                level,
                json,
                ..
            }) => {
                assert_eq!(n, 65_536);
                assert_eq!(bits, 6);
                assert_eq!(mode, (OutputMode::Hist, InputMode::Rid));
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
            Command::Trace(TraceArgs {
                n,
                mode,
                level,
                json,
                hash,
                ..
            }) => {
                assert_eq!(n, 1000);
                assert_eq!(mode, (OutputMode::pad_default(), InputMode::Vrid));
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
            Command::Plan(PlanArgs {
                n,
                bits,
                hash,
                hybrid,
                json,
                ..
            }) => {
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
            Command::Plan(PlanArgs {
                n,
                bits,
                threads,
                hash,
                hybrid,
                json,
                ..
            }) => {
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
            Command::Sort(SortArgs { lsd: false, .. })
        ));
        assert!(matches!(
            parse(&argv("sort")).unwrap(),
            Command::Sort(SortArgs { lsd: true, .. })
        ));
    }

    /// Every literal default in [`FLAGS`], and so in the help text, is
    /// the one the parser uses: giving it changes nothing.
    #[test]
    fn printed_defaults_are_the_parsers() {
        let bare = |cmd: &str| match cmd {
            "gen" => "gen --out x".to_string(),
            _ => cmd.to_string(),
        };
        for f in FLAGS
            .iter()
            .filter(|f| !f.default.is_empty() && f.default != ALL_CORES)
        {
            for cmd in f.commands {
                let given = format!("{} --{} {}", bare(cmd), f.name, f.default);
                assert_eq!(parse(&argv(&given)), parse(&argv(&bare(cmd))), "{given}");
            }
        }
        // Defaults that differ from the other commands' for the same flag.
        for given in [
            "dist --bits 8",
            "trace --bits 6 --n 65536",
            "faults --bits 6 --n 65536",
            "model --n 128000000",
        ] {
            let cmd = given.split(' ').next().unwrap();
            assert_eq!(parse(&argv(given)), parse(&argv(cmd)), "{given}");
        }
        assert!(usage().contains(&format!("1..={MAX_BRAM_BITS};")));
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
            Command::Dist(DistArgs {
                nodes: 4,
                infiniband: true,
                ..
            })
        ));
        let cmd = parse(&argv("dist --nodes 8 --net 10gbe --scale 0.01")).unwrap();
        match cmd {
            Command::Dist(DistArgs {
                nodes,
                infiniband,
                scale,
                ..
            }) => {
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
        assert!(matches!(cmd, Command::Gen(GenArgs { n: 5, .. })));
    }

    #[test]
    fn partition_accepts_input_file() {
        let cmd = parse(&argv("partition --in /tmp/x.fprt --bits 6")).unwrap();
        match cmd {
            Command::Partition(PartitionArgs { input, bits, .. }) => {
                assert_eq!(input.as_deref(), Some("/tmp/x.fprt"));
                assert_eq!(bits, 6);
            }
            other => panic!("{other:?}"),
        }
    }
}
