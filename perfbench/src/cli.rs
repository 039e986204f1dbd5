//! Command line: argument parsing, the temp dir, and the report.

use std::path::PathBuf;

use crate::run::{run, Metric, Outcome, RunOpts};
use crate::workload::Config;
use crate::workloads::{partition_file::PartitionFile, skew_join::SkewJoin};

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 42;
/// Seed held out from tuning: a claimed gain must also hold on it.
pub const HELD_OUT_SEED: u64 = 20_170_514;
/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 2] = ["partition-file", "skew-join"];

const USAGE: &str = "usage: perfbench --workload <partition-file|skew-join> \
[--seed N] [--seconds S] [--trace 0|1] [--scale F]";

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Timed-phase length.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
    /// Input-size multiplier (1 for measurement runs).
    pub scale: f64,
}

/// Parse `argv` (without the program name).
pub fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        scale: 1.0,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.to_string(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => args.scale = value.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    if !(args.scale.is_finite() && args.scale > 0.0 && args.scale <= 1.0) {
        return Err("--scale must be in (0, 1]".into());
    }
    Ok(args)
}

/// Files of one run live under the benchmark's own directory and are
/// removed when the run ends, also on error.
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> std::io::Result<Self> {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tmp")
            .join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Fails, harmlessly, while another run still uses it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Run the benchmark; returns the process exit code.
pub fn main(argv: Vec<String>) -> i32 {
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return 2;
        }
    };
    let tmp = match TempDir::new() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("perfbench: cannot create temp dir: {e}");
            return 1;
        }
    };
    let cfg = Config {
        seed: args.seed,
        scale: args.scale,
        tmp_dir: tmp.0.clone(),
    };
    let opts = RunOpts {
        seconds: args.seconds,
        trace: args.trace,
    };
    let outcome = match args.workload.as_str() {
        "partition-file" => run::<PartitionFile>(&cfg, opts, |_| {}),
        _ => run::<SkewJoin>(&cfg, opts, |_| {}),
    };
    drop(tmp);
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            return 1;
        }
    };
    report(&args, &outcome);
    0
}

/// Write a traced run's spans under `out/` in the benchmark's directory.
fn write_spans(args: &Args, o: &Outcome) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    match o.tracer.write_jsonl(&path) {
        Ok(()) => println!("{:<27} {}", "spans", path.display()),
        Err(e) => println!("error: cannot write spans to {}: {e}", path.display()),
    }
}

/// Print the human-readable table, then the one-line JSON result.
fn report(args: &Args, o: &Outcome) {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench {} seed={} (held-out seed {HELD_OUT_SEED}) seconds={} trace={} scale={} \
         op_threads=1 available_parallelism={threads} tuples_per_op={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.scale,
        o.tuples
    );
    println!("-- end to end (untraced ops; host time unless marked simulated)");
    for m in &o.end_to_end {
        print_metric(m);
    }
    let error_rate = o.failed as f64 / o.attempted.max(1) as f64;
    println!(
        "{:<27} {:<14} ratio          {} failed of {} attempted ops",
        "error_rate", error_rate, o.failed, o.attempted
    );
    if args.trace {
        println!("-- per layer (traced run)");
        for m in &o.per_layer {
            print_metric(m);
        }
        write_spans(args, o);
    }
    println!("{:<27} {:016x}", "exact_digest", o.exact_digest);
    for e in &o.errors {
        println!("error: {e}");
    }

    let metrics = if args.trace {
        &o.per_layer
    } else {
        &o.end_to_end
    };
    let finite = metrics.iter().all(|m| m.value.is_finite());
    if !finite {
        println!("error: a metric is not a finite number");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct() && finite,
        o.attempted,
        o.failed,
        body.join(", ")
    );
}

fn print_metric(m: &Metric) {
    println!(
        "{:<27} {:<14.6} {:<14} {}",
        m.name, m.value, m.unit, m.detail
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_driver_flags() {
        let a = parse(&argv(
            "--workload skew-join --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("skew-join", 7, 10.0, true)
        );
        assert_eq!(
            parse(&argv("--workload partition-file")).unwrap().seed,
            DEFAULT_SEED
        );
    }

    #[test]
    fn rejects_bad_input() {
        for bad in [
            "",
            "--workload nope",
            "--workload partition-file --trace 2",
            "--workload partition-file --seed",
            "--workload partition-file --scale 0",
            "--workload partition-file --bogus 1",
        ] {
            assert!(parse(&argv(bad)).is_err(), "{bad:?} should not parse");
        }
    }
}
