//! Tiny-size runs of the benchmark binary and of the library runner.

use std::path::PathBuf;
use std::process::Command;

use fpart_perfbench::run::{run, RunOpts, END_TO_END, PER_LAYER};
use fpart_perfbench::workload::{Config, Workload};
use fpart_perfbench::workloads::{partition_file::PartitionFile, skew_join::SkewJoin};

const WORKLOADS: [&str; 2] = ["partition-file", "skew-join"];
/// Large enough that the planner still picks the FPGA for `skew-join`.
const SCALE: &str = "0.05";

fn tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run the binary; return its stdout lines.
fn bench(workload: &str, seed: &str, trace: &str) -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", seed, "--seconds", "0"])
        .args(["--trace", trace, "--scale", SCALE])
        .output()
        .unwrap();
    assert!(out.status.success(), "{workload}: {out:?}");
    String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .map(String::from)
        .collect()
}

/// The `"name": {"value": .., "unit": ".."}` entries of the JSON line.
fn metric_entries(json: &str) -> Vec<(String, String)> {
    let metrics = json.split_once("\"metrics\": {").unwrap().1;
    metrics
        .split("}, ")
        .map(|entry| {
            let name = entry.split('"').nth(1).unwrap().to_string();
            let unit = entry.split("\"unit\": \"").nth(1).unwrap();
            (name, unit.split('"').next().unwrap().to_string())
        })
        .collect()
}

fn expected(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn every_metric_is_printed_with_its_unit() {
    for w in WORKLOADS {
        for (trace, table) in [("0", &END_TO_END[..]), ("1", &PER_LAYER[..])] {
            let lines = bench(w, "3", trace);
            let json = lines.last().unwrap();
            assert!(
                json.starts_with("{\"correct\": true, \"attempted\": "),
                "{w}: {json}"
            );
            assert!(json.contains("\"failed\": 0,"), "{w}: {json}");
            assert_eq!(metric_entries(json), expected(table), "{w} trace {trace}");
            // The human-readable table names every metric too.
            for (name, unit) in table {
                assert!(
                    lines
                        .iter()
                        .any(|l| l.starts_with(name) && l.contains(unit)),
                    "{w}: no line for {name}"
                );
            }
            assert!(lines.iter().any(|l| l.starts_with("error_rate")));
            if trace == "1" {
                let path = lines.iter().find_map(|l| l.strip_prefix("spans")).unwrap();
                let spans = std::fs::read_to_string(path.trim()).unwrap();
                assert!(spans.lines().any(|l| l.contains("\"name\": \"op\"")));
            }
        }
    }
}

#[test]
fn exact_statistics_repeat_across_runs_and_tracing() {
    for w in WORKLOADS {
        let digest = |lines: &[String]| {
            lines
                .iter()
                .find(|l| l.starts_with("exact_digest"))
                .cloned()
                .unwrap()
        };
        let untraced = bench(w, "9", "0");
        let traced = bench(w, "9", "1");
        assert_eq!(digest(&untraced), digest(&traced), "{w}");
        assert_eq!(digest(&untraced), digest(&bench(w, "9", "0")), "{w}");
        assert_ne!(digest(&untraced), digest(&bench(w, "10", "0")), "{w}");
    }
}

#[test]
fn metric_names_match_benchmark_json() {
    let text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")).unwrap();
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in WORKLOADS {
        assert!(text.contains(&format!("\"name\": \"{w}\"")), "{w}");
    }
}

/// A corrupted reference turns every op into a counted failure; the run
/// still completes and reports.
fn wrong_reference_counts_as_failure<W: Workload>(corrupt: impl FnOnce(&mut W)) {
    let cfg = Config {
        seed: 5,
        scale: 0.02,
        tmp_dir: tmp(std::any::type_name::<W>().rsplit("::").next().unwrap()),
    };
    let opts = RunOpts {
        seconds: 0.0,
        trace: false,
    };
    let out = run::<W>(&cfg, opts, corrupt).unwrap();
    assert!(out.attempted > 0);
    assert_eq!(out.failed, out.attempted);
    assert!(!out.correct());
    assert!(out.errors.iter().any(|e| e.contains("reference")));
}

#[test]
fn wrong_reference_is_a_failed_op_not_a_crash() {
    wrong_reference_counts_as_failure::<PartitionFile>(PartitionFile::corrupt_reference);
    wrong_reference_counts_as_failure::<SkewJoin>(SkewJoin::corrupt_reference);
}
