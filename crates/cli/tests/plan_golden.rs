//! Golden test: the `fpart plan --json` schema is stable.
//!
//! The plan explanation is part of the tool's public surface — scripts
//! compare planned against measured winners — so its byte layout is
//! pinned against a committed golden file. Thread count is passed
//! explicitly (the cost model depends on it) to keep the output
//! machine-independent. Regenerate with:
//!
//! ```text
//! cargo run -p fpart-cli -- plan --json --hybrid --n 65536 --bits 6 \
//!     --threads 4 > crates/cli/tests/golden/plan.json
//! ```

use std::process::Command;

const GOLDEN: &str = include_str!("golden/plan.json");

fn run_plan(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_fpart"))
        .args(args)
        .output()
        .expect("spawn fpart");
    assert!(
        out.status.success(),
        "fpart {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn plan_json_matches_golden() {
    let stdout = run_plan(&[
        "plan",
        "--json",
        "--hybrid",
        "--n",
        "65536",
        "--bits",
        "6",
        "--threads",
        "4",
    ]);
    assert_eq!(
        stdout, GOLDEN,
        "fpart plan --json output diverged from the committed golden; \
         if the schema change is intentional, regenerate the golden file"
    );
}

#[test]
fn plan_json_has_every_decision_field() {
    let stdout = run_plan(&[
        "plan",
        "--json",
        "--n",
        "10000",
        "--bits",
        "5",
        "--threads",
        "2",
    ]);
    for key in [
        "tuples",
        "tuple_width",
        "partitions",
        "engine",
        "output",
        "cpu_seconds",
        "fpga_seconds",
        "hybrid_seconds",
        "fpga_fraction",
        "estimated_max_fill",
        "pad_capacity",
        "hist_retry",
        "cpu_fallback",
    ] {
        assert!(
            stdout.contains(&format!("\"{key}\"")),
            "missing {key}: {stdout}"
        );
    }
    // Hybrid not requested: the hybrid columns are null.
    assert!(stdout.contains("\"hybrid_seconds\": null"), "{stdout}");
}

#[test]
fn plan_text_mode_is_human_readable() {
    let stdout = run_plan(&["plan", "--n", "10000", "--bits", "5", "--threads", "2"]);
    assert!(stdout.starts_with("plan: 10000 tuples"), "{stdout}");
    assert!(stdout.contains("engine"), "{stdout}");
    assert!(stdout.contains("output"), "{stdout}");
    assert!(stdout.contains("chain"), "{stdout}");
}
