//! Every `fpart` command, run once through the binary at a tiny size:
//! each exits 0 and prints something. An unknown flag exits 2 with the
//! help text on stderr.

use std::process::{Command, Output};

fn fpart(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fpart"))
        .args(args)
        .output()
        .expect("spawn fpart")
}

fn assert_runs(args: &[&str]) {
    let out = fpart(args);
    assert!(
        out.status.success(),
        "fpart {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!out.stdout.is_empty(), "fpart {args:?} printed nothing");
}

#[test]
fn gen_then_partition_the_file() {
    let path =
        std::env::temp_dir().join(format!("fpart-every-command-{}.fprt", std::process::id()));
    let file = path.to_str().unwrap();
    assert_runs(&["gen", "--n", "4096", "--out", file]);
    let partitioned = fpart(&["partition", "--in", file, "--bits", "5", "--threads", "2"]);
    std::fs::remove_file(&path).unwrap();
    assert!(partitioned.status.success());
    let stdout = String::from_utf8(partitioned.stdout).unwrap();
    assert!(stdout.contains("partitioning 4096 tuples from"), "{stdout}");
}

#[test]
fn every_command_runs() {
    for args in [
        "partition --backend fpga --mode hist/rid --n 4096 --bits 5",
        "join --scale 0.0005 --bits 6 --threads 2",
        "dist --nodes 2 --scale 0.0005 --threads 2",
        "select --n 4096",
        "groupby --n 4096",
        "sort --n 4096 --threads 2",
        "model",
        "plan --n 4096 --threads 2",
        "faults --n 4096 --bits 5 --sweep 2 --threads 2",
        "trace --n 4096 --bits 5",
        "help",
    ] {
        assert_runs(&args.split(' ').collect::<Vec<_>>());
    }
}

/// `partition` prints the report of the engine `--backend` built, in
/// the mode `--mode` names, whatever the input layout.
#[test]
fn partition_reports_the_engine_it_built() {
    for (args, line, other) in [
        (
            "partition --backend cpu --mode pad/vrid --n 4096 --bits 5 --threads 2",
            "\ncpu (2 threads, measured): ",
            "\nfpga ",
        ),
        (
            "partition --backend fpga --mode hist/vrid --n 4096 --bits 5",
            "\nfpga HIST/VRID (simulated @200MHz): ",
            "\ncpu (",
        ),
    ] {
        let out = fpart(&args.split(' ').collect::<Vec<_>>());
        assert!(out.status.success(), "fpart {args}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(stdout.contains(line), "{args}: {stdout}");
        assert!(!stdout.contains(other), "{args}: {stdout}");
    }
}

#[test]
fn unknown_flag_exits_2_with_the_help() {
    let out = fpart(&["partition", "--bogus", "1"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    let help = String::from_utf8(fpart(&["help"]).stdout).unwrap();
    assert!(stderr.starts_with("unknown flag --bogus"), "{stderr}");
    assert!(stderr.ends_with(&help), "{stderr}");
}
