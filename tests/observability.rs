//! Counter-conservation invariants across the whole mode matrix.
//!
//! Every `RunReport` carries an observability snapshot whose counters
//! must satisfy the conservation laws in `fpart::obs::asserts` — in all
//! four {HIST,PAD} × {RID,VRID} modes, on linear/random/zipf inputs, at
//! both simulation fidelities, at every observability level, and under
//! surviving fault plans. The laws are the paper's §4.6 accounting
//! argument made executable: every cache line and every cycle a run
//! reports is attributed to exactly one counter.

use fpart::fpga::{
    FpgaPartitioner, InputMode, ObsLevel, OutputMode, PartitionerConfig, SimFidelity,
};
use fpart::hwsim::{Fault, FaultPlan};
use fpart::obs::asserts::{assert_conserved, assert_partition_counts};
use fpart::obs::Ctr;
use fpart::prelude::*;
use fpart_datagen::dist::zipf_foreign_keys;

fn cfg(output: OutputMode, input: InputMode, fidelity: SimFidelity) -> PartitionerConfig {
    PartitionerConfig {
        partition_fn: PartitionFn::Murmur { bits: 5 },
        fidelity,
        ..PartitionerConfig::paper_default(output, input)
    }
}

fn keys_for(dist: &str, n: usize, seed: u64) -> Vec<u32> {
    match dist {
        "linear" => KeyDistribution::Linear.generate_keys(n, seed),
        "random" => KeyDistribution::Random.generate_keys(n, seed),
        "zipf" => {
            // Zipf 0.25 — the strongest skew PAD's default padding
            // survives (Section 5.4); stronger factors are exercised by
            // the degradation-chain suite.
            let base: Vec<u32> = KeyDistribution::Random.generate_keys(512, seed);
            zipf_foreign_keys(&base, n, 0.25, seed ^ 0xF00D)
        }
        other => panic!("unknown distribution {other}"),
    }
}

/// Run one (mode, input, fidelity, obs, distribution) cell and check all
/// conservation laws plus agreement with the report's legacy fields.
fn run_and_check(
    output: OutputMode,
    input: InputMode,
    fidelity: SimFidelity,
    obs: ObsLevel,
    dist: &str,
) {
    let n = 3000;
    let config = cfg(output, input, fidelity).with_obs(obs);
    let mode = config.mode_label();
    let keys = keys_for(dist, n, 0x0B5E_2026);
    let fpga = FpgaPartitioner::new(config);
    let (parts, report) = match input {
        InputMode::Rid => fpga
            .partition(&Relation::<Tuple8>::from_keys(&keys))
            .unwrap(),
        InputMode::Vrid => fpga
            .partition(&ColumnRelation::<Tuple8>::from_keys(&keys))
            .unwrap(),
    };
    let label = format!("{mode}/{fidelity:?}/{dist}/obs={}", obs.label());

    assert_conserved(&report.obs);
    assert_partition_counts(parts.histogram(), n);

    let c = |ctr: Ctr| report.obs.get(ctr);
    assert_eq!(c(Ctr::TuplesIn), n as u64, "{label}: tuples_in");
    assert_eq!(c(Ctr::TuplesOut), report.tuples, "{label}: tuples_out");
    assert_eq!(
        c(Ctr::PaddingSlots),
        report.padding_slots,
        "{label}: padding_slots"
    );
    assert_eq!(
        c(Ctr::ScatterCycles),
        report.scatter_cycles,
        "{label}: scatter_cycles"
    );
    assert_eq!(
        c(Ctr::HistCycles),
        report.hist_cycles,
        "{label}: hist_cycles"
    );
    assert_eq!(
        c(Ctr::PtTranslations),
        report.translations,
        "{label}: translations"
    );
    assert_eq!(
        c(Ctr::QpiLinesRead),
        report.qpi.lines_read,
        "{label}: qpi lines_read"
    );
    assert_eq!(
        c(Ctr::QpiLinesWritten),
        report.qpi.lines_written,
        "{label}: qpi lines_written"
    );
    // HIST scans the input twice, PAD once.
    match output {
        OutputMode::Hist => assert!(c(Ctr::HistLinesRead) > 0, "{label}: hist pass read lines"),
        OutputMode::Pad { .. } => {
            assert_eq!(c(Ctr::HistLinesRead), 0, "{label}: no hist pass in PAD")
        }
    }
}

#[test]
fn conservation_holds_across_mode_matrix_cycle_accurate() {
    for output in [OutputMode::Hist, OutputMode::pad_default()] {
        for input in [InputMode::Rid, InputMode::Vrid] {
            for dist in ["linear", "random", "zipf"] {
                run_and_check(
                    output,
                    input,
                    SimFidelity::CycleAccurate,
                    ObsLevel::Counters,
                    dist,
                );
            }
        }
    }
}

#[test]
fn conservation_holds_across_mode_matrix_batched() {
    for output in [OutputMode::Hist, OutputMode::pad_default()] {
        for input in [InputMode::Rid, InputMode::Vrid] {
            for dist in ["linear", "random", "zipf"] {
                run_and_check(
                    output,
                    input,
                    SimFidelity::Batched,
                    ObsLevel::Counters,
                    dist,
                );
            }
        }
    }
}

#[test]
fn conservation_holds_with_metrics_off() {
    // Off-level snapshots are synthesized from end-of-run totals; the
    // laws must hold for them exactly as for live counting.
    for output in [OutputMode::Hist, OutputMode::pad_default()] {
        for fidelity in [SimFidelity::CycleAccurate, SimFidelity::Batched] {
            run_and_check(output, InputMode::Rid, fidelity, ObsLevel::Off, "random");
        }
    }
}

#[test]
fn off_and_counters_agree_on_robust_counters() {
    // Live counting and Off-level synthesis must agree on everything
    // except the throttled/idle split (Off cannot observe throttling, it
    // lumps those cycles into idle).
    let keys = keys_for("zipf", 4000, 77);
    let rel = Relation::<Tuple8>::from_keys(&keys);
    for output in [OutputMode::Hist, OutputMode::pad_default()] {
        let run = |obs: ObsLevel| {
            let c = cfg(output, InputMode::Rid, SimFidelity::CycleAccurate).with_obs(obs);
            FpgaPartitioner::new(c).partition(&rel).unwrap().1.obs
        };
        let off = run(ObsLevel::Off);
        let on = run(ObsLevel::Counters);
        for ctr in [
            Ctr::TuplesIn,
            Ctr::TuplesOut,
            Ctr::PaddingSlots,
            Ctr::InputLines,
            Ctr::LinesWritten,
            Ctr::HistLinesRead,
            Ctr::ScatterCycles,
            Ctr::HistCycles,
            Ctr::RdBusy,
            Ctr::WrBusy,
            Ctr::CombTuplesIn,
            Ctr::CombLinesOut,
            Ctr::CombFlushLines,
            Ctr::WbLinesEmitted,
            Ctr::QpiLinesRead,
            Ctr::QpiLinesWritten,
            Ctr::EpCacheHits,
            Ctr::EpCacheMisses,
            Ctr::PtTranslations,
        ] {
            assert_eq!(
                off.get(ctr),
                on.get(ctr),
                "{}: {:?} differs between Off and Counters",
                output.label(),
                ctr
            );
        }
        // The split may differ, but the per-port sums may not.
        let idle_ish = |s: &fpart::obs::ObsSnapshot| {
            (
                s.get(Ctr::RdStall) + s.get(Ctr::RdThrottled) + s.get(Ctr::RdIdle),
                s.get(Ctr::WrStall) + s.get(Ctr::WrIdle),
            )
        };
        assert_eq!(idle_ish(&off), idle_ish(&on), "{}", output.label());
    }
}

#[test]
fn trace_level_emits_stage_events() {
    let keys = keys_for("random", 2500, 5);
    let rel = Relation::<Tuple8>::from_keys(&keys);
    let config =
        cfg(OutputMode::Hist, InputMode::Rid, SimFidelity::CycleAccurate).with_obs(ObsLevel::Trace);
    let (_, report) = FpgaPartitioner::new(config).partition(&rel).unwrap();
    assert_conserved(&report.obs);
    let events = &report.obs.events;
    assert!(!events.is_empty(), "trace level must record stage events");
    assert!(
        events
            .iter()
            .any(|e| e.stage == "hist" && e.event == "pass_end"),
        "histogram pass end event missing"
    );
    assert!(
        events
            .iter()
            .any(|e| e.stage == "scatter" && e.event == "pass_end"),
        "scatter pass end event missing"
    );
    // Events arrive in cycle order within a pass and carry real cycles.
    assert!(events.iter().all(|e| e.cycle > 0));

    // Counters/Off levels must not trace.
    let config = cfg(OutputMode::Hist, InputMode::Rid, SimFidelity::CycleAccurate)
        .with_obs(ObsLevel::Counters);
    let (_, quiet) = FpgaPartitioner::new(config).partition(&rel).unwrap();
    assert!(quiet.obs.events.is_empty(), "counters level must not trace");
}

#[test]
fn conservation_holds_under_surviving_fault_plan() {
    // Transient faults (absorbed by replays and page-table retries) slow
    // the run but must not unbalance any conservation law.
    let keys = keys_for("random", 3000, 11);
    let rel = Relation::<Tuple8>::from_keys(&keys);
    let plan = FaultPlan::new()
        .with(Fault::QpiTransient {
            pass: fpart::hwsim::PassId::Scatter,
            op_index: 25,
            burst: 2,
        })
        .with(Fault::QpiTransient {
            pass: fpart::hwsim::PassId::Histogram,
            op_index: 10,
            burst: 1,
        })
        .with(Fault::PageTableTransient {
            translation_index: 7,
            retries: 3,
        });
    for fidelity in [SimFidelity::CycleAccurate, SimFidelity::Batched] {
        for output in [OutputMode::Hist, OutputMode::pad_default()] {
            for obs in [ObsLevel::Off, ObsLevel::Counters] {
                let config = cfg(output, InputMode::Rid, fidelity).with_obs(obs);
                let fpga = FpgaPartitioner::new(config).with_faults(plan.clone());
                let (parts, report) = fpga.partition(&rel).unwrap();
                assert_conserved(&report.obs);
                assert_partition_counts(parts.histogram(), 3000);
                assert!(
                    report.obs.get(Ctr::QpiLinkReplays) > 0,
                    "{} {fidelity:?}: replays must surface in counters",
                    output.label()
                );
            }
        }
    }
}

#[test]
fn snapshot_json_round_trips_from_real_run() {
    let keys = keys_for("random", 2000, 23);
    let rel = Relation::<Tuple8>::from_keys(&keys);
    let config =
        cfg(OutputMode::Hist, InputMode::Rid, SimFidelity::CycleAccurate).with_obs(ObsLevel::Trace);
    let (_, report) = FpgaPartitioner::new(config).partition(&rel).unwrap();
    let json = report.obs.to_json();
    let back = fpart::obs::ObsSnapshot::from_json(&json).expect("snapshot JSON must parse");
    assert_eq!(back.to_json(), json, "round trip must be byte-stable");
    assert_conserved(&back);
}
