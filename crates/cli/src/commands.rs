//! Command execution.

use std::time::Instant;

use fpart::cpu::sort::{is_sorted_by_key, lsd_radix_sort, sample_sort};
use fpart::fpga::mode_label;
use fpart::prelude::*;
use fpart_costmodel::FpgaCostModel;

use crate::args::{
    usage, Command, DistArgs, FaultsArgs, GenArgs, GroupByArgs, JoinArgs, ModelArgs, PartitionArgs,
    PlanArgs, SelectArgs, SortArgs, TraceArgs,
};

/// What a command returns.
type Outcome = Result<(), Box<dyn std::error::Error>>;

/// Execute a parsed command.
pub fn run(cmd: Command) -> Outcome {
    match cmd {
        Command::Gen(a) => gen(a),
        Command::Partition(a) => partition_command(a),
        Command::Join(a) => join(a),
        Command::Dist(a) => dist(a),
        Command::Select(a) => select(a),
        Command::GroupBy(a) => groupby(a),
        Command::Sort(a) => sort(a),
        Command::Model(a) => model(a),
        Command::Plan(a) => plan(a),
        Command::Faults(a) => faults(a),
        Command::Trace(a) => trace(a),
        Command::Help => {
            print!("{}", usage());
            Ok(())
        }
    }
}

/// Run one cycle-accurate partitioning with observability turned up and
/// dump the snapshot: JSON (stable schema, used by the golden tests) or a
/// human-readable counter/stall/trace breakdown.
fn trace(a: TraceArgs) -> Outcome {
    use fpart::obs::Ctr;

    let TraceArgs { n, dist, level, .. } = a;
    let f = partition_fn(a.hash, a.bits);
    let (output, input) = a.mode;
    let config = PartitionerConfig {
        partition_fn: f,
        ..PartitionerConfig::paper_default(output, input)
    }
    .with_fidelity(SimFidelity::CycleAccurate)
    .with_obs(level);
    let keys = dist.generate_keys::<u32>(n, a.seed);
    let partitioner = FpgaPartitioner::new(config);
    let (_, report) = if input == InputMode::Vrid {
        partitioner.partition(&ColumnRelation::<Tuple8>::from_keys(&keys))?
    } else {
        partitioner.partition(&Relation::<Tuple8>::from_keys(&keys))?
    };

    if a.json {
        println!("{}", report.obs.to_json());
        return Ok(());
    }

    println!(
        "trace: {} of {n} {} tuples, {} partitions, level {}",
        report.mode,
        dist.label(),
        f.fan_out(),
        level.label()
    );
    println!(
        "cycles: {} hist + {} scatter = {} total ({:.1} Mtuples/s simulated)",
        report.hist_cycles,
        report.scatter_cycles,
        report.total_cycles(),
        report.mtuples_per_sec()
    );
    let c = |ctr: Ctr| report.obs.get(ctr);
    let pct = |part: u64, whole: u64| {
        if whole == 0 {
            0.0
        } else {
            100.0 * part as f64 / whole as f64
        }
    };
    let sc = c(Ctr::ScatterCycles);
    println!(
        "scatter read port:  {:.1}% busy, {:.1}% stalled, {:.1}% throttled, {:.1}% idle",
        pct(c(Ctr::RdBusy), sc),
        pct(c(Ctr::RdStall), sc),
        pct(c(Ctr::RdThrottled), sc),
        pct(c(Ctr::RdIdle), sc)
    );
    println!(
        "scatter write port: {:.1}% busy, {:.1}% stalled, {:.1}% idle",
        pct(c(Ctr::WrBusy), sc),
        pct(c(Ctr::WrStall), sc),
        pct(c(Ctr::WrIdle), sc)
    );
    println!("counters (nonzero):");
    for (ctr, v) in report.obs.counters.nonzero() {
        println!("  {:<26} {v}", ctr.name());
    }
    if !report.obs.events.is_empty() {
        println!(
            "stage events ({} recorded, {} dropped):",
            report.obs.events.len(),
            report.obs.dropped_events
        );
        for e in &report.obs.events {
            println!(
                "  @{:<10} {:<8} {:<12} {}",
                e.cycle, e.stage, e.event, e.value
            );
        }
    }
    Ok(())
}

/// Explain what the [`EnginePlanner`] would decide for a generated
/// relation: back-end (cost-model comparison), output mode (key
/// sample) and degradation chain. `--json` prints the
/// machine-readable [`PlanExplanation`] (stable schema, golden-tested).
fn plan(a: PlanArgs) -> Outcome {
    let f = partition_fn(a.hash, a.bits);
    let rel = Relation::<Tuple8>::from_keys(&a.dist.generate_keys(a.n, a.seed));
    let plan = EnginePlanner::new(a.threads)
        .with_hybrid(a.hybrid)
        .plan(&rel, f);
    if a.json {
        println!("{}", plan.explanation.to_json());
    } else {
        print!("{}", plan.explanation.to_text());
    }
    Ok(())
}

fn faults(a: FaultsArgs) -> Outcome {
    let chain = EscalationChain {
        hist_retry: a.hist_retry,
        cpu_fallback: a.cpu_fallback,
        cpu_threads: a.threads,
    };
    let rel = Relation::<Tuple8>::from_keys(&a.dist.generate_keys(a.n, a.seed));
    let f = PartitionFn::Murmur { bits: a.bits };
    let padding = PaddingSpec::Tuples(a.pad);
    let fpga = FpgaPartitioner::with_modes(f, OutputMode::Pad { padding }, InputMode::Rid);
    // Fault-free references: the CPU histogram every degraded run must
    // reproduce, and the clean PAD cycle count recovery cost is measured
    // against.
    let (cpu_parts, _) = CpuPartitioner::new(f, a.threads).partition(&rel);
    let (_, clean) = fpga.partition(&rel)?;
    println!(
        "fault-free PAD/RID run: {} tuples, {} partitions, {} cycles",
        a.n,
        f.fan_out(),
        clean.total_cycles()
    );

    // Background noise (QPI CRC transients + page-table retries) comes
    // from the seeded plan; the swept PAD overflow is added on top.
    let spec = FaultSpec {
        qpi_transients_per_pass: a.qpi,
        qpi_burst_max: a.burst,
        // Line operations scale with the relation (8 tuples per line,
        // read and write sides both counted).
        op_window: (a.n as u64 / 4).max(64),
        ..FaultSpec::default()
    };
    println!(
        "sweeping {} injection points (fault seed {}, {} QPI transients/pass, burst ≤ {}, \
         chain: hist_retry={} cpu_fallback={}):",
        a.sweep, a.fault_seed, a.qpi, a.burst, chain.hist_retry, chain.cpu_fallback
    );

    for i in 1..=a.sweep {
        let consumed = a.n as u64 * i as u64 / (a.sweep as u64 + 1);
        let plan = FaultPlan::from_seed(a.fault_seed, &spec).with(Fault::PadOverflow { consumed });
        let p = fpga.clone().with_faults(plan);
        match chain.run(&p, &rel) {
            Ok((parts, report)) => {
                let recovery = report
                    .fpga()
                    .map(|r| {
                        format!(
                            "{} cycles vs {} clean",
                            r.total_cycles(),
                            clean.total_cycles()
                        )
                    })
                    .unwrap_or_else(|| "host time domain".into());
                let detected = report
                    .abort_points()
                    .first()
                    .map(|&at| format!("detected@{at}"))
                    .unwrap_or_else(|| "no abort".into());
                println!(
                    "  inject@{consumed:>8}: {} via {:<9} {detected:<18} wasted {:>8} cycles, \
                     {recovery}; histogram {}",
                    if report.degraded() {
                        format!("degraded ({} attempts)", report.attempts.len())
                    } else {
                        "completed".into()
                    },
                    report.final_attempt().label(),
                    report.wasted_cycles(),
                    if parts.histogram() == cpu_parts.histogram() {
                        "matches CPU"
                    } else {
                        "MISMATCH"
                    }
                );
                if report.final_attempt().engine == EngineChoice::Cpu {
                    println!("           (FPGA exhausted; request served by the CPU fallback)");
                }
            }
            Err(e) => println!("  inject@{consumed:>8}: FAILED — {e}"),
        }
    }
    Ok(())
}

fn select(a: SelectArgs) -> Outcome {
    use fpart::fpga::{FpgaSelector, Predicate};
    let n = a.n;
    let rel = Relation::<Tuple8>::from_keys(&KeyDistribution::Random.generate_keys(n, a.seed));
    let bound = ((u32::MAX as u64 - 1) * a.pct / 100) as u32;
    let (out, report) = FpgaSelector::new().select(&rel, Predicate::LessThan(bound))?;
    println!(
        "selection (simulated @200MHz): scanned {n} tuples, {} matched ({:.1}% observed), \
         {:.1} Mtuples/s; {} lines read, {} written",
        out.len(),
        report.selectivity() * 100.0,
        report.mtuples_per_sec(),
        report.lines_read,
        report.lines_written
    );
    Ok(())
}

fn groupby(a: GroupByArgs) -> Outcome {
    use fpart::datagen::dist::zipf_foreign_keys;
    use fpart::fpga::aggcache::{cache_bits_for_groups, fpga_group_by_harp};
    let n = a.n;
    let domain = KeyDistribution::Random.generate_keys::<u32>(a.groups, a.seed);
    let keys = zipf_foreign_keys(&domain, n, a.zipf, a.seed ^ 0x11);
    let rel = Relation::<Tuple8>::from_keys(&keys);
    let bits = a
        .cache_bits
        .unwrap_or_else(|| cache_bits_for_groups(a.groups));
    let (out, report) = fpga_group_by_harp(&rel, bits)?;
    println!(
        "fpga group-by (simulated, 2^{bits}-slot caches): {n} rows → {} groups, \
         {:.1} Mtuples/s; {:.1}% merged on-chip, {} victims evicted",
        out.len(),
        report.mtuples_per_sec(),
        report.hit_rate() * 100.0,
        report.evictions
    );
    let top = out.iter().max_by_key(|g| g.count).expect("non-empty");
    println!("heaviest group: key {} with {} rows", top.key, top.count);
    Ok(())
}

fn dist(a: DistArgs) -> Outcome {
    use fpart_net::{DistributedJoin, NetworkModel};
    let (nodes, infiniband) = (a.nodes, a.infiniband);
    let (r, s) = WorkloadId::A
        .spec()
        .row_relations::<Tuple8>(a.scale, a.seed);
    let mut join = DistributedJoin::new(nodes, a.bits);
    join.threads = a.threads;
    if !infiniband {
        join.network = NetworkModel::ten_gbe();
    }
    println!(
        "distributed join: {nodes} nodes over {}, |R| = {}, |S| = {}",
        if infiniband {
            "FDR InfiniBand"
        } else {
            "10 GbE"
        },
        r.len(),
        s.len()
    );
    let (result, report) = join.execute(&r, &s)?;
    println!(
        "{} matches; node partitioning {:.5} s (sim) + exchange {:.5} s (model) + \
         local joins {:.5} s (measured) = {:.5} s; {:.1} MB crossed the network",
        result.matches,
        report.partition_seconds,
        report.exchange_seconds,
        report.local_join_seconds,
        report.total_seconds(),
        report.network_bytes as f64 / 1e6
    );
    Ok(())
}

fn partition_fn(hash: bool, bits: u32) -> PartitionFn {
    if hash {
        PartitionFn::Murmur { bits }
    } else {
        PartitionFn::Radix { bits }
    }
}

fn gen(a: GenArgs) -> Outcome {
    let GenArgs { n, dist, out, .. } = a;
    let rel = Relation::<Tuple8>::from_keys(&dist.generate_keys(n, a.seed));
    if out.ends_with(".csv") {
        fpart_io::export_csv(&rel, &out)?;
    } else {
        fpart_io::write_relation(&rel, &out)?;
    }
    println!("wrote {n} {} tuples to {out}", dist.label());
    Ok(())
}

/// The relation `partition` works on, and how to describe it: the file
/// at `input` with its keys and payloads as stored (FPRT, or CSV by
/// suffix), or `n` generated keys whose payloads are their row ids.
fn load_relation(
    input: Option<&str>,
    n: usize,
    dist: KeyDistribution,
    seed: u64,
) -> Result<(Relation<Tuple8>, String), Box<dyn std::error::Error>> {
    Ok(match input {
        Some(path) if path.ends_with(".csv") => {
            (fpart_io::import_csv(path)?, format!("tuples from {path}"))
        }
        Some(path) => (
            fpart_io::read_relation(path)?,
            format!("tuples from {path}"),
        ),
        None => (
            Relation::from_keys(&dist.generate_keys::<u32>(n, seed)),
            format!("{} tuples", dist.label()),
        ),
    })
}

/// `fpart partition`: the file given, or generated keys.
fn partition_command(a: PartitionArgs) -> Outcome {
    let (rel, what) = load_relation(a.input.as_deref(), a.n, a.dist, a.seed)?;
    let f = partition_fn(a.hash, a.bits);
    partition(&rel, &what, f, a.threads, a.backend, a.mode).map(drop)
}

/// Partition `rel` (described by `what`) on `backend` and print the
/// run's report and balance. VRID mode reads `rel` as a column store, so
/// its output carries row positions in place of payloads.
fn partition(
    rel: &Relation<Tuple8>,
    what: &str,
    f: PartitionFn,
    threads: usize,
    backend: EngineChoice,
    (output, input): (OutputMode, InputMode),
) -> Result<PartitionedRelation<Tuple8>, Box<dyn std::error::Error>> {
    println!(
        "partitioning {} {what} into {} partitions with {}…",
        rel.len(),
        f.fan_out(),
        f.label()
    );
    let fpga = FpgaPartitioner::with_modes(f, output, input);
    let engine = backend.engine::<Tuple8>(fpga, threads);
    let t0 = Instant::now();
    let (parts, stats) = if input == InputMode::Vrid {
        let keys: Vec<u32> = rel.tuples().iter().map(|t| t.key).collect();
        let payloads: Vec<u64> = rel.tuples().iter().map(|t| t.payload_word()).collect();
        engine.partition((&ColumnRelation::from_columns(&keys, &payloads)).into())?
    } else {
        engine.partition(rel.into())?
    };
    let wall = t0.elapsed();
    if let Some(report) = &stats.cpu {
        println!(
            "cpu ({threads} threads, measured): {:.1} Mtuples/s in {:.4} s",
            report.mtuples_per_sec(),
            report.total_time().as_secs_f64()
        );
    }
    if let Some(report) = &stats.fpga {
        println!(
            "fpga {} (simulated @200MHz): {:.1} Mtuples/s in {:.4} s simulated \
             ({} cycles; simulator took {:.2} s wall)",
            report.mode,
            report.mtuples_per_sec(),
            report.seconds(),
            report.total_cycles(),
            wall.as_secs_f64()
        );
        println!(
            "qpi: {} lines read, {} written, {} read-stall cycles; {} dummy slots; \
             {:.2} line-ops/cycle (stall-free ceiling: 2.00)",
            report.qpi.lines_read,
            report.qpi.lines_written,
            report.qpi.read_stall_cycles,
            report.padding_slots,
            report.lines_per_cycle()
        );
    }
    print_balance(parts.histogram());
    Ok(parts)
}

fn print_balance(hist: &[usize]) {
    let max = hist.iter().max().copied().unwrap_or(0);
    let empty = hist.iter().filter(|&&h| h == 0).count();
    let mean = hist.iter().sum::<usize>() as f64 / hist.len() as f64;
    println!(
        "balance: mean {mean:.1} tuples/partition, max {max}, {empty} empty of {}",
        hist.len()
    );
}

fn join(a: JoinArgs) -> Outcome {
    let (backend, threads) = (a.backend, a.threads);
    let spec = a.workload.spec();
    let (r, s) = match a.zipf {
        Some(z) => spec.skewed_row_relations::<Tuple8>(a.scale, z, a.seed),
        None => spec.row_relations::<Tuple8>(a.scale, a.seed),
    };
    println!(
        "{} at scale {}: |R| = {}, |S| = {}{}",
        spec.name,
        a.scale,
        r.len(),
        s.len(),
        a.zipf.map(|z| format!(", zipf {z}")).unwrap_or_default()
    );
    let f = PartitionFn::Murmur { bits: a.bits };
    let fpga = FpgaPartitioner::with_modes(f, OutputMode::pad_default(), InputMode::Rid);
    let engine = backend.engine::<Tuple8>(fpga, threads);
    // A PAD abort falls back to the CPU partitioner (Section 4.5).
    let chain = EscalationChain {
        hist_retry: false,
        ..EscalationChain::new(threads)
    };
    let (result, report) = radix_join(engine.as_ref(), &chain, &r, &s)?;
    println!(
        "{} join: {} matches; partition {:.4} s host + {:.4} s simulated; \
         build+probe {:.4} s host{}",
        backend.label(),
        result.matches,
        report.host_partition_time().as_secs_f64(),
        report.simulated_partition_seconds(),
        report.build_probe.wall.as_secs_f64(),
        if report.degraded() {
            " [PAD overflow → fallback engaged]"
        } else {
            ""
        }
    );
    Ok(())
}

fn sort(a: SortArgs) -> Outcome {
    let SortArgs { n, dist, lsd, .. } = a;
    let rel = Relation::<Tuple8>::from_keys(&dist.generate_keys(n, a.seed));
    let t0 = Instant::now();
    let sorted = if lsd {
        lsd_radix_sort(&rel, a.threads)
    } else {
        sample_sort(&rel, 256)
    };
    let elapsed = t0.elapsed();
    assert!(is_sorted_by_key(&sorted), "sort produced unsorted output");
    println!(
        "{} sort of {n} {} tuples: {:.4} s ({:.1} Mtuples/s), verified sorted",
        if lsd { "LSD radix" } else { "sample" },
        dist.label(),
        elapsed.as_secs_f64(),
        n as f64 / elapsed.as_secs_f64() / 1e6
    );
    Ok(())
}

fn model(a: ModelArgs) -> Outcome {
    let ModelArgs { n, mode, gbps } = a;
    let (output, input) = mode;
    let m = match gbps {
        Some(g) => FpgaCostModel {
            curve: fpart::memmodel::BandwidthCurve::new("flat", vec![(0.0, g), (1.0, g)]),
            ..FpgaCostModel::paper()
        },
        None => FpgaCostModel::paper(),
    };
    println!(
        "Section 4.6 model, {} of {n} 8B tuples{}:",
        mode_label(output, input),
        gbps.map(|g| format!(" at a flat {g} GB/s link"))
            .unwrap_or_else(|| " on the HARP QPI link".into())
    );
    println!(
        "  P_FPGA = {:.0} Mt/s   P_mem = {:.0} Mt/s   P_total = {:.0} Mt/s   time = {:.4} s",
        m.p_fpga(n as u64, 8, output) / 1e6,
        m.p_mem(8, output, input) / 1e6,
        m.p_total(n as u64, 8, output, input) / 1e6,
        m.partition_seconds(n as u64, 8, output, input)
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpart::types::relation::content_checksum;

    /// `partition --in` partitions the file's tuples as stored: payloads
    /// that are not row ids survive into the output.
    #[test]
    fn partition_keeps_file_payloads() {
        let keys = KeyDistribution::Random.generate_keys::<u32>(5000, 3);
        let tuples: Vec<Tuple8> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| Tuple8::new(k, 7 * i as u64 + 3))
            .collect();
        let path =
            std::env::temp_dir().join(format!("fpart-cli-payloads-{}.fprt", std::process::id()));
        fpart_io::write_relation(&Relation::from_tuples(&tuples), &path).unwrap();
        let loaded = load_relation(path.to_str(), 0, KeyDistribution::Random, 0);
        std::fs::remove_file(&path).unwrap();
        let (rel, _) = loaded.unwrap();

        let expect = content_checksum(tuples.iter().copied());
        let f = PartitionFn::Murmur { bits: 6 };
        for (backend, output) in [
            (EngineChoice::Cpu, OutputMode::pad_default()),
            (EngineChoice::Fpga, OutputMode::pad_default()),
            (EngineChoice::Fpga, OutputMode::Hist),
        ] {
            let mode = (output, InputMode::Rid);
            let parts = partition(&rel, "from a file", f, 2, backend, mode).unwrap();
            assert_eq!(
                content_checksum(parts.all_tuples()),
                expect,
                "{backend:?} {output:?}"
            );
        }
    }
}
