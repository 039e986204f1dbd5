//! The measurement loop: repeated set-up, warm-up, timed ops with
//! out-of-timer checks and the determinism guard, then the metrics.

use std::time::{Duration, Instant};

use crate::alloc;
use crate::stats::{median, summarize, Summary};
use crate::trace::Tracer;
use crate::workload::{Config, Exact, Workload};
use crate::workloads::PROBE_REPS;

/// Set-ups per run, at least; `setup_s` is their median and the last
/// one is used.
pub const SETUP_REPS: u64 = 5;
/// Host time set-up repeats for, at least, so a quick set-up is still
/// measured many times.
pub const SETUP_SECONDS: f64 = 1.0;
/// Ops run and checked before timing starts, then discarded.
pub const WARMUP_OPS: u64 = 2;
/// Untraced timed ops at least, so the tail percentile has ten ops beyond it.
pub const MIN_TIMED_OPS: usize = crate::stats::TAIL_BEYOND + 1;

/// End-to-end metrics as `(name, unit)`, in output order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("host_mtuples_per_s", "Mtuples/s"),
    ("sim_mtuples_per_s", "Mtuples/s"),
    ("peak_heap_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics of the traced run as `(name, unit)`. A layer the
/// workload's op does not call reads 0.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("datagen.gen_ms", "ms"),
    ("io.write_ms", "ms"),
    ("io.read_ms", "ms"),
    ("io.read_ns_per_tuple", "ns/tuple"),
    ("hash.ns_per_key", "ns/key"),
    ("cpu.histogram_ms", "ms"),
    ("cpu.partition_ms", "ms"),
    ("cpu.partition_ns_per_tuple", "ns/tuple"),
    ("cpu.swwcb_full_flushes", "count"),
    ("cpu.swwcb_partial_flushes", "count"),
    ("cpu.nt_store_lines", "count"),
    ("cpu.partition_2t_ms", "ms"),
    ("cpu.scaling_2t", "ratio"),
    ("join.plan_us", "us"),
    ("join.partition_r_ms", "ms"),
    ("join.partition_s_ms", "ms"),
    ("join.build_probe_ms", "ms"),
    ("join.chain_attempts", "count"),
    ("join.wasted_cycles", "count"),
    ("costmodel.fpga_err_pct", "%"),
    ("fpga.sim_cycles", "count"),
    ("fpga.padding_slots", "count"),
    ("fpga.tick_ms", "ms"),
    ("fpga.tick_ns_per_cycle", "ns/cycle"),
    ("hwsim.qpi_lines_read", "count"),
    ("hwsim.qpi_lines_written", "count"),
    ("hwsim.read_stall_cycles", "count"),
    ("hwsim.write_stall_cycles", "count"),
    ("hwsim.translations", "count"),
    ("obs.counters_overhead_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.unaccounted_pct", "%"),
];

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
    /// Human-readable context: quartiles, counts, percentile.
    pub detail: String,
}

/// How long and how to measure.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run: alternate traced and untraced ops and report the
    /// per-layer metrics.
    pub trace: bool,
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Ops run and checked, warm-up included.
    pub attempted: u64,
    /// Ops that returned an error or failed their check.
    pub failed: u64,
    /// The first few failure messages, plus any run-level error.
    pub errors: Vec<String>,
    /// Whether a run-level error (not an op) occurred.
    pub run_error: bool,
    /// End-to-end metrics, from untraced ops.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// FNV-1a digest of every exact statistic; equal across runs at
    /// one seed.
    pub exact_digest: u64,
    /// Input tuples per op.
    pub tuples: u64,
    /// The recorded spans.
    pub tracer: Tracer,
}

impl Outcome {
    /// No op failed and nothing else went wrong.
    pub fn correct(&self) -> bool {
        self.failed == 0 && !self.run_error
    }
}

const MAX_ERRORS: usize = 5;

struct Recorder {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    reference: Option<Exact>,
}

impl Recorder {
    /// Count one op; apply the determinism guard to its exact stats.
    fn record(&mut self, op: u64, result: Result<Exact, String>) {
        self.attempted += 1;
        let err = match (result, &self.reference) {
            (Err(e), _) => Some(e),
            (Ok(exact), None) => {
                self.reference = Some(exact);
                None
            }
            (Ok(exact), Some(first)) => deviation(first, &exact),
        };
        if let Some(e) = err {
            self.failed += 1;
            if self.errors.len() < MAX_ERRORS {
                self.errors.push(format!("op {op}: {e}"));
            }
        }
    }
}

/// The first exact statistic that differs from the first checked op's.
fn deviation(first: &Exact, exact: &Exact) -> Option<String> {
    let keys = first.keys().chain(exact.keys());
    for k in keys {
        let (a, b) = (first.get(k), exact.get(k));
        if a.map(|v| v.to_bits()) != b.map(|v| v.to_bits()) {
            return Some(format!(
                "nondeterministic {k}: first op {a:?}, this op {b:?}"
            ));
        }
    }
    None
}

/// Set up `W` and measure it. `prepare` sees the final set-up before
/// any op runs (tests use it to corrupt a reference).
pub fn run<W: Workload>(
    cfg: &Config,
    opts: RunOpts,
    prepare: impl FnOnce(&mut W),
) -> Result<Outcome, String> {
    let mut tr = Tracer::new(opts.trace);
    let mut op_id = 0u64;

    let mut setup_s: Vec<f64> = Vec::new();
    let mut workload = None;
    while op_id < SETUP_REPS || setup_s.iter().sum::<f64>() < SETUP_SECONDS {
        drop(workload.take());
        tr.set_op(op_id);
        op_id += 1;
        let t = Instant::now();
        let built = tr.span("setup", |tr| W::setup(cfg, tr))?;
        setup_s.push(t.elapsed().as_secs_f64());
        workload = Some(built);
    }
    let setup_ops = op_id;
    let mut w = workload.expect("SETUP_REPS > 0");
    prepare(&mut w);

    let mut rec = Recorder {
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        reference: None,
    };
    tr.set_on(false);
    for _ in 0..WARMUP_OPS {
        let out = w.op(&mut tr);
        rec.record(op_id, out.and_then(|o| w.check(o)));
        op_id += 1;
    }

    let mut untraced_ms = Vec::new();
    let mut traced = Vec::new();
    let deadline = Duration::from_secs_f64(opts.seconds);
    alloc::reset_peak();
    let start = Instant::now();
    while untraced_ms.len() < MIN_TIMED_OPS || start.elapsed() < deadline {
        let trace_this = opts.trace && (untraced_ms.len() + traced.len()) % 2 == 1;
        tr.set_on(trace_this);
        tr.set_op(op_id);
        let t = Instant::now();
        let out = tr.span("op", |tr| w.op(tr));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        tr.set_on(false);
        if trace_this {
            traced.push((op_id, ms));
        } else {
            untraced_ms.push(ms);
        }
        rec.record(op_id, out.and_then(|o| w.check(o)));
        op_id += 1;
    }
    let peak = alloc::peak_bytes();

    let mut run_error = false;
    let sim = match &rec.reference {
        Some(exact) => w.sim_mtuples_per_s(exact),
        None => Err("no op passed its check".into()),
    }
    .unwrap_or_else(|e| {
        run_error = true;
        rec.errors.push(format!("sim_mtuples_per_s: {e}"));
        0.0
    });
    let exact = rec.reference.clone().unwrap_or_default();

    let timing = summarize(&untraced_ms).expect("at least MIN_TIMED_OPS ops");
    let setup = summarize(&setup_s).expect("SETUP_REPS > 0");
    let host_s: f64 = untraced_ms.iter().sum::<f64>() / 1e3;
    let host_mtps = w.tuples() as f64 * untraced_ms.len() as f64 / host_s / 1e6;
    let end_to_end = vec![
        metric(0, timing.p50, quartiles(&timing)),
        metric(
            1,
            timing.tail,
            format!(
                "p{:.1}: {} of {} ops beyond",
                timing.tail_pct, timing.beyond, timing.n
            ),
        ),
        metric(
            2,
            host_mtps,
            format!(
                "{} tuples x {} ops / {host_s:.3} host s",
                w.tuples(),
                untraced_ms.len()
            ),
        ),
        metric(3, sim, "simulated 200 MHz FPGA time".into()),
        metric(4, peak as f64 / 1e6, "peak live heap, timed phase".into()),
        metric(5, setup.p50, quartiles(&setup)),
    ];

    let per_layer = if opts.trace {
        let probes = w.probes();
        layer_metrics(
            &tr,
            setup_ops,
            &untraced_ms,
            &traced,
            &exact,
            &probes,
            w.tuples(),
        )
    } else {
        Vec::new()
    };
    let mut digest_input = exact.clone();
    digest_input.insert("sim_mtuples_per_s", sim);
    Ok(Outcome {
        attempted: rec.attempted,
        failed: rec.failed,
        errors: rec.errors,
        run_error,
        end_to_end,
        per_layer,
        exact_digest: digest(&digest_input),
        tuples: w.tuples(),
        tracer: tr,
    })
}

fn metric(idx: usize, value: f64, detail: String) -> Metric {
    let (name, unit) = END_TO_END[idx];
    Metric {
        name,
        unit,
        value,
        detail,
    }
}

fn quartiles(s: &Summary) -> String {
    format!("q1 {:.4} q3 {:.4} n={}", s.q1, s.q3, s.n)
}

/// FNV-1a over `(name, value bits)` pairs in name order.
fn digest(exact: &Exact) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (k, v) in exact {
        for b in k.bytes().chain(v.to_bits().to_le_bytes()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Fill every [`PER_LAYER`] metric from the spans, exact stats and
/// probes of a traced run.
fn layer_metrics(
    tr: &Tracer,
    setup_ops: u64,
    untraced_ms: &[f64],
    traced: &[(u64, f64)],
    exact: &Exact,
    probes: &[(&'static str, f64)],
    tuples: u64,
) -> Vec<Metric> {
    let selfs = tr.self_ns();
    // Self time of the spans called `name` in ops `ids`, ms: the median,
    // and the quartiles and op count for the table.
    let span_ms = |name: &str, ids: &mut dyn Iterator<Item = u64>| {
        let v: Vec<f64> = ids
            .filter_map(|op| selfs.get(&(op, name)))
            .map(|&ns| ns as f64 / 1e6)
            .collect();
        summarize(&v).map_or((0.0, String::new()), |s| (s.p50, quartiles(&s)))
    };
    let op_ms = |name: &str| span_ms(name, &mut traced.iter().map(|&(op, _)| op));
    let setup_ms = |name: &str| span_ms(name, &mut (0..setup_ops));
    let per = |ms: f64, count: f64| {
        let v = if count > 0.0 { ms * 1e6 / count } else { 0.0 };
        (v, String::new())
    };

    let traced_ms: Vec<f64> = traced.iter().map(|&(_, ms)| ms).collect();
    let overhead_pct = (median(&traced_ms) / median(untraced_ms) - 1.0) * 100.0;
    let op_spans: Vec<f64> = tr
        .spans()
        .iter()
        .filter(|s| s.name == "op" && s.parent.is_none())
        .map(|s| selfs[&(s.op, "op")] as f64 / s.dur_ns().max(1) as f64 * 100.0)
        .collect();

    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let (value, detail) = match name {
                "datagen.gen_ms" => setup_ms("datagen.gen"),
                "io.write_ms" => setup_ms("io.write"),
                "io.read_ms" => op_ms("io.read"),
                "io.read_ns_per_tuple" => per(op_ms("io.read").0, tuples as f64),
                "cpu.partition_ms" => op_ms("cpu.partition"),
                "cpu.partition_ns_per_tuple" => per(op_ms("cpu.partition").0, tuples as f64),
                "join.plan_us" => (op_ms("join.plan").0 * 1e3, String::new()),
                "join.partition_r_ms" => op_ms("join.partition_r"),
                "join.partition_s_ms" => op_ms("join.partition_s"),
                "join.build_probe_ms" => op_ms("join.build_probe"),
                "trace.overhead_pct" => (overhead_pct, String::new()),
                "trace.unaccounted_pct" => (median(&op_spans), String::new()),
                _ => match exact.get(name) {
                    Some(&v) => (v, "exact".to_string()),
                    None => probes
                        .iter()
                        .find(|(k, _)| *k == name)
                        .map_or((0.0, String::new()), |&(_, v)| {
                            (v, format!("probe, median of {PROBE_REPS}"))
                        }),
                },
            };
            Metric {
                name,
                unit,
                value,
                detail,
            }
        })
        .collect()
}
