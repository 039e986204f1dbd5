//! Machine-readable result records for the perf trajectory.
//!
//! Figures report each simulated/measured data point through [`emit`];
//! the `figures` binary drains the collector at the end of the run and
//! writes them as a JSON array (`--json BENCH_figures.json`). The
//! collector is a process-global mutex so figure code stays oblivious to
//! the harness's threading. Each record is written and read through
//! `fpart::obs::json`, the workspace's one JSON codec.

use std::sync::Mutex;

use fpart::obs::json;

/// One benchmark data point: a named point within a figure.
#[derive(Debug, Clone, PartialEq)]
pub struct PointRecord {
    /// Figure id, e.g. `"fig9"`.
    pub figure: String,
    /// Point label within the figure, e.g. `"PAD/VRID"` or `"parts=8192"`.
    pub point: String,
    /// Throughput of the modeled device at this point (0 when the point
    /// has no throughput semantics, e.g. a pure wall-clock record).
    pub mtuples_per_s: f64,
    /// Simulated device cycles (0 for measured CPU points).
    pub cycles: u64,
    /// Host wall-clock seconds spent producing the point.
    pub wall_s: f64,
    /// Simulated cycles the device's read port spent stalled on the link
    /// (scatter + histogram passes; 0 for points without a stall
    /// breakdown, e.g. measured CPU points).
    pub read_stall_cycles: u64,
    /// Simulated cycles the write port spent stalled on the link.
    pub write_stall_cycles: u64,
}

static RECORDS: Mutex<Vec<PointRecord>> = Mutex::new(Vec::new());

/// Append one record to the process-global collector.
pub fn emit(figure: &str, point: &str, mtuples_per_s: f64, cycles: u64, wall_s: f64) {
    emit_with_stalls(figure, point, mtuples_per_s, cycles, wall_s, 0, 0);
}

/// [`emit`] with the simulated stall breakdown attached.
pub fn emit_with_stalls(
    figure: &str,
    point: &str,
    mtuples_per_s: f64,
    cycles: u64,
    wall_s: f64,
    read_stall_cycles: u64,
    write_stall_cycles: u64,
) {
    RECORDS.lock().unwrap().push(PointRecord {
        figure: figure.to_string(),
        point: point.to_string(),
        mtuples_per_s,
        cycles,
        wall_s,
        read_stall_cycles,
        write_stall_cycles,
    });
}

/// Emit one record straight from a simulated FPGA run report, pulling
/// throughput, cycles and the stall breakdown from its observability
/// snapshot (read stalls sum the scatter and histogram passes).
pub fn emit_report(figure: &str, point: &str, report: &fpart_fpga::RunReport, wall_s: f64) {
    use fpart::obs::Ctr;
    let obs = &report.obs;
    emit_with_stalls(
        figure,
        point,
        report.mtuples_per_sec(),
        report.total_cycles(),
        wall_s,
        obs.get(Ctr::RdStall) + obs.get(Ctr::HistRdStall),
        obs.get(Ctr::WrStall),
    );
}

/// Drain every record emitted so far (in emission order).
pub fn drain() -> Vec<PointRecord> {
    std::mem::take(&mut *RECORDS.lock().unwrap())
}

/// Render records as a JSON array, one object per line.
pub fn to_json(records: &[PointRecord]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        let obj = json::object()
            .field("figure", r.figure.as_str())
            .field("point", r.point.as_str())
            .field("mtuples_per_s", &r.mtuples_per_s)
            .field("cycles", &r.cycles)
            .field("wall_s", &r.wall_s)
            .field("read_stall_cycles", &r.read_stall_cycles)
            .field("write_stall_cycles", &r.write_stall_cycles);
        let sep = if i + 1 == records.len() { "" } else { "," };
        out.push_str(&format!("  {}{sep}\n", obj.finish()));
    }
    out.push_str("]\n");
    out
}

/// Parse a JSON array previously produced by [`to_json`] (or an
/// equivalently-shaped file). Unknown keys are ignored and missing
/// numbers default to 0, so baselines written before the stall-cycle
/// keys existed still parse; objects without `figure` and `point` are
/// skipped.
pub fn from_json(text: &str) -> Vec<PointRecord> {
    json::elements(text)
        .unwrap_or_default()
        .into_iter()
        .filter_map(json::Reader::parse)
        .filter_map(|obj| {
            Some(PointRecord {
                figure: obj.string("figure")?,
                point: obj.string("point")?,
                mtuples_per_s: obj.number("mtuples_per_s").unwrap_or(0.0),
                cycles: obj.number("cycles").unwrap_or(0),
                wall_s: obj.number("wall_s").unwrap_or(0.0),
                read_stall_cycles: obj.number("read_stall_cycles").unwrap_or(0),
                write_stall_cycles: obj.number("write_stall_cycles").unwrap_or(0),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips() {
        let records = vec![
            PointRecord {
                figure: "fig9".into(),
                point: "PAD/VRID".into(),
                mtuples_per_s: 514.25,
                cycles: 123_456_789,
                wall_s: 0.125,
                read_stall_cycles: 1000,
                write_stall_cycles: 250,
            },
            PointRecord {
                figure: "suite".into(),
                point: "total \"quoted\"".into(),
                mtuples_per_s: 0.0,
                cycles: 0,
                wall_s: 20.5,
                read_stall_cycles: 0,
                write_stall_cycles: 0,
            },
        ];
        let parsed = from_json(&to_json(&records));
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].figure, "fig9");
        assert_eq!(parsed[0].point, "PAD/VRID");
        assert!((parsed[0].mtuples_per_s - 514.25).abs() < 1e-6);
        assert_eq!(parsed[0].cycles, 123_456_789);
        assert_eq!(parsed[0].read_stall_cycles, 1000);
        assert_eq!(parsed[0].write_stall_cycles, 250);
        assert_eq!(parsed[1].point, "total \"quoted\"");
        assert!((parsed[1].wall_s - 20.5).abs() < 1e-6);
    }

    #[test]
    fn tolerates_unknown_keys_and_whitespace() {
        let text = r#"[
          {"figure":"fig8", "extra": [1,2,{"x":3}], "point":"16B",
           "mtuples_per_s": 1.5e2, "cycles": 42, "wall_s": 0.01}
        ]"#;
        let parsed = from_json(text);
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].figure, "fig8");
        assert!((parsed[0].mtuples_per_s - 150.0).abs() < 1e-9);
        assert_eq!(parsed[0].cycles, 42);
    }

    #[test]
    fn non_finite_wall_time_is_written_as_null() {
        let record = PointRecord {
            figure: "fig9".into(),
            point: "broken".into(),
            mtuples_per_s: 1.0,
            cycles: 0,
            wall_s: f64::INFINITY,
            read_stall_cycles: 0,
            write_stall_cycles: 0,
        };
        let json = to_json(&[record]);
        assert!(json.contains("\"wall_s\": null,"), "{json}");
        assert!(from_json(&json)[0].wall_s.is_nan());
    }

    #[test]
    fn parses_pre_stall_schema_baselines() {
        // A baseline written before the stall keys existed must keep
        // parsing, with the missing counters defaulting to zero.
        let text = r#"[
          {"figure": "fig9", "point": "PAD/RID", "mtuples_per_s": 500.0,
           "cycles": 100, "wall_s": 0.5}
        ]"#;
        let parsed = from_json(text);
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].read_stall_cycles, 0);
        assert_eq!(parsed[0].write_stall_cycles, 0);
    }
}
