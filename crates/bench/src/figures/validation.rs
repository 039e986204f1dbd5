//! Section 4.8: validation of the analytical model.
//!
//! The paper derives 294 / 435 / 495 M tuples/s for the three `r` values
//! and reports the model "matches the experiments within 10%". This
//! harness adds a third column: the cycle-level simulation, which must
//! match the same model within a comparable envelope.

use fpart_costmodel::{read_write_ratio, FpgaCostModel};
use fpart_fpga::{mode_label, InputMode, OutputMode};

use crate::figures::common::{scale_note, sim_points};
use crate::table::{fnum, TextTable};
use crate::Scale;

/// Generate the model-validation report.
pub fn run(scale: &Scale) -> Vec<TextTable> {
    let n = scale.n_128m();
    let bits = scale.partition_bits_for(13);
    let model = {
        let mut m = FpgaCostModel::paper();
        m.partitions = 1 << bits;
        m
    };

    let mut t = TextTable::new(
        "Section 4.8 — model validation (Mtuples/s, 8B tuples)",
        &[
            "mode",
            "r",
            "B(r) GB/s",
            "paper model",
            "paper measured",
            "our model",
            "our sim",
            "delta",
        ],
    );
    let (hist, pad) = (OutputMode::Hist, OutputMode::pad_default());
    let rows = [
        ((hist, InputMode::Rid), 294.0, 299.0),
        ((hist, InputMode::Vrid), 435.0, 391.0),
        ((pad, InputMode::Rid), 435.0, 436.0),
        ((pad, InputMode::Vrid), 495.0, 514.0),
    ];
    let points: Vec<_> = rows.iter().map(|&(mode, _, _)| (mode, false)).collect();
    let sims = sim_points("validation", &points, n, bits, scale.seed);
    for (i, &((output, input), paper_model, paper_measured)) in rows.iter().enumerate() {
        let ours_model = model.p_total(n as u64, 8, output, input) / 1e6;
        let sim = sims[i].mtuples_per_sec();
        let delta = (sim - ours_model) / ours_model * 100.0;
        let r = read_write_ratio(output, input);
        t.row(vec![
            mode_label(output, input),
            fnum(r),
            fnum(model.curve.gbps(fpart::memmodel::RwMix::from_r(r))),
            fnum(paper_model),
            fnum(paper_measured),
            fnum(ours_model),
            fnum(sim),
            format!("{delta:+.1}%"),
        ]);
    }
    t.note("paper: \"the model matches the experiments within 10%\"");
    t.note(scale_note(scale));
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_stay_within_fifteen_percent() {
        let scale = Scale {
            fraction: 1.0 / 512.0,
            host_threads: 1,
            seed: 9,
        };
        let out = crate::table::render_tables(&run(&scale));
        for line in out
            .lines()
            .filter(|l| l.contains('%') && l.contains('+') || l.contains("-"))
        {
            if let Some(pct) = line
                .split_whitespace()
                .last()
                .and_then(|c| c.trim_end_matches('%').parse::<f64>().ok())
            {
                assert!(pct.abs() < 15.0, "delta too large: {line}");
            }
        }
        assert!(out.contains("HIST/RID"));
    }
}
