//! Machine-readable experiment output.
//!
//! The `exp` binary prints aligned text tables for humans; this module
//! writes the method-sweep (Figs. 9–10) and replay (Fig. 11) rows as CSV
//! so those plots can be regenerated with any external plotting tool
//! (`exp <name> --csv FILE` flows through here).

use crate::experiment::MethodRow;
use crate::timesteps::ReplayRow;
use std::io::{BufWriter, Write};

/// Serialize method-sweep rows (Figs. 9–10).
pub fn method_rows_csv<W: Write>(rows: &[MethodRow], w: W) -> std::io::Result<()> {
    let mut w = BufWriter::new(w);
    writeln!(w, "method,fraction,snr_db,seconds")?;
    for r in rows {
        writeln!(w, "{},{},{},{}", r.method, r.fraction, csv_f64(r.snr), r.seconds)?;
    }
    w.flush()
}

/// Serialize replay rows (Fig. 11); `label` distinguishes the curves.
pub fn replay_rows_csv<W: Write>(
    labeled: &[(&str, &[ReplayRow])],
    w: W,
) -> std::io::Result<()> {
    let mut w = BufWriter::new(w);
    writeln!(w, "label,t,snr_db,fine_tune_loss")?;
    for (label, rows) in labeled {
        for r in *rows {
            let ft = r
                .fine_tune_loss
                .map(|l| l.to_string())
                .unwrap_or_default();
            writeln!(w, "{},{},{},{}", label, r.t, csv_f64(r.snr), ft)?;
        }
    }
    w.flush()
}

/// NaN/inf-safe float formatting (empty cell for NaN, `inf` spelled out).
fn csv_f64(v: f64) -> String {
    if v.is_nan() {
        String::new()
    } else if v.is_infinite() {
        if v > 0.0 { "inf".into() } else { "-inf".into() }
    } else {
        v.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_rows_have_header_and_rows() {
        let rows = vec![
            MethodRow {
                method: "fcnn".into(),
                fraction: 0.01,
                snr: 27.5,
                seconds: 0.2,
            },
            MethodRow {
                method: "linear".into(),
                fraction: 0.01,
                snr: f64::NAN,
                seconds: 1.5,
            },
        ];
        let mut buf = Vec::new();
        method_rows_csv(&rows, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "method,fraction,snr_db,seconds");
        assert_eq!(lines[1], "fcnn,0.01,27.5,0.2");
        assert_eq!(lines[2], "linear,0.01,,1.5"); // NaN -> empty cell
    }

    #[test]
    fn replay_rows_have_labels() {
        let rows = vec![ReplayRow {
            t: 3,
            snr: 22.0,
            fine_tune_loss: Some(0.01),
        }];
        let mut buf = Vec::new();
        replay_rows_csv(&[("tuned", rows.as_slice())], &mut buf).unwrap();
        assert!(String::from_utf8(buf).unwrap().contains("tuned,3,22,0.01"));
    }

    #[test]
    fn inf_formatting() {
        assert_eq!(csv_f64(f64::INFINITY), "inf");
        assert_eq!(csv_f64(f64::NEG_INFINITY), "-inf");
        assert_eq!(csv_f64(1.25), "1.25");
        assert_eq!(csv_f64(f64::NAN), "");
    }
}
