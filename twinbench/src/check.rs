//! Bit-level comparison of what-if outcomes.
//!
//! `PartialEq` on `f64` calls `0.0 == -0.0` equal and `NaN` unequal to
//! itself; the twin's contract is stronger (`f64::to_bits` identity), so
//! answers are compared by their bits.

use exadigit_service::WhatIfOutcome;

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// True when two outcomes are identical to the bit.
pub fn same_outcome(a: &WhatIfOutcome, b: &WhatIfOutcome) -> bool {
    a.label == b.label
        && a.from_s == b.from_s
        && a.to_s == b.to_s
        && a.jobs_completed == b.jobs_completed
        && a.draws == b.draws
        && bits(&[
            a.avg_power_mw,
            a.power_std_mw,
            a.energy_mwh,
            a.energy_std_mwh,
        ]) == bits(&[
            b.avg_power_mw,
            b.power_std_mw,
            b.energy_mwh,
            b.energy_std_mwh,
        ])
        && a.final_pue.map(f64::to_bits) == b.final_pue.map(f64::to_bits)
        && a.final_utilization.to_bits() == b.final_utilization.to_bits()
        && bits(&a.draw_avg_power_mw) == bits(&b.draw_avg_power_mw)
        && bits(&a.draw_energy_mwh) == bits(&b.draw_energy_mwh)
}

/// [`same_outcome`] as a check result: `got` must equal what the twin
/// computed in-process.
pub fn matches_reference(
    got: &WhatIfOutcome,
    computed: &WhatIfOutcome,
    what: impl FnOnce() -> String,
) -> Result<(), String> {
    if same_outcome(got, computed) {
        Ok(())
    } else {
        Err(format!("{} differs from the in-process run", what()))
    }
}

/// Flip the lowest mantissa bit of an expected answer: the benchmark's
/// `--corrupt-expected` self-test, which must turn matching answers into
/// counted failures.
pub fn corrupt(outcome: &mut WhatIfOutcome) {
    outcome.avg_power_mw = f64::from_bits(outcome.avg_power_mw.to_bits() ^ 1);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> WhatIfOutcome {
        WhatIfOutcome {
            label: "x".into(),
            from_s: 0,
            to_s: 60,
            jobs_completed: 1,
            avg_power_mw: 8.0,
            power_std_mw: 0.0,
            energy_mwh: 0.13,
            energy_std_mwh: 0.0,
            final_pue: Some(1.03),
            final_utilization: 0.5,
            draw_avg_power_mw: vec![7.9, 8.1],
            draw_energy_mwh: vec![0.12, 0.14],
            draws: 2,
        }
    }

    #[test]
    fn one_flipped_bit_is_a_mismatch() {
        let a = outcome();
        assert!(same_outcome(&a, &a.clone()));
        let mut b = a.clone();
        corrupt(&mut b);
        assert!(!same_outcome(&a, &b));
        let mut c = a.clone();
        c.power_std_mw = -0.0;
        assert!(!same_outcome(&a, &c), "signed zero differs in bits");
    }
}
