//! Bit pin of the L4 cooling plant.
//!
//! Two cooled simulated hours of the Frontier model under a fixed, varying
//! per-CDU load and wet-bulb profile (with a blockage injected half way)
//! are folded into one FNV-1a digest over the `to_bits` of all 317
//! outputs after every step, plus the serialized model state at the end.
//! Any change to the plant's arithmetic — even one ulp in one output on
//! one step — changes the digest, so solver and sub-step optimisations
//! must keep it.
//!
//! The digest lives in `tests/fixtures/frontier_2h.digest`. A deliberate
//! change to the plant's physics regenerates it with
//! `EXADIGIT_REGEN_FIXTURES=1 cargo test -p exadigit_cooling --test plant_digest`.
//! It pins `exp`/`powf` results of the platform's libm as well, so it is
//! recorded on x86_64 Linux (the CI platform).

use exadigit_cooling::CoolingModel;
use exadigit_sim::fmi::{Causality, CoSimModel, VarRef};
use std::path::PathBuf;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Run the fixed two-hour profile and digest every output of every step.
fn cooled_two_hours_digest() -> u64 {
    let mut m = CoolingModel::frontier();
    m.setup(0.0);
    let n_cdu = m.spec().num_cdus;
    let design = m.spec().heat_per_cdu_w();
    let outputs: Vec<VarRef> = m
        .variables()
        .iter()
        .filter(|v| v.causality == Causality::Output)
        .map(|v| v.vr)
        .collect();
    assert_eq!(outputs.len(), 317);
    let blockage = m.var_by_name("cdu_blockage[5]").unwrap().vr;

    let mut h = FNV_OFFSET;
    for k in 0..480u32 {
        let phase = k as f64 / 240.0 * std::f64::consts::TAU;
        // Plant load sweeps ~10-110 % of design with a per-CDU ripple, so
        // valves, pump staging and tower staging all move.
        let mut it_power = 0.0;
        for i in 0..n_cdu {
            let frac = 0.55 + 0.45 * phase.sin() + 0.1 * (3.0 * phase + i as f64).sin();
            let heat = design * frac;
            it_power += heat / 0.945;
            m.set_real(VarRef(i as u32), heat).unwrap();
        }
        let wet_bulb = 14.0 + 8.0 * (0.5 * phase).sin();
        m.set_real(VarRef(n_cdu as u32), wet_bulb).unwrap();
        m.set_real(VarRef(n_cdu as u32 + 1), it_power).unwrap();
        if k == 240 {
            m.set_real(blockage, 3.0).unwrap();
        }
        m.do_step(k as f64 * 15.0, 15.0).unwrap();
        for &vr in &outputs {
            h = fnv_bytes(h, &m.get_real(vr).unwrap().to_bits().to_le_bytes());
        }
    }
    // The serialized state is what a cooled snapshot carries.
    fnv_bytes(h, serde_json::to_string(&m).unwrap().as_bytes())
}

fn digest_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/frontier_2h.digest")
}

#[test]
fn frontier_two_cooled_hours_are_bit_pinned() {
    let got = format!("{:016x}", cooled_two_hours_digest());
    let path = digest_path();
    if std::env::var("EXADIGIT_REGEN_FIXTURES").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, format!("{got}\n")).unwrap();
    }
    let pinned = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "pinned digest {} is unreadable ({e}); regenerate with \
             EXADIGIT_REGEN_FIXTURES=1 cargo test -p exadigit_cooling --test plant_digest",
            path.display()
        )
    });
    assert_eq!(
        got,
        pinned.trim(),
        "the cooling plant's outputs changed bits; if the physics changed on \
         purpose, regenerate with EXADIGIT_REGEN_FIXTURES=1 cargo test -p \
         exadigit_cooling --test plant_digest"
    );
}
