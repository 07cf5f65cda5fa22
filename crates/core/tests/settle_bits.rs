//! Bit pins for the L4 plant-settle protocol.
//!
//! Three drivers settle the plant through `whatif::settle_plant` (CDU
//! heats, then wet-bulb, then IT power, then fixed 15 s steps): the
//! cooling-extension study, the L4 what-if grid and the surrogate's
//! training sweep. The constants are their outputs on the small
//! Marconi100-like plant; a change to the protocol's inputs or order of
//! operations moves a bit here, and a refactor must not.

use exadigit_cooling::PlantSpec;
use exadigit_core::surrogate::generate_training_data;
use exadigit_core::whatif::{whatif_grid, CoolingExtensionStudy, Fidelity, PlantCondition};

fn condition_bits(c: &PlantCondition) -> [u64; 4] {
    [c.htws_temp_c, c.pue, c.cells_staged, c.cooling_power_w].map(f64::to_bits)
}

#[test]
fn cooling_extension_study_bits_are_pinned() {
    let spec = PlantSpec::marconi100_like();
    let study = CoolingExtensionStudy::run(&spec, 0.6, 0.5, 16.0).unwrap();
    assert_eq!(
        condition_bits(&study.baseline),
        [0x403800508327e585, 0x3ff08ab7b2e286f3, 0x4000000000000000, 0x40f43688d6799210]
    );
    assert_eq!(
        condition_bits(&study.extended),
        [0x403802f6bfcdf2be, 0x3ff06873c776ce1e, 0x4000000000000000, 0x40f4a77f291fc0d0]
    );
    assert_eq!(study.extension_w, 0.5e6);
}

#[test]
fn l4_whatif_grid_bits_are_pinned() {
    let spec = PlantSpec::marconi100_like();
    let grid = whatif_grid(&spec, &Fidelity::Plant, &[0.45, 0.7], &[12.0, 16.0]).unwrap();
    let bits: Vec<[u64; 2]> =
        grid.points.iter().map(|p| [p.pue.to_bits(), p.cooling_power_w.to_bits()]).collect();
    assert_eq!(
        bits,
        [
            [0x3ff0b4400de37be4, 0x40f3eb4c646da2b9],
            [0x3ff0b4cd22cb63b4, 0x40f3f41ba38bb0ac],
            [0x3ff077649a1cc36a, 0x40f442c60d43c8d4],
            [0x3ff078d67dc10573, 0x40f466b3c82cbb8d],
        ]
    );
    assert_eq!(grid.extrapolations, 0);
}

#[test]
fn surrogate_training_sweep_bits_are_pinned() {
    let spec = PlantSpec::marconi100_like();
    let samples = generate_training_data(&spec, &[0.3, 0.9], &[10.0, 18.0], 50).unwrap();
    let bits: Vec<[u64; 2]> =
        samples.iter().map(|s| [s.pue.to_bits(), s.cooling_power_w.to_bits()]).collect();
    assert_eq!(
        bits,
        [
            [0x3ff10e5124e434ea, 0x40f3eaa66d8dff58],
            [0x3ff10e9e194b79a6, 0x40f3edda876a3494],
            [0x3ff06021d3bc771b, 0x40f4ab524d7e7e69],
            [0x3ff064dd8bdcda7e, 0x40f542a5ee7faf7e],
        ]
    );
}
