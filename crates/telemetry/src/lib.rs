//! Telemetry substrate for ExaDigiT-rs.
//!
//! The paper validates its twin by replaying six months of Frontier
//! telemetry (Table II lists the exact channels and resolutions). That
//! data is proprietary, so — per the substitution rule in DESIGN.md — this
//! crate provides a **synthetic physical twin**: the same plant and power
//! models run with perturbed parameters and sensor noise, producing an
//! independent "measured" signal with realistic model-vs-telemetry
//! discrepancy. The V&V pipelines (RMSE/MAE of Fig. 7, %-error of
//! Table III, the Fig. 9 overlay) are exercised identically.
//!
//! * [`schema`] — the Table II record types and resolutions;
//! * [`generator`] — the synthetic physical twin;
//! * [`reader`] — pluggable telemetry readers (§V: "a pluggable
//!   architecture was developed for reading different types of bespoke
//!   telemetry datasets") behind one plug-in trait;
//! * [`writer`] — CSV/JSON writers for generated datasets;
//! * [`validate`] — channel-comparison metrics and the paper's two V&V
//!   computations (the Fig. 7 cooling replay, the Table III power rows);
//! * [`replay`] — the L2 cooling backend: a `CoSimModel` that answers
//!   the FMI boundary from a recorded trace instead of simulating the
//!   plant (see `docs/FIDELITY.md`).

#![warn(missing_docs)]

pub mod generator;
pub mod reader;
pub mod replay;
pub mod schema;
pub mod validate;
pub mod writer;

pub use generator::{SyntheticTwin, TelemetryDay, TwinParams};
pub use replay::{CoolingTrace, ReplayCoolingModel};
pub use schema::{CoolingChannels, JobRecord};
pub use validate::{
    compare_channels, cooling_validation, power_verification, ChannelComparison,
    CoolingValidation, PowerVerificationRow,
};
