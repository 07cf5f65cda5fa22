//! RAPS — Resource Allocator and Power Simulator.
//!
//! The Rust reproduction of the paper's RAPS module (§III-B): "a tight
//! integration of both the job scheduler in concert with dynamic power
//! consumption calculations". The pieces map one-to-one onto the paper:
//!
//! * [`config`] — the Frontier system description of Table I plus the
//!   JSON-loadable generalised configuration of §V;
//! * [`job`] — jobs characterised by node count, wall time and CPU/GPU
//!   utilization traces at a 15 s trace quantum;
//! * [`arrivals`] — Poisson job arrivals, eq. (5);
//! * [`workload`] — the synthetic workload generator of §III-B3 calibrated
//!   against the Table IV daily statistics, plus scripted benchmark
//!   workloads (HPL, OpenMxP) for the Fig. 8 verification tests;
//! * [`scheduler`] — node pool and scheduling policies (FCFS, SJF as in
//!   the paper, plus EASY backfill as the "more sophisticated algorithm"
//!   the paper plans);
//! * [`power`] — eqs. (1)-(4): node power from utilization, rectifier and
//!   SIVOC conversion-loss curves, rack and system aggregation, and the
//!   smart-rectifier / 380 V DC what-if variants of §IV-3;
//! * [`simulation`] — Algorithm 1: the 1 s `TICK` loop with the cooling
//!   model called every 15 s across the FMI boundary;
//! * [`stats`] — the end-of-run report (§III-B5): jobs completed,
//!   throughput, power, energy, losses, CO₂ (eq. 6) and cost;
//! * [`uq`] — the Monte-Carlo uncertainty quantification the paper says it
//!   embedded into RAPS following the NASEM recommendation (§IV).

// Every public item must be documented; CI turns this (and all rustdoc
// warnings) into errors via `cargo doc` with RUSTDOCFLAGS=-Dwarnings.
#![warn(missing_docs)]

pub mod arrivals;
pub mod config;
pub mod job;
pub mod metrics;
pub mod power;
pub mod scheduler;
pub mod simulation;
pub mod stats;
pub mod uq;
pub mod workload;

pub use config::{FrontierSpec, SystemConfig};
pub use job::{Job, JobId, JobState, UtilTrace};
pub use power::{ConversionModel, PowerDelivery, PowerModel};
pub use scheduler::{NodePool, Policy};
pub use simulation::{CoolingCoupling, RapsSimulation, SimOutputs};
pub use stats::RunReport;
