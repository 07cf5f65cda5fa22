//! Every input a run sends or replays, generated from `--seed`.
//!
//! The program under test sees only what these functions produce: the
//! request streams, the what-if specs and the recorded telemetry days.
//! Streams are infinite and deterministic per (seed, stream), so a
//! fixed-duration run sends a prefix whose length depends on speed but
//! whose content does not.

use exadigit_raps::job::Job;
use exadigit_raps::power::PowerDelivery;
use exadigit_raps::workload::{WorkloadGenerator, WorkloadParams};
use exadigit_service::{Request, WhatIfSpec};
use exadigit_sim::Rng;

/// Specs warmed into the cache before serve_hot is timed.
pub const HOT_SPECS: usize = 8;
/// Specs per serve_hot `QueryBatch`.
pub const HOT_BATCH: usize = 3;
/// serve_hot's snapshot: the live twin at noon of day 0.
pub const HOT_SNAPSHOT_S: u64 = 43_200;

/// serve_whatif's setup snapshots: 4 of them, 6 h apart from noon.
pub const WHATIF_SNAPSHOTS: u64 = 4;
pub const WHATIF_FIRST_SNAPSHOT_S: u64 = 43_200;
pub const WHATIF_SNAPSHOT_GAP_S: u64 = 6 * 3_600;
/// Every 8th analyst query is a UQ ensemble of this many draws.
pub const WHATIF_DRAWS: u64 = 8;

const DELIVERIES: [Option<PowerDelivery>; 3] = [
    None,
    Some(PowerDelivery::SmartRectifiers),
    Some(PowerDelivery::Direct380Vdc),
];

/// The specs serve_hot warms and then asks for again and again.
pub fn hot_specs(seed: u64) -> Vec<WhatIfSpec> {
    let mut rng = Rng::new(seed).split(0x4077);
    (0..HOT_SPECS)
        .map(|i| WhatIfSpec {
            label: format!("hot-{i}"),
            horizon_s: 900 * (1 + rng.uniform_usize(4) as u64),
            wet_bulb_offset_c: (rng.uniform_range(-3.0, 3.0) * 2.0).round() / 2.0,
            delivery: DELIVERIES[rng.uniform_usize(DELIVERIES.len())],
            ..WhatIfSpec::default()
        })
        .collect()
}

/// One serve_hot request and the answer it must get.
#[derive(Debug, Clone, PartialEq)]
pub enum HotOp {
    /// `Query` of warmed spec `k`.
    Query(usize),
    /// `Status` probe.
    Status,
    /// `QueryBatch` of warmed specs.
    Batch([usize; HOT_BATCH]),
}

impl HotOp {
    pub fn request(&self, specs: &[WhatIfSpec]) -> Request {
        match self {
            HotOp::Query(k) => Request::Query {
                snapshot_id: 1,
                spec: specs[*k].clone(),
            },
            HotOp::Status => Request::Status,
            HotOp::Batch(ks) => Request::QueryBatch {
                snapshot_id: 1,
                specs: ks.iter().map(|&k| specs[k].clone()).collect(),
            },
        }
    }
}

/// The serve_hot mix for one connection: ~85 % cache-hit `Query`,
/// ~10 % `Status`, ~5 % `QueryBatch`.
pub struct HotStream {
    rng: Rng,
}

impl HotStream {
    pub fn new(seed: u64, connection: u64) -> Self {
        HotStream {
            rng: Rng::new(seed).split(0x1000 + connection),
        }
    }
}

impl Iterator for HotStream {
    type Item = HotOp;
    fn next(&mut self) -> Option<HotOp> {
        let u = self.rng.uniform();
        Some(if u < 0.85 {
            HotOp::Query(self.rng.uniform_usize(HOT_SPECS))
        } else if u < 0.95 {
            HotOp::Status
        } else {
            let mut ks = [0; HOT_BATCH];
            for k in &mut ks {
                *k = self.rng.uniform_usize(HOT_SPECS);
            }
            HotOp::Batch(ks)
        })
    }
}

/// The analyst's stream: every spec distinct (the label carries the
/// query index), so none is a cache hit.
pub struct WhatIfStream {
    rng: Rng,
    next: u64,
}

impl WhatIfStream {
    pub fn new(seed: u64) -> Self {
        WhatIfStream {
            rng: Rng::new(seed).split(0x2000),
            next: 0,
        }
    }
}

impl Iterator for WhatIfStream {
    /// (snapshot id, spec)
    type Item = (u64, WhatIfSpec);
    fn next(&mut self) -> Option<(u64, WhatIfSpec)> {
        let i = self.next;
        self.next += 1;
        let rng = &mut self.rng;
        // 15 min – 4 h in whole minutes.
        let horizon_s = 900 + 60 * rng.uniform_usize(226) as u64;
        let extra_jobs = (0..rng.uniform_usize(3))
            .map(|j| {
                Job::new(
                    (1 << 40) + i * 4 + j as u64,
                    "what-if",
                    64 << rng.uniform_usize(6),
                    600 + 60 * rng.uniform_usize(110) as u64,
                    0,
                    rng.uniform_range(0.2, 0.9) as f32,
                    rng.uniform_range(0.2, 0.9) as f32,
                )
            })
            .collect();
        let spec = WhatIfSpec {
            label: format!("q{i}"),
            horizon_s,
            wet_bulb_offset_c: (rng.uniform_range(-3.0, 3.0) * 2.0).round() / 2.0,
            delivery: DELIVERIES[rng.uniform_usize(DELIVERIES.len())],
            extra_jobs,
            draws: if i % 8 == 7 { WHATIF_DRAWS } else { 1 },
            ..WhatIfSpec::default()
        };
        // Cycle over the setup snapshots, which are taken first (ids 1..=4).
        Some((1 + i % WHATIF_SNAPSHOTS, spec))
    }
}

/// One telemetry day to record and replay: its jobs (submit times
/// relative to the day's midnight) and the index that picks its weather
/// and sensor noise.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayDay {
    pub day_index: u64,
    pub jobs: Vec<Job>,
}

/// Day profiles (how often jobs arrive, how long they run, how full the
/// machine is) come from this fixed seed, so every run replays the same
/// mix of light and saturated days and `--seed` draws the jobs, weather
/// and sensor noise within them. Drawn from `--seed` as well, the mix —
/// not the twin — would decide most of a run's speed.
const PROFILE_SEED: u64 = 0xDA75;

/// The replay workload's day set: `days` days of the default workload
/// model. Each day keeps the profile of day `d` of the fixed profile
/// stream; its jobs are drawn from `seed`.
pub fn replay_days(seed: u64, days: u64) -> Vec<ReplayDay> {
    let defaults = WorkloadParams::default();
    let profiles = WorkloadGenerator::new(defaults.clone(), PROFILE_SEED);
    let mut job_seeds = Rng::new(seed).split(0x3000);
    (0..days)
        .map(|d| {
            let p = profiles.day_profile(d);
            // Pin the profile: zero spread around the drawn values, and
            // the day's load recovered from its node scale.
            let params = WorkloadParams {
                tavg_median_s: p.t_avg_s,
                tavg_sigma: 0.0,
                runtime_mean_s: p.runtime_mean_s,
                runtime_std_s: 0.0,
                offered_load: p.nodes_scale * p.runtime_mean_s
                    / (defaults.machine_nodes as f64 * p.t_avg_s),
                offered_load_std: 0.0,
                ..defaults.clone()
            };
            let jobs = WorkloadGenerator::new(params, job_seeds.next_u64()).generate_day(0);
            ReplayDay {
                day_index: (seed % 1_000_000) * 1_000 + d,
                jobs,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use exadigit_sim::clock::SECONDS_PER_DAY;

    fn wire(requests: impl Iterator<Item = Request>) -> Vec<String> {
        requests
            .map(|r| serde_json::to_string(&r).expect("requests serialize"))
            .collect()
    }

    #[test]
    fn same_seed_same_request_streams() {
        let specs = hot_specs(11);
        assert_eq!(specs, hot_specs(11));
        let hot = |seed| {
            wire(
                HotStream::new(seed, 0)
                    .take(500)
                    .map(|op| op.request(&specs)),
            )
        };
        assert_eq!(hot(11), hot(11));
        assert_ne!(hot(11), hot(12));
        let whatif = |seed| {
            wire(
                WhatIfStream::new(seed)
                    .take(200)
                    .map(|(snapshot_id, spec)| Request::Query { snapshot_id, spec }),
            )
        };
        assert_eq!(whatif(11), whatif(11));
        assert_ne!(whatif(11), whatif(12));
    }

    #[test]
    fn same_seed_same_replay_days() {
        assert_eq!(replay_days(5, 3), replay_days(5, 3));
        assert_ne!(replay_days(5, 3), replay_days(6, 3));
        // Every seed keeps each day's profile: job counts follow the fixed
        // arrival rate while the jobs themselves differ.
        let profiles = WorkloadGenerator::new(WorkloadParams::default(), PROFILE_SEED);
        for seed in [5, 6] {
            for (d, day) in replay_days(seed, 3).iter().enumerate() {
                assert!(day.jobs.iter().all(|j| j.submit_time_s < SECONDS_PER_DAY));
                let expected = SECONDS_PER_DAY as f64 / profiles.day_profile(d as u64).t_avg_s;
                let ratio = day.jobs.len() as f64 / expected;
                assert!(
                    (0.5..1.5).contains(&ratio),
                    "day {d}: {} jobs, ~{expected:.0} expected",
                    day.jobs.len()
                );
            }
        }
    }

    #[test]
    fn streams_have_the_documented_shape() {
        let ops: Vec<HotOp> = HotStream::new(3, 1).take(10_000).collect();
        let share = |f: fn(&HotOp) -> bool| ops.iter().filter(|o| f(o)).count() as f64 / 1e4;
        assert!((share(|o| matches!(o, HotOp::Query(_))) - 0.85).abs() < 0.02);
        assert!((share(|o| matches!(o, HotOp::Status)) - 0.10).abs() < 0.02);
        assert!((share(|o| matches!(o, HotOp::Batch(_))) - 0.05).abs() < 0.02);

        let specs: Vec<(u64, WhatIfSpec)> = WhatIfStream::new(3).take(400).collect();
        let mut labels: Vec<&str> = specs.iter().map(|(_, s)| s.label.as_str()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), specs.len(), "every analyst spec is distinct");
        assert!(specs
            .iter()
            .all(|(_, s)| (900..=4 * 3_600).contains(&s.horizon_s)));
        assert_eq!(
            specs
                .iter()
                .filter(|(_, s)| s.draws == WHATIF_DRAWS)
                .count(),
            50
        );
        assert!(specs
            .iter()
            .all(|(id, _)| (1..=WHATIF_SNAPSHOTS).contains(id)));
    }
}
