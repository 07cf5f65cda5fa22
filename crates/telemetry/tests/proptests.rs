//! Property-based tests for telemetry: format round-trips must be
//! lossless (within float printing) for arbitrary records.

use exadigit_raps::config::SystemConfig;
use exadigit_raps::job::Job;
use exadigit_telemetry::reader::{CsvJobReader, TelemetryReader};
use exadigit_telemetry::schema::JobRecord;
use exadigit_telemetry::writer::jobs_to_csv;
use proptest::prelude::*;

fn arbitrary_record() -> impl Strategy<Value = JobRecord> {
    (
        any::<u64>(),
        "[a-z0-9_-]{1,24}",
        1usize..10_000,
        0u64..86_400,
        0u64..86_400,
        60u64..86_400,
        prop::collection::vec(0.0f32..3_000.0, 0..64),
        prop::collection::vec(0.0f32..3_000.0, 0..64),
    )
        .prop_map(|(id, name, nodes, submit, start, wall, cpu, gpu)| JobRecord {
            job_id: id,
            job_name: name,
            node_count: nodes,
            submit_time_s: submit,
            start_time_s: start,
            wall_time_s: wall,
            cpu_power_w: cpu,
            gpu_power_w: gpu,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CSV write → read is lossless for arbitrary job records.
    #[test]
    fn csv_round_trip_lossless(records in prop::collection::vec(arbitrary_record(), 0..20)) {
        let csv = jobs_to_csv(&records);
        let back = CsvJobReader.read_jobs(&csv).unwrap();
        prop_assert_eq!(back.len(), records.len());
        for (a, b) in back.iter().zip(&records) {
            prop_assert_eq!(a.job_id, b.job_id);
            prop_assert_eq!(a.node_count, b.node_count);
            prop_assert_eq!(a.submit_time_s, b.submit_time_s);
            prop_assert_eq!(a.wall_time_s, b.wall_time_s);
            prop_assert_eq!(a.cpu_power_w.len(), b.cpu_power_w.len());
            for (x, y) in a.cpu_power_w.iter().zip(&b.cpu_power_w) {
                prop_assert!((x - y).abs() < 1e-3);
            }
        }
    }

    /// Power → utilization → power round trip is the identity for powers
    /// inside the component envelopes (the paper's linear interpolation).
    #[test]
    fn power_util_round_trip(
        cpu_frac in 0.0f64..1.0,
        gpu_frac in 0.0f64..1.0,
        wall in 60u64..3_600,
    ) {
        let cfg = SystemConfig::frontier().node_power;
        let cpu_w = cfg.cpu_idle_w + cpu_frac * (cfg.cpu_max_w - cfg.cpu_idle_w);
        let gpu_w = cfg.gpu_idle_w + gpu_frac * (cfg.gpu_max_w - cfg.gpu_idle_w);
        let steps = (wall / 15).max(1) as usize;
        let rec = JobRecord {
            job_id: 1,
            job_name: "rt".into(),
            node_count: 4,
            submit_time_s: 0,
            start_time_s: 0,
            wall_time_s: wall,
            cpu_power_w: vec![cpu_w as f32; steps],
            gpu_power_w: vec![gpu_w as f32; steps],
        };
        let job: Job = rec.to_job(&cfg);
        let back = JobRecord::from_job(&job, &cfg, 15);
        prop_assert!((back.cpu_power_w[0] as f64 - cpu_w).abs() < 0.1);
        prop_assert!((back.gpu_power_w[0] as f64 - gpu_w).abs() < 0.1);
    }
}
