//! Telemetry writers: CSV for job records, the counterpart of the
//! [`crate::reader`] plug-ins.

use crate::schema::JobRecord;
use std::fmt::Write as _;

/// Serialise job records to the native CSV format (see
/// [`crate::reader::CsvJobReader`] for the schema).
pub fn jobs_to_csv(jobs: &[JobRecord]) -> String {
    let mut out = String::with_capacity(jobs.len() * 128 + 64);
    out.push_str("job_id,name,node_count,submit,start,wall,cpu_trace,gpu_trace\n");
    for j in jobs {
        let cpu = join_trace(&j.cpu_power_w);
        let gpu = join_trace(&j.gpu_power_w);
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{}",
            j.job_id,
            sanitize(&j.job_name),
            j.node_count,
            j.submit_time_s,
            j.start_time_s,
            j.wall_time_s,
            cpu,
            gpu
        );
    }
    out
}

fn join_trace(trace: &[f32]) -> String {
    let mut s = String::with_capacity(trace.len() * 8);
    for (i, v) in trace.iter().enumerate() {
        if i > 0 {
            s.push(';');
        }
        let _ = write!(s, "{v}");
    }
    s
}

fn sanitize(name: &str) -> String {
    name.replace([',', '\n', ';'], "_")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::TelemetryReader;

    #[test]
    fn csv_has_header_and_rows() {
        let rec = JobRecord {
            job_id: 1,
            job_name: "test".into(),
            node_count: 2,
            submit_time_s: 0,
            start_time_s: 0,
            wall_time_s: 30,
            cpu_power_w: vec![100.0],
            gpu_power_w: vec![400.0],
        };
        let csv = jobs_to_csv(&[rec]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("job_id"));
        assert!(lines[1].starts_with("1,test,2,"));
    }

    #[test]
    fn names_with_commas_sanitised() {
        let rec = JobRecord {
            job_id: 1,
            job_name: "bad,name;x".into(),
            node_count: 1,
            submit_time_s: 0,
            start_time_s: 0,
            wall_time_s: 30,
            cpu_power_w: vec![],
            gpu_power_w: vec![],
        };
        let csv = jobs_to_csv(&[rec]);
        let parsed = crate::reader::CsvJobReader.read_jobs(&csv).unwrap();
        assert_eq!(parsed[0].job_name, "bad_name_x");
    }
}
