//! Pluggable telemetry readers.
//!
//! §V of the paper: "A pluggable architecture was developed for reading
//! different types of bespoke telemetry datasets", naming the PM100 job
//! power dataset of Marconi100 as one consumer. [`TelemetryReader`] is the
//! plug-in trait; the native CSV format written by [`crate::writer`] ships
//! here as [`CsvJobReader`], and a dataset adapter such as PM100 is one
//! more implementation of the trait.

use crate::schema::JobRecord;

/// Errors raised while parsing telemetry.
#[derive(Debug, Clone, PartialEq)]
pub enum ReadError {
    /// Malformed input with a line/record hint.
    Malformed(String),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Malformed(msg) => write!(f, "malformed telemetry: {msg}"),
        }
    }
}

impl std::error::Error for ReadError {}

/// A telemetry-dataset reader plug-in.
pub trait TelemetryReader {
    /// Human-readable format name.
    fn format_name(&self) -> &'static str;

    /// Parse job records from the dataset content.
    fn read_jobs(&self, content: &str) -> Result<Vec<JobRecord>, ReadError>;
}

/// The native CSV format: one job per line,
/// `job_id,name,node_count,submit,start,wall,cpu_trace,gpu_trace` with
/// traces `;`-separated watts at 15 s.
#[derive(Debug, Clone, Copy, Default)]
pub struct CsvJobReader;

impl TelemetryReader for CsvJobReader {
    fn format_name(&self) -> &'static str {
        "exadigit-csv"
    }

    fn read_jobs(&self, content: &str) -> Result<Vec<JobRecord>, ReadError> {
        let mut out = Vec::new();
        for (lineno, line) in content.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') || (lineno == 0 && line.starts_with("job_id")) {
                continue;
            }
            let fields: Vec<&str> = line.split(',').collect();
            if fields.len() != 8 {
                return Err(ReadError::Malformed(format!(
                    "line {}: expected 8 fields, got {}",
                    lineno + 1,
                    fields.len()
                )));
            }
            let parse_u64 = |s: &str, what: &'static str| {
                s.parse::<u64>().map_err(|_| ReadError::Malformed(format!("line {}: bad {what} `{s}`", lineno + 1)))
            };
            let parse_trace = |s: &str| -> Result<Vec<f32>, ReadError> {
                if s.is_empty() {
                    return Ok(Vec::new());
                }
                s.split(';')
                    .map(|v| {
                        v.parse::<f32>().map_err(|_| {
                            ReadError::Malformed(format!("line {}: bad trace value `{v}`", lineno + 1))
                        })
                    })
                    .collect()
            };
            out.push(JobRecord {
                job_id: parse_u64(fields[0], "job_id")?,
                job_name: fields[1].to_string(),
                node_count: parse_u64(fields[2], "node_count")? as usize,
                submit_time_s: parse_u64(fields[3], "submit")?,
                start_time_s: parse_u64(fields[4], "start")?,
                wall_time_s: parse_u64(fields[5], "wall")?,
                cpu_power_w: parse_trace(fields[6])?,
                gpu_power_w: parse_trace(fields[7])?,
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_round_trip_via_writer() {
        let rec = JobRecord {
            job_id: 42,
            job_name: "hpl".into(),
            node_count: 9216,
            submit_time_s: 100,
            start_time_s: 120,
            wall_time_s: 7200,
            cpu_power_w: vec![152.7, 153.0],
            gpu_power_w: vec![460.9, 461.0],
        };
        let csv = crate::writer::jobs_to_csv(std::slice::from_ref(&rec));
        let back = CsvJobReader.read_jobs(&csv).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].job_id, rec.job_id);
        assert_eq!(back[0].node_count, rec.node_count);
        assert_eq!(back[0].cpu_power_w.len(), 2);
        assert!((back[0].gpu_power_w[0] - 460.9).abs() < 0.01);
    }

    #[test]
    fn csv_rejects_malformed_lines() {
        let err = CsvJobReader.read_jobs("1,only,three").unwrap_err();
        assert!(matches!(err, ReadError::Malformed(_)));
        let err = CsvJobReader.read_jobs("x,a,1,0,0,60,10,10").unwrap_err();
        assert!(matches!(err, ReadError::Malformed(_)));
    }

    #[test]
    fn csv_skips_comments_and_header() {
        let content = "job_id,name,node_count,submit,start,wall,cpu,gpu\n# comment\n\n1,j,4,0,0,60,100,400\n";
        let jobs = CsvJobReader.read_jobs(content).unwrap();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].node_count, 4);
    }

    #[test]
    fn readers_report_formats() {
        assert_eq!(CsvJobReader.format_name(), "exadigit-csv");
    }
}
