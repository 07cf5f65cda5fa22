//! Instruments that sit outside the program: a timing decorator for the
//! cooling model and the process's peak resident set.

use exadigit_obs::Histogram;
use exadigit_sim::fmi::{CoSimModel, FmiError, VarRef, VariableDescriptor};
use std::time::Instant;

/// A histogram for durations from 1 µs to 1 s, in seconds: buckets 5 %
/// apart, so a quantile read back is within a few percent of the true
/// value (one cooling step takes ~20 µs; the service's latency ladder
/// starts far above that).
pub fn step_histogram() -> Histogram {
    let bounds: Vec<f64> = std::iter::successors(Some(1e-6), |b| Some(b * 1.05))
        .take_while(|&b| b <= 1.0)
        .collect();
    Histogram::new(&bounds)
}

/// Wraps a cooling model and times every `do_step` into a shared
/// histogram. Every stepping call is forwarded unchanged, so a twin
/// coupled to the wrapper computes the same bits as one coupled to the
/// bare model. Replayed twins are never forked or persisted, so those
/// keep the trait's refusing defaults.
pub struct TimedModel {
    inner: Box<dyn CoSimModel>,
    steps: Histogram,
}

impl TimedModel {
    pub fn new(inner: Box<dyn CoSimModel>, steps: Histogram) -> Self {
        TimedModel { inner, steps }
    }
}

impl CoSimModel for TimedModel {
    fn instance_name(&self) -> &str {
        self.inner.instance_name()
    }
    fn variables(&self) -> &[VariableDescriptor] {
        self.inner.variables()
    }
    fn setup(&mut self, start_time: f64) {
        self.inner.setup(start_time)
    }
    fn set_real(&mut self, vr: VarRef, value: f64) -> Result<(), FmiError> {
        self.inner.set_real(vr, value)
    }
    fn get_real(&self, vr: VarRef) -> Result<f64, FmiError> {
        self.inner.get_real(vr)
    }
    fn do_step(&mut self, current_time: f64, step_size: f64) -> Result<(), FmiError> {
        let start = Instant::now();
        let out = self.inner.do_step(current_time, step_size);
        self.steps.observe_duration(start.elapsed());
        out
    }
    fn reset(&mut self) {
        self.inner.reset()
    }
    fn quasi_static(&self) -> bool {
        self.inner.quasi_static()
    }
    fn repeat_step(&mut self, n: u64) {
        self.inner.repeat_step(n)
    }
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn rss_peak_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}
