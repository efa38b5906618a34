//! Order statistics and `/proc` readers.

/// Quantile `q` of `values` by linear interpolation between closest ranks
/// (Python's `statistics.quantiles(..., method="inclusive")`).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The steady statistic of a repeated time. What reference pricing leaves of
/// the noise on a shared box (an interrupt, a preempted thread, a contended
/// host) only ever adds time, in episodes that can cover half a run; the
/// lower quartile stays in the undisturbed mode as long as a quarter of the
/// repeats land there (README, "Noise").
pub fn steady_low(values: &[f64]) -> f64 {
    quantile(values, 0.25)
}

/// [`steady_low`] for a rate: the upper quartile.
pub fn steady_high(values: &[f64]) -> f64 {
    quantile(values, 0.75)
}

pub fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// A `kB` field of `/proc/<pid>/status`, in MiB. `pid` is `self` or a number.
pub fn proc_status_mb(pid: &str, field: &str) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// (user, system) CPU seconds of this process, from `/proc/self/stat`
/// (fields 14 and 15, in clock ticks of 1/100 s on Linux).
pub fn cpu_seconds() -> (f64, f64) {
    let Ok(text) = std::fs::read_to_string("/proc/self/stat") else {
        return (0.0, 0.0);
    };
    // The command name may hold spaces; fields are counted after its ')'.
    let rest = text.rfind(')').map_or("", |i| &text[i + 1..]);
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
            / 100.0
    };
    (tick(), tick())
}
