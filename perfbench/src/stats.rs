//! Exact order statistics over the samples one run collected.

use std::time::{Duration, Instant};

/// Nearest-rank `q`-quantile; `0.0` when there are no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `a / b`, or `0.0` when `b` is zero.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Most windows a phase is split into. A figure is computed per window
/// and the median over windows is reported, so a burst of outside load
/// that hits one window does not move it.
const MAX_WINDOWS: usize = 3;

/// A figure computed per window, with the value of every window.
#[derive(Debug, Clone)]
pub struct Windowed {
    pub value: f64,
    pub windows: Vec<f64>,
}

impl Windowed {
    fn over(per_window: Vec<f64>) -> Self {
        Self { value: median(&per_window), windows: per_window }
    }

    /// The per-window values, for the run log.
    pub fn show(&self) -> String {
        let parts: Vec<String> = self.windows.iter().map(|w| format!("{w:.4}")).collect();
        format!("[{}]", parts.join(", "))
    }
}

/// Splits `[start, end)` into `windows` equal windows and applies `stat`
/// to the values whose time falls in each.
fn per_window(
    samples: &[(Instant, f64)],
    start: Instant,
    end: Instant,
    windows: usize,
    stat: impl Fn(&[f64]) -> f64,
) -> Vec<f64> {
    let width = (end - start) / windows as u32;
    (0..windows as u32)
        .map(|k| {
            let (lo, hi) = (start + width * k, start + width * (k + 1));
            let values: Vec<f64> =
                samples.iter().filter(|(t, _)| *t >= lo && *t < hi).map(|(_, v)| *v).collect();
            stat(&values)
        })
        .collect()
}

/// The `q`-quantile of timed samples: the median over [`MAX_WINDOWS`]
/// windows when each window keeps at least ten samples beyond the
/// quantile, else the quantile of all samples.
pub fn windowed_quantile(
    samples: &[(Instant, f64)],
    start: Instant,
    end: Instant,
    q: f64,
) -> Windowed {
    let beyond = samples.len() as f64 * (1.0 - q);
    let windows = if beyond >= 10.0 * MAX_WINDOWS as f64 { MAX_WINDOWS } else { 1 };
    Windowed::over(per_window(samples, start, end, windows, |v| quantile(v, q)))
}

/// Events per second over `[start, end)`, as the median over
/// [`MAX_WINDOWS`] windows.
pub fn windowed_rate(times: &[Instant], start: Instant, end: Instant) -> Windowed {
    let secs = (end - start).as_secs_f64() / MAX_WINDOWS as f64;
    let samples: Vec<(Instant, f64)> = times.iter().map(|&t| (t, 1.0)).collect();
    Windowed::over(per_window(&samples, start, end, MAX_WINDOWS, |v| v.len() as f64 / secs))
}
