//! Shared helpers: quantiles, the metric sheet, failure accounting, and
//! the process introspection (`/proc`, `/sys`) behind the memory, I/O and
//! environment figures.

use std::path::Path;
use std::time::Instant;

/// Linear-interpolation quantile of `values` (`q` in `[0, 1]`); NaN when
/// empty. Sorts a copy, so callers may pass samples in arrival order.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Seconds since `t` as milliseconds.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Metrics of one run, in emission order.
#[derive(Default)]
pub struct Sheet {
    rows: Vec<(String, f64, &'static str)>,
}

impl Sheet {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.rows.push((name.into(), value, unit));
    }

    pub fn rows(&self) -> &[(String, f64, &'static str)] {
        &self.rows
    }
}

/// Operations attempted and failed, with the reason of each failure.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    /// Count one operation; a `false` outcome counts as failed with `why`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.fail(why());
        }
        ok
    }

    /// Record a failure of an operation already counted as attempted.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.reasons.len() < 20 {
            self.reasons.push(why);
        }
    }
}

/// One numeric field of a `/proc/self/<file>` line such as `VmHWM:  1234 kB`.
fn proc_field(file: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/self/{file}")).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Peak resident set (VmHWM) in MiB.
pub fn peak_rss_mib() -> f64 {
    proc_field("status", "VmHWM:").map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

/// `(wchar, syscw)` from `/proc/self/io`: bytes passed to write calls and
/// the number of write calls, for the whole process.
pub fn write_counters() -> (u64, u64) {
    (
        proc_field("io", "wchar:").unwrap_or(0),
        proc_field("io", "syscw:").unwrap_or(0),
    )
}

/// Filesystem type of the mount holding `path` (longest matching mount
/// point in `/proc/self/mountinfo`).
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let Some(sep) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount), Some(kind)) = (fields.get(4), fields.get(sep + 1)) else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() > *len) {
            best = Some((mount.len(), (*kind).to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, kind)| kind)
}

/// Size of the last-level cache of cpu0, as sysfs prints it (e.g. `32768K`).
pub fn llc_size() -> String {
    (0..8)
        .rev()
        .find_map(|i| {
            std::fs::read_to_string(format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size"))
                .ok()
        })
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// Minimal JSON string escaping for the stamp and trace files.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!(quantile(&[], 0.5).is_nan());
    }
}
