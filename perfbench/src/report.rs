//! Metric collection, the environment block, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples behind the value (1 for a single measurement).
    pub n: usize,
}

/// Metrics of one run, by name.
#[derive(Default)]
pub struct Metrics {
    map: BTreeMap<String, Metric>,
}

impl Metrics {
    /// Sets a metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str, n: usize) {
        self.map.insert(name.into(), Metric { value, unit, n });
    }

    /// A metric, if set.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.map.get(name)
    }

    /// Every metric, by name.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Metric)> {
        self.map.iter()
    }
}

/// The end-to-end metrics every untraced run reports, with units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_ms", "ms"),
];

/// The filesystem type holding `dir`, from `/proc/self/mountinfo`: the
/// longest mount point that prefixes the directory's canonical path.
pub fn fs_type(dir: &Path) -> String {
    let Ok(path) = dir.canonicalize() else {
        return "unknown".into();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let Some(mount) = fields.get(4) else { continue };
        let Some(sep) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let Some(fstype) = fields.get(sep + 1) else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() > *len) {
            best = Some((mount.len(), (*fstype).to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, t)| t)
}

/// The kernel release.
pub fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// The commit under test, from `git rev-parse HEAD`; "unknown" where
/// the checkout is not a repository.
pub fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or_else(
            || "unknown".into(),
            |out| String::from_utf8_lossy(&out.stdout).trim().to_string(),
        )
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a metric value as a JSON number with all its digits.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric as `{"value", "unit"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, m)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.25, "s", 5);
        m.set("latency_ms", 1.0 / 3.0, "ms", 100);
        let line = result_line(true, 10, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 0.3333333333333333, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
