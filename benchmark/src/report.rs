//! Statistics, process memory and the result line.

/// Median of `values`; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Index of the value closest to the median (the lower middle one).
pub fn median_index(values: &[f64]) -> usize {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    order[(order.len() - 1) / 2]
}

pub const MIB: f64 = 1024.0 * 1024.0;

/// A `kB` field of `/proc/self/status`, in MiB; 0 where unavailable.
fn status_mib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix(field)?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set size so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}

/// Current resident set size (`VmRSS`), in MiB.
pub fn rss_mib() -> f64 {
    status_mib("VmRSS:")
}

/// Resets the peak resident set size to the current one. Returns false
/// where the kernel does not allow it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Metrics in the order they were added, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    /// Names of metrics whose value is not a finite number.
    pub fn non_finite(&self) -> Vec<&'static str> {
        self.0
            .iter()
            .filter(|(_, v, _)| !v.is_finite())
            .map(|(n, _, _)| *n)
            .collect()
    }

    /// One human-readable line per metric.
    pub fn table(&self) -> String {
        self.0
            .iter()
            .map(|(name, value, unit)| format!("  {name:<28} {value:>18.6} {unit}\n"))
            .collect()
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric.
    pub fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median_index(&[5.0, 1.0, 3.0, 4.0]), 2);
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut m = Metrics::default();
        m.add("pages_per_s", 1.5e6, "1/s");
        m.add("bad", f64::NAN, "s");
        assert_eq!(m.non_finite(), vec!["bad"]);
        let line = m.json(true, 10, 0);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0,"));
        assert!(line.contains("\"pages_per_s\": {\"value\": 1500000.0, \"unit\": \"1/s\"}"));
        assert!(line.contains("\"bad\": {\"value\": 0.0, \"unit\": \"s\"}"));
    }
}
