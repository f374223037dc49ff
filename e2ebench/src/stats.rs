//! Percentiles, metric naming and the result line.
//!
//! Every number the benchmark prints goes through [`Metrics`], which
//! enforces the naming rules (letters, digits, `_`, `.`, `-`; starts
//! with a letter or digit; at most 64 characters; used once) and renders
//! the final JSON object. Percentiles follow the nearest-rank method and
//! are only quotable when at least ten samples lie beyond them.

use std::fmt::Write as _;

/// Samples that must lie strictly beyond a percentile for it to be
/// quoted.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `samples` (`p` in `0..=100`): the smallest
/// sample such that at least `p`% of the samples are at or below it.
/// Returns `None` for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// The 1-based nearest-rank position of the `p`th percentile among `n`
/// samples (`n > 0`). `p * n` is formed before dividing so that whole
/// percentages of whole counts stay exact.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie strictly above the nearest-rank `p`th
/// percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// The `p`th percentile, only if at least [`MIN_BEYOND`] samples lie
/// beyond it.
pub fn quotable(samples: &[f64], p: f64) -> Option<f64> {
    if beyond(samples.len(), p) < MIN_BEYOND {
        return None;
    }
    percentile(samples, p)
}

/// The median (nearest-rank 50th percentile), or `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Whether `name` is a valid metric name.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit spelling.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// An ordered set of named, unit-tagged metric values.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// An empty set.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Adds one metric.
    ///
    /// # Panics
    ///
    /// Panics on an invalid or repeated name, an invalid unit, or a
    /// non-finite value: each is a bug in the benchmark itself.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(valid_name(name), "invalid metric name `{name}`");
        assert!(valid_unit(unit), "invalid unit `{unit}` for `{name}`");
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        assert!(
            self.entries.iter().all(|(n, _, _)| n != name),
            "metric `{name}` reported twice"
        );
        self.entries.push((name.to_owned(), value, unit));
    }

    /// The value of a metric, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// The metric names, in insertion order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(n, _, _)| n.as_str())
    }

    /// Renders the metrics as a JSON object body.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(*value)
            );
        }
        out.push('}');
        out
    }
}

/// Renders a number with every digit Rust's shortest round-trip
/// formatting gives, keeping whole numbers integral.
pub fn number(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// The benchmark's final line: correctness, operation accounting and the
/// metrics.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 95.0), Some(95.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 95.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        // Order of the input does not matter.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    }

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        assert_eq!(beyond(100, 95.0), 5);
        assert_eq!(beyond(200, 95.0), 10);
        assert_eq!(beyond(20, 50.0), 10);
        assert_eq!(beyond(0, 95.0), 0);
        let xs: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(quotable(&xs, 95.0), None, "9 beyond is not enough");
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(quotable(&xs, 95.0), Some(190.0));
        assert_eq!(quotable(&xs[..19], 50.0), None);
        assert_eq!(quotable(&xs[..20], 50.0), Some(10.0));
    }

    #[test]
    fn metric_names_follow_the_rules() {
        assert!(valid_name("setup_s"));
        assert!(valid_name("campaign.checkpoint_ms"));
        assert!(valid_name("9lives-x"));
        assert!(!valid_name(""));
        assert!(!valid_name("_leading"));
        assert!(!valid_name(".leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_name(&"x".repeat(64)));
        assert!(valid_unit("ms"));
        assert!(valid_unit("1/s"));
        assert!(valid_unit("%"));
        assert!(!valid_unit(""));
        assert!(!valid_unit("milliseconds_long"));
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn duplicate_metric_names_are_rejected() {
        let mut m = Metrics::new();
        m.put("wall_s", 1.0, "s");
        m.put("wall_s", 2.0, "s");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_metric_names_are_rejected() {
        Metrics::new().put("bad name", 1.0, "s");
    }

    #[test]
    fn result_line_renders_every_digit() {
        let mut m = Metrics::new();
        m.put("latency_ms", 1.2034567, "ms");
        m.put("tests", 1920.0, "count");
        assert_eq!(m.get("tests"), Some(1920.0));
        assert_eq!(m.names().collect::<Vec<_>>(), ["latency_ms", "tests"]);
        let line = result_line(true, 3, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034567, \"unit\": \"ms\"}, \
             \"tests\": {\"value\": 1920, \"unit\": \"count\"}}}"
        );
        let parsed: serde::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(
            parsed.get("attempted").and_then(serde::Value::as_u64),
            Some(3)
        );
    }
}
