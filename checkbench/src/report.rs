//! The result line: named metrics with units, rendered as the single JSON
//! object the benchmark prints last.

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]+` starting with a letter or digit.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit label (`ms`, `s`, `1/s`, `count`, ...).
    pub unit: &'static str,
}

/// An ordered set of metrics.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// True if `name` is a legal metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, the first a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    let first_ok = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Renders the result object:
/// `{"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value": .., "unit": ..}}}`.
///
/// Panics on an illegal or duplicated name or a non-finite value: both are
/// bugs in the benchmark, not measurements.
pub fn render(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut seen = std::collections::BTreeSet::new();
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            assert!(valid_name(&m.name), "illegal metric name {:?}", m.name);
            assert!(
                seen.insert(m.name.as_str()),
                "duplicate metric {:?}",
                m.name
            );
            assert!(m.value.is_finite(), "metric {} is {}", m.name, m.value);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
