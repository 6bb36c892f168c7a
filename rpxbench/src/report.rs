//! What a run prints: a human table, then one JSON line with the
//! contract's keys (`correct`, `attempted`, `failed`, `metrics`).

use crate::catalog;

/// Named metric values in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    /// Set (or overwrite) a metric. The name must be in the catalog.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            catalog::unit_of(name).is_some(),
            "metric {name} not in catalog"
        );
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// A metric's value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// All values in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.values.iter().copied()
    }
}

/// A finished run of one workload.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics (from untraced steps).
    pub e2e: Metrics,
    /// Per-layer metrics (traced runs only).
    pub layers: Metrics,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations lost, shed, wrong or timed out.
    pub failed: u64,
    /// Output checks that failed, one line each.
    pub check_failures: Vec<String>,
    /// Human-readable lines printed before the result (per-layer table,
    /// sample counts).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a failed output check.
    pub fn fail(&mut self, what: String) {
        self.check_failures.push(what);
    }

    /// Whether every output check held.
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty() && self.failed == 0 && self.attempted > 0
    }
}

/// The result line for `trace` mode: every end-to-end metric (and the
/// open-loop ones, on the workload that has them), or every per-layer
/// metric. A metric the run did not produce is an error.
pub fn result_json(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let names: Vec<&str> = if trace {
        catalog::PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        let open_loop = catalog::OPEN_LOOP
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| outcome.e2e.get(n).is_some());
        catalog::END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(open_loop)
            .collect()
    };
    let source = if trace { &outcome.layers } else { &outcome.e2e };
    let mut parts = Vec::with_capacity(names.len());
    for name in names {
        let v = source
            .get(name)
            .ok_or_else(|| format!("metric {name} missing"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            catalog::unit_of(name).expect("catalogued")
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        parts.join(", ")
    ))
}

/// The human-readable summary: every metric with its unit.
pub fn table(workload: &str, outcome: &Outcome, trace: bool) -> String {
    let mut out = format!(
        "== {workload} ({}) ==\n",
        if trace { "traced" } else { "untraced" }
    );
    let fail_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    out.push_str(&format!(
        "  {:<36} {:>14}  (attempted {}, failed {})\n",
        "fail_frac", fail_frac, outcome.attempted, outcome.failed
    ));
    let mut rows = |m: &Metrics| {
        for (name, v) in m.iter() {
            let exact = catalog::PER_LAYER
                .iter()
                .any(|p| p.name == name && p.repeat == catalog::Repeat::Exact);
            out.push_str(&format!(
                "  {:<36} {:>14.3} {}{}\n",
                name,
                v,
                catalog::unit_of(name).unwrap_or(""),
                if exact {
                    "  (repeats exactly for a seed)"
                } else {
                    ""
                }
            ));
        }
    };
    rows(&outcome.e2e);
    if trace {
        rows(&outcome.layers);
    }
    for note in &outcome.notes {
        out.push_str(note);
        out.push('\n');
    }
    for f in &outcome.check_failures {
        out.push_str(&format!("  CHECK FAILED: {f}\n"));
    }
    out
}
