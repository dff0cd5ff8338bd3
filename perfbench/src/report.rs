//! What one benchmark run prints: the gate tally and the named metrics.

use std::time::{Duration, Instant};

use ipra_obs::json::Json;

/// One named metric with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
}

/// Gate tally plus metrics of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations checked against a correctness gate.
    pub attempted: u64,
    /// Operations that failed a gate.
    pub failed: u64,
    /// The first few failure messages, for stderr.
    pub failures: Vec<String>,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines for stderr (host facts, derived ratios).
    pub notes: Vec<String>,
}

impl Report {
    /// Counts one operation that passed or failed its gate.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Counts one failure against an operation already counted as
    /// attempted.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(msg);
        }
    }

    /// Appends a metric.
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// The metric called `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The one-line result document.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name,
                    Json::obj(vec![
                        ("value", Json::Float(m.value)),
                        ("unit", Json::Str(m.unit.into())),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

/// Microseconds in `d`.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Runs `f` and returns its result with its wall time in microseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let r = f();
    (r, us(t.elapsed()))
}

/// Nearest-rank quantile of `values` (`q` in `[0, 1]`); 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Arithmetic mean; 0 when empty.
pub fn mean(v: &[f64]) -> f64 {
    ratio(v.iter().sum(), v.len() as f64)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Exact code-quality counts of a set of compiled, simulated programs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Quality {
    /// Summed simulated cycles.
    pub cycles: u64,
    /// Summed scalar loads and stores.
    pub scalar_mem: u64,
    /// Summed save/restore penalty cycles under the default cost model.
    pub penalty: u64,
    /// Static machine instructions emitted.
    pub code_insts: u64,
}

impl Quality {
    /// Adds one simulated program.
    pub fn add_run(&mut self, stats: &ipra_driver::Measurement) {
        self.cycles += stats.stats.cycles;
        self.scalar_mem += stats.stats.scalar_mem();
        self.penalty += stats
            .stats
            .penalty_cycles(&ipra_machine::CostModel::default());
    }
}

/// The end-to-end metrics every workload reports, in `BENCHMARK.json`
/// order. A run repeats one fixed round of operations (a sweep, a pass
/// over the compile list, a pass over the request schedule). Throughput
/// is the median over rounds, so a stall of the shared host moves one
/// round, not the result; latency quantiles pool every round's samples.
/// Every time is at nominal host speed (see [`crate::host`]).
pub struct EndToEnd {
    /// Median of the repeated set-ups, in seconds.
    pub setup_s: f64,
    /// The timed rounds.
    pub rounds: Vec<Round>,
    /// Heap high-water mark in bytes (see the workload for its window).
    pub peak_bytes: u64,
    /// Code-quality counts of the workload's programs.
    pub quality: Quality,
}

/// One timed round of a workload, at nominal host speed.
pub struct Round {
    /// Wall time of the timed operations, in seconds.
    pub wall_s: f64,
    /// Operations timed.
    pub ops: usize,
    /// Latency samples, in us, of the corpus programs and their edits
    /// only, whose cost is the same for every seed. The compile workloads
    /// do not time their seeded programs at all; the daemon counts its
    /// unique programs in `ops` but not here.
    pub op_us: Vec<f64>,
}

impl EndToEnd {
    /// Appends the end-to-end metrics to `rep`.
    pub fn emit(&self, rep: &mut Report) {
        let median = |f: &dyn Fn(&Round) -> f64| {
            let v: Vec<f64> = self.rounds.iter().map(f).collect();
            quantile(&v, 0.5)
        };
        let samples: usize = self.rounds.iter().map(|r| r.op_us.len()).sum();
        rep.notes.push(format!(
            "{} rounds, {samples} latency samples",
            self.rounds.len()
        ));
        rep.set("setup_s", self.setup_s, "s");
        rep.set(
            "ops_per_s",
            median(&|r| ratio(r.ops as f64, r.wall_s)),
            "1/s",
        );
        let pooled: Vec<f64> = self
            .rounds
            .iter()
            .flat_map(|r| r.op_us.iter().copied())
            .collect();
        rep.set("op_p50_us", quantile(&pooled, 0.50), "us");
        rep.set("op_p90_us", quantile(&pooled, 0.90), "us");
        rep.set("peak_mem_kb", self.peak_bytes as f64 / 1000.0, "kB");
        rep.set("code_insts", self.quality.code_insts as f64, "count");
        rep.set("sim_cycles", self.quality.cycles as f64, "count");
        rep.set("scalar_mem_ops", self.quality.scalar_mem as f64, "count");
        rep.set("penalty_cycles", self.quality.penalty as f64, "count");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.9), 5.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.check(true, String::new);
        r.set("setup_s", 0.5, "s");
        let j = r.to_json();
        let keys: Vec<&str> = j
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(j.get("correct"), Some(&Json::Bool(true)));
    }
}
