//! The metrics registry: labeled counters, gauges and log₂-bucket
//! histograms — the one place a count is aggregated.
//!
//! Spans time and events record; the registry counts. Every instance is
//! keyed by a name plus a label set (`&[(&str, &str)]`), so one metric
//! name can be sliced per function, per call-graph edge or per
//! configuration without inventing new names. An empty label set is a module-level count; a
//! per-function count carries a `func` label.
//!
//! Metrics follow the same per-thread sink model as the rest of the
//! crate: recording goes through [`crate::counter`], [`crate::gauge`] and
//! [`crate::observe`] into the current thread's sink, and the snapshot
//! comes back inside [`crate::Trace`]. Everything is plain-old-data: zero
//! dependencies, `Eq`, deterministic JSON.

use crate::json::Json;

/// A power-of-two-bucket histogram of `u64` samples.
///
/// Bucket `0` counts samples equal to zero; bucket `i > 0` counts samples
/// in `[2^(i-1), 2^i)`. The exact count, sum and maximum are tracked on
/// the side, so aggregates (`mean`, `max`) stay exact while the
/// distribution is compressed into at most 65 buckets — unlike the
/// ad-hoc dense vectors this type replaces, memory use is bounded no
/// matter how large the samples get.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Log2Histogram {
    /// `counts[i]` = samples in bucket `i`; trailing zero buckets are not
    /// stored.
    counts: Vec<u64>,
    /// Total samples observed.
    pub count: u64,
    /// Exact sum of all samples.
    pub sum: u64,
    /// Largest sample observed (0 when empty).
    pub max: u64,
}

/// Bucket index for a sample: 0 for 0, else `floor(log2(v)) + 1`.
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive-exclusive bounds `[lo, hi)` of bucket `i` (bucket 0 is the
/// exact value 0, rendered as `[0, 1)`).
fn bucket_bounds(i: usize) -> (u64, u64) {
    if i == 0 {
        (0, 1)
    } else {
        (
            1u64 << (i - 1),
            1u64.checked_shl(i as u32).unwrap_or(u64::MAX),
        )
    }
}

impl Log2Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn observe(&mut self, v: u64) {
        self.observe_n(v, 1);
    }

    /// Records `n` samples of `v`, exactly as `n` calls of
    /// [`Log2Histogram::observe`] would; `n = 0` records nothing.
    pub fn observe_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let i = bucket_index(v);
        if self.counts.len() <= i {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
        self.max = self.max.max(v);
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Count in the bucket that `v` falls into.
    pub fn count_for(&self, v: u64) -> u64 {
        self.counts.get(bucket_index(v)).copied().unwrap_or(0)
    }

    /// Non-empty buckets as `(lo, hi, count)` with `lo <= sample < hi`.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.counts.iter().enumerate().filter_map(|(i, &c)| {
            let (lo, hi) = bucket_bounds(i);
            (c > 0).then_some((lo, hi, c))
        })
    }

    /// Upper bound of the smallest bucket such that at least `q` (0..=1)
    /// of the samples lie at or below it — a cheap upper estimate of the
    /// q-quantile. Returns [`Log2Histogram::max`] for the top bucket and 0
    /// when empty.
    pub fn quantile_upper(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let want = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if c > 0 && seen >= want {
                let (_, hi) = bucket_bounds(i);
                return self.max.min(hi.saturating_sub(1));
            }
        }
        self.max
    }

    /// Serializes as `{count, sum, max, buckets: [{lo, hi, count}]}`.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("count", Json::Int(self.count as i64)),
            ("sum", Json::Int(self.sum as i64)),
            ("max", Json::Int(self.max as i64)),
            (
                "buckets",
                Json::Arr(
                    self.buckets()
                        .map(|(lo, hi, c)| {
                            Json::obj(vec![
                                ("lo", Json::Int(lo as i64)),
                                ("hi", Json::Int(hi as i64)),
                                ("count", Json::Int(c as i64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl std::fmt::Display for Log2Histogram {
    /// Compact one-line form: `lo-hi:count` per non-empty bucket.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for (lo, hi, c) in self.buckets() {
            if !first {
                write!(f, " ")?;
            }
            first = false;
            if hi - lo <= 1 {
                write!(f, "{lo}:{c}")?;
            } else {
                write!(f, "{lo}-{}:{c}", hi - 1)?;
            }
        }
        if first {
            write!(f, "(empty)")?;
        }
        Ok(())
    }
}

/// One labeled metric instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Metric<T> {
    /// Metric name, e.g. `"penalty.callsite.saved_regs"`.
    pub name: &'static str,
    /// Label set in emission order, e.g. `[("func", "main")]`.
    pub labels: Vec<(String, String)>,
    /// Current value.
    pub value: T,
}

/// A snapshot of every labeled metric recorded on one sink.
///
/// Metric instances are keyed by `(name, labels)`. The snapshot lives
/// inside [`crate::Trace`]; serialization sorts instances by
/// `(name, labels)` so the output is independent of recording order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Additive counters.
    pub counters: Vec<Metric<u64>>,
    /// Last-write-wins gauges.
    pub gauges: Vec<Metric<i64>>,
    /// Log₂-bucket histograms.
    pub histograms: Vec<Metric<Log2Histogram>>,
}

fn labels_match(stored: &[(String, String)], wanted: &[(&str, &str)]) -> bool {
    stored.len() == wanted.len()
        && stored
            .iter()
            .zip(wanted)
            .all(|((k, v), (wk, wv))| k == wk && v == wv)
}

fn own_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

fn find_or_insert<'m, T: Default>(
    items: &'m mut Vec<Metric<T>>,
    name: &'static str,
    labels: &[(&str, &str)],
) -> &'m mut Metric<T> {
    // Linear scan: sinks hold tens of instances, and the compile hot path
    // is guarded by the ACTIVE_SINKS fast path anyway.
    let idx = items
        .iter()
        .position(|m| m.name == name && labels_match(&m.labels, labels));
    match idx {
        Some(i) => &mut items[i],
        None => {
            items.push(Metric {
                name,
                labels: own_labels(labels),
                value: T::default(),
            });
            items.last_mut().expect("just pushed")
        }
    }
}

impl Metrics {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Adds `v` to the counter instance `(name, labels)`.
    pub fn add_counter(&mut self, name: &'static str, labels: &[(&str, &str)], v: u64) {
        find_or_insert(&mut self.counters, name, labels).value += v;
    }

    /// Sets the gauge instance `(name, labels)` to `v`.
    pub fn set_gauge(&mut self, name: &'static str, labels: &[(&str, &str)], v: i64) {
        find_or_insert(&mut self.gauges, name, labels).value = v;
    }

    /// Records a histogram sample into the instance `(name, labels)`.
    pub fn observe(&mut self, name: &'static str, labels: &[(&str, &str)], v: u64) {
        find_or_insert(&mut self.histograms, name, labels)
            .value
            .observe(v);
    }

    /// Total of one counter instance (0 when absent).
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.counters
            .iter()
            .find(|m| m.name == name && labels_match(&m.labels, labels))
            .map_or(0, |m| m.value)
    }

    /// Last value of one gauge instance (`None` when never set).
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<i64> {
        self.gauges
            .iter()
            .find(|m| m.name == name && labels_match(&m.labels, labels))
            .map(|m| m.value)
    }

    /// Sum of every counter instance with this name, across all label sets.
    pub fn counter_sum(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|m| m.name == name)
            .map(|m| m.value)
            .sum()
    }

    /// Counter instances whose label set is exactly `labels`, sorted by
    /// name: the module-level counts for `&[]`, one function's for
    /// `&[("func", name)]`.
    pub fn counters_labeled(&self, labels: &[(&str, &str)]) -> Vec<&Metric<u64>> {
        let mut v: Vec<&Metric<u64>> = self
            .counters
            .iter()
            .filter(|m| labels_match(&m.labels, labels))
            .collect();
        v.sort_by_key(|m| m.name);
        v
    }

    /// All counter instances with this name, in recording order.
    pub fn counters_named<'m>(&'m self, name: &'m str) -> impl Iterator<Item = &'m Metric<u64>> {
        self.counters.iter().filter(move |m| m.name == name)
    }

    /// The histogram instance `(name, labels)`, if recorded.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Log2Histogram> {
        self.histograms
            .iter()
            .find(|m| m.name == name && labels_match(&m.labels, labels))
            .map(|m| &m.value)
    }

    /// Serializes as `{counters: [...], gauges: [...], histograms: [...]}`
    /// with instances sorted by `(name, labels)` — recording order (and
    /// hence thread scheduling) never leaks into the document.
    pub fn to_json(&self) -> Json {
        fn inst<T>(m: &Metric<T>, value: Json) -> Json {
            Json::obj(vec![
                ("name", Json::Str(m.name.to_string())),
                (
                    "labels",
                    Json::Obj(
                        m.labels
                            .iter()
                            .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                            .collect(),
                    ),
                ),
                ("value", value),
            ])
        }
        fn sorted<T>(items: &[Metric<T>]) -> Vec<&Metric<T>> {
            let mut v: Vec<&Metric<T>> = items.iter().collect();
            v.sort_by(|a, b| a.name.cmp(b.name).then_with(|| a.labels.cmp(&b.labels)));
            v
        }
        Json::obj(vec![
            (
                "counters",
                Json::Arr(
                    sorted(&self.counters)
                        .into_iter()
                        .map(|m| inst(m, Json::Int(m.value as i64)))
                        .collect(),
                ),
            ),
            (
                "gauges",
                Json::Arr(
                    sorted(&self.gauges)
                        .into_iter()
                        .map(|m| inst(m, Json::Int(m.value)))
                        .collect(),
                ),
            ),
            (
                "histograms",
                Json::Arr(
                    sorted(&self.histograms)
                        .into_iter()
                        .map(|m| inst(m, m.value.to_json()))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_buckets_cover_powers_of_two() {
        let mut h = Log2Histogram::new();
        for v in [0, 1, 1, 2, 3, 4, 7, 8, 1023, 1024, u64::MAX] {
            h.observe(v);
        }
        assert_eq!(h.count, 11);
        assert_eq!(h.max, u64::MAX);
        assert_eq!(h.count_for(0), 1);
        assert_eq!(h.count_for(1), 2);
        assert_eq!(h.count_for(2), 2, "2 and 3 share bucket [2,4)");
        assert_eq!(h.count_for(5), 2, "4 and 7 share bucket [4,8)");
        assert_eq!(h.count_for(512), 1, "1023 lands in [512,1024)");
        assert_eq!(h.count_for(1024), 1);
        let total: u64 = h.buckets().map(|(_, _, c)| c).sum();
        assert_eq!(total, h.count, "buckets partition the samples");
        for (lo, hi, _) in h.buckets() {
            assert!(lo < hi);
        }
    }

    #[test]
    fn observe_n_equals_n_single_observations() {
        for (v, n) in [
            (0, 3),
            (1, 1),
            (5, 4),
            (1 << 40, 7),
            (u64::MAX, 2),
            (u64::MAX / 3, 5),
        ] {
            let mut many = Log2Histogram::new();
            many.observe(9);
            for _ in 0..n {
                many.observe(v);
            }
            let mut once = Log2Histogram::new();
            once.observe(9);
            once.observe_n(v, n);
            assert_eq!(once, many, "v = {v}, n = {n}");
            assert_eq!(
                (once.count, once.sum, once.max),
                (many.count, many.sum, many.max)
            );
            assert!(once.buckets().eq(many.buckets()), "v = {v}, n = {n}");
        }
        let mut h = Log2Histogram::new();
        h.observe_n(1 << 20, 0);
        assert_eq!(h, Log2Histogram::new(), "n = 0 records nothing");
        assert_eq!(h.buckets().count(), 0);
    }

    #[test]
    fn exact_aggregates_survive_bucketing() {
        let mut h = Log2Histogram::new();
        h.observe(10);
        h.observe(20);
        h.observe(30);
        assert_eq!(h.sum, 60);
        assert_eq!(h.mean(), 20.0);
        assert_eq!(h.max, 30);
    }

    #[test]
    fn quantile_upper_is_an_upper_bound() {
        let mut h = Log2Histogram::new();
        for d in 1..=100u64 {
            h.observe(d);
        }
        assert!(h.quantile_upper(0.5) >= 50);
        assert_eq!(h.quantile_upper(1.0), 100, "top quantile is the exact max");
        assert_eq!(Log2Histogram::new().quantile_upper(0.5), 0);
    }

    #[test]
    fn display_renders_nonempty_buckets() {
        let mut h = Log2Histogram::new();
        h.observe(1);
        h.observe(20);
        h.observe(20);
        assert_eq!(h.to_string(), "1:1 16-31:2");
        assert_eq!(Log2Histogram::new().to_string(), "(empty)");
    }

    #[test]
    fn labeled_instances_are_distinct() {
        let mut m = Metrics::default();
        m.add_counter("cache.lookup", &[("result", "hit")], 2);
        m.add_counter("cache.lookup", &[("result", "miss")], 1);
        m.add_counter("cache.lookup", &[("result", "hit")], 3);
        assert_eq!(m.counter_value("cache.lookup", &[("result", "hit")]), 5);
        assert_eq!(m.counter_value("cache.lookup", &[("result", "miss")]), 1);
        assert_eq!(m.counter_sum("cache.lookup"), 6);
        assert_eq!(
            m.counter_value("cache.lookup", &[]),
            0,
            "unlabeled is its own instance"
        );
        m.add_counter("b", &[], 1);
        m.add_counter("a", &[], 2);
        let names = |labels: &[(&str, &str)]| -> Vec<&str> {
            m.counters_labeled(labels).iter().map(|c| c.name).collect()
        };
        assert_eq!(names(&[]), ["a", "b"], "exact label set, sorted by name");
        assert_eq!(names(&[("result", "miss")]), ["cache.lookup"]);
    }

    #[test]
    fn gauges_last_write_wins_and_histograms_accumulate() {
        let mut m = Metrics::default();
        m.set_gauge("g", &[], 5);
        m.set_gauge("g", &[], -2);
        assert_eq!(m.gauges[0].value, -2);
        assert_eq!(m.gauge_value("g", &[]), Some(-2));
        assert_eq!(m.gauge_value("g", &[("k", "v")]), None);
        assert_eq!(m.gauge_value("absent", &[]), None);
        m.observe("h", &[("phase", "color")], 4);
        m.observe("h", &[("phase", "color")], 6);
        let h = m.histogram("h", &[("phase", "color")]).unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 10);
    }

    #[test]
    fn json_is_sorted_by_name_and_labels() {
        let mut m = Metrics::default();
        m.add_counter("z", &[], 1);
        m.add_counter("a", &[("k", "2")], 1);
        m.add_counter("a", &[("k", "1")], 1);
        let doc = m.to_json();
        let counters = doc.get("counters").unwrap().as_arr().unwrap();
        let names: Vec<String> = counters
            .iter()
            .map(|c| {
                let n = c.get("name").unwrap().as_str().unwrap();
                let l = c.get("labels").unwrap();
                format!("{n}{}", l.render())
            })
            .collect();
        assert_eq!(names, vec![r#"a{"k":"1"}"#, r#"a{"k":"2"}"#, r#"z{}"#]);
        // And the document parses back.
        assert!(crate::json::parse(&doc.render_pretty()).is_ok());
    }
}
