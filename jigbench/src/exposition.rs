//! Reading the server's metrics frame: the Prometheus-style text the
//! telemetry registry renders, diffed between two snapshots so a reading
//! covers only the timed window.

use std::collections::BTreeMap;

use crate::stats::histogram_median;

/// Series (name plus labels) → value.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot(BTreeMap<String, f64>);

impl Snapshot {
    pub fn parse(text: &str) -> Self {
        let mut series = BTreeMap::new();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            if let Some((key, value)) = line.rsplit_once(' ') {
                if let Ok(v) = value.parse::<f64>() {
                    series.insert(key.to_owned(), v);
                }
            }
        }
        Self(series)
    }

    /// `self − before`, series by series (a series absent before counts
    /// from zero).
    pub fn since(&self, before: &Self) -> Self {
        Self(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v - before.0.get(k).copied().unwrap_or(0.0)))
                .collect(),
        )
    }

    /// Sum of several snapshots (e.g. one per worker process).
    pub fn sum(snapshots: &[Self]) -> Self {
        let mut out = BTreeMap::new();
        for s in snapshots {
            for (k, v) in &s.0 {
                *out.entry(k.clone()).or_insert(0.0) += v;
            }
        }
        Self(out)
    }

    /// The value of one series, 0 when absent.
    pub fn get(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }

    /// Median of a histogram family restricted to one label pair, e.g.
    /// `("jigsaw_sched_queue_wait_seconds", "lane=\"sweep\"")`.
    pub fn histogram_median(&self, family: &str, label: &str) -> Option<f64> {
        let prefix = format!("{family}_bucket{{{label},le=\"");
        let mut buckets: Vec<(f64, f64)> = self
            .0
            .iter()
            .filter_map(|(k, &count)| {
                let bound = k.strip_prefix(&prefix)?.strip_suffix("\"}")?;
                let bound = if bound == "+Inf" { f64::INFINITY } else { bound.parse().ok()? };
                Some((bound, count))
            })
            .collect();
        buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        histogram_median(&buckets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = "# TYPE jigsaw_server_cache_hits_total counter\n\
        jigsaw_server_cache_hits_total 3\n\
        # TYPE h histogram\n\
        h_bucket{lane=\"sweep\",le=\"0.001\"} 1\n\
        h_bucket{lane=\"sweep\",le=\"0.01\"} 1\n\
        h_bucket{lane=\"sweep\",le=\"+Inf\"} 1\n\
        h_sum{lane=\"sweep\"} 0.0005\n";
    const AFTER: &str = "jigsaw_server_cache_hits_total 10\n\
        h_bucket{lane=\"sweep\",le=\"0.001\"} 3\n\
        h_bucket{lane=\"sweep\",le=\"0.01\"} 5\n\
        h_bucket{lane=\"sweep\",le=\"+Inf\"} 5\n\
        h_bucket{lane=\"interactive\",le=\"+Inf\"} 2\n";

    #[test]
    fn diffs_counters_and_histograms() {
        let d = Snapshot::parse(AFTER).since(&Snapshot::parse(BEFORE));
        assert_eq!(d.get("jigsaw_server_cache_hits_total"), 7.0);
        assert_eq!(d.get("missing"), 0.0);
        // Window: 2 at <=0.001, 2 more at <=0.01; median = the 0.001 bound.
        assert_eq!(d.histogram_median("h", "lane=\"sweep\""), Some(0.001));
        assert_eq!(d.histogram_median("h", "lane=\"background\""), None);
        let twice = Snapshot::sum(&[d.clone(), d]);
        assert_eq!(twice.get("jigsaw_server_cache_hits_total"), 14.0);
    }
}
