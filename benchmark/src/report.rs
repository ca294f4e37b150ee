//! The metric catalogue and what one workload run hands back: named
//! values with sample counts, operation counts, failures, and the result
//! checksum.

use std::collections::BTreeMap;

use stb_search::SearchResult;

use crate::stats::{median, percentile, Fnv};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Measured with tracing off; gated by the bounds in `BENCHMARK.json`.
pub const END_TO_END: &[Def] = &[
    lo("setup_s", "s"),
    lo("batch_s", "s"),
    hi("ingest_docs_per_s", "docs/s"),
    lo("commit_ms_p50", "ms"),
    lo("commit_ms_tail10", "ms"),
    lo("recover_s", "s"),
    lo("store_bytes_per_doc", "B"),
    lo("q_hot_us_p50", "us"),
    lo("q_cold_us_p50", "us"),
    lo("peak_rss_mb", "MB"),
];

/// The first [`DEMOTED`] entries of [`PER_LAYER`]: end-to-end metrics by
/// definition, measured and printed by every run, but not gated — on the
/// reference sandbox their spread over ten runs exceeds what a bound may
/// be (README, "Noise").
pub const DEMOTED: usize = 4;

/// Measured in the traced run, from outside, around calls into public
/// functions; layer = crate name without `stb-`. Not gated.
pub const PER_LAYER: &[Def] = &[
    hi("query_qps", "1/s"),
    lo("q_cold_us_p99", "us"),
    lo("q_filtered_us_p50", "us"),
    lo("q_filtered_us_p99", "us"),
    lo("datagen.generate_s", "s"),
    lo("geo.mds_s", "s"),
    lo("corpus.build_s", "s"),
    hi("corpus.docs", "count"),
    hi("corpus.postings", "count"),
    lo("core.stlocal_s", "s"),
    hi("core.stlocal_patterns", "count"),
    lo("core.stcomb_s", "s"),
    hi("core.stcomb_patterns", "count"),
    lo("core.stlocal_step_us_p50", "us"),
    lo("discrepancy.rbursty_us_per_snapshot", "us"),
    hi("discrepancy.rects_per_snapshot", "count"),
    lo("timeseries.bursts_us_per_series", "us"),
    hi("timeseries.intervals", "count"),
    lo("search.set_patterns_s", "s"),
    lo("search.finalize_s", "s"),
    hi("search.index_postings", "count"),
    lo("search.publish_full_s", "s"),
    lo("search.publish_incr_ms", "ms"),
    hi("search.cache_hit_ratio", "ratio"),
    hi("search.cache_hit_ratio.hot", "ratio"),
    hi("search.cache_hit_ratio.cold", "ratio"),
    lo("search.postings_scanned_per_q", "count"),
    hi("search.pruned_ratio", "ratio"),
    lo("search.q_explain_us_p50", "us"),
    lo("search.q_filtered_scored_ratio", "ratio"),
    lo("ingest.stage_us_per_doc", "us"),
    lo("ingest.commit_s", "s"),
    lo("ingest.commit_ms_p90", "ms"),
    lo("ingest.dirty_terms_per_tick", "count"),
    lo("ingest.patterns_per_tick", "count"),
    lo("ingest.gen_late_ms_p90", "ms"),
    lo("ingest.writer_busy_ratio", "ratio"),
    lo("store.wal_bytes", "B"),
    lo("store.snapshot_bytes", "B"),
    lo("store.checkpoint_s", "s"),
    lo("store.snapshot_write_s", "s"),
    lo("store.snapshot_load_s", "s"),
    lo("store.wal_read_s", "s"),
    lo("store.wal_append_us_per_tick", "us"),
    lo("store.wal_fsync_append_us_per_tick", "us"),
    lo("subscribe.register_us_per_sub", "us"),
    lo("subscribe.notify_us_p50", "us"),
    lo("subscribe.evaluations_per_commit", "count"),
    hi("subscribe.notifications", "count"),
    lo("subscribe.coalesced", "count"),
    lo("obs.c_wal_append_s", "s"),
    lo("obs.c_apply_docs_s", "s"),
    lo("obs.c_mine_s", "s"),
    lo("obs.c_publish_s", "s"),
    lo("obs.c_notify_s", "s"),
    lo("obs.c_unattributed_share", "ratio"),
    lo("obs.q_plan_ns_p50", "ns"),
    lo("obs.q_cache_lookup_ns_p50", "ns"),
    lo("obs.q_shard_gather_ns_p50", "ns"),
    lo("obs.q_ta_scan_ns_p50", "ns"),
    lo("obs.q_respond_ns_p50", "ns"),
    lo("obs.trace_overhead_pct", "%"),
    hi("trace.coverage_ratio", "ratio"),
    lo("self.datagen_s", "s"),
    lo("self.geo_s", "s"),
    lo("self.corpus_s", "s"),
    lo("self.core_s", "s"),
    lo("self.discrepancy_s", "s"),
    lo("self.timeseries_s", "s"),
    lo("self.search_s", "s"),
    lo("self.ingest_s", "s"),
    lo("self.store_s", "s"),
    lo("self.subscribe_s", "s"),
    lo("self.harness_s", "s"),
    lo("harness.cpu_ref_ms", "ms"),
];

/// Layers of the `self.<layer>_s` breakdown, in catalogue order.
pub const LAYERS: &[&str] = &[
    "datagen",
    "geo",
    "corpus",
    "core",
    "discrepancy",
    "timeseries",
    "search",
    "ingest",
    "store",
    "subscribe",
    "harness",
];

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    pub value: f64,
    /// Samples behind the value (1 for a single reading, 0 for a layer the
    /// workload never entered).
    pub n: usize,
}

#[derive(Debug, Default)]
pub struct Outcome {
    values: BTreeMap<&'static str, Value>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub checksum: Fnv,
    pub input_hash: u64,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64, n: usize) {
        self.values.insert(name, Value { value, n });
    }

    /// Adds to a value that several phases contribute to (`setup_s`).
    pub fn add(&mut self, name: &'static str, value: f64) {
        let v = self
            .values
            .entry(name)
            .or_insert(Value { value: 0.0, n: 0 });
        v.value += value;
        v.n += 1;
    }

    pub fn get(&self, name: &str) -> Option<Value> {
        self.values.get(name).copied()
    }

    /// Counts operations the program was asked to do and the ones it
    /// failed or refused.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// A correctness check: one operation, failed when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Folds a result list (doc ids and score bits) into the checksum.
    pub fn fold_results(&mut self, results: &[SearchResult]) {
        self.checksum.u64(results.len() as u64);
        for r in results {
            self.checksum.u64(u64::from(r.doc.0));
            self.checksum.u64(r.score.to_bits());
        }
    }

    /// Takes over repeated laps of one phase: each value becomes
    /// [`across_laps`] of the laps that measured it, operations and failures
    /// add up, and the laps' answers fold into the checksum in lap order.
    pub fn absorb_laps(&mut self, laps: Vec<Outcome>) {
        let mut samples: BTreeMap<&'static str, Vec<Value>> = BTreeMap::new();
        for lap in laps {
            for (name, v) in lap.values {
                samples.entry(name).or_default().push(v);
            }
            self.attempted += lap.attempted;
            self.failed += lap.failed;
            self.failures.extend(lap.failures);
            // Laps that checked no answers (their number may depend on the
            // clock) leave the checksum alone.
            if lap.checksum != Fnv::default() {
                self.checksum.u64(lap.checksum.finish());
            }
        }
        for (name, vs) in samples {
            let values: Vec<f64> = vs.iter().map(|v| v.value).collect();
            self.set(
                name,
                across_laps(name, &values),
                vs.iter().map(|v| v.n).sum(),
            );
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The catalogue's metrics in order. A per-layer metric the workload
    /// never produced reads 0 with `n = 0`; a missing end-to-end metric is
    /// a failed run, since every one is defined on every workload.
    pub fn select(&mut self, defs: &[Def], required: bool) -> Vec<(Def, Value)> {
        defs.iter()
            .map(|d| {
                let v = self.get(d.name).unwrap_or_else(|| {
                    if required {
                        self.failed += 1;
                        self.failures
                            .push(format!("metric {} was not measured", d.name));
                    }
                    Value { value: 0.0, n: 0 }
                });
                (*d, v)
            })
            .collect()
    }
}

/// One reading from the laps (or reader time slices) of a phase. Times and
/// rates take the quartile on their better side — the first quartile of a
/// time, the third of a rate: on the reference sandbox the CPU's speed
/// moves by tens of percent in episodes of seconds, episodes only ever slow
/// a lap down, and the better quartile of ten-second windows repeats twice
/// as well as their median (README, "Noise"). A change that slows every lap
/// moves it like any other quantile. Counts and ratios take the median.
pub fn across_laps(name: &str, samples: &[f64]) -> f64 {
    let def = END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name);
    let timed = def.is_some_and(|d| matches!(d.unit, "s" | "ms" | "us" | "ns" | "1/s" | "docs/s"));
    match def {
        Some(d) if timed && d.better == Better::Lower => percentile(samples, 0.25),
        Some(d) if timed && d.better == Better::Higher => percentile(samples, 0.75),
        _ => median(samples),
    }
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, values printed with all their digits.
pub fn result_json(outcome: &Outcome, metrics: &[(Def, Value)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(d, v)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                json_number(v.value),
                d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        body.join(", ")
    )
}

/// A finite JSON number (`{}` on an `f64` prints the shortest string that
/// round-trips, so no digit is lost); non-finite readings become 0.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn catalogue_names_are_unique_and_within_the_contract() {
        let mut seen = HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
        for layer in LAYERS {
            let name = format!("self.{layer}_s");
            assert!(PER_LAYER.iter().any(|d| d.name == name), "{name}");
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let json = include_str!("../../BENCHMARK.json");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let start = json.find(&format!("\"{key}\"")).expect(key);
            let section = &json[start..start + json[start..].find(']').expect("list ends")];
            assert_eq!(section.matches("\"name\"").count(), defs.len(), "{key}");
            for d in defs {
                let better = match d.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                let entry = format!(
                    "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                    d.name, d.unit, better
                );
                assert!(section.contains(&entry), "{entry} missing from {key}");
            }
        }
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut o = Outcome::default();
        o.check(true, || unreachable!());
        assert!(o.correct());
        o.check(false, || "corrupted expectation".to_string());
        assert!(!o.correct());
        assert_eq!((o.attempted, o.failed), (2, 1));
        assert_eq!(o.failures, vec!["corrupted expectation".to_string()]);
        let metrics = o.select(&END_TO_END[..1], false);
        let line = result_json(&o, &metrics);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }

    #[test]
    fn missing_end_to_end_metric_fails_missing_layer_metric_reads_zero() {
        let mut o = Outcome::default();
        o.set("batch_s", 1.25, 3);
        let layer = o.select(&PER_LAYER[..2], false);
        assert!(o.correct());
        assert_eq!(layer[0].1, Value { value: 0.0, n: 0 });
        let e2e = o.select(&END_TO_END[..2], true);
        assert_eq!(e2e[1].1, Value { value: 1.25, n: 3 });
        assert_eq!(o.failed, 1, "setup_s was never set");
    }

    #[test]
    fn laps_are_absorbed_by_their_better_quartile() {
        let laps: Vec<Outcome> = (1..=8)
            .map(|i| {
                let mut lap = Outcome::default();
                lap.set("recover_s", f64::from(i), 1);
                lap.set("query_qps", f64::from(i), 10);
                lap.set("corpus.docs", f64::from(i), 1);
                lap.ops(10, 0);
                lap
            })
            .collect();
        let mut o = Outcome::default();
        o.set("batch_s", 1.0, 1);
        o.absorb_laps(laps);
        // A time reads its first quartile, a rate its third, a count its median.
        assert_eq!(o.get("recover_s"), Some(Value { value: 2.0, n: 8 }));
        assert_eq!(o.get("query_qps"), Some(Value { value: 6.0, n: 80 }));
        assert_eq!(o.get("corpus.docs"), Some(Value { value: 4.0, n: 8 }));
        assert_eq!(o.get("batch_s"), Some(Value { value: 1.0, n: 1 }));
        assert_eq!((o.attempted, o.failed), (80, 0));
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(json_number(1.2034567891), "1.2034567891");
        assert_eq!(json_number(f64::NAN), "0");
    }
}
