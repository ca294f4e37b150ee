//! Kernel replays of the traced run: the inner layers (`stb-geo`,
//! `stb-discrepancy`, `stb-timeseries`, one `STLocal` step) called directly
//! on the geometry the corpus really has, so a kernel change shows up by
//! name before it shows up in `batch_s`.

use stb_core::{STLocal, STLocalConfig};
use stb_corpus::{Collection, TermId};
use stb_discrepancy::{RBursty, WPoint};
use stb_geo::haversine::pairwise_distance_matrix;
use stb_geo::{all_countries, classical_mds, GeoPoint};
use stb_timeseries::bursty_intervals;

use crate::report::Outcome;
use crate::spans::{Recorder, HARNESS};
use crate::stats::{mean, median};

/// Terms whose snapshots and series the replays use.
const SAMPLE_TERMS: usize = 64;

pub fn run(collection: &Collection, rec: &mut Recorder, out: &mut Outcome) {
    let window = rec.open("probe.kernels", HARNESS, 0);

    // The generator's MDS placement of its 181 streams, on its own.
    let geostamps: Vec<GeoPoint> = all_countries().iter().map(|c| c.geostamp()).collect();
    let (placed, mds_s) = rec.time("geo.mds", "geo", 0, || {
        classical_mds(&pairwise_distance_matrix(&geostamps))
    });
    out.check(placed.is_ok(), || "classical MDS failed".to_string());
    out.set("geo.mds_s", mds_s, geostamps.len());

    let all: Vec<TermId> = collection.terms().collect();
    let step = (all.len() / SAMPLE_TERMS).max(1);
    let sample: Vec<TermId> = all.into_iter().step_by(step).take(SAMPLE_TERMS).collect();
    let positions = collection.positions();
    let weeks = collection.timeline_len();

    // One fresh STLocal per term, one timed `step` per timestamp.
    let mut step_us = Vec::with_capacity(sample.len() * weeks);
    for (i, &term) in sample.iter().enumerate() {
        let snapshots: Vec<Vec<f64>> = (0..weeks)
            .map(|w| collection.term_snapshot(term, w).frequencies)
            .collect();
        let ((), _) = rec.time("core.stlocal_steps", "core", i as u64, || {
            let mut miner = STLocal::new(positions.clone(), STLocalConfig::default());
            for snapshot in &snapshots {
                let t = std::time::Instant::now();
                miner.step(snapshot);
                step_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
        });
    }
    out.set("core.stlocal_step_us_p50", median(&step_us), step_us.len());

    // R-Bursty on each (term, week) snapshot; a stream's weight is its
    // frequency minus its own mean over the timeline.
    let mut rect_us = Vec::new();
    let mut rects = Vec::new();
    let mut series_us = Vec::new();
    let mut intervals = Vec::new();
    let finder = RBursty::new();
    for (i, &term) in sample.iter().enumerate() {
        let streams = collection.streams_with_term(term);
        let series: Vec<Vec<f64>> = streams
            .iter()
            .map(|&s| collection.term_stream_series(term, s))
            .collect();
        let mut means = vec![0.0; positions.len()];
        for (s, freqs) in streams.iter().zip(&series) {
            means[s.index()] = mean(freqs);
        }
        let snapshots: Vec<Vec<WPoint>> = (0..weeks)
            .map(|w| {
                let f = collection.term_snapshot(term, w).frequencies;
                (0..positions.len())
                    .map(|s| WPoint::at(positions[s], f[s] - means[s]))
                    .collect()
            })
            .collect();
        let (found, secs) = rec.time("discrepancy.rbursty", "discrepancy", i as u64, || {
            snapshots
                .iter()
                .map(|points| finder.find(points).len())
                .sum::<usize>()
        });
        rect_us.push(secs * 1e6 / weeks as f64);
        rects.push(found as f64 / weeks as f64);

        if !series.is_empty() {
            let (found, secs) = rec.time("timeseries.bursts", "timeseries", i as u64, || {
                series
                    .iter()
                    .map(|freqs| bursty_intervals(freqs).len())
                    .sum::<usize>()
            });
            series_us.push(secs * 1e6 / series.len() as f64);
            intervals.push(found as f64);
        }
    }
    let snapshots = sample.len() * weeks;
    out.set(
        "discrepancy.rbursty_us_per_snapshot",
        mean(&rect_us),
        snapshots,
    );
    out.set("discrepancy.rects_per_snapshot", mean(&rects), snapshots);
    out.set(
        "timeseries.bursts_us_per_series",
        mean(&series_us),
        series_us.len(),
    );
    out.set(
        "timeseries.intervals",
        intervals.iter().sum(),
        intervals.len(),
    );
    rec.close(window);
}
