//! Admission control, ahead of the commit path: the staging bound with its
//! [`Backpressure`] policy, and the quarantine check that refuses poison
//! documents (counted, with their reason on the outcome) instead of
//! letting them kill a tick.

use crate::config::IngestConfig;
#[cfg(doc)]
use crate::pipeline::IngestPipeline;
use crate::report::HealthReport;
use std::collections::HashMap;
use std::sync::Arc;

use stb_corpus::{Collection, StreamId, TermId};
use stb_obs::Counter;

/// What staging a document does when the staging buffer
/// ([`IngestConfig::max_staged_docs`]) is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backpressure {
    /// Commit the open tick in-line to drain the buffer, then stage the
    /// document into the next tick. The caller pays the commit latency —
    /// the single-threaded analogue of blocking the producer.
    #[default]
    Block,
    /// Drop the document (counted in [`HealthReport::docs_shed`]) and keep
    /// the pipeline responsive.
    Shed,
}

/// Why a document was quarantined instead of staged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum QuarantineReason {
    /// The document references a stream the collection does not have —
    /// applying it would panic the commit.
    UnknownStream,
    /// The document references a term id beyond the live dictionary —
    /// logging it would poison WAL replay and scoring.
    UnknownTerm,
    /// The document's total term count exceeds
    /// [`IngestConfig::max_terms_per_doc`].
    OversizedDoc,
}

/// How [`IngestPipeline::try_stage_document`] disposed of a document.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum StageOutcome {
    /// Staged into the open tick.
    Staged,
    /// The staging buffer was full under [`Backpressure::Block`]: the open
    /// tick was committed in-line and the document was staged into the
    /// next tick.
    StagedAfterCommit,
    /// The staging buffer was full under [`Backpressure::Shed`]: the
    /// document was dropped.
    Shed,
    /// The document was poison and was refused (counted in
    /// [`HealthReport::quarantined_total`]).
    Quarantined(QuarantineReason),
}

/// What [`Admission::decide`] says about one incoming document.
pub(crate) enum Decision {
    /// Stage it into the open tick.
    Admit,
    /// Poison: refuse it.
    Quarantine(QuarantineReason),
    /// The staging buffer is at its bound: apply the [`Backpressure`] policy.
    Full,
}

/// The admission-control state of a pipeline.
pub(crate) struct Admission {
    max_staged_docs: usize,
    pub(crate) backpressure: Backpressure,
    max_terms_per_doc: usize,
    pub(crate) quarantined_total: Arc<Counter>,
    pub(crate) docs_shed: Arc<Counter>,
}

impl Admission {
    pub(crate) fn new(config: &IngestConfig) -> Self {
        Self {
            max_staged_docs: config.max_staged_docs,
            backpressure: config.backpressure,
            max_terms_per_doc: config.max_terms_per_doc,
            quarantined_total: Arc::default(),
            docs_shed: Arc::default(),
        }
    }

    /// Whether `(stream, counts)` may join the `staged` documents already
    /// waiting in the open tick of `collection`.
    pub(crate) fn decide(
        &self,
        collection: &Collection,
        staged: usize,
        stream: StreamId,
        counts: &HashMap<TermId, u32>,
    ) -> Decision {
        if stream.index() >= collection.n_streams() {
            return Decision::Quarantine(QuarantineReason::UnknownStream);
        }
        let n_terms = collection.dict().len();
        if counts.keys().any(|t| t.index() >= n_terms) {
            return Decision::Quarantine(QuarantineReason::UnknownTerm);
        }
        if self.max_terms_per_doc > 0 {
            let total: u64 = counts.values().map(|&c| u64::from(c)).sum();
            if total > self.max_terms_per_doc as u64 {
                return Decision::Quarantine(QuarantineReason::OversizedDoc);
            }
        }
        if self.max_staged_docs > 0 && staged >= self.max_staged_docs {
            return Decision::Full;
        }
        Decision::Admit
    }

    /// Fills in the admission fields of a health report.
    pub(crate) fn report(&self, health: &mut HealthReport) {
        health.docs_shed = self.docs_shed.get();
        health.quarantined_total = self.quarantined_total.get();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::IngestPipeline;
    use stb_geo::GeoPoint;

    #[test]
    fn quarantine_catches_poison_documents() {
        let config = IngestConfig {
            timeline_capacity: 4,
            max_terms_per_doc: 10,
            ..Default::default()
        };
        let mut pipeline = IngestPipeline::new(config);
        let s = pipeline.add_stream("A", GeoPoint::new(0.0, 0.0));
        let t = pipeline.intern("t");

        let unknown_stream = StreamId(99);
        assert_eq!(
            pipeline.try_stage_document(unknown_stream, HashMap::from([(t, 1)])),
            StageOutcome::Quarantined(QuarantineReason::UnknownStream)
        );
        assert_eq!(
            pipeline.try_stage_document(s, HashMap::from([(TermId(42), 1)])),
            StageOutcome::Quarantined(QuarantineReason::UnknownTerm)
        );
        assert_eq!(
            pipeline.try_stage_document(s, HashMap::from([(t, 11)])),
            StageOutcome::Quarantined(QuarantineReason::OversizedDoc)
        );
        // The tick survives: a clean document commits normally.
        assert_eq!(
            pipeline.try_stage_document(s, HashMap::from([(t, 1)])),
            StageOutcome::Staged
        );
        let receipt = pipeline.commit_tick();
        assert_eq!(receipt.new_docs.len(), 1);
        assert_eq!(pipeline.health().quarantined_total, 3);
    }

    #[test]
    fn quarantined_total_keeps_counting() {
        let config = IngestConfig {
            timeline_capacity: 4,
            ..Default::default()
        };
        let mut pipeline = IngestPipeline::new(config);
        let _ = pipeline.add_stream("A", GeoPoint::new(0.0, 0.0));
        let t = pipeline.intern("t");
        for _ in 0..5 {
            let _ = pipeline.try_stage_document(StreamId(9), HashMap::from([(t, 1)]));
        }
        assert_eq!(pipeline.health().quarantined_total, 5);
    }

    #[test]
    fn backpressure_block_commits_inline() {
        let config = IngestConfig {
            timeline_capacity: 8,
            max_staged_docs: 2,
            backpressure: Backpressure::Block,
            ..Default::default()
        };
        let mut pipeline = IngestPipeline::new(config);
        let s = pipeline.add_stream("A", GeoPoint::new(0.0, 0.0));
        let t = pipeline.intern("t");
        for _ in 0..2 {
            assert_eq!(
                pipeline.try_stage_document(s, HashMap::from([(t, 1)])),
                StageOutcome::Staged
            );
        }
        assert_eq!(
            pipeline.try_stage_document(s, HashMap::from([(t, 1)])),
            StageOutcome::StagedAfterCommit
        );
        assert_eq!(pipeline.ticks_committed(), 1);
        assert_eq!(pipeline.health().staged_docs, 1);
    }

    #[test]
    fn backpressure_shed_drops_and_counts() {
        let config = IngestConfig {
            timeline_capacity: 8,
            max_staged_docs: 1,
            backpressure: Backpressure::Shed,
            ..Default::default()
        };
        let mut pipeline = IngestPipeline::new(config);
        let s = pipeline.add_stream("A", GeoPoint::new(0.0, 0.0));
        let t = pipeline.intern("t");
        let _ = pipeline.try_stage_document(s, HashMap::from([(t, 1)]));
        assert_eq!(
            pipeline.try_stage_document(s, HashMap::from([(t, 1)])),
            StageOutcome::Shed
        );
        let receipt = pipeline.commit_tick();
        assert_eq!(receipt.new_docs.len(), 1, "shed doc never entered");
        assert_eq!(pipeline.health().docs_shed, 1);
    }
}
