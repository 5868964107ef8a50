//! The engine's **query vocabulary**: typed reads against live sessions,
//! batched per session and served by the command plane.
//!
//! A [`Query`] is one read, a [`QueryBatch`] is the reads addressed to
//! one session.  A query batch runs as an [`Op::Query`] slot of a
//! [`Tick`](crate::Tick), executed by
//! [`Engine::execute`](crate::Engine::execute): a read observes every
//! earlier write of the same tick addressed to its session, mutates
//! nothing, and never creates a session.  A read-only
//! [`ReadTick`](crate::ReadTick) takes the same path:
//! [`Engine::execute_read`](crate::Engine::execute_read) lowers its
//! batches to query slots of one tick.  Whole ticks are partitioned by
//! shard and answered through the same per-shard `join` spine as ingest,
//! one piece per shard with work.
//!
//! Every query has one semantics over the session-kind axis: the *dp
//! value* of an element is its rank in an unweighted session and its
//! Algorithm-2 score in a weighted one, so the same [`Query`] values work
//! against both kinds and answers carry dp values as `u64` either way.
//! Certificate answers are full reconstructions
//! ([`StreamingLis::reconstruct_lis`] /
//! [`WeightedStreamingLis::reconstruct_wlis`]) and are deterministic:
//! bit-identical to the offline Appendix-A walk on the same prefix, which
//! is what `crates/engine/tests/query_oracle.rs` asserts.
//!
//! [`Op::Query`]: crate::Op::Query
//! [`StreamingLis::reconstruct_lis`]: crate::StreamingLis::reconstruct_lis
//! [`WeightedStreamingLis::reconstruct_wlis`]: crate::WeightedStreamingLis::reconstruct_wlis

use crate::engine::{SessionKind, SessionState};

/// One read against a live session.  The *dp value* a query speaks of is
/// the element's rank (unweighted sessions) or its Algorithm-2 score
/// (weighted sessions), always carried as `u64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// The dp value of the `i`-th ingested element (`None` when fewer
    /// than `i + 1` elements have arrived).
    RankOf(usize),
    /// How many ingested elements have dp value exactly this.
    CountAt(u64),
    /// The `k` best elements by dp value: `(index, dp)` pairs ordered by
    /// descending dp, ties by ascending index.
    TopK(usize),
    /// A full certificate: one optimal increasing subsequence (LIS or
    /// maximum-weight), reconstructed from the maintained ranks/scores.
    Certificate,
}

/// The reads addressed to one session within a tick.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QueryBatch(Vec<Query>);

impl QueryBatch {
    /// A batch over the given queries.
    pub fn new(queries: Vec<Query>) -> Self {
        QueryBatch(queries)
    }

    /// The queries, in batch order.
    pub fn queries(&self) -> &[Query] {
        &self.0
    }

    /// Number of queries in the batch.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the batch holds no queries.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl From<Vec<Query>> for QueryBatch {
    fn from(queries: Vec<Query>) -> Self {
        QueryBatch(queries)
    }
}

impl From<Query> for QueryBatch {
    fn from(query: Query) -> Self {
        QueryBatch(vec![query])
    }
}

impl From<plis_workloads::streaming::QuerySpec> for Query {
    /// The canonical mapping from the workload generator's engine-agnostic
    /// query specs ([`plis_workloads::streaming::read_write_mix`]) onto
    /// live queries — shared by the benchmark harness, the oracle test
    /// layer, and the examples so the translation exists exactly once.
    fn from(spec: plis_workloads::streaming::QuerySpec) -> Self {
        use plis_workloads::streaming::QuerySpec;
        match spec {
            QuerySpec::RankOf(i) => Query::RankOf(i),
            QuerySpec::CountAt(v) => Query::CountAt(v),
            QuerySpec::TopK(k) => Query::TopK(k),
            QuerySpec::Certificate => Query::Certificate,
        }
    }
}

/// A reconstructed optimal increasing subsequence, as returned by
/// [`Query::Certificate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// Indices of the subsequence in arrival order (strictly increasing;
    /// the session values along them strictly increase too).
    pub indices: Vec<usize>,
    /// The claimed optimum the indices certify: the LIS length for an
    /// unweighted session, the best total weight for a weighted one.
    pub claimed: u64,
}

/// The answer to one [`Query`], in the same order as the batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryAnswer {
    /// Answer to [`Query::RankOf`]: the element's dp value, or `None` if
    /// the index is beyond the stream.
    Rank(Option<u64>),
    /// Answer to [`Query::CountAt`].
    Count(usize),
    /// Answer to [`Query::TopK`]: `(index, dp)` pairs, dp descending,
    /// ties by ascending index.
    TopK(Vec<(usize, u64)>),
    /// Answer to [`Query::Certificate`].
    Certificate(Certificate),
}

/// What one [`QueryBatch`] returned, carried by
/// [`OpOutput::Answered`](crate::OpOutput::Answered) and the read plane.
/// A batch addressed to an absent session never gets a report: it fails
/// with [`OpError::UnknownSession`](crate::OpError::UnknownSession).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryReport {
    /// Kind of the session that answered.
    pub kind: SessionKind,
    /// One answer per query, in batch order.
    pub answers: Vec<QueryAnswer>,
}

impl SessionState {
    /// Answer one query against this session, whatever its kind.
    pub fn answer(&self, query: Query) -> QueryAnswer {
        match self {
            SessionState::Unweighted(s) => match query {
                Query::RankOf(i) => QueryAnswer::Rank(s.rank_of(i).map(u64::from)),
                Query::CountAt(v) => {
                    // Ranks are u32; larger probes cannot match anything.
                    QueryAnswer::Count(u32::try_from(v).map_or(0, |r| s.count_at_rank(r)))
                }
                Query::TopK(k) => QueryAnswer::TopK(s.top_k(k)),
                Query::Certificate => QueryAnswer::Certificate(Certificate {
                    indices: s.reconstruct_lis(),
                    claimed: s.lis_length() as u64,
                }),
            },
            SessionState::Weighted(s) => match query {
                Query::RankOf(i) => QueryAnswer::Rank(s.score_of(i)),
                Query::CountAt(v) => QueryAnswer::Count(s.count_at_score(v)),
                Query::TopK(k) => QueryAnswer::TopK(s.top_k(k)),
                Query::Certificate => QueryAnswer::Certificate(Certificate {
                    indices: s.reconstruct_wlis(),
                    claimed: s.best_score(),
                }),
            },
        }
    }

    /// Answer a whole query batch, in batch order.
    pub fn answer_batch(&self, batch: &QueryBatch) -> QueryReport {
        QueryReport {
            kind: self.kind(),
            answers: batch.queries().iter().map(|&q| self.answer(q)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::StreamingLis;
    use crate::wsession::WeightedStreamingLis;

    #[test]
    fn answers_agree_with_the_session_accessors() {
        let mut plain = StreamingLis::new(100);
        plain.ingest(&[10, 20, 5, 30]);
        let state = SessionState::Unweighted(plain.clone());
        assert_eq!(state.answer(Query::RankOf(3)), QueryAnswer::Rank(Some(3)));
        assert_eq!(state.answer(Query::RankOf(99)), QueryAnswer::Rank(None));
        assert_eq!(state.answer(Query::CountAt(1)), QueryAnswer::Count(2));
        assert_eq!(state.answer(Query::CountAt(u64::MAX)), QueryAnswer::Count(0));
        assert_eq!(state.answer(Query::TopK(1)), QueryAnswer::TopK(vec![(3, 3)]));
        let QueryAnswer::Certificate(cert) = state.answer(Query::Certificate) else {
            panic!("expected a certificate");
        };
        assert_eq!(cert.claimed, 3);
        assert_eq!(cert.indices, plain.reconstruct_lis());

        let mut weighted = WeightedStreamingLis::new(100);
        weighted.ingest(&[(10, 4), (20, 6)]);
        let state = SessionState::Weighted(weighted);
        assert_eq!(state.answer(Query::RankOf(1)), QueryAnswer::Rank(Some(10)));
        assert_eq!(state.answer(Query::CountAt(10)), QueryAnswer::Count(1));
        let QueryAnswer::Certificate(cert) = state.answer(Query::Certificate) else {
            panic!("expected a certificate");
        };
        assert_eq!(cert.claimed, 10);
        assert_eq!(cert.indices, vec![0, 1]);
    }

    #[test]
    fn batch_reports_carry_kind_and_order() {
        let mut plain = StreamingLis::new(100);
        plain.ingest(&[1, 2, 3]);
        let state = SessionState::Unweighted(plain);
        let batch = QueryBatch::from(vec![Query::CountAt(1), Query::RankOf(0)]);
        assert_eq!(batch.len(), 2);
        assert!(!batch.is_empty());
        let report = state.answer_batch(&batch);
        assert_eq!(report.kind, SessionKind::Unweighted);
        assert_eq!(report.answers[0], QueryAnswer::Count(1));
        assert_eq!(report.answers[1], QueryAnswer::Rank(Some(1)));
    }
}
