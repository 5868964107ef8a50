//! The derived-state comparison shared by the suites that compare two
//! engines.  A snapshot holds only the ingested streams, so equal
//! snapshots do not by themselves prove equal ranks, tails, scores or
//! frontiers; this helper compares those directly.

use plis_engine::{Engine, SessionState};

/// Assert `a` and `b` hold the same session ids with the same kinds, and
/// that every session's derived state is identical: ranks and tails for
/// an unweighted session, dp scores and the Pareto frontier for a
/// weighted one.
pub fn assert_same_derived_state(a: &Engine, b: &Engine, label: &str) {
    let ids = a.session_ids();
    assert_eq!(ids, b.session_ids(), "{label}: session ids diverged");
    for id in &ids {
        let x = a.session_state(id.as_str()).expect("listed id");
        let y = b.session_state(id.as_str()).expect("listed id");
        match (x, y) {
            (SessionState::Unweighted(x), SessionState::Unweighted(y)) => {
                assert_eq!(x.ranks(), y.ranks(), "{label}: ranks of {id} diverged");
                assert_eq!(x.tails(), y.tails(), "{label}: tails of {id} diverged");
            }
            (SessionState::Weighted(x), SessionState::Weighted(y)) => {
                assert_eq!(x.scores(), y.scores(), "{label}: scores of {id} diverged");
                assert_eq!(x.frontier(), y.frontier(), "{label}: frontier of {id} diverged");
            }
            _ => panic!("{label}: {id} is {:?} on one side, {:?} on the other", x.kind(), y.kind()),
        }
    }
}
