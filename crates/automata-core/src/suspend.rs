//! The [`Suspend`] capability: first-class, serializable run state.
//!
//! Theorem 1 of the paper is a statement about run state: deciding a nested
//! word query over a stream needs memory proportional to the *nesting
//! depth*, not the input length — a live run is nothing but a state id plus
//! a depth-bounded stack of `u32`s. [`Suspend`] makes that state a value: a
//! [`StreamRun`](crate::StreamRun)-style run or a
//! [`BatchAcceptor`] lane exports an owned
//! [`Snapshot`] at any prefix, and any artifact with the same
//! [`fingerprint`](crate::Persist::fingerprint) resumes it at exactly that
//! prefix — including in another process, via [`Snapshot::to_bytes`] and an
//! artifact reloaded with [`Persist::load`](crate::Persist::load).
//!
//! This is what lets a decision service park a long-lived document between
//! bursts of input (the parked job *is* its snapshot), migrate it across
//! workers, or hand it to a different machine holding the same artifact
//! bytes.

use crate::persist::{kind, PersistError, Reader, Writer};
use crate::stream::BatchAcceptor;

/// The owned, serializable state of one suspended run.
///
/// The fields use one model-generic shape — a `u32` state, a `u32` stack,
/// peak/step counters — but their *encoding* is model-specific (premultiplied
/// row offsets for the dense NWA engine, interned summary ids plus call
/// symbols for the subset engine, …); a snapshot is therefore only
/// meaningful to artifacts whose [`fingerprint`](Snapshot::fingerprint)
/// matches, which is exactly what
/// [`Suspend::resume_lane`] enforces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Fingerprint of the artifact that took the snapshot
    /// ([`Persist::fingerprint`](crate::Persist::fingerprint)); resumption
    /// fails with [`PersistError::FingerprintMismatch`] on any other
    /// artifact.
    pub fingerprint: u64,
    /// The current state, in the artifact's own encoding.
    pub state: u32,
    /// The run's stack, in the artifact's own frame encoding (one or more
    /// `u32` words per open call).
    pub stack: Vec<u32>,
    /// Peak stack height observed so far, in stack *frames* — the
    /// [`peak_memory`](crate::StreamRun::peak_memory) observable.
    pub peak: u32,
    /// Events consumed so far.
    pub steps: u64,
    /// Model-specific integrity word (e.g. a content hash of the interned
    /// summaries a subset-engine snapshot references); `0` where the state
    /// encoding is self-contained.
    pub check: u64,
}

impl Snapshot {
    /// Serializes the snapshot in the same versioned byte format as saved
    /// artifacts (kind [`kind::SNAPSHOT`]), so a parked run can ship across
    /// processes next to its artifact bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u64(self.fingerprint);
        w.put_u32(self.state);
        w.put_u32(self.peak);
        w.put_u64(self.steps);
        w.put_u64(self.check);
        w.put_u32_slice(&self.stack);
        // Snapshots carry no alphabet of their own — the artifact they
        // resume on re-validates everything — so the alphabet field is 0.
        w.seal(kind::SNAPSHOT, 0)
    }

    /// Checks that the snapshot was taken by an artifact with fingerprint
    /// `expected` — the first validation of every `resume_lane`.
    pub fn expect_fingerprint(&self, expected: u64) -> Result<(), PersistError> {
        if self.fingerprint == expected {
            return Ok(());
        }
        Err(PersistError::FingerprintMismatch {
            expected,
            found: self.fingerprint,
        })
    }

    /// Decodes a snapshot serialized by [`Snapshot::to_bytes`]. Corrupt or
    /// truncated bytes yield a typed [`PersistError`], never a panic.
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, PersistError> {
        let (alphabet, mut r) = Reader::open(bytes, kind::SNAPSHOT)?;
        if alphabet != 0 {
            return Err(PersistError::AlphabetMismatch {
                expected: 0,
                found: alphabet,
            });
        }
        let fingerprint = r.get_u64()?;
        let state = r.get_u32()?;
        let peak = r.get_u32()?;
        let steps = r.get_u64()?;
        let check = r.get_u64()?;
        let stack = r.get_u32_vec()?;
        r.finish()?;
        Ok(Snapshot {
            fingerprint,
            state,
            stack,
            peak,
            steps,
            check,
        })
    }
}

/// An artifact whose runs can be suspended to [`Snapshot`]s and resumed at
/// the exact prefix — on this artifact or any other with the same
/// fingerprint (e.g. one reloaded from saved bytes in another process).
///
/// The capability maps lanes to snapshots and back; a run is a lane
/// ([`LaneRun::lane`](crate::LaneRun::lane) to suspend it,
/// [`LaneRun::from_lane`](crate::LaneRun::from_lane) to resume one).
///
/// Laws (property-tested in `tests/persist.rs`):
///
/// 1. **resume ≡ continue** — suspending at any prefix and resuming (on the
///    same artifact or on `load(save(artifact))`) observes the same
///    acceptance, stack height, peak and step count as the uninterrupted
///    run at every subsequent prefix, pending edges included;
/// 2. **typed rejection** — resuming a snapshot from a different artifact
///    fails with [`PersistError::FingerprintMismatch`], and a structurally
///    impossible snapshot fails with a typed error, never a panic or an
///    out-of-bounds table access.
///
/// The free-function spellings are
/// [`query::suspend`](crate::query::suspend) /
/// [`query::resume`](crate::query::resume).
pub trait Suspend: BatchAcceptor + crate::Persist {
    /// Captures a lane's state as an owned snapshot.
    fn suspend_lane(&self, lane: &Self::Lane) -> Snapshot;

    /// Reconstructs a lane from a snapshot, validating the artifact
    /// fingerprint and the structural integrity of the state.
    fn resume_lane(&self, snapshot: &Snapshot) -> Result<Self::Lane, PersistError>;
}

/// Decodes a snapshot's step counter: `u64` on the wire, `usize` in lane
/// state, so an overflowing count is a typed error on narrow targets.
pub fn decode_steps(steps: u64) -> Result<usize, PersistError> {
    usize::try_from(steps).map_err(|_| PersistError::Malformed {
        context: "snapshot step count overflows",
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_bytes_round_trip() {
        let s = Snapshot {
            fingerprint: 0xdead_beef_cafe_f00d,
            state: 42,
            stack: vec![3, 1, 4, 1, 5],
            peak: 9,
            steps: 1 << 40,
            check: 7,
        };
        assert_eq!(Snapshot::from_bytes(&s.to_bytes()).unwrap(), s);

        // Corruption anywhere is a typed error.
        let bytes = s.to_bytes();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(Snapshot::from_bytes(&bad).is_err(), "flipped byte {i}");
        }
        for cut in 0..bytes.len() {
            assert!(Snapshot::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }
}
