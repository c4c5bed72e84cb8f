//! The parts of a split structure scan, lent in place to the helper
//! threads: the crate's one module besides `kernel` allowed `unsafe`.
//!
//! A split publishes the caller's buffer, its cut ranges and one claim
//! word, `front << 32 | back`: parts `front..back` are nobody's yet. The
//! calling thread claims parts from the front and the helpers claim them
//! from the back, each with one compare-and-swap, so every part is folded
//! once and no byte is copied. A helper reads its part through a raw
//! pointer into the caller's buffer, under a [`Claim`] counted in
//! [`Lent::held`]; [`lend`] closes the claims when its caller is done, or
//! unwinds, and parks until that count is 0, so the borrow outlives every
//! read. The state is shared by `Arc`: a helper that uncounts its claim
//! after the lender has returned touches the counters only, never a
//! borrowed byte.

use super::{Fault, Part};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, Thread};

/// One split's shared state.
pub(super) struct Lent {
    /// The lender's buffer, read only under a claim.
    data: *const u8,
    /// The parts' byte ranges in the buffer, in stream order; `lend`
    /// checked that each lies in it.
    ranges: Vec<(usize, usize)>,
    /// `front << 32 | back`: parts `front..back` are unclaimed.
    claims: AtomicU64,
    /// Helpers that hold a claim or are trying to take one. A helper counts
    /// itself before it tries, so once the claims are closed a count of 0
    /// means no helper can read a byte again.
    held: AtomicUsize,
    /// The lending thread, unparked when `held` falls to 0.
    lender: Thread,
    /// The parts helpers folded, by index.
    folded: Mutex<Vec<(usize, Option<Part>)>>,
    /// Forms per chunk of a part.
    pub(super) max: usize,
    pub(super) fault: Fault,
}

// SAFETY: `data` is the only field that is not `Send` and `Sync` by itself.
// It points at the bytes of a shared borrow that `lend` holds until
// `held` is 0 with the claims closed; bytes are read only through
// `Claim::bytes`, under a claim counted in `held`, and never written, and
// `u8` is `Sync`. Every other field is an atomic, a `Mutex`, a `Thread` or
// plain data.
unsafe impl Send for Lent {}
// SAFETY: as for `Send`: shared access reads the buffer only under a
// counted claim, while the lender's shared borrow keeps it alive and
// unwritten.
unsafe impl Sync for Lent {}

/// Lends `data`, cut into `ranges`, to the helpers while `f` runs: `f`
/// publishes the split ([`pool::publish`](super::pool::publish)) and
/// claims parts from the front ([`Lent::claim_front`]). When `f` returns
/// or unwinds, the claims close, the split is withdrawn from the helpers
/// and this thread parks until no helper holds a claim. Returns what `f`
/// returned and the split's state, whose helper-folded parts are final.
///
/// Panics unless every range lies in `data`, and if there are 2³² parts or
/// more.
pub(super) fn lend<T>(
    data: &[u8],
    ranges: Vec<(usize, usize)>,
    max: usize,
    fault: Fault,
    f: impl FnOnce(&Arc<Lent>) -> T,
) -> (T, Arc<Lent>) {
    // The bound `Claim::bytes` relies on.
    assert!(
        ranges
            .iter()
            .all(|&(from, to)| from <= to && to <= data.len()),
        "every part lies in the lent bytes"
    );
    let parts = u32::try_from(ranges.len()).expect("fewer than 2^32 parts");
    let lent = Arc::new(Lent {
        data: data.as_ptr(),
        ranges,
        claims: AtomicU64::new(u64::from(parts)),
        held: AtomicUsize::new(0),
        lender: thread::current(),
        folded: Mutex::new(Vec::new()),
        max,
        fault,
    });
    let returned = {
        let _lending = Lending(&lent);
        f(&lent)
    };
    (returned, lent)
}

/// Ends a lend, on return or unwind: closes the claims, withdraws the
/// split from the helpers and parks until no helper holds a claim.
struct Lending<'a>(&'a Arc<Lent>);

impl Drop for Lending<'_> {
    fn drop(&mut self) {
        let lent = self.0;
        lent.close();
        super::pool::withdraw(lent);
        while lent.held.load(SeqCst) != 0 {
            thread::park();
        }
    }
}

impl Lent {
    /// Applies `claim` to `(front, back)` in one compare-and-swap loop;
    /// the pair before it, or `None` where `claim` declined.
    fn claim(&self, claim: impl Fn(u64, u64) -> Option<(u64, u64)>) -> Option<(u64, u64)> {
        let pair = |word: u64| (word >> 32, word & u64::from(u32::MAX));
        self.claims
            .fetch_update(SeqCst, SeqCst, |word| {
                let (front, back) = pair(word);
                claim(front, back).map(|(front, back)| front << 32 | back)
            })
            .ok()
            .map(pair)
    }

    /// Whether some part is still unclaimed.
    pub(super) fn unclaimed(&self) -> bool {
        let word = self.claims.load(SeqCst);
        word >> 32 < word & u64::from(u32::MAX)
    }

    /// Closes the claims: no part is claimed from now on, on either side.
    pub(super) fn close(&self) {
        self.claim(|front, back| (front < back).then_some((front, front)));
    }

    /// Claims the first unclaimed part for the lender: its index.
    pub(super) fn claim_front(&self) -> Option<usize> {
        let (front, _) = self.claim(|front, back| (front < back).then_some((front + 1, back)))?;
        Some(front as usize)
    }

    /// Claims the last unclaimed part for a helper.
    pub(super) fn claim_back(&self) -> Option<Claim<'_>> {
        self.held.fetch_add(1, SeqCst);
        let release = Release(self);
        let (_, back) = self.claim(|front, back| (front < back).then_some((front, back - 1)))?;
        Some(Claim {
            part: back as usize - 1,
            release,
        })
    }

    /// Part `k`'s byte range in the lent buffer.
    pub(super) fn range(&self, k: usize) -> (usize, usize) {
        self.ranges[k]
    }

    /// Parts in the split.
    pub(super) fn parts(&self) -> usize {
        self.ranges.len()
    }

    /// Claims helpers hold, or are trying to take.
    #[cfg(test)]
    pub(super) fn held(&self) -> usize {
        self.held.load(SeqCst)
    }

    /// Takes the parts helpers folded, by index.
    pub(super) fn take_folded(&self) -> Vec<(usize, Option<Part>)> {
        std::mem::take(&mut self.folded.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

/// A helper's claim on one part.
pub(super) struct Claim<'a> {
    part: usize,
    release: Release<'a>,
}

impl Claim<'_> {
    /// The claimed part's bytes, borrowed from the lender's buffer for as
    /// long as the claim is held.
    pub(super) fn bytes(&self) -> &[u8] {
        let lent = self.release.0;
        let (from, to) = lent.ranges[self.part];
        // SAFETY: `lend` asserted `from <= to <= data.len()` of the buffer
        // `data` points at, so the range lies in it. This claim stays
        // counted in `held` for as long as the returned slice borrows it,
        // and the lender parks until `held` is 0 before its shared borrow
        // of the buffer ends, so the bytes stay alive and unwritten.
        unsafe { std::slice::from_raw_parts(lent.data.add(from), to - from) }
    }

    /// Hands the folded part to the lender and releases the claim. A part
    /// that failed closes the claims.
    pub(super) fn finish(self, part: Option<Part>) {
        let lent = self.release.0;
        if part.is_none() {
            lent.close();
        }
        lent.folded
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((self.part, part));
    }
}

/// Uncounts a helper from [`Lent::held`] when dropped — after its fold,
/// or while a panicking fold unwinds — and wakes the lender at 0.
struct Release<'a>(&'a Lent);

impl Drop for Release<'_> {
    fn drop(&mut self) {
        if self.0.held.fetch_sub(1, SeqCst) == 1 {
            self.0.lender.unpark();
        }
    }
}
