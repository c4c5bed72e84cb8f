//! The scanner's stage-1 block classifiers and its append sink: one of the
//! two modules in the crate allowed `unsafe` (the other is `lend`). Every
//! kernel turns one 64-byte block into the same [`BlockMasks`]; the
//! portable [`Swar`] kernel is plain word arithmetic, while [`Avx2`]
//! (`x86_64`, runtime-detected) and [`Neon`] (`aarch64`, baseline) are
//! vector intrinsics whose ISA presence is proven by construction of their
//! zero-sized token types.

use super::{build_tape, walk_forms, FormsPass, Pass, Tape, HIGHS, ONES};

/// Bytes classified per [`BlockClassifier::classify`] call.
pub(super) const BLOCK: usize = 64;

/// One bit per block byte, bit 0 = lowest address. Every class is an exact
/// per-byte predicate, so the three kernels agree bit for bit.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub(super) struct BlockMasks {
    /// `<`
    pub lt: u64,
    /// `>`
    pub gt: u64,
    /// ASCII whitespace (TAB, LF, VT, FF, CR, space) — exactly
    /// [`is_ascii_ws`](super::is_ascii_ws).
    pub ws: u64,
    /// `/`
    pub slash: u64,
    /// `"` or `'`
    pub quote: u64,
    /// `!` or `?` — a directive when straight after `<`.
    pub lead: u64,
    /// Bytes the tape never takes: non-ASCII, and control bytes below 0x21
    /// that are not whitespace.
    pub other: u64,
}

/// A stage-1 kernel producing [`BlockMasks`]. Implementations are
/// zero-sized proofs: a value exists only after the ISA was verified
/// present (or is baseline), which is what makes their intrinsic use
/// sound.
pub(super) trait BlockClassifier: Copy {
    /// Classifies `data[at..at + BLOCK]`; panics if out of bounds.
    fn classify(self, data: &[u8], at: usize) -> BlockMasks;

    /// One stage-1 pass ([`build_tape`]) with this kernel's ISA enabled
    /// for the whole pass, so `classify` inlines into the block loop.
    #[inline(always)]
    fn stage1<const DROP_TEXT: bool>(
        self,
        tape: &mut Tape,
        data: &[u8],
        from: usize,
        budget: usize,
    ) -> Pass {
        build_tape::<_, DROP_TEXT>(self, tape, data, from, budget)
    }

    /// One structure pass ([`walk_forms`]) with this kernel's ISA enabled
    /// for the whole pass.
    #[inline(always)]
    fn forms_pass(self, data: &[u8], from: usize, budget: usize) -> FormsPass {
        walk_forms(self, data, from, budget)
    }

    /// The bits of `bits` at the set positions of `mask`, packed low in
    /// order: a parallel bit extract. Portable: one step per bit of
    /// `mask`.
    #[inline(always)]
    fn compress(self, bits: u64, mask: u64) -> u64 {
        let (mut packed, mut mask, mut i) = (0u64, mask, 0);
        while mask != 0 {
            packed |= ((bits >> mask.trailing_zeros()) & 1) << i;
            mask &= mask - 1;
            i += 1;
        }
        packed
    }
}

// --------------------------------------------------------------------------
// Portable SWAR kernel
// --------------------------------------------------------------------------

const LOW7: u64 = 0x7F7F_7F7F_7F7F_7F7F;

/// Lanes equal to `b`, marked in their high bit. Exact in every lane: the
/// low-seven-bit add cannot carry across lanes.
#[inline(always)]
fn eq_lanes(w: u64, b: u8) -> u64 {
    let x = w ^ ONES.wrapping_mul(u64::from(b));
    !(((x & LOW7) + LOW7) | x) & HIGHS
}

/// ASCII lanes strictly below `n` (`1 ≤ n ≤ 0x80`), marked in their high
/// bit; exact in every lane for the same reason as [`eq_lanes`].
#[inline(always)]
fn below_lanes(w: u64, n: u8) -> u64 {
    !((w & LOW7) + ONES.wrapping_mul(u64::from(0x80 - n))) & !w & HIGHS
}

/// Packs the eight lane marks of a word into one byte, lane `i` → bit `i`:
/// the multiply gathers bit `8i` of `m >> 7` into bit `56 + i` without
/// collisions or carries.
#[inline(always)]
fn pack_lanes(m: u64) -> u64 {
    ((m >> 7).wrapping_mul(0x0102_0408_1020_4080)) >> 56
}

/// The portable kernel: eight 8-byte words per block, each class built from
/// exact per-lane compares and packed into the block masks with a multiply.
#[derive(Clone, Copy)]
pub(super) struct Swar;

impl BlockClassifier for Swar {
    #[inline(always)]
    fn classify(self, data: &[u8], at: usize) -> BlockMasks {
        let block: &[u8; BLOCK] = data[at..at + BLOCK].try_into().expect("one block");
        let mut m = BlockMasks::default();
        for (k, chunk) in block.chunks_exact(8).enumerate() {
            let w = u64::from_le_bytes(chunk.try_into().expect("8-byte word"));
            let ws = eq_lanes(w, b' ') | (below_lanes(w, 0x0E) & !below_lanes(w, 0x09));
            let shift = 8 * k;
            m.lt |= pack_lanes(eq_lanes(w, b'<')) << shift;
            m.gt |= pack_lanes(eq_lanes(w, b'>')) << shift;
            m.ws |= pack_lanes(ws) << shift;
            m.slash |= pack_lanes(eq_lanes(w, b'/')) << shift;
            m.quote |= pack_lanes(eq_lanes(w, b'"') | eq_lanes(w, b'\'')) << shift;
            m.lead |= pack_lanes(eq_lanes(w, b'!') | eq_lanes(w, b'?')) << shift;
            m.other |= pack_lanes((w & HIGHS) | (below_lanes(w, 0x21) & !ws)) << shift;
        }
        m
    }
}

// --------------------------------------------------------------------------
// AVX2 kernel (x86_64, runtime-detected)
// --------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
pub(super) use x86::Avx2;

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{
        build_tape, walk_forms, BlockClassifier, BlockMasks, FormsPass, Pass, Tape, BLOCK,
    };
    use core::arch::x86_64::*;

    /// Proof-of-AVX2 token (see [`BlockClassifier`]): AVX2 for the block
    /// classes, plus the BMI1 and POPCNT every AVX2 core ships with, so
    /// `flatten`'s bit counts and lowest-bit steps are one instruction each.
    #[derive(Clone, Copy)]
    pub(in crate::scan) struct Avx2(());

    impl Avx2 {
        /// `Some` iff this CPU has AVX2, BMI1 and POPCNT (std caches the
        /// probes).
        #[inline]
        pub(in crate::scan) fn detect() -> Option<Self> {
            let present = is_x86_feature_detected!("avx2")
                && is_x86_feature_detected!("bmi1")
                && is_x86_feature_detected!("popcnt");
            present.then_some(Avx2(()))
        }
    }

    /// Proof-of-BMI2 token on top of [`Avx2`]: the structure pass's
    /// [`compress`](BlockClassifier::compress) is one `pext`. Only
    /// [`Avx2::forms_pass`] asks for it, so a CPU without BMI2 keeps the
    /// AVX2 kernel everywhere and packs forms with the provided bit loop.
    #[derive(Clone, Copy)]
    pub(in crate::scan) struct Pext(Avx2);

    impl Pext {
        /// `Some` iff this CPU also has BMI2 (std caches the probe).
        #[inline]
        pub(in crate::scan) fn detect(avx2: Avx2) -> Option<Self> {
            is_x86_feature_detected!("bmi2").then_some(Pext(avx2))
        }
    }

    impl BlockClassifier for Pext {
        #[inline(always)]
        fn classify(self, data: &[u8], at: usize) -> BlockMasks {
            self.0.classify(data, at)
        }

        #[inline(always)]
        fn compress(self, bits: u64, mask: u64) -> u64 {
            // SAFETY: `self` exists only when BMI2 was detected.
            unsafe { _pext_u64(bits, mask) }
        }
    }

    impl BlockClassifier for Avx2 {
        #[inline(always)]
        fn classify(self, data: &[u8], at: usize) -> BlockMasks {
            assert!(at + BLOCK <= data.len());
            // SAFETY: the bounds are asserted above, and `self` exists
            // only when AVX2 was detected on this CPU.
            unsafe { classify64(data, at) }
        }

        #[inline(always)]
        fn stage1<const DROP_TEXT: bool>(
            self,
            tape: &mut Tape,
            data: &[u8],
            from: usize,
            budget: usize,
        ) -> Pass {
            // SAFETY: `self` exists only when AVX2, BMI1 and POPCNT were
            // detected on this CPU.
            unsafe { stage1_avx2::<DROP_TEXT>(self, tape, data, from, budget) }
        }

        /// With BMI2 the pass packs forms by [`Pext`], else by the
        /// provided bit loop.
        #[inline(always)]
        fn forms_pass(self, data: &[u8], from: usize, budget: usize) -> FormsPass {
            match Pext::detect(self) {
                // SAFETY: `Pext` exists only when AVX2, BMI1, POPCNT and
                // BMI2 were detected on this CPU.
                Some(pext) => unsafe { forms_pass_pext(pext, data, from, budget) },
                // SAFETY: as for `stage1`.
                None => unsafe { forms_pass_avx2(self, data, from, budget) },
            }
        }
    }

    /// [`build_tape`] compiled with AVX2, BMI1 and POPCNT enabled, so the
    /// kernel inlines into the block loop instead of being called per
    /// block.
    ///
    /// # Safety
    /// The CPU must support AVX2, BMI1 and POPCNT.
    #[target_feature(enable = "avx2,bmi1,popcnt")]
    unsafe fn stage1_avx2<const DROP_TEXT: bool>(
        cls: Avx2,
        tape: &mut Tape,
        data: &[u8],
        from: usize,
        budget: usize,
    ) -> Pass {
        build_tape::<_, DROP_TEXT>(cls, tape, data, from, budget)
    }

    /// [`walk_forms`] compiled like [`stage1_avx2`].
    ///
    /// # Safety
    /// The CPU must support AVX2, BMI1 and POPCNT.
    #[target_feature(enable = "avx2,bmi1,popcnt")]
    pub(in crate::scan) unsafe fn forms_pass_avx2(
        cls: Avx2,
        data: &[u8],
        from: usize,
        budget: usize,
    ) -> FormsPass {
        walk_forms(cls, data, from, budget)
    }

    /// [`walk_forms`] compiled like [`stage1_avx2`], plus BMI2 for
    /// [`Pext`]'s `compress`.
    ///
    /// # Safety
    /// The CPU must support AVX2, BMI1, BMI2 and POPCNT.
    #[target_feature(enable = "avx2,bmi1,bmi2,popcnt")]
    pub(in crate::scan) unsafe fn forms_pass_pext(
        cls: Pext,
        data: &[u8],
        from: usize,
        budget: usize,
    ) -> FormsPass {
        walk_forms(cls, data, from, budget)
    }

    /// Two 32-byte lanes; each class is a byte compare (or the
    /// signed-compare union trick) plus a movemask.
    ///
    /// # Safety
    /// The CPU must support AVX2 and `at + BLOCK <= data.len()`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn classify64(data: &[u8], at: usize) -> BlockMasks {
        let mut m = BlockMasks::default();
        for half in 0..2usize {
            let v = _mm256_loadu_si256(data.as_ptr().add(at + 32 * half) as *const __m256i);
            // ws: `v == ' '` OR `v - 9 <= 4` (TAB..CR as an unsigned range
            // check via saturating subtract).
            let t = _mm256_sub_epi8(v, _mm256_set1_epi8(9));
            let ctl = _mm256_cmpeq_epi8(
                _mm256_subs_epu8(t, _mm256_set1_epi8(4)),
                _mm256_setzero_si256(),
            );
            let ws = _mm256_or_si256(_mm256_cmpeq_epi8(v, _mm256_set1_epi8(b' ' as i8)), ctl);
            // Signed `v < 0x21` marks (unsigned < 0x21) ∪ (>= 0x80) in one
            // compare; minus whitespace that is exactly `other`.
            let sub21 = _mm256_cmpgt_epi8(_mm256_set1_epi8(0x21), v);
            let other = _mm256_andnot_si256(ws, sub21);
            let quote = _mm256_or_si256(
                _mm256_cmpeq_epi8(v, _mm256_set1_epi8(b'"' as i8)),
                _mm256_cmpeq_epi8(v, _mm256_set1_epi8(b'\'' as i8)),
            );
            let lead = _mm256_or_si256(
                _mm256_cmpeq_epi8(v, _mm256_set1_epi8(b'!' as i8)),
                _mm256_cmpeq_epi8(v, _mm256_set1_epi8(b'?' as i8)),
            );
            let lt = _mm256_cmpeq_epi8(v, _mm256_set1_epi8(b'<' as i8));
            let gt = _mm256_cmpeq_epi8(v, _mm256_set1_epi8(b'>' as i8));
            let slash = _mm256_cmpeq_epi8(v, _mm256_set1_epi8(b'/' as i8));
            let shift = 32 * half;
            m.lt |= (_mm256_movemask_epi8(lt) as u32 as u64) << shift;
            m.gt |= (_mm256_movemask_epi8(gt) as u32 as u64) << shift;
            m.ws |= (_mm256_movemask_epi8(ws) as u32 as u64) << shift;
            m.slash |= (_mm256_movemask_epi8(slash) as u32 as u64) << shift;
            m.quote |= (_mm256_movemask_epi8(quote) as u32 as u64) << shift;
            m.lead |= (_mm256_movemask_epi8(lead) as u32 as u64) << shift;
            m.other |= (_mm256_movemask_epi8(other) as u32 as u64) << shift;
        }
        m
    }
}

// --------------------------------------------------------------------------
// NEON kernel (aarch64, baseline)
// --------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
pub(super) use arm::Neon;

#[cfg(target_arch = "aarch64")]
mod arm {
    use super::{BlockClassifier, BlockMasks, BLOCK};
    use core::arch::aarch64::*;

    /// Proof-of-NEON token — NEON (ASIMD) is part of the aarch64 baseline,
    /// so this is always constructible.
    #[derive(Clone, Copy)]
    pub(in crate::scan) struct Neon(());

    impl Neon {
        #[inline]
        pub(in crate::scan) fn new() -> Self {
            Neon(())
        }
    }

    impl BlockClassifier for Neon {
        #[inline(always)]
        fn classify(self, data: &[u8], at: usize) -> BlockMasks {
            assert!(at + BLOCK <= data.len());
            // SAFETY: bounds asserted above; NEON is baseline aarch64.
            unsafe { classify64(data, at) }
        }
    }

    /// Builds one 64-bit mask from four 16-lane compare results: AND each
    /// lane with its bit weight, then three pairwise adds fold 64
    /// single-bit bytes into 8 mask bytes (the simdjson-on-arm idiom — NEON
    /// has no movemask).
    ///
    /// # Safety
    /// NEON must be available, which it is on every aarch64 target.
    #[inline(always)]
    unsafe fn movemask4(m: [uint8x16_t; 4]) -> u64 {
        const BITS: [u8; 16] = [1, 2, 4, 8, 16, 32, 64, 128, 1, 2, 4, 8, 16, 32, 64, 128];
        let bit = vld1q_u8(BITS.as_ptr());
        let t0 = vpaddq_u8(vandq_u8(m[0], bit), vandq_u8(m[1], bit));
        let t1 = vpaddq_u8(vandq_u8(m[2], bit), vandq_u8(m[3], bit));
        let t2 = vpaddq_u8(t0, t1);
        vgetq_lane_u64::<0>(vreinterpretq_u64_u8(vpaddq_u8(t2, t2)))
    }

    /// Four 16-byte lanes per block; same classes as the AVX2 kernel, with
    /// the signed-compare union trick spelled `vcltq_s8`.
    ///
    /// # Safety
    /// `at + BLOCK <= data.len()`.
    #[inline(always)]
    unsafe fn classify64(data: &[u8], at: usize) -> BlockMasks {
        let mut lt = [vdupq_n_u8(0); 4];
        let mut gt = [vdupq_n_u8(0); 4];
        let mut ws = [vdupq_n_u8(0); 4];
        let mut slash = [vdupq_n_u8(0); 4];
        let mut quote = [vdupq_n_u8(0); 4];
        let mut lead = [vdupq_n_u8(0); 4];
        let mut other = [vdupq_n_u8(0); 4];
        for lane in 0..4usize {
            let v = vld1q_u8(data.as_ptr().add(at + 16 * lane));
            let sp = vceqq_u8(v, vdupq_n_u8(b' '));
            let ctl = vcleq_u8(vsubq_u8(v, vdupq_n_u8(9)), vdupq_n_u8(4));
            ws[lane] = vorrq_u8(sp, ctl);
            lt[lane] = vceqq_u8(v, vdupq_n_u8(b'<'));
            gt[lane] = vceqq_u8(v, vdupq_n_u8(b'>'));
            slash[lane] = vceqq_u8(v, vdupq_n_u8(b'/'));
            quote[lane] = vorrq_u8(
                vceqq_u8(v, vdupq_n_u8(b'"')),
                vceqq_u8(v, vdupq_n_u8(b'\'')),
            );
            lead[lane] = vorrq_u8(vceqq_u8(v, vdupq_n_u8(b'!')), vceqq_u8(v, vdupq_n_u8(b'?')));
            let sub21 = vcltq_s8(vreinterpretq_s8_u8(v), vdupq_n_s8(0x21));
            other[lane] = vbicq_u8(sub21, ws[lane]);
        }
        BlockMasks {
            lt: movemask4(lt),
            gt: movemask4(gt),
            ws: movemask4(ws),
            slash: movemask4(slash),
            quote: movemask4(quote),
            lead: movemask4(lead),
            other: movemask4(other),
        }
    }
}

// --------------------------------------------------------------------------
// The append sink of stage 2
// --------------------------------------------------------------------------

/// An append cursor over a `Vec`'s spare capacity: stage 2's spelling of
/// `Vec::push` with the length held in a register instead of written back
/// per event. Construction reserves room for `extra` pushes up front, so
/// the per-event step is a never-taken bounds check, one store and an
/// increment — no reallocation path, no length store. Dropping the sink
/// (normally, or on an error return)
/// publishes the final length, so events pushed before an error stay
/// visible, exactly like plain `push`.
pub(super) struct EventSink<'a, T: Copy> {
    vec: &'a mut Vec<T>,
    len: usize,
}

impl<'a, T: Copy> EventSink<'a, T> {
    /// Reserves room for `extra` pushes through this sink.
    pub(super) fn new(vec: &'a mut Vec<T>, extra: usize) -> Self {
        vec.reserve(extra);
        let len = vec.len();
        EventSink { vec, len }
    }

    /// Writes `t` at the cursor and advances past it only if `keep`: a
    /// dropped element costs one store, which the next push overwrites,
    /// and no branch.
    #[inline(always)]
    pub(super) fn push_if(&mut self, t: T, keep: bool) {
        assert!(self.len < self.vec.capacity(), "EventSink overflow");
        // SAFETY: the assert keeps the write below the capacity; `T: Copy`
        // means no drop obligations for `set_len` on Drop.
        unsafe {
            self.vec.as_mut_ptr().add(self.len).write(t);
        }
        self.len += usize::from(keep);
    }

    /// The vector's length with the pushes kept so far.
    pub(super) fn len(&self) -> usize {
        self.len
    }
}

impl<T: Copy> Drop for EventSink<'_, T> {
    fn drop(&mut self) {
        // SAFETY: every slot below `self.len` was initialized — the
        // original elements, then one write per `push`, each below the
        // reserved capacity.
        unsafe {
            self.vec.set_len(self.len);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit-at-a-time reference for every class.
    fn reference(block: &[u8]) -> BlockMasks {
        let mut m = BlockMasks::default();
        for (i, &b) in block.iter().enumerate() {
            let bit = 1u64 << i;
            let ws = super::super::is_ascii_ws(b);
            let set = |mask: &mut u64, on: bool| {
                if on {
                    *mask |= bit
                }
            };
            set(&mut m.lt, b == b'<');
            set(&mut m.gt, b == b'>');
            set(&mut m.ws, ws);
            set(&mut m.slash, b == b'/');
            set(&mut m.quote, b == b'"' || b == b'\'');
            set(&mut m.lead, b == b'!' || b == b'?');
            set(&mut m.other, b >= 0x80 || (b < 0x21 && !ws));
        }
        m
    }

    #[test]
    fn kernels_match_the_per_byte_reference_on_every_byte_value() {
        // Every byte value at every lane position, next to every other.
        let data: Vec<u8> = (0..=255u8).cycle().take(256 * 3 + BLOCK).collect();
        for at in 0..data.len() - BLOCK {
            let expected = reference(&data[at..at + BLOCK]);
            assert_eq!(Swar.classify(&data, at), expected, "swar at {at}");
            #[cfg(target_arch = "x86_64")]
            if let Some(k) = Avx2::detect() {
                assert_eq!(k.classify(&data, at), expected, "avx2 at {at}");
            }
            #[cfg(target_arch = "aarch64")]
            assert_eq!(Neon::new().classify(&data, at), expected, "neon at {at}");
        }
    }

    /// The AVX2 structure pass reads the same with and without `pext`: the
    /// differential suites only reach the kernel the host picks.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn pext_packs_forms_like_the_bit_loop() {
        let (Some(avx2), Some(pext)) = (Avx2::detect(), Avx2::detect().and_then(x86::Pext::detect))
        else {
            return;
        };
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..10_000 {
            let (bits, mask) = (next(), next() & next());
            assert_eq!(pext.compress(bits, mask), Swar.compress(bits, mask));
        }
        let tokens = ["<a>", "</a>", "<bb>", "</bb>", "w", "word ", " ", "\n"];
        let mut doc = Vec::new();
        while doc.len() < 8 * 1024 {
            doc.extend_from_slice(tokens[(next() % 8) as usize].as_bytes());
        }
        for from in [0, 1, 5, 64, 100] {
            for budget in [1, 7, 64, usize::MAX] {
                // SAFETY: the tokens prove AVX2, BMI1, POPCNT and BMI2.
                let (a, b) = unsafe {
                    (
                        x86::forms_pass_avx2(avx2, &doc, from, budget),
                        x86::forms_pass_pext(pext, &doc, from, budget),
                    )
                };
                let read = |p: &FormsPass| (p.forms, p.words, p.end, p.scalar_until);
                assert_eq!(read(&a), read(&b), "from {from}, budget {budget}");
            }
        }
    }

    #[test]
    fn sink_publishes_pushes_on_drop() {
        let mut v = vec![1u32];
        {
            let mut sink = EventSink::new(&mut v, 3);
            sink.push_if(2, true);
            sink.push_if(9, false);
            sink.push_if(3, true);
        }
        assert_eq!(v, [1, 2, 3]);
    }
}
