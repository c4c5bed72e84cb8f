//! The scanner's stage-1 block classifiers and its append sink: one of the
//! two modules in the crate allowed `unsafe` (the other is `lend`). Every
//! kernel turns one 64-byte block into the same [`BlockMasks`]; the
//! portable [`Swar`] kernel is plain word arithmetic, while [`Avx2`] and
//! [`Avx512`] (`x86_64`, runtime-detected) and [`Neon`] (`aarch64`,
//! baseline) are vector intrinsics whose ISA presence is proven by
//! construction of their zero-sized token types.

use super::{
    build_tape, run_layer, walk_forms, FormsPass, Pass, StructureLayer, Tape, HIGHS, ONES,
};

/// Bytes classified per [`BlockClassifier::classify`] call.
pub(super) const BLOCK: usize = 64;

/// Asks the CPU to start loading the cache line that holds `p` into every
/// cache level, and returns at once. A hint: any address will do, inside
/// the data or not, null included, and nothing is read architecturally.
/// One `prefetcht0` on `x86_64`; a no-op elsewhere.
#[inline(always)]
pub(super) fn prefetch(p: *const u8) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch never faults and never reads memory as far as
    // the program can tell, whatever `p` points at; SSE is baseline on
    // `x86_64`.
    unsafe {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(p.cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// One bit per block byte, bit 0 = lowest address. Every class is an exact
/// per-byte predicate, so the kernels agree bit for bit.
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
    /// Classifies one block.
    fn classify(self, block: &[u8; BLOCK]) -> BlockMasks;

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

    /// One layer of the structure pass alone ([`run_layer`]) with this
    /// kernel's ISA enabled for the whole run.
    #[inline(always)]
    fn layer(self, data: &[u8], layer: StructureLayer) -> u64 {
        run_layer(self, data, layer)
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

    /// Bit `i` of the result is the XOR of bits `0..=i` of `x`: over the
    /// `<`/`>` marks, "inside a tag" — set from a `<` up to (not
    /// including) its `>`. Portable: six shift-XOR steps.
    #[inline(always)]
    fn prefix_xor(self, mut x: u64) -> u64 {
        x ^= x << 1;
        x ^= x << 2;
        x ^= x << 4;
        x ^= x << 8;
        x ^= x << 16;
        x ^= x << 32;
        x
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
    fn classify(self, block: &[u8; BLOCK]) -> BlockMasks {
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
// AVX2 and AVX-512BW kernels (x86_64, runtime-detected)
// --------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
pub(super) use x86::{Avx2, Avx512};

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{
        build_tape, run_layer, walk_forms, BlockClassifier, BlockMasks, FormsPass, Pass,
        StructureLayer, Tape, BLOCK,
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

    /// Proof-of-BMI2-and-PCLMULQDQ token on top of [`Avx2`]:
    /// [`compress`](BlockClassifier::compress) is one `pext` and
    /// [`prefix_xor`](BlockClassifier::prefix_xor) one carry-less multiply.
    /// [`Avx2`]'s passes run on it where the CPU has both, so a CPU
    /// without them keeps the AVX2 kernel with the portable bit loop and
    /// shift ladder.
    #[derive(Clone, Copy)]
    pub(in crate::scan) struct Avx2Clmul(Avx2);

    impl Avx2Clmul {
        /// `Some` iff this CPU also has BMI2 and PCLMULQDQ (std caches the
        /// probes).
        #[inline]
        pub(in crate::scan) fn detect(avx2: Avx2) -> Option<Self> {
            let present = is_x86_feature_detected!("bmi2") && is_x86_feature_detected!("pclmulqdq");
            present.then_some(Avx2Clmul(avx2))
        }
    }

    /// Proof-of-AVX-512BW token: one 64-byte compare per class straight
    /// into a 64-bit mask register, plus the BMI1, BMI2, POPCNT and
    /// PCLMULQDQ every AVX-512BW core ships with, so `compress` is `pext`
    /// and `prefix_xor` a carry-less multiply.
    #[derive(Clone, Copy)]
    pub(in crate::scan) struct Avx512(());

    impl Avx512 {
        /// `Some` iff this CPU has AVX-512F, AVX-512BW, BMI1, BMI2, POPCNT
        /// and PCLMULQDQ (std caches the probes).
        #[inline]
        pub(in crate::scan) fn detect() -> Option<Self> {
            let present = is_x86_feature_detected!("avx512f")
                && is_x86_feature_detected!("avx512bw")
                && is_x86_feature_detected!("bmi1")
                && is_x86_feature_detected!("bmi2")
                && is_x86_feature_detected!("popcnt")
                && is_x86_feature_detected!("pclmulqdq");
            present.then_some(Avx512(()))
        }
    }

    impl BlockClassifier for Avx2 {
        #[inline(always)]
        fn classify(self, block: &[u8; BLOCK]) -> BlockMasks {
            // SAFETY: `self` exists only when AVX2 was detected on this
            // CPU.
            unsafe { classify_avx2(block) }
        }

        /// With BMI2 and PCLMULQDQ the pass runs on [`Avx2Clmul`].
        #[inline(always)]
        fn stage1<const DROP_TEXT: bool>(
            self,
            tape: &mut Tape,
            data: &[u8],
            from: usize,
            budget: usize,
        ) -> Pass {
            match Avx2Clmul::detect(self) {
                // SAFETY: `Avx2Clmul` exists only when AVX2, BMI1, BMI2,
                // POPCNT and PCLMULQDQ were detected on this CPU.
                Some(k) => unsafe { stage1_avx2_clmul::<DROP_TEXT>(k, tape, data, from, budget) },
                // SAFETY: `self` exists only when AVX2, BMI1 and POPCNT
                // were detected on this CPU.
                None => unsafe { stage1_avx2::<DROP_TEXT>(self, tape, data, from, budget) },
            }
        }

        /// With BMI2 and PCLMULQDQ the pass runs on [`Avx2Clmul`].
        #[inline(always)]
        fn forms_pass(self, data: &[u8], from: usize, budget: usize) -> FormsPass {
            match Avx2Clmul::detect(self) {
                // SAFETY: as for `stage1`.
                Some(k) => unsafe { forms_avx2_clmul(k, data, from, budget) },
                // SAFETY: as for `stage1`.
                None => unsafe { forms_avx2(self, data, from, budget) },
            }
        }

        /// With BMI2 and PCLMULQDQ the run is on [`Avx2Clmul`].
        #[inline(always)]
        fn layer(self, data: &[u8], layer: StructureLayer) -> u64 {
            match Avx2Clmul::detect(self) {
                // SAFETY: as for `stage1`.
                Some(k) => unsafe { layer_avx2_clmul(k, data, layer) },
                // SAFETY: as for `stage1`.
                None => unsafe { layer_avx2(self, data, layer) },
            }
        }
    }

    impl BlockClassifier for Avx2Clmul {
        #[inline(always)]
        fn classify(self, block: &[u8; BLOCK]) -> BlockMasks {
            self.0.classify(block)
        }

        #[inline(always)]
        fn compress(self, bits: u64, mask: u64) -> u64 {
            // SAFETY: `self` exists only when BMI2 was detected.
            unsafe { _pext_u64(bits, mask) }
        }

        #[inline(always)]
        fn prefix_xor(self, x: u64) -> u64 {
            // SAFETY: `self` exists only when PCLMULQDQ was detected.
            unsafe { clmul_prefix_xor(x) }
        }
    }

    impl BlockClassifier for Avx512 {
        #[inline(always)]
        fn classify(self, block: &[u8; BLOCK]) -> BlockMasks {
            // SAFETY: `self` exists only when AVX-512F and AVX-512BW were
            // detected on this CPU.
            unsafe { classify_avx512(block) }
        }

        #[inline(always)]
        fn stage1<const DROP_TEXT: bool>(
            self,
            tape: &mut Tape,
            data: &[u8],
            from: usize,
            budget: usize,
        ) -> Pass {
            // SAFETY: `self` exists only when every feature of the pass
            // was detected on this CPU.
            unsafe { stage1_avx512::<DROP_TEXT>(self, tape, data, from, budget) }
        }

        #[inline(always)]
        fn forms_pass(self, data: &[u8], from: usize, budget: usize) -> FormsPass {
            // SAFETY: as for `stage1`.
            unsafe { forms_avx512(self, data, from, budget) }
        }

        #[inline(always)]
        fn layer(self, data: &[u8], layer: StructureLayer) -> u64 {
            // SAFETY: as for `stage1`.
            unsafe { layer_avx512(self, data, layer) }
        }

        #[inline(always)]
        fn compress(self, bits: u64, mask: u64) -> u64 {
            // SAFETY: `self` exists only when BMI2 was detected.
            unsafe { _pext_u64(bits, mask) }
        }

        #[inline(always)]
        fn prefix_xor(self, x: u64) -> u64 {
            // SAFETY: `self` exists only when PCLMULQDQ was detected.
            unsafe { clmul_prefix_xor(x) }
        }
    }

    /// Defines a kernel token's passes, [`build_tape`] as `$stage1`,
    /// [`walk_forms`] as `$forms` and [`run_layer`] as `$layer`, compiled
    /// with `$features` enabled, so the kernel inlines into the block loops
    /// instead of being called per block.
    macro_rules! passes {
        ($token:ty, $features:literal, $stage1:ident, $forms:ident, $layer:ident) => {
            /// [`build_tape`] on the kernel, its ISA enabled.
            ///
            /// # Safety
            /// The CPU must support every feature the function enables.
            #[target_feature(enable = $features)]
            pub(in crate::scan) unsafe fn $stage1<const DROP_TEXT: bool>(
                cls: $token,
                tape: &mut Tape,
                data: &[u8],
                from: usize,
                budget: usize,
            ) -> Pass {
                build_tape::<_, DROP_TEXT>(cls, tape, data, from, budget)
            }

            /// [`walk_forms`] on the kernel, its ISA enabled.
            ///
            /// # Safety
            /// The CPU must support every feature the function enables.
            #[target_feature(enable = $features)]
            pub(in crate::scan) unsafe fn $forms(
                cls: $token,
                data: &[u8],
                from: usize,
                budget: usize,
            ) -> FormsPass {
                walk_forms(cls, data, from, budget)
            }

            /// [`run_layer`] on the kernel, its ISA enabled.
            ///
            /// # Safety
            /// The CPU must support every feature the function enables.
            #[target_feature(enable = $features)]
            unsafe fn $layer(cls: $token, data: &[u8], layer: StructureLayer) -> u64 {
                run_layer(cls, data, layer)
            }
        };
    }

    passes!(
        Avx2,
        "avx2,bmi1,popcnt",
        stage1_avx2,
        forms_avx2,
        layer_avx2
    );
    passes!(
        Avx2Clmul,
        "avx2,bmi1,bmi2,popcnt,pclmulqdq",
        stage1_avx2_clmul,
        forms_avx2_clmul,
        layer_avx2_clmul
    );
    passes!(
        Avx512,
        "avx512f,avx512bw,bmi1,bmi2,popcnt,pclmulqdq",
        stage1_avx512,
        forms_avx512,
        layer_avx512
    );

    /// The prefix XOR as one carry-less multiply by all ones, simdjson's
    /// quote-mask step (Langdale & Lemire, VLDB J. 2019): bit `i` of the
    /// product's low half XORs bits `0..=i` of `x`.
    ///
    /// # Safety
    /// The CPU must support PCLMULQDQ.
    #[target_feature(enable = "pclmulqdq")]
    #[inline]
    unsafe fn clmul_prefix_xor(x: u64) -> u64 {
        let product = _mm_clmulepi64_si128(_mm_cvtsi64_si128(x as i64), _mm_set1_epi8(-1), 0);
        _mm_cvtsi128_si64(product) as u64
    }

    /// Two 32-byte lanes; each class is a byte compare (or the
    /// signed-compare union trick) plus a movemask.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn classify_avx2(block: &[u8; BLOCK]) -> BlockMasks {
        let mut m = BlockMasks::default();
        for half in 0..2usize {
            let v = _mm256_loadu_si256(block.as_ptr().add(32 * half) as *const __m256i);
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
        // An empty `asm!` that hides where the masks came from: without
        // it LLVM carried the structure pass's word marks as byte vectors
        // across the fold and rebuilt them byte by byte each block, which
        // made the AVX2 pass with PCLMULQDQ 2.2× slower on the E15c
        // document. It emits no instruction and touches no memory.
        core::arch::asm!(
            "/* {0} {1} {2} {3} {4} {5} {6} */",
            inout(reg) m.lt,
            inout(reg) m.gt,
            inout(reg) m.ws,
            inout(reg) m.slash,
            inout(reg) m.quote,
            inout(reg) m.lead,
            inout(reg) m.other,
            options(pure, nomem, nostack, preserves_flags)
        );
        m
    }

    /// One 64-byte lane: each class is one compare (two for the two-byte
    /// classes) straight into a 64-bit mask, with the signed-compare union
    /// trick for `other` and an unsigned range compare for TAB..CR.
    ///
    /// # Safety
    /// The CPU must support AVX-512F and AVX-512BW.
    #[target_feature(enable = "avx512f,avx512bw")]
    #[inline]
    unsafe fn classify_avx512(block: &[u8; BLOCK]) -> BlockMasks {
        let v = _mm512_loadu_si512(block.as_ptr() as *const __m512i);
        let eq = |b: u8| _mm512_cmpeq_epi8_mask(v, _mm512_set1_epi8(b as i8));
        let ctl =
            _mm512_cmple_epu8_mask(_mm512_sub_epi8(v, _mm512_set1_epi8(9)), _mm512_set1_epi8(4));
        let ws = eq(b' ') | ctl;
        BlockMasks {
            lt: eq(b'<'),
            gt: eq(b'>'),
            ws,
            slash: eq(b'/'),
            quote: eq(b'"') | eq(b'\''),
            lead: eq(b'!') | eq(b'?'),
            other: _mm512_cmplt_epi8_mask(v, _mm512_set1_epi8(0x21)) & !ws,
        }
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
        fn classify(self, block: &[u8; BLOCK]) -> BlockMasks {
            // SAFETY: NEON is baseline aarch64.
            unsafe { classify64(block) }
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
    /// NEON must be available, which it is on every aarch64 target.
    #[inline(always)]
    unsafe fn classify64(block: &[u8; BLOCK]) -> BlockMasks {
        let mut lt = [vdupq_n_u8(0); 4];
        let mut gt = [vdupq_n_u8(0); 4];
        let mut ws = [vdupq_n_u8(0); 4];
        let mut slash = [vdupq_n_u8(0); 4];
        let mut quote = [vdupq_n_u8(0); 4];
        let mut lead = [vdupq_n_u8(0); 4];
        let mut other = [vdupq_n_u8(0); 4];
        for lane in 0..4usize {
            let v = vld1q_u8(block.as_ptr().add(16 * lane));
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
            let block: &[u8; BLOCK] = data[at..at + BLOCK].try_into().expect("one block");
            let expected = reference(block);
            assert_eq!(Swar.classify(block), expected, "swar at {at}");
            #[cfg(target_arch = "x86_64")]
            if let Some(k) = Avx2::detect() {
                assert_eq!(k.classify(block), expected, "avx2 at {at}");
            }
            #[cfg(target_arch = "x86_64")]
            if let Some(k) = Avx512::detect() {
                assert_eq!(k.classify(block), expected, "avx512 at {at}");
            }
            #[cfg(target_arch = "aarch64")]
            assert_eq!(Neon::new().classify(block), expected, "neon at {at}");
        }
    }

    /// A xorshift stream for the differential tests below.
    fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// The bit steps a wide kernel may replace: its `compress` and
    /// `prefix_xor` equal the portable ones on random words.
    #[test]
    fn bit_steps_match_the_portable_ones() {
        let mut next = xorshift(0x9E37_79B9_7F4A_7C15);
        let mut words: Vec<u64> = vec![0, 1, u64::MAX, 1 << 63, 0x8000_0000_0000_0001];
        words.extend((0..10_000).map(|_| next()));
        for w in words.windows(2) {
            let (bits, mask) = (w[0], w[0] & w[1]);
            let (packed, inside) = (Swar.compress(bits, mask), Swar.prefix_xor(bits));
            assert_eq!(packed.count_ones(), (bits & mask).count_ones(), "{bits:#x}");
            assert_eq!((inside >> 63) as u32, bits.count_ones() % 2, "{bits:#x}");
            #[cfg(target_arch = "x86_64")]
            if let Some(k) = Avx2::detect().and_then(x86::Avx2Clmul::detect) {
                assert_eq!(k.compress(bits, mask), packed);
                assert_eq!(k.prefix_xor(bits), inside);
            }
            #[cfg(target_arch = "x86_64")]
            if let Some(k) = Avx512::detect() {
                assert_eq!(k.compress(bits, mask), packed);
                assert_eq!(k.prefix_xor(bits), inside);
            }
        }
    }

    /// Every structure pass this CPU can run, by name: each kernel token's
    /// own, with the AVX2 pass both with and without BMI2 and PCLMULQDQ.
    #[allow(clippy::type_complexity)]
    fn forms_passes() -> Vec<(&'static str, Box<dyn Fn(&[u8], usize, usize) -> FormsPass>)> {
        let mut passes: Vec<(&'static str, Box<dyn Fn(&[u8], usize, usize) -> FormsPass>)> =
            Vec::new();
        #[cfg(target_arch = "x86_64")]
        if let Some(k) = Avx2::detect() {
            // SAFETY: the token proves AVX2, BMI1 and POPCNT.
            passes.push((
                "avx2",
                Box::new(move |d, f, b| unsafe { x86::forms_avx2(k, d, f, b) }),
            ));
            if let Some(k) = x86::Avx2Clmul::detect(k) {
                // SAFETY: the token proves every feature of the pass.
                let pass = move |d: &[u8], f, b| unsafe { x86::forms_avx2_clmul(k, d, f, b) };
                passes.push(("avx2+clmul", Box::new(pass)));
            }
        }
        #[cfg(target_arch = "x86_64")]
        if let Some(k) = Avx512::detect() {
            passes.push(("avx512", Box::new(move |d, f, b| k.forms_pass(d, f, b))));
        }
        #[cfg(target_arch = "aarch64")]
        passes.push(("neon", Box::new(|d, f, b| Neon::new().forms_pass(d, f, b))));
        passes
    }

    /// Every structure pass reads what the SWAR pass reads — forms, words,
    /// end and scalar arm — at every budget from 1 to 64 and unbounded,
    /// with the document at every offset of a block, from each of its
    /// first tokens. One token in 400 is one no simple block holds, so
    /// passes also stop at rejected blocks.
    #[test]
    fn every_forms_pass_reads_like_swar() {
        let passes = forms_passes();
        if passes.is_empty() {
            return;
        }
        let mut next = xorshift(0x2545_F491_4F6C_DD1D);
        let simple = [
            "<a>", "</a>", "<bb>", "</bb>", "w", "word ", " ", "\n", "x\t",
        ];
        let complex = ["<a k='v'>", "<c/>", "<!-- c -->", "é ", "<?p?>"];
        let (mut doc, mut starts) = (Vec::new(), Vec::new());
        while doc.len() < 16 * 1024 {
            starts.push(doc.len());
            let token = match next() % 400 {
                0 => complex[(next() % 5) as usize],
                _ => simple[(next() % 9) as usize],
            };
            doc.extend_from_slice(token.as_bytes());
        }
        let read = |p: &FormsPass| (p.forms, p.words, p.end, p.scalar_until);
        let budgets: Vec<usize> = (1..=64).chain([usize::MAX]).collect();
        let (mut full, mut rejected) = (0, 0);
        for shift in 0..BLOCK {
            let mut shifted = vec![b' '; shift];
            shifted.extend_from_slice(&doc);
            for &from in [0].iter().chain(&starts[..3]) {
                let from = if from == 0 { 0 } else { from + shift };
                for &budget in &budgets {
                    let expected = read(&Swar.forms_pass(&shifted, from, budget));
                    full += usize::from(expected.0.events >= budget);
                    rejected += usize::from(expected.3 != 0 && expected.3 != usize::MAX);
                    for (name, pass) in &passes {
                        let got = read(&pass(&shifted, from, budget));
                        assert_eq!(
                            got, expected,
                            "{name}: shift {shift}, from {from}, budget {budget}"
                        );
                    }
                }
            }
        }
        assert!(
            full > 1000 && rejected > 100,
            "{full} full, {rejected} rejected"
        );
    }

    /// The lookahead of the last blocks points past the data: a pass over
    /// bytes that end exactly where their allocation ends reads what the
    /// SWAR pass reads, with the end at every offset of a block, from the
    /// start and from each token start of the last 256 bytes.
    #[test]
    fn forms_passes_read_like_swar_to_the_end_of_the_allocation() {
        let passes = forms_passes();
        let mut next = xorshift(0xD1B5_4A32_D192_ED03);
        let simple = ["<a>", "</a>", "<bb>", "</bb>", "w", "word ", " ", "\n"];
        let (mut full, mut starts) = (Vec::new(), Vec::new());
        while full.len() < 4096 + BLOCK {
            starts.push(full.len());
            full.extend_from_slice(simple[(next() % 8) as usize].as_bytes());
        }
        let read = |p: &FormsPass| (p.forms, p.words, p.end, p.scalar_until);
        for cut in 0..BLOCK {
            let len = full.len() - cut;
            let data: Box<[u8]> = full[..len].into();
            let froms = starts
                .iter()
                .filter(|&&s| s == 0 || (len > s && len - s <= 256));
            for &from in froms {
                for budget in [1, 7, usize::MAX] {
                    let expected = read(&Swar.forms_pass(&data, from, budget));
                    for (name, pass) in &passes {
                        let got = read(&pass(&data, from, budget));
                        assert_eq!(
                            got, expected,
                            "{name}: cut {cut}, from {from}, budget {budget}"
                        );
                    }
                }
            }
        }
    }

    /// A prefetch is a hint, whatever the address.
    #[test]
    fn prefetch_never_faults() {
        let bytes = [0u8; 16];
        prefetch(std::ptr::null());
        prefetch(bytes.as_ptr_range().end);
        prefetch(bytes.as_ptr().wrapping_add(1 << 40));
        prefetch(std::ptr::without_provenance(usize::MAX - BLOCK));
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
