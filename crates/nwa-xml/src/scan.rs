//! Bulk structural scanning of raw XML-ish bytes — the one lexer behind
//! [`ByteTokenizer`](crate::sax::ByteTokenizer),
//! [`FrozenByteTokenizer`](crate::sax::FrozenByteTokenizer) and the batch
//! conveniences [`tokenize`](crate::sax::tokenize) /
//! [`parse_document`](crate::sax::parse_document).
//!
//! Every per-byte decision is moved to a per-*block* decision, the way
//! continuous-readout pipelines move validation from per-sample to
//! per-chunk. Bytes are pulled through a `ChunkWindow`, a reusable buffer
//! of [`SCAN_CHUNK`] bytes refilled from the reader and **UTF-8-validated a
//! chunk at a time** by one `std::str::from_utf8` call per refill (a
//! multi-byte sequence split across a refill seam is carried over and
//! re-validated when its tail arrives). Each window is then lexed in two
//! stages, the structural-index design of simdjson:
//!
//! 1. **Stage 1 — the structural tape.** A block kernel classifies each
//!    64-byte block into per-class bitmasks (`<`, `>`, whitespace, `/`,
//!    quotes, `!`/`?`, and everything the tape never takes: non-ASCII and
//!    control bytes). Bit arithmetic over those masks — a prefix-XOR of
//!    `<`/`>` tracks "inside a tag", carried across blocks — yields every
//!    token's `(start, end)` offsets, appended to an L1-sized tape of about
//!    4 KiB of input per pass. A block the masks cannot prove *simple*
//!    (only `<name>`, `</name>`, text words and ASCII whitespace) stops the
//!    pass.
//! 2. **Stage 2 — resolve and emit.** One loop walks the tape: the token's
//!    first two bytes give its kind without a branch, the name is packed
//!    into an exact cache key and resolved through `LexerCore`'s
//!    direct-mapped name cache (whose slots hold all three event forms),
//!    and the event is appended to the caller's slice.
//!
//! Whatever stage 1 rejects — attributes, quotes, self-closing tags,
//! directives, `<>`, `</>`, a stray `>`, control bytes, non-ASCII, the
//! short window tail — is lexed token by token by the scalar arm
//! (`step_token`, word-at-a-time SWAR sweeps), and tokens that cannot be
//! decided inside the window (a seam, a directive, EOF) by the growing
//! slow path. The char-at-a-time lexer that once shared `LexerCore` lives
//! on only as the differential oracle of `tests/sax_scan.rs`, which holds
//! this scanner token-for-token and error-for-error equal to it under
//! adversarial read granularities and block alignments.
//!
//! **Backends.** There is one window-fill loop; the three stage-1 kernels
//! differ only in classification. Portable SWAR words ([`ScanBackend::Swar`])
//! run everywhere; AVX2 ([`ScanBackend::Avx2`]) is compiled on every
//! `x86_64` build and chosen at runtime when the CPU has it; NEON
//! ([`ScanBackend::Neon`]) is the `aarch64` baseline. [`scan_backend`]
//! reports the choice and [`force_scan_backend`] pins one.
//!
//! Invalid or truncated UTF-8 found by the chunk validator is *deferred*:
//! the window simply ends at the last valid scalar, and the typed
//! [`SaxError`] surfaces exactly when lexing reaches that offset — the same
//! observable order as an incremental decoder, where a token in progress
//! when the bad byte arrives is discarded in favor of the error.

use crate::sax::{forms, LexerCore, ResolveName, SaxError, FORM_CALL, FORM_RETURN};
use kernel::{BlockClassifier, EventSink, BLOCK};
use nested_words::{NestedWordError, TaggedSymbol};
use std::io;

// The stage-1 kernels and the stage-2 sink: the crate's one module allowed
// `unsafe` (bounds asserted, ISA presence proven by construction).
#[allow(unsafe_code)]
mod kernel;

/// Default size, in bytes, of the bulk scanning window: the unit reads are
/// requested in, UTF-8 validation runs over, and structural runs are swept
/// from. Shared by [`ByteTokenizer`](crate::sax::ByteTokenizer) /
/// [`FrozenByteTokenizer`](crate::sax::FrozenByteTokenizer) (hence by
/// `queries::run_streaming_reader` and `nwa-service`'s `submit_bytes`,
/// which ride them). 64 KiB: comfortably past the point where per-chunk
/// costs (one `read` call, one validation sweep, one compaction memmove)
/// amortize to noise, while staying L2-resident on every current core.
pub const SCAN_CHUNK: usize = 64 * 1024;

/// What ended a chunk validation sweep.
enum Utf8Stop {
    /// The run ends on a scalar boundary.
    Clean,
    /// The run ends inside a multi-byte sequence whose bytes so far are
    /// consistent — a refill seam, not (yet) an error.
    Incomplete,
    /// The sequence starting at the reported prefix length is invalid.
    Invalid,
}

/// Validates one byte run with `std::str::from_utf8`, returning the length
/// of its longest prefix made of whole valid scalars and what stopped the
/// sweep there: [`Utf8Error::valid_up_to`](std::str::Utf8Error::valid_up_to)
/// is the prefix, and `error_len() == None` ("unexpected end of input") is
/// exactly a seam carry-over. std's acceptance set is the Unicode one —
/// overlong forms, surrogates and scalars past U+10FFFF are invalid.
fn utf8_prefix(bytes: &[u8]) -> (usize, Utf8Stop) {
    match std::str::from_utf8(bytes) {
        Ok(_) => (bytes.len(), Utf8Stop::Clean),
        Err(e) if e.error_len().is_none() => (e.valid_up_to(), Utf8Stop::Incomplete),
        Err(e) => (e.valid_up_to(), Utf8Stop::Invalid),
    }
}

/// Decodes the (already validated) scalar starting at `bytes[0]`, returning
/// it with its encoded length. Only reached for non-ASCII bytes on the
/// whitespace/terminator checks, so the common path never runs it.
fn decode_scalar(bytes: &[u8]) -> (char, usize) {
    let b0 = bytes[0];
    debug_assert!(b0 >= 0x80, "ASCII is handled inline by the scan loops");
    let len: usize = match b0 {
        0xC2..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    };
    let mut cp = u32::from(b0) & (0x7F >> len);
    for &b in &bytes[1..len] {
        cp = (cp << 6) | (u32::from(b) & 0x3F);
    }
    (
        char::from_u32(cp).expect("the window holds validated UTF-8"),
        len,
    )
}

/// Is this byte one of the six ASCII characters `char::is_whitespace`
/// accepts (TAB, LF, VT, FF, CR, space)? Non-ASCII whitespace (NBSP, the
/// Unicode space block, line/paragraph separators) is caught by decoding,
/// which only triggers on high bytes.
#[inline(always)]
fn is_ascii_ws(b: u8) -> bool {
    b == b' ' || (0x09..=0x0D).contains(&b)
}

// --------------------------------------------------------------------------
// SWAR word sweeps (the memchr idiom, multi-needle)
// --------------------------------------------------------------------------

const ONES: u64 = 0x0101_0101_0101_0101;
const HIGHS: u64 = 0x8080_8080_8080_8080;

/// Lanes equal to `b`, marked in their high bit (the memchr zero-detect
/// trick on `word ^ splat(b)`). Borrow propagation can set spurious marks,
/// but only in lanes *above* a truly matching lane — so the lowest set
/// mark, which is all the sweeps below consume, is always exact.
#[inline(always)]
fn match_byte(word: u64, b: u8) -> u64 {
    let x = word ^ ONES.wrapping_mul(u64::from(b));
    x.wrapping_sub(ONES) & !x & HIGHS
}

/// ASCII lanes strictly below `n` (`n ≤ 0x80`), marked in their high bit.
/// Same exactness caveat-and-guarantee as [`match_byte`]; lanes with the
/// high bit already set (non-ASCII) are never marked — callers OR in
/// `word & HIGHS` when those matter.
#[inline(always)]
fn match_lt(word: u64, n: u8) -> u64 {
    word.wrapping_sub(ONES.wrapping_mul(u64::from(n))) & !word & HIGHS
}

/// Byte index of the lowest marked lane.
#[inline(always)]
fn first_mark(mask: u64) -> usize {
    (mask.trailing_zeros() >> 3) as usize
}

#[inline(always)]
fn load_word(data: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(data[i..i + 8].try_into().expect("8-byte load"))
}

// --------------------------------------------------------------------------
// Stage-1 backend selection (runtime-detected)
// --------------------------------------------------------------------------

/// Which stage-1 kernel the scanner uses to classify window blocks. The
/// backends are observationally identical — they compute the same masks,
/// and `tests/sax_scan.rs` holds them token-for-token and error-for-error
/// equal — and differ only in throughput.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanBackend {
    /// Portable 8-byte SWAR words: the fallback on CPUs without a wide
    /// kernel, and the pinned baseline of the benches and tests.
    Swar,
    /// 64-byte AVX2 block classification (`x86_64`, runtime-detected).
    Avx2,
    /// 64-byte NEON block classification (`aarch64`, baseline ISA).
    Neon,
}

/// The backend the next window fill will use: the CPU is probed once (AVX2
/// on `x86_64` via `is_x86_feature_detected!`, NEON unconditionally on
/// `aarch64` where it is baseline) and the answer cached; anything else
/// gets [`ScanBackend::Swar`]. Benches and docs use this to report which
/// path actually ran.
pub fn scan_backend() -> ScanBackend {
    backend::current()
}

/// Forces the stage-1 backend process-wide — how the benches and the
/// differential tests run SWAR and the wide kernel side by side in one
/// process. Returns `false` (changing nothing) if this CPU does not support
/// the requested backend; [`auto_scan_backend`] returns to runtime
/// detection. Safe at any moment: a lexer mid-stream simply fills its next
/// window with the new backend.
pub fn force_scan_backend(backend: ScanBackend) -> bool {
    backend::force(backend)
}

/// Clears a [`force_scan_backend`] override, back to runtime detection.
pub fn auto_scan_backend() {
    backend::reset()
}

mod backend {
    use super::ScanBackend;
    use std::sync::atomic::{AtomicU8, Ordering};

    /// 0 = undecided (probe on first use), else the backend's code below.
    /// Detection is idempotent, so a startup race costs a duplicate probe,
    /// never a wrong answer; the value publishes no other data, hence
    /// `Relaxed`.
    static STATE: AtomicU8 = AtomicU8::new(0);

    fn code(b: ScanBackend) -> u8 {
        match b {
            ScanBackend::Swar => 1,
            ScanBackend::Avx2 => 2,
            ScanBackend::Neon => 3,
        }
    }

    fn available(b: ScanBackend) -> bool {
        match b {
            ScanBackend::Swar => true,
            #[cfg(target_arch = "x86_64")]
            ScanBackend::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "aarch64")]
            ScanBackend::Neon => true,
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }

    fn detect() -> ScanBackend {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            return ScanBackend::Avx2;
        }
        #[cfg(target_arch = "aarch64")]
        return ScanBackend::Neon;
        #[allow(unreachable_code)]
        ScanBackend::Swar
    }

    pub(super) fn current() -> ScanBackend {
        match STATE.load(Ordering::Relaxed) {
            1 => ScanBackend::Swar,
            2 => ScanBackend::Avx2,
            3 => ScanBackend::Neon,
            _ => {
                let b = detect();
                STATE.store(code(b), Ordering::Relaxed);
                b
            }
        }
    }

    pub(super) fn force(b: ScanBackend) -> bool {
        if !available(b) {
            return false;
        }
        STATE.store(code(b), Ordering::Relaxed);
        true
    }

    pub(super) fn reset() {
        STATE.store(0, Ordering::Relaxed);
    }
}

// --------------------------------------------------------------------------
// Stage 1: the structural tape
// --------------------------------------------------------------------------

/// Input bytes one stage-1 pass classifies at most: the tape a pass fills
/// (two `u16` offsets per token) and the window bytes stage 2 then rereads
/// both stay L1-resident.
const TAPE_BYTES: usize = 4096;

/// Offsets a tape side can hold: one per byte of the largest pass.
const TAPE_CAP: usize = TAPE_BYTES + BLOCK;

/// Stage 1's output: token `i` spans `from + starts[i] .. from + ends[i]`
/// of the window, where `from` is the pass start. Tags span `<` through
/// `>`; text tokens span the word.
#[derive(Debug)]
struct Tape {
    starts: Vec<u16>,
    ends: Vec<u16>,
}

impl Tape {
    fn new() -> Self {
        Tape {
            starts: vec![0; TAPE_CAP],
            ends: vec![0; TAPE_CAP],
        }
    }
}

/// What one stage-1 pass produced.
struct Pass {
    /// Complete tokens on the tape, capped at the pass budget.
    tokens: usize,
    /// The scalar arm must lex up to this window offset before stage 1 is
    /// retried: the end of the block that failed the simplicity check, the
    /// window end (`usize::MAX`) for the short tail, or 0 when the pass
    /// stopped on its own budget.
    scalar_until: usize,
}

/// Per-block state a pass carries into the next block: whether the
/// previous block ended inside a tag (as an all-ones mask), and the top
/// bit of its `<`, `</`, `>` and text masks, shifted down to bit 0.
#[derive(Default)]
struct Carry {
    inside: u64,
    lt: u64,
    close: u64,
    gt: u64,
    text: u64,
}

/// Bit `i` of the result is the XOR of bits `0..=i` of `x`: over the `<`/`>`
/// marks, "inside a tag" — set from a `<` up to (not including) its `>`.
#[inline(always)]
fn prefix_xor(mut x: u64) -> u64 {
    x ^= x << 1;
    x ^= x << 2;
    x ^= x << 4;
    x ^= x << 8;
    x ^= x << 16;
    x ^= x << 32;
    x
}

/// Appends the offset of every set bit of `bits` (plus `off`) to `out` at
/// `*n`, lowest first.
#[inline(always)]
fn flatten(mut bits: u64, off: usize, out: &mut [u16], n: &mut usize) {
    while bits != 0 {
        out[*n] = (off + bits.trailing_zeros() as usize) as u16;
        *n += 1;
        bits &= bits - 1;
    }
}

/// Stage 1: classifies `data` in 64-byte blocks from `from` — a token
/// boundary outside any tag — and records every token that completes in the
/// simple blocks on `tape`, stopping after about [`TAPE_BYTES`], once
/// `budget` tokens are complete, at the first block it cannot prove simple,
/// or where a block (plus stage 2's 16-byte name loads) would leave the
/// window.
///
/// A block is *simple* when every byte is ASCII and not a control byte, and
/// every tag in it is `<name>` or `</name>`: a `<` only outside a tag, a `>`
/// only inside one, no whitespace or quote inside a tag, no `/` inside a
/// tag except straight after `<`, and no `<!`, `<?`, `<>` or `</>`. On
/// such blocks the tokens are exactly those the scalar arm would lex: tags
/// run from `<` to `>`, text words are the maximal runs of bytes outside
/// tags that are neither `>` nor whitespace.
#[inline(always)]
fn build_tape<C: BlockClassifier>(
    cls: C,
    tape: &mut Tape,
    data: &[u8],
    from: usize,
    budget: usize,
) -> Pass {
    let last_block = data.len().checked_sub(BLOCK + 16);
    let (mut starts, mut ends) = (0usize, 0usize);
    let mut carry = Carry::default();
    let mut bb = from;
    let scalar_until = loop {
        if last_block.is_none_or(|last| bb > last) {
            break usize::MAX;
        }
        if bb - from >= TAPE_BYTES || ends >= budget {
            // A token longer than the whole pass leaves the tape empty:
            // the scalar arm takes it.
            break if ends == 0 { bb } else { 0 };
        }
        let m = cls.classify(data, bb);
        let inside = prefix_xor(m.lt | m.gt) ^ carry.inside;
        let after_lt = (m.lt << 1) | carry.lt;
        let close = m.slash & after_lt;
        let complex = m.other
            | (m.lt & !inside)
            | (m.gt & inside)
            | ((m.ws | m.quote) & inside)
            | (m.slash & inside & !after_lt)
            | (after_lt & (m.lead | m.gt))
            | (((close << 1) | carry.close) & m.gt);
        if complex != 0 {
            break bb + BLOCK;
        }
        let text = !(inside | m.gt | m.ws);
        let text_before = (text << 1) | carry.text;
        let off = bb - from;
        flatten(
            m.lt | (text & !text_before),
            off,
            &mut tape.starts,
            &mut starts,
        );
        flatten(
            (m.gt << 1) | carry.gt | (!text & text_before),
            off,
            &mut tape.ends,
            &mut ends,
        );
        carry = Carry {
            inside: 0u64.wrapping_sub(inside >> 63),
            lt: m.lt >> 63,
            close: close >> 63,
            gt: m.gt >> 63,
            text: text >> 63,
        };
        bb += BLOCK;
    };
    Pass {
        tokens: ends.min(budget),
        scalar_until,
    }
}

// --------------------------------------------------------------------------
// Stage 2: resolve and emit
// --------------------------------------------------------------------------

/// Stage 2: resolves and emits the first `tokens` tape entries of the pass
/// that started at `from`, returning the window offset just past the last
/// one. On a resolution failure the events before it stay in `out` and the
/// error comes back with the failing token's start.
///
/// The inner loop runs over cache hits; a miss (or a name longer than a
/// cache key) leaves it for one policy resolution, then the loop resumes.
fn emit_tape<N: ResolveName>(
    core: &mut LexerCore<N>,
    tape: &Tape,
    data: &[u8],
    from: usize,
    tokens: usize,
    out: &mut Vec<TaggedSymbol>,
) -> Result<usize, (SaxError, usize)> {
    let mut sink = EventSink::new(out, tokens);
    let mut i = 0;
    while i < tokens {
        while i < tokens {
            let (s, form, len) = tape_token(tape, data, from, i);
            if len > 16 {
                break;
            }
            let (w0, w1) = pack_short(data, s + form, len);
            let Some(t) = core.cached_form(w0, w1, len as u32, form) else {
                break;
            };
            sink.push(t);
            i += 1;
        }
        if i == tokens {
            break;
        }
        let (s, form, len) = tape_token(tape, data, from, i);
        match core.resolve_bytes(&data[s + form..s + form + len]) {
            Ok(sym) => sink.push(forms(sym)[form]),
            Err(err) => return Err((err, s)),
        }
        i += 1;
    }
    Ok(from + usize::from(tape.ends[tokens - 1]))
}

/// Tape token `i` of the pass that started at `from`, as its window start,
/// its event form and its name length. The form is read off the token's
/// first two bytes without a branch — a tag adds one for `<` and one more
/// for `</` — and doubles as the name's offset in the token: `FORM_INTERNAL`
/// 0 for a text word, `FORM_CALL` 1 for `<name>`, `FORM_RETURN` 2 for
/// `</name>`.
#[inline(always)]
fn tape_token(tape: &Tape, data: &[u8], from: usize, i: usize) -> (usize, usize, usize) {
    const _: () = assert!(FORM_CALL == 1 && FORM_RETURN == 2);
    let s = from + usize::from(tape.starts[i]);
    let e = from + usize::from(tape.ends[i]);
    let [b0, b1]: [u8; 2] = data[s..s + 2].try_into().expect("two bytes");
    let tag = usize::from(b0 == b'<');
    let form = tag + (tag & usize::from(b1 == b'/'));
    (s, form, e - tag - s - form)
}

/// Packs a 1..=16-byte name starting at `from` into its exact cache key —
/// the same `(w0, w1)` value `LexerCore`'s byte-loop packer produces, built
/// from two raw word loads and a mask instead. Callers guarantee
/// `from + 16 <= data.len()` (stage 1 stops 16 bytes short of the window
/// end for this), so the overread-free loads stay in bounds.
#[inline(always)]
fn pack_short(data: &[u8], from: usize, len: usize) -> (u64, u64) {
    debug_assert!((1..=16).contains(&len) && from + 16 <= data.len());
    let w0 = load_word(data, from);
    if len <= 8 {
        // `!0 >> (64 - 8·len)` keeps the low `len` lanes; len = 8 is the
        // identity shift, so no branch for it.
        return (w0 & (!0u64 >> (64 - 8 * len)), 0);
    }
    let w1 = load_word(data, from + 8);
    (w0, w1 & (!0u64 >> (128 - 8 * len)))
}

// --------------------------------------------------------------------------
// The scalar arm's word sweeps
// --------------------------------------------------------------------------

/// Index of the `>` closing the tag whose name (or attribute list) starts
/// at `start` (just past `<`, or past `</`), honoring quoted attribute
/// values; `None` if the window ends first. The `bool` is the *simple tag*
/// verdict: `true` means every byte in `start..gt` is plain ASCII name
/// material — no whitespace or control byte, no `"` `'` `/`, no non-ASCII —
/// so that slice **is** the tag's name, verbatim: no trim, no token split,
/// no self-closing mark. Callers hand non-simple tags to the full
/// classifier; simple ones (the overwhelmingly common `<name>` / `</name>`)
/// go straight to name resolution.
#[inline(always)]
fn find_tag_close(data: &[u8], start: usize) -> Option<(usize, bool)> {
    let n = data.len();
    let mut j = start;
    loop {
        if j + 8 <= n {
            let w = load_word(data, j);
            let m = match_byte(w, b'>')
                | match_lt(w, 0x21)
                | match_byte(w, b'"')
                | match_byte(w, b'\'')
                | match_byte(w, b'/')
                | (w & HIGHS);
            if m == 0 {
                j += 8;
                continue;
            }
            let k = j + first_mark(m);
            if data[k] == b'>' {
                return Some((k, true));
            }
            return find_tag_close_general(data, k).map(|gt| (gt, false));
        }
        while j < n {
            let b = data[j];
            if b == b'>' {
                return Some((j, true));
            }
            if !(0x21..0x80).contains(&b) || matches!(b, b'"' | b'\'' | b'/') {
                return find_tag_close_general(data, j).map(|gt| (gt, false));
            }
            j += 1;
        }
        return None;
    }
}

/// The general arm of [`find_tag_close`]: quote-aware sweep for the closing
/// `>` from `start`, which the caller guarantees is outside any quoted
/// attribute value. Sweeps 8 bytes per step for the structural set
/// `>` `"` `'`, and for the matching close quote inside attribute values.
fn find_tag_close_general(data: &[u8], start: usize) -> Option<usize> {
    let n = data.len();
    let mut j = start;
    loop {
        // First of `>`, `"`, `'` at or after j.
        let hit = loop {
            if j + 8 <= n {
                let w = load_word(data, j);
                let m = match_byte(w, b'>') | match_byte(w, b'"') | match_byte(w, b'\'');
                if m == 0 {
                    j += 8;
                    continue;
                }
                break j + first_mark(m);
            }
            while j < n && !matches!(data[j], b'>' | b'"' | b'\'') {
                j += 1;
            }
            if j == n {
                return None;
            }
            break j;
        };
        let quote = data[hit];
        if quote == b'>' {
            return Some(hit);
        }
        // Quoted attribute value: skip to the matching quote.
        j = hit + 1;
        loop {
            if j + 8 <= n {
                let w = load_word(data, j);
                let m = match_byte(w, quote);
                if m == 0 {
                    j += 8;
                    continue;
                }
                j += first_mark(m);
                break;
            }
            while j < n && data[j] != quote {
                j += 1;
            }
            if j == n {
                return None;
            }
            break;
        }
        j += 1;
    }
}

/// Exclusive end of the text token starting at `start`: the index of the
/// first byte that terminates it (`<` or whitespace, ASCII or Unicode);
/// `None` if the token may continue past the window. Sweeps 8 bytes per
/// step; candidate lanes are `<`, anything below 0x21 (a superset of ASCII
/// whitespace that also catches control characters, re-judged precisely)
/// and any non-ASCII byte (decoded to ask `char::is_whitespace`).
#[inline(always)]
fn find_text_end(data: &[u8], start: usize) -> Option<usize> {
    let n = data.len();
    let mut j = start;
    loop {
        let k = loop {
            if j + 8 <= n {
                let w = load_word(data, j);
                let m = match_lt(w, 0x21) | match_byte(w, b'<') | (w & HIGHS);
                if m == 0 {
                    j += 8;
                    continue;
                }
                break j + first_mark(m);
            }
            while j < n {
                let b = data[j];
                if !(0x21..0x80).contains(&b) || b == b'<' {
                    break;
                }
                j += 1;
            }
            if j == n {
                return None;
            }
            break j;
        };
        let b = data[k];
        if b < 0x80 {
            if b == b'<' || is_ascii_ws(b) {
                return Some(k);
            }
            // A control character: part of the token.
            j = k + 1;
        } else {
            let (c, len) = decode_scalar(&data[k..]);
            if c.is_whitespace() {
                return Some(k);
            }
            j = k + len;
        }
    }
}

/// A reusable window of reader bytes, validated chunk-at-a-time.
///
/// Layout: `buf[start..end]` is unread *validated* data, `buf[end..raw_end]`
/// is a carried multi-byte tail split by the last refill seam (re-validated
/// once its continuation arrives), and `offset_base` is the absolute stream
/// offset of `buf[0]`. A validation failure is *deferred* into `pending`:
/// the window behaves as if the stream ended at the last valid scalar, and
/// the typed error is handed out when the lexer actually reaches it.
#[derive(Debug)]
struct ChunkWindow<R> {
    reader: R,
    buf: Vec<u8>,
    start: usize,
    end: usize,
    raw_end: usize,
    offset_base: usize,
    eof: bool,
    pending: Option<SaxError>,
}

impl<R: io::Read> ChunkWindow<R> {
    fn new(reader: R) -> Self {
        ChunkWindow {
            reader,
            buf: vec![0; SCAN_CHUNK],
            start: 0,
            end: 0,
            raw_end: 0,
            offset_base: 0,
            eof: false,
            pending: None,
        }
    }

    /// The unread validated bytes.
    #[inline(always)]
    fn data(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    /// Absolute stream offset of `data()[0]`.
    #[inline(always)]
    fn abs_offset(&self) -> usize {
        self.offset_base + self.start
    }

    /// Marks `n` leading bytes of `data()` as consumed.
    #[inline(always)]
    fn consume(&mut self, n: usize) {
        debug_assert!(self.start + n <= self.end);
        self.start += n;
    }

    /// Extends the validated window past its current end: compacts the
    /// consumed prefix, pulls one `read`, validates the new bytes (plus any
    /// carried seam tail) and loops until at least one new whole scalar is
    /// available. `Ok(false)` is clean EOF; a deferred UTF-8 error whose
    /// offset the caller has scanned up to, or an I/O failure, is `Err`.
    ///
    /// Because compaction moves only the *unconsumed* suffix to the front,
    /// positions relative to `data()` survive the refill — a token spanning
    /// any number of seams stays addressable as one contiguous slice, at
    /// the cost of growing the buffer only when a single token outgrows it
    /// (memory proportional to the longest token).
    fn grow(&mut self) -> Result<bool, SaxError> {
        loop {
            if let Some(e) = self.pending.take() {
                return Err(e);
            }
            if self.eof {
                return Ok(false);
            }
            if self.start > 0 {
                self.buf.copy_within(self.start..self.raw_end, 0);
                self.offset_base += self.start;
                self.end -= self.start;
                self.raw_end -= self.start;
                self.start = 0;
            }
            if self.raw_end == self.buf.len() {
                self.buf.resize(self.buf.len() * 2, 0);
            }
            match self.reader.read(&mut self.buf[self.raw_end..]) {
                Ok(0) => {
                    self.eof = true;
                    if self.raw_end > self.end {
                        // The stream ends inside a multi-byte sequence.
                        self.pending = Some(SaxError::TruncatedUtf8 {
                            offset: self.offset_base + self.end,
                        });
                    }
                }
                Ok(n) => {
                    self.raw_end += n;
                    let (valid, stop) = utf8_prefix(&self.buf[self.end..self.raw_end]);
                    let grew = valid > 0;
                    self.end += valid;
                    if matches!(stop, Utf8Stop::Invalid) {
                        self.pending = Some(SaxError::InvalidUtf8 {
                            offset: self.offset_base + self.end,
                        });
                        // Nothing past the error is ever examined: the
                        // lexer fuses once the error surfaces.
                        self.eof = true;
                    }
                    if grew {
                        return Ok(true);
                    }
                    // No whole scalar completed (a tiny read inside a
                    // multi-byte sequence, or an error right at the seam):
                    // loop to read again or surface the deferral.
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(SaxError::Io(e)),
            }
        }
    }
}
/// The bulk lexer: run-sweeping methods over a [`ChunkWindow`], feeding
/// run classifications through the `LexerCore` event builder. This is the
/// engine inside [`ByteTokenizer`](crate::sax::ByteTokenizer) and
/// [`FrozenByteTokenizer`](crate::sax::FrozenByteTokenizer).
#[derive(Debug)]
pub(crate) struct BulkLexer<R: io::Read, N: ResolveName> {
    window: ChunkWindow<R>,
    core: LexerCore<N>,
    /// Stage 1's output, reused across passes.
    tape: Tape,
    /// Events lexed ahead by [`Self::fill`] for the per-event [`Iterator`]
    /// view, drained from `ready_pos`.
    ready: Vec<TaggedSymbol>,
    ready_pos: usize,
    /// An error met while lexing ahead: surfaced after `ready` drains, i.e.
    /// in exactly the position the per-event path would have yielded it.
    pending_err: Option<SaxError>,
}

/// How many events the per-event [`Iterator`] view lexes ahead per
/// [`BulkLexer::fill`] call: large enough to amortize the refill, small
/// enough (4 bytes per event) to stay cache-resident.
const ITER_BATCH: usize = 1024;

/// What one [`step_token`] call did with the window.
enum StepOutcome {
    /// One event (plus possibly a queued self-closing twin) was emitted;
    /// the cursor is now at the contained position.
    Emitted(usize),
    /// The next token cannot be decided inside the window (it may span the
    /// seam, or is a stateful directive): consume up to the contained
    /// position and hand over to the growing slow path.
    Window(usize),
    /// Name resolution failed at the token starting at the contained
    /// position (consume up to there, then surface the error).
    Fail(SaxError, usize),
}

/// One scalar token step of the window fill: skip inter-token whitespace
/// from `pos` (ASCII inline, non-ASCII decoded), then classify and emit the
/// next token if it completes inside `data`, charging `budget` per event.
///
/// This is the scalar arm of the window fill: it lexes every token stage 1
/// could not prove simple, with the word-at-a-time sweeps of
/// [`find_tag_close`] / [`find_text_end`] and the byte-level classifier
/// ([`LexerCore::tag_event_bytes`](crate::sax::LexerCore)).
#[inline(always)]
fn step_token<N: ResolveName>(
    core: &mut LexerCore<N>,
    data: &[u8],
    base: usize,
    mut pos: usize,
    out: &mut Vec<TaggedSymbol>,
    budget: &mut usize,
) -> StepOutcome {
    let n = data.len();
    // Inter-token whitespace — usually none or one byte.
    while pos < n {
        let b = data[pos];
        if b < 0x80 {
            if !is_ascii_ws(b) {
                break;
            }
            pos += 1;
        } else {
            let (c, len) = decode_scalar(&data[pos..]);
            if !c.is_whitespace() {
                break;
            }
            pos += len;
        }
    }
    if pos == n {
        return StepOutcome::Window(n);
    }
    if data[pos] == b'<' {
        if pos + 1 == n {
            return StepOutcome::Window(pos);
        }
        let lead = data[pos + 1];
        if lead == b'!' || lead == b'?' {
            // Directives are rare and stateful: slow path.
            return StepOutcome::Window(pos);
        }
        // `</name>` and `<name>` with nothing but name material between
        // the brackets skip the classifier entirely: the sweep's simple
        // verdict certifies the slice is the name.
        let body_at = if lead == b'/' { pos + 2 } else { pos + 1 };
        let Some((gt, simple)) = find_tag_close(data, body_at) else {
            return StepOutcome::Window(pos);
        };
        if simple && gt > body_at {
            match core.resolve_bytes(&data[body_at..gt]) {
                Ok(sym) => out.push(if lead == b'/' {
                    TaggedSymbol::Return(sym)
                } else {
                    TaggedSymbol::Call(sym)
                }),
                Err(e) => return StepOutcome::Fail(e, pos),
            }
            *budget -= 1;
        } else {
            let body = if lead == b'/' { pos + 1 } else { body_at };
            match core.tag_event_bytes(&data[body..gt], base + pos) {
                Ok(event) => out.push(event),
                Err(e) => return StepOutcome::Fail(e, pos),
            }
            *budget -= 1;
            // A self-closing tag queued its return; emit it in place.
            if let Some(t) = core.queued.pop_front() {
                out.push(t);
                *budget = budget.saturating_sub(1);
            }
        }
        StepOutcome::Emitted(gt + 1)
    } else {
        let Some(end) = find_text_end(data, pos) else {
            // The token may continue past the window: slow path.
            return StepOutcome::Window(pos);
        };
        match core.resolve_bytes(&data[pos..end]) {
            Ok(sym) => out.push(TaggedSymbol::Internal(sym)),
            Err(e) => return StepOutcome::Fail(e, pos),
        }
        *budget -= 1;
        StepOutcome::Emitted(end)
    }
}

impl<R: io::Read, N: ResolveName> BulkLexer<R, N> {
    pub(crate) fn new(reader: R, names: N) -> Self {
        BulkLexer {
            window: ChunkWindow::new(reader),
            core: LexerCore::new(names),
            tape: Tape::new(),
            ready: Vec::new(),
            ready_pos: 0,
            pending_err: None,
        }
    }

    /// Ensures at least `pos + 1` unread validated bytes are windowed;
    /// `false` means the stream ends first.
    fn ensure(&mut self, pos: usize) -> Result<bool, SaxError> {
        while self.window.data().len() <= pos {
            if !self.window.grow()? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    fn peek_byte(&mut self) -> Result<Option<u8>, SaxError> {
        if self.ensure(0)? {
            Ok(Some(self.window.data()[0]))
        } else {
            Ok(None)
        }
    }

    /// Lexes events in bulk into `out` until roughly `max` are buffered or
    /// the stream ends — the slice-producing entry behind
    /// `queries::run_streaming_reader` and the per-event iterators.
    ///
    /// The hot loop sweeps the *current* window with a local cursor: no
    /// per-event `Result` plumbing, no window bookkeeping, no method
    /// dispatch — one `consume` per window, not per token. Anything that
    /// cannot be finished inside the window (a token cut by the chunk seam,
    /// a directive, EOF, a deferred UTF-8 error) falls back to the general
    /// per-event path ([`Self::next_event`]), which grows the window and
    /// agrees with the fast loop token-for-token by sharing `LexerCore`.
    ///
    /// Events already pushed to `out` stay there when an error is returned
    /// — callers either discard them (the error is the outcome) or, like
    /// the draining iterator, hand them out before surfacing the error,
    /// which is exactly the per-event emission order.
    ///
    /// The lexer is fused at the first error: every later call appends
    /// nothing and returns `Ok`, so a caller looping on `fill` can never
    /// read on past a corrupt byte as if the document continued.
    pub(crate) fn fill(&mut self, out: &mut Vec<TaggedSymbol>, max: usize) -> Result<(), SaxError> {
        let filled = self.fill_events(out, max);
        if filled.is_err() {
            self.core.failed = true;
        }
        filled
    }

    /// The body of [`Self::fill`], free to exit on any error with `?`.
    fn fill_events(&mut self, out: &mut Vec<TaggedSymbol>, max: usize) -> Result<(), SaxError> {
        // Events the iterator view lexed ahead (and a deferred error) come
        // first, so interleaving `next()` and `fill` stays in order.
        while self.ready_pos < self.ready.len() {
            out.push(self.ready[self.ready_pos]);
            self.ready_pos += 1;
            if out.len() >= max {
                return Ok(());
            }
        }
        if let Some(e) = self.pending_err.take() {
            return Err(e);
        }
        if self.core.failed {
            return Ok(());
        }
        loop {
            while let Some(t) = self.core.queued.pop_front() {
                out.push(t);
                if out.len() >= max {
                    return Ok(());
                }
            }
            if out.len() >= max {
                return Ok(());
            }
            if self.fill_window(out, max)? {
                return Ok(());
            }
            // The window could not decide the next token: grow-and-lex it
            // on the general path, then resume sweeping.
            match self.next_event()? {
                Some(t) => out.push(t),
                None => return Ok(()),
            }
        }
    }

    /// The register-resident sweep of [`Self::fill`] over the bytes already
    /// windowed, on the [`scan_backend`]-selected stage-1 kernel: emits
    /// every event that completes inside the window, consumes exactly the
    /// bytes of the events emitted, and returns `Ok(true)` when `out`
    /// reached `max` (`Ok(false)` hands the seam to the caller's slow
    /// path).
    fn fill_window(&mut self, out: &mut Vec<TaggedSymbol>, max: usize) -> Result<bool, SaxError> {
        match scan_backend() {
            #[cfg(target_arch = "x86_64")]
            ScanBackend::Avx2 => {
                if let Some(kernel) = kernel::Avx2::detect() {
                    return self.fill_window_with(kernel, out, max);
                }
            }
            #[cfg(target_arch = "aarch64")]
            ScanBackend::Neon => return self.fill_window_with(kernel::Neon::new(), out, max),
            _ => {}
        }
        self.fill_window_with(kernel::Swar, out, max)
    }

    /// The one window-fill loop: stage-1 passes build the tape and stage 2
    /// emits it, while the scalar arm ([`step_token`]) lexes what a pass
    /// could not prove simple — one token per step, up to the end of the
    /// rejected block — and the short window tail.
    fn fill_window_with<C: BlockClassifier>(
        &mut self,
        cls: C,
        out: &mut Vec<TaggedSymbol>,
        max: usize,
    ) -> Result<bool, SaxError> {
        let base = self.window.abs_offset();
        let data: &[u8] = &self.window.buf[self.window.start..self.window.end];
        let mut pos = 0usize;
        // Counted down instead of re-reading `out.len()` every event.
        let mut budget = max.saturating_sub(out.len());
        let mut scalar_until = 0usize;
        let full = loop {
            if budget == 0 {
                break true;
            }
            if pos >= scalar_until {
                let pass = cls.stage1(&mut self.tape, data, pos, budget);
                scalar_until = pass.scalar_until;
                if pass.tokens > 0 {
                    match emit_tape(&mut self.core, &self.tape, data, pos, pass.tokens, out) {
                        Ok(next) => pos = next,
                        Err((e, at)) => {
                            self.window.consume(at);
                            return Err(e);
                        }
                    }
                    budget -= pass.tokens;
                    continue;
                }
            }
            match step_token(&mut self.core, data, base, pos, out, &mut budget) {
                StepOutcome::Emitted(next) => pos = next,
                StepOutcome::Window(consumed) => {
                    pos = consumed;
                    break false;
                }
                StepOutcome::Fail(e, at) => {
                    self.window.consume(at);
                    return Err(e);
                }
            }
        };
        self.window.consume(pos);
        Ok(full)
    }

    fn next_event(&mut self) -> Result<Option<TaggedSymbol>, SaxError> {
        loop {
            // Drained inside the loop: a CDATA section queues text tokens
            // that must come out before the next run is scanned.
            if let Some(t) = self.core.queued.pop_front() {
                return Ok(Some(t));
            }
            if !self.skip_whitespace()? {
                return Ok(None);
            }
            if self.window.data()[0] == b'<' {
                if let Some(t) = self.lex_tag()? {
                    return Ok(Some(t));
                }
                // directive skipped
            } else {
                return self.lex_text().map(Some);
            }
        }
    }

    /// Scans past inter-token whitespace; `false` means clean EOF.
    fn skip_whitespace(&mut self) -> Result<bool, SaxError> {
        loop {
            let data = self.window.data();
            let n = data.len();
            let mut i = 0;
            let mut stop = false;
            while i < n {
                let b = data[i];
                if b < 0x80 {
                    if is_ascii_ws(b) {
                        i += 1;
                        continue;
                    }
                    stop = true;
                    break;
                }
                let (c, len) = decode_scalar(&data[i..]);
                if c.is_whitespace() {
                    i += len;
                    continue;
                }
                stop = true;
                break;
            }
            self.window.consume(i);
            if stop {
                return Ok(true);
            }
            if !self.window.grow()? {
                return Ok(false);
            }
        }
    }

    /// Lexes one whitespace-delimited text token, with the window cursor on
    /// its first byte: one sweep to the next `<` or whitespace, then a
    /// single name resolution over the whole slice.
    fn lex_text(&mut self) -> Result<TaggedSymbol, SaxError> {
        let mut pos = 0usize;
        loop {
            let data = self.window.data();
            let n = data.len();
            let mut stop = false;
            while pos < n {
                let b = data[pos];
                if b < 0x80 {
                    if b == b'<' || is_ascii_ws(b) {
                        stop = true;
                        break;
                    }
                    pos += 1;
                    continue;
                }
                let (c, len) = decode_scalar(&data[pos..]);
                if c.is_whitespace() {
                    stop = true;
                    break;
                }
                pos += len;
            }
            if stop {
                break;
            }
            if !self.window.grow()? {
                break; // EOF ends the token
            }
        }
        let token = std::str::from_utf8(&self.window.data()[..pos])
            .expect("the window holds validated UTF-8");
        let sym = self.core.resolve(token)?;
        self.window.consume(pos);
        Ok(TaggedSymbol::Internal(sym))
    }

    /// Lexes one `<…>` construct, with the window cursor on `<`. Returns
    /// `None` for skipped directives. The closing `>` is found by a
    /// quote-aware byte sweep (a `>` inside a quoted attribute value does
    /// not terminate the tag); the body between the brackets is then handed
    /// whole to the shared tag classifier.
    fn lex_tag(&mut self) -> Result<Option<TaggedSymbol>, SaxError> {
        let tag_start = self.window.abs_offset();
        if self.ensure(1)? {
            let b = self.window.data()[1];
            if b == b'!' || b == b'?' {
                // <!DOCTYPE …>, <!-- … -->, <?xml … ?>: no SAX event.
                self.window.consume(2); // the '<' and the lead byte
                self.lex_directive(tag_start, b)?;
                return Ok(None);
            }
        }
        let mut pos = 1usize;
        let mut quote = 0u8;
        'scan: loop {
            let data = self.window.data();
            let n = data.len();
            while pos < n {
                let b = data[pos];
                pos += 1;
                if quote != 0 {
                    if b == quote {
                        quote = 0;
                    }
                } else if b == b'>' {
                    break 'scan;
                } else if b == b'"' || b == b'\'' {
                    quote = b;
                }
            }
            if !self.window.grow()? {
                return Err(SaxError::Syntax(NestedWordError::Parse {
                    offset: tag_start,
                    message: "unterminated tag".into(),
                }));
            }
        }
        let body = std::str::from_utf8(&self.window.data()[1..pos - 1])
            .expect("the window holds validated UTF-8");
        let event = self.core.tag_event(body, tag_start)?;
        self.window.consume(pos);
        Ok(Some(event))
    }

    /// Skips or lexes one directive, with the window cursor just past the
    /// consumed `<!` or `<?` (`lead` is the second byte). The quirky
    /// corners are deliberate (and pinned by the differential oracle): `<!-` with no second dash falls
    /// through to the bracket scan, and a partial `CDATA[` marker leaves
    /// the consumed `[` as one open bracket level.
    fn lex_directive(&mut self, tag_start: usize, lead: u8) -> Result<(), SaxError> {
        if lead == b'!' && self.peek_byte()? == Some(b'-') {
            self.window.consume(1);
            if self.peek_byte()? == Some(b'-') {
                self.window.consume(1);
                return self.scan_comment(tag_start);
            }
            // "<!-…" without a second dash: fall through to the '>' scan
        }
        if lead == b'?' {
            return self.scan_pi(tag_start);
        }
        let mut depth = 0usize;
        if lead == b'!' && self.peek_byte()? == Some(b'[') {
            self.window.consume(1);
            // `<![`: a CDATA section if the marker `CDATA[` follows.
            const MARKER: &[u8; 6] = b"CDATA[";
            let mut matched = 0usize;
            while matched < MARKER.len() && self.peek_byte()? == Some(MARKER[matched]) {
                self.window.consume(1);
                matched += 1;
            }
            if matched == MARKER.len() {
                return self.lex_cdata(tag_start);
            }
            // Not CDATA (e.g. a DTD conditional section): the consumed `[`
            // opened one bracket level; fall through to the scan.
            depth = 1;
        }
        self.scan_doctype(tag_start, depth)
    }

    fn unterminated_directive(tag_start: usize) -> SaxError {
        SaxError::Syntax(NestedWordError::Parse {
            offset: tag_start,
            message: "unterminated directive".into(),
        })
    }

    /// Sweeps a comment body to its `-->` terminator, consuming as it goes
    /// — only a trailing-dash count crosses chunk seams, so a comment of
    /// any length never grows the window.
    fn scan_comment(&mut self, tag_start: usize) -> Result<(), SaxError> {
        let mut dashes = 0usize;
        loop {
            let data = self.window.data();
            let n = data.len();
            let mut i = 0;
            while i < n {
                let b = data[i];
                i += 1;
                match b {
                    b'-' => dashes += 1,
                    b'>' if dashes >= 2 => {
                        self.window.consume(i);
                        return Ok(());
                    }
                    _ => dashes = 0,
                }
            }
            self.window.consume(i);
            if !self.window.grow()? {
                return Err(Self::unterminated_directive(tag_start));
            }
        }
    }

    /// Sweeps a processing instruction to its `?>` terminator; only the
    /// previous-byte-was-`?` flag crosses seams.
    fn scan_pi(&mut self, tag_start: usize) -> Result<(), SaxError> {
        let mut prev_question = false;
        loop {
            let data = self.window.data();
            let n = data.len();
            let mut i = 0;
            while i < n {
                let b = data[i];
                i += 1;
                if b == b'>' && prev_question {
                    self.window.consume(i);
                    return Ok(());
                }
                prev_question = b == b'?';
            }
            self.window.consume(i);
            if !self.window.grow()? {
                return Err(Self::unterminated_directive(tag_start));
            }
        }
    }

    /// Sweeps a declaration to the first `>` outside a `[ … ]` internal
    /// subset (DOCTYPEs with entity declarations inside); only the bracket
    /// depth crosses seams.
    fn scan_doctype(&mut self, tag_start: usize, mut depth: usize) -> Result<(), SaxError> {
        loop {
            let data = self.window.data();
            let n = data.len();
            let mut i = 0;
            while i < n {
                let b = data[i];
                i += 1;
                match b {
                    b'[' => depth += 1,
                    b']' => depth = depth.saturating_sub(1),
                    b'>' if depth == 0 => {
                        self.window.consume(i);
                        return Ok(());
                    }
                    _ => {}
                }
            }
            self.window.consume(i);
            if !self.window.grow()? {
                return Err(Self::unterminated_directive(tag_start));
            }
        }
    }

    /// Lexes a CDATA section, with the cursor just past `<![CDATA[`: one
    /// sweep to the `]]>` terminator, then the whole content slice goes to
    /// the shared token splitter. Unlike the other directives the content
    /// is needed whole — its text tokens are all resolved before any is
    /// queued, so a resolution failure surfaces with nothing half-emitted —
    /// so the sweep grows the window instead of consuming.
    fn lex_cdata(&mut self, tag_start: usize) -> Result<(), SaxError> {
        let mut pos = 0usize;
        let end = 'scan: loop {
            let data = self.window.data();
            let n = data.len();
            while pos < n {
                if data[pos] == b'>' && pos >= 2 && data[pos - 1] == b']' && data[pos - 2] == b']' {
                    break 'scan pos - 2;
                }
                pos += 1;
            }
            if !self.window.grow()? {
                return Err(SaxError::Syntax(NestedWordError::Parse {
                    offset: tag_start,
                    message: "unterminated CDATA section".into(),
                }));
            }
        };
        let content = std::str::from_utf8(&self.window.data()[..end])
            .expect("the window holds validated UTF-8");
        self.core.cdata_tokens(content)?;
        self.window.consume(end + 3);
        Ok(())
    }
}

impl<R: io::Read, N: ResolveName> Iterator for BulkLexer<R, N> {
    type Item = Result<TaggedSymbol, SaxError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.ready_pos < self.ready.len() {
                let t = self.ready[self.ready_pos];
                self.ready_pos += 1;
                return Some(Ok(t));
            }
            if let Some(e) = self.pending_err.take() {
                return Some(Err(e));
            }
            if self.core.failed {
                return None;
            }
            // Lex the next batch ahead; events met before an error drain
            // first, preserving the per-event emission order.
            self.ready.clear();
            self.ready_pos = 0;
            let mut batch = std::mem::take(&mut self.ready);
            let outcome = self.fill(&mut batch, ITER_BATCH);
            self.ready = batch;
            match outcome {
                Ok(()) if self.ready.is_empty() => return None,
                Ok(()) => {}
                Err(e) => self.pending_err = Some(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validator_matches_std_on_valid_prefixes() {
        let text = "A£ह𐍈\u{10FFFF}\u{D7FF}\u{E000}ß\u{7F}\u{80} plain ascii run!";
        let bytes = text.as_bytes();
        // Every prefix of valid UTF-8 validates to its longest whole-scalar
        // prefix, never flagging an error.
        for cut in 0..=bytes.len() {
            let (valid, stop) = utf8_prefix(&bytes[..cut]);
            assert!(std::str::from_utf8(&bytes[..valid]).is_ok(), "cut {cut}");
            match stop {
                Utf8Stop::Invalid => panic!("valid prefix flagged invalid at cut {cut}"),
                Utf8Stop::Clean => assert_eq!(valid, cut),
                Utf8Stop::Incomplete => assert!(valid < cut),
            }
        }
    }

    #[test]
    fn validator_flags_invalid_sequences_after_a_valid_prefix() {
        let cases: &[&[u8]] = &[
            b"\x80",             // bare continuation byte
            b"\xFF",             // invalid leading byte
            b"\xC3\x28",         // bad continuation
            b"\xC0\xAF",         // overlong '/'
            b"\xE0\x80\xAF",     // overlong 3-byte
            b"\xED\xA0\x80",     // surrogate half
            b"\xF4\x90\x80\x80", // scalar above U+10FFFF
        ];
        for &bad in cases {
            let mut input = b"ok ".to_vec();
            input.extend_from_slice(bad);
            let (valid, stop) = utf8_prefix(&input);
            assert_eq!(valid, 3, "input {input:?}");
            assert!(matches!(stop, Utf8Stop::Invalid), "input {input:?}");
        }
    }

    #[test]
    fn validator_accepts_multibyte_scalars_between_ascii_runs() {
        // ASCII runs of either parity around a multi-byte char.
        let text = "0123456789abcdef€0123456789abcdef";
        let (valid, stop) = utf8_prefix(text.as_bytes());
        assert_eq!(valid, text.len());
        assert!(matches!(stop, Utf8Stop::Clean));
    }

    #[test]
    fn pack_short_builds_the_cache_key_of_the_byte_packer() {
        let data: Vec<u8> = (1..=40u8).collect();
        for from in 0..8 {
            for len in 1..=16 {
                assert_eq!(
                    pack_short(&data, from, len),
                    crate::sax::pack_name(&data[from..from + len]),
                    "from {from} len {len}"
                );
            }
        }
    }

    /// Runs stage 1 over `data` pass after pass with `cls`, as the fill
    /// loop does on a fully simple window, returning the token spans and
    /// whether any block was rejected.
    fn tape_spans<C: BlockClassifier>(cls: C, data: &[u8]) -> (Vec<(usize, usize)>, bool) {
        let mut tape = Tape::new();
        let (mut spans, mut pos) = (Vec::new(), 0usize);
        loop {
            let pass = cls.stage1(&mut tape, data, pos, usize::MAX);
            for i in 0..pass.tokens {
                spans.push((
                    pos + usize::from(tape.starts[i]),
                    pos + usize::from(tape.ends[i]),
                ));
            }
            if pass.tokens > 0 {
                pos = spans.last().expect("a token").1;
            }
            match pass.scalar_until {
                0 => {}
                usize::MAX => return (spans, false),
                _ => return (spans, true),
            }
        }
    }

    /// Every backend this CPU has, SWAR first.
    fn each_backend(mut check: impl FnMut(&str, &dyn Fn(&[u8]) -> (Vec<(usize, usize)>, bool))) {
        check("swar", &|d| tape_spans(kernel::Swar, d));
        #[cfg(target_arch = "x86_64")]
        if let Some(k) = kernel::Avx2::detect() {
            check("avx2", &move |d| tape_spans(k, d));
        }
        #[cfg(target_arch = "aarch64")]
        check("neon", &|d| tape_spans(kernel::Neon::new(), d));
    }

    #[test]
    fn tape_covers_a_simple_document_in_full() {
        let doc = "<t1>w1 w22</t1>  <t3>\tw3\n</t3><t4>w4<t5>w5</t5></t4>".repeat(40);
        // The bytes a spec-level split finds: tags whole, words between.
        let mut expected = Vec::new();
        let bytes = doc.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            let start = i;
            if bytes[i] == b'<' {
                i = doc[i..].find('>').expect("closed") + i + 1;
            } else if is_ascii_ws(bytes[i]) {
                i += 1;
                continue;
            } else {
                while i < bytes.len() && bytes[i] != b'<' && !is_ascii_ws(bytes[i]) {
                    i += 1;
                }
            }
            expected.push((start, i));
        }
        // Stage 1 stops a block plus 16 bytes short of the window end.
        let covered = |spans: &[(usize, usize)]| {
            expected
                .iter()
                .take_while(|&&(_, e)| e + BLOCK + 16 <= bytes.len())
                .count()
                <= spans.len()
        };
        each_backend(|name, spans_of| {
            let (spans, rejected) = spans_of(bytes);
            assert!(!rejected, "{name}: a simple block was rejected");
            assert!(covered(&spans), "{name}: the tape stopped early");
            assert_eq!(spans, expected[..spans.len()], "{name}");
        });
    }

    #[test]
    fn tape_rejects_each_complex_construct_in_its_block() {
        let constructs: &[&[u8]] = &[
            b"<>",
            b"</>",
            b"<a/>",
            b"<a b=\"1\">",
            b"<a\tb>",
            b"w>x",
            b"w\x01x",
            b"<!--c-->",
            b"<?p?>",
            b"<a<b>",
            b"<//a>",
            "<é>".as_bytes(),
            "w\u{a0}x".as_bytes(),
        ];
        for construct in constructs {
            for offset in [0usize, 63, 64] {
                let mut doc = vec![b' '; offset];
                doc.extend_from_slice(construct);
                doc.extend_from_slice("<t1>w1</t1>".repeat(40).as_bytes());
                each_backend(|name, spans_of| {
                    let (spans, rejected) = spans_of(&doc);
                    assert!(rejected, "{name}: {construct:?} at {offset} not rejected");
                    // Only whitespace precedes the construct, and the pass
                    // ends at its block: no token may reach the tape.
                    assert!(spans.is_empty(), "{name}: {construct:?} at {offset}");
                });
            }
        }
    }
}
