//! Bulk structural scanning of raw XML-ish bytes: [`BulkLexer`], the one
//! lexer behind [`ByteTokenizer`](crate::sax::ByteTokenizer),
//! [`FrozenByteTokenizer`](crate::sax::FrozenByteTokenizer) and the batch
//! conveniences [`tokenize`](crate::sax::tokenize) /
//! [`parse_document`](crate::sax::parse_document).
//!
//! Every per-byte decision is moved to a per-*block* decision, the way
//! continuous-readout pipelines move validation from per-sample to
//! per-chunk. The source is an [`io::BufRead`], and each buffer its
//! `fill_buf` lends is **lexed where it lies**: an in-memory `&[u8]` is one
//! buffer and is never copied. Only a token cut by the end of a buffer is
//! carried into an owned window, and the source is then read into that
//! window until lexing there ends on a token boundary (see
//! [`SCAN_CHUNK`]). **UTF-8 is
//! validated only where stage 1 cannot prove ASCII**: a block stage 1
//! accepts as simple holds no byte at or above 0x80, so it is valid UTF-8
//! with no further check, in every mode. Every other byte — in a block
//! stage 1 rejects, in the short tail of the bytes at hand, in a directive
//! or a CDATA section — is validated by one `std::str::from_utf8` call per
//! span, from a validated-to mark on, before anything reads it as text.
//! simdjson validates inside its stage 1 for the same reason (Keiser &
//! Lemire, "Validating UTF-8 In Less Than One Instruction Per Byte", 2021).
//! The bytes are lexed in two stages, the structural-index design of
//! simdjson:
//!
//! 1. **Stage 1 — the structural tape.** A block kernel classifies each
//!    64-byte block into per-class bitmasks (`<`, `>`, whitespace, `/`,
//!    quotes, `!`/`?`, and everything the tape never takes: non-ASCII and
//!    control bytes). Bit arithmetic over those masks — a prefix-XOR of
//!    `<`/`>` tracks "inside a tag", carried across blocks — yields every
//!    token's `(start, end)` offsets, appended to an L1-sized tape of about
//!    4 KiB of input per pass without a branch per bit: each mask is
//!    flattened eight offsets at a time into the tape's slack. A block the masks cannot prove *simple*
//!    (only `<name>`, `</name>`, text words and ASCII whitespace) stops the
//!    pass.
//! 2. **Stage 2 — resolve and emit.** One loop walks the tape. A simple
//!    token is its own canonical form — `name`, `<name>` or `</name>` — so
//!    its bytes, loaded as masked words, are the exact key of `LexerCore`'s
//!    direct-mapped token cache, whose slot holds the token's one event: a
//!    hit appends it to the caller's slice with no decoding at all. Only a
//!    miss reads the token's form off its first two bytes and hands the
//!    name to the policy. The scalar arm keys the same cache by the same
//!    canonical form, so `<a k="v"/>` hits the slots of `<a>` and `</a>`.
//!
//!    A lexer built on a [`Projection`](crate::sax::Projection) — the
//!    compiled artifact's inert symbols — emits only what the artifact
//!    reads. In **drop-all** mode (every alphabet symbol inert) stage 1
//!    puts only tags on the tape and marks text-word starts in one mask
//!    per block; text words are never resolved. A pass consumes up to its
//!    last tag, or past the complete text words after it when its budget
//!    did not cut it (so a long text run never falls to the scalar arm),
//!    and the dropped count is the popcount of those masks up to there
//!    (whatever resumes later re-scans the rest). In **keep-bit** mode
//!    each token-cache slot carries one keep bit (always set for a tag),
//!    and stage 2 writes every event branch-free but advances only past
//!    kept ones. An unprojected lexer runs its own instance of the
//!    fill loop, which never reads a keep bit. Either way the scalar arm
//!    and CDATA sections drop by the same rule, [`BulkLexer::dropped`]
//!    counts what was dropped, and the `fill` budget counts events
//!    *written*, so a fill that appends nothing still means the stream
//!    has ended. Under either mode a text word outside the alphabet is
//!    looked up, found missing and dropped, never an error. A lexer may
//!    narrow once, between two fills, to drop-all (crate-private
//!    `narrow_to_tags`): `queries::for_each_slice` narrows it when its
//!    consumer can no longer be moved by any text word, and each window
//!    fill dispatches on the current mode.
//!
//!    A third, last narrowing reads **structure** only (crate-private
//!    `narrow_to_structure`, then `fill_forms`): `queries::for_each_slice`
//!    takes it once its consumer can no longer be moved by any name, i.e.
//!    every engine has settled and only the stack height moves. No name is
//!    resolved and no event is built. Stage 1 classifies as in drop-all
//!    but keeps no tape: each simple block folds its tags straight into an
//!    [`automata_core::Forms`] summary of their ±1 walk — a close tag's
//!    `>` is found by subtracting the `</` marks from the `>` marks, the
//!    kernel packs the block's forms into stream order (one `pext` on
//!    `x86_64` with BMI2, a bit loop elsewhere), and a table folds them
//!    eight at a time — and counts its text words from their end marks.
//!    The scalar arm and the directives run
//!    exactly as in the other modes, with every syntax check, and only
//!    skip the name; a self-closing tag is a call and a return. A lexer
//!    fused on a tag whose name the policy could not resolve resumes at
//!    that tag when it narrows to structure, which then reads it by form:
//!    that is how an unknown tag read after the consumer settled decides
//!    like any alphabet tag, wherever the fills fall.
//!
//!    `Forms` compose, so a structure scan **splits**: while lexing in
//!    place, a rest of at least `2 · MIN_PART` bytes is cut at tag starts
//!    into parts, each folded by a fresh lexer whose stream ends at its
//!    cut, and the parts are joined in order. The parts are lent where
//!    they lie: the calling thread claims them from the front, and those
//!    of the process's helper threads (one per core beyond the first) that
//!    no other scan keeps busy claim them from the back, so each part is
//!    folded once and none is copied. The calling thread then waits only
//!    for the parts a helper still holds. With no core free, or after
//!    splits that did not pay, the scan stays sequential. A part is
//!    accepted only if it lexed without error after accepted parts, which
//!    proves its cut a token boundary; at the first other part the lexer
//!    goes on in sequence, so errors and offsets are the sequential
//!    scan's. A buffer is split once, so cuts that keep landing inside
//!    CDATA sections waste one split, not one per cut.
//!
//! Every token is lexed either by the tape or by the one scalar token step
//! (`step_token`: word-at-a-time SWAR sweeps to the token's end, then the
//! one byte-level tag classifier), which takes whatever stage 1 rejects —
//! attributes, quotes, self-closing tags, directives, `<>`, `</>`, a stray
//! `>`, control bytes, non-ASCII — and the short tail of the bytes at hand.
//! A token cut by the end of what is validated takes that same step again
//! once the validation reaches at least twice as far, and one cut by the
//! end of a buffer once the carried window has at least doubled, so the
//! re-sweeps stay linear in the token's length whatever the buffer size.
//! Only directives leave the step: comments, PIs, DOCTYPEs and CDATA
//! sections are swept as they stream past. The char-at-a-time lexer lives on only as the
//! differential oracle of `tests/sax_scan.rs`, which holds this scanner
//! token-for-token and error-for-error equal to it under adversarial buffer
//! sizes and block alignments.
//!
//! **Backends.** There is one fill loop; the four stage-1 kernels
//! differ only in classification and in two bit steps of the passes.
//! Portable SWAR words ([`ScanBackend::Swar`]) run everywhere; AVX-512BW
//! ([`ScanBackend::Avx512`], one compare per class straight into a 64-bit
//! mask) and AVX2 ([`ScanBackend::Avx2`]) are compiled on every `x86_64`
//! build and chosen at runtime, widest first, when the CPU has them; NEON
//! ([`ScanBackend::Neon`]) is the `aarch64` baseline. Where the CPU has
//! BMI2 and PCLMULQDQ, the `x86_64` passes pack tag forms with `pext` and
//! take the "inside a tag" prefix XOR with one carry-less multiply
//! (simdjson's quote-mask step, Langdale & Lemire, VLDB J. 2019).
//! [`scan_backend`] reports the choice and [`force_scan_backend`] pins
//! one.
//!
//! Whatever stops the stream — an invalid sequence met by validation, a
//! sequence the stream ends inside, or a failed `fill_buf` — is *held*: the
//! bytes at hand simply end at the last valid scalar before it, nothing
//! past an invalid sequence is read, and the typed [`SaxError`] surfaces
//! exactly when lexing reaches that offset — the same observable order as
//! an incremental decoder, where every token that completes before the bad
//! byte comes out and a token still in progress is discarded in favor of
//! the error.

use crate::sax::{ResolveName, SaxError, TextMode};
use automata_core::Forms;
use kernel::{BlockClassifier, BlockMasks, EventSink, BLOCK};
use nested_words::{NestedWordError, Symbol, TaggedSymbol};
use std::collections::VecDeque;
use std::io;

// The stage-1 kernels and the stage-2 sink: one of the crate's two modules
// allowed `unsafe` (bounds asserted, ISA presence proven by construction).
#[allow(unsafe_code)]
mod kernel;

// The parts of a split lent in place to the helpers: the other module
// allowed `unsafe` (bytes read only under a claim the lender waits out).
#[allow(unsafe_code)]
mod lend;

/// The buffer capacity to give a file or socket source:
/// `BufReader::with_capacity(SCAN_CHUNK, file)`, and the size of each read
/// into the owned window. The lexer reads each `fill_buf` buffer where it
/// lies, so an in-memory `&[u8]` is one buffer and is never copied. A token
/// cut by the end of a buffer is copied into the owned window, and the
/// source is then `read` into the window `SCAN_CHUNK` bytes at a time (a
/// `BufReader` of this capacity hands a read that large to its source
/// unbuffered, so each byte is still copied once): per 64 KiB, one `read`
/// call, one copied cut token and one scalar-arm tail of under a hundred
/// bytes, costs that amortize to noise while the window stays L2-resident
/// on every current core.
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

/// Whether the scalar at `data[i]` is whitespace by `char::is_whitespace`,
/// and its encoded length: ASCII is judged inline, a high byte decoded.
#[inline(always)]
fn scalar_ws(data: &[u8], i: usize) -> (bool, usize) {
    let b = data[i];
    if b < 0x80 {
        return (is_ascii_ws(b), 1);
    }
    let (c, len) = decode_scalar(&data[i..]);
    (c.is_whitespace(), len)
}

/// The end of the run of whitespace scalars (`ws`), or of non-whitespace
/// scalars (`!ws`), that starts at `i`.
#[inline(always)]
fn run_end(data: &[u8], mut i: usize, ws: bool) -> usize {
    while i < data.len() {
        let (is_ws, len) = scalar_ws(data, i);
        if is_ws != ws {
            break;
        }
        i += len;
    }
    i
}

/// `bytes.len()` less its trailing whitespace scalars: `str::trim_end` on
/// validated bytes, stepping back over continuation bytes to judge a high
/// scalar from its lead byte.
fn trim_end(bytes: &[u8]) -> usize {
    let mut end = bytes.len();
    while end > 0 {
        let mut lead = end - 1;
        while bytes[lead] & 0xC0 == 0x80 {
            lead -= 1;
        }
        if !scalar_ws(bytes, lead).0 {
            break;
        }
        end = lead;
    }
    end
}

fn parse_error(offset: usize, message: &str) -> SaxError {
    SaxError::Syntax(NestedWordError::Parse {
        offset,
        message: message.into(),
    })
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
    /// 64-byte AVX2 block classification (`x86_64`, runtime-detected
    /// together with the BMI1 and POPCNT that every AVX2 core has; where
    /// the CPU also has BMI2 and PCLMULQDQ, the passes pack forms with
    /// `pext` and take the prefix XOR with one carry-less multiply).
    Avx2,
    /// 64-byte AVX-512BW block classification, one compare per class
    /// straight into a 64-bit mask (`x86_64`, runtime-detected together
    /// with the BMI1, BMI2, POPCNT and PCLMULQDQ that every AVX-512BW core
    /// has): chosen over [`Avx2`](Self::Avx2) where the CPU has it.
    Avx512,
    /// 64-byte NEON block classification (`aarch64`, baseline ISA).
    Neon,
}

impl ScanBackend {
    /// Every backend, the portable one first. A differential suite runs
    /// each one [`force_scan_backend`] accepts on this CPU.
    pub const ALL: [ScanBackend; 4] = [
        ScanBackend::Swar,
        ScanBackend::Avx2,
        ScanBackend::Avx512,
        ScanBackend::Neon,
    ];
}

/// The backend the next window fill will use: the CPU is probed once
/// (AVX-512BW, then AVX2, each with the scalar extensions named on its
/// variant, via `is_x86_feature_detected!` on `x86_64`; NEON
/// unconditionally on `aarch64`, where it is baseline) and the answer
/// cached; anything else gets [`ScanBackend::Swar`]. Benches and docs use
/// this to report which path actually ran.
pub fn scan_backend() -> ScanBackend {
    backend::current()
}

/// Forces the stage-1 backend process-wide — how the benches and the
/// differential tests run SWAR and the wide kernels side by side in one
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

    /// 0 = undecided (probe on first use), else 1 + the backend's index in
    /// [`ScanBackend::ALL`]. Detection is idempotent, so a startup race
    /// costs a duplicate probe, never a wrong answer; the value publishes
    /// no other data, hence `Relaxed`.
    static STATE: AtomicU8 = AtomicU8::new(0);

    fn code(b: ScanBackend) -> u8 {
        1 + ScanBackend::ALL
            .iter()
            .position(|&x| x == b)
            .expect("every backend is listed") as u8
    }

    fn available(b: ScanBackend) -> bool {
        match b {
            ScanBackend::Swar => true,
            #[cfg(target_arch = "x86_64")]
            ScanBackend::Avx2 => super::kernel::Avx2::detect().is_some(),
            #[cfg(target_arch = "x86_64")]
            ScanBackend::Avx512 => super::kernel::Avx512::detect().is_some(),
            #[cfg(target_arch = "aarch64")]
            ScanBackend::Neon => true,
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }

    /// The last backend of [`ScanBackend::ALL`] this CPU has: the widest
    /// kernel.
    fn detect() -> ScanBackend {
        ScanBackend::ALL
            .into_iter()
            .rfind(|&b| available(b))
            .expect("SWAR is always available")
    }

    pub(super) fn current() -> ScanBackend {
        match STATE.load(Ordering::Relaxed) {
            0 => {
                let b = detect();
                STATE.store(code(b), Ordering::Relaxed);
                b
            }
            c => ScanBackend::ALL[usize::from(c) - 1],
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
// Name resolution and the tag classifier
// --------------------------------------------------------------------------

/// The name-to-event builder of the lexer: the [`ResolveName`] policy
/// behind a direct-mapped token cache, the one classifier of tag bodies,
/// and the policy's projection with its count of dropped text words.
#[derive(Debug)]
struct LexerCore<N: ResolveName> {
    names: N,
    /// Direct-mapped memo of recent token resolutions, keyed by each
    /// token's canonical bytes (see [`LexerCore::resolve_token`]): empty
    /// until the first fill that reads names ([`LexerCore::ready`]), so a
    /// structure scan never writes it.
    cache: Vec<TokenSlot>,
    /// What the policy's projection does with text words: it starts as
    /// [`ResolveName::text_mode`] and may narrow once, to drop-all
    /// ([`BulkLexer::narrow_to_tags`]).
    text: TextMode,
    /// Text words the projection dropped so far.
    dropped: usize,
    /// Whether the last name the policy was asked for was a tag's and it
    /// failed: the one error a lexer narrowing to structure resumes from
    /// ([`BulkLexer::narrow_to_structure`]).
    tag_miss: bool,
}

/// The exact cache key of one token in its canonical form — `name` for a
/// text word, `<name>` for an open tag, `</name>` for a close tag: its
/// bytes zero-padded into three little-endian words, with its length in
/// the top byte of the last. Equal keys mean equal tokens, so a hit needs
/// no hashing of the name, no string compare and no allocation. A simple
/// tape token *is* its canonical form, so stage 2 builds the key straight
/// from the window ([`token_key`]); every other path builds it from the
/// name and its form ([`canonical_key`]).
type TokenKey = [u64; 3];

/// The longest canonical token a [`TokenKey`] holds: 23 bytes, the 24th
/// being the length. That caches every name of up to 20 bytes in all three
/// forms (a close tag adds three bytes), and text words of up to 23.
const KEY_BYTES: usize = 23;

/// Bytes [`token_key`] loads from a token's start: stage 1 stops this far
/// (plus a block) short of the window end, so the loads stay in bounds.
const KEY_LOAD: usize = std::mem::size_of::<TokenKey>();

/// `KEY_MASKS[len]` keeps the first `len` bytes of a 24-byte load.
const KEY_MASKS: [TokenKey; KEY_BYTES + 1] = {
    let mut masks = [[0u64; 3]; KEY_BYTES + 1];
    let mut len = 0;
    while len <= KEY_BYTES {
        let mut byte = 0;
        while byte < len {
            masks[len][byte / 8] |= 0xFF << (8 * (byte % 8));
            byte += 1;
        }
        len += 1;
    }
    masks
};

/// One slot of the token memo: the token's [`TokenKey`] (all zero for a
/// never-filled slot, which no token's key is — every key carries a
/// non-zero length), its event, and its keep bit (tags always, a text word
/// unless the projection drops it). 32 bytes, two to a cache line.
#[derive(Debug, Clone, Copy)]
#[repr(align(32))]
struct TokenSlot {
    key: TokenKey,
    event: TaggedSymbol,
    keep: bool,
}

impl TokenSlot {
    /// Whether this slot caches the token with key `key`, compared word by
    /// word: an array compare is lowered through memory, spilling the key
    /// out of its registers on every probe.
    #[inline(always)]
    fn holds(&self, key: &TokenKey) -> bool {
        (self.key[0] ^ key[0]) | (self.key[1] ^ key[1]) | (self.key[2] ^ key[2]) == 0
    }
}

/// Index of the text-word form; also the name's offset in the token.
const FORM_INTERNAL: usize = 0;
/// Index of the open-tag form (`<` precedes the name).
const FORM_CALL: usize = 1;
/// Index of the close-tag form (`</` precedes the name).
const FORM_RETURN: usize = 2;

/// The event of `sym` in form `form` (`FORM_*`).
fn event_of(sym: Symbol, form: usize) -> TaggedSymbol {
    match form {
        FORM_CALL => TaggedSymbol::Call(sym),
        FORM_RETURN => TaggedSymbol::Return(sym),
        _ => TaggedSymbol::Internal(sym),
    }
}

/// Slots in the token memo. Documents draw their tokens from a small,
/// heavily repeated set (element vocabularies, recurring words), so even a
/// small direct-mapped table converges to all-hits. A tag name takes two
/// slots (its open and close form) and a word one; 512 slots × 32 bytes
/// keep the table L1-resident beside the stage-1 tape.
const NAME_CACHE_SLOTS: usize = 512;

/// The cache slot of a token key. Any mix is fine — a slot collision costs
/// a policy call, not a wrong answer (the key compare is exact).
#[inline(always)]
fn slot_of(key: &TokenKey) -> usize {
    let mix = (key[0] ^ key[1].rotate_left(21) ^ key[2].rotate_left(42))
        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (mix >> (u64::BITS - NAME_CACHE_SLOTS.trailing_zeros())) as usize
}

/// The key of the 1..=[`KEY_BYTES`]-byte token at `data[at..]`: three raw
/// word loads, masked to the token, plus its length. Callers guarantee
/// `at + KEY_LOAD <= data.len()` (stage 1 stops short of the window end
/// for this).
#[inline(always)]
fn token_key(data: &[u8], at: usize, len: usize) -> TokenKey {
    let bytes: &[u8; KEY_LOAD] = data[at..at + KEY_LOAD].try_into().expect("a key load");
    let word = |i: usize| u64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().expect("a word"));
    let mask = &KEY_MASKS[len];
    [
        word(0) & mask[0],
        word(1) & mask[1],
        word(2) & mask[2] | (len as u64) << 56,
    ]
}

/// The key of `name` in form `form` (`FORM_*`): the [`token_key`] of its
/// canonical token, built byte by byte, or `None` when that token is longer
/// than [`KEY_BYTES`] or does not read back as `form` the way
/// [`tape_token`] decodes a token. Two names do not: a text word starting
/// with `<`, which only a CDATA section yields (`<![CDATA[<a>]]>` holds the
/// word `<a>`, the canonical form of the open tag `a`), and an open tag
/// named from `/`, which only leading whitespace yields (`< /a>` spells the
/// close tag `</a>`). Keeping those uncached keeps the three forms' keys
/// disjoint.
fn canonical_key(name: &[u8], form: usize) -> Option<TokenKey> {
    let (open, close) = (&b"</"[..form], &b">"[..form.min(1)]);
    let len = open.len() + name.len() + close.len();
    let reads_back = match form {
        FORM_INTERNAL => name.first() != Some(&b'<'),
        FORM_CALL => name.first() != Some(&b'/'),
        _ => true,
    };
    if len > KEY_BYTES || !reads_back {
        return None;
    }
    let mut key = [0u64, 0, (len as u64) << 56];
    for (i, &b) in open.iter().chain(name).chain(close).enumerate() {
        key[i / 8] |= u64::from(b) << (8 * (i % 8));
    }
    Some(key)
}

/// The policy call itself, kept out of the inlined probe: per distinct
/// short token it runs once, while the probe runs per event. A text word
/// goes through [`ResolveName::resolve_text`], which may drop it
/// unresolved (`None`); a tag name always resolves or fails.
#[cold]
fn resolve_with<N: ResolveName>(
    names: &mut N,
    name: &[u8],
    text: bool,
) -> Result<Option<Symbol>, SaxError> {
    let name = std::str::from_utf8(name).expect("lexed names are valid UTF-8");
    Ok(if text {
        names.resolve_text(name)?
    } else {
        Some(names.resolve(name)?)
    })
}

impl<N: ResolveName> LexerCore<N> {
    fn new(names: N) -> Self {
        LexerCore {
            text: names.text_mode(),
            names,
            cache: Vec::new(),
            dropped: 0,
            tag_miss: false,
        }
    }

    /// Sets up the token cache, once, before names are read.
    fn ready(&mut self) {
        if self.cache.is_empty() {
            let empty = TokenSlot {
                key: [0; 3],
                event: TaggedSymbol::Internal(Symbol(0)),
                keep: false,
            };
            self.cache = vec![empty; NAME_CACHE_SLOTS];
        }
    }

    /// Lexes one text word under the projection: pushes its event and
    /// returns `true`, or counts it dropped and returns `false`. In
    /// drop-all mode the word is not even resolved.
    #[inline]
    fn text_word(&mut self, name: &[u8], out: &mut Vec<TaggedSymbol>) -> Result<bool, SaxError> {
        if self.text != TextMode::DropAll {
            if let Some((event, true)) = self.resolve_token(name, FORM_INTERNAL)? {
                out.push(event);
                return Ok(true);
            }
        }
        self.dropped += 1;
        Ok(false)
    }

    /// The event of one lexed tag name (see
    /// [`resolve_token`](Self::resolve_token)) in form `form`.
    #[inline]
    fn tag_event(&mut self, name: &[u8], form: usize) -> Result<TaggedSymbol, SaxError> {
        Ok(self
            .resolve_token(name, form)?
            .expect("a tag name resolves or fails")
            .0)
    }

    /// Maps one lexed name (valid UTF-8 bytes of the validated window) in
    /// form `form` (`FORM_*`) to its event and keep bit through the policy
    /// — as a text word for [`FORM_INTERNAL`], which the policy may drop
    /// unresolved (`None`) — memoized in a direct-mapped cache keyed by the
    /// canonical token: resolution is the per-event step the scanner cannot
    /// batch, and the policy's `HashMap` lookup (SipHash, probe, `str`
    /// re-validation) would otherwise dominate the whole tokenizer on short
    /// names. Both policies are idempotent per name — interning returns the
    /// same symbol it first assigned, frozen lookup never changes — so a
    /// cached hit is exactly the policy's answer. Failures and unresolved
    /// text words (unknown names, alphabet full) are not cached and always
    /// re-consult the policy.
    #[inline]
    fn resolve_token(
        &mut self,
        name: &[u8],
        form: usize,
    ) -> Result<Option<(TaggedSymbol, bool)>, SaxError> {
        let key = canonical_key(name, form);
        match key.as_ref().and_then(|key| self.cached(key)) {
            Some(hit) => Ok(Some(hit)),
            None => self.resolve_miss(name, form, key),
        }
    }

    /// [`resolve_token`](Self::resolve_token) after its probe missed: the
    /// policy's answer, cached under `key`, the token's key if it has one.
    fn resolve_miss(
        &mut self,
        name: &[u8],
        form: usize,
        key: Option<TokenKey>,
    ) -> Result<Option<(TaggedSymbol, bool)>, SaxError> {
        let resolved = resolve_with(&mut self.names, name, form == FORM_INTERNAL);
        self.tag_miss = form != FORM_INTERNAL && resolved.is_err();
        let Some(sym) = resolved? else {
            return Ok(None);
        };
        let event = event_of(sym, form);
        let keep = form != FORM_INTERNAL || !self.names.drops(sym);
        if let Some(key) = key {
            self.cache[slot_of(&key)] = TokenSlot { key, event, keep };
        }
        Ok(Some((event, keep)))
    }

    /// The cache probe alone: the event and keep bit of the token with key
    /// `key` — the value [`canonical_key`] produces, which the scanner's
    /// stage 2 builds from masked word loads of its window — or `None` on a
    /// miss.
    #[inline(always)]
    fn cached(&self, key: &TokenKey) -> Option<(TaggedSymbol, bool)> {
        let slot = &self.cache[slot_of(key)];
        slot.holds(key).then_some((slot.event, slot.keep))
    }
}

/// Classifies one tag body — the bytes between `<` and `>` — into its
/// name, its form, and whether it self-closes, without resolving the name:
///
/// * a leading `/` is a close tag ([`FORM_RETURN`]), named by the first
///   whitespace-separated token of the rest (attributes ignored);
/// * otherwise it is an open tag ([`FORM_CALL`]), which self-closes when
///   its last non-whitespace scalar is `/`, and is named by the first token
///   before that `/` — so `<sec a="1">`, `<sec/>` and `</sec>` name the
///   *same* symbol;
/// * a body with no name at all is the typed `empty tag name` error at the
///   tag's opening offset.
///
/// Whitespace is `char::is_whitespace`, judged inline on ASCII and by
/// decoding on high bytes, as everywhere in the scanner.
fn tag_parts(body: &[u8], tag_start: usize) -> Result<(&[u8], usize, bool), SaxError> {
    let (inner, form, self_closing) = match body {
        [b'/', rest @ ..] => (rest, FORM_RETURN, false),
        _ => match &body[..trim_end(body)] {
            [inner @ .., b'/'] => (inner, FORM_CALL, true),
            trimmed => (trimmed, FORM_CALL, false),
        },
    };
    let start = run_end(inner, 0, true);
    let end = run_end(inner, start, false);
    if start == end {
        return Err(parse_error(tag_start, "empty tag name"));
    }
    Ok((&inner[start..end], form, self_closing))
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

/// Entries past [`TAPE_CAP`] on each tape side: [`flatten`] writes a whole
/// block's worth of offsets at the cursor, of which only the popcount
/// count.
const TAPE_SLACK: usize = BLOCK;

/// Stage 1's output: token `i` spans `from + starts[i] .. from + ends[i]`
/// of the window, where `from` is the pass start. Tags span `<` through
/// `>`; text tokens span the word. A pass that drops text puts only tags
/// on the tape and marks each text word's first byte in `text_starts`, one
/// mask per block of the pass.
#[derive(Debug)]
struct Tape {
    starts: Vec<u16>,
    ends: Vec<u16>,
    text_starts: [u64; TAPE_CAP / BLOCK],
}

impl Tape {
    fn new() -> Self {
        Tape {
            starts: vec![0; TAPE_CAP + TAPE_SLACK],
            ends: vec![0; TAPE_CAP + TAPE_SLACK],
            text_starts: [0; TAPE_CAP / BLOCK],
        }
    }

    /// A tape with no room yet, sized by [`Tape::ready`] on first use: a
    /// structure scan keeps none.
    fn empty() -> Self {
        Tape {
            starts: Vec::new(),
            ends: Vec::new(),
            text_starts: [0; TAPE_CAP / BLOCK],
        }
    }

    /// Gives the tape room for a pass, once.
    fn ready(&mut self) {
        if self.starts.is_empty() {
            *self = Tape::new();
        }
    }

    /// Text words starting before pass offset `end`: the popcount of the
    /// `text_starts` masks below it.
    fn text_words_before(&self, end: usize) -> usize {
        let (full, rest) = (end / BLOCK, end % BLOCK);
        let below: u32 = self.text_starts[..full]
            .iter()
            .map(|m| m.count_ones())
            .sum();
        let partial = match rest {
            0 => 0,
            r => (self.text_starts[full] & ((1u64 << r) - 1)).count_ones(),
        };
        (below + partial) as usize
    }
}

/// What one stage-1 pass produced.
struct Pass {
    /// Complete tokens on the tape, capped at the pass budget: only tags
    /// when the pass drops text.
    tokens: usize,
    /// Pass offset just past what the pass consumed, where the next one
    /// resumes: the end of the last tape token or, when the pass drops text
    /// and its budget did not cut it, of the last complete text word if
    /// that is later. 0 when the pass consumed nothing.
    end: usize,
    /// Text words a text-dropping pass read before `end`. Those after it
    /// are lexed again by whatever resumes there, so they are not counted
    /// here.
    dropped: usize,
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

/// The token marks of a block stage 1 proved simple ([`Carry::simple`]).
struct Simple {
    /// The `/` of every `</`: one per close tag.
    close: u64,
    /// Bytes just past a `>`, where a tag token ends.
    after_gt: u64,
    /// First bytes of text words.
    text_start: u64,
    /// Bytes just past a text word: a word ending on the block's last byte
    /// is marked in the next block.
    text_end: u64,
}

impl Carry {
    /// Stage 1's simplicity check of the classified block `m` that follows
    /// the block this carry left: `None` if `m` is not simple (see
    /// [`build_tape`]), otherwise its token marks, and the carry moves past
    /// `m`. The one check behind both [`build_tape`] and [`walk_forms`].
    #[inline(always)]
    fn simple<C: BlockClassifier>(&mut self, cls: C, m: &BlockMasks) -> Option<Simple> {
        let inside = cls.prefix_xor(m.lt | m.gt) ^ self.inside;
        let after_lt = (m.lt << 1) | self.lt;
        let close = m.slash & after_lt;
        let complex = m.other
            | (m.lt & !inside)
            | (m.gt & inside)
            | ((m.ws | m.quote) & inside)
            | (m.slash & inside & !after_lt)
            | (after_lt & (m.lead | m.gt))
            | (((close << 1) | self.close) & m.gt);
        if complex != 0 {
            return None;
        }
        let text = !(inside | m.gt | m.ws);
        let text_before = (text << 1) | self.text;
        let simple = Simple {
            close,
            after_gt: (m.gt << 1) | self.gt,
            text_start: text & !text_before,
            text_end: !text & text_before,
        };
        *self = Carry {
            inside: 0u64.wrapping_sub(inside >> 63),
            lt: m.lt >> 63,
            close: close >> 63,
            gt: m.gt >> 63,
            text: text >> 63,
        };
        Some(simple)
    }
}

/// Appends the offset of every set bit of `bits` (plus `off`) to `out` at
/// `*n`, lowest first, the way simdjson flattens its structural masks:
/// eight offsets per step, written unconditionally, for as many steps as
/// the popcount needs. The entries written past the popcount are garbage
/// the next call overwrites, so the loop's only branch is the step count,
/// not every bit; `out` needs [`TAPE_SLACK`] entries past `*n`.
#[inline(always)]
fn flatten(mut bits: u64, off: usize, out: &mut [u16], n: &mut usize) {
    let count = bits.count_ones() as usize;
    let dst: &mut [u16; TAPE_SLACK] = (&mut out[*n..*n + TAPE_SLACK])
        .try_into()
        .expect("tape slack");
    let off = off as u16;
    for (step, eight) in dst.chunks_exact_mut(8).enumerate() {
        for at in eight {
            *at = off.wrapping_add(bits.trailing_zeros() as u16);
            bits &= bits.wrapping_sub(1);
        }
        if 8 * (step + 1) >= count {
            break;
        }
    }
    *n += count;
}

/// Stage 1: classifies `data` in 64-byte blocks from `from` — a token
/// boundary outside any tag — and records every token that completes in the
/// simple blocks on `tape`, stopping after about [`TAPE_BYTES`], once
/// `budget` tokens are complete, at the first block it cannot prove simple,
/// or where a block (plus stage 2's [`KEY_LOAD`]-byte key loads) would
/// leave the window. With `DROP_TEXT` only tags count as tokens: text
/// words are marked in `tape.text_starts` and counted, never resolved, and
/// a pass whose text runs past its last tag (or that holds no tag at all)
/// still consumes the complete words there.
///
/// A block is *simple* when every byte is ASCII and not a control byte, and
/// every tag in it is `<name>` or `</name>`: a `<` only outside a tag, a `>`
/// only inside one, no whitespace or quote inside a tag, no `/` inside a
/// tag except straight after `<`, and no `<!`, `<?`, `<>` or `</>`. On
/// such blocks the tokens are exactly those the scalar arm would lex: tags
/// run from `<` to `>`, text words are the maximal runs of bytes outside
/// tags that are neither `>` nor whitespace.
#[inline(always)]
fn build_tape<C: BlockClassifier, const DROP_TEXT: bool>(
    cls: C,
    tape: &mut Tape,
    data: &[u8],
    from: usize,
    budget: usize,
) -> Pass {
    let last_block = data.len().checked_sub(BLOCK + KEY_LOAD);
    let (mut starts, mut ends) = (0usize, 0usize);
    // Pass offset just past the last complete text word (`DROP_TEXT` only).
    let mut word_end = 0usize;
    let mut carry = Carry::default();
    let mut bb = from;
    let scalar_until = loop {
        if last_block.is_none_or(|last| bb > last) {
            break usize::MAX;
        }
        if bb - from >= TAPE_BYTES || ends >= budget {
            // A token longer than the whole pass leaves nothing consumed:
            // the scalar arm takes it.
            break if ends == 0 && word_end == 0 { bb } else { 0 };
        }
        let block = data[bb..bb + BLOCK].try_into().expect("a whole block");
        let m = cls.classify(block);
        let Some(simple) = carry.simple(cls, &m) else {
            break bb + BLOCK;
        };
        let off = bb - from;
        if DROP_TEXT {
            tape.text_starts[off / BLOCK] = simple.text_start;
            if simple.text_end != 0 {
                word_end = off + 63 - simple.text_end.leading_zeros() as usize;
            }
            flatten(m.lt, off, &mut tape.starts, &mut starts);
            flatten(simple.after_gt, off, &mut tape.ends, &mut ends);
        } else {
            flatten(m.lt | simple.text_start, off, &mut tape.starts, &mut starts);
            flatten(
                simple.after_gt | simple.text_end,
                off,
                &mut tape.ends,
                &mut ends,
            );
        }
        bb += BLOCK;
    };
    let tokens = ends.min(budget);
    let mut end = match tokens {
        0 => 0,
        n => usize::from(tape.ends[n - 1]),
    };
    let mut dropped = 0;
    if DROP_TEXT {
        if ends <= budget {
            end = end.max(word_end);
        }
        dropped = tape.text_words_before(end);
    }
    Pass {
        tokens,
        end,
        dropped,
        scalar_until,
    }
}

/// What one structure pass ([`walk_forms`]) read.
struct FormsPass {
    /// The tags that completed before `end`, by form.
    forms: Forms,
    /// Text words that completed before `end`: read, never resolved.
    words: usize,
    /// Pass offset just past the last complete token, where the next pass
    /// or the scalar arm resumes; 0 when the pass consumed nothing.
    end: usize,
    /// As [`Pass::scalar_until`].
    scalar_until: usize,
}

/// What one stage-1 pass and its stage 2 did with the window
/// ([`FillOut::sweep`]).
struct Swept {
    /// As [`Pass::end`].
    end: usize,
    /// As [`Pass::scalar_until`].
    scalar_until: usize,
    /// Items written: events, or tag events folded into forms.
    written: usize,
}

/// The [`Forms`] of every run of at most eight tags, as `[net, low,
/// rise, top]`: row `n`, column `seq` summarizes the first `n` tags of
/// `seq`, tag `i` a call iff bit `i` is set. 9 KiB.
static FORMS8: [[[i8; 4]; 256]; 9] = {
    let mut table = [[[0i8; 4]; 256]; 9];
    let mut n = 0;
    while n <= 8 {
        let mut seq = 0;
        while seq < 256 {
            let (mut net, mut low, mut rise, mut top) = (0i8, 0i8, 0i8, 0i8);
            let mut i = 0;
            while i < n {
                net += if (seq >> i) & 1 == 1 { 1 } else { -1 };
                low = if net < low { net } else { low };
                rise = if net > rise { net } else { rise };
                top = if net - low > top { net - low } else { top };
                i += 1;
            }
            table[n][seq] = [net, low, rise, top];
            seq += 1;
        }
        n += 1;
    }
    table
};

/// Folds the first `n ≤ 64` tags of `seq` into `forms`, tag `i` a call iff
/// bit `i` is set, eight at a time through [`FORMS8`], leaving
/// `forms.events` as it is: [`walk_forms`] counts events by its budget. A
/// simple block ends at most 22 tags (`<a>` is three bytes), so the two
/// unconditional folds cover nearly every block without a data-dependent
/// branch.
#[inline(always)]
fn fold_forms(forms: &mut Forms, seq: u64, n: usize) {
    let fold8 = |forms: &mut Forms, seq: u64, n: usize| {
        let [net, low, rise, top] = FORMS8[n][(seq & 0xFF) as usize];
        *forms = forms.then(Forms {
            events: 0,
            net: isize::from(net),
            low: isize::from(low),
            rise: rise as usize,
            top: top as usize,
        });
    };
    fold8(forms, seq, n.min(8));
    fold8(forms, seq >> 8, n.saturating_sub(8).min(8));
    let (mut seq, mut n) = (seq >> 16, n.saturating_sub(16));
    while n > 0 {
        fold8(forms, seq, n.min(8));
        (seq, n) = (seq >> 8, n.saturating_sub(8));
    }
}

/// Stage 1 in **structure** mode: classifies `data` in 64-byte blocks from
/// `from` — a token boundary outside any tag — under exactly
/// [`build_tape`]'s simplicity check, but keeps no tape. Each tag is
/// folded into the pass's [`Forms`] at its `>`, as a call or a return,
/// and each text word is counted at its end; nothing is resolved. The pass
/// stops once about `budget` tag events are folded, at the first block it
/// cannot prove simple, or where a block would leave the window, and ends
/// just past its last complete token: a tag or word still open there is
/// neither folded nor counted, and is read again by whatever resumes at
/// its start.
///
/// A simple block's `/` inside a tag is a close tag's, straight after its
/// `<`, and its tags alternate `<`…`>`, so subtracting the close marks
/// from the `>` marks borrows each close mark through to its own `>` and
/// clears exactly that bit: the `>`s left set end open tags. A close tag
/// cut by the block seam carries its borrow into the next block. The
/// kernel's [`compress`](BlockClassifier::compress) packs the forms of the
/// block's tags into stream order, and [`fold_forms`] folds them eight at
/// a time.
///
/// The block loop keeps only what the next block needs: the carry, the
/// borrow, the forms folded (their event count is the budget spent,
/// counted down) and the words counted. Where the pass ends inside a tag
/// or a word, the token's start is found once, after the loop, by reading
/// back from the end to its `<` or to the byte before the word: in simple
/// blocks no `<` sits inside a tag, and a word follows whitespace, a `>`
/// or `from`.
#[inline(always)]
fn walk_forms<C: BlockClassifier>(cls: C, data: &[u8], from: usize, budget: usize) -> FormsPass {
    let mut carry = Carry::default();
    let mut borrow = 0u64;
    let mut forms = Forms::default();
    let budget = budget.min(isize::MAX as usize) as isize;
    let mut left = budget;
    let mut words = 0usize;
    // The bytes not yet walked: the next block starts them.
    let mut rest = &data[from..];
    let scalar_until = loop {
        let Some((block, after)) = rest.split_first_chunk::<BLOCK>() else {
            break usize::MAX;
        };
        if left <= 0 {
            break 0;
        }
        let m = cls.classify(block);
        let Some(simple) = carry.simple(cls, &m) else {
            break data.len() - after.len();
        };
        words += simple.text_end.count_ones() as usize;
        let (open, cut) = m.gt.overflowing_sub(simple.close);
        let (open, cut_before) = open.overflowing_sub(borrow);
        borrow = u64::from(cut | cut_before);
        let tags = m.gt.count_ones() as usize;
        fold_forms(&mut forms, cls.compress(m.gt & open, m.gt), tags);
        left -= tags as isize;
        rest = after;
    };
    forms.events = (budget - left) as usize;
    let walked = &data[from..data.len() - rest.len()];
    let end = if carry.inside != 0 {
        walked.iter().rposition(|&b| b == b'<').unwrap_or(0)
    } else if carry.text != 0 {
        walked
            .iter()
            .rposition(|&b| b == b'>' || is_ascii_ws(b))
            .map_or(0, |i| i + 1)
    } else {
        walked.len()
    };
    FormsPass {
        forms,
        words,
        end,
        scalar_until,
    }
}

/// A layer of the structure pass, as the E15c layer table times it alone
/// ([`structure_layer`]).
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StructureLayer {
    /// Block classification: every class mask of every block.
    Classify,
    /// Classification and the simplicity check, counting the text words
    /// that end in simple blocks.
    Check,
    /// The whole structure pass: classification, the check and the fold.
    Fold,
}

/// Runs one layer of the structure pass over the whole 64-byte blocks of
/// `data`, which starts on a token boundary, on the [`scan_backend`]
/// kernel and the calling thread alone, and returns what it read: the XOR
/// of every mask, the text words that end in simple blocks, or a digest of
/// the forms and words folded. For benches: no lexer calls it.
#[doc(hidden)]
pub fn structure_layer(data: &[u8], layer: StructureLayer) -> u64 {
    match scan_backend() {
        #[cfg(target_arch = "x86_64")]
        ScanBackend::Avx2 => {
            if let Some(kernel) = kernel::Avx2::detect() {
                return kernel.layer(data, layer);
            }
        }
        #[cfg(target_arch = "x86_64")]
        ScanBackend::Avx512 => {
            if let Some(kernel) = kernel::Avx512::detect() {
                return kernel.layer(data, layer);
            }
        }
        #[cfg(target_arch = "aarch64")]
        ScanBackend::Neon => return kernel::Neon::new().layer(data, layer),
        _ => {}
    }
    kernel::Swar.layer(data, layer)
}

/// [`structure_layer`] on the kernel `cls`.
#[inline(always)]
fn run_layer<C: BlockClassifier>(cls: C, data: &[u8], layer: StructureLayer) -> u64 {
    let (blocks, _) = data.as_chunks::<BLOCK>();
    match layer {
        StructureLayer::Classify => blocks.iter().fold(0, |digest, block| {
            let m = cls.classify(block);
            digest ^ m.lt ^ m.gt ^ m.ws ^ m.slash ^ m.quote ^ m.lead ^ m.other
        }),
        StructureLayer::Check => {
            let mut carry = Carry::default();
            let mut words = 0;
            for block in blocks {
                let Some(simple) = carry.simple(cls, &cls.classify(block)) else {
                    break;
                };
                words += u64::from(simple.text_end.count_ones());
            }
            words
        }
        StructureLayer::Fold => {
            let pass = walk_forms(cls, data, 0, usize::MAX);
            let Forms {
                events,
                net,
                low,
                rise,
                top,
            } = pass.forms;
            [events, net as usize, low as usize, rise, top, pass.words]
                .into_iter()
                .fold(0, |digest, x| digest.rotate_left(11) ^ x as u64)
        }
    }
}

// --------------------------------------------------------------------------
// Stage 2: resolve and emit
// --------------------------------------------------------------------------

/// Stage 2: resolves and emits the first `tokens` tape entries of the pass
/// that started at `from`, returning the number of events written. On a
/// resolution failure the events before it stay in `out`, the tokens
/// before it that were dropped are counted, and the error comes back with
/// the failing token's start.
///
/// The inner loop runs over cache hits: a simple tape token is its own
/// canonical form, so a hit is one masked key load ([`token_key`]), one
/// slot compare and one push — no form decode, no name offsets. A miss (or
/// a token longer than a key) leaves it for one policy resolution, which
/// decodes the token's form, then the loop resumes. With `FILTER`
/// (keep-bit mode) every token's event is written branch-free, and the
/// append cursor advances past it only if its slot's keep bit is set: a
/// text word the projection drops costs a store, and is counted in
/// `core.dropped`. Without it every event is kept, and the keep bits are
/// never read.
fn emit_tape<N: ResolveName, const FILTER: bool>(
    core: &mut LexerCore<N>,
    tape: &Tape,
    data: &[u8],
    from: usize,
    tokens: usize,
    out: &mut Vec<TaggedSymbol>,
) -> Result<usize, (SaxError, usize)> {
    let before = out.len();
    let mut sink = EventSink::new(out, tokens);
    let window = &data[from..];
    let mut i = 0;
    let failure = loop {
        i += emit_hits::<N, FILTER>(
            core,
            &tape.starts[i..tokens],
            &tape.ends[i..tokens],
            window,
            &mut sink,
        );
        if i == tokens {
            break None;
        }
        match resolve_tape_token(core, tape, data, from, i) {
            Ok(Some((t, keep))) => sink.push_if(t, !FILTER || keep),
            Ok(None) => {}
            Err(failure) => break Some(failure),
        }
        i += 1;
    };
    let written = sink.len() - before;
    core.dropped += i - written;
    failure.map_or(Ok(written), Err)
}

/// The hit loop of [`emit_tape`]: emits the tape tokens spanning
/// `window[starts[i]..ends[i]]` while each one's key is cached, returning
/// how many it emitted.
#[inline(always)]
fn emit_hits<N: ResolveName, const FILTER: bool>(
    core: &LexerCore<N>,
    starts: &[u16],
    ends: &[u16],
    window: &[u8],
    sink: &mut EventSink<'_, TaggedSymbol>,
) -> usize {
    for (i, (&start, &end)) in starts.iter().zip(ends).enumerate() {
        let len = usize::from(end - start);
        if len > KEY_BYTES {
            return i;
        }
        let Some((t, keep)) = core.cached(&token_key(window, usize::from(start), len)) else {
            return i;
        };
        sink.push_if(t, !FILTER || keep);
    }
    starts.len()
}

/// The miss path of [`emit_tape`], kept out of its loop: tape token `i`
/// resolved through the policy ([`LexerCore::resolve_miss`]), which fills
/// the slot of the key the loop just probed. A failure comes back with the
/// token's start.
#[inline(never)]
fn resolve_tape_token<N: ResolveName>(
    core: &mut LexerCore<N>,
    tape: &Tape,
    data: &[u8],
    from: usize,
    i: usize,
) -> Result<Option<(TaggedSymbol, bool)>, (SaxError, usize)> {
    let (s, form, len) = tape_token(tape, data, from, i);
    let token = usize::from(tape.ends[i] - tape.starts[i]);
    let key = (token <= KEY_BYTES).then(|| token_key(data, s, token));
    core.resolve_miss(&data[s + form..s + form + len], form, key)
        .map_err(|err| (err, s))
}

/// Tape token `i` of the pass that started at `from`, as its window start,
/// its event form and its name length: the miss path's decode. The form is
/// read off the token's first two bytes without a branch — a tag adds one
/// for `<` and one more for `</` — and doubles as the name's offset in the
/// token: `FORM_INTERNAL` 0 for a text word, `FORM_CALL` 1 for `<name>`,
/// `FORM_RETURN` 2 for `</name>`.
#[inline(always)]
fn tape_token(tape: &Tape, data: &[u8], from: usize, i: usize) -> (usize, usize, usize) {
    const _: () = assert!(FORM_INTERNAL == 0 && FORM_CALL == 1 && FORM_RETURN == 2);
    let s = from + usize::from(tape.starts[i]);
    let e = from + usize::from(tape.ends[i]);
    let [b0, b1]: [u8; 2] = data[s..s + 2].try_into().expect("two bytes");
    let tag = usize::from(b0 == b'<');
    let form = tag + (tag & usize::from(b1 == b'/'));
    (s, form, e - tag - s - form)
}

// --------------------------------------------------------------------------
// What a fill writes: events, or tag forms
// --------------------------------------------------------------------------

/// What a window fill writes: events, or — in **structure** mode — only
/// each tag's form, folded into a [`Forms`] walk. The fill loop, the scalar
/// arm and the directives are generic over it, so both keep one token rule
/// and every syntax check; only name resolution differs.
trait FillOut {
    /// Whether names are resolved. Without them (structure mode) no text
    /// word is resolved either, and no tape is built.
    const NAMES: bool;

    /// Items written so far: what a fill's budget counts.
    fn written(&self) -> usize;

    /// One text word: written (`true`), or counted dropped (`false`).
    fn text<N: ResolveName>(
        &mut self,
        core: &mut LexerCore<N>,
        word: &[u8],
    ) -> Result<bool, SaxError>;

    /// One tag named `name` in form `form` (`FORM_*`), followed by its
    /// return when it self-closes; returns the items written.
    fn tag<N: ResolveName>(
        &mut self,
        core: &mut LexerCore<N>,
        name: &[u8],
        form: usize,
        self_closing: bool,
    ) -> Result<usize, SaxError>;

    /// One stage-1 pass from window offset `from` (a token boundary outside
    /// any tag) with its stage 2: at most about `budget` items written,
    /// and the text words it drops counted in `core.dropped`. An error
    /// comes back with the failing token's start, the items and dropped
    /// words before it accounted for.
    fn sweep<C: BlockClassifier, N: ResolveName, const DROP_TEXT: bool, const FILTER: bool>(
        &mut self,
        cls: C,
        core: &mut LexerCore<N>,
        tape: &mut Tape,
        data: &[u8],
        from: usize,
        budget: usize,
    ) -> Result<Swept, (SaxError, usize)>;

    /// Drops what was written past the first `len` items.
    fn truncate(&mut self, len: usize);
}

impl FillOut for Vec<TaggedSymbol> {
    const NAMES: bool = true;

    fn written(&self) -> usize {
        self.len()
    }

    #[inline(always)]
    fn text<N: ResolveName>(
        &mut self,
        core: &mut LexerCore<N>,
        word: &[u8],
    ) -> Result<bool, SaxError> {
        core.text_word(word, self)
    }

    /// Resolves both events of a self-closing tag before writing either,
    /// so a failure writes nothing.
    #[inline(always)]
    fn tag<N: ResolveName>(
        &mut self,
        core: &mut LexerCore<N>,
        name: &[u8],
        form: usize,
        self_closing: bool,
    ) -> Result<usize, SaxError> {
        let open = core.tag_event(name, form)?;
        let twin = match self_closing {
            true => Some(core.tag_event(name, FORM_RETURN)?),
            false => None,
        };
        self.push(open);
        self.extend(twin);
        Ok(1 + usize::from(self_closing))
    }

    /// Stage 1 builds the tape and stage 2 ([`emit_tape`]) resolves it.
    #[inline(always)]
    fn sweep<C: BlockClassifier, N: ResolveName, const DROP_TEXT: bool, const FILTER: bool>(
        &mut self,
        cls: C,
        core: &mut LexerCore<N>,
        tape: &mut Tape,
        data: &[u8],
        from: usize,
        budget: usize,
    ) -> Result<Swept, (SaxError, usize)> {
        let pass = cls.stage1::<DROP_TEXT>(tape, data, from, budget);
        let mut written = 0;
        if pass.tokens > 0 {
            written = emit_tape::<N, FILTER>(core, tape, data, from, pass.tokens, self).map_err(
                |(e, at)| {
                    // The text words before the failing tag were read:
                    // count them, so a lexer that resumes there counts
                    // each word once.
                    if DROP_TEXT {
                        core.dropped += tape.text_words_before(at - from);
                    }
                    (e, at)
                },
            )?;
        }
        core.dropped += pass.dropped;
        Ok(Swept {
            end: pass.end,
            scalar_until: pass.scalar_until,
            written,
        })
    }

    fn truncate(&mut self, len: usize) {
        Vec::truncate(self, len);
    }
}

/// Structure mode: no name is read, so nothing fails but the syntax.
impl FillOut for Forms {
    const NAMES: bool = false;

    fn written(&self) -> usize {
        self.events
    }

    #[inline(always)]
    fn text<N: ResolveName>(
        &mut self,
        core: &mut LexerCore<N>,
        _word: &[u8],
    ) -> Result<bool, SaxError> {
        core.dropped += 1;
        Ok(false)
    }

    #[inline(always)]
    fn tag<N: ResolveName>(
        &mut self,
        _core: &mut LexerCore<N>,
        _name: &[u8],
        form: usize,
        self_closing: bool,
    ) -> Result<usize, SaxError> {
        self.push(form == FORM_CALL);
        if self_closing {
            self.push(false);
        }
        Ok(1 + usize::from(self_closing))
    }

    /// The structure pass ([`walk_forms`]) in place of both stages: no
    /// tape, no key load, no cache probe, no event.
    #[inline(always)]
    fn sweep<C: BlockClassifier, N: ResolveName, const DROP_TEXT: bool, const FILTER: bool>(
        &mut self,
        cls: C,
        core: &mut LexerCore<N>,
        _tape: &mut Tape,
        data: &[u8],
        from: usize,
        budget: usize,
    ) -> Result<Swept, (SaxError, usize)> {
        let pass = cls.forms_pass(data, from, budget);
        *self = self.then(pass.forms);
        core.dropped += pass.words;
        Ok(Swept {
            end: pass.end,
            scalar_until: pass.scalar_until,
            written: pass.forms.events,
        })
    }

    fn truncate(&mut self, len: usize) {
        debug_assert_eq!(len, self.events, "structure mode writes no text");
    }
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
        // A control character or a non-whitespace high scalar is part of
        // the token.
        let (ws, len) = scalar_ws(data, k);
        if ws || data[k] == b'<' {
            return Some(k);
        }
        j = k + len;
    }
}

/// Bytes a directive or CDATA sweep validates ahead of what it has read,
/// per step ([`Window::grow`]).
const UTF8_SPAN: usize = 4096;

/// Validates `data` from `*valid` on to at least `to` — up to three bytes
/// more, so a scalar straddling `to` is taken whole, and less at the end of
/// `data` — moving `*valid` past the whole valid scalars found. Returns
/// whether it stopped at an invalid sequence, which then starts at
/// `*valid`. `*valid` must sit on a scalar boundary.
fn validate_to(data: &[u8], valid: &mut usize, to: usize) -> bool {
    let upto = to.saturating_add(3).min(data.len());
    if upto <= *valid {
        return false;
    }
    let (len, stop) = utf8_prefix(&data[*valid..upto]);
    *valid += len;
    matches!(stop, Utf8Stop::Invalid)
}

/// The lexer's view of its [`io::BufRead`] source: the bytes are lexed
/// where the reader's buffer holds them, and an owned window exists only
/// for a token cut by the end of one buffer.
///
/// **In place.** `data()` is the unconsumed part of the reader's current
/// `fill_buf()` buffer, so an in-memory `&[u8]` is one buffer that is never
/// copied; once a buffer is consumed whole, the next `data()` asks the
/// reader for the next one.
///
/// **Carried.** A token still undecided at the end of a buffer is copied
/// into `carry` and the buffer consumed; the reader is then `read` straight
/// into the carry's room, at least [`SCAN_CHUNK`] bytes at a time (a
/// `BufReader` hands a read that large to its source unbuffered), until the
/// carry holds the size it was asked to grow to — the lexer asks for at
/// least twice the undecided bytes, so the re-sweeps of one token stay
/// linear in its length. Lexing goes on in the carry, and `data()` goes
/// back to the reader's buffers once the carry runs out on a token
/// boundary.
///
/// **UTF-8.** `valid_to` marks how far the bytes are proven valid UTF-8:
/// by `utf8_prefix`, or by stage 1 consuming them, since a block stage 1
/// accepts as simple is all ASCII. Only stage 1 reads bytes past the mark;
/// everything else reads validated bytes only — [`text`](Self::text), or
/// the prefix the fill loop validates for the scalar arm — and extends the
/// mark with [`validate`](Self::validate), [`grow`](Self::grow) or
/// [`checked`](Self::checked). Whatever stops the
/// stream — an invalid sequence, a failed read, EOF inside a sequence — is
/// *held*: `end` becomes the offset of the last valid scalar before it,
/// `data()` ends there, and the typed error waits in `pending` until
/// lexing reaches that end. Nothing past an invalid sequence is read.
#[derive(Debug)]
struct Window<R> {
    reader: R,
    /// Unconsumed length of the reader's current buffer while lexing in
    /// place; 0 means the next `data()` asks the reader again.
    avail: usize,
    /// The owned window: `carry[start..filled]` is unread while `carrying`,
    /// and the rest is room to fill.
    carry: Vec<u8>,
    start: usize,
    filled: usize,
    carrying: bool,
    /// Absolute stream offset of `data()[0]`.
    offset: usize,
    /// Absolute offset up to which the bytes are proven valid UTF-8.
    valid_to: usize,
    /// Absolute offset where a held error ends the stream; `usize::MAX`
    /// while none is known.
    end: usize,
    /// The reader has reported its end, failed, or delivered an invalid
    /// sequence: no new buffer is asked for.
    done: bool,
    /// The held error.
    pending: Option<SaxError>,
    /// Bytes copied into the carry so far.
    carried: usize,
}

impl<R: io::BufRead> Window<R> {
    fn new(reader: R) -> Self {
        Window {
            reader,
            avail: 0,
            carry: Vec::new(),
            start: 0,
            filled: 0,
            carrying: false,
            offset: 0,
            valid_to: 0,
            end: usize::MAX,
            done: false,
            pending: None,
            carried: 0,
        }
    }

    /// The unread bytes, up to `end`: the carry's, or the reader's current
    /// buffer — asked for anew once the last one is consumed, and once the
    /// carry is.
    fn data(&mut self) -> &[u8] {
        let limit = self.end - self.offset;
        if self.carrying {
            if self.start < self.filled {
                let unread = &self.carry[self.start..self.filled];
                return &unread[..unread.len().min(limit)];
            }
            // The reader stands right after the carry's last byte.
            (self.start, self.filled, self.carrying) = (0, 0, false);
        }
        if self.avail == 0 && !self.done {
            self.avail = self.refill();
        }
        if self.avail == 0 {
            return &[];
        }
        // The buffer is not empty, so this is no read.
        match self.reader.fill_buf() {
            Ok(buf) => &buf[..self.avail.min(buf.len()).min(limit)],
            Err(e) => {
                self.pending = Some(SaxError::Io(e));
                (self.avail, self.end, self.done) = (0, self.offset, true);
                &[]
            }
        }
    }

    /// The unread bytes proven valid UTF-8: all any lexing step but stage 1
    /// may read.
    fn text(&mut self) -> &[u8] {
        let valid = self.valid_len();
        let data = self.data();
        &data[..valid.min(data.len())]
    }

    /// Unread bytes proven valid UTF-8.
    fn valid_len(&self) -> usize {
        self.valid_to - self.offset
    }

    /// Marks `n` leading bytes of `data()` consumed.
    fn consume(&mut self, n: usize) {
        self.offset += n;
        self.valid_to = self.valid_to.max(self.offset);
        if self.carrying {
            self.start += n;
        } else {
            self.reader.consume(n);
            self.avail -= n;
        }
    }

    /// Asks the reader for its next buffer, retrying interrupted reads, and
    /// returns its length; an empty one or a failure stops the reader.
    fn refill(&mut self) -> usize {
        loop {
            match self.reader.fill_buf() {
                Ok(buf) if !buf.is_empty() => return buf.len(),
                Ok(_) => self.stop(None),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => self.stop(Some(SaxError::Io(e))),
            }
            return 0;
        }
    }

    /// The reader has ended (`None`) or failed: validates what is left
    /// unread to find where lexing stops, and holds the error there — an
    /// invalid sequence first, else the failure, else `TruncatedUtf8` if
    /// the stream ends inside a sequence.
    fn stop(&mut self, failure: Option<SaxError>) {
        self.done = true;
        let n = self.data().len();
        self.validate(n);
        if self.pending.is_some() {
            return;
        }
        let valid = self.valid_to;
        self.pending = match failure {
            Some(e) => Some(e),
            None if self.valid_len() < n => Some(SaxError::TruncatedUtf8 { offset: valid }),
            None => return,
        };
        self.end = valid;
    }

    /// Validates the unread bytes on to at least `to`.
    fn validate(&mut self, to: usize) {
        let mut valid = self.valid_len();
        let invalid = validate_to(self.data(), &mut valid, to);
        self.checked(self.offset + valid, invalid);
    }

    /// Records bytes up to absolute offset `to` as valid UTF-8 and, if an
    /// invalid sequence starts there, holds its error: the stream ends at
    /// `to`.
    fn checked(&mut self, to: usize, invalid: bool) {
        self.valid_to = self.valid_to.max(to);
        if invalid {
            self.end = self.valid_to;
            self.pending = Some(SaxError::InvalidUtf8 { offset: self.end });
            self.done = true;
        }
    }

    /// Makes at least `want` bytes unread, or as many as the stream still
    /// has: the unread bytes move into the carry (unless they already are
    /// there), which the reader is then read into. Nothing moves when
    /// `data()` already holds `want`.
    fn pull(&mut self, want: usize) {
        let unread = self.data().len();
        if unread >= want || self.done {
            return;
        }
        if self.carrying {
            self.carry.copy_within(self.start..self.filled, 0);
            (self.filled, self.start) = (self.filled - self.start, 0);
        } else {
            // The buffer is not empty, so this is no read.
            let Ok(buf) = self.reader.fill_buf() else {
                return;
            };
            if self.carry.len() < unread {
                self.carry = vec![0; unread];
            }
            self.carry[..unread].copy_from_slice(&buf[..unread]);
            self.reader.consume(unread);
            (self.start, self.filled, self.avail) = (0, unread, 0);
            self.carrying = true;
            self.carried += unread;
        }
        while self.filled < want && !self.done {
            self.read_into_carry();
        }
    }

    /// Makes the carry at least `len` bytes long, keeping what it holds.
    fn room(&mut self, len: usize) {
        if self.carry.len() < len {
            let mut carry = vec![0; len.max(2 * self.carry.len())];
            carry[..self.filled].copy_from_slice(&self.carry[..self.filled]);
            self.carry = carry;
        }
    }

    /// One `read` straight into the carry's room, at least [`SCAN_CHUNK`]
    /// bytes of it.
    fn read_into_carry(&mut self) {
        self.room(self.filled + SCAN_CHUNK);
        loop {
            match self.reader.read(&mut self.carry[self.filled..]) {
                Ok(0) => self.stop(None),
                Ok(n) => {
                    self.filled += n;
                    self.carried += n;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => self.stop(Some(SaxError::Io(e))),
            }
            return;
        }
    }

    /// Extends the validated unread bytes by at least one scalar: validates
    /// further into the bytes at hand, or pulls more from the reader.
    /// `Ok(false)` is a clean end; a held error, now reached, is `Err`.
    fn grow(&mut self) -> Result<bool, SaxError> {
        let len = self.valid_len();
        loop {
            self.validate(len + UTF8_SPAN);
            if self.valid_len() > len {
                return Ok(true);
            }
            if self.done {
                return self.pending.take().map_or(Ok(false), Err);
            }
            let unread = self.data().len();
            self.pull(2 * unread);
        }
    }
}

/// The bulk lexer over one byte stream: a `Window` on the reader,
/// the name resolver, the stage-1 tape, and the lex-ahead buffer of the
/// per-event [`Iterator`] view. It is generic over the [`ResolveName`]
/// policy; [`ByteTokenizer`](crate::sax::ByteTokenizer) (interning) and
/// [`FrozenByteTokenizer`](crate::sax::FrozenByteTokenizer) (read-only
/// lookup) name its two instances, and their docs give the lexical rules.
#[derive(Debug)]
pub struct BulkLexer<R: io::BufRead, N: ResolveName> {
    window: Window<R>,
    core: LexerCore<N>,
    /// Stage 1's output, reused across passes: sized by the first fill
    /// that reads names ([`Tape::ready`]).
    tape: Tape,
    /// Events lexed ahead by [`Self::fill`] for the per-event [`Iterator`]
    /// view, drained from `ready_pos`.
    ready: Vec<TaggedSymbol>,
    ready_pos: usize,
    /// An error met while lexing ahead: surfaced after `ready` drains, i.e.
    /// in exactly the position the per-event path would have yielded it.
    pending_err: Option<SaxError>,
    /// Set after yielding an error; the lexer is fused.
    failed: bool,
    /// The forms of a split structure scan's accepted parts, in stream
    /// order, handed out by [`Self::fill_forms`] before it lexes on.
    queued: VecDeque<Forms>,
    /// Absolute offset before which no structure scan is split: the end
    /// of the buffer the last split was made in, which is not split again.
    split_from: usize,
    /// Parts of split structure scans accepted, and rejected (see
    /// [`fold_split`]).
    parts: (usize, usize),
    /// Bytes split structure scans folded, by any thread
    /// ([`Split::work`]).
    split_work: usize,
    /// Set once the lexer has scanned structure: it counts among the scans
    /// in progress ([`pool::free`]) until it is dropped.
    scanning: Option<pool::Scan>,
}

/// How many events the per-event [`Iterator`] view lexes ahead per
/// [`BulkLexer::fill`] call: large enough to amortize the refill, small
/// enough (4 bytes per event) to stay cache-resident.
const ITER_BATCH: usize = 1024;

/// What one [`step_token`] call did with the window.
enum StepOutcome {
    /// One token was lexed — its event (plus a self-closing tag's return)
    /// emitted, or a text word dropped; the cursor is now at the contained
    /// position.
    Emitted(usize),
    /// The next token cannot be decided inside the window: it may continue
    /// past the window's end, or it is a directive. Consume up to the
    /// contained position and let the caller skip the directive or grow the
    /// window.
    Window(usize),
    /// The token starting at the contained position failed (consume up to
    /// there, then surface the error).
    Fail(SaxError, usize),
}

/// One scalar token step: skip inter-token whitespace from `pos`, then
/// classify and emit the next token if it completes inside `data` (bytes
/// proven valid UTF-8, so every scalar it decodes is whole), charging
/// `budget` per event written (a text word the projection drops is read
/// and counted, not charged). With `eof` the window's end is the stream's
/// end: a text word ends there, and an open `<…` is an unterminated tag.
///
/// This is the scanner's one token rule besides the tape. It lexes every
/// token stage 1 could not prove simple and the short window tail, and —
/// re-run on a grown window — every token cut by the window's end, with the
/// word-at-a-time sweeps of [`find_tag_close`] / [`find_text_end`] and the
/// tag classifier [`tag_parts`]. In structure mode (`out` a [`Forms`]) it
/// runs the same sweeps and checks and only skips resolving the name.
#[inline(always)]
fn step_token<N: ResolveName, O: FillOut>(
    core: &mut LexerCore<N>,
    data: &[u8],
    base: usize,
    pos: usize,
    eof: bool,
    out: &mut O,
    budget: &mut usize,
) -> StepOutcome {
    let n = data.len();
    // Inter-token whitespace — usually none or one byte.
    let pos = run_end(data, pos, true);
    if pos == n {
        return StepOutcome::Window(n);
    }
    if data[pos] != b'<' {
        let end = match find_text_end(data, pos) {
            Some(end) => end,
            None if eof => n,
            None => return StepOutcome::Window(pos),
        };
        match out.text(core, &data[pos..end]) {
            Ok(written) => *budget -= usize::from(written),
            Err(e) => return StepOutcome::Fail(e, pos),
        }
        return StepOutcome::Emitted(end);
    }
    // A tag the window cuts: undecided, or unterminated at the stream's end.
    let cut = || {
        if eof {
            StepOutcome::Fail(parse_error(base + pos, "unterminated tag"), pos)
        } else {
            StepOutcome::Window(pos)
        }
    };
    let lead = match data.get(pos + 1) {
        // Directives are rare and stateful: the caller skips them.
        Some(b'!' | b'?') => return StepOutcome::Window(pos),
        Some(&lead) => lead,
        None => return cut(),
    };
    let body_at = if lead == b'/' { pos + 2 } else { pos + 1 };
    let Some((gt, simple)) = find_tag_close(data, body_at) else {
        return cut();
    };
    let (name, form, self_closing) = if simple && gt > body_at {
        // `</name>` and `<name>` with nothing but name material between the
        // brackets skip the classifier: the sweep's simple verdict
        // certifies the slice is the name.
        let form = if lead == b'/' { FORM_RETURN } else { FORM_CALL };
        (&data[body_at..gt], form, false)
    } else {
        match tag_parts(&data[pos + 1..gt], base + pos) {
            Ok(parts) => parts,
            Err(e) => return StepOutcome::Fail(e, pos),
        }
    };
    match out.tag(core, name, form, self_closing) {
        Ok(written) => *budget = budget.saturating_sub(written),
        Err(e) => return StepOutcome::Fail(e, pos),
    }
    StepOutcome::Emitted(gt + 1)
}

impl<R: io::BufRead, N: ResolveName> BulkLexer<R, N> {
    /// Creates a lexer over a byte stream, resolving symbol names through
    /// `names`: `&mut Alphabet` interns them, `&Alphabet` looks them up
    /// read-only, and a [`Projection`](crate::sax::Projection) looks them
    /// up and drops the text words its artifact marks inert. Each buffer
    /// `reader` lends is lexed in place: pass an in-memory `&[u8]` as is,
    /// and a file or a socket behind a `BufReader` of [`SCAN_CHUNK`]
    /// bytes.
    pub fn new(reader: R, names: N) -> Self {
        BulkLexer {
            window: Window::new(reader),
            core: LexerCore::new(names),
            tape: Tape::empty(),
            ready: Vec::new(),
            ready_pos: 0,
            pending_err: None,
            failed: false,
            queued: VecDeque::new(),
            split_from: 0,
            parts: (0, 0),
            split_work: 0,
            scanning: None,
        }
    }

    /// Text words read so far that the policy's projection dropped instead
    /// of emitting; always 0 for the alphabet policies. Tokens read are
    /// the events emitted plus this count.
    pub fn dropped(&self) -> usize {
        self.core.dropped
    }

    /// Bytes copied into the owned window so far: the tokens cut by the
    /// end of a `fill_buf` buffer, and what was read into the window after
    /// them.
    /// An in-memory `&[u8]` is one buffer, so it carries only a text word
    /// (or a truncated tag or scalar) that ends the stream: only the next
    /// `fill_buf` can say that nothing follows it.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn carried(&self) -> usize {
        self.window.carried
    }

    /// Parts of split structure scans so far: those accepted, and those
    /// rejected — a part that failed, and every part after it, which the
    /// lexer then reads again in sequence ([`fold_split`]).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn parts(&self) -> (usize, usize) {
        self.parts
    }

    /// Bytes this lexer's split structure scans have folded so far, on
    /// the calling thread and on helpers: the work the splits spent, parts
    /// they threw away included.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn split_work(&self) -> usize {
        self.split_work
    }

    /// Narrows the lexer to drop-all for the rest of the stream: from the
    /// next [`fill`](Self::fill) on, text words are counted in
    /// [`dropped`](Self::dropped) but never resolved or emitted, and only
    /// tags reach the tape. One-way. `queries::for_each_slice` calls it
    /// once its consumer can no longer be moved by a text word.
    pub(crate) fn narrow_to_tags(&mut self) {
        self.core.text = TextMode::DropAll;
    }

    /// Narrows the lexer to **structure** for the rest of the stream: from
    /// here on the caller lexes with [`fill_forms`](Self::fill_forms),
    /// which reads no name. One-way, and it implies drop-all. If the lexer
    /// fused on a tag whose name the policy could not resolve, it resumes
    /// at that same tag, which is then read by form alone: the name was
    /// never needed. Returns whether the lexer can go on, i.e. is not
    /// fused on any other error. `queries::for_each_slice` calls it once
    /// its consumer can no longer be moved by any name.
    pub(crate) fn narrow_to_structure(&mut self) -> bool {
        self.narrow_to_tags();
        if self.failed && self.core.tag_miss {
            self.failed = false;
        }
        self.core.tag_miss = false;
        !self.failed
    }

    /// Ensures at least `pos + 1` unread validated bytes are windowed;
    /// `false` means the stream ends first.
    fn ensure(&mut self, pos: usize) -> Result<bool, SaxError> {
        while self.window.valid_len() <= pos {
            if !self.window.grow()? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    fn peek_byte(&mut self) -> Result<Option<u8>, SaxError> {
        if self.ensure(0)? {
            Ok(Some(self.window.text()[0]))
        } else {
            Ok(None)
        }
    }

    /// Lexes events in bulk into `out` until roughly `max` are buffered or
    /// the stream ends — the slice-producing entry the bytes-in →
    /// verdict-out pipeline feeds to the engines' bulk stepping (behind
    /// `queries::run_streaming_reader`), and the source of the per-event
    /// iterator. `max` bounds the events *written*: text words a projection
    /// drops are read past without counting against it, so a call that
    /// appends nothing means the stream has ended.
    ///
    /// The hot loop sweeps the *current* window with a local cursor: no
    /// per-event `Result` plumbing, no window bookkeeping, no method
    /// dispatch — one `consume` per window, not per token. Only a directive
    /// or a token cut by the window's end leaves that loop: directives are
    /// skipped as they stream past, and a cut token sends the window off to
    /// grow before the same token step runs on it again.
    ///
    /// Events lexed before an error stay in `out` (in emission order) when
    /// `Err` is returned — callers either discard them (the error is the
    /// outcome) or, like the draining iterator, hand them out before
    /// surfacing the error, which is exactly the per-event emission order.
    ///
    /// The lexer is fused at the first error: every later call appends
    /// nothing and returns `Ok`, so a caller looping on `fill` can never
    /// read on past a corrupt byte as if the document continued.
    pub fn fill(&mut self, out: &mut Vec<TaggedSymbol>, max: usize) -> Result<(), SaxError> {
        let filled = self.fill_events(out, max);
        if filled.is_err() {
            self.failed = true;
        }
        filled
    }

    /// [`fill`](Self::fill) in structure mode (see
    /// [`narrow_to_structure`](Self::narrow_to_structure)): folds the form
    /// of every tag lexed into `forms` until `forms.events` reaches about
    /// `max` or the stream ends, and counts every text word dropped. The
    /// structure pass ([`walk_forms`]) replaces both stages: it classifies
    /// as drop-all's stage 1 does and folds each tag's form as it goes, with
    /// no tape. The scalar arm and the directives keep every syntax check;
    /// only names are
    /// never resolved, so no name can fail. The forms of the tags lexed
    /// before an error stay in `forms`, and the lexer fuses as `fill` does.
    ///
    /// While it lexes in place, a rest of at least `2 · MIN_PART` bytes is
    /// folded on every free core at once ([`fold_split`]): the first call
    /// folds what it can of it and queues its forms, and each call hands
    /// out about `max` events of them before it lexes on.
    pub(crate) fn fill_forms(&mut self, forms: &mut Forms, max: usize) -> Result<(), SaxError> {
        self.fill_forms_split(forms, max, None, MIN_PART)
    }

    /// [`fill_forms`](Self::fill_forms), splitting a rest of at least `2 ·
    /// min_part` unconsumed bytes into `parts` parts on as many threads, or
    /// as [`split_rest`](Self::split_rest) picks when `None`.
    pub(crate) fn fill_forms_split(
        &mut self,
        forms: &mut Forms,
        max: usize,
        parts: Option<usize>,
        min_part: usize,
    ) -> Result<(), SaxError> {
        debug_assert!(
            self.ready_pos == self.ready.len(),
            "no event lexed ahead is pending"
        );
        self.scanning.get_or_insert_with(pool::Scan::start);
        if self.queued.is_empty() && !self.failed {
            self.split_rest(max, parts, min_part);
        }
        while let Some(&next) = self.queued.front() {
            if forms.events > 0 && forms.events + next.events > max {
                return Ok(());
            }
            *forms = forms.then(next);
            self.queued.pop_front();
        }
        let filled = self.fill_into(forms, max);
        if filled.is_err() {
            self.failed = true;
        }
        filled
    }

    /// Folds the rest of the reader's current buffer at once ([`fold_split`])
    /// when lexing in place with at least `2 · min_part` bytes left, past
    /// `split_from`: in `parts` parts, open to `parts − 1` helpers, if
    /// `Some`; else in parts of [`CLAIM_BYTES`], open to one helper per
    /// `min_part` bytes beyond the first, up to the helpers that are free
    /// ([`pool::free`]). While other scans hold every core, or after splits
    /// that did not pay ([`pool::Backoff`]), the buffer is not split;
    /// while only helpers are busy, with parts they will soon finish, the
    /// next call asks again. Consumes what the accepted parts read, counts
    /// their text words, and queues their forms. A buffer is split once:
    /// what the split leaves, after its last accepted part, is lexed in
    /// sequence, so a buffer whose cuts keep landing inside comments or
    /// CDATA sections costs at most one wasted split.
    fn split_rest(&mut self, max: usize, parts: Option<usize>, min_part: usize) {
        // Asks for the next buffer if need be, so `carrying` is current.
        self.window.data();
        if self.window.carrying || self.window.offset < self.split_from {
            return;
        }
        let base = self.window.offset;
        let data = self.window.data();
        let by_size = data.len() / min_part.max(1);
        if by_size < 2 {
            return;
        }
        let forced = parts.is_some();
        let (parts, threads) = match parts {
            Some(parts) => (parts.min(by_size), parts.min(by_size)),
            None => match pool::free() {
                // Every helper is still busy with other parts; they finish
                // soon, so the next call asks again.
                Some(0) => return,
                Some(free) if !pool::BACKOFF.skip() => {
                    (data.len() / CLAIM_BYTES, (1 + free).min(by_size))
                }
                // Other scans hold every core, or the last splits did not
                // pay ([`pool::Backoff`]): this buffer stays sequential.
                _ => {
                    self.split_from = base + data.len();
                    return;
                }
            },
        };
        if threads < 2 {
            return;
        }
        self.split_from = base + data.len();
        let split = fold_split(data, max.max(1), parts, threads, Fault::None);
        if !forced {
            pool::BACKOFF.record(split.paid());
        }
        self.window.consume(split.end);
        self.core.dropped += split.words;
        self.queued.extend(split.forms);
        self.parts.0 += split.accepted;
        self.parts.1 += split.rejected;
        self.split_work += split.work;
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
        self.fill_into(out, max)
    }

    /// The window loop of [`Self::fill`] and [`Self::fill_forms`].
    fn fill_into<O: FillOut>(&mut self, out: &mut O, max: usize) -> Result<(), SaxError> {
        if self.failed {
            return Ok(());
        }
        loop {
            let Some(cut) = self.fill_window(out, max)? else {
                return Ok(());
            };
            // `fill_window` consumed everything before the token it could
            // not decide, which spans the `cut` bytes left.
            if let [b'<', lead @ (b'!' | b'?'), ..] = *self.window.text() {
                let tag_start = self.window.offset;
                self.window.consume(2);
                self.lex_directive(tag_start, lead, out)?;
            } else if self.window.done {
                // The stream has stopped: at a clean end nothing is left,
                // otherwise the error it stopped on is reached now.
                return self.window.pending.take().map_or(Ok(()), Err);
            } else {
                // A token cut by the end of the bytes at hand: pull until
                // they at least double (nothing moves if lexing is back in
                // the reader's buffer, which holds that much already), then
                // step the same token again. Doubling keeps the re-sweeps
                // of one token linear in its length, whatever the buffer
                // size; an error met while pulling waits until the tokens
                // before it are out.
                self.window.pull((2 * cut).max(1));
            }
        }
    }

    /// The register-resident sweep of [`Self::fill`] over the bytes at
    /// hand, on the [`scan_backend`]-selected stage-1 kernel: emits every
    /// event that completes inside them, consumes exactly the bytes of the
    /// events emitted, and returns `Ok(None)` when `out` reached `max`, or
    /// hands the caller the undecided token as `Ok(Some(bytes))`, the bytes
    /// left from its start.
    fn fill_window<O: FillOut>(
        &mut self,
        out: &mut O,
        max: usize,
    ) -> Result<Option<usize>, SaxError> {
        if !O::NAMES {
            return self.fill_window_on::<O, true, false>(out, max);
        }
        self.core.ready();
        self.tape.ready();
        match self.core.text {
            TextMode::EmitAll => self.fill_window_on::<O, false, false>(out, max),
            TextMode::KeepBit => self.fill_window_on::<O, false, true>(out, max),
            TextMode::DropAll => self.fill_window_on::<O, true, false>(out, max),
        }
    }

    /// [`Self::fill_window`] with the text mode fixed at compile time —
    /// `DROP_TEXT` for drop-all and structure, `FILTER` for keep-bit —
    /// dispatched on the backend.
    fn fill_window_on<O: FillOut, const DROP_TEXT: bool, const FILTER: bool>(
        &mut self,
        out: &mut O,
        max: usize,
    ) -> Result<Option<usize>, SaxError> {
        match scan_backend() {
            #[cfg(target_arch = "x86_64")]
            ScanBackend::Avx2 => {
                if let Some(kernel) = kernel::Avx2::detect() {
                    return self.fill_window_with::<_, O, DROP_TEXT, FILTER>(kernel, out, max);
                }
            }
            #[cfg(target_arch = "x86_64")]
            ScanBackend::Avx512 => {
                if let Some(kernel) = kernel::Avx512::detect() {
                    return self.fill_window_with::<_, O, DROP_TEXT, FILTER>(kernel, out, max);
                }
            }
            #[cfg(target_arch = "aarch64")]
            ScanBackend::Neon => {
                return self.fill_window_with::<_, O, DROP_TEXT, FILTER>(
                    kernel::Neon::new(),
                    out,
                    max,
                )
            }
            _ => {}
        }
        self.fill_window_with::<_, O, DROP_TEXT, FILTER>(kernel::Swar, out, max)
    }

    /// The one window-fill loop: stage-1 passes build the tape and stage 2
    /// emits it, while the scalar arm ([`step_token`]) lexes what a pass
    /// could not prove simple — one token per step, up to the end of the
    /// rejected block — and the short tail of the bytes at hand. The budget
    /// counts events written, so a run of dropped text words never ends the
    /// fill early.
    ///
    /// Stage 1 reads the bytes unvalidated: a block it accepts as simple is
    /// all ASCII, so what it consumes needs no other proof. The scalar arm
    /// reads only validated bytes: on entry it validates from where it
    /// starts through the block stage 1 rejected (or to the end of the
    /// bytes at hand), and a token cut by the validated end is stepped
    /// again once the validation has reached at least twice as far. An
    /// invalid sequence ends the bytes the scalar arm sees, and is held
    /// until lexing reaches it.
    fn fill_window_with<
        C: BlockClassifier,
        O: FillOut,
        const DROP_TEXT: bool,
        const FILTER: bool,
    >(
        &mut self,
        cls: C,
        out: &mut O,
        max: usize,
    ) -> Result<Option<usize>, SaxError> {
        let base = self.window.offset;
        let mut valid = self.window.valid_len();
        // Asks for the next buffer if need be, so `done` is current: do the
        // bytes at hand end where the stream ends cleanly?
        self.window.data();
        let eof = self.window.done && self.window.pending.is_none();
        let data: &[u8] = self.window.data();
        let n = data.len();
        let mut invalid = false;
        let mut pos = 0usize;
        // Counted down instead of re-reading `out.len()` every event.
        let mut budget = max.saturating_sub(out.written());
        let mut scalar_until = 0usize;
        let outcome = loop {
            if budget == 0 {
                break Ok(None);
            }
            if pos >= scalar_until {
                let swept = out.sweep::<C, N, DROP_TEXT, FILTER>(
                    cls,
                    &mut self.core,
                    &mut self.tape,
                    data,
                    pos,
                    budget,
                );
                match swept {
                    Ok(swept) => {
                        scalar_until = swept.scalar_until;
                        if swept.end > 0 {
                            budget = budget.saturating_sub(swept.written);
                            pos += swept.end;
                            continue;
                        }
                    }
                    Err((e, at)) => {
                        pos = at;
                        break Err(e);
                    }
                }
            }
            // Stage 1 proved everything before `pos` ASCII.
            valid = valid.max(pos);
            if !invalid && valid < scalar_until.min(n) {
                invalid = validate_to(data, &mut valid, scalar_until);
            }
            let clean_end = eof && valid == n;
            match step_token(
                &mut self.core,
                &data[..valid],
                base,
                pos,
                clean_end,
                out,
                &mut budget,
            ) {
                StepOutcome::Emitted(next) => pos = next,
                StepOutcome::Window(at) => {
                    pos = at;
                    let directive = matches!(data[at..valid], [b'<', b'!' | b'?', ..]);
                    if !directive && !invalid && valid < n {
                        let seen = valid;
                        invalid = validate_to(data, &mut valid, seen + (seen - at).max(BLOCK));
                        if valid > seen {
                            continue;
                        }
                    }
                    break Ok(Some(n - at));
                }
                StepOutcome::Fail(e, at) => {
                    pos = at;
                    break Err(e);
                }
            }
        };
        self.window.checked(base + valid, invalid);
        self.window.consume(pos);
        outcome
    }

    /// Skips or lexes one directive, with the window cursor just past the
    /// consumed `<!` or `<?` (`lead` is the second byte); a CDATA section's
    /// words go to `out`. The quirky corners are deliberate (and pinned by
    /// the differential oracle): `<!-` with no second dash falls through to
    /// the bracket scan, and a partial `CDATA[` marker leaves the consumed
    /// `[` as one open bracket level.
    fn lex_directive<O: FillOut>(
        &mut self,
        tag_start: usize,
        lead: u8,
        out: &mut O,
    ) -> Result<(), SaxError> {
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
                return self.lex_cdata(tag_start, out);
            }
            // Not CDATA (e.g. a DTD conditional section): the consumed `[`
            // opened one bracket level; fall through to the scan.
            depth = 1;
        }
        self.scan_doctype(tag_start, depth)
    }

    /// Sweeps a comment body to its `-->` terminator, consuming as it goes
    /// — only a trailing-dash count crosses chunk seams, so a comment of
    /// any length never grows the window.
    fn scan_comment(&mut self, tag_start: usize) -> Result<(), SaxError> {
        let mut dashes = 0usize;
        loop {
            let data = self.window.text();
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
                return Err(parse_error(tag_start, "unterminated directive"));
            }
        }
    }

    /// Sweeps a processing instruction to its `?>` terminator; only the
    /// previous-byte-was-`?` flag crosses seams.
    fn scan_pi(&mut self, tag_start: usize) -> Result<(), SaxError> {
        let mut prev_question = false;
        loop {
            let data = self.window.text();
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
                return Err(parse_error(tag_start, "unterminated directive"));
            }
        }
    }

    /// Sweeps a declaration to the first `>` outside a `[ … ]` internal
    /// subset (DOCTYPEs with entity declarations inside); only the bracket
    /// depth crosses seams.
    fn scan_doctype(&mut self, tag_start: usize, mut depth: usize) -> Result<(), SaxError> {
        loop {
            let data = self.window.text();
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
                return Err(parse_error(tag_start, "unterminated directive"));
            }
        }
    }

    /// Lexes a CDATA section, with the cursor just past `<![CDATA[`: one
    /// sweep to the `]]>` terminator, then the content's whitespace-separated
    /// words go straight into `out` as text words, under the projection
    /// like any other. Unlike the other directives the content is needed
    /// whole — a resolution failure truncates the section's words off `out`
    /// again (and un-counts its dropped ones), so nothing is half-emitted —
    /// so the sweep grows the window instead of consuming.
    fn lex_cdata<O: FillOut>(&mut self, tag_start: usize, out: &mut O) -> Result<(), SaxError> {
        let mut pos = 0usize;
        let end = 'scan: loop {
            let data = self.window.text();
            let n = data.len();
            while pos < n {
                if data[pos] == b'>' && pos >= 2 && data[pos - 1] == b']' && data[pos - 2] == b']' {
                    break 'scan pos - 2;
                }
                pos += 1;
            }
            if !self.window.grow()? {
                return Err(parse_error(tag_start, "unterminated CDATA section"));
            }
        };
        let content = &self.window.text()[..end];
        let (mark, dropped) = (out.written(), self.core.dropped);
        let mut word = run_end(content, 0, true);
        while word < content.len() {
            let word_end = run_end(content, word, false);
            if let Err(e) = out.text(&mut self.core, &content[word..word_end]) {
                out.truncate(mark);
                self.core.dropped = dropped;
                return Err(e);
            }
            word = run_end(content, word_end, true);
        }
        self.window.consume(end + 3);
        Ok(())
    }
}

// --------------------------------------------------------------------------
// A settled in-memory scan, folded on every core
// --------------------------------------------------------------------------

/// The fewest bytes per thread of a split structure scan: a rest is split
/// only when it holds two, and keeps one helper busy per `MIN_PART` beyond
/// the first, up to the helpers that are free. The AVX2 structure scan reads
/// ~0.3 ms per MiB, while on a shared 2-vCPU KVM host a sleeping helper
/// woke 8–58 µs after a split was published at the median but up to 0.6 ms
/// at p90: below about 1 MiB a helper often wakes with little left to
/// claim.
const MIN_PART: usize = 1 << 20;

/// Bytes of one part of a split structure scan. The calling thread claims
/// parts front to back while its helpers claim them from the back, one
/// part at a time, and the calling thread waits at the end for the parts
/// a helper still holds, so a smaller part shortens that wait; but each
/// part also costs a fresh lexer and a claim. On a shared 2-vCPU KVM host
/// (perfbench `stream_1q`, the 3.7 MB document, alternating 10 s runs),
/// 256 KiB parts read 2336 and 2360 MB/s at the median, 128 KiB 2323 and
/// 2322, and 64 KiB 2159: the wait, 36–198 µs per split in a probe, does
/// not pay for the parts that halving the size adds.
const CLAIM_BYTES: usize = 256 << 10;

/// A split whose helpers folded under one in `HELPED_SHARE` of its parts
/// did not pay ([`Split::paid`]).
const HELPED_SHARE: usize = 8;

/// The name policy of a part lexer: a structure scan resolves no name, so
/// it is never asked.
struct Unnamed;

impl ResolveName for Unnamed {
    fn resolve(&mut self, _name: &str) -> Result<Symbol, NestedWordError> {
        unreachable!("a structure scan resolves no name")
    }

    fn text_mode(&self) -> TextMode {
        TextMode::DropAll
    }
}

/// The helper threads of split structure scans: one per core beyond the
/// first, started on the first split and kept for the life of the process,
/// each claiming parts of the splits every scan in the process publishes
/// and folding them where they lie ([`lend`]).
///
/// Helpers are persistent, not scoped threads started per split: on a
/// shared 2-vCPU KVM host a new scoped helper started 0.23 ms after its
/// spawn at the median and 5.7 ms at p99 (200 passes), which doubled the
/// p99 latency of `stream_1q`. A persistent helper that is late only
/// claims fewer parts: the calling thread claims the rest itself and
/// waits only for the parts a helper holds.
///
/// A scan splits only while a core is free ([`free`]): one that starts
/// while other scans and helpers keep every core busy stays sequential,
/// so concurrent scans do not wake a helper to compete with another scan
/// for a core, and a helper stops claiming parts once the scans in
/// progress and the busy helpers hold every core ([`crowded`]). With two
/// callers scanning the 3.7 MB document on a 2-vCPU host, counting only
/// busy helpers read 8–17% fewer passes per second than the sequential
/// scan, with 2.4× the p99. Splits that did not pay make the next ones
/// back off ([`Backoff`]).
mod pool {
    use super::lend::Lent;
    use std::num::NonZeroUsize;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};

    /// Splits open to the helpers, each with the helpers it still seats.
    static OPEN: Mutex<Vec<(Arc<Lent>, usize)>> = Mutex::new(Vec::new());
    static READY: Condvar = Condvar::new();
    static HELPERS: OnceLock<usize> = OnceLock::new();
    /// Helpers working on a split, in the whole process.
    static BUSY: AtomicUsize = AtomicUsize::new(0);
    /// Structure scans in progress in the whole process: lexers that have
    /// folded structure and are not yet dropped.
    static SCANS: AtomicUsize = AtomicUsize::new(0);

    /// Whether to skip splits after ones that did not pay
    /// ([`Split::paid`](super::Split::paid)): after `r` such splits in a
    /// row, the next `2^r − 1` (at most 63) that could run are skipped.
    /// Every split of a feed whose CDATA sections hold HTML may land a cut
    /// inside one and waste a part, and while another process keeps the
    /// other cores busy the helpers fold little; either way the scans then
    /// pay for a split only now and then, while one split that did not pay
    /// among splits that did costs one skipped split.
    pub(super) struct Backoff {
        /// Splits still to skip.
        skip: AtomicUsize,
        /// Splits in a row that did not pay.
        unpaid: AtomicUsize,
    }

    impl Backoff {
        pub(super) const fn new() -> Backoff {
            Backoff {
                skip: AtomicUsize::new(0),
                unpaid: AtomicUsize::new(0),
            }
        }

        /// Whether to skip a split that could run now.
        pub(super) fn skip(&self) -> bool {
            self.skip
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                .is_ok()
        }

        /// Records whether a split that ran paid.
        pub(super) fn record(&self, paid: bool) {
            if paid {
                self.unpaid.store(0, Ordering::Relaxed);
            } else {
                let run = self.unpaid.fetch_add(1, Ordering::Relaxed) + 1;
                self.skip.store((1 << run.min(6)) - 1, Ordering::Relaxed);
            }
        }
    }

    /// The process's [`Backoff`], shared by every scan.
    pub(super) static BACKOFF: Backoff = Backoff::new();

    /// A structure scan in progress, counted until it is dropped.
    #[derive(Debug)]
    pub(super) struct Scan;

    impl Scan {
        pub(super) fn start() -> Scan {
            SCANS.fetch_add(1, Ordering::Release);
            Scan
        }
    }

    impl Drop for Scan {
        fn drop(&mut self) {
            SCANS.fetch_sub(1, Ordering::Release);
        }
    }

    /// The helpers a scan may use: the cores (the helpers and the first
    /// core) less the threads already busy — the structure scans in
    /// progress, the asking one included, and the helpers working on a
    /// split — or `None` when the scans alone hold every core. Two scans
    /// that ask at once may both see the same core free; the helper then
    /// claims parts of one and the other folds its parts itself.
    pub(super) fn free() -> Option<usize> {
        let cores = helpers() + 1;
        let scans = SCANS.load(Ordering::Acquire);
        if scans >= cores {
            return None;
        }
        Some((cores - scans).saturating_sub(BUSY.load(Ordering::Acquire)))
    }

    /// Whether a busy helper should stop claiming parts: the structure
    /// scans in progress and the other busy helpers hold every core.
    pub(super) fn crowded() -> bool {
        SCANS.load(Ordering::Acquire) + BUSY.load(Ordering::Acquire) > helpers() + 1
    }

    /// The helpers running, started on the first call: one per core beyond
    /// the first (`available_parallelism()`, asked once: it reads cgroup
    /// files), none on a 1-CPU host.
    pub(super) fn helpers() -> usize {
        *HELPERS.get_or_init(|| {
            let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
            (1..cores)
                .filter(|_| {
                    std::thread::Builder::new()
                        .name("nwa-scan-helper".into())
                        .spawn(help)
                        .is_ok()
                })
                .count()
        })
    }

    /// Opens `lent` to up to `seats` helpers.
    pub(super) fn publish(lent: &Arc<Lent>, seats: usize) {
        if seats == 0 {
            return;
        }
        OPEN.lock()
            .expect("the open splits are never locked across a panic")
            .push((Arc::clone(lent), seats));
        READY.notify_all();
    }

    /// Closes `lent` to helpers that have not taken a seat on it. Called
    /// while a lend ends, on unwind too, so it neither panics nor gives up
    /// on a poisoned lock: every update leaves the list valid.
    pub(super) fn withdraw(lent: &Lent) {
        OPEN.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .retain(|(open, _)| !std::ptr::eq(&**open, lent));
    }

    /// A helper's loop: take a seat on a split with parts unclaimed, fold
    /// parts of it while the cores allow ([`super::help_split`]), and
    /// look for the next.
    fn help() {
        loop {
            let lent = {
                let mut open = OPEN
                    .lock()
                    .expect("the open splits are never locked across a panic");
                loop {
                    let seat = open
                        .iter_mut()
                        .find(|(lent, seats)| *seats > 0 && lent.unclaimed());
                    if let Some((lent, seats)) = seat {
                        *seats -= 1;
                        BUSY.fetch_add(1, Ordering::AcqRel);
                        break Arc::clone(lent);
                    }
                    open = READY
                        .wait(open)
                        .expect("the open splits are never locked across a panic");
                }
            };
            // A fold that panics has released its claim while unwinding,
            // and the lender folds that part itself: the helper lives on.
            let _ =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| super::help_split(&lent)));
            BUSY.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

/// A fault a test injects into a split's helpers, between a claim and its
/// fold.
#[derive(Clone, Copy, Debug)]
enum Fault {
    /// Outside tests, the only one.
    None,
    /// The helper sleeps, so the lender reaches its wait.
    #[cfg(test)]
    Slow(std::time::Duration),
    /// The helper's fold panics.
    #[cfg(test)]
    Panic,
}

/// What one part of a split structure scan read.
struct Part {
    /// Its forms, in chunks of about `max` events.
    forms: Vec<Forms>,
    /// Its text words.
    words: usize,
}

/// Folds `bytes` with a fresh structure lexer whose stream ends where
/// `bytes` do, in chunks of about `max ≥ 1` events; `None` on any error.
/// A token cut by the end of `bytes` is an error there — an unterminated
/// tag, directive or CDATA section, or a truncated scalar — so `Some` from
/// a part that starts on a token boundary proves that its end is one too.
fn fold_part(bytes: &[u8], max: usize) -> Option<Part> {
    let mut lexer = BulkLexer::new(bytes, Unnamed);
    let mut forms = Vec::new();
    loop {
        let mut chunk = Forms::default();
        lexer.fill_into(&mut chunk, max).ok()?;
        if chunk.events == 0 {
            return Some(Part {
                forms,
                words: lexer.core.dropped,
            });
        }
        forms.push(chunk);
    }
}

/// A helper's share of a split: claims parts from the back and folds them
/// in place until none is left, a part has failed, or the cores are
/// crowded ([`pool::crowded`]).
fn help_split(lent: &lend::Lent) {
    while !pool::crowded() {
        let Some(claim) = lent.claim_back() else {
            return;
        };
        match lent.fault {
            Fault::None => {}
            #[cfg(test)]
            Fault::Slow(pause) => std::thread::sleep(pause),
            #[cfg(test)]
            Fault::Panic => panic!("a fault injected into a helper's fold"),
        }
        let part = fold_part(claim.bytes(), lent.max);
        claim.finish(part);
    }
}

/// What [`fold_split`] read of its bytes.
#[derive(Default)]
struct Split {
    /// Bytes the accepted parts read, from the start: a token boundary.
    end: usize,
    /// The accepted parts' forms, in stream order.
    forms: Vec<Forms>,
    /// The accepted parts' text words.
    words: usize,
    /// Parts accepted, and rejected.
    accepted: usize,
    rejected: usize,
    /// Accepted parts a helper folded.
    helped: usize,
    /// Bytes folded, by any thread.
    work: usize,
    /// Claims helpers still held when the split returned.
    #[cfg(test)]
    held: usize,
    /// Parts a helper's panicking fold left to the calling thread.
    #[cfg(test)]
    refolded: usize,
}

impl Split {
    /// Whether the split paid for itself: no part was rejected, and the
    /// helpers folded at least [`HELPED_SHARE`] of the parts — on a host
    /// whose other cores are busy elsewhere they fold few or none, and the
    /// calling thread folds the parts alone.
    fn paid(&self) -> bool {
        self.rejected == 0 && self.helped * HELPED_SHARE >= self.accepted
    }
}

/// The parts a split of `data` — the rest of a buffer, from a token
/// boundary outside any tag — into at most `parts` parts folds: part `k`
/// starts at the first `<` at or after `k · len / parts`, and the last
/// ends at the last `<` of `data`, from where the caller lexes on in
/// sequence. `None` below two parts.
fn cut(data: &[u8], parts: usize) -> Option<Vec<(usize, usize)>> {
    let last = data.iter().rposition(|&b| b == b'<')?;
    let mut bounds = vec![0];
    for k in 1..parts {
        let at = k * data.len() / parts;
        let next = data
            .get(at..last)
            .and_then(|s| s.iter().position(|&b| b == b'<'));
        bounds.extend(next.map(|i| at + i));
    }
    bounds.push(last);
    bounds.dedup();
    (bounds.len() >= 3).then(|| bounds.windows(2).map(|w| (w[0], w[1])).collect())
}

/// Splits `data` ([`cut`]) and folds its parts ([`fold_part`]) where they
/// lie ([`lend`]): the calling thread claims them front to back while up to
/// `threads − 1` helpers ([`pool`]) claim them from the back, so each part
/// is folded once, and the calling thread then waits only for the parts a
/// helper still holds. A part that a helper's panicking fold left behind is
/// folded here. The parts are joined in order.
///
/// A cut is only a guess at a token boundary (a `<` may sit in a comment,
/// a CDATA section or a quoted value), so it is verified: a part is
/// accepted iff it folded without error and every part before it was
/// accepted, which proves that it started on a token boundary and ends on
/// one. The first part not accepted and every part after it are rejected,
/// and the caller lexes them again in sequence, so errors and their
/// offsets are those of the sequential scan. Once a part is known to have
/// failed no part is claimed on either side, so a split wastes at most one
/// part per thread beyond the parts folded before the failure was known.
fn fold_split(data: &[u8], max: usize, parts: usize, threads: usize, fault: Fault) -> Split {
    let Some(ranges) = cut(data, parts) else {
        return Split::default();
    };
    let (mine, lent) = lend::lend(data, ranges, max, fault, |lent| {
        pool::publish(lent, threads - 1);
        let mut mine = Vec::new();
        while let Some(k) = lent.claim_front() {
            let (from, to) = lent.range(k);
            let part = fold_part(&data[from..to], max);
            let failed = part.is_none();
            mine.push(part);
            if failed {
                lent.close();
            }
        }
        mine
    });
    // The calling thread claimed parts `0..mine.len()`.
    let mut folded: Vec<Option<Option<Part>>> = mine.into_iter().map(Some).collect();
    folded.resize_with(lent.parts(), || None);
    let mut helped = vec![false; lent.parts()];
    for (k, part) in lent.take_folded() {
        folded[k] = Some(part);
        helped[k] = true;
    }
    let len = |k: usize| lent.range(k).1 - lent.range(k).0;
    let mut split = Split {
        work: (0..folded.len())
            .filter(|&k| folded[k].is_some())
            .map(len)
            .sum(),
        #[cfg(test)]
        held: lent.held(),
        ..Split::default()
    };
    let failed = folded.iter().any(|part| matches!(part, Some(None)));
    for (k, slot) in folded.into_iter().enumerate() {
        let (from, to) = lent.range(k);
        let part = match slot {
            Some(part) => part,
            // Claimed by a helper whose fold panicked.
            None if !failed => {
                split.work += to - from;
                #[cfg(test)]
                {
                    split.refolded += 1;
                }
                fold_part(&data[from..to], max)
            }
            // Never claimed: a part had failed.
            None => None,
        };
        let Some(part) = part else {
            split.rejected = lent.parts() - k;
            break;
        };
        split.forms.extend(part.forms);
        split.words += part.words;
        split.end = to;
        split.accepted += 1;
        split.helped += usize::from(helped[k]);
    }
    split
}

impl<R: io::BufRead, N: ResolveName> Iterator for BulkLexer<R, N> {
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
            if self.failed {
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
    use crate::queries::EVENT_SLICE;
    use crate::sax::tests::SplitReader;
    use crate::sax::{ByteTokenizer, Projection};
    use nested_words::rng::Prng;
    use nested_words::Alphabet;

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
    fn window_keys_equal_the_canonical_keys_of_every_form() {
        for name_len in 1..=KEY_BYTES {
            let name: Vec<u8> = (0..name_len).map(|i| b'a' + (i % 26) as u8).collect();
            let mut keys = Vec::new();
            for (form, token) in [
                (FORM_INTERNAL, name.clone()),
                (FORM_CALL, [b"<", &name[..], b">"].concat()),
                (FORM_RETURN, [b"</", &name[..], b">"].concat()),
            ] {
                let key = canonical_key(&name, form);
                assert_eq!(key.is_some(), token.len() <= KEY_BYTES, "{token:?}");
                let Some(key) = key else { continue };
                for at in 0..8 {
                    // Non-zero bytes around the token, which the masks drop.
                    let mut data = vec![b'#'; at + KEY_LOAD];
                    data[at..at + token.len()].copy_from_slice(&token);
                    assert_eq!(token_key(&data, at, token.len()), key, "{token:?} at {at}");
                }
                keys.push(key);
            }
            let forms = keys.len();
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(keys.len(), forms, "the forms of a name share no key");
        }
        // Every name of up to 20 bytes is cached in every form.
        assert!(canonical_key(&[b'n'; 20], FORM_RETURN).is_some());
        assert!(canonical_key(&[b'n'; 21], FORM_RETURN).is_none());
        // Names whose canonical token would spell another form's.
        assert!(canonical_key(b"<a>", FORM_INTERNAL).is_none());
        assert!(canonical_key(b"/a", FORM_CALL).is_none());
    }

    /// `flatten` writes exactly the offsets of the set bits, lowest first,
    /// leaves the entries before the cursor alone, and stays inside the
    /// tape's slack even from the last cursor a full pass can reach.
    #[test]
    fn flatten_matches_the_bit_by_bit_offsets() {
        let mut rng = Prng::new(21);
        let mut masks: Vec<u64> = [0usize, 1, 7, 8, 9, 16, 63, 64]
            .iter()
            .map(|&ones| {
                // `ones` set bits, scattered.
                let mut bits = if ones == 64 { !0 } else { (1u64 << ones) - 1 };
                bits = bits.rotate_left(rng.below(64) as u32);
                bits
            })
            .collect();
        masks.extend((0..200).map(|_| rng.next_u64() & rng.next_u64()));
        masks.extend((0..200).map(|_| rng.next_u64() | rng.next_u64()));
        for bits in masks {
            let count = bits.count_ones() as usize;
            let offsets: Vec<u16> = (0..64)
                .filter(|&b| bits >> b & 1 != 0)
                .map(|b| 4000 + b as u16)
                .collect();
            for start in [0, TAPE_CAP - count - 1, TAPE_CAP - count] {
                let mut tape = Tape::new();
                tape.starts.fill(7);
                let mut n = start;
                flatten(bits, 4000, &mut tape.starts, &mut n);
                assert_eq!(n, start + count, "{bits:#x}");
                assert_eq!(tape.starts[start..n], offsets[..], "{bits:#x}");
                assert!(tape.starts[..start].iter().all(|&o| o == 7), "{bits:#x}");
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
            let pass = cls.stage1::<false>(&mut tape, data, pos, usize::MAX);
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
        #[cfg(target_arch = "x86_64")]
        if let Some(k) = kernel::Avx512::detect() {
            check("avx512", &move |d| tape_spans(k, d));
        }
        #[cfg(target_arch = "aarch64")]
        check("neon", &|d| tape_spans(kernel::Neon::new(), d));
    }

    /// The token spans a spec-level split of a simple document finds: tags
    /// whole, words between.
    fn spec_tokens(doc: &str) -> Vec<(usize, usize)> {
        let mut tokens = Vec::new();
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
            tokens.push((start, i));
        }
        tokens
    }

    #[test]
    fn tape_covers_a_simple_document_in_full() {
        let doc = "<t1>w1 w22</t1>  <t3>\tw3\n</t3><t4>w4<t5>w5</t5></t4>".repeat(40);
        let expected = spec_tokens(&doc);
        let bytes = doc.as_bytes();
        // Stage 1 stops a block plus a key load short of the window end.
        let covered = |spans: &[(usize, usize)]| {
            expected
                .iter()
                .take_while(|&&(_, e)| e + BLOCK + KEY_LOAD <= bytes.len())
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

    /// Text-dropping stage-1 passes over a simple `data` with a tag
    /// `budget`, each resuming where the last one ended, as the fill loop
    /// runs them: the tag spans taken, the offset consumed to and the text
    /// words dropped. No pass may hand anything to the scalar arm.
    fn dropping_spans<C: BlockClassifier>(
        cls: C,
        data: &[u8],
        budget: usize,
    ) -> (Vec<(usize, usize)>, usize, usize) {
        let mut tape = Tape::new();
        let (mut spans, mut pos, mut dropped) = (Vec::new(), 0usize, 0usize);
        loop {
            let pass = cls.stage1::<true>(&mut tape, data, pos, budget);
            assert!(matches!(pass.scalar_until, 0 | usize::MAX), "simple data");
            if pass.end == 0 {
                return (spans, pos, dropped);
            }
            for i in 0..pass.tokens {
                spans.push((
                    pos + usize::from(tape.starts[i]),
                    pos + usize::from(tape.ends[i]),
                ));
            }
            dropped += pass.dropped;
            pos += pass.end;
        }
    }

    #[test]
    fn text_dropping_tape_takes_the_tags_and_counts_the_words_before_them() {
        // Text runs spanning many blocks, one of them no whole pass (so
        // budget cuts land before, between and after words) and two longer
        // than a pass — one leading the document — which passes holding no
        // tag must still consume.
        let doc = "long text ".repeat(700)
            + &"<t1>w1 w22</t1> <t3>\tw3\n</t3><t4>w4<t5>w5</t5></t4>".repeat(60)
            + &"long text ".repeat(300)
            + "<b>"
            + &"longer text ".repeat(900)
            + &"<a>x</a>".repeat(100);
        let bytes = doc.as_bytes();
        let (tags, words): (Vec<_>, Vec<_>) = spec_tokens(&doc)
            .into_iter()
            .partition(|&(s, _)| bytes[s] == b'<');
        let check = |name: &str, (spans, end, dropped): (Vec<(usize, usize)>, usize, usize)| {
            assert!(
                end + 2 * BLOCK + KEY_LOAD > bytes.len(),
                "{name}: stopped early"
            );
            let taken: Vec<_> = tags.iter().copied().filter(|&(_, e)| e <= end).collect();
            assert_eq!(spans, taken, "{name}");
            let before = words.iter().filter(|&&(_, e)| e <= end).count();
            assert_eq!(dropped, before, "{name}");
        };
        for budget in [usize::MAX, 1, 7, 100] {
            check(
                &format!("swar, budget {budget}"),
                dropping_spans(kernel::Swar, bytes, budget),
            );
            #[cfg(target_arch = "x86_64")]
            if let Some(k) = kernel::Avx2::detect() {
                check(
                    &format!("avx2, budget {budget}"),
                    dropping_spans(k, bytes, budget),
                );
            }
            #[cfg(target_arch = "aarch64")]
            check(
                &format!("neon, budget {budget}"),
                dropping_spans(kernel::Neon::new(), bytes, budget),
            );
        }
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

    /// One lexer run that narrows to drop-all before fill number `switch`:
    /// the events the fills before it appended, the dropped count at the
    /// switch, the events the fills after it appended, the final dropped
    /// count and the error. `None` when the stream ended before the switch.
    type Narrowed = (
        Vec<TaggedSymbol>,
        usize,
        Vec<TaggedSymbol>,
        usize,
        Option<String>,
    );

    fn narrowed_run(
        data: &[u8],
        chunk: usize,
        max: usize,
        names: Projection<'_>,
        switch: usize,
    ) -> Option<Narrowed> {
        let mut lexer = BulkLexer::new(
            io::BufReader::with_capacity(chunk, SplitReader::new(data, chunk)),
            names,
        );
        let (mut before, mut after, mut at_switch) = (Vec::new(), Vec::new(), None);
        let mut fills = 0;
        let err = loop {
            if fills == switch {
                lexer.narrow_to_tags();
                at_switch = Some(lexer.dropped());
            }
            let out = if fills < switch {
                &mut before
            } else {
                &mut after
            };
            let len = out.len();
            match lexer.fill(out, len + max) {
                Ok(()) if out.len() == len => break None,
                Ok(()) => fills += 1,
                Err(e) => break Some(format!("{e:?}")),
            }
        };
        at_switch.map(|d| (before, d, after, lexer.dropped(), err))
    }

    /// Documents that take every lexing path: CDATA, comments, PIs,
    /// DOCTYPE subsets, attributes, self-closing and pending tags,
    /// non-ASCII text and whitespace, and the lexical errors.
    fn edge_documents() -> Vec<Vec<u8>> {
        let mut docs: Vec<Vec<u8>> = [
            "<doc>w0 <a>w1 w2</a> w0<b/>w2</doc>",
            "<doc><![CDATA[w0 <x> w1]]> w2 <![CDATA[]]>w1</doc>",
            "<!DOCTYPE d [<!ENTITY e \"x>\">]><doc>w0<!-- c -- > -->w1<?pi w0?>w2</doc>",
            "<doc a=\"1>\" b='2'>héllo w0\u{a0}wörld w1 𐍈</doc>\u{2003}w2</x></doc>",
            "w0 w1 <a> w2",
            "<doc>w0 w1 <t",
            "<doc>w0 <!-- never closed",
            "<doc>w0 w1</ ></doc>",
        ]
        .iter()
        .map(|d| d.as_bytes().to_vec())
        .collect();
        docs.push(b"<doc>w0 w1 \xFF w2</doc>".to_vec());
        docs.push(b"<doc>w0 w1 \xE2\x82".to_vec());
        docs
    }

    /// A seeded document of simple and edge constructs, past three event
    /// slices long, so drop-all fills cross window seams and growth.
    fn long_document(seed: u64) -> Vec<u8> {
        let mut rng = Prng::new(seed);
        let mut doc = String::new();
        while doc.len() < 24 * EVENT_SLICE {
            match rng.below(12) {
                0..=2 => doc.push_str(&format!("<t{}>", rng.below(5))),
                3..=4 => doc.push_str(&format!("</t{}>", rng.below(5))),
                5 => doc.push_str("<a x=\"1\"/>"),
                6 => doc.push_str("<![CDATA[w1 w7]]>"),
                7 => doc.push_str("<!-- c --><?p?>"),
                8 => doc.push_str(" héllo "),
                _ => doc.push_str(&format!(" w{} ", rng.below(8))),
            }
        }
        doc.into_bytes()
    }

    /// Narrowing to drop-all between any two `fill` calls: the events are
    /// the keep-bit (or emit-all) stream up to the switch, then the
    /// tags-only stream; emitted plus dropped is every token read; the
    /// error, if any, is the same at the same offset. On every backend,
    /// one-byte and wider reads, and fill sizes 1..=7 and `EVENT_SLICE`.
    #[test]
    fn narrowing_to_tags_between_fills_keeps_the_stream_exact() {
        let mut docs: Vec<(Vec<u8>, Vec<usize>)> = edge_documents()
            .into_iter()
            .map(|d| (d, (1..=7).chain([EVENT_SLICE]).collect()))
            .collect();
        docs.push((long_document(3), vec![EVENT_SLICE]));
        for backend in ScanBackend::ALL
            .into_iter()
            .filter(|&b| force_scan_backend(b))
        {
            for (d, (data, maxes)) in docs.iter().enumerate() {
                let mut ab = Alphabet::new();
                let mut reference = ByteTokenizer::new(&data[..], &mut ab);
                let mut tokens = Vec::new();
                let err = loop {
                    let len = tokens.len();
                    match reference.fill(&mut tokens, len + 1024) {
                        Ok(()) if tokens.len() == len => break None,
                        Ok(()) => {}
                        Err(e) => break Some(format!("{e:?}")),
                    }
                };
                if data.len() > SCAN_CHUNK {
                    assert!(tokens.len() >= 3 * EVENT_SLICE, "switches fall mid-stream");
                }
                let every_third: Vec<bool> = (0..ab.len()).map(|a| a % 3 == 0).collect();
                for inert in [&every_third[..], &[]] {
                    let kept = |t: &&TaggedSymbol| match t {
                        TaggedSymbol::Internal(a) => {
                            !inert.get(a.index()).copied().unwrap_or(false)
                        }
                        _ => true,
                    };
                    let tag = |t: &&TaggedSymbol| !matches!(t, TaggedSymbol::Internal(_));
                    for &max in maxes {
                        for chunk in [1, 7, data.len()] {
                            let ctx = format!(
                                "{backend:?}, document {d}, {} inert, max {max}, chunk {chunk}",
                                inert.len()
                            );
                            let mut switch = 0;
                            while let Some((before, at_switch, after, dropped, got_err)) =
                                narrowed_run(
                                    &data[..],
                                    chunk,
                                    max,
                                    Projection::new(&ab, inert),
                                    switch,
                                )
                            {
                                let ctx = format!("{ctx}, switch before fill {switch}");
                                let read = before.len() + at_switch;
                                assert!(read <= tokens.len(), "{ctx}");
                                let (head, tail) = tokens.split_at(read);
                                let head: Vec<_> = head.iter().filter(kept).copied().collect();
                                let tail: Vec<_> = tail.iter().filter(tag).copied().collect();
                                assert_eq!(before, head, "{ctx}");
                                assert_eq!(after, tail, "{ctx}");
                                assert_eq!(
                                    before.len() + after.len() + dropped,
                                    tokens.len(),
                                    "{ctx}"
                                );
                                assert_eq!(got_err, err, "{ctx}");
                                switch += 1;
                            }
                            assert!(switch > 0, "{ctx}: never switched");
                        }
                    }
                }
            }
        }
        auto_scan_backend();
    }

    /// Height and peak after walking the tags of `events` from `(height,
    /// peak)` one event at a time: pending returns leave the height at 0.
    fn walk_events(events: &[TaggedSymbol], mut height: usize, mut peak: usize) -> (usize, usize) {
        for event in events {
            match event {
                TaggedSymbol::Call(_) => height += 1,
                TaggedSymbol::Return(_) => height = height.saturating_sub(1),
                TaggedSymbol::Internal(_) => {}
            }
            peak = peak.max(height);
        }
        (height, peak)
    }

    /// One lexer run that narrows to structure before fill `switch`: the
    /// events before, the tokens read by then, the forms of every later
    /// fill in order, the final dropped count and the error.
    type Structured = (Vec<TaggedSymbol>, usize, Vec<Forms>, usize, Option<String>);

    fn structured_run(
        data: &[u8],
        chunk: usize,
        max: usize,
        names: Projection<'_>,
        switch: usize,
    ) -> Option<Structured> {
        let mut lexer = BulkLexer::new(
            io::BufReader::with_capacity(chunk, SplitReader::new(data, chunk)),
            names,
        );
        let (mut before, mut windows, mut at_switch) = (Vec::new(), Vec::new(), None);
        let mut fills = 0;
        let err = loop {
            if fills == switch {
                assert!(lexer.narrow_to_structure(), "an unfused lexer goes on");
                at_switch = Some(before.len() + lexer.dropped());
            }
            let filled = if fills < switch {
                let len = before.len();
                let filled = lexer.fill(&mut before, len + max);
                if filled.is_ok() && before.len() == len {
                    break None;
                }
                filled
            } else {
                let mut forms = Forms::default();
                let filled = lexer.fill_forms(&mut forms, max);
                if forms.events > 0 {
                    windows.push(forms);
                } else if filled.is_ok() {
                    break None;
                }
                filled
            };
            match filled {
                Ok(()) => fills += 1,
                Err(e) => break Some(format!("{e:?}")),
            }
        };
        at_switch.map(|read| (before, read, windows, lexer.dropped(), err))
    }

    /// Narrowing to structure before any `fill`: the events up to the
    /// switch are the projected stream, and the forms of every later fill,
    /// applied in order from several starting heights and peaks, walk
    /// exactly as the full event stream does from the same point: events,
    /// height and peak, pending returns included. Events handed over plus
    /// form events plus dropped words is every token read, and the error,
    /// if any, is the same at the same offset. On every backend, one-byte,
    /// 7-byte and whole-document reads, and fill sizes 1..=7 and
    /// `EVENT_SLICE`, over the edge documents, a document that opens with
    /// pending returns, and one past three event slices.
    #[test]
    fn narrowing_to_structure_between_fills_walks_the_stream_exactly() {
        let mut docs: Vec<(Vec<u8>, Vec<usize>)> = edge_documents()
            .into_iter()
            .chain([b"</a></b> w0 <c k='v'>w1<d/></c></e> <f>".to_vec()])
            .map(|d| (d, (1..=7).chain([EVENT_SLICE]).collect()))
            .collect();
        docs.push((long_document(5), vec![EVENT_SLICE]));
        // Simple blocks only, so the structure pass, not the scalar arm,
        // reads nearly all of it, and tags of every length cross block
        // seams.
        let mut rng = Prng::new(11);
        let mut simple = String::new();
        while simple.len() < 24 * EVENT_SLICE {
            let name = "t".repeat(1 + rng.below(9));
            match rng.below(3) {
                0 => simple.push_str(&format!("<{name}>")),
                1 => simple.push_str(&format!("</{name}>")),
                _ => simple.push_str(&format!("{} ", "w".repeat(1 + rng.below(5)))),
            }
        }
        docs.push((simple.into_bytes(), vec![EVENT_SLICE]));
        for backend in ScanBackend::ALL
            .into_iter()
            .filter(|&b| force_scan_backend(b))
        {
            for (d, (data, maxes)) in docs.iter().enumerate() {
                let mut ab = Alphabet::new();
                let mut reference = ByteTokenizer::new(&data[..], &mut ab);
                let mut tokens = Vec::new();
                let err = loop {
                    let len = tokens.len();
                    match reference.fill(&mut tokens, len + 1024) {
                        Ok(()) if tokens.len() == len => break None,
                        Ok(()) => {}
                        Err(e) => break Some(format!("{e:?}")),
                    }
                };
                let every_third: Vec<bool> = (0..ab.len()).map(|a| a % 3 == 0).collect();
                for inert in [&every_third[..], &[]] {
                    for &max in maxes {
                        for chunk in [1, 7, data.len()] {
                            let ctx = format!(
                                "{backend:?}, document {d}, {} inert, max {max}, chunk {chunk}",
                                inert.len()
                            );
                            let mut switch = 0;
                            while let Some((before, read, windows, dropped, got_err)) =
                                structured_run(
                                    &data[..],
                                    chunk,
                                    max,
                                    Projection::new(&ab, inert),
                                    switch,
                                )
                            {
                                let ctx = format!("{ctx}, switch before fill {switch}");
                                assert!(read <= tokens.len(), "{ctx}");
                                let tail = &tokens[read..];
                                let tags = tail
                                    .iter()
                                    .filter(|t| !matches!(t, TaggedSymbol::Internal(_)))
                                    .count();
                                let events: usize = windows.iter().map(|f| f.events).sum();
                                assert_eq!(events, tags, "{ctx}");
                                for (height, peak) in [(0, 0), (2, 2), (1, 9)] {
                                    let (mut h, mut p) = (height, peak);
                                    windows.iter().for_each(|f| f.apply(&mut h, &mut p));
                                    assert_eq!((h, p), walk_events(tail, height, peak), "{ctx}");
                                }
                                assert_eq!(before.len() + events + dropped, tokens.len(), "{ctx}");
                                assert_eq!(got_err, err, "{ctx}");
                                switch += 1;
                            }
                            assert!(switch > 0, "{ctx}: never switched");
                        }
                    }
                }
            }
        }
        auto_scan_backend();
    }

    /// A frozen lexer fused on a tag outside its alphabet resumes at that
    /// very tag once narrowed to structure, which then reads it by form;
    /// one fused on any other error stays fused. On every backend, in
    /// the scalar arm (attributes, self-closing) and on the tape.
    #[test]
    fn structure_resumes_at_an_unknown_tag_only() {
        let pad = "<a>w0</a> ".repeat(20);
        for backend in ScanBackend::ALL
            .into_iter()
            .filter(|&b| force_scan_backend(b))
        {
            for (intruder, events) in [("<x>", 1), ("</x>", 1), ("<x k='v'/>", 2)] {
                let doc = format!("{pad}<a>w0 {intruder} w0</a>{pad}");
                let mut ab = Alphabet::new();
                let full = crate::sax::tokenize(&doc.replace(intruder, ""), &mut ab).unwrap();
                let inert = vec![true; ab.len()];
                let ctx = format!("{backend:?}, {intruder}");
                let mut lexer = BulkLexer::new(doc.as_bytes(), Projection::new(&ab, &inert));
                let mut before = Vec::new();
                let err = lexer.fill(&mut before, usize::MAX).unwrap_err();
                assert!(
                    matches!(err, SaxError::Syntax(NestedWordError::UnknownSymbol { .. })),
                    "{ctx}: {err:?}"
                );
                assert!(lexer.narrow_to_structure(), "{ctx}");
                let mut forms = Forms::default();
                lexer.fill_forms(&mut forms, usize::MAX).unwrap();
                let tags = full
                    .iter()
                    .filter(|t| !matches!(t, TaggedSymbol::Internal(_)));
                assert_eq!(before.len() + forms.events, tags.count() + events, "{ctx}");
                assert_eq!(
                    lexer.dropped(),
                    full.len() - before.len() - (forms.events - events),
                    "{ctx}"
                );

                let broken = format!("{pad}<a>w0 </> {intruder}</a>");
                let mut lexer = BulkLexer::new(broken.as_bytes(), Projection::new(&ab, &inert));
                assert!(lexer.fill(&mut Vec::new(), usize::MAX).is_err(), "{ctx}");
                assert!(
                    !lexer.narrow_to_structure(),
                    "{ctx}: a lexical error is final"
                );
            }
        }
        auto_scan_backend();
    }

    /// Lexes `lexer` to its end in the mode its policy sets, or in
    /// structure mode, and returns the tokens read (events written, or tag
    /// events folded, plus text words dropped) and the bytes it carried.
    fn lexed<R: io::BufRead, N: ResolveName>(
        mut lexer: BulkLexer<R, N>,
        structure: bool,
    ) -> (usize, usize) {
        let mut read = 0;
        if structure {
            assert!(lexer.narrow_to_structure());
            loop {
                let mut forms = Forms::default();
                lexer.fill_forms(&mut forms, EVENT_SLICE).unwrap();
                if forms.events == 0 {
                    break;
                }
                read += forms.events;
            }
        } else {
            let mut events = Vec::new();
            loop {
                events.clear();
                lexer.fill(&mut events, EVENT_SLICE).unwrap();
                if events.is_empty() {
                    break;
                }
                read += events.len();
            }
        }
        (read + lexer.dropped(), lexer.carried())
    }

    /// An in-memory document is one `fill_buf` buffer, lexed where it lies:
    /// a 1M-event document carries no byte into the owned window in any
    /// mode (emit-all, keep-bit, drop-all, structure). Only a text word
    /// that ends the stream is carried, since only the next `fill_buf` can
    /// say that nothing follows it. A source of `SCAN_CHUNK` buffers, or of
    /// one byte at a time, carries.
    #[test]
    fn in_memory_documents_are_lexed_with_no_byte_carried() {
        let (mut ab, doc) = crate::generate::generate_document(
            crate::generate::DocumentConfig {
                events: 1_000_000,
                max_depth: 32,
                ..Default::default()
            },
            7,
        );
        let xml = crate::sax::to_xml(&doc, &ab);
        assert!(xml.ends_with('>'), "the document closes its elements");
        ab.intern("tail");
        let every_third: Vec<bool> = (0..ab.len()).map(|a| a % 3 == 0).collect();
        let all = vec![true; ab.len()];
        for (text, word) in [(xml.clone(), 0), (format!("{xml} tail"), "tail".len())] {
            let bytes = text.as_bytes();
            let modes = [
                ("emit-all", lexed(BulkLexer::new(bytes, &ab), false)),
                (
                    "keep-bit",
                    lexed(
                        BulkLexer::new(bytes, Projection::new(&ab, &every_third)),
                        false,
                    ),
                ),
                (
                    "drop-all",
                    lexed(BulkLexer::new(bytes, Projection::new(&ab, &all)), false),
                ),
                (
                    "structure",
                    lexed(BulkLexer::new(bytes, Projection::new(&ab, &all)), true),
                ),
            ];
            for (mode, (read, carried)) in modes {
                assert_eq!(read, doc.len() + usize::from(word > 0), "{mode}");
                assert_eq!(carried, word, "{mode}, {word}-byte last word");
            }
        }

        let buffers =
            io::BufReader::with_capacity(SCAN_CHUNK, SplitReader::new(xml.as_bytes(), SCAN_CHUNK));
        let (read, carried) = lexed(BulkLexer::new(buffers, Projection::new(&ab, &all)), true);
        assert_eq!(read, doc.len());
        assert!(carried > 0, "`SCAN_CHUNK` buffers carry");

        let small = &xml[..=xml[..4096].rfind('>').expect("a tag")];
        let lender = io::BufReader::with_capacity(1, SplitReader::new(small.as_bytes(), 1));
        let (_, carried) = lexed(BulkLexer::new(lender, Projection::new(&ab, &all)), false);
        assert!(carried > 0, "a one-byte lender carries");
    }

    /// Iteration budget scaled by `NWA_PROP_ITERS`, as in the property
    /// suites: the sweeps below keep every fourth offset by default, and
    /// every offset once it is 4 or more.
    fn sample_stride() -> usize {
        let iters = std::env::var("NWA_PROP_ITERS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&m| m > 0)
            .unwrap_or(1);
        (4 / iters).max(1)
    }

    /// Every [`sample_stride`]-th of `offsets`, from `rotation` on.
    fn sampled(offsets: impl IntoIterator<Item = usize>, rotation: usize) -> Vec<usize> {
        let stride = sample_stride();
        offsets
            .into_iter()
            .enumerate()
            .filter(|(i, _)| (i + rotation).is_multiple_of(stride))
            .map(|(_, at)| at)
            .collect()
    }

    /// The forms of every fill joined, the text words read, the error, and
    /// the parts accepted and rejected.
    type SplitRun = (Forms, usize, Option<String>, (usize, usize));

    /// One structure scan of `data` to its end, split into up to `parts`
    /// parts of at least `min_part` bytes wherever the rest allows (1 part:
    /// in sequence), in fills of `max` events.
    fn split_run(data: &[u8], max: usize, parts: usize, min_part: usize) -> SplitRun {
        split_scan(data, max, Some(parts), min_part).0
    }

    /// [`split_run`], with as many parts as the scanner picks when `parts`
    /// is `None`; also returns the bytes the splits folded or copied
    /// ([`BulkLexer::split_work`]).
    fn split_scan(
        data: &[u8],
        max: usize,
        parts: Option<usize>,
        min_part: usize,
    ) -> (SplitRun, usize) {
        scan_on(BulkLexer::new(data, Unnamed), max, parts, min_part)
    }

    /// [`split_scan`] on from where `lexer` stands.
    fn scan_on(
        mut lexer: BulkLexer<&[u8], Unnamed>,
        max: usize,
        parts: Option<usize>,
        min_part: usize,
    ) -> (SplitRun, usize) {
        let mut total = Forms::default();
        let err = loop {
            let mut forms = Forms::default();
            let filled = lexer.fill_forms_split(&mut forms, max, parts, min_part);
            assert!(forms.events <= max + 2 * BLOCK, "about `max` events a fill");
            total = total.then(forms);
            match filled {
                Ok(()) if forms.events == 0 => break None,
                Ok(()) => {}
                Err(e) => break Some(format!("{e:?}")),
            }
        };
        let run = (total, lexer.dropped(), err, lexer.parts());
        (run, lexer.split_work())
    }

    /// Scans `data` in sequence and split into 2, 3 and 4 parts of at
    /// least one byte, on every backend, in fills of each of `maxes`
    /// events, and asserts the split scans equal the sequential one: the
    /// same joined forms, text words read and error at the same offset.
    /// Returns the parts each split count accepted and rejected, summed
    /// over backends and fill sizes.
    fn assert_splits_match(data: &[u8], maxes: &[usize], label: &str) -> [(usize, usize); 3] {
        let mut parts = [(0, 0); 3];
        for backend in ScanBackend::ALL
            .into_iter()
            .filter(|&b| force_scan_backend(b))
        {
            for &max in maxes {
                let (forms, words, err, none) = split_run(data, max, 1, 1);
                assert_eq!(none, (0, 0), "{label}: one part is no split");
                for (n, counts) in (2..=4).zip(&mut parts) {
                    let ctx = format!("{backend:?}, {label}, max {max}, {n} parts");
                    let (split_forms, split_words, split_err, split) = split_run(data, max, n, 1);
                    assert_eq!(split_forms, forms, "{ctx}");
                    assert_eq!(split_words, words, "{ctx}");
                    assert_eq!(split_err, err, "{ctx}");
                    counts.0 += split.0;
                    counts.1 += split.1;
                }
            }
        }
        auto_scan_backend();
        parts
    }

    /// Split structure scans equal sequential ones on the edge documents
    /// (CDATA, comments, PIs, DOCTYPE subsets, attributes, bad and
    /// truncated UTF-8, unterminated tags and directives), a document that
    /// opens with pending returns, and seeded long documents; on the
    /// well-formed long documents, whose every `<` starts a token, every
    /// part is accepted.
    #[test]
    fn split_structure_scans_match_sequential_ones() {
        let docs = edge_documents()
            .into_iter()
            .chain([b"</a></b> w0 <c k='v'>w1<d/></c></e> <f>".to_vec()]);
        for (d, data) in docs.enumerate() {
            assert_splits_match(&data, &[1, 3, EVENT_SLICE], &format!("edge document {d}"));
        }
        for seed in [3, 5] {
            let data = long_document(seed);
            let parts = assert_splits_match(&data, &[7, EVENT_SLICE], &format!("seed {seed}"));
            for (n, (accepted, rejected)) in (2..=4).zip(parts) {
                assert!(accepted >= n, "seed {seed}, {n} parts: {accepted} accepted");
                assert_eq!(rejected, 0, "seed {seed}, {n} parts");
            }
        }
    }

    /// A cut guessed at a `<` inside a comment, a CDATA section, a PI, a
    /// DOCTYPE internal subset or a quoted attribute value is no token
    /// boundary: the part before it fails, is rejected with every part
    /// after it, and is lexed again in sequence, so the scan still equals
    /// the sequential one. The document is padded so that the middle —
    /// where a 2-part split looks for its cut — falls on each byte of the
    /// construct in turn ([`sampled`]); the split rejects a part exactly
    /// when the cut lands on a `<` inside it.
    #[test]
    fn cuts_inside_a_construct_are_rejected_and_lexed_in_sequence() {
        let constructs = [
            "<!-- a <b> c -->",
            "<![CDATA[x <y> z]]>",
            "<?pi a<b ?>",
            "<!DOCTYPE d [<!ENTITY e \"x\"><!ENTITY f 'y'>]>",
            "<a k=\"<b>\" j='>'>",
            "<a k='x<y' j=\"<\"/>",
        ];
        let mut straddled = 0;
        for (c, construct) in constructs.iter().enumerate() {
            let tail = construct.len() + 8;
            for at in sampled(1..construct.len(), c) {
                // `len / 2` falls `at` bytes into the construct.
                let pad = 2 * construct.len() + 8 - 2 * at;
                let doc = format!(
                    "<p>{}{construct}{}</p>",
                    " ".repeat(pad - 3),
                    " ".repeat(tail - 4)
                );
                let start = pad;
                assert_eq!(doc.len() / 2, start + at);
                let cut = start + at + doc[start + at..].find('<').expect("the closing tag");
                let inside = cut < start + construct.len();
                let label = format!("{construct:?}, middle at {at}");
                assert_splits_match(doc.as_bytes(), &[1, EVENT_SLICE], &label);
                let (forms, words, err, none) = split_run(doc.as_bytes(), EVENT_SLICE, 1, 1);
                assert_eq!((none, err), ((0, 0), None), "{label}");
                for backend in ScanBackend::ALL
                    .into_iter()
                    .filter(|&b| force_scan_backend(b))
                {
                    let ctx = format!("{backend:?}, {label}");
                    let (split_forms, split_words, split_err, (_, rejected)) =
                        split_run(doc.as_bytes(), EVENT_SLICE, 2, 1);
                    assert_eq!((split_forms, split_words), (forms, words), "{ctx}");
                    assert_eq!(split_err, None, "{ctx}");
                    assert_eq!(rejected > 0, inside, "{ctx}: cut at {cut}");
                    straddled += usize::from(inside);
                }
                auto_scan_backend();
            }
        }
        assert!(straddled > 0, "some cut lands inside a construct");
    }

    /// Each invalid sequence inserted within two bytes of each cut a 2-,
    /// 3- or 4-part split of a long document makes, and each truncated
    /// sequence ending the stream there ([`sampled`]): the split scans
    /// report the sequential scan's error at the same offset, on every
    /// backend.
    #[test]
    fn bad_bytes_at_the_cuts_fail_like_the_sequential_scan() {
        const BAD_BYTES: [&[u8]; 4] = [b"\xFF", b"\xC0\x80", b"\x80", b"\xED\xA0\x80"];
        const TRUNCATED: &[u8] = b"\xE2\x82";
        let doc = long_document(7);
        let doc = &doc[..doc.len().min(8 * 1024)];
        let cuts = (2..=4).flat_map(|parts| {
            (1..parts).filter_map(move |k| {
                let at = k * doc.len() / parts;
                doc[at..].iter().position(|&b| b == b'<').map(|i| at + i)
            })
        });
        let mut offsets: Vec<usize> = cuts.flat_map(|cut| cut - 2..=cut + 2).collect();
        offsets.sort_unstable();
        offsets.dedup();
        let mut rejected = 0;
        for at in sampled(offsets, 0) {
            let spoiled = BAD_BYTES
                .iter()
                .map(|bad| [&doc[..at], bad, &doc[at..]].concat())
                .chain([[&doc[..at], TRUNCATED].concat()]);
            for (i, bytes) in spoiled.enumerate() {
                let label = format!("sequence {i} at {at}");
                let parts = assert_splits_match(&bytes, &[EVENT_SLICE], &label);
                rejected += parts.iter().map(|p| p.1).sum::<usize>();
                let (_, _, err, _) = split_run(&bytes, EVENT_SLICE, 1, 1);
                assert!(err.is_some_and(|e| e.contains("Utf8")), "{label}");
            }
        }
        assert!(rejected > 0, "a part holding a bad byte is rejected");
    }

    /// `unit` repeated past `bytes` inside `<r>…</r>`.
    fn repeated_document(unit: &str, bytes: usize) -> Vec<u8> {
        format!("<r>{}</r>", unit.repeat(bytes / unit.len() + 1)).into_bytes()
    }

    /// Past twice the split size even after the first fill.
    const SPLIT_SIZED: usize = 2 * MIN_PART + (64 << 10);

    /// The production path: `fill_forms` on an in-memory document past
    /// twice `MIN_PART` splits it when a core is free — in parts of
    /// `CLAIM_BYTES`, every one accepted on a document whose every `<`
    /// starts a token — and stays sequential on a host with no helper.
    /// Other tests' scans may keep the cores busy for a while, so a scan is
    /// started again until two have split — the second only once the
    /// cores are free again after the first. A split scan equals the
    /// sequential one.
    #[test]
    fn fill_forms_splits_a_large_in_memory_rest_when_a_core_is_free() {
        let data = repeated_document("<a k='v'> w0 <b/></a>", SPLIT_SIZED);
        let (sequential, _) = split_scan(&data, EVENT_SLICE, Some(1), MIN_PART);
        let helpers = pool::helpers();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        let (mut tries, mut splits) = (0, 0);
        while splits < 2 && std::time::Instant::now() < deadline {
            tries += 1;
            let mut lexer = BulkLexer::new(&data[..], Unnamed);
            let mut first = Forms::default();
            lexer.fill_forms(&mut first, EVENT_SLICE).unwrap();
            if lexer.parts() == (0, 0) {
                assert_eq!(lexer.split_work(), 0);
                if helpers == 0 {
                    break;
                }
                drop(lexer);
                std::thread::sleep(std::time::Duration::from_millis(2));
                continue;
            }
            splits += 1;
            let ((rest, words, err, (accepted, rejected)), work) =
                scan_on(lexer, EVENT_SLICE, None, MIN_PART);
            let ctx = format!("try {tries}: {accepted} accepted, {work} bytes");
            assert_eq!(first.then(rest), sequential.0, "{ctx}");
            assert_eq!((words, &err), (sequential.1, &sequential.2), "{ctx}");
            assert!(accepted >= 2 * MIN_PART / CLAIM_BYTES, "{ctx}");
            assert_eq!(rejected, 0, "{ctx}");
            assert!(work <= 2 * data.len(), "{ctx} for {}", data.len());
        }
        let expected = if helpers == 0 { 0 } else { 2 };
        assert_eq!(splits, expected, "{helpers} helpers, {tries} tries");
    }

    /// A document whose CDATA sections hold most of its `<`s, as a feed
    /// with HTML in CDATA does: most cuts land inside a section, so a
    /// split rejects parts. The scan still equals the sequential one, and
    /// the bytes the splits fold, on any thread, stay within the
    /// document's length — a buffer is split once and each part is folded
    /// at most once — rather than growing with each cut: in 8 parts of a
    /// 256 KiB document on any host, and through `fill_forms` past the
    /// split size wherever a core is free. Once a part fails no thread
    /// claims another: with no helper the calling thread folds the
    /// accepted parts and the first one that fails, and a helper slowed
    /// while it holds a part adds that one part and no more.
    #[test]
    fn cuts_inside_cdata_cost_at_most_one_split_of_a_buffer() {
        let unit = "<a><![CDATA[<p>x</p><p>y</p><br/><br/>]]></a>";
        let small = repeated_document(unit, 256 << 10);
        for (data, parts, min_part) in [
            (&small, Some(8), 16 << 10),
            (&repeated_document(unit, SPLIT_SIZED), None, MIN_PART),
        ] {
            let (sequential, _) = split_scan(data, EVENT_SLICE, Some(1), min_part);
            assert_eq!(sequential.2, None);
            let (run, work) = split_scan(data, EVENT_SLICE, parts, min_part);
            let ctx = format!("{parts:?} parts: {:?}, {work} bytes", run.3);
            assert_eq!(run, (sequential.0, sequential.1, None, run.3), "{ctx}");
            assert!(work <= data.len(), "{ctx} for {}", data.len());
            if parts.is_some() {
                assert!(run.3 .1 > 0, "{ctx}: a cut lands inside CDATA");
            }
        }
        let ranges = cut(&small, 8).expect("8 parts");
        let part = ranges
            .iter()
            .map(|&(from, to)| to - from)
            .max()
            .unwrap_or(0);
        let split = fold_split(&small, EVENT_SLICE, 8, 1, Fault::None);
        assert!(split.rejected > 0);
        assert!(split.work < split.end + 2 * part, "{} bytes", split.work);
        if pool::helpers() > 0 {
            // The calling thread folds parts `0..=accepted`; past them, a
            // helper's part.
            let helped = move |split: &Split| {
                let (from, to) = ranges[split.accepted];
                split.work > split.end + (to - from)
            };
            let slow = Fault::Slow(std::time::Duration::from_millis(100));
            let split = split_until(&small, 8, slow, helped);
            assert!(split.rejected > 0);
            assert!(
                split.work <= split.end + 2 * part,
                "{} bytes past {}",
                split.work,
                split.end
            );
        }
    }

    /// The joined forms and the text words of a split's accepted parts.
    fn joined(split: &Split) -> (Forms, usize) {
        let forms = split.forms.iter().fold(Forms::default(), |a, &f| a.then(f));
        (forms, split.words)
    }

    /// [`joined`] for `bytes` folded as one part.
    fn joined_whole(bytes: &[u8]) -> (Forms, usize) {
        let part = fold_part(bytes, EVENT_SLICE).expect("the bytes fold");
        let forms = part.forms.iter().fold(Forms::default(), |a, &f| a.then(f));
        (forms, part.words)
    }

    /// Splits `data` into `parts` parts, open to one helper with `fault`
    /// injected, until `helped` says a helper took part (on a host with
    /// helpers; other tests' scans may keep the cores busy for a while),
    /// on a thread of its own so that a split that never returns fails the
    /// test. Asserts of every split that no helper still held a claim when
    /// it returned, and returns the last.
    fn split_until(
        data: &[u8],
        parts: usize,
        fault: Fault,
        helped: impl Fn(&Split) -> bool + Send + Sync + 'static,
    ) -> Split {
        use std::time::{Duration, Instant};
        let data = data.to_vec();
        let helped = std::sync::Arc::new(helped);
        let (done, result) = std::sync::mpsc::channel();
        let helper_took_part = std::sync::Arc::clone(&helped);
        std::thread::spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(30);
            let (mut tries, mut held) = (0, 0);
            loop {
                tries += 1;
                let split = fold_split(&data, EVENT_SLICE, parts, 2, fault);
                held = held.max(split.held);
                if helper_took_part(&split) || Instant::now() > deadline {
                    let _ = done.send((split, tries, held));
                    return;
                }
            }
        });
        let (split, tries, held) = result
            .recv_timeout(Duration::from_secs(90))
            .expect("every split returns");
        assert_eq!(held, 0, "a claim outlived its split");
        assert!(helped(&split), "no helper took part in {tries} tries");
        split
    }

    /// A well-formed document of 8 parts of 16 KiB, each accepted.
    fn lent_document() -> Vec<u8> {
        repeated_document("<a k='v'> w0 <b/></a>", 128 << 10)
    }

    /// A helper slowed between its claim and its fold: the calling thread
    /// folds every other part and waits, parked, for the helper's, and the
    /// split equals one fold of the same bytes.
    #[test]
    fn a_split_waits_for_the_part_a_slow_helper_holds() {
        if pool::helpers() == 0 {
            return;
        }
        let data = lent_document();
        let slow = Fault::Slow(std::time::Duration::from_millis(30));
        let split = split_until(&data, 8, slow, |split| split.helped > 0);
        assert_eq!((split.accepted, split.rejected), (8, 0));
        assert_eq!(joined(&split), joined_whole(&data[..split.end]));
        assert_eq!(split.work, split.end, "each part folded once");
    }

    /// A front part that fails closes the claims while a slowed helper
    /// holds a back part: the split waits for it, takes no other part, and
    /// rejects every part.
    #[test]
    fn a_failed_front_part_closes_the_claims_and_waits() {
        if pool::helpers() == 0 {
            return;
        }
        let mut data = lent_document();
        data.insert(10, 0xFF);
        let ranges = cut(&data, 8).expect("8 parts");
        let len = |(from, to): (usize, usize)| to - from;
        let front = len(ranges[0]);
        let part = ranges.iter().copied().map(len).max().unwrap_or(0);
        let slow = Fault::Slow(std::time::Duration::from_millis(200));
        // The calling thread folds part 0 alone; past it, a helper's part.
        let split = split_until(&data, 8, slow, move |split| split.work > front);
        assert_eq!((split.accepted, split.rejected), (0, 8));
        assert!(split.work <= front + part, "{} bytes", split.work);
    }

    /// A helper whose fold panics releases its claim while unwinding: the
    /// split returns, folds that part on the calling thread, and equals
    /// one fold of the same bytes.
    #[test]
    fn a_panicking_helper_leaves_its_part_to_the_calling_thread() {
        if pool::helpers() == 0 {
            return;
        }
        let data = lent_document();
        let split = split_until(&data, 8, Fault::Panic, |split| split.refolded > 0);
        assert_eq!((split.accepted, split.rejected), (8, 0));
        assert_eq!(split.work, split.end, "each part folded once");
        assert_eq!(joined(&split), joined_whole(&data[..split.end]));
    }

    /// Three callers split their own buffers at once, each overwriting its
    /// buffer between calls with another document of the same length:
    /// every split, joined with the rest of the buffer after its last
    /// part, equals the sequential scan of the bytes its caller held, so
    /// no part is folded from another split's or a stale buffer.
    #[test]
    fn concurrent_callers_each_get_their_own_bytes() {
        let mut docs = [long_document(3), long_document(5)];
        let len = docs[0].len().max(docs[1].len());
        for doc in &mut docs {
            doc.resize(len, b' ');
        }
        let sequential: Vec<_> = docs
            .iter()
            .map(|doc| {
                let (forms, words, err, _) = split_run(doc, EVENT_SLICE, 1, 1);
                assert_eq!(err, None);
                (forms, words)
            })
            .collect();
        std::thread::scope(|scope| {
            for caller in 0..3 {
                let (docs, sequential) = (&docs, &sequential);
                scope.spawn(move || {
                    let mut buffer = docs[caller % 2].clone();
                    for round in 0..24 {
                        let which = (caller + round) % 2;
                        buffer.copy_from_slice(&docs[which]);
                        let split = fold_split(&buffer, EVENT_SLICE, 4, 2, Fault::None);
                        let ctx = format!("caller {caller}, round {round}");
                        assert_eq!((split.accepted, split.held), (4, 0), "{ctx}");
                        let (forms, words) = joined(&split);
                        let (rest, rest_words) = joined_whole(&buffer[split.end..]);
                        let scanned = (forms.then(rest), words + rest_words);
                        assert_eq!(scanned, sequential[which], "{ctx}");
                    }
                });
            }
        });
    }

    /// After `r` splits in a row do not pay, the next `2^r − 1` splits (at
    /// most 63) are skipped; a split that pays ends the run.
    #[test]
    fn unpaid_splits_back_off_exponentially() {
        let backoff = pool::Backoff::new();
        let skipped = |backoff: &pool::Backoff| (0..100).take_while(|_| backoff.skip()).count();
        assert_eq!(skipped(&backoff), 0);
        for run in 1..=8 {
            backoff.record(false);
            assert_eq!(skipped(&backoff), (1 << run.min(6)) - 1, "run {run}");
        }
        backoff.record(true);
        assert_eq!(skipped(&backoff), 0);
        backoff.record(false);
        assert_eq!(skipped(&backoff), 1, "a new run");
    }
}
