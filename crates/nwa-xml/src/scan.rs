//! Bulk structural scanning of raw XML-ish bytes: [`BulkLexer`], the one
//! lexer behind [`ByteTokenizer`](crate::sax::ByteTokenizer),
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
//!    AVX2 with BMI2, a bit loop elsewhere), and a table folds them eight at a time — and counts its text
//!    words from their end marks. The scalar arm and the directives run
//!    exactly as in the other modes, with every syntax check, and only
//!    skip the name; a self-closing tag is a call and a return. A lexer
//!    fused on a tag whose name the policy could not resolve resumes at
//!    that tag when it narrows to structure, which then reads it by form:
//!    that is how an unknown tag read after the consumer settled decides
//!    like any alphabet tag, wherever the fills fall.
//!
//! Every token is lexed either by the tape or by the one scalar token step
//! (`step_token`: word-at-a-time SWAR sweeps to the token's end, then the
//! one byte-level tag classifier), which takes whatever stage 1 rejects —
//! attributes, quotes, self-closing tags, directives, `<>`, `</>`, a stray
//! `>`, control bytes, non-ASCII — and the short window tail. A token cut
//! by the window's end takes that same step again once the window has
//! grown: the window at least doubles per retry, so the re-sweeps stay
//! linear in the token's length whatever the read size. Only directives
//! leave the step: comments, PIs, DOCTYPEs and CDATA sections are swept as
//! they stream past. The char-at-a-time lexer lives on only as the
//! differential oracle of `tests/sax_scan.rs`, which holds this scanner
//! token-for-token and error-for-error equal to it under adversarial read
//! granularities and block alignments.
//!
//! **Backends.** There is one window-fill loop; the three stage-1 kernels
//! differ only in classification. Portable SWAR words ([`ScanBackend::Swar`])
//! run everywhere; AVX2 ([`ScanBackend::Avx2`]) is compiled on every
//! `x86_64` build and chosen at runtime when the CPU has it; NEON
//! ([`ScanBackend::Neon`]) is the `aarch64` baseline. [`scan_backend`]
//! reports the choice and [`force_scan_backend`] pins one.
//!
//! Whatever stops the reader — invalid or truncated UTF-8 found by the
//! chunk validator, or a failed `read` — is *held*: the window simply ends
//! at the last valid scalar before it, and the typed [`SaxError`] surfaces
//! exactly when lexing reaches that offset — the same observable order as
//! an incremental decoder, where every token that completes before the bad
//! byte comes out and a token still in progress is discarded in favor of
//! the error.

use crate::sax::{ResolveName, SaxError, TextMode};
use automata_core::Forms;
use kernel::{BlockClassifier, BlockMasks, EventSink, BLOCK};
use nested_words::{NestedWordError, Symbol, TaggedSymbol};
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
    /// together with the BMI1 and POPCNT that every AVX2 core has; the
    /// structure pass also uses BMI2's `pext` where the CPU has it).
    Avx2,
    /// 64-byte NEON block classification (`aarch64`, baseline ISA).
    Neon,
}

/// The backend the next window fill will use: the CPU is probed once (AVX2,
/// BMI1 and POPCNT on `x86_64` via `is_x86_feature_detected!`, NEON unconditionally on
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
            ScanBackend::Avx2 => super::kernel::Avx2::detect().is_some(),
            #[cfg(target_arch = "aarch64")]
            ScanBackend::Neon => true,
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }

    fn detect() -> ScanBackend {
        #[cfg(target_arch = "x86_64")]
        if super::kernel::Avx2::detect().is_some() {
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
// Name resolution and the tag classifier
// --------------------------------------------------------------------------

/// The name-to-event builder of the lexer: the [`ResolveName`] policy
/// behind a direct-mapped token cache, the one classifier of tag bodies,
/// and the policy's projection with its count of dropped text words.
#[derive(Debug)]
struct LexerCore<N: ResolveName> {
    names: N,
    /// Direct-mapped memo of recent token resolutions, keyed by each
    /// token's canonical bytes (see [`LexerCore::resolve_token`]).
    cache: Box<[TokenSlot; NAME_CACHE_SLOTS]>,
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
            cache: Box::new(
                [TokenSlot {
                    key: [0; 3],
                    event: TaggedSymbol::Internal(Symbol(0)),
                    keep: false,
                }; NAME_CACHE_SLOTS],
            ),
            dropped: 0,
            tag_miss: false,
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
    fn simple(&mut self, m: &BlockMasks) -> Option<Simple> {
        let inside = prefix_xor(m.lt | m.gt) ^ self.inside;
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
        let m = cls.classify(data, bb);
        let Some(simple) = carry.simple(&m) else {
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
/// bit `i` is set, eight at a time through [`FORMS8`]. A simple block
/// ends at most 22 tags (`<a>` is three bytes), so the two unconditional
/// folds cover nearly every block without a data-dependent branch.
#[inline(always)]
fn fold_forms(forms: &mut Forms, seq: u64, n: usize) {
    let fold8 = |forms: &mut Forms, seq: u64, n: usize| {
        let [net, low, rise, top] = FORMS8[n][(seq & 0xFF) as usize];
        *forms = forms.then(Forms {
            events: n,
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
#[inline(always)]
fn walk_forms<C: BlockClassifier>(cls: C, data: &[u8], from: usize, budget: usize) -> FormsPass {
    let last_block = data.len().checked_sub(BLOCK);
    let mut carry = Carry::default();
    let mut borrow = 0u64;
    // Pass offsets of the last `<` and the last text word's first byte.
    let (mut last_lt, mut last_word) = (0usize, 0usize);
    let mut forms = Forms::default();
    let mut words = 0usize;
    let mut bb = from;
    let scalar_until = loop {
        if last_block.is_none_or(|last| bb > last) {
            break usize::MAX;
        }
        if forms.events >= budget {
            break 0;
        }
        let m = cls.classify(data, bb);
        let Some(simple) = carry.simple(&m) else {
            break bb + BLOCK;
        };
        words += simple.text_end.count_ones() as usize;
        let (rest, cut) = m.gt.overflowing_sub(simple.close);
        let (rest, cut_before) = rest.overflowing_sub(borrow);
        borrow = u64::from(cut | cut_before);
        fold_forms(
            &mut forms,
            cls.compress(m.gt & rest, m.gt),
            m.gt.count_ones() as usize,
        );
        let off = bb - from;
        if m.lt != 0 {
            last_lt = off + 63 - m.lt.leading_zeros() as usize;
        }
        if simple.text_start != 0 {
            last_word = off + 63 - simple.text_start.leading_zeros() as usize;
        }
        bb += BLOCK;
    };
    let end = if carry.inside != 0 {
        last_lt
    } else if carry.text != 0 {
        last_word
    } else {
        bb - from
    };
    FormsPass {
        forms,
        words,
        end,
        scalar_until,
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

/// A reusable window of reader bytes, validated chunk-at-a-time.
///
/// Layout: `buf[start..end]` is unread *validated* data, `buf[end..raw_end]`
/// is a carried multi-byte tail split by the last refill seam (re-validated
/// once its continuation arrives), and `offset_base` is the absolute stream
/// offset of `buf[0]`. Whatever stops the reader — clean EOF, an I/O error,
/// invalid or truncated UTF-8 — sets `eof`, and an error is *held* in
/// `pending`: the window behaves as if the stream ended at the last valid
/// scalar before it, and the typed error is handed out when the lexer
/// actually reaches that end.
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

    /// Pulls one more `read` past the window's end: compacts the consumed
    /// prefix, reads, and validates the new bytes (plus any carried seam
    /// tail). Returns whether the reader may have more; once it has stopped
    /// it is never read again.
    ///
    /// Because compaction moves only the *unconsumed* suffix to the front,
    /// positions relative to `data()` survive the refill — a token spanning
    /// any number of seams stays addressable as one contiguous slice, at
    /// the cost of growing the buffer only when a single token outgrows it
    /// (memory proportional to the longest token).
    fn read_more(&mut self) -> bool {
        if self.eof {
            return false;
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
        loop {
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
                    self.end += valid;
                    if matches!(stop, Utf8Stop::Invalid) {
                        // Nothing past the error is ever examined.
                        self.pending = Some(SaxError::InvalidUtf8 {
                            offset: self.offset_base + self.end,
                        });
                        self.eof = true;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.pending = Some(SaxError::Io(e));
                    self.eof = true;
                }
            }
            return !self.eof;
        }
    }

    /// Extends the window by at least one whole scalar. `Ok(false)` is
    /// clean EOF; a held error, now reached, is `Err`.
    fn grow(&mut self) -> Result<bool, SaxError> {
        let len = self.data().len();
        loop {
            let more = self.read_more();
            if self.data().len() > len {
                return Ok(true);
            }
            if !more {
                return self.pending.take().map_or(Ok(false), Err);
            }
        }
    }
}

/// The bulk lexer over one byte stream: a `ChunkWindow` on the reader,
/// the name resolver, the stage-1 tape, and the lex-ahead buffer of the
/// per-event [`Iterator`] view. It is generic over the [`ResolveName`]
/// policy; [`ByteTokenizer`](crate::sax::ByteTokenizer) (interning) and
/// [`FrozenByteTokenizer`](crate::sax::FrozenByteTokenizer) (read-only
/// lookup) name its two instances, and their docs give the lexical rules.
#[derive(Debug)]
pub struct BulkLexer<R: io::Read, N: ResolveName> {
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
    /// Set after yielding an error; the lexer is fused.
    failed: bool,
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
/// classify and emit the next token if it completes inside `data`, charging
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

impl<R: io::Read, N: ResolveName> BulkLexer<R, N> {
    /// Creates a lexer over a byte stream, resolving symbol names through
    /// `names`: `&mut Alphabet` interns them, `&Alphabet` looks them up
    /// read-only, and a [`Projection`](crate::sax::Projection) looks them
    /// up and drops the text words its artifact marks inert.
    pub fn new(reader: R, names: N) -> Self {
        BulkLexer {
            window: ChunkWindow::new(reader),
            core: LexerCore::new(names),
            tape: Tape::new(),
            ready: Vec::new(),
            ready_pos: 0,
            pending_err: None,
            failed: false,
        }
    }

    /// Text words read so far that the policy's projection dropped instead
    /// of emitting; always 0 for the alphabet policies. Tokens read are
    /// the events emitted plus this count.
    pub fn dropped(&self) -> usize {
        self.core.dropped
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
    pub(crate) fn fill_forms(&mut self, forms: &mut Forms, max: usize) -> Result<(), SaxError> {
        debug_assert!(
            self.ready_pos == self.ready.len(),
            "no event lexed ahead is pending"
        );
        let filled = self.fill_into(forms, max);
        if filled.is_err() {
            self.failed = true;
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
        self.fill_into(out, max)
    }

    /// The window loop of [`Self::fill`] and [`Self::fill_forms`].
    fn fill_into<O: FillOut>(&mut self, out: &mut O, max: usize) -> Result<(), SaxError> {
        if self.failed {
            return Ok(());
        }
        loop {
            if self.fill_window(out, max)? {
                return Ok(());
            }
            // `fill_window` consumed everything before the token it could
            // not decide.
            let data = self.window.data();
            if let [b'<', lead @ (b'!' | b'?'), ..] = *data {
                let tag_start = self.window.abs_offset();
                self.window.consume(2);
                self.lex_directive(tag_start, lead, out)?;
            } else if self.window.eof {
                // The reader has stopped: at a clean end nothing is left,
                // otherwise the error it stopped on is reached now.
                return self.window.pending.take().map_or(Ok(()), Err);
            } else {
                // A token cut by the window's end: grow the window until it
                // at least doubles or the reader stops, then step the same
                // token again. Doubling keeps the re-sweeps of one token
                // linear in its length, whatever the read size; an error
                // met while growing waits until the tokens before it are out.
                let want = (2 * data.len()).max(1);
                while self.window.read_more() && self.window.data().len() < want {}
            }
        }
    }

    /// The register-resident sweep of [`Self::fill`] over the bytes already
    /// windowed, on the [`scan_backend`]-selected stage-1 kernel: emits
    /// every event that completes inside the window, consumes exactly the
    /// bytes of the events emitted, and returns `Ok(true)` when `out`
    /// reached `max` (`Ok(false)` hands the undecided token to the caller).
    fn fill_window<O: FillOut>(&mut self, out: &mut O, max: usize) -> Result<bool, SaxError> {
        if !O::NAMES {
            return self.fill_window_on::<O, true, false>(out, max);
        }
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
    ) -> Result<bool, SaxError> {
        match scan_backend() {
            #[cfg(target_arch = "x86_64")]
            ScanBackend::Avx2 => {
                if let Some(kernel) = kernel::Avx2::detect() {
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
    /// rejected block — and the short window tail. The budget counts
    /// events written, so a window of dropped text words never ends the
    /// fill early.
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
    ) -> Result<bool, SaxError> {
        let base = self.window.abs_offset();
        // Does the window end where the stream ends cleanly?
        let eof = self.window.eof && self.window.pending.is_none();
        let data: &[u8] = &self.window.buf[self.window.start..self.window.end];
        let mut pos = 0usize;
        // Counted down instead of re-reading `out.len()` every event.
        let mut budget = max.saturating_sub(out.written());
        let mut scalar_until = 0usize;
        let full = loop {
            if budget == 0 {
                break true;
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
                        self.window.consume(at);
                        return Err(e);
                    }
                }
            }
            match step_token(&mut self.core, data, base, pos, eof, out, &mut budget) {
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
                return Err(parse_error(tag_start, "unterminated directive"));
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
                return Err(parse_error(tag_start, "unterminated directive"));
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
            let data = self.window.data();
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
        let content = &self.window.data()[..end];
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
        let mut lexer = BulkLexer::new(SplitReader::new(data, chunk), names);
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
        let backends = [ScanBackend::Swar, ScanBackend::Avx2, ScanBackend::Neon];
        for backend in backends.into_iter().filter(|&b| force_scan_backend(b)) {
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
        let mut lexer = BulkLexer::new(SplitReader::new(data, chunk), names);
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
        let backends = [ScanBackend::Swar, ScanBackend::Avx2, ScanBackend::Neon];
        for backend in backends.into_iter().filter(|&b| force_scan_backend(b)) {
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
        let backends = [ScanBackend::Swar, ScanBackend::Avx2, ScanBackend::Neon];
        let pad = "<a>w0</a> ".repeat(20);
        for backend in backends.into_iter().filter(|&b| force_scan_backend(b)) {
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
}
