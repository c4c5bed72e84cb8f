//! Property tests for the persistence subsystem (`Persist` / `Suspend`):
//!
//! * **round-trip equality** — `query::load(query::save(a)) == a`,
//!   structurally, for every compiled engine (warm memo caches included);
//! * **resume ≡ continue** — suspending at *every* prefix and resuming on
//!   a reloaded artifact observes the same verdict, step count and peak
//!   memory as the uninterrupted run at every subsequent prefix, pending
//!   edges included, and the final snapshots coincide;
//! * **run ↔ lane interchange** — a `LaneRun` driven by `step_slice`
//!   suspends to the same snapshot as a lane stepped event by event, and a
//!   resumed lane continues identically either way;
//! * **typed rejection** — corrupt bytes (truncated anywhere, or any byte
//!   flipped, header and payload alike) and cross-artifact snapshots are
//!   typed [`PersistError`]s, never panics or silent misreads.
//!
//! Cases are drawn from the suite's seeded generators (no crates.io access,
//! so no proptest); every failure is reproducible from the printed context.

mod common;

use common::{
    prop_iters, random_det_nwa, random_dfa, random_nnwa_with_transitions, random_stepwise,
    some_b_block,
};
use nested_words_suite::automata_core::persist::{checksum_bytes, kind, HEADER_LEN};
use nested_words_suite::nested_words::generate::{
    random_nested_word, random_tree, NestedWordConfig,
};
use nested_words_suite::nested_words::rng::Prng;
use nested_words_suite::nwa::joinless::joinless_from_nwa;
use nested_words_suite::nwa_xml::queries::{
    contains_tag_nwa, depth_at_most_nwa, open_depth_at_most_nwa, patterns_in_order_nwa,
};
use nested_words_suite::prelude::*;
use nested_words_suite::query;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn random_streams(count: usize, len: usize) -> Vec<Vec<TaggedSymbol>> {
    let ab = Alphabet::ab();
    let cfg = NestedWordConfig {
        len,
        allow_pending: true,
        ..Default::default()
    };
    (0..count as u64)
        .map(|seed| random_nested_word(&ab, cfg, seed).to_tagged())
        .collect()
}

fn tree_streams(count: usize) -> Vec<Vec<TaggedSymbol>> {
    let ab = Alphabet::ab();
    (0..count as u64)
        .map(|seed| random_tree(&ab, 9, 3, seed).to_tagged())
        .collect()
}

/// The resume ≡ continue law, checked exhaustively: for every prefix of
/// `events`, suspend there, resume on `load(save(artifact))`, and require
/// the continued run to observe exactly what the uninterrupted run
/// observes at every subsequent prefix — verdict, event count and peak
/// memory — with coinciding final snapshots.
fn check_suspend_everywhere<A: Suspend>(artifact: &A, events: &[TaggedSymbol], ctx: &str) {
    // The uninterrupted reference: observables at every prefix. (For the
    // memoizing summary engine this also warms the cache along the whole
    // stream, so the reload below ships every summary the cuts will need
    // and interned ids agree across the two artifacts.)
    let mut reference = Vec::with_capacity(events.len() + 1);
    let mut full = artifact.lane_start();
    reference.push(artifact.lane_outcome(&full));
    for &event in events {
        artifact.lane_step(&mut full, event);
        reference.push(artifact.lane_outcome(&full));
    }

    let reloaded: A = query::load(&query::save(artifact)).expect(ctx);
    for cut in 0..=events.len() {
        let mut lane = artifact.lane_start();
        for &event in &events[..cut] {
            artifact.lane_step(&mut lane, event);
        }
        let snapshot = query::suspend(artifact, &lane);
        // The snapshot round-trips through bytes like the artifact does.
        let snapshot = Snapshot::from_bytes(&snapshot.to_bytes()).expect(ctx);
        let mut resumed = query::resume(&reloaded, &snapshot).expect(ctx);
        assert_eq!(
            reloaded.lane_outcome(&resumed),
            reference[cut],
            "{ctx}, cut {cut}"
        );
        for (offset, &event) in events[cut..].iter().enumerate() {
            reloaded.lane_step(&mut resumed, event);
            assert_eq!(
                reloaded.lane_outcome(&resumed),
                reference[cut + 1 + offset],
                "{ctx}, cut {cut}, offset {offset}"
            );
        }
        assert_eq!(
            reloaded.suspend_lane(&resumed),
            artifact.suspend_lane(&full),
            "{ctx}, cut {cut}: final snapshots diverge"
        );
    }
}

/// The run ↔ lane interchange law at a single cut: a run (`LaneRun`, fed
/// by the `step_slice` bulk loop) and a lane stepped event by event suspend
/// to the same snapshot, and the snapshot resumed as a run continues
/// exactly like it resumed as a lane.
fn check_run_lane_interchange<A: Suspend>(
    artifact: &A,
    events: &[TaggedSymbol],
    cut: usize,
    ctx: &str,
) {
    let mut run = LaneRun::new(artifact);
    let mut lane = artifact.lane_start();
    run.step_slice(&events[..cut]);
    for &event in &events[..cut] {
        artifact.lane_step(&mut lane, event);
    }
    let from_run = query::suspend(artifact, run.lane());
    let from_lane = artifact.suspend_lane(&lane);
    assert_eq!(from_run, from_lane, "{ctx}: run and lane snapshots differ");

    let mut as_lane = artifact.resume_lane(&from_run).expect(ctx);
    let mut as_run = LaneRun::from_lane(artifact, artifact.resume_lane(&from_lane).expect(ctx));
    for &event in &events[cut..] {
        artifact.lane_step(&mut as_lane, event);
    }
    as_run.step_slice(&events[cut..]);
    let lane_outcome = artifact.lane_outcome(&as_lane);
    assert_eq!(lane_outcome.accepted, as_run.is_accepting(), "{ctx}");
    assert_eq!(lane_outcome.events, as_run.steps(), "{ctx}");
    assert_eq!(lane_outcome.peak_memory, as_run.peak_memory(), "{ctx}");
    assert_eq!(
        artifact.lane_stack_height(&as_lane),
        as_run.stack_height(),
        "{ctx}"
    );
}

/// Corruption of the byte image — truncation at every length, every byte
/// flipped — is a typed error, never a panic and never a silent `Ok`.
fn check_corruption_rejected<A: Suspend + std::fmt::Debug>(artifact: &A, ctx: &str) {
    let bytes = query::save(artifact);
    for cut in 0..bytes.len() {
        assert!(
            query::load::<A>(&bytes[..cut]).is_err(),
            "{ctx}: truncation to {cut} bytes decoded"
        );
    }
    for i in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[i] ^= 0x40;
        assert!(
            query::load::<A>(&bad).is_err(),
            "{ctx}: flipped byte {i} decoded"
        );
    }
}

#[test]
fn compiled_nwa_round_trips_and_resumes_everywhere() {
    let streams = random_streams(prop_iters(6), 18);
    for seed in 0..4u64 {
        let compiled = random_det_nwa(4, 2, seed).compile();
        let reloaded: CompiledNwa = query::load(&query::save(&compiled)).unwrap();
        assert_eq!(reloaded, compiled, "seed {seed}");
        for (i, events) in streams.iter().enumerate() {
            check_suspend_everywhere(&compiled, events, &format!("nwa seed {seed}, stream {i}"));
            check_run_lane_interchange(
                &compiled,
                events,
                events.len() / 2,
                &format!("nwa seed {seed}, stream {i}"),
            );
        }
    }
}

/// Streams over `{a, b}` on which `contains_tag(a)` settles mid-stream:
/// no call `a` before position `settle`, one there, random events after.
/// The settling points straddle the slice loop's 1024-event blocks, so a
/// sliced run settles at a block's end while a per-event run settles at
/// the event itself.
fn settling_streams(len: usize, settle_at: &[usize]) -> Vec<Vec<TaggedSymbol>> {
    let (a, b) = (Symbol(0), Symbol(1));
    random_streams(settle_at.len(), len)
        .into_iter()
        .zip(settle_at)
        .map(|(mut events, &settle)| {
            for event in &mut events[..settle] {
                if *event == TaggedSymbol::Call(a) {
                    *event = TaggedSymbol::Call(b);
                }
            }
            events.insert(settle, TaggedSymbol::Call(a));
            events
        })
        .collect()
}

/// A settled lane's snapshot is canonical, so both laws hold across the
/// settling point, cut at every prefix: the lane resumed from any cut
/// finishes like the uninterrupted one, and a sliced run and an
/// event-by-event lane suspend to the same snapshot wherever they are cut.
#[test]
fn settled_lanes_suspend_canonically_at_every_prefix() {
    let compiled = contains_tag_nwa(Symbol(0), 2).compile();
    let streams = settling_streams(1_300, &[3, 700, 1_100]);
    for (i, events) in streams.iter().enumerate() {
        let ctx = format!("settling stream {i}");
        check_suspend_everywhere(&compiled, events, &ctx);
        for cut in 0..=events.len() {
            check_run_lane_interchange(&compiled, events, cut, &format!("{ctx}, cut {cut}"));
        }
    }
}

#[test]
fn compiled_summary_engines_round_trip_and_resume_everywhere() {
    let streams = random_streams(prop_iters(4), 14);
    for seed in 0..3u64 {
        let nnwa = random_nnwa_with_transitions(3, 2, 9, seed);
        let compiled = nnwa.compile();
        for (i, events) in streams.iter().enumerate() {
            check_suspend_everywhere(&compiled, events, &format!("nnwa seed {seed}, stream {i}"));
            check_run_lane_interchange(
                &compiled,
                events,
                events.len() / 2,
                &format!("nnwa seed {seed}, stream {i}"),
            );
        }
        // After the runs above the memo cache is warm; the warm cache is
        // part of the artifact and of its structural equality.
        let reloaded: CompiledSummary = query::load(&query::save(&compiled)).unwrap();
        assert_eq!(reloaded, compiled, "nnwa seed {seed}");

        let joinless = joinless_from_nwa(&nnwa);
        let compiled = joinless.compile();
        for (i, events) in streams.iter().enumerate() {
            check_suspend_everywhere(
                &compiled,
                events,
                &format!("joinless seed {seed}, stream {i}"),
            );
        }
        let reloaded: CompiledSummary = query::load(&query::save(&compiled)).unwrap();
        assert_eq!(reloaded, compiled, "joinless seed {seed}");
    }
}

#[test]
fn compiled_tagged_dfa_round_trips_and_resumes_everywhere() {
    let streams = random_streams(prop_iters(6), 18);
    for seed in 0..4u64 {
        // A tagged DFA reads Σ̂, so the raw DFA has 3·σ symbols (σ = 2).
        let compiled = random_dfa(5, 6, seed).compile();
        let reloaded: CompiledTaggedDfa = query::load(&query::save(&compiled)).unwrap();
        assert_eq!(reloaded, compiled, "seed {seed}");
        for (i, events) in streams.iter().enumerate() {
            check_suspend_everywhere(&compiled, events, &format!("dfa seed {seed}, stream {i}"));
            check_run_lane_interchange(
                &compiled,
                events,
                events.len() / 2,
                &format!("dfa seed {seed}, stream {i}"),
            );
        }
    }
}

#[test]
fn compiled_stepwise_ta_round_trips_and_resumes_everywhere() {
    // Both genuine tree encodings (meaningful verdicts) and arbitrary
    // nested-word streams (the lowered NWA parks them in its dead state,
    // where they settle — which must survive suspension like any other
    // state).
    let mut streams = tree_streams(prop_iters(4));
    streams.extend(random_streams(2, 12));
    for seed in 0..4u64 {
        let compiled = random_stepwise(3, 2, seed).compile();
        let reloaded: CompiledNwa = query::load(&query::save(&compiled)).unwrap();
        assert_eq!(reloaded, compiled, "seed {seed}");
        for (i, events) in streams.iter().enumerate() {
            check_suspend_everywhere(
                &compiled,
                events,
                &format!("stepwise seed {seed}, stream {i}"),
            );
            check_run_lane_interchange(
                &compiled,
                events,
                events.len() / 2,
                &format!("stepwise seed {seed}, stream {i}"),
            );
        }
    }
}

#[test]
fn corrupt_bytes_are_typed_errors_for_every_engine() {
    check_corruption_rejected(&random_det_nwa(3, 2, 7).compile(), "compiled nwa");
    check_corruption_rejected(&random_dfa(3, 6, 7).compile(), "compiled tagged dfa");
    check_corruption_rejected(&random_stepwise(3, 2, 7).compile(), "compiled stepwise ta");
    let nnwa = random_nnwa_with_transitions(3, 2, 8, 7);
    // Warm the cache so the corrupt image also sweeps the memo sections.
    let compiled = nnwa.compile();
    for events in random_streams(2, 10) {
        let mut lane = compiled.lane_start();
        for event in events {
            compiled.lane_step(&mut lane, event);
        }
    }
    check_corruption_rejected(&compiled, "compiled summary (warm cache)");
    check_corruption_rejected(&joinless_from_nwa(&nnwa).compile(), "compiled joinless");

    // A well-formed summary image whose internal memo section declares 2⁴⁰
    // rows, resealed so the (forgeable) checksum passes: the count must be
    // refused against the remaining payload, not handed to an allocator.
    let mut tiny = Nnwa::new(1, 1);
    tiny.add_initial(0);
    let mut bytes = query::save(&tiny.compile());
    // A cold engine ends in four empty memo sections (internal, call,
    // pending, matched), one u64 row count each.
    let internal_count = bytes.len() - 32;
    assert_eq!(bytes[internal_count..], [0; 32]);
    bytes[internal_count..internal_count + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
    let checksum = checksum_bytes(&bytes[HEADER_LEN..]);
    bytes[24..32].copy_from_slice(&checksum.to_le_bytes());
    assert!(bytes.len() < 200, "{} bytes", bytes.len());
    assert!(matches!(
        query::load::<CompiledSummary>(&bytes),
        Err(PersistError::Truncated { .. })
    ));
}

/// A summary image saved by an earlier build (the `some_b_block` engine
/// warmed on the first eight streams below) still loads, re-saves byte for
/// byte, equals an engine warmed the same way now, and decides the same:
/// the image format is fixed, so images already shipped keep working.
#[test]
fn a_previously_saved_summary_image_loads_unchanged() {
    const IMAGE: &[u8] = include_bytes!("fixtures/summary_some_b_block.nwsa");
    let ab = Alphabet::ab();
    let cfg = NestedWordConfig {
        len: 24,
        allow_pending: true,
        ..Default::default()
    };
    let streams: Vec<Vec<TaggedSymbol>> = (0..12u64)
        .map(|seed| random_nested_word(&ab, cfg, seed).to_tagged())
        .collect();
    let n = some_b_block();
    let warm = n.compile();
    for events in &streams[..8] {
        query::run_stream(&warm, events.iter().copied());
    }
    let loaded: CompiledSummary = query::load(IMAGE).unwrap();
    assert_eq!(query::save(&loaded), IMAGE);
    assert_eq!(query::save(&warm), IMAGE);
    assert_eq!(loaded, warm);
    let verdicts: Vec<bool> = streams
        .iter()
        .map(|events| query::contains_stream(&loaded, events.iter().copied()))
        .collect();
    let expected = [
        true, true, true, false, false, true, true, true, false, true, false, true,
    ];
    assert_eq!(verdicts, expected);
    for (events, &verdict) in streams.iter().zip(&expected) {
        assert_eq!(query::contains_stream(&n, events.iter().copied()), verdict);
    }
}

/// An event outside the alphabet panics before the memo is touched, so the
/// engine's own image still loads afterwards.
#[test]
fn an_out_of_alphabet_event_leaves_the_summary_image_loadable() {
    let nnwa = some_b_block();
    for compiled in [nnwa.compile(), joinless_from_nwa(&nnwa).compile()] {
        let mut lane = compiled.lane_start();
        compiled.lane_step(&mut lane, TaggedSymbol::Call(Symbol(1)));
        let outside = TaggedSymbol::Internal(Symbol(5));
        let caught = catch_unwind(AssertUnwindSafe(|| compiled.lane_step(&mut lane, outside)));
        assert!(caught.is_err());
        let reloaded: CompiledSummary = query::load(&query::save(&compiled)).unwrap();
        assert_eq!(reloaded, compiled);
    }
}

#[test]
fn artifacts_reject_foreign_bytes_and_foreign_snapshots() {
    let nwa_artifact = random_det_nwa(3, 2, 1).compile();
    let dfa_artifact = random_dfa(3, 6, 1).compile();

    // Bytes of one kind do not load as another: typed WrongKind.
    assert!(matches!(
        query::load::<CompiledTaggedDfa>(&query::save(&nwa_artifact)),
        Err(PersistError::WrongKind { .. })
    ));
    assert!(matches!(
        query::load::<CompiledNwa>(&query::save(&dfa_artifact)),
        Err(PersistError::WrongKind { .. })
    ));
    // Kind 3, the retired joinless summary engine, is refused by the one
    // summary loader.
    let mut joinless_kind = query::save(&some_b_block().compile());
    joinless_kind[6..8].copy_from_slice(&3u16.to_le_bytes());
    assert!(matches!(
        query::load::<CompiledSummary>(&joinless_kind),
        Err(PersistError::WrongKind {
            expected: 2,
            found: 3
        })
    ));

    // A snapshot parked by one artifact does not resume on a different
    // artifact of the same kind: typed FingerprintMismatch.
    let other = random_det_nwa(3, 2, 2).compile();
    let mut lane = nwa_artifact.lane_start();
    nwa_artifact.lane_step(&mut lane, TaggedSymbol::Call(Symbol(0)));
    let snapshot = query::suspend(&nwa_artifact, &lane);
    assert!(matches!(
        query::resume(&other, &snapshot),
        Err(PersistError::FingerprintMismatch { .. })
    ));
    // It does resume on a byte-identical reload.
    let reloaded: CompiledNwa = query::load(&query::save(&nwa_artifact)).unwrap();
    assert!(query::resume(&reloaded, &snapshot).is_ok());
}

/// Whether loading `bytes` as an `A` is a typed `WrongKind` for kind 5,
/// without a panic.
fn refuses_kind_5<A: Persist>(bytes: &[u8]) -> bool {
    let loaded = catch_unwind(AssertUnwindSafe(|| query::load::<A>(bytes).err()));
    matches!(loaded, Ok(Some(PersistError::WrongKind { expected, found: 5 })) if expected == A::KIND)
}

/// Kind 5 named the retired stepwise engine, which stepwise automata no
/// longer compile to: they save as compiled NWAs (kind 1), and an image of
/// kind 5 is a typed `WrongKind` for every loader, never a panic.
#[test]
fn the_retired_stepwise_kind_is_refused() {
    let stepwise = query::save(&random_stepwise(3, 2, 0).compile());
    assert_eq!(stepwise[6..8], kind::COMPILED_NWA.to_le_bytes());
    for (name, mut bytes) in [("stepwise", stepwise), ("set", query::save(&pinned_set(0)))] {
        bytes[6..8].copy_from_slice(&5u16.to_le_bytes());
        assert!(refuses_kind_5::<CompiledNwa>(&bytes), "{name}");
        assert!(refuses_kind_5::<QuerySet>(&bytes), "{name}");
        assert!(refuses_kind_5::<CompiledTaggedDfa>(&bytes), "{name}");
        assert!(refuses_kind_5::<CompiledSummary>(&bytes), "{name}");
    }
}

// --------------------------------------------------------------------------
// Fingerprints: computed on first use, bit for bit the saved images' own
// --------------------------------------------------------------------------

/// Content fingerprints of a few artifacts of every compiled type. Every
/// snapshot is stamped with its artifact's fingerprint and a saved image's
/// checksum feeds its loader's, so a change to any of these values
/// strands every snapshot taken before it.
const PINNED_NWA: [u64; 4] = [
    0xa20d_fa08_752c_543d,
    0x5ba0_d294_283b_65c1,
    0xea39_7e53_15ba_61e5,
    0xc8fd_73c7_d72e_0819,
];
const PINNED_DFA: [u64; 2] = [0xb92f_b795_9e30_8c3a, 0x5bb1_868a_6439_f39f];
/// Stepwise automata lowered into `CompiledNwa` (Lemma 1). The images
/// these replaced, of the retired kind 5, no longer load.
const PINNED_LOWERED_STEPWISE: [u64; 2] = [0x12a2_b706_4ad3_949c, 0x790f_aefc_9a27_4e9d];
const PINNED_SUMMARY: [u64; 3] = [
    0xb627_268f_655d_81d1,
    0xdb1f_0991_ec4e_0192,
    0x5612_bc7e_1d20_2092,
];
const PINNED_SET: [u64; 2] = [0xdaf9_8039_8638_0e6d, 0xc4ad_e97e_25f6_2680];

fn pinned_nwa(i: usize) -> CompiledNwa {
    match i {
        0 | 1 => random_det_nwa(4, 2, i as u64).compile(),
        2 => contains_tag_nwa(Symbol(0), 2).compile(),
        _ => patterns_in_order_nwa(&[Symbol(1), Symbol(0)], 2).compile(),
    }
}

fn pinned_dfa(i: usize) -> CompiledTaggedDfa {
    random_dfa(5, 6, i as u64).compile()
}

fn pinned_stepwise(i: usize) -> CompiledNwa {
    random_stepwise(3, 2, i as u64).compile()
}

fn pinned_summary(i: usize) -> CompiledSummary {
    match i {
        0 => some_b_block().compile(),
        1 => random_nnwa_with_transitions(3, 2, 9, 0).compile(),
        _ => joinless_from_nwa(&random_nnwa_with_transitions(3, 2, 9, 0)).compile(),
    }
}

/// A product-shaped set (one engine) and a per-member one (three engines:
/// their product table is far over the cap).
fn pinned_set(i: usize) -> QuerySet {
    let set = match i {
        0 => query::compile_set(&[contains_tag_nwa(Symbol(0), 2), random_det_nwa(4, 2, 0)]),
        _ => query::compile_set(&[
            open_depth_at_most_nwa(30, 2),
            depth_at_most_nwa(8, 2),
            contains_tag_nwa(Symbol(1), 2),
        ]),
    };
    assert_eq!(set.num_engines(), if i == 0 { 1 } else { 3 });
    set
}

/// Checks an artifact's fingerprint against its pinned value three ways,
/// each on artifacts nobody asked for it before: asked once; of the
/// artifact `load(save(..))` gives back; and asked by two threads at
/// once.
fn check_first_use<A: Persist + Sync>(build: impl Fn() -> A, pinned: u64, ctx: &str) {
    assert_eq!(build().fingerprint(), pinned, "{ctx}: fresh compile");
    let reloaded: A = query::load(&query::save(&build())).expect(ctx);
    assert_eq!(reloaded.fingerprint(), pinned, "{ctx}: load(save(..))");
    let artifact = build();
    let gate = std::sync::Barrier::new(2);
    let [a, b] = std::thread::scope(|s| {
        [(); 2]
            .map(|()| {
                s.spawn(|| {
                    gate.wait();
                    artifact.fingerprint()
                })
            })
            .map(|h| h.join().expect(ctx))
    });
    assert_eq!((a, b), (pinned, pinned), "{ctx}: two threads at once");
}

/// A clone taken before the first use equals the artifact after it, and
/// one taken after equals one taken before; all report the same value.
fn check_clones<A: Persist + Clone + PartialEq + std::fmt::Debug>(artifact: A, ctx: &str) {
    let before = artifact.clone();
    let fingerprint = artifact.fingerprint();
    let after = artifact.clone();
    assert_eq!(before, artifact, "{ctx}");
    assert_eq!(after, before, "{ctx}");
    assert_eq!(before.fingerprint(), fingerprint, "{ctx}");
    assert_eq!(after.fingerprint(), fingerprint, "{ctx}");
}

/// Suspends a lane of an artifact nobody asked for its fingerprint,
/// halfway through `events`, and resumes it on a reload of that artifact
/// (warm, as a summary engine's ids need), itself not asked either: it
/// finishes like the uninterrupted run.
fn check_suspend_before_first_use<A: Suspend>(
    build: impl Fn() -> A,
    events: &[TaggedSymbol],
    ctx: &str,
) {
    let reference = query::run_batch(&build(), &[events]).remove(0);
    let artifact = build();
    let mut lane = artifact.lane_start();
    for &event in &events[..events.len() / 2] {
        artifact.lane_step(&mut lane, event);
    }
    let snapshot = query::suspend(&artifact, &lane);
    let reloaded: A = query::load(&query::save(&artifact)).expect(ctx);
    let mut resumed = query::resume(&reloaded, &snapshot).expect(ctx);
    for &event in &events[events.len() / 2..] {
        reloaded.lane_step(&mut resumed, event);
    }
    assert_eq!(reloaded.lane_outcome(&resumed), reference, "{ctx}");
    assert_eq!(snapshot.fingerprint, build().fingerprint(), "{ctx}");
}

#[test]
fn fingerprints_keep_their_pinned_values_on_first_use() {
    for (i, &pinned) in PINNED_NWA.iter().enumerate() {
        check_first_use(|| pinned_nwa(i), pinned, &format!("nwa {i}"));
    }
    for (i, &pinned) in PINNED_DFA.iter().enumerate() {
        check_first_use(|| pinned_dfa(i), pinned, &format!("dfa {i}"));
    }
    for (i, &pinned) in PINNED_LOWERED_STEPWISE.iter().enumerate() {
        check_first_use(|| pinned_stepwise(i), pinned, &format!("stepwise {i}"));
    }
    for (i, &pinned) in PINNED_SUMMARY.iter().enumerate() {
        check_first_use(|| pinned_summary(i), pinned, &format!("summary {i}"));
    }
    for (i, &pinned) in PINNED_SET.iter().enumerate() {
        check_first_use(|| pinned_set(i), pinned, &format!("set {i}"));
    }
}

#[test]
fn clones_agree_across_the_first_use() {
    for i in 0..PINNED_NWA.len() {
        check_clones(pinned_nwa(i), &format!("nwa {i}"));
    }
    for i in 0..PINNED_DFA.len() {
        check_clones(pinned_dfa(i), &format!("dfa {i}"));
    }
    for i in 0..PINNED_LOWERED_STEPWISE.len() {
        check_clones(pinned_stepwise(i), &format!("stepwise {i}"));
    }
    for i in 0..PINNED_SUMMARY.len() {
        check_clones(pinned_summary(i), &format!("summary {i}"));
    }
}

#[test]
fn lanes_suspend_and_resume_before_the_fingerprint_is_asked_for() {
    let events = &random_streams(1, 24)[0];
    let tree = &tree_streams(1)[0];
    for i in 0..PINNED_NWA.len() {
        check_suspend_before_first_use(|| pinned_nwa(i), events, &format!("nwa {i}"));
    }
    for i in 0..PINNED_DFA.len() {
        check_suspend_before_first_use(|| pinned_dfa(i), events, &format!("dfa {i}"));
    }
    for i in 0..PINNED_LOWERED_STEPWISE.len() {
        check_suspend_before_first_use(|| pinned_stepwise(i), tree, &format!("stepwise {i}"));
    }
    for i in 0..PINNED_SUMMARY.len() {
        check_suspend_before_first_use(|| pinned_summary(i), events, &format!("summary {i}"));
    }
}

/// Reseals an image's payload checksum after its payload was edited.
fn reseal(bytes: &mut [u8]) {
    let checksum = checksum_bytes(&bytes[HEADER_LEN..]);
    bytes[24..32].copy_from_slice(&checksum.to_le_bytes());
}

/// `bytes` with one to three 4-byte payload words overwritten — by a
/// random word, zero, a small number or a copy of another payload word —
/// and the checksum resealed, so the loader's own checks must catch it.
fn forge(bytes: &[u8], rng: &mut Prng) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let words = (out.len() - HEADER_LEN) / 4;
    for _ in 0..1 + rng.below(3) {
        let (at, donor) = (
            HEADER_LEN + 4 * rng.below(words),
            HEADER_LEN + 4 * rng.below(words),
        );
        let value = match rng.below(4) {
            0 => rng.next_u64() as u32,
            1 => 0,
            2 => rng.below(64) as u32,
            _ => u32::from_le_bytes(out[donor..donor + 4].try_into().unwrap()),
        };
        out[at..at + 4].copy_from_slice(&value.to_le_bytes());
    }
    reseal(&mut out);
    out
}

/// A query-set image with the member images it nests resealed too, where
/// the forged outer payload still frames them (layout word, query count,
/// σ, engine count, then per engine a framed image and its masks), so a
/// forged word inside a member reaches the member's loader.
fn reseal_members(bytes: &mut [u8]) {
    let word = |bytes: &[u8], at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    let mut at = HEADER_LEN + 12;
    let Some(count) = bytes.get(at..at + 4) else {
        return;
    };
    let count = u32::from_le_bytes(count.try_into().unwrap());
    at += 4;
    for _ in 0..count.min(64) {
        let Some(len) = (at + 8 <= bytes.len()).then(|| word(bytes, at) as usize) else {
            return;
        };
        let image = at + 8;
        if len < HEADER_LEN || image + len + 8 > bytes.len() {
            return;
        }
        reseal(&mut bytes[image..image + len]);
        let masks = word(bytes, image + len) as usize;
        at = image + len + 8 + 8 * masks.min(bytes.len());
    }
    reseal(bytes);
}

/// Random tagged events over `sigma` symbols, pending calls and returns
/// included.
fn random_events(rng: &mut Prng, sigma: usize) -> Vec<TaggedSymbol> {
    (0..rng.below(40))
        .map(|_| {
            let a = Symbol(rng.below(sigma) as u16);
            [
                TaggedSymbol::Call(a),
                TaggedSymbol::Internal(a),
                TaggedSymbol::Return(a),
            ][rng.below(3)]
        })
        .collect()
}

/// The forged-image property: an image with payload words overwritten
/// and its checksum resealed either loads to a typed error, or to an
/// artifact that runs 8 random streams without a panic and re-saves to
/// bytes that load to an equal artifact. Returns how many forged images
/// loaded.
fn check_forged_images<A: Persist + StreamAcceptor + PartialEq + std::fmt::Debug>(
    artifact: &A,
    sigma: usize,
    members: bool,
    seed: u64,
    ctx: &str,
) -> usize {
    let mut rng = Prng::new(seed);
    let bytes = query::save(artifact);
    let mut loaded = 0;
    for i in 0..prop_iters(150) {
        let mut forged = forge(&bytes, &mut rng);
        if members {
            reseal_members(&mut forged);
        }
        let ctx = format!("{ctx}, forgery {i}");
        let load = catch_unwind(AssertUnwindSafe(|| query::load::<A>(&forged)));
        let Ok(forged) = load.unwrap_or_else(|_| panic!("{ctx}: load panicked")) else {
            continue;
        };
        loaded += 1;
        for _ in 0..8 {
            let events = random_events(&mut rng, sigma);
            catch_unwind(AssertUnwindSafe(|| query::run_stream(&forged, events)))
                .unwrap_or_else(|_| panic!("{ctx}: a run panicked"));
        }
        let resaved = query::save(&forged);
        assert_eq!(query::load::<A>(&resaved).as_ref(), Ok(&forged), "{ctx}");
    }
    loaded
}

/// Snapshots forged the same way: decoding gives a typed error, or
/// resuming does, or the resumed lane steps on without a panic.
fn check_forged_snapshots<A: Suspend>(artifact: &A, sigma: usize, seed: u64, ctx: &str) {
    let mut rng = Prng::new(seed);
    for i in 0..prop_iters(150) {
        let events = random_events(&mut rng, sigma);
        let mut lane = artifact.lane_start();
        artifact.lane_step_slice(&mut lane, &events[..events.len() / 2]);
        let forged = forge(&artifact.suspend_lane(&lane).to_bytes(), &mut rng);
        catch_unwind(AssertUnwindSafe(|| {
            if let Ok(snapshot) = Snapshot::from_bytes(&forged) {
                if let Ok(mut lane) = artifact.resume_lane(&snapshot) {
                    artifact.lane_step_slice(&mut lane, &events[events.len() / 2..]);
                    artifact.lane_outcome(&lane);
                }
            }
        }))
        .unwrap_or_else(|_| panic!("{ctx}, snapshot forgery {i}: resume panicked"));
    }
}

/// The load-time class derivation runs on untrusted tables: forged images
/// of a compiled NWA, a lowered stepwise automaton and query sets of both
/// shapes, and forged snapshots of compiled NWAs (query sets take no
/// snapshots), give typed errors or working artifacts that re-save
/// faithfully — never a panic.
#[test]
fn forged_images_and_snapshots_load_to_errors_or_working_artifacts() {
    let nwa = random_det_nwa(4, 3, 11).compile();
    assert!(check_forged_images(&nwa, 3, false, 1, "compiled nwa") > 0);
    check_forged_snapshots(&nwa, 3, 2, "compiled nwa");
    let stepwise = random_stepwise(3, 2, 11).compile();
    assert!(check_forged_images(&stepwise, 2, false, 3, "lowered stepwise") > 0);
    check_forged_snapshots(&stepwise, 2, 4, "lowered stepwise");
    for (i, set) in [pinned_set(0), pinned_set(1)].iter().enumerate() {
        let ctx = format!("query set of {} engines", set.num_engines());
        assert!(
            check_forged_images(set, 2, true, 5 + i as u64, &ctx) > 0,
            "{ctx}"
        );
    }
    // A member of the per-member set, deeper than the others.
    let open = open_depth_at_most_nwa(30, 2).compile();
    check_forged_snapshots(&open, 2, 7, "open-depth member");
}
