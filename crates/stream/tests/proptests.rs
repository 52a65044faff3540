//! Property-based tests for the collection engine.

use proptest::prelude::*;
use trimgame_stream::board::{PublicBoard, RangedVenue, RoundRecord};
use trimgame_stream::compact::{Compactor, TierConfig};
use trimgame_stream::frame::Frame;
use trimgame_stream::trim::{trim, TrimOp, TrimOutcome, TrimScratch, TrimScratchF32};

/// Straightforward sort-based reference implementation of the upper
/// percentile cut, independent of the selection-based production path.
fn reference_upper_cut(values: &[f64], p: f64) -> TrimOutcome {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite batch"));
    let threshold = trimgame_numerics::quantile::percentile_sorted(&sorted, p, Default::default());
    let kept_mask: Vec<bool> = values.iter().map(|&v| v <= threshold).collect();
    let kept: Vec<f64> = values.iter().copied().filter(|&v| v <= threshold).collect();
    TrimOutcome {
        trimmed: values.len() - kept.len(),
        kept,
        kept_mask,
        threshold_value: Some(threshold),
    }
}

fn records(n: usize) -> Vec<RoundRecord> {
    (1..=n)
        .map(|round| RoundRecord {
            round,
            threshold_percentile: 0.9,
            threshold_value: Some(1.0),
            received: 10,
            trimmed: round % 3,
            retained: trimgame_numerics::stats::OnlineStats::new(),
            quality: 1.0,
        })
        .collect()
}

proptest! {
    #[test]
    fn f32_absolute_cut_matches_scalar_reference(
        values in prop::collection::vec((-40i32..40).prop_map(|i| i as f32 * 0.25), 0..3_000),
        cut in -11.0_f64..11.0,
    ) {
        // The f32 in-place cut (SIMD kernel) must be bit-identical to the
        // obvious scalar loop against the downcast threshold — including
        // ties exactly at the threshold (the discrete value grid makes
        // them common) and across vector-width boundaries.
        let cut32 = cut as f32;
        let ref_mask: Vec<bool> = values.iter().map(|&v| v <= cut32).collect();
        let ref_kept: Vec<f32> = values.iter().copied().filter(|&v| v <= cut32).collect();
        let mut scratch = TrimScratchF32::new();
        let stats = TrimOp::Absolute(cut).apply_in_place_f32(&values, &mut scratch);
        prop_assert_eq!(scratch.kept_mask(), ref_mask.as_slice());
        prop_assert_eq!(scratch.kept(), ref_kept.as_slice());
        prop_assert_eq!(stats.kept, ref_kept.len());
        prop_assert_eq!(stats.trimmed, values.len() - ref_kept.len());
        prop_assert_eq!(stats.threshold_value, Some(f64::from(cut32)));
    }

    #[test]
    fn f32_percentile_cut_matches_upcast_reference(
        values in prop::collection::vec((-40i32..40).prop_map(|i| i as f32 * 0.25), 1..2_000),
        p in 0.0_f64..=1.0,
    ) {
        // The f32 percentile path resolves its threshold on the upcast
        // batch (same arithmetic as the f64 path) and cuts in f32: the
        // result must match the reference built from the same recipe.
        let upcast: Vec<f64> = values.iter().map(|&v| f64::from(v)).collect();
        let threshold = trimgame_numerics::quantile::percentile(
            &upcast, p, Default::default()) as f32;
        let ref_mask: Vec<bool> = values.iter().map(|&v| v <= threshold).collect();
        let ref_kept: Vec<f32> = values.iter().copied().filter(|&v| v <= threshold).collect();
        let mut scratch = TrimScratchF32::new();
        let stats = TrimOp::UpperPercentile(p).apply_in_place_f32(&values, &mut scratch);
        prop_assert_eq!(scratch.kept_mask(), ref_mask.as_slice());
        prop_assert_eq!(scratch.kept(), ref_kept.as_slice());
        prop_assert_eq!(stats.threshold_value, Some(f64::from(threshold)));
    }

    #[test]
    fn f32_two_sided_band_matches_scalar_reference(
        values in prop::collection::vec((-40i32..40).prop_map(|i| i as f32 * 0.25), 1..2_000),
        lo in 0.0_f64..0.5,
        width in 0.0_f64..0.5,
    ) {
        let upcast: Vec<f64> = values.iter().map(|&v| f64::from(v)).collect();
        let interp = trimgame_numerics::quantile::Interpolation::Linear;
        let lo_v = trimgame_numerics::quantile::percentile(&upcast, lo, interp) as f32;
        let hi_v = trimgame_numerics::quantile::percentile(&upcast, lo + width, interp) as f32;
        let keep = |v: f32| (v >= lo_v) & (v <= hi_v);
        let ref_kept: Vec<f32> = values.iter().copied().filter(|&v| keep(v)).collect();
        let mut scratch = TrimScratchF32::new();
        let stats = TrimOp::TwoSided { lo, hi: lo + width }.apply_in_place_f32(&values, &mut scratch);
        prop_assert_eq!(scratch.kept(), ref_kept.as_slice());
        prop_assert_eq!(stats.kept, ref_kept.len());
        prop_assert_eq!(stats.lower_value, Some(f64::from(lo_v)));
    }
}

proptest! {
    #[test]
    fn chunked_absolute_cut_matches_branching_reference(
        values in prop::collection::vec(-1e3_f64..1e3, 0..3_000),
        cut in -1.1e3_f64..1.1e3,
    ) {
        // The branch-light chunked pass (mask per fixed-size chunk, single
        // compaction) must be bit-identical to the obvious branching loop —
        // including across chunk boundaries (sizes beyond 1024 exercise
        // multi-chunk inputs).
        let ref_mask: Vec<bool> = values.iter().map(|&v| v <= cut).collect();
        let ref_kept: Vec<f64> = values.iter().copied().filter(|&v| v <= cut).collect();
        let mut scratch = TrimScratch::new();
        let stats = TrimOp::Absolute(cut).apply_in_place(&values, &mut scratch);
        prop_assert_eq!(scratch.kept_mask(), ref_mask.as_slice());
        prop_assert_eq!(scratch.kept(), ref_kept.as_slice());
        prop_assert_eq!(stats.kept, ref_kept.len());
        prop_assert_eq!(stats.trimmed, values.len() - ref_kept.len());
        prop_assert_eq!(stats.threshold_value, Some(cut));
    }

    #[test]
    fn chunked_two_sided_cut_matches_branching_reference(
        values in prop::collection::vec(-1e3_f64..1e3, 1..2_500),
        lo in 0.0_f64..0.5,
        width in 0.0_f64..0.5,
    ) {
        // Given the resolved percentile bounds, the chunked mask/compaction
        // must reproduce the obvious per-element branching loop exactly.
        let op = TrimOp::TwoSided { lo, hi: lo + width };
        let mut scratch = TrimScratch::new();
        let stats = op.apply_in_place(&values, &mut scratch);
        let lo_v = stats.lower_value.expect("two-sided reports a lower bound");
        let hi_v = stats.threshold_value.expect("two-sided reports an upper bound");
        let ref_mask: Vec<bool> = values.iter().map(|&v| v >= lo_v && v <= hi_v).collect();
        let ref_kept: Vec<f64> = values
            .iter()
            .copied()
            .filter(|&v| v >= lo_v && v <= hi_v)
            .collect();
        prop_assert_eq!(scratch.kept_mask(), ref_mask.as_slice());
        prop_assert_eq!(scratch.kept(), ref_kept.as_slice());
        prop_assert_eq!(stats.kept, ref_kept.len());
        prop_assert_eq!(stats.trimmed, values.len() - ref_kept.len());
    }

    #[test]
    fn trim_partitions_the_batch(
        values in prop::collection::vec(-1e3_f64..1e3, 1..200),
        p in 0.0_f64..1.0,
    ) {
        let out = trim(&values, TrimOp::UpperPercentile(p));
        prop_assert_eq!(out.kept.len() + out.trimmed, values.len());
        prop_assert_eq!(out.kept_mask.len(), values.len());
        let kept_from_mask: Vec<f64> = values
            .iter()
            .zip(&out.kept_mask)
            .filter(|(_, &m)| m)
            .map(|(&v, _)| v)
            .collect();
        prop_assert_eq!(out.kept, kept_from_mask);
    }

    #[test]
    fn trim_never_keeps_values_above_threshold(
        values in prop::collection::vec(-1e3_f64..1e3, 1..200),
        cut in -1e3_f64..1e3,
    ) {
        let out = trim(&values, TrimOp::Absolute(cut));
        prop_assert!(out.kept.iter().all(|&v| v <= cut));
        prop_assert!(values
            .iter()
            .zip(&out.kept_mask)
            .all(|(&v, &m)| m == (v <= cut)));
    }

    #[test]
    fn higher_percentile_trims_no_more(
        values in prop::collection::vec(-1e3_f64..1e3, 2..200),
        p1 in 0.0_f64..1.0,
        p2 in 0.0_f64..1.0,
    ) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let a = trim(&values, TrimOp::UpperPercentile(lo));
        let b = trim(&values, TrimOp::UpperPercentile(hi));
        prop_assert!(b.trimmed <= a.trimmed);
    }

    #[test]
    fn upper_percentile_equals_two_sided_from_zero(
        values in prop::collection::vec(-1e6_f64..1e6, 1..300),
        p in 0.0_f64..=1.0,
    ) {
        // TwoSided's lower bound at percentile 0 is the batch minimum, so
        // the band [0, p] must keep exactly what the upper cut keeps.
        let upper = trim(&values, TrimOp::UpperPercentile(p));
        let band = trim(&values, TrimOp::TwoSided { lo: 0.0, hi: p });
        prop_assert_eq!(&upper.kept, &band.kept);
        prop_assert_eq!(&upper.kept_mask, &band.kept_mask);
        prop_assert_eq!(upper.trimmed, band.trimmed);
        prop_assert_eq!(upper.threshold_value, band.threshold_value);
    }

    #[test]
    fn in_place_apply_agrees_with_reference_trim(
        values in prop::collection::vec(-1e6_f64..1e6, 1..300),
        p in 0.0_f64..=1.0,
    ) {
        // The selection-based in-place path against an independent
        // sort-based reference: kept values, mask and threshold must be
        // bit-identical on arbitrary finite batches.
        let reference = reference_upper_cut(&values, p);
        let mut scratch = TrimScratch::new();
        let stats = TrimOp::UpperPercentile(p).apply_in_place(&values, &mut scratch);
        prop_assert_eq!(scratch.kept(), reference.kept.as_slice());
        prop_assert_eq!(scratch.kept_mask(), reference.kept_mask.as_slice());
        prop_assert_eq!(stats.trimmed, reference.trimmed);
        prop_assert_eq!(stats.threshold_value, reference.threshold_value);
        // And the allocating façade agrees with both.
        let allocating = trim(&values, TrimOp::UpperPercentile(p));
        prop_assert_eq!(allocating.kept.as_slice(), scratch.kept());
        prop_assert_eq!(allocating.threshold_value, stats.threshold_value);
    }

    #[test]
    fn scratch_reuse_is_stable_across_batches(
        a in prop::collection::vec(-1e3_f64..1e3, 1..120),
        b in prop::collection::vec(-1e3_f64..1e3, 1..120),
        p in 0.0_f64..=1.0,
    ) {
        // A scratch dirtied by one batch must give the same answer on the
        // next as a fresh scratch (clears, no stale state).
        let mut reused = TrimScratch::new();
        let op = TrimOp::UpperPercentile(p);
        let _ = op.apply_in_place(&a, &mut reused);
        let stats = op.apply_in_place(&b, &mut reused);
        let fresh = trim(&b, op);
        prop_assert_eq!(reused.kept(), fresh.kept.as_slice());
        prop_assert_eq!(stats.trimmed, fresh.trimmed);
        prop_assert_eq!(stats.threshold_value, fresh.threshold_value);
    }

    #[test]
    fn board_preserves_order_and_counts(n in 1_usize..60) {
        let board = PublicBoard::new();
        for r in records(n) {
            board.post(r);
        }
        prop_assert_eq!(board.len(), n);
        let history = board.history();
        for (i, rec) in history.iter().enumerate() {
            prop_assert_eq!(rec.round, i + 1);
        }
        prop_assert_eq!(board.latest().unwrap().round, n);
    }

    #[test]
    fn merged_view_under_concurrent_sharded_append_matches_sequential_reference(
        // Per-shard round-gap sequences: lengths past several CHUNK_CAP=64
        // seals and gaps up to 4, so cumulative rounds cross many span
        // boundaries at span 7. One writer thread per shard, appending
        // concurrently — the venue's contract.
        gaps in prop::collection::vec(
            prop::collection::vec(1_usize..=4, 0..160),
            1..=4,
        ),
    ) {
        let span = 7;
        let venue = RangedVenue::new(gaps.len(), span);
        // The sequential reference: every (round, shard) pair, sorted.
        let mut reference: Vec<(usize, usize)> = Vec::new();
        for (shard, shard_gaps) in gaps.iter().enumerate() {
            let mut round = 0;
            for g in shard_gaps {
                round += g;
                reference.push((round, shard));
            }
        }
        reference.sort_unstable();
        std::thread::scope(|s| {
            for (shard, shard_gaps) in gaps.iter().enumerate() {
                let board = venue.collector(shard);
                s.spawn(move || {
                    let mut round = 0;
                    for g in shard_gaps {
                        round += g;
                        let mut rec = records(1).remove(0);
                        rec.round = round;
                        rec.trimmed = shard;
                        board.post(rec);
                    }
                });
            }
        });
        // Merged view ≡ sequential reference, ordered by (round, shard)
        // across both shard dimensions.
        let merged = venue.merged();
        prop_assert_eq!(merged.len(), reference.len());
        let order: Vec<(usize, usize)> = merged
            .records()
            .iter()
            .map(|(c, r)| (r.round, *c))
            .collect();
        prop_assert_eq!(&order, &reference);
        // Shard identity survives the merge.
        prop_assert!(merged.records().iter().all(|(c, r)| r.trimmed == *c));
        // Ranged incremental reads agree with the per-shard reference
        // suffix from bounds at, inside, and past range boundaries.
        for (shard, shard_gaps) in gaps.iter().enumerate() {
            let total: usize = shard_gaps.iter().sum();
            let board = venue.collector(shard);
            prop_assert_eq!(board.len(), shard_gaps.len());
            prop_assert_eq!(
                board.last_round(),
                (total > 0).then_some(total)
            );
            for from in [0, 1, span, span + 1, 2 * span, total / 2, total] {
                let mut seen = Vec::new();
                board.for_each_since_round(from, |r| seen.push(r.round));
                let expect: Vec<usize> = reference
                    .iter()
                    .filter(|&&(r, c)| c == shard && r >= from.max(1))
                    .map(|&(r, _)| r)
                    .collect();
                prop_assert_eq!(&seen, &expect, "shard {} from {}", shard, from);
            }
        }
    }

    #[test]
    fn for_each_since_agrees_with_history_across_chunk_seams(
        n in 1_usize..200,
        from_frac in 0.0_f64..=1.0,
    ) {
        let board = PublicBoard::new();
        for r in records(n) {
            board.post(r);
        }
        let from = ((n as f64) * from_frac) as usize;
        let mut seen = Vec::new();
        board.for_each_since(from, |r| seen.push(r.round));
        let reference: Vec<usize> = board
            .history()
            .iter()
            .skip(from)
            .map(|r| r.round)
            .collect();
        prop_assert_eq!(seen, reference);
    }
}

/// One generated round for the tiering properties: gap to the previous
/// round plus every payload field — absent thresholds, signed zeros,
/// infinities, and empty retained summaries all occur.
#[derive(Debug, Clone)]
struct RecordSpec {
    gap: usize,
    pct: f64,
    thr: Option<f64>,
    received: usize,
    trimmed: usize,
    vals: Vec<f64>,
    quality: f64,
}

fn arb_field() -> impl Strategy<Value = f64> {
    (0_usize..9, -1.0e6_f64..1.0e6).prop_map(|(sel, v)| match sel {
        0 => f64::INFINITY,
        1 => f64::NEG_INFINITY,
        2 => 0.0,
        3 => -0.0,
        _ => v,
    })
}

fn arb_specs(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<RecordSpec>> {
    let spec = (
        (1_usize..=3, arb_field(), (0_usize..4, arb_field())),
        (
            0_usize..5_000,
            0_usize..5_000,
            prop::collection::vec(-1.0e3_f64..1.0e3, 0..4),
            arb_field(),
        ),
    )
        .prop_map(
            |((gap, pct, (thr_sel, thr_val)), (received, trimmed, vals, quality))| RecordSpec {
                gap,
                pct,
                // thr_sel == 0 models the "no threshold resolved" round.
                thr: (thr_sel > 0).then_some(thr_val),
                received,
                trimmed,
                vals,
                quality,
            },
        );
    prop::collection::vec(spec, len)
}

fn build_records(specs: &[RecordSpec]) -> Vec<RoundRecord> {
    let mut round = 0;
    specs
        .iter()
        .map(|spec| {
            round += spec.gap;
            let mut retained = trimgame_numerics::stats::OnlineStats::new();
            retained.extend(&spec.vals);
            RoundRecord {
                round,
                threshold_percentile: spec.pct,
                threshold_value: spec.thr,
                received: spec.received,
                trimmed: spec.trimmed,
                retained,
                quality: spec.quality,
            }
        })
        .collect()
}

/// Bit-level identity of a record: every f64 compared by its bit pattern,
/// so `-0.0` vs `0.0` and infinity sentinels cannot silently alias.
fn fingerprint(r: &RoundRecord) -> [u64; 11] {
    let (n, mean, m2, min, max) = r.retained.raw_parts();
    [
        r.round as u64,
        r.threshold_percentile.to_bits(),
        u64::from(r.threshold_value.is_some()),
        r.threshold_value.unwrap_or(0.0).to_bits(),
        r.received as u64,
        r.trimmed as u64,
        n,
        mean.to_bits(),
        m2.to_bits(),
        min.to_bits(),
        max.to_bits(),
    ]
}

proptest! {
    #[test]
    fn frame_round_trips_arbitrary_records_bit_for_bit(
        specs in arb_specs(1..120),
    ) {
        let recs = build_records(&specs);
        let frame = Frame::encode(&recs);
        let decoded = frame.decode();
        prop_assert_eq!(decoded.len(), recs.len());
        for (a, b) in recs.iter().zip(&decoded) {
            prop_assert_eq!(fingerprint(a), fingerprint(b));
        }
        // The wire form round-trips too — spill and re-load is lossless.
        let wire = Frame::from_bytes(&frame.to_bytes()).expect("serialized frame");
        for (a, b) in recs.iter().zip(&wire.decode()) {
            prop_assert_eq!(fingerprint(a), fingerprint(b));
        }
    }

    #[test]
    fn mutated_wire_frames_error_instead_of_panicking(
        specs in arb_specs(1..60),
        // Fractions >= 1.0 mean "no truncation".
        cut in 0.0_f64..1.5,
        flips in prop::collection::vec((0.0_f64..1.0, 1_u8..=255), 0..4),
    ) {
        // A spill file that loses its tail or rots on disk must surface
        // as `Err`, never as a panic or as silently wrong records: a
        // damaged magic is rejected outright, and any change after an
        // intact magic is caught by the checksum.
        let bytes = Frame::encode(&build_records(&specs)).to_bytes();
        let mut mutated = bytes.clone();
        let keep = ((cut * mutated.len() as f64) as usize).min(mutated.len());
        mutated.truncate(keep);
        for &(pos, xor) in &flips {
            if mutated.is_empty() {
                break;
            }
            let idx = (pos * mutated.len() as f64) as usize;
            let idx = idx.min(mutated.len() - 1);
            mutated[idx] ^= xor;
        }
        // Reaching this point at all proves `from_bytes` did not panic.
        let parsed = Frame::from_bytes(&mutated);
        if mutated != bytes {
            prop_assert!(parsed.is_err(), "corrupted wire frame parsed as Ok");
        }
    }

    #[test]
    fn tiered_reads_match_uncompacted_reference_across_seams(
        // Spans from tiny (many span seams) past CHUNK_CAP=64 (frames
        // crossing chunk seams inside one span).
        specs in arb_specs(1..150),
        span in 3_usize..=80,
    ) {
        let venue = RangedVenue::new(1, span);
        let board = venue.collector(0);
        let recs = build_records(&specs);
        for r in &recs {
            board.post(r.clone());
        }
        let mut reference = Vec::new();
        board.for_each_since_round(0, |r| reference.push(fingerprint(r)));
        prop_assert_eq!(reference.len(), recs.len());

        // Compact-only pass: sealed cold spans become frames, reads are
        // bit-identical.
        Compactor::new(TierConfig::default(), "prop-compact").run(&board);
        let mut compacted = Vec::new();
        board.for_each_since_round(0, |r| compacted.push(fingerprint(r)));
        prop_assert_eq!(&compacted, &reference);

        // Compact → evict → inflate: a zero budget with a spill directory
        // forces every eligible span to disk, so cold reads must re-inflate.
        let spill =
            std::env::temp_dir().join(format!("trimgame-proptest-{}", std::process::id()));
        let tiny = TierConfig {
            hot_tail_spans: 0,
            resident_budget: Some(0),
            spill_dir: Some(spill.clone()),
        };
        Compactor::new(tiny, "prop-evict").run(&board);
        prop_assert_eq!(board.resident_cold_bytes(0), 0);
        let last = recs.last().unwrap().round;
        for from in [0, 1, span, span + 1, 2 * span + 1, last / 2, last, last + 1] {
            let mut seen = Vec::new();
            board.for_each_since_round(from, |r| seen.push(fingerprint(r)));
            let expect: Vec<[u64; 11]> = recs
                .iter()
                .filter(|r| r.round >= from.max(1))
                .map(fingerprint)
                .collect();
            prop_assert_eq!(&seen, &expect, "from {}", from);
        }
        // Point lookups inflate spilled spans transparently.
        for r in recs.iter().step_by(7) {
            let got = board.round(r.round).expect("present round");
            prop_assert_eq!(fingerprint(&got), fingerprint(r));
        }
        prop_assert_eq!(board.round(last + 1), None);
        // The merged venue view sits on the same tiers and must agree.
        let merged: Vec<[u64; 11]> = venue
            .merged()
            .records()
            .iter()
            .map(|(_, r)| fingerprint(r))
            .collect();
        prop_assert_eq!(&merged, &reference);
        let _ = std::fs::remove_dir_all(&spill);
    }
}
