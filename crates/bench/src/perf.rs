//! In-process perf snapshots (`expt bench`): wall-clock means for the
//! per-round hot paths plus the engine-run and equilibrium end-to-end
//! cases, as a table and — with `--json` — a machine-readable
//! [`SNAPSHOT_FILE`] snapshot (`case → mean ns`), so the perf trajectory
//! is diffable across PRs without parsing criterion output
//! (`expt benchdiff` compares two committed snapshots under a regression
//! tolerance).
//!
//! Measurement mirrors the vendored criterion harness (warm-up window,
//! calibrated batches, mean over a measurement window) but returns the
//! numbers instead of printing them. Windows come from
//! `TRIMGAME_BENCH_WARMUP_MS` / `TRIMGAME_BENCH_MEASURE_MS` (read once by
//! [`crate::cli`], the same names the criterion benches read); numbers are
//! indicative, meant for tracking order-of-magnitude movement between
//! commits on the same machine.

use std::fmt::Write as _;
use std::time::{Duration, Instant};
use trimgame_stream::trim::{SketchThreshold, TrimOp, TrimScratch};

use crate::double_oracle::{double_oracle, DoubleOracleConfig};
use crate::empirical::{
    estimate_on, standard_substrate, EquilibriumConfig, GameSubstrate, ScalarSubstrate,
    SubstrateKind,
};
use trim_core::adversary::AdversaryPolicy;
use trim_core::engine::{policy_seed, Engine, EngineScratch};
use trim_core::matrix::MatrixGame;
use trim_core::simulation::{GameConfig, ScalarArena, ScalarScenario, Scheme};
use trim_core::strategy::DefenderPolicy;
use trimgame_numerics::gk::{GkScratch, GkSummary};
use trimgame_numerics::rand_ext::seeded_rng;

/// One measured case.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchCase {
    /// `group/name/size` identifier, stable across PRs.
    pub name: String,
    /// Mean wall-clock time per iteration, nanoseconds.
    pub mean_ns: f64,
}

/// The file the JSON snapshot is written to (repo root by convention).
pub const SNAPSHOT_FILE: &str = "BENCH_PR10.json";

fn time_ns(warmup: Duration, measure: Duration, mut routine: impl FnMut()) -> f64 {
    let warm_start = Instant::now();
    let mut warm_iters: u64 = 0;
    while warm_start.elapsed() < warmup {
        routine();
        warm_iters += 1;
    }
    let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters.max(1) as f64;
    let batch =
        ((measure.as_secs_f64() / 10.0 / per_iter.max(1e-9)).ceil() as u64).clamp(1, 1 << 20);
    let mut total = Duration::ZERO;
    let mut iterations: u64 = 0;
    while total < measure {
        let start = Instant::now();
        for _ in 0..batch {
            routine();
        }
        total += start.elapsed();
        iterations += batch;
    }
    total.as_secs_f64() * 1e9 / iterations as f64
}

fn batch_values(n: usize) -> Vec<f64> {
    use rand::Rng;
    let mut rng = trimgame_numerics::rand_ext::seeded_rng(7);
    (0..n).map(|_| rng.gen::<f64>() * 1000.0).collect()
}

/// Runs the trim hot-path suite with explicit measurement windows.
#[must_use]
pub fn run_cases(warmup: Duration, measure: Duration) -> Vec<BenchCase> {
    let mut cases = Vec::new();
    let mut push = |name: String, mean_ns: f64| cases.push(BenchCase { name, mean_ns });
    for n in [1_000usize, 10_000, 100_000] {
        let values = batch_values(n);
        let mut scratch = TrimScratch::with_capacity(n);

        let op = TrimOp::UpperPercentile(0.9);
        let _ = op.apply_in_place(&values, &mut scratch);
        push(
            format!("trim/in_place/{n}"),
            time_ns(warmup, measure, || {
                std::hint::black_box(op.apply_in_place(&values, &mut scratch).trimmed);
            }),
        );

        let op = TrimOp::Absolute(900.0);
        push(
            format!("trim/absolute_in_place/{n}"),
            time_ns(warmup, measure, || {
                std::hint::black_box(op.apply_in_place(&values, &mut scratch).trimmed);
            }),
        );

        let op = TrimOp::TwoSided { lo: 0.05, hi: 0.95 };
        push(
            format!("trim/two_sided_in_place/{n}"),
            time_ns(warmup, measure, || {
                std::hint::black_box(op.apply_in_place(&values, &mut scratch).trimmed);
            }),
        );

        let mut source = SketchThreshold::new(0.02);
        source.observe(&values);
        push(
            format!("trim/sketch_query_only/{n}"),
            time_ns(warmup, measure, || {
                let op = source.op(0.9).expect("observed");
                std::hint::black_box(op.apply_in_place(&values, &mut scratch).trimmed);
            }),
        );
    }
    cases.extend(gk_cases(warmup, measure));
    cases.extend(frame_cases(warmup, measure));
    cases.extend(matrix_cases(warmup, measure));
    cases.extend(engine_cases(warmup, measure));
    cases.extend(collector_cases(measure));
    cases
}

/// The tiered-storage cases: the frame encode/decode kernels on a
/// span-256 column set, the hot-suffix board read with every cold span
/// compacted (the per-round attacker read — it must not pay for
/// tiering), and the full cold scan through the inflate path.
fn frame_cases(warmup: Duration, measure: Duration) -> Vec<BenchCase> {
    use trimgame_numerics::stats::OnlineStats;
    use trimgame_stream::board::{RangedBoard, RoundRecord};
    use trimgame_stream::compact::{Compactor, TierConfig};
    use trimgame_stream::frame::Frame;

    let values = batch_values(512);
    let record = |round: usize| {
        let mut retained = OnlineStats::new();
        retained.extend(&values[round % 256..round % 256 + 200]);
        RoundRecord {
            round,
            threshold_percentile: 0.9,
            threshold_value: Some(values[round % 512]),
            received: 256,
            trimmed: 25 + round % 7,
            retained,
            quality: 1.0 - values[(round * 31) % 512] * 1e-5,
        }
    };
    let recs: Vec<RoundRecord> = (1..=256).map(record).collect();
    let frame = Frame::encode(&recs);
    let mut cases = vec![
        BenchCase {
            name: "frame/encode/256".into(),
            mean_ns: time_ns(warmup, measure, || {
                std::hint::black_box(Frame::encode(&recs).packed_bytes());
            }),
        },
        BenchCase {
            name: "frame/decode/256".into(),
            mean_ns: time_ns(warmup, measure, || {
                std::hint::black_box(frame.decode().len());
            }),
        },
    ];

    // The durable wire format: serialization (delta header + checksum
    // trailer) and the checksum-verifying parse — what every spill write
    // and every recovery-time frame verification pays.
    let wire = frame.to_bytes();
    cases.push(BenchCase {
        name: "frame/wire_encode/256".into(),
        mean_ns: time_ns(warmup, measure, || {
            std::hint::black_box(frame.to_bytes().len());
        }),
    });
    cases.push(BenchCase {
        name: "frame/wire_decode/256".into(),
        mean_ns: time_ns(warmup, measure, || {
            std::hint::black_box(Frame::from_bytes(&wire).expect("valid wire frame").len());
        }),
    });

    // Manifest journal replay: parse a 64-span spill manifest — the
    // fixed cost `recover_from_spill` pays per shard before any frame
    // verification.
    {
        use trimgame_stream::recover::{read_manifest, ManifestWriter, SpanManifest};
        let dir =
            std::env::temp_dir().join(format!("trimgame-perf-manifest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("perf manifest dir");
        let mut writer = ManifestWriter::create(&dir, "perf", 0, 1, 64).expect("manifest writer");
        for idx in 0..64_u64 {
            writer
                .log_spilled(&SpanManifest {
                    span_idx: idx,
                    base_round: idx * 64 + 1,
                    last_round: (idx + 1) * 64,
                    len: 64,
                    frame_crc: 0xDEAD_BEEF ^ idx as u32,
                    file_name: format!("perf-{idx:05}.tgf"),
                })
                .expect("log spilled span");
        }
        drop(writer);
        let path = dir.join("perf.manifest");
        cases.push(BenchCase {
            name: "recover/manifest_read/64".into(),
            mean_ns: time_ns(warmup, measure, || {
                let mf = read_manifest(&path).expect("readable manifest");
                std::hint::black_box(mf.entries.len());
            }),
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    // A 4096-round board at span 64 with every cold span framed: the
    // hot-suffix read (last span only) against the full cold scan.
    let board = RangedBoard::new(64);
    for round in 1..=4096 {
        board.post(record(round));
    }
    Compactor::new(TierConfig::default(), "perf").run(&board);
    let suffix_from = 4096 - 63;
    cases.push(BenchCase {
        name: "board/hot_suffix_read_tiered/4096".into(),
        mean_ns: time_ns(warmup, measure, || {
            let mut n = 0usize;
            board.for_each_since_round(suffix_from, |r| n += r.trimmed);
            std::hint::black_box(n);
        }),
    });
    cases.push(BenchCase {
        name: "board/cold_scan_tiered/4096".into(),
        mean_ns: time_ns(warmup, measure, || {
            let mut n = 0usize;
            board.for_each_since_round(0, |r| n += r.trimmed);
            std::hint::black_box(n);
        }),
    });
    cases
}

/// The collector-service cases (the streaming-ingest tentpole):
/// sustained throughput of the sharded pipeline, its per-round inverse
/// (the lower-is-better entry the benchdiff tolerance gate rides on),
/// merged p99 ingest latency, and the single-stream baseline the
/// multi-worker speedup is measured against. Wall-clock figures come
/// from one deterministic service run scaled to the measure window —
/// the pipeline's throughput *is* the measurement, so the generic
/// warmup/batch timer does not apply.
fn collector_cases(measure: Duration) -> Vec<BenchCase> {
    use crate::collector::{run_collector, scalar_stream_setup, CollectorConfig};
    let pool = crate::empirical::standard_pool();
    let rounds = usize::try_from(measure.as_millis())
        .unwrap_or(200)
        .clamp(10, 200);
    let cfg = CollectorConfig {
        streams: 4,
        rounds,
        ..CollectorConfig::default()
    };
    let sharded = run_collector(&cfg, |stream| {
        scalar_stream_setup(&pool, cfg.rounds, cfg.seed, stream)
    });
    let single_cfg = CollectorConfig {
        streams: 1,
        threads: 1,
        rounds: rounds * cfg.streams,
        ..cfg.clone()
    };
    let single = run_collector(&single_cfg, |stream| {
        scalar_stream_setup(&pool, single_cfg.rounds, single_cfg.seed, stream)
    });
    vec![
        BenchCase {
            name: "collector/sustained_rounds_per_sec".into(),
            mean_ns: sharded.rounds_per_sec(),
        },
        BenchCase {
            name: "collector/sustained_round_ns".into(),
            mean_ns: 1e9 / sharded.rounds_per_sec().max(1e-9),
        },
        BenchCase {
            name: "collector/ingest_p99".into(),
            mean_ns: sharded.latency.quantile_ns(0.99) as f64,
        },
        BenchCase {
            name: "collector/single_stream_round_ns".into(),
            mean_ns: 1e9 / single.rounds_per_sec().max(1e-9),
        },
    ]
}

/// The fictitious-play warm-start family (satellite of the double-oracle
/// PR): solving a grown matrix to the same certified gap cold versus
/// warm-started from the parent game's equilibrium. Wall-clock for both,
/// plus the deterministic iterations-to-bound counts as pseudo-cases
/// (`*_iters`, recorded in the `mean_ns` slot like the `*_runs` family)
/// — that count is what the oracle loop pays on every support growth,
/// and it diffs exactly across PRs. `matrix/fictitious_play/8` times the
/// fixed-budget kernel alone: a cold 200k-iteration solve of an 8×8 grid,
/// the standard oracle's support cap, as each final solve pays it.
fn matrix_cases(warmup: Duration, measure: Duration) -> Vec<BenchCase> {
    // The oracle's own growth shape: the scalar substrate's closed-form
    // trimming losses on a threshold × response grid, grown by one
    // defender atom and one attacker atom. The parent equilibrium — taken
    // to the same certified gap, exactly what the oracle loop holds when
    // it re-solves after an accepted candidate — is the warm prior.
    let pool = crate::empirical::standard_pool();
    let sub = ScalarSubstrate::new(&pool);
    let cfg = EquilibriumConfig::default_grid();
    let model = sub.closed_form(&cfg);
    let n = 12usize;
    let atom = |i: usize| 0.84 + 0.16 * i as f64 / (n - 1) as f64;
    let loss_grid = |rows: usize, cols: usize| -> Vec<Vec<f64>> {
        (0..rows)
            .map(|r| {
                (0..cols)
                    .map(|c| model.loss(atom(r), atom(c) - 0.02))
                    .collect()
            })
            .collect()
    };
    let gap = 1e-3;
    let parent = MatrixGame::new(loss_grid(n - 1, n - 1)).expect("valid parent game");
    let grown = MatrixGame::new(loss_grid(n, n)).expect("valid grown game");
    let (prior, _) = parent.solve_to_gap(gap, 10_000_000, None);
    let (_, cold_iters) = grown.solve_to_gap(gap, 10_000_000, None);
    let (_, warm_iters) = grown.solve_to_gap(gap, 10_000_000, Some(&prior));
    let support = MatrixGame::new(loss_grid(8, 8)).expect("valid 8x8 game");
    vec![
        BenchCase {
            name: "matrix/fictitious_play/8".into(),
            mean_ns: time_ns(warmup, measure, || {
                std::hint::black_box(support.solve(200_000).value);
            }),
        },
        BenchCase {
            name: format!("matrix/solve_to_gap_cold/{n}"),
            mean_ns: time_ns(warmup, measure, || {
                std::hint::black_box(grown.solve_to_gap(gap, 10_000_000, None).1);
            }),
        },
        BenchCase {
            name: format!("matrix/solve_to_gap_warm/{n}"),
            mean_ns: time_ns(warmup, measure, || {
                std::hint::black_box(grown.solve_to_gap(gap, 10_000_000, Some(&prior)).1);
            }),
        },
        BenchCase {
            name: format!("matrix/solve_to_gap_cold_iters/{n}"),
            mean_ns: cold_iters as f64,
        },
        BenchCase {
            name: format!("matrix/solve_to_gap_warm_iters/{n}"),
            mean_ns: warm_iters as f64,
        },
    ]
}

/// The GK ingest pair — the sequential per-value baseline against the
/// batched merge-sweep / histogram first-fill path — measured in the same
/// run so their ratio is the headline sketch-ingest speedup.
fn gk_cases(warmup: Duration, measure: Duration) -> Vec<BenchCase> {
    let mut cases = Vec::new();
    let mut scratch = GkScratch::new();
    for n in [10_000usize, 100_000] {
        let values = batch_values(n);
        cases.push(BenchCase {
            name: format!("gk/ingest_sequential/{n}"),
            mean_ns: time_ns(warmup, measure, || {
                let mut summary = GkSummary::new(0.02);
                for &v in &values {
                    summary.insert(v);
                }
                std::hint::black_box(summary.query(0.9));
            }),
        });
        cases.push(BenchCase {
            name: format!("gk/ingest_batch/{n}"),
            mean_ns: time_ns(warmup, measure, || {
                let mut summary = GkSummary::new(0.02);
                summary.insert_batch(&values, &mut scratch);
                std::hint::black_box(summary.query(0.9));
            }),
        });
        // The warm path: the same batch arriving at an already-populated
        // summary, where ingest stages the keys into tuple-boundary
        // buckets instead of running the full comparison sort. The primed
        // summary is cloned per iteration (a few hundred tuples — noise
        // next to the batch).
        let mut primed = GkSummary::new(0.02);
        primed.insert_batch(&values, &mut scratch);
        cases.push(BenchCase {
            name: format!("gk/ingest_batch_warm/{n}"),
            mean_ns: time_ns(warmup, measure, || {
                let mut summary = primed.clone();
                summary.insert_batch(&values, &mut scratch);
                std::hint::black_box(summary.query(0.9));
            }),
        });
        // The multi-slice sweep: four staged quarter-batches merged in
        // one tuple-list rebuild — the coalesced-backfill shape
        // ([`GkSummary::insert_batches`]).
        let quarters: Vec<&[f64]> = values.chunks(n / 4).collect();
        cases.push(BenchCase {
            name: format!("gk/ingest_batches4_warm/{n}"),
            mean_ns: time_ns(warmup, measure, || {
                let mut summary = primed.clone();
                summary.insert_batches(&quarters, &mut scratch);
                std::hint::black_box(summary.query(0.9));
            }),
        });
        // The skewed warm batch: 90% of the keys land in a handful of
        // buckets, so per-bucket sorting dominates — the shape the
        // radix staging path exists for.
        let skewed: Vec<f64> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                if i % 10 == 0 {
                    v
                } else {
                    500.0 + (i % 97) as f64 * 1e-9
                }
            })
            .collect();
        let mut primed_skew = GkSummary::new(0.02);
        primed_skew.insert_batch(&skewed, &mut scratch);
        cases.push(BenchCase {
            name: format!("gk/ingest_batch_warm_skewed/{n}"),
            mean_ns: time_ns(warmup, measure, || {
                let mut summary = primed_skew.clone();
                summary.insert_batch(&skewed, &mut scratch);
                std::hint::black_box(summary.query(0.9));
            }),
        });
    }
    cases
}

/// One full seeded scalar engine run, the payoff-grid cell shape: lean
/// mode, fixed defender at 0.9, ideal attacker just below.
fn engine_cell(pool: &[f64], rounds: usize, batch: usize) -> f64 {
    let mut cfg = GameConfig::new(Scheme::BaselineStatic);
    cfg.rounds = rounds;
    cfg.batch = batch;
    cfg.seed = 7;
    let out = Engine::new(
        ScalarScenario::new(ScalarArena::new(pool), &cfg),
        DefenderPolicy::Fixed { tth: cfg.tth },
        AdversaryPolicy::Fixed { percentile: 0.89 },
    )
    .with_policy_seed(policy_seed(cfg.seed))
    .run(cfg.rounds, &mut seeded_rng(cfg.seed));
    *out.utilities.u_c.last().expect("rounds > 0")
}

/// The end-to-end cases the equilibrium estimator's wall-clock rides on:
/// a single engine run (one payoff cell) and the whole smoke-grid
/// estimation pipeline.
fn engine_cases(warmup: Duration, measure: Duration) -> Vec<BenchCase> {
    let mut cases = Vec::new();
    let pool = crate::empirical::standard_pool();

    cases.push(BenchCase {
        name: "engine/scalar_run/1000x20".into(),
        mean_ns: time_ns(warmup, measure, || {
            std::hint::black_box(engine_cell(&pool, 20, 1_000));
        }),
    });

    // The same run through the scratch path: one arena + one engine
    // scratch across every iteration — what a payoff-grid worker pays.
    let mut arena = ScalarArena::new(&pool);
    let mut scratch = EngineScratch::new();
    let mut cfg = GameConfig::new(Scheme::BaselineStatic);
    cfg.rounds = 20;
    cfg.batch = 1_000;
    cfg.seed = 7;
    cases.push(BenchCase {
        name: "engine/scalar_run_scratch/1000x20".into(),
        mean_ns: time_ns(warmup, measure, || {
            let run = Engine::new(
                ScalarScenario::new(&mut arena, &cfg),
                DefenderPolicy::Fixed { tth: cfg.tth },
                AdversaryPolicy::Fixed { percentile: 0.89 },
            )
            .with_policy_seed(policy_seed(cfg.seed))
            .run_with_scratch(cfg.rounds, &mut seeded_rng(cfg.seed), &mut scratch);
            std::hint::black_box(run.final_u_c);
        }),
    });

    let sub = ScalarSubstrate::new(&pool);
    let mut cfg = EquilibriumConfig::smoke();
    cfg.workers = 1; // measure the single-core pipeline, not fan-out noise
    cases.push(BenchCase {
        name: "equilibrium/estimate/scalar_smoke".into(),
        mean_ns: time_ns(warmup, measure, || {
            std::hint::black_box(estimate_on(&sub, &cfg).empirical.value);
        }),
    });

    // The double-oracle pipeline at the same smoke scale: seed support,
    // continuum best responses, warm-started restricted solves.
    let oracle = DoubleOracleConfig::for_game(&cfg);
    cases.push(BenchCase {
        name: "equilibrium/double_oracle/scalar_smoke".into(),
        mean_ns: time_ns(warmup, measure, || {
            std::hint::black_box(double_oracle(&sub, &cfg, &oracle).equilibrium.value);
        }),
    });

    // The sketch-native substrate cells: one smoke estimate per
    // substrate with the defender's cuts resolved from the GK sketch.
    for kind in [SubstrateKind::Ml, SubstrateKind::Ldp] {
        let sub = standard_substrate(kind);
        let mut cfg = EquilibriumConfig::smoke_for(kind);
        cfg.seeds = 2;
        cfg.rounds = 3;
        cfg.batch = if kind == SubstrateKind::Ml { 100 } else { 300 };
        cfg.sketch_epsilon = Some(0.02);
        cfg.workers = 1;
        let label = if kind == SubstrateKind::Ml {
            "ml"
        } else {
            "ldp"
        };
        cases.push(BenchCase {
            name: format!("equilibrium/estimate/{label}_sketch_smoke"),
            mean_ns: time_ns(warmup, measure, || {
                std::hint::black_box(estimate_on(&*sub, &cfg).empirical.value);
            }),
        });
    }
    cases
}

/// The PR acceptance family (`expt bench` only — too heavy for the unit
/// suite): the dense full 5×5×12 scalar grid against the grid-candidate
/// double oracle, as wall-clock cases plus two *pseudo-cases* whose
/// "mean_ns" records the deterministic engine-run counts. The run-count
/// entries make the ≥3× cost claim diffable: their benchdiff ratio stays
/// exactly 1.0 unless the solver's run accounting changes.
#[must_use]
pub fn headline_cases(warmup: Duration, measure: Duration) -> Vec<BenchCase> {
    let pool = crate::empirical::standard_pool();
    let sub = ScalarSubstrate::new(&pool);
    let mut cfg = EquilibriumConfig::default_grid();
    cfg.workers = 1; // one core: the comparison, not fan-out noise
    let dense_runs = cfg.defender_atoms.len() * cfg.attacker_atoms().len() * cfg.seeds;
    let oracle = DoubleOracleConfig::grid_for(&cfg);
    let mut oracle_runs = 0usize;
    let mut cases = Vec::new();
    cases.push(BenchCase {
        name: "equilibrium/dense/scalar_full".into(),
        mean_ns: time_ns(warmup, measure, || {
            std::hint::black_box(estimate_on(&sub, &cfg).empirical.value);
        }),
    });
    cases.push(BenchCase {
        name: "equilibrium/double_oracle/scalar_full".into(),
        mean_ns: time_ns(warmup, measure, || {
            let solved = double_oracle(&sub, &cfg, &oracle);
            oracle_runs = solved.engine_runs;
            std::hint::black_box(solved.equilibrium.value);
        }),
    });
    cases.push(BenchCase {
        name: "equilibrium/dense/scalar_full_runs".into(),
        mean_ns: dense_runs as f64,
    });
    cases.push(BenchCase {
        name: "equilibrium/double_oracle/scalar_full_runs".into(),
        mean_ns: oracle_runs as f64,
    });
    cases
}

/// Serializes cases as a flat JSON object (`{"case": mean_ns, ...}`),
/// keys in run order, values rounded to one decimal.
#[must_use]
pub fn to_json(cases: &[BenchCase]) -> String {
    let mut out = String::from("{\n");
    for (i, case) in cases.iter().enumerate() {
        let _ = write!(out, "  \"{}\": {:.1}", case.name, case.mean_ns);
        out.push_str(if i + 1 < cases.len() { ",\n" } else { "\n" });
    }
    out.push_str("}\n");
    out
}

/// Parses a flat `{"case": mean_ns, ...}` snapshot written by
/// [`to_json`].
fn parse_snapshot(json: &str) -> Result<Vec<(String, f64)>, String> {
    let mut cases = Vec::new();
    for line in json.lines() {
        let line = line.trim().trim_end_matches(',');
        if line.is_empty() || line == "{" || line == "}" {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| format!("malformed snapshot line: {line}"))?;
        let name = name.trim().trim_matches('"');
        let mean_ns: f64 = value
            .trim()
            .parse()
            .map_err(|e| format!("bad mean for {name}: {e}"))?;
        cases.push((name.to_string(), mean_ns));
    }
    if cases.is_empty() {
        return Err("snapshot holds no cases".into());
    }
    Ok(cases)
}

/// True for cases whose value is a rate (`*_per_sec`), where higher is
/// better; every other case is a time or a count, where lower is better.
fn higher_is_better(case: &str) -> bool {
    case.ends_with("_per_sec")
}

/// True for deterministic counters: a `/`-segment ending in `_runs` or
/// `_iters` (engine runs, fictitious-play iterations). They repeat
/// exactly on any machine, so any change is a change of behaviour.
fn exact_count(case: &str) -> bool {
    case.split('/')
        .any(|seg| seg.ends_with("_runs") || seg.ends_with("_iters"))
}

/// Compares the `current` snapshot against `baseline` under a regression
/// `tolerance`. A lower-is-better case regresses when its current value
/// exceeds `tolerance ×` its baseline; a higher-is-better `*_per_sec`
/// case regresses when its current value falls below its baseline
/// `÷ tolerance`. A deterministic counter (a `/`-segment ending in
/// `_runs` or `_iters`) fails on any change, and a baseline case missing
/// from `current` fails as dropped. The printed ratio is always current ÷
/// baseline. Cases only `current` holds are ignored, so snapshots may add
/// cases freely across PRs. Returns the rendered table as `Ok` when every
/// baseline case is present and within its rule and as `Err` otherwise —
/// the CI smoke gate on committed snapshots.
///
/// # Errors
/// Returns `Err` with the report when a case regressed, a counter
/// changed or a case was dropped, or with a parse message when either
/// snapshot is malformed.
pub fn bench_diff(baseline: &str, current: &str, tolerance: f64) -> Result<String, String> {
    assert!(tolerance >= 1.0, "tolerance must be at least 1x");
    let base = parse_snapshot(baseline)?;
    let cur = parse_snapshot(current)?;
    let mut out = String::new();
    let (mut compared, mut regressed, mut changed, mut dropped) = (0usize, 0usize, 0usize, 0usize);
    let _ = writeln!(
        out,
        "{:<36} {:>12} {:>12} {:>8}  status",
        "case", "baseline ns", "current ns", "ratio"
    );
    for (name, base_ns) in &base {
        let Some((_, cur_ns)) = cur.iter().find(|(n, _)| n == name) else {
            dropped += 1;
            let _ = writeln!(
                out,
                "{name:<36} {base_ns:>12.1} {:>12} {:>8}  DROPPED",
                "-", "-"
            );
            continue;
        };
        compared += 1;
        let ratio = cur_ns / base_ns.max(1e-9);
        // Slowdown factor: > 1 means the case got worse.
        let worse = if higher_is_better(name) {
            1.0 / ratio.max(1e-12)
        } else {
            ratio
        };
        let status = if exact_count(name) {
            if cur_ns == base_ns {
                "exact"
            } else {
                changed += 1;
                "CHANGED"
            }
        } else if worse > tolerance {
            regressed += 1;
            "REGRESSED"
        } else if worse < 1.0 {
            "improved"
        } else {
            "ok"
        };
        let _ = writeln!(
            out,
            "{name:<36} {base_ns:>12.1} {cur_ns:>12.1} {ratio:>7.2}x  {status}"
        );
    }
    let _ = writeln!(
        out,
        "{compared} cases compared at tolerance {tolerance:.1}x; {regressed} regressed, \
         {changed} counters changed, {dropped} dropped"
    );
    if regressed + changed + dropped > 0 {
        Err(out)
    } else {
        Ok(out)
    }
}

/// The `expt bench` experiment: measure the suite over `cfg`'s bench
/// windows and render a table. With `cfg.json` (the CLI's `--json`),
/// also write the [`SNAPSHOT_FILE`] snapshot to the working directory.
#[must_use]
pub fn bench_report(cfg: &crate::ExptConfig) -> String {
    let (warmup, measure) = (cfg.bench_warmup, cfg.bench_measure);
    let mut cases = run_cases(warmup, measure);
    cases.extend(headline_cases(warmup, measure));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Hot-path perf snapshot ({} cases, warmup {} ms, measure {} ms) ==",
        cases.len(),
        warmup.as_millis(),
        measure.as_millis()
    );
    for case in &cases {
        let _ = writeln!(out, "{:<32} {:>12.1} ns/iter", case.name, case.mean_ns);
    }
    if cfg.json {
        match std::fs::write(SNAPSHOT_FILE, to_json(&cases)) {
            Ok(()) => {
                let _ = writeln!(out, "snapshot written to {SNAPSHOT_FILE}");
            }
            Err(err) => {
                let _ = writeln!(out, "snapshot NOT written ({err})");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_runs_with_tiny_windows_and_serializes() {
        let cases = run_cases(Duration::from_millis(1), Duration::from_millis(2));
        assert_eq!(cases.len(), 44);
        for case in &cases {
            assert!(case.mean_ns > 0.0, "{}: {}", case.name, case.mean_ns);
        }
        let json = to_json(&cases);
        assert!(json.starts_with("{\n"));
        assert!(json.trim_end().ends_with('}'));
        assert_eq!(json.matches(':').count(), cases.len());
        assert!(json.contains("\"trim/in_place/1000\""));
        assert!(json.contains("\"gk/ingest_batch/100000\""));
        assert!(json.contains("\"gk/ingest_batches4_warm/10000\""));
        assert!(json.contains("\"frame/encode/256\""));
        assert!(json.contains("\"frame/decode/256\""));
        assert!(json.contains("\"frame/wire_encode/256\""));
        assert!(json.contains("\"frame/wire_decode/256\""));
        assert!(json.contains("\"recover/manifest_read/64\""));
        assert!(json.contains("\"board/hot_suffix_read_tiered/4096\""));
        assert!(json.contains("\"board/cold_scan_tiered/4096\""));
        assert!(json.contains("\"gk/ingest_batch_warm/10000\""));
        assert!(json.contains("\"gk/ingest_batch_warm_skewed/10000\""));
        assert!(json.contains("\"matrix/solve_to_gap_warm/12\""));
        assert!(json.contains("\"matrix/fictitious_play/8\""));
        assert!(json.contains("\"equilibrium/estimate/ml_sketch_smoke\""));
        assert!(json.contains("\"equilibrium/double_oracle/scalar_smoke\""));
        assert!(json.contains("\"collector/sustained_rounds_per_sec\""));
        assert!(json.contains("\"collector/ingest_p99\""));
        // No trailing comma before the closing brace.
        assert!(!json.contains(",\n}"));
    }

    #[test]
    fn bench_diff_gates_on_tolerance() {
        let baseline = "{\n  \"a/x\": 100.0,\n  \"a/y\": 200.0\n}\n";
        // y regressed 2.5x, x improved; `extra` is new and ignored.
        let current = "{\n  \"a/x\": 80.0,\n  \"a/y\": 500.0,\n  \"extra\": 1.0\n}\n";
        let err = bench_diff(baseline, current, 2.0).expect_err("y regressed past 2x");
        assert!(err.contains("REGRESSED"));
        assert!(err.contains("1 regressed"));
        // A generous tolerance accepts the same pair.
        let ok = bench_diff(baseline, current, 3.0).expect("within 3x");
        assert!(ok.contains("improved"));
        assert!(ok.contains("0 regressed"));
        assert!(!ok.contains("extra"), "{ok}");
        // Malformed input is a parse error, not a panic.
        assert!(bench_diff("{}", current, 3.0).is_err());
    }

    #[test]
    fn bench_diff_fails_on_a_dropped_case() {
        let baseline = "{\n  \"a/x\": 100.0,\n  \"gone\": 50.0\n}\n";
        let current = "{\n  \"a/x\": 100.0\n}\n";
        let err = bench_diff(baseline, current, 3.0).expect_err("a baseline case is missing");
        let line = err.lines().find(|l| l.starts_with("gone")).unwrap();
        assert!(line.ends_with("DROPPED"), "{line}");
        assert!(
            err.contains("0 regressed, 0 counters changed, 1 dropped"),
            "{err}"
        );
    }

    #[test]
    fn bench_diff_compares_counters_exactly() {
        let baseline = "{\n  \"matrix/solve_to_gap_cold_iters/12\": 10240.0,\n  \"equilibrium/dense/scalar_full_runs\": 300.0\n}\n";
        // Equal counters pass and are marked exact.
        let ok = bench_diff(baseline, baseline, 3.0).expect("equal counters");
        assert_eq!(ok.matches("  exact").count(), 2, "{ok}");
        // A counter moving either way fails, however small the move and
        // however loose the tolerance: it is a change of behaviour.
        for (iters, runs) in [(10241.0, 300.0), (10240.0, 299.0), (5120.0, 300.0)] {
            let current = format!(
                "{{\n  \"matrix/solve_to_gap_cold_iters/12\": {iters:.1},\n  \"equilibrium/dense/scalar_full_runs\": {runs:.1}\n}}\n"
            );
            let err = bench_diff(baseline, &current, 3.0).expect_err("a counter changed");
            assert!(err.contains("1 counters changed"), "{err}");
            assert!(err.contains("CHANGED"), "{err}");
        }
        // Only a whole `/`-segment suffix marks a counter.
        assert!(exact_count("matrix/solve_to_gap_warm_iters/12"));
        assert!(exact_count("equilibrium/double_oracle/scalar_full_runs"));
        assert!(!exact_count("engine/scalar_run_scratch/1000x20"));
        assert!(!exact_count("runs_total_ns"));
    }

    #[test]
    fn bench_diff_fails_on_a_throughput_collapse() {
        let baseline = "{\n  \"collector/sustained_rounds_per_sec\": 30000.0,\n  \"collector/round_ns\": 33000.0\n}\n";
        // Rounds per second fell 4x; the time case is unchanged.
        let current = "{\n  \"collector/sustained_rounds_per_sec\": 7500.0,\n  \"collector/round_ns\": 33000.0\n}\n";
        let err = bench_diff(baseline, current, 3.0).expect_err("throughput fell past 3x");
        let line = err
            .lines()
            .find(|l| l.starts_with("collector/sustained_rounds_per_sec"))
            .unwrap();
        assert!(line.ends_with("REGRESSED"), "{line}");
        assert!(err.contains("1 regressed"));
        // A 2x fall is within a 3x tolerance but is not an improvement.
        let current = "{\n  \"collector/sustained_rounds_per_sec\": 15000.0,\n  \"collector/round_ns\": 33000.0\n}\n";
        let ok = bench_diff(baseline, current, 3.0).expect("within 3x");
        assert!(!ok.contains("improved"), "{ok}");
        assert!(ok.contains("0 regressed"));
    }

    #[test]
    fn bench_diff_passes_a_throughput_gain() {
        let baseline = "{\n  \"collector/sustained_rounds_per_sec\": 30000.0\n}\n";
        // Rounds per second rose 3.5x: past the tolerance, but a gain.
        let current = "{\n  \"collector/sustained_rounds_per_sec\": 105000.0\n}\n";
        let ok = bench_diff(baseline, current, 3.0).expect("a gain never regresses");
        let line = ok
            .lines()
            .find(|l| l.starts_with("collector/sustained_rounds_per_sec"))
            .unwrap();
        assert!(line.ends_with("improved"), "{line}");
        assert!(ok.contains("0 regressed"));
    }
}
