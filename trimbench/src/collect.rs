//! The collector workloads: closed-loop `run_collector` jobs of a fixed
//! size on the scalar Tit-for-tat game.
//!
//! A *job* is one `run_collector` call: every producer emits its
//! stream's records (`rounds × batch` plus the stale duplicates), the
//! ingest threads coalesce them into rounds, step the engine, post to
//! the board and compact it. Untraced runs time whole jobs. Traced runs
//! add two things per iteration: a job whose policies are wrapped in
//! timers, and a replay of one job's exact record streams through the
//! public calls the collector's private worker makes, in its order, with
//! a timer around each call.

use std::fmt::Write as _;
use std::hash::{DefaultHasher, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rand::Rng;
use trim_core::simulation::ScalarScenario;
use trim_core::{EngineRun, EngineStepper, EngineTotals};
use trimgame_bench::collector::{
    run_collector, scalar_stream_setup, CollectorConfig, CollectorReport, StreamSetup,
};
use trimgame_bench::empirical::standard_pool;
use trimgame_numerics::rand_ext::{derive_seed, seeded_rng};
use trimgame_stream::board::RangedVenue;
use trimgame_stream::channel::{bounded, Sender};
use trimgame_stream::coalesce::{CoalesceStats, Coalescer, CoalescerConfig, IngestRecord};
use trimgame_stream::compact::{Compactor, TierConfig};
use trimgame_stream::recover::ManifestWriter;

use crate::stats::{calm_median, with_steal, Steal};
use crate::trace::{timer_overhead_ns, Span, TimedAttacker, TimedDefender};
use crate::{OpSample, Outcome, HARD_STOP, MIN_SAMPLES};

/// The seed stream `run_collector` derives its producer seeds from. The
/// collector keeps the constant private, so the replay carries its
/// value. The replay's checks pin the record count and the order-driven
/// seal boundaries, not the values: ingested values do not reach the game
/// yet, so a drift here only shows once they do.
const PRODUCER_STREAM: u64 = 0x494E_4745_5354; // "INGEST"

/// Records the collector's worker drains per `try_recv_batch`.
const RECV_BATCH: usize = 4096;

/// Traced iterations per run at least.
const MIN_ITERATIONS: usize = 3;

/// One collector workload.
#[derive(Debug)]
pub struct Shape {
    /// Logical streams, each with its own producer and ingest thread.
    streams: usize,
    /// Rounds each stream's producer emits per job.
    rounds: usize,
    /// Evict every cold span to a spill directory (resident budget 0)
    /// instead of keeping compacted frames in memory.
    spill: bool,
}

/// 1 stream on 1 ingest thread, in-memory tiering.
pub const SINGLE: Shape = Shape {
    streams: 1,
    rounds: 2048,
    spill: false,
};

/// 2 streams on 2 ingest threads, every cold span spilled to disk.
pub const SHARDED: Shape = Shape {
    streams: 2,
    rounds: 1024,
    spill: true,
};

/// A spill directory inside the benchmark's own directory, removed
/// after every job and when dropped.
struct SpillDir(PathBuf);

impl SpillDir {
    fn new(tag: &str) -> Self {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!(".spill-{}-{tag}", std::process::id()));
        Self(dir)
    }

    fn clear(&self) {
        // Absent after a job that never spilled; nothing else can fail
        // that matters to the measurement.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        self.clear();
    }
}

/// The collector configuration of one job: `CollectorConfig::default()`
/// except for the shape, the tiering and the seed.
fn config(shape: &Shape, seed: u64, spill: Option<&SpillDir>) -> CollectorConfig {
    CollectorConfig {
        streams: shape.streams,
        threads: shape.streams,
        rounds: shape.rounds,
        tier: Some(TierConfig {
            resident_budget: spill.map(|_| 0),
            spill_dir: spill.map(|d| d.0.clone()),
            ..TierConfig::default()
        }),
        seed,
        ..CollectorConfig::default()
    }
}

/// Runs one job, catching a panic so it counts as a failed job, and
/// takes its game output before the spill files go.
fn job<F>(
    cfg: &CollectorConfig,
    spill: Option<&SpillDir>,
    make: F,
) -> Option<(CollectorReport, GameOutput)>
where
    F: Fn(usize) -> StreamSetup<ScalarScenario> + Sync,
{
    let result = catch_unwind(AssertUnwindSafe(|| {
        let report = run_collector(cfg, make);
        let output = game_output(&report);
        (report, output)
    }))
    .ok();
    if let Some(dir) = spill {
        dir.clear();
    }
    result
}

/// Records each producer emits: its rounds' records plus one stale
/// duplicate every `late_every` records.
fn emitted_per_stream(cfg: &CollectorConfig) -> u64 {
    let records = (cfg.rounds * cfg.batch) as u64;
    if cfg.late_every == 0 {
        records
    } else {
        records + records / cfg.late_every as u64
    }
}

/// Counts a job's operations into `out`. Attempted: every requested
/// round and every emitted record. Failed: a requested round that was
/// not posted, or an emitted record that was neither coalesced nor
/// counted as late.
fn account(cfg: &CollectorConfig, report: Option<&CollectorReport>, out: &mut Outcome) {
    let emitted = emitted_per_stream(cfg);
    let attempted = cfg.streams as u64 * (cfg.rounds as u64 + emitted);
    out.attempted += attempted;
    let Some(report) = report else {
        out.failed += attempted;
        out.check(false, || "a collector job panicked".into());
        return;
    };
    let mut failed = 0u64;
    for stream in 0..cfg.streams {
        let posted = report.venue.collector(stream).len() as u64;
        failed += (cfg.rounds as u64).saturating_sub(posted);
        let c = report
            .streams
            .iter()
            .find(|s| s.stream == stream)
            .map_or_else(CoalesceStats::default, |s| s.coalesce);
        failed += emitted.saturating_sub(c.records);
        failed += c.late.saturating_sub(c.dropped + c.folded);
    }
    out.failed += failed;
    out.check(failed == 0, || {
        format!("collector job lost {failed} rounds or records")
    });
}

/// The game output of a job: engine finals and coalesce counters per
/// stream, and a fingerprint of every posted board record.
#[derive(Debug, PartialEq)]
struct GameOutput {
    streams: Vec<(u64, u64, usize, EngineTotals, CoalesceStats)>,
    board: u64,
}

/// Feeds formatted text into a hasher.
struct HashWriter<'a>(&'a mut DefaultHasher);

impl std::fmt::Write for HashWriter<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.write(s.as_bytes());
        Ok(())
    }
}

/// A fingerprint of every record posted to `venue`, in merged order.
fn board_fingerprint(venue: &RangedVenue) -> u64 {
    let mut hasher = DefaultHasher::new();
    venue.merged().for_each(|shard, record| {
        // The Debug form prints every float exactly, so equal text
        // means bit-equal records.
        let _ = write!(HashWriter(&mut hasher), "{shard}:{record:?};");
    });
    hasher.finish()
}

fn game_output(report: &CollectorReport) -> GameOutput {
    GameOutput {
        streams: report
            .streams
            .iter()
            .map(|s| {
                (
                    s.run.final_u_a.to_bits(),
                    s.run.final_u_c.to_bits(),
                    s.run.rounds,
                    s.run.totals,
                    s.coalesce,
                )
            })
            .collect(),
        board: board_fingerprint(&report.venue),
    }
}

/// Checks that every job of one seed produced the first job's output.
#[derive(Default)]
struct Repeatability(Option<GameOutput>);

impl Repeatability {
    fn check(&mut self, output: GameOutput, out: &mut Outcome) {
        match &self.0 {
            None => self.0 = Some(output),
            Some(first) => out.check(*first == output, || {
                "a repeated collector job with the same seed changed its game output".into()
            }),
        }
    }
}

pub fn run(shape: &Shape, seed: u64, budget: Duration, trace: bool) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let pool = standard_pool();
    let spill = shape.spill.then(|| SpillDir::new("job"));
    let cfg = config(shape, seed, spill.as_ref());
    out.note(format!(
        "collector: {} stream(s) on {} ingest thread(s), {} rounds/stream/job, batch {}, \
         jitter {}, late_every {}, span {}, {}",
        cfg.streams,
        cfg.threads,
        cfg.rounds,
        cfg.batch,
        cfg.jitter,
        cfg.late_every,
        cfg.round_span,
        if shape.spill {
            "every cold span spilled to disk"
        } else {
            "cold spans compacted in memory"
        }
    ));
    if trace {
        traced(&cfg, &pool, spill.as_ref(), budget, &mut out);
    } else {
        untraced(&cfg, &pool, spill.as_ref(), budget, &mut out);
    }
    out
}

/// Wall time of building what a job needs before its first round: the
/// value pool and each stream's game (the `make` closure's work).
fn setup_seconds(cfg: &CollectorConfig) -> f64 {
    let start = Instant::now();
    let pool = standard_pool();
    for stream in 0..cfg.streams {
        std::hint::black_box(scalar_stream_setup(&pool, cfg.rounds, cfg.seed, stream));
    }
    start.elapsed().as_secs_f64()
}

fn untraced(
    cfg: &CollectorConfig,
    pool: &[f64],
    spill: Option<&SpillDir>,
    budget: Duration,
    out: &mut Outcome,
) {
    // One set-up before every job, so the median spans the whole run.
    let mut setups = Vec::new();
    let make = |stream| scalar_stream_setup(pool, cfg.rounds, cfg.seed, stream);
    let mut repeat = Repeatability::default();
    // Warm-up job: checked, not timed.
    let warm = job(cfg, spill, make);
    account(cfg, warm.as_ref().map(|(r, _)| r), out);
    if let Some((_, output)) = warm {
        repeat.check(output, out);
    }

    let mut jobs: Vec<(Steal, OpSample)> = Vec::new();
    let started = Instant::now();
    while (started.elapsed() < budget || jobs.len() < MIN_SAMPLES) && started.elapsed() < HARD_STOP
    {
        setups.push(setup_seconds(cfg));
        let (report, steal) = with_steal(|| job(cfg, spill, make));
        account(cfg, report.as_ref().map(|(r, _)| r), out);
        if let Some((r, output)) = report {
            repeat.check(output, out);
            let op = OpSample {
                secs: r.elapsed.as_secs_f64(),
                rounds: r.rounds_played as f64,
                records: r.records_ingested as f64,
            };
            jobs.push((steal, op));
        }
    }
    out.set_end_to_end("job", &jobs, &mut setups);
}

/// Raw sums of one replay: nanoseconds inside each layer's calls and how
/// often each was called.
#[derive(Debug, Default)]
struct Ledger {
    send_ns: u64,
    sends: u64,
    recv_ns: u64,
    received: u64,
    push_ns: u64,
    step_ns: u64,
    post_ns: u64,
    rounds: u64,
    compact_ns: u64,
    compact_runs: u64,
    sealed: u64,
    late_dropped: u64,
}

/// Replays one stream's producer: the same seed derivation, record
/// values, stale duplicates and shuffle as `run_collector`'s producer,
/// each record stamped and sent through a bounded channel. Returns the
/// nanoseconds spent inside `send` (including backpressure blocking).
fn produce(cfg: &CollectorConfig, stream: usize, tx: Sender<(IngestRecord, Instant)>) -> u64 {
    let mut rng = seeded_rng(derive_seed(
        derive_seed(cfg.seed, PRODUCER_STREAM),
        stream as u64,
    ));
    let mut pending: Vec<IngestRecord> = Vec::with_capacity(cfg.jitter + 1);
    let mut emitted = 0u64;
    let mut send_ns = 0u64;
    let mut send = |rec: IngestRecord| {
        let sent = Instant::now();
        // Fails only if the worker dropped its receiver, which the
        // output checks then report.
        let _ = tx.send((rec, sent));
        send_ns += sent.elapsed().as_nanos() as u64;
    };
    for round in 1..=cfg.rounds {
        for _ in 0..cfg.batch {
            let rec = IngestRecord {
                round,
                value: rng.gen::<f64>(),
            };
            emitted += 1;
            if cfg.late_every > 0 && emitted.is_multiple_of(cfg.late_every as u64) {
                pending.push(IngestRecord {
                    round: round.saturating_sub(4 * cfg.reorder_window).max(1),
                    value: rec.value,
                });
            }
            pending.push(rec);
            while pending.len() > cfg.jitter {
                let i = rng.gen_range(0..pending.len());
                send(pending.swap_remove(i));
            }
        }
    }
    while !pending.is_empty() {
        let i = rng.gen_range(0..pending.len());
        send(pending.swap_remove(i));
    }
    send_ns
}

fn nanos(start: Instant, end: Instant) -> u64 {
    end.duration_since(start).as_nanos() as u64
}

/// Replays every stream of `cfg` one after another: a producer thread
/// feeds the bounded channel while this thread runs the worker's loop
/// (drain, coalesce, flush on disconnect, step, post, compact) with a
/// timer around each call. Checks each stream's coalesce counters and
/// engine finals against `reference`, an untraced job of the same
/// configuration, and that every requested round was posted.
fn replay(
    cfg: &CollectorConfig,
    pool: &[f64],
    decide: (&Arc<Span>, &Arc<Span>),
    reference: &CollectorReport,
    out: &mut Outcome,
) -> (Ledger, RangedVenue) {
    let venue = RangedVenue::new(cfg.streams, cfg.round_span);
    let mut ledger = Ledger::default();
    for stream in 0..cfg.streams {
        let setup = scalar_stream_setup(pool, cfg.rounds, cfg.seed, stream);
        let mut stepper = EngineStepper::with_policy_seed(
            setup.scenario,
            TimedDefender::wrap(setup.defender, decide.0),
            TimedAttacker::wrap(setup.adversary, decide.1),
            setup.policy_seed,
        );
        let mut rng = setup.rng;
        let shard = venue.collector(stream);
        let compactor = cfg.tier.clone().map(|tier| {
            let tag = format!("s{stream}");
            let manifest = tier.spill_dir.as_ref().map(|dir| {
                ManifestWriter::create(
                    dir,
                    &tag,
                    stream as u64,
                    cfg.streams as u64,
                    cfg.round_span as u64,
                )
                .expect("create the replay's spill manifest")
            });
            let compactor = Compactor::new(tier, tag);
            match manifest {
                Some(m) => compactor.with_manifest(Arc::new(Mutex::new(m))),
                None => compactor,
            }
        });
        let mut coalescer = Coalescer::new(CoalescerConfig {
            batch: cfg.batch,
            reorder_window: cfg.reorder_window,
            late_policy: cfg.late_policy,
        });
        let (tx, rx) = bounded::<(IngestRecord, Instant)>(cfg.channel_cap.max(1));
        let mut inbox = Vec::new();
        let mut sealed = Vec::new();
        let send_ns = std::thread::scope(|scope| {
            let producer = scope.spawn(|| produce(cfg, stream, tx));
            loop {
                inbox.clear();
                let t0 = Instant::now();
                let got = rx.try_recv_batch(&mut inbox, RECV_BATCH);
                let t1 = Instant::now();
                for (rec, _) in inbox.drain(..) {
                    coalescer.push(rec, &mut sealed);
                }
                let done = got == 0 && rx.is_disconnected() && rx.is_empty();
                if done {
                    coalescer.flush(&mut sealed);
                }
                let t2 = Instant::now();
                if got > 0 {
                    // Empty polls are the worker waiting, not receiving.
                    ledger.recv_ns += nanos(t0, t1);
                    ledger.received += got as u64;
                }
                ledger.push_ns += nanos(t1, t2);
                let played = !sealed.is_empty();
                for batch in sealed.drain(..) {
                    let a = Instant::now();
                    let step = stepper.step(&mut rng);
                    let b = Instant::now();
                    let mut record = step.to_record();
                    record.round = batch.round.max(step.round);
                    let c = Instant::now();
                    shard.post(record);
                    let d = Instant::now();
                    ledger.step_ns += nanos(a, b);
                    ledger.post_ns += nanos(c, d);
                    ledger.rounds += 1;
                }
                if played {
                    if let Some(compactor) = &compactor {
                        let a = Instant::now();
                        compactor.run(&shard);
                        ledger.compact_ns += nanos(a, Instant::now());
                        ledger.compact_runs += 1;
                    }
                }
                if done {
                    break;
                }
                std::thread::yield_now();
            }
            producer.join().expect("replay producer panicked")
        });
        ledger.send_ns += send_ns;
        ledger.sends += emitted_per_stream(cfg);

        let run: EngineRun = stepper.finish();
        let stats = coalescer.stats();
        ledger.sealed += stats.sealed_full + stats.sealed_by_age + stats.sealed_by_flush;
        ledger.late_dropped += stats.dropped;
        let expected = reference.streams.iter().find(|s| s.stream == stream);
        out.check(expected.is_some_and(|e| e.coalesce == stats), || {
            format!("stream {stream}: replay coalesce stats differ from run_collector's")
        });
        out.check(
            expected.is_some_and(|e| {
                e.run.final_u_c.to_bits() == run.final_u_c.to_bits()
                    && e.run.final_u_a.to_bits() == run.final_u_a.to_bits()
                    && e.run.rounds == run.rounds
                    && e.run.totals == run.totals
            }),
            || format!("stream {stream}: replay engine finals differ from run_collector's"),
        );
        out.check(shard.len() == cfg.rounds, || {
            format!(
                "stream {stream}: replay posted {} of {} rounds",
                shard.len(),
                cfg.rounds
            )
        });
    }
    (ledger, venue)
}

/// Per-iteration figures, each tagged with the steal of the measurement
/// it came from; layer times are net of the timers around them.
#[derive(Debug, Default)]
struct Samples {
    untraced_ns: Vec<(Steal, f64)>,
    traced_ns: Vec<(Steal, f64)>,
    rounds_per_s: Vec<(Steal, f64)>,
    backpressure: Vec<(Steal, f64)>,
    setup_ns: Vec<(Steal, f64)>,
    send: Vec<(Steal, f64)>,
    recv: Vec<(Steal, f64)>,
    push: Vec<(Steal, f64)>,
    step: Vec<(Steal, f64)>,
    defender: Vec<(Steal, f64)>,
    attacker: Vec<(Steal, f64)>,
    scenario: Vec<(Steal, f64)>,
    post: Vec<(Steal, f64)>,
    compact: Vec<(Steal, f64)>,
    worker_ns_per_round: Vec<(Steal, f64)>,
}

fn per(ns: u64, calls: u64) -> f64 {
    ns as f64 / calls.max(1) as f64
}

fn traced(
    cfg: &CollectorConfig,
    pool: &[f64],
    spill: Option<&SpillDir>,
    budget: Duration,
    out: &mut Outcome,
) {
    let pair = timer_overhead_ns();
    let replay_spill = spill.map(|_| SpillDir::new("replay"));
    let replay_cfg = CollectorConfig {
        tier: cfg.tier.clone().map(|tier| TierConfig {
            spill_dir: replay_spill.as_ref().map(|d| d.0.clone()),
            ..tier
        }),
        ..cfg.clone()
    };
    let hot_tail = cfg.tier.as_ref().map_or(0, |t| t.hot_tail_spans);
    let plain = |stream| scalar_stream_setup(pool, cfg.rounds, cfg.seed, stream);
    // A job with both policies wrapped and the `make` closure timed.
    let traced_job = || {
        let make_span = Span::shared();
        let (def, adv) = (Span::shared(), Span::shared());
        let result = job(cfg, spill, |stream| {
            let start = Instant::now();
            let mut setup = scalar_stream_setup(pool, cfg.rounds, cfg.seed, stream);
            make_span.record(start);
            setup.defender = TimedDefender::wrap(setup.defender, &def);
            setup.adversary = TimedAttacker::wrap(setup.adversary, &adv);
            setup
        });
        (result, make_span.read())
    };
    let mut repeat = Repeatability::default();
    let mut s = Samples::default();
    let mut last = None;
    let started = Instant::now();
    let mut iterations = 0usize;
    while (started.elapsed() < budget || iterations < MIN_ITERATIONS)
        && started.elapsed() < HARD_STOP
    {
        iterations += 1;
        // The traced and the untraced job swap order every iteration, so
        // their difference (the tracing overhead) carries no order bias.
        let early = iterations.is_multiple_of(2).then(|| with_steal(traced_job));
        let (untraced, untraced_steal) = with_steal(|| job(cfg, spill, plain));
        let ((traced, (make_ns, make_calls)), traced_steal) =
            early.unwrap_or_else(|| with_steal(traced_job));
        account(cfg, traced.as_ref().map(|(r, _)| r), out);
        account(cfg, untraced.as_ref().map(|(r, _)| r), out);
        // The untraced job is the replay's reference output.
        let Some((reference, output)) = untraced else {
            continue;
        };
        let reference_board = output.board;
        repeat.check(output, out);
        let rounds = reference.rounds_played.max(1) as f64;
        let tag = |v: f64| (untraced_steal, v);
        s.untraced_ns
            .push(tag(reference.elapsed.as_nanos() as f64 / rounds));
        s.rounds_per_s.push(tag(reference.rounds_per_sec()));
        s.backpressure
            .push(tag(reference.backpressure_events as f64));
        if let Some((r, output)) = traced {
            repeat.check(output, out);
            s.traced_ns
                .push((traced_steal, r.elapsed.as_nanos() as f64 / rounds));
            s.setup_ns.push((traced_steal, per(make_ns, make_calls)));
        }

        // Replay: the layer ledger.
        let (def, adv) = (Span::shared(), Span::shared());
        let ((ledger, venue), steal) =
            with_steal(|| replay(&replay_cfg, pool, (&def, &adv), &reference, out));
        // Tier figures first: reading the board back inflates cold spans.
        let tier = venue.tier_stats().snapshot();
        let resident = venue.resident_cold_bytes(hot_tail);
        out.check(board_fingerprint(&venue) == reference_board, || {
            "replay board records differ from run_collector's".into()
        });
        let tag = |v: f64| (steal, v);
        let (def_ns, def_calls) = def.read();
        let (adv_ns, adv_calls) = adv.read();
        let n = ledger.rounds.max(1) as f64;
        // Each step carries its own timer plus one inside each wrapped
        // policy call.
        let step =
            per(ledger.step_ns, ledger.rounds) - pair * (1.0 + (def_calls + adv_calls) as f64 / n);
        let defender = per(def_ns, def_calls) - pair;
        let attacker = per(adv_ns, adv_calls) - pair;
        let post = per(ledger.post_ns, ledger.rounds) - pair;
        s.send.push(tag(per(ledger.send_ns, ledger.sends) - pair));
        s.recv.push(tag(per(ledger.recv_ns, ledger.received)));
        s.push.push(tag(per(ledger.push_ns, ledger.received)));
        s.step.push(tag(step));
        s.defender.push(tag(defender));
        s.attacker.push(tag(attacker));
        s.scenario.push(tag(step
            - defender * def_calls as f64 / n
            - attacker * adv_calls as f64 / n));
        s.post.push(tag(post));
        s.compact
            .push(tag(per(ledger.compact_ns, ledger.compact_runs)));
        s.worker_ns_per_round
            .push(tag((ledger.recv_ns + ledger.push_ns + ledger.compact_ns)
                as f64
                / n
                + step
                + post));
        if let Some(dir) = &replay_spill {
            dir.clear();
        }
        last = Some((ledger, tier, resident, reference));
    }

    let Some((ledger, tier, resident, reference)) = last else {
        out.check(false, || "no traced iteration completed".into());
        return;
    };
    let mut totals = EngineTotals::default();
    for st in &reference.streams {
        totals.received += st.run.totals.received;
        totals.poison_received += st.run.totals.poison_received;
        totals.poison_survived += st.run.totals.poison_survived;
        totals.benign_trimmed += st.run.totals.benign_trimmed;
    }
    let mid = |v: &[(Steal, f64)]| calm_median(v, MIN_ITERATIONS);
    let rounds_per_s = mid(&s.rounds_per_s);
    let worker_ns = mid(&s.worker_ns_per_round);

    out.set("stream.channel.send_ns", mid(&s.send));
    out.set("stream.channel.recv_ns", mid(&s.recv));
    out.set("stream.channel.backpressure_events", mid(&s.backpressure));
    out.set("stream.coalesce.push_ns", mid(&s.push));
    out.set("stream.coalesce.sealed", ledger.sealed as f64);
    out.set("stream.coalesce.late_dropped", ledger.late_dropped as f64);
    out.set("core.engine.step_ns", mid(&s.step));
    out.set("core.strategy.decide_ns", mid(&s.defender));
    out.set("core.adversary.decide_ns", mid(&s.attacker));
    out.set("core.engine.scenario_ns", mid(&s.scenario));
    out.set("core.engine.false_trim_rate", totals.benign_trim_fraction());
    out.set(
        "core.engine.miss_rate",
        totals.poison_survived as f64 / totals.poison_received.max(1) as f64,
    );
    out.set("stream.board.post_ns", mid(&s.post));
    out.set("stream.compact.run_ns", mid(&s.compact));
    out.set("stream.compact.frames_built", tier.frames_built as f64);
    out.set("stream.compact.spill_writes", tier.spill_writes as f64);
    out.set("stream.compact.resident_cold_bytes", resident as f64);
    out.set(
        "stream.compact.bytes_ratio",
        tier.bytes_raw as f64 / tier.bytes_framed.max(1) as f64,
    );
    out.set(
        "bench.collector.unexplained_ns",
        cfg.threads as f64 * 1e9 / rounds_per_s - worker_ns,
    );
    out.set("bench.collector.setup_ns", mid(&s.setup_ns));
    out.set(
        "bench.collector.trace_overhead_ns",
        mid(&s.traced_ns) - mid(&s.untraced_ns),
    );
    out.set(
        "error_rate",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.note(format!(
        "{iterations} traced iterations (untraced job, traced job, replay); per-layer times are \
         medians over the iterations the host disturbed least, net of a {pair:.1} ns timer pair; counts are from one replay \
         of {} rounds; worker time {worker_ns:.0} ns/round, untraced {rounds_per_s:.0} rounds/s",
        ledger.rounds
    ));
}
