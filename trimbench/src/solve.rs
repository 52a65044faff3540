//! The equilibrium workloads: back-to-back double-oracle solves, one at
//! a time (a closed loop with one client).
//!
//! A *solve* is what `expt equilibrium --double-oracle` runs on one
//! substrate: the grid-candidate pass and then the continuum pass of
//! `double_oracle`, on `EquilibriumConfig::default_for(kind)` with
//! `NPROC` sweep workers. Solve `i` uses master seed
//! `derive_seed(seed, i)`, so a run's solve times sample many master
//! seeds; re-solving a seed must reproduce its output exactly.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use trimgame_bench::double_oracle::{double_oracle, DoubleOracleConfig, DoubleOracleEquilibrium};
use trimgame_bench::empirical::{
    standard_substrate, EquilibriumConfig, GameSubstrate, SubstrateKind,
};
use trimgame_numerics::rand_ext::derive_seed;

use crate::stats::{calm_median, with_steal, Steal};
use crate::trace::{timer_overhead_ns, SubstrateSpans, TimedSubstrate};
use crate::{OpSample, Outcome, HARD_STOP, MIN_SAMPLES, NPROC};

/// Master seeds the exact per-solve counts of a traced run cover.
const COUNT_SEEDS: usize = 16;

/// Master seeds an untraced run solves again after timing, to check
/// that each output repeats exactly.
const REPEATS: usize = 4;

/// Both passes of one solve: grid-candidate, then continuum.
type Solve = [DoubleOracleEquilibrium; 2];

fn config(kind: SubstrateKind, master_seed: u64, workers: usize) -> EquilibriumConfig {
    EquilibriumConfig {
        master_seed,
        workers,
        ..EquilibriumConfig::default_for(kind)
    }
}

/// Runs one solve, catching a panic so it counts as a failed solve.
fn solve(sub: &dyn GameSubstrate, cfg: &EquilibriumConfig) -> Option<Solve> {
    catch_unwind(AssertUnwindSafe(|| {
        let grid = DoubleOracleConfig::grid_for(cfg);
        let continuum = DoubleOracleConfig::for_game(cfg);
        [
            double_oracle(sub, cfg, &grid),
            double_oracle(sub, cfg, &continuum),
        ]
    }))
    .ok()
}

/// A pass is valid if its value bounds are finite and both mixtures
/// are probability vectors.
fn valid(pass: &DoubleOracleEquilibrium) -> bool {
    let eq = &pass.equilibrium;
    let mixture = |w: &[f64]| {
        !w.is_empty()
            && w.iter().all(|x| x.is_finite() && *x >= 0.0)
            && (w.iter().sum::<f64>() - 1.0).abs() <= 1e-9
    };
    [eq.value, eq.lower, eq.upper].iter().all(|v| v.is_finite())
        && mixture(&eq.row_strategy)
        && mixture(&eq.col_strategy)
}

fn engine_runs(s: &Solve) -> usize {
    s.iter().map(|p| p.engine_runs).sum()
}

/// Counts one solve into `out` and checks it: it must not panic and
/// both passes must be valid.
fn account(result: Option<Solve>, out: &mut Outcome) -> Option<Solve> {
    out.attempted += 1;
    let Some(s) = result else {
        out.failed += 1;
        out.check(false, || "a solve panicked".into());
        return None;
    };
    if !s.iter().all(valid) {
        out.failed += 1;
        out.check(false, || {
            "a solve returned a non-finite value or a mixture that does not sum to 1".into()
        });
    }
    Some(s)
}

/// Checks that a re-solve of master seed `i` reproduced `first`.
fn check_repeat(first: &Solve, again: &Solve, i: usize, out: &mut Outcome) {
    out.check(first == again, || {
        format!("master seed #{i}: solving it again changed its output")
    });
}

pub fn run(kind: SubstrateKind, seed: u64, budget: Duration, trace: bool) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let base = EquilibriumConfig::default_for(kind);
    out.note(format!(
        "equilibrium: {} substrate, {} defender atoms, {} seeds/cell, {} rounds x {} batch, \
         {NPROC} workers, grid + continuum double-oracle passes per solve",
        kind.name(),
        base.defender_atoms.len(),
        base.seeds,
        base.rounds,
        base.batch,
    ));
    if trace {
        traced(kind, seed, budget, &mut out);
    } else {
        untraced(kind, seed, budget, &mut out);
    }
    out
}

fn untraced(kind: SubstrateKind, seed: u64, budget: Duration, out: &mut Outcome) {
    // One substrate build before every solve, so the median spans the
    // whole run.
    let build = || {
        let start = Instant::now();
        std::hint::black_box(standard_substrate(kind));
        start.elapsed().as_secs_f64()
    };
    let mut setups = Vec::new();
    let sub = standard_substrate(kind);
    let cfg = |i: usize| config(kind, derive_seed(seed, i as u64), NPROC);
    // Warm-up solve: checked, not timed.
    account(solve(&*sub, &config(kind, seed, NPROC)), out);
    // The first solves' outputs, for the repeat check.
    let mut first: Vec<(usize, Solve)> = Vec::new();

    let mut solves: Vec<(Steal, OpSample)> = Vec::new();
    let started = Instant::now();
    let mut i = 0usize;
    while (started.elapsed() < budget || solves.len() < MIN_SAMPLES)
        && started.elapsed() < HARD_STOP
    {
        setups.push(build());
        let cfg = cfg(i);
        let ((result, secs), steal) = with_steal(|| {
            let start = Instant::now();
            let result = solve(&*sub, &cfg);
            (result, start.elapsed().as_secs_f64())
        });
        if let Some(s) = account(result, out) {
            let rounds = (engine_runs(&s) * cfg.rounds) as f64;
            let op = OpSample {
                secs,
                rounds,
                records: rounds * cfg.batch as f64,
            };
            solves.push((steal, op));
            if i < REPEATS {
                first.push((i, s));
            }
        }
        i += 1;
    }
    for (k, f) in &first {
        if let Some(again) = account(solve(&*sub, &cfg(*k)), out) {
            check_repeat(f, &again, *k, out);
        }
    }
    out.set_end_to_end("solve", &solves, &mut setups);
}

/// The three solves of one traced iteration.
#[derive(Debug, Clone, Copy)]
enum Phase {
    Traced,
    OneWorker,
    Untraced,
}

/// One timed solve: its result, wall time, what the `run_cell` and
/// `closed_form` spans gained, and the steal it suffered.
struct Timed {
    result: Option<Solve>,
    wall_ns: f64,
    run_cell: (u64, u64),
    closed_form_ns: f64,
    steal: Steal,
}

fn timed_solve(sub: &dyn GameSubstrate, spans: &SubstrateSpans, cfg: &EquilibriumConfig) -> Timed {
    let (rc0, cf0) = (spans.run_cell.read(), spans.closed_form.read());
    let ((result, wall), steal) = with_steal(|| {
        let start = Instant::now();
        let result = solve(sub, cfg);
        (result, start.elapsed().as_nanos() as f64)
    });
    let (rc, cf) = (spans.run_cell.read(), spans.closed_form.read());
    Timed {
        result,
        wall_ns: wall,
        run_cell: (rc.0 - rc0.0, rc.1 - rc0.1),
        closed_form_ns: (cf.0 - cf0.0) as f64,
        steal,
    }
}

fn traced(kind: SubstrateKind, seed: u64, budget: Duration, out: &mut Outcome) {
    let pair = timer_overhead_ns();
    let sub = standard_substrate(kind);
    let timed = TimedSubstrate {
        inner: &*sub,
        spans: SubstrateSpans::default(),
    };
    let spans = &timed.spans;
    // Per-solve figures, each tagged with its steal.
    let (mut traced_ms, mut untraced_ms, mut self_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut busy, mut run_cell_ns, mut closed_form_ns) = (Vec::new(), Vec::new(), Vec::new());
    // Exact counts over the first COUNT_SEEDS master seeds.
    let (mut runs, mut steps, mut misses) = (0usize, 0usize, 0usize);

    let started = Instant::now();
    let mut i = 0usize;
    while (started.elapsed() < budget || i < COUNT_SEEDS) && started.elapsed() < HARD_STOP {
        let k = i;
        i += 1;
        let master = derive_seed(seed, k as u64);
        let cfg = config(kind, master, NPROC);
        // The traced and the untraced solve on NPROC workers swap order
        // every iteration, so their difference carries no order bias.
        // All three solve the same master seed and must agree exactly.
        let mut first: Option<Solve> = None;
        let order = if i % 2 == 1 {
            [Phase::Traced, Phase::OneWorker, Phase::Untraced]
        } else {
            [Phase::Untraced, Phase::OneWorker, Phase::Traced]
        };
        for phase in order {
            let t = match phase {
                Phase::Traced => timed_solve(&timed, spans, &cfg),
                Phase::OneWorker => timed_solve(&timed, spans, &config(kind, master, 1)),
                Phase::Untraced => timed_solve(&*sub, spans, &cfg),
            };
            let Some(s) = account(t.result, out) else {
                continue;
            };
            match &first {
                None => first = Some(s.clone()),
                Some(f) => check_repeat(f, &s, k, out),
            }
            let (rc_ns, rc_calls) = t.run_cell;
            let tag = |v: f64| (t.steal, v);
            if !matches!(phase, Phase::Untraced) {
                out.check(rc_calls as usize == engine_runs(&s), || {
                    format!(
                        "master seed #{k}: {rc_calls} run_cell calls, engine_runs says {}",
                        engine_runs(&s)
                    )
                });
            }
            match phase {
                // At the workload's worker count: busy share, run_cell
                // and closed_form time, exact counts.
                Phase::Traced => {
                    traced_ms.push(tag(t.wall_ns / 1e6));
                    busy.push(tag(rc_ns as f64 / (t.wall_ns * NPROC as f64)));
                    run_cell_ns.push(tag(rc_ns as f64 / rc_calls.max(1) as f64));
                    closed_form_ns.push(tag(t.closed_form_ns));
                    if i <= COUNT_SEEDS {
                        runs += engine_runs(&s);
                        steps += s.iter().map(|p| p.steps.len()).sum::<usize>();
                        misses +=
                            usize::from(!s.iter().all(DoubleOracleEquilibrium::within_tolerance));
                    }
                }
                // On one worker, subtracting the engine runs and the
                // closed form from the wall time leaves the solver's own
                // time.
                Phase::OneWorker => {
                    self_ms.push(tag((t.wall_ns - rc_ns as f64 - t.closed_form_ns) / 1e6));
                }
                Phase::Untraced => untraced_ms.push(tag(t.wall_ns / 1e6)),
            }
        }
    }
    if traced_ms.is_empty() || self_ms.is_empty() || untraced_ms.is_empty() {
        out.check(false, || "no traced solve completed".into());
        return;
    }
    let mid = |v: &[(Steal, f64)]| calm_median(v, COUNT_SEEDS);
    let (def_ns, def_calls) = spans.defender.read();
    let (adv_ns, adv_calls) = spans.attacker.read();
    out.set(
        "core.strategy.decide_ns",
        def_ns as f64 / def_calls.max(1) as f64 - pair,
    );
    out.set(
        "core.adversary.decide_ns",
        adv_ns as f64 / adv_calls.max(1) as f64 - pair,
    );
    out.set(
        "bench.empirical.run_cell_calls",
        runs as f64 / COUNT_SEEDS as f64,
    );
    out.set("bench.empirical.run_cell_ns", mid(&run_cell_ns));
    out.set("bench.empirical.closed_form_ns", mid(&closed_form_ns));
    out.set("bench.double_oracle.self_ms", mid(&self_ms));
    out.set(
        "bench.double_oracle.oracle_steps",
        steps as f64 / COUNT_SEEDS as f64,
    );
    out.set("bench.double_oracle.crosscheck_miss", misses as f64);
    out.set(
        "bench.double_oracle.trace_overhead_ms",
        mid(&traced_ms) - mid(&untraced_ms),
    );
    out.set("bench.sweep.worker_busy_share", mid(&busy));
    out.set(
        "error_rate",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.note(format!(
        "{i} traced iterations (traced on {NPROC} workers, traced on 1, untraced on {NPROC}); \
         times are medians per solve over the solves the host disturbed least, decide_ns net \
         of a {pair:.1} ns timer pair; run_cell_calls and oracle_steps are means per solve over \
         the first {COUNT_SEEDS} master seeds, crosscheck_miss counts those whose solve has a \
         pass outside its analytic tolerance"
    ));
}
