//! The trimming-game benchmark.
//!
//! ```text
//! trimbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--holdout]
//! ```
//!
//! Workloads: `collect-single` and `collect-sharded` drive the streaming
//! collector (`run_collector`); `equilibrium-ldp` and `equilibrium-ml`
//! run back-to-back double-oracle solves. `--trace 0` measures the
//! end-to-end metrics untraced; `--trace 1` times the calls into each
//! layer from this package's own files and prints the per-layer ledger.
//! `--holdout` derives every input from a seed stream disjoint from the
//! workload seed's, so a claim tuned on one seed can be re-checked on
//! inputs it never saw. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.

mod collect;
mod solve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

use trimgame_bench::empirical::SubstrateKind;
use trimgame_numerics::rand_ext::derive_seed;

use crate::stats::Steal;

/// Threads and sweep workers every workload is sized for: the
/// benchmark host's core count, fixed so figures compare across hosts.
pub const NPROC: usize = 2;

/// Timed operations per untraced run at least: the p90 needs ten
/// samples beyond it.
pub const MIN_SAMPLES: usize = 100;

/// A run stops here even if it has fewer samples than it wants.
pub const HARD_STOP: std::time::Duration = std::time::Duration::from_secs(120);

/// Seed stream of the holdout inputs.
const HOLDOUT_STREAM: u64 = 0x484F_4C44; // "HOLD"

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
const END_TO_END: [(&str, &str); 6] = [
    ("rounds_per_s", "1/s"),
    ("records_per_s", "1/s"),
    ("solve_ms_p50", "ms"),
    ("solve_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A
/// layer the workload never calls reads 0.
const PER_LAYER: [(&str, &str); 30] = [
    ("stream.channel.send_ns", "ns"),
    ("stream.channel.recv_ns", "ns"),
    ("stream.channel.backpressure_events", "count"),
    ("stream.coalesce.push_ns", "ns"),
    ("stream.coalesce.sealed", "count"),
    ("stream.coalesce.late_dropped", "count"),
    ("core.engine.step_ns", "ns"),
    ("core.strategy.decide_ns", "ns"),
    ("core.adversary.decide_ns", "ns"),
    ("core.engine.scenario_ns", "ns"),
    ("core.engine.false_trim_rate", "ratio"),
    ("core.engine.miss_rate", "ratio"),
    ("stream.board.post_ns", "ns"),
    ("stream.compact.run_ns", "ns"),
    ("stream.compact.frames_built", "count"),
    ("stream.compact.spill_writes", "count"),
    ("stream.compact.resident_cold_bytes", "B"),
    ("stream.compact.bytes_ratio", "ratio"),
    ("bench.collector.unexplained_ns", "ns"),
    ("bench.collector.setup_ns", "ns"),
    ("bench.collector.trace_overhead_ns", "ns"),
    ("bench.empirical.run_cell_calls", "count"),
    ("bench.empirical.run_cell_ns", "ns"),
    ("bench.empirical.closed_form_ns", "ns"),
    ("bench.double_oracle.self_ms", "ms"),
    ("bench.double_oracle.oracle_steps", "count"),
    ("bench.double_oracle.crosscheck_miss", "count"),
    ("bench.double_oracle.trace_overhead_ms", "ms"),
    ("bench.sweep.worker_busy_share", "ratio"),
    ("error_rate", "ratio"),
];

/// One timed operation of an untraced run: its wall time and the engine
/// rounds and records it processed.
#[derive(Debug, Clone)]
pub struct OpSample {
    pub secs: f64,
    pub rounds: f64,
    pub records: f64,
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted and failed (see each workload's definition).
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the JSON result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// Sets every end-to-end metric from an untraced run's timed
    /// operations (`op`: jobs or solves) and its set-up times in seconds.
    /// Timings use the operations the host disturbed least, each net of
    /// the time the host stole while it ran.
    pub fn set_end_to_end(&mut self, op: &str, ops: &[(Steal, OpSample)], setups: &mut [f64]) {
        self.check(ops.len() >= MIN_SAMPLES, || {
            format!("only {} {op}s fit the run, {MIN_SAMPLES} needed", ops.len())
        });
        if ops.is_empty() || setups.is_empty() {
            return;
        }
        let kept = stats::least_disturbed(ops, MIN_SAMPLES);
        let net: Vec<(f64, &OpSample)> = kept.iter().map(|(s, o)| (s.net(o.secs), o)).collect();
        let mut ms: Vec<f64> = net.iter().map(|(t, _)| t * 1e3).collect();
        let mut rounds: Vec<f64> = net.iter().map(|(t, o)| o.rounds / t).collect();
        let mut records: Vec<f64> = net.iter().map(|(t, o)| o.records / t).collect();
        let n = kept.len();
        self.set("solve_ms_p50", stats::quantile(&mut ms, 0.5));
        self.set("solve_ms_p90", stats::quantile(&mut ms, 0.9));
        self.set("rounds_per_s", stats::median(&mut rounds));
        self.set("records_per_s", stats::median(&mut records));
        self.set("setup_s", stats::median(setups));
        self.set("peak_rss_mb", stats::peak_rss_mb());
        self.note(format!(
            "{timed} {op}s timed, {n} used ({tail} beyond p90): those that lost at most half \
             their wall time to host steal, each net of it; rounds_per_s and records_per_s are \
             medians per {op}, solve_ms is per {op}; setup_s is the median of one set-up before \
             each {op}",
            timed = ops.len(),
            tail = stats::beyond(n, 0.9),
        ));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Counts one check; a failing check marks the run incorrect and
    /// says why on standard error.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            eprintln!("check failed: {}", what());
            self.correct = false;
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    holdout: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut holdout = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--holdout" {
            holdout = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
            },
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds must be 1..=60, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        holdout,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let seed = if args.holdout {
        derive_seed(args.seed, HOLDOUT_STREAM)
    } else {
        args.seed
    };
    let budget = std::time::Duration::from_secs(args.seconds);
    let outcome = match args.workload.as_str() {
        "collect-single" => collect::run(&collect::SINGLE, seed, budget, args.trace),
        "collect-sharded" => collect::run(&collect::SHARDED, seed, budget, args.trace),
        "equilibrium-ldp" => solve::run(SubstrateKind::Ldp, seed, budget, args.trace),
        "equilibrium-ml" => solve::run(SubstrateKind::Ml, seed, budget, args.trace),
        other => return Err(format!("unknown workload {other:?}")),
    };
    Ok(outcome)
}

/// Renders the result line: the metric set is the full end-to-end list
/// (untraced) or the full per-layer list (traced), in a fixed order.
fn result_json(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::with_capacity(names.len());
    for &(name, unit) in names {
        let value = match outcome.metrics.get(name) {
            Some(&v) => v,
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("trimbench: {e}");
            eprintln!(
                "usage: trimbench --workload <collect-single|collect-sharded|equilibrium-ldp|equilibrium-ml> \
                 --seed <n> --seconds <1..60> --trace <0|1> [--holdout]"
            );
            return ExitCode::from(2);
        }
    };
    let result = run(&args).and_then(|outcome| {
        let line = result_json(&outcome, args.trace)?;
        Ok((outcome, line))
    });
    match result {
        Ok((outcome, line)) => {
            for note in &outcome.notes {
                println!("{note}");
            }
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("trimbench: {e}");
            ExitCode::FAILURE
        }
    }
}
