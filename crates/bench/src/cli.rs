//! The `expt` command line, parsed once into one typed [`ExptConfig`].
//!
//! Every run setting is a flag in one table that the parser matches and
//! [`usage`] prints. No library code reads the environment: only the
//! bench windows, `TRIMGAME_BENCH_WARMUP_MS` / `TRIMGAME_BENCH_MEASURE_MS`,
//! stay there, because the vendored criterion harness reads the same
//! names and has no argv; they are read here once. Malformed input is an
//! `Err`, never a silent fallback.

use crate::empirical::{SubstrateKind, DEFAULT_SKETCH_EPSILON};
use crate::EXPERIMENTS;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;
use trimgame_stream::fault::FaultSpec;

const WARMUP_VAR: &str = "TRIMGAME_BENCH_WARMUP_MS";
const MEASURE_VAR: &str = "TRIMGAME_BENCH_MEASURE_MS";

/// Every `expt` run setting, parsed once from argv.
#[derive(Debug, Clone, PartialEq)]
pub struct ExptConfig {
    /// `--smoke`: tiny grids for pipeline checks.
    pub smoke: bool,
    /// `--substrate`: what `equilibrium` and `collect` run on.
    pub substrate: SubstrateKind,
    /// `--sketch[=EPS]`: defender cuts from a GK sketch of this rank error.
    pub sketch_epsilon: Option<f64>,
    /// `--double-oracle`: `equilibrium` uses the best-response oracle.
    pub double_oracle: bool,
    /// `--json`: `bench` writes its snapshot file.
    pub json: bool,
    /// `--recover`: `collect` resumes from the manifests under `spill`.
    pub recover: bool,
    /// `--threads`: workers; 0 = all cores (`collect`: one per stream).
    pub threads: usize,
    /// `--reps`: repetitions per experiment point.
    pub reps: usize,
    /// `--scale`: divisor on the large dataset instance counts.
    pub scale: usize,
    /// `--seeds`: equilibrium seeds per payoff cell, at least 2.
    pub seeds: Option<usize>,
    /// `--spill`: where `collect` spills cold spans and journals manifests.
    pub spill: Option<PathBuf>,
    /// `--budget`: `collect`'s resident cold-span bytes per shard.
    pub budget: Option<usize>,
    /// `--faults`: deterministic fault injection in `collect`.
    pub faults: Option<FaultSpec>,
    /// `TRIMGAME_BENCH_WARMUP_MS`: `bench` warm-up window.
    pub bench_warmup: Duration,
    /// `TRIMGAME_BENCH_MEASURE_MS`: `bench` measurement window.
    pub bench_measure: Duration,
}

impl Default for ExptConfig {
    fn default() -> Self {
        Self {
            smoke: false,
            substrate: SubstrateKind::Scalar,
            sketch_epsilon: None,
            double_oracle: false,
            json: false,
            recover: false,
            threads: 0,
            reps: 10,
            scale: 64,
            seeds: None,
            spill: None,
            budget: None,
            faults: None,
            bench_warmup: Duration::from_millis(50),
            bench_measure: Duration::from_millis(250),
        }
    }
}

/// How a flag takes its value: a switch, `--f V` / `--f=V`, or an
/// optional `--f[=V]`.
#[derive(Debug, Clone, Copy)]
enum Arg {
    None,
    Required(&'static str),
    Optional(&'static str),
}

/// The flag table, `(name, value, help)`; [`set`] stores each value.
#[rustfmt::skip]
const FLAGS: [(&str, Arg, &str); 13] = [
    ("--smoke",         Arg::None,                  "tiny grids for pipeline checks (equilibrium, collect)"),
    ("--substrate",     Arg::Required("KIND"),      "equilibrium/collect substrate: scalar (default), ml, ldp"),
    ("--sketch",        Arg::Optional("EPS"),       "sketch-native defender: GK-sketch cuts, rank error in (0, 0.5), default 0.02"),
    ("--double-oracle", Arg::None,                  "equilibrium grows a measured support by best responses, not the dense grid"),
    ("--json",          Arg::None,                  "bench also writes the BENCH_PR10.json snapshot"),
    ("--recover",       Arg::None,                  "collect resumes from the manifests of an interrupted --spill run, proves bit-identity"),
    ("--threads",       Arg::Required("N"),         "worker threads (default 0: all cores; collect: one per stream)"),
    ("--reps",          Arg::Required("N"),         "repetitions per point (default 10; the paper used 100)"),
    ("--scale",         Arg::Required("N"),         "dataset instance divisor (default 64; 1 = paper sizes)"),
    ("--seeds",         Arg::Required("N"),         "equilibrium seeds per payoff cell (at least 2)"),
    ("--spill",         Arg::Required("DIR"),       "collect spills cold spans (and journals manifests) under DIR"),
    ("--budget",        Arg::Required("BYTES"),     "collect's resident bytes per shard for cold spans (default: none)"),
    ("--faults",        Arg::Required("SEED:RATE"), "deterministic fault injection in collect, RATE in [0, 1]"),
];

/// Stores flag `name`'s value; the parser has already checked that the
/// value is present exactly when the flag's [`Arg`] requires it.
fn set(cfg: &mut ExptConfig, name: &str, v: Option<&str>) -> Result<(), String> {
    let text = v.unwrap_or_default();
    match name {
        "--smoke" => cfg.smoke = true,
        "--substrate" => {
            cfg.substrate = SubstrateKind::ALL
                .into_iter()
                .find(|k| k.name() == text)
                .ok_or_else(|| format!("unknown substrate {text:?} (expected scalar|ml|ldp)"))?;
        }
        "--sketch" => {
            let eps = v.map_or(Ok(DEFAULT_SKETCH_EPSILON), str::parse::<f64>);
            cfg.sketch_epsilon = match eps {
                Ok(eps) if eps > 0.0 && eps < 0.5 => Some(eps),
                _ => return Err(format!("expected an epsilon in (0, 0.5), got {text:?}")),
            };
        }
        "--double-oracle" => cfg.double_oracle = true,
        "--json" => cfg.json = true,
        "--recover" => cfg.recover = true,
        "--threads" => cfg.threads = count(text)?,
        "--reps" => cfg.reps = nonzero_or(text, ExptConfig::default().reps)?,
        "--scale" => cfg.scale = nonzero_or(text, ExptConfig::default().scale)?,
        "--seeds" => cfg.seeds = Some(count(text)?.max(2)),
        "--spill" => cfg.spill = Some(PathBuf::from(text)),
        "--budget" => cfg.budget = Some(count(text)?),
        "--faults" => {
            let spec = FaultSpec::parse(text);
            cfg.faults =
                Some(spec.ok_or(format!("expected SEED:RATE, RATE in [0, 1], got {text:?}"))?);
        }
        other => unreachable!("flag {other} is in FLAGS but has no setter"),
    }
    Ok(())
}

/// A non-negative integer flag value.
fn count(v: &str) -> Result<usize, String> {
    v.parse()
        .map_err(|_| format!("expected a non-negative integer, got {v:?}"))
}

/// A count where `0` keeps the default.
fn nonzero_or(v: &str, default: usize) -> Result<usize, String> {
    Ok(Some(count(v)?).filter(|&n| n > 0).unwrap_or(default))
}

impl ExptConfig {
    /// Parses `expt`'s arguments (without the program name) into the
    /// selected experiment ids, in order, and the run settings.
    ///
    /// # Errors
    /// A message naming the bad argument: an unknown flag or experiment,
    /// a missing or malformed value, `--recover` without `--spill`, or no
    /// experiment at all.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
    ) -> Result<(Vec<&'static str>, Self), String> {
        Self::parse_with_env(args, |name| std::env::var(name).ok())
    }

    fn parse_with_env(
        args: impl IntoIterator<Item = String>,
        env: impl Fn(&str) -> Option<String>,
    ) -> Result<(Vec<&'static str>, Self), String> {
        let window = |name, default| match env(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map(Duration::from_millis)
                .map_err(|_| format!("{name}: expected milliseconds, got {v:?}")),
        };
        let defaults = Self::default();
        let mut cfg = Self {
            bench_warmup: window(WARMUP_VAR, defaults.bench_warmup)?,
            bench_measure: window(MEASURE_VAR, defaults.bench_measure)?,
            ..defaults
        };
        let mut ids: Vec<&'static str> = Vec::new();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if arg.starts_with("--") {
                let (name, inline) = match arg.split_once('=') {
                    Some((name, value)) => (name, Some(value.to_string())),
                    None => (arg.as_str(), None),
                };
                let &(_, arg, _) = FLAGS
                    .iter()
                    .find(|(flag, _, _)| *flag == name)
                    .ok_or_else(|| format!("unknown flag: {name}"))?;
                let value = match (arg, inline) {
                    (Arg::None, Some(_)) => return Err(format!("{name} takes no value")),
                    (Arg::Required(meta), None) => Some(
                        args.next()
                            .ok_or_else(|| format!("{name} needs a value ({meta})"))?,
                    ),
                    (_, inline) => inline,
                };
                set(&mut cfg, name, value.as_deref()).map_err(|e| format!("{name}: {e}"))?;
                continue;
            }
            match arg.as_str() {
                "all" => ids.extend(EXPERIMENTS),
                "tables" => ids.extend(["table1", "table2", "table3", "table4"]),
                "figures" => ids.extend(["fig4", "fig5", "fig6", "fig7", "fig8", "fig9"]),
                "ablations" => ids.extend(EXPERIMENTS.iter().filter(|e| e.starts_with("ablate"))),
                id => ids.push(
                    EXPERIMENTS
                        .iter()
                        .find(|e| **e == id)
                        .ok_or_else(|| format!("unknown experiment: {id}"))?,
                ),
            }
        }
        if cfg.recover && cfg.spill.is_none() {
            return Err("--recover needs --spill DIR".into());
        }
        if ids.is_empty() {
            return Err("no experiment selected".into());
        }
        Ok((ids, cfg))
    }
}

/// The `expt` usage text, printed from the flag table.
#[must_use]
pub fn usage() -> String {
    let mut out = format!(
        "usage: expt <experiment>... [flags]\n       \
         expt benchdiff <baseline.json> <current.json> [tolerance]\n\
         experiments: {}\ngroups: all tables figures ablations\nflags:\n",
        EXPERIMENTS.join(" ")
    );
    for (name, arg, help) in FLAGS {
        let spec = match arg {
            Arg::None => name.to_string(),
            Arg::Required(meta) => format!("{name} {meta}"),
            Arg::Optional(meta) => format!("{name}[={meta}]"),
        };
        let _ = writeln!(out, "  {spec:<21} {help}");
    }
    let _ = writeln!(
        out,
        "env: {WARMUP_VAR}, {MEASURE_VAR}\n  \
         bench warm-up / measure windows in ms (default 50 / 250; cargo bench reads them too)"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_env(
        args: &[&str],
        env: &[(&str, &str)],
    ) -> Result<(Vec<&'static str>, ExptConfig), String> {
        let env: Vec<(String, String)> = env
            .iter()
            .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
            .collect();
        ExptConfig::parse_with_env(args.iter().map(|a| (*a).to_string()), |name| {
            env.iter().find(|(k, _)| k == name).map(|(_, v)| v.clone())
        })
    }

    fn parse(args: &[&str]) -> Result<(Vec<&'static str>, ExptConfig), String> {
        parse_env(args, &[])
    }

    fn err(args: &[&str]) -> String {
        parse(args).expect_err("must be rejected")
    }

    #[test]
    fn no_flags_keeps_the_defaults() {
        let (ids, cfg) = parse(&["table1"]).unwrap();
        assert_eq!(ids, ["table1"]);
        assert_eq!(cfg, ExptConfig::default());
        assert_eq!((cfg.reps, cfg.scale, cfg.threads), (10, 64, 0));
    }

    #[test]
    fn every_flag_round_trips_into_its_field() {
        let (ids, cfg) = parse_env(
            &[
                "equilibrium",
                "--smoke",
                "--substrate",
                "ml",
                "--sketch=0.05",
                "--double-oracle",
                "--json",
                "--recover",
                "--threads",
                "3",
                "--reps=100",
                "--scale",
                "1",
                "--seeds",
                "9",
                "--spill",
                "target/spill",
                "--budget=1024",
                "--faults",
                "601:0.25",
                "collect",
            ],
            &[(WARMUP_VAR, "5"), (MEASURE_VAR, "25")],
        )
        .unwrap();
        assert_eq!(ids, ["equilibrium", "collect"]);
        let want = ExptConfig {
            smoke: true,
            substrate: SubstrateKind::Ml,
            sketch_epsilon: Some(0.05),
            double_oracle: true,
            json: true,
            recover: true,
            threads: 3,
            reps: 100,
            scale: 1,
            seeds: Some(9),
            spill: Some(PathBuf::from("target/spill")),
            budget: Some(1024),
            faults: Some(FaultSpec {
                seed: 601,
                rate: 0.25,
            }),
            bench_warmup: Duration::from_millis(5),
            bench_measure: Duration::from_millis(25),
        };
        assert_eq!(cfg, want);
    }

    #[test]
    fn value_defaults_and_clamps() {
        let cfg = |args: &[&str]| parse(args).unwrap().1;
        assert_eq!(
            cfg(&["table1", "--sketch"]).sketch_epsilon,
            Some(DEFAULT_SKETCH_EPSILON)
        );
        assert_eq!(cfg(&["table1", "--reps", "0"]).reps, 10);
        assert_eq!(cfg(&["table1", "--scale=0"]).scale, 64);
        assert_eq!(cfg(&["table1", "--seeds", "0"]).seeds, Some(2));
        assert_eq!(cfg(&["table1", "--budget", "0"]).budget, Some(0));
    }

    #[test]
    fn groups_expand_in_order() {
        let (ids, _) = parse(&["tables", "ablations"]).unwrap();
        assert_eq!(&ids[..4], ["table1", "table2", "table3", "table4"]);
        assert!(ids[4..].iter().all(|id| id.starts_with("ablate-")));
        assert_eq!(parse(&["all"]).unwrap().0, EXPERIMENTS);
    }

    #[test]
    fn malformed_input_is_rejected() {
        assert!(err(&["collect", "--faults", "bogus"]).contains("--faults"));
        assert!(err(&["collect", "--faults", "1:1.5"]).contains("--faults"));
        assert!(err(&["sweep", "--threads", "abc"]).contains("--threads"));
        assert!(err(&["collect", "--budget", "abc"]).contains("--budget"));
        assert!(err(&["equilibrium", "--seeds", "x"]).contains("--seeds"));
        assert!(err(&["table3", "--reps", "-1"]).contains("--reps"));
        assert!(err(&["equilibrium", "--sketch=0.7"]).contains("--sketch"));
        assert!(err(&["equilibrium", "--substrate", "nn"]).contains("unknown substrate"));
        assert!(err(&["collect", "--recover"]).contains("--recover needs --spill"));
        assert!(err(&["table1", "--bogus"]).contains("unknown flag: --bogus"));
        assert!(err(&["fig99"]).contains("unknown experiment: fig99"));
        assert!(err(&["equilibrium", "--substrate"]).contains("needs a value"));
        assert!(err(&["table1", "--smoke=1"]).contains("takes no value"));
        assert!(err(&["--smoke"]).contains("no experiment"));
        assert!(err(&[]).contains("no experiment"));
        let bad_window = parse_env(&["bench"], &[(WARMUP_VAR, "abc")]).unwrap_err();
        assert!(bad_window.contains(WARMUP_VAR));
    }

    #[test]
    fn usage_lists_every_flag() {
        let text = usage();
        for (name, _, _) in FLAGS {
            assert!(text.contains(name), "usage omits {name}");
        }
        assert!(text.contains(WARMUP_VAR) && text.contains(MEASURE_VAR));
        assert!(EXPERIMENTS.iter().all(|id| text.contains(id)));
    }
}
