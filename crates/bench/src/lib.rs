//! Experiment harness regenerating every table and figure in the paper's
//! evaluation (Section VI), plus the ablations called out in `DESIGN.md`.
//!
//! Each experiment is a pure function returning a formatted report, so the
//! CLI (`src/bin/expt.rs`), the criterion benches and the tests all share
//! one implementation. Run settings arrive as one [`ExptConfig`], parsed
//! from the command line by [`cli`]; no experiment reads the environment.

pub mod ablations;
pub mod cli;
pub mod collector;
pub mod double_oracle;
pub mod empirical;
pub mod experiments;
pub mod perf;
pub mod sweep;

pub use cli::ExptConfig;

/// All experiment ids accepted by the `expt` binary, in paper order.
pub const EXPERIMENTS: [&str; 19] = [
    "table1",
    "table2",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "table3",
    "table4",
    "fig9",
    "ablate-k",
    "ablate-red",
    "ablate-discount",
    "ablate-mechanism",
    "ablate-sketch",
    "sweep",
    "equilibrium",
    "collect",
    "bench",
];

/// Runs one experiment by id under `cfg`, returning its report.
///
/// # Panics
/// Panics on an unknown id (the CLI validates first).
#[must_use]
pub fn run_experiment(id: &str, cfg: &ExptConfig) -> String {
    match id {
        "table1" => experiments::table1(),
        "table2" => experiments::table2(cfg),
        "fig4" => experiments::fig45(0.90, cfg),
        "fig5" => experiments::fig45(0.97, cfg),
        "fig6" => experiments::fig6(cfg),
        "fig7" => experiments::fig7(cfg),
        "fig8" => experiments::fig8(cfg),
        "table3" => experiments::table3(cfg),
        "table4" => experiments::table4(),
        "fig9" => experiments::fig9(cfg),
        "ablate-k" => ablations::ablate_k(),
        "ablate-red" => ablations::ablate_red(cfg),
        "ablate-discount" => ablations::ablate_discount(),
        "ablate-mechanism" => ablations::ablate_mechanism(cfg),
        "ablate-sketch" => ablations::ablate_sketch(),
        "sweep" => sweep::sweep_report(cfg.threads),
        "equilibrium" => empirical::equilibrium_report(cfg),
        "collect" => collector::collect_report(cfg),
        "bench" => perf::bench_report(cfg),
        other => panic!("unknown experiment id: {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cheap_experiments_produce_reports() {
        for id in ["table1", "table2", "table4", "ablate-discount", "ablate-k"] {
            let report = run_experiment(id, &ExptConfig::default());
            assert!(!report.is_empty(), "{id} produced an empty report");
        }
    }

    #[test]
    #[should_panic(expected = "unknown experiment id")]
    fn unknown_id_panics() {
        let _ = run_experiment("fig99", &ExptConfig::default());
    }

    #[test]
    fn id_list_is_consistent() {
        assert_eq!(EXPERIMENTS.len(), 19);
        assert!(EXPERIMENTS.contains(&"fig9"));
        assert!(EXPERIMENTS.contains(&"sweep"));
        assert!(EXPERIMENTS.contains(&"equilibrium"));
        assert!(EXPERIMENTS.contains(&"collect"));
        assert!(EXPERIMENTS.contains(&"bench"));
    }
}
