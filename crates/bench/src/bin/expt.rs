//! `expt` — regenerate any table or figure from the paper.
//!
//! ```text
//! USAGE: expt <experiment>... [flags]
//!        expt benchdiff <baseline.json> <current.json> [tolerance]
//! ```
//!
//! Run `expt` without arguments for the experiments and the flags
//! (`--smoke`, `--substrate`, `--sketch[=EPS]`, `--double-oracle`,
//! `--json`, `--recover`, `--threads`, `--reps`, `--scale`, `--seeds`,
//! `--spill`, `--budget`, `--faults`), printed from the table that
//! [`trimgame_bench::cli::ExptConfig::parse`] matches. A malformed
//! argument prints the error and the usage and exits 2 before anything
//! runs. `benchdiff` exits 1 when a case shared by two snapshots
//! regressed past the tolerance (default 3x).

use trimgame_bench::cli::{usage, ExptConfig};
use trimgame_bench::run_experiment;

/// Prints `err` and the usage text, then exits 2.
fn die(err: &str) -> ! {
    eprintln!("expt: {err}");
    eprint!("{}", usage());
    std::process::exit(2);
}

/// `expt benchdiff <baseline.json> <current.json> [tolerance]`: compare
/// two committed bench snapshots; exit 1 when a shared case regressed
/// past the tolerance (default 3x, the CI smoke gate).
fn benchdiff(args: &[String]) -> ! {
    let (base, cur, tolerance) = match args {
        [base, cur] => (base, cur, 3.0),
        [base, cur, t] => (
            base,
            cur,
            t.parse()
                .unwrap_or_else(|_| die(&format!("benchdiff: tolerance {t:?} is not a number"))),
        ),
        _ => die("benchdiff needs <baseline.json> <current.json> [tolerance]"),
    };
    let read = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")))
    };
    match trimgame_bench::perf::bench_diff(&read(base), &read(cur), tolerance) {
        Ok(report) => {
            print!("{report}");
            std::process::exit(0);
        }
        Err(report) => {
            print!("{report}");
            eprintln!("bench regression past {tolerance}x detected");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "benchdiff") {
        benchdiff(&args[1..]);
    }
    let (ids, cfg) = ExptConfig::parse(args).unwrap_or_else(|err| die(&err));
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            println!();
        }
        let start = std::time::Instant::now();
        print!("{}", run_experiment(id, &cfg));
        eprintln!("[{id} done in {:.1}s]", start.elapsed().as_secs_f64());
    }
}
