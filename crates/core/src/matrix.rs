//! Table I — the one-shot (ultimatum) collection game and its equilibrium
//! (Section III-D).
//!
//! With payoff constants `P̄ > T̄ ≫ P > T > 0` (hard/soft poisoning gains
//! and hard/soft trimming overheads), the single-round strategic game is:
//!
//! |               | Adversary Soft      | Adversary Hard      |
//! |---------------|---------------------|---------------------|
//! | Collector Soft| `(−P − T, P)`       | `(−P̄ − T, P̄)`      |
//! | Collector Hard| `(−T̄, 0)`           | `(−T̄, 0)`           |
//!
//! A hard collector trims at `x_L`, removing all rational poison (adversary
//! gets 0) at overhead `T̄`; a soft collector trims at `x_R`, paying the
//! small overhead `T` but conceding whatever the adversary injected. The
//! unique equilibrium outcome is mutual hardness — "this situation mirrors
//! the prisoner's dilemma, culminating in a unique equilibrium wherein both
//! the adversary and the player opt for a tough stance, despite a gentler
//! approach being mutually beneficial" — which is precisely why Section IV
//! moves to the *infinite* repeated game.

use crate::error::{strictly_greater, CoreError};
use std::fmt;

/// A player move in the one-shot game (Definition 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Move {
    /// Near `x_L` (adversary) / near `x_R` (collector).
    Soft,
    /// Near `x_R` (adversary) / near `x_L` (collector).
    Hard,
}

impl Move {
    /// Both moves.
    pub const ALL: [Move; 2] = [Move::Soft, Move::Hard];
}

/// The four payoff constants of Table I.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UltimatumPayoffs {
    /// `P̄`: adversary gain for hard poisoning that survives.
    pub p_hard: f64,
    /// `T̄`: collector overhead for hard trimming.
    pub t_hard: f64,
    /// `P`: adversary gain for soft poisoning that survives.
    pub p_soft: f64,
    /// `T`: collector overhead for soft trimming.
    pub t_soft: f64,
}

impl UltimatumPayoffs {
    /// Validates `P̄ > T̄ > P > T > 0` (the paper writes `T̄ ≫ P`; strict
    /// inequality is what the equilibrium analysis needs).
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidParameter`] if the ordering fails.
    pub fn new(p_hard: f64, t_hard: f64, p_soft: f64, t_soft: f64) -> Result<Self, CoreError> {
        if !strictly_greater(t_soft, 0.0) {
            return Err(CoreError::InvalidParameter {
                name: "t_soft",
                constraint: "T > 0",
                value: t_soft,
            });
        }
        if !strictly_greater(p_soft, t_soft) {
            return Err(CoreError::InvalidParameter {
                name: "p_soft",
                constraint: "P > T",
                value: p_soft,
            });
        }
        // The paper writes T̄ ≫ P; the quantitative requirement for the
        // unique (Hard, Hard) equilibrium is T̄ > P + T (so that against a
        // *soft* adversary the collector prefers soft trimming, killing
        // the (Hard, Soft) profile).
        if !strictly_greater(t_hard, p_soft + t_soft) {
            return Err(CoreError::InvalidParameter {
                name: "t_hard",
                constraint: "T̄ >> P (at least T̄ > P + T)",
                value: t_hard,
            });
        }
        if !strictly_greater(p_hard, t_hard) {
            return Err(CoreError::InvalidParameter {
                name: "p_hard",
                constraint: "P̄ > T̄",
                value: p_hard,
            });
        }
        Ok(Self {
            p_hard,
            t_hard,
            p_soft,
            t_soft,
        })
    }

    /// The paper-style defaults `P̄=10 > T̄=8 ≫ P=2 > T=1 > 0`.
    #[must_use]
    pub fn default_paper() -> Self {
        Self::new(10.0, 8.0, 2.0, 1.0).expect("defaults satisfy the ordering")
    }

    /// Builds the full payoff matrix.
    #[must_use]
    pub fn matrix(&self) -> PayoffMatrix {
        let entry = |collector: Move, adversary: Move| -> (f64, f64) {
            match (collector, adversary) {
                (Move::Soft, Move::Soft) => (-self.p_soft - self.t_soft, self.p_soft),
                (Move::Soft, Move::Hard) => (-self.p_hard - self.t_soft, self.p_hard),
                // A hard collector trims at x_L: all rational poison is
                // removed regardless of the adversary's move.
                (Move::Hard, _) => (-self.t_hard, 0.0),
            }
        };
        PayoffMatrix {
            entries: [
                [entry(Move::Soft, Move::Soft), entry(Move::Soft, Move::Hard)],
                [entry(Move::Hard, Move::Soft), entry(Move::Hard, Move::Hard)],
            ],
        }
    }
}

/// A 2×2 bimatrix game: `entries[c][a] = (collector payoff, adversary
/// payoff)` for collector move `c` and adversary move `a`
/// (index 0 = Soft, 1 = Hard).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PayoffMatrix {
    /// Payoff entries.
    pub entries: [[(f64, f64); 2]; 2],
}

impl PayoffMatrix {
    fn idx(m: Move) -> usize {
        match m {
            Move::Soft => 0,
            Move::Hard => 1,
        }
    }

    /// Payoffs for a move pair.
    #[must_use]
    pub fn payoff(&self, collector: Move, adversary: Move) -> (f64, f64) {
        self.entries[Self::idx(collector)][Self::idx(adversary)]
    }

    /// All pure-strategy Nash equilibria (allowing ties, i.e. weak
    /// equilibria).
    #[must_use]
    pub fn pure_nash_equilibria(&self) -> Vec<(Move, Move)> {
        let mut out = Vec::new();
        for c in Move::ALL {
            for a in Move::ALL {
                let (pc, pa) = self.payoff(c, a);
                let collector_ok = Move::ALL
                    .iter()
                    .all(|&c2| self.payoff(c2, a).0 <= pc + 1e-12);
                let adversary_ok = Move::ALL
                    .iter()
                    .all(|&a2| self.payoff(c, a2).1 <= pa + 1e-12);
                if collector_ok && adversary_ok {
                    out.push((c, a));
                }
            }
        }
        out
    }

    /// True if outcome `b` strictly Pareto-dominates outcome `a`.
    #[must_use]
    pub fn pareto_dominates(&self, b: (Move, Move), a: (Move, Move)) -> bool {
        let (bc, ba) = self.payoff(b.0, b.1);
        let (ac, aa) = self.payoff(a.0, a.1);
        bc > ac && ba > aa
    }
}

/// A finite two-player zero-sum matrix game: `at(i, j)` is the **row
/// player's loss** (equivalently the column player's gain) when the row
/// player plays `i` and the column player plays `j`. In the trimming
/// game the row player is the defender (choosing a threshold atom,
/// minimizing) and the column player is the adversary (choosing an
/// injection response, maximizing).
///
/// [`MatrixGame::solve`] computes an approximate mixed-strategy
/// equilibrium by fictitious play — deterministic, with certified value
/// bounds from the averaged strategies — which is all the empirical
/// equilibrium estimator needs on the small supports where threshold-game
/// equilibria concentrate.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixGame {
    rows: usize,
    cols: usize,
    /// The losses row-major: row `i` is `by_row[i * cols..(i + 1) * cols]`.
    by_row: Vec<f64>,
    /// The same losses column-major: column `j` is
    /// `by_col[j * rows..(j + 1) * rows]`. Each fictitious-play step adds
    /// one whole column and one whole row, so both are contiguous.
    by_col: Vec<f64>,
}

/// An approximate mixed equilibrium of a [`MatrixGame`], with certified
/// value bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct MixedEquilibrium {
    /// The row player's (defender's) mixed strategy.
    pub row_strategy: Vec<f64>,
    /// The column player's (adversary's) mixed strategy.
    pub col_strategy: Vec<f64>,
    /// The game value estimate (midpoint of `lower..upper`).
    pub value: f64,
    /// Guaranteed by the column mix: `min_i loss(i, col_strategy)`. The
    /// true value is at least this.
    pub lower: f64,
    /// Guaranteed by the row mix: `max_j loss(row_strategy, j)`. The true
    /// value is at most this.
    pub upper: f64,
}

impl MixedEquilibrium {
    /// The duality gap `upper − lower`: how far from exact the fictitious
    /// play ran.
    #[must_use]
    pub fn gap(&self) -> f64 {
        self.upper - self.lower
    }
}

impl MatrixGame {
    /// Builds a game from a rectangular loss matrix.
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidParameter`] if the matrix is empty,
    /// ragged, or contains non-finite entries.
    pub fn new(entries: Vec<Vec<f64>>) -> Result<Self, CoreError> {
        if entries.is_empty() || entries[0].is_empty() {
            return Err(CoreError::InvalidParameter {
                name: "entries",
                constraint: "non-empty matrix",
                value: entries.len() as f64,
            });
        }
        let cols = entries[0].len();
        for row in &entries {
            if row.len() != cols {
                return Err(CoreError::InvalidParameter {
                    name: "entries",
                    constraint: "rectangular matrix",
                    value: row.len() as f64,
                });
            }
            for &v in row {
                if !v.is_finite() {
                    return Err(CoreError::InvalidParameter {
                        name: "entry",
                        constraint: "finite",
                        value: v,
                    });
                }
            }
        }
        let (rows, cols) = (entries.len(), cols);
        let by_row: Vec<f64> = entries.concat();
        let by_col = (0..cols)
            .flat_map(|j| by_row.iter().skip(j).step_by(cols).copied())
            .collect();
        Ok(Self {
            rows,
            cols,
            by_row,
            by_col,
        })
    }

    /// Number of row strategies.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of column strategies.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The loss entry at `(row, col)`.
    ///
    /// # Panics
    /// Panics if `row` or `col` is out of range.
    #[must_use]
    pub fn at(&self, row: usize, col: usize) -> f64 {
        assert!(
            row < self.rows && col < self.cols,
            "({row}, {col}) out of range"
        );
        self.by_row[row * self.cols + col]
    }

    /// Row `i`'s losses, one per column.
    fn row(&self, i: usize) -> &[f64] {
        &self.by_row[i * self.cols..(i + 1) * self.cols]
    }

    /// Column `j`'s losses, one per row.
    fn col(&self, j: usize) -> &[f64] {
        &self.by_col[j * self.rows..(j + 1) * self.rows]
    }

    /// The row player's expected loss under mixed strategies `x` (rows)
    /// and `y` (columns).
    #[must_use]
    pub fn expected_loss(&self, x: &[f64], y: &[f64]) -> f64 {
        self.by_row
            .chunks_exact(self.cols)
            .zip(x)
            .map(|(row, &xi)| xi * row.iter().zip(y).map(|(&v, &yj)| v * yj).sum::<f64>())
            .sum()
    }

    /// The pure-commitment (unrandomized Stackelberg) value: the best loss
    /// the row player can guarantee with a single row,
    /// `min_i max_j at(i, j)`. The mixed value from
    /// [`MatrixGame::solve`] is never worse; the difference is the row
    /// player's randomization advantage.
    #[must_use]
    pub fn pure_commitment_value(&self) -> f64 {
        self.by_row
            .chunks_exact(self.cols)
            .map(|row| row.iter().copied().fold(f64::NEG_INFINITY, f64::max))
            .fold(f64::INFINITY, f64::min)
    }

    /// Solves the game by `iterations` rounds of simultaneous fictitious
    /// play (deterministic; ties break to the lowest index) and returns
    /// the averaged strategies with certified value bounds.
    ///
    /// # Panics
    /// Panics if `iterations == 0`.
    #[must_use]
    pub fn solve(&self, iterations: usize) -> MixedEquilibrium {
        self.solve_warm(iterations, None)
    }

    /// [`MatrixGame::solve`] seeded from a prior equilibrium: the
    /// fictitious-play cumulative losses start as if each side had faced
    /// `WARM_WEIGHT` virtual plays of the opponent's prior mixture, so a
    /// game grown by a few rows/columns (the double-oracle restricted
    /// games) resumes its best-response sequence near the previous fixed
    /// point rather than re-deriving it. Prior strategies shorter than
    /// the current matrix are padded with zeros — exactly the embedding
    /// of the smaller game's mixture.
    ///
    /// The virtual plays steer only the play *sequence*; the averaged
    /// strategies (and hence the certified bounds) contain real plays
    /// only, so a stale prior can only cost iterations (its influence on
    /// play selection washes out as `WARM_WEIGHT / iterations`), never
    /// correctness or bound tightness.
    ///
    /// # Panics
    /// Panics if `iterations == 0` or the prior's strategies are longer
    /// than the current matrix.
    #[must_use]
    pub fn solve_warm(
        &self,
        iterations: usize,
        warm: Option<&MixedEquilibrium>,
    ) -> MixedEquilibrium {
        assert!(iterations > 0, "need at least one iteration");
        let mut fp = self.start_fictitious_play(warm);
        fp.run(self, iterations);
        fp.equilibrium(self)
    }

    /// Runs fictitious play until the certified duality gap drops to
    /// `gap`, checking every few hundred iterations, up to
    /// `max_iterations` plays. Returns the equilibrium and the iterations
    /// actually spent — the warm-start satellite's iterations-to-bound
    /// measure.
    ///
    /// # Panics
    /// Panics if `max_iterations == 0`, `gap` is negative/NaN, or the
    /// prior does not embed in the current matrix.
    #[must_use]
    pub fn solve_to_gap(
        &self,
        gap: f64,
        max_iterations: usize,
        warm: Option<&MixedEquilibrium>,
    ) -> (MixedEquilibrium, usize) {
        assert!(max_iterations > 0, "need at least one iteration");
        assert!(gap >= 0.0, "gap target must be non-negative");
        let mut fp = self.start_fictitious_play(warm);
        // Checking bounds costs O(n·m); amortize it over blocks that cost
        // about as much as the check itself.
        let block = (self.rows() + self.cols()).max(64);
        let mut spent = 0usize;
        loop {
            let step = block.min(max_iterations - spent);
            fp.run(self, step);
            spent += step;
            let eq = fp.equilibrium(self);
            if eq.gap() <= gap || spent >= max_iterations {
                return (eq, spent);
            }
        }
    }

    fn start_fictitious_play(&self, warm: Option<&MixedEquilibrium>) -> FictitiousPlay {
        let (n, m) = (self.rows(), self.cols());
        let mut fp = FictitiousPlay {
            row_cum: vec![0.0; n],
            col_cum: vec![0.0; m],
            row_counts: vec![0.0; n],
            col_counts: vec![0.0; m],
            row_play: 0,
            col_play: 0,
        };
        if let Some(prior) = warm {
            assert!(
                prior.row_strategy.len() <= n && prior.col_strategy.len() <= m,
                "warm-start prior does not embed: {}x{} prior vs {n}x{m} game",
                prior.row_strategy.len(),
                prior.col_strategy.len()
            );
            // Seed only the cumulative losses — each side starts as if it
            // had faced WARM_WEIGHT plays of the opponent's prior mixture
            // — but leave the play counts at zero. The play sequence
            // resumes in the parent game's groove while the averaged
            // (certified) strategies contain real plays only, so a stale
            // prior cannot park a bias floor under the duality gap.
            let weight = |prior: &[f64], k: usize| prior.get(k).copied().unwrap_or(0.0).max(0.0);
            for (i, cum) in fp.row_cum.iter_mut().enumerate() {
                *cum = self
                    .row(i)
                    .iter()
                    .enumerate()
                    .map(|(j, &v)| WARM_WEIGHT * weight(&prior.col_strategy, j) * v)
                    .sum();
            }
            for (j, cum) in fp.col_cum.iter_mut().enumerate() {
                *cum = self
                    .col(j)
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| WARM_WEIGHT * weight(&prior.row_strategy, i) * v)
                    .sum();
            }
            fp.row_play = pick(&fp.row_cum, less);
            fp.col_play = pick(&fp.col_cum, greater);
        }
        fp
    }
}

/// Virtual play count a warm-start prior is worth in the cumulative-loss
/// seed. Large enough to steer the first plays onto the prior's support,
/// small enough that a stale prior's pull on play selection washes out
/// within a few thousand iterations.
const WARM_WEIGHT: f64 = 256.0;

/// Resumable simultaneous-fictitious-play state (the loop body of
/// [`MatrixGame::solve`], factored out so warm starts and gap-targeted
/// solves share it).
struct FictitiousPlay {
    row_cum: Vec<f64>,
    col_cum: Vec<f64>,
    row_counts: Vec<f64>,
    col_counts: Vec<f64>,
    row_play: usize,
    col_play: usize,
}

impl FictitiousPlay {
    /// Plays `iterations` rounds. Each round adds the played column to
    /// every row's cumulative loss and the played row to every column's,
    /// then both sides best-respond to the totals (ties to the lowest
    /// index).
    fn run(&mut self, game: &MatrixGame, iterations: usize) {
        let (mut row_play, mut col_play) = (self.row_play, self.col_play);
        for _ in 0..iterations {
            self.row_counts[row_play] += 1.0;
            self.col_counts[col_play] += 1.0;
            let (col, row) = (game.col(col_play), game.row(row_play));
            row_play = add_and_pick(&mut self.row_cum, col, less);
            col_play = add_and_pick(&mut self.col_cum, row, greater);
        }
        self.row_play = row_play;
        self.col_play = col_play;
    }

    fn equilibrium(&self, game: &MatrixGame) -> MixedEquilibrium {
        let row_total: f64 = self.row_counts.iter().sum();
        let col_total: f64 = self.col_counts.iter().sum();
        let row_strategy: Vec<f64> = self.row_counts.iter().map(|c| c / row_total).collect();
        let col_strategy: Vec<f64> = self.col_counts.iter().map(|c| c / col_total).collect();
        // Certified bounds from the averaged strategies.
        let upper = (0..game.cols())
            .map(|j| {
                game.col(j)
                    .iter()
                    .zip(&row_strategy)
                    .map(|(&v, &xi)| xi * v)
                    .sum::<f64>()
            })
            .fold(f64::NEG_INFINITY, f64::max);
        let lower = (0..game.rows())
            .map(|i| {
                game.row(i)
                    .iter()
                    .zip(&col_strategy)
                    .map(|(&v, &yj)| yj * v)
                    .sum::<f64>()
            })
            .fold(f64::INFINITY, f64::min);
        MixedEquilibrium {
            row_strategy,
            col_strategy,
            value: 0.5 * (lower + upper),
            lower,
            upper,
        }
    }
}

fn less(a: f64, b: f64) -> bool {
    a < b
}

fn greater(a: f64, b: f64) -> bool {
    a > b
}

/// Adds `add` into `cum` element-wise and returns the index of the best
/// new total under the strict order `better`, ties to the lowest index.
///
/// The best value is tracked by a branch-free strict compare folded into
/// the additions, so the totals are not read back for it; a second, short
/// scan then finds the first total equal to it. That is the index a
/// plain scan keeping the first strictly better entry returns, for every
/// input: the fold starts from the first total, so a NaN there is kept
/// (and matches nothing) exactly as the plain scan keeps index 0.
fn add_and_pick(cum: &mut [f64], add: &[f64], better: impl Fn(f64, f64) -> bool) -> usize {
    let (first, rest) = cum
        .split_first_mut()
        .expect("a game has a row and a column");
    *first += add[0];
    let mut best = *first;
    for (c, &v) in rest.iter_mut().zip(&add[1..]) {
        *c += v;
        best = if better(*c, best) { *c } else { best };
    }
    first_equal(cum, best)
}

/// The index of the best entry of `xs` under `better`, ties to the lowest
/// index: [`add_and_pick`] without the additions.
fn pick(xs: &[f64], better: impl Fn(f64, f64) -> bool) -> usize {
    let best = xs[1..]
        .iter()
        .fold(xs[0], |best, &x| if better(x, best) { x } else { best });
    first_equal(xs, best)
}

fn first_equal(xs: &[f64], value: f64) -> usize {
    xs.iter().position(|&x| x == value).unwrap_or(0)
}

impl fmt::Display for PayoffMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<16} {:>22} {:>22}",
            "", "Adversary Soft", "Adversary Hard"
        )?;
        for c in Move::ALL {
            let row: Vec<String> = Move::ALL
                .iter()
                .map(|&a| {
                    let (pc, pa) = self.payoff(c, a);
                    format!("({pc:>7.2}, {pa:>7.2})")
                })
                .collect();
            writeln!(
                f,
                "{:<16} {:>22} {:>22}",
                format!("Collector {c:?}"),
                row[0],
                row[1]
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_validated() {
        assert!(UltimatumPayoffs::new(10.0, 8.0, 2.0, 1.0).is_ok());
        assert!(UltimatumPayoffs::new(8.0, 10.0, 2.0, 1.0).is_err()); // P̄ < T̄
        assert!(UltimatumPayoffs::new(10.0, 1.5, 2.0, 1.0).is_err()); // T̄ < P
        assert!(UltimatumPayoffs::new(10.0, 8.0, 0.5, 1.0).is_err()); // P < T
        assert!(UltimatumPayoffs::new(10.0, 8.0, 2.0, 0.0).is_err()); // T = 0
    }

    #[test]
    fn matrix_entries_match_table_i() {
        let u = UltimatumPayoffs::default_paper();
        let m = u.matrix();
        assert_eq!(m.payoff(Move::Soft, Move::Soft), (-3.0, 2.0));
        assert_eq!(m.payoff(Move::Soft, Move::Hard), (-11.0, 10.0));
        assert_eq!(m.payoff(Move::Hard, Move::Soft), (-8.0, 0.0));
        assert_eq!(m.payoff(Move::Hard, Move::Hard), (-8.0, 0.0));
    }

    #[test]
    fn hard_hard_is_an_equilibrium() {
        let m = UltimatumPayoffs::default_paper().matrix();
        let eq = m.pure_nash_equilibria();
        assert!(eq.contains(&(Move::Hard, Move::Hard)), "equilibria: {eq:?}");
        // (Soft, Soft) is NOT an equilibrium: the adversary deviates to
        // Hard for P̄ > P.
        assert!(!eq.contains(&(Move::Soft, Move::Soft)));
        // (Hard, Soft) is NOT an equilibrium: against a soft adversary the
        // collector prefers soft trimming (−P − T > −T̄).
        assert!(!eq.contains(&(Move::Hard, Move::Soft)));
        // (Soft, Hard) is NOT an equilibrium: the collector deviates to
        // Hard (−T̄ > −P̄ − T).
        assert!(!eq.contains(&(Move::Soft, Move::Hard)));
    }

    #[test]
    fn soft_soft_pareto_dominates_the_equilibrium() {
        // The prisoner's-dilemma structure: mutual gentleness is better for
        // BOTH than the unique equilibrium.
        let m = UltimatumPayoffs::default_paper().matrix();
        assert!(m.pareto_dominates((Move::Soft, Move::Soft), (Move::Hard, Move::Hard)));
    }

    #[test]
    fn equilibrium_is_unique() {
        let m = UltimatumPayoffs::default_paper().matrix();
        assert_eq!(m.pure_nash_equilibria(), vec![(Move::Hard, Move::Hard)]);
    }

    #[test]
    fn structure_holds_across_parameterizations() {
        for (ph, th, ps, ts) in [
            (100.0, 50.0, 5.0, 1.0),
            (20.0, 19.0, 3.0, 2.9),
            (10.0, 8.0, 4.0, 3.0),
        ] {
            let u = UltimatumPayoffs::new(ph, th, ps, ts).unwrap();
            let m = u.matrix();
            assert_eq!(
                m.pure_nash_equilibria(),
                vec![(Move::Hard, Move::Hard)],
                "params ({ph},{th},{ps},{ts})"
            );
            assert!(m.pareto_dominates((Move::Soft, Move::Soft), (Move::Hard, Move::Hard)));
        }
    }

    #[test]
    fn display_renders_table() {
        let m = UltimatumPayoffs::default_paper().matrix();
        let s = m.to_string();
        assert!(s.contains("Adversary Soft"));
        assert!(s.contains("Collector Hard"));
    }

    #[test]
    fn matrix_game_validates_shape() {
        assert!(MatrixGame::new(vec![]).is_err());
        assert!(MatrixGame::new(vec![vec![]]).is_err());
        assert!(MatrixGame::new(vec![vec![1.0, 2.0], vec![3.0]]).is_err());
        assert!(MatrixGame::new(vec![vec![1.0, f64::NAN]]).is_err());
        let g = MatrixGame::new(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!((g.rows(), g.cols()), (2, 2));
        assert_eq!(g.at(1, 0), 3.0);
    }

    #[test]
    fn matching_pennies_mixes_evenly() {
        // Row loses 1 on a match, wins 1 on a mismatch: value 0, both mix
        // 50/50.
        let g = MatrixGame::new(vec![vec![1.0, -1.0], vec![-1.0, 1.0]]).unwrap();
        let eq = g.solve(200_000);
        assert!(eq.value.abs() < 0.01, "value {}", eq.value);
        assert!(eq.gap() < 0.02, "gap {}", eq.gap());
        for w in eq.row_strategy.iter().chain(&eq.col_strategy) {
            assert!((w - 0.5).abs() < 0.01, "weight {w}");
        }
        // Pure commitment is fully exploitable: guaranteed loss 1.
        assert_eq!(g.pure_commitment_value(), 1.0);
    }

    #[test]
    fn dominant_row_solves_pure() {
        // Row 0 dominates (lower loss everywhere).
        let g = MatrixGame::new(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let eq = g.solve(10_000);
        assert!(eq.row_strategy[0] > 0.99);
        // Column player maximizes: column 1 dominates.
        assert!(eq.col_strategy[1] > 0.99);
        assert!((eq.value - 2.0).abs() < 1e-3);
        assert_eq!(g.pure_commitment_value(), 2.0);
    }

    #[test]
    fn bounds_bracket_the_value_and_mixing_helps() {
        // A threshold-game shape: defender atoms {0.85, 0.95} against
        // just-below responses {0.84, 0.94}, loss = surviving damage plus
        // (1 − t) overhead. Every pure row is exploitable (worst case
        // 0.99), but the 2×2 minimax mixes to value 0.9006…: the classic
        // randomization advantage.
        let g = MatrixGame::new(vec![vec![0.99, 0.15], vec![0.89, 0.99]]).unwrap();
        let eq = g.solve(100_000);
        assert!(eq.lower <= eq.value + 1e-12 && eq.value <= eq.upper + 1e-12);
        assert!(eq.gap() < 0.01, "gap {}", eq.gap());
        // Mixed play strictly beats the best pure commitment.
        assert_eq!(g.pure_commitment_value(), 0.99);
        assert!(eq.upper < 0.92, "upper {}", eq.upper);
        assert!((eq.value - 0.9006).abs() < 0.01, "value {}", eq.value);
        // Expected loss under the solved profile sits inside the bounds.
        let v = g.expected_loss(&eq.row_strategy, &eq.col_strategy);
        assert!(v >= eq.lower - 1e-9 && v <= eq.upper + 1e-9);
    }

    #[test]
    fn warm_start_matches_cold_solve_api() {
        let g = MatrixGame::new(vec![vec![0.99, 0.15], vec![0.89, 0.99]]).unwrap();
        let cold = g.solve(50_000);
        // `solve` is `solve_warm(_, None)` by construction.
        let none = g.solve_warm(50_000, None);
        assert_eq!(cold.value.to_bits(), none.value.to_bits());
        assert_eq!(cold.row_strategy, none.row_strategy);
        // Warm-starting from the solved point keeps certified bounds valid
        // and does not move the value materially.
        let warm = g.solve_warm(50_000, Some(&cold));
        assert!(warm.lower <= warm.value + 1e-12 && warm.value <= warm.upper + 1e-12);
        assert!((warm.value - cold.value).abs() < 0.01);
    }

    #[test]
    fn warm_start_speeds_up_grown_matrices() {
        // Solve a 2x2, grow it by one row and one column whose entries do
        // not change the fixed point much, and compare iterations-to-bound
        // cold vs warm. This is the double-oracle inner loop in miniature.
        let small = MatrixGame::new(vec![vec![0.99, 0.15], vec![0.89, 0.99]]).unwrap();
        let prior = small.solve(100_000);
        let grown = MatrixGame::new(vec![
            vec![0.99, 0.15, 0.40],
            vec![0.89, 0.99, 0.60],
            vec![0.95, 0.70, 0.97],
        ])
        .unwrap();
        let gap = 0.01;
        let (cold_eq, cold_iters) = grown.solve_to_gap(gap, 2_000_000, None);
        let (warm_eq, warm_iters) = grown.solve_to_gap(gap, 2_000_000, Some(&prior));
        assert!(cold_eq.gap() <= gap && warm_eq.gap() <= gap);
        assert!((cold_eq.value - warm_eq.value).abs() < 2.0 * gap);
        assert!(
            warm_iters <= cold_iters,
            "warm {warm_iters} vs cold {cold_iters}"
        );
    }

    #[test]
    fn solve_to_gap_respects_iteration_cap() {
        let g = MatrixGame::new(vec![vec![1.0, -1.0], vec![-1.0, 1.0]]).unwrap();
        let (eq, spent) = g.solve_to_gap(0.0, 500, None);
        assert!(spent <= 500);
        assert!(eq.gap() >= 0.0);
    }

    #[test]
    #[should_panic(expected = "warm-start prior does not embed")]
    fn warm_start_rejects_oversized_prior() {
        let big = MatrixGame::new(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let prior = big.solve(1_000);
        let small = MatrixGame::new(vec![vec![1.0]]).unwrap();
        let _ = small.solve_warm(1_000, Some(&prior));
    }

    #[test]
    fn at_rejects_an_out_of_range_column() {
        let g = MatrixGame::new(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(g.at(0, 1), 2.0);
        let caught = std::panic::catch_unwind(|| g.at(0, 2));
        assert!(caught.is_err(), "column 2 of a 2-column game");
    }

    /// The fictitious-play solver as it stood on `Vec<Vec<f64>>` rows,
    /// kept verbatim as the reference the flat kernel must reproduce bit
    /// for bit.
    mod reference {
        use super::super::{MixedEquilibrium, WARM_WEIGHT};

        pub struct FictitiousPlay {
            row_cum: Vec<f64>,
            col_cum: Vec<f64>,
            row_counts: Vec<f64>,
            col_counts: Vec<f64>,
            row_play: usize,
            col_play: usize,
        }

        pub fn solve_warm(
            entries: &[Vec<f64>],
            iterations: usize,
            warm: Option<&MixedEquilibrium>,
        ) -> MixedEquilibrium {
            let mut fp = start_fictitious_play(entries, warm);
            fp.run(entries, iterations);
            fp.equilibrium(entries)
        }

        pub fn solve_to_gap(
            entries: &[Vec<f64>],
            gap: f64,
            max_iterations: usize,
            warm: Option<&MixedEquilibrium>,
        ) -> (MixedEquilibrium, usize) {
            let mut fp = start_fictitious_play(entries, warm);
            let block = (entries.len() + entries[0].len()).max(64);
            let mut spent = 0usize;
            let mut eq = loop {
                let step = block.min(max_iterations - spent);
                fp.run(entries, step);
                spent += step;
                let eq = fp.equilibrium(entries);
                if eq.gap() <= gap || spent >= max_iterations {
                    break eq;
                }
            };
            if eq.gap().is_nan() {
                eq = fp.equilibrium(entries);
            }
            (eq, spent)
        }

        fn start_fictitious_play(
            entries: &[Vec<f64>],
            warm: Option<&MixedEquilibrium>,
        ) -> FictitiousPlay {
            let (n, m) = (entries.len(), entries[0].len());
            let mut fp = FictitiousPlay {
                row_cum: vec![0.0; n],
                col_cum: vec![0.0; m],
                row_counts: vec![0.0; n],
                col_counts: vec![0.0; m],
                row_play: 0,
                col_play: 0,
            };
            if let Some(prior) = warm {
                for (i, cum) in fp.row_cum.iter_mut().enumerate() {
                    *cum = (0..m)
                        .map(|j| {
                            WARM_WEIGHT
                                * prior.col_strategy.get(j).copied().unwrap_or(0.0).max(0.0)
                                * entries[i][j]
                        })
                        .sum();
                }
                for (j, cum) in fp.col_cum.iter_mut().enumerate() {
                    *cum = (0..n)
                        .map(|i| {
                            WARM_WEIGHT
                                * prior.row_strategy.get(i).copied().unwrap_or(0.0).max(0.0)
                                * entries[i][j]
                        })
                        .sum();
                }
                fp.row_play = argmin(&fp.row_cum);
                fp.col_play = argmax(&fp.col_cum);
            }
            fp
        }

        impl FictitiousPlay {
            fn run(&mut self, entries: &[Vec<f64>], iterations: usize) {
                for _ in 0..iterations {
                    self.row_counts[self.row_play] += 1.0;
                    self.col_counts[self.col_play] += 1.0;
                    for (i, cum) in self.row_cum.iter_mut().enumerate() {
                        *cum += entries[i][self.col_play];
                    }
                    for (j, cum) in self.col_cum.iter_mut().enumerate() {
                        *cum += entries[self.row_play][j];
                    }
                    self.row_play = argmin(&self.row_cum);
                    self.col_play = argmax(&self.col_cum);
                }
            }

            fn equilibrium(&self, entries: &[Vec<f64>]) -> MixedEquilibrium {
                let (n, m) = (entries.len(), entries[0].len());
                let row_total: f64 = self.row_counts.iter().sum();
                let col_total: f64 = self.col_counts.iter().sum();
                let row_strategy: Vec<f64> =
                    self.row_counts.iter().map(|c| c / row_total).collect();
                let col_strategy: Vec<f64> =
                    self.col_counts.iter().map(|c| c / col_total).collect();
                let upper = (0..m)
                    .map(|j| (0..n).map(|i| row_strategy[i] * entries[i][j]).sum::<f64>())
                    .fold(f64::NEG_INFINITY, f64::max);
                let lower = (0..n)
                    .map(|i| (0..m).map(|j| col_strategy[j] * entries[i][j]).sum::<f64>())
                    .fold(f64::INFINITY, f64::min);
                MixedEquilibrium {
                    row_strategy,
                    col_strategy,
                    value: 0.5 * (lower + upper),
                    lower,
                    upper,
                }
            }
        }

        fn argmin(xs: &[f64]) -> usize {
            let mut best = 0;
            for (i, &x) in xs.iter().enumerate() {
                if x < xs[best] {
                    best = i;
                }
            }
            best
        }

        fn argmax(xs: &[f64]) -> usize {
            let mut best = 0;
            for (i, &x) in xs.iter().enumerate() {
                if x > xs[best] {
                    best = i;
                }
            }
            best
        }
    }

    /// A small value set, so cumulative losses tie exactly and the
    /// lowest-index tie rule is exercised.
    const VALUES: [f64; 5] = [-1.0, 0.0, 0.25, 0.5, 1.0];

    fn bits(eq: &MixedEquilibrium) -> (Vec<u64>, Vec<u64>, [u64; 3]) {
        (
            eq.row_strategy.iter().map(|w| w.to_bits()).collect(),
            eq.col_strategy.iter().map(|w| w.to_bits()).collect(),
            [eq.value.to_bits(), eq.lower.to_bits(), eq.upper.to_bits()],
        )
    }

    /// Prior weights: negative ones (the warm seed clamps them) and an
    /// infinite one, whose products with zero losses seed NaN totals, so
    /// the kernel must also match the reference's scan on NaN.
    const PRIOR_VALUES: [f64; 5] = [-1.0, 0.0, 0.25, 1.0, f64::INFINITY];

    /// A prior of `len` weights drawn from [`PRIOR_VALUES`].
    fn prior_weights(picks: &[usize], len: usize) -> Vec<f64> {
        picks[..len].iter().map(|&k| PRIOR_VALUES[k]).collect()
    }

    proptest::proptest! {
        #[test]
        fn flat_kernel_is_bit_identical_to_the_reference(
            (n, m) in (1usize..=12, 1usize..=12),
            picks in proptest::collection::vec(0usize..VALUES.len(), 144),
            iterations in 1usize..5000,
            warm in proptest::arbitrary::any::<bool>(),
            (prior_n, prior_m) in (1usize..=12, 1usize..=12),
            prior_picks in proptest::collection::vec(0usize..PRIOR_VALUES.len(), 24),
            gap_pick in 0usize..3,
        ) {
            let entries: Vec<Vec<f64>> = (0..n)
                .map(|i| (0..m).map(|j| VALUES[picks[i * m + j]]).collect())
                .collect();
            let game = MatrixGame::new(entries.clone()).unwrap();
            let prior = MixedEquilibrium {
                row_strategy: prior_weights(&prior_picks[..12], prior_n.min(n)),
                col_strategy: prior_weights(&prior_picks[12..], prior_m.min(m)),
                value: 0.0,
                lower: 0.0,
                upper: 0.0,
            };
            let warm = warm.then_some(&prior);

            let flat = game.solve_warm(iterations, warm);
            let reference = reference::solve_warm(&entries, iterations, warm);
            proptest::prop_assert_eq!(bits(&flat), bits(&reference));

            let gap = [0.0, 1e-3, 0.05][gap_pick];
            let (flat, flat_spent) = game.solve_to_gap(gap, iterations, warm);
            let (reference, reference_spent) =
                reference::solve_to_gap(&entries, gap, iterations, warm);
            proptest::prop_assert_eq!(flat_spent, reference_spent);
            proptest::prop_assert_eq!(bits(&flat), bits(&reference));
        }
    }
}
