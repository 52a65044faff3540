//! Timers the traced runs wrap around the program's public traits.
//!
//! Nothing here reaches inside the program: each wrapper implements the
//! same object-safe trait as the value it wraps, forwards every call,
//! and adds the wall time of the calls it times to a shared [`Span`].

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rand::RngCore;
use trim_core::adversary::{AdversaryObservation, AttackPolicy};
use trim_core::strategy::{DefenderObservation, ThresholdPolicy};
use trimgame_bench::empirical::{
    CellOutcome, CellScratch, ClosedForm, EquilibriumConfig, GameSubstrate,
};
use trimgame_stream::board::PublicBoard;

/// Total wall time and call count of one layer boundary. Shared between
/// threads; the counters publish no other data, so `Relaxed` suffices.
#[derive(Debug, Default)]
pub struct Span {
    ns: AtomicU64,
    calls: AtomicU64,
}

impl Span {
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Adds one call that started at `start`.
    pub fn record(&self, start: Instant) {
        let ns = start.elapsed().as_nanos() as u64;
        self.ns.fetch_add(ns, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    /// `(total ns, calls)` so far.
    pub fn read(&self) -> (u64, u64) {
        (
            self.ns.load(Ordering::Relaxed),
            self.calls.load(Ordering::Relaxed),
        )
    }
}

/// Median cost of reading the clock twice back to back: what one timed
/// call adds to the interval it reports.
pub fn timer_overhead_ns() -> f64 {
    let mut samples: Vec<f64> = (0..2001)
        .map(|_| {
            let t = Instant::now();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    crate::stats::median(&mut samples)
}

/// A defender whose threshold decisions are timed.
#[derive(Debug)]
pub struct TimedDefender {
    inner: Box<dyn ThresholdPolicy>,
    span: Arc<Span>,
}

impl TimedDefender {
    pub fn wrap(inner: Box<dyn ThresholdPolicy>, span: &Arc<Span>) -> Box<dyn ThresholdPolicy> {
        Box::new(Self {
            inner,
            span: span.clone(),
        })
    }
}

impl ThresholdPolicy for TimedDefender {
    fn name(&self) -> Cow<'static, str> {
        self.inner.name()
    }

    fn initial_threshold(&mut self, rng: &mut dyn RngCore) -> f64 {
        let start = Instant::now();
        let t = self.inner.initial_threshold(rng);
        self.span.record(start);
        t
    }

    fn next_threshold(
        &mut self,
        round: usize,
        obs: &DefenderObservation,
        rng: &mut dyn RngCore,
    ) -> f64 {
        let start = Instant::now();
        let t = self.inner.next_threshold(round, obs, rng);
        self.span.record(start);
        t
    }

    fn termination_round(&self) -> Option<usize> {
        self.inner.termination_round()
    }
}

/// An attacker whose injection decisions are timed.
#[derive(Debug)]
pub struct TimedAttacker {
    inner: Box<dyn AttackPolicy>,
    span: Arc<Span>,
}

impl TimedAttacker {
    pub fn wrap(inner: Box<dyn AttackPolicy>, span: &Arc<Span>) -> Box<dyn AttackPolicy> {
        Box::new(Self {
            inner,
            span: span.clone(),
        })
    }
}

impl AttackPolicy for TimedAttacker {
    fn name(&self) -> Cow<'static, str> {
        self.inner.name()
    }

    fn next_injection(&mut self, obs: &AdversaryObservation, rng: &mut dyn RngCore) -> f64 {
        let start = Instant::now();
        let a = self.inner.next_injection(obs, rng);
        self.span.record(start);
        a
    }

    fn observe_payoff(&mut self, round: usize, payoff: f64) {
        self.inner.observe_payoff(round, payoff);
    }
}

/// The spans a [`TimedSubstrate`] fills.
#[derive(Debug, Default)]
pub struct SubstrateSpans {
    pub run_cell: Arc<Span>,
    pub closed_form: Arc<Span>,
    pub defender: Arc<Span>,
    pub attacker: Arc<Span>,
}

/// A substrate decorator: times every `run_cell` and `closed_form`, and
/// wraps the policies each cell plays so their decisions are timed too.
pub struct TimedSubstrate<'a> {
    pub inner: &'a dyn GameSubstrate,
    pub spans: SubstrateSpans,
}

impl GameSubstrate for TimedSubstrate<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn new_scratch(&self) -> CellScratch {
        self.inner.new_scratch()
    }

    fn run_cell(
        &self,
        cfg: &EquilibriumConfig,
        tth: f64,
        defender: Box<dyn ThresholdPolicy>,
        attacker: Box<dyn AttackPolicy>,
        board: Option<PublicBoard>,
        seed: u64,
        scratch: &mut CellScratch,
    ) -> CellOutcome {
        let defender = TimedDefender::wrap(defender, &self.spans.defender);
        let attacker = TimedAttacker::wrap(attacker, &self.spans.attacker);
        let start = Instant::now();
        let out = self
            .inner
            .run_cell(cfg, tth, defender, attacker, board, seed, scratch);
        self.spans.run_cell.record(start);
        out
    }

    fn closed_form(&self, cfg: &EquilibriumConfig) -> ClosedForm {
        let start = Instant::now();
        let out = self.inner.closed_form(cfg);
        self.spans.closed_form.record(start);
        out
    }
}
