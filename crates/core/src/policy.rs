//! Pluggable search policies over a compiled kernel's candidates.
//!
//! PR 5 unified the three runtime walks onto one state machine
//! ([`TuningSession`](crate::session::TuningSession)); this module pulls
//! the *decision core* out of that machine behind the [`SearchPolicy`]
//! trait, so the Figure 9 walk becomes one strategy among several
//! instead of the only one. The session keeps everything operational —
//! retries, robust measurement, strikes, deadlines, degraded fallback —
//! and delegates only the questions "which candidate next?", "what did
//! this measurement mean?", and "are we done?" to the policy.
//!
//! Two policies ship:
//!
//! * [`PaperWalkPolicy`] — the paper's Figure 9 walk, a delegating
//!   wrapper over the untouched [`DynamicTuner`]. It is the default
//!   everywhere and is pinned **bit-equal** to the frozen
//!   [`crate::reference`] oracle by the equivalence suites: the refactor
//!   is invisible unless a non-default policy is requested.
//! * [`BanditPolicy`] — a seeded, deterministic UCB search intended for
//!   wider candidate spaces ([`CandidateSpace`]): arms are pre-pruned by
//!   a cheap analytic performance bound derived from the compile-probe
//!   occupancy curves ([`analytic_bound`]), so no simulated launch is
//!   spent on dominated arms; the survivors are measured once each in
//!   ascending-bound order and then refined until no arm's optimistic
//!   estimate can beat the incumbent.
//!
//! # Determinism rules
//!
//! Policies must be deterministic functions of (construction inputs,
//! observation sequence): the service's bit-equality gates run the same
//! batch at several worker counts and compare outcomes bitwise. The
//! bandit's only randomness is a seeded xorshift used to break exact
//! mean ties, so the same seed always yields the same arm sequence.
//!
//! [`CandidateSpace`]: crate::version::CandidateSpace

use crate::compiler::{CompiledKernel, KernelVersion};
use crate::runtime::{DynamicTuner, TuneDecision, TuneReason};
use orion_telemetry::journal::{self, JournalEvent};
use orion_telemetry::registry;
use serde::{Deserialize, Serialize};

/// One successful measurement reported to a policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Raw cycles of the invocation.
    pub cycles: u64,
    /// §4.2 work normalization factor (split tuning); `None` compares
    /// raw cycles. Validated positive by the session before it reaches
    /// the policy.
    pub work: Option<u64>,
    /// Relative noise margin from robust measurement (resilient mode);
    /// `None` is a noise-free single sample.
    pub noise_margin: Option<f64>,
}

impl Measurement {
    /// A plain noise-free measurement.
    #[must_use]
    pub fn raw(cycles: u64) -> Self {
        Measurement { cycles, work: None, noise_margin: None }
    }

    /// A measurement normalized by the invocation's amount of work.
    #[must_use]
    pub fn with_work(cycles: u64, work: u64) -> Self {
        Measurement { cycles, work: Some(work), noise_margin: None }
    }

    /// A robust mean with its observed relative noise margin.
    #[must_use]
    pub fn noisy(cycles: u64, noise_margin: f64) -> Self {
        Measurement { cycles, work: None, noise_margin: Some(noise_margin) }
    }
}

/// Where a policy stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyVerdict {
    /// Still measuring candidates.
    Exploring,
    /// Committed to candidate `.0`; further proposals are steady-state.
    Finalized(usize),
    /// Every candidate (fallbacks included) is gone. Terminal.
    Dead,
}

/// The decision core of a tuning session, pulled out of
/// [`TuningSession`](crate::session::TuningSession). Mirrors the
/// session's own pull shape: [`SearchPolicy::propose`] names the next
/// candidate, the caller measures it however it likes, and
/// [`SearchPolicy::observe`] feeds the result back.
///
/// Candidate ids are indices into whatever candidate list the policy
/// was built over — [`CompiledKernel::versions`] for session-driven
/// policies, a [`CandidateSpace`](crate::version::CandidateSpace) arm
/// list for space-driven search.
pub trait SearchPolicy: std::fmt::Debug + Send {
    /// The candidate to measure (or run, once finalized) next. `None`
    /// once every candidate has been quarantined — the policy is dead.
    fn propose(&self) -> Option<usize>;

    /// Feed back a successful measurement of `candidate` (always the
    /// most recent [`SearchPolicy::propose`] answer).
    fn observe(&mut self, candidate: usize, m: Measurement);

    /// Where the policy stands.
    fn verdict(&self) -> PolicyVerdict;

    /// Total selection for reports: the finalized candidate, else the
    /// best current guess. Must never panic, even with everything
    /// quarantined.
    fn select(&self) -> usize;

    /// The relative slowdown `cycles` would register against the
    /// policy's current comparison anchor, when that question is
    /// meaningful mid-walk (the resilient borderline probe). `None`
    /// when there is no anchor — the caller skips the borderline
    /// extension.
    fn probe_slowdown(&self, cycles: u64) -> Option<f64>;

    /// Remove a candidate after launch failures; the policy continues
    /// over the survivors (falling back if the finalized candidate
    /// died).
    fn quarantine(&mut self, candidate: usize);

    /// Settle immediately on the fail-safe selection because a service
    /// budget expired. Returns the settled candidate, `None` when every
    /// candidate is quarantined.
    fn degrade_to_fallback(&mut self) -> Option<usize>;

    /// Whether `candidate` has been quarantined.
    fn is_quarantined(&self, candidate: usize) -> bool;

    /// How many candidates have been quarantined so far.
    fn quarantined_count(&self) -> usize;

    /// Exploration measurements consumed so far.
    fn trials(&self) -> usize;

    /// The decision log so far.
    fn decisions(&self) -> &[TuneDecision];

    /// Consume the policy, keeping its decision log.
    fn into_decisions(self: Box<Self>) -> Vec<TuneDecision>;

    /// Stable lowercase policy name (journal records, bench artifacts).
    fn name(&self) -> &'static str;

    /// Clone into a new box ([`TuningSession`] is `Clone`).
    ///
    /// [`TuningSession`]: crate::session::TuningSession
    fn clone_box(&self) -> Box<dyn SearchPolicy>;
}

impl Clone for Box<dyn SearchPolicy> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Which [`SearchPolicy`] a session (or service job) runs.
///
/// `Copy + Eq` on purpose: it rides inside
/// [`JobPolicy`](crate::service::JobPolicy) and
/// [`ServiceConfig`](crate::service::ServiceConfig), which tests compare
/// wholesale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum PolicyKind {
    /// The paper's Figure 9 walk (the default).
    #[default]
    PaperWalk,
    /// Bound-pruned deterministic UCB.
    Bandit(BanditConfig),
}

impl PolicyKind {
    /// Stable lowercase name (reports, bench artifacts).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::PaperWalk => "paper_walk",
            PolicyKind::Bandit(_) => "bandit",
        }
    }

    /// Build the policy over a compiled kernel's candidates.
    #[must_use]
    pub fn build(self, ck: &CompiledKernel, threshold: f64) -> Box<dyn SearchPolicy> {
        match self {
            PolicyKind::PaperWalk => Box::new(PaperWalkPolicy::new(ck, threshold)),
            PolicyKind::Bandit(cfg) => Box::new(BanditPolicy::over_kernel(ck, cfg)),
        }
    }
}

/// The paper's Figure 9 walk as a [`SearchPolicy`]: a delegating
/// wrapper over the untouched [`DynamicTuner`], so its decision
/// sequence is *definitionally* the pre-refactor one. The equivalence
/// suites pin it bit-equal to the frozen [`crate::reference`] oracle.
#[derive(Debug, Clone)]
pub struct PaperWalkPolicy {
    tuner: DynamicTuner,
}

impl PaperWalkPolicy {
    /// The walk over `ck`'s tuning order at the paper's threshold.
    #[must_use]
    pub fn new(ck: &CompiledKernel, threshold: f64) -> Self {
        PaperWalkPolicy { tuner: DynamicTuner::new(ck, threshold) }
    }
}

impl SearchPolicy for PaperWalkPolicy {
    fn propose(&self) -> Option<usize> {
        if self.tuner.all_quarantined() {
            None
        } else {
            Some(self.tuner.select())
        }
    }

    fn observe(&mut self, candidate: usize, m: Measurement) {
        debug_assert_eq!(candidate, self.tuner.select(), "walk measurements arrive in order");
        if orion_telemetry::is_enabled() && self.tuner.finalized().is_none() {
            search_metrics().launches.inc();
        }
        match (m.work, m.noise_margin) {
            // The session validates `work > 0` before the measurement
            // reaches the policy, preserving the tuner's own contract.
            (Some(work), _) => self
                .tuner
                .record_with_work(m.cycles, work)
                .expect("session rejects zero work before observe"),
            (None, Some(margin)) => self.tuner.record_noisy(m.cycles, margin),
            (None, None) => self.tuner.record(m.cycles),
        }
    }

    fn verdict(&self) -> PolicyVerdict {
        if self.tuner.all_quarantined() {
            PolicyVerdict::Dead
        } else if let Some(v) = self.tuner.finalized() {
            PolicyVerdict::Finalized(v)
        } else {
            PolicyVerdict::Exploring
        }
    }

    fn select(&self) -> usize {
        self.tuner.select()
    }

    fn probe_slowdown(&self, cycles: u64) -> Option<f64> {
        self.tuner.probe_slowdown(cycles)
    }

    fn quarantine(&mut self, candidate: usize) {
        self.tuner.quarantine(candidate);
    }

    fn degrade_to_fallback(&mut self) -> Option<usize> {
        self.tuner.degrade_to_fallback()
    }

    fn is_quarantined(&self, candidate: usize) -> bool {
        self.tuner.is_quarantined(candidate)
    }

    fn quarantined_count(&self) -> usize {
        self.tuner.quarantined_count()
    }

    fn trials(&self) -> usize {
        self.tuner.trials()
    }

    fn decisions(&self) -> &[TuneDecision] {
        self.tuner.decisions()
    }

    fn into_decisions(self: Box<Self>) -> Vec<TuneDecision> {
        self.tuner.into_decisions()
    }

    fn name(&self) -> &'static str {
        "paper_walk"
    }

    fn clone_box(&self) -> Box<dyn SearchPolicy> {
        Box::new(self.clone())
    }
}

/// Knobs of the [`BanditPolicy`]. All-integer so the config stays
/// `Copy + Eq` inside [`PolicyKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BanditConfig {
    /// Seed of the deterministic tie-break stream. Same seed ⇒ same arm
    /// sequence, bit for bit.
    pub seed: u64,
    /// UCB exploration constant × 1000 (relative to the incumbent
    /// mean). 0 disables refinement pulls entirely.
    pub exploration_milli: u32,
    /// Pre-pruning slack, percent: arms whose analytic bound exceeds
    /// the best bound by more than this are dropped without ever being
    /// launched. `u32::MAX` disables pruning.
    pub prune_slack_pct: u32,
    /// Extra confirmation pulls of the incumbent before finalizing.
    pub confirm_pulls: u32,
    /// Hard cap on exploration pulls; 0 derives `4 × arms`.
    pub max_pulls: u32,
}

impl Default for BanditConfig {
    fn default() -> Self {
        BanditConfig {
            seed: 0x0B_AD_1D_EA,
            exploration_milli: 500,
            prune_slack_pct: 30,
            confirm_pulls: 0,
            max_pulls: 0,
        }
    }
}

/// Launch-shape context for [`analytic_bound`]: how many blocks one SM
/// must serve, and how many warps one block occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundCtx {
    /// Threads per block of the launch the arms compete for.
    pub block: u32,
    /// Blocks each SM serves (`ceil(grid / num_sms)`); callers without
    /// a device in hand may pass the whole grid — conservative, the
    /// *relative* ordering across arms is what pruning consumes.
    pub blocks_per_sm: u32,
    /// The device's warp width (32 on every modeled device).
    pub warp_size: u32,
}

impl BoundCtx {
    /// Context for a launch on a known device shape.
    #[must_use]
    pub fn new(block: u32, grid: u32, num_sms: u32, warp_size: u32) -> Self {
        BoundCtx {
            block: block.max(1),
            blocks_per_sm: grid.div_ceil(num_sms.max(1)).max(1),
            warp_size: warp_size.max(1),
        }
    }
}

/// Weight of one compressible-stack move (spill/restore traffic)
/// relative to a plain instruction in the analytic bound. Spill moves
/// touch the on-chip private region and serialize against it, so they
/// cost more than an ALU op but far less than a DRAM round trip.
const SPILL_MOVE_WEIGHT: u64 = 4;

/// Cheap analytic lower-ish bound on a version's per-iteration cost, in
/// abstract issue slots — the pre-pruning signal of [`BanditPolicy`].
///
/// Derivation (from the compile-probe occupancy curve and the machine
/// module, no simulation):
///
/// * Each resident block retires the version's static instruction
///   stream once per grid block it serves; spill traffic (the
///   allocator's compressible-stack moves, which grow as occupancy
///   tuning squeezes registers) is weighted 4× (a stack move touches
///   the on-chip private region: dearer than an ALU op, far cheaper
///   than a DRAM round trip).
/// * A version resident at `b` blocks/SM serves `ceil(blocks_per_sm /
///   b)` sequential *rounds* — the same quantization the occupancy
///   calculator applies. This is what makes the bound non-monotone in
///   occupancy: once an arm's residency already covers the grid,
///   raising occupancy further buys nothing, while its spill cost still
///   grows.
///
/// The bound intentionally ignores cache behavior and latency hiding;
/// [`BanditConfig::prune_slack_pct`] absorbs the model error, and the
/// pruning-soundness property suite is the empirical tripwire.
#[must_use]
pub fn analytic_bound(v: &KernelVersion, ctx: &BoundCtx) -> u64 {
    let insts: u64 = v.machine.funcs.iter().map(|f| f.num_insts() as u64).sum();
    let weighted = insts + SPILL_MOVE_WEIGHT * u64::from(v.machine.static_stack_moves);
    let warps_per_block = ctx.block.div_ceil(ctx.warp_size).max(1);
    let active_blocks = (v.achieved_warps / warps_per_block).max(1);
    let rounds = u64::from(ctx.blocks_per_sm.div_ceil(active_blocks).max(1));
    rounds * weighted.max(1)
}

/// Per-arm bandit state.
#[derive(Debug, Clone)]
struct Arm {
    bound: u64,
    pulls: u32,
    /// Sum of normalized cycles over `pulls`.
    total: u128,
    quarantined: bool,
    pruned: bool,
}

impl Arm {
    fn mean(&self) -> Option<u64> {
        if self.pulls == 0 {
            None
        } else {
            u64::try_from(self.total / u128::from(self.pulls)).ok()
        }
    }

    fn alive(&self) -> bool {
        !self.quarantined && !self.pruned
    }
}

/// Seeded, deterministic UCB over a candidate set, with arms pre-pruned
/// by [`analytic_bound`]. See the module docs for the search schedule
/// and determinism rules.
#[derive(Debug, Clone)]
pub struct BanditPolicy {
    cfg: BanditConfig,
    arms: Vec<Arm>,
    /// Fallback chain anchors (mirroring [`DynamicTuner`]).
    fail_safe: Option<usize>,
    original: usize,
    finalized: Option<usize>,
    trials: usize,
    decisions: Vec<TuneDecision>,
    /// xorshift64* tie-break stream.
    rng: u64,
}

impl BanditPolicy {
    /// A bandit over explicit per-candidate bounds. `bounds[i] = None`
    /// marks candidate `i` as a fail-safe-style fallback: never
    /// explored, available to the fallback chain. `original` is the
    /// last-resort candidate (the untuned version / the space's
    /// baseline arm).
    #[must_use]
    pub fn new(bounds: &[Option<u64>], original: usize, cfg: BanditConfig) -> Self {
        let mut arms: Vec<Arm> = bounds
            .iter()
            .map(|b| Arm {
                bound: b.unwrap_or(u64::MAX),
                pulls: 0,
                total: 0,
                quarantined: false,
                pruned: b.is_none(),
            })
            .collect();
        let fail_safe = bounds.iter().position(Option::is_none);
        // Pre-prune: drop every arm whose bound exceeds the best bound
        // by more than the slack — no simulated launch is ever spent on
        // them. The original always survives (it is the fail-safe
        // answer and the walk's own starting point).
        let best = arms.iter().filter(|a| a.alive()).map(|a| a.bound).min().unwrap_or(0);
        let mut pruned = 0usize;
        if cfg.prune_slack_pct != u32::MAX {
            let limit =
                u64::try_from(u128::from(best) * (100 + u128::from(cfg.prune_slack_pct)) / 100)
                    .unwrap_or(u64::MAX);
            for (i, arm) in arms.iter_mut().enumerate() {
                if arm.alive() && i != original && arm.bound > limit {
                    arm.pruned = true;
                    pruned += 1;
                }
            }
        }
        if orion_telemetry::is_enabled() {
            search_metrics().arms_pruned.add(pruned as u64);
            if pruned > 0 {
                journal::record(JournalEvent::PolicyDecision {
                    policy: "bandit",
                    action: "prune",
                    candidate: pruned,
                });
            }
        }
        let finalized = {
            let alive: Vec<usize> =
                arms.iter().enumerate().filter(|(_, a)| a.alive()).map(|(i, _)| i).collect();
            if alive.len() == 1 {
                Some(alive[0])
            } else {
                None
            }
        };
        BanditPolicy {
            rng: cfg.seed | 1,
            cfg,
            arms,
            fail_safe,
            original,
            finalized,
            trials: 0,
            decisions: Vec::new(),
        }
    }

    /// A bandit over a compiled kernel's versions: bounds come from the
    /// compile-probe occupancy curve of each version, fail-safe
    /// versions stay out of the exploration set (exactly like the
    /// walk's tuning order).
    #[must_use]
    pub fn over_kernel(ck: &CompiledKernel, cfg: BanditConfig) -> Self {
        // Versions of one kernel share grid and block, so a nominal
        // launch shape (one-warp blocks, 64 blocks per SM) preserves
        // the *relative* ordering the pruner consumes; only the
        // quantization points shift.
        let ctx = BoundCtx { block: 32, blocks_per_sm: 64, warp_size: 32 };
        let bounds: Vec<Option<u64>> = ck
            .versions
            .iter()
            .map(|v| if v.fail_safe { None } else { Some(analytic_bound(v, &ctx)) })
            .collect();
        BanditPolicy::new(&bounds, ck.original, cfg)
    }

    /// Arms dropped by the analytic-bound pre-prune — the launches the
    /// search never has to spend. Fail-safe arms (excluded from
    /// exploration by construction, not by the bound) are not counted.
    #[must_use]
    pub fn pruned_arms(&self) -> usize {
        self.arms.iter().filter(|a| a.pruned && a.bound != u64::MAX).count()
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64* — deterministic in the seed, cheap, and good
        // enough for tie-breaking.
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn alive_ids(&self) -> impl Iterator<Item = usize> + '_ {
        self.arms.iter().enumerate().filter(|(_, a)| a.alive()).map(|(i, _)| i)
    }

    /// The incumbent: best measured mean among alive arms (ties: lower
    /// bound, then lower id), else the lowest-bound alive arm.
    fn incumbent(&self) -> Option<usize> {
        self.alive_ids()
            .filter(|&i| self.arms[i].pulls > 0)
            .min_by_key(|&i| (self.arms[i].mean().unwrap_or(u64::MAX), self.arms[i].bound, i))
            .or_else(|| self.best_bound_arm())
    }

    fn best_bound_arm(&self) -> Option<usize> {
        self.alive_ids().min_by_key(|&i| (self.arms[i].bound, i))
    }

    fn max_pulls(&self) -> u32 {
        if self.cfg.max_pulls > 0 {
            self.cfg.max_pulls
        } else {
            let arms = self.alive_ids().count() as u32;
            4 * arms.max(1)
        }
    }

    /// The exploration pull the schedule wants next, `None` when it is
    /// time to finalize. See the module docs.
    fn exploration_target(&self) -> Option<usize> {
        // Phase 1 — sweep: every alive arm gets one pull, ascending
        // bound (cheapest-looking first), ties by id.
        if let Some(i) = self
            .alive_ids()
            .filter(|&i| self.arms[i].pulls == 0)
            .min_by_key(|&i| (self.arms[i].bound, i))
        {
            return Some(i);
        }
        let total: u32 = self.alive_ids().map(|i| self.arms[i].pulls).sum();
        if total >= self.max_pulls() {
            return None;
        }
        let best = self.incumbent()?;
        // Phase 2 — confirm the incumbent.
        if self.arms[best].pulls < 1 + self.cfg.confirm_pulls {
            return Some(best);
        }
        // Phase 3 — UCB refinement: pull the most optimistic challenger
        // while any could still beat the incumbent's mean.
        let best_mean = self.arms[best].mean()?;
        let c = f64::from(self.cfg.exploration_milli) / 1000.0;
        let ln_t = f64::from(total.max(2)).ln();
        self.alive_ids()
            .filter(|&i| i != best)
            .filter_map(|i| {
                let mean = self.arms[i].mean()? as f64;
                let bonus = c * best_mean as f64 * (ln_t / f64::from(self.arms[i].pulls)).sqrt();
                let optimistic = mean - bonus;
                if optimistic < best_mean as f64 {
                    // Total order: f64 from finite inputs; ties by id.
                    Some((i, optimistic))
                } else {
                    None
                }
            })
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
    }

    fn push_decision(&mut self, d: TuneDecision) {
        self.decisions.push(d);
    }

    fn finalize(&mut self, winner: usize, last: Option<(usize, u64, u64)>) {
        self.finalized = Some(winner);
        let (version, cycles, norm) = last.unwrap_or((winner, 0, 0));
        self.push_decision(TuneDecision {
            trial: self.trials.saturating_sub(1),
            version,
            cycles,
            norm_cycles: norm,
            reason: TuneReason::Exhausted,
            finalized: self.finalized,
        });
        if orion_telemetry::is_enabled() {
            journal::record(JournalEvent::PolicyDecision {
                policy: "bandit",
                action: "finalize",
                candidate: winner,
            });
        }
    }

    /// Last-resort replacement chain, mirroring
    /// [`DynamicTuner::degrade_to_fallback`]: fail-safe, then original,
    /// then best measured survivor.
    fn fallback_survivor(&self) -> Option<usize> {
        let alive = |v: usize| self.arms.get(v).is_some_and(|a| !a.quarantined);
        self.fail_safe
            .filter(|&v| alive(v))
            .or_else(|| Some(self.original).filter(|&v| alive(v)))
            .or_else(|| self.incumbent())
    }
}

impl SearchPolicy for BanditPolicy {
    fn propose(&self) -> Option<usize> {
        if let Some(f) = self.finalized {
            return Some(f);
        }
        if let Some(i) = self.exploration_target() {
            return Some(i);
        }
        // Exploration exhausted without an explicit finalize (e.g. the
        // caller asks before observing): name the incumbent.
        self.incumbent().or_else(|| self.fallback_survivor())
    }

    fn observe(&mut self, candidate: usize, m: Measurement) {
        let norm = match m.work {
            // §4.2's integer normalization, same scale as the walk.
            Some(w) => m.cycles.saturating_mul(1 << 20) / w.max(1),
            None => m.cycles,
        };
        if self.finalized.is_some() {
            return; // steady state: nothing left to learn
        }
        if orion_telemetry::is_enabled() {
            search_metrics().launches.inc();
        }
        let Some(arm) = self.arms.get_mut(candidate) else { return };
        arm.pulls += 1;
        arm.total += u128::from(norm);
        self.trials += 1;
        let reason = if self.trials == 1 { TuneReason::Baseline } else { TuneReason::NotDegraded };
        // Deterministic tie-break noise: consume one RNG draw per
        // observation so the stream position is a pure function of the
        // pull count (keeps 1-vs-N-worker runs bit-identical).
        let _ = self.next_rand();
        self.push_decision(TuneDecision {
            trial: self.trials - 1,
            version: candidate,
            cycles: m.cycles,
            norm_cycles: norm,
            reason,
            finalized: None,
        });
        if self.exploration_target().is_none() {
            if let Some(best) = self.incumbent() {
                self.finalize(best, Some((candidate, m.cycles, norm)));
            }
        }
    }

    fn verdict(&self) -> PolicyVerdict {
        if let Some(f) = self.finalized {
            PolicyVerdict::Finalized(f)
        } else if self.incumbent().is_some() || self.fallback_survivor().is_some() {
            PolicyVerdict::Exploring
        } else {
            PolicyVerdict::Dead
        }
    }

    fn select(&self) -> usize {
        self.finalized
            .or_else(|| self.incumbent())
            .or_else(|| self.fallback_survivor())
            .unwrap_or(self.original)
    }

    fn probe_slowdown(&self, _cycles: u64) -> Option<f64> {
        // No walk anchor: the bandit's sweep has no "previous step" to
        // regress against, so borderline extensions never trigger.
        None
    }

    fn quarantine(&mut self, candidate: usize) {
        let Some(arm) = self.arms.get_mut(candidate) else { return };
        if arm.quarantined {
            return;
        }
        arm.quarantined = true;
        arm.pulls = 0;
        arm.total = 0;
        let was_final = self.finalized == Some(candidate);
        let reason = if was_final {
            self.finalized = self.fallback_survivor();
            TuneReason::FellBack
        } else {
            if self.finalized.is_none() && self.exploration_target().is_none() {
                self.finalized = self.incumbent().or_else(|| self.fallback_survivor());
            }
            TuneReason::Quarantined
        };
        if orion_telemetry::is_enabled() {
            orion_telemetry::counter(
                "resilience",
                if was_final { "fellback" } else { "quarantined" },
                1,
            );
            if was_final {
                if let Some(to) = self.finalized {
                    journal::record(JournalEvent::PolicyDecision {
                        policy: "bandit",
                        action: "fallback",
                        candidate: to,
                    });
                }
            }
        }
        self.push_decision(TuneDecision {
            trial: self.trials,
            version: candidate,
            cycles: 0,
            norm_cycles: 0,
            reason,
            finalized: self.finalized,
        });
    }

    fn degrade_to_fallback(&mut self) -> Option<usize> {
        if self.finalized.is_none() {
            let alive = |v: usize| self.arms.get(v).is_some_and(|a| !a.quarantined);
            self.finalized =
                Some(self.original).filter(|&v| alive(v)).or_else(|| self.fallback_survivor());
        }
        if orion_telemetry::is_enabled() {
            orion_telemetry::counter("resilience", "degraded", 1);
        }
        self.push_decision(TuneDecision {
            trial: self.trials,
            version: self.finalized.unwrap_or(self.original),
            cycles: 0,
            norm_cycles: 0,
            reason: TuneReason::Degraded,
            finalized: self.finalized,
        });
        self.finalized
    }

    fn is_quarantined(&self, candidate: usize) -> bool {
        self.arms.get(candidate).is_some_and(|a| a.quarantined)
    }

    fn quarantined_count(&self) -> usize {
        self.arms.iter().filter(|a| a.quarantined).count()
    }

    fn trials(&self) -> usize {
        self.trials
    }

    fn decisions(&self) -> &[TuneDecision] {
        &self.decisions
    }

    fn into_decisions(self: Box<Self>) -> Vec<TuneDecision> {
        self.decisions
    }

    fn name(&self) -> &'static str {
        "bandit"
    }

    fn clone_box(&self) -> Box<dyn SearchPolicy> {
        Box::new(self.clone())
    }
}

/// Handles to the `search/*` counters (idempotent registration).
struct SearchMetrics {
    arms_pruned: registry::CounterHandle,
    launches: registry::CounterHandle,
}

fn search_metrics() -> SearchMetrics {
    let scope = registry::global().scope("search");
    SearchMetrics {
        arms_pruned: scope.register_counter(
            "arms_pruned",
            "Candidate arms dropped by the analytic bound before any launch",
            "",
        ),
        launches: scope.register_counter(
            "launches",
            "Measurements consumed by search policies",
            "",
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bandit(bounds: &[u64], cfg: BanditConfig) -> BanditPolicy {
        let b: Vec<Option<u64>> = bounds.iter().map(|&x| Some(x)).collect();
        BanditPolicy::new(&b, 0, cfg)
    }

    fn drive(policy: &mut dyn SearchPolicy, times: &[u64]) -> Vec<usize> {
        let mut sequence = Vec::new();
        while matches!(policy.verdict(), PolicyVerdict::Exploring) {
            let v = policy.propose().expect("alive");
            sequence.push(v);
            policy.observe(v, Measurement::raw(times[v]));
            if sequence.len() > 256 {
                panic!("bandit failed to converge: {sequence:?}");
            }
        }
        sequence
    }

    #[test]
    fn bandit_prunes_dominated_arms_without_launching_them() {
        // Arm 2's bound is 10× the best: pruned, never proposed.
        let mut p = bandit(&[100, 110, 1000], BanditConfig::default());
        let seq = drive(&mut p, &[50, 40, 1]);
        assert!(!seq.contains(&2), "dominated arm was launched: {seq:?}");
        assert_eq!(p.verdict(), PolicyVerdict::Finalized(1));
    }

    #[test]
    fn bandit_is_deterministic_in_the_seed() {
        let times = [90u64, 70, 80, 75];
        let cfg = BanditConfig { prune_slack_pct: u32::MAX, ..BanditConfig::default() };
        let mut a = bandit(&[100, 100, 100, 100], cfg);
        let mut b = bandit(&[100, 100, 100, 100], cfg);
        assert_eq!(drive(&mut a, &times), drive(&mut b, &times));
        assert_eq!(a.select(), b.select());
        assert_eq!(a.decisions(), b.decisions());
    }

    #[test]
    fn bandit_sweeps_in_ascending_bound_order_and_picks_the_fastest() {
        let cfg = BanditConfig { prune_slack_pct: u32::MAX, ..BanditConfig::default() };
        let mut p = bandit(&[300, 100, 200], cfg);
        let seq = drive(&mut p, &[60, 90, 30]);
        assert_eq!(&seq[..3], &[1, 2, 0], "sweep must follow ascending bounds");
        assert_eq!(p.verdict(), PolicyVerdict::Finalized(2));
        assert_eq!(p.select(), 2);
    }

    #[test]
    fn quarantined_finalized_arm_falls_back() {
        let cfg = BanditConfig { prune_slack_pct: u32::MAX, ..BanditConfig::default() };
        let mut p = bandit(&[100, 100], cfg);
        drive(&mut p, &[50, 80]);
        assert_eq!(p.verdict(), PolicyVerdict::Finalized(0));
        p.quarantine(0);
        // Fallback chain: no fail-safe, original (0) dead → survivor 1.
        assert_eq!(p.verdict(), PolicyVerdict::Finalized(1));
        assert_eq!(p.decisions().last().unwrap().reason, TuneReason::FellBack);
        p.quarantine(1);
        assert_eq!(p.verdict(), PolicyVerdict::Dead);
        assert!(p.propose().is_none());
    }

    #[test]
    fn degrade_settles_on_the_original() {
        let cfg = BanditConfig { prune_slack_pct: u32::MAX, ..BanditConfig::default() };
        let mut p = bandit(&[100, 100, 100], cfg);
        let v = p.propose().unwrap();
        p.observe(v, Measurement::raw(10));
        assert_eq!(p.degrade_to_fallback(), Some(0));
        assert_eq!(p.decisions().last().unwrap().reason, TuneReason::Degraded);
    }

    #[test]
    fn work_normalization_matches_the_walk_scale() {
        let cfg = BanditConfig { prune_slack_pct: u32::MAX, ..BanditConfig::default() };
        let mut p = bandit(&[100, 100], cfg);
        let v = p.propose().unwrap();
        p.observe(v, Measurement::with_work(100, 1 << 20));
        assert_eq!(p.decisions()[0].norm_cycles, 100);
    }

    #[test]
    fn analytic_bound_flattens_once_residency_covers_the_grid() {
        use crate::compiler::KernelVersion;
        use orion_alloc::realize::AllocReport;
        use orion_kir::mir::MModule;
        use orion_kir::types::FuncId;
        let v = |warps: u32, moves: u32| KernelVersion {
            machine: MModule {
                funcs: vec![],
                entry: FuncId(0),
                regs_per_thread: 16,
                smem_slots_per_thread: 0,
                local_slots_per_thread: 0,
                user_smem_bytes: 0,
                static_stack_moves: moves,
            },
            target_warps: warps,
            achieved_warps: warps,
            occupancy: f64::from(warps) / 48.0,
            extra_smem: 0,
            report: AllocReport {
                kernel_max_live: 0,
                regs_per_thread: 16,
                smem_slots_per_thread: 0,
                local_slots_per_thread: 0,
                static_moves: 0,
                per_func: vec![],
            },
            fail_safe: false,
            label: String::new(),
        };
        let ctx = BoundCtx::new(64, 16, 8, 32); // 2 blocks per SM
                                                // 8 warps = 4 blocks resident: one round. 2 warps = 1 block: two.
        assert!(analytic_bound(&v(2, 0), &ctx) > analytic_bound(&v(8, 0), &ctx));
        // Both 8 and 16 warps cover the 2 blocks in one round — equal
        // cost, so spill-free low occupancy is never *worse* there...
        assert_eq!(analytic_bound(&v(8, 0), &ctx), analytic_bound(&v(16, 0), &ctx));
        // ...and spill moves make the higher-occupancy arm lose.
        assert!(analytic_bound(&v(16, 9), &ctx) > analytic_bound(&v(8, 0), &ctx));
    }
}
