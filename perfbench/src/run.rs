//! One round of each workload, and the checks on every job it ran.
//!
//! A round is the unit the benchmark repeats: one service batch
//! (`tune-batch`, `control-plane`), one pass of the closed-loop client
//! over the plan (`tune-one`), or one search per kernel
//! (`space-search`). The compile cache is emptied before every round.

use crate::fixtures::Fixtures;
use crate::plan::{bandit, kernel_job, space_launch, tuning, Job, Kind, Plan};
use crate::stats::{hash_bytes, hash_words};
use crate::tap::{Compiled, Tap};
use crate::trace::Tracer;
use orion_core::backend::AsyncBackend;
use orion_core::cache;
use orion_core::compiler::KernelVersion;
use orion_core::orion::{Orion, SpaceOutcome};
use orion_core::policy::{analytic_bound, BanditConfig, BanditPolicy, BoundCtx};
use orion_core::runtime::TuneDecision;
use orion_core::service::{JobDisposition, KernelJob, KernelReport, OrionService};
use orion_core::splitting::SplitConfig;
use orion_gpusim::device::DeviceSpec;
use orion_gpusim::exec::Launch;
use orion_gpusim::sim::{run_launch_opts, LaunchOptions};
use orion_workloads::Workload;
use std::time::Instant;

pub struct Ctx<'a> {
    pub kind: Kind,
    pub workloads: &'a [Workload],
    pub fixtures: &'a Fixtures,
    pub plan: &'a Plan,
    pub dev: DeviceSpec,
    /// Keep what the traced run needs afterwards (candidate sets,
    /// versions to relaunch, pruning counts).
    pub keep: bool,
}

/// A version a job launched, to be relaunched by the traced run for
/// its simulator statistics.
#[derive(Debug, Clone)]
pub struct Relaunch {
    pub kernel: usize,
    pub version: KernelVersion,
    pub launch: Launch,
    pub opts: LaunchOptions,
    /// Launches of this version in the job.
    pub count: u64,
}

/// What one job did and whether its checks passed.
#[derive(Debug, Clone, Default)]
pub struct JobOutcome {
    pub kernel: &'static str,
    pub policy: &'static str,
    pub latency_s: f64,
    /// Host µs the backend spent executing this job's launches.
    pub exec_us: u64,
    pub launches: u64,
    /// Simulated cycles of the original version over the selected one.
    pub speedup: Option<f64>,
    /// Simulated cycles had every launch run the selected version.
    pub ideal_cycles: u64,
    pub total_cycles: u64,
    pub explore_launches: u64,
    /// Launches of the final pick.
    pub useful_launches: u64,
    pub arms: u64,
    pub arms_pruned: u64,
    pub digest: u64,
    /// Names of the checks this job failed.
    pub failures: Vec<&'static str>,
    pub relaunch: Vec<Relaunch>,
}

#[derive(Debug, Default)]
pub struct Round {
    pub wall_s: f64,
    pub jobs: Vec<JobOutcome>,
    pub launches: u64,
    pub sim_cycles: u64,
    pub exec_us: u64,
    pub queue_us: u64,
    pub exec_samples_us: Vec<u64>,
    pub failed_launches: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_coalesced: u64,
}

impl Round {
    fn absorb_tap(&mut self, st: &crate::tap::TapState) {
        self.launches += st.launches;
        self.sim_cycles += st.sim_cycles;
        self.failed_launches += st.failed_launches;
        self.exec_us += st.exec_us;
        self.queue_us += st.queue_us;
        self.exec_samples_us.extend(&st.exec_samples_us);
    }

    fn absorb_cache(&mut self, c: &cache::CompileCacheStats) {
        self.cache_hits += c.hits;
        self.cache_misses += c.misses;
        self.cache_coalesced += c.coalesced;
    }
}

/// Digest of a simulated outcome: selected label, per-launch cycles,
/// total cycles.
fn digest(label: &str, cycles: impl Iterator<Item = u64>, total: u64) -> u64 {
    let per: Vec<u64> = cycles.collect();
    hash_words(
        [hash_bytes(label.as_bytes()), per.len() as u64].into_iter().chain(per).chain([total]),
    )
}

fn check_digest(ctx: &Ctx, kernel: &str, policy: &str, d: u64, failures: &mut Vec<&'static str>) {
    let key = (ctx.kind.name().to_string(), kernel.to_string(), policy.to_string());
    if ctx.fixtures.digests.get(&key) != Some(&d) {
        failures.push("digest");
    }
}

fn check_output(
    ctx: &Ctx,
    w: &Workload,
    grid: u32,
    got: Option<u64>,
    failures: &mut Vec<&'static str>,
) {
    let want = ctx.fixtures.interp.get(&(w.name.to_string(), grid));
    if got.is_none() || want != got.as_ref() {
        failures.push("output");
    }
}

fn service_outcome(
    ctx: &Ctx,
    job: Job,
    kr: &KernelReport,
    compiled: Option<&Compiled>,
    first_hash: Option<u64>,
    latency_s: f64,
) -> JobOutcome {
    let w = &ctx.workloads[job.kernel];
    let mut out = JobOutcome {
        kernel: w.name,
        policy: job.policy_name(),
        latency_s,
        exec_us: kr.metrics.execute_us,
        ..Default::default()
    };
    if kr.disposition != JobDisposition::Finalized {
        out.failures.push("not-finalized");
    }
    if ctx.kind.simulates() {
        check_output(ctx, w, w.grid, first_hash, &mut out.failures);
    }
    let (Ok(o), Some(c)) = (&kr.outcome, compiled) else {
        out.failures.push("digest");
        return out;
    };
    let label = c.labels.get(o.selected).map_or("", String::as_str);
    out.digest = digest(label, o.iterations.iter().map(|&(_, cy)| cy), o.total_cycles);
    check_digest(ctx, w.name, out.policy, out.digest, &mut out.failures);
    let cycles_of = |v: usize| o.iterations.iter().rev().find(|&&(x, _)| x == v).map(|&(_, cy)| cy);
    let selected = cycles_of(o.selected);
    out.speedup = cycles_of(c.original).zip(selected).map(|(a, b)| a as f64 / b as f64);
    out.launches = o.iterations.len() as u64;
    out.total_cycles = o.total_cycles;
    out.ideal_cycles = selected.map_or(o.total_cycles, |s| s * out.launches);
    out.explore_launches = o.converged_after as u64;
    out.useful_launches = o.iterations.iter().filter(|&&(v, _)| v == o.selected).count() as u64;
    out.arms = c.labels.len() as u64;
    if let Some(ck) = &c.kernel {
        if job.bandit {
            out.arms_pruned =
                BanditPolicy::over_kernel(ck, BanditConfig::default()).pruned_arms() as u64;
        }
    }
    if let (Some(ck), true) = (&c.kernel, ctx.kind.simulates()) {
        let mut counts = vec![0u64; ck.versions.len()];
        for &(v, _) in &o.iterations {
            counts[v] += 1;
        }
        // The service launches at parallelism 1; relaunch the same way.
        let base = LaunchOptions { parallelism: 1, ..LaunchOptions::default() };
        out.relaunch = counts
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(v, &count)| Relaunch {
                kernel: job.kernel,
                version: ck.versions[v].clone(),
                launch: w.launch(),
                opts: base.with_extra_smem(ck.versions[v].extra_smem),
                count,
            })
            .collect();
    }
    out
}

fn jobs_for(ctx: &Ctx) -> Vec<KernelJob> {
    ctx.plan.jobs.iter().map(|&j| kernel_job(ctx.kind, &ctx.workloads[j.kernel], j)).collect()
}

/// One batch through the service: every job in flight at once.
pub fn batch_round<B: AsyncBackend>(
    ctx: &Ctx,
    svc: &OrionService<Tap<'_, B>>,
    tracer: &Tracer,
) -> Round {
    let jobs = jobs_for(ctx);
    cache::reset();
    let t0 = Instant::now();
    let report = {
        let _span = tracer.span("service.run", 0);
        svc.run(jobs)
    };
    let wall = t0.elapsed();
    let st = svc.backend().drain();
    let mut round = Round { wall_s: wall.as_secs_f64(), ..Round::default() };
    round.absorb_tap(&st);
    round.absorb_cache(&report.cache);
    for (i, &job) in ctx.plan.jobs.iter().enumerate() {
        let lane = i as u32 + 1;
        let done = st.last_done.get(&lane).map_or(wall, |t| t.duration_since(t0));
        round.jobs.push(service_outcome(
            ctx,
            job,
            &report.kernels[i],
            st.compiled.get(i),
            st.first_hash.get(&lane).copied(),
            done.as_secs_f64(),
        ));
    }
    round
}

/// One pass of the closed-loop client: submit a job, wait for its
/// report, submit the next.
pub fn closed_loop_round<B: AsyncBackend>(
    ctx: &Ctx,
    svc: &OrionService<Tap<'_, B>>,
    tracer: &Tracer,
) -> Round {
    let jobs = jobs_for(ctx);
    cache::reset();
    let mut round = Round::default();
    let t0 = Instant::now();
    for (i, (&job, kj)) in ctx.plan.jobs.iter().zip(jobs).enumerate() {
        let t = Instant::now();
        let report = {
            let _span = tracer.span("service.run", i as u32 + 1);
            svc.run(vec![kj])
        };
        let latency_s = t.elapsed().as_secs_f64();
        let st = svc.backend().drain();
        round.absorb_tap(&st);
        round.absorb_cache(&report.cache);
        round.jobs.push(service_outcome(
            ctx,
            job,
            &report.kernels[0],
            st.compiled.first(),
            st.first_hash.get(&1).copied(),
            latency_s,
        ));
    }
    round.wall_s = t0.elapsed().as_secs_f64();
    round
}

/// One bandit search over the widened space per kernel, one caller.
pub fn space_round(ctx: &Ctx, tracer: &Tracer) -> Round {
    let mut globals: Vec<Vec<u8>> =
        ctx.plan.jobs.iter().map(|j| ctx.workloads[j.kernel].init_global.clone()).collect();
    cache::reset();
    let before = cache::stats();
    let mut round = Round::default();
    for (i, &job) in ctx.plan.jobs.iter().enumerate() {
        let w = &ctx.workloads[job.kernel];
        let orion = Orion { dev: ctx.dev.clone(), cfg: tuning(w) };
        let launch = space_launch(w, &ctx.dev);
        let t = Instant::now();
        let searched = {
            let _span = tracer.span("orion.tune_space", i as u32 + 1);
            orion.tune_space(
                &w.module,
                launch,
                &w.params,
                &mut globals[i],
                bandit(),
                SplitConfig::default(),
            )
        };
        let latency_s = t.elapsed().as_secs_f64();
        round.wall_s += latency_s;
        let out = match searched {
            Ok(s) => space_outcome(ctx, job, &s, launch, latency_s),
            Err(_) => JobOutcome {
                kernel: w.name,
                policy: job.policy_name(),
                latency_s,
                failures: vec!["not-finalized", "digest", "output"],
                ..JobOutcome::default()
            },
        };
        round.launches += out.launches;
        round.sim_cycles += out.total_cycles;
        round.jobs.push(out);
    }
    round.absorb_cache(&cache::stats().delta_since(&before));
    round
}

fn space_outcome(
    ctx: &Ctx,
    job: Job,
    s: &SpaceOutcome,
    launch: Launch,
    latency_s: f64,
) -> JobOutcome {
    let w = &ctx.workloads[job.kernel];
    let mut out =
        JobOutcome { kernel: w.name, policy: job.policy_name(), latency_s, ..Default::default() };
    let arm = s.selected_arm();
    // The winner's steady-state launch, from a fresh image, at the
    // options the search hands back (default SM fan-out).
    let mut g = w.init_global.clone();
    let ran = run_launch_opts(
        &ctx.dev,
        &arm.version.machine,
        launch,
        &w.params,
        &mut g,
        s.launch_options(),
    );
    check_output(ctx, w, launch.grid, ran.ok().map(|_| hash_bytes(&g)), &mut out.failures);
    out.digest = digest(&arm.version.label, s.decisions.iter().map(|d| d.cycles), s.total_cycles);
    check_digest(ctx, w.name, out.policy, out.digest, &mut out.failures);
    // One decision per pull, except that the bandit logs its finalize
    // as a second record of the last pull's trial.
    let mut pulls: Vec<&TuneDecision> = Vec::with_capacity(s.decisions.len());
    for d in &s.decisions {
        if pulls.last().is_none_or(|p| p.trial != d.trial) {
            pulls.push(d);
        }
    }
    let cycles_of = |a: usize| pulls.iter().rev().find(|d| d.version == a).map(|d| d.cycles);
    let selected = cycles_of(s.selected);
    out.speedup = cycles_of(s.space.original).zip(selected).map(|(a, b)| a as f64 / b as f64);
    out.launches = s.launches;
    out.total_cycles = s.total_cycles;
    out.ideal_cycles = selected.map_or(s.total_cycles, |c| c * pulls.len() as u64);
    for d in &pulls {
        let pieces = u64::from(s.space.arms[d.version].pieces);
        if d.version == s.selected {
            out.useful_launches += pieces;
        } else {
            out.explore_launches += pieces;
        }
    }
    out.arms = s.space.arms.len() as u64;
    if ctx.keep {
        let bctx = BoundCtx::new(w.block, launch.grid, ctx.dev.num_sms, ctx.dev.warp_size);
        let bounds: Vec<Option<u64>> =
            s.space.arms.iter().map(|a| Some(analytic_bound(&a.version, &bctx))).collect();
        out.arms_pruned = BanditPolicy::new(&bounds, s.space.original, BanditConfig::default())
            .pruned_arms() as u64;
        let mut arms = vec![(s.selected, s.launch_options())];
        if s.space.original != s.selected {
            let orig = &s.space.arms[s.space.original];
            let opts = LaunchOptions::default().with_extra_smem(orig.version.extra_smem);
            arms.push((s.space.original, opts));
        }
        out.relaunch = arms
            .into_iter()
            .map(|(a, opts)| Relaunch {
                kernel: job.kernel,
                version: s.space.arms[a].version.clone(),
                launch,
                opts,
                count: pulls.iter().filter(|d| d.version == a).count() as u64,
            })
            .collect();
    }
    out
}
