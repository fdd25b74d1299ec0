//! Per-layer figures of the traced run.
//!
//! Host time of each layer comes from the spans the benchmark records
//! around its calls into that layer, and from the wall times the
//! backend reports in its completions. Simulator statistics come from
//! relaunching, through `run_launch_opts`, each distinct version the
//! traced rounds launched. Allocator stage times come from the
//! program's existing `alloc/<stage>` spans during one cold compile
//! pass with recording on.

use crate::plan::{tuning, Kind};
use crate::run::{Ctx, Round};
use crate::stats::median;
use crate::trace::{self, Tracer};
use crate::Metric;
use orion_core::cache;
use orion_core::compiler::compile;
use orion_core::orion::Orion;
use orion_core::splitting::{split_ranges, SplitConfig};
use orion_core::version::CandidateSpace;
use orion_gpusim::exec::SimStats;
use orion_gpusim::sim::{run_launch_opts, LaunchOptions};
use orion_telemetry::Phase;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// The allocator's pipeline stages, as its spans name them.
const ALLOC_STAGES: [&str; 7] =
    ["normalize", "color", "spill", "stack-plan", "layout", "lower", "mir-verify"];

const STALLS: [&str; 6] =
    ["issued", "scoreboard", "mem_pending", "barrier", "no_eligible", "drain"];

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Summed modelled counters, each launch weighted by how often the
/// traced rounds ran its version.
#[derive(Default)]
struct SimTotals {
    cycles: u64,
    warp_insts: u64,
    l1: (u64, u64),
    l2: (u64, u64),
    local: u64,
    bank_extra: u64,
    stalls: [u64; 6],
}

impl SimTotals {
    fn add(&mut self, cycles: u64, s: &SimStats, n: u64) {
        self.cycles += cycles * n;
        self.warp_insts += s.warp_insts * n;
        self.l1.0 += s.mem.l1_hits * n;
        self.l1.1 += (s.mem.l1_hits + s.mem.l1_misses) * n;
        self.l2.0 += s.mem.l2_hits * n;
        self.l2.1 += (s.mem.l2_hits + s.mem.l2_misses) * n;
        self.local += s.local_transactions * n;
        self.bank_extra += s.bank_conflict_extra * n;
        let st = &s.stalls;
        let buckets =
            [st.issued, st.scoreboard, st.mem_pending, st.barrier, st.no_eligible, st.drain];
        for (acc, b) in self.stalls.iter_mut().zip(buckets) {
            *acc += b * n;
        }
    }
}

/// Host time of the allocator's stages over one cold compile of every
/// kernel in the plan, from the program's own spans.
fn alloc_stage_ms(ctx: &Ctx) -> BTreeMap<&'static str, f64> {
    let mut kernels: Vec<usize> = ctx.plan.jobs.iter().map(|j| j.kernel).collect();
    kernels.sort_unstable();
    kernels.dedup();
    cache::reset();
    orion_telemetry::clear();
    orion_telemetry::set_enabled(true);
    for &k in &kernels {
        let w = &ctx.workloads[k];
        let _ = compile(&w.module, &ctx.dev, &tuning(w));
    }
    orion_telemetry::set_enabled(false);
    let mut open: HashMap<(u32, String), Vec<u64>> = HashMap::new();
    let mut out: BTreeMap<&'static str, f64> = ALLOC_STAGES.iter().map(|&s| (s, 0.0)).collect();
    for e in orion_telemetry::take_events().into_iter().filter(|e| e.cat == "alloc") {
        let key = (e.tid, e.name.clone());
        match e.ph {
            Phase::Begin => open.entry(key).or_default().push(e.ts),
            Phase::End => {
                let start = open.get_mut(&key).and_then(Vec::pop);
                if let (Some(start), Some(slot)) = (start, out.get_mut(e.name.as_str())) {
                    *slot += e.ts.saturating_sub(start) as f64 / 1e3;
                }
            }
            _ => {}
        }
    }
    out
}

/// Host time spent outside the simulator inside each space search:
/// the compile and the enumeration, called again on their own. Also
/// the mean host time of one split (CTA-range) launch.
struct SpaceExtras {
    compile_ns: HashMap<&'static str, u64>,
    enumerate_ns: HashMap<&'static str, u64>,
    split_launch_us: f64,
}

fn space_extras(ctx: &Ctx, tracer: &Tracer) -> SpaceExtras {
    let mut ex = SpaceExtras {
        compile_ns: HashMap::new(),
        enumerate_ns: HashMap::new(),
        split_launch_us: 0.0,
    };
    let mut split_us: Vec<f64> = Vec::new();
    cache::reset();
    for &job in &ctx.plan.jobs {
        let w = &ctx.workloads[job.kernel];
        if ex.compile_ns.contains_key(w.name) {
            continue;
        }
        let orion = Orion { dev: ctx.dev.clone(), cfg: tuning(w) };
        let launch = crate::plan::space_launch(w, &ctx.dev);
        let t = Instant::now();
        let ck = {
            let _span = tracer.span("orion.compile", 0);
            orion.compile(&w.module)
        };
        ex.compile_ns.insert(w.name, t.elapsed().as_nanos() as u64);
        let Ok(ck) = ck else { continue };
        let t = Instant::now();
        let space = {
            let _span = tracer.span("space.enumerate", 0);
            CandidateSpace::enumerate(
                &ctx.dev,
                w.block,
                &w.module,
                ck.direction,
                launch.grid,
                SplitConfig::default(),
            )
        };
        ex.enumerate_ns.insert(w.name, t.elapsed().as_nanos() as u64);
        let Some(arm) = space.ok().and_then(|s| s.arms.into_iter().find(|a| a.pieces > 1)) else {
            continue;
        };
        let mut g = w.init_global.clone();
        for range in split_ranges(launch.grid, arm.pieces, 1) {
            let opts = LaunchOptions {
                extra_smem_per_block: arm.version.extra_smem,
                cta_range: Some(range),
                cache_config: arm.cache_config,
                ..LaunchOptions::default()
            };
            let t = Instant::now();
            let _span = tracer.span("sim.run_launch_opts", 0);
            if run_launch_opts(&ctx.dev, &arm.version.machine, launch, &w.params, &mut g, opts)
                .is_ok()
            {
                split_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            }
        }
    }
    ex.split_launch_us = ratio(split_us.iter().sum(), split_us.len() as f64);
    ex
}

/// Every per-layer metric of the traced run. `rounds` are the traced
/// rounds; `untraced_s`/`traced_s` are the walls of the same number of
/// rounds without and with recording.
pub fn per_layer(
    ctx: &Ctx,
    rounds: &[Round],
    tracer: &Tracer,
    workers: usize,
    untraced_s: f64,
    traced_s: f64,
) -> Vec<Metric> {
    let mut m: Vec<Metric> = Vec::new();
    let mut put =
        |name: String, value: f64, unit: &'static str| m.push(Metric { name, value, unit });
    let jobs: Vec<&crate::run::JobOutcome> = rounds.iter().flat_map(|r| &r.jobs).collect();
    let space = ctx.kind == Kind::SpaceSearch;
    let extras = space.then(|| space_extras(ctx, tracer));

    // --- gpusim::sim: host time per kernel, and relaunch statistics.
    let mut relaunch: BTreeMap<(usize, String), crate::run::Relaunch> = BTreeMap::new();
    for r in jobs.iter().flat_map(|j| &j.relaunch) {
        relaunch
            .entry((r.kernel, r.version.label.clone()))
            .and_modify(|e| e.count += r.count)
            .or_insert_with(|| r.clone());
    }
    let mut totals = SimTotals::default();
    let mut host_ns: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for r in relaunch.values() {
        let w = &ctx.workloads[r.kernel];
        let mut g = w.init_global.clone();
        let t = Instant::now();
        let res = {
            let _span = tracer.span("sim.run_launch_opts", 0);
            run_launch_opts(&ctx.dev, &r.version.machine, r.launch, &w.params, &mut g, r.opts)
        };
        let ns = t.elapsed().as_nanos() as u64;
        if let Ok(res) = res {
            totals.add(res.cycles, &res.stats, r.count);
            let e = host_ns.entry(w.name).or_default();
            e.0 += ns;
            e.1 += res.stats.warp_insts;
        }
    }
    let mut sim_ms_by_kernel: BTreeMap<&'static str, f64> = BTreeMap::new();
    for j in &jobs {
        let own_ms = match &extras {
            Some(ex) => {
                let outside = ex.compile_ns.get(j.kernel).copied().unwrap_or(0)
                    + ex.enumerate_ns.get(j.kernel).copied().unwrap_or(0);
                (j.latency_s * 1e3 - ms(outside)).max(0.0)
            }
            None => j.exec_us as f64 / 1e3,
        };
        *sim_ms_by_kernel.entry(j.kernel).or_default() += own_ms;
    }
    let simulates = ctx.kind.simulates();
    let sim_ms: f64 = if simulates { sim_ms_by_kernel.values().sum() } else { 0.0 };
    let launches: u64 = rounds.iter().map(|r| r.launches).sum();
    put("sim.launches".into(), if simulates { launches as f64 } else { 0.0 }, "count");
    put("sim.ms".into(), sim_ms, "ms");
    put("sim.warp_insts".into(), totals.warp_insts as f64, "count");
    let (all_ns, all_insts) = host_ns.values().fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    put("sim.host_ns_per_warp_inst".into(), ratio(all_ns as f64, all_insts as f64), "ns");
    for w in ctx.workloads {
        let kernel_ms =
            if simulates { sim_ms_by_kernel.get(w.name).copied().unwrap_or(0.0) } else { 0.0 };
        put(format!("sim.ms.{}", w.name), kernel_ms, "ms");
        let (ns, insts) = host_ns.get(w.name).copied().unwrap_or((0, 0));
        put(format!("sim.host_ns_per_warp_inst.{}", w.name), ratio(ns as f64, insts as f64), "ns");
    }
    put("sim.split_launch_us".into(), extras.as_ref().map_or(0.0, |e| e.split_launch_us), "us");

    // --- modelled counters (simulated, not host time).
    put("sim.ipc".into(), ratio(totals.warp_insts as f64, totals.cycles as f64), "ratio");
    put("sim.l1_hit_ratio".into(), ratio(totals.l1.0 as f64, totals.l1.1 as f64), "ratio");
    put("sim.l2_hit_ratio".into(), ratio(totals.l2.0 as f64, totals.l2.1 as f64), "ratio");
    put("sim.local_transactions".into(), totals.local as f64, "count");
    put("sim.bank_conflict_extra".into(), totals.bank_extra as f64, "cycles");
    let sm_cycles: u64 = totals.stalls.iter().sum();
    for (name, v) in STALLS.iter().zip(totals.stalls) {
        put(format!("sim.stall.{name}"), ratio(v as f64, sm_cycles as f64), "ratio");
    }

    // Every span is recorded by now; read them in place.
    let spans = tracer.spans();

    // --- core::backend: from the completions the tap saw.
    let exec_ms_total = rounds.iter().map(|r| r.exec_us).sum::<u64>() as f64 / 1e3;
    let exec_ms: Vec<f64> =
        rounds.iter().flat_map(|r| &r.exec_samples_us).map(|&u| u as f64 / 1e3).collect();
    let queue_ms = rounds.iter().map(|r| r.queue_us).sum::<u64>() as f64 / 1e3;
    put("backend.launches".into(), if space { 0.0 } else { launches as f64 }, "count");
    put("backend.exec_ms".into(), exec_ms_total, "ms");
    put("backend.exec_p50_ms".into(), median(&exec_ms), "ms");
    put("backend.queue_wait_ms".into(), queue_ms, "ms");
    put(
        "backend.failed".into(),
        rounds.iter().map(|r| r.failed_launches).sum::<u64>() as f64,
        "count",
    );

    // --- core::service: the event loop's own time and its waiting.
    let (run_ns, self_ns) = trace::totals(&spans, "service.run");
    let (wait_ns, _) = trace::totals(&spans, "backend.wait");
    put("service.run_ms".into(), ms(run_ns), "ms");
    put("service.self_ms".into(), ms(self_ns), "ms");
    put("service.dispatch_wait_ms".into(), ms(wait_ns), "ms");
    let idle = if run_ns > 0 { 1.0 - exec_ms_total / (ms(run_ns) * workers as f64) } else { 0.0 };
    put("service.core_idle_frac".into(), idle, "ratio");

    // --- core::compiler / core::cache / alloc::pipeline.
    let compile_name = if space { "orion.compile" } else { "backend.compile_probe" };
    let compiles = trace::durations(&spans, compile_name);
    let compile_ms: Vec<f64> = compiles.iter().map(|&n| ms(n)).collect();
    put("compile.calls".into(), compiles.len() as f64, "count");
    put("compile.ms".into(), compile_ms.iter().sum(), "ms");
    put("compile.p50_ms".into(), median(&compile_ms), "ms");
    let hits: u64 = rounds.iter().map(|r| r.cache_hits).sum();
    let misses: u64 = rounds.iter().map(|r| r.cache_misses).sum();
    put("cache.hits".into(), hits as f64, "count");
    put("cache.misses".into(), misses as f64, "count");
    put(
        "cache.coalesced".into(),
        rounds.iter().map(|r| r.cache_coalesced).sum::<u64>() as f64,
        "count",
    );
    put("cache.hit_ratio".into(), ratio(hits as f64, (hits + misses) as f64), "ratio");
    for (stage, v) in alloc_stage_ms(ctx) {
        put(format!("alloc.{stage}.ms"), v, "ms");
    }

    // --- core::session / core::policy / core::version.
    let sum = |f: fn(&crate::run::JobOutcome) -> u64| jobs.iter().map(|j| f(j)).sum::<u64>();
    let policy_launches = sum(|j| j.launches);
    put("policy.launches".into(), policy_launches as f64, "count");
    put("policy.explore_launches".into(), sum(|j| j.explore_launches) as f64, "count");
    put(
        "policy.useful_ratio".into(),
        ratio(sum(|j| j.useful_launches) as f64, policy_launches as f64),
        "ratio",
    );
    put("policy.arms".into(), sum(|j| j.arms) as f64, "count");
    put("policy.arms_pruned".into(), sum(|j| j.arms_pruned) as f64, "count");
    put("space.enumerate_ms".into(), ms(trace::totals(&spans, "space.enumerate").0), "ms");

    // --- telemetry: what recording the spans cost.
    put("trace.overhead_pct".into(), (ratio(traced_s, untraced_s) - 1.0) * 100.0, "%");
    m
}
