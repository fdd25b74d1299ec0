//! `orion-bench --bin perf` — the repo's perf trajectory point.
//!
//! Measures, for three representative workloads:
//!
//! * **compile**: wall-time of the Figure 8 candidate-set build with a
//!   cold vs warm compiled-candidate cache, plus the cache hit/miss
//!   counters of each phase. A warm rebuild must not re-allocate any
//!   already-realized candidate: `warm.misses > 0` makes the binary
//!   exit non-zero, which is what the CI `perf-smoke` job asserts.
//! * **simulate**: wall-time and simulated SM-cycles/second for the
//!   same launch under four engine configurations — `serial` (the seed
//!   path: one thread, linear-scan scheduler, AoS lane state),
//!   `tree_serial` (one thread, winner-tree scheduler, AoS: the
//!   pre-SoA engine, isolating the O(W)→O(log W) scheduling win),
//!   `soa_serial` (one thread, winner tree, pooled SoA lane arenas:
//!   isolating the batched-execution win), and `parallel` (winner
//!   tree, SoA, one worker per host core capped at the SM count). All
//!   four must report bit-identical cycle counts, or the binary exits
//!   non-zero.
//!
//! The **sim-throughput floor** gates the SoA win: the geomean over
//! the three workloads of `soa_serial.sim_cycles_per_sec /
//! tree_serial.sim_cycles_per_sec` must be ≥ 1.25, or the binary exits
//! 2. The pre-SoA figure is measured in the same process and build, so
//! the gate is self-calibrating across hosts and profiles.
//! `--inject-slow` deliberately measures the `soa_serial` label with
//! the reference AoS layout (speedup ≈ 1.0×) to prove the gate fires.
//!
//! A full run writes `BENCH_perf.json`; see README "Performance" for
//! the field reference. `--quick` runs one repetition per configuration
//! (CI smoke mode); the default is three, keeping the minimum wall-time
//! per configuration. `--quick` and `--inject-slow` runs only print, so
//! they never overwrite the committed full-run artifact.

use orion_bench::figures::Figure;
use orion_core::cache;
use orion_core::orion::Orion;
use orion_gpusim::device::DeviceSpec;
use orion_gpusim::sim::{run_launch_opts, LaunchOptions};
use orion_gpusim::{LaneLayout, Scheduler};
use orion_workloads::by_name;
use serde::Serialize;
use std::time::Instant;

const WORKLOADS: [&str; 3] = ["matrixMul", "backprop", "hotspot"];

/// Minimum acceptable geomean SoA-over-pre-SoA sim-throughput ratio.
const SIM_THROUGHPUT_FLOOR: f64 = 1.25;

#[derive(Serialize)]
struct CachePhase {
    wall_ms: f64,
    hits: u64,
    misses: u64,
}

#[derive(Serialize)]
struct SimConfig {
    wall_ms: f64,
    /// Simulated SM-cycles (device cycles × SMs) per wall-second.
    sim_cycles_per_sec: f64,
}

#[derive(Serialize)]
struct WorkloadPerf {
    name: String,
    cycles: u64,
    compile_cold: CachePhase,
    compile_warm: CachePhase,
    serial: SimConfig,
    tree_serial: SimConfig,
    soa_serial: SimConfig,
    parallel: SimConfig,
    /// serial wall / parallel wall (the full engine vs the seed path).
    speedup_parallel_over_serial: f64,
    /// serial wall / tree_serial wall (scheduler win alone).
    speedup_tree_over_scan: f64,
    /// tree_serial wall / soa_serial wall (lane-layout win alone —
    /// equal cycles, so also the sim_cycles_per_sec ratio).
    speedup_soa_over_tree: f64,
}

#[derive(Serialize)]
struct SimGate {
    floor: f64,
    geomean_soa_over_tree: f64,
    passed: bool,
    /// True when `--inject-slow` deliberately measured the reference
    /// layout under the `soa_serial` label (gate-inversion proof).
    injected_slow: bool,
}

#[derive(Serialize)]
struct PerfDoc {
    device: String,
    num_sms: u32,
    host_cores: u32,
    reps: u32,
    /// `quick` (CI smoke, 1 rep) or `full` (3 reps, min-of wall).
    mode: String,
    /// Build profile the numbers were taken under (`debug`/`release`).
    build_profile: String,
    workloads: Vec<WorkloadPerf>,
    geomean_speedup_parallel_over_serial: f64,
    geomean_speedup_tree_over_scan: f64,
    sim_gate: SimGate,
    warm_cache_recompiles: u64,
}

fn time_runs(
    reps: u32,
    dev: &DeviceSpec,
    w: &orion_workloads::Workload,
    machine: &orion_kir::mir::MModule,
    extra_smem: u32,
    opts: LaunchOptions,
) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut cycles = 0;
    for _ in 0..reps {
        let mut global = w.init_global.clone();
        let started = Instant::now();
        let r = run_launch_opts(
            dev,
            machine,
            w.launch(),
            &w.params,
            &mut global,
            LaunchOptions { extra_smem_per_block: extra_smem, ..opts },
        )
        .unwrap_or_else(|e| panic!("{}: launch failed: {e}", w.name));
        best = best.min(started.elapsed().as_secs_f64() * 1e3);
        cycles = r.cycles;
    }
    (best, cycles)
}

fn sim_config(wall_ms: f64, cycles: u64, num_sms: u32) -> SimConfig {
    SimConfig {
        wall_ms,
        sim_cycles_per_sec: if wall_ms > 0.0 {
            (cycles as f64) * f64::from(num_sms) / (wall_ms / 1e3)
        } else {
            0.0
        },
    }
}

fn geomean(xs: impl Iterator<Item = f64> + Clone) -> f64 {
    let n = xs.clone().count();
    if n == 0 {
        return 0.0;
    }
    (xs.map(f64::ln).sum::<f64>() / n as f64).exp()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let inject_slow = std::env::args().any(|a| a == "--inject-slow");
    let reps: u32 = if quick { 1 } else { 3 };
    let dev = DeviceSpec::gtx680(); // 8 SMs
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get() as u32);
    let mut rows: Vec<WorkloadPerf> = Vec::new();
    let mut failed = false;
    // The inversion proof: measure the reference layout under the
    // `soa_serial` label, so the gate sees a ~1.0x "win" and must trip.
    let soa_layout = if inject_slow { LaneLayout::Aos } else { LaneLayout::Soa };

    for name in WORKLOADS {
        let w = by_name(name).expect("workload");
        let orion = Orion::new(dev.clone(), w.block);

        // Compile: cold then warm candidate-set builds.
        cache::reset();
        let started = Instant::now();
        let compiled = orion.compile(&w.module).expect("compile");
        let cold_ms = started.elapsed().as_secs_f64() * 1e3;
        let cold = cache::stats();
        let started = Instant::now();
        let _again = orion.compile(&w.module).expect("compile");
        let warm_ms = started.elapsed().as_secs_f64() * 1e3;
        let warm = cache::stats();
        let delta = warm.delta_since(&cold);
        let (warm_hits, warm_misses) = (delta.hits, delta.misses);
        if warm_misses > 0 {
            eprintln!(
                "FAIL {name}: warm candidate-set rebuild re-allocated {warm_misses} \
                 already-realized candidate(s)"
            );
            failed = true;
        }

        // Simulate: the original candidate under the four configs.
        let v = &compiled.versions[compiled.original];
        let serial_opts = LaunchOptions {
            parallelism: 1,
            scheduler: Scheduler::LinearScan,
            layout: LaneLayout::Aos,
            ..LaunchOptions::default()
        };
        let tree_opts = LaunchOptions {
            parallelism: 1,
            scheduler: Scheduler::WinnerTree,
            layout: LaneLayout::Aos,
            ..LaunchOptions::default()
        };
        let soa_opts = LaunchOptions {
            parallelism: 1,
            scheduler: Scheduler::WinnerTree,
            layout: soa_layout,
            ..LaunchOptions::default()
        };
        let par_opts = LaunchOptions {
            parallelism: 0, // one worker per host core
            scheduler: Scheduler::WinnerTree,
            layout: LaneLayout::Soa,
            ..LaunchOptions::default()
        };
        let (serial_ms, serial_cycles) =
            time_runs(reps, &dev, &w, &v.machine, v.extra_smem, serial_opts);
        let (tree_ms, tree_cycles) = time_runs(reps, &dev, &w, &v.machine, v.extra_smem, tree_opts);
        let (soa_ms, soa_cycles) = time_runs(reps, &dev, &w, &v.machine, v.extra_smem, soa_opts);
        let (par_ms, par_cycles) = time_runs(reps, &dev, &w, &v.machine, v.extra_smem, par_opts);
        if serial_cycles != tree_cycles
            || serial_cycles != soa_cycles
            || serial_cycles != par_cycles
        {
            eprintln!(
                "FAIL {name}: configurations disagree on cycles \
                 (serial {serial_cycles}, tree {tree_cycles}, soa {soa_cycles}, \
                 parallel {par_cycles})"
            );
            failed = true;
        }

        rows.push(WorkloadPerf {
            name: name.to_string(),
            cycles: serial_cycles,
            compile_cold: CachePhase { wall_ms: cold_ms, hits: cold.hits, misses: cold.misses },
            compile_warm: CachePhase { wall_ms: warm_ms, hits: warm_hits, misses: warm_misses },
            serial: sim_config(serial_ms, serial_cycles, dev.num_sms),
            tree_serial: sim_config(tree_ms, tree_cycles, dev.num_sms),
            soa_serial: sim_config(soa_ms, soa_cycles, dev.num_sms),
            parallel: sim_config(par_ms, par_cycles, dev.num_sms),
            speedup_parallel_over_serial: serial_ms / par_ms,
            speedup_tree_over_scan: serial_ms / tree_ms,
            speedup_soa_over_tree: tree_ms / soa_ms,
        });
    }

    // The sim-throughput floor: SoA must beat the pre-SoA engine
    // (winner tree, AoS) measured in this same process and build.
    let geomean_soa = geomean(rows.iter().map(|r| r.speedup_soa_over_tree));
    let gate_passed = geomean_soa >= SIM_THROUGHPUT_FLOOR;
    if !gate_passed {
        eprintln!(
            "FAIL: geomean sim-throughput {geomean_soa:.3}x is below the \
             {SIM_THROUGHPUT_FLOOR:.2}x SoA floor (soa_serial vs tree_serial)"
        );
        failed = true;
    }

    let doc = PerfDoc {
        device: dev.name.clone(),
        num_sms: dev.num_sms,
        host_cores,
        reps,
        mode: if quick { "quick" } else { "full" }.to_string(),
        build_profile: if cfg!(debug_assertions) { "debug" } else { "release" }.to_string(),
        geomean_speedup_parallel_over_serial: geomean(
            rows.iter().map(|r| r.speedup_parallel_over_serial),
        ),
        geomean_speedup_tree_over_scan: geomean(rows.iter().map(|r| r.speedup_tree_over_scan)),
        sim_gate: SimGate {
            floor: SIM_THROUGHPUT_FLOOR,
            geomean_soa_over_tree: geomean_soa,
            passed: gate_passed,
            injected_slow: inject_slow,
        },
        warm_cache_recompiles: rows.iter().map(|r| r.compile_warm.misses).sum(),
        workloads: rows,
    };

    let mut text = format!(
        "Perf trajectory ({} SMs, {} host cores, {} rep(s), {} build)\n\
         {:<12} {:>12} {:>10} {:>10} {:>10} {:>10} {:>8} {:>8} {:>8}\n",
        dev.num_sms,
        host_cores,
        reps,
        doc.build_profile,
        "workload",
        "cycles",
        "serial",
        "tree",
        "soa",
        "par",
        "x_tree",
        "x_soa",
        "x_par",
    );
    for r in &doc.workloads {
        text.push_str(&format!(
            "{:<12} {:>12} {:>9.1}ms {:>9.1}ms {:>9.1}ms {:>9.1}ms {:>7.2}x {:>7.2}x {:>7.2}x\n",
            r.name,
            r.cycles,
            r.serial.wall_ms,
            r.tree_serial.wall_ms,
            r.soa_serial.wall_ms,
            r.parallel.wall_ms,
            r.speedup_tree_over_scan,
            r.speedup_soa_over_tree,
            r.speedup_parallel_over_serial,
        ));
    }
    text.push_str(&format!(
        "geomean speedup: tree/scan {:.2}x, soa/tree {:.2}x (floor {:.2}x: {}), \
         parallel/serial {:.2}x; warm-cache recompiles: {}\n",
        doc.geomean_speedup_tree_over_scan,
        doc.sim_gate.geomean_soa_over_tree,
        doc.sim_gate.floor,
        if doc.sim_gate.passed { "pass" } else { "FAIL" },
        doc.geomean_speedup_parallel_over_serial,
        doc.warm_cache_recompiles,
    ));

    let data = match serde_json::to_value(&doc) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("FAIL: perf doc does not serialize: {e}");
            std::process::exit(1);
        }
    };
    let fig = Figure::new("perf", text, data);
    if quick || inject_slow {
        // Smoke and inversion runs print their figures but leave the
        // committed full-run artifact alone.
        print!("{fig}");
    } else if let Err(e) = orion_bench::emit(&fig) {
        eprintln!("FAIL: {e}");
        std::process::exit(1);
    }

    if failed {
        std::process::exit(2);
    }
}
