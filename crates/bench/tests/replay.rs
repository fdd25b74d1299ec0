//! Fixed-point replay in the service.
//!
//! A launch that leaves its job's global image byte-identical is a
//! fixed point: relaunching the same version on that image would
//! reproduce its cycles and image exactly, so the service answers the
//! relaunch from its per-job table instead of simulating it again.
//! These tests pin that replay changes nothing a session can observe:
//! the same batch through a replaying `SimBackend` and through
//! `InlineAsync` (which never claims a fixed point, so every launch is
//! simulated) yields identical outcomes and cycle-domain histograms,
//! with or without a service chaos plan.

use orion_core::backend::{AsyncBackend, InlineAsync, SimBackend};
use orion_core::compiler::TuningConfig;
use orion_core::service::{JobPolicy, KernelJob, OrionService, ServiceConfig, ServiceReport};
use orion_gpusim::device::DeviceSpec;
use orion_gpusim::faults::{FaultInjector, FaultPlan, ServiceFaultPlan};
use orion_workloads::by_name;

/// matrixMul finalizes early and then reruns its selected version on
/// an image that version leaves unchanged; the other three change their
/// image on every launch.
const KERNELS: [&str; 4] = ["matrixMul", "gaussian", "FDTD3d", "recursiveGaussian"];

fn jobs() -> Vec<KernelJob> {
    KERNELS
        .iter()
        .map(|&name| {
            let w = by_name(name).expect("workload exists");
            KernelJob {
                name: w.name.to_string(),
                module: w.module.clone(),
                launch: w.launch(),
                params: w.params.clone(),
                global: w.init_global.clone(),
                iterations: w.iterations,
                tuning: TuningConfig { can_tune: w.can_tune, ..TuningConfig::new(w.block) },
                policy: JobPolicy::default(),
            }
        })
        .collect()
}

fn run<B: AsyncBackend>(backend: B, cfg: ServiceConfig) -> ServiceReport {
    OrionService::new(backend, cfg).run(jobs())
}

fn assert_same_outcomes(replayed: &ServiceReport, simulated: &ServiceReport) {
    for (a, b) in replayed.kernels.iter().zip(&simulated.kernels) {
        assert_eq!(a.disposition, b.disposition, "{}: disposition", a.name);
        match (&a.outcome, &b.outcome) {
            (Ok(x), Ok(y)) => assert_eq!(x, y, "{}: session outcome", a.name),
            (x, y) => assert_eq!(format!("{x:?}"), format!("{y:?}"), "{}: error", a.name),
        }
        assert_eq!(a.metrics.cycle_domain(), b.metrics.cycle_domain(), "{}: histograms", a.name);
        assert_eq!(b.metrics.replayed_launches, 0, "{}: InlineAsync never replays", b.name);
    }
}

fn replayed(report: &ServiceReport, name: &str) -> u64 {
    report
        .kernels
        .iter()
        .find(|k| k.name == name)
        .expect("kernel in batch")
        .metrics
        .replayed_launches
}

fn config() -> ServiceConfig {
    ServiceConfig { workers: 2, policy: None, ..ServiceConfig::default() }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "simulates four whole tuning runs; run with --release")]
fn replay_matches_simulating_every_launch() {
    let dev = DeviceSpec::gtx680();
    let fast = run(SimBackend::new(dev.clone()), config());
    let slow = run(InlineAsync::new(SimBackend::new(dev)), config());
    assert_same_outcomes(&fast, &slow);
    assert!(replayed(&fast, "matrixMul") > 0, "matrixMul reruns a fixed point");
    for name in ["gaussian", "FDTD3d", "recursiveGaussian"] {
        assert_eq!(replayed(&fast, name), 0, "{name} changes its image on every launch");
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "simulates four whole tuning runs; run with --release")]
fn replay_keeps_service_chaos_outcomes() {
    let dev = DeviceSpec::gtx680();
    // Resilient sessions, so injected launch faults are retried rather
    // than fatal and the walks still reach their fixed points.
    let cfg = ServiceConfig {
        workers: 2,
        chaos: Some(ServiceFaultPlan::chaos(11, 0.2, 0.0)),
        ..ServiceConfig::default()
    };
    let fast = run(SimBackend::new(dev.clone()), cfg);
    let slow = run(InlineAsync::new(SimBackend::new(dev)), cfg);
    assert_same_outcomes(&fast, &slow);
    assert!(replayed(&fast, "matrixMul") > 0, "matrixMul reruns a fixed point under chaos");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "simulates four whole tuning runs; run with --release")]
fn a_fault_injected_backend_never_replays() {
    let dev = DeviceSpec::gtx680();
    // A quiet plan: the injector draws but injects nothing, so only its
    // presence can stop replay.
    let backend = SimBackend::with_injector(dev, FaultInjector::new(FaultPlan::none(3)));
    let report = run(backend, config());
    for k in &report.kernels {
        assert_eq!(k.metrics.replayed_launches, 0, "{}: injected backend replayed", k.name);
    }
}
