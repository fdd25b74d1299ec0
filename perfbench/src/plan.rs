//! Workloads and the seeded job plans the program is given.
//!
//! The seed fixes the kernel order, which control-plane copies run the
//! bandit, and nothing else: every plan of one workload holds the same
//! multiset of jobs, so runs under different seeds do the same work in
//! a different order and their timings stay comparable.

use crate::stats::Rng;
use orion_core::compiler::TuningConfig;
use orion_core::policy::{BanditConfig, PolicyKind};
use orion_core::service::{JobPolicy, KernelJob};
use orion_core::splitting::SplitConfig;
use orion_gpusim::device::DeviceSpec;
use orion_gpusim::exec::Launch;
use orion_workloads::Workload;

/// Copies of each kernel in one control-plane batch; half run the
/// bandit.
pub const CONTROL_COPIES: usize = 16;
/// Application iterations of every control-plane job.
pub const CONTROL_ITERATIONS: u32 = 4096;
/// Kernels of the short mode's service workloads.
pub const SHORT_KERNELS: [&str; 3] = ["particles", "backprop", "gaussian"];
/// Kernels of the short mode's space search.
pub const SHORT_SPACE: [&str; 2] = ["gaussian", "bfs"];
/// Control-plane copies per kernel in short mode.
pub const SHORT_COPIES: usize = 2;

/// The modelled device of every workload.
pub fn device() -> DeviceSpec {
    DeviceSpec::gtx680()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    TuneBatch,
    TuneOne,
    ControlPlane,
    SpaceSearch,
}

impl Kind {
    pub const ALL: [Kind; 4] =
        [Kind::TuneBatch, Kind::TuneOne, Kind::ControlPlane, Kind::SpaceSearch];

    pub fn name(self) -> &'static str {
        match self {
            Kind::TuneBatch => "tune-batch",
            Kind::TuneOne => "tune-one",
            Kind::ControlPlane => "control-plane",
            Kind::SpaceSearch => "space-search",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Host seconds one round takes on the reference host (2 cores,
    /// release build). A run makes as many whole rounds as fit in
    /// `seconds` on that host, so every run of a workload does the same
    /// work and yields the same number of samples whatever the host's
    /// speed or noise.
    pub fn reference_round_s(self) -> f64 {
        match self {
            Kind::TuneBatch => 8.3,
            Kind::TuneOne => 16.0,
            Kind::ControlPlane => 0.86,
            Kind::SpaceSearch => 13.6,
        }
    }

    /// Rounds a run of `seconds` makes (at least one).
    pub fn rounds_for(self, seconds: f64) -> usize {
        ((seconds / self.reference_round_s()).floor() as usize).max(1)
    }

    /// Whether launches run on the simulator (every workload but the
    /// cycle-table one).
    pub fn simulates(self) -> bool {
        self != Kind::ControlPlane
    }
}

/// One generated job: which kernel, under which search policy.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    /// Index into the workload list.
    pub kernel: usize,
    pub bandit: bool,
}

impl Job {
    pub fn policy_name(self) -> &'static str {
        if self.bandit {
            "bandit"
        } else {
            "walk"
        }
    }
}

pub struct Plan {
    pub jobs: Vec<Job>,
}

impl Plan {
    pub fn new(kind: Kind, seed: u64, short: bool, workloads: &[Workload]) -> Plan {
        let pick = |names: &[&str]| -> Vec<usize> {
            names.iter().filter_map(|n| workloads.iter().position(|w| w.name == *n)).collect()
        };
        let kernels: Vec<usize> = match (short, kind) {
            (false, _) => (0..workloads.len()).collect(),
            (true, Kind::SpaceSearch) => pick(&SHORT_SPACE),
            (true, _) => pick(&SHORT_KERNELS),
        };
        let mut jobs: Vec<Job> = match kind {
            Kind::ControlPlane => {
                let copies = if short { SHORT_COPIES } else { CONTROL_COPIES };
                kernels
                    .iter()
                    .flat_map(|&k| (0..copies).map(move |c| Job { kernel: k, bandit: c % 2 == 1 }))
                    .collect()
            }
            // Every space search runs the bandit.
            Kind::SpaceSearch => kernels.iter().map(|&k| Job { kernel: k, bandit: true }).collect(),
            _ => kernels.iter().map(|&k| Job { kernel: k, bandit: false }).collect(),
        };
        let mut rng = Rng::new(seed);
        rng.shuffle(&mut jobs);
        Plan { jobs }
    }
}

/// Compile-time configuration of a kernel at its own `can_tune`.
pub fn tuning(w: &Workload) -> TuningConfig {
    TuningConfig { can_tune: w.can_tune, ..TuningConfig::new(w.block) }
}

/// The bandit every bandit job and every space search runs.
pub fn bandit() -> PolicyKind {
    PolicyKind::Bandit(BanditConfig::default())
}

/// The service job for `job` in workload `kind`.
pub fn kernel_job(kind: Kind, w: &Workload, job: Job) -> KernelJob {
    let control = kind == Kind::ControlPlane;
    KernelJob {
        name: w.name.to_string(),
        module: w.module.clone(),
        launch: w.launch(),
        params: w.params.clone(),
        // The cycle table never reads memory, so control-plane jobs
        // carry no image.
        global: if control { Vec::new() } else { w.init_global.clone() },
        iterations: if control { CONTROL_ITERATIONS } else { w.iterations },
        tuning: tuning(w),
        policy: JobPolicy { search: job.bandit.then(bandit), ..JobPolicy::default() },
    }
}

/// The space search's launch: the kernel's grid capped at one block
/// per SM per split piece, the smallest grid whose split arms exist.
pub fn space_launch(w: &Workload, dev: &DeviceSpec) -> Launch {
    let cap = dev.num_sms * SplitConfig::default().pieces;
    Launch { grid: w.grid.min(cap), block: w.block }
}
