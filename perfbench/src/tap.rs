//! Bench-side backends.
//!
//! * [`Tap`] wraps the backend a service runs on and delegates every
//!   call, recording spans around them (traced run only), counting
//!   launches and simulated cycles, and hashing the global image each
//!   job's first launch hands back, so outputs are checked at the
//!   `AsyncBackend` boundary without touching the program.
//! * [`TableBackend`] compiles for real and answers launches from the
//!   committed cycle table, so the simulator does no work at all.

use crate::stats::hash_bytes;
use crate::trace::Tracer;
use orion_core::backend::{
    AsyncBackend, Backend, BackendCaps, Completion, LaunchRequest, TicketId,
};
use orion_core::compiler::{compile, CompiledKernel, KernelVersion, TuningConfig};
use orion_core::error::OrionError;
use orion_gpusim::device::DeviceSpec;
use orion_gpusim::exec::Launch;
use orion_gpusim::sim::LaunchOptions;
use orion_kir::function::Module;
use std::collections::{HashMap, HashSet};
use std::sync::Mutex;
use std::time::Instant;

/// What one `compile_probe` call produced, in call order. The service
/// compiles in submission order, so entry `i` belongs to job `i`.
#[derive(Debug, Clone)]
pub struct Compiled {
    pub labels: Vec<String>,
    pub original: usize,
    /// The whole candidate set, kept only when the tap keeps detail
    /// (the traced run relaunches versions and rebuilds policies).
    pub kernel: Option<CompiledKernel>,
}

/// Everything the tap observed since it was last drained.
#[derive(Debug, Default)]
pub struct TapState {
    pub compiled: Vec<Compiled>,
    pub launches: u64,
    pub sim_cycles: u64,
    pub failed_launches: u64,
    pub exec_us: u64,
    pub queue_us: u64,
    /// Per-launch execution times, kept only with detail on (the traced
    /// run's median); a long untraced run would pile them up.
    pub exec_samples_us: Vec<u64>,
    /// Lane → hash of the global image its first launch returned.
    pub first_hash: HashMap<u32, u64>,
    /// Lane → when its last completion was delivered.
    pub last_done: HashMap<u32, Instant>,
    tickets: HashMap<TicketId, (u32, bool)>,
    seen: HashSet<u32>,
}

pub struct Tap<'t, B: AsyncBackend> {
    inner: B,
    tracer: &'t Tracer,
    keep: bool,
    state: Mutex<TapState>,
}

impl<'t, B: AsyncBackend> Tap<'t, B> {
    /// `keep`: also keep each candidate set and every launch's
    /// execution time, for the traced run's per-layer figures.
    pub fn new(inner: B, tracer: &'t Tracer, keep: bool) -> Self {
        Tap { inner, tracer, keep, state: Mutex::new(TapState::default()) }
    }

    fn state(&self) -> std::sync::MutexGuard<'_, TapState> {
        self.state.lock().expect("tap state lock poisoned")
    }

    /// Hand back everything observed so far and start afresh.
    pub fn drain(&self) -> TapState {
        std::mem::take(&mut *self.state())
    }

    fn retire(&self, completions: &[Completion]) {
        let now = Instant::now();
        let mut st = self.state();
        for c in completions {
            let (lane, first) = st.tickets.remove(&c.ticket).unwrap_or((0, false));
            match c.result {
                Ok(cycles) => st.sim_cycles += cycles,
                Err(_) => st.failed_launches += 1,
            }
            st.exec_us += c.exec_us;
            st.queue_us += c.queue_wait_us;
            if self.keep {
                st.exec_samples_us.push(c.exec_us);
            }
            if first {
                st.first_hash.insert(lane, hash_bytes(&c.global));
            }
            st.last_done.insert(lane, now);
        }
    }
}

impl<B: AsyncBackend> Backend for Tap<'_, B> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn device_spec(&self) -> &DeviceSpec {
        self.inner.device_spec()
    }

    fn caps(&self) -> BackendCaps {
        self.inner.caps()
    }

    fn compile_probe(
        &self,
        module: &Module,
        cfg: &TuningConfig,
    ) -> Result<CompiledKernel, OrionError> {
        let job = self.state().compiled.len() as u32 + 1;
        let out = {
            let _span = self.tracer.span("backend.compile_probe", job);
            self.inner.compile_probe(module, cfg)
        };
        let entry = match &out {
            Ok(ck) => Compiled {
                labels: ck.versions.iter().map(|v| v.label.clone()).collect(),
                original: ck.original,
                kernel: self.keep.then(|| ck.clone()),
            },
            Err(_) => Compiled { labels: Vec::new(), original: 0, kernel: None },
        };
        self.state().compiled.push(entry);
        out
    }

    fn launch(
        &self,
        version: &KernelVersion,
        launch: Launch,
        params: &[u32],
        global: &mut [u8],
        opts: LaunchOptions,
    ) -> Result<u64, OrionError> {
        let out = {
            let _span = self.tracer.span("backend.launch", 0);
            self.inner.launch(version, launch, params, global, opts)
        };
        let mut st = self.state();
        st.launches += 1;
        match out {
            Ok(c) => st.sim_cycles += c,
            Err(_) => st.failed_launches += 1,
        }
        out
    }
}

impl<B: AsyncBackend> AsyncBackend for Tap<'_, B> {
    fn submit(&self, req: LaunchRequest) -> TicketId {
        let lane = req.lane;
        // Registered before the inner submit: an inline backend retires
        // the launch during the call.
        let first = {
            let mut st = self.state();
            st.launches += 1;
            st.seen.insert(lane)
        };
        let ticket = {
            let _span = self.tracer.span("backend.submit", lane);
            self.inner.submit(req)
        };
        self.state().tickets.insert(ticket, (lane, first));
        ticket
    }

    fn poll_completions(&self) -> Vec<Completion> {
        let out = {
            let _span = self.tracer.span("backend.poll", 0);
            self.inner.poll_completions()
        };
        self.retire(&out);
        out
    }

    fn wait_completions(&self) -> Vec<Completion> {
        let out = {
            let _span = self.tracer.span("backend.wait", 0);
            self.inner.wait_completions()
        };
        self.retire(&out);
        out
    }

    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }

    fn configure_pool(&self, workers: usize) {
        self.inner.configure_pool(workers);
    }
}

/// Name of a version's kernel entry function (cycle-table key).
pub fn entry_name(v: &KernelVersion) -> &str {
    v.machine.funcs.get(v.machine.entry.0 as usize).map_or("", |f| f.name.as_str())
}

/// Compiles for real; answers each launch with the simulated cycles
/// recorded for its (kernel entry, version label) in the cycle table.
/// Global memory is left untouched.
pub struct TableBackend {
    dev: DeviceSpec,
    table: HashMap<String, HashMap<String, u64>>,
}

impl TableBackend {
    pub fn new(dev: DeviceSpec, table: HashMap<String, HashMap<String, u64>>) -> Self {
        TableBackend { dev, table }
    }
}

impl Backend for TableBackend {
    fn name(&self) -> &'static str {
        "cycle-table"
    }

    fn device_spec(&self) -> &DeviceSpec {
        &self.dev
    }

    fn caps(&self) -> BackendCaps {
        BackendCaps { deterministic: true, supports_splitting: false, faulty: false }
    }

    fn compile_probe(
        &self,
        module: &Module,
        cfg: &TuningConfig,
    ) -> Result<CompiledKernel, OrionError> {
        compile(module, &self.dev, cfg)
    }

    fn launch(
        &self,
        version: &KernelVersion,
        _launch: Launch,
        _params: &[u32],
        _global: &mut [u8],
        _opts: LaunchOptions,
    ) -> Result<u64, OrionError> {
        let kernel = entry_name(version);
        self.table.get(kernel).and_then(|t| t.get(&version.label)).copied().ok_or_else(|| {
            OrionError::Tuner(format!("no cycle-table entry for {kernel}/{}", version.label))
        })
    }
}
