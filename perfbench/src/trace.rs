//! In-memory span recorder for the traced run.
//!
//! Spans are opened by the benchmark around its calls into each layer
//! (never inside the program), kept in memory, and written out once
//! the run ends. A span's parent is the innermost span open on the same
//! thread when it started; self time is its duration minus the part its
//! children cover.

use std::cell::RefCell;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Job the call belongs to (the service lane, or the job index of a
    /// closed-loop client); 0 when the call serves many jobs.
    pub job: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

thread_local! {
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Records spans when on; every call is a branch and nothing else when
/// off, so the untraced run pays for no recording.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

pub struct Guard<'a> {
    tracer: &'a Tracer,
    id: Option<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer { on, t0: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn span(&self, name: &'static str, job: u32) -> Guard<'_> {
        if !self.on {
            return Guard { tracer: self, id: None };
        }
        let parent = OPEN.with(|s| s.borrow().last().copied());
        let start_ns = self.now_ns();
        let id = {
            let mut spans = self.spans.lock().expect("span buffer lock poisoned");
            spans.push(Span { name, start_ns, end_ns: start_ns, parent, job });
            spans.len() - 1
        };
        OPEN.with(|s| s.borrow_mut().push(id));
        Guard { tracer: self, id: Some(id) }
    }

    /// Every span recorded so far (borrowed: the buffer can be large).
    pub fn spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("span buffer lock poisoned")
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let Some(id) = self.id else { return };
        let end = self.tracer.now_ns();
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans[id].end_ns = end;
        }
        OPEN.with(|s| {
            let mut s = s.borrow_mut();
            if s.last() == Some(&id) {
                s.pop();
            }
        });
    }
}

/// Summed duration and summed self time (ns) of every span named
/// `name`. Children of one span run on its thread, one after another,
/// so their durations never overlap and self time is the duration
/// minus the children's sum.
pub fn totals(spans: &[Span], name: &str) -> (u64, u64) {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    spans.iter().enumerate().filter(|(_, s)| s.name == name).fold((0, 0), |(d, own), (i, s)| {
        (d + s.dur_ns(), own + s.dur_ns().saturating_sub(child_ns[i]))
    })
}

/// Durations (ns) of every span named `name`, in recording order.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans.iter().filter(|s| s.name == name).map(Span::dur_ns).collect()
}

/// Write the spans as tab-separated rows under a `#` header.
pub fn write_tsv(path: &std::path::Path, header: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "# {header}")?;
    writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\tjob")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(out, "{i}\t{}\t{}\t{}\t{parent}\t{}", s.name, s.start_ns, s.end_ns, s.job)?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new(true);
        {
            let _outer = t.span("outer", 0);
            let _inner = t.span("inner", 1);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let spans = t.spans().clone();
        assert_eq!(spans[1].parent, Some(0));
        let (dur, own) = totals(&spans, "outer");
        let (inner, _) = totals(&spans, "inner");
        assert_eq!(own, dur - inner);
        assert!(Tracer::new(false).span("x", 0).id.is_none());
    }
}
