//! The committed fixtures the output checks compare against.
//!
//! * `interp_hashes.tsv` — hash of the global image after one launch of
//!   each kernel from its initial image, computed by the `kir::interp`
//!   reference interpreter (never by the compiler under test), per grid
//!   the benchmark launches.
//! * `cycle_table.tsv` — simulated cycles of every compiled version of
//!   every kernel, recorded from the simulator; the `control-plane`
//!   backend answers launches from it.
//! * `outcome_digests.tsv` — digest of each job's simulated outcome per
//!   (workload, kernel, policy).
//! * `known_defects.tsv` — hand-written: (workload, kernel, check)
//!   triples known to fail because of an open defect in the program.
//!   Their failures still count in `failed`; they only keep `correct`
//!   true.
//!
//! `--regenerate` rebuilds the first three; the last is edited by hand.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

pub const INTERP: &str = "interp_hashes.tsv";
pub const CYCLES: &str = "cycle_table.tsv";
pub const DIGESTS: &str = "outcome_digests.tsv";
pub const KNOWN: &str = "known_defects.tsv";

/// The fixtures directory committed beside the benchmark's sources.
pub fn default_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

#[derive(Debug, Default, Clone)]
pub struct Fixtures {
    /// (kernel, grid) → interpreter output hash.
    pub interp: HashMap<(String, u32), u64>,
    /// kernel entry → version label → cycles.
    pub cycles: HashMap<String, HashMap<String, u64>>,
    /// (workload, kernel, policy) → outcome digest.
    pub digests: HashMap<(String, String, String), u64>,
    /// (workload, kernel, check) → why that check is expected to fail.
    pub known: HashMap<(String, String, String), String>,
}

fn rows(dir: &Path, file: &str, cols: usize) -> Result<Vec<Vec<String>>, String> {
    let path = dir.join(file);
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let row: Vec<String> = l.split('\t').map(str::to_string).collect();
            if row.len() == cols {
                Ok(row)
            } else {
                Err(format!("{}: expected {cols} columns in {l:?}", path.display()))
            }
        })
        .collect()
}

fn hex(s: &str) -> Result<u64, String> {
    u64::from_str_radix(s, 16).map_err(|e| format!("bad hash {s:?}: {e}"))
}

impl Fixtures {
    pub fn load(dir: &Path) -> Result<Fixtures, String> {
        let mut fx = Fixtures::default();
        for r in rows(dir, INTERP, 3)? {
            let grid = r[1].parse().map_err(|e| format!("bad grid {:?}: {e}", r[1]))?;
            fx.interp.insert((r[0].clone(), grid), hex(&r[2])?);
        }
        for r in rows(dir, CYCLES, 3)? {
            let cycles = r[2].parse().map_err(|e| format!("bad cycles {:?}: {e}", r[2]))?;
            fx.cycles.entry(r[0].clone()).or_default().insert(r[1].clone(), cycles);
        }
        for r in rows(dir, DIGESTS, 4)? {
            fx.digests.insert((r[0].clone(), r[1].clone(), r[2].clone()), hex(&r[3])?);
        }
        for r in rows(dir, KNOWN, 4)? {
            fx.known.insert((r[0].clone(), r[1].clone(), r[2].clone()), r[3].clone());
        }
        Ok(fx)
    }

    /// Write the three generated fixtures (sorted, so regeneration
    /// diffs cleanly).
    pub fn save_generated(&self, dir: &Path) -> Result<(), String> {
        let write = |file: &str, header: &str, mut lines: Vec<String>| {
            lines.sort();
            let mut text = format!("# {header}\n");
            for l in lines {
                let _ = writeln!(text, "{l}");
            }
            let path = dir.join(file);
            std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))
        };
        write(
            INTERP,
            "kernel\tgrid\tFNV-1a of the global image after one kir::interp launch",
            self.interp.iter().map(|((k, g), h)| format!("{k}\t{g}\t{h:016x}")).collect(),
        )?;
        write(
            CYCLES,
            "kernel entry\tversion label\tsimulated cycles of one launch (gtx680, parallelism 1)",
            self.cycles
                .iter()
                .flat_map(|(k, t)| t.iter().map(move |(l, c)| format!("{k}\t{l}\t{c}")))
                .collect(),
        )?;
        write(
            DIGESTS,
            "workload\tkernel\tpolicy\tdigest of (selected label, per-launch cycles, total cycles)",
            self.digests.iter().map(|((w, k, p), d)| format!("{w}\t{k}\t{p}\t{d:016x}")).collect(),
        )
    }
}
