//! The benchmark's own checks, on its short mode (a few kernels, one
//! round per workload):
//!
//! * every metric `BENCHMARK.json` declares is printed, by name and with
//!   its unit — end-to-end metrics by the untraced run, per-layer
//!   metrics by the traced run — on every workload;
//! * a corrupted interpreter hash makes a job fail and `correct` false,
//!   which proves the output check fires.
//!
//! The simulator is far too slow unoptimized; run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: [&str; 4] = ["tune-batch", "tune-one", "control-plane", "space-search"];

fn get<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Map(fields) => fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing key {key:?}")),
        _ => panic!("not an object looking up {key:?}"),
    }
}

fn text(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("not a string: {other:?}"),
    }
}

fn number(v: &Value) -> f64 {
    match *v {
        Value::F64(x) => x,
        Value::U64(x) => x as f64,
        Value::I64(x) => x as f64,
        ref other => panic!("not a number: {other:?}"),
    }
}

/// (name, unit) of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc: Value = serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    match get(&doc, list) {
        Value::Seq(items) => items
            .iter()
            .map(|m| (text(get(m, "name")).to_string(), text(get(m, "unit")).to_string()))
            .collect(),
        _ => panic!("{list} is not a list"),
    }
}

/// Run the benchmark; return its stdout and the parsed last line.
fn bench(args: &[&str]) -> (String, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--short", "--seed", "5", "--seconds", "0"])
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "{args:?} failed: {}", String::from_utf8_lossy(&out.stderr));
    let last = stdout.lines().last().expect("a result line").to_string();
    (stdout, serde_json::from_str(&last).expect("last line is JSON"))
}

fn assert_prints(workload: &str, trace: &str, list: &str) {
    let (stdout, result) = bench(&["--workload", workload, "--trace", trace]);
    let metrics = get(&result, "metrics");
    for (name, unit) in declared(list) {
        let m = get(metrics, &name);
        assert_eq!(text(get(m, "unit")), unit, "{workload}: unit of {name}");
        assert!(number(get(m, "value")).is_finite(), "{workload}: {name}");
        assert!(stdout.contains(&format!("  {name} = ")), "{workload}: {name} not printed by name");
    }
    assert!(number(get(&result, "attempted")) >= 1.0);
    assert!(stdout.contains("nproc=") && stdout.contains("rustc=") && stdout.contains("seed=5"));
}

#[test]
fn untraced_runs_print_every_end_to_end_metric() {
    for w in WORKLOADS {
        assert_prints(w, "0", "end_to_end");
    }
}

#[test]
fn traced_runs_print_every_per_layer_metric() {
    for w in WORKLOADS {
        assert_prints(w, "1", "per_layer");
    }
}

#[test]
fn a_corrupted_fixture_hash_counts_as_failed() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("corrupt-fixtures");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    for entry in std::fs::read_dir(&src).expect("fixtures dir") {
        let entry = entry.expect("fixture entry");
        std::fs::copy(entry.path(), dir.join(entry.file_name())).expect("copy fixture");
    }
    // Flip the first digit of particles' full-grid hash.
    let path = dir.join("interp_hashes.tsv");
    let table = std::fs::read_to_string(&path).expect("hash table");
    let corrupted: String = table
        .lines()
        .map(|l| match l.strip_prefix("particles\t224\t") {
            Some(h) => {
                let flipped = if h.starts_with('0') { '1' } else { '0' };
                format!("particles\t224\t{flipped}{}\n", &h[1..])
            }
            None => format!("{l}\n"),
        })
        .collect();
    assert_ne!(table, corrupted, "the particles row exists");
    std::fs::write(&path, corrupted).expect("write corrupted table");

    let (_, clean) = bench(&["--workload", "tune-batch", "--trace", "0"]);
    let dir_arg = dir.to_str().expect("utf-8 path");
    let (stdout, bad) = bench(&["--workload", "tune-batch", "--trace", "0", "--fixtures", dir_arg]);
    assert!(matches!(get(&clean, "correct"), Value::Bool(true)));
    assert!(matches!(get(&bad, "correct"), Value::Bool(false)));
    assert!(number(get(&bad, "failed")) > number(get(&clean, "failed")));
    assert!(stdout.contains("failed: particles (walk) output"));
    let share = |v: &Value| number(get(v, "failed")) / number(get(v, "attempted"));
    assert!(share(&bad) > share(&clean) && share(&bad) > 0.0);
}
