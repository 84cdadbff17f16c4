//! Smoke test at tiny sizes: every workload, untraced and traced, prints
//! every metric `BENCHMARK.json` names, with its unit, and fails no op.
//!
//! Run with `cargo test --release --manifest-path pathbench/Cargo.toml`.

use std::path::Path;
use std::process::Command;

/// `(name, unit)` of every metric object in the `section` array of
/// `BENCHMARK.json`.
fn metrics(spec: &str, section: &str) -> Vec<(String, String)> {
    let start = spec
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &spec[start..];
    let body = &body[body.find('[').expect("an array")..body.find(']').expect("a closed array")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("no {key} in {obj}"));
        let rest = &obj[at + key.len() + 2..];
        let open = rest.find('"').expect("a string value") + 1;
        let close = open + rest[open..].find('"').expect("a closed string");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn run(workload: &str, trace: bool) -> String {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let out = Command::new(env!("CARGO_BIN_EXE_pathbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", "tiny"])
        .current_dir(&dir)
        .output()
        .expect("running pathbench");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        out.status.success(),
        "{workload} exited {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn check(workload: &str) {
    let spec_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let spec = std::fs::read_to_string(&spec_path).expect("reading BENCHMARK.json");
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let stdout = run(workload, trace);
        let last = stdout.lines().last().expect("a result line");
        assert!(
            last.starts_with("{\"correct\":true,") && last.contains("\"failed\":0,"),
            "{workload}: {last}\n{stdout}"
        );
        assert!(
            stdout.contains("# fail_ratio 0 "),
            "{workload}: fail_ratio is not 0\n{stdout}"
        );
        let names = metrics(&spec, section);
        assert!(!names.is_empty());
        for (name, unit) in names {
            let key = format!("\"{name}\":{{\"value\":");
            let at = last
                .find(&key)
                .unwrap_or_else(|| panic!("{workload}: {name} not printed\n{last}"));
            let rest = &last[at + key.len()..];
            let (value, tail) = rest.split_once(',').expect("a value then a unit");
            value
                .parse::<f64>()
                .unwrap_or_else(|_| panic!("{workload}: {name} = {value} is not a number"));
            assert!(
                tail.starts_with(&format!("\"unit\":\"{unit}\"}}")),
                "{workload}: {name} is not printed in {unit}: {tail}"
            );
        }
    }
}

#[test]
fn padded() {
    check("padded");
}

#[test]
fn dense() {
    check("dense");
}

#[test]
fn deep() {
    check("deep");
}

#[test]
fn service() {
    check("service");
}
