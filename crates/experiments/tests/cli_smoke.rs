//! Smoke tests of the `experiments` CLI binary.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
}

#[test]
fn usage_on_no_args() {
    let out = bin().output().expect("run");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage:"), "{err}");
}

/// An unknown name is a usage error, and so are the retired
/// `megaflow` and `soak` commands.
#[test]
fn unknown_artefact_is_usage_error() {
    for name in ["fig99", "megaflow", "soak"] {
        let out = bin().arg(name).output().expect("run");
        assert_eq!(out.status.code(), Some(2), "{name}");
    }
}

#[test]
fn scenario_inspector_succeeds() {
    let out = bin()
        .args(["scenario", "--seed", "5"])
        .output()
        .expect("run");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Scenario inspection"), "{stdout}");
    assert!(stdout.contains("Berlin"), "{stdout}");
}

#[test]
fn fig1_passes_and_writes_csv() {
    let dir = std::env::temp_dir().join(format!("ir_cli_smoke_{}", std::process::id()));
    let out = bin()
        .args(["fig1", "--seed", "2007", "--csv"])
        .arg(&dir)
        .output()
        .expect("run");
    assert!(
        out.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dir.join("fig1_histogram.csv").exists());
    std::fs::remove_dir_all(&dir).ok();
}

/// The quick measurement study records more events than the trace ring
/// keeps, and stderr says how many it dropped.
#[test]
fn trace_reports_its_dropped_events() {
    let path = std::env::temp_dir().join(format!("ir_cli_trace_{}.json", std::process::id()));
    let out = bin()
        .args(["fig1", "--scale", "quick", "--trace"])
        .arg(&path)
        .output()
        .expect("run");
    std::fs::remove_file(&path).ok();
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    let line = err
        .lines()
        .find(|l| l.starts_with("wrote 65536 trace events to "))
        .unwrap_or_else(|| panic!("no trace line in {err}"));
    let dropped: u64 = line
        .rsplit_once(" (")
        .and_then(|(_, tail)| tail.strip_suffix(" older events dropped)"))
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no dropped count in {line:?}"));
    assert!(dropped > 0, "{line}");
}

#[test]
fn bad_cal_file_is_rejected_with_line_number() {
    let path = std::env::temp_dir().join(format!("ir_bad_cal_{}.txt", std::process::id()));
    std::fs::write(&path, "frac_high = banana\n").unwrap();
    let out = bin()
        .args(["fig1", "--cal"])
        .arg(&path)
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line 1"), "{err}");
    std::fs::remove_file(&path).ok();
}

/// Every artefact of the plan is a command of the binary (it runs, it
/// prints its report, it does not exit with the usage code) and is
/// listed by the usage text and README.md — the names come from the
/// plan, so an artefact added there cannot be missing here.
#[test]
fn every_plan_artefact_is_a_command_and_in_usage() {
    use ir_experiments::{sweep, Scale};
    let usage = String::from_utf8(bin().output().expect("run").stderr).unwrap();
    let listed: Vec<&str> = usage.split_whitespace().collect();
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
        .expect("README.md at the workspace root");
    let readme: Vec<&str> = readme.split(|c: char| !c.is_ascii_alphanumeric()).collect();
    let plan = sweep::full_plan(2007, Scale::Quick, None, None, None);
    for artefact in &plan.artefacts {
        let name = artefact.name.as_str();
        assert!(
            listed.contains(&name),
            "{name} missing from usage:\n{usage}"
        );
        assert!(readme.contains(&name), "{name} missing from README.md");
        let out = bin()
            .args([name, "--scale", "quick", "--seed", "2007"])
            .output()
            .expect("run");
        assert_ne!(out.status.code(), Some(2), "{name} is not a command");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("paper vs measured"), "{name}: {stdout}");
    }
    for command in [
        "measurement",
        "selection",
        "all",
        "sweep",
        "scenario",
        "robustness",
        "cache-gc",
    ] {
        assert!(listed.contains(&command), "{command} missing from usage");
    }
}

/// One driver: `experiments measurement` prints exactly the nine texts
/// the sweep plan renders for the measurement study, in plan order.
#[test]
fn measurement_stdout_is_the_nine_sweep_texts() {
    use ir_experiments::{sweep, Scale};
    let plan = sweep::full_plan(2007, Scale::Quick, None, None, None)
        .select("measurement")
        .expect("a group of the plan");
    let report = sweep::run_sweep(plan, None, None, None).unwrap();
    assert_eq!(report.artefacts.len(), 9);
    assert_eq!(report.studies_executed(), 1);
    let expected: String = report
        .artefacts
        .iter()
        .map(|a| format!("{}\n\n", a.output.text))
        .collect();
    let out = bin()
        .args(["measurement", "--scale", "quick", "--seed", "2007"])
        .output()
        .expect("run");
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout), expected);
}
