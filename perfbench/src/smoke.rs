//! `perfbench --smoke`: a self-test of the benchmark, run from the root
//! of a checkout.
//!
//! Every workload runs briefly on small inputs, untraced and traced;
//! each run must pass its answer checks and print exactly the metrics
//! `BENCHMARK.json` declares, each with its declared unit, plus the
//! per-workload end-to-end lines, and no run may print a `FLAG:` line.
//! Then runs with deliberately corrupted expected answers must fail, and
//! each must show which check caught the corruption.

use crate::WORKLOADS;
use dod_wire::{parse_json, JsonValue};
use std::process::Command;

/// The per-workload report lines every untraced run must print.
fn report_lines(workload: &str) -> &'static [&'static str] {
    if workload == "query-deep" {
        &[
            "setup_s",
            "query_qps",
            "query_p50_ms",
            "query_p95_ms",
            "error_rate",
            "peak_rss_mb",
        ]
    } else {
        &[
            "setup_s",
            "ingest_points_per_s",
            "ingest_p50_ms",
            "ingest_p99_ms",
            "report_p50_ms",
            "report_p99_ms",
            "error_rate",
            "peak_rss_mb",
        ]
    }
}

/// Declared `(name, unit)` pairs of one metric list in BENCHMARK.json.
fn declared(doc: &JsonValue, key: &str) -> Result<Vec<(String, String)>, String> {
    doc.get(key)
        .and_then(JsonValue::as_arr)
        .ok_or(format!("BENCHMARK.json has no {key} list"))?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(JsonValue::as_str);
            let unit = m.get("unit").and_then(JsonValue::as_str);
            match (name, unit) {
                (Some(n), Some(u)) => Ok((n.to_string(), u.to_string())),
                _ => Err(format!("a {key} entry lacks a name or unit")),
            }
        })
        .collect()
}

/// Runs the benchmark on one workload; (exit code, stdout).
fn invoke(workload: &str, trace: bool, corrupt: bool) -> Result<(i32, String), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "1",
        "--tiny",
    ])
    .args(["--trace", if trace { "1" } else { "0" }]);
    if corrupt {
        cmd.arg("--corrupt-expected");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("running {workload}: {e}"))?;
    Ok((
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    ))
}

fn result_of(stdout: &str) -> Result<JsonValue, String> {
    let last = stdout.lines().last().ok_or("no output")?;
    parse_json(last).map_err(|e| format!("last line is not JSON ({e}): {last}"))
}

fn check_run(workload: &str, trace: bool, want: &[(String, String)]) -> Result<(), String> {
    let (code, stdout) = invoke(workload, trace, false)?;
    if code != 0 {
        return Err(format!("exited {code}:\n{stdout}"));
    }
    if let Some(flag) = stdout.lines().find(|l| l.contains("FLAG:")) {
        return Err(format!("flagged: {flag}"));
    }
    let result = result_of(&stdout)?;
    if result.get("correct").and_then(JsonValue::as_bool) != Some(true) {
        return Err("result is not correct".into());
    }
    let Some(JsonValue::Obj(metrics)) = result.get("metrics") else {
        return Err("result has no metrics object".into());
    };
    if metrics.len() != want.len() {
        return Err(format!(
            "{} metrics printed, {} declared",
            metrics.len(),
            want.len()
        ));
    }
    for (name, unit) in want {
        let printed = metrics.iter().find(|(n, _)| n == name).map(|(_, v)| v);
        let printed_unit = printed
            .and_then(|v| v.get("unit"))
            .and_then(JsonValue::as_str);
        if printed
            .and_then(|v| v.get("value"))
            .and_then(JsonValue::as_f64)
            .is_none()
            || printed_unit != Some(unit)
        {
            return Err(format!(
                "metric {name} missing, not a number, or not in {unit}"
            ));
        }
    }
    if !trace {
        for line in report_lines(workload) {
            if !stdout
                .lines()
                .any(|l| l.split_whitespace().next() == Some(line))
            {
                return Err(format!("report line {line} missing"));
            }
        }
    }
    Ok(())
}

/// A run with corrupted expected answers must exit nonzero, report
/// itself incorrect, and print `evidence`, if given: the line of the
/// check that is meant to catch it.
fn check_corrupt(workload: &str, trace: bool, evidence: Option<&str>) -> Result<(), String> {
    let (code, stdout) = invoke(workload, trace, true)?;
    if code == 0 {
        return Err("a corrupted expected answer still exited 0".into());
    }
    if result_of(&stdout)?
        .get("correct")
        .and_then(JsonValue::as_bool)
        != Some(false)
    {
        return Err("a corrupted expected answer was not reported as incorrect".into());
    }
    match evidence {
        Some(line) if !stdout.contains(line) => Err(format!("no {line:?} line")),
        _ => Ok(()),
    }
}

pub fn run() -> i32 {
    let doc = match std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json: {e}"))
        .and_then(|s| parse_json(&s))
    {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("smoke: {e}");
            return 1;
        }
    };
    let (end_to_end, per_layer) = match (declared(&doc, "end_to_end"), declared(&doc, "per_layer"))
    {
        (Ok(e), Ok(p)) => (e, p),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("smoke: {e}");
            return 1;
        }
    };
    let mut failures = 0;
    let mut report = |what: String, result: Result<(), String>| match result {
        Ok(()) => println!("PASS {what}"),
        Err(e) => {
            failures += 1;
            println!("FAIL {what}: {e}");
        }
    };
    for w in WORKLOADS {
        report(format!("{w} untraced"), check_run(w, false, &end_to_end));
        report(format!("{w} traced"), check_run(w, true, &per_layer));
    }
    // Measured answers (the per-report twin comparison on the ingest
    // workloads), and on query-deep the traced run's count-repeat check.
    let twin = Some("reports differ from the in-process twin");
    for (w, trace, evidence) in [
        ("query-deep", false, None),
        ("query-deep", true, Some("FLAG: counts differ")),
        ("ingest-window", false, twin),
    ] {
        let mode = if trace { "traced" } else { "untraced" };
        report(
            format!("{w} {mode} corrupted expected answer fails"),
            check_corrupt(w, trace, evidence),
        );
    }
    i32::from(failures > 0)
}
