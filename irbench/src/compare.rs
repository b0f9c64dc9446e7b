//! `irbench compare A.jsonl B.jsonl`: the relative change of every
//! (workload, end-to-end metric) median from A to B against the bound
//! `BENCHMARK.json` fixes, and an exact-match check of the digests and
//! counts of every (workload, seed, pass) both files hold. Exits
//! non-zero when a metric is worse by more than its bound, a value that
//! must repeat differs, or a run was not correct.

use crate::json::{parse, Value};
use crate::stats::{iqr_spread, median};
use std::collections::BTreeMap;

/// Direction and bound of one end-to-end metric.
struct Gate {
    higher_is_better: bool,
    bound: f64,
}

#[derive(Default)]
struct ResultFile {
    /// (workload, metric) → values over the file's untraced runs.
    values: BTreeMap<(String, String), Vec<f64>>,
    /// (workload, seed, pass) → the values that must repeat exactly.
    exact: BTreeMap<(String, u64, u64), BTreeMap<String, String>>,
    incorrect: Vec<String>,
}

fn load_results(text: &str) -> Result<ResultFile, String> {
    let mut file = ResultFile::default();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("line {}: {what}", i + 1);
        let v = parse(line).map_err(|e| bad(&e))?;
        let workload = v
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("no workload"))?
            .to_string();
        let num = |k: &str| v.get(k).and_then(Value::as_f64).ok_or_else(|| bad(k));
        let (seed, pass) = (num("seed")? as u64, num("trace")? as u64);
        let result = v.get("result").ok_or_else(|| bad("no result"))?;
        if result.get("correct") != Some(&Value::Bool(true)) {
            file.incorrect
                .push(format!("{workload} seed {seed} pass {pass}"));
        }
        let exact = v
            .get("exact")
            .and_then(Value::as_obj)
            .ok_or_else(|| bad("no exact"))?;
        let exact: BTreeMap<String, String> = exact
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
            .collect();
        // A later run of the same (workload, seed, pass) must agree
        // with the earlier one inside one file, too.
        if let Some(prev) = file.exact.get(&(workload.clone(), seed, pass)) {
            if *prev != exact {
                file.incorrect.push(format!(
                    "{workload} seed {seed} pass {pass}: exact values differ between runs"
                ));
            }
        }
        file.exact.insert((workload.clone(), seed, pass), exact);
        if pass != 0 {
            continue;
        }
        let metrics = result
            .get("metrics")
            .and_then(Value::as_obj)
            .ok_or_else(|| bad("no metrics"))?;
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| bad(name))?;
            file.values
                .entry((workload.clone(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(file)
}

fn load_gates(text: &str) -> Result<BTreeMap<String, Gate>, String> {
    let doc = parse(text)?;
    let list = doc
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    list.iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Value::as_str);
            let name = s("name").ok_or("BENCHMARK.json: metric without a name")?;
            let higher_is_better = match s("better") {
                Some("higher") => true,
                Some("lower") => false,
                _ => return Err(format!("BENCHMARK.json: {name}: bad `better`")),
            };
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("BENCHMARK.json: {name}: no bound"))?;
            Ok((
                name.to_string(),
                Gate {
                    higher_is_better,
                    bound,
                },
            ))
        })
        .collect()
}

/// By what share of `a` the value `b` is worse (negative = better).
fn worsening(gate: &Gate, a: f64, b: f64) -> f64 {
    if gate.higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// The report lines and whether B passes against A.
fn compare(gates: &BTreeMap<String, Gate>, a: &ResultFile, b: &ResultFile) -> (Vec<String>, bool) {
    let mut lines = Vec::new();
    let mut pass = true;
    for (file, name) in [(a, "A"), (b, "B")] {
        for run in &file.incorrect {
            lines.push(format!("FAIL  {name}: run not correct: {run}"));
            pass = false;
        }
    }
    for ((workload, metric), av) in &a.values {
        let Some(bv) = b.values.get(&(workload.clone(), metric.clone())) else {
            lines.push(format!("FAIL  {metric}@{workload}: missing from B"));
            pass = false;
            continue;
        };
        let Some(gate) = gates.get(metric) else {
            continue;
        };
        let (ma, mb) = (median(av), median(bv));
        let worse = worsening(gate, ma, mb);
        let ok = worse <= gate.bound;
        pass &= ok;
        // A spread wider than the bound leaves the verdict unresolved
        // rather than passed; it is reported, not failed.
        let spread = |xs: &[f64]| iqr_spread(xs).map_or(0.0, |s| s * 100.0);
        let resolved = spread(av).max(spread(bv)) <= gate.bound * 100.0;
        lines.push(format!(
            "{}  {metric}@{workload}: {ma:.4} -> {mb:.4} ({:+.1} % worse, bound {:.0} %, \
             spread {:.1} % / {:.1} %, n = {}/{}){}",
            if ok { "ok  " } else { "FAIL" },
            worse * 100.0,
            gate.bound * 100.0,
            spread(av),
            spread(bv),
            av.len(),
            bv.len(),
            if resolved {
                ""
            } else {
                "  [unresolved: spread wider than bound]"
            }
        ));
    }
    for (key, ea) in &a.exact {
        let Some(eb) = b.exact.get(key) else {
            continue;
        };
        for (name, va) in ea {
            match eb.get(name) {
                Some(vb) if vb == va => {}
                other => {
                    lines.push(format!(
                        "FAIL  exact {name}@{} seed {}: {va} -> {}",
                        key.0,
                        key.1,
                        other.map_or("missing", String::as_str)
                    ));
                    pass = false;
                }
            }
        }
    }
    (lines, pass)
}

pub fn main(args: &[String]) -> i32 {
    let (files, benchmark) = match args {
        [a, b] => ([a, b], "BENCHMARK.json"),
        [a, b, flag, path] if flag == "--benchmark" => ([a, b], path.as_str()),
        _ => {
            eprintln!("usage: irbench compare A.jsonl B.jsonl [--benchmark BENCHMARK.json]");
            return 2;
        }
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let loaded = (|| {
        let gates = load_gates(&read(benchmark)?)?;
        let a = load_results(&read(files[0])?).map_err(|e| format!("{}: {e}", files[0]))?;
        let b = load_results(&read(files[1])?).map_err(|e| format!("{}: {e}", files[1]))?;
        Ok::<_, String>((gates, a, b))
    })();
    let (gates, a, b) = match loaded {
        Ok(l) => l,
        Err(e) => {
            eprintln!("irbench compare: {e}");
            return 2;
        }
    };
    let (lines, pass) = compare(&gates, &a, &b);
    for l in &lines {
        println!("{l}");
    }
    println!(
        "{}",
        if pass {
            "compare: within bounds"
        } else {
            "compare: FAILED"
        }
    );
    i32::from(!pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCH: &str = r#"{"end_to_end": [
        {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#;

    fn line(seed: u64, p50: f64, rate: f64, digest: &str, correct: bool) -> String {
        format!(
            "{{\"workload\": \"w\", \"seed\": {seed}, \"trace\": 0, \"exact\": {{\"d\": \"{digest}\"}}, \
             \"result\": {{\"correct\": {correct}, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {{\"op_p50_ms\": {{\"value\": {p50}, \"unit\": \"ms\"}}, \
             \"ops_per_s\": {{\"value\": {rate}, \"unit\": \"1/s\"}}}}}}}}\n"
        )
    }

    fn verdict(a: &str, b: &str) -> bool {
        let gates = load_gates(BENCH).unwrap();
        compare(&gates, &load_results(a).unwrap(), &load_results(b).unwrap()).1
    }

    #[test]
    fn medians_within_the_bound_pass_in_either_direction() {
        let a = line(1, 10.0, 100.0, "x", true) + &line(2, 12.0, 90.0, "y", true);
        let b = line(1, 10.9, 91.0, "x", true) + &line(2, 13.0, 86.0, "y", true);
        // 11.0 -> 11.95 (+8.6 %), 95 -> 88.5 (-6.8 %).
        assert!(verdict(&a, &b));
        assert!(verdict(&b, &a));
    }

    #[test]
    fn a_worse_median_beyond_the_bound_fails() {
        let a = line(1, 10.0, 100.0, "x", true);
        assert!(!verdict(&a, &line(1, 11.5, 100.0, "x", true)), "slower");
        assert!(!verdict(&a, &line(1, 10.0, 85.0, "x", true)), "lower rate");
        // Better by any amount is not a regression.
        assert!(verdict(&a, &line(1, 5.0, 300.0, "x", true)));
    }

    #[test]
    fn exact_values_must_match_for_the_same_seed_only() {
        let a = line(1, 10.0, 100.0, "x", true);
        assert!(!verdict(&a, &line(1, 10.0, 100.0, "z", true)));
        assert!(verdict(&a, &line(2, 10.0, 100.0, "z", true)));
        // Two runs of one seed inside a file must agree as well.
        let twice = line(1, 10.0, 100.0, "x", true) + &line(1, 10.0, 100.0, "q", true);
        assert!(!verdict(&twice, &a));
    }

    #[test]
    fn an_incorrect_run_fails_the_comparison() {
        let a = line(1, 10.0, 100.0, "x", true);
        assert!(!verdict(&a, &line(1, 10.0, 100.0, "x", false)));
    }
}
