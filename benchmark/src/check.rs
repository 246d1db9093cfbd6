//! `--check A B`: compare two result sets against the bounds in
//! `BENCHMARK.json`.
//!
//! A result set is a file of run records, one JSON object per line, as
//! `--record` appends them. For every workload and end-to-end metric the
//! verdict is `worse` when B's median is worse than A's by more than the
//! metric's bound, `unresolved` when either set's own spread (distance
//! between its quartiles as a share of its median) is wider than the bound,
//! so the sets cannot tell a change of that size from noise, and `pass`
//! otherwise. `setup_s` is exempt from the spread rule, as it is in the
//! acceptance rule this mirrors: it is sampled a few times per run, not
//! thousands.

use crate::json::Json;
use crate::stats;
use std::collections::BTreeMap;
use std::path::Path;

struct Bound {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

/// workload -> metric -> one value per run.
type ResultSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn read_bounds(path: &Path) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    json.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{}: no `end_to_end` list", path.display()))?
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .ok_or_else(|| format!("end_to_end entry without `{k}`"))
            };
            Ok(Bound {
                name: field("name")?.as_str().unwrap_or_default().to_string(),
                higher_is_better: field("better")?.as_str() == Some("higher"),
                bound: field("bound")?.as_f64().unwrap_or(0.0),
            })
        })
        .collect()
}

fn read_set(path: &Path) -> Result<ResultSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut set = ResultSet::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record = Json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), n + 1))?;
        let (Some(workload), Some(metrics)) = (
            record.get("workload").and_then(Json::as_str),
            record.get("end_to_end").and_then(Json::as_obj),
        ) else {
            return Err(format!("{}:{}: not a run record", path.display(), n + 1));
        };
        if record.get("correct") != Some(&Json::Bool(true)) {
            return Err(format!(
                "{}:{}: a run of {workload} was not correct",
                path.display(),
                n + 1
            ));
        }
        let by_metric = set.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                by_metric.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(set)
}

/// Print one line per workload and metric; `Ok(true)` when all pass.
pub fn run(a: &Path, b: &Path, bounds: &Path) -> Result<bool, String> {
    let bounds = read_bounds(bounds)?;
    let (set_a, set_b) = (read_set(a)?, read_set(b)?);
    let mut all_pass = true;
    println!(
        "{:<22} {:<26} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "B vs A", "spread A", "spread B", "bound"
    );
    for (workload, metrics_a) in &set_a {
        let Some(metrics_b) = set_b.get(workload) else {
            println!("{workload:<22} missing from B");
            all_pass = false;
            continue;
        };
        for bound in &bounds {
            let (Some(va), Some(vb)) = (metrics_a.get(&bound.name), metrics_b.get(&bound.name))
            else {
                println!("{workload:<22} {:<26} missing from a set", bound.name);
                all_pass = false;
                continue;
            };
            let (ma, mb) = (stats::median(va), stats::median(vb));
            let (sa, sb) = (stats::spread(va), stats::spread(vb));
            let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
            let worse_by = if bound.higher_is_better {
                -change
            } else {
                change
            };
            let verdict = if worse_by > bound.bound {
                "worse"
            } else if bound.name != "setup_s" && sa.max(sb) > bound.bound {
                "unresolved"
            } else {
                "pass"
            };
            all_pass &= verdict == "pass";
            println!(
                "{workload:<22} {:<26} {ma:>12.4} {mb:>12.4} {:>+7.1}% {:>7.1}% {:>7.1}% {:>5.0}%  {verdict}",
                bound.name,
                100.0 * change,
                100.0 * sa,
                100.0 * sb,
                100.0 * bound.bound,
            );
        }
    }
    println!(
        "{} runs in A, {} in B; {}",
        set_a
            .values()
            .filter_map(|m| m.values().next())
            .map(Vec::len)
            .sum::<usize>(),
        set_b
            .values()
            .filter_map(|m| m.values().next())
            .map(Vec::len)
            .sum::<usize>(),
        if all_pass {
            "every metric passes"
        } else {
            "not every metric passes"
        }
    );
    Ok(all_pass)
}
