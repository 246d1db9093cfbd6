//! `radd-benchmark`: end-to-end and per-layer numbers for the RADD socket
//! runtime. See `README.md` beside this package for every name printed here.
//!
//! ```text
//! radd-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!                [--out DIR] [--record FILE.jsonl]
//! radd-benchmark --check A.jsonl B.jsonl [--bounds BENCHMARK.json]
//! ```

mod calib;
mod check;
mod inline;
mod json;
mod layers;
mod load;
mod ops;
mod procfs;
mod replay;
mod stats;
mod sut;
mod trace;

use json::Json;
use load::{LoadConfig, Metric};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

/// Seconds of the workload's mix run on the threaded twin for `node.*`.
const NODE_TWIN_SECONDS: f64 = 2.0;

struct Args {
    workloads: Vec<&'static ops::Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    record: Option<PathBuf>,
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("radd-benchmark: {problem}");
    eprintln!(
        "usage: radd-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
         [--out DIR] [--record FILE.jsonl]\n       \
         radd-benchmark --check A.jsonl B.jsonl [--bounds BENCHMARK.json]\n\
         workloads: {}",
        ops::WORKLOADS.map(|w| w.name).join(", ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10.0,
        trace: true,
        out: PathBuf::from("benchmark/results"),
        record: None,
    };
    let mut check: Option<(PathBuf, PathBuf)> = None;
    let mut bounds = PathBuf::from("BENCHMARK.json");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().map(String::as_str);
        match flag.as_str() {
            "--workload" => match value().and_then(ops::workload) {
                Some(w) => args.workloads.push(w),
                None => return usage("--workload needs one of the workload names"),
            },
            "--seed" => match value().and_then(|v| v.parse().ok()) {
                Some(n) => args.seed = n,
                None => return usage("--seed needs a whole number"),
            },
            "--seconds" => match value().and_then(|v| v.parse::<f64>().ok()) {
                Some(s) if s >= 1.0 => args.seconds = s,
                _ => return usage("--seconds needs a number of at least 1"),
            },
            "--trace" => match value() {
                Some("0") => args.trace = false,
                Some("1") => args.trace = true,
                _ => return usage("--trace needs 0 or 1"),
            },
            "--out" => match value() {
                Some(dir) => args.out = PathBuf::from(dir),
                None => return usage("--out needs a directory"),
            },
            "--record" => match value() {
                Some(file) => args.record = Some(PathBuf::from(file)),
                None => return usage("--record needs a file"),
            },
            "--bounds" => match value() {
                Some(file) => bounds = PathBuf::from(file),
                None => return usage("--bounds needs a file"),
            },
            "--check" => match (value().map(PathBuf::from), value().map(PathBuf::from)) {
                (Some(a), Some(b)) => check = Some((a, b)),
                _ => return usage("--check needs two result files"),
            },
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    if let Some((a, b)) = check {
        return match check::run(&a, &b, &bounds) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("radd-benchmark --check: {e}");
                ExitCode::from(2)
            }
        };
    }
    if args.workloads.is_empty() {
        args.workloads = ops::WORKLOADS.iter().collect();
    }
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("radd-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("  {title}");
    for m in metrics {
        let raw = m.raw.map_or(String::new(), |r| format!("  (raw {r:.4})"));
        println!(
            "    {:<36} {:>16.4} {:<6} n={}{raw}",
            m.name, m.value, m.unit, m.samples
        );
    }
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|m| {
        (
            m.name.clone(),
            Json::obj([
                ("value", Json::Num(m.value)),
                ("unit", Json::Str(m.unit.to_string())),
            ]),
        )
    }))
}

/// Run the chosen workloads; `Ok(true)` when every answer was correct. The
/// last line printed is the result object of the last workload.
fn run(args: &Args) -> Result<bool, String> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    // Two at least: one caller rebuilds while another keeps the foreground.
    let callers = nproc.clamp(2, 4);
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let data_root = args.out.join(format!("tmp-{}", std::process::id()));
    let mut all_correct = true;
    let mut records = Vec::new();
    let mut last_line = String::new();
    for w in &args.workloads {
        std::fs::create_dir_all(&data_root).map_err(|e| format!("{}: {e}", data_root.display()))?;
        println!(
            "== {} seed {} seconds {} trace {}: {} callers (closed loop) on {} CPUs (allowed: {}); \
             G = {}, {} rows x {} B, storage {}; data dir {} on {}",
            w.name,
            args.seed,
            args.seconds,
            u8::from(args.trace),
            callers,
            nproc,
            procfs::cpus_allowed(),
            sut::G,
            w.shape.rows,
            w.shape.block_size,
            if w.shape.disk { "disk" } else { "mem" },
            data_root.display(),
            procfs::fs_type(&data_root),
        );
        let cfg = LoadConfig {
            seed: args.seed,
            seconds: args.seconds,
            callers,
            data_root: data_root.clone(),
        };
        let outcome = run_one(w, &cfg, args);
        let _ = std::fs::remove_dir_all(&data_root);
        let (record, result, correct) = outcome?;
        all_correct &= correct;
        last_line = result.render();
        if let Some(file) = &args.record {
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(file)
                .map_err(|e| format!("{}: {e}", file.display()))?;
            writeln!(f, "{}", record.render()).map_err(|e| e.to_string())?;
        }
        records.push(record);
    }
    let latest = args.out.join("latest.json");
    std::fs::write(&latest, Json::Arr(records).render() + "\n")
        .map_err(|e| format!("{}: {e}", latest.display()))?;
    println!("{last_line}");
    Ok(all_correct)
}

/// One workload: the live run, and with `--trace 1` the per-layer timings,
/// the threaded twin and the traced replay. Returns the run's record, its
/// result object (the last line of output) and whether it was correct.
fn run_one(w: &ops::Workload, cfg: &LoadConfig, args: &Args) -> Result<(Json, Json, bool), String> {
    let live = load::run(w, cfg)?;
    let mut correct = live.correct;
    let mut notes = live.notes;
    let mut per_layer = live.per_layer;
    if args.trace {
        let layers = layers::measure(w, cfg.seed, &cfg.data_root);
        let trace_file = args.out.join(format!("trace_{}.json", w.name));
        let replayed = replay::run(
            w,
            cfg.seed,
            cfg.callers,
            &cfg.data_root,
            &trace_file,
            live.raw_write_p50_us,
            live.raw_read_p50_us,
            &layers,
        );
        correct &= replayed.correct;
        per_layer.extend(layers);
        per_layer.extend(load::run_node_twin(w, cfg, NODE_TWIN_SECONDS));
        per_layer.extend(replayed.metrics);
        notes.extend(replayed.notes);
        println!("  trace written to {}", trace_file.display());
    }
    per_layer.sort_by(|a, b| a.name.cmp(&b.name));
    print_metrics(
        "end to end (timings scaled by the calibration probe)",
        &live.end_to_end,
    );
    print_metrics("per layer", &per_layer);
    for note in &notes {
        println!("  note: {note}");
    }
    println!(
        "  {}: correct {correct}, attempted {}, failed {}",
        w.name, live.attempted, live.failed
    );
    let (attempted, failed) = (
        Json::Num(live.attempted.max(1) as f64),
        Json::Num(live.failed as f64),
    );
    let (end_to_end, per_layer) = (metrics_json(&live.end_to_end), metrics_json(&per_layer));
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", attempted.clone()),
        ("failed", failed.clone()),
        (
            "metrics",
            if args.trace {
                per_layer.clone()
            } else {
                end_to_end.clone()
            },
        ),
    ]);
    let mut record = vec![
        ("workload", Json::Str(w.name.to_string())),
        ("seed", Json::Num(cfg.seed as f64)),
        ("seconds", Json::Num(cfg.seconds)),
        ("callers", Json::Num(cfg.callers as f64)),
        ("correct", Json::Bool(correct)),
        ("attempted", attempted),
        ("failed", failed),
        ("end_to_end", end_to_end),
        (
            "end_to_end_raw",
            Json::obj(
                live.end_to_end
                    .iter()
                    .filter_map(|m| Some((m.name.clone(), Json::Num(m.raw?)))),
            ),
        ),
        (
            "notes",
            Json::Arr(notes.into_iter().map(Json::Str).collect()),
        ),
    ];
    // A run without the traced half has not measured most layers; it
    // records none rather than a partial list.
    if args.trace {
        record.push(("per_layer", per_layer));
    }
    Ok((Json::obj(record), result, correct))
}
