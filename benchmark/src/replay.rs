//! The traced run: the first operations of caller 0's stream replayed on
//! the single-threaded interpreter of `inline.rs`, folded into a budget
//! whose terms add up.
//!
//! The budget of a kind of operation is taken over the middle half of its
//! replayed instances (by duration), as means: the mean of a sum is the sum
//! of the means, so the per-layer terms add up to `budget.<kind>_total_us`
//! exactly, and `total + unaccounted` is the live, uncalibrated median by
//! definition of `unaccounted`. Parity work happens inside
//! `SiteMachine::handle`, where no outside span can see it; its term is
//! carved out of the protocol term using `layers.rs`'s timings of the same
//! calls on the same shapes (one mask diff and one mask apply per write).

use crate::inline::{Inline, OpCounts};
use crate::load::Metric;
use crate::ops::{self, Payloads, Workload, WriteShape};
use crate::stats;
use crate::trace::{self, OpCost};
use std::path::Path;
use std::time::Instant;

/// Operations replayed after the preload.
const REPLAY_OPS: usize = 2000;
/// Span recording flips every this many operations, so that traced and
/// untraced operations see the same machine state and the same drift.
const RECORDING_STRIDE: usize = 100;
/// First-touch degraded reads replayed on the failed site.
const DEGRADED_READS: usize = 64;
/// The site failed in the degraded segment.
const FAILED_SITE: usize = 0;
const BUDGET_LAYERS: [&str; 5] = ["parity", "protocol", "rt", "storage", "obs"];

pub struct Replay {
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
    pub correct: bool,
}

fn mean(v: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0u64);
    for x in v {
        sum += x;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn median_count(v: &[u64]) -> f64 {
    stats::median(&v.iter().map(|&x| x as f64).collect::<Vec<_>>())
}

/// The middle half of `ops` by duration.
fn middle_half(mut ops: Vec<&OpCost>) -> Vec<&OpCost> {
    ops.sort_by_key(|o| o.total_ns);
    let quarter = ops.len() / 4;
    ops[quarter..ops.len() - quarter].to_vec()
}

#[allow(clippy::too_many_arguments)]
pub fn run(
    w: &Workload,
    seed: u64,
    callers: usize,
    data_root: &Path,
    trace_file: &Path,
    raw_write_p50_us: f64,
    raw_read_p50_us: f64,
    layer_metrics: &[Metric],
) -> Replay {
    let mut notes = Vec::new();
    let mut wrong = 0u64;
    let payloads = Payloads::new(w.shape.block_size, seed);
    let keys: Vec<(usize, u64)> = w.shape.key_space().into_iter().step_by(callers).collect();
    let stream = ops::op_stream(w, keys.len(), seed, 0, REPLAY_OPS);
    let mut cluster = Inline::new(w.shape, &data_root.join("replay"), false);
    let mut oracle: Vec<Vec<u8>> = vec![vec![0; w.shape.block_size]; keys.len()];

    // Preload every block of the cluster (not only caller 0's), so that the
    // machines' snapshots are as large as the live ones.
    let mut block = Vec::new();
    for (i, &(site, index)) in w.shape.key_space().iter().enumerate() {
        payloads.fill(WriteShape::Full, i as u32, &[], &mut block);
        cluster.write(site, index, &block).expect("replay preload");
        if i % callers == 0 {
            oracle[i / callers].clone_from(&block);
        }
    }

    // The healthy segment, recording on and off in turns.
    let (mut write_counts, mut read_counts) = (Vec::<OpCounts>::new(), Vec::<OpCounts>::new());
    let (mut traced_write_us, mut untraced_write_us) = (Vec::new(), Vec::new());
    let mut scratch = Vec::new();
    for (i, op) in stream.iter().enumerate() {
        let recording = (i / RECORDING_STRIDE).is_multiple_of(2);
        cluster.set_recording(recording);
        let (site, index) = keys[op.key as usize];
        if op.read {
            let (got, counts) = cluster.read(site, index).expect("replayed read");
            wrong += u64::from(got != oracle[op.key as usize]);
            read_counts.push(counts);
        } else {
            payloads.fill(w.write, op.payload, &oracle[op.key as usize], &mut scratch);
            let started = Instant::now();
            let counts = cluster
                .write(site, index, &scratch)
                .expect("replayed write");
            let us = started.elapsed().as_nanos() as f64 / 1000.0;
            if recording {
                traced_write_us.push(us);
            } else {
                untraced_write_us.push(us);
            }
            std::mem::swap(&mut oracle[op.key as usize], &mut scratch);
            write_counts.push(counts);
        }
    }

    // The degraded segment: first-touch reads of a failed site's blocks, a
    // rebuild, the drain back. Counted, and in the trace file, not budgeted.
    cluster.set_recording(true);
    cluster.set_down(FAILED_SITE, true);
    let touched: Vec<(usize, u64)> = keys
        .iter()
        .enumerate()
        .filter(|(_, k)| k.0 == FAILED_SITE)
        .map(|(rank, k)| (rank, k.1))
        .take(DEGRADED_READS)
        .collect();
    let mut degraded_msgs = Vec::new();
    for &(rank, index) in &touched {
        let (got, counts) = cluster
            .read(FAILED_SITE, index)
            .expect("replayed degraded read");
        wrong += u64::from(got != oracle[rank]);
        degraded_msgs.push(counts.msgs);
    }
    let (rebuilt, rebuild_counts) = cluster.rebuild(FAILED_SITE).expect("replayed rebuild");
    cluster.recover(FAILED_SITE).expect("replayed recovery");
    for &(rank, index) in &touched {
        let (got, _) = cluster
            .read(FAILED_SITE, index)
            .expect("read after recovery");
        wrong += u64::from(got != oracle[rank]);
    }
    if wrong > 0 {
        notes.push(format!(
            "the replay read {wrong} blocks that differ from its oracle"
        ));
    }

    let tracer = cluster.tracer();
    if let Err(e) = std::fs::write(trace_file, tracer.to_json(w.name).render()) {
        notes.push(format!("could not write {}: {e}", trace_file.display()));
    }
    let costs = trace::op_costs(tracer);
    let mut m: Vec<Metric> = Vec::new();
    let field = |v: &[OpCounts], f: fn(&OpCounts) -> u64| -> Vec<u64> { v.iter().map(f).collect() };
    let writes = write_counts.len() as u64;
    m.push(Metric::new(
        "protocol.msgs_per_write",
        "count",
        median_count(&field(&write_counts, |c| c.msgs)),
        writes,
    ));
    m.push(Metric::new(
        "protocol.msgs_per_read",
        "count",
        median_count(&field(&read_counts, |c| c.msgs)),
        read_counts.len() as u64,
    ));
    m.push(Metric::new(
        "protocol.msgs_per_degraded_read",
        "count",
        median_count(&degraded_msgs),
        degraded_msgs.len() as u64,
    ));
    m.push(Metric::new(
        "protocol.msgs_per_rebuilt_block",
        "count",
        rebuild_counts.msgs as f64 / rebuilt.max(1) as f64,
        rebuilt,
    ));
    m.push(Metric::new(
        "rt.wire_bytes_per_write",
        "B",
        median_count(&field(&write_counts, |c| c.frame_bytes)),
        writes,
    ));
    m.push(Metric::new(
        "storage.commits_per_write",
        "count",
        median_count(&field(&write_counts, |c| c.commits)),
        writes,
    ));
    m.push(Metric::new(
        "storage.wal_bytes_per_write",
        "B",
        median_count(&field(&write_counts, |c| c.wal_bytes)),
        writes,
    ));
    let checkpoints: u64 = write_counts.iter().map(|c| c.checkpoints).sum();
    m.push(Metric::new(
        "storage.checkpoints_per_1k_writes",
        "count",
        checkpoints as f64 * 1000.0 / writes.max(1) as f64,
        writes,
    ));

    // The budgets.
    let layer_ns = |name: &str| {
        layer_metrics
            .iter()
            .find(|x| x.name == name)
            .map_or(0.0, |x| x.value)
    };
    let parity_per_write_us =
        (layer_ns("parity.mask_diff_ns") + layer_ns("parity.mask_apply_wire_ns")) / 1000.0;
    for (kind, root, raw_p50, parity_us) in [
        (
            "write",
            "protocol.client_write",
            raw_write_p50_us,
            parity_per_write_us,
        ),
        ("read", "protocol.client_read", raw_read_p50_us, 0.0),
    ] {
        let of_kind: Vec<&OpCost> = costs.iter().filter(|o| o.root == root).collect();
        if of_kind.is_empty() {
            notes.push(format!("no traced {kind} in the replay"));
            continue;
        }
        let mid = middle_half(of_kind);
        let n = mid.len() as u64;
        let total_us = mean(mid.iter().map(|o| o.total_ns as f64)) / 1000.0;
        let mut terms: Vec<(String, f64)> = BUDGET_LAYERS
            .iter()
            .map(|&layer| {
                let us = mean(
                    mid.iter()
                        .map(|o| *o.by_layer.get(layer).unwrap_or(&0) as f64),
                ) / 1000.0;
                (layer.to_string(), us)
            })
            .collect();
        // Move the machines' parity calls from the protocol term to their own.
        let protocol_us = terms[1].1;
        let carved = parity_us.min(protocol_us);
        terms[0].1 += carved;
        terms[1].1 -= carved;
        let unaccounted = raw_p50 - total_us;
        m.push(Metric::new(
            &format!("budget.{kind}_total_us"),
            "us",
            total_us,
            n,
        ));
        for (layer, us) in &terms {
            m.push(Metric::new(
                &format!("budget.{kind}.{layer}_us"),
                "us",
                *us,
                n,
            ));
        }
        m.push(Metric::new(
            &format!("budget.{kind}_unaccounted_us"),
            "us",
            unaccounted,
            n,
        ));
        let summed: f64 = terms.iter().map(|t| t.1).sum();
        if (summed - total_us).abs() > 0.02 * total_us {
            notes.push(format!(
                "budget.{kind}: layer terms sum to {summed:.2} us, replayed total is {total_us:.2} us"
            ));
        }
        terms.push(("unaccounted".to_string(), unaccounted));
        let (name, us) = terms
            .iter()
            .cloned()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("five terms");
        let largest_layer = terms[..BUDGET_LAYERS.len()]
            .iter()
            .cloned()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("five terms");
        notes.push(format!(
            "{}: the largest term of a {kind} is {name} ({us:.1} of {raw_p50:.1} us live, \
             {:.0}%); the largest layer is {} ({:.1} us)",
            w.name,
            100.0 * us / raw_p50,
            largest_layer.0,
            largest_layer.1
        ));
        if kind == "write" {
            m.push(Metric::new(
                "budget.largest_write_share",
                "ratio",
                us / raw_p50,
                n,
            ));
        }
    }
    m.push(Metric::new(
        "trace.spans",
        "count",
        tracer.spans().len() as f64,
        1,
    ));
    let (on, off) = (
        stats::median(&traced_write_us),
        stats::median(&untraced_write_us),
    );
    m.push(Metric::new(
        "trace.overhead_share",
        "ratio",
        if off > 0.0 { (on - off) / off } else { 0.0 },
        (traced_write_us.len() + untraced_write_us.len()) as u64,
    ));
    let _ = std::fs::remove_dir_all(data_root.join("replay"));
    Replay {
        metrics: m,
        notes,
        correct: wrong == 0,
    }
}
