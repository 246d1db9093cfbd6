//! The load generator: set-up, the timed phase, fail/rebuild cycles, and
//! the oracle that checks every answer.
//!
//! Closed loop: each caller thread owns one client and a disjoint slice of
//! the block space (so its oracle needs no lock) and issues its next
//! operation when the previous one returns. The caller being modelled is a
//! DBMS buffer manager waiting on a block, and the client API is a blocking
//! call. The one open-loop stream is the paced foreground beside a rebuild,
//! which is timed from each operation's due time so that a stall shows as
//! latency instead of as a gap in the samples.

use crate::calib::{self, Calibrator};
use crate::ops::{self, Op, Payloads, Phases, Workload, WriteShape};
use crate::procfs::{self, Counters};
use crate::stats;
use crate::sut::{BlockClient, Cluster, NodeTwin, SocketCaller, SITES};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Length of one window of the timed phase.
const WINDOW: Duration = Duration::from_millis(250);
/// The share of windows, chunks or rounds that counts as quiet: a tenth.
const BEST_SHARE: usize = 10;
/// Operations per chunk of a phase measured by count, not by the clock.
const CHUNK: usize = 16;
/// Operations generated per caller; the stream wraps if a run outlasts it.
const STREAM_OPS: usize = 1 << 18;
/// First-touch degraded reads, then writes, per caller and cycle: at most
/// this many, and at most a third of the caller's blocks on the down site
/// each, so that a third is left for the rebuild.
const DEGRADED_OPS_PER_CALLER: usize = 150;
/// Foreground operations per second beside a rebuild, all callers together.
const FOREGROUND_RATE: f64 = 100.0;
/// A paced operation issued this long after it was due counts as late.
const LATE: Duration = Duration::from_millis(1);
/// The site failed on each round's cluster, in turn.
const FAIL_ORDER: [usize; 3] = [0, 2, 4];
/// An operation slower than this multiple of its kind's median is "slow".
const SLOW_FACTOR: f64 = 10.0;

/// A named number with its unit and the samples it rests on. `raw` is the
/// value before calibration scaling, where scaling applies.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub raw: Option<f64>,
    pub samples: u64,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, value: f64, samples: u64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
            raw: None,
            samples,
        }
    }

    fn scaled(name: &str, unit: &'static str, (value, raw): (f64, f64), samples: u64) -> Metric {
        Metric {
            raw: Some(raw),
            ..Metric::new(name, unit, value, samples)
        }
    }
}

pub struct LoadConfig {
    pub seed: u64,
    pub seconds: f64,
    pub callers: usize,
    /// Where data dirs are made (and removed).
    pub data_root: PathBuf,
}

pub struct LoadResult {
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub notes: Vec<String>,
    /// Uncalibrated medians, for the replay's unaccounted terms.
    pub raw_write_p50_us: f64,
    pub raw_read_p50_us: f64,
}

/// One block a caller owns.
#[derive(Clone, Copy)]
struct Key {
    site: usize,
    index: u64,
    parity_site: usize,
}

/// One caller: its client, its keys, its oracle, its operations.
struct Caller<C> {
    client: C,
    keys: Vec<Key>,
    /// Ranks (into `keys`) of the blocks each site owns.
    by_site: Vec<Vec<u32>>,
    /// What each key last had acknowledged.
    oracle: Vec<Vec<u8>>,
    ops: Arc<[Op]>,
    cursor: usize,
    scratch: Vec<u8>,
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
}

/// Per-caller inputs made once per run, before anything is timed.
struct Prepared {
    keys: Vec<Vec<Key>>,
    /// Shared with the callers of every round.
    ops: Vec<Arc<[Op]>>,
    payloads: Payloads,
}

impl Prepared {
    fn new(w: &Workload, cfg: &LoadConfig) -> Prepared {
        let all = w.shape.key_space();
        let keys: Vec<Vec<Key>> = (0..cfg.callers)
            .map(|c| {
                all.iter()
                    .skip(c)
                    .step_by(cfg.callers)
                    .map(|&(site, index)| Key {
                        site,
                        index,
                        parity_site: w.shape.parity_site_of(site, index),
                    })
                    .collect()
            })
            .collect();
        let ops = keys
            .iter()
            .enumerate()
            .map(|(c, k)| ops::op_stream(w, k.len(), cfg.seed, c, STREAM_OPS).into())
            .collect();
        Prepared {
            keys,
            ops,
            payloads: Payloads::new(w.shape.block_size, cfg.seed),
        }
    }

    fn callers<C: BlockClient>(&self, w: &Workload, clients: Vec<C>) -> Vec<Caller<C>> {
        clients
            .into_iter()
            .enumerate()
            .map(|(c, client)| {
                let keys = self.keys[c].clone();
                let mut by_site = vec![Vec::new(); SITES];
                for (rank, key) in keys.iter().enumerate() {
                    by_site[key.site].push(rank as u32);
                }
                Caller {
                    client,
                    oracle: vec![vec![0; w.shape.block_size]; keys.len()],
                    keys,
                    by_site,
                    ops: Arc::clone(&self.ops[c]),
                    cursor: 0,
                    scratch: Vec::with_capacity(w.shape.block_size),
                    attempted: 0,
                    failed: 0,
                    first_failure: None,
                }
            })
            .collect()
    }
}

fn micros(since: Instant) -> f64 {
    since.elapsed().as_nanos() as f64 / 1000.0
}

/// Latencies of one caller over one window or phase, in microseconds.
#[derive(Default)]
struct Samples {
    reads: Vec<f64>,
    writes: Vec<f64>,
}

impl Samples {
    fn ops(&self) -> u64 {
        (self.reads.len() + self.writes.len()) as u64
    }

    fn absorb(&mut self, other: Samples) {
        self.reads.extend(other.reads);
        self.writes.extend(other.writes);
    }
}

/// Which operations of the stream a failed site rules out.
#[derive(Clone, Copy, Default)]
struct Avoid {
    /// Blocks this site owns (they would take the degraded path).
    owner: Option<usize>,
    /// Writes whose parity this site holds (they could not complete).
    parity: Option<usize>,
}

impl<C: BlockClient> Caller<C> {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(what);
    }

    /// Read `key` and compare with the oracle; microseconds from issue to
    /// verified bytes.
    fn read(&mut self, key: u32) -> f64 {
        let Key { site, index, .. } = self.keys[key as usize];
        self.attempted += 1;
        let started = Instant::now();
        match self.client.read(site, index) {
            Ok(got) if got == self.oracle[key as usize] => {}
            Ok(_) => self.fail(format!(
                "read({site}, {index}) returned stale or wrong bytes"
            )),
            Err(e) => self.fail(format!("read({site}, {index}): {e}")),
        }
        micros(started)
    }

    /// Write content number `payload` to `key`; microseconds from issue to
    /// ack. The oracle moves only on an ack.
    fn write(&mut self, key: u32, payload: u32, payloads: &Payloads, shape: WriteShape) -> f64 {
        let Key { site, index, .. } = self.keys[key as usize];
        payloads.fill(
            shape,
            payload,
            &self.oracle[key as usize],
            &mut self.scratch,
        );
        self.attempted += 1;
        let started = Instant::now();
        let result = self.client.write(site, index, &self.scratch);
        let took = micros(started);
        match result {
            Ok(()) => std::mem::swap(&mut self.oracle[key as usize], &mut self.scratch),
            Err(e) => self.fail(format!("write({site}, {index}): {e}")),
        }
        took
    }

    /// The next operation of the stream that `avoid` does not rule out.
    fn next_op(&mut self, avoid: Avoid) -> Op {
        loop {
            let op = self.ops[self.cursor % self.ops.len()];
            self.cursor += 1;
            let key = self.keys[op.key as usize];
            let ruled_out = Some(key.site) == avoid.owner
                || (!op.read && Some(key.parity_site) == avoid.parity);
            if !ruled_out {
                return op;
            }
        }
    }

    /// Run `op`; where its latency was put, so a pacer can add to it.
    fn run<'s>(
        &mut self,
        op: Op,
        payloads: &Payloads,
        shape: WriteShape,
        out: &'s mut Samples,
    ) -> &'s mut f64 {
        let side = if op.read {
            out.reads.push(self.read(op.key));
            &mut out.reads
        } else {
            out.writes
                .push(self.write(op.key, op.payload, payloads, shape));
            &mut out.writes
        };
        side.last_mut().expect("just pushed")
    }
}

/// Run `f` on every caller on its own thread and collect what each returns.
fn on_each<C: BlockClient, T: Send>(
    callers: &mut [Caller<C>],
    f: impl Fn(&mut Caller<C>) -> T + Sync,
) -> Vec<T> {
    std::thread::scope(|s| {
        let handles: Vec<_> = callers
            .iter_mut()
            .map(|c| {
                s.spawn(|| {
                    let out = f(c);
                    procfs::retire_thread();
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread"))
            .collect()
    })
}

/// A measured stretch of the run: operations completed, wall time, what the
/// process counters moved by, and the calibration ratios that go with it.
struct Interval {
    ops: u64,
    wall_s: f64,
    counters: Counters,
    /// `nominal / measured` of the CPU probe during the interval.
    cpu_factor: f64,
    /// The same for the device probe, averaged over before and after, then
    /// replaced by the round's median; `None` in memory.
    sync_factor: Option<f64>,
}

impl Interval {
    /// What to multiply a time of this interval by (and divide a rate by).
    ///
    /// In memory that is the CPU probe's ratio. On disk it is the geometric
    /// mean of the CPU's and the device's, for every timing, CPU time and
    /// reads included. That is a measured rule, not a derived one: over
    /// thirty runs the CPU time of an operation followed the device's
    /// latency almost as closely as the waits did (29 + 263/ratio us on
    /// `write_disk_4k`), as if whatever slows the device on the host slows
    /// the guest's kernel paths with it, so that the device probe doubles as
    /// a meter of the host's load; weighting the two ratios by the share of
    /// the interval the process was on and off the CPU, the derived rule,
    /// left twice the spread on reads and CPU time. The square root also
    /// keeps a tenfold device spell from scaling a run into nonsense.
    fn factor(&self) -> f64 {
        match self.sync_factor {
            Some(sync) => (self.cpu_factor * sync).sqrt(),
            None => self.cpu_factor,
        }
    }
}

/// An interval being measured.
struct Meter<'c> {
    calib: &'c mut Calibrator,
    before: Counters,
    started: Instant,
    sync_before: Option<f64>,
}

impl<'c> Meter<'c> {
    /// Callers must be parked: the device probe runs here.
    fn start(calib: &'c mut Calibrator) -> Meter<'c> {
        let sync_before = calib.sync_factor();
        let before = Counters::read();
        calib.reset();
        Meter {
            calib,
            before,
            started: Instant::now(),
            sync_before,
        }
    }

    /// Callers must be parked again, and not have exited without retiring.
    fn stop(self, ops: u64) -> Interval {
        let wall_s = self.started.elapsed().as_secs_f64();
        let cpu_factor = self.calib.cpu_factor();
        let counters = Counters::read().since(&self.before);
        Interval {
            ops,
            wall_s,
            counters,
            cpu_factor,
            sync_factor: self
                .sync_before
                .zip(self.calib.sync_factor())
                .map(|(before, after)| (before + after) / 2.0),
        }
    }
}

/// Start a cluster, preload every data block, quiesce.
fn set_up(
    w: &Workload,
    cfg: &LoadConfig,
    prepared: &Prepared,
    dir: &Path,
    calib: &mut Calibrator,
) -> Result<(Cluster, Vec<Caller<SocketCaller>>, Interval), String> {
    let meter = Meter::start(calib);
    let (cluster, clients) = Cluster::start(w.shape, cfg.callers, dir);
    let mut callers = prepared.callers(w, clients);
    on_each(&mut callers, |c| {
        for key in 0..c.keys.len() as u32 {
            c.write(key, key, &prepared.payloads, WriteShape::Full);
        }
    });
    cluster.quiesce()?;
    let blocks = callers.iter().map(|c| c.keys.len() as u64).sum();
    Ok((cluster, callers, meter.stop(blocks)))
}

struct Window {
    samples: Samples,
    /// Operations each caller completed.
    per_caller: Vec<u64>,
    at: Interval,
}

/// A stretch of the timed phase: windows of [`WINDOW`] of the workload's mix
/// for `seconds`, closed loop, with the callers parked between them.
fn timed_windows<C: BlockClient>(
    w: &Workload,
    seconds: f64,
    callers: &mut [Caller<C>],
    payloads: &Payloads,
    avoid: Avoid,
    calib: &mut Calibrator,
) -> Vec<Window> {
    let count = ((seconds / WINDOW.as_secs_f64()).round() as usize).max(1);
    let barrier = Barrier::new(callers.len() + 1);
    let mut windows: Vec<Window> = Vec::with_capacity(count);
    std::thread::scope(|s| {
        let handles: Vec<_> = callers
            .iter_mut()
            .map(|c| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut per_window = Vec::with_capacity(count);
                    for _ in 0..count {
                        barrier.wait();
                        let deadline = Instant::now() + WINDOW;
                        let mut samples = Samples::default();
                        while Instant::now() < deadline {
                            let op = c.next_op(avoid);
                            c.run(op, payloads, w.write, &mut samples);
                        }
                        barrier.wait();
                        // Stay alive until the counters have been read.
                        barrier.wait();
                        per_window.push(samples);
                    }
                    procfs::retire_thread();
                    per_window
                })
            })
            .collect();
        for _ in 0..count {
            let meter = Meter::start(calib);
            barrier.wait();
            barrier.wait();
            let at = meter.stop(0);
            barrier.wait();
            windows.push(Window {
                samples: Samples::default(),
                per_caller: Vec::new(),
                at,
            });
        }
        for h in handles {
            for (i, samples) in h.join().expect("caller thread").into_iter().enumerate() {
                windows[i].per_caller.push(samples.ops());
                windows[i].samples.absorb(samples);
            }
        }
    });
    for x in &mut windows {
        x.at.ops = x.samples.ops();
    }
    windows
}

/// What one fail/rebuild cycle measured, before calibration.
struct Cycle {
    degraded_reads: Vec<f64>,
    degraded_writes: Vec<f64>,
    foreground: Samples,
    rebuilt_blocks: u64,
    rebuild_s: f64,
    paced: u64,
    late: u64,
    /// Degraded operations, foreground operations and rebuilt blocks, from
    /// the failure to the end of the rebuild.
    at: Interval,
}

/// One cycle on `site`: fail it, touch its blocks degraded, rebuild it into
/// the spares beside a paced foreground. The site is left down.
fn fail_cycle<C: BlockClient>(
    w: &Workload,
    cluster: &Cluster,
    callers: &mut [Caller<C>],
    payloads: &Payloads,
    site: usize,
    calib: &mut Calibrator,
) -> Result<Cycle, String> {
    cluster.quiesce()?;
    let meter = Meter::start(calib);
    cluster.set_down(site, true);

    // First-touch degraded reads (G-way reconstruction, installed in the
    // spare), then degraded writes to blocks not touched yet (W1').
    let touched = on_each(callers, |c| {
        c.client.mark_down(site, true);
        let mine = c.by_site[site].clone();
        let n = DEGRADED_OPS_PER_CALLER.min(mine.len() / 3);
        let reads: Vec<f64> = mine[..n].iter().map(|&k| c.read(k)).collect();
        let writes: Vec<f64> = mine[n..2 * n]
            .iter()
            .map(|&k| {
                c.cursor += 1;
                c.write(k, c.cursor as u32, payloads, w.write)
            })
            .collect();
        (reads, writes)
    });
    let (mut degraded_reads, mut degraded_writes) = (Vec::new(), Vec::new());
    for (reads, writes) in touched {
        degraded_reads.extend(reads);
        degraded_writes.extend(writes);
    }

    // Caller 0 rebuilds; the others issue the paced foreground over the
    // blocks the failure leaves healthy, until the rebuild returns.
    let (rebuilder, pacers) = callers.split_first_mut().expect("at least two callers");
    let interval = Duration::from_secs_f64(pacers.len() as f64 / FOREGROUND_RATE);
    let avoid = Avoid {
        owner: Some(site),
        parity: Some(site),
    };
    let done = AtomicBool::new(false);
    let mut foreground = Samples::default();
    let (mut paced, mut late) = (0u64, 0u64);
    let rebuild_started = Instant::now();
    let rebuilt = std::thread::scope(|s| {
        let handles: Vec<_> = pacers
            .iter_mut()
            .map(|c| {
                let done = &done;
                s.spawn(move || {
                    let mut samples = Samples::default();
                    let (mut paced, mut late) = (0u32, 0u64);
                    let origin = Instant::now();
                    while !done.load(Ordering::SeqCst) {
                        let due = origin + interval * paced;
                        paced += 1;
                        if let Some(early) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(early);
                        }
                        // Timed from the due time: a stall ahead of this
                        // operation is part of its latency.
                        let lag = due.elapsed();
                        late += u64::from(lag > LATE);
                        let op = c.next_op(avoid);
                        *c.run(op, payloads, w.write, &mut samples) +=
                            lag.as_nanos() as f64 / 1000.0;
                    }
                    procfs::retire_thread();
                    (samples, u64::from(paced), late)
                })
            })
            .collect();
        let rebuilt = rebuilder.client.rebuild(site);
        done.store(true, Ordering::SeqCst);
        for h in handles {
            let (samples, p, l) = h.join().expect("caller thread");
            foreground.absorb(samples);
            paced += p;
            late += l;
        }
        rebuilt
    });
    let rebuild_s = rebuild_started.elapsed().as_secs_f64();
    let rebuilt_blocks = rebuilt.map_err(|e| format!("rebuild of site {site}: {e}"))?;
    let ops =
        (degraded_reads.len() + degraded_writes.len()) as u64 + foreground.ops() + rebuilt_blocks;
    Ok(Cycle {
        at: meter.stop(ops),
        degraded_reads,
        degraded_writes,
        foreground,
        rebuilt_blocks,
        rebuild_s,
        paced,
        late,
    })
}

/// Revive `site` and drain the spares back to it. Scaled milliseconds the
/// drain took, or why it failed; after a failure the callers go on
/// believing the site down and its blocks are served from the spares.
fn revive<C: BlockClient>(
    cluster: &Cluster,
    callers: &mut [Caller<C>],
    site: usize,
    calib: &mut Calibrator,
) -> Result<f64, String> {
    let meter = Meter::start(calib);
    cluster.set_down(site, false);
    let drained = callers[0].client.recover(site);
    let at = meter.stop(0);
    drained?;
    for c in callers.iter_mut() {
        c.client.mark_down(site, false);
    }
    Ok(at.wall_s * 1000.0 * at.factor())
}

/// Quiesce, sweep parity, crash and restart every site, read every block
/// back (degraded, for a site still marked down). Returns acknowledged
/// writes that did not read back. The parity sweep needs every site up.
fn finish<C: BlockClient>(
    cluster: &Cluster,
    callers: &mut [Caller<C>],
    all_up: bool,
) -> Result<u64, String> {
    cluster.quiesce()?;
    if all_up {
        callers[0].client.verify_parity()?;
    }
    cluster.kill_restart_all();
    let lost = on_each(callers, |c| {
        let failed_before = c.failed;
        for key in 0..c.keys.len() as u32 {
            c.read(key);
        }
        c.failed - failed_before
    });
    if all_up {
        callers[0].client.verify_parity()?;
    }
    Ok(lost.into_iter().sum())
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    stats::sort(&mut v);
    v
}

#[derive(Clone, Copy, PartialEq)]
enum Better {
    Higher,
    Lower,
}

/// The undisturbed level of a measurement made once per round: the mean of
/// its best tenth, which with a handful of rounds is the best round. See
/// the quiet windows in [`run`] for why the best and not the median.
fn best_of(values: &[f64], better: Better) -> f64 {
    let mut v = values.to_vec();
    stats::sort(&mut v);
    if better == Better::Higher {
        v.reverse();
    }
    let k = v.len().div_ceil(BEST_SHARE).max(1).min(v.len().max(1));
    v.iter().take(k).sum::<f64>() / k as f64
}

/// [`best_of`] over `items` of `f`, as (scaled, raw).
fn best<T>(
    items: &[T],
    factor: impl Fn(&T) -> f64,
    f: impl Fn(&T) -> f64,
    better: Better,
) -> (f64, f64) {
    let scale = |x: f64, k: f64| {
        if better == Better::Higher {
            x / k
        } else {
            x * k
        }
    };
    let raw: Vec<f64> = items.iter().map(&f).collect();
    let scaled: Vec<f64> = items.iter().map(|i| scale(f(i), factor(i))).collect();
    (best_of(&scaled, better), best_of(&raw, better))
}

/// Latencies of one interval and the factor that scales them.
type Group<'a> = (&'a [f64], f64);

fn quantile(v: &[f64], q: f64) -> f64 {
    stats::quantile_sorted(&sorted(v.to_vec()), q)
}

/// The `q`-quantile of the groups' latencies pooled, each sample scaled by
/// its own group's factor.
fn pooled_quantile(groups: &[Group], q: f64) -> f64 {
    let pool: Vec<f64> = groups
        .iter()
        .flat_map(|&(v, f)| v.iter().map(move |x| x * f))
        .collect();
    quantile(&pool, q)
}

/// The median of latencies recorded in time order, over their quiet tenth,
/// as (scaled, raw): each series is cut into chunks of [`CHUNK`] operations,
/// and the tenth of the chunks with the lowest scaled mean are pooled. The
/// same reasoning as for the quiet windows, for phases too short to cut by
/// the clock (the degraded reads of one round take 10 to 100 ms).
fn quiet_median(series: &[Group]) -> (f64, f64) {
    let mut chunks: Vec<(f64, Group)> = series
        .iter()
        .flat_map(|&(v, f)| {
            v.chunks_exact(CHUNK)
                .map(move |c| (c.iter().sum::<f64>() * f, (c, f)))
        })
        .collect();
    chunks.sort_by(|a, b| a.0.total_cmp(&b.0));
    chunks.truncate(chunks.len().div_ceil(BEST_SHARE));
    let quiet: Vec<Group> = chunks.iter().map(|&(_, g)| g).collect();
    let raw: Vec<Group> = quiet.iter().map(|&(v, _)| (v, 1.0)).collect();
    (pooled_quantile(&quiet, 0.5), pooled_quantile(&raw, 0.5))
}

fn samples_in(groups: &[Group]) -> u64 {
    groups.iter().map(|(v, _)| v.len() as u64).sum()
}

/// Run one workload against the socket cluster.
pub fn run(w: &Workload, cfg: &LoadConfig) -> Result<LoadResult, String> {
    let prepared = Prepared::new(w, cfg);
    let block = w.shape.block_size as f64;
    let mut notes = Vec::new();
    let mut calib = Calibrator::start(w.shape.disk.then_some(cfg.data_root.as_path()));
    let mut e2e: Vec<Metric> = Vec::new();
    let mut layer: Vec<Metric> = Vec::new();

    // One round per cluster: set it up, run a share of the timed phase, fail
    // a site on it, verify, tear it down. The timed share comes before the
    // failure on a healthy workload, after the rebuild (the site still down,
    // its blocks served from the spares) on a fail/rebuild one. Spreading
    // every kind of measurement over the rounds lets each meet both quiet
    // and disturbed stretches of the run. A cluster sees one failure only,
    // because the drain back to a revived site is not something this
    // benchmark can rely on (see README).
    let mut setups: Vec<Interval> = Vec::new();
    let mut windows: Vec<Window> = Vec::new();
    let mut cycles: Vec<Cycle> = Vec::new();
    let mut drains_ms: Vec<f64> = Vec::new();
    let (mut attempted, mut failed, mut acked_lost) = (0u64, 0u64, 0u64);
    let (mut retransmits, mut client_resends) = (0u64, 0u64);
    for round in 0..w.rounds {
        let site = FAIL_ORDER[round % FAIL_ORDER.len()];
        let dir = cfg.data_root.join(format!("round-{round}"));
        let (cluster, mut callers, setup) = set_up(w, cfg, &prepared, &dir, &mut calib)?;
        setups.push(setup);
        let first_window = windows.len();
        let mut verify = |callers: &mut Vec<Caller<SocketCaller>>, all_up: bool| match finish(
            &cluster, callers, all_up,
        ) {
            Ok(lost) => acked_lost += lost,
            Err(e) => {
                notes.push(format!("verification failed: {e}"));
                acked_lost += 1;
            }
        };
        let mut timed =
            |callers: &mut Vec<Caller<SocketCaller>>, avoid: Avoid, calib: &mut Calibrator| {
                let seconds = cfg.seconds / w.rounds as f64;
                windows.extend(timed_windows(
                    w,
                    seconds,
                    callers,
                    &prepared.payloads,
                    avoid,
                    calib,
                ));
            };
        if w.phases == Phases::Healthy {
            timed(&mut callers, Avoid::default(), &mut calib);
            verify(&mut callers, true);
        }
        cycles.push(fail_cycle(
            w,
            &cluster,
            &mut callers,
            &prepared.payloads,
            site,
            &mut calib,
        )?);
        if w.phases == Phases::FailRebuild {
            let avoid = Avoid {
                owner: None,
                parity: Some(site),
            };
            timed(&mut callers, avoid, &mut calib);
        }
        // The device drifts over tens of seconds and one probe is only eight
        // syncs, noisy enough to bias a pick of the best windows: every
        // interval of a round takes the round's median ratio.
        let mut of_round: Vec<&mut Interval> = setups
            .last_mut()
            .into_iter()
            .chain(windows[first_window..].iter_mut().map(|x| &mut x.at))
            .chain(cycles.last_mut().map(|x| &mut x.at))
            .collect();
        let probed: Vec<f64> = of_round.iter().filter_map(|x| x.sync_factor).collect();
        if !probed.is_empty() {
            let sync_factor = Some(stats::median(&probed));
            for x in &mut of_round {
                x.sync_factor = sync_factor;
            }
        }
        let drained = revive(&cluster, &mut callers, site, &mut calib);
        verify(&mut callers, drained.is_ok());
        match drained {
            Ok(ms) => drains_ms.push(ms),
            Err(e) if drains_ms.is_empty() && round == 0 => notes.push(format!(
                "the drain back to revived site {site} failed ({e}); the site stayed marked \
                 down and its blocks were verified through the degraded path"
            )),
            Err(_) => {}
        }
        retransmits += cluster.retransmits();
        client_resends += callers.iter().map(|c| c.client.retransmits()).sum::<u64>();
        attempted += callers.iter().map(|c| c.attempted).sum::<u64>();
        failed += callers.iter().map(|c| c.failed).sum::<u64>();
        notes.extend(
            callers
                .iter()
                .filter_map(|c| c.first_failure.as_ref())
                .map(|what| format!("first failure of a caller: {what}")),
        );
        drop(callers);
        cluster.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }

    // -- end to end ---------------------------------------------------------
    // A window in which a caller completed less than half its usual count
    // had that caller stalled; the other's latencies in it are those of a
    // cluster with one caller, so the window is set aside (and counted).
    let usual: Vec<f64> = (0..cfg.callers)
        .map(|c| {
            stats::median(
                &windows
                    .iter()
                    .map(|x| x.per_caller[c] as f64)
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    let (steady, stalled): (Vec<&Window>, Vec<&Window>) = windows.iter().partition(|x| {
        x.per_caller
            .iter()
            .zip(&usual)
            .all(|(&n, &u)| n as f64 >= u / 2.0)
    });
    let factor = |x: &Interval| x.factor();
    e2e.push(Metric::scaled(
        "setup_s",
        "s",
        best(&setups, factor, |x| x.wall_s, Better::Lower),
        setups.len() as u64,
    ));
    // The quiet windows: the tenth of the steady ones with the highest
    // scaled rate. Every windowed metric is computed from these same
    // windows, pooled, so that none is picked on its own noise.
    //
    // The sandbox's noise is one-sided and comes in episodes: for a second
    // or more at a time everything runs 10 to 40% slower (a neighbour on the
    // host, most likely; the CPU probe does not see it), and how much of a
    // run such episodes cover varies from run to run. Over eight identical
    // runs the median window's rate spread by 15%, the best tenth's by 5%.
    // A change to the code moves that level as it moves every window; what
    // it hides is a change that only adds occasional stalls, which
    // `loadgen.*` reports.
    let at: Vec<&Interval> = steady.iter().map(|x| &x.at).collect();
    let scaled_rate = |x: &Interval| x.ops as f64 / x.wall_s / x.factor();
    let mut by_rate: Vec<&Window> = steady.clone();
    by_rate.sort_by(|a, b| scaled_rate(&b.at).total_cmp(&scaled_rate(&a.at)));
    let quiet = &by_rate[..by_rate.len().div_ceil(BEST_SHARE).min(by_rate.len())];
    let ops: u64 = quiet.iter().map(|x| x.at.ops).sum();
    let mean = |f: &dyn Fn(&Interval) -> f64| {
        quiet.iter().map(|x| f(&x.at)).sum::<f64>() / quiet.len() as f64
    };
    let ops_per_s = (mean(&scaled_rate), mean(&|x| x.ops as f64 / x.wall_s));
    e2e.push(Metric::scaled("ops_per_s", "1/s", ops_per_s, ops));
    let (mut raw_write_p50_us, mut raw_read_p50_us) = (0.0, 0.0);
    for (name, reads, q) in [
        ("write_p50_us", false, 0.5),
        ("write_p90_us", false, 0.9),
        ("read_p50_us", true, 0.5),
        ("read_p90_us", true, 0.9),
    ] {
        let groups: Vec<Group> = quiet
            .iter()
            .map(|x| {
                let samples = if reads {
                    &x.samples.reads
                } else {
                    &x.samples.writes
                };
                (samples.as_slice(), x.at.factor())
            })
            .collect();
        let raw: Vec<Group> = groups.iter().map(|&(v, _)| (v, 1.0)).collect();
        let value = (pooled_quantile(&groups, q), pooled_quantile(&raw, q));
        e2e.push(Metric::scaled(name, "us", value, samples_in(&groups)));
        match name {
            "write_p50_us" => raw_write_p50_us = value.1,
            "read_p50_us" => raw_read_p50_us = value.1,
            _ => {}
        }
    }
    let cpu_us = |scaled: bool| {
        let k = |x: &Interval| if scaled { x.factor() } else { 1.0 };
        quiet
            .iter()
            .map(|x| x.at.counters.cpu_ns as f64 / 1000.0 * k(&x.at))
            .sum::<f64>()
            / ops.max(1) as f64
    };
    e2e.push(Metric::scaled(
        "cpu_us_per_op",
        "us",
        (cpu_us(true), cpu_us(false)),
        ops,
    ));
    // Byte ratios are counts: taken over the whole timed phase, not picked.
    let all_ops: u64 = windows.iter().map(|x| x.at.ops).sum();
    let per_user_byte = |f: &dyn Fn(&Counters) -> u64| {
        windows.iter().map(|x| f(&x.at.counters)).sum::<u64>() as f64
            / (all_ops.max(1) as f64 * block)
    };
    let per_op = |f: &dyn Fn(&Counters) -> u64| {
        windows.iter().map(|x| f(&x.at.counters)).sum::<u64>() as f64 / all_ops.max(1) as f64
    };
    e2e.push(Metric::new(
        "wire_bytes_per_user_byte",
        "B/B",
        per_user_byte(&|c| c.lo_tx_bytes),
        all_ops,
    ));
    e2e.push(Metric::new(
        "io_bytes_per_user_byte",
        "B/B",
        per_user_byte(&|c| c.lo_tx_bytes + c.disk_write_bytes),
        all_ops,
    ));
    // -- per layer, from the same intervals -----------------------------------
    // The degraded paths and the rebuild are measured on every round, but a
    // round's degraded reads take 10 to 100 ms and its rebuild 50 to 200 ms:
    // over ten identical runs their quiet medians spread by up to 24% and
    // the best round's rebuild rate by up to 19%, too much to carry a bound.
    for (name, pick) in [
        (
            "loadgen.degraded_read_p50_us",
            (|x| &x.degraded_reads) as fn(&Cycle) -> &Vec<f64>,
        ),
        ("loadgen.degraded_write_p50_us", |x| &x.degraded_writes),
    ] {
        let series: Vec<Group> = cycles
            .iter()
            .map(|x| (pick(x).as_slice(), x.at.factor()))
            .collect();
        layer.push(Metric::scaled(
            name,
            "us",
            quiet_median(&series),
            samples_in(&series),
        ));
    }
    layer.push(Metric::scaled(
        "loadgen.rebuild_blocks_per_s",
        "1/s",
        best(
            &cycles,
            |x| x.at.factor(),
            |x| x.rebuilt_blocks as f64 / x.rebuild_s,
            Better::Higher,
        ),
        cycles.iter().map(|x| x.rebuilt_blocks).sum(),
    ));
    layer.push(Metric::new(
        "storage.disk_bytes_per_user_byte",
        "B/B",
        per_user_byte(&|c| c.disk_write_bytes),
        all_ops,
    ));
    layer.push(Metric::new(
        "storage.file_syscalls_per_op",
        "count",
        per_op(&|c| c.file_syscalls),
        all_ops,
    ));
    layer.push(Metric::new(
        "rt.ctx_switches_per_op",
        "count",
        per_op(&|c| c.ctx_switches),
        all_ops,
    ));
    layer.push(Metric::new(
        "protocol.recover_ok_share",
        "ratio",
        drains_ms.len() as f64 / cycles.len() as f64,
        cycles.len() as u64,
    ));
    layer.push(Metric::new(
        "protocol.recover_drain_ms",
        "ms",
        stats::median(&drains_ms),
        drains_ms.len() as u64,
    ));
    layer.push(Metric::new(
        "protocol.retransmits",
        "count",
        retransmits as f64,
        cycles.len() as u64,
    ));
    layer.push(Metric::new(
        "protocol.client_resends",
        "count",
        client_resends as f64,
        cycles.len() as u64,
    ));
    let cycle_rate: Vec<f64> = cycles
        .iter()
        .map(|x| x.at.ops as f64 / x.at.wall_s / x.at.factor())
        .collect();
    layer.push(Metric::new(
        "loadgen.cycle_ops_per_s",
        "1/s",
        stats::median(&cycle_rate),
        cycles.iter().map(|x| x.at.ops).sum(),
    ));
    // Foreground latency beside a rebuild (the figure D3 is judged by): too
    // few samples at this scale to carry a bound, so it is reported here.
    let foreground = |pick: fn(&Cycle) -> &Vec<f64>| -> Vec<Group> {
        cycles
            .iter()
            .map(|x| (pick(x).as_slice(), x.at.factor()))
            .collect()
    };
    for (name, groups) in [
        (
            "loadgen.rebuild_fg_write_p50_us",
            foreground(|x| &x.foreground.writes),
        ),
        (
            "loadgen.rebuild_fg_read_p50_us",
            foreground(|x| &x.foreground.reads),
        ),
    ] {
        layer.push(Metric::new(
            name,
            "us",
            pooled_quantile(&groups, 0.5),
            samples_in(&groups),
        ));
    }
    let paced: u64 = cycles.iter().map(|x| x.paced).sum();
    let late: u64 = cycles.iter().map(|x| x.late).sum();
    layer.push(Metric::new(
        "loadgen.paced_late_share",
        "ratio",
        late as f64 / paced.max(1) as f64,
        paced,
    ));

    // Tail diagnostics over every timed sample of every window, stalled
    // ones too (uncalibrated).
    let all = |reads: bool| {
        sorted(
            windows
                .iter()
                .flat_map(|x| {
                    if reads {
                        &x.samples.reads
                    } else {
                        &x.samples.writes
                    }
                })
                .copied()
                .collect(),
        )
    };
    let (all_reads, all_writes) = (all(true), all(false));
    let p = stats::quantile_sorted;
    let slow = |v: &[f64]| {
        let limit = p(v, 0.5) * SLOW_FACTOR;
        v.iter().filter(|&&x| x > limit).count() as f64
    };
    layer.push(Metric::new(
        "loadgen.write_p99_us",
        "us",
        p(&all_writes, 0.99),
        all_writes.len() as u64,
    ));
    layer.push(Metric::new(
        "loadgen.read_p99_us",
        "us",
        p(&all_reads, 0.99),
        all_reads.len() as u64,
    ));
    layer.push(Metric::new(
        "loadgen.max_op_ms",
        "ms",
        p(&all_reads, 1.0).max(p(&all_writes, 1.0)) / 1000.0,
        ops,
    ));
    layer.push(Metric::new(
        "loadgen.slow_ops",
        "count",
        slow(&all_reads) + slow(&all_writes),
        ops,
    ));
    let rates: Vec<f64> = at
        .iter()
        .map(|x| x.ops as f64 / x.wall_s / x.factor())
        .collect();
    layer.push(Metric::new(
        "loadgen.window_spread",
        "ratio",
        stats::spread(&rates),
        at.len() as u64,
    ));
    let disturbed = rates.iter().filter(|&&r| r < 0.9 * ops_per_s.0).count();
    layer.push(Metric::new(
        "loadgen.disturbed_window_share",
        "ratio",
        disturbed as f64 / rates.len().max(1) as f64,
        rates.len() as u64,
    ));
    layer.push(Metric::new(
        "loadgen.stalled_windows",
        "count",
        stalled.len() as f64,
        windows.len() as u64,
    ));
    let every = || {
        setups
            .iter()
            .chain(at.iter().copied())
            .chain(cycles.iter().map(|x| &x.at))
    };
    for (name, pick) in [
        (
            "loadgen.calib_cpu_ratio",
            (|x| x.cpu_factor) as fn(&Interval) -> f64,
        ),
        ("loadgen.calib_sync_ratio", |x| x.sync_factor.unwrap_or(1.0)),
    ] {
        let ratios: Vec<f64> = every().map(pick).collect();
        layer.push(Metric::new(
            name,
            "ratio",
            stats::median(&ratios),
            ratios.len() as u64,
        ));
    }
    let calib_valid = every().all(|x| {
        [x.cpu_factor, x.sync_factor.unwrap_or(1.0)]
            .iter()
            .all(|f| (calib::VALID.0..=calib::VALID.1).contains(f))
    });
    layer.push(Metric::new(
        "loadgen.calib_valid",
        "bool",
        f64::from(u8::from(calib_valid)),
        1,
    ));
    if !calib_valid {
        notes.push(format!(
            "CALIBRATION OUT OF RANGE: a probe ratio left [{}, {}]; this machine is too far from \
             the nominal one for scaled timings to be compared with the recorded baseline",
            calib::VALID.0,
            calib::VALID.1
        ));
    }
    layer.push(Metric::new(
        "loadgen.peak_rss_mib",
        "MiB",
        procfs::peak_rss_mib(),
        1,
    ));
    layer.push(Metric::new(
        "loadgen.failed_ops",
        "count",
        failed as f64,
        attempted,
    ));
    layer.push(Metric::new(
        "loadgen.acked_lost",
        "count",
        acked_lost as f64,
        attempted,
    ));
    Ok(LoadResult {
        end_to_end: e2e,
        per_layer: layer,
        attempted,
        failed,
        correct: failed == 0 && acked_lost == 0,
        notes,
        raw_write_p50_us,
        raw_read_p50_us,
    })
}

/// The threaded twin: a few seconds of the workload's healthy mix on
/// `NodeCluster` (memory storage), for `node.*`.
pub fn run_node_twin(w: &Workload, cfg: &LoadConfig, seconds: f64) -> Vec<Metric> {
    let prepared = Prepared::new(w, cfg);
    let (twin, clients) = NodeTwin::start(w.shape, cfg.callers);
    let mut callers = prepared.callers(w, clients);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut pooled = Samples::default();
    for samples in on_each(&mut callers, |c| {
        let mut samples = Samples::default();
        while Instant::now() < deadline {
            let op = c.next_op(Avoid::default());
            c.run(op, &prepared.payloads, w.write, &mut samples);
        }
        samples
    }) {
        pooled.absorb(samples);
    }
    drop(callers);
    twin.shutdown();
    let (reads, writes) = (sorted(pooled.reads), sorted(pooled.writes));
    vec![
        Metric::new(
            "node.write_p50_us",
            "us",
            stats::quantile_sorted(&writes, 0.5),
            writes.len() as u64,
        ),
        Metric::new(
            "node.read_p50_us",
            "us",
            stats::quantile_sorted(&reads, 0.5),
            reads.len() as u64,
        ),
    ]
}
