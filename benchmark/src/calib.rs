//! Calibration: fixed work that executes none of the repository's code,
//! timed so that a measured interval can be scaled to what it would have
//! taken on the baseline machine in its base state.
//!
//! Two things drift in the sandbox, independently and by more than any
//! bound in `BENCHMARK.json`:
//!
//! * **CPU speed** steps between states several times a second (the same
//!   spin takes 143, 150, 162 or 182 us), and a state lasts about as long as
//!   a measurement window, so a probe before or after a window says little
//!   about the window. A thread therefore times a short spin every few
//!   milliseconds *while* the load runs; on one CPU the spin's time tracks
//!   the CPU time of an operation within a few percent. It costs about 4%
//!   of a CPU, the same on every commit.
//! * **Device latency** (`sync_data` of a small append) wanders between
//!   0.25 and 0.65 ms over tens of seconds. A probe that synced beside the
//!   load would mostly measure its queueing behind the load's own syncs, so
//!   the device is probed between intervals, while the callers are parked.
//!
//! How the two ratios scale an interval is in `load::Interval::factor`. Raw
//! values are printed beside scaled ones. Counts and byte ratios are never
//! scaled.

use std::fs::{File, OpenOptions};
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const SPIN_ITERATIONS: u32 = 100_000;
const SPIN_PAUSE: Duration = Duration::from_millis(4);
const SYNCED_APPENDS: usize = 8;
const APPEND_BYTES: usize = 16 * 1024;

/// The probes' times on the baseline sandbox in its base state (Xeon
/// 2.1 GHz vCPU, ext4 on virtio), in microseconds.
const NOMINAL_SPIN_US: f64 = 181.8;
const NOMINAL_SYNC_US: f64 = 300.0;
/// A spin sample this far above the interval's fastest was preempted
/// mid-spin and says nothing about CPU speed.
const PREEMPTED: f64 = 1.4;

/// Factors outside this range mean the machine is too far from nominal for
/// scaled timings to be compared with the baseline's; the run says so.
pub const VALID: (f64, f64) = (0.4, 2.5);

pub struct Calibrator {
    stop: Arc<AtomicBool>,
    spins_us: Arc<Mutex<Vec<f64>>>,
    spinner: Option<JoinHandle<()>>,
    file: Option<File>,
}

impl Calibrator {
    /// `disk_dir`: where the synced appends go (the workload's data dir), or
    /// `None` on memory workloads, which never wait for a device.
    pub fn start(disk_dir: Option<&Path>) -> Calibrator {
        let stop = Arc::new(AtomicBool::new(false));
        let spins_us = Arc::new(Mutex::new(Vec::new()));
        let (stopping, shared) = (Arc::clone(&stop), Arc::clone(&spins_us));
        let spinner = std::thread::spawn(move || {
            while !stopping.load(Ordering::SeqCst) {
                let started = Instant::now();
                let mut x = 0x9E37_79B9_7F4A_7C15u64;
                for _ in 0..SPIN_ITERATIONS {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                }
                black_box(x);
                let us = started.elapsed().as_nanos() as f64 / 1000.0;
                shared.lock().expect("spin samples").push(us);
                std::thread::sleep(SPIN_PAUSE);
            }
        });
        let file = disk_dir.map(|dir| {
            std::fs::create_dir_all(dir).expect("create the data dir");
            OpenOptions::new()
                .create(true)
                .append(true)
                .open(dir.join("calibration.probe"))
                .expect("open the probe file")
        });
        Calibrator {
            stop,
            spins_us,
            spinner: Some(spinner),
            file,
        }
    }

    /// Forget the spins sampled so far: an interval starts here.
    pub fn reset(&self) {
        self.spins_us.lock().expect("spin samples").clear();
    }

    /// `nominal / measured` for the CPU over the interval since `reset`:
    /// what to multiply a raw time by.
    pub fn cpu_factor(&self) -> f64 {
        let spins = std::mem::take(&mut *self.spins_us.lock().expect("spin samples"));
        let fastest = spins.iter().copied().fold(f64::INFINITY, f64::min);
        let kept: Vec<f64> = spins
            .into_iter()
            .filter(|&x| x <= fastest * PREEMPTED)
            .collect();
        if kept.is_empty() {
            // An interval too short for one sample is taken at face value.
            return 1.0;
        }
        NOMINAL_SPIN_US / (kept.iter().sum::<f64>() / kept.len() as f64)
    }

    /// `nominal / measured` for the device right now, to be called while
    /// nothing else syncs; `None` on memory workloads.
    pub fn sync_factor(&mut self) -> Option<f64> {
        let f = self.file.as_mut()?;
        let block = [0xA5u8; APPEND_BYTES];
        let started = Instant::now();
        for _ in 0..SYNCED_APPENDS {
            f.write_all(&block).expect("probe append");
            f.sync_data().expect("probe sync_data");
        }
        let us = started.elapsed().as_nanos() as f64 / 1000.0 / SYNCED_APPENDS as f64;
        Some(NOMINAL_SYNC_US / us)
    }
}

impl Drop for Calibrator {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.spinner.take() {
            let _ = h.join();
        }
    }
}
