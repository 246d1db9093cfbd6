//! Process counters from `/proc` (Linux only; the benchmark says so and
//! stops if a file it needs is missing).

use std::fs;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// CPU time and context switches of threads that retired themselves (see
/// [`retire_thread`]); `/proc/self/task` forgets a thread when it exits.
static RETIRED_CPU_NS: AtomicU64 = AtomicU64::new(0);
static RETIRED_CTX_SWITCHES: AtomicU64 = AtomicU64::new(0);

fn task_counters(dir: &Path) -> (u64, u64) {
    let cpu_ns = fs::read_to_string(dir.join("schedstat")).map_or(0, |s| first_number(&s));
    let ctx = fs::read_to_string(dir.join("status")).map_or(0, |s| {
        field(&s, "voluntary_ctxt_switches:") + field(&s, "nonvoluntary_ctxt_switches:")
    });
    (cpu_ns, ctx)
}

/// Called by a short-lived thread as the last thing it does, so that what it
/// consumed stays in [`Counters`] after it exits.
pub fn retire_thread() {
    let (cpu_ns, ctx) = task_counters(Path::new("/proc/thread-self"));
    RETIRED_CPU_NS.fetch_add(cpu_ns, Ordering::SeqCst);
    RETIRED_CTX_SWITCHES.fetch_add(ctx, Ordering::SeqCst);
}

fn read(path: &str) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("the benchmark needs {path}: {e}"))
}

/// One reading of every counter the load generator differences.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// On-CPU nanoseconds of every live thread (`schedstat`, field 1).
    pub cpu_ns: u64,
    /// Voluntary + involuntary context switches of every live thread.
    pub ctx_switches: u64,
    /// `read` and `write` system calls (`syscr + syscw`). Sockets are driven
    /// by `send` and `recv`, which these do not count: this is file I/O.
    pub file_syscalls: u64,
    /// Bytes this process caused to be sent to the storage layer.
    pub disk_write_bytes: u64,
    /// Bytes transmitted on the loopback interface (headers and ACKs too).
    pub lo_tx_bytes: u64,
}

impl Counters {
    /// A thread that exits between two readings takes its share with it
    /// unless it called [`retire_thread`] first; the repository's own
    /// threads all outlive the intervals measured.
    pub fn read() -> Counters {
        let mut c = Counters {
            cpu_ns: RETIRED_CPU_NS.load(Ordering::SeqCst),
            ctx_switches: RETIRED_CTX_SWITCHES.load(Ordering::SeqCst),
            ..Counters::default()
        };
        for task in fs::read_dir("/proc/self/task").expect("the benchmark needs /proc/self/task") {
            // A thread may exit between the listing and the read.
            let (cpu_ns, ctx) = task_counters(&task.expect("task entry").path());
            c.cpu_ns += cpu_ns;
            c.ctx_switches += ctx;
        }
        let io = read("/proc/self/io");
        c.file_syscalls = field(&io, "syscr:") + field(&io, "syscw:");
        c.disk_write_bytes = field(&io, "write_bytes:");
        c.lo_tx_bytes = read("/proc/net/dev")
            .lines()
            .find_map(|l| l.trim_start().strip_prefix("lo:"))
            .and_then(|rest| rest.split_whitespace().nth(8))
            .and_then(|n| n.parse().ok())
            .expect("/proc/net/dev lists the loopback interface");
        c
    }

    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
            file_syscalls: self.file_syscalls.saturating_sub(earlier.file_syscalls),
            disk_write_bytes: self
                .disk_write_bytes
                .saturating_sub(earlier.disk_write_bytes),
            lo_tx_bytes: self.lo_tx_bytes.saturating_sub(earlier.lo_tx_bytes),
        }
    }
}

fn first_number(s: &str) -> u64 {
    s.split_whitespace()
        .next()
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

/// The number after `key` at the start of a line (`key` includes its colon,
/// so `voluntary_…` does not match inside `nonvoluntary_…`).
fn field(text: &str, key: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .map_or(0, first_number)
}

/// The CPUs this process may run on (`Cpus_allowed_list`), e.g. `0` or `0-1`.
pub fn cpus_allowed() -> String {
    read("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .map_or_else(|| "unknown".to_string(), |v| v.trim().to_string())
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    field(&read("/proc/self/status"), "VmHWM:") as f64 / 1024.0
}

/// Filesystem type holding `path`, from the longest matching mount point.
/// `tmpfs` makes `fdatasync` free, so every run prints this.
pub fn fs_type(path: &Path) -> String {
    let path = fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mut best = (0, String::from("unknown"));
    for line in read("/proc/self/mountinfo").lines() {
        // "<id> <parent> <maj:min> <root> <mount point> <opts> … - <fstype> …"
        let mut halves = line.splitn(2, " - ");
        let (Some(left), Some(right)) = (halves.next(), halves.next()) else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (left.split(' ').nth(4), right.split(' ').next()) else {
            continue;
        };
        if path.starts_with(mount) && mount.len() >= best.0 {
            best = (mount.len(), fstype.to_string());
        }
    }
    best.1
}
