//! Opt-in lock-order (“lockdep”) instrumentation.
//!
//! With `RADD_LOCKDEP=1` in the environment, every `Mutex`/`RwLock` built
//! from this shim joins a global acquisition-order graph:
//!
//! * each lock instance gets a **class id** at construction (plus the
//!   inner type's name for readable witnesses);
//! * a thread-local stack tracks the classes the current thread holds;
//! * on every **blocking** acquisition, a directed edge `held → wanted`
//!   is recorded for each currently-held class, remembering the full
//!   holder chain that first produced it (the *witness*);
//! * before recording, the would-be edges are checked against the graph:
//!   if a path `wanted →* held` already exists, the two orders form a
//!   cycle — a potential deadlock — and the acquisition **panics** with
//!   a two-chain witness (this thread's chain and the recorded chain of
//!   the conflicting edge), after dumping the same text under
//!   `target/lockdep/` for CI artifact upload.
//!
//! `try_lock` acquisitions enter the held stack
//! (so later blocking acquisitions see them) but record no edges and
//! trigger no panic: a non-blocking attempt cannot complete a deadlock
//! cycle by itself. `RwLock` readers are tracked like writers — a
//! read-read inversion only deadlocks with a writer wedged between, but
//! the discipline “one order, everywhere” is the point of the tool, so
//! the conservative report is intended.
//!
//! The detector works fully offline — unlike loom or TSan it needs no
//! special runtime or schedule exploration; a single test run that merely
//! *uses* two locks in both orders (even without contending) produces the
//! inversion report. With the variable unset, cost is one relaxed atomic
//! load per lock construction and a `None` branch per acquisition.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Is the detector armed? Decided once per process from `RADD_LOCKDEP`.
pub(crate) fn enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| std::env::var("RADD_LOCKDEP").is_ok_and(|v| v == "1"))
}

static NEXT_CLASS: AtomicU64 = AtomicU64::new(1);
static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);

/// Identity a lock carries from construction: a process-unique class id
/// and the inner type's name for witness text. Id 0 means “detector off”.
#[derive(Debug)]
pub(crate) struct LockClass {
    id: u64,
    name: &'static str,
}

impl LockClass {
    pub(crate) fn new<T>() -> LockClass {
        if enabled() {
            LockClass {
                id: NEXT_CLASS.fetch_add(1, Ordering::Relaxed),
                name: std::any::type_name::<T>(),
            }
        } else {
            LockClass { id: 0, name: "" }
        }
    }

    /// Record a blocking acquisition (edges + cycle check), returning the
    /// held-stack token to drop on release.
    pub(crate) fn acquire(&self, kind: &'static str) -> Option<Held> {
        if self.id == 0 {
            return None;
        }
        Some(on_acquire(self, kind, true))
    }

    /// Record a successful non-blocking acquisition (held-stack only).
    pub(crate) fn acquire_try(&self, kind: &'static str) -> Option<Held> {
        if self.id == 0 {
            return None;
        }
        Some(on_acquire(self, kind, false))
    }
}

/// A held-stack entry's receipt; dropping it releases the entry.
#[derive(Debug)]
pub(crate) struct Held {
    token: u64,
}

impl Drop for Held {
    fn drop(&mut self) {
        HELD.with(|h| {
            h.borrow_mut().retain(|e| e.token != self.token);
        });
    }
}

#[derive(Clone)]
struct HeldEntry {
    class: u64,
    desc: String,
    token: u64,
}

thread_local! {
    static HELD: RefCell<Vec<HeldEntry>> = const { RefCell::new(Vec::new()) };
}

/// First-witness record for one graph edge `from → to`.
struct EdgeWitness {
    /// Chain of descriptions the recording thread held, in order.
    held_chain: Vec<String>,
    /// Description of the lock it was acquiring.
    acquired: String,
}

#[derive(Default)]
struct Graph {
    /// Adjacency: class id → classes acquired while it was held.
    adj: HashMap<u64, Vec<u64>>,
    /// Edge (from, to) → the first chain that recorded it.
    witness: HashMap<(u64, u64), EdgeWitness>,
}

fn graph() -> &'static Mutex<Graph> {
    static GRAPH: OnceLock<Mutex<Graph>> = OnceLock::new();
    GRAPH.get_or_init(|| Mutex::new(Graph::default()))
}

/// DFS: is `to` reachable from `from`? Returns the path `from → … → to`
/// (as class ids) when it is.
fn find_path(g: &Graph, from: u64, to: u64) -> Option<Vec<u64>> {
    let mut stack = vec![vec![from]];
    let mut seen = vec![from];
    while let Some(path) = stack.pop() {
        let last = *path.last().expect("paths are never empty");
        if last == to {
            return Some(path);
        }
        if let Some(nexts) = g.adj.get(&last) {
            for &n in nexts {
                if !seen.contains(&n) {
                    seen.push(n);
                    let mut p = path.clone();
                    p.push(n);
                    stack.push(p);
                }
            }
        }
    }
    None
}

fn on_acquire(class: &LockClass, kind: &'static str, blocking: bool) -> Held {
    let desc = format!("{kind}#{} ({})", class.id, class.name);
    let held: Vec<HeldEntry> = HELD.with(|h| h.borrow().clone());
    if blocking && !held.is_empty() {
        let mut g = graph().lock().unwrap_or_else(PoisonError::into_inner);
        // Cycle check first: a path wanted →* held means some thread has
        // acquired a lock we hold while holding the lock we want.
        for e in &held {
            if e.class == class.id {
                continue; // same instance re-entry would self-deadlock; out of scope
            }
            if let Some(path) = find_path(&g, class.id, e.class) {
                let report = inversion_report(&g, &held, &desc, &path);
                drop(g);
                dump_witness(&report);
                panic!("{report}");
            }
        }
        for e in &held {
            if e.class == class.id {
                continue;
            }
            let key = (e.class, class.id);
            if let std::collections::hash_map::Entry::Vacant(slot) = g.witness.entry(key) {
                slot.insert(EdgeWitness {
                    held_chain: held.iter().map(|h| h.desc.clone()).collect(),
                    acquired: desc.clone(),
                });
                g.adj.entry(e.class).or_default().push(class.id);
            }
        }
    }
    let token = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed);
    HELD.with(|h| {
        h.borrow_mut().push(HeldEntry {
            class: class.id,
            desc,
            token,
        });
    });
    Held { token }
}

/// Build the two-chain witness text for an inversion: this thread's chain
/// and the recorded chain of the first edge along the conflicting path.
fn inversion_report(g: &Graph, held: &[HeldEntry], acquiring: &str, path: &[u64]) -> String {
    let this_chain = held
        .iter()
        .map(|e| e.desc.as_str())
        .collect::<Vec<_>>()
        .join(" -> ");
    let mut report = format!(
        "lockdep: lock-order inversion (potential deadlock)\n  \
         this thread: holds [{this_chain}], acquiring {acquiring}\n"
    );
    for pair in path.windows(2) {
        if let Some(w) = g.witness.get(&(pair[0], pair[1])) {
            let prior_chain = w.held_chain.join(" -> ");
            report.push_str(&format!(
                "  prior chain: held [{prior_chain}], acquired {}\n",
                w.acquired
            ));
        }
    }
    report.push_str(
        "  the two acquisition orders form a cycle; pick one order and use it everywhere \
         (DESIGN.md §16)",
    );
    report
}

/// Best-effort dump next to the workspace target dir so CI can upload it.
fn dump_witness(report: &str) {
    let mut dir = std::env::current_dir().unwrap_or_default();
    loop {
        if dir.join("Cargo.lock").is_file() {
            break;
        }
        if !dir.pop() {
            return;
        }
    }
    let dump_dir = dir.join("target").join("lockdep");
    if std::fs::create_dir_all(&dump_dir).is_err() {
        return;
    }
    let seq = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed);
    let path = dump_dir.join(format!("witness-{}-{seq}.txt", std::process::id()));
    let _ = std::fs::write(path, report);
}
