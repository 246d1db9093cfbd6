//! Serializable snapshots of the metrics registry and flight recorder,
//! plus the JSON/text export used by the bench harness, the fault engine's
//! failure reports, and `examples/obs_top.rs`.

use radd_protocol::obs::ObsEvent;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fmt::Write as _;

/// One named counter row (zero rows are elided at snapshot time).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NamedCount {
    /// Stable metric key ([`radd_protocol::IoPurpose::name`] /
    /// [`radd_protocol::MsgKind::name`]).
    pub name: String,
    /// Count.
    pub n: u64,
}

/// One non-empty histogram bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BucketCount {
    /// Inclusive upper bound of the bucket (0 for the zero bucket, else
    /// `2^b - 1`).
    pub hi: u64,
    /// Values recorded into it.
    pub n: u64,
}

/// A latency histogram, frozen.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Recorded values.
    pub count: u64,
    /// Sum of recorded values (saturating).
    pub sum: u64,
    /// Non-empty buckets, ascending.
    pub buckets: Vec<BucketCount>,
}

impl HistogramSnapshot {
    /// Upper bound of the bucket containing quantile `q` (0.0–1.0), or 0
    /// when empty. Log-bucketed, so this is an order-of-magnitude estimate.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for b in &self.buckets {
            seen += b.n;
            if seen >= rank {
                return b.hi;
            }
        }
        self.buckets.last().map_or(0, |b| b.hi)
    }

    /// Mean of recorded values, or 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

/// What a site's durable store has done since it was opened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StorageSnapshot {
    /// Log batches committed: one write and one `fdatasync` each.
    pub commits: u64,
    /// Bytes those batches put on the device, each rounded up to the
    /// log's sector.
    pub log_bytes: u64,
    /// Checkpoints: laps of the log ended.
    pub checkpoints: u64,
    /// Rows those lap ends wrote back to the block file.
    pub written_back: u64,
    /// The log is written through a direct (`O_DIRECT`) handle.
    pub direct: bool,
}

impl StorageSnapshot {
    /// The `storage:` line of a site's text render (and of `radd-cli
    /// obs`), with the commits its store failed.
    pub fn line(&self, commit_failures: u64) -> String {
        format!(
            "storage: {} commits={} log_bytes={} checkpoints={} written_back={} \
             commit_failures={commit_failures}",
            if self.direct { "direct" } else { "buffered" },
            self.commits,
            self.log_bytes,
            self.checkpoints,
            self.written_back,
        )
    }
}

/// The metrics registry of one machine, frozen.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Local reads by [`radd_protocol::IoPurpose`] (non-zero only).
    pub io_reads: Vec<NamedCount>,
    /// Local writes by [`radd_protocol::IoPurpose`] (non-zero only).
    pub io_writes: Vec<NamedCount>,
    /// Sends by [`radd_protocol::MsgKind`] (non-zero only; includes
    /// retransmissions and replays).
    pub sends: Vec<NamedCount>,
    /// Total charged wire bytes sent.
    pub send_bytes: u64,
    /// Stop-and-wait retransmissions.
    pub retransmits: u64,
    /// Duplicate-reply replays out of the at-most-once cache.
    pub replays: u64,
    /// Client replies deferred on a pending parity ack.
    pub defer_acks: u64,
    /// Endpoint sends that failed outright (closed channel, unknown site).
    pub send_failures: u64,
    /// Stashed out-of-band replies evicted before use.
    pub stash_evictions: u64,
    /// Durable commits the store failed (each took the site down).
    pub commit_failures: u64,
    /// Messages that found their site busy with another one (socket
    /// runtime: the reader thread's `try_lock` on the site failed before
    /// it blocked). Against total receives, the share of traffic a
    /// cross-message group commit would have anything to batch.
    pub site_busy_arrivals: u64,
    /// How long those messages then waited for the site lock, in
    /// microsecond buckets (`lt_10`, `lt_40`, `lt_80`, `lt_160`, `ge_160`;
    /// non-zero only). Messages that found the site free are not timed:
    /// they are the receives this list does not add up to.
    pub site_lock_wait_us: Vec<NamedCount>,
    /// Sends whose block went out under the check it arrived with (the
    /// socket runtime: a block stored as a message carried it, sent again
    /// as that same buffer), so its frame made no pass over it.
    pub block_checks_reused: u64,
    /// Sends with a block whose check was not kept, which a checking
    /// transport computes (the threaded runtime computes none).
    pub block_checks_computed: u64,
    /// Writes absorbed by parity-update coalescing.
    pub coalesced_merges: u64,
    /// Writes a client sent as change masks (`WriteMask`).
    pub writes_as_masks: u64,
    /// Writes a client sent as whole blocks (`Write`), a refused mask's
    /// resend included.
    pub writes_as_blocks: u64,
    /// A client's masks refused for a stale base (`Nack StaleBase`).
    pub stale_bases: u64,
    /// `WriteMask`s a site applied.
    pub masks_applied: u64,
    /// `WriteMask`s a site refused (a stale base, or a mask that does not
    /// fit the block).
    pub masks_refused: u64,
    /// The site's durable store, mirrored at snapshot time (`None` for a
    /// memory store and for clients).
    pub storage: Option<StorageSnapshot>,
    /// Recovery drains started.
    pub recovery_runs: u64,
    /// Gauge: rows drained by the current/last recovery.
    pub recovery_drained_rows: u64,
    /// Gauge: rows still pending in the current/last recovery.
    pub recovery_pending_rows: u64,
    /// Member rebuild passes started.
    pub rebuild_runs: u64,
    /// Blocks reconstructed into spares by rebuild passes.
    pub rebuild_blocks: u64,
    /// Bytes folded through the XOR kernel by rebuild passes.
    pub rebuild_bytes_xored: u64,
    /// Gauge: surviving peers the current/last rebuild fanned reads across.
    pub rebuild_fanout_peers: u64,
    /// Completed-read latency (wall ns in the threaded runtime, logical
    /// Figure-3 cost in the DES).
    pub read_latency: HistogramSnapshot,
    /// Completed-write latency (same units as `read_latency`).
    pub write_latency: HistogramSnapshot,
}

impl MetricsSnapshot {
    /// The `masks:` line of a machine's text render (and of `radd-cli
    /// obs`): a client's writes by how they went (`sent` as masks, as
    /// `blocks`, `stale_base` refusals), a site's masks `applied` and
    /// `refused`. `None` for a machine that has counted none of them.
    pub fn masks_line(&self) -> Option<String> {
        let counts = [
            ("sent", self.writes_as_masks),
            ("blocks", self.writes_as_blocks),
            ("stale_base", self.stale_bases),
            ("applied", self.masks_applied),
            ("refused", self.masks_refused),
        ];
        if counts.iter().all(|&(_, n)| n == 0) {
            return None;
        }
        let body: String = counts.iter().map(|(k, n)| format!(" {k}={n}")).collect();
        Some(format!("masks:{body}"))
    }

    fn named(&self, rows: &[NamedCount], key: &str) -> u64 {
        rows.iter().find(|r| r.name == key).map_or(0, |r| r.n)
    }

    /// Sends of the named kind (see [`radd_protocol::MsgKind::name`]).
    pub fn sends_named(&self, kind: &str) -> u64 {
        self.named(&self.sends, kind)
    }

    /// Reads for the named purpose (see
    /// [`radd_protocol::IoPurpose::name`]).
    pub fn reads_named(&self, purpose: &str) -> u64 {
        self.named(&self.io_reads, purpose)
    }

    /// Writes for the named purpose.
    pub fn writes_named(&self, purpose: &str) -> u64 {
        self.named(&self.io_writes, purpose)
    }
}

/// One flight-recorder slot: a normalized protocol event plus its
/// machine-local sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlightEvent {
    /// Machine-local monotone sequence number.
    pub seq: u64,
    /// The event.
    pub event: ObsEvent,
}

/// The observability state of one machine, frozen: metrics plus the
/// flight-recorder tail.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MachineSnapshot {
    /// Machine name (`"client"`, `"client 2"`, `"site 0"`, …).
    pub name: String,
    /// Frozen metrics registry.
    pub metrics: MetricsSnapshot,
    /// Flight-recorder contents, oldest first.
    pub flight: Vec<FlightEvent>,
}

/// A whole-cluster observability snapshot: every machine's metrics and
/// flight-recorder tail, in a stable order (clients first, then sites).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObsSnapshot {
    /// Per-machine snapshots.
    pub machines: Vec<MachineSnapshot>,
}

impl ObsSnapshot {
    /// Look up a machine snapshot by name.
    pub fn machine(&self, name: &str) -> Option<&MachineSnapshot> {
        self.machines.iter().find(|m| m.name == name)
    }

    /// Sum of retransmissions across every machine.
    pub fn total_retransmits(&self) -> u64 {
        self.machines.iter().map(|m| m.metrics.retransmits).sum()
    }

    /// Total flight-recorder events retained across every machine.
    pub fn total_flight_events(&self) -> usize {
        self.machines.iter().map(|m| m.flight.len()).sum()
    }

    /// Pretty-printed JSON (2-space indent), for `results/` files and CI
    /// artifacts.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("obs snapshot serializes")
    }

    /// Human-readable text rendering: a counter summary per machine plus
    /// the last `tail` flight-recorder events. `tail = 0` omits the events.
    pub fn render_text(&self, tail: usize) -> String {
        let mut out = String::new();
        for m in &self.machines {
            let s = &m.metrics;
            let _ = writeln!(
                out,
                "{:<10} sends={:<6} bytes={:<9} retx={:<4} replay={:<4} defer={:<4} coalesced={:<4}",
                m.name,
                s.sends.iter().map(|r| r.n).sum::<u64>(),
                s.send_bytes,
                s.retransmits,
                s.replays,
                s.defer_acks,
                s.coalesced_merges,
            );
            let io_line = |label: &str, rows: &[NamedCount], out: &mut String| {
                if rows.is_empty() {
                    return;
                }
                let body = rows
                    .iter()
                    .map(|r| format!("{}={}", r.name, r.n))
                    .collect::<Vec<_>>()
                    .join(" ");
                let _ = writeln!(out, "           {label}: {body}");
            };
            io_line("reads ", &s.io_reads, &mut out);
            io_line("writes", &s.io_writes, &mut out);
            if s.read_latency.count > 0 || s.write_latency.count > 0 {
                let _ = writeln!(
                    out,
                    "           latency: read n={} mean={} p99<={} | write n={} mean={} p99<={}",
                    s.read_latency.count,
                    s.read_latency.mean(),
                    s.read_latency.quantile(0.99),
                    s.write_latency.count,
                    s.write_latency.mean(),
                    s.write_latency.quantile(0.99),
                );
            }
            if let Some(st) = &s.storage {
                let _ = writeln!(out, "           {}", st.line(s.commit_failures));
            }
            if s.site_busy_arrivals > 0 {
                let waits = s
                    .site_lock_wait_us
                    .iter()
                    .map(|r| format!(" {}={}", r.name, r.n))
                    .collect::<String>();
                let _ = writeln!(
                    out,
                    "           queueing: site_busy_arrivals={} lock_wait_us:{waits}",
                    s.site_busy_arrivals
                );
            }
            if let Some(line) = s.masks_line() {
                let _ = writeln!(out, "           {line}");
            }
            if s.block_checks_reused + s.block_checks_computed > 0 {
                let _ = writeln!(
                    out,
                    "           transport: block_checks reused={} computed={}",
                    s.block_checks_reused, s.block_checks_computed
                );
            }
            if s.recovery_runs > 0 {
                let _ = writeln!(
                    out,
                    "           recovery: runs={} drained={} pending={}",
                    s.recovery_runs, s.recovery_drained_rows, s.recovery_pending_rows,
                );
            }
            if s.rebuild_runs > 0 {
                let _ = writeln!(
                    out,
                    "           rebuild: runs={} blocks={} xor_bytes={} fanout={}",
                    s.rebuild_runs, s.rebuild_blocks, s.rebuild_bytes_xored, s.rebuild_fanout_peers,
                );
            }
            if tail > 0 && !m.flight.is_empty() {
                let skip = m.flight.len().saturating_sub(tail);
                for ev in &m.flight[skip..] {
                    let _ = writeln!(out, "           [{:>6}] {}", ev.seq, ev.event);
                }
            }
        }
        out
    }
}

impl fmt::Display for ObsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_text(8))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MachineObs;

    #[test]
    fn quantile_walks_the_buckets() {
        let h = HistogramSnapshot {
            count: 10,
            sum: 100,
            buckets: vec![BucketCount { hi: 7, n: 9 }, BucketCount { hi: 1023, n: 1 }],
        };
        assert_eq!(h.quantile(0.5), 7);
        assert_eq!(h.quantile(0.99), 1023);
        assert_eq!(h.mean(), 10);
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0);
    }

    /// Minimal JSON well-formedness checker (the vendored `serde_json` shim
    /// only serializes, so tests validate its output by hand). Returns the
    /// rest of the input after one complete value, or `None` on malformed
    /// input — trailing garbage after the top-level value is the caller's
    /// check.
    fn json_value(s: &str) -> Option<&str> {
        let s = s.trim_start();
        let mut chars = s.char_indices();
        match chars.next()?.1 {
            '{' => {
                let mut rest = s[1..].trim_start();
                if let Some(r) = rest.strip_prefix('}') {
                    return Some(r);
                }
                loop {
                    rest = json_value(rest)?.trim_start(); // key
                    rest = rest.strip_prefix(':')?;
                    rest = json_value(rest)?.trim_start(); // value
                    if let Some(r) = rest.strip_prefix(',') {
                        rest = r.trim_start();
                    } else {
                        return rest.strip_prefix('}');
                    }
                }
            }
            '[' => {
                let mut rest = s[1..].trim_start();
                if let Some(r) = rest.strip_prefix(']') {
                    return Some(r);
                }
                loop {
                    rest = json_value(rest)?.trim_start();
                    if let Some(r) = rest.strip_prefix(',') {
                        rest = r.trim_start();
                    } else {
                        return rest.strip_prefix(']');
                    }
                }
            }
            '"' => {
                let mut escaped = false;
                for (i, c) in chars {
                    match c {
                        _ if escaped => escaped = false,
                        '\\' => escaped = true,
                        '"' => return Some(&s[i + 1..]),
                        _ => {}
                    }
                }
                None
            }
            _ => {
                let end = s
                    .find(|c: char| ",]}".contains(c) || c.is_whitespace())
                    .unwrap_or(s.len());
                let tok = &s[..end];
                let ok = matches!(tok, "true" | "false" | "null") || tok.parse::<f64>().is_ok();
                ok.then(|| &s[end..])
            }
        }
    }

    fn assert_valid_json(s: &str) {
        let rest = json_value(s).unwrap_or_else(|| panic!("malformed JSON:\n{s}"));
        assert!(
            rest.trim().is_empty(),
            "trailing garbage after JSON: {rest:?}\nfull:\n{s}"
        );
    }

    #[test]
    fn exported_json_is_well_formed() {
        // Regression: the serde_derive shim once emitted doubled closing
        // braces for enum struct/tuple variants, corrupting every flight
        // array. Exercise each ObsEvent shape through a full snapshot.
        use radd_protocol::{Dest, IoPurpose, MsgKind};
        let mut obs = MachineObs::new();
        for ev in [
            ObsEvent::Send {
                to: Dest::Site(1),
                kind: MsgKind::ParityUpdate,
                tag: 9,
                wire: 40,
                retransmit: true,
                replay: false,
            },
            ObsEvent::Read {
                row: 2,
                purpose: IoPurpose::Reconstruct,
            },
            ObsEvent::Write {
                row: 2,
                purpose: IoPurpose::ParityApply,
            },
            ObsEvent::DeferAck { tag: 1, row: 2 },
        ] {
            obs.event(ev);
        }
        obs.metrics().record_write_latency(1234);
        let snap = ObsSnapshot {
            machines: vec![obs.snapshot("site 0")],
        };
        assert_valid_json(&snap.to_json());
        assert_valid_json(&serde_json::to_string(&snap).unwrap());
    }

    #[test]
    fn snapshot_serializes_and_renders() {
        let snap = ObsSnapshot {
            machines: vec![MachineSnapshot {
                name: "site 0".into(),
                metrics: MetricsSnapshot {
                    sends: vec![NamedCount {
                        name: "ack".into(),
                        n: 3,
                    }],
                    send_bytes: 48,
                    retransmits: 1,
                    block_checks_reused: 5,
                    block_checks_computed: 2,
                    storage: Some(StorageSnapshot {
                        commits: 3,
                        log_bytes: 3 * 4608,
                        checkpoints: 1,
                        written_back: 2,
                        direct: true,
                    }),
                    ..MetricsSnapshot::default()
                },
                flight: vec![FlightEvent {
                    seq: 7,
                    event: ObsEvent::DeferAck { tag: 1, row: 2 },
                }],
            }],
        };
        let json = snap.to_json();
        assert!(json.contains("\"retransmits\": 1"), "{json}");
        assert!(json.contains("\"block_checks_reused\": 5"), "{json}");
        let text = snap.render_text(4);
        assert!(text.contains("site 0"));
        assert!(text.contains("transport: block_checks reused=5 computed=2"));
        assert!(
            text.contains(
                "storage: direct commits=3 log_bytes=13824 checkpoints=1 written_back=2 \
                 commit_failures=0"
            ),
            "{text}"
        );
        assert!(json.contains("\"log_bytes\": 13824"), "{json}");
        assert!(text.contains("defer tag=1 row=2"));
        assert_eq!(snap.machine("site 0").unwrap().metrics.send_bytes, 48);
        assert_eq!(snap.total_retransmits(), 1);
    }
}
