//! `radd-cli` — administer a running cluster over the wire control plane.
//!
//! ```text
//! radd-cli <site-map-file> status            # per-group health + spare state
//! radd-cli <site-map-file> [--group <k>] obs <site> [--json]
//! radd-cli <site-map-file> [--group <k>] down <site>   # mark down, tell its peers
//! radd-cli <site-map-file> [--group <k>] up <site>
//! radd-cli <site-map-file> [--group <k>] shutdown <site|all>
//! ```
//!
//! `status` reports every group on a multi-group map (`groups = N`):
//! group id, healthy/degraded/outage, spare state, and each member slot's
//! endpoint. The per-site commands take `--group <k>` (default 0) and name
//! member slots within that group.
//!
//! Control traffic rides the same framed TCP connections as the protocol
//! (frame types 2/3) but is answered whatever the site's state, so a
//! site that is marked down — exactly when its flight recorder is most
//! interesting — still responds. `obs` fetches the PR-4 observability
//! snapshot (metrics + flight-recorder tail) as JSON and renders it.

use radd_obs::StorageSnapshot;
use radd_rt::frame::{CtlRep, CtlReq};
use radd_rt::{ClusterConfig, CtlClient};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: radd-cli <site-map-file> [--group <k>] <command>\n\
         commands:\n\
         \x20 status\n\
         \x20 obs <site> [--json]\n\
         \x20 down <site>\n\
         \x20 up <site>\n\
         \x20 shutdown <site|all>"
    );
    ExitCode::from(2)
}

fn site_arg(cfg: &ClusterConfig, s: &str) -> Result<usize, String> {
    let site: usize = s.parse().map_err(|_| format!("invalid site: `{s}`"))?;
    let width = cfg.g + 2;
    if site >= width {
        return Err(format!(
            "member {site} is out of range (groups have {width} member slots)"
        ));
    }
    Ok(site)
}

/// `json` without the whitespace outside its strings: the wire carries the
/// snapshot's pretty render, and the lookups below read the compact one.
fn compact(json: &str) -> String {
    let (mut out, mut in_string, mut escaped) = (String::with_capacity(json.len()), false, false);
    for c in json.chars() {
        if in_string {
            (escaped, in_string) = (!escaped && c == '\\', escaped || c != '"');
        } else if c == '"' {
            in_string = true;
        } else if c.is_whitespace() {
            continue;
        }
        out.push(c);
    }
    out
}

/// Pull `{"name":"<name>","n":N}` out of the `<list>` array of a raw obs
/// JSON snapshot — just enough parsing for the rebuild counters (the
/// workspace has no JSON deserializer by design).
fn json_counter(json: &str, list: &str, name: &str) -> u64 {
    let json = compact(json);
    let Some(start) = json.find(&format!("\"{list}\":[")) else {
        return 0;
    };
    let body = &json[start..];
    let body = &body[..body.find(']').unwrap_or(body.len())];
    let needle = format!("\"name\":\"{name}\",\"n\":");
    let Some(pos) = body.find(&needle) else {
        return 0;
    };
    body[pos + needle.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or(0)
}

/// The `storage:` line of a raw obs snapshot: what the site's durable
/// store did since it opened. A memory site has no store, and no line.
fn storage_line(json: &str) -> Option<String> {
    let json = compact(json);
    let start = json.find("\"storage\":{")?;
    let object = &json[start..start + json[start..].find('}')?];
    // The value after `"key":` in `within`, up to the next `,` or `}`.
    let field = |within: &str, key: &str| {
        let needle = format!("\"{key}\":");
        let at = within
            .find(&needle)
            .map_or(within.len(), |at| at + needle.len());
        within[at..]
            .split([',', '}'])
            .next()
            .unwrap_or("")
            .to_string()
    };
    let number = |within: &str, key: &str| field(within, key).parse().unwrap_or(0);
    let storage = StorageSnapshot {
        commits: number(object, "commits"),
        log_bytes: number(object, "log_bytes"),
        checkpoints: number(object, "checkpoints"),
        direct: field(object, "direct") == "true",
    };
    Some(storage.line(number(&json, "commit_failures")))
}

/// What one member slot reported (or failed to).
struct SlotStatus {
    down: bool,
    reachable: bool,
    pending: u64,
    acked: bool,
    /// Reconstruction reads this site has served (rebuild fan-out load).
    rebuild_reads: u64,
    /// Blocks installed into this site's spare slots.
    spare_installs: u64,
    detail: String,
}

fn probe(addr: std::net::SocketAddr) -> Result<SlotStatus, String> {
    let mut ctl = match CtlClient::connect(addr) {
        Ok(ctl) => ctl,
        Err(e) => {
            return Ok(SlotStatus {
                down: true,
                reachable: false,
                pending: 0,
                acked: false,
                rebuild_reads: 0,
                spare_installs: 0,
                detail: format!("UNREACHABLE ({e})"),
            })
        }
    };
    let down = match ctl.request(CtlReq::Ping)? {
        CtlRep::Pong { down } => down,
        other => return Err(format!("unexpected reply {other:?}")),
    };
    let pending = match ctl.request(CtlReq::QueryPending)? {
        CtlRep::Pending(n) => n,
        other => return Err(format!("unexpected reply {other:?}")),
    };
    let acked = matches!(ctl.request(CtlReq::QueryAllAcked)?, CtlRep::AllAcked(true));
    let (rebuild_reads, spare_installs) = match ctl.request(CtlReq::QueryObsJson) {
        Ok(CtlRep::ObsJson(json)) => (
            json_counter(&json, "io_reads", "reconstruct"),
            json_counter(&json, "io_writes", "spare_install"),
        ),
        _ => (0, 0),
    };
    Ok(SlotStatus {
        down,
        reachable: true,
        pending,
        acked,
        rebuild_reads,
        spare_installs,
        detail: format!(
            "{} pending={pending} all_acked={acked}",
            if down { "DOWN" } else { "up  " }
        ),
    })
}

fn status(cfg: &ClusterConfig) -> Result<(), String> {
    let mut all_acked = true;
    let mut degraded_groups = 0usize;
    for group in 0..cfg.groups {
        let width = cfg.g + 2;
        let mut impaired = 0usize;
        let mut spare_updates = 0u64;
        let mut rebuild_reads = 0u64;
        let mut spare_installs = 0u64;
        let mut lines = Vec::with_capacity(width);
        for member in 0..width {
            let addr = cfg.group_member_addr(group, member);
            let pool = cfg.pool_site_of(group, member);
            let s = probe(addr).map_err(|e| format!("group {group} member {member}: {e}"))?;
            if s.down || !s.reachable {
                impaired += 1;
            }
            all_acked &= s.acked;
            spare_updates += s.pending;
            rebuild_reads += s.rebuild_reads;
            spare_installs += s.spare_installs;
            lines.push(format!(
                "  member {member} (pool site {pool}) {addr:<21} {}",
                s.detail
            ));
        }
        // A group runs degraded the moment one member slot is down or
        // unreachable; §3.2 tolerates exactly one, so two is an outage.
        let health = match impaired {
            0 => "healthy",
            1 => "DEGRADED (one member down — reads reconstruct, writes go to the spare)",
            _ => "OUTAGE (more than one member impaired)",
        };
        // Spare state: pending parity updates are exactly what the spare
        // chain may still have to absorb.
        let spares = if impaired == 0 && spare_updates == 0 {
            "spares quiet".to_string()
        } else if impaired == 0 {
            format!("spares settling ({spare_updates} parity updates in flight)")
        } else {
            format!("spares absorbing degraded writes ({spare_updates} updates pending)")
        };
        if impaired > 0 {
            degraded_groups += 1;
        }
        println!("group {group}: {health}, {spares}");
        for line in lines {
            println!("{line}");
        }
        // Rebuild progress: reconstruction reads this group's survivors
        // have served and the blocks its spares absorbed so far. Only
        // interesting while a member is being reconstructed.
        if impaired > 0 && (rebuild_reads > 0 || spare_installs > 0) {
            println!(
                "  rebuild: {rebuild_reads} reconstruction reads served, \
                 {spare_installs} blocks installed into spares"
            );
        }
    }
    let summary = if degraded_groups == 0 && all_acked {
        "every group healthy, quiesced (every parity update acked)".to_string()
    } else if degraded_groups == 0 {
        "every group healthy, not quiesced".to_string()
    } else {
        format!("{degraded_groups}/{} groups degraded", cfg.groups)
    };
    println!("cluster: {summary}");
    Ok(())
}

fn obs(cfg: &ClusterConfig, group: usize, site: usize, raw_json: bool) -> Result<(), String> {
    let mut ctl = CtlClient::connect(cfg.group_member_addr(group, site))?;
    let json = match ctl.request(CtlReq::QueryObsJson)? {
        CtlRep::ObsJson(j) => j,
        other => return Err(format!("unexpected reply {other:?}")),
    };
    if raw_json {
        println!("{json}");
    } else {
        // The wire carries JSON (the obs snapshot's canonical render); the
        // human view summarises rather than re-parsing — sends/retransmits
        // totals live near the top of the metrics object.
        println!("site {site} obs snapshot ({} bytes of JSON):", json.len());
        if let Some(line) = storage_line(&json) {
            println!("{line}");
        }
        println!("{json}");
    }
    Ok(())
}

fn set_down(cfg: &ClusterConfig, group: usize, site: usize, down: bool) -> Result<(), String> {
    let state = if down { "down" } else { "up" };
    // The site is marked, and every other member told: a member routes a
    // row's parity updates to the row's spare while it believes the row's
    // parity site down. Each is reported; a dead site does not stop its
    // peers from being told.
    let mut marked = Err(format!("site {site} not marked {state}"));
    for member in 0..cfg.g + 2 {
        let req = if member == site {
            CtlReq::SetDown(down)
        } else {
            CtlReq::PeerDown { site, down }
        };
        let told = CtlClient::connect(cfg.group_member_addr(group, member))
            .and_then(|mut ctl| ctl.request(req));
        match told {
            Ok(CtlRep::Done) if member == site => {
                println!("site {site} marked {state}");
                marked = Ok(());
            }
            Ok(CtlRep::Done) => println!("site {member} believes site {site} {state}"),
            Ok(other) => println!("site {member}: unexpected reply {other:?}"),
            Err(e) => println!("site {member} not reached ({e})"),
        }
    }
    marked
}

fn shutdown(cfg: &ClusterConfig, group: usize, which: &str) -> Result<(), String> {
    let sites: Vec<usize> = if which == "all" {
        (0..cfg.g + 2).collect()
    } else {
        vec![site_arg(cfg, which)?]
    };
    for site in sites {
        match CtlClient::connect(cfg.group_member_addr(group, site)) {
            Ok(mut ctl) => match ctl.request(CtlReq::Shutdown)? {
                CtlRep::Done => println!("site {site} shutting down"),
                other => return Err(format!("site {site}: unexpected reply {other:?}")),
            },
            Err(e) => println!("site {site} already unreachable ({e})"),
        }
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--group <k>` may appear anywhere before the command.
    let mut group = 0usize;
    while let Some(pos) = args.iter().position(|a| a == "--group") {
        let k = args
            .get(pos + 1)
            .ok_or("--group needs a group id")
            .map_err(str::to_owned)?;
        group = k.parse().map_err(|_| format!("invalid group id: `{k}`"))?;
        args.drain(pos..=pos + 1);
    }
    let (map_path, cmd, rest) = match args.as_slice() {
        [map, cmd, rest @ ..] => (map, cmd.as_str(), rest),
        _ => return Err("__usage__".into()),
    };
    let cfg = ClusterConfig::load(map_path)?;
    if group >= cfg.groups {
        return Err(format!(
            "group {group} is out of range (map declares groups = {})",
            cfg.groups
        ));
    }
    match (cmd, rest) {
        ("status", []) => status(&cfg),
        ("obs", [site]) => obs(&cfg, group, site_arg(&cfg, site)?, false),
        ("obs", [site, flag]) if flag == "--json" => obs(&cfg, group, site_arg(&cfg, site)?, true),
        ("down", [site]) => set_down(&cfg, group, site_arg(&cfg, site)?, true),
        ("up", [site]) => set_down(&cfg, group, site_arg(&cfg, site)?, false),
        ("shutdown", [which]) => shutdown(&cfg, group, which),
        _ => Err("__usage__".into()),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e == "__usage__" => usage(),
        Err(e) => {
            eprintln!("radd-cli: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radd_obs::{MachineSnapshot, MetricsSnapshot, NamedCount, ObsSnapshot};

    /// A site's snapshot as the wire carries it: the pretty render.
    fn wire_json(storage: Option<StorageSnapshot>) -> String {
        let metrics = MetricsSnapshot {
            io_reads: vec![NamedCount {
                name: "reconstruct".into(),
                n: 3,
            }],
            commit_failures: 1,
            storage,
            ..MetricsSnapshot::default()
        };
        ObsSnapshot {
            machines: vec![MachineSnapshot {
                name: "site 0".into(),
                metrics,
                flight: Vec::new(),
            }],
        }
        .to_json()
    }

    #[test]
    fn a_disk_site_gets_a_storage_line_and_a_memory_site_none() {
        let disk = wire_json(Some(StorageSnapshot {
            commits: 2,
            log_bytes: 9216,
            checkpoints: 1,
            direct: true,
        }));
        assert_eq!(
            storage_line(&disk).as_deref(),
            Some("storage: direct commits=2 log_bytes=9216 checkpoints=1 commit_failures=1")
        );
        assert_eq!(storage_line(&wire_json(None)), None);
    }

    #[test]
    fn counters_are_read_from_the_pretty_render_the_wire_carries() {
        let json = wire_json(None);
        assert_eq!(json_counter(&json, "io_reads", "reconstruct"), 3);
        assert_eq!(json_counter(&json, "io_writes", "spare_install"), 0);
    }
}
