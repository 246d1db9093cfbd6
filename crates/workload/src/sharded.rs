//! Cross-group workloads and fault plans for sharded clusters.
//!
//! The single-group engine ([`crate::faults`]) speaks `(site, index)`
//! addresses inside one group. A sharded cluster speaks [`GlobalAddr`]s
//! over many groups and takes its faults at **pool-site** granularity — one
//! site failing degrades every group with a member slot there. This module
//! is the multi-group counterpart: a deterministic generator of seeded
//! mixed workloads (uniform cross-group traffic, hot-group bursts,
//! pool-site failure/repair cycles, loss bursts) and [`run_sharded_plan`],
//! which replays them against the sharded cluster of any runtime (the
//! `radd_protocol::Router` over its [`GroupCluster`]) while checking an
//! oracle. The replay conventions (quiesce before a pool-site fail, issue
//! every write, sweep once after the traces are drained) live in that one
//! function, beside their single-group statement in
//! [`crate::faults::PlanDriver`].
//!
//! Determinism mirrors `FaultPlan`: generation uses only [`SimRng`]
//! streams, so a seed names the same plan on every platform, and plans end
//! healthy (failures repaired, bursts ended) so the final sweep runs on a
//! clean cluster.

use crate::faults::{payload, Outcome};
use radd_layout::{Geometry, GlobalAddr, ShardMap};
use radd_protocol::{GroupCluster, ObsEvent, Router};
use radd_sim::SimRng;
use std::collections::BTreeMap;
use std::fmt;

/// One step of a sharded plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardedEvent {
    /// Write the deterministic [`payload`] of
    /// `fill` to a global address.
    Write {
        /// Target address.
        addr: u64,
        /// Payload seed.
        fill: u64,
    },
    /// Read a global address (checked against the oracle).
    Read {
        /// Target address.
        addr: u64,
    },
    /// Fail a pool site: every group hosting a member slot there loses it.
    FailPoolSite {
        /// The pool site.
        site: usize,
    },
    /// Repair a pool site: restore hardware, drain spares, mark up — in
    /// every affected group.
    RecoverPoolSite {
        /// The pool site.
        site: usize,
    },
    /// Start dropping ~`permille`/1000 of messages (threaded runtimes;
    /// synchronous interpreters ignore it).
    LossBurst {
        /// Drop probability in 1/1000 units.
        permille: u16,
        /// Victim-selection seed.
        seed: u64,
    },
    /// End the loss burst.
    LossEnd,
    /// Wait until all parity updates are acknowledged.
    Quiesce,
}

impl fmt::Display for ShardedEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardedEvent::Write { addr, fill } => write!(f, "write @{addr} fill={fill:#x}"),
            ShardedEvent::Read { addr } => write!(f, "read @{addr}"),
            ShardedEvent::FailPoolSite { site } => write!(f, "fail pool site {site}"),
            ShardedEvent::RecoverPoolSite { site } => write!(f, "recover pool site {site}"),
            ShardedEvent::LossBurst { permille, seed } => {
                write!(f, "loss burst {permille}/1000 seed={seed:#x}")
            }
            ShardedEvent::LossEnd => write!(f, "loss end"),
            ShardedEvent::Quiesce => write!(f, "quiesce"),
        }
    }
}

/// Shape parameters for sharded plan generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardedShape {
    /// Number of groups `A`.
    pub num_groups: usize,
    /// Group size `G` (each group has `G + 2` member slots).
    pub group_size: usize,
    /// Rows per member slot.
    pub rows: u64,
    /// Steps to draw (repairs ride along).
    pub steps: usize,
}

impl Default for ShardedShape {
    /// The multi-group differential shape: 4 groups of `G = 2` over the
    /// minimal shared pool (4 sites, each serving all 4 groups).
    fn default() -> ShardedShape {
        ShardedShape {
            num_groups: 4,
            group_size: 2,
            rows: 8,
            steps: 80,
        }
    }
}

impl ShardedShape {
    /// The shard map this shape describes (uniform minimal pool).
    pub fn map(&self) -> ShardMap {
        let geo = Geometry::new(self.group_size, self.rows).expect("valid shape");
        ShardMap::uniform(self.num_groups, geo).expect("uniform pools always carve")
    }
}

/// A named, replayable sequence of sharded events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedPlan {
    /// The generating seed (0 for hand-composed plans).
    pub seed: u64,
    /// The shape the plan was drawn for.
    pub shape: ShardedShape,
    /// The events, in execution order.
    pub events: Vec<ShardedEvent>,
}

impl ShardedPlan {
    /// Generate a plan: mostly load — alternating uniform cross-group
    /// traffic with hot-group bursts (a run of accesses inside one group's
    /// range, the §4 locality case) — plus pool-site failure/repair
    /// cycles (one at a time, quiesced before the kill so no update is
    /// stranded) and loss bursts. Ends healthy.
    pub fn generate(seed: u64, shape: &ShardedShape) -> ShardedPlan {
        let map = shape.map();
        let total = map.total_data_blocks();
        let cap = map.group_capacity();
        let pool = map.pool_len();
        let mut rng = SimRng::seed_from_u64(seed);
        let mut events = Vec::with_capacity(shape.steps + 8);
        let mut down: Option<usize> = None;
        let mut loss = false;

        for _ in 0..shape.steps {
            match rng.below(100) {
                // Uniform cross-group load, write-heavy.
                0..=39 => {
                    let addr = rng.below(total);
                    let fill = rng.next_u64();
                    events.push(ShardedEvent::Write { addr, fill });
                }
                40..=54 => {
                    let addr = rng.below(total);
                    events.push(ShardedEvent::Read { addr });
                }
                // Hot-group burst: a short run inside one group's range.
                55..=74 => {
                    let group = rng.index(shape.num_groups) as u64;
                    let burst = 2 + rng.index(4) as u64;
                    for _ in 0..burst {
                        let addr = group * cap + rng.below(cap);
                        if rng.below(4) == 0 {
                            events.push(ShardedEvent::Read { addr });
                        } else {
                            let fill = rng.next_u64();
                            events.push(ShardedEvent::Write { addr, fill });
                        }
                    }
                }
                // Pool-site failure — or repair, if one is active.
                75..=89 => match down {
                    None => {
                        let site = rng.index(pool);
                        events.push(ShardedEvent::Quiesce);
                        events.push(ShardedEvent::FailPoolSite { site });
                        down = Some(site);
                    }
                    Some(site) => {
                        events.push(ShardedEvent::RecoverPoolSite { site });
                        down = None;
                    }
                },
                // Loss burst toggle.
                _ => {
                    if loss {
                        events.push(ShardedEvent::LossEnd);
                        loss = false;
                    } else {
                        events.push(ShardedEvent::LossBurst {
                            permille: 100 + (rng.below(150) as u16),
                            seed: rng.next_u64(),
                        });
                        loss = true;
                    }
                }
            }
        }
        if loss {
            events.push(ShardedEvent::LossEnd);
        }
        if let Some(site) = down {
            events.push(ShardedEvent::RecoverPoolSite { site });
        }
        events.push(ShardedEvent::Quiesce);
        ShardedPlan {
            seed,
            shape: *shape,
            events,
        }
    }
}

/// What [`run_sharded_plan`] saw: the replay statistics, and the two things
/// another runtime's replay of the same plan is compared by.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardedReport {
    /// Writes applied (and recorded in the oracle).
    pub writes: u64,
    /// Reads issued.
    pub reads: u64,
    /// Groups degraded across all pool-site failures (fan-out total).
    pub degraded_groups: u64,
    /// One [`Outcome`] per plan event, in order.
    pub outcomes: Vec<Outcome>,
    /// `traces[k]` = group `k`'s normalised per-machine traces (index 0 =
    /// client, `1 + j` = member `j`), drained after the final quiesce and
    /// before the final sweep, whose reads would pollute them. Empty
    /// vectors unless the caller turned `record_traces` on first.
    pub traces: Vec<Vec<Vec<ObsEvent>>>,
}

/// Replay `plan` against `driver`, checking every read against an oracle
/// of acknowledged writes and running the final invariant sweep plus a
/// full oracle readback; errors carry the failing step.
///
/// This is [`PlanDriver`](crate::faults::PlanDriver) one level up, for the
/// pool-site vocabulary, and the conventions are the same ones, stated
/// once more here and nowhere else: a pool site is failed only on a
/// quiesced cluster (§6's in-doubt case), every write is issued (a row
/// whose parity lands on the impaired pool site is written through its
/// spare's stand-in, the machines' rule), a repair is
/// restore, then drain, then mark up, and the sweep runs once, at the end,
/// after the traces are drained. The two replayers share [`Outcome`],
/// [`payload`] and `ClientErr::is_refusal` and are otherwise kept side by
/// side: their events, addresses and fault fan-out differ, and a trait
/// whose only job was to let one loop serve both would be longer than the
/// loop. Where this one is stricter: sharded plans contain no scenario
/// that makes a refusal legal, so a refused write, or a refused read of
/// written content, is a failure here.
pub fn run_sharded_plan<C: GroupCluster>(
    driver: &mut Router<C>,
    plan: &ShardedPlan,
) -> Result<ShardedReport, String> {
    let bs = driver.block_size();
    let mut oracle: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut report = ShardedReport::default();
    let step = |i: usize, e: &ShardedEvent, msg: String| format!("step {i} ({e}): {msg}");
    for (i, event) in plan.events.iter().enumerate() {
        let outcome = match *event {
            ShardedEvent::Write { addr, fill } => {
                let data = payload(fill, bs);
                driver
                    .write(GlobalAddr(addr), &data)
                    .map_err(|e| step(i, event, e.to_string()))?;
                oracle.insert(addr, data);
                report.writes += 1;
                Outcome::Done
            }
            ShardedEvent::Read { addr } => {
                report.reads += 1;
                match (driver.read(GlobalAddr(addr)), oracle.get(&addr)) {
                    (Ok(got), Some(want)) if got != *want => {
                        let msg =
                            format!("content mismatch ({} vs {} bytes)", got.len(), want.len());
                        return Err(step(i, event, msg));
                    }
                    (Ok(got), _) => Outcome::Read(got),
                    // An unwritten block owes nothing: mid-fault a runtime
                    // may legally refuse it.
                    (Err(e), None) if e.is_refusal() => Outcome::Refused(e),
                    (Err(e), _) => return Err(step(i, event, e.to_string())),
                }
            }
            ShardedEvent::FailPoolSite { site } => {
                report.degraded_groups += driver.map().pool_site_slots(site).len() as u64;
                // The plan's `Quiesce` precedes every failure, but the kill
                // itself must not race an in-flight parity update.
                driver.quiesce().map_err(|e| step(i, event, e))?;
                driver.fail_pool_site(site);
                Outcome::Done
            }
            ShardedEvent::RecoverPoolSite { site } => {
                driver.restore_pool_site(site);
                let drained = driver
                    .recover_pool_site(site)
                    .map_err(|e| step(i, event, e))?;
                Outcome::Drained(drained)
            }
            ShardedEvent::LossBurst { permille, seed } => {
                driver.set_loss(permille, seed);
                Outcome::Done
            }
            ShardedEvent::LossEnd => {
                driver.set_loss(0, 0);
                Outcome::Done
            }
            ShardedEvent::Quiesce => {
                driver.quiesce().map_err(|e| step(i, event, e))?;
                Outcome::Done
            }
        };
        report.outcomes.push(outcome);
    }
    driver
        .quiesce()
        .map_err(|e| format!("final quiesce: {e}"))?;
    report.traces = driver.take_traces();
    driver
        .verify_parity()
        .map_err(|e| format!("final invariant sweep: {e}"))?;
    for (&addr, want) in &oracle {
        let got = driver
            .read(GlobalAddr(addr))
            .map_err(|e| format!("readback @{addr}: {e}"))?;
        if &got != want {
            return Err(format!("readback @{addr}: acknowledged write lost"));
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_ends_healthy() {
        let shape = ShardedShape::default();
        let a = ShardedPlan::generate(0xABCD, &shape);
        let b = ShardedPlan::generate(0xABCD, &shape);
        assert_eq!(a, b);
        assert_ne!(a, ShardedPlan::generate(0xABCE, &shape));
        // Every failure is repaired and every burst ended.
        let mut down = 0i64;
        let mut loss = 0i64;
        for e in &a.events {
            match e {
                ShardedEvent::FailPoolSite { .. } => down += 1,
                ShardedEvent::RecoverPoolSite { .. } => down -= 1,
                ShardedEvent::LossBurst { .. } => loss += 1,
                ShardedEvent::LossEnd => loss -= 1,
                _ => {}
            }
            assert!((0..=1).contains(&down), "at most one failure at a time");
        }
        assert_eq!(down, 0, "plan ends with all sites up");
        assert_eq!(loss, 0, "plan ends with loss off");
    }

    #[test]
    fn plans_cross_group_boundaries() {
        let shape = ShardedShape::default();
        let map = shape.map();
        let cap = map.group_capacity();
        let plan = ShardedPlan::generate(0x5EED, &shape);
        let mut groups_touched = std::collections::BTreeSet::new();
        for e in &plan.events {
            if let ShardedEvent::Write { addr, .. } | ShardedEvent::Read { addr } = e {
                assert!(*addr < map.total_data_blocks(), "address in range");
                groups_touched.insert(addr / cap);
            }
        }
        assert_eq!(
            groups_touched.len(),
            shape.num_groups,
            "a default-shape plan should touch every group"
        );
    }
}
