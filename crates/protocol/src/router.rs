//! The multi-group router, which *is* the sharded cluster.
//!
//! A sharded cluster runs `A` independent `G + 2` groups over a shared site
//! pool ([`ShardMap`]). Every runtime needs the same thin coordinator in
//! front of its per-group client machinery: resolve a [`GlobalAddr`] to
//! `(group, member slot, data index)`, hand the op to that group's handle,
//! and fan pool-site faults out to every group the site serves. [`Router`]
//! is that coordinator, written sans-IO like the rest of this crate: it is
//! generic over the per-group handle `H`, and when `H` is a
//! [`GroupCluster`] — one group of the DES (`radd-core`), of the threaded
//! runtime (`radd-node`) or of the socket runtime (`radd-rt`) — the router
//! has the whole sharded surface: global-address reads and writes, the
//! pool-site fault fan-out, traces, the invariant sweep. The rule "which
//! `(group, member)` slots does a pool site host, and what happens to each"
//! is written here and nowhere else (DESIGN.md §13).
//!
//! An address past the end of the sharded space is refused with
//! [`ClientErr::OutOfRange`], the error an index past a site's capacity
//! gets.
//!
//! The router also carries the map's **placement epoch**. Operations tagged
//! with an epoch are checked first: a request routed under an older map is
//! refused with [`RouteError::StaleEpoch`] instead of landing on the wrong
//! site after a rebalance.

use crate::client::{ClientErr, RebuildReport};
use crate::obs::ObsEvent;
use radd_layout::{
    DataIndex, Geometry, GlobalAddr, GroupId, LogicalDrive, ShardMap, ShardTarget, SiteId,
};
use std::fmt;

/// Routing failures that are not a client operation's: the operation was
/// never attempted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteError {
    /// The caller's map epoch does not match the router's.
    StaleEpoch {
        /// The router's current epoch.
        current: u64,
        /// The epoch the caller routed under.
        seen: u64,
    },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::StaleEpoch { current, seen } => {
                write!(
                    f,
                    "stale shard map: routed under epoch {seen}, current is {current}"
                )
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// Shard-lookup coordinator owning one handle per group.
///
/// `H` is whatever a runtime keeps per group — a DES cluster, a threaded
/// client, a socket connection bundle. The router owns the handles so a
/// lookup borrows the map and the target handle in one call.
#[derive(Debug)]
pub struct Router<H> {
    map: ShardMap,
    handles: Vec<H>,
}

impl<H> Router<H> {
    /// Build a router over `map`, creating one handle per group with
    /// `make_handle`.
    pub fn new(map: ShardMap, mut make_handle: impl FnMut(GroupId) -> H) -> Router<H> {
        let handles = (0..map.num_groups())
            .map(|k| make_handle(GroupId(k)))
            .collect();
        Router { map, handles }
    }

    /// Fallible version of [`new`]: abort on the first handle error.
    ///
    /// [`new`]: Router::new
    pub fn try_new<E>(
        map: ShardMap,
        mut make_handle: impl FnMut(GroupId) -> Result<H, E>,
    ) -> Result<Router<H>, E> {
        let handles = (0..map.num_groups())
            .map(|k| make_handle(GroupId(k)))
            .collect::<Result<_, E>>()?;
        Ok(Router { map, handles })
    }

    /// The shard map.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Current placement epoch.
    pub fn epoch(&self) -> u64 {
        self.map.epoch()
    }

    /// Number of groups (= number of handles).
    pub fn num_groups(&self) -> usize {
        self.handles.len()
    }

    /// Refuse work routed under a stale map.
    pub fn check_epoch(&self, seen: u64) -> Result<(), RouteError> {
        if seen == self.map.epoch() {
            Ok(())
        } else {
            Err(RouteError::StaleEpoch {
                current: self.map.epoch(),
                seen,
            })
        }
    }

    /// Resolve `addr` to its target and the owning group's handle, or
    /// [`ClientErr::OutOfRange`] past the end of the sharded space.
    pub fn route_mut(&mut self, addr: GlobalAddr) -> Result<(ShardTarget, &mut H), ClientErr> {
        let target = self.map.locate(addr).ok_or(ClientErr::OutOfRange)?;
        Ok((target, &mut self.handles[target.group.0]))
    }

    /// The handle for `group`.
    pub fn group(&self, group: GroupId) -> &H {
        &self.handles[group.0]
    }

    /// Mutable handle for `group`.
    pub fn group_mut(&mut self, group: GroupId) -> &mut H {
        &mut self.handles[group.0]
    }

    /// Iterate `(group, handle)` pairs.
    pub fn groups(&self) -> impl Iterator<Item = (GroupId, &H)> {
        self.handles
            .iter()
            .enumerate()
            .map(|(k, h)| (GroupId(k), h))
    }

    /// Fan a pool-site fault out: every `(group, member slot)` hosted by
    /// `pool_site`, with mutable access to each group's handle. The
    /// callback runs once per affected group.
    pub fn for_pool_site(&mut self, pool_site: SiteId, mut f: impl FnMut(GroupId, SiteId, &mut H)) {
        for (group, member) in self.map.pool_site_slots(pool_site) {
            f(group, member, &mut self.handles[group.0]);
        }
    }
}

/// What one `G + 2` group exposes so that [`Router`] can be a sharded
/// cluster over it and a fault plan can be replayed on it: the per-runtime
/// contract. Addresses are group-local `(member slot, data index)`. A
/// client operation fails with [`ClientErr`] on every runtime; the two
/// harness sweeps ([`quiesce`](GroupCluster::quiesce),
/// [`verify_parity`](GroupCluster::verify_parity)) are not client
/// operations and describe what they found in a `String`.
///
/// The defaulted methods are what a runtime that cannot express the fault
/// does with it, so a plan written for the richest runtime replays
/// everywhere: without a partitionable network a partition is a temporary
/// failure, without a durable store a crash/restart changes nothing, and
/// a synchronous interpreter is always quiescent and fully acknowledged.
/// Failing a *disk* inside a site, a disaster that blanks the disks and
/// the §5 blocking verdict are not on this surface at all: only the DES's
/// omniscient driver (`radd_core::CheckedCluster`) can inject them, and a
/// plan replayed over this trait treats a disaster as
/// [`fail`](GroupCluster::fail) and disk events as no-ops.
pub trait GroupCluster {
    /// What [`obs_snapshot`](GroupCluster::obs_snapshot) freezes:
    /// `radd_obs::ObsSnapshot` on every runtime (an associated type only
    /// because `radd-obs` depends on this crate, not the other way round).
    type Obs;

    /// Block size in bytes.
    fn block_size(&self) -> usize;
    /// The group's geometry (every group of a sharded cluster shares it).
    fn geometry(&self) -> &Geometry;
    /// Read through the group's client machine.
    fn read(&mut self, member: SiteId, index: DataIndex) -> Result<Vec<u8>, ClientErr>;
    /// Write through the group's client machine.
    fn write(&mut self, member: SiteId, index: DataIndex, data: &[u8]) -> Result<(), ClientErr>;
    /// Temporary failure of `member` (its disks keep their contents); the
    /// group's client and its other sites believe it down, so a row whose
    /// parity it holds is written through the row's spare (§3.2).
    fn fail(&mut self, member: SiteId);
    /// Bring `member`'s hardware back **recovering**, and the client
    /// believes it so until [`recover`](GroupCluster::recover): a row's
    /// spare may supersede its local copy, so its reads and writes consult
    /// the spare first and drain what they find (§3.2).
    fn restore(&mut self, member: SiteId);
    /// Drain what spares still hold for a restored `member` and, only if
    /// the drain succeeded, mark it up at the client. Returns the blocks
    /// drained.
    fn recover(&mut self, member: SiteId) -> Result<u64, ClientErr>;
    /// Reconstruct every data block the believed-down `member` owns into
    /// the row spares, `wave_rows` rows per pipelined wave.
    fn rebuild(&mut self, member: SiteId, wave_rows: usize) -> Result<RebuildReport, ClientErr>;
    /// Record (or stop recording) normalised machine traces.
    fn record_traces(&mut self, on: bool);
    /// Drain the traces: index 0 = client, `1 + j` = member `j`.
    fn take_traces(&mut self) -> Vec<Vec<ObsEvent>>;
    /// Run the stripe-invariant sweep.
    fn verify_parity(&mut self) -> Result<(), String>;
    /// §5 partition: cut `member` off from the other `G + 1`, which, with
    /// the client, believe it down and take the degraded paths. Default: a
    /// temporary failure (the protocol exercise is the same; only the
    /// site's own view differs).
    fn isolate(&mut self, member: SiteId) {
        self.fail(member);
    }
    /// Reconnect an isolated `member`. Like a restored site it is believed
    /// recovering until [`recover`](GroupCluster::recover): spares absorbed
    /// writes on its behalf while it was cut off.
    fn heal(&mut self, member: SiteId) {
        self.restore(member);
    }
    /// Crash `member`'s process and restart it from its durable store
    /// (§3.4). `false` (the default) when there is nothing to restart from.
    fn kill_restart(&mut self, _member: SiteId) -> bool {
        false
    }
    /// Whether no parity update anywhere still awaits its ack.
    fn all_acked(&self) -> bool {
        true
    }
    /// Freeze per-machine metrics and flight recorders, if the runtime
    /// keeps any.
    fn obs_snapshot(&mut self) -> Option<Self::Obs> {
        None
    }
    /// Message-loss injection; a runtime with a reliable network ignores it.
    fn set_loss(&mut self, _permille: u16, _seed: u64) {}
    /// Wait until every parity update is acknowledged; a synchronous
    /// runtime is always quiescent.
    fn quiesce(&mut self) -> Result<(), String> {
        Ok(())
    }
    /// Stop whatever the group keeps running.
    fn shutdown(self)
    where
        Self: Sized,
    {
    }
}

/// Aggregated result of one pool-site rebuild across every affected group.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolRebuildReport {
    /// Groups that hosted a member slot on the failed pool site.
    pub groups: usize,
    /// Blocks reconstructed into spares, summed over groups.
    pub blocks_rebuilt: u64,
    /// Blocks found already absorbed (earlier passes or degraded writes).
    pub blocks_absorbed: u64,
    /// Bytes folded through the XOR kernel.
    pub bytes_xored: u64,
    /// Reconstruction reads served per *pool* site (index = pool site id) —
    /// the uniform-reconstruction-load invariant made measurable.
    pub pool_peer_reads: Vec<u64>,
}

impl PoolRebuildReport {
    /// An empty report over a pool of `pool_len` sites.
    pub fn new(pool_len: usize) -> PoolRebuildReport {
        PoolRebuildReport {
            pool_peer_reads: vec![0; pool_len],
            ..PoolRebuildReport::default()
        }
    }

    /// Fold one group's report in, translating its member-indexed peer
    /// reads to pool sites through the group's `members`.
    pub fn absorb(&mut self, group: &RebuildReport, members: &[LogicalDrive]) {
        self.groups += 1;
        self.blocks_rebuilt += group.blocks_rebuilt;
        self.blocks_absorbed += group.blocks_absorbed;
        self.bytes_xored += group.bytes_xored;
        for (member, &reads) in group.peer_reads.iter().enumerate() {
            self.pool_peer_reads[members[member].site] += reads;
        }
    }
}

/// The sharded cluster: global addresses in, pool-site faults fanned out.
impl<C: GroupCluster> Router<C> {
    /// Block size in bytes (every group runs the same geometry).
    pub fn block_size(&self) -> usize {
        self.handles[0].block_size()
    }

    /// Read a global address through the owning group's client. An
    /// address past the end of the space is [`ClientErr::OutOfRange`],
    /// exactly as an index past a site's capacity is.
    pub fn read(&mut self, addr: GlobalAddr) -> Result<Vec<u8>, ClientErr> {
        let (t, cluster) = self.route_mut(addr)?;
        cluster.read(t.member, t.index)
    }

    /// Write a global address through the owning group's client.
    pub fn write(&mut self, addr: GlobalAddr, data: &[u8]) -> Result<(), ClientErr> {
        let (t, cluster) = self.route_mut(addr)?;
        cluster.write(t.member, t.index, data)
    }

    /// Fail a pool site: every group with a member slot there loses that
    /// slot (temporary failure — disks keep their contents) and the
    /// group's client and other members believe it down. On a runtime with in-flight messages,
    /// [`quiesce`](Router::quiesce) first unless you *want* in-doubt
    /// parity updates stranded.
    pub fn fail_pool_site(&mut self, pool_site: SiteId) {
        self.for_pool_site(pool_site, |_, member, cluster| cluster.fail(member));
    }

    /// Restore a pool site's hardware in every affected group. Slots come
    /// back **recovering**, and each client believes them so until
    /// [`recover_pool_site`](Router::recover_pool_site).
    pub fn restore_pool_site(&mut self, pool_site: SiteId) {
        self.for_pool_site(pool_site, |_, member, cluster| cluster.restore(member));
    }

    /// Drain spares back to a restored pool site in every affected group;
    /// a group whose drain succeeds marks its slot up, one whose drain
    /// fails keeps it recovering (spares still supersede some of its
    /// blocks) and the remaining groups
    /// are still attempted. Returns the total blocks drained, or the first
    /// failing group's error.
    pub fn recover_pool_site(&mut self, pool_site: SiteId) -> Result<u64, String> {
        let drained = self.try_pool_site(pool_site, |member, cluster| cluster.recover(member))?;
        Ok(drained.iter().map(|&(_, n)| n).sum())
    }

    /// Bulk-rebuild a failed pool site's data into the row spares, one
    /// affected group after another through the attached clients (the
    /// reference semantics the differential test pins; the threaded
    /// runtime's thread-per-group engine is the perf path). Every group
    /// is attempted; the error is the first failing group's.
    pub fn rebuild_pool_site(
        &mut self,
        pool_site: SiteId,
        wave_rows: usize,
    ) -> Result<PoolRebuildReport, String> {
        let rebuilt = self.try_pool_site(pool_site, |member, cluster| {
            cluster.rebuild(member, wave_rows)
        })?;
        let mut report = PoolRebuildReport::new(self.map.pool_len());
        for (g, r) in &rebuilt {
            report.absorb(r, self.map.group_members(*g));
        }
        Ok(report)
    }

    /// Run `f` on every slot `pool_site` hosts. A failing group does not
    /// stop the fan-out: every group is attempted, and the error returned
    /// is the first failing group's, prefixed with its id.
    fn try_pool_site<T>(
        &mut self,
        pool_site: SiteId,
        mut f: impl FnMut(SiteId, &mut C) -> Result<T, ClientErr>,
    ) -> Result<Vec<(GroupId, T)>, String> {
        let mut done = Vec::new();
        let mut first_err = None;
        self.for_pool_site(pool_site, |g, member, cluster| match f(member, cluster) {
            Ok(v) => done.push((g, v)),
            Err(e) => {
                first_err.get_or_insert(format!("{g}: {e}"));
            }
        });
        first_err.map_or(Ok(done), Err)
    }

    /// Message-loss injection across every group's network.
    pub fn set_loss(&mut self, permille: u16, seed: u64) {
        for cluster in &mut self.handles {
            cluster.set_loss(permille, seed);
        }
    }

    /// Wait until every group's parity updates are acknowledged.
    pub fn quiesce(&mut self) -> Result<(), String> {
        self.each_group(C::quiesce)
    }

    /// Record (or stop recording) normalised machine traces in every group.
    pub fn record_traces(&mut self, on: bool) {
        for cluster in &mut self.handles {
            cluster.record_traces(on);
        }
    }

    /// Drain every group's traces: `traces[k]` is group `k`'s per-machine
    /// vector (index 0 = client, `1 + j` = member `j`).
    pub fn take_traces(&mut self) -> Vec<Vec<Vec<ObsEvent>>> {
        self.handles.iter_mut().map(C::take_traces).collect()
    }

    /// Run the stripe-invariant sweep in every group; the error names the
    /// first failing group.
    pub fn verify_parity(&mut self) -> Result<(), String> {
        self.each_group(C::verify_parity)
    }

    /// Shut every group down.
    pub fn shutdown(self) {
        self.handles.into_iter().for_each(C::shutdown);
    }

    fn each_group(
        &mut self,
        mut f: impl FnMut(&mut C) -> Result<(), String>,
    ) -> Result<(), String> {
        for (k, cluster) in self.handles.iter_mut().enumerate() {
            f(cluster).map_err(|e| format!("{}: {e}", GroupId(k)))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radd_layout::Geometry;

    fn router4() -> Router<Vec<String>> {
        let map = ShardMap::uniform(4, Geometry::new(2, 8).unwrap()).unwrap();
        Router::new(map, |_| Vec::new())
    }

    #[test]
    fn routes_to_owning_group() {
        let mut r = router4();
        let cap = r.map().group_capacity();
        for a in 0..r.map().total_data_blocks() {
            let (t, h) = r.route_mut(GlobalAddr(a)).unwrap();
            assert_eq!(t.group.0 as u64, a / cap);
            h.push(format!("{a}"));
        }
        // Every group handle saw exactly its own range.
        for (g, h) in r.groups() {
            assert_eq!(h.len() as u64, cap, "group {g} op count");
        }
    }

    #[test]
    fn stale_epoch_is_refused() {
        let r = router4();
        assert!(r.check_epoch(0).is_ok());
        let err = r.check_epoch(7).unwrap_err();
        assert_eq!(
            err,
            RouteError::StaleEpoch {
                current: 0,
                seen: 7
            }
        );
        assert!(err.to_string().contains("stale"));
    }

    #[test]
    fn pool_site_fault_fans_out_to_every_group() {
        let mut r = router4();
        let mut hit = Vec::new();
        r.for_pool_site(0, |g, member, h| {
            hit.push((g, member));
            h.push("faulted".into());
        });
        // The uniform pool puts site 0 in all 4 groups, in rotated slots.
        assert_eq!(hit.len(), 4);
        let mut members: Vec<_> = hit.iter().map(|&(_, m)| m).collect();
        members.sort_unstable();
        assert_eq!(members, vec![0, 1, 2, 3]);
    }

    /// A scripted group for the fan-out tests: remembers which member
    /// slots are believed down, and refuses `recover` / `rebuild` on
    /// demand.
    #[derive(Default)]
    struct Scripted {
        down: Vec<SiteId>,
        drained: Vec<SiteId>,
        refuse: bool,
    }

    impl GroupCluster for Scripted {
        type Obs = ();
        fn block_size(&self) -> usize {
            16
        }
        fn geometry(&self) -> &Geometry {
            unreachable!("the fan-out never asks a group for its geometry")
        }
        fn read(&mut self, member: SiteId, index: DataIndex) -> Result<Vec<u8>, ClientErr> {
            Ok(vec![member as u8, index as u8])
        }
        fn write(&mut self, _: SiteId, _: DataIndex, _: &[u8]) -> Result<(), ClientErr> {
            Ok(())
        }
        fn fail(&mut self, member: SiteId) {
            self.down.push(member);
        }
        fn restore(&mut self, _: SiteId) {}
        fn recover(&mut self, member: SiteId) -> Result<u64, ClientErr> {
            if self.refuse {
                return Err(ClientErr::Timeout { site: member });
            }
            self.drained.push(member);
            self.down.retain(|&m| m != member);
            Ok(3)
        }
        fn rebuild(&mut self, member: SiteId, _: usize) -> Result<RebuildReport, ClientErr> {
            if self.refuse {
                return Err(ClientErr::Unavailable { site: member });
            }
            // One read from every surviving member slot.
            let peer_reads = (0..3).map(|m| u64::from(m != member)).collect();
            Ok(RebuildReport {
                blocks_rebuilt: 2,
                peer_reads,
                ..RebuildReport::default()
            })
        }
        fn record_traces(&mut self, _: bool) {}
        fn take_traces(&mut self) -> Vec<Vec<ObsEvent>> {
            Vec::new()
        }
        fn verify_parity(&mut self) -> Result<(), String> {
            Ok(())
        }
    }

    /// Three `G = 1` groups on the 3-site pool: every pool site hosts one
    /// member slot of every group.
    fn scripted3() -> Router<Scripted> {
        let map = ShardMap::uniform(3, Geometry::new(1, 6).unwrap()).unwrap();
        Router::new(map, |_| Scripted::default())
    }

    #[test]
    fn a_failed_drain_keeps_its_group_down_and_the_others_recover() {
        let mut r = scripted3();
        r.fail_pool_site(0);
        r.restore_pool_site(0);
        r.group_mut(GroupId(1)).refuse = true;
        let err = r.recover_pool_site(0).unwrap_err();
        assert!(
            err.starts_with("g1: ") && err.ends_with("did not answer"),
            "the first failing group is named: {err}"
        );
        for (g, group) in r.groups() {
            if g.0 == 1 {
                assert_eq!(group.down.len(), 1, "{g}: stale slot must stay down");
                assert!(group.drained.is_empty());
            } else {
                assert!(group.down.is_empty(), "{g}: drained slot is up");
                assert_eq!(group.drained.len(), 1, "{g}: attempted despite g1");
            }
        }
        // Repaired, the straggler drains on the next pass.
        r.group_mut(GroupId(1)).refuse = false;
        assert_eq!(r.recover_pool_site(0), Ok(9));
    }

    #[test]
    fn the_first_of_several_errors_is_reported() {
        let mut r = scripted3();
        r.fail_pool_site(2);
        r.group_mut(GroupId(0)).refuse = true;
        r.group_mut(GroupId(2)).refuse = true;
        let drain = r.recover_pool_site(2).unwrap_err();
        assert!(drain.starts_with("g0: ") && drain.ends_with("did not answer"));
        let rebuild = r.rebuild_pool_site(2, 4).unwrap_err();
        assert!(rebuild.starts_with("g0: ") && rebuild.ends_with("repaired"));
    }

    #[test]
    fn rebuild_reads_are_charged_to_pool_sites() {
        let mut r = scripted3();
        r.fail_pool_site(1);
        let report = r.rebuild_pool_site(1, 4).unwrap();
        assert_eq!(report.groups, 3);
        assert_eq!(report.blocks_rebuilt, 6);
        // Each group read once from both survivors of pool site 1.
        assert_eq!(report.pool_peer_reads, vec![3, 0, 3]);
    }

    #[test]
    fn global_addresses_reach_the_owning_member() {
        let mut r = scripted3();
        let end = r.map().total_data_blocks();
        for a in 0..end {
            let t = r.map().locate(GlobalAddr(a)).unwrap();
            assert_eq!(
                r.read(GlobalAddr(a)).unwrap(),
                vec![t.member as u8, t.index as u8]
            );
        }
        assert_eq!(r.read(GlobalAddr(end)), Err(ClientErr::OutOfRange));
        assert_eq!(
            r.write(GlobalAddr(end), &[0; 16]),
            Err(ClientErr::OutOfRange)
        );
    }

    #[test]
    fn try_new_propagates_errors() {
        let map = ShardMap::uniform(2, Geometry::new(1, 6).unwrap()).unwrap();
        let r: Result<Router<()>, &str> =
            Router::try_new(map, |g| if g.0 == 1 { Err("boom") } else { Ok(()) });
        assert_eq!(r.unwrap_err(), "boom");
    }
}
