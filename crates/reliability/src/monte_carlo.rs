//! Event-driven Monte-Carlo simulation of the failure processes.
//!
//! Each trial simulates one redundancy group under independent exponential
//! failure and repair processes (the paper's "standard assumptions of
//! exponential distributions and independent failures") until the metric's
//! terminating event occurs:
//!
//! * **MTTU trials** simulate temporary site failures and disasters and
//!   stop when the availability condition breaks. Note the closed forms in
//!   [`analytic`](crate::analytic) count only one ordering ("a specific
//!   second site fails while the first one is down"); the simulation counts
//!   both orderings — either site of the pair may fail first — so its
//!   estimate sits near **half** the formula value. The bench prints both.
//! * **MTTF trials** simulate content-destroying failures only (disk
//!   failures and disasters; temporary outages destroy nothing) and stop
//!   when two overlapping losses coexist — same-position disks at two
//!   sites, a disaster over an active disk failure, or two disasters.

use crate::constants::ReliabilityConstants;
use radd_sim::SimRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A Monte-Carlo estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McEstimate {
    /// Sample mean, in hours.
    pub mean_hours: f64,
    /// Number of trials.
    pub trials: u32,
    /// Standard error of the mean, in hours.
    pub std_error: f64,
}

impl McEstimate {
    fn from_samples(samples: &[f64]) -> McEstimate {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0).max(1.0);
        McEstimate {
            mean_hours: mean,
            trials: samples.len() as u32,
            std_error: (var / n).sqrt(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    SiteFail(usize),
    SiteRepair(usize),
    DisasterHit(usize),
    DisasterRepair(usize),
    DiskFail(usize, usize),
    DiskRepair(usize, usize),
}

/// F64 time-ordered event queue for the hour-denominated failure
/// processes (FIFO among simultaneous events by sequence number).
#[derive(Debug, Default)]
struct Queue {
    heap: BinaryHeap<Reverse<(u64, u64, usize)>>, // (time bits, seq, index)
    events: Vec<Ev>,
    seq: u64,
}

impl Queue {
    fn push(&mut self, t: f64, ev: Ev) {
        debug_assert!(t >= 0.0 && t.is_finite());
        let idx = self.events.len();
        self.events.push(ev);
        self.heap.push(Reverse((t.to_bits(), self.seq, idx)));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(f64, Ev)> {
        self.heap
            .pop()
            .map(|Reverse((bits, _, idx))| (f64::from_bits(bits), self.events[idx]))
    }
}

/// The Monte-Carlo engine for one group shape.
#[derive(Debug)]
pub struct MonteCarlo {
    /// Group size `G` (the group spans `G + 2` sites).
    pub group_size: usize,
    /// Failure/repair constants.
    pub constants: ReliabilityConstants,
    rng: SimRng,
}

impl MonteCarlo {
    /// An engine with a deterministic seed.
    pub fn new(group_size: usize, constants: ReliabilityConstants, seed: u64) -> MonteCarlo {
        MonteCarlo {
            group_size,
            constants,
            rng: SimRng::seed_from_u64(seed),
        }
    }

    fn sites(&self) -> usize {
        self.group_size + 2
    }

    fn exp(&mut self, mean: f64) -> f64 {
        self.rng.exponential(mean)
    }

    // ---------------------------------------------------------------
    // MTTU
    // ---------------------------------------------------------------

    /// Time until a data item of site 0 becomes unavailable in a RADD:
    /// site 0 and any other site concurrently not up.
    pub fn mttu_radd(&mut self, trials: u32) -> McEstimate {
        self.mttu_generic(trials, |down, event_site| {
            // Unavailable when site 0 is involved in a concurrent pair.
            let zero_down = down[0];
            let others_down = down.iter().skip(1).any(|&d| d);
            zero_down && others_down && (event_site == 0 || down[0])
        })
    }

    /// Time until a data item of site 0 becomes unavailable under ROWB:
    /// site 0 and its backup (site 1) concurrently down.
    pub fn mttu_rowb(&mut self, trials: u32) -> McEstimate {
        self.mttu_generic(trials, |down, _| down[0] && down[1])
    }

    /// Time until the single RAID box is unavailable: its first outage.
    pub fn mttu_raid(&mut self, trials: u32) -> McEstimate {
        self.mttu_generic(trials, |down, _| down[0])
    }

    fn mttu_generic(
        &mut self,
        trials: u32,
        unavailable: impl Fn(&[bool], usize) -> bool,
    ) -> McEstimate {
        let mut samples = Vec::with_capacity(trials as usize);
        for _ in 0..trials {
            samples.push(self.mttu_trial(&unavailable));
        }
        McEstimate::from_samples(&samples)
    }

    fn mttu_trial(&mut self, unavailable: &impl Fn(&[bool], usize) -> bool) -> f64 {
        let n = self.sites();
        let mut q = Queue::default();
        let mut down = vec![false; n];
        for s in 0..n {
            let t = self.exp(self.constants.site_mttf);
            q.push(t, Ev::SiteFail(s));
            let t = self.exp(self.constants.disaster_mttf);
            q.push(t, Ev::DisasterHit(s));
        }
        while let Some((t, ev)) = q.pop() {
            match ev {
                Ev::SiteFail(s) => {
                    if down[s] {
                        // Already down (disaster overlap): reschedule.
                        let dt = self.exp(self.constants.site_mttf);
                        q.push(t + dt, Ev::SiteFail(s));
                        continue;
                    }
                    down[s] = true;
                    if unavailable(&down, s) {
                        return t;
                    }
                    let dt = self.exp(self.constants.site_mttr);
                    q.push(t + dt, Ev::SiteRepair(s));
                }
                Ev::SiteRepair(s) => {
                    down[s] = false;
                    let dt = self.exp(self.constants.site_mttf);
                    q.push(t + dt, Ev::SiteFail(s));
                }
                Ev::DisasterHit(s) => {
                    if down[s] {
                        let dt = self.exp(self.constants.disaster_mttf);
                        q.push(t + dt, Ev::DisasterHit(s));
                        continue;
                    }
                    down[s] = true;
                    if unavailable(&down, s) {
                        return t;
                    }
                    let dt = self.exp(self.constants.disaster_mttr);
                    q.push(t + dt, Ev::DisasterRepair(s));
                }
                Ev::DisasterRepair(s) => {
                    down[s] = false;
                    let dt = self.exp(self.constants.disaster_mttf);
                    q.push(t + dt, Ev::DisasterHit(s));
                }
                Ev::DiskFail(..) | Ev::DiskRepair(..) => unreachable!("MTTU ignores disks"),
            }
        }
        unreachable!("the failure processes never go quiet")
    }

    // ---------------------------------------------------------------
    // MTTF
    // ---------------------------------------------------------------

    /// Time until a RADD group irretrievably loses data: overlapping
    /// content loss at two sites (any other site for disasters; the
    /// same-position disk for disk/disk overlap).
    pub fn mttf_radd(&mut self, trials: u32) -> McEstimate {
        let all = self.sites();
        self.mttf_generic(trials, move |a, b| (a != b) && (b < all))
    }

    /// ROWB: only the neighbouring partner sites share content.
    pub fn mttf_rowb(&mut self, trials: u32) -> McEstimate {
        let n = self.sites();
        self.mttf_generic(trials, move |a, b| b == (a + 1) % n || a == (b + 1) % n)
    }

    /// RAID: the first disaster at any box loses that box's data.
    pub fn mttf_raid(&mut self, trials: u32) -> McEstimate {
        let mut samples = Vec::with_capacity(trials as usize);
        let n = self.sites() as f64;
        for _ in 0..trials {
            // Minimum of G+2 exponential disaster clocks.
            samples.push(self.exp(self.constants.disaster_mttf / n));
        }
        McEstimate::from_samples(&samples)
    }

    /// `overlap_sites(a, b)`: do sites `a` and `b` hold redundant copies of
    /// common data (so concurrent loss at both is fatal)?
    fn mttf_generic(
        &mut self,
        trials: u32,
        overlap_sites: impl Fn(usize, usize) -> bool,
    ) -> McEstimate {
        let mut samples = Vec::with_capacity(trials as usize);
        for _ in 0..trials {
            samples.push(self.mttf_trial(&overlap_sites));
        }
        McEstimate::from_samples(&samples)
    }

    fn mttf_trial(&mut self, overlap_sites: &impl Fn(usize, usize) -> bool) -> f64 {
        let n = self.sites();
        let disks = self.constants.disks_per_site;
        let mut q = Queue::default();
        // Content-loss state: disaster-active flag + per-disk failed flags.
        let mut disaster_active = vec![false; n];
        let mut disk_failed = vec![vec![false; disks]; n];
        for s in 0..n {
            let t = self.exp(self.constants.disaster_mttf);
            q.push(t, Ev::DisasterHit(s));
            for d in 0..disks {
                let t = self.exp(self.constants.disk_mttf);
                q.push(t, Ev::DiskFail(s, d));
            }
        }
        let fatal = |s: usize,
                     full_site: bool,
                     disk: usize,
                     disaster_active: &[bool],
                     disk_failed: &[Vec<bool>]| {
            for other in 0..n {
                if other == s || !overlap_sites(s, other) {
                    continue;
                }
                if disaster_active[other] {
                    return true; // the other site lost everything
                }
                if full_site {
                    // Our disaster overlaps any active disk loss there.
                    if disk_failed[other].iter().any(|&f| f) {
                        return true;
                    }
                } else if disk_failed[other][disk] {
                    // Same-position disks cover the same block rows.
                    return true;
                }
            }
            false
        };
        while let Some((t, ev)) = q.pop() {
            match ev {
                Ev::DisasterHit(s) => {
                    if disaster_active[s] {
                        let dt = self.exp(self.constants.disaster_mttf);
                        q.push(t + dt, Ev::DisasterHit(s));
                        continue;
                    }
                    if fatal(s, true, 0, &disaster_active, &disk_failed) {
                        return t;
                    }
                    disaster_active[s] = true;
                    // Content vulnerability ends when the spare blocks have
                    // absorbed the lost site (not at hardware repair time);
                    // see ReliabilityConstants::disaster_vulnerability_hours.
                    let dt = self.exp(self.constants.disaster_vulnerability_hours());
                    q.push(t + dt, Ev::DisasterRepair(s));
                }
                Ev::DisasterRepair(s) => {
                    disaster_active[s] = false;
                    let dt = self.exp(self.constants.disaster_mttf);
                    q.push(t + dt, Ev::DisasterHit(s));
                }
                Ev::DiskFail(s, d) => {
                    if disk_failed[s][d] || disaster_active[s] {
                        let dt = self.exp(self.constants.disk_mttf);
                        q.push(t + dt, Ev::DiskFail(s, d));
                        continue;
                    }
                    if fatal(s, false, d, &disaster_active, &disk_failed) {
                        return t;
                    }
                    disk_failed[s][d] = true;
                    let dt = self.exp(self.constants.disk_mttr);
                    q.push(t + dt, Ev::DiskRepair(s, d));
                }
                Ev::DiskRepair(s, d) => {
                    disk_failed[s][d] = false;
                    let dt = self.exp(self.constants.disk_mttf);
                    q.push(t + dt, Ev::DiskFail(s, d));
                }
                Ev::SiteFail(_) | Ev::SiteRepair(_) => {
                    unreachable!("MTTF ignores temporary site failures")
                }
            }
        }
        unreachable!("the failure processes never go quiet")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::{mttf_hours, mttu_hours, Scheme};
    use crate::constants::Environment;

    const G: usize = 8;

    #[test]
    fn mttu_raid_matches_site_mttf() {
        let c = Environment::CautiousConventional.constants();
        let mut mc = MonteCarlo::new(G, c, 1);
        let est = mc.mttu_raid(2000);
        // Site failures dominate; disasters shave off ~0.1 %.
        let expect = 1.0 / (1.0 / c.site_mttf + 1.0 / c.disaster_mttf);
        assert!(
            (est.mean_hours - expect).abs() < 4.0 * est.std_error + 5.0,
            "got {} ± {}, expected ≈{expect}",
            est.mean_hours,
            est.std_error
        );
    }

    #[test]
    fn mttu_radd_is_half_the_one_ordering_formula() {
        // The closed form counts "second site fails while the first is
        // down"; the simulation counts both orderings, landing near half.
        let c = Environment::CautiousConventional.constants();
        let mut mc = MonteCarlo::new(G, c, 2);
        let est = mc.mttu_radd(400);
        let formula = mttu_hours(Scheme::Radd, G, &c);
        let ratio = est.mean_hours / formula;
        assert!(
            (0.3..0.8).contains(&ratio),
            "MC {} vs formula {formula}: ratio {ratio}",
            est.mean_hours
        );
    }

    #[test]
    fn mttu_rowb_exceeds_mttu_radd() {
        let c = Environment::CautiousConventional.constants();
        let mut mc = MonteCarlo::new(G, c, 3);
        let radd = mc.mttu_radd(300).mean_hours;
        let rowb = mc.mttu_rowb(300).mean_hours;
        assert!(
            rowb > 2.0 * radd,
            "ROWB {rowb} should be several × RADD {radd}"
        );
    }

    #[test]
    fn mttf_raid_matches_formula() {
        let c = Environment::CautiousRaid.constants();
        let mut mc = MonteCarlo::new(G, c, 4);
        let est = mc.mttf_raid(2000);
        let formula = mttf_hours(Scheme::Raid, G, &c);
        assert!(
            (est.mean_hours - formula).abs() < 4.0 * est.std_error + formula * 0.05,
            "got {} ± {}, formula {formula}",
            est.mean_hours,
            est.std_error
        );
    }

    #[test]
    fn mttf_radd_within_factor_two_of_analytic() {
        let c = Environment::CautiousRaid.constants();
        let mut mc = MonteCarlo::new(G, c, 5);
        let est = mc.mttf_radd(120);
        let formula = mttf_hours(Scheme::Radd, G, &c);
        let ratio = est.mean_hours / formula;
        assert!(
            (0.4..2.5).contains(&ratio),
            "MC {} vs analytic {formula}: ratio {ratio}",
            est.mean_hours
        );
    }

    #[test]
    fn mttf_radd_far_exceeds_raid_in_conventional_env() {
        let c = Environment::CautiousConventional.constants();
        let mut mc = MonteCarlo::new(G, c, 6);
        let radd = mc.mttf_radd(60).mean_hours;
        let raid = mc.mttf_raid(400).mean_hours;
        assert!(
            radd > 4.0 * raid,
            "RADD {radd} h should dwarf RAID {raid} h"
        );
    }

    #[test]
    fn estimates_are_reproducible_for_a_seed() {
        let c = Environment::CautiousRaid.constants();
        let a = MonteCarlo::new(G, c, 42).mttu_radd(100);
        let b = MonteCarlo::new(G, c, 42).mttu_radd(100);
        assert_eq!(a, b);
    }

    #[test]
    fn std_error_shrinks_with_trials() {
        let c = Environment::CautiousConventional.constants();
        let small = MonteCarlo::new(G, c, 7).mttu_rowb(50);
        let large = MonteCarlo::new(G, c, 7).mttu_rowb(800);
        assert!(large.std_error < small.std_error);
    }
}
