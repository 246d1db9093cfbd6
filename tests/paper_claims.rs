//! The paper's headline quantitative claims, asserted end to end against
//! the implementation (not against hard-coded tables).

use radd::prelude::*;
use radd::protocol::loopback::{Hook, Loopback};
use radd::protocol::{ClientMachine, Dest, Effect, MemBlocks, Msg, SiteMachine};
use radd::reliability::{mttf_hours, mttu_hours, HOURS_PER_YEAR};

const G: usize = 8;

/// Abstract: "much less space is required and equal performance is
/// provided during normal operation" (vs a conventional multicopy scheme).
#[test]
fn abstract_claim_less_space_equal_normal_performance() {
    let mut cfg = RaddConfig::paper_g8();
    cfg.block_size = 512;
    let mut radd = Radd::new(cfg).unwrap();
    let mut rowb = Rowb::new(10, 80, 10, 512, CostParams::paper_defaults()).unwrap();
    assert!(radd.space_overhead() < 0.3 && rowb.space_overhead() == 1.0);

    let mut rng = SimRng::seed_from_u64(5);
    let a = run_mix(
        &mut radd,
        &mut rng,
        1200,
        Mix::paper_2to1(),
        AccessPattern::Uniform,
    )
    .unwrap();
    let mut rng = SimRng::seed_from_u64(5);
    let b = run_mix(
        &mut rowb,
        &mut rng,
        1200,
        Mix::paper_2to1(),
        AccessPattern::Uniform,
    )
    .unwrap();
    let (la, lb) = (a.mean_latency_ms(), b.mean_latency_ms());
    assert!(
        (la - lb).abs() < 1.0,
        "equal normal performance: RADD {la} ms vs ROWB {lb} ms"
    );
}

/// Abstract: "during failures the new algorithm offers lower performance
/// than a conventional scheme."
#[test]
fn abstract_claim_failures_favor_rowb() {
    let mut cfg = RaddConfig::paper_g8();
    cfg.block_size = 512;
    cfg.spare_policy = SparePolicy::None; // steady-state reconstruction
    let mut radd = Radd::new(cfg).unwrap();
    let mut rowb = Rowb::new(10, 80, 10, 512, CostParams::paper_defaults()).unwrap();
    radd.inject(2, FailureKind::SiteFailure).unwrap();
    rowb.inject(2, FailureKind::SiteFailure).unwrap();

    let mut rng = SimRng::seed_from_u64(6);
    let a = run_mix(
        &mut radd,
        &mut rng,
        1500,
        Mix::read_only(),
        AccessPattern::Uniform,
    )
    .unwrap();
    let mut rng = SimRng::seed_from_u64(6);
    let b = run_mix(
        &mut rowb,
        &mut rng,
        1500,
        Mix::read_only(),
        AccessPattern::Uniform,
    )
    .unwrap();
    assert!(
        a.mean_latency_ms() > 1.5 * b.mean_latency_ms(),
        "degraded RADD {} ms vs ROWB {} ms",
        a.mean_latency_ms(),
        b.mean_latency_ms()
    );
}

/// §2: "a read has no extra overhead while a write may cost 2 physical
/// accesses" — and the striped-parity RAID supports parallel reads.
#[test]
fn raid_basics() {
    let mut raid = Raid5::paper_g8(10, 256).unwrap();
    let (_, r) = {
        raid.write(Actor::Client, 0, 0, &vec![1u8; 256]).unwrap();
        raid.read(Actor::Client, 0, 0).unwrap()
    };
    assert_eq!(r.counts.total(), 1);
    let w = raid.write(Actor::Client, 0, 0, &vec![2u8; 256]).unwrap();
    assert_eq!(w.counts.total(), 2);
}

/// §7 conclusions: "there are two solutions at 25 percent overhead, and
/// RADD clearly dominates RAID. For a modest performance degradation, RADD
/// reliability is more than one order of magnitude better" — we assert the
/// dominance direction with our model's magnitudes.
#[test]
fn conclusion_radd_dominates_raid_at_equal_space() {
    let env = Environment::CautiousConventional.constants();
    let radd_mttf = mttf_hours(Scheme::Radd, G, &env);
    let raid_mttf = mttf_hours(Scheme::Raid, G, &env);
    let radd_mttu = mttu_hours(Scheme::Radd, G, &env);
    let raid_mttu = mttu_hours(Scheme::Raid, G, &env);
    assert!(radd_mttf > 4.0 * raid_mttf);
    assert!(radd_mttu > 30.0 * raid_mttu);
}

/// §7 conclusions: "RADD, 1/2-RADD and 2D-RADD appear to be the dominant
/// alternatives" — each must beat ROWB on space at comparable or better
/// reliability characteristics in its class.
#[test]
fn conclusion_dominant_alternatives() {
    let env = Environment::CautiousConventional.constants();
    for s in [Scheme::Radd, Scheme::HalfRadd, Scheme::TwoDRadd] {
        let space = match s {
            Scheme::Radd => 0.25,
            Scheme::HalfRadd | Scheme::TwoDRadd => 0.50,
            _ => unreachable!(),
        };
        assert!(space < 1.0, "{s:?} cheaper than ROWB");
        assert!(
            mttf_hours(s, G, &env) / HOURS_PER_YEAR > 5.0,
            "{s:?} reliable enough to matter"
        );
    }
    // 2D-RADD offers the best MTTU of the trio (Figure 5).
    assert!(mttu_hours(Scheme::TwoDRadd, G, &env) > mttu_hours(Scheme::HalfRadd, G, &env));
    assert!(mttu_hours(Scheme::HalfRadd, G, &env) > mttu_hours(Scheme::Radd, G, &env));
}

/// §7 conclusions (normal RAID environment): "RADD, ROWB and RAID all offer
/// the same 6.84 year MTTF … 1/2-RADD and 2D-RADD remain as the desirable
/// options."
#[test]
fn conclusion_normal_raid_environment_convergence() {
    let env = Environment::NormalRaid.constants();
    let radd = mttf_hours(Scheme::Radd, G, &env) / HOURS_PER_YEAR;
    let raid = mttf_hours(Scheme::Raid, G, &env) / HOURS_PER_YEAR;
    assert!((raid - 6.84).abs() < 0.1, "RAID {raid}");
    assert!(radd / raid < 2.5, "convergence: RADD {radd} vs RAID {raid}");
    assert!(mttf_hours(Scheme::TwoDRadd, G, &env) / HOURS_PER_YEAR > 500.0);
}

/// Holds every parity update while `hold` is set, acking its sender on the
/// parity site's behalf so the write completes: §3.3's update in flight.
#[derive(Default)]
struct Hold {
    hold: bool,
    held: Vec<(usize, usize, Msg)>,
}

impl Hook for Hold {
    fn handle(
        &mut self,
        site: usize,
        machine: &mut SiteMachine,
        blocks: &mut MemBlocks,
        src: usize,
        msg: Msg,
        out: &mut Vec<Effect>,
    ) {
        match msg {
            Msg::ParityUpdate { tag, .. } if self.hold => {
                out.push(Effect::send(Dest::Peer(src), Msg::Ack { tag }));
                self.held.push((site, src, msg));
            }
            _ => machine.handle(blocks, src, msg, out),
        }
    }
}

/// §3.3's consistency machinery is necessary: the same race that UID
/// validation catches corrupts reads when disabled. The race runs on the
/// protocol machines over a cascade that holds a parity update in flight.
#[test]
fn uid_validation_is_load_bearing() {
    for validation in [true, false] {
        let mut net = Loopback::new(4, 12, 128, Hold::default());
        let mut client =
            ClientMachine::new(4, 12, 128, SparePolicy::OnePerParity, validation, u16::MAX);
        let geo = *client.geometry();
        let data = vec![1u8; 128];
        client.write(&mut net, 3, 0, &data).unwrap();
        // A second writer's parity update is in flight…
        let row = geo.data_to_physical(3, 0);
        let writer = *geo.data_sites(row).iter().find(|&&s| s != 3).unwrap();
        let widx = geo.physical_to_data(writer, row).unwrap();
        net.hook.hold = true;
        client.write(&mut net, writer, widx, &[2u8; 128]).unwrap();
        // …while site 3 dies and someone reconstructs its block.
        client.set_down(3, true);
        let result = client.read(&mut net, 3, 0);
        if validation {
            assert!(matches!(result, Err(ClientErr::Inconsistent { .. })));
        } else {
            let got = result.unwrap();
            assert_ne!(&got[..], &data[..], "silent corruption without validation");
        }
    }
}
