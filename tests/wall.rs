//! Tier-1 runs the wall (ROADMAP 9(c)): `cargo test -q` at the root is
//! not only the end-to-end suites but a sample of each safety net the
//! refactors lean on, each cheap enough to run on every change.
//!
//! * The smallest `radd-check` world, `crash_world`, exhausted to its
//!   visited-set fixpoint with its **recorded state count**: a change to
//!   the machines that adds or removes a reachable state shows up here as
//!   a number, not as a pass. (The other four worlds run under
//!   `--workspace` and in CI's model-check job.)
//! * `radd-lint` on the real tree, in-process: sans-IO purity,
//!   determinism, unsafe and lock discipline, manifest hygiene, every
//!   module has a caller.
//! * §3.3 stated once: the model checker's quiescent sweep and the DES's
//!   `CheckedCluster::check_invariants` judge UID-array agreement and
//!   spare structure with the same `radd_protocol::check` predicates, so a
//!   hand-built violation planted in both gets the same verdict from both.

use radd::check::{configs, explore, Action, Budgets, ClientOp, Model, ModelConfig};
use radd::core::{CheckedCluster, RaddConfig};
use radd::layout::Geometry;
use radd::parity::{Uid, UidArray};
use radd::protocol::{SiteMachine, SpareContent, SpareSlot};
use radd::workload::faults::payload;

/// `crash_world`'s reachable states (recorded since PR 9; unchanged by
/// every refactor since).
const CRASH_WORLD_STATES: u64 = 3_176;

#[test]
fn crash_world_exhausts_clean_at_its_recorded_state_count() {
    let report = explore(&configs::crash_world());
    assert!(
        report.violation.is_none(),
        "mainline violation: {:?}",
        report.violation.map(|cx| cx.error)
    );
    assert!(report.complete, "no fixpoint within depth {}", report.depth);
    assert_eq!(report.states, CRASH_WORLD_STATES);
}

#[test]
fn the_real_tree_is_tidy() {
    let report = radd_lint::run(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace walks clean");
    let found: Vec<String> = report.diagnostics.iter().map(ToString::to_string).collect();
    assert!(found.is_empty(), "radd-lint:\n{}", found.join("\n"));
    assert!(report.crates_checked > 20, "the walk found the workspace");
}

const G: usize = 2;
const ROWS: u64 = 2;
const BLOCK: usize = 4;
/// The one block both clusters write before anything is planted, so its
/// row has a UID array to disagree with.
const WRITER: usize = 3;
const FILL: u64 = 0x91;

fn model_after_the_write() -> Model {
    let mut model = Model::new(&ModelConfig {
        group_size: G,
        rows: ROWS,
        block_size: BLOCK,
        scripts: vec![vec![ClientOp::Write {
            site: WRITER,
            index: 0,
            fill: FILL,
        }]],
        attachment: vec![None],
        budgets: Budgets::default(),
    });
    model.apply(Action::Step { client: 0 });
    while let Some(index) = model.first_deliverable() {
        model.apply(Action::Deliver { index });
    }
    assert!(model.quiesced() && model.violation().is_none());
    model
}

fn des_after_the_write() -> CheckedCluster {
    let mut config = RaddConfig::small_g4();
    config.group_size = G;
    config.rows = ROWS;
    config.disks_per_site = 1;
    config.block_size = BLOCK;
    let mut des = CheckedCluster::new(config).unwrap();
    des.write(WRITER, 0, &payload(FILL, BLOCK)).unwrap();
    // The DES's parity sweep reads a stood-in block from its spare, so give
    // the row's (still invalid) spare block the right bytes: whatever slot
    // is planted over it below, only the bookkeeping is wrong.
    let geo = *des.cluster().geometry();
    let row = geo.data_to_physical(WRITER, 0);
    des.cluster_mut()
        .corrupt_block(geo.spare_site(row), row, &payload(FILL, BLOCK));
    des
}

const BAD: Uid = Uid::from_raw(0xBAD);

/// Plant `slot` as `machine`'s spare for `row`, or (`None`) overwrite the
/// writer's entry in its UID array for `row`.
fn plant(machine: &mut SiteMachine, row: u64, slot: &Option<SpareSlot>) {
    match slot {
        Some(slot) => drop(machine.spares_mut().insert(row, slot.clone())),
        None => machine.parity_uid_array(row).set(WRITER, BAD),
    }
}

#[test]
fn hand_built_violations_get_the_same_verdict_from_both_checkers() {
    let geo = Geometry::new(G, ROWS).unwrap();
    let row = geo.data_to_physical(WRITER, 0);
    let (parity_site, spare_site) = (geo.parity_site(row), geo.spare_site(row));
    let other_data = geo.data_sites(row).into_iter().find(|&s| s != WRITER);
    let slot = |for_site, content| Some(SpareSlot { for_site, content });
    let data = || SpareContent::Data { uid: BAD };
    let parity = SpareContent::Parity {
        uids: UidArray::new(G + 2),
    };
    // (what, whose machine, what is planted there, what both verdicts say)
    let table = [
        (
            "stale UID-array slot",
            parity_site,
            None,
            "§3.3 disagreement",
        ),
        (
            "self-standing spare",
            spare_site,
            slot(spare_site, data()),
            "stands in for invalid site",
        ),
        (
            "wrong holder",
            other_data.unwrap(),
            slot(WRITER, data()),
            "whose spare site is",
        ),
        (
            "parity-kind slot for a data site",
            spare_site,
            slot(WRITER, parity.clone()),
            "parity-kind slot",
        ),
        (
            "stale data stand-in for an up data site",
            spare_site,
            slot(WRITER, data()),
            "§3.3 disagreement",
        ),
        (
            "parity stand-in with a stale UID array",
            spare_site,
            slot(parity_site, parity),
            "§3.3 disagreement",
        ),
    ];

    model_after_the_write().check_quiesce().unwrap();
    des_after_the_write().check_invariants().unwrap();
    for (what, site, planted, says) in &table {
        let mut model = model_after_the_write();
        plant(model.corrupt_machine(*site), row, planted);
        let from_model = model.check_quiesce().unwrap_err();

        let mut des = des_after_the_write();
        plant(des.cluster_mut().corrupt_machine(*site), row, planted);
        let from_des = des.check_invariants().unwrap_err();

        assert_eq!(from_model, from_des, "{what}: one predicate, one verdict");
        assert!(from_model.contains(says), "{what}: {from_model}");
    }
}
