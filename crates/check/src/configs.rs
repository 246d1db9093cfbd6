//! The standard checker worlds run by CI and the `radd-check` binary.
//!
//! All use `G = 2` (four sites, the smallest honest RADD cluster) and two
//! rows, so every role — data, parity, spare — is exercised on multiple
//! sites while the reachable state space stays exhaustible in seconds.
//! With `G = 2`, `rows = 2`: row 0 has parity at site 0, spare at site 1,
//! data at sites 2 and 3; row 1 has parity at site 1, spare at site 2,
//! data at sites 3 and 0.

use crate::explore::CheckConfig;
use crate::model::{Budgets, ClientOp, ModelConfig};

/// Two concurrent clients writing and reading different rows, with
/// duplication, loss, retransmission and one site-failure episode.
pub fn small_world() -> CheckConfig {
    CheckConfig {
        model: ModelConfig {
            group_size: 2,
            rows: 2,
            block_size: 4,
            scripts: vec![
                vec![
                    ClientOp::Write {
                        site: 2,
                        index: 0,
                        fill: 0xA1,
                    },
                    ClientOp::Read { site: 2, index: 0 },
                ],
                vec![
                    ClientOp::Write {
                        site: 0,
                        index: 0,
                        fill: 0xB2,
                    },
                    ClientOp::Read { site: 0, index: 0 },
                ],
            ],
            attachment: vec![None, None],
            budgets: Budgets {
                dup: 1,
                drop: 1,
                timer: 2,
                fail: 1,
                partition: 0,
                evict: 0,
                crash: 0,
            },
        },
        max_depth: 40,
        sleep_sets: true,
    }
}

/// A §5 partition episode: one external client and one client attached to
/// site 2, which the partition may isolate (exercising the gate's
/// believed-down edge: the isolated actor must cease processing).
pub fn partition_world() -> CheckConfig {
    CheckConfig {
        model: ModelConfig {
            group_size: 2,
            rows: 2,
            block_size: 4,
            scripts: vec![
                vec![
                    ClientOp::Write {
                        site: 2,
                        index: 0,
                        fill: 0xC3,
                    },
                    ClientOp::Read { site: 2, index: 0 },
                ],
                vec![
                    ClientOp::Write {
                        site: 0,
                        index: 0,
                        fill: 0xD4,
                    },
                    ClientOp::Read { site: 0, index: 0 },
                ],
            ],
            attachment: vec![None, Some(2)],
            budgets: Budgets {
                dup: 0,
                drop: 0,
                timer: 1,
                fail: 0,
                partition: 1,
                evict: 0,
                crash: 0,
            },
        },
        max_depth: 40,
        sleep_sets: true,
    }
}

/// One client overwriting the same block twice under duplication, cache
/// eviction and a failure episode — the world where the §3.2 idempotence
/// guard, the UID handshake and spare invalidation each carry the proof
/// alone. The first three seeded mutants are all caught here.
pub fn adversarial_world() -> CheckConfig {
    CheckConfig {
        model: ModelConfig {
            group_size: 2,
            rows: 2,
            block_size: 4,
            scripts: vec![vec![
                ClientOp::Write {
                    site: 3,
                    index: 0,
                    fill: 0xE1,
                },
                ClientOp::Write {
                    site: 3,
                    index: 0,
                    fill: 0xE2,
                },
                ClientOp::Read { site: 3, index: 0 },
            ]],
            attachment: vec![None],
            budgets: Budgets {
                dup: 1,
                drop: 0,
                timer: 1,
                fail: 1,
                partition: 0,
                evict: 1,
                crash: 0,
            },
        },
        max_depth: 40,
        sleep_sets: true,
    }
}

/// The rebuild engine's world: one client writes, the other bulk-rebuilds
/// a failed site's blocks into the row spares (`ClientOp::Rebuild`, the
/// declustered fleet's per-group pass) while writes, duplication and
/// retransmission interleave. Exhausting it proves the PR-8 invariants:
/// stripe parity and spare-valid ⟹ matches-owner survive a rebuild racing
/// the write path, whichever member the failed pool site maps to.
pub fn rebuild_world() -> CheckConfig {
    CheckConfig {
        model: ModelConfig {
            group_size: 2,
            rows: 2,
            block_size: 4,
            scripts: vec![
                vec![
                    ClientOp::Write {
                        site: 3,
                        index: 0,
                        fill: 0xF1,
                    },
                    ClientOp::Read { site: 3, index: 0 },
                ],
                // Site 3 holds data in both rows, so a rebuild of it
                // exercises every spare slot the geometry offers.
                vec![ClientOp::Rebuild { site: 3 }],
            ],
            attachment: vec![None, None],
            budgets: Budgets {
                dup: 1,
                drop: 1,
                timer: 2,
                fail: 1,
                partition: 0,
                evict: 0,
                crash: 0,
            },
        },
        max_depth: 40,
        sleep_sets: true,
    }
}

/// The durability world: a site may crash at any locally quiescent point
/// and restart straight from its durable snapshot
/// ([`Action::CrashRestart`](crate::model::Action::CrashRestart) — the
/// model-level twin of `DiskBlocks` WAL recovery). Overwrites of one block
/// under duplication and retransmission interleave with the crash, so the
/// checker proves the WAL-covered state (UIDs, parity bookkeeping, spare
/// map) is *sufficient*: nothing the protocol later needs lived only in
/// the volatile half the restart discards.
pub fn crash_world() -> CheckConfig {
    CheckConfig {
        model: ModelConfig {
            group_size: 2,
            rows: 2,
            block_size: 4,
            scripts: vec![vec![
                ClientOp::Write {
                    site: 3,
                    index: 0,
                    fill: 0x91,
                },
                ClientOp::Write {
                    site: 3,
                    index: 0,
                    fill: 0x92,
                },
                ClientOp::Read { site: 3, index: 0 },
            ]],
            attachment: vec![None],
            budgets: Budgets {
                dup: 1,
                drop: 1,
                timer: 2,
                fail: 0,
                partition: 0,
                evict: 0,
                crash: 1,
            },
        },
        max_depth: 40,
        sleep_sets: true,
    }
}

/// Writes given as change masks: 32-byte blocks, so a client's rewrite
/// of a block goes as its mask against the client's previous write. Client
/// 0 writes one block twice and reads it; client 1 writes the same block
/// once, between or around them, which makes client 0's base stale. A
/// duplicated mask, a reply cache that forgets and a crash of the site
/// interleave: the world where the base check alone keeps a mask from
/// being applied to a block it was not taken against.
pub fn mask_world() -> CheckConfig {
    CheckConfig {
        model: ModelConfig {
            group_size: 2,
            rows: 2,
            block_size: 32,
            scripts: vec![
                vec![
                    ClientOp::Write {
                        site: 3,
                        index: 0,
                        fill: 0xA5,
                    },
                    ClientOp::Write {
                        site: 3,
                        index: 0,
                        fill: 0xA6,
                    },
                    ClientOp::Read { site: 3, index: 0 },
                ],
                vec![ClientOp::Write {
                    site: 3,
                    index: 0,
                    fill: 0xB7,
                }],
            ],
            attachment: vec![None, None],
            budgets: Budgets {
                dup: 1,
                drop: 0,
                timer: 0,
                fail: 0,
                partition: 0,
                evict: 1,
                crash: 1,
            },
        },
        max_depth: 40,
        sleep_sets: true,
    }
}

/// Every standard world, with its name.
pub fn all() -> Vec<(&'static str, CheckConfig)> {
    vec![
        ("small_world", small_world()),
        ("partition_world", partition_world()),
        ("adversarial_world", adversarial_world()),
        ("rebuild_world", rebuild_world()),
        ("crash_world", crash_world()),
        ("mask_world", mask_world()),
    ]
}
