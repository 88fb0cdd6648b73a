//! Property tests of the engine's occupancy bookkeeping: the ATT keeps a
//! running count of occupied entries so that `active_count` and `is_full`
//! are O(1) and an idle engine skips issue and snoop work at once. After
//! every step of a random register / data-request / issue / reply /
//! invalidation script, in OCC and Locking modes, both must agree with a
//! scan of the entries.

use proptest::prelude::*;

use sabre_core::{BlockIssue, CcMode, IssueKind, LightSabres, LightSabresConfig, SabreId, SlotId};
use sabre_mem::{Addr, BlockAddr, BLOCK_BYTES};

fn id(transfer: u32) -> SabreId {
    SabreId {
        src_node: 1,
        src_pipe: 0,
        transfer,
    }
}

fn block_with_version(v: u64) -> [u8; BLOCK_BYTES] {
    let mut b = [0u8; BLOCK_BYTES];
    b[..8].copy_from_slice(&v.to_le_bytes());
    b
}

/// Checks the O(1) occupancy answers against a scan of every ATT entry.
fn check_occupancy(eng: &LightSabres, slots: usize) -> Result<(), TestCaseError> {
    let scan = (0..slots)
        .filter(|&i| eng.entry(SlotId(i as u8)).is_some())
        .count();
    prop_assert_eq!(eng.active_count(), scan);
    prop_assert_eq!(eng.is_full(), scan == slots);
    Ok(())
}

/// Drives one engine through `script`. Each step is `(op, a, b)`: `op`
/// picks the action, `a` and `b` its operands. Objects are 1–5 blocks
/// at eight overlapping bases, so invalidations hit live stream buffers.
fn run(cc_mode: CcMode, script: &[(u8, u32, u32)]) -> Result<(), TestCaseError> {
    let cfg = LightSabresConfig {
        cc_mode,
        stream_buffers: 4,
        depth: 3,
        ..LightSabresConfig::default()
    };
    let slots = cfg.stream_buffers;
    let mut eng = LightSabres::new(cfg);
    let mut registered: Vec<SabreId> = Vec::new();
    // Issued accesses still owed a reply, with the SABRe they served.
    let mut outstanding: Vec<(BlockIssue, SabreId)> = Vec::new();
    let mut next = 0u32;
    for &(op, a, b) in script {
        match op {
            0 => {
                // Register a fresh SABRe, or (1 in 8) re-register a live id.
                let sid = match registered.last() {
                    Some(&last) if a % 8 == 0 => last,
                    _ => {
                        next += 1;
                        id(next)
                    }
                };
                let base = Addr::new(u64::from(a % 8) * 2 * BLOCK_BYTES as u64);
                let size = (1 + b % 5) * BLOCK_BYTES as u32;
                if eng.register(sid, base, size, 0).is_ok() {
                    registered.push(sid);
                }
            }
            1 => {
                if !registered.is_empty() {
                    let sid = registered[a as usize % registered.len()];
                    let _ = eng.on_data_request(sid);
                }
            }
            2 | 3 => {
                if let Some(issue) = eng.next_issue() {
                    if issue.kind != IssueKind::LockRelease {
                        let sid = eng.entry(issue.slot).expect("issued from a live slot").id;
                        outstanding.push((issue, sid));
                    }
                }
            }
            4 => {
                if !outstanding.is_empty() {
                    let (issue, sid) = outstanding.swap_remove(a as usize % outstanding.len());
                    // A reply only reaches the SABRe it was issued for. In
                    // Locking mode an aborted SABRe can finish and free its
                    // slot while its lock acquire is still in flight; that
                    // reply has no SABRe left and is dropped here.
                    if eng.entry(issue.slot).map(|e| e.id) == Some(sid) {
                        let data = block_with_version(u64::from(b % 4));
                        match issue.kind {
                            IssueKind::Data => {
                                eng.on_block_reply(issue.slot, issue.block_index, &data);
                            }
                            IssueKind::LockAcquire => {
                                eng.on_lock_reply(issue.slot, b % 3 != 0);
                            }
                            IssueKind::Validate => {
                                eng.on_validate_reply(issue.slot, &data);
                            }
                            IssueKind::LockRelease => unreachable!("never kept outstanding"),
                        }
                    }
                }
            }
            _ => eng.on_invalidation(BlockAddr::from_index(u64::from(a % 20))),
        }
        check_occupancy(&eng, slots)?;
    }
    Ok(())
}

proptest! {
    #[test]
    fn occ_occupancy_matches_a_scan(
        script in proptest::collection::vec((0u8..6, 0u32..64, 0u32..64), 1..400),
    ) {
        run(CcMode::Occ, &script)?;
    }

    #[test]
    fn locking_occupancy_matches_a_scan(
        script in proptest::collection::vec((0u8..6, 0u32..64, 0u32..64), 1..400),
    ) {
        run(CcMode::Locking, &script)?;
    }
}
