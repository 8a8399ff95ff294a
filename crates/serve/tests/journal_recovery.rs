//! Journal crash-replay sweep: a `kill -9` can land mid-`write`, so
//! the WAL must recover cleanly from a segment truncated at *any* byte
//! offset of its last record — never panic, never serve a damaged
//! checkpoint, always fall back to the last intact one.

use mcps_control::interlock::{InterlockConfig, InterlockStrategy};
use mcps_core::msg::{NetOp, NetPayload};
use mcps_core::supervisor::CheckpointState;
use mcps_core::{PcaSafetyApp, SupervisorCore};
use mcps_device::pump::PcaPump;
use mcps_serve::client::{PUMP_EP, SUP_EP};
use mcps_serve::host::{ServeConfig, ServeHost};
use mcps_serve::journal::{Journal, RECORD_HEADER_LEN};
use mcps_serve::transport::{ChannelTransport, Transport};
use mcps_sim::time::SimDuration;
use std::fs;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn ckpt(epoch: u64) -> CheckpointState {
    CheckpointState {
        epoch,
        next_command_id: 100 + epoch,
        degraded: epoch.is_multiple_of(2),
        stop_unconfirmed: false,
        inflight_ids: vec![epoch, epoch + 1],
        last_data: Vec::new(),
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mcps-jrec-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Byte offsets where each record starts, plus the total length.
fn record_offsets(bytes: &[u8]) -> Vec<usize> {
    let mut offsets = Vec::new();
    let mut pos = 0;
    while pos + RECORD_HEADER_LEN <= bytes.len() {
        offsets.push(pos);
        let len = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes")) as usize;
        pos += RECORD_HEADER_LEN + len;
    }
    assert_eq!(pos, bytes.len(), "segment did not parse into whole records");
    offsets
}

#[test]
fn truncation_at_every_byte_of_the_last_record_recovers_cleanly() {
    // Build a segment holding three checkpoints.
    let dir = fresh_dir("sweep");
    let base = dir.join("ckpt");
    let segment = {
        let (mut journal, _) = Journal::open(&base).unwrap();
        for e in 1..=3 {
            journal.append(&ckpt(e)).unwrap();
        }
        journal.current_segment()
    };
    let bytes = fs::read(&segment).unwrap();
    let offsets = record_offsets(&bytes);
    assert_eq!(offsets.len(), 3);
    let last_start = offsets[2];

    // Sweep: cut the file at every length from "last record entirely
    // gone" up to "fully intact".
    for cut in last_start..=bytes.len() {
        let case = fresh_dir(&format!("cut{cut}"));
        let case_base = case.join("ckpt");
        fs::write(case.join("ckpt.000000.wal"), &bytes[..cut]).unwrap();
        let (_, recovery) = Journal::open(&case_base).unwrap();
        if cut == bytes.len() {
            assert_eq!(recovery.state, Some(ckpt(3)), "intact file must replay fully");
            assert!(!recovery.torn_tail && !recovery.corrupt_stopped);
        } else {
            assert_eq!(
                recovery.state,
                Some(ckpt(2)),
                "cut at {cut}: must fall back to the last intact record"
            );
            assert_eq!(recovery.records, 2, "cut at {cut}");
            // A cut exactly on the record boundary looks like a clean
            // end; anything inside the record is a torn tail.
            if cut > last_start {
                assert!(recovery.torn_tail, "cut at {cut}: tear not reported");
            }
        }
        let _ = fs::remove_dir_all(&case);
    }
    let _ = fs::remove_dir_all(&dir);
}

/// After recovering from a torn tail, the journal must remain fully
/// usable: appends land in a fresh segment and the next replay sees
/// them (the torn segment is never appended to again).
#[test]
fn torn_journal_stays_usable_after_recovery() {
    let dir = fresh_dir("usable");
    let base = dir.join("ckpt");
    let segment = {
        let (mut journal, _) = Journal::open(&base).unwrap();
        journal.append(&ckpt(1)).unwrap();
        journal.append(&ckpt(2)).unwrap();
        journal.current_segment()
    };
    // Tear mid-way through the second record.
    let bytes = fs::read(&segment).unwrap();
    let offsets = record_offsets(&bytes);
    fs::write(&segment, &bytes[..offsets[1] + RECORD_HEADER_LEN + 3]).unwrap();

    // Recover, then keep journaling.
    {
        let (mut journal, recovery) = Journal::open(&base).unwrap();
        assert_eq!(recovery.state, Some(ckpt(1)));
        assert!(recovery.torn_tail);
        assert_ne!(journal.current_segment(), segment, "must not append after a torn tail");
        journal.append(&ckpt(7)).unwrap();
    }
    let (_, recovery) = Journal::open(&base).unwrap();
    assert_eq!(recovery.state, Some(ckpt(7)), "post-recovery appends must be replayable");
    let _ = fs::remove_dir_all(&dir);
}

/// A corrupted byte (not a truncation) inside an *earlier* record
/// stops replay at the last record before the damage — the journal
/// never trusts anything after a checksum failure.
#[test]
fn corruption_stops_replay_at_the_damage() {
    let dir = fresh_dir("flip");
    let base = dir.join("ckpt");
    let segment = {
        let (mut journal, _) = Journal::open(&base).unwrap();
        for e in 1..=4 {
            journal.append(&ckpt(e)).unwrap();
        }
        journal.current_segment()
    };
    let mut bytes = fs::read(&segment).unwrap();
    let offsets = record_offsets(&bytes);
    bytes[offsets[1] + RECORD_HEADER_LEN + 5] ^= 0x10;
    fs::write(&segment, &bytes).unwrap();
    let (_, recovery) = Journal::open(&base).unwrap();
    assert_eq!(recovery.state, Some(ckpt(1)));
    assert!(recovery.corrupt_stopped);
    let _ = fs::remove_dir_all(&dir);
}

/// The fields a journal replay must never lose.
fn fencing(state: &CheckpointState) -> (u64, u64, bool, bool) {
    (state.epoch, state.next_command_id, state.degraded, state.stop_unconfirmed)
}

/// A fencing change whose append fails is retried on the next poll,
/// so it reaches disk as soon as the disk recovers rather than
/// waiting for the fingerprint to move again.
#[test]
fn failed_append_is_retried_on_the_next_poll() {
    let dir = fresh_dir("retry");
    let base = dir.join("ckpt");
    // A 1-byte budget: every append after the first rotates.
    let (journal, _) = Journal::open_with(&base, 1).unwrap();
    let config = InterlockConfig { strategy: InterlockStrategy::Command, ..Default::default() };
    let core = SupervisorCore::new(PcaSafetyApp::new(config), SUP_EP, SimDuration::from_secs(2));
    let (server_t, mut client_t) = ChannelTransport::pair();
    let mut host =
        ServeHost::new(core, server_t, ServeConfig { speed: 100.0, ..Default::default() });
    host.attach_journal(journal);
    host.poll();
    assert_eq!(host.journal().unwrap().appended(), 1);

    // Occupy the next segment's name so the rotation fails.
    let blocker = dir.join("ckpt.000001.wal");
    fs::write(&blocker, b"").unwrap();
    // A command-mode pump associates; its first heartbeat advances the
    // command ids.
    let profile = PcaPump::profile("P-1", false);
    client_t
        .send(&NetOp::Deliver {
            from: PUMP_EP,
            payload: NetPayload::Announce { profile, endpoint: PUMP_EP },
        })
        .unwrap();
    let before = fencing(&host.core().checkpoint_state());
    let start = Instant::now();
    while fencing(&host.core().checkpoint_state()) == before {
        assert!(start.elapsed() < Duration::from_secs(10), "no heartbeat was ever sent");
        host.poll();
        std::thread::sleep(Duration::from_micros(200));
    }
    assert_eq!(host.stats().journal_errors, 1, "the blocked rotation must fail once");

    // The disk recovers: the very next poll must land the change.
    fs::remove_file(&blocker).unwrap();
    host.poll();
    assert_eq!(host.stats().journal_errors, 1);
    let expected = fencing(&host.core().checkpoint_state());
    let (_, recovery) = Journal::open(&base).unwrap();
    let replayed = recovery.state.expect("the journal must replay a checkpoint");
    assert_eq!(fencing(&replayed), expected, "the failed change was never made durable");
    assert!(!recovery.torn_tail && !recovery.corrupt_stopped);
    let _ = fs::remove_dir_all(&dir);
}
