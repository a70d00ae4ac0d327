//! The write-ahead log: checksummed length-prefixed records.
//!
//! On-device layout is a flat sequence of frames:
//!
//! ```text
//! [u32 payload len (BE)] [32-byte SHA-256(payload)] [payload bytes]
//! ```
//!
//! Appends are buffered by the backend's page cache; [`Wal::commit`]
//! is the durability barrier (one `fsync` per processing window, not
//! per record). [`Wal::open`] scans the device and keeps the longest
//! prefix of intact frames: a frame whose length field overruns the
//! device, or whose checksum does not match its payload, marks the
//! start of a torn/corrupt tail, which is truncated away — recovery
//! always lands on a prefix of committed records and never panics on
//! hostile bytes.

use crate::backend::{Backend, StoreError};
use bytes::{Buf, BufMut};
use nwade_crypto::sha256;

/// Frame header size: length prefix + record checksum.
pub const FRAME_HEADER: usize = 4 + 32;

/// Upper bound on a single record's payload. A corrupted length field
/// must not make recovery allocate gigabytes; anything above this is
/// treated as tail corruption.
pub const MAX_RECORD_LEN: u32 = 16 * 1024 * 1024;

/// The frame at the head of a byte slice, as both readers of the log
/// classify it.
enum Frame<'a> {
    /// A whole frame whose checksum matches: its payload.
    Whole(&'a [u8]),
    /// The bytes end before the frame does (an empty slice included):
    /// an append in flight, or the torn tail of a crash.
    Partial,
    /// A zero or oversized length field, or a payload that fails its
    /// checksum: no later write can make this frame whole.
    Bad,
}

/// Parses the frame at the head of `bytes`. The length field is checked
/// before the header is known to be complete, so an absurd length is
/// [`Frame::Bad`] even when the rest of the frame is missing.
fn next_frame(bytes: &[u8]) -> Frame<'_> {
    let mut cursor = bytes;
    let Ok(len) = cursor.try_get_u32() else {
        return Frame::Partial;
    };
    if len == 0 || len > MAX_RECORD_LEN {
        return Frame::Bad;
    }
    let mut digest = [0u8; 32];
    if cursor.try_copy_to_slice(&mut digest).is_err() {
        return Frame::Partial;
    }
    let Some(payload) = cursor.get(..len as usize) else {
        return Frame::Partial;
    };
    if sha256(payload).0 != digest {
        return Frame::Bad;
    }
    Frame::Whole(payload)
}

/// What [`Wal::open`] found on the device.
#[derive(Debug)]
pub struct Recovery {
    /// Payloads of every intact record, in append order.
    pub records: Vec<Vec<u8>>,
    /// Device length after dropping the torn/corrupt tail (if any).
    pub valid_len: u64,
    /// Bytes discarded from the tail (0 on a clean log).
    pub truncated: u64,
}

impl Recovery {
    /// `true` when the log needed no repair.
    pub fn clean(&self) -> bool {
        self.truncated == 0
    }
}

/// An open write-ahead log over some [`Backend`].
pub struct Wal {
    backend: Box<dyn Backend>,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal").finish_non_exhaustive()
    }
}

impl Wal {
    /// Opens the log: scans every frame, verifies checksums, truncates
    /// the first torn or corrupt frame and everything after it, and
    /// returns the surviving records alongside the writable log.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] only for device-level failures; corrupt
    /// *content* is handled by truncation, never an error.
    pub fn open(mut backend: Box<dyn Backend>) -> Result<(Self, Recovery), StoreError> {
        let bytes = backend.read_all()?;
        let mut records = Vec::new();
        let mut offset = 0usize;
        while let Frame::Whole(payload) = next_frame(&bytes[offset..]) {
            records.push(payload.to_vec());
            offset += FRAME_HEADER + payload.len();
        }
        let valid_len = offset as u64;
        let truncated = bytes.len() as u64 - valid_len;
        if truncated > 0 {
            backend.truncate(valid_len)?;
        }
        Ok((
            Wal { backend },
            Recovery {
                records,
                valid_len,
                truncated,
            },
        ))
    }

    /// Wraps an already-consistent device without the recovery scan.
    ///
    /// [`Wal::open`] repairs torn tails and hands back the surviving
    /// records — the right door for every normal caller. Forensic world
    /// snapshots instead fork a device mid-run (see
    /// [`crate::MemBackend::fork`]) whose contents are consistent *by
    /// construction*, including a possibly-unsynced tail that a scan
    /// would prematurely truncate; `resume` adopts such a device as-is
    /// so replayed crash injections tear exactly like the original.
    pub fn resume(backend: Box<dyn Backend>) -> Self {
        Wal { backend }
    }

    /// Appends one record (not yet durable — see [`Wal::commit`]).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] when the device rejects the write.
    pub fn append(&mut self, payload: &[u8]) -> Result<(), StoreError> {
        assert!(
            !payload.is_empty() && payload.len() <= MAX_RECORD_LEN as usize,
            "record payload must be in 1..={MAX_RECORD_LEN} bytes"
        );
        let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
        frame.put_u32(payload.len() as u32);
        frame.put_slice(&sha256(payload).0);
        frame.put_slice(payload);
        self.backend.append(&frame)
    }

    /// Durability barrier: every record appended so far survives a
    /// crash once this returns.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] when the device cannot be flushed.
    pub fn commit(&mut self) -> Result<(), StoreError> {
        self.backend.sync()
    }

    /// Appends one record and commits immediately.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] when the append or flush fails.
    pub fn append_committed(&mut self, payload: &[u8]) -> Result<(), StoreError> {
        self.append(payload)?;
        self.commit()
    }

    /// Current device length in bytes.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] when the device cannot be inspected.
    pub fn len_bytes(&mut self) -> Result<u64, StoreError> {
        self.backend.len()
    }

    /// Starts a live follower over another handle onto this log's
    /// device (e.g. a [`crate::MemBackend`] clone, or the same file
    /// opened again). The follower streams intact frames as the writer
    /// commits them — the change-feed a hot standby tails.
    pub fn follow(backend: Box<dyn Backend>) -> WalFollower {
        WalFollower::new(backend)
    }
}

/// Incremental reader over a live WAL device: yields the payloads of
/// whole, checksummed frames inside the durable prefix, in append
/// order, and never anything else.
///
/// The durability gate is what makes following safe: bytes the writer
/// has appended but not yet committed can vanish in a crash, so the
/// follower refuses to consume them ([`Backend::durable_len`]). A
/// partial frame at the durable boundary is either an in-flight append
/// (it completes on the writer's next commit) or the torn tail of a
/// crash (the writer's recovery truncates it to exactly this
/// follower's offset) — both resolve by waiting, so the follower output
/// is always a prefix of what [`Wal::open`] would recover. A *complete*
/// durable frame that fails its checksum can never heal; the follower
/// poisons itself ([`WalFollower::is_corrupt`]) instead of guessing.
pub struct WalFollower {
    backend: Box<dyn Backend>,
    offset: u64,
    corrupt: bool,
}

impl std::fmt::Debug for WalFollower {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalFollower")
            .field("offset", &self.offset)
            .field("corrupt", &self.corrupt)
            .finish_non_exhaustive()
    }
}

impl WalFollower {
    /// Creates a follower reading from the start of the device.
    pub fn new(backend: Box<dyn Backend>) -> Self {
        WalFollower {
            backend,
            offset: 0,
            corrupt: false,
        }
    }

    /// Recreates a follower mid-stream on another device handle —
    /// forensic forking: a deep-copied device plus the original
    /// follower's [`WalFollower::offset`] resumes bit-identically.
    /// `offset` must be a frame boundary the original already consumed
    /// to (anything else reads as corruption on the first poll).
    pub fn resume_at(backend: Box<dyn Backend>, offset: u64) -> Self {
        WalFollower {
            backend,
            offset,
            corrupt: false,
        }
    }

    /// Bytes consumed so far (always a frame boundary).
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// `true` once the follower hit an unhealable frame (checksum
    /// mismatch or absurd length inside the durable prefix) and stopped.
    pub fn is_corrupt(&self) -> bool {
        self.corrupt
    }

    /// Drains every whole, intact frame currently inside the durable
    /// prefix and advances past them. Returns an empty batch when
    /// nothing new is durable (or the follower is poisoned).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] when the device cannot be read.
    pub fn poll(&mut self) -> Result<Vec<Vec<u8>>, StoreError> {
        if self.corrupt {
            return Ok(Vec::new());
        }
        let durable = self.backend.durable_len()?;
        if durable <= self.offset {
            // Nothing new. `durable < offset` would mean history this
            // follower already consumed was rewritten under it — the
            // device is no longer the log that was being followed.
            self.corrupt = durable < self.offset;
            return Ok(Vec::new());
        }
        let bytes = self.backend.read_from(self.offset)?;
        let span = ((durable - self.offset) as usize).min(bytes.len());
        let mut cursor: &[u8] = &bytes[..span];
        let mut records = Vec::new();
        loop {
            match next_frame(cursor) {
                Frame::Whole(payload) => {
                    records.push(payload.to_vec());
                    let len = FRAME_HEADER + payload.len();
                    self.offset += len as u64;
                    cursor = &cursor[len..];
                }
                Frame::Partial => break, // in flight or torn: wait
                Frame::Bad => {
                    self.corrupt = true;
                    break;
                }
            }
        }
        Ok(records)
    }

    /// Releases the device handle (promotion: the ex-follower becomes
    /// the writer and resumes the log it was tailing).
    pub fn into_backend(self) -> Box<dyn Backend> {
        self.backend
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    fn reopen(handle: &MemBackend) -> Recovery {
        let (_wal, rec) = Wal::open(Box::new(handle.clone())).expect("open");
        rec
    }

    #[test]
    fn round_trip_and_clean_reopen() {
        let handle = MemBackend::new();
        let (mut wal, rec) = Wal::open(Box::new(handle.clone())).unwrap();
        assert!(rec.records.is_empty() && rec.clean());

        wal.append(b"alpha").unwrap();
        wal.append(b"beta").unwrap();
        wal.commit().unwrap();

        let rec = reopen(&handle);
        assert!(rec.clean());
        assert_eq!(rec.records, vec![b"alpha".to_vec(), b"beta".to_vec()]);
    }

    #[test]
    fn torn_tail_is_truncated_to_committed_prefix() {
        let handle = MemBackend::new();
        let (mut wal, _) = Wal::open(Box::new(handle.clone())).unwrap();
        wal.append(b"committed").unwrap();
        wal.commit().unwrap();
        wal.append(b"in flight at crash time").unwrap();
        drop(wal);

        // Crash mid-write: 7 bytes of the un-synced frame hit the disk.
        handle.crash(7);
        let rec = reopen(&handle);
        assert_eq!(rec.records, vec![b"committed".to_vec()]);
        assert!(!rec.clean());
        assert_eq!(rec.truncated, 7);

        // After repair the log is clean again and writable.
        let (mut wal, rec) = Wal::open(Box::new(handle.clone())).unwrap();
        assert!(rec.clean());
        wal.append_committed(b"next").unwrap();
        let rec = reopen(&handle);
        assert_eq!(rec.records, vec![b"committed".to_vec(), b"next".to_vec()]);
    }

    #[test]
    fn bit_flip_drops_suffix_not_prefix() {
        let handle = MemBackend::new();
        let (mut wal, _) = Wal::open(Box::new(handle.clone())).unwrap();
        for payload in [b"one".as_slice(), b"two", b"three"] {
            wal.append(payload).unwrap();
        }
        wal.commit().unwrap();
        drop(wal);

        // Corrupt the second record's payload.
        let second_frame = FRAME_HEADER + 3;
        handle.flip_bit(second_frame + FRAME_HEADER + 1, 2);
        let rec = reopen(&handle);
        assert_eq!(rec.records, vec![b"one".to_vec()]);
        assert!(!rec.clean());
    }

    #[test]
    fn absurd_length_field_is_tail_corruption() {
        let handle = MemBackend::new();
        let (mut wal, _) = Wal::open(Box::new(handle.clone())).unwrap();
        wal.append_committed(b"good").unwrap();
        drop(wal);

        // Forge a frame with a huge length: must not allocate or panic.
        {
            let mut b = handle.clone();
            use crate::backend::Backend;
            let mut frame = Vec::new();
            frame.put_u32(u32::MAX);
            frame.extend_from_slice(&[0u8; 40]);
            b.append(&frame).unwrap();
            b.sync().unwrap();
        }
        let rec = reopen(&handle);
        assert_eq!(rec.records, vec![b"good".to_vec()]);
        assert!(!rec.clean());
    }

    #[test]
    fn follower_streams_committed_frames_only() {
        let handle = MemBackend::new();
        let (mut wal, _) = Wal::open(Box::new(handle.clone())).unwrap();
        let mut follower = Wal::follow(Box::new(handle.clone()));
        assert!(follower.poll().unwrap().is_empty());

        wal.append(b"alpha").unwrap();
        // Appended but not committed: invisible to the follower.
        assert!(follower.poll().unwrap().is_empty());

        wal.commit().unwrap();
        assert_eq!(follower.poll().unwrap(), vec![b"alpha".to_vec()]);
        assert!(follower.poll().unwrap().is_empty());

        wal.append(b"beta").unwrap();
        wal.append(b"gamma").unwrap();
        wal.commit().unwrap();
        assert_eq!(
            follower.poll().unwrap(),
            vec![b"beta".to_vec(), b"gamma".to_vec()]
        );
        assert!(!follower.is_corrupt());
        assert_eq!(follower.offset(), wal.len_bytes().unwrap());
    }

    #[test]
    fn follower_waits_through_torn_tail_and_resumes_after_repair() {
        let handle = MemBackend::new();
        let (mut wal, _) = Wal::open(Box::new(handle.clone())).unwrap();
        let mut follower = Wal::follow(Box::new(handle.clone()));

        wal.append_committed(b"committed").unwrap();
        assert_eq!(follower.poll().unwrap(), vec![b"committed".to_vec()]);
        let boundary = follower.offset();

        wal.append(b"lost in the crash").unwrap();
        drop(wal);
        handle.crash(9); // torn tail becomes durable garbage

        // The torn frame is incomplete: the follower waits, unpoisoned.
        assert!(follower.poll().unwrap().is_empty());
        assert!(!follower.is_corrupt());
        assert_eq!(follower.offset(), boundary);

        // Writer recovery truncates to exactly the follower's offset and
        // keeps writing; the follower resumes without missing a frame.
        let (mut wal, rec) = Wal::open(Box::new(handle.clone())).unwrap();
        assert_eq!(rec.truncated, 9);
        wal.append_committed(b"after repair").unwrap();
        assert_eq!(follower.poll().unwrap(), vec![b"after repair".to_vec()]);
        assert!(!follower.is_corrupt());
    }

    #[test]
    fn follower_poisons_on_durable_corruption() {
        let handle = MemBackend::new();
        let (mut wal, _) = Wal::open(Box::new(handle.clone())).unwrap();
        let mut follower = Wal::follow(Box::new(handle.clone()));

        wal.append_committed(b"good").unwrap();
        wal.append_committed(b"mangled").unwrap();
        // A *committed* frame goes bad under the follower's nose.
        handle.flip_bit(FRAME_HEADER + 4 + FRAME_HEADER + 1, 3);

        assert_eq!(follower.poll().unwrap(), vec![b"good".to_vec()]);
        assert!(follower.is_corrupt());
        assert!(follower.poll().unwrap().is_empty());

        // Even frames committed after the damage stay invisible: a
        // poisoned follower never skips over corruption.
        wal.append_committed(b"later").unwrap();
        assert!(follower.poll().unwrap().is_empty());
    }

    #[test]
    fn follower_poisons_when_consumed_history_is_rewritten() {
        let handle = MemBackend::new();
        let (mut wal, _) = Wal::open(Box::new(handle.clone())).unwrap();
        let mut follower = Wal::follow(Box::new(handle.clone()));
        wal.append_committed(b"one").unwrap();
        wal.append_committed(b"two").unwrap();
        assert_eq!(follower.poll().unwrap().len(), 2);

        {
            use crate::backend::Backend;
            let mut b = handle.clone();
            b.truncate(FRAME_HEADER as u64 + 3).unwrap();
        }
        assert!(follower.poll().unwrap().is_empty());
        assert!(follower.is_corrupt());
    }

    #[test]
    fn follower_backend_resumes_as_writer() {
        let handle = MemBackend::new();
        let (mut wal, _) = Wal::open(Box::new(handle.clone())).unwrap();
        let mut follower = Wal::follow(Box::new(handle.clone()));
        wal.append_committed(b"from primary").unwrap();
        assert_eq!(follower.poll().unwrap().len(), 1);
        drop(wal);

        // Promotion: the follower adopts the device and appends.
        let mut wal = Wal::resume(follower.into_backend());
        wal.append_committed(b"from standby").unwrap();
        let rec = reopen(&handle);
        assert!(rec.clean());
        assert_eq!(
            rec.records,
            vec![b"from primary".to_vec(), b"from standby".to_vec()]
        );
    }
}
