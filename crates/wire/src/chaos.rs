//! Deterministic transport fault injection ("chaos") for the process mesh.
//!
//! The reliability sublayer wraps every inner wire frame in a 13-byte
//! **envelope** before it hits the socket:
//!
//! ```text
//! offset  size  field
//! 0       1     kind  (1 = data, 2 = ack, 3 = nack)
//! 1       8     sequence number, little-endian u64
//! 9       4     inner frame length in bytes, little-endian u32
//! 13      ...   inner frame (a complete feir-wire frame), data only
//! ```
//!
//! A [`ChaosLink`] sits between the envelope encoder and the socket and
//! misbehaves **deterministically**: whether frame `seq` (on send attempt
//! `attempt`) is dropped, duplicated, delayed, corrupted or truncated is a
//! pure function of the [`FaultPlan`] — a seed, per-kind rates and an
//! optional explicit script. No wall-clock, no global RNG: two runs with the
//! same plan misbehave identically, which is what lets the lossy-mesh solve
//! be asserted bitwise against the clean one.
//!
//! Two invariants keep injected faults *detectable* instead of silently
//! wrong:
//!
//! - The envelope itself is **never** faulted. The byte stream stays framed,
//!   so the receiver always knows where the next envelope starts; faults are
//!   confined to the inner frame (or its absence).
//! - Corruption only flips bits in the inner frame's first three bytes — the
//!   magic pair and the version byte. Those are exactly the fields
//!   [`crate::parse_header`] validates, so a corrupted frame always surfaces
//!   as [`crate::WireError::BadMagic`] or
//!   [`crate::WireError::VersionMismatch`]. Flipping a bit elsewhere (say in
//!   the tag byte) could produce a *different valid message*, which no
//!   integrity check of ours could catch.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};

/// Size of the reliability envelope prefixed to every chaos-layer record.
pub const ENVELOPE_LEN: usize = 13;

/// Envelope kind: a data record carrying one inner wire frame.
pub const ENV_DATA: u8 = 1;

/// Envelope kind: a cumulative acknowledgement (empty inner frame).
pub const ENV_ACK: u8 = 2;

/// Envelope kind: a negative acknowledgement of the missing record `seq`.
pub const ENV_NACK: u8 = 3;

/// Encodes a reliability envelope header.
pub fn encode_envelope(kind: u8, seq: u64, inner_len: u32) -> [u8; ENVELOPE_LEN] {
    let mut env = [0u8; ENVELOPE_LEN];
    env[0] = kind;
    env[1..9].copy_from_slice(&seq.to_le_bytes());
    env[9..13].copy_from_slice(&inner_len.to_le_bytes());
    env
}

/// Decodes a reliability envelope header into `(kind, seq, inner_len)`.
pub fn parse_envelope(env: &[u8; ENVELOPE_LEN]) -> (u8, u64, u32) {
    let kind = env[0];
    let seq = u64::from_le_bytes(env[1..9].try_into().unwrap());
    let inner_len = u32::from_le_bytes(env[9..13].try_into().unwrap());
    (kind, seq, inner_len)
}

/// Appends a data record as it goes on the wire: envelope ‖ `frame`.
fn push_data_record(out: &mut Vec<u8>, seq: u64, frame: &[u8]) {
    out.extend_from_slice(&encode_envelope(ENV_DATA, seq, frame.len() as u32));
    out.extend_from_slice(frame);
}

/// One way a frame can be mistreated on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The frame is never written; the peer sees nothing for this seq.
    Drop,
    /// The frame is written twice back to back.
    Duplicate,
    /// The frame is held back and written after the *next* record (a
    /// one-slot reorder).
    Delay,
    /// One bit among the inner frame's magic/version bytes is flipped.
    Corrupt,
    /// Only a deterministic prefix of the inner frame is written (the
    /// envelope advertises the short length, so the stream stays framed).
    Truncate,
}

/// Independent per-kind fault probabilities, each in `[0, 1]`. Evaluated
/// cumulatively in declaration order, so the sum should stay at or below 1.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultRates {
    /// Probability a frame is dropped.
    pub drop: f64,
    /// Probability a frame is duplicated.
    pub duplicate: f64,
    /// Probability a frame is delayed one slot.
    pub delay: f64,
    /// Probability a frame gets a header bit flip.
    pub corrupt: f64,
    /// Probability a frame is truncated.
    pub truncate: f64,
}

impl FaultRates {
    fn total(&self) -> f64 {
        self.drop + self.duplicate + self.delay + self.corrupt + self.truncate
    }
}

/// Deterministic schedule of transport faults for one directed link.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed mixed into every per-frame decision.
    pub seed: u64,
    /// Random (but reproducible) per-kind fault rates.
    pub rates: FaultRates,
    /// Explicit per-sequence-number faults; takes precedence over `rates`.
    pub script: BTreeMap<u64, FaultKind>,
    /// When `true` (the default for rate-driven plans), only the first send
    /// attempt of a sequence number can be faulted — retransmissions pass
    /// clean, so every fault is recoverable and a lossy solve terminates.
    /// Set to `false` to model a link where retries fail too (used by the
    /// exhausted-retry tests).
    pub first_attempt_only: bool,
}

impl FaultPlan {
    /// A plan that never faults anything.
    pub fn clean() -> Self {
        FaultPlan {
            first_attempt_only: true,
            ..FaultPlan::default()
        }
    }

    /// A rate-driven plan: each first-attempt frame is faulted with the
    /// given per-kind probabilities, decided by hashing `seed` with the
    /// sequence number.
    pub fn from_rates(seed: u64, rates: FaultRates) -> Self {
        debug_assert!(rates.total() <= 1.0 + 1e-12, "fault rates sum over 1");
        FaultPlan {
            seed,
            rates,
            script: BTreeMap::new(),
            first_attempt_only: true,
        }
    }

    /// An explicit script: fault exactly the listed sequence numbers.
    pub fn scripted(entries: &[(u64, FaultKind)]) -> Self {
        FaultPlan {
            seed: 0,
            rates: FaultRates::default(),
            script: entries.iter().copied().collect(),
            first_attempt_only: true,
        }
    }

    /// Decides the fate of send attempt `attempt` of frame `seq`. Pure:
    /// depends only on the plan and the arguments.
    pub fn decide(&self, seq: u64, attempt: u32) -> Option<FaultKind> {
        if attempt > 0 && self.first_attempt_only {
            return None;
        }
        if let Some(&kind) = self.script.get(&seq) {
            return Some(kind);
        }
        let total = self.rates.total();
        if total <= 0.0 {
            return None;
        }
        let u = unit_hash(self.seed, seq, u64::from(attempt), 0);
        let mut threshold = self.rates.drop;
        if u < threshold {
            return Some(FaultKind::Drop);
        }
        threshold += self.rates.duplicate;
        if u < threshold {
            return Some(FaultKind::Duplicate);
        }
        threshold += self.rates.delay;
        if u < threshold {
            return Some(FaultKind::Delay);
        }
        threshold += self.rates.corrupt;
        if u < threshold {
            return Some(FaultKind::Corrupt);
        }
        threshold += self.rates.truncate;
        if u < threshold {
            return Some(FaultKind::Truncate);
        }
        None
    }

    /// Deterministic auxiliary draw in `0..bound` for shaping a fault (which
    /// bit to flip, where to cut). `salt` separates independent draws.
    fn draw(&self, seq: u64, attempt: u32, salt: u64, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        splitmix(self.seed ^ splitmix(seq) ^ splitmix(u64::from(attempt) ^ salt)) % bound
    }
}

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit hash.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash of `(seed, seq, attempt, salt)` mapped uniformly onto `[0, 1)`.
fn unit_hash(seed: u64, seq: u64, attempt: u64, salt: u64) -> f64 {
    let h = splitmix(seed ^ splitmix(seq) ^ splitmix(attempt ^ salt));
    // 53 mantissa bits of the hash as a fraction in [0, 1).
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Shared counters describing what a [`ChaosLink`] (and the reliability
/// layer above it) actually did. All relaxed atomics — diagnostics only.
#[derive(Debug, Default)]
pub struct LinkStats {
    /// Data records sent (first attempts).
    pub data_frames: AtomicU64,
    /// Frames the chaos layer swallowed.
    pub dropped: AtomicU64,
    /// Frames written twice.
    pub duplicated: AtomicU64,
    /// Frames held back one slot.
    pub delayed: AtomicU64,
    /// Frames with an injected header bit flip.
    pub corrupted: AtomicU64,
    /// Frames cut short.
    pub truncated: AtomicU64,
    /// Retransmissions issued by the reliability layer.
    pub retransmits: AtomicU64,
    /// Received data records that failed frame validation.
    pub rejected: AtomicU64,
    /// Received data records that were duplicates of delivered frames.
    pub dup_received: AtomicU64,
}

impl LinkStats {
    /// Total injected faults of any kind.
    pub fn faults(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
            + self.duplicated.load(Ordering::Relaxed)
            + self.delayed.load(Ordering::Relaxed)
            + self.corrupted.load(Ordering::Relaxed)
            + self.truncated.load(Ordering::Relaxed)
    }

    fn bump(&self, counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// A fault-injecting writer for envelope-framed records.
///
/// All reliability-layer writes for one directed link funnel through one
/// `ChaosLink`, which applies the [`FaultPlan`] to data records and passes
/// acknowledgements and NACKs through untouched (faulting them would only
/// exercise the same retransmit path twice).
///
/// A cumulative ack is *owed* ([`ChaosLink::owe_ack`]) rather than written
/// at once: it rides ahead of the next clean data record in the same
/// `write`, goes out before a NACK, a faulted record or a re-send, and
/// otherwise waits for [`ChaosLink::flush_ack`] — the delayed cumulative
/// ACK of TCP (RFC 1122 §4.2.3.2).
#[derive(Debug)]
pub struct ChaosLink<W: Write> {
    inner: W,
    plan: FaultPlan,
    /// A delayed record waiting to be written after the next one.
    held: Option<Vec<u8>>,
    /// The cumulative ack recorded but not yet written.
    owed_ack: Option<u64>,
    /// The bytes of the next `write`: the owed ack, then what follows it.
    out: Vec<u8>,
    stats: std::sync::Arc<LinkStats>,
}

impl<W: Write> ChaosLink<W> {
    /// Wraps `inner` with the given plan; `stats` is shared so the endpoint
    /// can report what happened.
    pub fn new(inner: W, plan: FaultPlan, stats: std::sync::Arc<LinkStats>) -> Self {
        ChaosLink {
            inner,
            plan,
            held: None,
            owed_ack: None,
            out: Vec::new(),
            stats,
        }
    }

    /// The wrapped writer (used for raw pre-reliability traffic like the
    /// mesh handshake).
    pub fn get_mut(&mut self) -> &mut W {
        &mut self.inner
    }

    /// Writes (or mistreats) one data record: envelope + `frame`, where
    /// `frame` is a complete inner wire frame. `attempt` is 0 for the first
    /// transmission and increments on each retransmit.
    pub fn write_data(&mut self, seq: u64, attempt: u32, frame: &[u8]) -> io::Result<()> {
        if attempt == 0 {
            self.stats.bump(&self.stats.data_frames);
        } else {
            self.stats.bump(&self.stats.retransmits);
        }
        let fault = self.plan.decide(seq, attempt);
        self.start_out();
        if fault.is_some() {
            // The owed ack goes out alone, clean, ahead of the mistreatment.
            self.write_out()?;
        }
        match fault {
            Some(FaultKind::Drop) => {
                self.stats.bump(&self.stats.dropped);
                // Nothing hits the wire; still release any held record so a
                // delayed frame cannot be stranded behind a dropped one.
                self.flush_held()?;
                Ok(())
            }
            Some(FaultKind::Delay) => {
                self.stats.bump(&self.stats.delayed);
                // One delay slot: an already-held record goes out first.
                let mut record = Vec::with_capacity(ENVELOPE_LEN + frame.len());
                push_data_record(&mut record, seq, frame);
                let previous = self.held.replace(record);
                if let Some(old) = previous {
                    self.inner.write_all(&old)?;
                    self.inner.flush()?;
                }
                Ok(())
            }
            Some(FaultKind::Duplicate) => {
                self.stats.bump(&self.stats.duplicated);
                let env = encode_envelope(ENV_DATA, seq, frame.len() as u32);
                for _ in 0..2 {
                    self.inner.write_all(&env)?;
                    self.inner.write_all(frame)?;
                }
                self.inner.flush()?;
                self.flush_held()
            }
            Some(FaultKind::Corrupt) => {
                self.stats.bump(&self.stats.corrupted);
                let mut mangled = frame.to_vec();
                // Flip one bit among bytes 0..3 (magic + version): the
                // receiver's header validation is guaranteed to reject it.
                let bit = self.plan.draw(seq, attempt, 0xC0, 24);
                mangled[(bit / 8) as usize] ^= 1 << (bit % 8);
                self.inner
                    .write_all(&encode_envelope(ENV_DATA, seq, mangled.len() as u32))?;
                self.inner.write_all(&mangled)?;
                self.inner.flush()?;
                self.flush_held()
            }
            Some(FaultKind::Truncate) => {
                self.stats.bump(&self.stats.truncated);
                // Cut strictly inside the frame; the envelope advertises the
                // short length so the byte stream stays in sync and the
                // receiver sees a Truncated frame, not a desync.
                let cut = 1 + self.plan.draw(seq, attempt, 0x7C, frame.len() as u64 - 1) as usize;
                self.inner
                    .write_all(&encode_envelope(ENV_DATA, seq, cut as u32))?;
                self.inner.write_all(&frame[..cut])?;
                self.inner.flush()?;
                self.flush_held()
            }
            None => {
                // One write — owed ack ‖ envelope ‖ frame — so the receiver
                // never wakes on a part alone.
                push_data_record(&mut self.out, seq, frame);
                self.write_out()?;
                self.flush_held()
            }
        }
    }

    /// Records that every record below `ack_seq` was delivered: a cumulative
    /// ack, written with this link's next record or by [`Self::flush_ack`].
    /// A later call supersedes an earlier one. Never faulted.
    pub fn owe_ack(&mut self, ack_seq: u64) {
        self.owed_ack = Some(ack_seq);
    }

    /// Writes the owed ack now, if there is one (and then releases a held
    /// delayed record).
    pub fn flush_ack(&mut self) -> io::Result<()> {
        if self.owed_ack.is_none() {
            return Ok(());
        }
        self.start_out();
        self.write_out()?;
        self.flush_held()
    }

    /// Writes a negative acknowledgement for the missing record `seq`,
    /// behind the owed ack in the same `write` (and then releases a held
    /// delayed record). Never faulted.
    pub fn write_nack(&mut self, seq: u64) -> io::Result<()> {
        self.start_out();
        self.out
            .extend_from_slice(&encode_envelope(ENV_NACK, seq, 0));
        self.write_out()?;
        self.flush_held()
    }

    /// Starts the next write's bytes with the owed ack, if any.
    fn start_out(&mut self) {
        self.out.clear();
        if let Some(ack_seq) = self.owed_ack.take() {
            self.out
                .extend_from_slice(&encode_envelope(ENV_ACK, ack_seq, 0));
        }
    }

    /// Writes what [`Self::start_out`] and its callers collected, if
    /// anything.
    fn write_out(&mut self) -> io::Result<()> {
        if self.out.is_empty() {
            return Ok(());
        }
        self.inner.write_all(&self.out)?;
        self.out.clear();
        self.inner.flush()
    }

    fn flush_held(&mut self) -> io::Result<()> {
        if let Some(record) = self.held.take() {
            self.inner.write_all(&record)?;
            self.inner.flush()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{decode_frame_buf, Message, WireError};

    fn frame() -> Vec<u8> {
        Message::GatherScalar {
            rank: 1,
            value: 0.5,
        }
        .encode()
    }

    /// Splits a chaos byte stream back into `(kind, seq, inner bytes)`
    /// records.
    fn records(stream: &[u8]) -> Vec<(u8, u64, Vec<u8>)> {
        let mut out = Vec::new();
        let mut at = 0;
        while at < stream.len() {
            let env: [u8; ENVELOPE_LEN] = stream[at..at + ENVELOPE_LEN].try_into().unwrap();
            let (kind, seq, len) = parse_envelope(&env);
            at += ENVELOPE_LEN;
            out.push((kind, seq, stream[at..at + len as usize].to_vec()));
            at += len as usize;
        }
        out
    }

    #[test]
    fn decisions_are_deterministic_and_attempt_sensitive() {
        let rates = FaultRates {
            drop: 0.2,
            duplicate: 0.2,
            delay: 0.2,
            corrupt: 0.2,
            truncate: 0.2,
        };
        let a = FaultPlan::from_rates(7, rates);
        let b = FaultPlan::from_rates(7, rates);
        let mut faulted = 0;
        for seq in 0..200u64 {
            assert_eq!(a.decide(seq, 0), b.decide(seq, 0), "seq {seq} diverged");
            if a.decide(seq, 0).is_some() {
                faulted += 1;
            }
            // Retransmissions always pass clean under first_attempt_only.
            assert_eq!(a.decide(seq, 1), None);
        }
        // Rates sum to 1.0, so essentially every frame should be faulted.
        assert!(faulted > 150, "only {faulted}/200 frames faulted");
    }

    #[test]
    fn clean_plan_is_a_transparent_envelope_writer() {
        let mut sink = Vec::new();
        let stats = std::sync::Arc::new(LinkStats::default());
        let mut link = ChaosLink::new(&mut sink, FaultPlan::clean(), stats.clone());
        link.write_data(0, 0, &frame()).unwrap();
        link.owe_ack(1);
        link.flush_ack().unwrap();
        let recs = records(&sink);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].0, ENV_DATA);
        assert_eq!(recs[0].1, 0);
        decode_frame_buf(&recs[0].2).unwrap();
        assert_eq!(recs[1].0, ENV_ACK);
        assert_eq!(recs[1].1, 1);
        assert!(recs[1].2.is_empty());
        assert_eq!(stats.faults(), 0);
    }

    /// Records every `write` call it receives.
    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_clean_record_is_one_write_with_unchanged_bytes() {
        let stats = std::sync::Arc::new(LinkStats::default());
        let mut link = ChaosLink::new(Writes::default(), FaultPlan::clean(), stats);
        link.write_data(7, 0, &frame()).unwrap();
        let mut want = encode_envelope(ENV_DATA, 7, frame().len() as u32).to_vec();
        want.extend_from_slice(&frame());
        assert_eq!(link.get_mut().0, [want], "one write of envelope ‖ frame");
    }

    #[test]
    fn an_owed_ack_is_written_once_ahead_of_whatever_goes_next() {
        let plan = FaultPlan::scripted(&[(1, FaultKind::Drop)]);
        let stats = std::sync::Arc::new(LinkStats::default());
        let mut link = ChaosLink::new(Writes::default(), plan, stats);
        let ack = |seq| encode_envelope(ENV_ACK, seq, 0).to_vec();
        let mut data = encode_envelope(ENV_DATA, 0, frame().len() as u32).to_vec();
        data.extend_from_slice(&frame());

        link.flush_ack().unwrap();
        assert!(link.get_mut().0.is_empty(), "nothing owed, nothing written");
        // The later ack supersedes the earlier; it rides the clean record.
        link.owe_ack(2);
        link.owe_ack(3);
        link.write_data(0, 0, &frame()).unwrap();
        assert_eq!(link.get_mut().0, [[ack(3), data].concat()]);
        // A faulted (here dropped) record: the ack goes out alone.
        link.owe_ack(4);
        link.write_data(1, 0, &frame()).unwrap();
        // A NACK: ack ‖ NACK in one write. Then the debt is paid.
        link.owe_ack(5);
        link.write_nack(1).unwrap();
        link.flush_ack().unwrap();
        let nack = encode_envelope(ENV_NACK, 1, 0).to_vec();
        assert_eq!(link.get_mut().0[1..], [ack(4), [ack(5), nack].concat()]);
    }

    #[test]
    fn drop_swallows_the_record() {
        let mut sink = Vec::new();
        let plan = FaultPlan::scripted(&[(0, FaultKind::Drop)]);
        let stats = std::sync::Arc::new(LinkStats::default());
        let mut link = ChaosLink::new(&mut sink, plan, stats.clone());
        link.write_data(0, 0, &frame()).unwrap();
        link.write_data(1, 0, &frame()).unwrap();
        let recs = records(&sink);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].1, 1);
        assert_eq!(stats.dropped.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn duplicate_writes_the_record_twice() {
        let mut sink = Vec::new();
        let plan = FaultPlan::scripted(&[(0, FaultKind::Duplicate)]);
        let stats = std::sync::Arc::new(LinkStats::default());
        let mut link = ChaosLink::new(&mut sink, plan, stats);
        link.write_data(0, 0, &frame()).unwrap();
        let recs = records(&sink);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0], recs[1]);
        decode_frame_buf(&recs[0].2).unwrap();
    }

    #[test]
    fn delay_reorders_by_one_slot() {
        let mut sink = Vec::new();
        let plan = FaultPlan::scripted(&[(0, FaultKind::Delay)]);
        let stats = std::sync::Arc::new(LinkStats::default());
        let mut link = ChaosLink::new(&mut sink, plan, stats);
        link.write_data(0, 0, &frame()).unwrap();
        link.write_data(1, 0, &frame()).unwrap();
        let recs = records(&sink);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].1, 1, "frame 1 jumps ahead");
        assert_eq!(recs[1].1, 0, "frame 0 follows");
        decode_frame_buf(&recs[1].2).unwrap();
    }

    #[test]
    fn corrupt_always_surfaces_as_a_header_validation_error() {
        // Try many seeds: every injected corruption must land in the
        // magic/version bytes and be rejected by the existing checks.
        for seed in 0..64u64 {
            let mut sink = Vec::new();
            let mut plan = FaultPlan::scripted(&[(0, FaultKind::Corrupt)]);
            plan.seed = seed;
            let stats = std::sync::Arc::new(LinkStats::default());
            let mut link = ChaosLink::new(&mut sink, plan, stats);
            link.write_data(0, 0, &frame()).unwrap();
            let recs = records(&sink);
            assert_eq!(recs.len(), 1);
            match decode_frame_buf(&recs[0].2) {
                Err(WireError::BadMagic(_)) | Err(WireError::VersionMismatch { .. }) => {}
                other => panic!("seed {seed}: corrupt frame decoded as {other:?}"),
            }
        }
    }

    #[test]
    fn truncate_always_surfaces_as_truncated() {
        for seed in 0..64u64 {
            let mut sink = Vec::new();
            let mut plan = FaultPlan::scripted(&[(0, FaultKind::Truncate)]);
            plan.seed = seed;
            let stats = std::sync::Arc::new(LinkStats::default());
            let mut link = ChaosLink::new(&mut sink, plan, stats);
            link.write_data(0, 0, &frame()).unwrap();
            let recs = records(&sink);
            assert_eq!(recs.len(), 1);
            assert!(recs[0].2.len() < frame().len());
            match decode_frame_buf(&recs[0].2) {
                Err(WireError::Truncated { .. }) => {}
                other => panic!("seed {seed}: truncated frame decoded as {other:?}"),
            }
        }
    }

    #[test]
    fn retransmission_of_a_faulted_seq_passes_clean() {
        let plan = FaultPlan::scripted(&[(0, FaultKind::Drop)]);
        let stats = std::sync::Arc::new(LinkStats::default());
        let mut link = ChaosLink::new(Vec::new(), plan, stats.clone());
        link.write_data(0, 0, &frame()).unwrap();
        assert!(records(link.get_mut()).is_empty());
        link.write_data(0, 1, &frame()).unwrap();
        let recs = records(link.get_mut());
        assert_eq!(recs.len(), 1);
        decode_frame_buf(&recs[0].2).unwrap();
        assert_eq!(stats.retransmits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn ack_flushes_a_held_delayed_record() {
        let plan = FaultPlan::scripted(&[(0, FaultKind::Delay)]);
        let stats = std::sync::Arc::new(LinkStats::default());
        let mut link = ChaosLink::new(Vec::new(), plan, stats);
        link.write_data(0, 0, &frame()).unwrap();
        assert!(records(link.get_mut()).is_empty(), "record is held");
        link.owe_ack(5);
        link.flush_ack().unwrap();
        let recs = records(link.get_mut());
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].0, ENV_ACK);
        assert_eq!(recs[1].0, ENV_DATA);
        assert_eq!(recs[1].1, 0);
    }

    #[test]
    fn nack_is_never_faulted_and_flushes_a_held_delayed_record() {
        // Every data seq is delayed on every attempt, so a fault decision
        // for the NACK's seq would be one too.
        let mut plan = FaultPlan::from_rates(
            3,
            FaultRates {
                delay: 1.0,
                ..FaultRates::default()
            },
        );
        plan.first_attempt_only = false;
        let stats = std::sync::Arc::new(LinkStats::default());
        let mut link = ChaosLink::new(Vec::new(), plan, stats.clone());
        link.write_data(0, 0, &frame()).unwrap();
        assert!(records(link.get_mut()).is_empty(), "record is held");
        link.write_nack(0).unwrap();
        link.write_nack(1).unwrap();
        let recs = records(link.get_mut());
        let kinds: Vec<_> = recs.iter().map(|(kind, seq, _)| (*kind, *seq)).collect();
        assert_eq!(kinds, [(ENV_NACK, 0), (ENV_DATA, 0), (ENV_NACK, 1)]);
        assert!(recs[0].2.is_empty() && recs[2].2.is_empty());
        assert_eq!(stats.faults(), 1, "only the data record was faulted");
    }
}
