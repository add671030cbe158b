//! Process-backed transport: each rank is a real OS process, connected in a
//! full mesh over Unix domain sockets (TCP fallback) and speaking the
//! versioned `feir-wire` frame protocol — hardened (PR 7) by a reliability
//! sublayer and an elastic rejoin protocol.
//!
//! # Topology and handshake
//!
//! Every rank binds a listener (`{dir}/rank{r}.sock` for UDS, port
//! `base + r` for TCP), then **connects** to every lower rank and **accepts**
//! from every higher rank — a deadlock-free rendezvous because the
//! connect-to targets form a DAG. Connection attempts retry with exponential
//! backoff until [`MeshOptions::connect_timeout`], so ranks may start in any
//! order. Both sides of every link exchange a `Hello { rank, ranks, epoch }`
//! frame; the frame header carries the schema version, so a version skew is
//! rejected at the handshake as [`feir_wire::WireError::VersionMismatch`],
//! and an epoch skew (a stale pre-respawn worker) as
//! [`CommError::Protocol`].
//!
//! # Reliability sublayer
//!
//! After the handshake every link switches to the 13-byte chaos envelope of
//! [`feir_wire::chaos`]: each inner wire frame travels as a numbered data
//! record, a per-link reader thread reassembles records **in sequence order**
//! (dropping duplicates, holding reordered records back) and acknowledges
//! cumulatively, and the sender retransmits the oldest unacknowledged record
//! with exponential backoff until [`MeshOptions::max_retries`] is exhausted.
//! The retransmit timer is driven by whichever thread the loss stalls: a
//! rank blocked in a receive sleeps until the earliest retransmit deadline
//! over all of its links and re-sends what expired, a closing link drains
//! the same way, and the reader thread covers a rank that is computing.
//! Because delivery is exactly-once-in-order, the message sequence the
//! solver observes over a faulty link is *identical* to the clean one — a
//! lossy-mesh solve is therefore bitwise-identical to a clean-mesh solve.
//! Exhausted retries degrade to [`CommError::Timeout`]; a corrupted frame
//! with retries disabled surfaces the underlying [`feir_wire::WireError`].
//!
//! Fault injection itself lives in [`MeshOptions::chaos`]: a deterministic,
//! seeded [`feir_wire::chaos::FaultPlan`] per directed link (see
//! [`ChaosConfig::plan_for`]), so two runs with the same config misbehave
//! identically. One cost of the sublayer: halo payloads are decoded from the
//! reassembly queue rather than scattered zero-copy out of the socket
//! buffer (the PR 6 fast path) — the copy is the price of retransmission.
//!
//! # Failure model and elasticity
//!
//! A rank that dies closes all of its sockets. Peers observe the close as an
//! EOF and surface it as [`CommError::Disconnected`] — never a panic. A rank
//! that errors out drops its endpoint before reporting, so the disconnect
//! cascades through the mesh; an optional per-read deadline
//! ([`MeshOptions::read_timeout`], default 30 s) backstops silently wedged
//! peers as [`CommError::Timeout`].
//!
//! With [`MeshOptions::elastic`] the story continues past the disconnect:
//! [`WorkerHandles::respawn_rank`] restarts the dead worker under a bumped
//! *epoch*, survivors re-handshake it ([`ProcessEndpoint::relink`]: the
//! newcomer re-dials lower ranks, higher ranks dial its epoch-qualified
//! listener address) and every rank meets at a rejoin barrier that agrees on
//! the resume iteration. The rank loops then treat the newcomer's pages as
//! lost and rebuild them through the existing recovery collective (see
//! `crate::elastic`).
//!
//! # Determinism
//!
//! This module only moves messages: [`ProcessEndpoint`] is the process
//! backend's `Link`, and the collectives that gather per-rank partials and
//! fold them **in rank order** are the very ones the in-process backend runs
//! (see [`crate::comm`]). A solve over this transport is therefore bitwise
//! identical to the thread-backed one — chaos or not, as long as every fault
//! is absorbed by the reliability sublayer.
//!
//! # Worker processes
//!
//! [`spawn_workers`]/[`solve_with_processes`] launch one worker executable
//! per rank (the `feir-rank-worker` binary, or any process that calls
//! [`worker_main`]) with the `FEIR_RANK_WORKER=1` marker set, and write one
//! `WorkerConfig` wire frame to its stdin: the [`ProcessSpec`], the
//! [`WorkerOptions`], the [`Transport`], the rank and the respawn epochs. A
//! malformed or out-of-range frame is refused at startup. Each worker
//! rebuilds the problem (`poisson_2d(grid)` + `manufactured_rhs(seed)`),
//! joins the mesh, runs its rank loop and reports a `RankResult` (or typed
//! `RankError`) frame on stdout, followed by a `TraceDump`.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ffi::OsString;
use std::fmt;
use std::io::{Read, Write};
use std::net::{Ipv4Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::ffi::{OsStrExt, OsStringExt};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use feir_recovery::RecoveryPolicy;
use feir_sparse::{SpmvFormat, ENV_SPMV_FORMAT};
use feir_wire::chaos::{
    parse_envelope, ChaosLink, FaultPlan, FaultRates, LinkStats, ENVELOPE_LEN, ENV_ACK, ENV_DATA,
};
use feir_wire::{FrameReader, Message, RankErrorKind, Tag, WireError, WorkerConfig};

use crate::cg::DistSolveResult;
use crate::comm::{CommError, HaloPlan, Link, RankComm};
use crate::kernels;
use crate::partition::RankPartition;

/// How the rank mesh is carried.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Transport {
    /// Unix domain sockets: rank `r` listens on `{dir}/rank{r}.sock`
    /// (epoch `e > 0` respawns on `{dir}/rank{r}.e{e}.sock`).
    /// The default — lowest latency, no port allocation.
    Uds {
        /// Rendezvous directory holding the per-rank socket files.
        dir: PathBuf,
    },
    /// TCP loopback fallback: rank `r` listens on
    /// `127.0.0.1:{base_port + epoch·ranks + r}` — leave `ranks` ports of
    /// headroom per expected respawn.
    Tcp {
        /// First port of the contiguous per-rank port range.
        base_port: u16,
    },
}

/// Deterministic transport fault injection for a whole mesh: a seed plus
/// per-kind frame-fault rates, expanded into one directed-link
/// [`FaultPlan`] per `(sender, receiver)` pair by [`ChaosConfig::plan_for`].
///
/// The textual form read by [`ChaosConfig::parse`] is a comma-separated
/// `key=value` list (workers receive the parsed config inside their
/// `WorkerConfig` launch frame):
///
/// ```text
/// seed=42,drop=0.05,dup=0.02,delay=0.02,corrupt=0.01,trunc=0.01,all_attempts=0
/// ```
///
/// All keys are optional; rates must lie in `[0, 1]` and sum to at most 1.
/// `all_attempts=1` lets faults hit retransmissions too (used by the
/// exhausted-retry tests — with it, bitwise identity is *not* promised).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosConfig {
    /// Seed mixed into every per-link fault plan.
    pub seed: u64,
    /// Per-kind frame fault rates, each in `[0, 1]`.
    pub rates: FaultRates,
    /// When `true`, retransmissions can be faulted too (`all_attempts=1`);
    /// the default `false` faults only first attempts, keeping every fault
    /// recoverable.
    pub fault_retransmits: bool,
}

impl ChaosConfig {
    /// Parses the comma-separated `key=value` form (see the type docs).
    /// Unknown keys, out-of-range rates and malformed numbers are errors.
    pub fn parse(s: &str) -> Result<ChaosConfig, String> {
        let mut cfg = ChaosConfig::default();
        for part in s.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("chaos entry {part:?} is not key=value"))?;
            let bad = || format!("chaos entry {part:?} has an invalid value");
            let rate = || value.trim().parse::<f64>().map_err(|_| bad());
            match key.trim() {
                "seed" => cfg.seed = value.trim().parse().map_err(|_| bad())?,
                "drop" => cfg.rates.drop = rate()?,
                "dup" => cfg.rates.duplicate = rate()?,
                "delay" => cfg.rates.delay = rate()?,
                "corrupt" => cfg.rates.corrupt = rate()?,
                "trunc" => cfg.rates.truncate = rate()?,
                "all_attempts" => {
                    cfg.fault_retransmits = match value.trim() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                other => return Err(format!("unknown chaos key {other:?}")),
            }
        }
        cfg.validate()
    }

    /// The one check on fault rates, wherever they come from: each lies in
    /// `[0, 1]` (NaN does not) and together they sum to at most 1.
    fn validate(self) -> Result<ChaosConfig, String> {
        let r = self.rates;
        let rates = [r.drop, r.duplicate, r.delay, r.corrupt, r.truncate];
        if let Some(bad) = rates.iter().find(|v| !(0.0..=1.0).contains(*v)) {
            return Err(format!("chaos rate {bad} is outside [0, 1]"));
        }
        let total: f64 = rates.iter().sum();
        if total > 1.0 {
            return Err(format!("chaos fault rates sum to {total}, over 1"));
        }
        Ok(self)
    }

    /// The fault plan of the directed link `sender → receiver`: the mesh
    /// seed mixed with both rank ids, so every link misbehaves independently
    /// but reproducibly.
    pub fn plan_for(&self, sender: usize, receiver: usize) -> FaultPlan {
        let seed = self.seed
            ^ (sender as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (receiver as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        let mut plan = FaultPlan::from_rates(seed, self.rates);
        plan.first_attempt_only = !self.fault_retransmits;
        plan
    }
}

/// Tuning knobs for [`connect_mesh`].
#[derive(Debug, Clone)]
pub struct MeshOptions {
    /// Overall deadline for establishing every link of the mesh; connection
    /// attempts to not-yet-listening peers retry with exponential backoff
    /// (2 ms doubling to 100 ms) until it expires. Also bounds the relink
    /// phase of an elastic rejoin.
    pub connect_timeout: Duration,
    /// Per-receive deadline once connected; `None` blocks forever. The
    /// default (30 s) turns a silently wedged peer into
    /// [`CommError::Timeout`] instead of a hang.
    pub read_timeout: Option<Duration>,
    /// Retransmissions of one record before the link is declared dead
    /// ([`CommError::Timeout`]). `0` disables the ack/retransmit machinery's
    /// tolerance entirely: the first rejected frame kills the link.
    pub max_retries: u32,
    /// Base retransmission timeout; the backoff doubles it per attempt
    /// (capped at 1 s).
    pub retransmit_timeout: Duration,
    /// Deterministic fault injection; `None` runs every link clean.
    pub chaos: Option<ChaosConfig>,
    /// Enables rank elasticity: receives watch for *any* dead peer (not just
    /// the one being received from) so every rank discovers a failure within
    /// one poll tick and can park at the rejoin barrier.
    pub elastic: bool,
    /// Per-rank listener epochs (how often each rank has been respawned);
    /// empty means all zero. A respawned rank binds an epoch-qualified
    /// address so stale sockets of its predecessor cannot be confused with
    /// it, and Hello frames carry the epoch so both sides agree.
    pub epochs: Vec<u64>,
}

impl Default for MeshOptions {
    fn default() -> Self {
        MeshOptions {
            connect_timeout: Duration::from_secs(10),
            read_timeout: Some(Duration::from_secs(30)),
            max_retries: 10,
            retransmit_timeout: Duration::from_millis(50),
            chaos: None,
            elastic: false,
            epochs: Vec::new(),
        }
    }
}

/// One socket, either flavour.
#[derive(Debug)]
enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    fn try_clone(&self) -> std::io::Result<Stream> {
        Ok(match self {
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
        })
    }

    fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_read_timeout(dur),
            Stream::Tcp(s) => s.set_read_timeout(dur),
        }
    }

    /// Shuts down both directions, making any blocked read on a clone of
    /// this socket return immediately (used to stop reader threads).
    fn shutdown(&self) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.shutdown(Shutdown::Both),
            Stream::Tcp(s) => s.shutdown(Shutdown::Both),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// Maps a low-level frame/IO failure on a peer link to the typed comm error
/// (handshake traffic only — post-handshake links report through
/// [`LinkShared::down_error`]).
fn comm_err(peer: usize, during: &'static str, e: WireError) -> CommError {
    use std::io::ErrorKind;
    match e {
        WireError::Closed => CommError::Disconnected {
            peer: Some(peer),
            during,
        },
        WireError::Io(io) => match io.kind() {
            ErrorKind::UnexpectedEof
            | ErrorKind::BrokenPipe
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::NotConnected => CommError::Disconnected {
                peer: Some(peer),
                during,
            },
            ErrorKind::WouldBlock | ErrorKind::TimedOut => CommError::Timeout { peer, during },
            _ => CommError::Wire(WireError::Io(io)),
        },
        // A peer truncated mid-frame is a peer that died mid-write.
        WireError::Truncated { .. } => CommError::Disconnected {
            peer: Some(peer),
            during,
        },
        other => CommError::Wire(other),
    }
}

// ---------------------------------------------------------------------------
// Reliability sublayer: sequence numbers, acks, retransmission.
// ---------------------------------------------------------------------------

/// Liveness poll of the reliability layer: a blocked receive wakes at least
/// this often to notice dead links, and a reader thread's socket read times
/// out after this much silence. Retransmissions do not wait for it — the
/// blocked receiver sleeps until the earliest retransmit deadline (see
/// [`ProcessEndpoint::await_frame`]); the reader's timeout is only the
/// backstop for a rank that is computing rather than receiving.
const TICK: Duration = Duration::from_millis(20);

/// Why a link was declared dead.
#[derive(Debug)]
enum LinkDown {
    /// The socket closed or an IO error ended it (peer death).
    Eof,
    /// The oldest unacknowledged record exhausted its retransmissions.
    AckTimeout,
    /// An unrecoverable protocol violation (corrupt frame with retries
    /// disabled, oversized or unknown record). The wire error, when there is
    /// one, is surfaced exactly once.
    Corrupt(Option<WireError>),
}

/// One transmitted-but-unacknowledged record.
#[derive(Debug)]
struct SendRecord {
    seq: u64,
    attempt: u32,
    sent_at: Instant,
    frame: Vec<u8>,
}

/// Sender-side sequence state of one directed link.
#[derive(Debug, Default)]
struct SendState {
    next_seq: u64,
    unacked: VecDeque<SendRecord>,
}

/// State shared between a link's owner (sends, and the retransmit timer
/// while it is blocked receiving or draining) and its reader thread (acks,
/// the timer's backstop, teardown). Lock order: `sendq` before `writer`.
#[derive(Debug)]
struct LinkShared {
    peer: usize,
    writer: Mutex<ChaosLink<Stream>>,
    sendq: Mutex<SendState>,
    down: Mutex<Option<LinkDown>>,
    max_retries: u32,
    rto: Duration,
    stats: Arc<LinkStats>,
}

impl LinkShared {
    /// Records why the link died; the first cause wins.
    fn mark_down(&self, why: LinkDown) {
        let mut down = self.down.lock().expect("link down lock");
        if down.is_none() {
            *down = Some(why);
        }
    }

    /// The typed error of a dead link, `None` while it is healthy. A stored
    /// wire error is yielded once; later calls degrade to `Disconnected`.
    fn down_error(&self, peer: usize, during: &'static str) -> Option<CommError> {
        let mut down = self.down.lock().expect("link down lock");
        match down.as_mut() {
            None => None,
            Some(LinkDown::AckTimeout) => Some(CommError::Timeout { peer, during }),
            Some(LinkDown::Corrupt(slot)) => match slot.take() {
                Some(e) => Some(CommError::Wire(e)),
                None => Some(CommError::Disconnected {
                    peer: Some(peer),
                    during,
                }),
            },
            Some(LinkDown::Eof) => Some(CommError::Disconnected {
                peer: Some(peer),
                during,
            }),
        }
    }

    fn is_down(&self) -> bool {
        self.down.lock().expect("link down lock").is_some()
    }

    /// How long a record already sent `attempt + 1` times waits for its ack
    /// before the next retransmission: the base timeout doubled per attempt
    /// (up to 2⁵), capped at 1 s.
    fn backoff(&self, attempt: u32) -> Duration {
        self.rto
            .saturating_mul(1u32 << attempt.min(5))
            .min(Duration::from_secs(1))
    }

    /// When the oldest unacknowledged record is next due for retransmission;
    /// `None` when nothing is in flight or the link is dead.
    fn next_expiry(&self) -> Option<Instant> {
        if self.is_down() {
            return None;
        }
        let sendq = self.sendq.lock().expect("link send lock");
        let head = sendq.unacked.front()?;
        Some(head.sent_at + self.backoff(head.attempt))
    }

    /// Numbers `frame` as this link's next record, queues it for
    /// retransmission and writes its first attempt. `false` means the write
    /// failed and the link is now marked dead.
    fn transmit(&self, frame: &[u8]) -> bool {
        let copy = frame.to_vec();
        // Record first (lock order sendq → writer), then transmit.
        let mut sendq = self.sendq.lock().expect("link send lock");
        let seq = sendq.next_seq;
        sendq.next_seq += 1;
        sendq.unacked.push_back(SendRecord {
            seq,
            attempt: 0,
            sent_at: Instant::now(),
            frame: copy,
        });
        let ok = {
            let mut writer = self.writer.lock().expect("link writer lock");
            writer.write_data(seq, 0, frame).is_ok()
        };
        drop(sendq);
        if !ok {
            self.mark_down(LinkDown::Eof);
        }
        ok
    }

    /// Applies a cumulative ack: "every record below `seq` was delivered."
    fn acknowledge(&self, seq: u64) {
        let mut sendq = self.sendq.lock().expect("link send lock");
        let mut popped = false;
        while sendq.unacked.front().is_some_and(|r| r.seq < seq) {
            sendq.unacked.pop_front();
            popped = true;
        }
        // Progress resets the survivor's timer (its flight time was spent
        // behind the acked records); a pure duplicate ack must not keep
        // resetting it or retransmission would starve.
        if popped {
            if let Some(head) = sendq.unacked.front_mut() {
                head.sent_at = Instant::now();
            }
        }
    }

    /// Retransmits the oldest unacknowledged record if its backoff expired.
    /// Callable from any thread — the `sendq` lock and the `sent_at` reset
    /// keep two callers from re-sending the same expiry twice. Returns
    /// `false` when the link is (now) dead and a reader should exit.
    fn service_retransmits(&self) -> bool {
        if self.is_down() {
            return false;
        }
        let mut sendq = self.sendq.lock().expect("link send lock");
        let Some(head) = sendq.unacked.front_mut() else {
            return true;
        };
        if head.sent_at.elapsed() < self.backoff(head.attempt) {
            return true;
        }
        if head.attempt >= self.max_retries {
            // Give up: fail the link rather than hang the solve.
            sendq.unacked.clear();
            drop(sendq);
            self.mark_down(LinkDown::AckTimeout);
            return false;
        }
        head.attempt += 1;
        head.sent_at = Instant::now();
        feir_trace::instant(feir_trace::Phase::Retransmit);
        // sendq stays held across the write (lock order sendq → writer) so a
        // concurrent send cannot interleave a fresh record mid-retransmit —
        // which is also what lets the frame be written from the queue in
        // place.
        let ok = {
            let mut writer = self.writer.lock().expect("link writer lock");
            writer
                .write_data(head.seq, head.attempt, &head.frame)
                .is_ok()
        };
        drop(sendq);
        if !ok {
            self.mark_down(LinkDown::Eof);
            return false;
        }
        true
    }
}

/// Reads exactly `buf.len()` bytes, servicing retransmissions on every read
/// timeout. `false` means the link died (already marked down).
fn read_full(stream: &mut Stream, buf: &mut [u8], shared: &LinkShared) -> bool {
    use std::io::ErrorKind;
    let mut at = 0;
    while at < buf.len() {
        match stream.read(&mut buf[at..]) {
            Ok(0) => {
                shared.mark_down(LinkDown::Eof);
                return false;
            }
            Ok(n) => at += n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if !shared.service_retransmits() {
                    return false;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => {
                shared.mark_down(LinkDown::Eof);
                return false;
            }
        }
    }
    true
}

/// The per-link reader thread: reassembles data records in sequence order,
/// forwards exactly-once-in-order messages to the owner, acknowledges
/// cumulatively, and services the sender-side retransmission timer while
/// the socket is idle. On exit the peer is registered in the endpoint's
/// `downed` set so elastic receives notice the failure.
fn reader_loop(
    mut stream: Stream,
    shared: Arc<LinkShared>,
    tx: mpsc::Sender<Message>,
    downed: Arc<Mutex<BTreeSet<usize>>>,
) {
    let mut expected: u64 = 0;
    let mut reordered: BTreeMap<u64, Message> = BTreeMap::new();
    let mut env = [0u8; ENVELOPE_LEN];
    'link: loop {
        if !read_full(&mut stream, &mut env, &shared) {
            break 'link;
        }
        let (kind, seq, inner_len) = parse_envelope(&env);
        match kind {
            ENV_ACK => shared.acknowledge(seq),
            ENV_DATA => {
                if inner_len as usize > feir_wire::HEADER_LEN + feir_wire::MAX_PAYLOAD as usize {
                    shared.mark_down(LinkDown::Corrupt(None));
                    break 'link;
                }
                let mut inner = vec![0u8; inner_len as usize];
                if !read_full(&mut stream, &mut inner, &shared) {
                    break 'link;
                }
                match feir_wire::decode_frame_buf(&inner) {
                    Ok(msg) => {
                        if seq < expected {
                            shared.stats.dup_received.fetch_add(1, Ordering::Relaxed);
                        } else if seq > expected {
                            // Reordered ahead: park until the gap fills.
                            reordered.insert(seq, msg);
                        } else {
                            if tx.send(msg).is_err() {
                                break 'link; // owner hung up
                            }
                            expected += 1;
                            while let Some(next) = reordered.remove(&expected) {
                                if tx.send(next).is_err() {
                                    break 'link;
                                }
                                expected += 1;
                            }
                        }
                        // Always (re-)acknowledge: a lost ack is recovered by
                        // the duplicate the sender's retransmission causes.
                        if shared
                            .writer
                            .lock()
                            .expect("link writer lock")
                            .write_ack(expected)
                            .is_err()
                        {
                            shared.mark_down(LinkDown::Eof);
                            break 'link;
                        }
                    }
                    Err(e) => {
                        shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
                        if shared.max_retries == 0 {
                            shared.mark_down(LinkDown::Corrupt(Some(e)));
                            break 'link;
                        }
                        // No ack: the sender's timeout re-delivers the frame
                        // (retransmissions travel clean under the default
                        // first-attempt-only fault plans).
                    }
                }
            }
            _ => {
                shared.mark_down(LinkDown::Corrupt(None));
                break 'link;
            }
        }
    }
    shared.mark_down(LinkDown::Eof); // no-op if a cause is already recorded
    downed.lock().expect("downed set lock").insert(shared.peer);
    // `tx` drops here, closing the owner's receive queue.
}

/// What a blocked receive does with one in-order message of the link it
/// waits on (the decision [`ProcessEndpoint::await_frame`] takes as a
/// closure).
enum Sift<T> {
    /// The awaited frame: the wait returns.
    Take(T),
    /// Another stream's frame a later receive will ask for: kept in the
    /// link's inbox.
    Stash(Message),
    /// Traffic nobody will ask for.
    Discard,
}

/// One established reliable link to a peer rank.
#[derive(Debug)]
struct RLink {
    shared: Arc<LinkShared>,
    /// In-order messages from the reader thread.
    rx: mpsc::Receiver<Message>,
    /// Tag-demultiplexer stash (e.g. a split-phase gather posted ahead of
    /// the same stream's halo payload).
    inbox: VecDeque<Message>,
    thread: Option<std::thread::JoinHandle<()>>,
    /// Socket handle kept for teardown: shutting it down unblocks the
    /// reader thread immediately.
    ctl: Stream,
}

impl RLink {
    fn shutdown(&mut self) {
        // Graceful drain: the last frames of a solve may still be waiting on
        // a retransmission (chaos can drop the first attempt), and closing
        // the socket now would lose them forever. This thread drives the
        // retransmit timer itself until the reader thread has collected the
        // acks, bounded by the time the retries would take to exhaust so a
        // peer that is alive but never acks cannot stall teardown for long.
        const BUDGET_CAP: Duration = Duration::from_secs(3);
        const ACK_POLL: Duration = Duration::from_millis(1);
        let shared = &self.shared;
        let mut budget = Duration::ZERO;
        for attempt in 0..=shared.max_retries {
            budget += shared.backoff(attempt);
            if budget >= BUDGET_CAP {
                break;
            }
        }
        let deadline = Instant::now() + budget.min(BUDGET_CAP);
        while shared.service_retransmits() {
            let Some(expiry) = shared.next_expiry() else {
                break; // drained
            };
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            // The ack that ends the drain lands on the reader thread, which
            // cannot wake this one: poll for it, waking early for the timer.
            std::thread::sleep(expiry.min(now + ACK_POLL).saturating_duration_since(now));
        }
        let _ = self.ctl.shutdown();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for RLink {
    fn drop(&mut self) {
        // Dropping an endpoint therefore closes every socket, which is what
        // cascades a failure through the mesh and unblocks the peers.
        self.shutdown();
    }
}

/// Wraps a handshaken stream in the reliability sublayer: chaos writer,
/// sequence state and reader thread. `stats` is owned by the endpoint and
/// shared into the link, so the counters survive a relink (elastic rejoin)
/// and keep accumulating across link incarnations.
fn build_rlink(
    stream: Stream,
    rank: usize,
    peer: usize,
    options: &MeshOptions,
    downed: Arc<Mutex<BTreeSet<usize>>>,
    stats: Arc<LinkStats>,
) -> Result<RLink, CommError> {
    let proto = |what: &str, e: std::io::Error| {
        CommError::Protocol(format!("rank {rank}: link to {peer}: {what}: {e}"))
    };
    stream
        .set_read_timeout(Some(TICK))
        .map_err(|e| proto("set_read_timeout", e))?;
    let reader = stream.try_clone().map_err(|e| proto("stream clone", e))?;
    let ctl = stream.try_clone().map_err(|e| proto("stream clone", e))?;
    let plan = options
        .chaos
        .as_ref()
        .map(|c| c.plan_for(rank, peer))
        .unwrap_or_else(FaultPlan::clean);
    let shared = Arc::new(LinkShared {
        peer,
        writer: Mutex::new(ChaosLink::new(stream, plan, stats.clone())),
        sendq: Mutex::new(SendState::default()),
        down: Mutex::new(None),
        max_retries: options.max_retries,
        rto: options.retransmit_timeout.max(Duration::from_millis(1)),
        stats,
    });
    let (tx, rx) = mpsc::channel();
    let thread = std::thread::Builder::new()
        .name(format!("feir-link-r{rank}p{peer}"))
        .spawn({
            let shared = shared.clone();
            move || reader_loop(reader, shared, tx, downed)
        })
        .map_err(|e| proto("reader thread spawn", e))?;
    Ok(RLink {
        shared,
        rx,
        inbox: VecDeque::new(),
        thread: Some(thread),
        ctl,
    })
}

/// Sums per-peer [`LinkStats`] into one rank's [`crate::cg::NetStats`].
fn sum_link_stats(stats: &[Arc<LinkStats>]) -> crate::cg::NetStats {
    use std::sync::atomic::Ordering::Relaxed;
    let mut net = crate::cg::NetStats::default();
    for s in stats {
        net.accumulate(crate::cg::NetStats {
            data_frames: s.data_frames.load(Relaxed),
            retransmits: s.retransmits.load(Relaxed),
            injected_faults: s.faults(),
            rejected: s.rejected.load(Relaxed),
            dup_received: s.dup_received.load(Relaxed),
        });
    }
    net
}

/// One rank's view of the established mesh: a reliable link per peer, the
/// retained listener (for elastic re-accepts) and the shared `downed` set
/// reader threads report dead peers into.
#[derive(Debug)]
pub struct ProcessEndpoint {
    rank: usize,
    ranks: usize,
    links: Vec<RefCell<Option<RLink>>>,
    /// Per-peer reliability counters, owned here (not by the links) so they
    /// persist across elastic relinks; index = peer rank, the self slot
    /// stays at zero.
    stats: Vec<Arc<LinkStats>>,
    scratch: RefCell<Vec<u8>>,
    listener: MeshListener,
    transport: Transport,
    options: MeshOptions,
    epochs: RefCell<Vec<u64>>,
    downed: Arc<Mutex<BTreeSet<usize>>>,
}

impl ProcessEndpoint {
    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total ranks in the mesh.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// The fault/retransmission counters of the link to `peer` (shared with
    /// the link itself, so it keeps counting after this call). The counters
    /// are owned by the endpoint and survive elastic relinks.
    pub fn link_stats(&self, peer: usize) -> Arc<LinkStats> {
        self.stats[peer].clone()
    }

    fn with_link<T>(&self, peer: usize, f: impl FnOnce(&mut RLink) -> T) -> T {
        let mut slot = self.links[peer].borrow_mut();
        let link = slot.as_mut().expect("no link to self or out-of-range peer");
        f(link)
    }

    fn send(&self, peer: usize, msg: &Message, during: &'static str) -> Result<(), CommError> {
        self.with_link(peer, |link| {
            if let Some(err) = link.shared.down_error(peer, during) {
                return Err(err);
            }
            let mut scratch = self.scratch.borrow_mut();
            scratch.clear();
            msg.encode_into(&mut scratch);
            if !link.shared.transmit(&scratch) {
                self.downed.lock().expect("downed set lock").insert(peer);
                return Err(CommError::Disconnected {
                    peer: Some(peer),
                    during,
                });
            }
            Ok(())
        })
    }

    fn recv(&self, peer: usize, want: Tag, during: &'static str) -> Result<Message, CommError> {
        self.with_link(peer, |link| {
            if let Some(at) = link.inbox.iter().position(|m| m.tag() == want) {
                return Ok(link.inbox.remove(at).expect("inbox position just found"));
            }
            let deadline = self.options.read_timeout.map(|d| Instant::now() + d);
            // With elasticity on, any dead peer aborts the collective so
            // every rank reaches the rejoin barrier, not just the dead
            // rank's direct correspondents.
            self.await_frame(peer, link, during, deadline, self.options.elastic, |msg| {
                Ok(if msg.tag() == want {
                    Sift::Take(msg)
                } else {
                    Sift::Stash(msg)
                })
            })
        })
    }

    /// The one blocking wait of the transport: pulls `peer`'s in-order
    /// messages through `sift` until it takes one, and meanwhile drives the
    /// retransmit timer of **every** link of this endpoint — the thread a
    /// lost frame stalls is this one, so it sleeps until
    /// `min(earliest retransmit deadline, read deadline, liveness poll)`
    /// rather than a fixed tick, and a rank blocked on peer A still re-sends
    /// a frame lost toward peer B. `link` is `peer`'s link, already borrowed
    /// by the caller; the others are reached through their own cells.
    fn await_frame<T>(
        &self,
        peer: usize,
        link: &mut RLink,
        during: &'static str,
        deadline: Option<Instant>,
        any_dead_peer_aborts: bool,
        mut sift: impl FnMut(Message) -> Result<Sift<T>, CommError>,
    ) -> Result<T, CommError> {
        let each_link = |f: &mut dyn FnMut(&LinkShared)| {
            f(&link.shared);
            for (p, slot) in self.links.iter().enumerate() {
                if p != peer {
                    if let Some(other) = slot.borrow().as_ref() {
                        f(&other.shared);
                    }
                }
            }
        };
        loop {
            let received = if link.shared.is_down() {
                // A dead link still owes the caller what its reader queued
                // before it died; the death is reported once that is drained.
                link.rx
                    .try_recv()
                    .map_err(|_| mpsc::RecvTimeoutError::Disconnected)
            } else {
                let now = Instant::now();
                let mut wake = now + TICK;
                if let Some(deadline) = deadline {
                    wake = wake.min(deadline);
                }
                each_link(&mut |shared| {
                    if let Some(expiry) = shared.next_expiry() {
                        // An ack landing during the sleep pops the head and
                        // re-arms its successor for `ack time + rto`, which
                        // can fall before the popped head's backed-off
                        // deadline; never sleeping past `now + rto` cannot
                        // miss it.
                        wake = wake.min(expiry).min(now + shared.rto);
                    }
                });
                link.rx.recv_timeout(wake.saturating_duration_since(now))
            };
            match received {
                Ok(msg) => match sift(msg)? {
                    Sift::Take(taken) => return Ok(taken),
                    Sift::Stash(msg) => link.inbox.push_back(msg),
                    Sift::Discard => {}
                },
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    // A no-op on links whose head record is not due yet.
                    each_link(&mut |shared| {
                        shared.service_retransmits();
                    });
                    if any_dead_peer_aborts {
                        // `peer`'s own death is left to the drain above.
                        let downed = self.downed.lock().expect("downed set lock");
                        if let Some(&dead) = downed.iter().find(|&&dead| dead != peer) {
                            return Err(CommError::Disconnected {
                                peer: Some(dead),
                                during,
                            });
                        }
                    }
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        return Err(CommError::Timeout { peer, during });
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err(link.shared.down_error(peer, during).unwrap_or(
                        CommError::Disconnected {
                            peer: Some(peer),
                            during,
                        },
                    ));
                }
            }
        }
    }

    /// Tears down the dead link to `failed` and re-handshakes its
    /// replacement under the next epoch. Lower ranks accept the newcomer's
    /// dial; higher ranks dial its epoch-qualified address. Part of the
    /// elastic rejoin choreography — see `crate::elastic`.
    pub fn relink(&self, failed: usize) -> Result<(), CommError> {
        if failed == self.rank || failed >= self.ranks {
            return Err(CommError::Protocol(format!(
                "rank {}: cannot relink rank {failed}",
                self.rank
            )));
        }
        let target_epoch = {
            let mut epochs = self.epochs.borrow_mut();
            epochs[failed] += 1;
            epochs[failed]
        };
        // Joining the old reader thread (via RLink::drop) before clearing
        // the downed entry below means it cannot re-register the peer as
        // dead after we have relinked it.
        drop(self.links[failed].borrow_mut().take());
        let deadline = Instant::now() + self.options.connect_timeout;
        let stream = if self.rank < failed {
            accept_stream(&self.listener, deadline, self.rank)?
        } else {
            dial_stream(&self.transport, failed, self.ranks, target_epoch, deadline)?
        };
        let my_epoch = self.epochs.borrow()[self.rank];
        let mut scratch = self.scratch.borrow_mut();
        let (stream, _) = handshake(
            stream,
            self.rank,
            self.ranks,
            my_epoch,
            Some((failed, target_epoch)),
            &self.epochs.borrow(),
            &self.options,
            &mut scratch,
        )?;
        drop(scratch);
        let link = build_rlink(
            stream,
            self.rank,
            failed,
            &self.options,
            self.downed.clone(),
            self.stats[failed].clone(),
        )?;
        *self.links[failed].borrow_mut() = Some(link);
        self.downed.lock().expect("downed set lock").remove(&failed);
        Ok(())
    }

    /// Meets every peer at the rejoin barrier: exchanges
    /// `RejoinBarrier { epoch, iteration }` with all of them and returns the
    /// maximum iteration seen (the agreed resume point). The epoch is the
    /// sum of all per-rank epochs — a mesh generation number every rank can
    /// compute identically — so a stale barrier from a previous rejoin
    /// cannot satisfy this one.
    pub fn rejoin_barrier(&self, my_iteration: u64) -> Result<u64, CommError> {
        let mesh_epoch: u64 = self.epochs.borrow().iter().sum();
        let mesh_epoch = mesh_epoch as u32;
        let msg = Message::RejoinBarrier {
            epoch: mesh_epoch,
            iteration: my_iteration,
        };
        for peer in 0..self.ranks {
            if peer != self.rank {
                self.send(peer, &msg, "rejoin barrier")?;
            }
        }
        let mut resume = my_iteration;
        for peer in 0..self.ranks {
            if peer != self.rank {
                resume = resume.max(self.recv_barrier(peer, mesh_epoch)?);
            }
        }
        Ok(resume)
    }

    /// Waits for `peer`'s barrier frame of generation `epoch`, discarding
    /// whatever in-flight collective traffic the aborted solve left behind.
    fn recv_barrier(&self, peer: usize, epoch: u32) -> Result<u64, CommError> {
        const DURING: &str = "rejoin barrier";
        self.with_link(peer, |link| {
            let sift = |msg: Message| match msg {
                Message::RejoinBarrier {
                    epoch: e,
                    iteration,
                } if e == epoch => Ok(Sift::Take(iteration)),
                Message::RejoinBarrier { epoch: e, .. } if e > epoch => {
                    Err(CommError::Protocol(format!(
                        "rejoin barrier from rank {peer}: epoch {e} is ahead of ours ({epoch})"
                    )))
                }
                // A stale barrier of an earlier rejoin, or leftover
                // collective traffic of the aborted solve.
                _ => Ok(Sift::Discard),
            };
            // The aborted collective may already have stashed the barrier
            // frame in the inbox; sweep it before draining the queue.
            for msg in link.inbox.drain(..) {
                if let Sift::Take(iteration) = sift(msg)? {
                    return Ok(iteration);
                }
            }
            let budget = self.options.connect_timeout
                + self.options.read_timeout.unwrap_or(Duration::from_secs(30));
            let deadline = Some(Instant::now() + budget);
            self.await_frame(peer, link, DURING, deadline, false, sift)
        })
    }
}

/// The process backend's [`Link`]: each message is one encoded frame on the
/// reliable socket link to the peer.
impl Link for ProcessEndpoint {
    fn send(&self, peer: usize, msg: Message, during: &'static str) -> Result<(), CommError> {
        ProcessEndpoint::send(self, peer, &msg, during)
    }

    fn recv(&self, peer: usize, want: Tag, during: &'static str) -> Result<Message, CommError> {
        ProcessEndpoint::recv(self, peer, want, during)
    }

    fn rejoin(&self, failed: Option<usize>, iteration: u64) -> Result<u64, CommError> {
        if let Some(k) = failed {
            self.relink(k)?;
        }
        self.rejoin_barrier(iteration)
    }
}

// ---------------------------------------------------------------------------
// Mesh establishment: addressing, rendezvous, handshake.
// ---------------------------------------------------------------------------

/// This rank's retained listener (elastic rejoins re-accept on it).
#[derive(Debug)]
enum MeshListener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

/// The UDS socket path of `rank` at `epoch` (epoch 0 keeps the plain name).
fn uds_path(dir: &Path, rank: usize, epoch: u64) -> PathBuf {
    if epoch == 0 {
        dir.join(format!("rank{rank}.sock"))
    } else {
        dir.join(format!("rank{rank}.e{epoch}.sock"))
    }
}

/// The TCP address of `rank` at `epoch`.
fn rank_addr(base_port: u16, ranks: usize, rank: usize, epoch: u64) -> SocketAddr {
    let port = base_port
        .wrapping_add((epoch as u16).wrapping_mul(ranks as u16))
        .wrapping_add(rank as u16);
    SocketAddr::from((Ipv4Addr::LOCALHOST, port))
}

fn setup_err(rank: usize, what: &str, e: std::io::Error) -> CommError {
    CommError::Protocol(format!("rank {rank}: {what}: {e}"))
}

/// Binds this rank's listener at its epoch-aware address.
fn bind_listener(
    transport: &Transport,
    rank: usize,
    ranks: usize,
    epoch: u64,
) -> Result<MeshListener, CommError> {
    match transport {
        Transport::Uds { dir } => {
            std::fs::create_dir_all(dir)
                .map_err(|e| setup_err(rank, "rendezvous dir create", e))?;
            let path = uds_path(dir, rank, epoch);
            let _ = std::fs::remove_file(&path);
            let listener = UnixListener::bind(&path).map_err(|e| setup_err(rank, "uds bind", e))?;
            Ok(MeshListener::Unix(listener))
        }
        Transport::Tcp { base_port } => {
            let addr = rank_addr(*base_port, ranks, rank, epoch);
            let listener = TcpListener::bind(addr).map_err(|e| setup_err(rank, "tcp bind", e))?;
            Ok(MeshListener::Tcp(listener))
        }
    }
}

/// Accepts one inbound connection before `deadline` (the listener is
/// switched to non-blocking and polled so a never-arriving dial cannot hang
/// the rank).
fn accept_stream(
    listener: &MeshListener,
    deadline: Instant,
    rank: usize,
) -> Result<Stream, CommError> {
    use std::io::ErrorKind;
    let set_nonblocking = |on: bool| match listener {
        MeshListener::Unix(l) => l.set_nonblocking(on),
        MeshListener::Tcp(l) => l.set_nonblocking(on),
    };
    set_nonblocking(true).map_err(|e| setup_err(rank, "listener nonblocking", e))?;
    loop {
        let accepted = match listener {
            MeshListener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
            MeshListener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
        };
        match accepted {
            Ok(stream) => {
                let blocking = match &stream {
                    Stream::Unix(s) => s.set_nonblocking(false),
                    Stream::Tcp(s) => s.set_nonblocking(false),
                };
                blocking.map_err(|e| setup_err(rank, "stream blocking", e))?;
                return Ok(stream);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(CommError::Timeout {
                        peer: rank,
                        during: "mesh accept",
                    });
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(setup_err(rank, "mesh accept", e)),
        }
    }
}

/// Dials `peer`'s listener at `epoch`, retrying with backoff until
/// `deadline` (the peer may not have bound yet).
fn dial_stream(
    transport: &Transport,
    peer: usize,
    ranks: usize,
    epoch: u64,
    deadline: Instant,
) -> Result<Stream, CommError> {
    let mut backoff = Duration::from_millis(2);
    loop {
        let attempt = match transport {
            Transport::Uds { dir } => {
                UnixStream::connect(uds_path(dir, peer, epoch)).map(Stream::Unix)
            }
            Transport::Tcp { base_port } => {
                TcpStream::connect(rank_addr(*base_port, ranks, peer, epoch)).map(Stream::Tcp)
            }
        };
        match attempt {
            Ok(stream) => return Ok(stream),
            Err(_) if Instant::now() < deadline => {
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_millis(100));
            }
            Err(_) => {
                return Err(CommError::Timeout {
                    peer,
                    during: "mesh connect",
                })
            }
        }
    }
}

/// Exchanges `Hello` frames on a fresh stream and validates the peer's
/// identity, mesh size and epoch. `expect` pins the peer (dial side);
/// `None` accepts any higher rank (accept side) at its recorded epoch.
#[allow(clippy::too_many_arguments)]
fn handshake(
    mut stream: Stream,
    rank: usize,
    ranks: usize,
    my_epoch: u64,
    expect: Option<(usize, u64)>,
    epochs: &[u64],
    options: &MeshOptions,
    scratch: &mut Vec<u8>,
) -> Result<(Stream, usize), CommError> {
    let fallible =
        |e: WireError| comm_err(expect.map(|(p, _)| p).unwrap_or(usize::MAX), "handshake", e);
    stream
        .set_read_timeout(options.read_timeout)
        .map_err(|e| setup_err(rank, "handshake read timeout", e))?;
    feir_wire::write_message(
        &mut stream,
        &Message::Hello {
            rank: rank as u32,
            ranks: ranks as u32,
            epoch: my_epoch as u32,
            t0_micros: feir_trace::origin_unix_micros(),
        },
        scratch,
    )
    .map_err(fallible)?;
    // FrameReader performs exact-length reads, so it cannot swallow bytes of
    // the envelope traffic that follows the handshake.
    let hello = FrameReader::new()
        .read_message(&mut stream)
        .map_err(fallible)?;
    let Message::Hello {
        rank: peer_rank,
        ranks: peer_ranks,
        epoch: peer_epoch,
        t0_micros: _,
    } = hello
    else {
        return Err(CommError::Protocol(format!(
            "rank {rank}: handshake expected Hello, got {:?}",
            hello.tag()
        )));
    };
    let peer_rank = peer_rank as usize;
    if peer_ranks as usize != ranks {
        return Err(CommError::Protocol(format!(
            "rank {rank}: peer {peer_rank} believes in {peer_ranks} ranks, we have {ranks}"
        )));
    }
    if peer_rank >= ranks || peer_rank == rank {
        return Err(CommError::Protocol(format!(
            "rank {rank}: handshake from invalid rank {peer_rank}"
        )));
    }
    if let Some((expected_peer, _)) = expect {
        if peer_rank != expected_peer {
            return Err(CommError::Protocol(format!(
                "rank {rank}: dialled rank {expected_peer} but rank {peer_rank} answered"
            )));
        }
    }
    let expected_epoch = expect
        .map(|(_, e)| e)
        .unwrap_or_else(|| epochs.get(peer_rank).copied().unwrap_or(0));
    if peer_epoch as u64 != expected_epoch {
        return Err(CommError::Protocol(format!(
            "rank {rank}: peer {peer_rank} is at epoch {peer_epoch}, expected {expected_epoch} \
             (stale pre-respawn worker?)"
        )));
    }
    Ok((stream, peer_rank))
}

/// Establishes this rank's full mesh: bind, connect to lower ranks with
/// backoff, accept from higher ranks, handshake and wrap every link in the
/// reliability sublayer.
pub fn connect_mesh(
    rank: usize,
    ranks: usize,
    transport: &Transport,
    options: &MeshOptions,
) -> Result<ProcessEndpoint, CommError> {
    assert!(rank < ranks, "rank {rank} out of range for {ranks} ranks");
    let epochs = if options.epochs.is_empty() {
        vec![0u64; ranks]
    } else if options.epochs.len() == ranks {
        options.epochs.clone()
    } else {
        return Err(CommError::Protocol(format!(
            "rank {rank}: {} epochs configured for {ranks} ranks",
            options.epochs.len()
        )));
    };
    let listener = bind_listener(transport, rank, ranks, epochs[rank])?;
    let downed: Arc<Mutex<BTreeSet<usize>>> = Arc::new(Mutex::new(BTreeSet::new()));
    let mut links: Vec<RefCell<Option<RLink>>> = (0..ranks).map(|_| RefCell::new(None)).collect();
    let stats: Vec<Arc<LinkStats>> = (0..ranks).map(|_| Arc::default()).collect();
    let deadline = Instant::now() + options.connect_timeout;
    let mut scratch = Vec::new();
    // Dial every lower rank (they bound their listeners first or will
    // shortly; the backoff absorbs start-order races), then accept every
    // higher rank, in whatever order they dial.
    for i in 0..ranks - 1 {
        let (stream, expect) = if i < rank {
            let stream = dial_stream(transport, i, ranks, epochs[i], deadline)?;
            (stream, Some((i, epochs[i])))
        } else {
            (accept_stream(&listener, deadline, rank)?, None)
        };
        let (stream, peer) = handshake(
            stream,
            rank,
            ranks,
            epochs[rank],
            expect,
            &epochs,
            options,
            &mut scratch,
        )?;
        if expect.is_none() && peer <= rank {
            return Err(CommError::Protocol(format!(
                "rank {rank}: unexpected dial from lower rank {peer}"
            )));
        }
        if links[peer].borrow().is_some() {
            return Err(CommError::Protocol(format!(
                "rank {rank}: duplicate connection from rank {peer}"
            )));
        }
        links[peer] = RefCell::new(Some(build_rlink(
            stream,
            rank,
            peer,
            options,
            downed.clone(),
            stats[peer].clone(),
        )?));
    }
    Ok(ProcessEndpoint {
        rank,
        ranks,
        links,
        stats,
        scratch: RefCell::new(scratch),
        listener,
        transport: transport.clone(),
        options: options.clone(),
        epochs: RefCell::new(epochs),
        downed,
    })
}

// ---------------------------------------------------------------------------
// Worker processes: spec, launcher, worker entry point.
// ---------------------------------------------------------------------------

/// Which rank loop a worker process runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerSolver {
    /// Classic distributed CG.
    Cg = 0,
    /// Block-Jacobi distributed PCG.
    Pcg = 1,
    /// Merged-reduction (Chronopoulos–Gear) CG.
    CgMerged = 2,
    /// Merged-reduction block-Jacobi PCG.
    PcgMerged = 3,
}

/// A deterministic multi-process solve: every worker rebuilds the same
/// problem from `(grid, rhs_seed)`, so no matrix data crosses the wire.
#[derive(Debug, Clone)]
pub struct ProcessSpec {
    /// Rank loop to run.
    pub solver: WorkerSolver,
    /// Poisson grid side; the system has `grid²` unknowns.
    pub grid: usize,
    /// Seed of the manufactured right-hand side.
    pub rhs_seed: u64,
    /// Number of worker processes.
    pub ranks: usize,
    /// Page-doubles granularity for the PCG preconditioner.
    pub page_doubles: usize,
    /// Convergence tolerance on the relative residual.
    pub tolerance: f64,
    /// Iteration cap.
    pub max_iterations: usize,
}

impl ProcessSpec {
    /// A small CG spec, convenient for tests and smoke runs.
    pub fn cg(grid: usize, ranks: usize) -> ProcessSpec {
        ProcessSpec {
            solver: WorkerSolver::Cg,
            grid,
            rhs_seed: 5,
            ranks,
            page_doubles: 1,
            tolerance: 1e-10,
            max_iterations: 10_000,
        }
    }
}

/// Optional behaviour of a worker fleet beyond the plain [`ProcessSpec`]:
/// the resilient/elastic path, transport fault injection and the
/// retransmission timer. Everything defaults to "off"/inherit-the-mesh-
/// default, so `WorkerOptions::default()` reproduces the plain fleet.
#[derive(Debug, Clone, Default)]
pub struct WorkerOptions {
    /// Run the resilient rank loop under this recovery policy (classic
    /// `cg`/`pcg` solvers only). `None` runs the plain loop.
    pub policy: Option<RecoveryPolicy>,
    /// Enable rank elasticity: workers park at the rejoin barrier on a
    /// peer's death instead of failing, awaiting [`WorkerHandles::respawn_rank`].
    pub elastic: bool,
    /// Deterministic transport fault injection for every worker's links.
    pub chaos: Option<ChaosConfig>,
    /// Overrides [`MeshOptions::retransmit_timeout`].
    pub retransmit_timeout: Option<Duration>,
    /// Per-iteration throttle sleep inside each worker's rank loop — lets
    /// kill/respawn tests land a failure mid-solve deterministically
    /// without a huge problem.
    pub spin: Option<Duration>,
}

/// A failure of the multi-process launcher or one of its workers.
#[derive(Debug)]
pub enum ProcessError {
    /// Could not create the rendezvous or spawn a worker.
    Spawn(std::io::Error),
    /// A worker reported a typed communication failure.
    Comm {
        /// The rank that reported it.
        rank: usize,
        /// The reconstructed communication error.
        error: CommError,
    },
    /// A worker failed outside the comm layer, or died without reporting.
    Worker {
        /// The rank concerned.
        rank: usize,
        /// What happened.
        message: String,
    },
    /// A worker's report frame could not be understood.
    Protocol {
        /// The rank concerned.
        rank: usize,
        /// What was wrong with the report.
        message: String,
    },
}

impl fmt::Display for ProcessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProcessError::Spawn(e) => write!(f, "failed to launch workers: {e}"),
            ProcessError::Comm { rank, error } => write!(f, "rank {rank}: {error}"),
            ProcessError::Worker { rank, message } => write!(f, "rank {rank} failed: {message}"),
            ProcessError::Protocol { rank, message } => {
                write!(f, "rank {rank} sent a bad report: {message}")
            }
        }
    }
}

impl std::error::Error for ProcessError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProcessError::Spawn(e) => Some(e),
            ProcessError::Comm { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// Removes the rendezvous directory when the run is over.
#[derive(Debug)]
struct RunDirGuard(PathBuf);

impl Drop for RunDirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The spawned worker fleet of one multi-process solve.
#[derive(Debug)]
pub struct WorkerHandles {
    children: Vec<Child>,
    worker: PathBuf,
    /// The fleet's launch, `rank` being the last one spawned.
    launch: Launch,
    _dir: Option<RunDirGuard>,
}

impl WorkerHandles {
    /// Kills the worker process of `rank` (SIGKILL), simulating a node
    /// failure mid-solve. Surviving ranks observe the closed sockets as
    /// [`CommError::Disconnected`].
    pub fn kill_rank(&mut self, rank: usize) -> std::io::Result<()> {
        self.children[rank].kill()
    }

    /// OS process ids of the current worker incarnations, in rank order.
    pub fn pids(&self) -> Vec<u32> {
        self.children.iter().map(Child::id).collect()
    }

    /// Restarts the (killed) worker of `rank` under the next epoch. With
    /// [`WorkerOptions::elastic`] set, the survivors re-handshake the
    /// newcomer at the rejoin barrier and the solve continues; rank 0 hosts
    /// the collectives and cannot be respawned.
    pub fn respawn_rank(&mut self, rank: usize) -> std::io::Result<()> {
        // Make sure the old incarnation is gone before its successor binds.
        let _ = self.children[rank].kill();
        let _ = self.children[rank].wait();
        self.launch.rank = rank;
        self.launch.epochs[rank] += 1;
        self.children[rank] = spawn_one(&self.worker, &self.launch)?;
        Ok(())
    }

    /// Collects every worker's report and assembles the solve result,
    /// exactly as the thread-backed `run_ranks` assembles rank outcomes.
    pub fn join(mut self) -> Result<DistSolveResult, ProcessError> {
        let spec = self.launch.spec.clone();
        let n = spec.grid * spec.grid;
        let ranks = spec.ranks;
        let partition = RankPartition::new(n, ranks);

        let mut reports: Vec<Result<Message, ProcessError>> = Vec::with_capacity(ranks);
        let mut dumps: Vec<Message> = Vec::with_capacity(ranks);
        for (rank, child) in self.children.iter_mut().enumerate() {
            let stdout = child.stdout.as_mut().expect("worker stdout is piped");
            let mut frames = FrameReader::new();
            let report = match frames.read_message(stdout) {
                Ok(msg) => Ok(msg),
                Err(WireError::Closed) | Err(WireError::Truncated { .. }) => {
                    Err(ProcessError::Worker {
                        rank,
                        message: "exited without a report (killed or crashed)".into(),
                    })
                }
                Err(e) => Err(ProcessError::Protocol {
                    rank,
                    message: e.to_string(),
                }),
            };
            // Every worker follows its report with a TraceDump frame; a
            // missing or malformed one (worker killed mid-write) only costs
            // the trace, never the solve result.
            if report.is_ok() {
                if let Ok(dump @ Message::TraceDump { .. }) = frames.read_message(stdout) {
                    dumps.push(dump);
                }
            }
            reports.push(report);
        }

        let mut x = vec![0.0; n];
        let mut iterations = 0;
        let mut residual_history = Vec::new();
        let mut allreduces = 0;
        let mut first_error: Option<ProcessError> = None;
        let mut comm_error: Option<ProcessError> = None;
        for (rank, report) in reports.into_iter().enumerate() {
            match report {
                Ok(Message::RankResult {
                    rank: reported,
                    iterations: iters,
                    collectives,
                    x: x_own,
                    history,
                }) => {
                    if reported as usize != rank {
                        return Err(ProcessError::Protocol {
                            rank,
                            message: format!("report claims rank {reported}"),
                        });
                    }
                    let own = partition.range(rank);
                    if x_own.len() != own.len() {
                        return Err(ProcessError::Protocol {
                            rank,
                            message: format!(
                                "solution block has {} entries, expected {}",
                                x_own.len(),
                                own.len()
                            ),
                        });
                    }
                    x[own].copy_from_slice(&x_own);
                    iterations = iters as usize;
                    if rank == 0 {
                        residual_history = history;
                        allreduces = collectives;
                    }
                }
                Ok(Message::RankError {
                    kind,
                    peer,
                    message,
                    ..
                }) => {
                    let err = rank_error_to_process_error(rank, kind, peer, message);
                    if matches!(err, ProcessError::Comm { .. }) && comm_error.is_none() {
                        comm_error = Some(err);
                    } else if first_error.is_none() {
                        first_error = Some(err);
                    }
                }
                Ok(other) => {
                    return Err(ProcessError::Protocol {
                        rank,
                        message: format!("unexpected report frame {:?}", other.tag()),
                    })
                }
                Err(e) => {
                    if first_error.is_none() {
                        first_error = Some(e);
                    }
                }
            }
        }
        // A typed comm failure is the most informative outcome: it names the
        // disconnect the surviving ranks observed.
        if let Some(err) = comm_error.or(first_error) {
            return Err(err);
        }

        // Merge the workers' trace dumps: the launcher is the "rank 0" of
        // the collection — it holds every rank's stream plus the summed
        // link counters.
        let mut net = crate::cg::NetStats::default();
        let mut rank_traces = Vec::new();
        for dump in dumps {
            let Message::TraceDump {
                rank,
                origin_micros,
                dropped,
                link,
                events,
            } = dump
            else {
                unreachable!("only TraceDump frames are collected above");
            };
            let stats = crate::cg::NetStats::from_wire(link);
            net.accumulate(stats);
            let events: Vec<feir_trace::Event> = events
                .iter()
                .filter_map(|&(p, start_ns, dur_ns)| {
                    feir_trace::Phase::from_u8(p).map(|phase| feir_trace::Event {
                        phase,
                        start_ns,
                        dur_ns,
                    })
                })
                .collect();
            if !events.is_empty() || dropped > 0 {
                rank_traces.push(feir_trace::RankTrace {
                    rank,
                    origin_micros,
                    dropped,
                    events,
                    link_frames: stats.data_frames,
                    link_retransmits: stats.retransmits,
                    link_faults: stats.injected_faults,
                    link_rejected: stats.rejected,
                    link_dup_received: stats.dup_received,
                });
            }
        }
        let trace = (!rank_traces.is_empty()).then(|| feir_trace::SolveTrace::new(rank_traces));

        let a = feir_sparse::generators::poisson_2d(spec.grid);
        let (_, b) = feir_sparse::generators::manufactured_rhs(&a, spec.rhs_seed);
        let relative_residual = kernels::explicit_relative_residual(&a, &b, &x);
        Ok(DistSolveResult {
            x,
            iterations,
            relative_residual,
            ranks,
            converged: relative_residual <= spec.tolerance,
            residual_history,
            allreduces,
            net,
            trace,
        })
    }
}

impl Drop for WorkerHandles {
    /// A dropped fleet is a dead fleet: without this, a panicking test (or a
    /// caller that simply forgets to `join`) leaks orphan worker processes
    /// that keep their sockets — and possibly a rendezvous directory — alive
    /// indefinitely. It is also how `join` and a failed spawn reap their
    /// workers (`kill` on an already-exited child errors and is ignored).
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Reconstructs the typed error a worker reported over the wire.
fn rank_error_to_process_error(
    rank: usize,
    kind: RankErrorKind,
    peer: i32,
    message: String,
) -> ProcessError {
    match kind {
        RankErrorKind::Disconnected => ProcessError::Comm {
            rank,
            error: CommError::Disconnected {
                peer: usize::try_from(peer).ok(),
                during: "remote solve",
            },
        },
        RankErrorKind::Timeout => ProcessError::Comm {
            rank,
            error: CommError::Timeout {
                peer: usize::try_from(peer).unwrap_or(0),
                during: "remote solve",
            },
        },
        RankErrorKind::Wire => ProcessError::Comm {
            rank,
            error: CommError::Protocol(format!("wire error on remote rank: {message}")),
        },
        RankErrorKind::Other => ProcessError::Worker { rank, message },
    }
}

static RUN_COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// A unique rendezvous directory for one mesh run.
pub(crate) fn fresh_run_dir() -> std::io::Result<PathBuf> {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos())
        .unwrap_or(0);
    let dir = std::env::temp_dir().join(format!(
        "feir-mesh-{}-{}-{}",
        std::process::id(),
        RUN_COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        nanos
    ));
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Spawns the worker process of `launch.rank` and writes its launch frame
/// to the worker's stdin.
fn spawn_one(worker: &Path, launch: &Launch) -> std::io::Result<Child> {
    let mut cmd = Command::new(worker);
    cmd.env(ENV_WORKER, "1")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped());
    // Forward the SpMV storage-format override explicitly (rather than by
    // env inheritance) so every rank of a mesh solves with the same format,
    // and validate it here: a malformed value must fail the launch, not
    // panic inside a remote rank mid-solve.
    if let Ok(raw) = std::env::var(ENV_SPMV_FORMAT) {
        SpmvFormat::parse(&raw)
            .map_err(|msg| std::io::Error::new(std::io::ErrorKind::InvalidInput, msg))?;
        cmd.env(ENV_SPMV_FORMAT, raw);
    }
    let mut child = cmd.spawn()?;
    let frame = launch.to_wire().encode();
    // The taken pipe drops at the end of the statement, so the worker sees
    // EOF right after its one frame.
    let sent = child
        .stdin
        .take()
        .expect("worker stdin is piped")
        .write_all(&frame);
    if let Err(e) = sent {
        let _ = child.kill();
        let _ = child.wait();
        return Err(e);
    }
    Ok(child)
}

/// Spawns one worker process per rank over the given transport, with
/// [`WorkerOptions`] controlling resilience, elasticity and fault
/// injection. `worker` is any executable whose main calls [`worker_main`]
/// (e.g. the `feir-rank-worker` binary, or a self-re-executing example).
pub fn spawn_workers_with(
    worker: &Path,
    spec: &ProcessSpec,
    transport: &Transport,
    options: &WorkerOptions,
) -> Result<WorkerHandles, ProcessError> {
    let ranks = crate::comm::effective_ranks(spec.grid * spec.grid, spec.ranks);
    let dir_guard = match transport {
        Transport::Uds { dir } => {
            // The rendezvous directory must exist before any worker binds.
            std::fs::create_dir_all(dir).map_err(ProcessError::Spawn)?;
            Some(RunDirGuard(dir.clone()))
        }
        Transport::Tcp { .. } => None,
    };
    let mut handles = WorkerHandles {
        children: Vec::with_capacity(ranks),
        worker: worker.to_path_buf(),
        launch: Launch {
            rank: 0,
            epochs: vec![0; ranks],
            transport: transport.clone(),
            spec: ProcessSpec {
                ranks,
                ..spec.clone()
            },
            options: options.clone(),
        },
        _dir: dir_guard,
    };
    for rank in 0..ranks {
        handles.launch.rank = rank;
        // A failed spawn drops `handles`, which reaps the ranks already up.
        let child = spawn_one(worker, &handles.launch).map_err(ProcessError::Spawn)?;
        handles.children.push(child);
    }
    Ok(handles)
}

/// [`spawn_workers_with`] under default [`WorkerOptions`] — the plain
/// (non-resilient, fault-free) fleet.
pub fn spawn_workers(
    worker: &Path,
    spec: &ProcessSpec,
    transport: &Transport,
) -> Result<WorkerHandles, ProcessError> {
    spawn_workers_with(worker, spec, transport, &WorkerOptions::default())
}

/// Runs a complete multi-process solve over Unix domain sockets in a fresh
/// rendezvous directory and returns the assembled result.
pub fn solve_with_processes(
    worker: &Path,
    spec: &ProcessSpec,
) -> Result<DistSolveResult, ProcessError> {
    let dir = fresh_run_dir().map_err(ProcessError::Spawn)?;
    spawn_workers(worker, spec, &Transport::Uds { dir })?.join()
}

/// Set to `1` on every worker the launcher spawns; the configuration itself
/// arrives as one [`Message::WorkerConfig`] frame on the worker's stdin.
const ENV_WORKER: &str = "FEIR_RANK_WORKER";

/// True when this process was spawned as a rank worker (the launcher set the
/// `FEIR_RANK_WORKER` marker). A self-re-executing launcher (like
/// `examples/dist_process.rs`) checks this first and calls [`worker_main`].
pub fn spawned_as_worker() -> bool {
    std::env::var_os(ENV_WORKER).is_some()
}

/// `WorkerConfig` code of the TCP transport (UDS is 0).
const TRANSPORT_TCP: u8 = 1;

/// `WorkerConfig` duration value meaning "unset": inherit the default.
const UNSET_MICROS: u64 = u64::MAX;

/// `WorkerConfig` solver codes: a solver's code is its index here.
const SOLVERS: [WorkerSolver; 4] = [
    WorkerSolver::Cg,
    WorkerSolver::Pcg,
    WorkerSolver::CgMerged,
    WorkerSolver::PcgMerged,
];

/// The policy of a `WorkerConfig` policy code (0 is the plain rank loop),
/// or `None` for an unknown code.
fn policy_of(code: u8, interval: usize) -> Option<Option<RecoveryPolicy>> {
    use RecoveryPolicy::*;
    let policies = [
        None,
        Some(Ideal),
        Some(Trivial),
        Some(TrivialReplace),
        Some(Checkpoint { interval }),
        Some(LossyRestart),
        Some(Feir),
        Some(Afeir),
    ];
    policies.get(usize::from(code)).copied()
}

/// One worker's launch: what the launcher holds, and what the worker
/// decodes from its `WorkerConfig` frame.
#[derive(Debug)]
struct Launch {
    rank: usize,
    /// Respawn count per rank: a respawned worker rebinds under its bumped
    /// epoch and the survivors expect exactly that epoch in its Hello.
    epochs: Vec<u64>,
    transport: Transport,
    /// `spec.ranks` is the fleet's effective rank count.
    spec: ProcessSpec,
    options: WorkerOptions,
}

impl Launch {
    fn to_wire(&self) -> Message {
        let (transport, tcp_base_port, uds_dir) = match &self.transport {
            Transport::Uds { dir } => (0, 0, dir.as_os_str().as_bytes().to_vec()),
            Transport::Tcp { base_port } => (TRANSPORT_TCP, *base_port, Vec::new()),
        };
        let checkpoint_interval = match self.options.policy {
            Some(RecoveryPolicy::Checkpoint { interval }) => interval,
            _ => 0,
        };
        let policy = (0..)
            .find(|&code| policy_of(code, checkpoint_interval) == Some(self.options.policy))
            .expect("every policy has a code");
        let micros = |d: Option<Duration>| {
            d.map_or(UNSET_MICROS, |d| {
                u64::try_from(d.as_micros()).unwrap_or(UNSET_MICROS - 1)
            })
        };
        let (spec, options) = (&self.spec, &self.options);
        Message::WorkerConfig(WorkerConfig {
            rank: self.rank as u32,
            ranks: spec.ranks as u32,
            epochs: self.epochs.clone(),
            transport,
            tcp_base_port,
            uds_dir,
            solver: spec.solver as u8,
            grid: spec.grid as u64,
            rhs_seed: spec.rhs_seed,
            page_doubles: spec.page_doubles as u64,
            tolerance: spec.tolerance,
            max_iterations: spec.max_iterations as u64,
            policy,
            checkpoint_interval: checkpoint_interval as u64,
            elastic: options.elastic,
            chaos: options
                .chaos
                .as_ref()
                .map(|c| (c.seed, c.rates, c.fault_retransmits)),
            retransmit_timeout_us: micros(options.retransmit_timeout),
            spin_us: micros(options.spin),
        })
    }

    /// Validates a launch frame: everything a worker indexes or sizes by is
    /// checked here, so a hostile frame is refused instead of panicking later.
    fn from_wire(msg: Message) -> Result<Launch, String> {
        let Message::WorkerConfig(c) = msg else {
            return Err(format!("expected WorkerConfig, got {:?}", msg.tag()));
        };
        let size = |v: u64| usize::try_from(v).map_err(|_| format!("{v} overflows usize"));
        let (rank, ranks, grid) = (c.rank as usize, c.ranks as usize, size(c.grid)?);
        if grid == 0 || c.page_doubles == 0 {
            return Err("grid and page_doubles must be positive".into());
        }
        if rank >= ranks || ranks > grid.saturating_mul(grid) {
            return Err(format!("rank {rank} of {ranks} is invalid for grid {grid}"));
        }
        if !c.epochs.is_empty() && c.epochs.len() != ranks {
            return Err(format!("{} epochs for {ranks} ranks", c.epochs.len()));
        }
        let transport = match c.transport {
            0 => Transport::Uds {
                dir: PathBuf::from(OsString::from_vec(c.uds_dir)),
            },
            TRANSPORT_TCP => Transport::Tcp {
                base_port: c.tcp_base_port,
            },
            code => return Err(format!("unknown transport code {code}")),
        };
        let solver = SOLVERS.get(usize::from(c.solver));
        let solver = *solver.ok_or_else(|| format!("unknown solver code {}", c.solver))?;
        let policy = policy_of(c.policy, size(c.checkpoint_interval)?)
            .ok_or_else(|| format!("unknown policy code {}", c.policy))?;
        let chaos = c.chaos.map(|(seed, rates, fault_retransmits)| {
            ChaosConfig {
                seed,
                rates,
                fault_retransmits,
            }
            .validate()
        });
        let duration = |us: u64| (us != UNSET_MICROS).then(|| Duration::from_micros(us));
        Ok(Launch {
            rank,
            epochs: c.epochs,
            transport,
            spec: ProcessSpec {
                solver,
                grid,
                rhs_seed: c.rhs_seed,
                ranks,
                page_doubles: size(c.page_doubles)?,
                tolerance: c.tolerance,
                max_iterations: size(c.max_iterations)?,
            },
            options: WorkerOptions {
                policy,
                elastic: c.elastic,
                chaos: chaos.transpose()?,
                retransmit_timeout: duration(c.retransmit_timeout_us),
                spin: duration(c.spin_us),
            },
        })
    }

    /// The mesh defaults plus what the launcher sent.
    fn mesh_options(&self) -> MeshOptions {
        let (defaults, sent) = (MeshOptions::default(), &self.options);
        MeshOptions {
            retransmit_timeout: sent
                .retransmit_timeout
                .unwrap_or(defaults.retransmit_timeout),
            chaos: sent.chaos.clone(),
            elastic: sent.elastic,
            epochs: self.epochs.clone(),
            ..defaults
        }
    }
}

/// Reads this worker's launch frame from stdin. The inherited storage-format
/// override is checked first: `SpmvBackend` reads it mid-solve, too late to
/// refuse it cleanly.
fn read_launch() -> Result<Launch, String> {
    if let Some(raw) = std::env::var_os(ENV_SPMV_FORMAT) {
        SpmvFormat::parse(&raw.to_string_lossy())?;
    }
    let frame = FrameReader::new()
        .read_message(&mut std::io::stdin().lock())
        .map_err(|e| format!("launch frame: {e}"))?;
    Launch::from_wire(frame)
}

/// Joins the mesh, runs this rank's loop and returns the report frame.
/// `links_out` receives the endpoint's per-peer reliability counters as
/// soon as the mesh is up, so the caller can report them even when the
/// solve later fails.
fn run_worker(launch: &Launch, links_out: &mut Vec<Arc<LinkStats>>) -> Result<Message, CommError> {
    use crate::merged::{rank_cg_merged, rank_pcg_merged};
    let spec = &launch.spec;
    let a = feir_sparse::generators::poisson_2d(spec.grid);
    let (_, b) = feir_sparse::generators::manufactured_rhs(&a, spec.rhs_seed);
    let partition = RankPartition::new(a.rows(), spec.ranks);
    let resilient = launch.options.policy.is_some() || launch.options.elastic;
    if resilient && !matches!(spec.solver, WorkerSolver::Cg | WorkerSolver::Pcg) {
        return Err(CommError::Protocol(
            "the resilient/elastic worker path supports only the classic cg and pcg solvers".into(),
        ));
    }
    let plan = HaloPlan::build(&a, &partition);
    let options = launch.mesh_options();
    let endpoint = connect_mesh(launch.rank, spec.ranks, &launch.transport, &options)?;
    *links_out = endpoint.stats.clone();
    let comm = RankComm::over_process(&plan, endpoint);
    if resilient {
        return run_worker_resilient(launch, &a, &b, &partition, comm);
    }
    let (page, tol, maxit) = (spec.page_doubles, spec.tolerance, spec.max_iterations);
    let (rank, x_own, iterations, history, collectives) = match spec.solver {
        WorkerSolver::Cg => crate::cg::rank_cg(&a, &b, comm, &partition, tol, maxit)?,
        WorkerSolver::Pcg => crate::pcg::rank_pcg(&a, &b, comm, &partition, page, tol, maxit)?,
        WorkerSolver::CgMerged => rank_cg_merged(&a, &b, comm, &partition, tol, maxit)?,
        WorkerSolver::PcgMerged => rank_pcg_merged(&a, &b, comm, &partition, page, tol, maxit)?,
    };
    Ok(Message::RankResult {
        rank: rank as u32,
        iterations: iterations as u64,
        collectives,
        x: x_own,
        history,
    })
}

/// The resilient/elastic worker path: the full recovery-policy rank loop
/// ([`crate::rank_loop`]) over the process mesh, optionally under the
/// elastic rejoin harness (`crate::elastic`). Supports the classic
/// `cg`/`pcg` solvers (the merged loops have no resilient engine binding
/// on this transport yet; [`run_worker`] refuses them).
fn run_worker_resilient(
    launch: &Launch,
    a: &feir_sparse::CsrMatrix,
    b: &[f64],
    partition: &RankPartition,
    comm: RankComm,
) -> Result<Message, CommError> {
    use crate::elastic::{rank_elastic_solve, ElasticCfg};
    use crate::rank_loop::{rank_resilient_solve, RankCtx};
    use crate::resilient::ProtectedVector;
    use feir_recovery::{CgRelations, PcgRelations};
    use feir_sparse::blocking::BlockPartition;

    let spec = &launch.spec;
    let policy = launch.options.policy.unwrap_or(RecoveryPolicy::Ideal);
    let rank = launch.rank;
    let own = partition.range(rank);
    let pages = BlockPartition::new(own.len(), spec.page_doubles.max(1));
    let registry = std::sync::Arc::new(feir_pagemem::PageRegistry::new());
    if policy.needs_protection() {
        for vector in ProtectedVector::protected(spec.solver == WorkerSolver::Pcg) {
            let id = registry.register(format!("rank{rank}/{}", vector.name()), pages.num_blocks());
            debug_assert_eq!(id, vector.id());
        }
    }
    let ctx = RankCtx {
        a,
        b,
        policy,
        tolerance: spec.tolerance,
        max_iterations: spec.max_iterations,
        rank,
        own,
        pages,
        registry,
        partition: partition.clone(),
        scripted: Vec::new(),
        throttle: launch.options.spin.unwrap_or(Duration::ZERO),
    };
    let cfg = ElasticCfg {
        newcomer: launch.epochs.get(rank).copied().unwrap_or(0) > 0,
        max_rejoins: 4,
    };
    let outcome = match spec.solver {
        WorkerSolver::Cg => {
            let relations = CgRelations::new(a, b);
            if launch.options.elastic {
                rank_elastic_solve(&ctx, &relations, comm, &cfg)?
            } else {
                rank_resilient_solve(ctx, &relations, comm)?
            }
        }
        WorkerSolver::Pcg => {
            let jacobi = feir_sparse::LocalBlockJacobi::new(
                ctx.a,
                ctx.own.clone(),
                ctx.pages.block_size(),
                true,
            )
            .expect("rank-local block-Jacobi construction failed");
            let relations = PcgRelations::new(a, b, &jacobi);
            if launch.options.elastic {
                rank_elastic_solve(&ctx, &relations, comm, &cfg)?
            } else {
                rank_resilient_solve(ctx, &relations, comm)?
            }
        }
        _ => unreachable!("guarded above"),
    };
    Ok(Message::RankResult {
        rank: outcome.rank as u32,
        iterations: outcome.iterations as u64,
        collectives: outcome.allreduces,
        x: outcome.x_own,
        history: outcome.history,
    })
}

/// Encodes a comm failure as the typed wire report.
fn comm_error_report(rank: usize, error: &CommError) -> Message {
    let (kind, peer) = match error {
        CommError::Disconnected { peer, .. } => (
            RankErrorKind::Disconnected,
            peer.map(|p| p as i32).unwrap_or(-1),
        ),
        CommError::Timeout { peer, .. } => (RankErrorKind::Timeout, *peer as i32),
        CommError::Wire(_) => (RankErrorKind::Wire, -1),
        CommError::Protocol(_) => (RankErrorKind::Other, -1),
    };
    Message::RankError {
        rank: rank as u32,
        kind,
        peer,
        message: error.to_string(),
    }
}

/// Entry point of a rank worker process: read the `WorkerConfig` launch
/// frame from stdin, run the rank loop and write the report frame (then the
/// trace dump) to stdout.
///
/// Call this from a dedicated binary (`feir-rank-worker`) or from any
/// launcher that re-executes itself (check [`spawned_as_worker`] first).
pub fn worker_main() -> std::process::ExitCode {
    let launch = match read_launch() {
        Ok(launch) => launch,
        Err(msg) => {
            eprintln!("feir rank worker: {msg}");
            return std::process::ExitCode::FAILURE;
        }
    };
    let rank = launch.rank;
    // Everything this process records — solver thread and per-link reader
    // threads alike — belongs to this one rank.
    feir_trace::set_process_rank(rank as u32);
    let mut links: Vec<Arc<LinkStats>> = Vec::new();
    let report = match run_worker(&launch, &mut links) {
        Ok(result) => result,
        // `run_worker` returning drops the endpoint, closing this rank's
        // sockets so any peer still blocked on us unblocks with a
        // disconnect of its own before we even report.
        Err(e) => comm_error_report(rank, &e),
    };
    let failed = matches!(report, Message::RankError { .. });
    let mut out = std::io::stdout().lock();
    let mut scratch = Vec::new();
    if feir_wire::write_message(&mut out, &report, &mut scratch).is_err() || out.flush().is_err() {
        return std::process::ExitCode::FAILURE;
    }
    // The report is always followed by this rank's trace dump (empty when
    // tracing is off) so the launcher can merge streams and surface the
    // link counters; the frame is advisory, so its write errors are
    // ignored — the report above already carried the solve outcome.
    let trace = feir_trace::drain_rank(rank as u32);
    let dump = Message::TraceDump {
        rank: rank as u32,
        origin_micros: trace.origin_micros,
        dropped: trace.dropped,
        link: sum_link_stats(&links).to_wire(),
        events: trace
            .events
            .iter()
            .map(|e| (e.phase as u8, e.start_ns, e.dur_ns))
            .collect(),
    };
    let _ = feir_wire::write_message(&mut out, &dump, &mut scratch);
    let _ = out.flush();
    if failed {
        std::process::ExitCode::FAILURE
    } else {
        std::process::ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use feir_sparse::generators::poisson_2d;
    use feir_wire::chaos::FaultKind;
    use std::collections::HashMap;
    use std::sync::Barrier;

    /// Builds a thread-backed mesh of process endpoints over the transport
    /// and runs `body` on every rank concurrently.
    fn with_mesh_opts<T: Send>(
        ranks: usize,
        transport: &Transport,
        options: &MeshOptions,
        body: impl Fn(ProcessEndpoint) -> T + Sync,
    ) -> Vec<T> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..ranks)
                .map(|rank| {
                    let transport = transport.clone();
                    let options = options.clone();
                    let body = &body;
                    scope.spawn(move || {
                        let ep = connect_mesh(rank, ranks, &transport, &options)
                            .expect("mesh connect failed");
                        body(ep)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rank thread panicked"))
                .collect()
        })
    }

    fn test_options() -> MeshOptions {
        MeshOptions {
            connect_timeout: Duration::from_secs(20),
            read_timeout: Some(Duration::from_secs(20)),
            ..MeshOptions::default()
        }
    }

    fn with_mesh<T: Send>(
        ranks: usize,
        transport: &Transport,
        body: impl Fn(ProcessEndpoint) -> T + Sync,
    ) -> Vec<T> {
        with_mesh_opts(ranks, transport, &test_options(), body)
    }

    fn uds_transport() -> Transport {
        Transport::Uds {
            dir: fresh_run_dir().expect("temp dir"),
        }
    }

    #[test]
    fn chaos_config_parses_its_textual_form() {
        let cfg = ChaosConfig {
            seed: 42,
            rates: FaultRates {
                drop: 0.1,
                duplicate: 0.05,
                delay: 0.025,
                corrupt: 0.0125,
                truncate: 0.03,
            },
            fault_retransmits: true,
        };
        let text = "seed=42,drop=0.1,dup=0.05,delay=0.025,corrupt=0.0125,trunc=0.03,all_attempts=1";
        assert_eq!(ChaosConfig::parse(text), Ok(cfg.clone()));
        // Two links never share a plan, and the same link always gets the
        // same plan.
        assert_eq!(cfg.plan_for(0, 1), cfg.plan_for(0, 1));
        assert_ne!(cfg.plan_for(0, 1), cfg.plan_for(1, 0));
    }

    #[test]
    fn launch_survives_the_wire_exactly() {
        let round_trip = |launch: &Launch| {
            let frame = launch.to_wire().encode();
            let back = Launch::from_wire(feir_wire::decode_frame_buf(&frame).unwrap()).unwrap();
            assert_eq!(format!("{back:?}"), format!("{launch:?}"));
            back
        };
        let launch = Launch {
            rank: 2,
            epochs: vec![0, 0, 1],
            transport: Transport::Uds {
                dir: PathBuf::from(std::ffi::OsStr::from_bytes(b"/tmp/feir-\xff-mesh")),
            },
            spec: ProcessSpec {
                solver: WorkerSolver::Pcg,
                page_doubles: 16,
                ..ProcessSpec::cg(12, 3)
            },
            options: WorkerOptions {
                policy: Some(RecoveryPolicy::Checkpoint { interval: 25 }),
                elastic: true,
                chaos: Some(ChaosConfig::parse("seed=9,drop=0.25,trunc=0.5").unwrap()),
                // Sub-millisecond durations: a millisecond encoding turns
                // this RTO into 0, and every service call into a retransmit.
                retransmit_timeout: Some(Duration::from_micros(500)),
                spin: Some(Duration::from_micros(1500)),
            },
        };
        let back = round_trip(&launch);
        let mesh = back.mesh_options();
        assert_eq!(mesh.retransmit_timeout, Duration::from_micros(500));
        assert_eq!(back.options.spin, Some(Duration::from_micros(1500)));
        assert_eq!((mesh.chaos, mesh.elastic), (launch.options.chaos, true));
        assert_eq!(mesh.epochs, vec![0, 0, 1]);

        // Unset durations inherit the mesh default.
        let plain = Launch {
            rank: 0,
            transport: Transport::Tcp { base_port: 4000 },
            options: WorkerOptions::default(),
            ..launch
        };
        let rto = round_trip(&plain).mesh_options().retransmit_timeout;
        assert_eq!(rto, MeshOptions::default().retransmit_timeout);
    }

    #[test]
    fn chaos_config_rejects_malformed_input() {
        for bad in [
            "drop",             // not key=value
            "drop=1.5",         // out of range
            "drop=-0.1",        // out of range
            "drop=abc",         // not a number
            "warp=0.1",         // unknown key
            "all_attempts=2",   // not a flag
            "drop=0.6,dup=0.6", // rates sum over 1
        ] {
            assert!(ChaosConfig::parse(bad).is_err(), "accepted {bad:?}");
        }
        assert_eq!(ChaosConfig::parse(""), Ok(ChaosConfig::default()));
        assert_eq!(
            ChaosConfig::parse("seed=7").map(|c| c.seed),
            Ok(7),
            "lone seed should parse"
        );
    }

    #[test]
    fn mesh_allreduce_matches_in_process_bitwise() {
        for ranks in [1usize, 2, 4] {
            let transport = uds_transport();
            let _guard = match &transport {
                Transport::Uds { dir } => RunDirGuard(dir.clone()),
                _ => unreachable!(),
            };
            let plan = HaloPlan::empty(ranks);
            let over_wire: Vec<f64> = with_mesh(ranks, &transport, |ep| {
                let comm = RankComm::over_process(&plan, ep);
                comm.allreduce_sum(0.1 + comm.rank() as f64 * 0.3).unwrap()
            });
            let in_process: Vec<f64> = {
                let comms = RankComm::for_ranks(&plan, ranks);
                std::thread::scope(|scope| {
                    let handles: Vec<_> = comms
                        .into_iter()
                        .map(|comm| {
                            scope.spawn(move || {
                                comm.allreduce_sum(0.1 + comm.rank() as f64 * 0.3).unwrap()
                            })
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).collect()
                })
            };
            for (a, b) in over_wire.iter().zip(&in_process) {
                assert_eq!(a.to_bits(), b.to_bits(), "{ranks} ranks");
            }
        }
    }

    #[test]
    fn mesh_rank_finishes_without_waiting_for_a_busy_rank_0() {
        let transport = uds_transport();
        let _guard = match &transport {
            Transport::Uds { dir } => RunDirGuard(dir.clone()),
            _ => unreachable!(),
        };
        let plan = HaloPlan::empty(2);
        let ready = Barrier::new(2);
        let results = with_mesh(2, &transport, |ep| {
            let comm = RankComm::over_process(&plan, ep);
            ready.wait();
            let started = Instant::now();
            let pending = comm.start_allreduce(0.25 + comm.rank() as f64).unwrap();
            if comm.rank() == 0 {
                std::thread::sleep(Duration::from_millis(60));
            }
            (pending.finish().unwrap(), started.elapsed())
        });
        let (sum, took) = results[1];
        assert!(
            took < Duration::from_millis(25),
            "rank 1 waited {took:?} on rank 0"
        );
        assert_eq!(sum, 1.5);
        assert_eq!(results[0].0.to_bits(), sum.to_bits());
    }

    #[test]
    fn mesh_halo_exchange_moves_the_same_values() {
        let a = poisson_2d(8);
        let n = a.rows();
        let ranks = 4;
        let partition = RankPartition::new(n, ranks);
        let plan = HaloPlan::build(&a, &partition);
        let transport = uds_transport();
        let _guard = match &transport {
            Transport::Uds { dir } => RunDirGuard(dir.clone()),
            _ => unreachable!(),
        };
        let fulls = with_mesh(ranks, &transport, |ep| {
            let comm = RankComm::over_process(&plan, ep);
            let own = partition.range(comm.rank());
            let mut full = vec![0.0; n];
            for i in own {
                full[i] = (i * i) as f64 + 0.25;
            }
            comm.exchange_halo(&mut full).unwrap();
            (comm.rank(), full)
        });
        for (rank, full) in fulls {
            for (&src, cols) in plan.needs_of(rank) {
                let _ = src;
                for &c in cols {
                    assert_eq!(full[c], (c * c) as f64 + 0.25, "rank {rank} col {c}");
                }
            }
        }
    }

    #[test]
    fn tcp_fallback_carries_the_same_collectives() {
        // Find a free contiguous port range, then run a mesh over loopback.
        let ranks = 2;
        let base = (0..40)
            .map(|k| 42617 + k * 13)
            .find(|&base| {
                (0..ranks as u16).all(|r| {
                    TcpListener::bind(SocketAddr::from((Ipv4Addr::LOCALHOST, base + r))).is_ok()
                })
            })
            .expect("no free port range on loopback");
        let transport = Transport::Tcp { base_port: base };
        let plan = HaloPlan::empty(ranks);
        let sums = with_mesh(ranks, &transport, |ep| {
            let comm = RankComm::over_process(&plan, ep);
            comm.allreduce_vec(vec![1.5 + comm.rank() as f64, -2.0])
                .unwrap()
        });
        for sum in sums {
            assert_eq!(sum, vec![1.5 + 2.5, -4.0]);
        }
    }

    #[test]
    fn dropped_process_peer_is_a_typed_disconnect() {
        let ranks = 2;
        let transport = uds_transport();
        let _guard = match &transport {
            Transport::Uds { dir } => RunDirGuard(dir.clone()),
            _ => unreachable!(),
        };
        let plan = HaloPlan::empty(ranks);
        let outcomes = with_mesh(ranks, &transport, |ep| {
            let comm = RankComm::over_process(&plan, ep);
            if comm.rank() == 1 {
                // Simulate a dying rank: vanish without entering the
                // collective. Dropping the endpoint closes the sockets.
                drop(comm);
                return None;
            }
            Some(comm.allreduce_sum(1.0))
        });
        let rank0 = outcomes.into_iter().flatten().next().expect("rank 0 ran");
        match rank0 {
            Err(CommError::Disconnected { peer: Some(1), .. }) => {}
            other => panic!("expected typed disconnect from rank 1, got {other:?}"),
        }
    }

    #[test]
    fn mesh_recovery_exchange_matches_in_process() {
        let a = poisson_2d(8);
        let n = a.rows();
        let ranks = 2;
        let partition = RankPartition::new(n, ranks);
        let plan = HaloPlan::build(&a, &partition);
        let transport = uds_transport();
        let _guard = match &transport {
            Transport::Uds { dir } => RunDirGuard(dir.clone()),
            _ => unreachable!(),
        };
        let results = with_mesh(ranks, &transport, |ep| {
            let comm = RankComm::over_process(&plan, ep);
            let rank = comm.rank();
            let own = partition.range(rank);
            let mut data = vec![0.0; n];
            for i in own.clone() {
                data[i] = i as f64;
            }
            let requests: HashMap<usize, Vec<usize>> = if rank == 0 {
                plan.needs_of(0).clone()
            } else {
                HashMap::new()
            };
            let lost: Vec<usize> = if rank == 1 {
                (own.start..own.start + 4).collect()
            } else {
                Vec::new()
            };
            let (fetched, invalid) = comm.recovery_exchange(&requests, &mut data, &lost).unwrap();
            (rank, fetched, invalid, data)
        });
        let boundary = partition.range(1).start;
        for (rank, fetched, invalid, data) in results {
            if rank == 0 {
                assert!(fetched > 0);
                assert!(invalid.contains(&boundary), "lost row not flagged");
                for (&src, cols) in plan.needs_of(0) {
                    let _ = src;
                    for &c in cols {
                        assert_eq!(data[c], c as f64);
                    }
                }
            } else {
                assert_eq!(fetched, 0);
                assert!(invalid.is_empty());
            }
        }
    }

    #[test]
    fn lossy_mesh_collectives_are_bitwise_identical_to_clean() {
        let ranks = 2;
        let rounds = 40;
        let run = |options: &MeshOptions| -> Vec<(Vec<f64>, u64)> {
            let transport = uds_transport();
            let _guard = match &transport {
                Transport::Uds { dir } => RunDirGuard(dir.clone()),
                _ => unreachable!(),
            };
            let plan = HaloPlan::empty(ranks);
            with_mesh_opts(ranks, &transport, options, |ep| {
                let stats: Vec<_> = (0..ranks)
                    .filter(|&p| p != ep.rank())
                    .map(|p| ep.link_stats(p))
                    .collect();
                let comm = RankComm::over_process(&plan, ep);
                let sums: Vec<f64> = (0..rounds)
                    .map(|round| {
                        comm.allreduce_sum(0.31 * comm.rank() as f64 + 1e-3 * round as f64)
                            .unwrap()
                    })
                    .collect();
                let faults: u64 = stats.iter().map(|s| s.faults()).sum();
                (sums, faults)
            })
        };
        let clean = run(&test_options());
        let lossy = run(&MeshOptions {
            chaos: Some(
                ChaosConfig::parse("seed=42,drop=0.1,dup=0.05,delay=0.05,corrupt=0.05,trunc=0.05")
                    .unwrap(),
            ),
            retransmit_timeout: Duration::from_millis(15),
            ..test_options()
        });
        let injected: u64 = lossy.iter().map(|(_, faults)| faults).sum();
        assert!(injected > 0, "chaos plan injected no faults");
        for (rank, ((clean_sums, _), (lossy_sums, _))) in clean.iter().zip(&lossy).enumerate() {
            for (round, (c, l)) in clean_sums.iter().zip(lossy_sums).enumerate() {
                assert_eq!(
                    c.to_bits(),
                    l.to_bits(),
                    "rank {rank} diverges at round {round}: {c:e} vs {l:e}"
                );
            }
        }
    }

    /// A reader-less `LinkShared` over one end of a socket pair (the other
    /// end is returned so writes have somewhere to go): the timer state
    /// machine in isolation.
    fn bare_link(rto: Duration, max_retries: u32) -> (LinkShared, UnixStream) {
        let (near, far) = UnixStream::pair().expect("socket pair");
        let stats = Arc::new(LinkStats::default());
        let shared = LinkShared {
            peer: 1,
            writer: Mutex::new(ChaosLink::new(
                Stream::Unix(near),
                FaultPlan::clean(),
                stats.clone(),
            )),
            sendq: Mutex::new(SendState::default()),
            down: Mutex::new(None),
            max_retries,
            rto,
            stats,
        };
        (shared, far)
    }

    fn head_sent_at(shared: &LinkShared) -> Instant {
        let sendq = shared.sendq.lock().unwrap();
        sendq.unacked.front().expect("a record in flight").sent_at
    }

    #[test]
    fn lossy_timer_backoff_doubles_caps_and_follows_the_head_record() {
        let rto = Duration::from_millis(40);
        let (shared, _far) = bare_link(rto, 10);
        for (attempt, want_ms) in [(0, 40), (1, 80), (2, 160), (4, 640), (5, 1000), (9, 1000)] {
            assert_eq!(
                shared.backoff(attempt),
                Duration::from_millis(want_ms),
                "attempt {attempt}"
            );
        }

        assert_eq!(shared.next_expiry(), None, "nothing in flight");
        assert!(shared.service_retransmits(), "an idle link stays alive");
        for _ in 0..3 {
            assert!(shared.transmit(b"frame"));
        }
        let first_sent = head_sent_at(&shared);
        assert_eq!(shared.next_expiry(), Some(first_sent + rto));
        // Not due yet: servicing is a no-op.
        assert!(shared.service_retransmits());
        assert_eq!(shared.stats.retransmits.load(Ordering::Relaxed), 0);

        // A due head record is re-sent once per expiry, and each attempt
        // doubles the wait for the next.
        for attempt in 1..=2u32 {
            shared.sendq.lock().unwrap().unacked[0].sent_at -= shared.backoff(attempt - 1);
            assert!(shared.service_retransmits());
            assert!(
                shared.service_retransmits(),
                "second caller finds it re-armed"
            );
            assert_eq!(
                shared.stats.retransmits.load(Ordering::Relaxed),
                u64::from(attempt)
            );
            let sent = head_sent_at(&shared);
            assert_eq!(shared.next_expiry(), Some(sent + rto * (1 << attempt)));
        }

        // A duplicate ack (nothing below seq 0 is outstanding) must not
        // re-arm the timer; cumulative progress re-arms the survivor's.
        let before = head_sent_at(&shared);
        shared.acknowledge(0);
        assert_eq!(
            head_sent_at(&shared),
            before,
            "duplicate ack moved the timer"
        );
        let stale = first_sent - Duration::from_secs(1);
        shared.sendq.lock().unwrap().unacked[2].sent_at = stale;
        shared.acknowledge(2);
        let survivor = head_sent_at(&shared);
        assert!(
            survivor >= before,
            "ack progress must restart the survivor's timer, not keep its {stale:?} send time"
        );
        assert_eq!(
            shared.next_expiry(),
            Some(survivor + rto),
            "the survivor is on its first attempt"
        );
        shared.acknowledge(3);
        assert_eq!(shared.next_expiry(), None, "fully acknowledged");

        // A dead link has no deadline to wake anyone for.
        assert!(shared.transmit(b"frame"));
        shared.mark_down(LinkDown::Eof);
        assert_eq!(shared.next_expiry(), None);
        assert!(!shared.service_retransmits());
    }

    /// Replaces the fault plan of `ep`'s outgoing link to `peer` with one
    /// that drops the first attempt of exactly the listed sequence numbers.
    /// Call before the first send on that link.
    fn script_drops(ep: &ProcessEndpoint, peer: usize, seqs: &[u64]) {
        let entries: Vec<_> = seqs.iter().map(|&seq| (seq, FaultKind::Drop)).collect();
        ep.with_link(peer, |link| {
            let stream = link.ctl.try_clone().expect("stream clone");
            *link.shared.writer.lock().unwrap() = ChaosLink::new(
                stream,
                FaultPlan::scripted(&entries),
                link.shared.stats.clone(),
            );
        });
    }

    fn median(mut samples: Vec<Duration>) -> Duration {
        samples.sort();
        samples[samples.len() / 2]
    }

    const LOSSY_RTO: Duration = Duration::from_millis(10);

    /// What one lost frame may cost the collective it stalls: the RTO plus
    /// scheduling slack — and not the 20 ms liveness poll on top of it.
    fn assert_stall_is_one_rto(label: &str, stalls: Vec<Duration>) {
        let median = median(stalls);
        assert!(
            median >= LOSSY_RTO.mul_f64(0.9),
            "{label}: median stall {median:?} is under the RTO — was the frame dropped at all?"
        );
        assert!(
            median < LOSSY_RTO.mul_f64(1.6),
            "{label}: a lost frame stalls {median:?} at the median, not ≈ one {LOSSY_RTO:?} RTO"
        );
    }

    /// Every scripted drop is re-sent exactly once and nothing else is —
    /// on a host that runs each thread within the RTO, `retransmits` equals
    /// the script. A starved reader can hand an ack over after the timer
    /// fired; the receiver then counts that re-send as a duplicate, so the
    /// two counters are compared net of each other.
    fn assert_only_lost_frames_were_resent(
        per_rank: impl Iterator<Item = crate::cg::NetStats>,
        scripted_drops: u64,
    ) {
        let mut net = crate::cg::NetStats::default();
        per_rank.for_each(|rank| net.accumulate(rank));
        assert_eq!(net.injected_faults, scripted_drops, "the script ran");
        assert_eq!(
            net.retransmits - net.dup_received,
            scripted_drops,
            "{} re-sends for {scripted_drops} lost frames, {} of them duplicates at the receiver",
            net.retransmits,
            net.dup_received
        );
    }

    #[test]
    fn lossy_scripted_drops_cost_one_rto_each_and_change_no_result() {
        let ranks = 2;
        let rounds = 130u64;
        // Every allreduce moves one frame per direction, so round `r` is
        // sequence number `r` on both directed links: ten rounds lose rank
        // 1's partial (1 → 0), ten others rank 0's (0 → 1).
        let lost_to: [Vec<u64>; 2] = [
            (0..10).map(|k| 5 + 12 * k).collect(),
            (0..10).map(|k| 11 + 12 * k).collect(),
        ];
        let run = |lossy: bool| -> Vec<(Vec<f64>, Vec<Duration>, crate::cg::NetStats)> {
            let transport = uds_transport();
            let _guard = match &transport {
                Transport::Uds { dir } => RunDirGuard(dir.clone()),
                _ => unreachable!(),
            };
            let options = MeshOptions {
                retransmit_timeout: LOSSY_RTO,
                ..test_options()
            };
            let plan = HaloPlan::empty(ranks);
            with_mesh_opts(ranks, &transport, &options, |ep| {
                let peer = 1 - ep.rank();
                if lossy {
                    script_drops(&ep, peer, &lost_to[peer]);
                }
                let stats = ep.stats.clone();
                let comm = RankComm::over_process(&plan, ep);
                let mut took = Vec::new();
                let sums = (0..rounds)
                    .map(|round| {
                        let started = Instant::now();
                        let sum = comm
                            .allreduce_sum(0.31 * comm.rank() as f64 + 1e-3 * round as f64)
                            .unwrap();
                        took.push(started.elapsed());
                        sum
                    })
                    .collect();
                drop(comm);
                (sums, took, sum_link_stats(&stats))
            })
        };
        let clean = run(false);
        let lossy = run(true);
        for (rank, ((clean_sums, _, _), (lossy_sums, _, _))) in clean.iter().zip(&lossy).enumerate()
        {
            for (round, (c, l)) in clean_sums.iter().zip(lossy_sums).enumerate() {
                assert_eq!(c.to_bits(), l.to_bits(), "rank {rank}, round {round}");
            }
        }
        let scripted = lost_to.iter().map(|lost| lost.len() as u64).sum();
        assert_only_lost_frames_were_resent(lossy.iter().map(|(_, _, net)| *net), scripted);
        // The rank a lost frame was addressed to sits out the RTO in that
        // round; its sender already has every partial and moves on.
        let stalls = lost_to
            .iter()
            .zip(&lossy)
            .flat_map(|(lost, (_, took, _))| lost.iter().map(|&round| took[round as usize]))
            .collect();
        assert_stall_is_one_rto("2-rank allreduce", stalls);
    }

    #[test]
    fn lossy_frame_toward_another_peer_is_resent_while_blocked_on_this_one() {
        let ranks = 3;
        let rounds = 9u64;
        let transport = uds_transport();
        let _guard = match &transport {
            Transport::Uds { dir } => RunDirGuard(dir.clone()),
            _ => unreachable!(),
        };
        let options = MeshOptions {
            retransmit_timeout: LOSSY_RTO,
            ..test_options()
        };
        // A ring 0 → 2 → 1 → 0 in which every frame 0 → 2 loses its first
        // attempt: rank 0 spends each round blocked on rank 1, so the frame
        // that needs re-sending is on a link it is *not* receiving from.
        let token = |rank: usize| Message::GatherScalar {
            rank: rank as u32,
            value: 1.0,
        };
        let outcomes = with_mesh_opts(ranks, &transport, &options, |ep| {
            let (from, to) = [(1, 2), (2, 0), (0, 1)][ep.rank()];
            if ep.rank() == 0 {
                script_drops(&ep, to, &(0..rounds).collect::<Vec<_>>());
            }
            let stats = ep.stats.clone();
            let mut took = Vec::new();
            for _ in 0..rounds {
                let started = Instant::now();
                if ep.rank() == 0 {
                    ep.send(to, &token(0), "ring").unwrap();
                    ep.recv(from, Tag::GatherScalar, "ring").unwrap();
                } else {
                    ep.recv(from, Tag::GatherScalar, "ring").unwrap();
                    ep.send(to, &token(ep.rank()), "ring").unwrap();
                }
                took.push(started.elapsed());
            }
            drop(ep);
            (took, sum_link_stats(&stats))
        });
        assert_only_lost_frames_were_resent(outcomes.iter().map(|(_, net)| *net), rounds);
        let (took, _) = outcomes.into_iter().next().expect("rank 0 ran");
        assert_stall_is_one_rto("3-rank ring", took);
    }

    #[test]
    fn dead_link_still_delivers_what_its_reader_queued() {
        let ranks = 2;
        let transport = uds_transport();
        let _guard = match &transport {
            Transport::Uds { dir } => RunDirGuard(dir.clone()),
            _ => unreachable!(),
        };
        let outcomes = with_mesh(ranks, &transport, |ep| {
            if ep.rank() == 1 {
                // Say one last thing and leave: the drain on drop waits for
                // rank 0's ack, then closes the socket.
                let last = Message::GatherScalar {
                    rank: 1,
                    value: 4.25,
                };
                ep.send(0, &last, "last words").unwrap();
                return None;
            }
            // Only start receiving once the link is known dead.
            let link_died = Instant::now() + Duration::from_secs(20);
            while !ep.with_link(1, |link| link.shared.is_down()) {
                assert!(Instant::now() < link_died, "rank 1 never hung up");
                std::thread::yield_now();
            }
            let first = ep.recv(1, Tag::GatherScalar, "last words");
            let second = ep.recv(1, Tag::GatherScalar, "last words");
            Some((first, second))
        });
        let (first, second) = outcomes.into_iter().flatten().next().expect("rank 0 ran");
        match first {
            Ok(Message::GatherScalar { rank: 1, value }) => assert_eq!(value, 4.25),
            other => panic!("the queued frame was lost to the disconnect: {other:?}"),
        }
        match second {
            Err(CommError::Disconnected { peer: Some(1), .. }) => {}
            other => panic!("expected the disconnect after the drain, got {other:?}"),
        }
    }

    #[test]
    fn exhausted_retries_surface_as_timeout_not_a_hang() {
        let started = Instant::now();
        let ranks = 2;
        let transport = uds_transport();
        let _guard = match &transport {
            Transport::Uds { dir } => RunDirGuard(dir.clone()),
            _ => unreachable!(),
        };
        let options = MeshOptions {
            // Every data record — including retransmissions — is dropped, so
            // the sender's retries must exhaust and fail typed.
            chaos: Some(ChaosConfig::parse("drop=1,all_attempts=1").unwrap()),
            max_retries: 2,
            retransmit_timeout: Duration::from_millis(5),
            read_timeout: Some(Duration::from_secs(2)),
            connect_timeout: Duration::from_secs(20),
            ..MeshOptions::default()
        };
        let outcomes = with_mesh_opts(ranks, &transport, &options, |ep| {
            if ep.rank() == 1 {
                ep.send(
                    0,
                    &Message::GatherScalar {
                        rank: 1,
                        value: 1.0,
                    },
                    "allreduce gather",
                )
                .expect("the first transmission is accepted locally");
                ep.recv(0, Tag::GatherScalar, "allreduce gather")
            } else {
                ep.recv(1, Tag::GatherScalar, "allreduce gather")
            }
        });
        for (rank, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                // Rank 1 (the sender whose retries exhaust) must see the
                // ack-timeout. Rank 0 is passive: it sees either its own
                // read deadline or — when rank 1 fails first and closes the
                // mesh — the peer's disappearance. Both are typed; neither
                // hangs.
                Err(CommError::Timeout { .. }) => {}
                Err(CommError::Disconnected { .. }) if rank == 0 => {}
                other => panic!("rank {rank}: expected a typed timeout, got {other:?}"),
            }
        }
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "retry exhaustion took {:?} — the bounded-retry path is hanging",
            started.elapsed()
        );
    }

    #[test]
    fn corrupt_with_retries_disabled_is_a_typed_wire_error() {
        let ranks = 2;
        let transport = uds_transport();
        let _guard = match &transport {
            Transport::Uds { dir } => RunDirGuard(dir.clone()),
            _ => unreachable!(),
        };
        let options = MeshOptions {
            chaos: Some(ChaosConfig::parse("corrupt=1").unwrap()),
            max_retries: 0,
            read_timeout: Some(Duration::from_secs(5)),
            connect_timeout: Duration::from_secs(20),
            ..MeshOptions::default()
        };
        let park = Barrier::new(ranks);
        let outcomes = with_mesh_opts(ranks, &transport, &options, |ep| {
            if ep.rank() == 1 {
                let sent = ep.send(
                    0,
                    &Message::GatherScalar {
                        rank: 1,
                        value: 1.0,
                    },
                    "allreduce gather",
                );
                // Keep the sockets open until rank 0 has seen the corrupt
                // frame (an early drop would race a disconnect in).
                park.wait();
                sent.map(|()| None)
            } else {
                let got = ep.recv(1, Tag::GatherScalar, "allreduce gather");
                park.wait();
                got.map(Some)
            }
        });
        let rank0 = outcomes.into_iter().next().expect("rank 0 ran");
        match rank0 {
            Err(CommError::Wire(WireError::BadMagic { .. }))
            | Err(CommError::Wire(WireError::VersionMismatch { .. })) => {}
            other => panic!("expected the corrupt frame's wire error, got {other:?}"),
        }
    }

    #[test]
    fn silent_peer_trips_the_read_deadline() {
        let ranks = 2;
        let transport = uds_transport();
        let _guard = match &transport {
            Transport::Uds { dir } => RunDirGuard(dir.clone()),
            _ => unreachable!(),
        };
        let options = MeshOptions {
            read_timeout: Some(Duration::from_millis(200)),
            connect_timeout: Duration::from_secs(20),
            ..MeshOptions::default()
        };
        let park = Barrier::new(ranks);
        let outcomes = with_mesh_opts(ranks, &transport, &options, |ep| {
            if ep.rank() == 1 {
                // Connect, handshake — then go silent mid-collective.
                park.wait();
                None
            } else {
                let got = ep.recv(1, Tag::GatherScalar, "collective");
                park.wait();
                Some(got)
            }
        });
        let rank0 = outcomes.into_iter().flatten().next().expect("rank 0 ran");
        match rank0 {
            Err(CommError::Timeout {
                peer: 1,
                during: "collective",
            }) => {}
            other => panic!("expected the read deadline to fire, got {other:?}"),
        }
    }

    #[test]
    fn elastic_mesh_relinks_a_replaced_rank_and_agrees_at_the_barrier() {
        let ranks = 3;
        let transport = uds_transport();
        let _guard = match &transport {
            Transport::Uds { dir } => RunDirGuard(dir.clone()),
            _ => unreachable!(),
        };
        let options = MeshOptions {
            elastic: true,
            connect_timeout: Duration::from_secs(20),
            read_timeout: Some(Duration::from_secs(20)),
            ..MeshOptions::default()
        };
        let mesh_up = Barrier::new(ranks);
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for rank in 0..ranks {
                let transport = transport.clone();
                let options = options.clone();
                let mesh_up = &mesh_up;
                handles.push(scope.spawn(move || {
                    let ep = connect_mesh(rank, ranks, &transport, &options)
                        .expect("mesh connect failed");
                    mesh_up.wait();
                    if rank == 1 {
                        // Die, then come back as the epoch-1 incarnation and
                        // join the barrier fresh — exactly what a respawned
                        // worker process does.
                        drop(ep);
                        let newcomer_options = MeshOptions {
                            epochs: vec![0, 1, 0],
                            ..options
                        };
                        let ep = connect_mesh(rank, ranks, &transport, &newcomer_options)
                            .expect("newcomer reconnect failed");
                        let resume = ep.rejoin_barrier(0).expect("newcomer barrier failed");
                        assert_eq!(resume, 7, "newcomer must adopt the survivors' iteration");
                    } else {
                        // Survivors: notice the death mid-collective, relink
                        // the newcomer, meet the barrier.
                        match ep.recv(1, Tag::GatherScalar, "collective") {
                            Err(CommError::Disconnected { peer: Some(1), .. }) => {}
                            other => panic!("rank {rank}: expected rank 1's death, got {other:?}"),
                        }
                        ep.relink(1).expect("relink failed");
                        let resume = ep.rejoin_barrier(7).expect("survivor barrier failed");
                        assert_eq!(resume, 7);
                    }
                }));
            }
            for h in handles {
                h.join().expect("rank thread panicked");
            }
        });
    }
}
