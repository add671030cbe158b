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
//! record, which the receiver reassembles **in sequence order** (dropping
//! duplicates, holding reordered records back) and acknowledges
//! cumulatively. The ack is owed rather than sent alone: it rides ahead of
//! the receiver's next record to that peer, in the same `write`, or is
//! flushed before the receiver sleeps and while it drains a closing link.
//! A record parked ahead of the next expected one, or a rejected frame in
//! its place, reveals a gap: the receiver NACKs the gap once and the sender
//! re-sends that record at once, so a loss a later frame reveals costs
//! about one round trip (a clean wire never NACKs). A loss nothing reveals
//! waits for the timer: the sender retransmits the oldest unacknowledged
//! record with exponential backoff until [`MeshOptions::max_retries`] is
//! exhausted. The timer runs only on a link with a fault plan
//! ([`MeshOptions::chaos`]): a stream socket cannot lose a record, so a
//! clean link never re-sends on a timer, however long its peer stalls. A
//! dead peer is still an EOF there, and a wedged one a read timeout.
//!
//! A rank blocked in a receive reads and parses its own socket (it *pumps*
//! the link: `poll(2)`, one read, every complete record), so a clean frame
//! reaches the thread that wants it without a hand-off. It first polls
//! without sleeping, on the in-process link's spin → yield schedule, so a
//! reply already on its way costs no kernel wake-up either; then it sleeps
//! until the earliest of its read deadline and the retransmit deadlines of
//! all its links, and re-sends what expired, so a frame lost toward peer B
//! is re-sent while the rank waits on peer A; a closing link drains the
//! same way. Nothing else moves a link: a rank runs no thread per link, so
//! a rank that computes acks at its next communication call, and on a
//! link with a fault plan a peer's timer never fires on it as long as its
//! gaps between calls stay below half the retransmission timeout.
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
//! reassembly buffer rather than scattered zero-copy out of the socket
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
use std::collections::{BTreeMap, VecDeque};
use std::ffi::OsString;
use std::fmt;
use std::io::{Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::os::unix::ffi::{OsStrExt, OsStringExt};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use feir_recovery::RecoveryPolicy;
use feir_sparse::{SpmvFormat, ENV_SPMV_FORMAT};
use feir_wire::chaos::{
    parse_envelope, ChaosLink, FaultPlan, FaultRates, LinkStats, ENVELOPE_LEN, ENV_ACK, ENV_DATA,
    ENV_NACK,
};
use feir_wire::{FrameReader, Message, RankErrorKind, Tag, WireError, WorkerConfig};

use crate::cg::DistSolveResult;
use crate::comm::{CommError, HaloPlan, Link, RankComm};
use crate::elastic::ElasticCfg;
use crate::partition::RankPartition;
use crate::rank_loop::{RankCtx, RankOutcome};
use crate::resilient::{register_protected, DistResilienceConfig, DistSolver};

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
    /// (capped at 1 s). Only links with a fault plan run the timer.
    pub retransmit_timeout: Duration,
    /// Deterministic fault injection; `None` runs every link clean.
    pub chaos: Option<ChaosConfig>,
    /// Enables rank elasticity: a blocked receive reads its other links on
    /// every liveness wake (20 ms at most) and aborts on *any* dead peer, not
    /// just the one it waits on, so every rank discovers a failure and can
    /// park at the rejoin barrier.
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
    fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_read_timeout(dur),
            Stream::Tcp(s) => s.set_read_timeout(dur),
        }
    }

    /// Blocks until the socket is readable — data, EOF or an error is
    /// waiting — or `wait` has passed (rounded up to whole milliseconds;
    /// zero only checks). `false` on timeout or a signal.
    fn readable(&self, wait: Duration) -> bool {
        match self {
            Stream::Unix(s) => fd_readable(s, wait),
            Stream::Tcp(s) => fd_readable(s, wait),
        }
    }
}

/// Blocks in `poll(2)` until `fd` is readable — for a socket: data, EOF or
/// an error; for a listener: a pending connection — or `wait` has passed
/// (rounded up to whole milliseconds; zero only checks). `false` on timeout
/// or a signal.
fn fd_readable(fd: &impl std::os::unix::io::AsRawFd, wait: Duration) -> bool {
    use std::os::raw::{c_int, c_short, c_ulong};
    /// `struct pollfd`: descriptor, requested events, returned events.
    #[repr(C)]
    struct PollFd(c_int, c_short, c_short);
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }
    const POLLIN: c_short = 1;
    let mut pollfd = PollFd(fd.as_raw_fd(), POLLIN, 0);
    let millis = wait.as_micros().div_ceil(1000).min(c_int::MAX as u128) as c_int;
    // SAFETY: `pollfd` is a live, exclusively borrowed `struct pollfd`
    // laid out as the C one (`#[repr(C)]`: int, short, short) and `nfds`
    // is 1, so the kernel reads and writes exactly that struct. The
    // descriptor stays open for the call because its owner is borrowed.
    unsafe { poll(&mut pollfd, 1, millis) > 0 }
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
/// [`RLink::down_error`]).
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

/// Liveness bound of a blocked receive: it wakes at least this often to read
/// its other links, so it notices a dead peer and acks what the others sent.
/// Retransmissions do not wait for it — a blocked receiver sleeps until the
/// earliest retransmit deadline (see [`ProcessEndpoint::await_frame`]).
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

/// The least one pump reads at once (a clean `ff_wire` record is ≈0.6 kB).
const READ_CHUNK: usize = 16 << 10;

/// The longest inner frame a data record may announce.
const MAX_INNER: usize = feir_wire::HEADER_LEN + feir_wire::MAX_PAYLOAD as usize;

/// The receive side of one link, moved forward by [`RLink::pump`].
#[derive(Debug)]
struct Inbound {
    /// `buf[..filled]` is read but not parsed: at most one partial record.
    buf: Vec<u8>,
    filled: usize,
    /// Sequence number of the next record to deliver.
    expected: u64,
    /// Records that arrived ahead of `expected`, parked until the gap fills.
    reordered: BTreeMap<u64, Message>,
    /// The `expected` last NACKed: one NACK per gap, so a spurious re-send
    /// cannot chain.
    nacked: Option<u64>,
    /// Exactly-once, in-order messages no receive has taken yet.
    delivered: VecDeque<Message>,
}

/// One established reliable link to a peer rank. It is owned by the rank's
/// one thread and moves only inside that rank's communication calls: a send
/// writes, a blocked receive pumps, acks and retransmits, and the drop
/// drains.
#[derive(Debug)]
struct RLink {
    peer: usize,
    /// The socket, behind the fault plan and the owed ack.
    writer: ChaosLink<Stream>,
    next_seq: u64,
    unacked: VecDeque<SendRecord>,
    inbound: Inbound,
    /// Why the link died; `None` while it is healthy.
    down: Option<LinkDown>,
    /// Tag-demultiplexer stash (e.g. a split-phase gather posted ahead of
    /// the same stream's halo payload).
    inbox: VecDeque<Message>,
    max_retries: u32,
    rto: Duration,
    /// Whether the retransmit timer runs: only where a fault plan can lose
    /// a record. A stream socket delivers every record it accepted, so a
    /// clean link waits for its acks instead of re-sending into a stall.
    timed: bool,
    stats: Arc<LinkStats>,
}

impl RLink {
    /// Wraps a handshaken stream in the reliability sublayer: chaos writer,
    /// sequence state and receive side. `stats` is owned by the endpoint and
    /// shared into the link, so the counters survive a relink (elastic
    /// rejoin) and keep accumulating across link incarnations.
    fn new(
        stream: Stream,
        rank: usize,
        peer: usize,
        options: &MeshOptions,
        stats: Arc<LinkStats>,
    ) -> RLink {
        let plan = options.chaos.as_ref().map(|c| c.plan_for(rank, peer));
        let timed = plan.is_some();
        RLink {
            peer,
            writer: ChaosLink::new(stream, plan.unwrap_or_else(FaultPlan::clean), stats.clone()),
            next_seq: 0,
            unacked: VecDeque::new(),
            inbound: Inbound {
                buf: vec![0; READ_CHUNK],
                filled: 0,
                expected: 0,
                reordered: BTreeMap::new(),
                nacked: None,
                delivered: VecDeque::new(),
            },
            down: None,
            inbox: VecDeque::new(),
            max_retries: options.max_retries,
            rto: options.retransmit_timeout.max(Duration::from_millis(1)),
            timed,
            stats,
        }
    }

    /// Records why the link died; the first cause wins.
    fn mark_down(&mut self, why: LinkDown) {
        self.down.get_or_insert(why);
    }

    /// The typed error of a dead link, `None` while it is healthy. A stored
    /// wire error is yielded once; later calls degrade to `Disconnected`.
    fn down_error(&mut self, during: &'static str) -> Option<CommError> {
        let peer = self.peer;
        let disconnected = CommError::Disconnected {
            peer: Some(peer),
            during,
        };
        Some(match self.down.as_mut()? {
            LinkDown::AckTimeout => CommError::Timeout { peer, during },
            LinkDown::Corrupt(slot) => slot.take().map_or(disconnected, CommError::Wire),
            LinkDown::Eof => disconnected,
        })
    }

    fn is_down(&self) -> bool {
        self.down.is_some()
    }

    /// `true` if a write went out; a failed one marks the link dead.
    fn wrote(&mut self, written: std::io::Result<()>) -> bool {
        if written.is_err() {
            self.mark_down(LinkDown::Eof);
        }
        written.is_ok()
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
    /// `None` when nothing is in flight, the link is dead or it runs no
    /// timer.
    fn next_expiry(&self) -> Option<Instant> {
        if self.is_down() || !self.timed {
            return None;
        }
        let head = self.unacked.front()?;
        Some(head.sent_at + self.backoff(head.attempt))
    }

    /// Numbers `frame` as this link's next record, queues it for
    /// retransmission and writes its first attempt. `false` means the write
    /// failed and the link is now marked dead.
    fn transmit(&mut self, frame: &[u8]) -> bool {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.unacked.push_back(SendRecord {
            seq,
            attempt: 0,
            sent_at: Instant::now(),
            frame: frame.to_vec(),
        });
        let written = self.writer.write_data(seq, 0, frame);
        self.wrote(written)
    }

    /// Writes the cumulative ack this link owes its peer, if any. `false`:
    /// the write failed and the link is now marked dead.
    fn flush_ack(&mut self) -> bool {
        let written = self.writer.flush_ack();
        self.wrote(written)
    }

    /// Applies a cumulative ack: "every record below `seq` was delivered."
    fn acknowledge(&mut self, seq: u64) {
        let mut last_sent = None;
        while self.unacked.front().is_some_and(|r| r.seq < seq) {
            last_sent = self.unacked.pop_front().map(|r| r.sent_at).max(last_sent);
        }
        // Progress restarts the survivor's timer from the acked records' last
        // send: its flight time was spent behind them, and its ack cannot
        // come before theirs. Reading the ack late does not push the timer
        // back, and a pure duplicate ack, which pops nothing, must not keep
        // resetting it or retransmission would starve.
        if let (Some(acked), Some(head)) = (last_sent, self.unacked.front_mut()) {
            head.sent_at = head.sent_at.max(acked);
        }
    }

    /// Retransmits the oldest unacknowledged record if its backoff expired;
    /// a link without a timer re-sends nothing. Returns `false` when the
    /// link is (now) dead.
    fn service_retransmits(&mut self) -> bool {
        if self.is_down() {
            return false;
        }
        let Some(head) = self.unacked.front().filter(|_| self.timed) else {
            return true;
        };
        if head.sent_at.elapsed() < self.backoff(head.attempt) {
            return true;
        }
        if head.attempt >= self.max_retries {
            // Give up: fail the link rather than hang the solve.
            self.unacked.clear();
            self.mark_down(LinkDown::AckTimeout);
            return false;
        }
        self.resend_head()
    }

    /// The peer reported record `seq` missing: re-send it now if it is the
    /// head on its first attempt. A re-sent record is left to its timer, so a
    /// stale or repeated NACK re-sends nothing. `false`: the link is dead.
    fn nack(&mut self, seq: u64) -> bool {
        if self.is_down() {
            return false;
        }
        let first = |head: &SendRecord| head.seq == seq && head.attempt == 0;
        if self.max_retries > 0 && self.unacked.front().is_some_and(first) {
            return self.resend_head();
        }
        true
    }

    /// Re-sends the head record, if any, and re-arms its timer. `false`:
    /// the link is dead.
    fn resend_head(&mut self) -> bool {
        let Some(head) = self.unacked.front_mut() else {
            return true;
        };
        head.attempt += 1;
        head.sent_at = Instant::now();
        feir_trace::instant(feir_trace::Phase::Retransmit);
        let written = self.writer.write_data(head.seq, head.attempt, &head.frame);
        self.wrote(written)
    }

    /// Handles one data record: delivers it in sequence order, owes the peer
    /// a cumulative ack and NACKs the gap it reveals. `false`: the link died.
    fn receive(&mut self, seq: u64, frame: Result<Message, WireError>) -> bool {
        let inbound = &mut self.inbound;
        match frame {
            Ok(msg) => {
                let gap = seq > inbound.expected;
                if seq < inbound.expected {
                    self.stats.dup_received.fetch_add(1, Ordering::Relaxed);
                } else if gap {
                    // Reordered ahead: park until the gap fills.
                    inbound.reordered.insert(seq, msg);
                } else {
                    inbound.delivered.push_back(msg);
                    inbound.expected += 1;
                    while let Some(next) = inbound.reordered.remove(&inbound.expected) {
                        inbound.delivered.push_back(next);
                        inbound.expected += 1;
                    }
                }
                // Always (re-)acknowledge: a lost ack is recovered by the
                // duplicate the sender's retransmission causes. The ack is
                // owed, not written: it rides this link's next write — a
                // data record, or the NACK below, which it precedes so the
                // NACK finds the missing record at the head of the sender's
                // queue — or is flushed before this rank sleeps.
                self.writer.owe_ack(inbound.expected);
                !gap || self.report_gap()
            }
            Err(e) => {
                self.stats.rejected.fetch_add(1, Ordering::Relaxed);
                if self.max_retries == 0 {
                    self.mark_down(LinkDown::Corrupt(Some(e)));
                    return false;
                }
                // Not yet delivered: a gap at `expected`, which the RTO
                // covers if its one NACK is already spent.
                seq < inbound.expected || self.report_gap()
            }
        }
    }

    /// NACKs the gap at `expected` unless it already was. `false`: the
    /// write failed and the link is now marked dead.
    fn report_gap(&mut self) -> bool {
        let expected = self.inbound.expected;
        if self.inbound.nacked.replace(expected) == Some(expected) {
            return true;
        }
        let written = self.writer.write_nack(expected);
        self.wrote(written)
    }

    /// Moves the receive side forward: waits up to `wait` for the socket to
    /// turn readable, reads once and handles every complete record in the
    /// buffer — acks and NACKs go to the send side, data records through
    /// [`RLink::receive`]. A partial record stays buffered for the next
    /// pump. `false` means the link is dead (marked down, now or before).
    fn pump(&mut self, wait: Duration) -> bool {
        use std::io::ErrorKind;
        if self.is_down() {
            return false;
        }
        let (socket, inbound) = (self.writer.get_mut(), &mut self.inbound);
        if !socket.readable(wait) {
            return true;
        }
        match socket.read(&mut inbound.buf[inbound.filled..]) {
            Ok(n) if n > 0 => inbound.filled += n,
            Err(e) if matches!(e.kind(), ErrorKind::Interrupted | ErrorKind::WouldBlock) => {
                return true
            }
            _ => {
                self.mark_down(LinkDown::Eof);
                return false;
            }
        }
        let (mut at, mut alive) = (0, true);
        while alive {
            let parsed = &self.inbound.buf[at..self.inbound.filled];
            let Some(env) = parsed.first_chunk::<ENVELOPE_LEN>() else {
                break;
            };
            let (kind, seq, inner_len) = parse_envelope(env);
            alive = match kind {
                ENV_ACK => {
                    self.acknowledge(seq);
                    at += ENVELOPE_LEN;
                    true
                }
                ENV_NACK => {
                    at += ENVELOPE_LEN;
                    self.nack(seq)
                }
                ENV_DATA if inner_len as usize <= MAX_INNER => {
                    let end = ENVELOPE_LEN + inner_len as usize;
                    if parsed.len() < end {
                        // Wait for the rest, with room for all of it in one read.
                        if self.inbound.buf.len() < end {
                            self.inbound.buf.resize(end, 0);
                        }
                        break;
                    }
                    let frame = feir_wire::decode_frame_buf(&parsed[ENVELOPE_LEN..end]);
                    at += end;
                    self.receive(seq, frame)
                }
                _ => {
                    self.mark_down(LinkDown::Corrupt(None));
                    false
                }
            };
        }
        let inbound = &mut self.inbound;
        inbound.buf.copy_within(at..inbound.filled, 0);
        inbound.filled -= at;
        alive
    }
}

impl Drop for RLink {
    /// Graceful drain, then close. The last frames of a solve may still be
    /// waiting on a retransmission (chaos can drop the first attempt), and
    /// closing the socket now would lose them forever. So the drop drives
    /// the retransmit timer (where the link runs one) and reads the acks
    /// itself until every record is acked, bounded by the time the retries
    /// would take to exhaust so a peer that is alive but never acks cannot
    /// stall teardown for long.
    /// Each pass first pays the ack this side owes: the peer may be draining
    /// too, waiting for exactly that ack. Dropping an endpoint therefore
    /// closes every socket, which is what cascades a failure through the
    /// mesh and unblocks the peers.
    fn drop(&mut self) {
        const BUDGET_CAP: Duration = Duration::from_secs(3);
        let mut budget = Duration::ZERO;
        for attempt in 0..=self.max_retries {
            budget += self.backoff(attempt);
            if budget >= BUDGET_CAP {
                break;
            }
        }
        let deadline = Instant::now() + budget.min(BUDGET_CAP);
        while self.flush_ack() && self.service_retransmits() && !self.unacked.is_empty() {
            let wake = self
                .next_expiry()
                .map_or(deadline, |expiry| expiry.min(deadline));
            let now = Instant::now();
            if now >= deadline || !self.pump(wake.saturating_duration_since(now)) {
                break;
            }
        }
    }
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

/// One rank's view of the established mesh: a reliable link per peer and
/// the retained listener (for elastic re-accepts).
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

    /// Runs `f` on the link to `peer`. Asking for a link there is none of —
    /// to this rank, past the mesh, or one a failed relink tore down — is a
    /// typed error.
    fn with_link<T>(
        &self,
        peer: usize,
        f: impl FnOnce(&mut RLink) -> Result<T, CommError>,
    ) -> Result<T, CommError> {
        let no_link = || CommError::Protocol(format!("rank {}: no link to rank {peer}", self.rank));
        let mut slot = self.links.get(peer).ok_or_else(no_link)?.borrow_mut();
        f(slot.as_mut().ok_or_else(no_link)?)
    }

    /// Runs `f` on `link`, the caller's borrow of `peer`'s link, and then on
    /// every other link of this endpoint.
    fn each_link(&self, peer: usize, link: &mut RLink, mut f: impl FnMut(&mut RLink)) {
        f(link);
        for (p, slot) in self.links.iter().enumerate() {
            if p != peer {
                if let Some(other) = slot.borrow_mut().as_mut() {
                    f(other);
                }
            }
        }
    }

    fn send(&self, peer: usize, msg: &Message, during: &'static str) -> Result<(), CommError> {
        self.with_link(peer, |link| {
            if let Some(err) = link.down_error(during) {
                return Err(err);
            }
            let mut scratch = self.scratch.borrow_mut();
            scratch.clear();
            msg.encode_into(&mut scratch);
            if !link.transmit(&scratch) {
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
            let stashed = link.inbox.iter().position(|m| m.tag() == want);
            if let Some(msg) = stashed.and_then(|at| link.inbox.remove(at)) {
                return Ok(msg);
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

    /// The one blocking wait of the transport: pumps `peer`'s link itself
    /// and pulls its in-order messages through `sift` until it takes one,
    /// and meanwhile drives the retransmit timer of **every** link of this
    /// endpoint — the thread a lost frame stalls is this one, so it sleeps
    /// in `poll(2)` until `min(earliest retransmit deadline, read deadline,
    /// liveness poll)` rather than a fixed tick, and a rank blocked on peer
    /// A still re-sends a frame lost toward peer B. Before it sleeps it
    /// polls the socket on the in-process link's spin → yield schedule
    /// ([`crate::comm::poll_budgeted`]): a reply that lands within
    /// microseconds costs no kernel wake-up. And before it sleeps it writes
    /// the ack every link owes, so no peer waits on this rank's sleep for
    /// one. `link` is `peer`'s link, already borrowed by the caller; the
    /// others are reached through their own cells.
    fn await_frame<T>(
        &self,
        peer: usize,
        link: &mut RLink,
        during: &'static str,
        deadline: Option<Instant>,
        any_dead_peer_aborts: bool,
        mut sift: impl FnMut(Message) -> Result<Sift<T>, CommError>,
    ) -> Result<T, CommError> {
        loop {
            if let Some(msg) = link.inbound.delivered.pop_front() {
                match sift(msg)? {
                    Sift::Take(taken) => return Ok(taken),
                    Sift::Stash(msg) => link.inbox.push_back(msg),
                    Sift::Discard => {}
                }
                continue;
            }
            // A dead link still owes the caller what it delivered before it
            // died (drained above); then the death is reported.
            if let Some(err) = link.down_error(during) {
                return Err(err);
            }
            let now = Instant::now();
            let mut wake = now + TICK;
            if let Some(deadline) = deadline {
                wake = wake.min(deadline);
            }
            self.each_link(peer, link, |l| {
                if let Some(expiry) = l.next_expiry() {
                    // An ack landing during the sleep pops the head and
                    // re-arms its successor for one `rto` after the head's
                    // last send, which can fall before the popped head's
                    // backed-off deadline; never sleeping past `now + rto`
                    // cannot miss it.
                    wake = wake.min(expiry).min(now + l.rto);
                }
            });
            let polled = crate::comm::poll_budgeted(|| {
                let alive = link.pump(Duration::ZERO);
                let due = Instant::now() >= wake;
                (!alive || due || !link.inbound.delivered.is_empty()).then_some(())
            });
            if polled.is_none() {
                self.each_link(peer, link, |l| {
                    l.flush_ack();
                });
                link.pump(wake.saturating_duration_since(Instant::now()));
            }
            if !link.inbound.delivered.is_empty() || Instant::now() < wake {
                continue;
            }
            // Woke with nothing delivered. Read what waits on the other
            // links first: an ack that arrived but was not read yet cannot
            // fire a spurious retransmit, a frame is owed its ack, and an
            // EOF marks a dead peer's link down. Then re-send what expired —
            // a no-op on links whose head record is not due yet.
            self.each_link(peer, link, |l| {
                l.pump(Duration::ZERO);
                l.service_retransmits();
            });
            if any_dead_peer_aborts {
                // `peer`'s own death is left to the drain above.
                let dead = self.links.iter().enumerate().find(|(p, slot)| {
                    *p != peer && slot.borrow().as_ref().is_some_and(RLink::is_down)
                });
                if let Some((dead, _)) = dead {
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
        let link = RLink::new(
            stream,
            self.rank,
            failed,
            &self.options,
            self.stats[failed].clone(),
        );
        *self.links[failed].borrow_mut() = Some(link);
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

/// Accepts one inbound connection before `deadline`. The listener is
/// non-blocking and the rank waits in `poll(2)` on it, so a dial is taken
/// the moment it lands and a never-arriving one cannot hang the rank.
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
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(CommError::Timeout {
                        peer: rank,
                        during: "mesh accept",
                    });
                }
                match listener {
                    MeshListener::Unix(l) => fd_readable(l, left),
                    MeshListener::Tcp(l) => fd_readable(l, left),
                };
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
        let link = RLink::new(stream, rank, peer, options, stats[peer].clone());
        links[peer] = RefCell::new(Some(link));
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
    })
}

// ---------------------------------------------------------------------------
// Worker processes: spec, launcher, worker entry point.
// ---------------------------------------------------------------------------

/// A deterministic multi-process solve: every worker rebuilds the same
/// problem from `(grid, rhs_seed)`, so no matrix data crosses the wire.
#[derive(Debug, Clone)]
pub struct ProcessSpec {
    /// Solver to run.
    pub solver: DistSolver,
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
            solver: DistSolver::Cg,
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
    /// Run the rank loop under this recovery policy, for any solver. `None`
    /// is an unprotected solve: the same loop at [`RecoveryPolicy::Ideal`].
    pub policy: Option<RecoveryPolicy>,
    /// Enable rank elasticity: workers park at the rejoin barrier on a
    /// peer's death instead of failing, awaiting [`WorkerHandles::respawn_rank`].
    /// Only the classic `cg`/`pcg` loops have a rejoin repair; a merged
    /// solver under an elastic fleet is refused by every worker, which
    /// [`WorkerHandles::join`] reports as [`ProcessError::Worker`].
    pub elastic: bool,
    /// Deterministic transport fault injection for every worker's links.
    pub chaos: Option<ChaosConfig>,
    /// Overrides [`MeshOptions::retransmit_timeout`].
    pub retransmit_timeout: Option<Duration>,
    /// Per-iteration throttle sleep inside each worker's rank loop — lets
    /// kill/respawn tests land a failure mid-solve deterministically
    /// without a huge problem.
    pub throttle: Option<Duration>,
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
    /// newcomer at the rejoin barrier and the solve continues. Rank 0 is the
    /// result collector — [`join`](Self::join) takes the residual history
    /// from its report — and cannot be respawned.
    pub fn respawn_rank(&mut self, rank: usize) -> std::io::Result<()> {
        // Make sure the old incarnation is gone before its successor binds.
        let _ = self.children[rank].kill();
        let _ = self.children[rank].wait();
        self.launch.rank = rank;
        self.launch.epochs[rank] += 1;
        self.children[rank] = spawn_one(&self.worker, &self.launch)?;
        Ok(())
    }

    /// Collects every worker's report and assembles the solve result through
    /// the same fold as the in-process backend: owned blocks into `x`, and
    /// rank 0's iterations, history and collectives (the wire report
    /// carries no page counters, so those stay zero).
    pub fn join(mut self) -> Result<DistSolveResult, ProcessError> {
        let spec = self.launch.spec.clone();
        let n = spec.grid * spec.grid;
        let ranks = spec.ranks;
        let partition = RankPartition::new(n, ranks);

        let mut reports: Vec<Result<Message, ProcessError>> = Vec::with_capacity(ranks);
        let mut dumps: Vec<Message> = Vec::with_capacity(ranks);
        for (rank, child) in self.children.iter_mut().enumerate() {
            // Invariant: `spawn_one` pipes every worker's stdout.
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

        let mut outcomes = Vec::with_capacity(ranks);
        let mut first_error: Option<ProcessError> = None;
        let mut comm_error: Option<ProcessError> = None;
        for (rank, report) in reports.into_iter().enumerate() {
            match report {
                Ok(Message::RankResult {
                    rank: reported,
                    iterations,
                    collectives,
                    x,
                    history,
                }) => {
                    if reported as usize != rank {
                        return Err(ProcessError::Protocol {
                            rank,
                            message: format!("report claims rank {reported}"),
                        });
                    }
                    let own = partition.range(rank).len();
                    if x.len() != own {
                        return Err(ProcessError::Protocol {
                            rank,
                            message: format!(
                                "solution block has {} entries, expected {own}",
                                x.len()
                            ),
                        });
                    }
                    outcomes.push(RankOutcome {
                        rank,
                        x,
                        iterations: iterations as usize,
                        history,
                        allreduces: collectives,
                        ..RankOutcome::default()
                    });
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
        let outcome = RankOutcome::fold(&partition, outcomes);
        Ok(DistSolveResult {
            net,
            trace,
            ..DistSolveResult::assemble(&a, &b, spec.tolerance, ranks, outcome)
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
    // Invariant: stdin was piped above.
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

/// [`spawn_workers_with`] under default [`WorkerOptions`] — the unprotected,
/// fault-free fleet.
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

/// The policy of a `WorkerConfig` policy code (0 is unprotected, which runs
/// the rank loop at `Ideal`), or `None` for an unknown code.
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
        // Invariant: `policy_of` lists every `RecoveryPolicy` variant.
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
            throttle_us: micros(options.throttle),
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
        let solver = DistSolver::ALL.get(usize::from(c.solver));
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
                throttle: duration(c.throttle_us),
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
/// solve later fails. Everything but the mesh is set up before
/// `connect_mesh`, so the first collective follows the handshake directly.
fn run_worker(launch: &Launch, links_out: &mut Vec<Arc<LinkStats>>) -> Result<Message, CommError> {
    let (spec, options) = (&launch.spec, &launch.options);
    let a = feir_sparse::generators::poisson_2d(spec.grid);
    let (_, b) = feir_sparse::generators::manufactured_rhs(&a, spec.rhs_seed);
    let partition = RankPartition::new(a.rows(), spec.ranks);
    let rank = launch.rank;
    let policy = options.policy.unwrap_or(RecoveryPolicy::Ideal);
    let config = DistResilienceConfig::for_policy(policy)
        .with_page_doubles(spec.page_doubles)
        .with_tolerance(spec.tolerance)
        .with_max_iterations(spec.max_iterations);
    let registry = Arc::new(feir_pagemem::PageRegistry::new());
    let pages = config.rank_pages(&partition)[rank];
    let ctx = RankCtx {
        throttle: options.throttle.unwrap_or(Duration::ZERO),
        elastic: options.elastic.then(|| ElasticCfg {
            newcomer: launch.epochs.get(rank).copied().unwrap_or(0) > 0,
            max_rejoins: 4,
        }),
        ..RankCtx::new(&a, &b, &partition, rank, &config, registry, pages)
    };
    if ctx.policy.needs_protection() {
        register_protected(&ctx.registry, rank, spec.solver, &ctx.pages);
    }
    let plan = HaloPlan::build(&a, &partition);
    let endpoint = connect_mesh(rank, spec.ranks, &launch.transport, &launch.mesh_options())?;
    *links_out = endpoint.stats.clone();
    let comm = RankComm::over_process(&plan, endpoint);
    let outcome = spec.solver.rank_solve(ctx, comm)?;
    Ok(Message::RankResult {
        rank: outcome.rank as u32,
        iterations: outcome.iterations as u64,
        collectives: outcome.allreduces,
        x: outcome.x,
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
    // Everything any thread of this process records belongs to this one
    // rank.
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
    use feir_wire::chaos::{encode_envelope, FaultKind};
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
                solver: DistSolver::Pcg,
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
                throttle: Some(Duration::from_micros(1500)),
            },
        };
        let back = round_trip(&launch);
        let mesh = back.mesh_options();
        assert_eq!(mesh.retransmit_timeout, Duration::from_micros(500));
        assert_eq!(back.options.throttle, Some(Duration::from_micros(1500)));
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

    /// Rank `rank`'s partial in the allreduce identity tests.
    fn allreduce_input(rank: usize) -> f64 {
        0.1 + rank as f64 * 0.3
    }

    /// Every rank's result of the in-process allreduce of [`allreduce_input`].
    fn in_process_allreduce(ranks: usize) -> Vec<f64> {
        let plan = HaloPlan::empty(ranks);
        std::thread::scope(|scope| {
            let handles: Vec<_> = RankComm::for_ranks(&plan, ranks)
                .into_iter()
                .map(|comm| {
                    scope.spawn(move || comm.allreduce_sum(allreduce_input(comm.rank())).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
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
                comm.allreduce_sum(allreduce_input(comm.rank())).unwrap()
            });
            for (a, b) in over_wire.iter().zip(&in_process_allreduce(ranks)) {
                assert_eq!(a.to_bits(), b.to_bits(), "{ranks} ranks");
            }
        }
    }

    #[test]
    fn mesh_accept_times_out_on_a_peer_that_never_dials() {
        let transport = uds_transport();
        let _guard = match &transport {
            Transport::Uds { dir } => RunDirGuard(dir.clone()),
            _ => unreachable!(),
        };
        let options = MeshOptions {
            connect_timeout: Duration::from_millis(150),
            ..test_options()
        };
        let started = Instant::now();
        let outcome = connect_mesh(0, 2, &transport, &options);
        let took = started.elapsed();
        assert!(
            matches!(
                outcome,
                Err(CommError::Timeout {
                    during: "mesh accept",
                    ..
                })
            ),
            "expected a mesh accept timeout, got {outcome:?}"
        );
        assert!(
            took >= Duration::from_millis(150) && took < Duration::from_secs(1),
            "accept gave up after {took:?}, not at its 150 ms deadline"
        );
    }

    #[test]
    fn mesh_accept_takes_a_late_dial() {
        let transport = uds_transport();
        let _guard = match &transport {
            Transport::Uds { dir } => RunDirGuard(dir.clone()),
            _ => unreachable!(),
        };
        let plan = HaloPlan::empty(2);
        let over_wire: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|rank| {
                    let (transport, plan) = (&transport, &plan);
                    scope.spawn(move || {
                        if rank == 1 {
                            std::thread::sleep(Duration::from_millis(50));
                        }
                        let ep = connect_mesh(rank, 2, transport, &test_options())
                            .expect("mesh connect failed");
                        RankComm::over_process(plan, ep)
                            .allreduce_sum(allreduce_input(rank))
                            .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (a, b) in over_wire.iter().zip(&in_process_allreduce(2)) {
            assert_eq!(a.to_bits(), b.to_bits());
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
    fn a_message_to_no_link_is_a_typed_error() {
        let transport = uds_transport();
        let _guard = match &transport {
            Transport::Uds { dir } => RunDirGuard(dir.clone()),
            _ => unreachable!(),
        };
        let outcomes = with_mesh(2, &transport, |ep| {
            // This rank and a rank past the mesh have no link.
            [ep.rank(), 5].map(|peer| {
                let sent = ep.send(peer, &scalar(1.0), "nowhere");
                let got = ep.recv(peer, Tag::GatherScalar, "nowhere");
                (sent, got)
            })
        });
        for (sent, got) in outcomes.into_iter().flatten() {
            assert!(matches!(sent, Err(CommError::Protocol(_))), "{sent:?}");
            assert!(matches!(got, Err(CommError::Protocol(_))), "{got:?}");
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

    /// A link over one end of a socket pair, and the far end, from which a
    /// test plays the peer with raw envelopes. Nothing but the test pumps
    /// the link, so nothing but the test decides when an owed ack is
    /// written.
    fn test_link(rto: Duration, max_retries: u32) -> (RLink, UnixStream) {
        link_with_plan(rto, max_retries, None)
    }

    /// [`test_link`] under a fault plan that injects nothing: the link runs
    /// its retransmit timer.
    fn timed_test_link(rto: Duration, max_retries: u32) -> (RLink, UnixStream) {
        link_with_plan(rto, max_retries, Some(ChaosConfig::default()))
    }

    fn link_with_plan(
        rto: Duration,
        max_retries: u32,
        chaos: Option<ChaosConfig>,
    ) -> (RLink, UnixStream) {
        let (near, far) = UnixStream::pair().expect("socket pair");
        far.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("far read timeout");
        let options = MeshOptions {
            retransmit_timeout: rto,
            max_retries,
            chaos,
            ..test_options()
        };
        let link = RLink::new(Stream::Unix(near), 0, 1, &options, Arc::default());
        (link, far)
    }

    /// An RTO far longer than any test, so every re-send seen is a NACK's.
    const LONG_RTO: Duration = Duration::from_secs(60);

    fn head_sent_at(link: &RLink) -> Instant {
        link.unacked.front().expect("a record in flight").sent_at
    }

    #[test]
    fn lossy_timer_backoff_doubles_caps_and_follows_the_head_record() {
        let rto = Duration::from_millis(40);
        let (mut link, _far) = timed_test_link(rto, 10);
        for (attempt, want_ms) in [(0, 40), (1, 80), (2, 160), (4, 640), (5, 1000), (9, 1000)] {
            assert_eq!(
                link.backoff(attempt),
                Duration::from_millis(want_ms),
                "attempt {attempt}"
            );
        }

        assert_eq!(link.next_expiry(), None, "nothing in flight");
        assert!(link.service_retransmits(), "an idle link stays alive");
        for _ in 0..3 {
            assert!(link.transmit(b"frame"));
        }
        let first_sent = head_sent_at(&link);
        assert_eq!(link.next_expiry(), Some(first_sent + rto));
        // Not due yet: servicing is a no-op.
        assert!(link.service_retransmits());
        assert_eq!(link.stats.retransmits.load(Ordering::Relaxed), 0);

        // A due head record is re-sent once per expiry, and each attempt
        // doubles the wait for the next.
        for attempt in 1..=2u32 {
            let waited = link.backoff(attempt - 1);
            link.unacked[0].sent_at -= waited;
            assert!(link.service_retransmits());
            assert!(
                link.service_retransmits(),
                "a second service finds it re-armed"
            );
            assert_eq!(
                link.stats.retransmits.load(Ordering::Relaxed),
                u64::from(attempt)
            );
            let sent = head_sent_at(&link);
            assert_eq!(link.next_expiry(), Some(sent + rto * (1 << attempt)));
        }

        // A duplicate ack (nothing below seq 0 is outstanding) must not
        // re-arm the timer; cumulative progress re-arms the survivor's.
        let before = head_sent_at(&link);
        link.acknowledge(0);
        assert_eq!(head_sent_at(&link), before, "duplicate ack moved the timer");
        let stale = first_sent - Duration::from_secs(1);
        link.unacked[2].sent_at = stale;
        link.acknowledge(2);
        let survivor = head_sent_at(&link);
        assert!(
            survivor >= before,
            "ack progress must restart the survivor's timer, not keep its {stale:?} send time"
        );
        assert_eq!(
            link.next_expiry(),
            Some(survivor + rto),
            "the survivor is on its first attempt"
        );
        link.acknowledge(3);
        assert_eq!(link.next_expiry(), None, "fully acknowledged");

        // A dead link has no deadline to wake anyone for.
        assert!(link.transmit(b"frame"));
        link.mark_down(LinkDown::Eof);
        assert_eq!(link.next_expiry(), None);
        assert!(!link.service_retransmits());
    }

    #[test]
    fn a_clean_link_runs_no_retransmit_timer() {
        let rto = Duration::from_millis(40);
        let (mut link, _far) = test_link(rto, 10);
        assert!(link.transmit(b"frame"));
        link.unacked[0].sent_at -= rto * 100;
        assert_eq!(link.next_expiry(), None, "a clean link armed a timer");
        assert!(link.service_retransmits(), "a clean link stays alive");
        assert_eq!(link.stats.retransmits.load(Ordering::Relaxed), 0);
        assert_eq!(link.unacked.len(), 1, "the record waits for its ack");
    }

    fn scalar(value: f64) -> Message {
        Message::GatherScalar { rank: 1, value }
    }

    fn write_record(far: &mut UnixStream, kind: u8, seq: u64, inner: &[u8]) {
        far.write_all(&encode_envelope(kind, seq, inner.len() as u32))
            .expect("envelope write");
        far.write_all(inner).expect("inner write");
    }

    /// The `(kind, seq)` of the next record the link wrote.
    fn read_reply(far: &mut UnixStream) -> (u8, u64) {
        let mut env = [0u8; ENVELOPE_LEN];
        far.read_exact(&mut env).expect("reply envelope");
        let (kind, seq, len) = parse_envelope(&env);
        let mut inner = vec![0u8; len as usize];
        far.read_exact(&mut inner).expect("reply inner frame");
        (kind, seq)
    }

    /// Every record the link wrote back, up to and including its ack of
    /// `seq`. The link writes in order, so whatever a test provoked before
    /// that ack is in the list.
    fn replies_until_ack(far: &mut UnixStream, seq: u64) -> Vec<(u8, u64)> {
        let mut replies = vec![read_reply(far)];
        while replies.last() != Some(&(ENV_ACK, seq)) {
            replies.push(read_reply(far));
        }
        replies
    }

    /// Pumps `link` until `n` messages wait in its delivered queue.
    fn pump_until_delivered(link: &mut RLink, n: usize) {
        while link.inbound.delivered.len() < n {
            assert!(link.pump(Duration::from_secs(10)));
        }
    }

    #[test]
    fn lossy_a_gap_is_nacked_once_by_the_first_frame_that_reveals_it() {
        let (mut link, mut far) = test_link(LONG_RTO, 10);
        // Records 1 and 2 arrive ahead of the missing record 0; only the
        // first of them reports the gap, behind the ack it owes.
        for seq in [1, 2, 0] {
            write_record(&mut far, ENV_DATA, seq, &scalar(seq as f64).encode());
        }
        pump_until_delivered(&mut link, 3);
        assert!(link.flush_ack());
        assert_eq!(
            replies_until_ack(&mut far, 3),
            [(ENV_ACK, 0), (ENV_NACK, 0), (ENV_ACK, 3)]
        );
        // A later gap is a new one and is reported in its turn.
        for seq in [4, 3] {
            write_record(&mut far, ENV_DATA, seq, &scalar(seq as f64).encode());
        }
        pump_until_delivered(&mut link, 5);
        assert!(link.flush_ack());
        assert_eq!(
            replies_until_ack(&mut far, 5),
            [(ENV_ACK, 3), (ENV_NACK, 3), (ENV_ACK, 5)]
        );
        let delivered: Vec<_> = link.inbound.delivered.drain(..).collect();
        let want: Vec<_> = (0..5).map(|seq| scalar(seq as f64)).collect();
        assert_eq!(delivered, want, "delivered in sequence order");
    }

    #[test]
    fn lossy_a_rejected_frame_is_nacked_and_a_duplicate_or_in_order_frame_is_not() {
        let (mut link, mut far) = test_link(LONG_RTO, 10);
        let mut corrupt = scalar(1.0).encode();
        corrupt[0] ^= 1; // bad magic: the frame is rejected
                         // In-order traffic and duplicates, valid or rejected, are only acked.
        write_record(&mut far, ENV_DATA, 0, &scalar(0.0).encode());
        write_record(&mut far, ENV_DATA, 0, &scalar(0.0).encode());
        write_record(&mut far, ENV_DATA, 0, &corrupt);
        write_record(&mut far, ENV_DATA, 1, &scalar(1.0).encode());
        pump_until_delivered(&mut link, 2);
        // A rejected frame in place of the next record is the gap: one
        // NACK, however often it is rejected, behind the ack still owed.
        write_record(&mut far, ENV_DATA, 2, &corrupt);
        write_record(&mut far, ENV_DATA, 2, &corrupt);
        write_record(&mut far, ENV_DATA, 2, &scalar(2.0).encode());
        pump_until_delivered(&mut link, 3);
        assert!(link.flush_ack());
        assert_eq!(
            replies_until_ack(&mut far, 3),
            [(ENV_ACK, 2), (ENV_NACK, 2), (ENV_ACK, 3)]
        );
        assert_eq!(link.stats.rejected.load(Ordering::Relaxed), 3);
        assert_eq!(link.stats.dup_received.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn an_owed_ack_rides_the_next_data_record_in_one_write() {
        let (mut link, mut far) = test_link(LONG_RTO, 10);
        write_record(&mut far, ENV_DATA, 0, &scalar(1.0).encode());
        pump_until_delivered(&mut link, 1);
        // Delivered, and the ack is owed, not written.
        far.set_nonblocking(true).unwrap();
        let idle = far.read(&mut [0u8; 1]).map_err(|e| e.kind());
        assert_eq!(
            idle,
            Err(std::io::ErrorKind::WouldBlock),
            "an ack went out alone"
        );
        far.set_nonblocking(false).unwrap();
        let frame = scalar(2.0).encode();
        assert!(link.transmit(&frame));
        let mut want = encode_envelope(ENV_ACK, 1, 0).to_vec();
        want.extend_from_slice(&encode_envelope(ENV_DATA, 0, frame.len() as u32));
        want.extend_from_slice(&frame);
        let mut got = vec![0u8; 2 * want.len()];
        let n = far.read(&mut got).expect("one read");
        assert_eq!(got[..n], want, "owed ack ‖ data record, in one read");
    }

    #[test]
    fn lossy_a_nack_resends_the_head_once_and_only_on_its_first_attempt() {
        let (mut link, mut far) = test_link(LONG_RTO, 10);
        for value in [0.0, 1.0] {
            assert!(link.transmit(&scalar(value).encode()));
        }
        assert_eq!(read_reply(&mut far), (ENV_DATA, 0));
        assert_eq!(read_reply(&mut far), (ENV_DATA, 1));
        // NACK(head) on its first attempt re-sends it; a repeated NACK (the
        // head is now on attempt 1) and NACKs for other seqs do nothing.
        for seq in [0, 0, 1, 7] {
            write_record(&mut far, ENV_NACK, seq, &[]);
        }
        // The peer's own data record is acked only after those are handled.
        write_record(&mut far, ENV_DATA, 0, &scalar(9.0).encode());
        pump_until_delivered(&mut link, 1);
        assert!(link.flush_ack());
        assert_eq!(
            replies_until_ack(&mut far, 1),
            [(ENV_DATA, 0), (ENV_ACK, 1)]
        );
        assert_eq!(link.stats.retransmits.load(Ordering::Relaxed), 1);

        // On a dead link a NACK re-sends nothing, and a pump reads nothing.
        link.mark_down(LinkDown::AckTimeout);
        write_record(&mut far, ENV_NACK, 0, &[]);
        assert!(!link.pump(Duration::from_secs(10)));
        assert!(!link.nack(0));
        assert_eq!(link.stats.retransmits.load(Ordering::Relaxed), 1);

        // With retries disabled a NACK re-sends nothing either.
        let (mut link, _far) = test_link(LONG_RTO, 0);
        assert!(link.transmit(b"frame"));
        assert!(link.nack(0));
        assert_eq!(link.stats.retransmits.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_record_split_across_writes_is_delivered_once_whole() {
        let (mut link, mut far) = test_link(LONG_RTO, 10);
        let first = scalar(1.0).encode();
        let (head, tail) = first.split_at(first.len() / 2);
        // Pumping by hand, each pump sees exactly what the writes before it
        // sent.
        let pump_once = |link: &mut RLink| {
            std::thread::sleep(Duration::from_millis(5));
            assert!(link.pump(Duration::from_secs(10)));
        };
        far.write_all(&encode_envelope(ENV_DATA, 0, first.len() as u32))
            .unwrap();
        pump_once(&mut link);
        far.write_all(head).unwrap();
        pump_once(&mut link);
        assert!(
            link.inbound.delivered.is_empty(),
            "a partial record was delivered"
        );
        far.write_all(tail).unwrap();
        write_record(&mut far, ENV_DATA, 1, &scalar(2.0).encode());
        while link.inbound.delivered.len() < 2 {
            pump_once(&mut link);
        }
        let delivered: Vec<_> = link.inbound.delivered.drain(..).collect();
        assert_eq!(delivered, [scalar(1.0), scalar(2.0)]);
        // One cumulative ack covers both.
        assert!(link.flush_ack());
        assert_eq!(replies_until_ack(&mut far, 2), [(ENV_ACK, 2)]);
    }

    /// Two ranks ping-pong five rounds under `rto`; rank 1 computes for `gap`
    /// before each receive, so it reads and acks rank 0's ping only at its
    /// next communication call. Each rank's link counters.
    fn ping_pong_after_a_gap(
        rto: Duration,
        gap: Duration,
        chaos: Option<ChaosConfig>,
    ) -> Vec<crate::cg::NetStats> {
        let transport = uds_transport();
        let _guard = match &transport {
            Transport::Uds { dir } => RunDirGuard(dir.clone()),
            _ => unreachable!(),
        };
        let options = MeshOptions {
            retransmit_timeout: rto,
            chaos,
            ..test_options()
        };
        with_mesh_opts(2, &transport, &options, |ep| {
            let stats = ep.stats.clone();
            for round in 0..5 {
                if ep.rank() == 0 {
                    ep.send(1, &scalar(round as f64), "ping").unwrap();
                    ep.recv(1, Tag::GatherScalar, "pong").unwrap();
                } else {
                    std::thread::sleep(gap);
                    let ping = ep.recv(0, Tag::GatherScalar, "ping").unwrap();
                    ep.send(0, &ping, "pong").unwrap();
                }
            }
            drop(ep);
            sum_link_stats(&stats)
        })
    }

    #[test]
    fn a_computing_owner_acks_at_its_next_call() {
        // No thread acks for a rank that computes: its next communication
        // call does. A gap between calls below RTO/2 re-sends nothing…
        let rto = Duration::from_millis(40);
        for (rank, net) in ping_pong_after_a_gap(rto, rto / 4, None).iter().enumerate() {
            assert_eq!(net.data_frames, 5, "rank {rank}");
            assert_eq!(net.retransmits, 0, "rank {rank}: a frame was re-sent");
        }
        // … and on a clean link neither does a gap of three RTOs: a stream
        // socket cannot lose a record, so the sender waits for the ack.
        for (rank, net) in ping_pong_after_a_gap(rto, rto * 3, None).iter().enumerate() {
            assert_eq!(net.data_frames, 5, "rank {rank}");
            assert_eq!(
                net.retransmits, 0,
                "rank {rank}: a clean link re-sent a frame"
            );
        }
    }

    #[test]
    fn a_link_with_a_fault_plan_resends_into_a_long_gap() {
        // A fault plan that injects nothing still runs the timer: the
        // sender re-sends into a gap of three RTOs.
        let rto = Duration::from_millis(40);
        let slow = ping_pong_after_a_gap(rto, rto * 3, Some(ChaosConfig::default()));
        assert_eq!(slow[0].data_frames, 5);
        assert!(
            slow[0].retransmits > 0,
            "rank 0's pings were never re-sent across a gap of three RTOs"
        );
    }

    #[test]
    fn teardown_flushes_owed_acks() {
        let transport = uds_transport();
        let _guard = match &transport {
            Transport::Uds { dir } => RunDirGuard(dir.clone()),
            _ => unreachable!(),
        };
        // A 1 s RTO: no retransmission lands within the bound, so each
        // rank's drain ends only on the ack its closing peer flushes.
        let options = MeshOptions {
            retransmit_timeout: Duration::from_secs(1),
            ..test_options()
        };
        let plan = HaloPlan::empty(2);
        let teardowns = with_mesh_opts(2, &transport, &options, |ep| {
            let stats = ep.stats.clone();
            let comm = RankComm::over_process(&plan, ep);
            // Each rank's last act receives its peer's partial, so each
            // closes owing the ack its peer's drain waits for.
            comm.allreduce_sum(0.5 + comm.rank() as f64).unwrap();
            let started = Instant::now();
            drop(comm);
            (started.elapsed(), sum_link_stats(&stats))
        });
        for (rank, (took, net)) in teardowns.iter().enumerate() {
            assert!(
                *took < TICK / 2,
                "rank {rank}: teardown took {took:?}, waiting for an ack its peer owed"
            );
            assert_eq!(net.retransmits, 0, "rank {rank}: a frame was re-sent");
        }
    }

    /// Names of this process's live threads.
    fn thread_names() -> Vec<String> {
        std::fs::read_dir("/proc/self/task")
            .expect("task list")
            .flatten()
            .filter_map(|task| std::fs::read_to_string(task.path().join("comm")).ok())
            .map(|name| name.trim_end().to_owned())
            .collect()
    }

    #[test]
    fn a_live_mesh_runs_no_thread_per_link() {
        let ranks = 4;
        let transport = uds_transport();
        let _guard = match &transport {
            Transport::Uds { dir } => RunDirGuard(dir.clone()),
            _ => unreachable!(),
        };
        let live = Barrier::new(ranks);
        let names = with_mesh(ranks, &transport, |ep| {
            // Every endpoint of the mesh is up while rank 0 looks.
            live.wait();
            let names = if ep.rank() == 0 {
                thread_names()
            } else {
                Vec::new()
            };
            live.wait();
            names
        });
        let link_threads: Vec<_> = names
            .concat()
            .into_iter()
            .filter(|name| name.starts_with("feir-link-"))
            .collect();
        assert!(
            link_threads.is_empty(),
            "link threads are running: {link_threads:?}"
        );
    }

    #[test]
    fn a_third_ranks_death_aborts_an_elastic_wait() {
        let ranks = 3;
        let transport = uds_transport();
        let _guard = match &transport {
            Transport::Uds { dir } => RunDirGuard(dir.clone()),
            _ => unreachable!(),
        };
        let options = MeshOptions {
            elastic: true,
            ..test_options()
        };
        let done = Barrier::new(ranks);
        let outcomes = with_mesh_opts(ranks, &transport, &options, |ep| {
            if ep.rank() == 1 {
                drop(ep);
                done.wait();
                return None;
            }
            // Rank 0 waits on rank 2, which stays alive and silent until
            // rank 0 has its answer.
            let outcome = (ep.rank() == 0).then(|| {
                let started = Instant::now();
                let got = ep.recv(2, Tag::GatherScalar, "collective");
                (got, started.elapsed())
            });
            done.wait();
            outcome
        });
        let (got, took) = outcomes
            .into_iter()
            .flatten()
            .next()
            .expect("rank 0 waited");
        match got {
            Err(CommError::Disconnected { peer: Some(1), .. }) => {}
            other => panic!("expected rank 1's death, got {other:?}"),
        }
        assert!(
            took < Duration::from_secs(1),
            "rank 1's death took {took:?} to abort a wait on rank 2"
        );
    }

    /// CPU time the calling thread has used: utime + stime of
    /// `/proc/thread-self/stat`, in USER_HZ ticks (100 per second on Linux).
    fn thread_cpu_time() -> Duration {
        let stat = std::fs::read_to_string("/proc/thread-self/stat").expect("thread stat");
        // Fields after the parenthesised name, from field 3 (state) on.
        let fields: Vec<&str> = stat[stat.rfind(')').expect("stat name") + 1..]
            .split_whitespace()
            .collect();
        let ticks: u64 = fields[11..13]
            .iter()
            .map(|f| f.parse::<u64>().unwrap())
            .sum();
        Duration::from_millis(10 * ticks)
    }

    #[test]
    fn a_late_frame_is_awaited_in_poll_not_in_a_spin() {
        let transport = uds_transport();
        let _guard = match &transport {
            Transport::Uds { dir } => RunDirGuard(dir.clone()),
            _ => unreachable!(),
        };
        let late = Duration::from_millis(100);
        let waits = with_mesh(2, &transport, |ep| {
            if ep.rank() == 1 {
                std::thread::sleep(late);
                ep.send(0, &scalar(1.0), "late frame").unwrap();
                return None;
            }
            let (cpu, started) = (thread_cpu_time(), Instant::now());
            ep.recv(1, Tag::GatherScalar, "late frame").unwrap();
            Some((started.elapsed(), thread_cpu_time() - cpu))
        });
        let (waited, cpu) = waits[0].expect("rank 0 waited");
        assert!(waited >= late / 2, "the frame came early, after {waited:?}");
        assert!(
            cpu < Duration::from_millis(10),
            "a {waited:?} wait used {cpu:?} of CPU: it spun past the poll budget"
        );
    }

    /// Replaces the fault plan of `ep`'s outgoing link to `peer` with one
    /// that drops the first attempt of exactly the listed sequence numbers.
    /// Call before the first send on that link.
    fn script_drops(ep: &ProcessEndpoint, peer: usize, seqs: &[u64]) {
        let entries: Vec<_> = seqs.iter().map(|&seq| (seq, FaultKind::Drop)).collect();
        ep.with_link(peer, |link| {
            let stream = clone_stream(link.writer.get_mut());
            link.writer = ChaosLink::new(stream, FaultPlan::scripted(&entries), link.stats.clone());
            link.timed = true;
            Ok(())
        })
        .expect("a link to the peer");
    }

    fn clone_stream(stream: &Stream) -> Stream {
        match stream {
            Stream::Unix(s) => Stream::Unix(s.try_clone().expect("stream clone")),
            Stream::Tcp(s) => Stream::Tcp(s.try_clone().expect("stream clone")),
        }
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
    /// the script. A starved thread can read an ack after the timer
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
    fn lossy_scripted_drops_are_resent_on_the_next_frame_not_the_rto() {
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
        // The rank a lost frame was addressed to stalls in that round; its
        // sender already has every partial and moves on. The sender's next
        // frame reveals the gap, so the receiver's NACK brings the re-send
        // after about one round trip — not after the RTO.
        let stalls = lost_to
            .iter()
            .zip(&lossy)
            .flat_map(|(lost, (_, took, _))| lost.iter().map(|&round| took[round as usize]))
            .collect();
        let median = median(stalls);
        assert!(
            median < LOSSY_RTO / 4,
            "2-rank allreduce: a lost frame stalls {median:?} at the median — it waited for \
             the {LOSSY_RTO:?} RTO instead of the NACK"
        );
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
            // Only start receiving once the link is known dead: pump it by
            // hand, paying the ack rank 1's drain waits for, until the EOF.
            let link_died = Instant::now() + Duration::from_secs(20);
            let pump =
                |link: &mut RLink| Ok(link.pump(Duration::from_millis(5)) && link.flush_ack());
            while ep.with_link(1, pump).expect("a link to rank 1") {
                assert!(Instant::now() < link_died, "rank 1 never hung up");
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
