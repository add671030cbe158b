//! Message-passing primitives between ranks: halo exchange for the block-row
//! SpMV, the rank-ordered sum allreduce for the CG dot products, and the
//! neighbourhood rounds of cross-rank recovery.
//!
//! Every collective is written once, in [`RankComm`], as a fixed sequence of
//! [`feir_wire::Message`]s sent to and received from named peers. Moving one
//! message to one peer is the job of a crate-private `Link`, the only part
//! the two backends write differently:
//!
//! * **In-process** — ranks are threads, with one `std::sync::mpsc` channel
//!   per ordered rank pair carrying the (boxed, never encoded) `Message`
//!   values themselves. No rank
//!   ever reads another rank's buffers, so the data movement is exactly the
//!   send/receive pattern an MPI implementation of Section 3.4 would
//!   perform. This is the default for unit tests and the thread-backed
//!   solver entry points.
//! * **Process** — ranks are real OS processes connected over Unix domain
//!   sockets (TCP fallback), each message one versioned `feir-wire` frame
//!   (see [`crate::process`]).
//!
//! Same messages, same order, same rank-ordered folds: results are bitwise
//! identical across backends, and only how a rank waits for a message
//! differs.
//!
//! Every communication method returns `Result<_, CommError>`: a vanished
//! peer — a disconnected channel in-process, a closed socket across
//! processes — or a peer that breaks the protocol surfaces as a typed
//! [`CommError`] instead of a panic, so the resilience engine can observe
//! rank failure the same way on both backends.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::mpsc::{channel, Receiver, RecvError, Sender, TryRecvError};
use std::time::{Duration, Instant};

use feir_sparse::CsrMatrix;
use feir_wire::{Message, Tag};

use crate::partition::RankPartition;

/// A communication failure observed by one rank.
///
/// Both backends produce the same variants for the same situations: a peer
/// that is gone mid-collective is [`CommError::Disconnected`] whether it was
/// a dropped channel endpoint or a closed socket.
#[derive(Debug)]
pub enum CommError {
    /// A peer rank is gone: its channel endpoint was dropped (in-process) or
    /// its socket closed / reset (process backend).
    Disconnected {
        /// The peer that vanished, when identifiable.
        peer: Option<usize>,
        /// The operation that observed the failure.
        during: &'static str,
    },
    /// A read deadline expired while waiting on a peer (process backend).
    Timeout {
        /// The peer that failed to respond.
        peer: usize,
        /// The operation that timed out.
        during: &'static str,
    },
    /// A frame failed to decode (bad magic, version mismatch, truncation...).
    Wire(feir_wire::WireError),
    /// The peers violated the comm protocol (wrong message, bad handshake,
    /// mismatched component counts, ...).
    Protocol(String),
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::Disconnected { peer, during } => match peer {
                Some(p) => write!(f, "rank {p} disconnected during {during}"),
                None => write!(f, "peer rank disconnected during {during}"),
            },
            CommError::Timeout { peer, during } => {
                write!(f, "timed out waiting on rank {peer} during {during}")
            }
            CommError::Wire(e) => write!(f, "wire protocol error: {e}"),
            CommError::Protocol(msg) => write!(f, "comm protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for CommError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CommError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<feir_wire::WireError> for CommError {
    fn from(e: feir_wire::WireError) -> Self {
        CommError::Wire(e)
    }
}

/// For every rank, the remote entries its local rows reference, grouped by
/// owning rank.
///
/// `needs[r]` maps a peer rank `s` to the sorted column indices owned by `s`
/// that appear in rank `r`'s rows; the symmetric view `sends[s]` maps `r` to
/// the same list (what `s` must ship to `r` each iteration). Only the entries
/// actually referenced are exchanged, as a real halo exchange would.
#[derive(Debug, Clone)]
pub struct HaloPlan {
    needs: Vec<HashMap<usize, Vec<usize>>>,
    sends: Vec<HashMap<usize, Vec<usize>>>,
}

impl HaloPlan {
    /// Builds the exchange lists for `a` distributed by `partition`.
    pub fn build(a: &CsrMatrix, partition: &RankPartition) -> Self {
        let ranks = partition.num_ranks();
        let mut needs: Vec<HashMap<usize, Vec<usize>>> = vec![HashMap::new(); ranks];
        for (r, needs_of_r) in needs.iter_mut().enumerate() {
            let own = partition.range(r);
            // Columns within a row are sorted, so a row whose first and last
            // columns are owned has no remote entry and is not scanned.
            let mut remote: Vec<usize> = own
                .clone()
                .map(|row| a.row(row).0)
                .filter(|cols| {
                    cols.first().is_some_and(|&c| (c as usize) < own.start)
                        || cols.last().is_some_and(|&c| c as usize >= own.end)
                })
                .flatten()
                .map(|&c| c as usize)
                .filter(|c| !own.contains(c))
                .collect();
            remote.sort_unstable();
            remote.dedup();
            for c in remote {
                needs_of_r.entry(partition.owner_of(c)).or_default().push(c);
            }
        }
        let mut sends: Vec<HashMap<usize, Vec<usize>>> = vec![HashMap::new(); ranks];
        for (r, per_owner) in needs.iter().enumerate() {
            for (&owner, cols) in per_owner {
                sends[owner].insert(r, cols.clone());
            }
        }
        Self { needs, sends }
    }

    /// A plan with no halo traffic (pure reductions, no SpMV).
    pub fn empty(ranks: usize) -> Self {
        Self {
            needs: vec![HashMap::new(); ranks],
            sends: vec![HashMap::new(); ranks],
        }
    }

    /// Entries rank `rank` receives, grouped by sending rank.
    pub fn needs_of(&self, rank: usize) -> &HashMap<usize, Vec<usize>> {
        &self.needs[rank]
    }

    /// Entries rank `rank` ships, grouped by destination rank.
    pub fn sends_of(&self, rank: usize) -> &HashMap<usize, Vec<usize>> {
        &self.sends[rank]
    }

    /// Total number of values crossing rank boundaries per exchange.
    pub fn halo_volume(&self) -> usize {
        self.needs
            .iter()
            .flat_map(|m| m.values())
            .map(Vec::len)
            .sum()
    }

    /// The halo neighbours of `rank` (traffic in either direction), sorted.
    pub(crate) fn neighbours_of(&self, rank: usize) -> Vec<usize> {
        let mut peers: Vec<usize> = self.needs[rank].keys().copied().collect();
        for p in self.sends[rank].keys() {
            if !peers.contains(p) {
                peers.push(*p);
            }
        }
        peers.sort_unstable();
        peers
    }
}

/// Attempts (a `try_recv`, or a zero-wait read of a socket) made back to
/// back (with `hint::spin_loop`) before a waiting rank starts yielding its
/// core: covers a peer that is already sending.
const SPIN_POLLS: u32 = 32;

/// How long a waiting rank keeps polling (attempt + `yield_now`) before it
/// blocks: parks in the channel's `recv()`, or sleeps in `poll(2)`.
///
/// About one blocked round trip, so the most a wait can waste is what
/// blocking would have cost anyway. Measured on a 2-vCPU VM with two threads
/// handing one `f64` back and forth over a channel pair, the replier
/// computing 0–20 µs before it answers: 40–41 µs per round trip over the
/// compute when both sides park (two futex wake-ups across vCPUs), 0.4–1.4
/// µs with this discipline. Two threads bouncing 8 bytes over a Unix socket
/// pair on the same VM: 21.9–22.7 µs per round trip when each waiter sleeps
/// in `poll(2)`, 6.9–7.1 µs when it polls on this schedule first.
const POLL_BUDGET: Duration = Duration::from_micros(50);

/// The one way the in-process link waits for a message: spin, then yield,
/// then park.
///
/// Same channel, same message, same [`RecvError`] on a dropped sender as the
/// bare `rx.recv()` it replaces — only how the thread passes the time differs.
/// The yield phase hands the core to whichever rank is runnable, which is what
/// keeps more ranks than cores correct and quick; the park tail bounds the CPU
/// a long wait (a peer inside a repair, a stalled rank) can burn.
///
/// The process backend waits on the same [`poll_budgeted`] schedule, with a
/// zero-wait read of its socket as the attempt and `poll(2)` as the park
/// (see [`crate::process`]).
fn wait_recv<T>(rx: &Receiver<T>) -> Result<T, RecvError> {
    poll_recv(rx).unwrap_or_else(|| rx.recv())
}

/// The spin and yield phases of [`wait_recv`]: `None` once [`POLL_BUDGET`] is
/// spent with the channel still empty and its sender alive.
fn poll_recv<T>(rx: &Receiver<T>) -> Option<Result<T, RecvError>> {
    poll_budgeted(|| match rx.try_recv() {
        Ok(message) => Some(Ok(message)),
        Err(TryRecvError::Disconnected) => Some(Err(RecvError)),
        Err(TryRecvError::Empty) => None,
    })
}

/// The spin and yield phases both backends wait by: calls `attempt` back to
/// back [`SPIN_POLLS`] times, then between `yield_now`s until
/// [`POLL_BUDGET`] has passed. `None` once the budget is spent without a
/// result — the caller then blocks (parks on its channel, sleeps in
/// `poll(2)` on its socket).
pub(crate) fn poll_budgeted<T>(mut attempt: impl FnMut() -> Option<T>) -> Option<T> {
    let mut polls = 0;
    let mut yielding_since = None;
    loop {
        if let Some(done) = attempt() {
            return Some(done);
        }
        if polls < SPIN_POLLS {
            polls += 1;
            std::hint::spin_loop();
        } else if yielding_since.get_or_insert_with(Instant::now).elapsed() < POLL_BUDGET {
            std::thread::yield_now();
        } else {
            return None;
        }
    }
}

/// How one rank moves one [`Message`] to or from one peer — the only part of
/// the communication layer the two backends write differently. Every
/// collective of [`RankComm`] is written once, against this.
pub(crate) trait Link: fmt::Debug + Send {
    /// Hands `msg` to the link toward `peer`; does not wait for the peer.
    fn send(&self, peer: usize, msg: Message, during: &'static str) -> Result<(), CommError>;

    /// The first message from `peer` tagged `want`, waiting until one
    /// arrives. Messages with other tags that arrive first are kept, in
    /// order, for the receives that want them.
    fn recv(&self, peer: usize, want: Tag, during: &'static str) -> Result<Message, CommError>;

    /// Elastic-mesh rejoin; see [`RankComm::rejoin`].
    fn rejoin(&self, failed: Option<usize>, iteration: u64) -> Result<u64, CommError>;
}

/// The in-process [`Link`]: one mpsc channel per ordered rank pair, carrying
/// the [`Message`] values themselves (nothing is encoded).
#[derive(Debug)]
struct ChannelLink {
    /// Indexed by peer rank; this rank's own slot is an unused loopback.
    peers: Vec<ChannelPeer>,
}

/// One peer of a [`ChannelLink`]: the channel to it and the one from it.
///
/// Messages travel boxed so a channel slot is one pointer: a `Message` is 184
/// bytes, and moving it whole through the channel measured 1.6 µs per 2-rank
/// scalar allreduce against 1.3 µs boxed (release build, 2-vCPU VM).
#[derive(Debug)]
struct ChannelPeer {
    tx: Sender<Box<Message>>,
    rx: Receiver<Box<Message>>,
    /// Messages from the peer that arrived ahead of the tag being waited
    /// for, in arrival order.
    stash: RefCell<VecDeque<Message>>,
}

impl Link for ChannelLink {
    fn send(&self, peer: usize, msg: Message, during: &'static str) -> Result<(), CommError> {
        self.peers[peer]
            .tx
            .send(Box::new(msg))
            .map_err(|_| CommError::Disconnected {
                peer: Some(peer),
                during,
            })
    }

    fn recv(&self, peer: usize, want: Tag, during: &'static str) -> Result<Message, CommError> {
        let channel = &self.peers[peer];
        let mut stash = channel.stash.borrow_mut();
        if let Some(at) = stash.iter().position(|m| m.tag() == want) {
            return Ok(stash.remove(at).expect("stash position just found"));
        }
        loop {
            let msg = wait_recv(&channel.rx).map_err(|_| CommError::Disconnected {
                peer: Some(peer),
                during,
            })?;
            if msg.tag() == want {
                return Ok(*msg);
            }
            stash.push_back(*msg);
        }
    }

    fn rejoin(&self, _failed: Option<usize>, _iteration: u64) -> Result<u64, CommError> {
        Err(CommError::Protocol(
            "rank elasticity requires the process transport".into(),
        ))
    }
}

/// Component-wise rank-ordered fold of the vector allreduce: each
/// component's sum is exactly what the scalar allreduce of the same partials
/// would produce.
fn fold_partials_rank_ordered(partials: &[Vec<f64>]) -> Result<Vec<f64>, CommError> {
    let components = partials[0].len();
    let mut totals = vec![0.0; components];
    for partial in partials {
        if partial.len() != components {
            return Err(CommError::Protocol(format!(
                "vector allreduce: ranks disagree on component count ({} vs {components})",
                partial.len()
            )));
        }
        for (t, v) in totals.iter_mut().zip(partial) {
            *t += v;
        }
    }
    Ok(totals)
}

/// The merged view a coupled-recovery gather wave accumulates: lost-row
/// offers as `(global row, rhs value)` and surviving stencil entries as
/// `(global column, value, valid)`, both sorted by their global id.
pub type CoupledGatherView = (Vec<(usize, f64)>, Vec<(usize, f64, bool)>);

/// One rank's communication endpoint.
///
/// Build one per rank with [`RankComm::for_ranks`] (threads + channels) or
/// [`RankComm::over_process`] (one per OS process, sockets + `feir-wire`
/// frames), move it into the rank's thread/process, and drive an iteration
/// with [`RankComm::exchange_halo`] / [`RankComm::allreduce_sum`]. Solver
/// code is backend-agnostic: each collective is one sequence of messages
/// over the rank's link, whichever transport carries them.
#[derive(Debug)]
pub struct RankComm {
    rank: usize,
    ranks: usize,
    link: Box<dyn Link>,
    /// Outgoing halo `(destination, owned indices to ship)`, sorted by peer.
    halo_out: Vec<(usize, Vec<usize>)>,
    /// Incoming halo `(source, indices received)`, sorted by peer.
    halo_in: Vec<(usize, Vec<usize>)>,
    /// Halo neighbours (traffic in either direction), ascending: the ranks
    /// the recovery rounds talk to.
    recovery_peers: Vec<usize>,
    /// Collectives entered through this endpoint (scalar and vector alike,
    /// blocking or split-phase). The merged-reduction solver tests assert
    /// "exactly one allreduce per iteration" against this counter.
    collectives: Cell<u64>,
}

impl RankComm {
    /// Rank `rank`'s endpoint over `link`, with its halo lists and recovery
    /// neighbourhood taken from `plan`.
    fn new(plan: &HaloPlan, rank: usize, ranks: usize, link: Box<dyn Link>) -> RankComm {
        let by_peer = |lists: &HashMap<usize, Vec<usize>>| {
            let mut lists: Vec<(usize, Vec<usize>)> = lists
                .iter()
                .map(|(&peer, cols)| (peer, cols.clone()))
                .collect();
            lists.sort_unstable_by_key(|(peer, _)| *peer);
            lists
        };
        RankComm {
            rank,
            ranks,
            link,
            halo_out: by_peer(plan.sends_of(rank)),
            halo_in: by_peer(plan.needs_of(rank)),
            recovery_peers: plan.neighbours_of(rank),
            collectives: Cell::new(0),
        }
    }

    /// Creates the connected in-process endpoints for every rank of `plan`.
    pub fn for_ranks(plan: &HaloPlan, ranks: usize) -> Vec<RankComm> {
        assert!(ranks > 0, "need at least one rank");
        // senders[r][s] carries r → s; receivers[r][s] is rank s's end of it.
        let (senders, receivers): (Vec<Vec<_>>, Vec<Vec<_>>) = (0..ranks)
            .map(|_| (0..ranks).map(|_| channel()).unzip())
            .unzip();
        let mut from: Vec<_> = receivers.into_iter().map(Vec::into_iter).collect();
        senders
            .into_iter()
            .enumerate()
            .map(|(rank, to)| {
                // Ranks are built in order, so `from[s].next()` is s → rank.
                let peers = to
                    .into_iter()
                    .zip(&mut from)
                    .map(|(tx, from_peer)| ChannelPeer {
                        tx,
                        rx: from_peer.next().expect("one receiver per rank"),
                        stash: RefCell::default(),
                    })
                    .collect();
                RankComm::new(plan, rank, ranks, Box::new(ChannelLink { peers }))
            })
            .collect()
    }

    /// Wraps a connected process-backend endpoint (see
    /// [`crate::process::connect_mesh`]) as this rank's [`RankComm`].
    pub fn over_process(plan: &HaloPlan, endpoint: crate::process::ProcessEndpoint) -> RankComm {
        RankComm::new(plan, endpoint.rank(), endpoint.ranks(), Box::new(endpoint))
    }

    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Ships this rank's owned entries of `full` to every peer that needs
    /// them, then scatters the received remote entries back into `full`.
    ///
    /// `full` is this rank's private full-length working copy of the vector;
    /// only its owned range is authoritative before the call, and exactly the
    /// halo entries referenced by its rows are valid after it.
    pub fn exchange_halo(&self, full: &mut [f64]) -> Result<(), CommError> {
        let _probe = feir_trace::span(feir_trace::Phase::Halo);
        for (dest, cols) in &self.halo_out {
            let values = cols.iter().map(|&c| full[c]).collect();
            self.link
                .send(*dest, Message::Halo { values }, "halo send")?;
        }
        for (src, cols) in &self.halo_in {
            let Message::Halo { values } = self.link.recv(*src, Tag::Halo, "halo receive")? else {
                unreachable!("recv() returns the requested tag")
            };
            if values.len() != cols.len() {
                return Err(CommError::Protocol(format!(
                    "halo from rank {src}: got {} values, expected {}",
                    values.len(),
                    cols.len()
                )));
            }
            for (&c, v) in cols.iter().zip(values) {
                full[c] = v;
            }
        }
        Ok(())
    }

    /// Contributes `local` and returns the global sum; every rank must call
    /// this the same number of times in the same order.
    ///
    /// Every rank sends its partial to every peer, receives theirs, and sums
    /// all of them **in rank order** — the same fold on every rank, so every
    /// rank gets the same bits, run to run. This is the reduction under every
    /// `⟨d,q⟩` and `‖g‖²` of the distributed CG, and the blocking form of
    /// the split-phase pair [`RankComm::start_allreduce`] /
    /// [`PendingAllreduce::finish`], bitwise-identical to it.
    pub fn allreduce_sum(&self, local: f64) -> Result<f64, CommError> {
        let _probe = feir_trace::span(feir_trace::Phase::Allreduce);
        self.start_allreduce(local)?.finish()
    }

    /// Starts a split-phase allreduce: the local partial is sent to every
    /// peer before this returns, and the wait for theirs is deferred to
    /// [`PendingAllreduce::finish`]. Work done between the two calls
    /// overlaps the reduction wait — AFEIR runs its iterate repair here
    /// when a rank lost only iterate pages, because ε does not read them.
    /// No rank folds on another's behalf, so a rank busy
    /// between its `start` and `finish` delays no peer's `finish`.
    ///
    /// Every rank must post the same collectives in the same order: partials
    /// are matched first-in, first-out per (peer, tag), so a rank's `k`-th
    /// `finish` consumes each peer's `k`-th partial. This is a protocol
    /// contract, not a compile-time guarantee. Dropping the handle leaves
    /// the R−1 peer partials of this collective unconsumed, and this rank's
    /// next collective would fold them in place of the peers' next ones.
    ///
    /// An allreduce over R ranks moves R(R−1) messages, against 2(R−1) for a
    /// gather to rank 0 plus a broadcast. On a 2-vCPU VM the rooted version
    /// is as fast up to 8 ranks and faster at 16 (fault-free AFEIR CG on a
    /// 128² Poisson grid, on one core: ≈110 vs ≈140 ms); from there on a
    /// fixed butterfly, one fold order on every rank, would replace this.
    pub fn start_allreduce(&self, local: f64) -> Result<PendingAllreduce<'_>, CommError> {
        let rank = self.rank as u32;
        self.post_partial(
            || Message::GatherScalar { rank, value: local },
            "allreduce gather",
        )?;
        Ok(PendingAllreduce { comm: self, local })
    }

    /// Contributes one *vector* of partials and returns the component-wise
    /// global sums; every rank must pass the same number of components. This
    /// is the single collective of the merged-reduction solvers: all of an
    /// iteration's scalars (`γ`, `δ`, the fault flag, …) ride in one
    /// message to each peer.
    ///
    /// Component `j` of the result is bitwise-identical to
    /// [`RankComm::allreduce_sum`] over the same per-rank partials — every
    /// rank folds each component in rank order, exactly like the scalar path.
    pub fn allreduce_vec(&self, local: Vec<f64>) -> Result<Vec<f64>, CommError> {
        let _probe = feir_trace::span(feir_trace::Phase::Allreduce);
        self.start_allreduce_vec(local)?.finish()
    }

    /// Split-phase form of [`RankComm::allreduce_vec`]: the partial vector is
    /// sent to every peer, the wait for theirs is deferred to
    /// [`PendingVecAllreduce::finish`]. The merged-reduction solvers start
    /// the collective, run the halo exchange and the next matvec while it is
    /// in flight, and only then collect the sums — the reduction latency
    /// hides behind the matvec instead of serializing with it. The ordering
    /// contract of [`RankComm::start_allreduce`] applies.
    pub fn start_allreduce_vec(
        &self,
        local: Vec<f64>,
    ) -> Result<PendingVecAllreduce<'_>, CommError> {
        let rank = self.rank as u32;
        self.post_partial(
            || Message::GatherVec {
                rank,
                values: local.clone(),
            },
            "vector allreduce gather",
        )?;
        Ok(PendingVecAllreduce { comm: self, local })
    }

    /// The ranks other than this one, ascending.
    fn peers(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.ranks).filter(move |&peer| peer != self.rank)
    }

    /// Enters an allreduce: sends this rank's partial, built by `partial`,
    /// to every peer.
    fn post_partial(
        &self,
        partial: impl Fn() -> Message,
        during: &'static str,
    ) -> Result<(), CommError> {
        let _probe = feir_trace::span(feir_trace::Phase::AllreducePost);
        self.collectives.set(self.collectives.get() + 1);
        for peer in self.peers() {
            self.link.send(peer, partial(), during)?;
        }
        Ok(())
    }

    /// Every rank's allreduce partial, in rank order: each peer's next
    /// message tagged `want`, split by `unpack` into the rank it claims and
    /// its partial, with `own` at this rank's index.
    fn gather_partials<T>(
        &self,
        own: T,
        want: Tag,
        during: &'static str,
        unpack: fn(Message) -> (u32, T),
    ) -> Result<Vec<T>, CommError> {
        let mut partials = Vec::with_capacity(self.ranks);
        for peer in self.peers() {
            let (rank, partial) = unpack(self.link.recv(peer, want, during)?);
            if rank as usize != peer {
                return Err(CommError::Protocol(format!(
                    "{during} from rank {peer} claims rank {rank}"
                )));
            }
            partials.push(partial);
        }
        partials.insert(self.rank, own);
        Ok(partials)
    }

    /// Number of collectives this endpoint has entered (scalar and vector,
    /// blocking and split-phase). A fault flag or restart count riding as a
    /// lane of another reduction adds nothing, so a fault-free protected
    /// CG iteration counts 2 and PCG 3, as an unprotected one does. Halo and
    /// recovery exchanges are point-to-point and do not count.
    pub fn collectives(&self) -> u64 {
        self.collectives.get()
    }

    /// Elastic-mesh rejoin (process backend only): re-links the failed peer
    /// (when `failed` is `Some`; a respawned newcomer passes `None`), then
    /// parks at the rejoin barrier until every rank of the new mesh epoch
    /// has arrived. `iteration` is the iteration this rank had reached;
    /// returns the barrier's agreed resume iteration (the maximum across
    /// ranks). See `crate::elastic` for the repair protocol layered on
    /// top.
    pub fn rejoin(&self, failed: Option<usize>, iteration: u64) -> Result<u64, CommError> {
        self.link.rejoin(failed, iteration)
    }

    /// One collective cross-rank recovery round.
    ///
    /// When a rank discovers a DUE whose recovery relation reaches across a
    /// rank boundary (the faulted block's matrix stencil references columns
    /// owned by a neighbour), it cannot reconstruct the block from local data
    /// alone: the off-diagonal contributions `A_ij · v_j` of the
    /// interpolation need the neighbour's current values. So every rank
    /// posts one (possibly empty) `RecoveryRequest` per halo neighbour and
    /// answers each neighbour's request with one `RecoveryReply`, keeping
    /// the protocol deadlock-free in lockstep with the solver.
    ///
    /// `requests` maps a peer rank to the sorted global indices (owned by
    /// that peer) whose current values this rank needs for its interpolation;
    /// peers absent from the map receive an empty request. `data` is this
    /// rank's full-length working buffer: its owned range answers incoming
    /// requests, and the fetched remote values are scattered into it before
    /// the call returns. `unserviceable` lists (sorted) the global indices
    /// this rank owns but cannot vouch for this round — the rows of its own
    /// freshly scrubbed pages; incoming requests for them are answered with
    /// the blank value and flagged invalid. Returns the number of values
    /// fetched across rank boundaries and the sorted fetched indices whose
    /// owner flagged them invalid (the requester must not build an "exact"
    /// reconstruction on those): two ranks faulting simultaneously on
    /// stencil-adjacent pages is the cross-rank form of the paper's
    /// "related data" case.
    ///
    /// Every rank must call this the same number of times in the same order
    /// (it is a neighbourhood collective); a healthy rank simply passes an
    /// empty request map. Requests for peers that are not halo neighbours
    /// are rejected, as no rank is waiting to serve them.
    pub fn recovery_exchange(
        &self,
        requests: &HashMap<usize, Vec<usize>>,
        data: &mut [f64],
        unserviceable: &[usize],
    ) -> Result<(usize, Vec<usize>), CommError> {
        self.complete_recovery_exchange(requests, data, unserviceable, false)
    }

    /// Phase 1 of [`RankComm::recovery_exchange`] in isolation: post this
    /// rank's (possibly empty) requests to every recovery peer and return
    /// immediately, without serving incoming requests or collecting replies.
    ///
    /// This is the AFEIR in-window prefetch hook, the one place the rank
    /// loops schedule AFEIR differently from FEIR: a rank that already knows
    /// its round-1 requests posts them while the reduction carrying the
    /// fault flag is still in flight, so the peers' answers overlap the
    /// reduction wait. Posting early changes when the requests travel, not
    /// what comes back, so the repair has FEIR's bits. The caller must
    /// later finish the round with
    /// [`RankComm::complete_recovery_exchange`] passing `posted = true` and
    /// the *same* request map, or the neighbourhood deadlocks.
    pub fn post_recovery_requests(
        &self,
        requests: &HashMap<usize, Vec<usize>>,
    ) -> Result<(), CommError> {
        // A request outside the neighbourhood would never be served —
        // reject it loudly instead.
        assert!(
            requests.keys().all(|p| self.recovery_peers.contains(p)),
            "recovery request targets a rank outside the halo neighbourhood"
        );
        for &peer in &self.recovery_peers {
            let indices = requests
                .get(&peer)
                .map(|v| v.iter().map(|&i| i as u64).collect())
                .unwrap_or_default();
            let request = Message::RecoveryRequest { indices };
            self.link.send(peer, request, "recovery request")?;
        }
        Ok(())
    }

    /// Phases 2–3 of [`RankComm::recovery_exchange`]: serve the peers'
    /// incoming requests from `data` and scatter their replies back into it.
    /// When `posted` is false the requests are posted first (making the call
    /// equivalent to [`RankComm::recovery_exchange`]); when true the caller
    /// already posted this exact `requests` map via
    /// [`RankComm::post_recovery_requests`]. Receives are by tag, so a
    /// peer's request is always read before its reply.
    pub fn complete_recovery_exchange(
        &self,
        requests: &HashMap<usize, Vec<usize>>,
        data: &mut [f64],
        unserviceable: &[usize],
        posted: bool,
    ) -> Result<(usize, Vec<usize>), CommError> {
        debug_assert!(
            unserviceable.windows(2).all(|w| w[0] < w[1]),
            "unserviceable indices must be sorted"
        );
        if !posted {
            self.post_recovery_requests(requests)?;
        }
        // Phase 2: answer each incoming request from the owned data,
        // flagging the entries this rank cannot vouch for.
        for &peer in &self.recovery_peers {
            let msg = self
                .link
                .recv(peer, Tag::RecoveryRequest, "recovery request receive")?;
            let Message::RecoveryRequest { indices } = msg else {
                unreachable!("recv() returns the requested tag")
            };
            let mut values = Vec::with_capacity(indices.len());
            let mut valid = Vec::with_capacity(indices.len());
            for &i in &indices {
                let i = i as usize;
                if i >= data.len() {
                    return Err(CommError::Protocol(format!(
                        "rank {peer} requested out-of-range index {i}"
                    )));
                }
                values.push(data[i]);
                valid.push(unserviceable.binary_search(&i).is_err());
            }
            let reply = Message::RecoveryReply { values, valid };
            self.link.send(peer, reply, "recovery reply")?;
        }
        // Phase 3: scatter the fetched values into the working buffer.
        let mut fetched = 0;
        let mut invalid = Vec::new();
        for &peer in &self.recovery_peers {
            let msg = self
                .link
                .recv(peer, Tag::RecoveryReply, "recovery reply receive")?;
            let Message::RecoveryReply { values, valid } = msg else {
                unreachable!("recv() returns the requested tag")
            };
            let indices = requests.get(&peer).map(Vec::as_slice).unwrap_or(&[]);
            if values.len() != indices.len() || valid.len() != indices.len() {
                return Err(CommError::Protocol(format!(
                    "recovery reply from rank {peer}: {} values for {} requests",
                    values.len(),
                    indices.len()
                )));
            }
            for ((&i, v), ok) in indices.iter().zip(values).zip(valid) {
                data[i] = v;
                fetched += 1;
                if !ok {
                    invalid.push(i);
                }
            }
        }
        invalid.sort_unstable();
        Ok((fetched, invalid))
    }

    /// Downward wave of the coupled cross-rank recovery round: every rank
    /// receives the `CoupledGather` offers of its *higher-ranked* halo
    /// neighbours (in ascending peer order), merges its own offer in,
    /// forwards the merged offer to every *lower-ranked* neighbour, and
    /// returns the merged view.
    ///
    /// `rows` are this rank's `(global row, rhs value)` lost-row offers and
    /// `support` its `(global col, value, valid)` surviving stencil entries
    /// outside the offered row set. Merging deduplicates rows by row id and
    /// support by column id, keeping the first occurrence in
    /// own-then-ascending-peer order; since every offerer copies a value from
    /// its owner, duplicates are bitwise-identical and the merge is
    /// deterministic. Both returned lists are sorted by their global id.
    ///
    /// Like [`RankComm::recovery_exchange`] this is a neighbourhood
    /// collective: every rank must call it the same number of times in the
    /// same order, passing empty offers when it has nothing to contribute.
    pub fn coupled_gather_wave(
        &self,
        rows: &[(usize, f64)],
        support: &[(usize, f64, bool)],
    ) -> Result<CoupledGatherView, CommError> {
        let mut rows: Vec<(usize, f64)> = rows.to_vec();
        let mut support: Vec<(usize, f64, bool)> = support.to_vec();
        for &peer in self.recovery_peers.iter().filter(|&&p| p > self.rank) {
            let msg = self
                .link
                .recv(peer, Tag::CoupledGather, "coupled gather receive")?;
            let Message::CoupledGather {
                rows: peer_rows,
                values,
                support_cols,
                support_values,
                support_valid,
            } = msg
            else {
                unreachable!("recv() returns the requested tag")
            };
            if peer_rows.len() != values.len()
                || support_cols.len() != support_values.len()
                || support_cols.len() != support_valid.len()
            {
                return Err(CommError::Protocol(format!(
                    "coupled gather from rank {peer}: mismatched array lengths"
                )));
            }
            rows.extend(peer_rows.into_iter().map(|r| r as usize).zip(values));
            support.extend(
                support_cols
                    .into_iter()
                    .map(|c| c as usize)
                    .zip(support_values)
                    .zip(support_valid)
                    .map(|((c, v), ok)| (c, v, ok)),
            );
        }
        merge_coupled_offer(&mut rows, &mut support);
        for &peer in self.recovery_peers.iter().filter(|&&p| p < self.rank) {
            let offer = Message::CoupledGather {
                rows: rows.iter().map(|&(r, _)| r as u64).collect(),
                values: rows.iter().map(|&(_, v)| v).collect(),
                support_cols: support.iter().map(|&(c, _, _)| c as u64).collect(),
                support_values: support.iter().map(|&(_, v, _)| v).collect(),
                support_valid: support.iter().map(|&(_, _, ok)| ok).collect(),
            };
            self.link.send(peer, offer, "coupled gather send")?;
        }
        Ok((rows, support))
    }

    /// Upward wave closing the coupled cross-rank recovery round: every rank
    /// receives the `CoupledResult` entries of its *lower-ranked* halo
    /// neighbours (in ascending peer order), merges its own solved entries
    /// in, relays the merged set to every *higher-ranked* neighbour, and
    /// returns the merged `(global row, value)` list sorted by row. The
    /// caller installs the rows it owns (or needs as halo input) from the
    /// returned set.
    ///
    /// Deduplication keeps the first occurrence in own-then-ascending-peer
    /// order; a row is only ever solved by the lowest rank owning part of
    /// its component, so duplicates are relays of the same solution and the
    /// merge is deterministic. A neighbourhood collective with the same
    /// call-discipline as [`RankComm::coupled_gather_wave`].
    pub fn coupled_result_wave(
        &self,
        entries: &[(usize, f64)],
    ) -> Result<Vec<(usize, f64)>, CommError> {
        let mut entries: Vec<(usize, f64)> = entries.to_vec();
        for &peer in self.recovery_peers.iter().filter(|&&p| p < self.rank) {
            let msg = self
                .link
                .recv(peer, Tag::CoupledResult, "coupled result receive")?;
            let Message::CoupledResult { rows, values } = msg else {
                unreachable!("recv() returns the requested tag")
            };
            if rows.len() != values.len() {
                return Err(CommError::Protocol(format!(
                    "coupled result from rank {peer}: {} rows for {} values",
                    rows.len(),
                    values.len()
                )));
            }
            entries.extend(rows.into_iter().map(|r| r as usize).zip(values));
        }
        entries.sort_by_key(|&(row, _)| row);
        entries.dedup_by_key(|&mut (row, _)| row);
        for &peer in self.recovery_peers.iter().filter(|&&p| p > self.rank) {
            let result = Message::CoupledResult {
                rows: entries.iter().map(|&(r, _)| r as u64).collect(),
                values: entries.iter().map(|&(_, v)| v).collect(),
            };
            self.link.send(peer, result, "coupled result send")?;
        }
        Ok(entries)
    }
}

/// Sorts and deduplicates a merged coupled offer in place. Rust's sort is
/// stable, so after a stable sort by global id `dedup` keeps the first
/// occurrence in the pre-sort (own-then-ascending-peer) order.
fn merge_coupled_offer(rows: &mut Vec<(usize, f64)>, support: &mut Vec<(usize, f64, bool)>) {
    rows.sort_by_key(|&(row, _)| row);
    rows.dedup_by_key(|&mut (row, _)| row);
    support.sort_by_key(|&(col, _, _)| col);
    support.dedup_by_key(|&mut (col, _, _)| col);
}

/// An in-flight split-phase allreduce on a [`RankComm`] (see
/// [`RankComm::start_allreduce`]).
///
/// The contribution has already been sent to every peer; dropping the handle
/// without calling [`PendingAllreduce::finish`] leaves the peers' partials
/// unconsumed and desynchronizes this rank's next collective, hence the
/// `must_use`.
#[must_use = "finish() completes the collective; dropping the handle desynchronizes the next one"]
#[derive(Debug)]
pub struct PendingAllreduce<'a> {
    comm: &'a RankComm,
    local: f64,
}

impl PendingAllreduce<'_> {
    /// Completes the collective and returns the global sum: receives every
    /// peer's partial and folds all of them in rank order.
    pub fn finish(self) -> Result<f64, CommError> {
        let _probe = feir_trace::span(feir_trace::Phase::AllreduceWait);
        let partials = self.comm.gather_partials(
            self.local,
            Tag::GatherScalar,
            "allreduce gather",
            |msg| match msg {
                Message::GatherScalar { rank, value } => (rank, value),
                _ => unreachable!("recv() returns the requested tag"),
            },
        )?;
        Ok(partials.iter().sum())
    }
}

/// An in-flight split-phase *vector* allreduce on a [`RankComm`] (see
/// [`RankComm::start_allreduce_vec`]).
#[must_use = "finish() completes the collective; dropping the handle desynchronizes the next one"]
#[derive(Debug)]
pub struct PendingVecAllreduce<'a> {
    comm: &'a RankComm,
    local: Vec<f64>,
}

impl PendingVecAllreduce<'_> {
    /// Completes the collective and returns the component-wise global sums:
    /// receives every peer's partial vector and folds all of them in rank
    /// order.
    pub fn finish(self) -> Result<Vec<f64>, CommError> {
        let _probe = feir_trace::span(feir_trace::Phase::AllreduceWait);
        let partials = self.comm.gather_partials(
            self.local,
            Tag::GatherVec,
            "vector allreduce gather",
            |msg| match msg {
                Message::GatherVec { rank, values } => (rank, values),
                _ => unreachable!("recv() returns the requested tag"),
            },
        )?;
        fold_partials_rank_ordered(&partials)
    }
}

/// Distributed SpMV `y = A·x` over `ranks` simulated ranks: one halo exchange
/// followed by each rank's local block-row product.
///
/// This is the communication round-trip of one CG iteration in isolation,
/// used by tests to validate the halo plan against the serial kernel; a comm
/// failure (impossible unless a rank thread dies) panics here rather than
/// propagating.
pub fn distributed_spmv(a: &CsrMatrix, x: &[f64], ranks: usize) -> Vec<f64> {
    assert_eq!(x.len(), a.cols(), "distributed_spmv: x has wrong length");
    assert_eq!(
        a.rows(),
        a.cols(),
        "distributed_spmv: matrix must be square"
    );
    let ranks = effective_ranks(a.rows(), ranks);
    let partition = RankPartition::new(a.rows(), ranks);
    let plan = HaloPlan::build(a, &partition);
    let comms = RankComm::for_ranks(&plan, ranks);

    let mut y = vec![0.0; a.rows()];
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(ranks);
        for comm in comms {
            let partition = partition.clone();
            let handle = scope.spawn(move || {
                let rank = comm.rank();
                let own = partition.range(rank);
                // Private working copy: authoritative only on the owned range.
                let mut full = vec![0.0; a.cols()];
                full[own.clone()].copy_from_slice(&x[own.clone()]);
                comm.exchange_halo(&mut full).expect("halo exchange failed");
                let mut local = vec![0.0; own.len()];
                a.spmv_rows(own.start, own.end, &full, &mut local);
                (rank, local)
            });
            handles.push(handle);
        }
        for handle in handles {
            let (rank, local) = handle.join().expect("rank thread panicked");
            y[partition.range(rank)].copy_from_slice(&local);
        }
    });
    y
}

/// Distributed dot product `⟨x, y⟩` over `ranks` simulated ranks via the
/// rank-ordered allreduce.
pub fn distributed_dot(x: &[f64], y: &[f64], ranks: usize) -> f64 {
    assert_eq!(x.len(), y.len(), "distributed_dot: length mismatch");
    let ranks = effective_ranks(x.len(), ranks);
    let partition = RankPartition::new(x.len(), ranks);
    let comms = RankComm::for_ranks(&HaloPlan::empty(ranks), ranks);
    let mut result = 0.0;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(ranks);
        for comm in comms {
            let range = partition.range(comm.rank());
            let handle = scope.spawn(move || {
                let local = feir_sparse::vecops::dot(&x[range.clone()], &y[range]);
                comm.allreduce_sum(local).expect("allreduce failed")
            });
            handles.push(handle);
        }
        for handle in handles {
            result = handle.join().expect("rank thread panicked");
        }
    });
    result
}

/// Clamps the requested rank count to something the problem can sustain.
pub(crate) fn effective_ranks(n: usize, ranks: usize) -> usize {
    ranks.max(1).min(n.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use feir_sparse::generators::poisson_2d;

    #[test]
    fn halo_plan_of_poisson_is_the_grid_boundary() {
        let a = poisson_2d(8); // 64 rows, rows couple to ±1 and ±8.
        let partition = RankPartition::new(a.rows(), 4);
        let plan = HaloPlan::build(&a, &partition);
        // Interior ranks exchange one grid line (8 entries) with each
        // neighbour plus the single off-by-one entry of the 5-point stencil.
        for r in 0..4 {
            for (&peer, cols) in plan.needs_of(r) {
                assert_ne!(peer, r);
                assert!(!cols.is_empty());
                assert!(cols.windows(2).all(|w| w[0] < w[1]), "sorted & unique");
                for &c in cols {
                    assert_eq!(partition.owner_of(c), peer);
                }
            }
        }
        assert!(plan.halo_volume() > 0);
        // Sends mirror needs exactly.
        for r in 0..4 {
            for (&dest, cols) in plan.sends_of(r) {
                assert_eq!(plan.needs_of(dest).get(&r), Some(cols));
            }
        }
    }

    /// `HaloPlan::build` against the definition, found by a full scan of
    /// every non-zero: rank `r` needs column `c` from rank `s` iff one of
    /// `r`'s rows references `c` and `s ≠ r` owns it.
    #[test]
    fn halo_plan_equals_the_brute_force_reference() {
        use feir_sparse::generators::{poisson_3d_27pt, random_spd};
        use std::collections::{BTreeMap, BTreeSet};
        let matrices = [
            poisson_2d(16),
            poisson_3d_27pt(6),
            random_spd(200, 5, 1),
            random_spd(157, 6, 9),
        ];
        let cases = matrices
            .iter()
            .flat_map(|a| [1, 2, 3, 4, 5].map(|ranks| (a, ranks)));
        for (a, ranks) in cases {
            let partition = RankPartition::new(a.rows(), ranks);
            let mut reference: Vec<BTreeMap<usize, BTreeSet<usize>>> = vec![BTreeMap::new(); ranks];
            for row in 0..a.rows() {
                let r = partition.owner_of(row);
                for &c in a.row(row).0 {
                    let c = c as usize;
                    let s = partition.owner_of(c);
                    if s != r {
                        reference[r].entry(s).or_default().insert(c);
                    }
                }
            }
            let sorted = |m: &HashMap<usize, Vec<usize>>| -> BTreeMap<usize, Vec<usize>> {
                m.iter().map(|(&peer, cols)| (peer, cols.clone())).collect()
            };
            let plan = HaloPlan::build(a, &partition);
            let mut volume = 0;
            for r in 0..ranks {
                let needs: BTreeMap<usize, Vec<usize>> = reference[r]
                    .iter()
                    .map(|(&s, cols)| (s, cols.iter().copied().collect()))
                    .collect();
                let sends: BTreeMap<usize, Vec<usize>> = (0..ranks)
                    .filter_map(|dest| {
                        let cols = reference[dest].get(&r)?;
                        Some((dest, cols.iter().copied().collect()))
                    })
                    .collect();
                volume += needs.values().map(Vec::len).sum::<usize>();
                assert_eq!(sorted(plan.needs_of(r)), needs, "needs of rank {r}/{ranks}");
                assert_eq!(sorted(plan.sends_of(r)), sends, "sends of rank {r}/{ranks}");
            }
            assert_eq!(volume > 0, ranks > 1);
            assert_eq!(plan.halo_volume(), volume);
        }
    }

    #[test]
    fn a_queued_message_is_received_without_parking() {
        let (tx, rx) = channel();
        tx.send(7.5).unwrap();
        // The poll phases alone deliver it; the park is never reached.
        assert_eq!(poll_recv(&rx), Some(Ok(7.5)));
        // Nothing queued and the sender alive: the budget runs out (and only
        // then would `wait_recv` park).
        let polling_since = Instant::now();
        assert_eq!(poll_recv(&rx), None);
        assert!(polling_since.elapsed() >= POLL_BUDGET);
        drop(tx);
    }

    #[test]
    fn a_message_sent_after_the_poll_budget_arrives_through_the_park() {
        let (tx, rx) = channel();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                std::thread::sleep(Duration::from_millis(5));
                tx.send(2.25).unwrap();
            });
            assert_eq!(wait_recv(&rx), Ok(2.25));
        });
    }

    #[test]
    fn a_dropped_sender_disconnects_the_wait_in_either_phase() {
        // Poll phase: the sender is gone before the wait starts.
        let (tx, rx) = channel::<f64>();
        drop(tx);
        assert_eq!(poll_recv(&rx), Some(Err(RecvError)));
        assert_eq!(wait_recv(&rx), Err(RecvError));

        // Park phase: the sender outlives the poll budget, then drops.
        let (tx, rx) = channel::<f64>();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                std::thread::sleep(Duration::from_millis(5));
                drop(tx);
            });
            assert_eq!(wait_recv(&rx), Err(RecvError));
        });

        // The same through a collective: rank 1 leaves while rank 0 is parked
        // in the gather, and rank 0 sees the typed error.
        let mut comms = RankComm::for_ranks(&HaloPlan::empty(2), 2);
        let c1 = comms.pop().unwrap();
        let c0 = comms.pop().unwrap();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                std::thread::sleep(Duration::from_millis(5));
                drop(c1);
            });
            let err = c0.allreduce_sum(1.0).unwrap_err();
            assert!(
                matches!(err, CommError::Disconnected { .. }),
                "expected Disconnected, got {err:?}"
            );
        });
    }

    #[test]
    fn recovery_exchange_fetches_cross_boundary_values() {
        let a = poisson_2d(8);
        let n = a.rows();
        let ranks = 4;
        let partition = RankPartition::new(n, ranks);
        let plan = HaloPlan::build(&a, &partition);
        let comms = RankComm::for_ranks(&plan, ranks);
        // Rank 2 lost a page and requests every halo entry it references;
        // the other ranks participate with empty requests.
        let fetched: Vec<(usize, usize, Vec<f64>)> = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for comm in comms {
                let partition = partition.clone();
                let plan = plan.clone();
                let handle = scope.spawn(move || {
                    let rank = comm.rank();
                    let own = partition.range(rank);
                    let mut data = vec![f64::NAN; n];
                    for i in own {
                        data[i] = i as f64;
                    }
                    let requests: HashMap<usize, Vec<usize>> = if rank == 2 {
                        plan.needs_of(2).clone()
                    } else {
                        HashMap::new()
                    };
                    let (count, invalid) = comm
                        .recovery_exchange(&requests, &mut data, &[])
                        .expect("recovery exchange failed");
                    assert!(invalid.is_empty(), "no owner declared pages lost");
                    let values: Vec<f64> = requests
                        .values()
                        .flat_map(|cols| cols.iter().map(|&c| data[c] - c as f64))
                        .collect();
                    (rank, count, values)
                });
                handles.push(handle);
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("rank panicked"))
                .collect()
        });
        for (rank, count, deltas) in fetched {
            if rank == 2 {
                assert!(count > 0, "rank 2 fetched nothing");
                assert!(
                    deltas.iter().all(|d| *d == 0.0),
                    "fetched values disagree with the owner's data"
                );
            } else {
                assert_eq!(count, 0, "healthy rank {rank} fetched data");
            }
        }
    }

    #[test]
    fn recovery_exchange_flags_values_the_owner_lost() {
        let a = poisson_2d(8);
        let n = a.rows();
        let ranks = 2;
        let partition = RankPartition::new(n, ranks);
        let plan = HaloPlan::build(&a, &partition);
        let comms = RankComm::for_ranks(&plan, ranks);
        // Rank 0 requests its halo from rank 1, but rank 1 declares the
        // first rows it owns lost: rank 0 must get them flagged invalid.
        let results: Vec<(usize, Vec<usize>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = comms
                .into_iter()
                .map(|comm| {
                    let partition = partition.clone();
                    let plan = plan.clone();
                    scope.spawn(move || {
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
                        let (_, invalid) = comm
                            .recovery_exchange(&requests, &mut data, &lost)
                            .expect("recovery exchange failed");
                        (rank, invalid)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rank panicked"))
                .collect()
        });
        let boundary = partition.range(1).start;
        for (rank, invalid) in results {
            if rank == 0 {
                // Rank 0's 5-point halo includes the first row rank 1 owns,
                // which rank 1 lost.
                assert!(invalid.contains(&boundary), "lost row not flagged");
                assert!(invalid.windows(2).all(|w| w[0] < w[1]), "sorted");
            } else {
                assert!(invalid.is_empty());
            }
        }
    }

    /// Runs `body` on every rank of a fresh halo-free in-process mesh and
    /// returns the per-rank results in rank order.
    fn on_every_rank<T: Send>(ranks: usize, body: impl Fn(&RankComm) -> T + Sync) -> Vec<T> {
        let comms = RankComm::for_ranks(&HaloPlan::empty(ranks), ranks);
        std::thread::scope(|scope| {
            let handles: Vec<_> = comms
                .into_iter()
                .map(|comm| {
                    let body = &body;
                    scope.spawn(move || body(&comm))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rank panicked"))
                .collect()
        })
    }

    #[test]
    fn vector_allreduce_matches_scalar_allreduces_bitwise() {
        // Each component of the batched collective must carry exactly the
        // bits a scalar allreduce of the same partials produces.
        for ranks in [1usize, 2, 4] {
            let partial = |rank: usize, j: usize| 0.1 + rank as f64 * 0.3 + j as f64 * 0.7;
            let scalar: Vec<Vec<f64>> = on_every_rank(ranks, |comm| {
                (0..3)
                    .map(|j| comm.allreduce_sum(partial(comm.rank(), j)).unwrap())
                    .collect()
            });
            let vectored: Vec<Vec<f64>> = on_every_rank(ranks, |comm| {
                let local: Vec<f64> = (0..3).map(|j| partial(comm.rank(), j)).collect();
                let pending = comm.start_allreduce_vec(local).unwrap();
                // Local work overlapping the reduction.
                let mut acc = 0.0;
                for i in 0..200 {
                    acc += (i as f64).sqrt();
                }
                assert!(acc > 0.0);
                pending.finish().unwrap()
            });
            for (s, v) in scalar.iter().zip(&vectored) {
                assert_eq!(s.len(), v.len());
                for (a, b) in s.iter().zip(v) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{ranks} ranks");
                }
            }
        }
    }

    #[test]
    fn rank_comm_counts_collectives() {
        let counts = on_every_rank(2, |comm| {
            comm.allreduce_sum(1.0).unwrap();
            let _ = comm.allreduce_vec(vec![1.0, 2.0]).unwrap();
            comm.allreduce_sum(0.0).unwrap();
            let pending = comm.start_allreduce(0.5).unwrap();
            pending.finish().unwrap();
            comm.collectives()
        });
        assert_eq!(counts, vec![4, 4]);
    }

    #[test]
    fn reducer_sums_across_ranks_deterministically() {
        // The last partials sum to 3.5 folded left in rank order and to 4.0
        // folded right: every rank must fold them in the same, rank order.
        let order_sensitive = [1e16, 1.0, -1e16, 3.0, 0.5];
        assert_eq!(order_sensitive.iter().rev().fold(0.0, |t, p| t + p), 4.0);
        for partials in [
            vec![1.0],
            vec![1.0, 2.0],
            vec![1.0, 2.0, 3.0, 4.0, 5.0],
            order_sensitive.to_vec(),
        ] {
            let totals = on_every_rank(partials.len(), |comm| {
                comm.allreduce_sum(partials[comm.rank()]).unwrap()
            });
            let expected = partials.iter().fold(0.0, |t, p| t + p);
            for total in totals {
                assert_eq!(total.to_bits(), expected.to_bits(), "{partials:?}");
            }
        }
    }

    #[test]
    fn a_rank_finishes_without_waiting_for_a_busy_rank_0() {
        let ready = std::sync::Barrier::new(2);
        let results = on_every_rank(2, |comm| {
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
    fn dropped_peer_surfaces_as_typed_comm_error() {
        // Rank 1 drops its endpoint without entering the collective; rank 0
        // must observe a CommError::Disconnected naming it, not a panic.
        let mut comms = RankComm::for_ranks(&HaloPlan::empty(2), 2);
        let c1 = comms.pop().unwrap();
        let c0 = comms.pop().unwrap();
        drop(c1);
        let err = c0.allreduce_sum(1.0).unwrap_err();
        assert!(
            matches!(err, CommError::Disconnected { peer: Some(1), .. }),
            "expected Disconnected from rank 1, got {err:?}"
        );
    }

    #[test]
    fn dropped_halo_peer_surfaces_as_typed_comm_error() {
        let a = poisson_2d(4);
        let partition = RankPartition::new(a.rows(), 2);
        let plan = HaloPlan::build(&a, &partition);
        let mut comms = RankComm::for_ranks(&plan, 2);
        let c1 = comms.pop().unwrap();
        let c0 = comms.pop().unwrap();
        drop(c1);
        let mut full = vec![0.0; a.cols()];
        let err = c0.exchange_halo(&mut full).unwrap_err();
        assert!(
            matches!(err, CommError::Disconnected { peer: Some(1), .. }),
            "expected Disconnected from rank 1, got {err:?}"
        );
    }

    /// A [`Link`] playing every peer from a script: `recv` hands out the
    /// scripted messages by tag, sends are swallowed, and a peer whose
    /// script has run dry has hung up.
    #[derive(Debug, Default)]
    struct ScriptedLink {
        script: RefCell<HashMap<usize, VecDeque<Message>>>,
    }

    impl Link for ScriptedLink {
        fn send(
            &self,
            _peer: usize,
            _msg: Message,
            _during: &'static str,
        ) -> Result<(), CommError> {
            Ok(())
        }

        fn recv(&self, peer: usize, want: Tag, during: &'static str) -> Result<Message, CommError> {
            let mut script = self.script.borrow_mut();
            let queue = script.entry(peer).or_default();
            match queue.iter().position(|m| m.tag() == want) {
                Some(at) => Ok(queue.remove(at).expect("position just found")),
                None => Err(CommError::Disconnected {
                    peer: Some(peer),
                    during,
                }),
            }
        }

        fn rejoin(&self, _failed: Option<usize>, _iteration: u64) -> Result<u64, CommError> {
            unreachable!("no collective rejoins")
        }
    }

    /// Rank `rank` of a `ranks`-rank mesh over `plan`, whose peers say
    /// exactly `script` (`(peer, message)` in arrival order).
    fn scripted(
        plan: &HaloPlan,
        rank: usize,
        ranks: usize,
        script: Vec<(usize, Message)>,
    ) -> RankComm {
        let link = ScriptedLink::default();
        for (peer, msg) in script {
            link.script
                .borrow_mut()
                .entry(peer)
                .or_default()
                .push_back(msg);
        }
        RankComm::new(plan, rank, ranks, Box::new(link))
    }

    fn protocol_error<T: fmt::Debug>(result: Result<T, CommError>) -> String {
        match result {
            Err(CommError::Protocol(why)) => why,
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }

    #[test]
    fn misbehaving_halo_and_gather_peers_are_typed_errors() {
        let a = poisson_2d(4);
        let plan = HaloPlan::build(&a, &RankPartition::new(a.rows(), 2));
        let expected = plan.needs_of(0)[&1].len();
        assert!(expected > 1);
        // A short halo must not leave stale entries behind a silent zip.
        let short = Message::Halo {
            values: vec![1.0; expected - 1],
        };
        let comm = scripted(&plan, 0, 2, vec![(1, short)]);
        let why = protocol_error(comm.exchange_halo(&mut vec![0.0; a.cols()]));
        assert!(why.contains("halo from rank 1"), "{why}");

        let empty = HaloPlan::empty(3);
        let impostor = Message::GatherScalar {
            rank: 2,
            value: 1.0,
        };
        let comm = scripted(&empty, 0, 3, vec![(1, impostor)]);
        let why = protocol_error(comm.allreduce_sum(1.0));
        assert!(why.contains("claims rank 2"), "{why}");

        let impostor = Message::GatherVec {
            rank: 2,
            values: vec![1.0],
        };
        let comm = scripted(&empty, 0, 3, vec![(1, impostor)]);
        let why = protocol_error(comm.allreduce_vec(vec![1.0]));
        assert!(why.contains("claims rank 2"), "{why}");

        let short = Message::GatherVec {
            rank: 1,
            values: vec![1.0],
        };
        let comm = scripted(&HaloPlan::empty(2), 0, 2, vec![(1, short)]);
        let why = protocol_error(comm.allreduce_vec(vec![1.0, 2.0]));
        assert!(why.contains("component count"), "{why}");
    }

    #[test]
    fn misbehaving_recovery_peers_are_typed_errors() {
        let a = poisson_2d(4);
        let plan = HaloPlan::build(&a, &RankPartition::new(a.rows(), 2));
        let no_request = || Message::RecoveryRequest {
            indices: Vec::new(),
        };
        let mut data = vec![0.0; a.cols()];

        // A reply shorter than the request it answers.
        let requests = HashMap::from([(1, plan.needs_of(0)[&1].clone())]);
        let short_reply = Message::RecoveryReply {
            values: vec![1.0],
            valid: vec![true],
        };
        let comm = scripted(&plan, 0, 2, vec![(1, no_request()), (1, short_reply)]);
        let why = protocol_error(comm.recovery_exchange(&requests, &mut data, &[]));
        assert!(why.contains("recovery reply from rank 1"), "{why}");

        // A request for an index this rank's buffer does not have.
        let wild = Message::RecoveryRequest {
            indices: vec![data.len() as u64],
        };
        let comm = scripted(&plan, 0, 2, vec![(1, wild)]);
        let why = protocol_error(comm.recovery_exchange(&HashMap::new(), &mut data, &[]));
        assert!(why.contains("out-of-range index"), "{why}");

        // A coupled offer whose parallel arrays disagree.
        let ragged = Message::CoupledGather {
            rows: vec![3],
            values: Vec::new(),
            support_cols: Vec::new(),
            support_values: Vec::new(),
            support_valid: Vec::new(),
        };
        let comm = scripted(&plan, 0, 2, vec![(1, ragged)]);
        let why = protocol_error(comm.coupled_gather_wave(&[], &[]));
        assert!(why.contains("mismatched array lengths"), "{why}");
    }

    #[test]
    fn a_link_reporting_a_disconnect_surfaces_it_unchanged() {
        let comm = scripted(&HaloPlan::empty(2), 0, 2, Vec::new());
        let err = comm.allreduce_sum(1.0).unwrap_err();
        assert!(
            matches!(
                err,
                CommError::Disconnected {
                    peer: Some(1),
                    during: "allreduce gather"
                }
            ),
            "got {err:?}"
        );
        let comm = scripted(&HaloPlan::empty(2), 1, 2, Vec::new());
        let err = comm.allreduce_vec(vec![1.0]).unwrap_err();
        assert!(
            matches!(err, CommError::Disconnected { peer: Some(0), .. }),
            "got {err:?}"
        );
    }
}
