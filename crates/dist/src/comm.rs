//! Message-passing primitives between ranks: halo exchange for the block-row
//! SpMV and the rank-ordered sum allreduce for the CG dot products.
//!
//! Two backends live behind the same [`RankComm`] surface:
//!
//! * **In-process** — ranks are threads wired with `std::sync::mpsc` channels.
//!   No rank ever reads another rank's buffers, so the data movement is
//!   exactly the send/receive pattern an MPI implementation of Section 3.4
//!   would perform. This is the default for unit tests and the thread-backed
//!   solver entry points.
//! * **Process** — ranks are real OS processes connected over Unix domain
//!   sockets (TCP fallback) speaking the versioned `feir-wire` frame protocol
//!   (see [`crate::process`]). Every collective performs the *same*
//!   rank-ordered arithmetic as the in-process backend, so results are
//!   bitwise identical across backends.
//!
//! Every communication method returns `Result<_, CommError>`: a vanished
//! peer — a disconnected channel in-process, a closed socket across
//! processes — surfaces as a typed [`CommError`] instead of a panic, so the
//! resilience engine can observe rank failure the same way on both backends.

use std::collections::HashMap;
use std::fmt;
use std::sync::mpsc::{channel, Receiver, RecvError, Sender, TryRecvError};
use std::time::{Duration, Instant};

use feir_sparse::CsrMatrix;

use crate::partition::RankPartition;
use crate::process::ProcessLinks;

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
            let mut remote: Vec<usize> = own
                .clone()
                .flat_map(|row| a.row(row).0)
                .copied()
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

/// Message exchanged on the cross-rank recovery channels.
///
/// When a rank discovers a DUE whose recovery relation reaches across a rank
/// boundary (the faulted block's matrix stencil references columns owned by a
/// neighbour), it cannot reconstruct the block from local data alone: the
/// off-diagonal contributions `A_ij · v_j` of the interpolation need the
/// neighbour's current values. The recovery round is a collective over halo
/// neighbours — every rank posts one [`RecoveryMsg::Request`] (possibly empty)
/// per neighbour and answers the neighbour's request with one
/// [`RecoveryMsg::Reply`], so the protocol stays deadlock-free in lockstep
/// with the solver.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryMsg {
    /// Ask the receiving rank for the current authoritative values of the
    /// listed global indices (which it owns). An empty list means "nothing
    /// needed this round" and still participates in the collective.
    Request(Vec<usize>),
    /// The answer to the sender's last request, in request order.
    Reply {
        /// The owner's current values at the requested indices.
        values: Vec<f64>,
        /// Per value, whether the owner can vouch for it. `false` marks an
        /// index inside a page the owner itself lost this round (its data
        /// is a post-scrub blank): two ranks faulting simultaneously on
        /// stencil-adjacent pages is the cross-rank form of the paper's
        /// "related data" case, and the requester must blank-accept rather
        /// than install a reconstruction built on garbage.
        valid: Vec<bool>,
    },
    /// Coupled cross-rank recovery offer, travelling *down* the rank chain
    /// (each rank receives from its higher-ranked halo neighbours, merges
    /// its own offer in and forwards to its lower-ranked neighbours): the
    /// sender's view of the lost-row union plus the surviving stencil
    /// support the coupled solve needs from outside it.
    CoupledGather {
        /// `(global row, rhs value)` of lost rows in the coupled union (the
        /// surviving residual / matvec value at each row).
        rows: Vec<(usize, f64)>,
        /// `(global col, value, valid)` stencil entries outside the union;
        /// `valid == false` marks an entry its owner lost this round.
        support: Vec<(usize, f64, bool)>,
    },
    /// Coupled cross-rank recovery result, travelling *up* the rank chain:
    /// reconstructed `(global row, value)` entries for installation by the
    /// rows' owners.
    CoupledResult {
        /// Reconstructed entries.
        entries: Vec<(usize, f64)>,
    },
}

/// `try_recv` attempts made back to back (with `hint::spin_loop`) before a
/// waiting rank starts yielding its core: covers a peer that is already
/// sending, for well under a microsecond.
const SPIN_POLLS: u32 = 32;

/// How long a waiting rank keeps polling (`try_recv` + `yield_now`) before it
/// parks in the blocking `recv()`.
///
/// About one parked round trip, so the most a wait can waste is what parking
/// would have cost anyway. Measured on the 2-vCPU development container with
/// two threads handing one `f64` back and forth over a channel pair, the
/// replier computing 0–20 µs before it answers: 40–41 µs per round trip over
/// the compute when both sides park (two futex wake-ups across vCPUs), 0.4–1.4
/// µs with this discipline.
const POLL_BUDGET: Duration = Duration::from_micros(50);

/// The one way the in-process backend waits for a message: spin, then yield,
/// then park.
///
/// Same channel, same message, same [`RecvError`] on a dropped sender as the
/// bare `rx.recv()` it replaces — only how the thread passes the time differs.
/// The yield phase hands the core to whichever rank is runnable, which is what
/// keeps more ranks than cores correct and quick; the park tail bounds the CPU
/// a long wait (a peer inside a repair, a stalled rank) can burn.
///
/// Not used by the process backend: there the waiting thread would poll
/// against its own link-reader thread for the core (see [`crate::process`]).
fn wait_recv<T>(rx: &Receiver<T>) -> Result<T, RecvError> {
    poll_recv(rx).unwrap_or_else(|| rx.recv())
}

/// The spin and yield phases of [`wait_recv`]: `None` once [`POLL_BUDGET`] is
/// spent with the channel still empty and its sender alive.
fn poll_recv<T>(rx: &Receiver<T>) -> Option<Result<T, RecvError>> {
    let mut polls = 0;
    let mut yielding_since = None;
    loop {
        match rx.try_recv() {
            Ok(message) => return Some(Ok(message)),
            Err(TryRecvError::Disconnected) => return Some(Err(RecvError)),
            Err(TryRecvError::Empty) => {}
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

/// Rank-ordered sum allreduce over channels.
///
/// Rank 0 gathers one partial value per peer, accumulates them **in rank
/// order** (so the result is bitwise deterministic run-to-run) and broadcasts
/// the sum back. This is the reduction under every `⟨d,q⟩` and `‖g‖²` of the
/// distributed CG.
///
/// Scalars and short vectors travel on separate channel pairs: the vector
/// form ([`Reducer::allreduce_vec`]) batches all of an iteration's scalars
/// into **one** collective — the merged-reduction solvers' single
/// synchronization point — and reduces each component in rank order, so
/// component `j` of the result is bitwise-identical to a scalar allreduce of
/// the same partials.
#[derive(Debug)]
pub enum Reducer {
    /// Rank 0: gathers from every peer and broadcasts the total.
    Root {
        /// Receiving side of the scalar gather channel.
        gather: Receiver<(usize, f64)>,
        /// Scalar broadcast sender per peer rank (index 0 unused).
        broadcast: Vec<Sender<f64>>,
        /// Receiving side of the vector gather channel.
        gather_vec: Receiver<(usize, Vec<f64>)>,
        /// Vector broadcast sender per peer rank (index 0 unused).
        broadcast_vec: Vec<Sender<Vec<f64>>>,
    },
    /// Ranks 1..: send their partial and await the total.
    Leaf {
        /// This rank's id.
        rank: usize,
        /// Sending side of the scalar gather channel.
        gather: Sender<(usize, f64)>,
        /// Receiving side of the scalar broadcast channel.
        broadcast: Receiver<f64>,
        /// Sending side of the vector gather channel.
        gather_vec: Sender<(usize, Vec<f64>)>,
        /// Receiving side of the vector broadcast channel.
        broadcast_vec: Receiver<Vec<f64>>,
    },
}

impl Reducer {
    /// Creates one connected [`Reducer`] per rank.
    pub fn for_ranks(ranks: usize) -> Vec<Reducer> {
        assert!(ranks > 0, "need at least one rank");
        let (gather_tx, gather_rx) = channel();
        let (gather_vec_tx, gather_vec_rx) = channel();
        let mut broadcast_txs = Vec::with_capacity(ranks);
        let mut broadcast_rxs = Vec::with_capacity(ranks);
        let mut broadcast_vec_txs = Vec::with_capacity(ranks);
        let mut broadcast_vec_rxs = Vec::with_capacity(ranks);
        for _ in 0..ranks {
            let (tx, rx) = channel();
            broadcast_txs.push(tx);
            broadcast_rxs.push(rx);
            let (tx, rx) = channel();
            broadcast_vec_txs.push(tx);
            broadcast_vec_rxs.push(rx);
        }
        let mut reducers = Vec::with_capacity(ranks);
        reducers.push(Reducer::Root {
            gather: gather_rx,
            broadcast: broadcast_txs,
            gather_vec: gather_vec_rx,
            broadcast_vec: broadcast_vec_txs,
        });
        for (rank, (rx, rx_vec)) in broadcast_rxs
            .into_iter()
            .zip(broadcast_vec_rxs)
            .enumerate()
            .skip(1)
        {
            reducers.push(Reducer::Leaf {
                rank,
                gather: gather_tx.clone(),
                broadcast: rx,
                gather_vec: gather_vec_tx.clone(),
                broadcast_vec: rx_vec,
            });
        }
        reducers
    }

    /// Posts the local partial (a leaf sends it to the root; the root holds
    /// it until the fold). First half of the split-phase protocol.
    fn post_scalar(&self, local: f64) -> Result<(), CommError> {
        if let Reducer::Leaf { rank, gather, .. } = self {
            gather
                .send((*rank, local))
                .map_err(|_| CommError::Disconnected {
                    peer: Some(0),
                    during: "allreduce gather",
                })?;
            let _ = rank;
        }
        Ok(())
    }

    /// Completes a scalar allreduce whose partial was already posted.
    fn finish_scalar(&self, local: f64) -> Result<f64, CommError> {
        match self {
            Reducer::Root {
                gather, broadcast, ..
            } => {
                let peers = broadcast.len() - 1;
                let mut partials = vec![0.0; peers + 1];
                partials[0] = local;
                for _ in 0..peers {
                    let (rank, value) = wait_recv(gather).map_err(|_| CommError::Disconnected {
                        peer: None,
                        during: "allreduce gather",
                    })?;
                    partials[rank] = value;
                }
                let total: f64 = partials.iter().sum();
                for (peer, tx) in broadcast.iter().enumerate().skip(1) {
                    tx.send(total).map_err(|_| CommError::Disconnected {
                        peer: Some(peer),
                        during: "allreduce broadcast",
                    })?;
                }
                Ok(total)
            }
            Reducer::Leaf { broadcast, .. } => {
                wait_recv(broadcast).map_err(|_| CommError::Disconnected {
                    peer: Some(0),
                    during: "allreduce broadcast",
                })
            }
        }
    }

    /// Posts the local partial vector; a leaf relinquishes ownership (the
    /// returned vector is what the caller must hold for the fold — empty on
    /// leaves, `local` itself on the root).
    fn post_vec(&self, local: Vec<f64>) -> Result<Vec<f64>, CommError> {
        match self {
            Reducer::Leaf {
                rank, gather_vec, ..
            } => {
                gather_vec
                    .send((*rank, local))
                    .map_err(|_| CommError::Disconnected {
                        peer: Some(0),
                        during: "vector allreduce gather",
                    })?;
                Ok(Vec::new())
            }
            Reducer::Root { .. } => Ok(local),
        }
    }

    /// Completes a vector allreduce whose partial was already posted.
    fn finish_vec(&self, local: Vec<f64>) -> Result<Vec<f64>, CommError> {
        match self {
            Reducer::Root {
                gather_vec,
                broadcast_vec,
                ..
            } => {
                let peers = broadcast_vec.len() - 1;
                let mut partials: Vec<Vec<f64>> = vec![Vec::new(); peers + 1];
                partials[0] = local;
                for _ in 0..peers {
                    let (rank, values) =
                        wait_recv(gather_vec).map_err(|_| CommError::Disconnected {
                            peer: None,
                            during: "vector allreduce gather",
                        })?;
                    partials[rank] = values;
                }
                let totals = fold_partials_rank_ordered(&partials)?;
                for (peer, tx) in broadcast_vec.iter().enumerate().skip(1) {
                    tx.send(totals.clone())
                        .map_err(|_| CommError::Disconnected {
                            peer: Some(peer),
                            during: "vector allreduce broadcast",
                        })?;
                }
                Ok(totals)
            }
            Reducer::Leaf { broadcast_vec, .. } => {
                wait_recv(broadcast_vec).map_err(|_| CommError::Disconnected {
                    peer: Some(0),
                    during: "vector allreduce broadcast",
                })
            }
        }
    }

    /// Contributes `local` and returns the global sum; every rank must call
    /// this the same number of times in the same order.
    ///
    /// This is the blocking form of the split-phase pair
    /// [`Reducer::start_allreduce`] / [`ReducerPending::finish`] and is
    /// bitwise-identical to it (same partials, same rank-ordered
    /// accumulation).
    pub fn allreduce_sum(&self, local: f64) -> Result<f64, CommError> {
        self.start_allreduce(local)?.finish()
    }

    /// Starts a split-phase allreduce: the local partial is posted
    /// immediately (leaf ranks send it to the root before returning), but
    /// the blocking wait for the global sum is deferred to
    /// [`ReducerPending::finish`]. Work done between the two calls
    /// overlaps the reduction wait — this is the window AFEIR uses to run
    /// page reconstruction *inside* the collective instead of only beside
    /// local updates.
    ///
    /// At most one allreduce may be in flight per rank, and every rank must
    /// still enter the collectives in the same order. The single-flight rule
    /// is a protocol contract, not a compile-time guarantee: a leaf posts
    /// its partial in `start`, so starting a second collective before
    /// finishing the first desynchronizes the root's gather.
    pub fn start_allreduce(&self, local: f64) -> Result<ReducerPending<'_>, CommError> {
        self.post_scalar(local)?;
        Ok(ReducerPending {
            reducer: self,
            local,
        })
    }

    /// Contributes one *vector* of partials and returns the component-wise
    /// global sums; every rank must pass the same number of components. This
    /// is the single collective of the merged-reduction solvers: all of an
    /// iteration's scalars (`γ`, `δ`, the fault flag, …) ride in one
    /// message, one gather and one broadcast.
    ///
    /// Component `j` of the result is bitwise-identical to
    /// [`Reducer::allreduce_sum`] over the same per-rank partials — the root
    /// folds each component in rank order, exactly like the scalar path.
    pub fn allreduce_vec(&self, local: Vec<f64>) -> Result<Vec<f64>, CommError> {
        self.start_allreduce_vec(local)?.finish()
    }

    /// Split-phase form of [`Reducer::allreduce_vec`]: the partial vector is
    /// posted immediately, the blocking wait is deferred to
    /// [`ReducerVecPending::finish`]. The merged-reduction solvers start
    /// the collective, run the halo exchange and the next matvec while it is
    /// in flight, and only then collect the sums — the reduction latency
    /// hides behind the matvec instead of serializing with it. The same
    /// single-flight / same-order contract as [`Reducer::start_allreduce`]
    /// applies.
    pub fn start_allreduce_vec(&self, local: Vec<f64>) -> Result<ReducerVecPending<'_>, CommError> {
        let local = self.post_vec(local)?;
        Ok(ReducerVecPending {
            reducer: self,
            local,
        })
    }
}

/// Component-wise rank-ordered fold shared by every vector-allreduce path
/// (in-process root and process root alike): each component's sum is exactly
/// what the scalar allreduce of the same partials would produce.
pub(crate) fn fold_partials_rank_ordered(partials: &[Vec<f64>]) -> Result<Vec<f64>, CommError> {
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

/// An in-flight split-phase allreduce on a bare [`Reducer`] (see
/// [`Reducer::start_allreduce`]).
///
/// The contribution has already been posted; dropping the handle without
/// calling [`ReducerPending::finish`] would deadlock the collective on the
/// other ranks, hence the `must_use`.
#[must_use = "finish() completes the collective; dropping the handle deadlocks the peers"]
#[derive(Debug)]
pub struct ReducerPending<'a> {
    reducer: &'a Reducer,
    local: f64,
}

impl ReducerPending<'_> {
    /// Completes the collective and returns the global sum. On the root this
    /// performs the rank-ordered gather + broadcast; on a leaf it blocks on
    /// the broadcast of the total.
    pub fn finish(self) -> Result<f64, CommError> {
        self.reducer.finish_scalar(self.local)
    }
}

/// An in-flight split-phase *vector* allreduce on a bare [`Reducer`] (see
/// [`Reducer::start_allreduce_vec`]).
#[must_use = "finish() completes the collective; dropping the handle deadlocks the peers"]
#[derive(Debug)]
pub struct ReducerVecPending<'a> {
    reducer: &'a Reducer,
    /// The root's own partial (leaves posted theirs at start).
    local: Vec<f64>,
}

impl ReducerVecPending<'_> {
    /// Completes the collective and returns the component-wise global sums.
    pub fn finish(self) -> Result<Vec<f64>, CommError> {
        self.reducer.finish_vec(self.local)
    }
}

/// The in-process backend's endpoints: mpsc halo and recovery channels plus
/// the channel [`Reducer`].
#[derive(Debug)]
struct InProcessLinks {
    /// Outgoing halo: `(destination, indices to ship, sender)`.
    halo_out: Vec<(usize, Vec<usize>, Sender<Vec<f64>>)>,
    /// Incoming halo: `(source, indices received, receiver)`.
    halo_in: Vec<(usize, Vec<usize>, Receiver<Vec<f64>>)>,
    /// Bidirectional recovery channels, one per halo neighbour, sorted by
    /// peer rank: `(peer, sender to peer, receiver from peer)`.
    recovery: Vec<(usize, Sender<RecoveryMsg>, Receiver<RecoveryMsg>)>,
    reducer: Reducer,
}

/// Which transport carries this rank's traffic.
#[derive(Debug)]
enum Backend {
    InProcess(InProcessLinks),
    Process(Box<ProcessLinks>),
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
/// code is backend-agnostic: the collectives perform identical rank-ordered
/// arithmetic on both transports.
#[derive(Debug)]
pub struct RankComm {
    rank: usize,
    backend: Backend,
    /// Collectives entered through this endpoint (scalar and vector alike,
    /// blocking or split-phase). The merged-reduction solver tests assert
    /// "exactly one allreduce per iteration" against this counter.
    collectives: std::cell::Cell<u64>,
}

impl RankComm {
    /// Creates the connected in-process endpoints for every rank of `plan`.
    pub fn for_ranks(plan: &HaloPlan, ranks: usize) -> Vec<RankComm> {
        let mut comms: Vec<RankComm> = Reducer::for_ranks(ranks)
            .into_iter()
            .enumerate()
            .map(|(rank, reducer)| RankComm {
                rank,
                backend: Backend::InProcess(InProcessLinks {
                    halo_out: Vec::new(),
                    halo_in: Vec::new(),
                    recovery: Vec::new(),
                    reducer,
                }),
                collectives: std::cell::Cell::new(0),
            })
            .collect();
        fn links(comm: &mut RankComm) -> &mut InProcessLinks {
            match &mut comm.backend {
                Backend::InProcess(l) => l,
                Backend::Process(_) => unreachable!("for_ranks builds in-process endpoints"),
            }
        }
        // One channel per (sender, receiver) pair with a non-empty halo.
        for receiver_rank in 0..ranks {
            let mut sources: Vec<(usize, Vec<usize>)> = plan
                .needs_of(receiver_rank)
                .iter()
                .map(|(&s, cols)| (s, cols.clone()))
                .collect();
            sources.sort_unstable_by_key(|(s, _)| *s);
            for (sender_rank, cols) in sources {
                let (tx, rx) = channel();
                links(&mut comms[sender_rank])
                    .halo_out
                    .push((receiver_rank, cols.clone(), tx));
                links(&mut comms[receiver_rank])
                    .halo_in
                    .push((sender_rank, cols, rx));
            }
        }
        // Recovery channels: one bidirectional pair per unordered neighbour
        // pair with halo traffic in either direction, so a recovering rank can
        // request the off-diagonal contributions of its interpolation from any
        // rank its stencil reaches.
        for r in 0..ranks {
            for s in plan.neighbours_of(r) {
                if s <= r {
                    continue;
                }
                let (r_to_s_tx, r_to_s_rx) = channel();
                let (s_to_r_tx, s_to_r_rx) = channel();
                links(&mut comms[r])
                    .recovery
                    .push((s, r_to_s_tx, s_to_r_rx));
                links(&mut comms[s])
                    .recovery
                    .push((r, s_to_r_tx, r_to_s_rx));
            }
        }
        for comm in &mut comms {
            links(comm)
                .recovery
                .sort_unstable_by_key(|(peer, _, _)| *peer);
        }
        comms
    }

    /// Wraps a connected process-backend endpoint (see
    /// [`crate::process::connect_mesh`]) as this rank's [`RankComm`].
    ///
    /// The halo send/receive lists and the recovery neighbourhood are derived
    /// from `plan` exactly as [`RankComm::for_ranks`] derives them, so the
    /// two backends move the same values in the same order.
    pub fn over_process(plan: &HaloPlan, endpoint: crate::process::ProcessEndpoint) -> RankComm {
        let rank = endpoint.rank();
        RankComm {
            rank,
            backend: Backend::Process(Box::new(ProcessLinks::new(plan, endpoint))),
            collectives: std::cell::Cell::new(0),
        }
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
        match &self.backend {
            Backend::InProcess(links) => {
                for (peer, cols, tx) in &links.halo_out {
                    let payload: Vec<f64> = cols.iter().map(|&c| full[c]).collect();
                    tx.send(payload).map_err(|_| CommError::Disconnected {
                        peer: Some(*peer),
                        during: "halo send",
                    })?;
                }
                for (peer, cols, rx) in &links.halo_in {
                    let payload = wait_recv(rx).map_err(|_| CommError::Disconnected {
                        peer: Some(*peer),
                        during: "halo receive",
                    })?;
                    debug_assert_eq!(payload.len(), cols.len());
                    for (&c, v) in cols.iter().zip(payload) {
                        full[c] = v;
                    }
                }
                Ok(())
            }
            Backend::Process(links) => links.exchange_halo(full),
        }
    }

    /// Global sum of `local` over all ranks (see [`Reducer::allreduce_sum`]).
    pub fn allreduce_sum(&self, local: f64) -> Result<f64, CommError> {
        let _probe = feir_trace::span(feir_trace::Phase::Allreduce);
        self.start_allreduce(local)?.finish()
    }

    /// Starts a split-phase allreduce (see [`Reducer::start_allreduce`]):
    /// post the partial now, overlap local work with the reduction, collect
    /// the sum with [`PendingAllreduce::finish`].
    pub fn start_allreduce(&self, local: f64) -> Result<PendingAllreduce<'_>, CommError> {
        let _probe = feir_trace::span(feir_trace::Phase::AllreducePost);
        self.collectives.set(self.collectives.get() + 1);
        match &self.backend {
            Backend::InProcess(links) => links.reducer.post_scalar(local)?,
            Backend::Process(links) => links.post_scalar(local)?,
        }
        Ok(PendingAllreduce { comm: self, local })
    }

    /// Blocking vector allreduce (see [`Reducer::allreduce_vec`]): all of an
    /// iteration's scalars in one collective.
    pub fn allreduce_vec(&self, local: Vec<f64>) -> Result<Vec<f64>, CommError> {
        let _probe = feir_trace::span(feir_trace::Phase::Allreduce);
        self.start_allreduce_vec(local)?.finish()
    }

    /// Starts a split-phase vector allreduce (see
    /// [`Reducer::start_allreduce_vec`]); the merged-reduction solvers keep
    /// it in flight across the halo exchange and the matvec.
    pub fn start_allreduce_vec(
        &self,
        local: Vec<f64>,
    ) -> Result<PendingVecAllreduce<'_>, CommError> {
        let _probe = feir_trace::span(feir_trace::Phase::AllreducePost);
        self.collectives.set(self.collectives.get() + 1);
        let local = match &self.backend {
            Backend::InProcess(links) => links.reducer.post_vec(local)?,
            Backend::Process(links) => links.post_vec(local)?,
        };
        Ok(PendingVecAllreduce { comm: self, local })
    }

    /// Number of collectives this endpoint has entered (scalar and vector,
    /// blocking and split-phase, including [`RankComm::fault_flag`]). Halo
    /// and recovery exchanges are point-to-point and do not count.
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
        match &self.backend {
            Backend::InProcess(_) => Err(CommError::Protocol(
                "rank elasticity requires the process transport".into(),
            )),
            Backend::Process(links) => links.rejoin(failed, iteration),
        }
    }

    /// Global "did anyone fault?" indicator, built on the deterministic sum
    /// allreduce. Every rank contributes its local count of freshly
    /// discovered losses; the recovery round only runs when the result is
    /// true, so the fault-free path pays one scalar reduction and no data
    /// movement.
    pub fn fault_flag(&self, local_faults: usize) -> Result<bool, CommError> {
        Ok(self.allreduce_sum(local_faults as f64)? > 0.0)
    }

    /// The ranks this rank can exchange recovery data with (its halo
    /// neighbours), in ascending order.
    pub fn recovery_peers(&self) -> Vec<usize> {
        match &self.backend {
            Backend::InProcess(links) => links.recovery.iter().map(|(peer, _, _)| *peer).collect(),
            Backend::Process(links) => links.recovery_peers().to_vec(),
        }
    }

    /// One collective cross-rank recovery round (see [`RecoveryMsg`]).
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
    /// reconstruction on those).
    ///
    /// Every rank must call this the same number of times in the same order
    /// (it is a neighbourhood collective); a healthy rank simply passes an
    /// empty request map. Requests for peers that are not halo neighbours
    /// are rejected, as no channel exists to serve them.
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
    /// This is the AFEIR in-window prefetch hook: a rank that already knows
    /// its round-1 requests posts them while the fault-flag / merged-scalar
    /// reduction is still in flight, so the peers' answers overlap the
    /// reduction wait. The caller must later finish the round with
    /// [`RankComm::complete_recovery_exchange`] passing `posted = true` and
    /// the *same* request map, or the neighbourhood deadlocks.
    pub fn post_recovery_requests(
        &self,
        requests: &HashMap<usize, Vec<usize>>,
    ) -> Result<(), CommError> {
        match &self.backend {
            Backend::InProcess(links) => {
                // A request outside the neighbourhood has no channel to travel
                // on and would otherwise be dropped silently — reject it
                // loudly instead.
                assert!(
                    requests
                        .keys()
                        .all(|peer| links.recovery.iter().any(|(p, _, _)| p == peer)),
                    "recovery request targets a rank outside the halo neighbourhood"
                );
                for (peer, tx, _) in &links.recovery {
                    let indices = requests.get(peer).cloned().unwrap_or_default();
                    tx.send(RecoveryMsg::Request(indices)).map_err(|_| {
                        CommError::Disconnected {
                            peer: Some(*peer),
                            during: "recovery request",
                        }
                    })?;
                }
                Ok(())
            }
            Backend::Process(links) => links.post_recovery_requests(requests),
        }
    }

    /// Phases 2–3 of [`RankComm::recovery_exchange`]: serve the peers'
    /// incoming requests from `data` and scatter their replies back into it.
    /// When `posted` is false the requests are posted first (making the call
    /// equivalent to [`RankComm::recovery_exchange`]); when true the caller
    /// already posted this exact `requests` map via
    /// [`RankComm::post_recovery_requests`].
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
        match &self.backend {
            Backend::InProcess(links) => {
                // Phase 2: answer each incoming request from the owned data,
                // flagging the entries this rank cannot vouch for.
                for (peer, tx, rx) in &links.recovery {
                    match wait_recv(rx).map_err(|_| CommError::Disconnected {
                        peer: Some(*peer),
                        during: "recovery request receive",
                    })? {
                        RecoveryMsg::Request(indices) => {
                            let values: Vec<f64> = indices.iter().map(|&i| data[i]).collect();
                            let valid: Vec<bool> = indices
                                .iter()
                                .map(|i| unserviceable.binary_search(i).is_err())
                                .collect();
                            tx.send(RecoveryMsg::Reply { values, valid }).map_err(|_| {
                                CommError::Disconnected {
                                    peer: Some(*peer),
                                    during: "recovery reply",
                                }
                            })?;
                        }
                        _ => {
                            return Err(CommError::Protocol(format!(
                                "unexpected message from rank {peer} before its request"
                            )))
                        }
                    }
                }
                // Phase 3: scatter the fetched values into the working buffer.
                let mut fetched = 0;
                let mut invalid = Vec::new();
                for (peer, _, rx) in &links.recovery {
                    match wait_recv(rx).map_err(|_| CommError::Disconnected {
                        peer: Some(*peer),
                        during: "recovery reply receive",
                    })? {
                        RecoveryMsg::Reply { values, valid } => {
                            let indices = requests.get(peer).map(Vec::as_slice).unwrap_or(&[]);
                            debug_assert_eq!(values.len(), indices.len());
                            debug_assert_eq!(valid.len(), indices.len());
                            for ((&i, v), ok) in indices.iter().zip(values).zip(valid) {
                                data[i] = v;
                                fetched += 1;
                                if !ok {
                                    invalid.push(i);
                                }
                            }
                        }
                        _ => {
                            return Err(CommError::Protocol(format!(
                                "unexpected message from rank {peer} instead of its reply"
                            )))
                        }
                    }
                }
                invalid.sort_unstable();
                Ok((fetched, invalid))
            }
            Backend::Process(links) => {
                links.complete_recovery_exchange(requests, data, unserviceable)
            }
        }
    }

    /// Downward wave of the coupled cross-rank recovery round: every rank
    /// receives the [`RecoveryMsg::CoupledGather`] offers of its
    /// *higher-ranked* halo neighbours (in ascending peer order), merges its
    /// own offer in, forwards the merged offer to every *lower-ranked*
    /// neighbour, and returns the merged view.
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
        match &self.backend {
            Backend::InProcess(links) => {
                // Receive the offers flowing down from every higher peer
                // (links.recovery is sorted ascending, so this order is the
                // same on every rank).
                for (peer, _, rx) in &links.recovery {
                    if *peer < self.rank {
                        continue;
                    }
                    match wait_recv(rx).map_err(|_| CommError::Disconnected {
                        peer: Some(*peer),
                        during: "coupled gather receive",
                    })? {
                        RecoveryMsg::CoupledGather {
                            rows: peer_rows,
                            support: peer_support,
                        } => {
                            rows.extend(peer_rows);
                            support.extend(peer_support);
                        }
                        _ => {
                            return Err(CommError::Protocol(format!(
                                "unexpected message from rank {peer} during coupled gather"
                            )))
                        }
                    }
                }
                merge_coupled_offer(&mut rows, &mut support);
                // Forward the merged view to every lower peer.
                for (peer, tx, _) in &links.recovery {
                    if *peer > self.rank {
                        continue;
                    }
                    tx.send(RecoveryMsg::CoupledGather {
                        rows: rows.clone(),
                        support: support.clone(),
                    })
                    .map_err(|_| CommError::Disconnected {
                        peer: Some(*peer),
                        during: "coupled gather send",
                    })?;
                }
                Ok((rows, support))
            }
            Backend::Process(links) => links.coupled_gather_wave(rows, support),
        }
    }

    /// Upward wave closing the coupled cross-rank recovery round: every rank
    /// receives the [`RecoveryMsg::CoupledResult`] entries of its
    /// *lower-ranked* halo neighbours (in ascending peer order), merges its
    /// own solved entries in, relays the merged set to every *higher-ranked*
    /// neighbour, and returns the merged `(global row, value)` list sorted by
    /// row. The caller installs the rows it owns (or needs as halo input)
    /// from the returned set.
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
        match &self.backend {
            Backend::InProcess(links) => {
                for (peer, _, rx) in &links.recovery {
                    if *peer > self.rank {
                        continue;
                    }
                    match wait_recv(rx).map_err(|_| CommError::Disconnected {
                        peer: Some(*peer),
                        during: "coupled result receive",
                    })? {
                        RecoveryMsg::CoupledResult {
                            entries: peer_entries,
                        } => entries.extend(peer_entries),
                        _ => {
                            return Err(CommError::Protocol(format!(
                                "unexpected message from rank {peer} during coupled result"
                            )))
                        }
                    }
                }
                entries.sort_by_key(|&(row, _)| row);
                entries.dedup_by_key(|&mut (row, _)| row);
                for (peer, tx, _) in &links.recovery {
                    if *peer < self.rank {
                        continue;
                    }
                    tx.send(RecoveryMsg::CoupledResult {
                        entries: entries.clone(),
                    })
                    .map_err(|_| CommError::Disconnected {
                        peer: Some(*peer),
                        during: "coupled result send",
                    })?;
                }
                Ok(entries)
            }
            Backend::Process(links) => links.coupled_result_wave(entries),
        }
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
/// The contribution has already been posted; dropping the handle without
/// calling [`PendingAllreduce::finish`] would deadlock the collective on the
/// other ranks, hence the `must_use`.
#[must_use = "finish() completes the collective; dropping the handle deadlocks the peers"]
#[derive(Debug)]
pub struct PendingAllreduce<'a> {
    comm: &'a RankComm,
    local: f64,
}

impl PendingAllreduce<'_> {
    /// Completes the collective and returns the global sum. On the root this
    /// performs the rank-ordered gather + broadcast; on a leaf it blocks on
    /// the broadcast of the total.
    pub fn finish(self) -> Result<f64, CommError> {
        let _probe = feir_trace::span(feir_trace::Phase::AllreduceWait);
        match &self.comm.backend {
            Backend::InProcess(links) => links.reducer.finish_scalar(self.local),
            Backend::Process(links) => links.finish_scalar(self.local),
        }
    }
}

/// An in-flight split-phase *vector* allreduce on a [`RankComm`] (see
/// [`RankComm::start_allreduce_vec`]).
#[must_use = "finish() completes the collective; dropping the handle deadlocks the peers"]
#[derive(Debug)]
pub struct PendingVecAllreduce<'a> {
    comm: &'a RankComm,
    /// The root's own partial (leaves posted theirs at start).
    local: Vec<f64>,
}

impl PendingVecAllreduce<'_> {
    /// Completes the collective and returns the component-wise global sums.
    /// On the root this performs the rank-ordered gather + broadcast; on a
    /// leaf it blocks on the broadcast of the totals.
    pub fn finish(self) -> Result<Vec<f64>, CommError> {
        let _probe = feir_trace::span(feir_trace::Phase::AllreduceWait);
        match &self.comm.backend {
            Backend::InProcess(links) => links.reducer.finish_vec(self.local),
            Backend::Process(links) => links.finish_vec(self.local),
        }
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

    /// `HaloPlan::build` against the definition: rank `r` needs column `c`
    /// from rank `s` iff one of `r`'s rows references `c` and `s ≠ r` owns it.
    #[test]
    fn halo_plan_equals_the_brute_force_reference() {
        use std::collections::{BTreeMap, BTreeSet};
        let cases = [
            (feir_sparse::generators::poisson_3d_27pt(6), 3),
            (feir_sparse::generators::random_spd(157, 6, 9), 4),
        ];
        for (a, ranks) in cases {
            let partition = RankPartition::new(a.rows(), ranks);
            let mut reference: Vec<BTreeMap<usize, BTreeSet<usize>>> = vec![BTreeMap::new(); ranks];
            for row in 0..a.rows() {
                let r = partition.owner_of(row);
                for &c in a.row(row).0 {
                    let s = partition.owner_of(c);
                    if s != r {
                        reference[r].entry(s).or_default().insert(c);
                    }
                }
            }
            let sorted = |m: &HashMap<usize, Vec<usize>>| -> BTreeMap<usize, Vec<usize>> {
                m.iter().map(|(&peer, cols)| (peer, cols.clone())).collect()
            };
            let plan = HaloPlan::build(&a, &partition);
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
                assert_eq!(sorted(plan.needs_of(r)), needs, "needs of rank {r}");
                assert_eq!(sorted(plan.sends_of(r)), sends, "sends of rank {r}");
            }
            assert!(volume > 0);
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

    #[test]
    fn fault_flag_is_a_global_or() {
        let ranks = 3;
        let comms = RankComm::for_ranks(&HaloPlan::empty(ranks), ranks);
        let flags: Vec<bool> = std::thread::scope(|scope| {
            let handles: Vec<_> = comms
                .into_iter()
                .map(|comm| {
                    scope.spawn(move || {
                        // Only rank 1 reports a fault; everyone must see it.
                        let first = comm.fault_flag(usize::from(comm.rank() == 1)).unwrap();
                        let second = comm.fault_flag(0).unwrap();
                        (first, second)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rank panicked"))
                .flat_map(|(a, b)| [a, b])
                .collect()
        });
        // First round: all true. Second round: all false.
        assert_eq!(flags.iter().filter(|f| **f).count(), ranks);
    }

    #[test]
    fn split_phase_allreduce_matches_blocking_bitwise() {
        // Irrational-ish partials so the accumulation order matters; the
        // split-phase handle must produce bit-for-bit the blocking result,
        // with arbitrary local work between start and finish.
        for ranks in [1usize, 2, 4] {
            let blocking: Vec<f64> = {
                let reducers = Reducer::for_ranks(ranks);
                std::thread::scope(|scope| {
                    let handles: Vec<_> = reducers
                        .into_iter()
                        .enumerate()
                        .map(|(rank, reducer)| {
                            scope.spawn(move || {
                                reducer.allreduce_sum(0.1 + rank as f64 * 0.3).unwrap()
                            })
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).collect()
                })
            };
            let split: Vec<f64> = {
                let reducers = Reducer::for_ranks(ranks);
                std::thread::scope(|scope| {
                    let handles: Vec<_> = reducers
                        .into_iter()
                        .enumerate()
                        .map(|(rank, reducer)| {
                            scope.spawn(move || {
                                let pending =
                                    reducer.start_allreduce(0.1 + rank as f64 * 0.3).unwrap();
                                // Local work overlapping the reduction wait.
                                let mut acc = 0.0;
                                for i in 0..500 {
                                    acc += (i as f64).sqrt();
                                }
                                assert!(acc > 0.0);
                                pending.finish().unwrap()
                            })
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).collect()
                })
            };
            for (u, v) in blocking.iter().zip(&split) {
                assert_eq!(u.to_bits(), v.to_bits(), "{ranks} ranks");
            }
        }
    }

    #[test]
    fn vector_allreduce_matches_scalar_allreduces_bitwise() {
        // Each component of the batched collective must carry exactly the
        // bits a scalar allreduce of the same partials produces.
        for ranks in [1usize, 2, 4] {
            let partial = |rank: usize, j: usize| 0.1 + rank as f64 * 0.3 + j as f64 * 0.7;
            let scalar: Vec<Vec<f64>> = {
                let reducers = Reducer::for_ranks(ranks);
                std::thread::scope(|scope| {
                    let handles: Vec<_> = reducers
                        .into_iter()
                        .enumerate()
                        .map(|(rank, reducer)| {
                            scope.spawn(move || {
                                (0..3)
                                    .map(|j| reducer.allreduce_sum(partial(rank, j)).unwrap())
                                    .collect::<Vec<f64>>()
                            })
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).collect()
                })
            };
            let vectored: Vec<Vec<f64>> = {
                let reducers = Reducer::for_ranks(ranks);
                std::thread::scope(|scope| {
                    let handles: Vec<_> = reducers
                        .into_iter()
                        .enumerate()
                        .map(|(rank, reducer)| {
                            scope.spawn(move || {
                                let local: Vec<f64> = (0..3).map(|j| partial(rank, j)).collect();
                                let pending = reducer.start_allreduce_vec(local).unwrap();
                                // Local work overlapping the reduction.
                                let mut acc = 0.0;
                                for i in 0..200 {
                                    acc += (i as f64).sqrt();
                                }
                                assert!(acc > 0.0);
                                pending.finish().unwrap()
                            })
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).collect()
                })
            };
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
        let comms = RankComm::for_ranks(&HaloPlan::empty(2), 2);
        let counts: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = comms
                .into_iter()
                .map(|comm| {
                    scope.spawn(move || {
                        comm.allreduce_sum(1.0).unwrap();
                        let _ = comm.allreduce_vec(vec![1.0, 2.0]).unwrap();
                        comm.fault_flag(0).unwrap();
                        let pending = comm.start_allreduce(0.5).unwrap();
                        pending.finish().unwrap();
                        comm.collectives()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(counts, vec![4, 4]);
    }

    #[test]
    fn reducer_sums_across_ranks_deterministically() {
        for ranks in [1usize, 2, 5] {
            let reducers = Reducer::for_ranks(ranks);
            let total: f64 = std::thread::scope(|scope| {
                let handles: Vec<_> = reducers
                    .into_iter()
                    .enumerate()
                    .map(|(rank, reducer)| {
                        scope.spawn(move || reducer.allreduce_sum((rank + 1) as f64).unwrap())
                    })
                    .collect();
                let mut totals: Vec<f64> = handles
                    .into_iter()
                    .map(|h| h.join().expect("rank panicked"))
                    .collect();
                let first = totals.pop().unwrap();
                assert!(totals.iter().all(|&t| t == first), "ranks disagree");
                first
            });
            let expected: f64 = (1..=ranks).map(|r| r as f64).sum();
            assert_eq!(total, expected);
        }
    }

    #[test]
    fn dropped_peer_surfaces_as_typed_comm_error() {
        // Rank 1 drops its endpoint without entering the collective; rank 0
        // must observe a CommError::Disconnected, not a panic.
        let mut comms = RankComm::for_ranks(&HaloPlan::empty(2), 2);
        let c1 = comms.pop().unwrap();
        let c0 = comms.pop().unwrap();
        drop(c1);
        let err = c0.allreduce_sum(1.0).unwrap_err();
        assert!(
            matches!(err, CommError::Disconnected { .. }),
            "expected Disconnected, got {err:?}"
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
}
