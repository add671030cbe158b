//! Versioned, self-describing binary wire protocol for the multi-process
//! transport.
//!
//! Every message travels as a length-prefixed frame with an 8-byte header:
//!
//! ```text
//! offset  size  field
//! 0       2     magic  (0xFE 0x17)
//! 2       1     schema version (WIRE_VERSION)
//! 3       1     message tag
//! 4       4     payload length in bytes, little-endian u32
//! 8       ...   payload
//! ```
//!
//! All multi-byte integers and every `f64` are encoded little-endian; floats
//! use their IEEE-754 bit pattern verbatim, so a round trip through the codec
//! is bitwise lossless. Halo payloads are flat `f64` arrays that a receiver
//! can scatter straight out of the frame buffer via [`f64_payload_iter`]
//! without building an intermediate `Vec<f64>`.
//!
//! The header is self-describing: a reader can always validate the magic and
//! version, learn the message kind from the tag, and skip or reject unknown
//! frames by length, independent of any out-of-band schema knowledge.
//!
//! The same framing carries the launcher ↔ worker pipes of the process
//! backend: the launcher writes one [`Message::WorkerConfig`] to each
//! worker's stdin, and the worker answers on stdout with one
//! [`Message::RankResult`] or [`Message::RankError`] report followed by one
//! [`Message::TraceDump`]. This crate fixes the byte layout only; the
//! meaning of the code fields of `WorkerConfig` belongs to `feir-dist`.

pub mod chaos;

use std::fmt;
use std::io::{Read, Write};

/// Frame magic bytes; `0xFE17` as two bytes on the wire.
pub const MAGIC: [u8; 2] = [0xFE, 0x17];

/// Current schema version. Bump when the payload layout of any tag changes.
/// v2 added the `epoch` field to [`Message::Hello`] and the
/// [`Message::RejoinBarrier`] resynchronization frame for rank elasticity.
/// v3 added the `t0_micros` clock-origin field to [`Message::Hello`] and the
/// [`Message::TraceDump`] trace-collection frame.
/// v4 added the [`Message::CoupledGather`] / [`Message::CoupledResult`]
/// frames for cross-rank coupled recovery.
/// v5 added the [`Message::WorkerConfig`] launch frame.
/// v6 dropped the allreduce broadcast frames and renumbered the tags.
pub const WIRE_VERSION: u8 = 6;

/// Size of the fixed frame header in bytes.
pub const HEADER_LEN: usize = 8;

/// Hard upper bound on a single frame payload (64 MiB). Guards a corrupt or
/// adversarial length field from forcing an enormous allocation.
pub const MAX_PAYLOAD: u32 = 1 << 26;

/// Errors produced while encoding or decoding frames.
#[derive(Debug)]
pub enum WireError {
    /// Underlying I/O failure (includes mid-frame EOF while reading a header).
    Io(std::io::Error),
    /// The stream closed cleanly at a frame boundary (0 bytes of a new frame).
    Closed,
    /// The first two bytes of a frame were not [`MAGIC`].
    BadMagic([u8; 2]),
    /// The peer speaks a different schema version.
    VersionMismatch {
        /// Version this library implements.
        ours: u8,
        /// Version found in the frame header.
        theirs: u8,
    },
    /// The tag byte does not name a known message type.
    UnknownTag(u8),
    /// The frame ended before the declared payload length was available, or a
    /// payload was shorter than its message layout requires.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized(u32),
    /// Structurally invalid payload (bad lengths, non-UTF-8 text, ...).
    Malformed(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::Closed => write!(f, "stream closed at frame boundary"),
            WireError::BadMagic(m) => {
                write!(
                    f,
                    "bad frame magic {:02x}{:02x} (expected fe17)",
                    m[0], m[1]
                )
            }
            WireError::VersionMismatch { ours, theirs } => write!(
                f,
                "wire version mismatch: we speak v{ours}, peer sent v{theirs}"
            ),
            WireError::UnknownTag(t) => write!(f, "unknown message tag {t}"),
            WireError::Truncated { needed, have } => {
                write!(f, "truncated frame: needed {needed} bytes, have {have}")
            }
            WireError::Oversized(len) => {
                write!(
                    f,
                    "frame payload of {len} bytes exceeds cap of {MAX_PAYLOAD}"
                )
            }
            WireError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Message kind carried in the frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Tag {
    /// Connection handshake: announces the sender's rank and world size.
    Hello = 1,
    /// Halo payload: boundary values for a neighbour's ghost columns.
    Halo = 2,
    /// One rank's partial of a scalar allreduce, sent to every peer.
    GatherScalar = 3,
    /// One rank's partials of a vector allreduce, sent to every peer.
    GatherVec = 4,
    /// Recovery neighbourhood collective: request for remote entries.
    RecoveryRequest = 5,
    /// Recovery neighbourhood collective: values + validity flags reply.
    RecoveryReply = 6,
    /// Worker-to-launcher final result report.
    RankResult = 7,
    /// Worker-to-launcher failure report.
    RankError = 8,
    /// Mesh-wide resynchronization point after a rank rejoins.
    RejoinBarrier = 9,
    /// Worker-to-launcher trace buffer dump (follows the final report).
    TraceDump = 10,
    /// Coupled cross-rank recovery: lost rows + surviving stencil support
    /// offered down the rank chain.
    CoupledGather = 11,
    /// Coupled cross-rank recovery: reconstructed row values shipped back
    /// up the rank chain.
    CoupledResult = 12,
    /// Launcher-to-worker launch configuration, written to the worker's stdin.
    WorkerConfig = 13,
}

impl Tag {
    /// All tags in numbering order; also drives exhaustive round-trip tests.
    pub const ALL: [Tag; 13] = [
        Tag::Hello,
        Tag::Halo,
        Tag::GatherScalar,
        Tag::GatherVec,
        Tag::RecoveryRequest,
        Tag::RecoveryReply,
        Tag::RankResult,
        Tag::RankError,
        Tag::RejoinBarrier,
        Tag::TraceDump,
        Tag::CoupledGather,
        Tag::CoupledResult,
        Tag::WorkerConfig,
    ];

    /// Decodes a tag byte. Tags are numbered `1..=ALL.len()` in `ALL` order.
    pub fn from_u8(byte: u8) -> Result<Tag, WireError> {
        let index = usize::from(byte).wrapping_sub(1);
        Tag::ALL
            .get(index)
            .copied()
            .ok_or(WireError::UnknownTag(byte))
    }
}

/// Failure kind carried by a [`Message::RankError`] report, so the launcher
/// can reconstruct a typed error instead of parsing a string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RankErrorKind {
    /// Anything that is not a communication failure (setup, solve, ...).
    Other = 0,
    /// A peer rank disconnected mid-solve.
    Disconnected = 1,
    /// A read deadline expired waiting on a peer.
    Timeout = 2,
    /// A frame failed to decode.
    Wire = 3,
}

impl RankErrorKind {
    fn from_u8(byte: u8) -> Result<RankErrorKind, WireError> {
        Ok(match byte {
            0 => RankErrorKind::Other,
            1 => RankErrorKind::Disconnected,
            2 => RankErrorKind::Timeout,
            3 => RankErrorKind::Wire,
            _ => return Err(WireError::Malformed("unknown rank-error kind")),
        })
    }
}

/// A decoded wire message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Handshake frame exchanged on connect/accept.
    Hello {
        /// Sender's rank.
        rank: u32,
        /// Sender's view of the world size.
        ranks: u32,
        /// Respawn generation of the sending rank: 0 for an original mesh
        /// member, incremented each time the rank is respawned. Lets a
        /// survivor validate that the peer re-handshaking on an epoch-
        /// suffixed address really is the expected newcomer.
        epoch: u32,
        /// Wall-clock unix microseconds of the sender's trace clock origin
        /// (`t0`). Lets any receiver place the sender's monotonic trace
        /// timestamps on a shared timeline; 0 when tracing is off.
        t0_micros: u64,
    },
    /// Halo boundary values, in the column order both sides agreed on.
    Halo {
        /// The boundary values.
        values: Vec<f64>,
    },
    /// Scalar allreduce partial, sent by every rank to every peer.
    GatherScalar {
        /// Contributing rank (its place in every rank's fold).
        rank: u32,
        /// Local partial value.
        value: f64,
    },
    /// Vector allreduce partials, sent by every rank to every peer.
    GatherVec {
        /// Contributing rank (its place in every rank's fold).
        rank: u32,
        /// Local partial values.
        values: Vec<f64>,
    },
    /// Request for remote vector entries during recovery.
    RecoveryRequest {
        /// Global indices being requested.
        indices: Vec<u64>,
    },
    /// Reply to a [`Message::RecoveryRequest`].
    RecoveryReply {
        /// Values for the requested indices, in request order.
        values: Vec<f64>,
        /// Whether each value is healthy on the serving rank.
        valid: Vec<bool>,
    },
    /// Final report a worker process writes to its launcher.
    RankResult {
        /// Reporting rank.
        rank: u32,
        /// Iterations the solver ran.
        iterations: u64,
        /// Allreduce collectives the rank participated in.
        collectives: u64,
        /// The rank's owned block of the solution vector.
        x: Vec<f64>,
        /// Residual history (meaningful on rank 0).
        history: Vec<f64>,
    },
    /// Failure report a worker process writes to its launcher.
    RankError {
        /// Reporting rank.
        rank: u32,
        /// Failure classification.
        kind: RankErrorKind,
        /// Peer rank involved, or `-1` when not applicable.
        peer: i32,
        /// Human-readable description.
        message: String,
    },
    /// Mesh-wide resynchronization point after a rank rejoins. Every rank
    /// sends one to every peer, then drains the link until the matching
    /// barrier arrives; frames from before the barrier are stale and
    /// discarded. `iteration` lets the mesh agree on the resume point (the
    /// maximum over all ranks).
    RejoinBarrier {
        /// Mesh epoch the barrier belongs to (sum of per-rank respawn
        /// generations — identical on every rank after a rejoin).
        epoch: u32,
        /// The sending rank's current iteration number.
        iteration: u64,
    },
    /// A worker's drained trace buffer, written to the launcher after the
    /// final [`Message::RankResult`]/[`Message::RankError`] report. Events
    /// are raw `(phase, start_ns, dur_ns)` tuples so this crate stays free
    /// of a `feir-trace` dependency; the launcher reassembles them.
    TraceDump {
        /// Reporting rank.
        rank: u32,
        /// Unix microseconds of the worker's trace clock origin.
        origin_micros: u64,
        /// Events lost to ring-buffer overflow on the worker.
        dropped: u64,
        /// Link-layer counters summed over the worker's peers:
        /// `[data_frames, retransmits, injected_faults, rejected,
        /// dup_received]`.
        link: [u64; 5],
        /// Recorded events as `(phase_byte, start_ns, dur_ns)`.
        events: Vec<(u8, u64, u64)>,
    },
    /// Coupled cross-rank recovery offer, merged down the rank chain: the
    /// sender's view of the lost-row union plus every surviving stencil
    /// entry the coupled solve needs from outside that union.
    CoupledGather {
        /// Global row indices of lost rows in the coupled union.
        rows: Vec<u64>,
        /// Right-hand-side values retained for those rows (`g` or `s`).
        values: Vec<f64>,
        /// Global column indices of stencil support entries outside the
        /// union.
        support_cols: Vec<u64>,
        /// Current values of the support entries on their owning rank.
        support_values: Vec<f64>,
        /// Whether each support entry is healthy on its owning rank.
        support_valid: Vec<bool>,
    },
    /// Coupled cross-rank recovery result, relayed back up the rank chain:
    /// reconstructed values for rows the solving rank does not own.
    CoupledResult {
        /// Global row indices of reconstructed entries.
        rows: Vec<u64>,
        /// Reconstructed values, in `rows` order.
        values: Vec<f64>,
    },
    /// A worker's launch configuration (see [`WorkerConfig`]).
    WorkerConfig(WorkerConfig),
}

/// Everything one worker process needs to join the mesh and solve, written
/// once by the launcher to the worker's stdin. The meaning of the code
/// fields and of the "unset" duration belongs to `feir-dist`, which
/// validates every field on decode.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkerConfig {
    /// This worker's rank.
    pub rank: u32,
    /// World size.
    pub ranks: u32,
    /// Respawn generation of every rank; empty means all zero.
    pub epochs: Vec<u64>,
    /// Transport kind code.
    pub transport: u8,
    /// First port of the TCP port range (TCP only).
    pub tcp_base_port: u16,
    /// Rendezvous directory as raw OS-string bytes (UDS only).
    pub uds_dir: Vec<u8>,
    /// Rank-loop code.
    pub solver: u8,
    /// Poisson grid side.
    pub grid: u64,
    /// Seed of the manufactured right-hand side.
    pub rhs_seed: u64,
    /// Page / preconditioner block size in doubles.
    pub page_doubles: u64,
    /// Convergence tolerance on the relative residual.
    pub tolerance: f64,
    /// Iteration cap.
    pub max_iterations: u64,
    /// Recovery-policy code; one code means "plain rank loop".
    pub policy: u8,
    /// Interval of the checkpoint policy.
    pub checkpoint_interval: u64,
    /// Rank elasticity.
    pub elastic: bool,
    /// Transport fault injection as `(seed, rates, all_attempts)`.
    pub chaos: Option<(u64, chaos::FaultRates, bool)>,
    /// Base retransmission timeout in microseconds.
    pub retransmit_timeout_us: u64,
    /// Per-iteration throttle sleep in microseconds.
    pub spin_us: u64,
}

impl Message {
    /// The tag this message is framed with.
    pub fn tag(&self) -> Tag {
        match self {
            Message::Hello { .. } => Tag::Hello,
            Message::Halo { .. } => Tag::Halo,
            Message::GatherScalar { .. } => Tag::GatherScalar,
            Message::GatherVec { .. } => Tag::GatherVec,
            Message::RecoveryRequest { .. } => Tag::RecoveryRequest,
            Message::RecoveryReply { .. } => Tag::RecoveryReply,
            Message::RankResult { .. } => Tag::RankResult,
            Message::RankError { .. } => Tag::RankError,
            Message::RejoinBarrier { .. } => Tag::RejoinBarrier,
            Message::TraceDump { .. } => Tag::TraceDump,
            Message::CoupledGather { .. } => Tag::CoupledGather,
            Message::CoupledResult { .. } => Tag::CoupledResult,
            Message::WorkerConfig(_) => Tag::WorkerConfig,
        }
    }

    /// Appends the full frame (header + payload) for this message to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let header_at = out.len();
        out.extend_from_slice(&MAGIC);
        out.push(WIRE_VERSION);
        out.push(self.tag() as u8);
        out.extend_from_slice(&[0u8; 4]); // payload length backpatched below
        let payload_at = out.len();
        match self {
            Message::Hello {
                rank,
                ranks,
                epoch,
                t0_micros,
            } => {
                put_u32(out, *rank);
                put_u32(out, *ranks);
                put_u32(out, *epoch);
                put_u64(out, *t0_micros);
            }
            Message::Halo { values } => put_f64s(out, values),
            Message::GatherScalar { rank, value } => {
                put_u32(out, *rank);
                put_f64(out, *value);
            }
            Message::GatherVec { rank, values } => {
                put_u32(out, *rank);
                put_f64s(out, values);
            }
            Message::RecoveryRequest { indices } => put_u64s(out, indices),
            Message::RecoveryReply { values, valid } => {
                assert_eq!(values.len(), valid.len(), "reply values/valid must align");
                put_u32(out, values.len() as u32);
                put_f64s(out, values);
                out.extend(valid.iter().map(|&b| b as u8));
            }
            Message::RankResult {
                rank,
                iterations,
                collectives,
                x,
                history,
            } => {
                put_u32(out, *rank);
                put_u64(out, *iterations);
                put_u64(out, *collectives);
                put_u32(out, x.len() as u32);
                put_f64s(out, x);
                put_u32(out, history.len() as u32);
                put_f64s(out, history);
            }
            Message::RankError {
                rank,
                kind,
                peer,
                message,
            } => {
                put_u32(out, *rank);
                out.push(*kind as u8);
                put_u32(out, *peer as u32);
                out.extend_from_slice(message.as_bytes());
            }
            Message::RejoinBarrier { epoch, iteration } => {
                put_u32(out, *epoch);
                put_u64(out, *iteration);
            }
            Message::TraceDump {
                rank,
                origin_micros,
                dropped,
                link,
                events,
            } => {
                put_u32(out, *rank);
                put_u64(out, *origin_micros);
                put_u64(out, *dropped);
                put_u64s(out, link);
                put_u32(out, events.len() as u32);
                for (phase, start_ns, dur_ns) in events {
                    out.push(*phase);
                    put_u64(out, *start_ns);
                    put_u64(out, *dur_ns);
                }
            }
            Message::CoupledGather {
                rows,
                values,
                support_cols,
                support_values,
                support_valid,
            } => {
                assert_eq!(rows.len(), values.len(), "gather rows/values must align");
                assert_eq!(
                    support_cols.len(),
                    support_values.len(),
                    "gather support cols/values must align"
                );
                assert_eq!(
                    support_cols.len(),
                    support_valid.len(),
                    "gather support cols/valid must align"
                );
                put_u32(out, rows.len() as u32);
                put_u64s(out, rows);
                put_f64s(out, values);
                put_u32(out, support_cols.len() as u32);
                put_u64s(out, support_cols);
                put_f64s(out, support_values);
                out.extend(support_valid.iter().map(|&b| b as u8));
            }
            Message::CoupledResult { rows, values } => {
                assert_eq!(rows.len(), values.len(), "result rows/values must align");
                put_u32(out, rows.len() as u32);
                put_u64s(out, rows);
                put_f64s(out, values);
            }
            Message::WorkerConfig(c) => {
                put_u32(out, c.rank);
                put_u32(out, c.ranks);
                put_u32(out, c.epochs.len() as u32);
                put_u64s(out, &c.epochs);
                out.push(c.transport);
                out.extend_from_slice(&c.tcp_base_port.to_le_bytes());
                put_u32(out, c.uds_dir.len() as u32);
                out.extend_from_slice(&c.uds_dir);
                out.push(c.solver);
                put_u64(out, c.grid);
                put_u64(out, c.rhs_seed);
                put_u64(out, c.page_doubles);
                put_f64(out, c.tolerance);
                put_u64(out, c.max_iterations);
                out.push(c.policy);
                put_u64(out, c.checkpoint_interval);
                out.push(u8::from(c.elastic));
                out.push(u8::from(c.chaos.is_some()));
                if let Some((seed, r, all_attempts)) = c.chaos {
                    put_u64(out, seed);
                    put_f64s(out, &[r.drop, r.duplicate, r.delay, r.corrupt, r.truncate]);
                    out.push(u8::from(all_attempts));
                }
                put_u64(out, c.retransmit_timeout_us);
                put_u64(out, c.spin_us);
            }
        }
        let payload_len = (out.len() - payload_at) as u32;
        assert!(payload_len <= MAX_PAYLOAD, "frame payload exceeds cap");
        out[header_at + 4..header_at + 8].copy_from_slice(&payload_len.to_le_bytes());
    }

    /// Encodes this message into a fresh frame buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + 32);
        self.encode_into(&mut out);
        out
    }

    /// Decodes a message of the given tag from its payload bytes.
    pub fn decode(tag: Tag, payload: &[u8]) -> Result<Message, WireError> {
        let mut rd = Rd::new(payload);
        let msg = match tag {
            Tag::Hello => Message::Hello {
                rank: rd.take_u32()?,
                ranks: rd.take_u32()?,
                epoch: rd.take_u32()?,
                t0_micros: rd.take_u64()?,
            },
            Tag::Halo => Message::Halo {
                values: rd.take_f64s_rest()?,
            },
            Tag::GatherScalar => Message::GatherScalar {
                rank: rd.take_u32()?,
                value: rd.take_f64()?,
            },
            Tag::GatherVec => Message::GatherVec {
                rank: rd.take_u32()?,
                values: rd.take_f64s_rest()?,
            },
            Tag::RecoveryRequest => {
                let rest = rd.rest();
                if !rest.len().is_multiple_of(8) {
                    return Err(WireError::Malformed("request payload not 8-byte aligned"));
                }
                Message::RecoveryRequest {
                    indices: rest
                        .chunks_exact(8)
                        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
                        .collect(),
                }
            }
            Tag::RecoveryReply => {
                let count = rd.take_u32()? as usize;
                let values = rd.take_f64s(count)?;
                let valid_bytes = rd.take_bytes(count)?;
                let valid = valid_bytes.iter().map(|&b| b != 0).collect();
                Message::RecoveryReply { values, valid }
            }
            Tag::RankResult => {
                let rank = rd.take_u32()?;
                let iterations = rd.take_u64()?;
                let collectives = rd.take_u64()?;
                let x_len = rd.take_u32()? as usize;
                let x = rd.take_f64s(x_len)?;
                let hist_len = rd.take_u32()? as usize;
                let history = rd.take_f64s(hist_len)?;
                Message::RankResult {
                    rank,
                    iterations,
                    collectives,
                    x,
                    history,
                }
            }
            Tag::RankError => {
                let rank = rd.take_u32()?;
                let kind = RankErrorKind::from_u8(rd.take_u8()?)?;
                let peer = rd.take_u32()? as i32;
                let message = String::from_utf8(rd.rest().to_vec())
                    .map_err(|_| WireError::Malformed("rank-error message is not UTF-8"))?;
                Message::RankError {
                    rank,
                    kind,
                    peer,
                    message,
                }
            }
            Tag::RejoinBarrier => Message::RejoinBarrier {
                epoch: rd.take_u32()?,
                iteration: rd.take_u64()?,
            },
            Tag::TraceDump => {
                let rank = rd.take_u32()?;
                let origin_micros = rd.take_u64()?;
                let dropped = rd.take_u64()?;
                let link = rd.take_u64s(5)?.try_into().expect("five counters taken");
                let count = rd.take_u32()? as usize;
                let mut events = Vec::with_capacity(count.min(MAX_PAYLOAD as usize / 17));
                for _ in 0..count {
                    let phase = rd.take_u8()?;
                    let start_ns = rd.take_u64()?;
                    let dur_ns = rd.take_u64()?;
                    events.push((phase, start_ns, dur_ns));
                }
                Message::TraceDump {
                    rank,
                    origin_micros,
                    dropped,
                    link,
                    events,
                }
            }
            Tag::CoupledGather => {
                let row_count = rd.take_u32()? as usize;
                let rows = rd.take_u64s(row_count)?;
                let values = rd.take_f64s(row_count)?;
                let support_count = rd.take_u32()? as usize;
                let support_cols = rd.take_u64s(support_count)?;
                let support_values = rd.take_f64s(support_count)?;
                let support_valid = rd
                    .take_bytes(support_count)?
                    .iter()
                    .map(|&b| b != 0)
                    .collect();
                Message::CoupledGather {
                    rows,
                    values,
                    support_cols,
                    support_values,
                    support_valid,
                }
            }
            Tag::CoupledResult => {
                let count = rd.take_u32()? as usize;
                let rows = rd.take_u64s(count)?;
                let values = rd.take_f64s(count)?;
                Message::CoupledResult { rows, values }
            }
            // Struct-literal fields evaluate in source order: the wire order.
            Tag::WorkerConfig => Message::WorkerConfig(WorkerConfig {
                rank: rd.take_u32()?,
                ranks: rd.take_u32()?,
                epochs: {
                    let count = rd.take_u32()? as usize;
                    rd.take_u64s(count)?
                },
                transport: rd.take_u8()?,
                tcp_base_port: u16::from_le_bytes(rd.take_bytes(2)?.try_into().expect("2 bytes")),
                uds_dir: {
                    let len = rd.take_u32()? as usize;
                    rd.take_bytes(len)?.to_vec()
                },
                solver: rd.take_u8()?,
                grid: rd.take_u64()?,
                rhs_seed: rd.take_u64()?,
                page_doubles: rd.take_u64()?,
                tolerance: rd.take_f64()?,
                max_iterations: rd.take_u64()?,
                policy: rd.take_u8()?,
                checkpoint_interval: rd.take_u64()?,
                elastic: rd.take_u8()? != 0,
                chaos: match rd.take_u8()? {
                    0 => None,
                    _ => Some((
                        rd.take_u64()?,
                        chaos::FaultRates {
                            drop: rd.take_f64()?,
                            duplicate: rd.take_f64()?,
                            delay: rd.take_f64()?,
                            corrupt: rd.take_f64()?,
                            truncate: rd.take_f64()?,
                        },
                        rd.take_u8()? != 0,
                    )),
                },
                retransmit_timeout_us: rd.take_u64()?,
                spin_us: rd.take_u64()?,
            }),
        };
        Ok(msg)
    }
}

/// Writes one complete frame to `w`, reusing `scratch` as the encode buffer.
pub fn write_message<W: Write>(
    w: &mut W,
    msg: &Message,
    scratch: &mut Vec<u8>,
) -> Result<(), WireError> {
    scratch.clear();
    msg.encode_into(scratch);
    w.write_all(scratch)?;
    Ok(())
}

/// Parses and validates a frame header, returning `(tag, payload_len)`.
pub fn parse_header(header: &[u8; HEADER_LEN]) -> Result<(Tag, u32), WireError> {
    if header[0..2] != MAGIC {
        return Err(WireError::BadMagic([header[0], header[1]]));
    }
    if header[2] != WIRE_VERSION {
        return Err(WireError::VersionMismatch {
            ours: WIRE_VERSION,
            theirs: header[2],
        });
    }
    let tag = Tag::from_u8(header[3])?;
    let len = u32::from_le_bytes(header[4..8].try_into().unwrap());
    if len > MAX_PAYLOAD {
        return Err(WireError::Oversized(len));
    }
    Ok((tag, len))
}

/// Decodes one complete frame (header + payload) from an in-memory buffer,
/// validating the header and that the buffer carries exactly the declared
/// payload. This is the integrity gate the reliability sublayer applies to
/// frames that arrived inside a chaos envelope: corruption injected by
/// [`chaos::ChaosLink`] surfaces here as `BadMagic` / `VersionMismatch` /
/// `Truncated`, never as a silently wrong message.
pub fn decode_frame_buf(buf: &[u8]) -> Result<Message, WireError> {
    if buf.len() < HEADER_LEN {
        return Err(WireError::Truncated {
            needed: HEADER_LEN,
            have: buf.len(),
        });
    }
    let header: [u8; HEADER_LEN] = buf[..HEADER_LEN].try_into().unwrap();
    let (tag, len) = parse_header(&header)?;
    let payload = &buf[HEADER_LEN..];
    if payload.len() != len as usize {
        return Err(WireError::Truncated {
            needed: HEADER_LEN + len as usize,
            have: buf.len(),
        });
    }
    Message::decode(tag, payload)
}

/// Iterates the `f64` values of a flat float payload (e.g. a halo frame)
/// without copying it into an intermediate vector.
pub fn f64_payload_iter(payload: &[u8]) -> impl Iterator<Item = f64> + '_ {
    payload
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
}

/// Incremental frame reader with a reusable payload buffer.
#[derive(Debug, Default)]
pub struct FrameReader {
    payload: Vec<u8>,
}

impl FrameReader {
    /// Creates an empty reader.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Reads one frame, returning its tag and a borrow of the payload bytes.
    ///
    /// A clean EOF at a frame boundary returns [`WireError::Closed`]; EOF in
    /// the middle of a header or payload returns [`WireError::Truncated`].
    pub fn read_frame<R: Read>(&mut self, r: &mut R) -> Result<(Tag, &[u8]), WireError> {
        let mut header = [0u8; HEADER_LEN];
        // Read the first byte separately so a clean close (zero bytes at a
        // frame boundary) is distinguishable from a mid-frame truncation.
        let mut got = 0usize;
        while got == 0 {
            match r.read(&mut header[..1]) {
                Ok(0) => return Err(WireError::Closed),
                Ok(n) => got = n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(WireError::Io(e)),
            }
        }
        read_exact_or_truncated(r, &mut header[1..], HEADER_LEN, 1)?;
        let (tag, len) = parse_header(&header)?;
        self.payload.clear();
        self.payload.resize(len as usize, 0);
        read_exact_or_truncated(r, &mut self.payload, len as usize, 0)?;
        Ok((tag, &self.payload))
    }

    /// Reads and decodes one full message.
    pub fn read_message<R: Read>(&mut self, r: &mut R) -> Result<Message, WireError> {
        let (tag, payload) = self.read_frame(r)?;
        Message::decode(tag, payload)
    }
}

fn read_exact_or_truncated<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    needed: usize,
    already: usize,
) -> Result<(), WireError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(WireError::Truncated {
                    needed,
                    have: already + filled,
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(())
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64s(out: &mut Vec<u8>, vs: &[u64]) {
    for v in vs {
        put_u64(out, *v);
    }
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64s(out: &mut Vec<u8>, vs: &[f64]) {
    out.reserve(vs.len() * 8);
    for v in vs {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Cursor over a payload slice with bounds-checked primitive reads.
struct Rd<'a> {
    buf: &'a [u8],
    off: usize,
}

impl<'a> Rd<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Rd { buf, off: 0 }
    }

    fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() - self.off < n {
            return Err(WireError::Truncated {
                needed: self.off + n,
                have: self.buf.len(),
            });
        }
        let s = &self.buf[self.off..self.off + n];
        self.off += n;
        Ok(s)
    }

    fn take_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take_bytes(1)?[0])
    }

    fn take_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take_bytes(4)?.try_into().unwrap()))
    }

    fn take_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take_bytes(8)?.try_into().unwrap()))
    }

    fn take_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.take_bytes(8)?.try_into().unwrap()))
    }

    fn take_f64s(&mut self, n: usize) -> Result<Vec<f64>, WireError> {
        Ok(f64_payload_iter(self.take_bytes(n * 8)?).collect())
    }

    fn take_u64s(&mut self, n: usize) -> Result<Vec<u64>, WireError> {
        Ok(self
            .take_bytes(n * 8)?
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    fn take_f64s_rest(&mut self) -> Result<Vec<f64>, WireError> {
        let rest = self.rest();
        if !rest.len().is_multiple_of(8) {
            return Err(WireError::Malformed("float payload not 8-byte aligned"));
        }
        Ok(f64_payload_iter(rest).collect())
    }

    fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.off..];
        self.off = self.buf.len();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::Hello {
                rank: 3,
                ranks: 4,
                epoch: 2,
                t0_micros: 1_700_000_000_000_000,
            },
            Message::Halo {
                values: vec![1.5, -2.25, 1.2e+05, f64::MIN_POSITIVE],
            },
            Message::GatherScalar {
                rank: 1,
                value: -0.125,
            },
            Message::GatherVec {
                rank: 2,
                values: vec![0.1, f64::NAN, 0.30000000000000004],
            },
            Message::RecoveryRequest {
                indices: vec![0, 17, u64::MAX / 2],
            },
            Message::RecoveryReply {
                values: vec![9.0, -8.5],
                valid: vec![true, false],
            },
            Message::RankResult {
                rank: 0,
                iterations: 88,
                collectives: 178,
                x: vec![0.5; 7],
                history: vec![1.0, 0.25, 0.0625],
            },
            Message::RankError {
                rank: 2,
                kind: RankErrorKind::Disconnected,
                peer: 1,
                message: "peer 1 vanished".into(),
            },
            Message::RejoinBarrier {
                epoch: 3,
                iteration: 1729,
            },
            Message::TraceDump {
                rank: 1,
                origin_micros: 1_700_000_000_000_123,
                dropped: 5,
                link: [400, 12, 31, 2, 9],
                events: vec![(0, 10, 1_000), (9, 500, 0), (3, 2_000, 750)],
            },
            Message::CoupledGather {
                rows: vec![30, 31, 32, 33],
                values: vec![0.5, -0.25, 1.0e-3, 7.75],
                support_cols: vec![14, 29, 34],
                support_values: vec![2.5, -1.0, 0.0625],
                support_valid: vec![true, false, true],
            },
            Message::CoupledResult {
                rows: vec![30, 31],
                values: vec![1.125, -3.5],
            },
            Message::WorkerConfig(WorkerConfig {
                rank: 1,
                ranks: 2,
                epochs: vec![0, 3],
                uds_dir: b"/tmp/mesh-\xff".to_vec(),
                solver: 1,
                grid: 64,
                rhs_seed: 7,
                page_doubles: 512,
                tolerance: 1e-10,
                max_iterations: 10_000,
                policy: 4,
                checkpoint_interval: 25,
                elastic: true,
                chaos: Some((
                    1207,
                    chaos::FaultRates {
                        drop: 0.012,
                        duplicate: 0.006,
                        delay: 0.006,
                        corrupt: 0.004,
                        truncate: 0.004,
                    },
                    false,
                )),
                retransmit_timeout_us: 500,
                spin_us: u64::MAX,
                ..WorkerConfig::default()
            }),
        ]
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn roundtrip_every_message_type() {
        let msgs = sample_messages();
        assert_eq!(msgs.len(), Tag::ALL.len(), "cover every tag");
        for msg in msgs {
            let frame = msg.encode();
            let mut reader = FrameReader::new();
            let mut cursor = frame.as_slice();
            let decoded = reader.read_message(&mut cursor).unwrap();
            // Compare float payloads bitwise (NaN != NaN under PartialEq).
            match (&msg, &decoded) {
                (Message::GatherVec { values: a, .. }, Message::GatherVec { values: b, .. }) => {
                    assert_eq!(bits(a), bits(b));
                }
                _ => assert_eq!(msg, decoded),
            }
            assert!(cursor.is_empty(), "frame fully consumed");
        }
    }

    #[test]
    fn back_to_back_frames_on_one_stream() {
        let mut stream = Vec::new();
        for msg in sample_messages() {
            msg.encode_into(&mut stream);
        }
        let mut reader = FrameReader::new();
        let mut cursor = stream.as_slice();
        for _ in 0..Tag::ALL.len() {
            reader.read_message(&mut cursor).unwrap();
        }
        assert!(matches!(
            reader.read_message(&mut cursor),
            Err(WireError::Closed)
        ));
    }

    #[test]
    fn truncated_frames_are_rejected_at_every_cut() {
        for msg in sample_messages() {
            let frame = msg.encode();
            for cut in 1..frame.len() {
                let mut reader = FrameReader::new();
                let mut cursor = &frame[..cut];
                let err = reader.read_message(&mut cursor).unwrap_err();
                assert!(
                    matches!(err, WireError::Truncated { .. }),
                    "{:?} cut at {cut} gave {err:?}",
                    msg.tag()
                );
            }
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut frame = Message::Hello {
            rank: 0,
            ranks: 2,
            epoch: 0,
            t0_micros: 0,
        }
        .encode();
        frame[2] = WIRE_VERSION + 1;
        let mut reader = FrameReader::new();
        let err = reader.read_message(&mut frame.as_slice()).unwrap_err();
        match err {
            WireError::VersionMismatch { ours, theirs } => {
                assert_eq!(ours, WIRE_VERSION);
                assert_eq!(theirs, WIRE_VERSION + 1);
            }
            other => panic!("expected version mismatch, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_and_unknown_tag_are_rejected() {
        let good = Message::Hello {
            rank: 0,
            ranks: 2,
            epoch: 0,
            t0_micros: 0,
        }
        .encode();

        let mut bad_magic = good.clone();
        bad_magic[0] = 0x00;
        assert!(matches!(
            FrameReader::new().read_message(&mut bad_magic.as_slice()),
            Err(WireError::BadMagic(_))
        ));

        let mut bad_tag = good;
        bad_tag[3] = 0xEE;
        assert!(matches!(
            FrameReader::new().read_message(&mut bad_tag.as_slice()),
            Err(WireError::UnknownTag(0xEE))
        ));
    }

    #[test]
    fn oversized_length_is_rejected_without_allocating() {
        let mut frame = Message::Hello {
            rank: 0,
            ranks: 2,
            epoch: 0,
            t0_micros: 0,
        }
        .encode();
        frame[4..8].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(
            FrameReader::new().read_message(&mut frame.as_slice()),
            Err(WireError::Oversized(_))
        ));
    }

    #[test]
    fn halo_payload_iter_is_bitwise_zero_copy() {
        let values = vec![1.0, -0.0, f64::INFINITY, std::f64::consts::PI, 1.2e+05];
        let frame = Message::Halo {
            values: values.clone(),
        }
        .encode();
        let mut reader = FrameReader::new();
        let (tag, payload) = reader.read_frame(&mut frame.as_slice()).unwrap();
        assert_eq!(tag, Tag::Halo);
        let scattered: Vec<f64> = f64_payload_iter(payload).collect();
        assert_eq!(bits(&values), bits(&scattered));
    }

    #[test]
    fn misaligned_float_payload_is_malformed() {
        let mut frame = Message::Halo { values: vec![1.0] }.encode();
        // Declare 9 payload bytes and append one: no longer 8-byte aligned.
        frame[4..8].copy_from_slice(&9u32.to_le_bytes());
        frame.push(0xAB);
        assert!(matches!(
            FrameReader::new().read_message(&mut frame.as_slice()),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn header_is_self_describing() {
        let frame = Message::GatherScalar {
            rank: 1,
            value: 7.0,
        }
        .encode();
        let header: [u8; HEADER_LEN] = frame[..HEADER_LEN].try_into().unwrap();
        let (tag, len) = parse_header(&header).unwrap();
        assert_eq!(tag, Tag::GatherScalar);
        assert_eq!(len as usize, frame.len() - HEADER_LEN);
    }
}
