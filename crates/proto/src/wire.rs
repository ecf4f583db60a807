//! Node-control datagram codec — the wire messages of the `mdr-node`
//! multi-process control plane.
//!
//! The simulator delivers [`crate::LsuMessage`]s reliably and in order
//! for free; real UDP does neither. `mdr-node` therefore wraps every
//! LSU in a small reliability envelope, and exchanges two extra message
//! kinds that the simulator never needed:
//!
//! * **Hello** — per-neighbor keepalive and incarnation advertisement,
//!   carrying an RTT-echo triplet (BFD-style): the sender's clock, an
//!   echo of the latest hello timestamp received from the peer, and
//!   the hold time between receiving that hello and sending this one.
//!   `RTT = now − echo − hold` needs no clock synchronization and no
//!   per-probe bookkeeping, and feeds the transport's Jacobson/Karels
//!   retransmission-timeout estimator.
//! * **Data** — one LSU with a per-neighbor sequence number. Receivers
//!   deliver strictly in order and acknowledge cumulatively; senders
//!   retransmit with exponential backoff until acknowledged or the
//!   retry budget is exhausted.
//! * **Ack** — cumulative acknowledgment: every sequence number up to
//!   and including `cum_seq` has been delivered.
//!
//! Every message additionally carries the sender's node id, its
//! **incarnation** (a restart counter, ≥ 1 on the wire; 0 is reserved
//! for "never seen"), the incarnation of the *receiver* the sender is
//! addressing (**for_inc**, 0 while unknown — a node accepts only
//! datagrams addressed to its current life, so traffic aimed at a
//! previous incarnation cannot pollute a fresh channel), the receiver
//! stream session being addressed (**for_session**, 0 while unknown —
//! the same defense one level down: a channel accepts only datagrams
//! addressed to its current stream epoch, so an ack computed against a
//! pre-reset adjacency cannot acknowledge fresh segments the peer
//! never delivered), the sender's per-adjacency **session** (a stream
//! epoch, ≥ 1, bumped whenever the sender's channel resets — letting
//! the receiver detect that the peer's sequence space restarted even
//! when no incarnation changed), and a **hybrid-logical-clock stamp**
//! so that the per-node telemetry traces of independent OS processes
//! can be merged into one causally consistent timeline for invariant
//! auditing.
//!
//! Layout (all integers big-endian), followed by the same CRC32 trailer
//! the LSU framing uses:
//!
//! ```text
//! magic        u8   = 0x4D ('M')
//! version      u8   = 4
//! type         u8   0 = Hello, 1 = Data, 2 = Ack
//! from         u32  sending node
//! incarnation  u32  sender's restart counter (≥ 1)
//! for_inc      u32  receiver incarnation being addressed (0 = unknown)
//! for_session  u32  receiver stream session being addressed (0 = unknown)
//! session      u32  sender's channel-stream epoch (≥ 1)
//! hlc_l        u64  HLC physical component (µs)
//! hlc_c        u32  HLC logical component
//! -- Hello --  ts_us u64, echo_ts_us u64, hold_us u64
//! -- Data  --  seq u64, len u16, payload[len] (payload = canonical LSU encoding)
//! -- Ack   --  cum_seq u64
//! ```
//!
//! The codec inherits the LSU codec's strictness contract: trailing
//! bytes, bad magic/version/type, zero incarnations or sessions, and
//! payloads that are not canonical LSU encodings are decode errors, so
//! any buffer that decodes successfully re-encodes to exactly the same
//! bytes.

use crate::codec::{self, DecodeError, FRAME_TRAILER_LEN};
use crate::lsu::LsuMessage;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use mdr_net::NodeId;
use std::cmp::Ordering;

const MAGIC: u8 = 0x4D;
const VERSION: u8 = 4;
/// Fixed header: magic, version, type, from, incarnation, for_inc,
/// for_session, session, hlc_l, hlc_c.
const HEADER_LEN: usize = 1 + 1 + 1 + 4 + 4 + 4 + 4 + 4 + 8 + 4;

/// A hybrid-logical-clock stamp as carried on the wire: `l` is the
/// physical component in microseconds, `c` the logical tiebreaker.
/// Ordering is lexicographic `(l, c)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct HlcStamp {
    /// Physical component (µs since the epoch the deployment agreed
    /// on — the launcher's start instant).
    pub l: u64,
    /// Logical component: breaks ties among events within one µs.
    pub c: u32,
}

// Written out rather than derived: a derived `PartialOrd` calls
// `partial_cmp`, a method the workspace lints deny.
impl Ord for HlcStamp {
    fn cmp(&self, other: &Self) -> Ordering {
        self.l.cmp(&other.l).then(self.c.cmp(&other.c))
    }
}

impl PartialOrd for HlcStamp {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Body of a node-control message.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeBody {
    /// Keepalive + incarnation advertisement (identity lives in the
    /// [`NodeMsg`] header) plus the RTT-echo triplet.
    Hello {
        /// Sender's clock at transmission (µs since the deployment
        /// epoch the launcher agreed on).
        ts_us: u64,
        /// Echo of the latest hello `ts_us` received from the peer
        /// (0 = none received yet).
        echo_ts_us: u64,
        /// Time the sender held that hello before echoing it (µs);
        /// subtracted out of the RTT computation.
        hold_us: u64,
    },
    /// One LSU under a per-neighbor sequence number.
    Data {
        /// Sequence number (per sender→receiver stream, starts at 1).
        seq: u64,
        /// The link-state update itself.
        lsu: LsuMessage,
    },
    /// Cumulative acknowledgment of every `seq ≤ cum_seq`.
    Ack {
        /// Highest in-order sequence number delivered.
        cum_seq: u64,
    },
}

impl NodeBody {
    /// Stable lower-case label (telemetry and diagnostics).
    pub fn kind(&self) -> &'static str {
        match self {
            NodeBody::Hello { .. } => "hello",
            NodeBody::Data { .. } => "data",
            NodeBody::Ack { .. } => "ack",
        }
    }
}

/// A complete node-control message.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeMsg {
    /// Sending node.
    pub from: NodeId,
    /// Sender's incarnation (restart counter, ≥ 1 on the wire).
    pub incarnation: u32,
    /// Incarnation of the receiver the sender is addressing (0 while
    /// unknown, i.e. before the first hello exchange). Receivers drop
    /// datagrams addressed to a life other than their current one.
    pub for_inc: u32,
    /// Stream session of the receiver the sender is addressing (0
    /// while unknown). Receivers drop datagrams addressed to a stream
    /// epoch other than their current one — without this mirror of
    /// `for_inc`, an ack computed against the receiver's *previous*
    /// stream (before a same-incarnation reset restarted its sequence
    /// space) would acknowledge fresh segments the sender of the ack
    /// never delivered.
    pub for_session: u32,
    /// Sender's per-adjacency stream epoch (≥ 1 on the wire): bumped
    /// every time the sender's channel to this receiver resets, so the
    /// receiver can tell a restarted sequence space from a stale or
    /// duplicated segment of the old one.
    pub session: u32,
    /// Sender's HLC at transmission.
    pub hlc: HlcStamp,
    /// Payload.
    pub body: NodeBody,
}

/// Encoded size of a node message in bytes (without the CRC trailer).
pub fn node_encoded_len(msg: &NodeMsg) -> usize {
    HEADER_LEN
        + match &msg.body {
            NodeBody::Hello { .. } => 8 + 8 + 8,
            NodeBody::Data { lsu, .. } => 8 + 2 + codec::encoded_len(lsu),
            NodeBody::Ack { .. } => 8,
        }
}

/// Encoded size including the CRC32 trailer ([`frame_node`]).
pub fn node_framed_len(msg: &NodeMsg) -> usize {
    node_encoded_len(msg) + FRAME_TRAILER_LEN
}

fn type_code(body: &NodeBody) -> u8 {
    match body {
        NodeBody::Hello { .. } => 0,
        NodeBody::Data { .. } => 1,
        NodeBody::Ack { .. } => 2,
    }
}

/// Encode a node-control message (no checksum; see [`frame_node`]).
///
/// # Panics
/// Panics when `incarnation` or `session` is 0 (both reserved) or a
/// `Data` payload exceeds the `u16` length field — all are caller
/// bugs, not wire conditions.
pub fn encode_node(msg: &NodeMsg) -> Bytes {
    assert!(msg.incarnation >= 1, "incarnation 0 is reserved for \"never seen\"");
    assert!(msg.session >= 1, "session 0 is reserved");
    let mut buf = BytesMut::with_capacity(node_encoded_len(msg));
    buf.put_u8(MAGIC);
    buf.put_u8(VERSION);
    buf.put_u8(type_code(&msg.body));
    buf.put_u32(msg.from.0);
    buf.put_u32(msg.incarnation);
    buf.put_u32(msg.for_inc);
    buf.put_u32(msg.for_session);
    buf.put_u32(msg.session);
    buf.put_u64(msg.hlc.l);
    buf.put_u32(msg.hlc.c);
    match &msg.body {
        NodeBody::Hello { ts_us, echo_ts_us, hold_us } => {
            buf.put_u64(*ts_us);
            buf.put_u64(*echo_ts_us);
            buf.put_u64(*hold_us);
        }
        NodeBody::Data { seq, lsu } => {
            let payload = codec::encode(lsu);
            assert!(payload.len() <= u16::MAX as usize, "LSU payload overflows the length field");
            buf.put_u64(*seq);
            buf.put_u16(payload.len() as u16);
            buf.put_slice(&payload);
        }
        NodeBody::Ack { cum_seq } => buf.put_u64(*cum_seq),
    }
    buf.freeze()
}

/// Decode a node-control message, consuming the whole buffer.
pub fn decode_node(mut buf: &[u8]) -> Result<NodeMsg, DecodeError> {
    if buf.len() < HEADER_LEN {
        return Err(DecodeError::Truncated);
    }
    let magic = buf.get_u8();
    if magic != MAGIC {
        return Err(DecodeError::BadMagic(magic));
    }
    let version = buf.get_u8();
    if version != VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let ty = buf.get_u8();
    let from = NodeId(buf.get_u32());
    let incarnation = buf.get_u32();
    if incarnation == 0 {
        return Err(DecodeError::BadIncarnation);
    }
    let for_inc = buf.get_u32();
    let for_session = buf.get_u32();
    let session = buf.get_u32();
    if session == 0 {
        return Err(DecodeError::BadSession);
    }
    let hlc = HlcStamp { l: buf.get_u64(), c: buf.get_u32() };
    let body = match ty {
        0 => {
            if buf.remaining() < 8 + 8 + 8 {
                return Err(DecodeError::Truncated);
            }
            NodeBody::Hello {
                ts_us: buf.get_u64(),
                echo_ts_us: buf.get_u64(),
                hold_us: buf.get_u64(),
            }
        }
        1 => {
            if buf.remaining() < 8 + 2 {
                return Err(DecodeError::Truncated);
            }
            let seq = buf.get_u64();
            let len = buf.get_u16() as usize;
            if buf.remaining() < len {
                return Err(DecodeError::Truncated);
            }
            let lsu = codec::decode(&buf[..len])?;
            buf.advance(len);
            NodeBody::Data { seq, lsu }
        }
        2 => {
            if buf.remaining() < 8 {
                return Err(DecodeError::Truncated);
            }
            NodeBody::Ack { cum_seq: buf.get_u64() }
        }
        other => return Err(DecodeError::BadMsgType(other)),
    };
    if buf.remaining() != 0 {
        return Err(DecodeError::TrailingBytes(buf.remaining()));
    }
    Ok(NodeMsg { from, incarnation, for_inc, for_session, session, hlc, body })
}

/// Encode `msg` and append the CRC32 of the encoding — one UDP datagram
/// of the node control plane.
pub fn frame_node(msg: &NodeMsg) -> Bytes {
    let mut buf = BytesMut::with_capacity(node_framed_len(msg));
    buf.put_slice(&encode_node(msg));
    let crc = codec::crc32(&buf);
    buf.put_u32(crc);
    buf.freeze()
}

/// Verify the CRC32 trailer and decode the payload. Corruption anywhere
/// yields [`DecodeError::BadChecksum`] (or [`DecodeError::Truncated`]
/// when even the trailer is cut short), so a flipped bit on the wire is
/// dropped and later retransmitted instead of poisoning a neighbor
/// table.
pub fn unframe_node(buf: &[u8]) -> Result<NodeMsg, DecodeError> {
    if buf.len() < HEADER_LEN + FRAME_TRAILER_LEN {
        return Err(DecodeError::Truncated);
    }
    let (payload, trailer) = buf.split_at(buf.len() - FRAME_TRAILER_LEN);
    let want = u32::from_be_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    if codec::crc32(payload) != want {
        return Err(DecodeError::BadChecksum);
    }
    decode_node(payload)
}

/// Cheap pre-decode peek: is this framed node datagram a `Data` (LSU)
/// frame? Grey-failure emulation in the live shell must distinguish
/// data frames from hello/ack traffic *before* spending a decode (and
/// before deliberately corrupting the buffer). Returns `None` when the
/// buffer is too short to carry the type byte.
pub fn node_frame_is_data(buf: &[u8]) -> Option<bool> {
    if buf.len() <= 2 {
        return None;
    }
    Some(buf[2] == 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lsu::LsuEntry;

    fn stamp() -> HlcStamp {
        HlcStamp { l: 1_234_567, c: 3 }
    }

    fn samples() -> Vec<NodeMsg> {
        vec![
            NodeMsg {
                from: NodeId(4),
                incarnation: 2,
                for_inc: 0,
                for_session: 0,
                session: 1,
                hlc: stamp(),
                body: NodeBody::Hello {
                    ts_us: 41_000_000,
                    echo_ts_us: 40_800_123,
                    hold_us: 180_007,
                },
            },
            NodeMsg {
                from: NodeId(0),
                incarnation: 1,
                for_inc: 3,
                for_session: 2,
                session: 5,
                hlc: HlcStamp::default(),
                body: NodeBody::Data {
                    seq: 9,
                    lsu: LsuMessage {
                        from: NodeId(0),
                        ack: true,
                        entries: vec![
                            LsuEntry::add(NodeId(0), NodeId(1), 0.25),
                            LsuEntry::delete(NodeId(1), NodeId(2)),
                        ],
                    },
                },
            },
            NodeMsg {
                from: NodeId(7),
                incarnation: 3,
                for_inc: u32::MAX,
                for_session: u32::MAX,
                session: u32::MAX,
                hlc: HlcStamp { l: u64::MAX, c: u32::MAX },
                body: NodeBody::Ack { cum_seq: 42 },
            },
        ]
    }

    #[test]
    fn roundtrip_all_kinds() {
        for m in samples() {
            let b = encode_node(&m);
            assert_eq!(b.len(), node_encoded_len(&m));
            assert_eq!(decode_node(&b).unwrap(), m);
            let f = frame_node(&m);
            assert_eq!(f.len(), node_framed_len(&m));
            assert_eq!(unframe_node(&f).unwrap(), m);
        }
    }

    #[test]
    fn rejects_bad_magic_version_type() {
        let b = encode_node(&samples()[0]).to_vec();
        let mut x = b.clone();
        x[0] = 0x4C; // the LSU magic is NOT a node message
        assert_eq!(decode_node(&x), Err(DecodeError::BadMagic(0x4C)));
        let mut x = b.clone();
        x[1] = 1;
        assert_eq!(decode_node(&x), Err(DecodeError::BadVersion(1)));
        let mut x = b;
        x[2] = 9;
        assert_eq!(decode_node(&x), Err(DecodeError::BadMsgType(9)));
    }

    #[test]
    fn rejects_zero_incarnation() {
        let mut b = encode_node(&samples()[0]).to_vec();
        // Incarnation field sits at bytes 7..11.
        b[7..11].copy_from_slice(&0u32.to_be_bytes());
        assert_eq!(decode_node(&b), Err(DecodeError::BadIncarnation));
    }

    #[test]
    fn rejects_zero_session() {
        let mut b = encode_node(&samples()[0]).to_vec();
        // Session field sits at bytes 19..23 (after for_session).
        b[19..23].copy_from_slice(&0u32.to_be_bytes());
        assert_eq!(decode_node(&b), Err(DecodeError::BadSession));
    }

    #[test]
    #[should_panic(expected = "incarnation 0")]
    fn encoding_zero_incarnation_is_a_bug() {
        let mut m = samples()[0].clone();
        m.incarnation = 0;
        let _ = encode_node(&m);
    }

    #[test]
    #[should_panic(expected = "session 0")]
    fn encoding_zero_session_is_a_bug() {
        let mut m = samples()[0].clone();
        m.session = 0;
        let _ = encode_node(&m);
    }

    #[test]
    fn rejects_truncation_everywhere() {
        for m in samples() {
            let b = encode_node(&m).to_vec();
            for cut in 0..b.len() {
                assert!(decode_node(&b[..cut]).is_err(), "{}-byte prefix accepted", cut);
            }
        }
    }

    #[test]
    fn rejects_trailing_bytes() {
        for m in samples() {
            let mut b = encode_node(&m).to_vec();
            b.push(0);
            assert_eq!(decode_node(&b), Err(DecodeError::TrailingBytes(1)));
        }
    }

    #[test]
    fn rejects_inner_payload_garbage() {
        // Corrupt the embedded LSU's magic byte: the envelope parses
        // but the payload must be refused by the strict inner codec.
        let data = &samples()[1];
        let mut b = encode_node(data).to_vec();
        let payload_off = HEADER_LEN + 8 + 2;
        b[payload_off] = 0xFF;
        assert_eq!(decode_node(&b), Err(DecodeError::BadMagic(0xFF)));
    }

    #[test]
    fn unframe_rejects_any_single_bit_flip() {
        for m in samples() {
            let f = frame_node(&m).to_vec();
            for byte in 0..f.len() {
                for bit in 0..8 {
                    let mut x = f.clone();
                    x[byte] ^= 1 << bit;
                    assert!(
                        unframe_node(&x).is_err(),
                        "bit flip at byte {byte} bit {bit} went undetected"
                    );
                }
            }
        }
    }

    #[test]
    fn hlc_stamp_orders_lexicographically() {
        let a = HlcStamp { l: 1, c: 9 };
        let b = HlcStamp { l: 2, c: 0 };
        let c = HlcStamp { l: 2, c: 1 };
        assert!(a < b && b < c);
    }
}
