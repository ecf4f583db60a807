//! # mdr-proto — link-state update (LSU) messages
//!
//! "The unit of information exchanged between routers is a link-state
//! update (LSU) message. A router sends an LSU message containing one or
//! more entries, with each entry specifying addition, deletion or change
//! in cost of a link in the router's main topology table `T^i`. Each
//! entry of an LSU consists of link information in the form of a triplet
//! `[h, t, d]` where `h` is the head, `t` is the tail, and `d` is the
//! cost of the link `h → t`. An LSU message contains an acknowledgment
//! (ACK) flag for acknowledging the receipt of an LSU message from a
//! neighbor (used only by MPDA)." — §4.1
//!
//! This crate defines the in-memory message model ([`LsuMessage`]) used
//! by `mdr-routing` and `mdr-sim`, and a compact binary wire codec
//! ([`codec`]) so the messages have a defined on-the-wire size — the
//! simulator charges propagation (and optionally serialization) time for
//! control messages based on the encoded length.

// Bit-deterministic crate: an exact float comparison must say why it
// is exact. `unsafe`, hash-ordered collections, wall-clock reads and
// `partial_cmp` are denied in every crate by the workspace lints.
#![cfg_attr(not(test), deny(clippy::float_cmp))]
// Every decode path here degrades on hostile bytes, never panics.
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod codec;
pub mod lsu;
pub mod wire;

pub use codec::{decode, encode, encoded_len, frame, framed_len, unframe, DecodeError};
pub use lsu::{LsuEntry, LsuMessage, LsuOp};
pub use wire::{
    decode_node, encode_node, frame_node, node_encoded_len, node_frame_is_data, node_framed_len,
    unframe_node, HlcStamp, NodeBody, NodeMsg,
};
