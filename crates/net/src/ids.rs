//! Identifier newtypes for routers and directed links.
//!
//! The paper breaks ties "in favor of the neighbor with the lowest
//! address" (procedure MTU, Fig. 3), so node identifiers carry a total
//! order that every algorithm in the workspace respects.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// A router (node) identifier.
///
/// Nodes are dense small integers `0..n`, which lets routing tables be
/// flat vectors indexed by destination. The numeric value is also the
/// router's "address" used for deterministic tie-breaking.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index form for vector-indexed tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<usize> for NodeId {
    fn from(v: usize) -> Self {
        NodeId(v as u32)
    }
}

/// A *directed* link identifier: an index into [`crate::Topology`]'s link
/// table. A bidirectional physical link is two `LinkId`s, one per
/// direction, which may carry different costs (§2.1: "Each link is
/// bidirectional with possibly different costs in each direction").
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LinkId(pub u32);

impl LinkId {
    /// Index form for vector-indexed tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

// The orders are written out rather than derived because a derived
// `PartialOrd` calls `partial_cmp`, a method the workspace lints deny.
impl Ord for NodeId {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.cmp(&other.0)
    }
}

impl PartialOrd for NodeId {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for LinkId {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.cmp(&other.0)
    }
}

impl PartialOrd for LinkId {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_orders_by_address() {
        assert!(NodeId(1) < NodeId(2));
        assert_eq!(NodeId(7).index(), 7);
        assert_eq!(NodeId::from(3usize), NodeId(3));
        assert_eq!(NodeId::from(3u32), NodeId(3));
    }

    #[test]
    fn display_forms() {
        assert_eq!(format!("{}", NodeId(4)), "4");
        assert_eq!(format!("{:?}", NodeId(4)), "n4");
        assert_eq!(format!("{}", LinkId(9)), "9");
        assert_eq!(format!("{:?}", LinkId(9)), "l9");
    }

    #[test]
    fn link_id_index() {
        assert_eq!(LinkId(12).index(), 12);
        assert!(LinkId(0) < LinkId(1));
    }
}
