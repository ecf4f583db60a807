//! Topology tables.
//!
//! "The main topology table, `T^i`, stores the characteristics of each
//! link known to router `i`. Each entry in `T^i` is a triplet `[h, t, d]`
//! where `h` is the head, `t` is the tail and `d` is the cost of the link
//! `h → t`." (§4.1.1). Neighbor tables `T^i_k` have the same shape.
//!
//! Stored as one contiguous vector sorted by `(head, tail)`, so iteration
//! order — and therefore every diff, merge, and Dijkstra run — is
//! deterministic, a head's links are one slice, and a table costs one
//! allocation. Nothing is ever sized by a node id: entries arrive from
//! the wire, and an id of `u32::MAX` is just another sort key.

use mdr_net::{LinkCost, NodeId};
use mdr_proto::{LsuEntry, LsuMessage, LsuOp};
use std::cmp::Ordering;

/// One stored `[h, t, d]` triplet.
pub(crate) type Link = (NodeId, NodeId, LinkCost);

/// A set of directed links with costs: the `[h, t, d]` triplet store.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TopoTable {
    /// Ascending by `(head, tail)`, one entry per pair.
    links: Vec<Link>,
}

impl TopoTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// A table over `links`, which must already ascend strictly by
    /// `(head, tail)`.
    pub(crate) fn from_sorted(links: Vec<Link>) -> Self {
        debug_assert!(links.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
        TopoTable { links }
    }

    /// The stored links, ascending by `(head, tail)`.
    pub(crate) fn as_slice(&self) -> &[Link] {
        &self.links
    }

    /// Position of `head → tail`, or where it would be inserted.
    fn find(&self, head: NodeId, tail: NodeId) -> Result<usize, usize> {
        self.links.binary_search_by_key(&(head, tail), |&(h, t, _)| (h, t))
    }

    /// Insert or replace a link; returns the cost it replaced, if any.
    pub fn insert(&mut self, head: NodeId, tail: NodeId, cost: LinkCost) -> Option<LinkCost> {
        // Full-table syncs and topology scans arrive in key order.
        if self.links.last().is_none_or(|&(h, t, _)| (h, t) < (head, tail)) {
            self.links.push((head, tail, cost));
            return None;
        }
        match self.find(head, tail) {
            Ok(at) => Some(std::mem::replace(&mut self.links[at].2, cost)),
            Err(at) => {
                self.links.insert(at, (head, tail, cost));
                None
            }
        }
    }

    /// Remove a link; returns its old cost if present.
    pub fn remove(&mut self, head: NodeId, tail: NodeId) -> Option<LinkCost> {
        self.find(head, tail).ok().map(|at| self.links.remove(at).2)
    }

    /// Cost of link `head → tail`, if known.
    pub fn cost(&self, head: NodeId, tail: NodeId) -> Option<LinkCost> {
        self.find(head, tail).ok().map(|at| self.links[at].2)
    }

    /// Number of links.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// True if no links are stored.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Remove all links.
    pub fn clear(&mut self) {
        self.links.clear();
    }

    /// Iterate `(head, tail, cost)` in `(head, tail)` order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, NodeId, LinkCost)> + '_ {
        self.links.iter().copied()
    }

    /// The stored links whose head is `h`, in tail order.
    pub(crate) fn run(&self, h: NodeId) -> &[Link] {
        let rest = &self.links[self.links.partition_point(|l| l.0 < h)..];
        &rest[..rest.iter().take_while(|l| l.0 == h).count()]
    }

    /// Links whose head is `h`, in tail order.
    pub fn links_from(&self, h: NodeId) -> impl Iterator<Item = (NodeId, LinkCost)> + '_ {
        self.run(h).iter().map(|&(_, t, c)| (t, c))
    }

    /// Apply one LSU entry (NTU step 1a: "add links, delete links or
    /// change links according to the specification of each entry").
    /// `Add` and `Change` are deliberately interchangeable on receive —
    /// robustness against reordered joins. Returns the cost the entry
    /// replaced or deleted, if the link was present.
    pub fn apply_entry(&mut self, e: &LsuEntry) -> Option<LinkCost> {
        match e.op {
            LsuOp::Add | LsuOp::Change => self.insert(e.head, e.tail, e.cost),
            LsuOp::Delete => self.remove(e.head, e.tail),
        }
    }

    /// Apply a whole LSU message.
    pub fn apply_message(&mut self, msg: &LsuMessage) {
        for e in &msg.entries {
            self.apply_entry(e);
        }
    }

    /// Compute the LSU entries that transform `self` into `new` (MTU
    /// step 8 / PDA step 3: "Compose an LSU message consisting of
    /// topology differences using add, delete and change link entries"):
    /// adds and changes in `(head, tail)` order, then deletes likewise.
    pub fn diff(&self, new: &TopoTable) -> Vec<LsuEntry> {
        let (old, new) = (&self.links, &new.links);
        let mut out = Vec::new();
        let mut deletes = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < old.len() || j < new.len() {
            let order = match (old.get(i), new.get(j)) {
                (Some(o), Some(n)) => (o.0, o.1).cmp(&(n.0, n.1)),
                (Some(_), None) => Ordering::Less,
                (None, _) => Ordering::Greater,
            };
            match order {
                Ordering::Less => {
                    deletes.push(LsuEntry::delete(old[i].0, old[i].1));
                    i += 1;
                }
                Ordering::Greater => {
                    out.push(LsuEntry::add(new[j].0, new[j].1, new[j].2));
                    j += 1;
                }
                Ordering::Equal => {
                    #[expect(
                        clippy::float_cmp,
                        reason = "change detector: a Change entry for any new cost"
                    )]
                    if old[i].2 != new[j].2 {
                        out.push(LsuEntry::change(new[j].0, new[j].1, new[j].2));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        out.append(&mut deletes);
        out
    }

    /// Entries describing the full table (sent to a neighbor whose link
    /// just came up — NTU step 2).
    pub fn full_entries(&self) -> Vec<LsuEntry> {
        self.iter().map(|(h, t, c)| LsuEntry::add(h, t, c)).collect()
    }

    /// All node ids appearing as a head or tail.
    pub fn nodes(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = Vec::new();
        for (h, t, _) in self.iter() {
            v.push(h);
            v.push(t);
        }
        v.sort_unstable();
        v.dedup();
        v
    }
}

impl FromIterator<(NodeId, NodeId, LinkCost)> for TopoTable {
    /// Later items replace earlier ones with the same `(head, tail)`.
    fn from_iter<I: IntoIterator<Item = (NodeId, NodeId, LinkCost)>>(iter: I) -> Self {
        let mut links: Vec<Link> = iter.into_iter().collect();
        links.sort_by_key(|&(h, t, _)| (h, t)); // stable: equal keys keep arrival order
        links.dedup_by(|later, kept| {
            let same = (later.0, later.1) == (kept.0, kept.1);
            if same {
                kept.2 = later.2;
            }
            same
        });
        TopoTable { links }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn insert_lookup_remove() {
        let mut t = TopoTable::new();
        t.insert(n(0), n(1), 2.0);
        assert_eq!(t.cost(n(0), n(1)), Some(2.0));
        assert_eq!(t.cost(n(1), n(0)), None);
        assert_eq!(t.remove(n(0), n(1)), Some(2.0));
        assert!(t.is_empty());
    }

    #[test]
    fn links_from_selects_head() {
        let t: TopoTable =
            [(n(0), n(1), 1.0), (n(0), n(2), 2.0), (n(1), n(2), 3.0)].into_iter().collect();
        let from0: Vec<_> = t.links_from(n(0)).collect();
        assert_eq!(from0, vec![(n(1), 1.0), (n(2), 2.0)]);
        let from2: Vec<_> = t.links_from(n(2)).collect();
        assert!(from2.is_empty());
    }

    #[test]
    fn diff_produces_minimal_entries() {
        let old: TopoTable =
            [(n(0), n(1), 1.0), (n(0), n(2), 2.0), (n(1), n(2), 3.0)].into_iter().collect();
        let new: TopoTable =
            [(n(0), n(1), 1.0), (n(0), n(2), 9.0), (n(2), n(3), 4.0)].into_iter().collect();
        let d = old.diff(&new);
        assert_eq!(d.len(), 3);
        assert!(d.contains(&LsuEntry::change(n(0), n(2), 9.0)));
        assert!(d.contains(&LsuEntry::add(n(2), n(3), 4.0)));
        assert!(d.contains(&LsuEntry::delete(n(1), n(2))));
    }

    #[test]
    fn diff_then_apply_reproduces_table() {
        let old: TopoTable = [(n(0), n(1), 1.0), (n(1), n(2), 3.0)].into_iter().collect();
        let new: TopoTable = [(n(0), n(1), 5.0), (n(2), n(0), 1.0)].into_iter().collect();
        let entries = old.diff(&new);
        let mut rebuilt = old.clone();
        for e in &entries {
            rebuilt.apply_entry(e);
        }
        assert_eq!(rebuilt, new);
    }

    #[test]
    fn empty_diff_for_identical_tables() {
        let t: TopoTable = [(n(0), n(1), 1.0)].into_iter().collect();
        assert!(t.diff(&t.clone()).is_empty());
    }

    #[test]
    fn full_entries_roundtrip() {
        let t: TopoTable = [(n(0), n(1), 1.0), (n(1), n(2), 3.0)].into_iter().collect();
        let mut fresh = TopoTable::new();
        for e in t.full_entries() {
            fresh.apply_entry(&e);
        }
        assert_eq!(fresh, t);
    }

    #[test]
    fn nodes_deduplicated_sorted() {
        let t: TopoTable = [(n(2), n(1), 1.0), (n(1), n(2), 3.0)].into_iter().collect();
        assert_eq!(t.nodes(), vec![n(1), n(2)]);
    }

    #[test]
    fn apply_add_acts_as_change_when_present() {
        let mut t: TopoTable = [(n(0), n(1), 1.0)].into_iter().collect();
        t.apply_entry(&LsuEntry::add(n(0), n(1), 7.0));
        assert_eq!(t.cost(n(0), n(1)), Some(7.0));
    }

    #[test]
    fn from_iter_sorts_and_keeps_the_last_of_equal_keys() {
        let t: TopoTable =
            [(n(2), n(0), 1.0), (n(0), n(1), 2.0), (n(2), n(0), 3.0), (n(0), n(1), 4.0)]
                .into_iter()
                .collect();
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![(n(0), n(1), 4.0), (n(2), n(0), 3.0)]);
    }

    #[test]
    fn diff_orders_adds_and_changes_before_deletes() {
        let old: TopoTable =
            [(n(0), n(1), 1.0), (n(1), n(2), 3.0), (n(3), n(0), 1.0)].into_iter().collect();
        let new: TopoTable =
            [(n(0), n(2), 1.0), (n(1), n(2), 4.0), (n(4), n(0), 1.0)].into_iter().collect();
        assert_eq!(
            old.diff(&new),
            vec![
                LsuEntry::add(n(0), n(2), 1.0),
                LsuEntry::change(n(1), n(2), 4.0),
                LsuEntry::add(n(4), n(0), 1.0),
                LsuEntry::delete(n(0), n(1)),
                LsuEntry::delete(n(3), n(0)),
            ]
        );
    }

    /// Ids come off the wire: `u32::MAX` must be a key like any other —
    /// stored in one slot, found, diffed and deleted — never an index.
    #[test]
    fn out_of_range_ids_are_plain_keys() {
        let far = n(u32::MAX);
        let mut t = TopoTable::new();
        for e in [
            LsuEntry::add(far, far, 1.0),
            LsuEntry::add(n(0), far, 2.0),
            LsuEntry::add(far, n(0), 3.0),
            LsuEntry::add(n(0), n(1), 4.0),
        ] {
            t.apply_entry(&e);
        }
        assert_eq!(t.len(), 4);
        assert!(t.links.capacity() < 64, "sized by id, not by count");
        assert_eq!(t.cost(far, far), Some(1.0));
        assert_eq!(t.links_from(far).collect::<Vec<_>>(), vec![(n(0), 3.0), (far, 1.0)]);
        assert_eq!(t.links_from(n(0)).collect::<Vec<_>>(), vec![(n(1), 4.0), (far, 2.0)]);
        assert_eq!(TopoTable::new().diff(&t).len(), 4);
        // Dijkstra sees only the link inside 0..n.
        let with = crate::spf::dijkstra(3, &t, n(0));
        let without = crate::spf::dijkstra(3, &[(n(0), n(1), 4.0)].into_iter().collect(), n(0));
        assert_eq!(with, without);
        assert!(with.tree_links(&t).iter().eq([(n(0), n(1), 4.0)]));
        t.apply_entry(&LsuEntry::delete(far, far));
        assert_eq!(t.cost(far, far), None);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn delete_missing_is_noop() {
        let mut t = TopoTable::new();
        t.apply_entry(&LsuEntry::delete(n(0), n(1)));
        assert!(t.is_empty());
    }
}
