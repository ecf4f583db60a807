//! Shared link-state machinery: the NTU and MTU procedures (Figs. 2–3)
//! used by both PDA and MPDA.
//!
//! Per-neighbor state lives in *neighbor slots*: [`LsCore::nbrs`] is kept
//! in ascending neighbor address, and a neighbor's position is its slot.
//! Every loop over the neighbors therefore runs lowest address first —
//! the "ties to the lower address" rule of MTU steps 2–3 and the order
//! Eq. 17's successor sets are listed in.

use crate::mpda::RouterStats;
use crate::spf::{dijkstra, tree_distances};
use crate::table::TopoTable;
use mdr_net::{LinkCost, NodeId, INFINITE_COST};
use mdr_proto::{LsuEntry, LsuMessage};

/// A set of indices `0..len`, one bit each.
#[derive(Debug, Clone)]
pub(crate) struct Bits {
    words: Vec<u64>,
}

impl Bits {
    /// The empty set over `0..len`.
    pub fn new(len: usize) -> Self {
        Bits { words: vec![0; len.div_ceil(64)] }
    }

    pub fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    pub fn contains(&self, i: usize) -> bool {
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Empty the set, yielding its members in ascending order.
    pub fn drain(&mut self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter_mut().enumerate().flat_map(|(w, word)| {
            let mut bits = std::mem::take(word);
            std::iter::from_fn(move || {
                let b = bits.trailing_zeros() as usize;
                bits &= bits.wrapping_sub(1);
                (b < 64).then_some(w * 64 + b)
            })
        })
    }
}

/// `LsCore::mtu_pref` entry for a head with no preferred neighbor.
const NO_PREF: u32 = u32::MAX;

/// What a router keeps per operational neighbor `k`.
#[derive(Debug, Clone)]
pub(crate) struct Neighbor {
    /// The neighbor's address `k`.
    pub id: NodeId,
    /// Link table entry: cost `l^i_k` of the adjacent link.
    pub cost: LinkCost,
    /// Neighbor topology table `T^i_k`: the link-state communicated by
    /// `k` (a time-delayed copy of `T^k`).
    pub topo: TopoTable,
    /// Whether `D^i_jk` has been computed from `T^i_k` since the link
    /// came up. Until then the row holds the link-up seed, in which even
    /// `D^i_kk` is infinite, so the first LSU must recompute `D^i_jk`
    /// whatever it carries.
    pub dist_computed: bool,
}

/// Per-router link-state core: the five tables of §4.1.1 minus the
/// routing table (successor sets live in the PDA/MPDA wrappers, which
/// differ in how they derive them).
#[derive(Debug, Clone)]
pub(crate) struct LsCore {
    /// This router's address.
    pub id: NodeId,
    /// Network size (routers are addressed `0..n`); tables are flat
    /// vectors indexed by destination.
    pub n: usize,
    /// The operational neighbors, ascending by address. Absence means
    /// the link is down.
    pub nbrs: Vec<Neighbor>,
    /// `D^i_jk` at `[slot(k) · n + j]`: distance from `k` to each `j`
    /// per `T^i_k` (NTU step 1c).
    pub neighbor_dist: Vec<LinkCost>,
    /// Main topology table `T^i`: this router's shortest-path tree.
    pub main_topo: TopoTable,
    /// `D^i_j`: distance from `i` to each `j` per `T^i` (MTU step 7).
    pub dist: Vec<LinkCost>,
    /// Destinations `j` some `D^i_jk` of which changed bits, or lost a
    /// neighbor, since the owner last drained the set — the only `j`
    /// whose Eq. 17 successor set can have moved with them.
    pub moved: Bits,
    /// The preferred slot per head in the merged table of the last MTU
    /// (steps 2–3; [`NO_PREF`] for none, and for this router itself).
    mtu_pref: Vec<u32>,
    /// The `(slot, head)` runs of `T^i_k` an LSU wrote since the last
    /// MTU, at `slot · n + head` (heads `< n` only: no other is merged).
    written: Bits,
    /// An adjacent link came up, went down or changed cost since the
    /// last MTU, so its merged table cannot be assumed unchanged.
    adjacency_moved: bool,
    /// MTU invocations (complexity accounting).
    mtu_runs: u64,
    /// MTUs whose merged table moved, so that step 6 ran Dijkstra.
    mtu_dijkstras: u64,
    /// NTUs that found `T^i_k` a tree and walked it.
    ntu_tree_walks: u64,
    /// NTUs that ran Dijkstra over `T^i_k`.
    ntu_dijkstras: u64,
    /// Nodes settled, summed over the MTU and NTU Dijkstras.
    spf_settled: u64,
}

impl LsCore {
    pub fn new(id: NodeId, n: usize) -> Self {
        let mut dist = vec![INFINITE_COST; n];
        if id.index() < n {
            dist[id.index()] = 0.0;
        }
        LsCore {
            id,
            n,
            nbrs: Vec::new(),
            neighbor_dist: Vec::new(),
            main_topo: TopoTable::new(),
            dist,
            moved: Bits::new(n),
            mtu_pref: vec![NO_PREF; n],
            written: Bits::new(0),
            adjacency_moved: true,
            mtu_runs: 0,
            mtu_dijkstras: 0,
            ntu_tree_walks: 0,
            ntu_dijkstras: 0,
            spf_settled: 0,
        }
    }

    /// Copy the core's work counters into `s`.
    pub fn count_into(&self, s: &mut RouterStats) {
        s.mtu_runs = self.mtu_runs;
        s.mtu_dijkstras = self.mtu_dijkstras;
        s.ntu_tree_walks = self.ntu_tree_walks;
        s.ntu_dijkstras = self.ntu_dijkstras;
        s.spf_settled = self.spf_settled;
    }

    /// The adjacency changed: MTU must run whole, and the `written`
    /// index follows the new slots.
    fn adjacency_changed(&mut self) {
        self.adjacency_moved = true;
        self.written = Bits::new(self.nbrs.len() * self.n);
    }

    /// Slot of neighbor `k`, or where it would be inserted.
    fn find(&self, k: NodeId) -> Result<usize, usize> {
        self.nbrs.binary_search_by_key(&k, |nb| nb.id)
    }

    /// Slot of `k` if it is an operational neighbor.
    pub fn slot(&self, k: NodeId) -> Option<usize> {
        self.find(k).ok()
    }

    /// `D^i_jk` for every `j`, for the neighbor in `slot`.
    pub fn dist_row(&self, slot: usize) -> &[LinkCost] {
        &self.neighbor_dist[slot * self.n..(slot + 1) * self.n]
    }

    /// True if `k` is an operational neighbor.
    pub fn is_neighbor(&self, k: NodeId) -> bool {
        self.find(k).is_ok()
    }

    /// Cost `l^i_k` of the adjacent link to `k` (None if down).
    pub fn link_cost(&self, k: NodeId) -> Option<LinkCost> {
        self.slot(k).map(|s| self.nbrs[s].cost)
    }

    /// NTU step 1: apply a received LSU to `T^i_k` and refresh `D^i_jk`.
    /// An LSU without entries (a pure ACK) leaves `T^i_k`, and so
    /// `D^i_jk`, as they are — except the first one after link-up.
    ///
    /// `T^i_k` is normally `k`'s shortest-path tree, so `D^i_jk` comes
    /// from one walk down it ([`tree_distances`]); Dijkstra runs only
    /// when a node has two in-links (a full-table sync over a table
    /// that was never cleared can leave one). Every `j` whose `D^i_jk`
    /// changed bits joins [`Self::moved`], and every head the LSU wrote
    /// joins `written`.
    pub fn process_lsu(&mut self, from: NodeId, msg: &LsuMessage) {
        let Some(s) = self.slot(from) else { return };
        let n = self.n;
        let nb = &mut self.nbrs[s];
        if msg.entries.is_empty() && nb.dist_computed {
            return;
        }
        nb.topo.apply_message(msg);
        nb.dist_computed = true;
        for e in msg.entries.iter().filter(|e| e.head.index() < n) {
            self.written.insert(s * n + e.head.index());
        }
        let dist = match tree_distances(n, &nb.topo, from) {
            Some(dist) => {
                self.ntu_tree_walks += 1;
                dist
            }
            None => {
                self.ntu_dijkstras += 1;
                let spf = dijkstra(n, &nb.topo, from);
                self.spf_settled += spf.settled as u64;
                spf.dist
            }
        };
        let row = &mut self.neighbor_dist[s * n..(s + 1) * n];
        for (j, (old, new)) in row.iter_mut().zip(dist).enumerate() {
            if old.to_bits() != new.to_bits() {
                *old = new;
                self.moved.insert(j);
            }
        }
    }

    /// NTU step 2: adjacent link to `k` came up with cost `cost`. A new
    /// slot's `D^i_jk` row is all [`INFINITE_COST`], which Eq. 17
    /// admits for no `j`, so no destination moves.
    pub fn link_up(&mut self, k: NodeId, cost: LinkCost) {
        match self.find(k) {
            Ok(s) => self.nbrs[s].cost = cost,
            Err(s) => {
                let fresh = Neighbor { id: k, cost, topo: TopoTable::new(), dist_computed: false };
                self.nbrs.insert(s, fresh);
                let seed = std::iter::repeat_n(INFINITE_COST, self.n);
                self.neighbor_dist.splice(s * self.n..s * self.n, seed);
            }
        }
        self.adjacency_changed();
    }

    /// NTU step 3: adjacent link cost changed.
    pub fn link_cost_change(&mut self, k: NodeId, cost: LinkCost) {
        if let Some(s) = self.slot(k) {
            self.nbrs[s].cost = cost;
            self.adjacency_changed();
        }
    }

    /// NTU step 4: adjacent link failed — "Update `l^i_k` and clear the
    /// table `T^i_k`". `k` leaves every successor set, so every
    /// destination moves.
    pub fn link_down(&mut self, k: NodeId) {
        if let Some(s) = self.slot(k) {
            self.nbrs.remove(s);
            self.neighbor_dist.drain(s * self.n..(s + 1) * self.n);
            for j in 0..self.n {
                self.moved.insert(j);
            }
            self.adjacency_changed();
        }
    }

    /// `D^i_jk` — distance from neighbor `k` to destination `j` as
    /// reported by `k` ([`INFINITE_COST`] when unknown).
    #[inline]
    pub fn neighbor_distance(&self, k: NodeId, j: NodeId) -> LinkCost {
        self.slot(k).map_or(INFINITE_COST, |s| self.dist_row(s)[j.index()])
    }

    /// MTU (Fig. 3): merge neighbor topologies and adjacent links into a
    /// new shortest-path tree; update `T^i` and `D^i_j`. Returns the LSU
    /// entries describing the difference from the previous `T^i`
    /// (step 8) — empty when nothing changed — and the distances `D^i_j`
    /// it replaced.
    ///
    /// The merged table is a function of the preferred slot per head,
    /// those slots' runs, and the adjacent links. When none of them
    /// moved since the last MTU, steps 4–8 would rebuild the same table,
    /// tree and distances, so they are skipped: the diff is empty and
    /// the distances replaced are the current ones.
    pub fn mtu(&mut self) -> (Vec<LsuEntry>, Vec<LinkCost>) {
        self.mtu_runs += 1;
        let n = self.n;

        // Steps 2-3: for each known node j, find the preferred neighbor
        // p minimizing D^i_jp + l^i_p (ties to the lower address: slots
        // ascend by address and a later slot must be strictly better).
        let mut best: Vec<Option<(LinkCost, usize)>> = vec![None; self.n];
        for (s, nb) in self.nbrs.iter().enumerate() {
            for (b, &d) in best.iter_mut().zip(self.dist_row(s)) {
                if d >= INFINITE_COST {
                    continue;
                }
                let total = d + nb.cost;
                match *b {
                    Some((least, _)) if total >= least => {}
                    _ => *b = Some((total, s)),
                }
            }
        }
        let me = self.id.index();
        let pref: Vec<u32> = (best.iter().enumerate())
            .map(|(j, b)| match *b {
                Some((_, s)) if j != me => s as u32,
                _ => NO_PREF,
            })
            .collect();
        let rewritten =
            |(j, &p): (usize, &u32)| p != NO_PREF && self.written.contains(p as usize * n + j);
        let unmoved = !self.adjacency_moved
            && pref == self.mtu_pref
            && !pref.iter().enumerate().any(rewritten);
        self.written.clear();
        if unmoved {
            return (Vec::new(), self.dist.clone());
        }
        self.mtu_dijkstras += 1;
        self.adjacency_moved = false;
        self.mtu_pref = pref;
        // Step 4: copy links with head j from the preferred neighbor's
        // topology. Step 5: this router's own links are the adjacent
        // ones, whatever neighbors said about them. Heads ascend, each
        // run ascends by tail, so `merged` is built in table order.
        let mut merged = Vec::new();
        for (j, &p) in self.mtu_pref.iter().enumerate() {
            let j = NodeId(j as u32);
            if j == self.id {
                merged.extend(self.nbrs.iter().map(|nb| (j, nb.id, nb.cost)));
            } else if p != NO_PREF {
                merged.extend_from_slice(self.nbrs[p as usize].topo.run(j));
            }
        }
        let merged = TopoTable::from_sorted(merged);
        // Step 6: Dijkstra, keep only tree links. Step 7: new distances.
        let spf = dijkstra(self.n, &merged, self.id);
        self.spf_settled += spf.settled as u64;
        let old_topo = std::mem::replace(&mut self.main_topo, spf.tree_links(&merged));
        let old_dist = std::mem::replace(&mut self.dist, spf.dist);
        // Step 8: differences to report.
        (old_topo.diff(&self.main_topo), old_dist)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn mtu_with_no_neighbors_is_empty() {
        let mut c = LsCore::new(n(0), 3);
        let (diff, _) = c.mtu();
        assert!(diff.is_empty());
        assert_eq!(c.dist[0], 0.0);
        assert_eq!(c.dist[1], INFINITE_COST);
    }

    #[test]
    fn mtu_includes_adjacent_links() {
        let mut c = LsCore::new(n(0), 3);
        c.link_up(n(1), 2.0);
        let (diff, _) = c.mtu();
        assert_eq!(diff.len(), 1);
        assert_eq!(c.main_topo.cost(n(0), n(1)), Some(2.0));
        assert_eq!(c.dist[1], 2.0);
    }

    #[test]
    fn mtu_merges_neighbor_tree() {
        let mut c = LsCore::new(n(0), 3);
        c.link_up(n(1), 1.0);
        // Neighbor 1 reports its tree: 1 -> 2 cost 1.
        let msg = LsuMessage::update(n(1), vec![LsuEntry::add(n(1), n(2), 1.0)]);
        c.process_lsu(n(1), &msg);
        assert_eq!(c.neighbor_distance(n(1), n(2)), 1.0);
        c.mtu();
        assert_eq!(c.dist[2], 2.0);
        assert_eq!(c.main_topo.cost(n(1), n(2)), Some(1.0));
    }

    #[test]
    fn conflict_resolved_by_preferred_neighbor() {
        // Node 3's outgoing links are reported differently by neighbors
        // 1 and 2; the router must believe the neighbor closest to 3.
        let mut c = LsCore::new(n(0), 5);
        c.link_up(n(1), 1.0);
        c.link_up(n(2), 1.0);
        // Via neighbor 1: 1->3 cost 1 (so 3 is at distance 2), 3->4 cost 5.
        c.process_lsu(
            n(1),
            &LsuMessage::update(
                n(1),
                vec![LsuEntry::add(n(1), n(3), 1.0), LsuEntry::add(n(3), n(4), 5.0)],
            ),
        );
        // Via neighbor 2: 2->3 cost 9 (3 at distance 10), 3->4 cost 1.
        c.process_lsu(
            n(2),
            &LsuMessage::update(
                n(2),
                vec![LsuEntry::add(n(2), n(3), 9.0), LsuEntry::add(n(3), n(4), 1.0)],
            ),
        );
        c.mtu();
        // Preferred neighbor for head 3 is 1 (distance 1+1=2 < 1+9=10),
        // so link 3->4 must carry neighbor 1's cost 5.
        assert_eq!(c.dist[3], 2.0);
        assert_eq!(c.dist[4], 7.0);
    }

    #[test]
    fn own_links_override_neighbor_claims() {
        let mut c = LsCore::new(n(0), 3);
        c.link_up(n(1), 1.0);
        // Neighbor claims our adjacent link has cost 100.
        c.process_lsu(n(1), &LsuMessage::update(n(1), vec![LsuEntry::add(n(0), n(1), 100.0)]));
        c.mtu();
        assert_eq!(c.main_topo.cost(n(0), n(1)), Some(1.0));
    }

    #[test]
    fn link_down_clears_neighbor_state() {
        let mut c = LsCore::new(n(0), 3);
        c.link_up(n(1), 1.0);
        c.process_lsu(n(1), &LsuMessage::update(n(1), vec![LsuEntry::add(n(1), n(2), 1.0)]));
        c.mtu();
        assert_eq!(c.dist[2], 2.0);
        c.link_down(n(1));
        let (diff, _) = c.mtu();
        assert!(!diff.is_empty());
        assert_eq!(c.dist[1], INFINITE_COST);
        assert_eq!(c.dist[2], INFINITE_COST);
        assert!(!c.is_neighbor(n(1)));
    }

    #[test]
    fn cost_change_propagates_to_distances() {
        let mut c = LsCore::new(n(0), 2);
        c.link_up(n(1), 1.0);
        c.mtu();
        assert_eq!(c.dist[1], 1.0);
        c.link_cost_change(n(1), 4.0);
        let (diff, _) = c.mtu();
        assert_eq!(c.dist[1], 4.0);
        assert_eq!(diff.len(), 1);
    }

    #[test]
    fn mtu_idempotent_when_nothing_changes() {
        let mut c = LsCore::new(n(0), 3);
        c.link_up(n(1), 1.0);
        assert!(!c.mtu().0.is_empty());
        assert!(c.mtu().0.is_empty());
        assert!(c.mtu().0.is_empty());
        assert_eq!((c.mtu_runs, c.mtu_dijkstras), (3, 1), "the merged table never moved");
        c.link_cost_change(n(1), 1.0);
        assert!(c.mtu().0.is_empty());
        assert_eq!(c.mtu_dijkstras, 2, "an adjacent-link event always runs MTU whole");
    }

    #[test]
    fn bits_drain_ascending() {
        let mut b = Bits::new(130);
        for i in [129, 3, 64, 0] {
            b.insert(i);
        }
        assert!(b.contains(64) && !b.contains(65));
        assert_eq!(b.drain().collect::<Vec<_>>(), vec![0, 3, 64, 129]);
        assert_eq!(b.drain().count(), 0);
        b.insert(7);
        b.clear();
        assert_eq!(b.drain().count(), 0);
    }

    #[test]
    fn non_tree_adjacent_link_pruned_from_report() {
        // Triangle where the direct link 0->2 is worse than 0->1->2: the
        // main topology (a shortest-path tree) must omit 0->2.
        let mut c = LsCore::new(n(0), 3);
        c.link_up(n(1), 1.0);
        c.link_up(n(2), 10.0);
        c.process_lsu(n(1), &LsuMessage::update(n(1), vec![LsuEntry::add(n(1), n(2), 1.0)]));
        c.mtu();
        assert_eq!(c.dist[2], 2.0);
        assert_eq!(c.main_topo.cost(n(0), n(2)), None);
        assert_eq!(c.main_topo.cost(n(0), n(1)), Some(1.0));
    }
}
