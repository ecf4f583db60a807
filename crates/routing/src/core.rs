//! Shared link-state machinery: the NTU and MTU procedures (Figs. 2–3)
//! used by both PDA and MPDA.
//!
//! Per-neighbor state lives in *neighbor slots*: [`LsCore::nbrs`] is kept
//! in ascending neighbor address, and a neighbor's position is its slot.
//! Every loop over the neighbors therefore runs lowest address first —
//! the "ties to the lower address" rule of MTU steps 2–3 and the order
//! Eq. 17's successor sets are listed in.
//!
//! Both procedures repair what an event moved instead of recomputing
//! whole tables. NTU recomputes `D^i_jk` only below the tails an LSU
//! wrote, by the walk [`tree_distances`] does; MTU re-picks preferred
//! neighbors only for heads whose `D^i_jk` moved, reads the merged table
//! in place from the preferred runs, and repairs its shortest-path tree
//! from the heads whose merged runs changed. Each repair runs only under
//! premises that make it equal to the whole computation bit for bit;
//! outside them it falls back to [`tree_distances`]/[`dijkstra`], which
//! stay the one reference.

use crate::mpda::RouterStats;
use crate::spf::{dijkstra, tree_distances, HeapEntry, NO_PARENT};
use crate::table::{Link, TopoTable};
use mdr_net::{LinkCost, NodeId, INFINITE_COST};
use mdr_proto::{LsuEntry, LsuMessage, LsuOp};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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

/// What an MTU returns: the LSU entries of step 8, and each `(j, D^i_j)`
/// it replaced with other bits, ascending by `j`.
type MtuOut = (Vec<LsuEntry>, Vec<(usize, LinkCost)>);

/// `LsCore::mtu_pref` entry for a head with no preferred neighbor.
const NO_PREF: u32 = u32::MAX;
/// `Neighbor::inlink` entry for a tail with no in-link.
const NO_LINK: u32 = u32::MAX;
/// `Neighbor::inlink` entry for a tail with two or more in-links.
const MANY_LINKS: u32 = u32::MAX - 1;

/// NTU walks `T^i_k` whole when an LSU wrote more tails than
/// `max(n / 16, 16)`. The patch finds each node's run by a binary search
/// where the whole walk indexes it, so when most of the tree moves the
/// walk is the cheaper (BA-400 cold-start flood: NTU 280 ms with this
/// bound, 331–357 ms patching every LSU, 316 ms walking every one).
fn patch_bound(n: usize) -> usize {
    (n / 16).max(16)
}

/// A cost outside `(0, INFINITE_COST)`: zero, negative, NaN or too large.
fn odd(c: LinkCost) -> bool {
    !(c > 0.0 && c < INFINITE_COST)
}

/// Tree-walk distance of a node whose one in-link has cost `c` and whose
/// parent is at `d`, as [`tree_distances`] gives it: reached iff the
/// parent is and `d + c ≤ INFINITE_COST`. Exact for `c` in
/// `(0, INFINITE_COST)`, where a parent at `INFINITE_COST` — reached
/// there or not — leaves its child at `INFINITE_COST` either way.
fn walk_step(d: LinkCost, c: LinkCost) -> LinkCost {
    let nd = d + c;
    if d < INFINITE_COST && nd <= INFINITE_COST {
        nd
    } else {
        INFINITE_COST
    }
}

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
    /// In-link index of `T^i_k`: for each tail `t < n`, the head `h < n`
    /// of its one link `h → t`, [`NO_LINK`] or [`MANY_LINKS`]. Derived
    /// from `topo` alone.
    inlink: Vec<u32>,
    /// Tails whose `inlink` entry is [`MANY_LINKS`].
    many: u32,
    /// Links `h → t` with `h, t < n` whose cost is [`odd`].
    odd: u32,
}

impl Neighbor {
    fn new(id: NodeId, cost: LinkCost, n: usize) -> Self {
        let inlink = vec![NO_LINK; n];
        Neighbor { id, cost, topo: TopoTable::new(), dist_computed: false, inlink, many: 0, odd: 0 }
    }

    /// NTU step 1a for one entry, keeping the in-link index current.
    fn apply(&mut self, e: &LsuEntry, n: usize) {
        let old = self.topo.apply_entry(e);
        let (h, t) = (e.head.0, e.tail.index());
        if e.head.index() >= n || t >= n {
            return;
        }
        let kept = e.op != LsuOp::Delete;
        self.odd -= u32::from(old.is_some_and(odd));
        self.odd += u32::from(kept && odd(e.cost));
        match (old.is_some(), kept) {
            (false, true) => {
                self.inlink[t] = match self.inlink[t] {
                    NO_LINK => h,
                    MANY_LINKS => MANY_LINKS,
                    _ => {
                        self.many += 1;
                        MANY_LINKS
                    }
                };
            }
            (true, false) if self.inlink[t] == MANY_LINKS => {
                // Rare (a stale link left by a sync): count what is left.
                let links = self.topo.as_slice().iter().take_while(|l| l.0.index() < n);
                let mut heads = links.filter(|l| l.1.index() == t).map(|l| l.0 .0);
                if let (Some(only), None) = (heads.next(), heads.next()) {
                    self.inlink[t] = only;
                    self.many -= 1;
                }
            }
            (true, false) => self.inlink[t] = NO_LINK,
            _ => {}
        }
    }

    /// True if no tail below `n` other than the root `k` has two in-links
    /// and no link below `n` has an [`odd`] cost.
    fn is_plain_tree(&self, n: usize) -> bool {
        let root_many = self.id.index() < n && self.inlink[self.id.index()] == MANY_LINKS;
        self.odd == 0 && self.many == u32::from(root_many)
    }
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
    /// MTU's shortest-path parent of each `j` ([`NO_PARENT`] for this
    /// router and unreached nodes): `T^i` holds `parent[j] → j`.
    parent: Vec<u32>,
    /// Destinations `j` some `D^i_jk` of which changed bits, or lost a
    /// neighbor, since the owner last drained the set — the only `j`
    /// whose Eq. 17 successor set can have moved with them.
    pub moved: Bits,
    /// The heads `j` some `D^i_jk` of which changed bits since the last
    /// MTU: the only ones whose preferred slot can have moved.
    pref_dirty: Bits,
    /// The preferred slot per head in the merged table of the last MTU
    /// (steps 2–3; [`NO_PREF`] for none, and for this router itself).
    mtu_pref: Vec<u32>,
    /// The `(slot, head)` runs of `T^i_k` an LSU wrote since the last
    /// MTU, at `slot · n + head` (heads `< n` only: no other is merged).
    written: Bits,
    /// An adjacent link came up or went down since the last MTU: the
    /// slots moved, so MTU runs whole.
    adjacency_moved: bool,
    /// An adjacent link changed cost since the last MTU: every preferred
    /// slot and this router's own run may have moved.
    costs_moved: bool,
    /// The kept `(dist, parent)` obey the local rule a repair relies on
    /// (see [`Repair`]); set by each whole MTU, kept by each repair.
    repairable: bool,
    /// MTU invocations (complexity accounting).
    mtu_runs: u64,
    /// MTUs that ran whole: Dijkstra over a copied merged table.
    mtu_dijkstras: u64,
    /// MTUs that repaired the kept tree in place.
    mtu_repairs: u64,
    /// Repairs abandoned on an addition outside the premises; each then
    /// ran whole.
    mtu_aborts: u64,
    /// NTUs that recomputed `D^i_jk` only below the written tails.
    ntu_patches: u64,
    /// NTUs that found `T^i_k` a tree and walked all of it.
    ntu_tree_walks: u64,
    /// NTUs that ran Dijkstra over `T^i_k`.
    ntu_dijkstras: u64,
    /// Nodes settled, summed over the whole MTU and NTU Dijkstras.
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
            parent: vec![NO_PARENT; n],
            moved: Bits::new(n),
            pref_dirty: Bits::new(n),
            mtu_pref: vec![NO_PREF; n],
            written: Bits::new(0),
            adjacency_moved: true,
            costs_moved: false,
            repairable: false,
            mtu_runs: 0,
            mtu_dijkstras: 0,
            mtu_repairs: 0,
            mtu_aborts: 0,
            ntu_patches: 0,
            ntu_tree_walks: 0,
            ntu_dijkstras: 0,
            spf_settled: 0,
        }
    }

    /// Copy the core's work counters into `s`.
    pub fn count_into(&self, s: &mut RouterStats) {
        s.mtu_runs = self.mtu_runs;
        s.mtu_dijkstras = self.mtu_dijkstras;
        s.mtu_repairs = self.mtu_repairs;
        s.mtu_aborts = self.mtu_aborts;
        s.ntu_patches = self.ntu_patches;
        s.ntu_tree_walks = self.ntu_tree_walks;
        s.ntu_dijkstras = self.ntu_dijkstras;
        s.spf_settled = self.spf_settled;
    }

    /// An adjacent link came up or went down: MTU must run whole, and
    /// the `written` index follows the new slots.
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
    /// `T^i_k` is normally `k`'s shortest-path tree, so `D^i_jk` changes
    /// only below the tails the LSU wrote ([`Self::ntu_patch`]). The
    /// first LSU after link-up, and a table outside the patch's premises,
    /// take one whole walk down the tree ([`tree_distances`]); Dijkstra
    /// runs only when a node has two in-links (a full-table sync over a
    /// table that was never cleared can leave one). Every `j` whose
    /// `D^i_jk` changed bits joins [`Self::moved`], and every head the
    /// LSU wrote joins `written`.
    pub fn process_lsu(&mut self, from: NodeId, msg: &LsuMessage) {
        let Some(s) = self.slot(from) else { return };
        let n = self.n;
        let nb = &mut self.nbrs[s];
        if msg.entries.is_empty() && nb.dist_computed {
            return;
        }
        let mut tails = Vec::new();
        for e in &msg.entries {
            nb.apply(e, n);
            if e.head.index() < n {
                self.written.insert(s * n + e.head.index());
                if e.tail.index() < n && e.tail != from {
                    tails.push(e.tail.0);
                }
            }
        }
        if std::mem::replace(&mut nb.dist_computed, true) && self.ntu_patch(s, &mut tails) {
            self.ntu_patches += 1;
            return;
        }
        let nb = &self.nbrs[s];
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
        for (j, new) in dist.into_iter().enumerate() {
            self.set_neighbor_dist(s, j, new);
        }
    }

    /// Write `D^i_jk` for the neighbor in slot `s`, marking `j` moved if
    /// its bits changed.
    fn set_neighbor_dist(&mut self, s: usize, j: usize, d: LinkCost) {
        let old = &mut self.neighbor_dist[s * self.n + j];
        if old.to_bits() != d.to_bits() {
            *old = d;
            self.moved.insert(j);
            self.pref_dirty.insert(j);
        }
    }

    /// NTU by repair: recompute the row of slot `s` only below `tails`,
    /// the tails `t < n` (other than the root `k`) of the links the LSU
    /// wrote, which is where `T^i_k`'s in-links can have moved. Returns
    /// false, having changed nothing, outside the premises — `k < n`,
    /// `T^i_k` a tree below `n` ([`Neighbor::is_plain_tree`]) and no
    /// cycle through a written tail — or when [`patch_bound`] says a
    /// whole walk is cheaper.
    ///
    /// The row holds [`tree_distances`] of the table before the LSU, and
    /// a node's distance is a function of its parent's and its in-link
    /// alone ([`walk_step`]). So the nodes that can move are the written
    /// tails and their descendants: walking down from each written tail
    /// that has no written ancestor, with the additions the whole walk
    /// makes, gives the whole walk's row.
    fn ntu_patch(&mut self, s: usize, tails: &mut Vec<u32>) -> bool {
        let n = self.n;
        let nb = &self.nbrs[s];
        let root = nb.id.index();
        tails.sort_unstable();
        tails.dedup();
        if root >= n || !nb.is_plain_tree(n) || tails.len() > patch_bound(n) {
            return false;
        }
        let mut starts = Vec::new();
        for &t in tails.iter() {
            // Up to the root or a node with no in-link; a walk that
            // returns to `t` or outlasts `n` steps is in a cycle.
            let (mut u, mut steps, mut covered) = (nb.inlink[t as usize], 0, false);
            while u != NO_LINK && u as usize != root {
                if u == t || steps == n {
                    return false;
                }
                covered |= tails.binary_search(&u).is_ok();
                u = nb.inlink[u as usize];
                steps += 1;
            }
            if !covered {
                starts.push(t as usize);
            }
        }
        let mut stack = Vec::new();
        for t in starts {
            let nb = &self.nbrs[s];
            let d = match nb.inlink[t] {
                NO_LINK => INFINITE_COST,
                p => {
                    let c = nb.topo.cost(NodeId(p), NodeId(t as u32));
                    debug_assert!(c.is_some(), "in-link {p} → {t} indexed but absent");
                    walk_step(self.neighbor_dist[s * n + p as usize], c.unwrap_or(INFINITE_COST))
                }
            };
            stack.push((t, d));
            while let Some((v, d)) = stack.pop() {
                self.set_neighbor_dist(s, v, d);
                let below = self.nbrs[s].topo.run(NodeId(v as u32));
                for &(_, w, c) in below.iter().filter(|l| l.1.index() < n && l.1.index() != root) {
                    stack.push((w.index(), walk_step(d, c)));
                }
            }
        }
        true
    }

    /// NTU step 2: adjacent link to `k` came up with cost `cost`. A new
    /// slot's `D^i_jk` row is all [`INFINITE_COST`], which Eq. 17
    /// admits for no `j`, so no destination moves.
    pub fn link_up(&mut self, k: NodeId, cost: LinkCost) {
        match self.find(k) {
            Ok(_) => self.link_cost_change(k, cost),
            Err(s) => {
                self.nbrs.insert(s, Neighbor::new(k, cost, self.n));
                let seed = std::iter::repeat_n(INFINITE_COST, self.n);
                self.neighbor_dist.splice(s * self.n..s * self.n, seed);
                self.adjacency_changed();
            }
        }
    }

    /// NTU step 3: adjacent link cost changed.
    pub fn link_cost_change(&mut self, k: NodeId, cost: LinkCost) {
        if let Some(s) = self.slot(k) {
            let old = std::mem::replace(&mut self.nbrs[s].cost, cost);
            self.costs_moved |= old.to_bits() != cost.to_bits();
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

    /// MTU steps 2–3 for head `j`: the preferred slot, minimizing
    /// `D^i_jp + l^i_p` (ties to the lower address: slots ascend by
    /// address and a later slot must be strictly better).
    fn preferred(&self, j: usize) -> u32 {
        let mut best: Option<(LinkCost, usize)> = None;
        for (s, nb) in self.nbrs.iter().enumerate() {
            let d = self.neighbor_dist[s * self.n + j];
            if d >= INFINITE_COST {
                continue;
            }
            let total = d + nb.cost;
            match best {
                Some((least, _)) if total >= least => {}
                _ => best = Some((total, s)),
            }
        }
        match best {
            Some((_, s)) if j != self.id.index() => s as u32,
            _ => NO_PREF,
        }
    }

    /// MTU (Fig. 3): merge neighbor topologies and adjacent links into a
    /// new shortest-path tree; update `T^i` and `D^i_j`. Returns the LSU
    /// entries describing the difference from the previous `T^i`
    /// (step 8) — empty when nothing changed — and each `(j, D^i_j)` it
    /// replaced with other bits, ascending by `j`.
    ///
    /// The merged table is a function of the preferred slot per head,
    /// those slots' runs, and the adjacent links. Only the heads whose
    /// preferred slot or merged run moved are looked at: when there are
    /// none, steps 4–8 would rebuild the same table, tree and distances
    /// and are skipped; otherwise [`Repair`] mends the kept tree from
    /// them. An adjacent link that came up or went down, or a kept state
    /// outside the repair's premises, runs the whole procedure.
    pub fn mtu(&mut self) -> MtuOut {
        self.mtu_runs += 1;
        if !self.adjacency_moved {
            let heads = self.changed_heads();
            if heads.is_empty() {
                return (Vec::new(), Vec::new());
            }
            if self.repairable && self.nbrs.iter().all(|nb| nb.many == 0) {
                if let Some((diff, moved)) = Repair::new(self).run(&heads) {
                    self.mtu_repairs += 1;
                    for e in &diff {
                        self.main_topo.apply_entry(e);
                    }
                    return (diff, moved);
                }
                self.mtu_aborts += 1;
            }
        }
        self.mtu_whole()
    }

    /// Steps 2–3 for the heads that can have moved, keeping `mtu_pref`:
    /// the heads, ascending, whose preferred slot changed or whose
    /// preferred run an LSU wrote, plus this router when an adjacent
    /// cost moved (its run is the adjacent links).
    fn changed_heads(&mut self) -> Vec<usize> {
        let n = self.n;
        let mut heads = Vec::new();
        let all = std::mem::replace(&mut self.costs_moved, false);
        let mut dirty = std::mem::replace(&mut self.pref_dirty, Bits::new(0));
        let mut repick = |core: &mut Self, j: usize| {
            let p = core.preferred(j);
            if std::mem::replace(&mut core.mtu_pref[j], p) != p {
                heads.push(j);
            }
        };
        if all {
            dirty.clear();
            (0..n).for_each(|j| repick(self, j));
            heads.push(self.id.index());
        } else {
            dirty.drain().for_each(|j| repick(self, j));
        }
        self.pref_dirty = dirty;
        for at in self.written.drain() {
            let (s, j) = (at / n, at % n);
            if self.mtu_pref[j] == s as u32 {
                heads.push(j);
            }
        }
        heads.sort_unstable();
        heads.dedup();
        heads
    }

    /// MTU steps 2–8 over a copied merged table: the reference every
    /// repair equals.
    fn mtu_whole(&mut self) -> MtuOut {
        self.mtu_dijkstras += 1;
        self.adjacency_moved = false;
        self.costs_moved = false;
        self.pref_dirty.clear();
        self.written.clear();
        for j in 0..self.n {
            self.mtu_pref[j] = self.preferred(j);
        }
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
        self.repairable = self.id.index() < self.n && obeys_local_rule(&merged, &spf.dist, self.id);
        for (p, sp) in self.parent.iter_mut().zip(&spf.parent) {
            *p = sp.map_or(NO_PARENT, |u| u.0);
        }
        let old_topo = std::mem::replace(&mut self.main_topo, spf.tree_links(&merged));
        let moved = (self.dist.iter_mut().zip(spf.dist).enumerate())
            .filter(|(_, (old, new))| old.to_bits() != new.to_bits())
            .map(|(j, (old, new))| (j, std::mem::replace(old, new)))
            .collect();
        // Step 8: differences to report.
        (old_topo.diff(&self.main_topo), moved)
    }
}

/// Whether Dijkstra's `dist` over `merged` from `root` is what a repair
/// can reproduce: every link `u → v` (`u, v < n`, `v ≠ root`) out of a
/// reached `u` adds strictly, and not onto [`INFINITE_COST`]. Then each
/// reached node's parent is the lowest address among those that reach
/// its distance, and its distance is below [`INFINITE_COST`].
fn obeys_local_rule(merged: &TopoTable, dist: &[LinkCost], root: NodeId) -> bool {
    let n = dist.len();
    merged.iter().filter(|&(u, v, _)| u.index() < n && v.index() < n && v != root).all(
        |(u, _, c)| {
            let d = dist[u.index()];
            d >= INFINITE_COST || extend(d, c).is_ok()
        },
    )
}

/// A repair that met an addition outside its premises.
struct Abort;

/// `d + c` for a reached `d`, under the repair's premises: the sum must
/// exceed `d` and must not be [`INFINITE_COST`] (a node reached there
/// looks unreached), or the repair aborts; `None` when the sum is past
/// [`INFINITE_COST`], so the link reaches nothing, as in Dijkstra.
fn extend(d: LinkCost, c: LinkCost) -> Result<Option<LinkCost>, Abort> {
    let nd = d + c;
    if nd.is_nan() || nd <= d || nd.to_bits() == INFINITE_COST.to_bits() {
        return Err(Abort);
    }
    Ok((nd < INFINITE_COST).then_some(nd))
}

/// One MTU repair of the kept shortest-path tree (steps 4–8 for the heads
/// whose merged run moved), after Ramalingam & Reps: the tails a changed
/// run no longer supports at their distance lose their subtree, which is
/// re-seeded from its remaining in-links; improvements relax forward; a
/// Dijkstra over the touched nodes settles both.
///
/// **Why it is exact.** With every addition strictly increasing and below
/// [`INFINITE_COST`] ([`extend`]), `Spf::run`'s `(dist, parent, node)`
/// heap order gives each reached node `v` the least `dist[u] + c` over
/// its in-links from reached `u`, and as parent the lowest address `u`
/// reaching it: a local rule, which the repair restores wherever an
/// input moved, with the same additions. A node's merged in-links are
/// found in `O(degree)`: `u → v` is merged iff `u`'s preferred slot `k`
/// holds it, and in a tree `T^i_k` that is `u = inlink_k[v]`; plus the
/// adjacent link. An addition outside the premises aborts the repair,
/// restoring what it changed, and MTU runs whole.
struct Repair<'a> {
    n: usize,
    me: usize,
    nbrs: &'a [Neighbor],
    pref: &'a [u32],
    tree: &'a TopoTable,
    dist: &'a mut [LinkCost],
    parent: &'a mut [u32],
    /// Each node the repair touched, with its `(dist, parent)` before.
    log: Vec<(usize, LinkCost, u32)>,
    logged: Bits,
    /// Nodes whose tree link no longer supports them, and their subtrees.
    affected: Bits,
    heap: BinaryHeap<Reverse<HeapEntry>>,
}

impl<'a> Repair<'a> {
    fn new(core: &'a mut LsCore) -> Self {
        Repair {
            n: core.n,
            me: core.id.index(),
            nbrs: &core.nbrs,
            pref: &core.mtu_pref,
            tree: &core.main_topo,
            dist: &mut core.dist,
            parent: &mut core.parent,
            log: Vec::new(),
            logged: Bits::new(core.n),
            affected: Bits::new(core.n),
            heap: BinaryHeap::new(),
        }
    }

    /// The merged table's links out of `u`, ascending by tail: the
    /// adjacent links for this router, else `u`'s preferred run.
    fn out_links(&self, u: usize) -> impl Iterator<Item = (usize, LinkCost)> + 'a {
        let nbrs: &'a [Neighbor] = self.nbrs;
        let adjacent = if u == self.me { nbrs } else { &[] };
        let run: &'a [Link] = match self.pref[u] {
            NO_PREF => &[],
            p => nbrs[p as usize].topo.run(NodeId(u as u32)),
        };
        let adjacent = adjacent.iter().map(|nb| (nb.id.index(), nb.cost));
        adjacent.chain(run.iter().map(|&(_, t, c)| (t.index(), c)))
    }

    /// The merged table's links into `v ≠ me`, as `(head, cost)`.
    fn in_links(&self, v: usize) -> impl Iterator<Item = (usize, LinkCost)> + 'a {
        let (nbrs, pref, me): (&'a [Neighbor], &'a [u32], usize) = (self.nbrs, self.pref, self.me);
        let key = NodeId(v as u32);
        let adjacent = nbrs.binary_search_by_key(&key, |nb| nb.id).ok().map(|s| (me, nbrs[s].cost));
        let runs = nbrs.iter().enumerate().filter_map(move |(k, nb)| {
            let u = nb.inlink[v];
            if u == NO_LINK || u as usize == me || pref[u as usize] != k as u32 {
                return None;
            }
            nb.topo.cost(NodeId(u), key).map(|c| (u as usize, c))
        });
        adjacent.into_iter().chain(runs)
    }

    /// The merged cost of tree link `u → v`.
    fn merged_cost(&self, u: usize, v: usize) -> Option<LinkCost> {
        self.out_links(u).find(|&(t, _)| t == v).map(|(_, c)| c)
    }

    /// Log `v`'s `(dist, parent)` before its first change.
    fn touch(&mut self, v: usize) {
        if !self.logged.contains(v) {
            self.logged.insert(v);
            self.log.push((v, self.dist[v], self.parent[v]));
        }
    }

    /// Offer `v` the distance `d` through `u`; take it, and queue `v`,
    /// if `(d, u)` precedes `v`'s current `(dist, parent)`.
    fn offer(&mut self, v: usize, d: LinkCost, u: usize) {
        let (dv, pv) = (self.dist[v], self.parent[v]);
        if d < dv || (d.to_bits() == dv.to_bits() && (u as u32) < pv) {
            self.touch(v);
            self.dist[v] = d;
            self.parent[v] = u as u32;
            self.heap.push(Reverse(HeapEntry::new(d, u as u32, v as u32)));
        }
    }

    /// Offer each of `u`'s merged out-links to its tail.
    fn relax(&mut self, u: usize) -> Result<(), Abort> {
        let d = self.dist[u];
        for (v, c) in self.out_links(u) {
            if v < self.n && v != self.me && !self.affected.contains(v) {
                if let Some(nd) = extend(d, c)? {
                    self.offer(v, nd, u);
                }
            }
        }
        Ok(())
    }

    /// Repair from `heads` (ascending); `None`, with every change undone,
    /// on [`Abort`].
    fn run(mut self, heads: &[usize]) -> Option<MtuOut> {
        match self.mend(heads) {
            Ok(()) => Some(self.finish()),
            Err(Abort) => {
                for &(v, d, p) in &self.log {
                    self.dist[v] = d;
                    self.parent[v] = p;
                }
                None
            }
        }
    }

    fn mend(&mut self, heads: &[usize]) -> Result<(), Abort> {
        let tree: &'a TopoTable = self.tree;
        // Tree links out of a changed head that no longer give their
        // tail its distance: gone, dearer, or past INFINITE_COST.
        let mut lost = Vec::new();
        for &j in heads {
            let mut new = self.out_links(j).peekable();
            for &(_, v, was) in tree.run(NodeId(j as u32)) {
                let v = v.index();
                while new.next_if(|&(t, _)| t < v).is_some() {}
                let Some((_, c)) = new.next_if(|&(t, _)| t == v) else {
                    lost.push(v);
                    continue;
                };
                match extend(self.dist[j], c)? {
                    Some(d) if d.to_bits() == self.dist[v].to_bits() => {
                        if c.to_bits() != was.to_bits() {
                            self.touch(v); // same distance, new link cost
                        }
                    }
                    Some(d) if d < self.dist[v] => {} // an improvement, offered below
                    _ => lost.push(v),
                }
            }
        }
        // The subtrees below: unreached until re-seeded.
        let mut below = Vec::new();
        while let Some(a) = lost.pop() {
            if self.affected.contains(a) {
                continue;
            }
            self.affected.insert(a);
            self.touch(a);
            self.dist[a] = INFINITE_COST;
            self.parent[a] = NO_PARENT;
            below.push(a);
            lost.extend(tree.run(NodeId(a as u32)).iter().map(|l| l.1.index()));
        }
        // Improvements through the changed runs.
        for &j in heads {
            if !self.affected.contains(j) && self.dist[j] < INFINITE_COST {
                self.relax(j)?;
            }
        }
        // Re-seed each affected node from its unaffected in-links.
        for &a in &below {
            let mut best: Option<(LinkCost, usize)> = None;
            for (u, c) in self.in_links(a) {
                if self.affected.contains(u) || self.dist[u] >= INFINITE_COST {
                    continue;
                }
                if let Some(d) = extend(self.dist[u], c)? {
                    if best.is_none_or(|(bd, bu)| d < bd || (d.to_bits() == bd.to_bits() && u < bu))
                    {
                        best = Some((d, u));
                    }
                }
            }
            if let Some((d, u)) = best {
                self.touch(a);
                self.dist[a] = d;
                self.parent[a] = u as u32;
                self.heap.push(Reverse(HeapEntry::new(d, u as u32, a as u32)));
            }
        }
        self.affected.clear();
        // Settle in Dijkstra's order; an entry its node has since left
        // behind is stale.
        while let Some(Reverse(top)) = self.heap.pop() {
            let v = top.node();
            if top.dist().to_bits() == self.dist[v].to_bits() && top.parent() == self.parent[v] {
                self.relax(v)?;
            }
        }
        Ok(())
    }

    /// Step 8 for the touched nodes — the entries `old_tree.diff(new_tree)`
    /// gives, which the caller applies to `T^i` — and the distances moved.
    fn finish(mut self) -> MtuOut {
        let mut log = std::mem::take(&mut self.log);
        log.sort_unstable_by_key(|&(v, _, _)| v);
        let (mut diff, mut deletes, mut moved) = (Vec::new(), Vec::new(), Vec::new());
        for &(v, d, was) in &log {
            if d.to_bits() != self.dist[v].to_bits() {
                moved.push((v, d));
            }
            let tail = NodeId(v as u32);
            let (was, now) = (Some(NodeId(was)), Some(NodeId(self.parent[v])));
            let (old, new) = (was.filter(|h| h.0 != NO_PARENT), now.filter(|p| p.0 != NO_PARENT));
            let cost = |p: NodeId| self.merged_cost(p.index(), v);
            match (old, new) {
                (Some(h), Some(p)) if h == p => {
                    let was = self.tree.cost(h, tail);
                    if let Some(c) =
                        cost(p).filter(|c| was.is_none_or(|o| o.to_bits() != c.to_bits()))
                    {
                        diff.push(LsuEntry::change(p, tail, c));
                    }
                }
                _ => {
                    deletes.extend(old.map(|h| LsuEntry::delete(h, tail)));
                    diff.extend(new.and_then(|p| Some(LsuEntry::add(p, tail, cost(p)?))));
                }
            }
        }
        let key = |e: &LsuEntry| (e.head, e.tail);
        diff.sort_unstable_by_key(key);
        deletes.sort_unstable_by_key(key);
        diff.append(&mut deletes);
        (diff, moved)
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
        assert_eq!(
            (c.mtu_dijkstras, c.mtu_repairs),
            (1, 0),
            "a cost that did not move is no change"
        );
        c.link_cost_change(n(1), 2.0);
        assert_eq!(c.mtu().0, vec![LsuEntry::change(n(0), n(1), 2.0)]);
        assert_eq!((c.mtu_dijkstras, c.mtu_repairs), (1, 1), "a cost change is repaired");
        c.link_up(n(2), 1.0);
        assert_eq!(c.mtu().0, vec![LsuEntry::add(n(0), n(2), 1.0)]);
        assert_eq!(c.mtu_dijkstras, 2, "a link that came up runs MTU whole");
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
