//! Congestion-component partitioning of fair-share problems.
//!
//! Two flows can influence each other's max–min allocation only if they
//! are connected through a chain of shared **finite-capacity** links:
//! progressive filling moves capacity between flows exclusively across
//! links both sides cross. Links with infinite problem capacity
//! ([`crate::topology::Sharing::PerFlow`] links enter the solver as ∞;
//! see `Network::scratch_problem`) never saturate and never freeze
//! anybody, so they do not couple flows at all. The *congestion
//! components* of a problem are therefore the connected components of
//! the bipartite flow↔finite-link membership graph, and the solver may
//! treat every component as an independent sub-problem
//! ([`crate::soa`] holds the component-wise kernels).
//!
//! [`Components`] decomposes one problem from scratch (the `fairshare`
//! entry points and the test oracles); [`LiveComponents`] is what the
//! engine keeps across boundaries, so that a boundary re-solves only
//! the components whose inputs changed (DESIGN.md §10).
//!
//! Everything here is deterministic by construction: member lists are
//! ascending and nothing depends on hash iteration order.

/// Union–find (disjoint-set forest) over `u32` elements with
/// path-halving finds. Unions attach the larger root under the smaller,
/// so representatives are the minimum element of each set — stable and
/// insertion-order-independent.
#[derive(Debug, Clone, Default)]
pub struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    /// An empty structure; call [`UnionFind::reset`] to size it.
    pub fn new() -> Self {
        UnionFind::default()
    }

    /// Re-initialises to `n` singleton elements, reusing the allocation.
    pub fn reset(&mut self, n: usize) {
        self.parent.clear();
        self.parent.extend(0..n as u32);
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True when sized to zero elements.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Re-singletonises one element (used by local splits that only
    /// reset the elements they are about to re-union).
    pub fn isolate(&mut self, x: u32) {
        self.parent[x as usize] = x;
    }

    /// Representative (minimum element) of `x`'s set.
    pub fn find(&mut self, mut x: u32) -> u32 {
        loop {
            let p = self.parent[x as usize];
            if p == x {
                return x;
            }
            // Path halving: point x at its grandparent.
            let gp = self.parent[p as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
    }

    /// Merges the sets of `a` and `b`; returns true if they were
    /// distinct.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return false;
        }
        let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
        self.parent[hi as usize] = lo;
        true
    }
}

/// The congestion components of one fair-share problem, in a dense
/// struct-of-arrays layout ready for the component-wise solver.
///
/// Components are ordered by their smallest member flow; flow and link
/// member lists are each ascending. Indices are in *problem space*:
/// flows `0..n_flows`, links `0..n_links` of whatever problem the
/// builder was handed (the `fairshare` wrappers use their dense finite
/// subset).
#[derive(Debug, Clone, Default)]
pub struct Components {
    /// Flow members grouped by component (ascending within each).
    pub flows: Vec<u32>,
    /// Half-open component extents into `flows` (`len = count + 1`).
    pub flow_starts: Vec<u32>,
    /// Link members grouped by component (ascending within each). Links
    /// crossed by no flow belong to no component and are absent.
    pub links: Vec<u32>,
    /// Half-open component extents into `links` (`len = count + 1`).
    pub link_starts: Vec<u32>,
    /// Component of each flow.
    pub comp_of_flow: Vec<u32>,
    /// Root element → component id + 1 (0 = none). Scratch for the
    /// extraction passes, reused across builds.
    map: Vec<u32>,
    /// Cursor scratch for the counting sorts.
    cursor: Vec<u32>,
}

impl Components {
    /// Number of components.
    pub fn count(&self) -> usize {
        self.flow_starts.len().saturating_sub(1)
    }

    /// Flow members of component `c`, ascending.
    pub fn comp_flows(&self, c: usize) -> &[u32] {
        &self.flows[self.flow_starts[c] as usize..self.flow_starts[c + 1] as usize]
    }

    /// Link members of component `c`, ascending.
    pub fn comp_links(&self, c: usize) -> &[u32] {
        &self.links[self.link_starts[c] as usize..self.link_starts[c + 1] as usize]
    }

    /// Builds the decomposition of a CSR problem: flow `f` crosses the
    /// links `flow_links[flow_off[f]..flow_off[f + 1]]`. `uf` is scratch
    /// (reset here). Element layout inside: links first (`0..n_links`),
    /// then flows (`n_links..n_links + n_flows`) — links first so their
    /// element ids are stable as flows are appended.
    pub fn build_csr(
        &mut self,
        n_flows: usize,
        n_links: usize,
        flow_off: &[u32],
        flow_links: &[u32],
        uf: &mut UnionFind,
    ) {
        debug_assert_eq!(flow_off.len(), n_flows + 1);
        uf.reset(n_links + n_flows);
        for f in 0..n_flows {
            let fe = (n_links + f) as u32;
            for &l in &flow_links[flow_off[f] as usize..flow_off[f + 1] as usize] {
                uf.union(fe, l);
            }
        }
        self.map.clear();
        self.map.resize(uf.len(), 0);
        // Pass 1: number components in order of first (i.e. smallest)
        // member flow.
        self.comp_of_flow.clear();
        let mut count = 0u32;
        for k in 0..n_flows {
            let r = uf.find((n_links + k) as u32) as usize;
            if self.map[r] == 0 {
                count += 1;
                self.map[r] = count;
            }
            self.comp_of_flow.push(self.map[r] - 1);
        }
        // Pass 2: counting-sort flows into component groups (ascending
        // order is preserved because we scan flows ascending).
        self.flow_starts.clear();
        self.flow_starts.resize(count as usize + 1, 0);
        for &c in &self.comp_of_flow {
            self.flow_starts[c as usize + 1] += 1;
        }
        for c in 0..count as usize {
            self.flow_starts[c + 1] += self.flow_starts[c];
        }
        self.cursor.clear();
        self.cursor
            .extend_from_slice(&self.flow_starts[..count as usize]);
        self.flows.clear();
        self.flows.resize(n_flows, 0);
        for (k, &c) in self.comp_of_flow.iter().enumerate() {
            self.flows[self.cursor[c as usize] as usize] = k as u32;
            self.cursor[c as usize] += 1;
        }
        // Pass 3: the same for links; a link whose root holds no flow is
        // crossed by no flow and is dropped.
        self.link_starts.clear();
        self.link_starts.resize(count as usize + 1, 0);
        let mut kept = 0u32;
        for s in 0..n_links {
            let r = uf.find(s as u32) as usize;
            if self.map[r] != 0 {
                self.link_starts[self.map[r] as usize] += 1;
                kept += 1;
            }
        }
        for c in 0..count as usize {
            self.link_starts[c + 1] += self.link_starts[c];
        }
        self.cursor.clear();
        self.cursor
            .extend_from_slice(&self.link_starts[..count as usize]);
        self.links.clear();
        self.links.resize(kept as usize, 0);
        for s in 0..n_links {
            let r = uf.find(s as u32) as usize;
            let m = self.map[r];
            if m != 0 {
                let c = (m - 1) as usize;
                self.links[self.cursor[c] as usize] = s as u32;
                self.cursor[c] += 1;
            }
        }
    }
}

/// Marker for "in no component" in [`LiveComponents`]' per-flow and
/// per-link tables.
pub const NO_COMP: u32 = u32::MAX;

/// One persistent component: members by **stable id** (flow id, link
/// id), each list ascending — the order [`crate::soa::solve_component`]
/// requires.
#[derive(Debug, Clone, Default)]
struct LiveComp {
    /// Member flows; may still list departed flows while `departed`.
    flows: Vec<u32>,
    links: Vec<u32>,
    /// Some solver input of this component moved since its last solve.
    dirty: bool,
    /// A member flow left; membership is re-derived at the next solve.
    departed: bool,
}

/// The engine's congestion components, maintained **persistently**
/// across boundaries over stable flow and link ids.
///
/// * Flow **arrival** is a union: the flow joins (and thereby merges)
///   the components of its capacity-shared links.
/// * Flow **departure** cannot be expressed as a union; it flags the
///   flow's own component, and [`LiveComponents::begin_solve`]
///   re-derives *that component only* from its surviving members (a
///   local split) — lazily, so a burst of simultaneous completions
///   costs one pass per touched component.
/// * Every membership change, and every [`LiveComponents::mark_dirty_flow`]
///   / [`LiveComponents::mark_dirty_link`], dirties exactly the owning
///   component; the solver re-runs on dirty components and leaves the
///   rest alone.
///
/// After `begin_solve` the live components are, as sets, exactly the
/// connected components [`Components::build_csr`] computes from scratch
/// over the live membership (the partitioner property suite pins this).
#[derive(Debug, Clone)]
pub struct LiveComponents {
    comps: Vec<LiveComp>,
    /// Recycled slots of `comps`.
    free: Vec<u32>,
    /// Flow id → component, [`NO_COMP`] before arrival / after departure.
    comp_of_flow: Vec<u32>,
    /// Link id → component, [`NO_COMP`] while no member flow crosses it.
    comp_of_link: Vec<u32>,
    /// Components flagged dirty since the last solve (may name a slot
    /// twice or one since freed; `begin_solve` canonicalises).
    dirty: Vec<u32>,
    /// Split scratch: union–find over link ids, and list buffers.
    uf: UnionFind,
    tmp_flows: Vec<u32>,
    tmp_links: Vec<u32>,
}

impl LiveComponents {
    /// No flows yet, over a topology with `n_links` links.
    pub fn new(n_links: usize) -> Self {
        let mut uf = UnionFind::new();
        uf.reset(n_links);
        LiveComponents {
            comps: Vec::new(),
            free: Vec::new(),
            comp_of_flow: Vec::new(),
            comp_of_link: vec![NO_COMP; n_links],
            dirty: Vec::new(),
            uf,
            tmp_flows: Vec::new(),
            tmp_links: Vec::new(),
        }
    }

    /// Live components. Exact once [`LiveComponents::begin_solve`] has
    /// repaired pending departures.
    pub fn count(&self) -> usize {
        self.comps.len() - self.free.len()
    }

    /// Component of flow `f`, or [`NO_COMP`] if it is not a member.
    pub fn comp_of_flow(&self, f: u32) -> u32 {
        self.comp_of_flow[f as usize]
    }

    /// Flow members of component `c`, ascending.
    pub fn flows(&self, c: u32) -> &[u32] {
        &self.comps[c as usize].flows
    }

    /// Link members of component `c`, ascending.
    pub fn links(&self, c: u32) -> &[u32] {
        &self.comps[c as usize].links
    }

    fn mark_dirty(&mut self, c: u32) {
        let comp = &mut self.comps[c as usize];
        if !comp.dirty {
            comp.dirty = true;
            self.dirty.push(c);
        }
    }

    /// A solver input of member flow `f` (its cap) moved.
    pub fn mark_dirty_flow(&mut self, f: u32) {
        self.mark_dirty(self.comp_of_flow[f as usize]);
    }

    /// Link `l`'s capacity moved; a no-op while no member crosses it.
    pub fn mark_dirty_link(&mut self, l: u32) {
        let c = self.comp_of_link[l as usize];
        if c != NO_COMP {
            self.mark_dirty(c);
        }
    }

    /// Dirties every live component (their rates came from elsewhere).
    pub fn mark_all_dirty(&mut self) {
        for c in 0..self.comps.len() as u32 {
            if !self.comps[c as usize].flows.is_empty() {
                self.mark_dirty(c);
            }
        }
    }

    fn alloc(&mut self) -> u32 {
        self.free.pop().unwrap_or_else(|| {
            self.comps.push(LiveComp::default());
            // Room to free every slot: departures then never allocate.
            self.free.reserve(self.comps.len());
            self.comps.len() as u32 - 1
        })
    }

    /// Folds arriving flow `f` in; `links` are the capacity-shared link
    /// ids of its route. Flow ids must arrive in ascending order (the
    /// engine's are allocation-ordered), which keeps member lists
    /// sorted by appending.
    pub fn arrive(&mut self, f: u32, links: &[u32]) {
        let mut target = NO_COMP;
        for &l in links {
            let c = self.comp_of_link[l as usize];
            if c != NO_COMP && c != target {
                target = if target == NO_COMP {
                    c
                } else {
                    self.merge(target, c)
                };
            }
        }
        if target == NO_COMP {
            target = self.alloc();
        }
        let comp = &mut self.comps[target as usize];
        for &l in links {
            if self.comp_of_link[l as usize] == NO_COMP {
                self.comp_of_link[l as usize] = target;
                let at = comp.links.partition_point(|&m| m < l);
                comp.links.insert(at, l);
            }
        }
        debug_assert!(comp.flows.last().is_none_or(|&last| last < f));
        comp.flows.push(f);
        if self.comp_of_flow.len() <= f as usize {
            self.comp_of_flow.resize(f as usize + 1, NO_COMP);
        }
        self.comp_of_flow[f as usize] = target;
        self.mark_dirty(target);
    }

    /// Absorbs the smaller of `a`, `b` into the larger; returns the
    /// survivor.
    fn merge(&mut self, a: u32, b: u32) -> u32 {
        let (keep, gone) = if self.flows(a).len() >= self.flows(b).len() {
            (a, b)
        } else {
            (b, a)
        };
        let g = std::mem::take(&mut self.comps[gone as usize]);
        for &f in &g.flows {
            // Departed members stay unowned; the repair drops them.
            if self.comp_of_flow[f as usize] == gone {
                self.comp_of_flow[f as usize] = keep;
            }
        }
        for &l in &g.links {
            self.comp_of_link[l as usize] = keep;
        }
        let k = &mut self.comps[keep as usize];
        k.flows.extend_from_slice(&g.flows);
        k.flows.sort_unstable();
        k.links.extend_from_slice(&g.links);
        k.links.sort_unstable();
        k.departed |= g.departed;
        self.free.push(gone);
        keep
    }

    /// Notes that member flow `f` completed or was cancelled.
    pub fn depart(&mut self, f: u32) {
        let c = std::mem::replace(&mut self.comp_of_flow[f as usize], NO_COMP);
        self.comps[c as usize].departed = true;
        self.mark_dirty(c);
    }

    /// Repairs every component a flow departed from, then fixes the set
    /// of components to re-solve: [`LiveComponents::dirty`] lists each
    /// once until [`LiveComponents::end_solve`]. Flow `f`'s capacity
    /// links are `flow_links[flow_off[f]..flow_off[f + 1]]`. Returns how
    /// many components were repaired.
    pub fn begin_solve(&mut self, flow_off: &[u32], flow_links: &[u32]) -> usize {
        let mut repaired = 0;
        let mut k = 0;
        // Splits append their (clean-membership) products to `dirty`.
        while k < self.dirty.len() {
            let c = self.dirty[k];
            if self.comps[c as usize].departed {
                self.repair(c, flow_off, flow_links);
                repaired += 1;
            }
            k += 1;
        }
        let comps = &mut self.comps;
        self.dirty
            .retain(|&c| std::mem::take(&mut comps[c as usize].dirty));
        repaired
    }

    /// The components to re-solve, between `begin_solve` and `end_solve`.
    pub fn dirty(&self) -> &[u32] {
        &self.dirty
    }

    /// The dirty components have been solved.
    pub fn end_solve(&mut self) {
        self.dirty.clear();
    }

    /// Re-derives component `c` from its surviving members: drops the
    /// departed flows and the links nobody crosses any more, and splits
    /// what remains into its connected pieces (the piece holding the
    /// smallest flow keeps id `c`; the others get new, dirty slots).
    fn repair(&mut self, c: u32, flow_off: &[u32], flow_links: &[u32]) {
        let comp_of_flow = &self.comp_of_flow;
        let comp = &mut self.comps[c as usize];
        comp.departed = false;
        comp.flows.retain(|&f| comp_of_flow[f as usize] == c);
        if comp.flows.is_empty() {
            for l in comp.links.drain(..) {
                self.comp_of_link[l as usize] = NO_COMP;
            }
            comp.dirty = false;
            self.free.push(c);
            return;
        }
        if comp.links.len() <= 1 {
            return; // every survivor still crosses the one shared link
        }
        let links_of =
            |f: u32| &flow_links[flow_off[f as usize] as usize..flow_off[f as usize + 1] as usize];
        let mut flows = std::mem::take(&mut self.tmp_flows);
        let mut links = std::mem::take(&mut self.tmp_links);
        std::mem::swap(&mut flows, &mut comp.flows);
        std::mem::swap(&mut links, &mut comp.links);
        for &l in &links {
            self.comp_of_link[l as usize] = NO_COMP;
            self.uf.isolate(l);
        }
        for &f in &flows {
            let ls = links_of(f);
            for &l in ls {
                self.uf.union(ls[0], l);
            }
        }
        // Pieces are numbered at their root link; ascending scans keep
        // every member list sorted.
        for &f in &flows {
            let r = self.uf.find(links_of(f)[0]) as usize;
            if self.comp_of_link[r] == NO_COMP {
                let piece = if self.comps[c as usize].flows.is_empty() {
                    c
                } else {
                    self.alloc()
                };
                self.comp_of_link[r] = piece;
                self.mark_dirty(piece);
            }
            let piece = self.comp_of_link[r];
            self.comps[piece as usize].flows.push(f);
            self.comp_of_flow[f as usize] = piece;
        }
        for &l in &links {
            // A root no survivor reaches kept NO_COMP: the link is idle.
            let piece = self.comp_of_link[self.uf.find(l) as usize];
            self.comp_of_link[l as usize] = piece;
            if piece != NO_COMP {
                self.comps[piece as usize].links.push(l);
            }
        }
        flows.clear();
        links.clear();
        self.tmp_flows = flows;
        self.tmp_links = links;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn csr(flows: &[&[u32]]) -> (Vec<u32>, Vec<u32>) {
        let mut off = vec![0u32];
        let mut links = Vec::new();
        for f in flows {
            links.extend_from_slice(f);
            off.push(links.len() as u32);
        }
        (off, links)
    }

    #[test]
    fn disjoint_flows_are_singletons() {
        let (off, links) = csr(&[&[0], &[1], &[]]);
        let mut uf = UnionFind::new();
        let mut c = Components::default();
        c.build_csr(3, 2, &off, &links, &mut uf);
        assert_eq!(c.count(), 3);
        assert_eq!(c.comp_flows(0), &[0]);
        assert_eq!(c.comp_links(0), &[0]);
        assert_eq!(c.comp_flows(2), &[2]);
        assert_eq!(c.comp_links(2), &[] as &[u32]);
    }

    #[test]
    fn shared_link_merges_flows() {
        let (off, links) = csr(&[&[0, 1], &[1, 2], &[3]]);
        let mut uf = UnionFind::new();
        let mut c = Components::default();
        c.build_csr(3, 4, &off, &links, &mut uf);
        assert_eq!(c.count(), 2);
        assert_eq!(c.comp_flows(0), &[0, 1]);
        assert_eq!(c.comp_links(0), &[0, 1, 2]);
        assert_eq!(c.comp_flows(1), &[2]);
        assert_eq!(c.comp_links(1), &[3]);
    }

    #[test]
    fn unreferenced_links_belong_to_no_component() {
        let (off, links) = csr(&[&[2]]);
        let mut uf = UnionFind::new();
        let mut c = Components::default();
        c.build_csr(1, 5, &off, &links, &mut uf);
        assert_eq!(c.count(), 1);
        assert_eq!(c.comp_links(0), &[2]);
    }

    #[test]
    fn component_order_follows_smallest_flow() {
        // Flow 0 alone on link 3; flows 1 & 2 share link 0. Components
        // must come out in flow order, not link order.
        let (off, links) = csr(&[&[3], &[0], &[0]]);
        let mut uf = UnionFind::new();
        let mut c = Components::default();
        c.build_csr(3, 4, &off, &links, &mut uf);
        assert_eq!(c.count(), 2);
        assert_eq!(c.comp_flows(0), &[0]);
        assert_eq!(c.comp_flows(1), &[1, 2]);
        assert_eq!(c.comp_of_flow, vec![0, 1, 1]);
    }

    /// Members of every live component, as `(flows, links)` sorted by
    /// smallest flow.
    fn live_sets(lc: &LiveComponents, flows: u32) -> Vec<(Vec<u32>, Vec<u32>)> {
        let mut ids: Vec<u32> = (0..flows)
            .map(|f| lc.comp_of_flow(f))
            .filter(|&c| c != NO_COMP)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        let mut out: Vec<_> = ids
            .iter()
            .map(|&c| (lc.flows(c).to_vec(), lc.links(c).to_vec()))
            .collect();
        out.sort();
        out
    }

    #[test]
    fn arrival_merges_and_departure_splits_locally() {
        // f0 on {0}, f1 on {2}, f2 bridges {0, 2}; link 3 is f3's alone.
        let (off, links) = csr(&[&[0], &[2], &[0, 2], &[3]]);
        let mut lc = LiveComponents::new(4);
        for f in 0..4u32 {
            lc.arrive(
                f,
                &links[off[f as usize] as usize..off[f as usize + 1] as usize],
            );
        }
        assert_eq!(lc.begin_solve(&off, &links), 0, "arrivals need no repair");
        assert_eq!(lc.count(), 2);
        assert_eq!(
            live_sets(&lc, 4),
            vec![(vec![0, 1, 2], vec![0, 2]), (vec![3], vec![3])]
        );
        assert_eq!(lc.dirty().len(), 2);
        lc.end_solve();

        // The bridge leaves: its component (only) splits back in two.
        lc.depart(2);
        assert_eq!(lc.begin_solve(&off, &links), 1);
        assert_eq!(lc.count(), 3);
        assert_eq!(
            live_sets(&lc, 4),
            vec![(vec![0], vec![0]), (vec![1], vec![2]), (vec![3], vec![3])]
        );
        assert_eq!(lc.dirty().len(), 2, "f3's component stayed clean");
        assert!(!lc.dirty().contains(&lc.comp_of_flow(3)));
        lc.end_solve();

        // Last member leaves: the component and its link are released.
        lc.depart(3);
        lc.begin_solve(&off, &links);
        assert_eq!(lc.count(), 2);
        assert!(lc.dirty().is_empty());
        lc.mark_dirty_link(3); // idle link: nobody to dirty
        assert_eq!(lc.begin_solve(&off, &links), 0);
        assert!(lc.dirty().is_empty());
    }
}
