//! Struct-of-arrays fair-share problems and the component-wise solver.
//!
//! The engine used to hand the solver one `Vec<AllocFlow>` per boundary
//! — a heap allocation per flow per solve, and one *global* progressive
//! filling whose round count grows with the number of distinct freeze
//! levels across the whole network (quadratic in flows for large
//! independent populations). This module replaces both:
//!
//! * [`ProblemSlab`] — the problem in CSR form: flat capacity / cap
//!   arrays plus one shared `flow_links` arena, reusable across solves
//!   with zero per-flow allocations. Only **finite**-capacity links are
//!   materialised; infinite links are arithmetically inert in
//!   progressive filling (an `∞/n` increment candidate never binds,
//!   `∞ − x` stays `∞`, and the freeze test explicitly skips them), so
//!   dropping them changes no output bit.
//! * [`solve_component`] / [`solve_component_reference`] — progressive
//!   filling restricted to one congestion component
//!   ([`crate::partition`]), streaming over dense index slices. For a
//!   single-component problem the arithmetic sequence is *identical* to
//!   the old global solver's (links ascending, flows ascending, same
//!   `EPS` freeze comparisons), which is what keeps the engine's pinned
//!   goldens stable. Components are mathematically independent, so the
//!   decomposition is exact; solving them separately additionally makes
//!   each flow's rate a pure function of its own component — the
//!   property that lets the engine re-solve only the components whose
//!   inputs changed and leave the others' rates in place.

use crate::fairshare::EPS;
use crate::partition::{Components, UnionFind};

/// A max–min problem in CSR (struct-of-arrays) layout. Flow `f` has cap
/// `flow_cap[f]` and crosses links `flow_links[flow_off[f]..flow_off[f+1]]`
/// (indices into `link_cap`; every entry finite).
#[derive(Debug, Clone, Default)]
pub struct ProblemSlab {
    /// Finite link capacities (bytes/sec).
    pub link_cap: Vec<f64>,
    /// Per-flow rate caps (may be `∞`).
    pub flow_cap: Vec<f64>,
    /// CSR offsets, `len = flows + 1`.
    pub flow_off: Vec<u32>,
    /// CSR link-index arena.
    pub flow_links: Vec<u32>,
}

impl ProblemSlab {
    /// Empties the slab, keeping allocations.
    pub fn clear(&mut self) {
        self.link_cap.clear();
        self.flow_cap.clear();
        self.flow_off.clear();
        self.flow_off.push(0);
        self.flow_links.clear();
    }

    /// Number of flows.
    pub fn flows(&self) -> usize {
        self.flow_cap.len()
    }

    /// Appends a flow (links must index `link_cap`).
    pub fn push_flow(&mut self, cap: f64, links: impl IntoIterator<Item = u32>) {
        if self.flow_off.is_empty() {
            self.flow_off.push(0);
        }
        self.flow_cap.push(cap);
        self.flow_links.extend(links);
        self.flow_off.push(self.flow_links.len() as u32);
    }

    /// Builds a slab from the classic `(link_caps, AllocFlow)` form,
    /// dropping infinite-capacity links (inert; see module docs) and
    /// densely remapping the finite ones.
    pub fn from_alloc(link_caps: &[f64], flows: &[crate::fairshare::AllocFlow]) -> ProblemSlab {
        let mut fin_id = vec![u32::MAX; link_caps.len()];
        let mut slab = ProblemSlab::default();
        slab.flow_off.push(0);
        for (l, &c) in link_caps.iter().enumerate() {
            if c.is_finite() {
                fin_id[l] = slab.link_cap.len() as u32;
                slab.link_cap.push(c);
            }
        }
        for f in flows {
            slab.flow_cap.push(f.cap);
            for &l in &f.links {
                if fin_id[l] != u32::MAX {
                    slab.flow_links.push(fin_id[l]);
                }
            }
            slab.flow_off.push(slab.flow_links.len() as u32);
        }
        slab
    }

    /// Links of flow `f`.
    pub fn links_of(&self, f: usize) -> &[u32] {
        &self.flow_links[self.flow_off[f] as usize..self.flow_off[f + 1] as usize]
    }
}

/// Reusable scratch for decomposed solves (union–find, component
/// layout, per-link residuals, …).
#[derive(Debug, Clone, Default)]
pub struct SolveScratch {
    /// Union–find used by the from-scratch partitioner.
    pub uf: UnionFind,
    /// The most recent decomposition.
    pub comps: Components,
    /// Per-flow frozen flags (full problem size).
    pub frozen: Vec<bool>,
    /// Per-link residual capacities (full problem size).
    pub residual: Vec<f64>,
    /// Per-link unfrozen-flow counts (full problem size).
    pub active_on: Vec<u32>,
}

impl SolveScratch {
    /// Sizes the per-flow / per-link arrays (contents are initialised
    /// per component by the kernels).
    pub fn resize(&mut self, flows: usize, links: usize) {
        self.frozen.resize(flows, false);
        self.residual.resize(links, 0.0);
        self.active_on.resize(links, 0);
    }
}

/// Solves the whole slab: partitions it into congestion components and
/// runs the production kernel on each, in stable component order. The
/// decomposition is recorded in `scratch.comps` (the engine reads the
/// component count off it). `rates` is fully overwritten.
pub fn solve_slab(slab: &ProblemSlab, scratch: &mut SolveScratch, rates: &mut Vec<f64>) {
    let nf = slab.flows();
    let nl = slab.link_cap.len();
    rates.clear();
    rates.resize(nf, 0.0);
    scratch
        .comps
        .build_csr(nf, nl, &slab.flow_off, &slab.flow_links, &mut scratch.uf);
    scratch.resize(nf, nl);
    for c in 0..scratch.comps.count() {
        solve_component(
            slab,
            scratch.comps.comp_flows(c),
            scratch.comps.comp_links(c),
            &mut scratch.frozen,
            &mut scratch.residual,
            &mut scratch.active_on,
            rates,
        );
    }
}

/// As [`solve_slab`], but with the bookkeeping-free reference kernel —
/// the oracle the differential suites hold the production path to.
pub fn solve_slab_reference(slab: &ProblemSlab, scratch: &mut SolveScratch, rates: &mut Vec<f64>) {
    let nf = slab.flows();
    let nl = slab.link_cap.len();
    rates.clear();
    rates.resize(nf, 0.0);
    scratch
        .comps
        .build_csr(nf, nl, &slab.flow_off, &slab.flow_links, &mut scratch.uf);
    scratch.resize(nf, nl);
    for c in 0..scratch.comps.count() {
        solve_component_reference(
            slab,
            scratch.comps.comp_flows(c),
            scratch.comps.comp_links(c),
            &mut scratch.frozen,
            &mut scratch.residual,
            &mut scratch.active_on,
            rates,
        );
    }
}

/// Progressive filling over one congestion component, with maintained
/// per-link unfrozen counts (the production bookkeeping). Touches only
/// the `comp_flows` / `comp_links` entries of the scratch and output
/// slices, so solving one component leaves every other's rates alone.
///
/// `comp_flows` and `comp_links` must be ascending (the partitioner
/// guarantees it); the round arithmetic then visits links and flows in
/// exactly the order the old global solver did.
pub fn solve_component(
    slab: &ProblemSlab,
    comp_flows: &[u32],
    comp_links: &[u32],
    frozen: &mut [bool],
    residual: &mut [f64],
    active_on: &mut [u32],
    rate: &mut [f64],
) {
    for &l in comp_links {
        residual[l as usize] = slab.link_cap[l as usize];
        active_on[l as usize] = 0;
    }
    for &f in comp_flows {
        frozen[f as usize] = false;
        rate[f as usize] = 0.0;
        for &l in slab.links_of(f as usize) {
            active_on[l as usize] += 1;
        }
    }
    let mut unfrozen = comp_flows.len();

    while unfrozen > 0 {
        // Largest uniform increment every unfrozen flow can take.
        let mut inc = f64::INFINITY;
        for &l in comp_links {
            if active_on[l as usize] > 0 {
                inc = inc.min(residual[l as usize] / active_on[l as usize] as f64);
            }
        }
        for &f in comp_flows {
            if !frozen[f as usize] {
                inc = inc.min(slab.flow_cap[f as usize] - rate[f as usize]);
            }
        }
        if !inc.is_finite() {
            // Every unfrozen flow in this component crosses no finite
            // link and has an infinite cap; give them "infinite" rate.
            for &f in comp_flows {
                if !frozen[f as usize] {
                    rate[f as usize] = f64::INFINITY;
                }
            }
            break;
        }
        let inc = inc.max(0.0);

        // Apply the increment.
        for &f in comp_flows {
            if frozen[f as usize] {
                continue;
            }
            rate[f as usize] += inc;
            for &l in slab.links_of(f as usize) {
                residual[l as usize] -= inc;
            }
        }

        // Freeze flows that hit their cap or cross a saturated link.
        let mut any_frozen = false;
        for &f in comp_flows {
            if frozen[f as usize] {
                continue;
            }
            let cap = slab.flow_cap[f as usize];
            let cap_hit = rate[f as usize] >= cap - EPS * cap.max(1.0);
            let link_hit = slab
                .links_of(f as usize)
                .iter()
                .any(|&l| residual[l as usize] <= EPS * slab.link_cap[l as usize].max(1.0));
            if cap_hit || link_hit {
                frozen[f as usize] = true;
                any_frozen = true;
                unfrozen -= 1;
                for &l in slab.links_of(f as usize) {
                    active_on[l as usize] -= 1;
                }
            }
        }
        // Safety: if nothing froze despite a finite increment, numerical
        // trouble; freeze the component at current rates rather than
        // spin.
        if !any_frozen && inc <= 0.0 {
            break;
        }
    }
}

/// Progressive filling over one component with **no** incremental
/// bookkeeping: per-link unfrozen counts are recounted from scratch
/// every round. The component-wise analogue of
/// [`crate::fairshare::reference_rates`]'s round loop, kept
/// arithmetically identical to [`solve_component`] so any divergence is
/// a logic bug, never fp noise.
pub fn solve_component_reference(
    slab: &ProblemSlab,
    comp_flows: &[u32],
    comp_links: &[u32],
    frozen: &mut [bool],
    residual: &mut [f64],
    active_on: &mut [u32],
    rate: &mut [f64],
) {
    for &l in comp_links {
        residual[l as usize] = slab.link_cap[l as usize];
    }
    for &f in comp_flows {
        frozen[f as usize] = false;
        rate[f as usize] = 0.0;
    }

    while comp_flows.iter().any(|&f| !frozen[f as usize]) {
        // Recount unfrozen flows per link from scratch.
        for &l in comp_links {
            active_on[l as usize] = 0;
        }
        for &f in comp_flows {
            if !frozen[f as usize] {
                for &l in slab.links_of(f as usize) {
                    active_on[l as usize] += 1;
                }
            }
        }

        let mut inc = f64::INFINITY;
        for &l in comp_links {
            if active_on[l as usize] > 0 {
                inc = inc.min(residual[l as usize] / active_on[l as usize] as f64);
            }
        }
        for &f in comp_flows {
            if !frozen[f as usize] {
                inc = inc.min(slab.flow_cap[f as usize] - rate[f as usize]);
            }
        }
        if !inc.is_finite() {
            for &f in comp_flows {
                if !frozen[f as usize] {
                    rate[f as usize] = f64::INFINITY;
                }
            }
            break;
        }
        let inc = inc.max(0.0);

        for &f in comp_flows {
            if frozen[f as usize] {
                continue;
            }
            rate[f as usize] += inc;
            for &l in slab.links_of(f as usize) {
                residual[l as usize] -= inc;
            }
        }

        let mut any_frozen = false;
        for &f in comp_flows {
            if frozen[f as usize] {
                continue;
            }
            let cap = slab.flow_cap[f as usize];
            let cap_hit = rate[f as usize] >= cap - EPS * cap.max(1.0);
            let link_hit = slab
                .links_of(f as usize)
                .iter()
                .any(|&l| residual[l as usize] <= EPS * slab.link_cap[l as usize].max(1.0));
            if cap_hit || link_hit {
                frozen[f as usize] = true;
                any_frozen = true;
            }
        }
        if !any_frozen && inc <= 0.0 {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fairshare::AllocFlow;

    fn flow(links: &[usize], cap: f64) -> AllocFlow {
        AllocFlow {
            links: links.to_vec(),
            cap,
        }
    }

    #[test]
    fn from_alloc_drops_infinite_links() {
        let slab = ProblemSlab::from_alloc(
            &[5.0, f64::INFINITY, 3.0],
            &[flow(&[0, 1], 9.0), flow(&[1, 2], f64::INFINITY)],
        );
        assert_eq!(slab.link_cap, vec![5.0, 3.0]);
        assert_eq!(slab.links_of(0), &[0]);
        assert_eq!(slab.links_of(1), &[1]);
    }

    #[test]
    fn slab_solve_matches_expected_shares() {
        // Classic: f0 on A+B, f1 on A, f2 on B with A=10, B=4.
        let slab = ProblemSlab::from_alloc(
            &[10.0, 4.0],
            &[
                flow(&[0, 1], f64::INFINITY),
                flow(&[0], f64::INFINITY),
                flow(&[1], f64::INFINITY),
            ],
        );
        let mut scratch = SolveScratch::default();
        let mut rates = Vec::new();
        solve_slab(&slab, &mut scratch, &mut rates);
        assert!((rates[0] - 2.0).abs() < 1e-9);
        assert!((rates[1] - 8.0).abs() < 1e-9);
        assert!((rates[2] - 2.0).abs() < 1e-9);
        assert_eq!(scratch.comps.count(), 1);
    }

    #[test]
    fn production_and_reference_kernels_agree_bitwise() {
        let slab = ProblemSlab::from_alloc(
            &[5.0, 8.0, 3.0, 12.0, 0.0],
            &[
                flow(&[0, 1], f64::INFINITY),
                flow(&[1, 2], 4.0),
                flow(&[2, 3], f64::INFINITY),
                flow(&[4], f64::INFINITY),
                flow(&[], 7.25),
            ],
        );
        let mut s1 = SolveScratch::default();
        let mut s2 = SolveScratch::default();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        solve_slab(&slab, &mut s1, &mut a);
        solve_slab_reference(&slab, &mut s2, &mut b);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a), bits(&b));
    }

    #[test]
    fn scratch_reuse_across_solves_is_clean() {
        let mut scratch = SolveScratch::default();
        let mut rates = Vec::new();
        let a = ProblemSlab::from_alloc(&[6.0], &[flow(&[0], 0.0), flow(&[0], f64::INFINITY)]);
        solve_slab(&a, &mut scratch, &mut rates);
        assert!((rates[1] - 6.0).abs() < 1e-6);
        // A second, differently-shaped problem through the same scratch.
        let b = ProblemSlab::from_alloc(&[3.0, 7.0], &[flow(&[0], f64::INFINITY), flow(&[1], 2.0)]);
        solve_slab(&b, &mut scratch, &mut rates);
        assert!((rates[0] - 3.0).abs() < 1e-6);
        assert!((rates[1] - 2.0).abs() < 1e-6);
        assert_eq!(scratch.comps.count(), 2);
    }
}
