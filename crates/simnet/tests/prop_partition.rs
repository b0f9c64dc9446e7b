//! Property suite for the congestion-component partitioner.
//!
//! Three properties over seeded random problems:
//!
//! 1. **True decomposition** — the component structure really partitions
//!    the problem: every flow lands in exactly one component, every
//!    crossed link in exactly one, and no flow crosses a link outside
//!    its own component (components are genuinely independent).
//! 2. **Persistent = from-scratch** — after any interleaving of flow
//!    arrivals and departures, the persistently-maintained
//!    [`LiveComponents`] (arrival unions, local splits on departure)
//!    holds exactly the components a from-scratch decomposition of the
//!    live membership finds, member lists ascending, and only touched
//!    components are dirty.
//! 3. **Component solves compose** — solving each component
//!    independently (even in *reverse* component order) scatters into
//!    exactly `fairshare::reference_rates`, bitwise.

use ir_simnet::fairshare::{max_min_rates, reference_rates, AllocFlow};
use ir_simnet::partition::{Components, LiveComponents, UnionFind, NO_COMP};
use ir_simnet::soa::ProblemSlab;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random allocation problem: link capacities (finite, zero, or ∞)
/// and flows crossing random link subsets under random caps.
fn arb_problem(seed: u64) -> (Vec<f64>, Vec<AllocFlow>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_links = rng.gen_range(1..12usize);
    let caps: Vec<f64> = (0..n_links)
        .map(|_| match rng.gen_range(0..10u32) {
            0 => f64::INFINITY,
            1 => 0.0,
            _ => rng.gen_range(1e3..1e6),
        })
        .collect();
    let n_flows = rng.gen_range(0..16usize);
    let flows: Vec<AllocFlow> = (0..n_flows)
        .map(|_| {
            let k = rng.gen_range(0..=3.min(n_links));
            let mut links: Vec<usize> = (0..n_links).collect();
            for i in 0..k {
                let j = rng.gen_range(i..n_links);
                links.swap(i, j);
            }
            links.truncate(k);
            links.sort_unstable();
            let cap = if rng.gen_bool(0.3) {
                f64::INFINITY
            } else {
                rng.gen_range(1e2..1e6)
            };
            AllocFlow { links, cap }
        })
        .collect();
    (caps, flows)
}

#[test]
fn components_are_a_true_decomposition() {
    for seed in 0..300u64 {
        let (caps, flows) = arb_problem(0xA0_0000 + seed);
        let slab = ProblemSlab::from_alloc(&caps, &flows);
        let nf = slab.flows();
        let nl = slab.link_cap.len();
        let mut uf = UnionFind::new();
        let mut comps = Components::default();
        comps.build_csr(nf, nl, &slab.flow_off, &slab.flow_links, &mut uf);

        // Every flow appears exactly once, inside its own component's
        // extent.
        assert_eq!(comps.comp_of_flow.len(), nf, "seed {seed}");
        let mut seen_flows = vec![0u32; nf];
        for c in 0..comps.count() {
            for &f in comps.comp_flows(c) {
                seen_flows[f as usize] += 1;
                assert_eq!(
                    comps.comp_of_flow[f as usize] as usize, c,
                    "seed {seed}: flow {f} listed outside its component"
                );
            }
        }
        assert!(
            seen_flows.iter().all(|&n| n == 1),
            "seed {seed}: a flow is missing or duplicated: {seen_flows:?}"
        );

        // Every crossed link appears exactly once; uncrossed links never.
        let mut link_comp = vec![u32::MAX; nl];
        for c in 0..comps.count() {
            for &l in comps.comp_links(c) {
                assert_eq!(
                    link_comp[l as usize],
                    u32::MAX,
                    "seed {seed}: link {l} in two components"
                );
                link_comp[l as usize] = c as u32;
            }
        }
        let mut crossed = vec![false; nl];
        for f in 0..nf {
            for &l in slab.links_of(f) {
                crossed[l as usize] = true;
            }
        }
        for l in 0..nl {
            assert_eq!(
                crossed[l],
                link_comp[l] != u32::MAX,
                "seed {seed}: link {l} membership disagrees with usage"
            );
        }

        // Independence: a flow only ever crosses links of its own
        // component.
        for f in 0..nf {
            for &l in slab.links_of(f) {
                assert_eq!(
                    link_comp[l as usize], comps.comp_of_flow[f],
                    "seed {seed}: flow {f} crosses a foreign link {l}"
                );
            }
        }
    }
}

#[test]
fn persistent_components_match_from_scratch_decomposition() {
    let mut splits = 0u32;
    let mut left_clean = 0u32;
    for seed in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(0xB0_0000 + seed);
        let n_links = rng.gen_range(1..10usize);
        // The engine's append-only CSR arena: flow id → capacity links.
        let (mut off, mut arena) = (vec![0u32], Vec::<u32>::new());
        let mut live: Vec<bool> = Vec::new();
        let mut lc = LiveComponents::new(n_links);

        for _ in 0..rng.gen_range(1..40u32) {
            // A burst of membership changes between two solves.
            for _ in 0..rng.gen_range(1..4u32) {
                if !live.contains(&true) || rng.gen_bool(0.6) {
                    let k = rng.gen_range(0..=3.min(n_links));
                    let mut links: Vec<u32> = (0..n_links as u32).collect();
                    for i in 0..k {
                        let j = rng.gen_range(i..n_links);
                        links.swap(i, j);
                    }
                    links.truncate(k);
                    lc.arrive(live.len() as u32, &links);
                    arena.extend_from_slice(&links);
                    off.push(arena.len() as u32);
                    live.push(true);
                } else {
                    let victims: Vec<usize> = (0..live.len()).filter(|&f| live[f]).collect();
                    let f = victims[rng.gen_range(0..victims.len())];
                    live[f] = false;
                    lc.depart(f as u32);
                }
            }
            let before = lc.count();
            lc.begin_solve(&off, &arena);
            splits += (lc.count() > before) as u32;

            // From-scratch control over the live flows, densely
            // renumbered (ascending, so order is preserved).
            let ids: Vec<u32> = (0..live.len() as u32)
                .filter(|&f| live[f as usize])
                .collect();
            let (mut doff, mut darena) = (vec![0u32], Vec::new());
            for &f in &ids {
                darena.extend_from_slice(
                    &arena[off[f as usize] as usize..off[f as usize + 1] as usize],
                );
                doff.push(darena.len() as u32);
            }
            let mut fresh = Components::default();
            fresh.build_csr(ids.len(), n_links, &doff, &darena, &mut UnionFind::new());

            assert_eq!(lc.count(), fresh.count(), "seed {seed}: component count");
            for c in 0..fresh.count() {
                let flows: Vec<u32> = fresh
                    .comp_flows(c)
                    .iter()
                    .map(|&k| ids[k as usize])
                    .collect();
                let id = lc.comp_of_flow(flows[0]);
                assert_ne!(id, NO_COMP, "seed {seed}");
                assert_eq!(lc.flows(id), &flows[..], "seed {seed}: flow members");
                assert_eq!(lc.links(id), fresh.comp_links(c), "seed {seed}: links");
                assert!(flows.iter().all(|&f| lc.comp_of_flow(f) == id));
            }
            for (f, &alive) in live.iter().enumerate() {
                assert_eq!(alive, lc.comp_of_flow(f as u32) != NO_COMP, "seed {seed}");
            }
            let mut dirty = lc.dirty().to_vec();
            dirty.sort_unstable();
            dirty.dedup();
            assert_eq!(
                dirty.len(),
                lc.dirty().len(),
                "seed {seed}: duplicate dirty id"
            );
            left_clean += (dirty.len() < lc.count()) as u32;
            lc.end_solve();
        }
    }
    assert!(splits > 0, "no departure ever split a component");
    assert!(left_clean > 0, "every solve dirtied every component");
}

#[test]
fn independent_component_solves_reproduce_reference_rates() {
    for seed in 0..300u64 {
        let (caps, flows) = arb_problem(0xC0_0000 + seed);
        let oracle = reference_rates(&caps, &flows);
        // The production path must agree with the oracle bitwise on the
        // same instances (the fairshare contract, re-checked here under
        // the property sweep's wider input distribution).
        let prod = max_min_rates(&caps, &flows);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&prod), bits(&oracle), "seed {seed}");

        // Now solve the components by hand, in REVERSE component order:
        // independence means order cannot matter.
        let slab = ProblemSlab::from_alloc(&caps, &flows);
        let nf = slab.flows();
        let nl = slab.link_cap.len();
        let mut uf = UnionFind::new();
        let mut comps = Components::default();
        comps.build_csr(nf, nl, &slab.flow_off, &slab.flow_links, &mut uf);

        let mut frozen = vec![false; nf];
        let mut residual = vec![0.0f64; nl];
        let mut active_on = vec![0u32; nl];
        let mut rate = vec![0.0f64; nf];
        for c in (0..comps.count()).rev() {
            ir_simnet::soa::solve_component(
                &slab,
                comps.comp_flows(c),
                comps.comp_links(c),
                &mut frozen,
                &mut residual,
                &mut active_on,
                &mut rate,
            );
        }
        assert_eq!(
            bits(&rate),
            bits(&oracle),
            "seed {seed}: component solves do not compose"
        );
    }
}
