//! Randomized property tests for the max–min fair allocator:
//! feasibility, cap respect, and the bottleneck condition must hold for
//! arbitrary topologies.
//!
//! These were proptest-based; the offline build has no proptest, so the
//! same invariants are checked over seeded random case sweeps.

use ir_simnet::fairshare::{max_min_rates, reference_rates, AllocFlow};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Both solvers, named: every invariant below must hold for the
/// production solver *and* the naive oracle the differential engine
/// suite compares it against.
#[expect(
    clippy::type_complexity,
    reason = "solver-function table; an alias would hide the signature under test"
)]
const SOLVERS: [(&str, fn(&[f64], &[AllocFlow]) -> Vec<f64>); 2] = [
    ("max_min_rates", max_min_rates),
    ("reference_rates", reference_rates),
];

/// 1..6 links with capacities 0..1e6 (occasionally infinite or zero),
/// 1..8 flows crossing random link subsets with random caps.
fn arb_problem(rng: &mut StdRng) -> (Vec<f64>, Vec<AllocFlow>) {
    let arb_cap = |rng: &mut StdRng, lo: f64| -> f64 {
        match rng.gen_range(0..4u32) {
            0 => f64::INFINITY,
            1 => 0.0,
            _ => rng.gen_range(lo.max(1e-9)..1e6),
        }
    };
    let nl = rng.gen_range(1..6usize);
    let caps: Vec<f64> = (0..nl).map(|_| arb_cap(rng, 0.0)).collect();
    let nf = rng.gen_range(1..8usize);
    let flows: Vec<AllocFlow> = (0..nf)
        .map(|_| {
            let k = rng.gen_range(0..=nl);
            let mut links: Vec<usize> = (0..nl).collect();
            // Random k-subset.
            for i in 0..k {
                let j = rng.gen_range(i..nl);
                links.swap(i, j);
            }
            links.truncate(k);
            links.sort_unstable();
            AllocFlow {
                links,
                cap: arb_cap(rng, 1.0),
            }
        })
        .collect();
    (caps, flows)
}

#[test]
fn allocation_invariants() {
    for case in 0..512u64 {
        let mut rng = StdRng::seed_from_u64(0xF5_0000 + case);
        let (caps, flows) = arb_problem(&mut rng);
        for (name, solve) in SOLVERS {
            let rates = solve(&caps, &flows);
            assert_eq!(rates.len(), flows.len());

            // Rates are non-negative and respect flow caps.
            for (i, f) in flows.iter().enumerate() {
                assert!(
                    rates[i] >= 0.0,
                    "{name} case {case}: negative rate {}",
                    rates[i]
                );
                if f.cap.is_finite() {
                    assert!(
                        rates[i] <= f.cap + 1e-6 * f.cap.max(1.0),
                        "{name} case {case}: rate {} exceeds cap {}",
                        rates[i],
                        f.cap
                    );
                }
            }

            // Feasibility: finite links are not overloaded.
            for (l, &cap) in caps.iter().enumerate() {
                if !cap.is_finite() {
                    continue;
                }
                let load: f64 = flows
                    .iter()
                    .zip(&rates)
                    .filter(|(f, _)| f.links.contains(&l))
                    .map(|(_, &r)| r)
                    .sum();
                assert!(
                    load <= cap + 1e-6 * cap.max(1.0),
                    "{name} case {case}: link {l} overloaded: {load} > {cap}"
                );
            }

            // Bottleneck condition: every finite-rate flow is pinned by
            // its cap or by a saturated finite link (unless it is
            // unconstrained entirely, in which case the allocator
            // reports infinity).
            for (i, f) in flows.iter().enumerate() {
                if rates[i].is_infinite() {
                    continue;
                }
                let cap_hit = f.cap.is_finite() && rates[i] >= f.cap - 1e-6 * f.cap.max(1.0);
                let link_hit = f.links.iter().any(|&l| {
                    if !caps[l].is_finite() {
                        return false;
                    }
                    let load: f64 = flows
                        .iter()
                        .zip(&rates)
                        .filter(|(g, _)| g.links.contains(&l))
                        .map(|(_, &r)| r)
                        .sum();
                    load >= caps[l] - 1e-6 * caps[l].max(1.0)
                });
                assert!(
                    cap_hit || link_hit,
                    "{name} case {case}: flow {i} (rate {}) limited by nothing",
                    rates[i]
                );
            }
        }
    }
}

/// Pareto-optimality in the max–min sense: no flow can be sped up
/// without slowing down a flow that is no faster. Concretely, every
/// finite-rate flow is either at its own cap or crosses a saturated
/// link on which its rate is within tolerance of the **maximum** rate
/// across that link — i.e. any headroom it could claim would have to
/// come from a flow that is already no faster than it.
#[test]
fn allocation_is_max_min_pareto_optimal() {
    for case in 0..512u64 {
        let mut rng = StdRng::seed_from_u64(0xF8_0000 + case);
        let (caps, flows) = arb_problem(&mut rng);
        for (name, solve) in SOLVERS {
            let rates = solve(&caps, &flows);
            for (i, f) in flows.iter().enumerate() {
                if rates[i].is_infinite() {
                    continue;
                }
                let tol = |x: f64| 1e-6 * x.max(1.0);
                if f.cap.is_finite() && rates[i] >= f.cap - tol(f.cap) {
                    continue; // pinned by its own cap
                }
                let bottlenecked = f.links.iter().any(|&l| {
                    if !caps[l].is_finite() {
                        return false;
                    }
                    let on_l: Vec<f64> = flows
                        .iter()
                        .zip(&rates)
                        .filter(|(g, _)| g.links.contains(&l))
                        .map(|(_, &r)| r)
                        .collect();
                    let load: f64 = on_l.iter().sum();
                    let max_on_l = on_l.iter().cloned().fold(0.0, f64::max);
                    load >= caps[l] - tol(caps[l]) && rates[i] >= max_on_l - tol(max_on_l)
                });
                assert!(
                    bottlenecked,
                    "{name} case {case}: flow {i} (rate {}) could be increased \
                     without hurting a slower flow",
                    rates[i]
                );
            }
        }
    }
}

/// A zero-capacity link pins every crossing flow to exactly zero, in
/// both solvers, regardless of what else the flow crosses.
#[test]
fn zero_capacity_links_pin_crossing_flows_to_zero() {
    for case in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0xF9_0000 + case);
        let (mut caps, flows) = arb_problem(&mut rng);
        // Force at least one zero-capacity link into every problem.
        let dead = rng.gen_range(0..caps.len());
        caps[dead] = 0.0;
        for (name, solve) in SOLVERS {
            let rates = solve(&caps, &flows);
            for (i, f) in flows.iter().enumerate() {
                if f.links.iter().any(|&l| caps[l] == 0.0) {
                    assert_eq!(
                        rates[i], 0.0,
                        "{name} case {case}: flow {i} crosses a dead link but got {}",
                        rates[i]
                    );
                }
            }
        }
    }
}

/// The naive oracle and the production solver agree **bitwise** on
/// every randomized problem — the solver-level half of the engine
/// differential suite.
#[test]
fn solvers_agree_bitwise() {
    for case in 0..512u64 {
        let mut rng = StdRng::seed_from_u64(0xFA_0000 + case);
        let (caps, flows) = arb_problem(&mut rng);
        let a = max_min_rates(&caps, &flows);
        let b = reference_rates(&caps, &flows);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert_eq!(bits(&a), bits(&b), "case {case}: solver outputs diverged");
    }
}

#[test]
fn equal_flows_get_equal_shares() {
    for case in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0xF6_0000 + case);
        let cap = rng.gen_range(1.0..1e6);
        let n = rng.gen_range(1..6usize);
        let flows: Vec<AllocFlow> = (0..n)
            .map(|_| AllocFlow {
                links: vec![0],
                cap: f64::INFINITY,
            })
            .collect();
        let rates = max_min_rates(&[cap], &flows);
        for &r in &rates {
            assert!(
                (r - cap / n as f64).abs() < 1e-6 * cap,
                "case {case}: unequal share"
            );
        }
    }
}

#[test]
fn adding_a_flow_never_increases_others() {
    for case in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0xF7_0000 + case);
        let cap = rng.gen_range(1.0..1e6);
        let n = rng.gen_range(1..5usize);
        let mk = |k: usize| -> Vec<f64> {
            let flows: Vec<AllocFlow> = (0..k)
                .map(|_| AllocFlow {
                    links: vec![0],
                    cap: f64::INFINITY,
                })
                .collect();
            max_min_rates(&[cap], &flows)
        };
        let before = mk(n);
        let after = mk(n + 1);
        for i in 0..n {
            assert!(
                after[i] <= before[i] + 1e-9 * cap,
                "case {case}: flow {i} sped up"
            );
        }
    }
}
