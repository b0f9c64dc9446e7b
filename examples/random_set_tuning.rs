//! Tuning the random-set size (the paper's §4) and trying the paper's
//! proposed extension.
//!
//! Sweeps the random-set size k like Fig 6, then pits the uniform
//! random-set policy against the §6 suggestion — weight the sampling by
//! historical utilization — and two bandit baselines, all on the same
//! scenario.
//!
//! ```text
//! cargo run --release --example random_set_tuning [seed]
//! ```

use indirect_routing::core::{
    EpsilonGreedy, PathSelector, RandomSet, SessionConfig, Ucb1, UtilizationWeighted,
};
use indirect_routing::experiments::runner::{run_selection_study, run_task_with};
use indirect_routing::stats::Summary;
use indirect_routing::workload::{selection_study, Schedule};

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2007);
    let scenario = selection_study(seed);
    let schedule = Schedule::selection_study().spread(120);
    let session = SessionConfig::paper_defaults();

    // --- Part 1: the Fig 6 sweep on a few k values.
    println!("part 1: random-set size sweep (mean improvement %)\n");
    let ks = [1, 3, 5, 10, 20, 35];
    let data = run_selection_study(&scenario, &ks, schedule, session, seed);
    print!("{:>4}", "k");
    for &c in &data.clients {
        print!("{:>10}", data.name(c));
    }
    println!();
    for &k in &ks {
        print!("{k:>4}");
        for &c in &data.clients {
            match data.mean_improvement_pct(c, k) {
                Some(m) => print!("{m:>+10.1}"),
                None => print!("{:>10}", "-"),
            }
        }
        println!();
    }

    // --- Part 2: policy shoot-out at k = 5 for the first client.
    println!(
        "\npart 2: policy comparison (client {}, 120 transfers)\n",
        scenario.name(scenario.clients[0])
    );
    let client = scenario.clients[0];
    let server = scenario.servers[0];
    let policies: Vec<(&str, Box<dyn PathSelector>)> = vec![
        (
            "uniform random set (k=5)",
            Box::new(RandomSet::new(5, seed)),
        ),
        (
            "utilization-weighted (k=5)",
            Box::new(UtilizationWeighted::new(5, seed)),
        ),
        (
            "epsilon-greedy (0.1)",
            Box::new(EpsilonGreedy::new(0.1, seed)),
        ),
        ("ucb1", Box::new(Ucb1::new())),
    ];
    for (name, policy) in policies {
        let records = run_task_with(
            &scenario,
            client,
            server,
            &scenario.relays,
            policy,
            schedule,
            &session,
        );
        let imps: Vec<f64> = records
            .iter()
            .map(|r| r.improvement_pct())
            .filter(|v| v.is_finite())
            .collect();
        let s = Summary::of(&imps).expect("non-empty");
        println!(
            "{name:28} mean {:+6.1}%  median {:+6.1}%  chose indirect {:3.0}%",
            s.mean,
            s.median,
            records.iter().filter(|r| r.chose_indirect()).count() as f64 / records.len() as f64
                * 100.0
        );
    }
}
