//! Ablations of the design choices DESIGN.md calls out:
//!
//! * **probe size x** — the paper fixes x = 100 KB ("produces good
//!   estimates"); the sweep shows the trade-off: tiny probes mispredict
//!   (slow-start bias), huge probes waste transfer time.
//! * **selection policy** — uniform random set vs the §6
//!   utilization-weighted extension vs bandit baselines.
//! * **predictor** — the paper's first-portion predictor vs an EWMA
//!   blend.
//! * **file size n** — why the paper requires n ≥ 2 MB.
//!
//! Each ablation prints its quality table to stderr (EXPERIMENTS.md
//! §Ablations reads them). Nothing is timed here: what a session or a
//! boundary costs is `irbench`'s per-layer rows.
//!
//! ```text
//! cargo run --release --example ablations
//! ```

use indirect_routing::core::{
    EpsilonGreedy, PathSelector, PathSpec, RandomSet, SessionConfig, StaticSingle, Ucb1,
    UtilizationWeighted,
};
use indirect_routing::experiments::runner::run_task_with;
use indirect_routing::stats::Summary;
use indirect_routing::workload::{selection_study, Scenario, Schedule};
use std::collections::BTreeMap;

/// Runs `policy` for the first client over `schedule` and scores it:
/// (mean improvement %, penalties % of all transfers).
fn quality(
    sc: &Scenario,
    policy: Box<dyn PathSelector>,
    schedule: Schedule,
    session: &SessionConfig,
) -> (f64, f64) {
    let records = run_task_with(
        sc,
        sc.clients[0],
        sc.servers[0],
        &sc.relays,
        policy,
        schedule,
        session,
    );
    let imps: Vec<f64> = records
        .iter()
        .map(|r| r.improvement_pct())
        .filter(|v| v.is_finite())
        .collect();
    let s = Summary::of(&imps).expect("non-empty");
    let pen = records
        .iter()
        .filter(|r| r.chose_indirect() && r.is_penalty())
        .count() as f64
        / records.len() as f64
        * 100.0;
    (s.mean, pen)
}

fn ablation_probe_size(sc: &Scenario) {
    let schedule = Schedule::selection_study().spread(60);
    eprintln!(
        "\n=== ablation: probe size x (client {}, k=5) ===",
        sc.name(sc.clients[0])
    );
    eprintln!(
        "{:>10} {:>12} {:>12}",
        "x (KB)", "mean impr %", "penalties %"
    );
    for x_kb in [10u64, 25, 50, 100, 200, 400] {
        let mut session = SessionConfig::paper_defaults();
        session.probe_bytes = x_kb * 1024;
        let (mean, pen) = quality(sc, Box::new(RandomSet::new(5, 7)), schedule, &session);
        eprintln!("{x_kb:>10} {mean:>+12.1} {pen:>12.1}");
    }
}

fn ablation_policies(sc: &Scenario) {
    let schedule = Schedule::selection_study().spread(120);
    let session = SessionConfig::paper_defaults();
    eprintln!(
        "\n=== ablation: selection policy (client {}) ===",
        sc.name(sc.clients[0])
    );
    eprintln!(
        "{:>30} {:>12} {:>12}",
        "policy", "mean impr %", "penalties %"
    );
    let policies: Vec<(&str, Box<dyn PathSelector>)> = vec![
        (
            "static-single (first relay)",
            Box::new(StaticSingle(sc.relays[0])),
        ),
        ("uniform random set k=5", Box::new(RandomSet::new(5, 7))),
        (
            "utilization-weighted k=5",
            Box::new(UtilizationWeighted::new(5, 7)),
        ),
        ("epsilon-greedy 0.1", Box::new(EpsilonGreedy::new(0.1, 7))),
        ("ucb1", Box::new(Ucb1::new())),
    ];
    for (name, policy) in policies {
        let (mean, pen) = quality(sc, policy, schedule, &session);
        eprintln!("{name:>30} {mean:>+12.1} {pen:>12.1}");
    }
}

/// One predictor of the quality table. With no `blend` it is the
/// paper's first-portion rule: the probe rate is the prediction. With
/// `blend = (w, alpha)` it predicts `w·probe + (1 − w)·ewma`, where
/// `ewma` tracks the path's realised whole-file rates with decay
/// `alpha` (the probe alone until the path has a history).
struct Forecast {
    blend: Option<(f64, f64)>,
    history: BTreeMap<PathSpec, f64>,
}

impl Forecast {
    fn predict(&self, path: &PathSpec, probe_rate: f64) -> f64 {
        match (self.blend, self.history.get(path)) {
            (Some((w, _)), Some(&h)) => w * probe_rate + (1.0 - w) * h,
            _ => probe_rate,
        }
    }

    fn observe(&mut self, path: &PathSpec, realised: f64) {
        if let Some((_, alpha)) = self.blend {
            let e = self.history.entry(*path).or_insert(realised);
            *e = alpha * realised + (1.0 - alpha) * *e;
        }
    }
}

fn ablation_predictors(sc: &Scenario) {
    // Pure prediction quality, decoupled from probe overhead: at each
    // schedule instant, what a 100 KB probe would measure on each path
    // (oracle on an isolated replica) feeds the predictor; the chosen
    // path's true whole-file rate is compared with the best path's.
    use indirect_routing::core::{PathCtx, SimTransport, Transport};
    use indirect_routing::simnet::time::{SimDuration, SimTime};

    let schedule = Schedule::selection_study().spread(60);
    let probe_bytes = 100 * 1024;
    let file_bytes = 2 * 1024 * 1024;
    let horizon = SimDuration::from_secs(1200);

    eprintln!("\n=== ablation: predictor quality (k=5, oracle-scored) ===");
    eprintln!(
        "{:>20} {:>14} {:>14}",
        "predictor", "optimal pick %", "efficiency %"
    );
    let predictors = [
        ("first-portion", None),
        ("ewma-blend 0.5/0.3", Some((0.5, 0.3))),
        ("ewma-blend 0.2/0.3", Some((0.2, 0.3))),
    ];
    for (name, blend) in predictors {
        let mut predictor = Forecast {
            blend,
            history: BTreeMap::new(),
        };
        let mut transport = SimTransport::new(sc.network.clone());
        let mut policy = RandomSet::new(5, 7);
        let client = sc.clients[0];
        let server = sc.servers[0];
        let mut optimal_picks = 0usize;
        let mut total = 0usize;
        let mut efficiency_sum = 0.0;
        for (i, at) in schedule.instants(SimTime::ZERO).enumerate() {
            let target = at.max(transport.now());
            transport.network_mut().advance_until(target);
            let ctx = PathCtx {
                client,
                server,
                relays: &sc.relays,
                topo: sc.network.topology(),
                transfer_index: i as u64,
            };
            let paths: Vec<PathSpec> = std::iter::once(PathSpec::direct(client, server))
                .chain(policy.paths(&ctx))
                .collect();
            // What a probe would measure, and the ground truth.
            let probe_rates: Vec<Option<f64>> = paths
                .iter()
                .map(|p| transport.oracle_throughput(p, probe_bytes, horizon))
                .collect();
            let true_rates: Vec<Option<f64>> = paths
                .iter()
                .map(|p| transport.oracle_throughput(p, file_bytes, horizon))
                .collect();
            let chosen = paths
                .iter()
                .zip(&probe_rates)
                .enumerate()
                .filter_map(|(k, (p, r))| r.map(|r| (k, predictor.predict(p, r))))
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .map(|(k, _)| k);
            let best = true_rates
                .iter()
                .enumerate()
                .filter_map(|(k, r)| r.map(|r| (k, r)))
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
            if let (Some(k), Some((kb, rb))) = (chosen, best) {
                total += 1;
                if k == kb {
                    optimal_picks += 1;
                }
                if let Some(rc) = true_rates[k] {
                    efficiency_sum += rc / rb;
                    predictor.observe(&paths[k], rc);
                }
            }
        }
        eprintln!(
            "{name:>20} {:>14.1} {:>14.1}",
            optimal_picks as f64 / total.max(1) as f64 * 100.0,
            efficiency_sum / total.max(1) as f64 * 100.0
        );
    }
}

fn ablation_file_size(sc: &Scenario) {
    // The paper requires n >= 2 MB "to ensure long-lived TCP
    // transfers". Sweeping n shows why: for small files the probe
    // overhead (x/n) eats the gains; as n grows the improvement
    // converges to the path-rate ratio.
    let schedule = Schedule::selection_study().spread(60);
    eprintln!(
        "\n=== ablation: file size n (client {}, k=5, x=100KB) ===",
        sc.name(sc.clients[0])
    );
    eprintln!(
        "{:>10} {:>12} {:>12}",
        "n (MB)", "mean impr %", "penalties %"
    );
    for n_mb in [0.25f64, 0.5, 1.0, 2.0, 4.0, 8.0] {
        let mut session = SessionConfig::paper_defaults();
        session.file_bytes = (n_mb * 1024.0 * 1024.0) as u64;
        let (mean, pen) = quality(sc, Box::new(RandomSet::new(5, 7)), schedule, &session);
        eprintln!("{n_mb:>10} {mean:>+12.1} {pen:>12.1}");
    }
}

fn main() {
    let sc = selection_study(2007);
    ablation_probe_size(&sc);
    ablation_policies(&sc);
    ablation_predictors(&sc);
    ablation_file_size(&sc);
}
