//! Oracle headroom — how much of the *attainable* improvement the
//! paper's mechanisms capture.
//!
//! §6 estimates that "throughput diversity can effectively be taken
//! advantage of … approximately 40% of the time", and Fig 6 argues a
//! random set of ~10 captures most of the attainable improvement. With
//! a simulator we can measure the attainable directly: a hindsight
//! oracle that always takes the whole-file-optimal path on an isolated
//! replica. This experiment compares, per scheduled transfer:
//!
//! * the **oracle** improvement (best path over all 35 relays + direct),
//! * the **random-set k = 10** session outcome,
//! * the **static single relay** outcome (§2.2's configuration).

use crate::report::{csv, Check, Report};
use crate::runner::{fold_engine, run_task, Roster};
use ir_core::{PathSpec, RandomSet, SessionConfig, SimTransport, StaticSingle};
use ir_simnet::time::{SimDuration, SimTime};
use ir_stats::Summary;
use ir_telemetry::Telemetry;
use ir_workload::Schedule;
use std::sync::Arc;

/// Headroom results for one client.
#[derive(Debug, Clone)]
pub struct Headroom {
    /// Client name.
    pub client: String,
    /// Mean oracle improvement (%) — the attainable ceiling.
    pub oracle_pct: f64,
    /// Mean improvement of the random-set k=10 policy (%).
    pub random10_pct: f64,
    /// Mean improvement of a static single relay (%).
    pub static_pct: f64,
}
ir_artifact::declare! { Codec for struct Headroom { client, oracle_pct, random10_pct, static_pct } }

/// What the headroom study runs on, in key order: the scenario (seed,
/// roster; server 0 is the destination), the transfers per client and
/// their §4 schedule, the session, the oracle's whole-file look-ahead,
/// and the size of the random-set policy it is compared with.
#[derive(Debug, Clone)]
pub struct HeadroomInputs {
    seed: u64,
    roster: Roster,
    transfers: u64,
    schedule: Schedule,
    session: SessionConfig,
    oracle_horizon: SimDuration,
    random_set_k: usize,
}
ir_artifact::declare! {
    StableHash for struct HeadroomInputs {
        seed, roster, transfers, schedule, session, oracle_horizon, random_set_k
    }
}

impl HeadroomInputs {
    /// The §4 roster at `transfers` transfers per client.
    pub fn new(seed: u64, transfers: u64) -> Self {
        HeadroomInputs {
            seed,
            roster: Roster::selection(),
            transfers,
            schedule: Schedule::selection_study().spread(transfers),
            session: SessionConfig::paper_defaults(),
            oracle_horizon: SimDuration::from_secs(1200),
            random_set_k: 10,
        }
    }

    /// Computes oracle/random-set/static improvements for every client,
    /// reporting into `tel` when given.
    pub fn run(&self, tel: Option<Arc<Telemetry>>) -> Vec<Headroom> {
        let (schedule, session) = (self.schedule, self.session);
        let scenario = self.roster.build(self.seed, true);
        scenario
            .clients
            .iter()
            .map(|&client| {
                let server = scenario.servers[0];

                // Oracle: hindsight-best whole-file rate at each instant.
                let mut oracle_net = scenario.network.clone();
                oracle_net.set_telemetry(tel.clone());
                let start = oracle_net.stats();
                let mut transport = SimTransport::new(oracle_net);
                let mut oracle_imps = Vec::new();
                for at in schedule.instants(SimTime::ZERO) {
                    {
                        use ir_core::Transport as _;
                        let target = at.max(transport.now());
                        transport.network_mut().advance_until(target);
                    }
                    let direct = transport.oracle_throughput(
                        &PathSpec::direct(client, server),
                        session.file_bytes,
                        self.oracle_horizon,
                    );
                    let best_indirect = scenario
                        .relays
                        .iter()
                        .filter_map(|&v| {
                            transport.oracle_throughput(
                                &PathSpec::indirect(client, server, v),
                                session.file_bytes,
                                self.oracle_horizon,
                            )
                        })
                        .fold(f64::NEG_INFINITY, f64::max);
                    if let Some(d) = direct {
                        if d > 0.0 && best_indirect.is_finite() {
                            let best = best_indirect.max(d);
                            oracle_imps.push((best - d) / d * 100.0);
                        }
                    }
                }

                if let Some(tel) = &tel {
                    fold_engine(tel, transport.engine_stats() - start);
                }

                // Policies under the real session protocol.
                let mean_of = |(records, _): (Vec<ir_core::TransferRecord>, _)| {
                    let v: Vec<f64> = records
                        .iter()
                        .map(|r| r.improvement_pct())
                        .filter(|x| x.is_finite())
                        .collect();
                    Summary::of(&v).map(|s| s.mean).unwrap_or(f64::NAN)
                };
                let random10 = mean_of(run_task(
                    &scenario,
                    scenario.network.clone(),
                    client,
                    server,
                    &scenario.relays,
                    Box::new(RandomSet::new(self.random_set_k, self.seed)),
                    schedule,
                    &session,
                    0,
                    tel.as_ref(),
                ));
                let static_single = mean_of(run_task(
                    &scenario,
                    scenario.network.clone(),
                    client,
                    server,
                    &scenario.relays[..1],
                    Box::new(StaticSingle(scenario.relays[0])),
                    schedule,
                    &session,
                    0,
                    tel.as_ref(),
                ));

                Headroom {
                    client: scenario.name(client).to_string(),
                    oracle_pct: Summary::of(&oracle_imps)
                        .map(|s| s.mean)
                        .unwrap_or(f64::NAN),
                    random10_pct: random10,
                    static_pct: static_single,
                }
            })
            .collect()
    }
}

/// Computes oracle/random-set/static improvements for every client of
/// the §4 scenario.
pub fn run(seed: u64, transfers: u64) -> Vec<Headroom> {
    HeadroomInputs::new(seed, transfers).run(None)
}

/// Builds the headroom report from precomputed (possibly
/// cache-restored) study results.
pub fn report_of(results: &[Headroom]) -> Report {
    let mut table = ir_stats::TextTable::new()
        .title("attainable vs captured improvement (%)")
        .header(["client", "oracle", "random set k=10", "static single"]);
    let mut rows = Vec::new();
    for r in results {
        table.row([
            r.client.clone(),
            format!("{:+.1}", r.oracle_pct),
            format!("{:+.1}", r.random10_pct),
            format!("{:+.1}", r.static_pct),
        ]);
        rows.push(vec![
            r.client.clone(),
            format!("{:.2}", r.oracle_pct),
            format!("{:.2}", r.random10_pct),
            format!("{:.2}", r.static_pct),
        ]);
    }

    let capture: Vec<f64> = results
        .iter()
        .filter(|r| r.oracle_pct > 0.0)
        .map(|r| r.random10_pct / r.oracle_pct)
        .collect();
    let mean_capture = Summary::of(&capture).map(|s| s.mean).unwrap_or(0.0);
    let ordered = results.iter().all(|r| r.random10_pct <= r.oracle_pct + 5.0);

    let mut body = table.render();
    body.push_str(&format!(
        "\nrandom-set k=10 captures {:.0}% of the oracle-attainable improvement on average\n",
        mean_capture * 100.0
    ));

    Report {
        id: "headroom",
        title: "Oracle headroom: attainable vs captured".into(),
        body,
        csv: vec![(
            "headroom".into(),
            csv(
                &["client", "oracle_pct", "random10_pct", "static_pct"],
                &rows,
            ),
        )],
        checks: vec![
            // Fig 6's qualitative claim, quantified: a random 10-subset
            // captures "most" of the attainable improvement.
            Check::banded(
                "k=10 capture of oracle (fraction)",
                0.9,
                mean_capture,
                0.5,
                1.1,
            ),
            Check::banded(
                "oracle upper-bounds the policy (0/1)",
                1.0,
                if ordered { 1.0 } else { 0.0 },
                1.0,
                1.0,
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headroom_report_orders_sensibly() {
        let r = report_of(&run(5, 8));
        assert!(r.render().contains("oracle"), "{}", r.render());
        // The oracle must not lose to the probing policy by any real
        // margin (it knows the future).
        assert!(r.all_pass(), "{}", r.render());
    }
}
