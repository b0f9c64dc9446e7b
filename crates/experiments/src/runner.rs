//! Study drivers.
//!
//! Two experiment geometries cover all nine artefacts:
//!
//! * the **measurement study** (§2.2, Figs 1–5 + Tables I–II): every
//!   (client, relay) pair runs a schedule of transfers with the static
//!   single-relay policy;
//! * the **selection study** (§4, Fig 6 + Table III): each client runs
//!   a schedule per random-set size k with the uniform random-set
//!   policy.
//!
//! Both parallelise over independent (client, relay/k) tasks. Tasks do
//! not interact: links are `PerFlow` and bandwidth processes are pure
//! functions of their seeds, so running each task on its own clone of
//! the scenario network is *exactly* equivalent to one shared world.
//! A clone shares the topology and every link's process with the
//! scenario, so a task costs the few links it touches, not the
//! roster's hundreds, and each link's timeline is drawn once for all
//! the tasks that read it.
//!
//! Metrics are a fold over what a task returns: when it ends, a task
//! adds its network's [`EngineStats`] delta and the `SessionTally` of
//! its sessions' records, stripe stats and counts to the registry, one
//! `add` per series. Nothing below the runner counts into it.

use ir_artifact::Unframed;
use ir_core::{
    run_session, PathCtx, PathSelector, PathSpec, RandomSet, SessionConfig, SessionCounts,
    SimTransport, StaticSingle, StripeStats, TransferRecord, Transport, UtilizationTracker,
};
use ir_simnet::faults::FaultPlan;
use ir_simnet::sim::{EngineStats, Network};
use ir_simnet::time::SimTime;
use ir_simnet::topology::NodeId;
use ir_telemetry::trace::{Event, EventKind};
use ir_telemetry::{Counter, Telemetry};
use ir_workload::roster::{self, ClientSite, RelaySite, ServerSite};
use ir_workload::{Calibration, ClientProfile, Scenario, Schedule};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Scale of a study run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Fast, for tests and iteration: fewer transfers per task.
    Quick,
    /// The paper's counts (100 transfers/pair; 720 per (client, k)).
    Paper,
}

impl Scale {
    /// Transfers per (client, relay) pair in the measurement study.
    pub fn measurement_transfers(self) -> u64 {
        match self {
            Scale::Quick => 15,
            Scale::Paper => 100,
        }
    }

    /// Transfers per (client, k) in the selection study.
    pub fn selection_transfers(self) -> u64 {
        match self {
            Scale::Quick => 100,
            Scale::Paper => 720,
        }
    }
}

/// One (client, relay) task's records.
#[derive(Debug, Clone)]
pub struct PairRun {
    /// The client.
    pub client: NodeId,
    /// The relay under test.
    pub via: NodeId,
    /// The destination server.
    pub server: NodeId,
    /// One record per scheduled transfer.
    pub records: Vec<TransferRecord>,
}
ir_artifact::declare! { Codec for struct PairRun { client, via, server, records } }

/// Results of the §2.2 measurement study.
pub struct MeasurementData {
    /// Node names for rendering.
    pub names: BTreeMap<NodeId, String>,
    /// Ground-truth client profiles (assertions/debugging only).
    pub profiles: BTreeMap<NodeId, ClientProfile>,
    /// Client ids in roster order.
    pub clients: Vec<NodeId>,
    /// Relay ids in roster order.
    pub relays: Vec<NodeId>,
    /// The server used.
    pub server: NodeId,
    /// Per-(client, relay) runs.
    pub pairs: Vec<PairRun>,
}
ir_artifact::declare! {
    Codec for struct MeasurementData { names, profiles, clients, relays, server, pairs }
}

impl MeasurementData {
    /// Iterates every record of the study.
    pub fn all_records(&self) -> impl Iterator<Item = &TransferRecord> {
        self.pairs.iter().flat_map(|p| p.records.iter())
    }

    /// Percent improvements of transfers where the indirect path was
    /// chosen — the population of Fig 1 (see DESIGN.md: the paper's
    /// §6 clarifies the 88%/12% split is over indirect-path transfers).
    pub fn indirect_improvements_pct(&self) -> Vec<f64> {
        self.all_records()
            .filter(|r| r.chose_indirect())
            .map(|r| r.improvement_pct())
            .filter(|v| v.is_finite())
            .collect()
    }

    /// Utilization bookkeeping over the whole study.
    pub fn utilization(&self) -> UtilizationTracker {
        let mut u = UtilizationTracker::new();
        for r in self.all_records() {
            u.observe(r);
        }
        u
    }

    /// Mean direct-path (control) throughput per client, bytes/sec —
    /// the paper's basis for Low/Medium/High categorisation.
    pub fn mean_direct_throughput(&self) -> BTreeMap<NodeId, f64> {
        let mut sums: BTreeMap<NodeId, (f64, u64)> = BTreeMap::new();
        for r in self.all_records() {
            if r.direct_throughput.is_finite() && r.direct_throughput > 0.0 {
                let e = sums.entry(r.client).or_insert((0.0, 0));
                e.0 += r.direct_throughput;
                e.1 += 1;
            }
        }
        sums.into_iter()
            .map(|(c, (s, n))| (c, s / n as f64))
            .collect()
    }

    /// Direct-path (control) throughput series per client, in schedule
    /// order — the basis of the variability classification.
    pub fn direct_series(&self) -> BTreeMap<NodeId, Vec<f64>> {
        let mut out: BTreeMap<NodeId, Vec<f64>> = BTreeMap::new();
        for p in &self.pairs {
            for r in &p.records {
                if r.direct_throughput.is_finite() && r.direct_throughput > 0.0 {
                    out.entry(r.client).or_default().push(r.direct_throughput);
                }
            }
        }
        out
    }

    /// Name of a node.
    pub fn name(&self, id: NodeId) -> &str {
        &self.names[&id]
    }
}

/// What a run's sessions returned beyond their records, summed: the
/// session series it folds into the metrics registry.
#[derive(Debug, Default)]
pub(crate) struct SessionTally {
    sessions: u64,
    /// Indirect paths the selector asked to probe, over every session.
    pub(crate) probe_paths: u64,
    unresolvable: u64,
    probe_races: u64,
    probe_timeouts: u64,
    path_switches: u64,
    failovers: u64,
    stall_retries: u64,
    abandoned: u64,
    chunks_completed: u64,
    chunks_reassigned: u64,
    path_deaths: u64,
    path_chunks: BTreeMap<PathSpec, u64>,
    wall_us: Vec<u64>,
}

impl SessionTally {
    /// Adds what one session returned.
    pub(crate) fn add(&mut self, rec: &TransferRecord, stripe: &StripeStats, n: &SessionCounts) {
        self.sessions += 1;
        self.probe_paths += n.probe_paths;
        self.unresolvable += n.unresolvable;
        self.probe_races += u64::from(n.raced);
        self.probe_timeouts += u64::from(rec.probe_timeout);
        self.path_switches += u64::from(n.switched);
        // A striped remainder records its path deaths as failovers;
        // they are `stripe_path_deaths` here.
        if stripe.per_path.is_empty() {
            self.failovers += u64::from(rec.failovers);
        }
        self.stall_retries += n.stall_retries;
        self.abandoned += u64::from(rec.abandoned);
        self.chunks_reassigned += u64::from(stripe.reassignments);
        self.path_deaths += u64::from(stripe.deaths);
        for p in stripe.per_path.iter().filter(|p| p.chunks > 0) {
            self.chunks_completed += p.chunks;
            *self.path_chunks.entry(p.path).or_default() += p.chunks;
        }
        self.wall_us.push(n.wall_us);
    }

    /// Folds the tally into `tel`'s registry, one `add` per series,
    /// the decision series labelled with `policy`. A series no session
    /// touched stays unregistered.
    pub(crate) fn fold(&self, tel: &Telemetry, policy: &str) {
        if self.sessions == 0 {
            return;
        }
        let m = &tel.metrics;
        let labels = vec![("policy", policy.to_string())];
        m.counter("policy_decisions", labels.clone())
            .add(self.sessions);
        m.counter("policy_probe_paths", labels)
            .add(self.probe_paths);
        m.counter("session_started", vec![]).add(self.sessions);
        m.counter("session_completed", vec![]).add(self.sessions);
        let wall = m.histogram("session_wall_us", vec![]);
        for &us in &self.wall_us {
            wall.record(us);
        }
        add_nonzero(self.probe_races, || {
            m.counter("session_probe_races", vec![])
        });
        add_nonzero(self.probe_timeouts, || {
            m.counter("session_probe_timeouts", vec![])
        });
        add_nonzero(self.path_switches, || {
            m.counter("session_path_switches", vec![])
        });
        add_nonzero(self.failovers, || m.counter("session_failovers", vec![]));
        add_nonzero(self.stall_retries, || {
            m.counter("session_stall_retries", vec![])
        });
        add_nonzero(self.abandoned, || m.counter("session_abandoned", vec![]));
        add_nonzero(self.unresolvable, || m.counter("path_unresolvable", vec![]));
        add_nonzero(self.chunks_completed, || {
            m.counter("stripe_chunks_completed", vec![])
        });
        add_nonzero(self.chunks_reassigned, || {
            m.counter("stripe_chunks_reassigned", vec![])
        });
        add_nonzero(self.path_deaths, || m.counter("stripe_path_deaths", vec![]));
        for (path, &n) in &self.path_chunks {
            m.counter("stripe_path_chunks", vec![("path", path.to_string())])
                .add(n);
        }
    }
}

/// `counter().add(n)`, registering the series only when `n > 0`.
fn add_nonzero(n: u64, counter: impl FnOnce() -> Counter) {
    if n > 0 {
        counter().add(n);
    }
}

/// Folds the engine work of a run's networks into `tel`'s registry,
/// one `add` per series.
pub(crate) fn fold_engine(tel: &Telemetry, work: EngineStats) {
    let m = &tel.metrics;
    m.counter("simnet_boundaries", vec![]).add(work.boundaries);
    m.counter("simnet_recomputes", vec![]).add(work.full_solves);
    m.counter("simnet_solve_skips", vec![])
        .add(work.incremental_solves);
    m.counter("simnet_partition_rebuilds", vec![])
        .add(work.partition_rebuilds);
    m.counter("simnet_component_solves", vec![])
        .add(work.component_solves);
    m.counter("simnet_flows_started", vec![])
        .add(work.flows_started);
    m.counter("simnet_flows_completed", vec![])
        .add(work.flows_completed);
    m.counter("simnet_flows_cancelled", vec![])
        .add(work.flows_cancelled);
    m.counter("simnet_faults_injected", vec![])
        .add(work.faults_injected);
}

/// Runs one scheduled task on `net` (the scenario network's clone): a
/// session per schedule instant. Returns the records and their tally;
/// with `tel`, the task folds its counts into it when it ends.
#[expect(
    clippy::too_many_arguments,
    reason = "one argument per sweep axis; a struct would churn every call site"
)]
pub(crate) fn run_task(
    scenario: &Scenario,
    mut net: Network,
    client: NodeId,
    server: NodeId,
    full_set: &[NodeId],
    mut policy: Box<dyn PathSelector>,
    schedule: Schedule,
    session: &SessionConfig,
    task_id: u64,
    tel: Option<&Arc<Telemetry>>,
) -> (Vec<TransferRecord>, SessionTally) {
    net.set_telemetry(tel.cloned());
    net.set_engine_mode(session.engine);
    let start = net.stats();
    let tracer = tel.and_then(|t| t.tracer.as_ref());
    let mut transport = SimTransport::new(net);
    let mut records = Vec::with_capacity(schedule.count as usize);
    let mut tally = SessionTally::default();
    for (i, at) in schedule.instants(SimTime::ZERO).enumerate() {
        // A session can overrun its slot (horizon > period); never move
        // the clock backwards.
        let target = at.max(transport.now());
        transport.network_mut().advance_until(target);
        let ctx = PathCtx {
            client,
            server,
            relays: full_set,
            topo: scenario.network.topology(),
            transfer_index: i as u64,
        };
        let (rec, stripe, counts) =
            run_session(&mut transport, policy.as_mut(), &ctx, session, tracer);
        tally.add(&rec, &stripe, &counts);
        records.push(rec);
    }
    if let Some(tel) = tel {
        fold_engine(tel, transport.engine_stats() - start);
        tally.fold(tel, policy.name());
        tel.metrics.counter("runner_tasks", vec![]).inc();
        tel.trace(|| {
            Event::span(
                EventKind::RunnerTask,
                0,
                transport.now().as_micros(),
                task_id,
            )
            .with_u64("client", client.0 as u64)
            .with_u64("transfers", records.len() as u64)
        });
    }
    (records, tally)
}

/// Public single-task runner: a schedule of sessions for one client
/// with an arbitrary policy. Useful for policy shoot-outs (see the
/// `random_set_tuning` example and the ablation benches).
pub fn run_task_with(
    scenario: &Scenario,
    client: NodeId,
    server: NodeId,
    full_set: &[NodeId],
    policy: Box<dyn PathSelector>,
    schedule: Schedule,
    session: &SessionConfig,
) -> Vec<TransferRecord> {
    run_task(
        scenario,
        scenario.network.clone(),
        client,
        server,
        full_set,
        policy,
        schedule,
        session,
        0,
        None,
    )
    .0
}

/// Worker-thread override for [`parallel_map`]-driven studies: 0 (the
/// default) means one worker per available core.
static WORKER_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Caps study parallelism at `n` OS threads (0 restores the default:
/// one per available core). Affects all subsequent study runs in this
/// process; thread count never changes study *results*, only wall time.
pub fn set_worker_threads(n: usize) {
    WORKER_THREADS.store(n, Ordering::Relaxed);
}

/// Worker count the study runner's parallel map will actually use for
/// `n` tasks under the current [`set_worker_threads`] setting: the
/// configured cap, or
/// one per available core when the setting is 0 (the default and the
/// restore value), never more than the task count and never 0.
#[expect(
    clippy::disallowed_methods,
    reason = "effective_worker_threads is the blessed single chokepoint for core counts (engine output is thread-count-invariant); the second site is its unit test"
)]
pub fn effective_worker_threads(n: usize) -> usize {
    let configured = WORKER_THREADS.load(Ordering::Relaxed);
    let workers = if configured > 0 {
        configured
    } else {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4)
    };
    workers.min(n.max(1))
}

/// Generic indexed parallel map over tasks. Deterministic: output `i`
/// corresponds to input `i` regardless of scheduling.
pub(crate) fn parallel_map<T: Send, F: Fn(usize) -> T + Sync>(n: usize, f: F) -> Vec<T> {
    let results: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    let next = AtomicUsize::new(0);
    let workers = effective_worker_threads(n);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = f(i);
                results.lock().expect("poisoned")[i] = Some(out);
            });
        }
    });
    results
        .into_inner()
        .expect("poisoned")
        .into_iter()
        .map(|o| o.expect("task completed"))
        .collect()
}

/// Runs the §2.2 measurement study on a scenario: every (client, relay)
/// pair, `schedule.count` transfers each, static single-relay policy,
/// first-to-finish probes.
pub fn run_measurement_study(
    scenario: &Scenario,
    server_index: usize,
    schedule: Schedule,
    session: SessionConfig,
) -> MeasurementData {
    run_measurement_study_traced(scenario, server_index, schedule, session, None)
}

/// [`run_measurement_study`] with an optional telemetry handle shared
/// by every task (simnet, session, and runner layers all report into
/// it). With `None` this is exactly the untraced study.
pub fn run_measurement_study_traced(
    scenario: &Scenario,
    server_index: usize,
    schedule: Schedule,
    session: SessionConfig,
    tel: Option<Arc<Telemetry>>,
) -> MeasurementData {
    let server = scenario.servers[server_index];
    let tasks: Vec<(NodeId, NodeId)> = scenario
        .clients
        .iter()
        .flat_map(|&c| scenario.relays.iter().map(move |&v| (c, v)))
        .collect();

    let pairs = parallel_map(tasks.len(), |i| {
        let (client, via) = tasks[i];
        let (records, _) = run_task(
            scenario,
            scenario.network.clone(),
            client,
            server,
            &[via],
            Box::new(StaticSingle(via)),
            schedule,
            &session,
            i as u64,
            tel.as_ref(),
        );
        PairRun {
            client,
            via,
            server,
            records,
        }
    });

    let topo = scenario.network.topology();
    let names = (0..topo.node_count() as u32)
        .map(|i| {
            let id = NodeId(i);
            (id, topo.node(id).name.clone())
        })
        .collect();

    MeasurementData {
        names,
        profiles: scenario.profiles.clone(),
        clients: scenario.clients.clone(),
        relays: scenario.relays.clone(),
        server,
        pairs,
    }
}

/// One (client, k) run of the selection study.
#[derive(Debug, Clone)]
pub struct SelectionRun {
    /// The client.
    pub client: NodeId,
    /// Random-set size.
    pub k: usize,
    /// One record per scheduled transfer.
    pub records: Vec<TransferRecord>,
}
ir_artifact::declare! { Codec for struct SelectionRun { client, k, records } }

/// Results of the §4 selection study.
pub struct SelectionData {
    /// Node names for rendering.
    pub names: BTreeMap<NodeId, String>,
    /// Client ids.
    pub clients: Vec<NodeId>,
    /// The relay pool (full set).
    pub relays: Vec<NodeId>,
    /// Runs, one per (client, k).
    pub runs: Vec<SelectionRun>,
}
ir_artifact::declare! { Codec for struct SelectionData { names, clients, relays, runs } }

impl SelectionData {
    /// Mean percent improvement for a (client, k) run, over **all**
    /// transfers (Fig 6's y-axis).
    pub fn mean_improvement_pct(&self, client: NodeId, k: usize) -> Option<f64> {
        let run = self.runs.iter().find(|r| r.client == client && r.k == k)?;
        let vals: Vec<f64> = run
            .records
            .iter()
            .map(|r| r.improvement_pct())
            .filter(|v| v.is_finite())
            .collect();
        ir_stats::Summary::of(&vals).map(|s| s.mean)
    }

    /// The run for a (client, k), if present.
    pub fn run(&self, client: NodeId, k: usize) -> Option<&SelectionRun> {
        self.runs.iter().find(|r| r.client == client && r.k == k)
    }

    /// Name of a node.
    pub fn name(&self, id: NodeId) -> &str {
        &self.names[&id]
    }

    /// All k values present, ascending.
    pub fn ks(&self) -> Vec<usize> {
        let mut ks: Vec<usize> = self.runs.iter().map(|r| r.k).collect();
        ks.sort_unstable();
        ks.dedup();
        ks
    }
}

/// The selection study's policy for its `(client, k)` task.
fn selection_policy(seed: u64, client: NodeId, k: usize) -> RandomSet {
    RandomSet::new(k, seed ^ ((client.0 as u64) << 32) ^ (k as u64))
}

/// Runs the §4 selection study: for every client and every `k`, a
/// schedule of transfers with the uniform random-set policy, each
/// session racing its probes over the whole set.
pub fn run_selection_study(
    scenario: &Scenario,
    ks: &[usize],
    schedule: Schedule,
    session: SessionConfig,
    seed: u64,
) -> SelectionData {
    run_selection_study_traced(scenario, ks, schedule, session, seed, None)
}

/// [`run_selection_study`] with an optional telemetry handle (see
/// [`run_measurement_study_traced`]).
pub fn run_selection_study_traced(
    scenario: &Scenario,
    ks: &[usize],
    schedule: Schedule,
    session: SessionConfig,
    seed: u64,
    tel: Option<Arc<Telemetry>>,
) -> SelectionData {
    // §4.1 starts a preliminary download on every node of the random
    // set; "which produces the best throughput" over the first x bytes
    // is the first to deliver them: the session's probe race. (Waiting
    // for every probe before deciding would gate the probe phase on
    // the slowest relay and invert the Fig 6 curve.)
    let server = scenario.servers[0];

    let tasks: Vec<(NodeId, usize)> = scenario
        .clients
        .iter()
        .flat_map(|&c| ks.iter().map(move |&k| (c, k)))
        .collect();

    let runs = parallel_map(tasks.len(), |i| {
        let (client, k) = tasks[i];
        let (records, _) = run_task(
            scenario,
            scenario.network.clone(),
            client,
            server,
            &scenario.relays,
            Box::new(selection_policy(seed, client, k)),
            schedule,
            &session,
            i as u64,
            tel.as_ref(),
        );
        SelectionRun { client, k, records }
    });

    let topo = scenario.network.topology();
    let names = (0..topo.node_count() as u32)
        .map(|i| {
            let id = NodeId(i);
            (id, topo.node(id).name.clone())
        })
        .collect();

    SelectionData {
        names,
        clients: scenario.clients.clone(),
        relays: scenario.relays.clone(),
        runs,
    }
}

/// A scenario's sites and calibration: what [`ir_workload::build`]
/// reads besides the seed and the Low/Medium pin.
#[derive(Debug, Clone)]
pub struct Roster {
    clients: Vec<ClientSite>,
    relays: Vec<RelaySite>,
    servers: Vec<ServerSite>,
    pub(crate) cal: Calibration,
}
ir_artifact::declare! { StableHash for struct Roster { clients, relays, servers, cal } }

impl Roster {
    /// The §2.2 roster (22 clients × 21 relays × 4 sites), default
    /// calibration.
    pub fn planetlab() -> Roster {
        Roster {
            clients: roster::CLIENTS.to_vec(),
            relays: roster::INTERMEDIATES.to_vec(),
            servers: roster::SERVERS.to_vec(),
            cal: Calibration::default(),
        }
    }

    /// The §4 roster (3 clients × 35 relays × eBay), default calibration.
    pub fn selection() -> Roster {
        Roster {
            clients: roster::SELECTION_CLIENTS.to_vec(),
            relays: roster::selection_relays(),
            servers: roster::SERVERS[..1].to_vec(),
            cal: Calibration::default(),
        }
    }

    /// The first `clients` × `relays` × `servers` sites of this roster.
    pub fn first(mut self, clients: usize, relays: usize, servers: usize) -> Roster {
        self.clients.truncate(clients);
        self.relays.truncate(relays);
        self.servers.truncate(servers);
        self
    }

    /// The scenario on this roster (see [`ir_workload::build`]).
    pub fn build(&self, seed: u64, force_low_med: bool) -> Scenario {
        let (clients, relays, servers) = (&self.clients, &self.relays, &self.servers);
        ir_workload::build(seed, clients, relays, servers, self.cal, force_low_med)
    }
}

/// What a measurement study runs on, its fields in the order its cache
/// key hashes them: the scenario (seed, roster, Low/Medium pin), the
/// server every pair fetches from, the schedule per pair, the session,
/// and the fault plan the network carries (none, or the CLI's
/// `--faults` draw).
#[derive(Debug, Clone)]
pub struct MeasurementInputs {
    seed: u64,
    pub(crate) roster: Roster,
    force_low_med: bool,
    server_index: usize,
    pub(crate) schedule: Schedule,
    pub(crate) session: SessionConfig,
    pub(crate) faults: Unframed<FaultPlan>,
}
ir_artifact::declare! {
    StableHash for struct MeasurementInputs {
        seed, roster, force_low_med, server_index, schedule, session, faults
    }
}

impl MeasurementInputs {
    /// The §2.2 study at a scale: the full roster against server 0 with
    /// default session parameters (x = 100 KB, n = 2 MB), no faults.
    pub fn new(seed: u64, scale: Scale) -> Self {
        MeasurementInputs {
            seed,
            roster: Roster::planetlab(),
            force_low_med: false,
            server_index: 0,
            schedule: Schedule::measurement_study().spread(scale.measurement_transfers()),
            session: SessionConfig::paper_defaults(),
            faults: Unframed::default(),
        }
    }

    /// The scenario the study runs on, its fault plan installed.
    pub fn scenario(&self) -> Scenario {
        let mut scenario = self.roster.build(self.seed, self.force_low_med);
        for plan in &self.faults.0 {
            scenario.network.set_fault_plan(plan);
        }
        scenario
    }

    /// Runs the study, reporting into `tel` when given.
    pub fn run(&self, tel: Option<Arc<Telemetry>>) -> MeasurementData {
        let (schedule, session) = (self.schedule, self.session);
        run_measurement_study_traced(&self.scenario(), self.server_index, schedule, session, tel)
    }
}

/// What a selection study runs on, in key order: the scenario (seed,
/// roster, Low/Medium pin), the random-set sizes run per client, the
/// schedule per (client, k), and the session. The seed also seeds each
/// task's policy.
#[derive(Debug, Clone)]
pub struct SelectionInputs {
    seed: u64,
    roster: Roster,
    force_low_med: bool,
    ks: Vec<usize>,
    schedule: Schedule,
    session: SessionConfig,
}
ir_artifact::declare! {
    StableHash for struct SelectionInputs { seed, roster, force_low_med, ks, schedule, session }
}

impl SelectionInputs {
    /// The §4 study at a scale over the random-set sizes `ks`.
    pub fn new(seed: u64, scale: Scale, ks: &[usize]) -> Self {
        SelectionInputs {
            seed,
            roster: Roster::selection(),
            force_low_med: true,
            ks: ks.to_vec(),
            schedule: Schedule::selection_study().spread(scale.selection_transfers()),
            session: SessionConfig::paper_defaults(),
        }
    }

    /// Runs the study, reporting into `tel` when given.
    pub fn run(&self, tel: Option<Arc<Telemetry>>) -> SelectionData {
        let scenario = self.roster.build(self.seed, self.force_low_med);
        let (schedule, session) = (self.schedule, self.session);
        run_selection_study_traced(&scenario, &self.ks, schedule, session, self.seed, tel)
    }
}

/// The measurement study at a given scale (see [`MeasurementInputs::new`]).
pub fn measurement_study_default(seed: u64, scale: Scale) -> MeasurementData {
    MeasurementInputs::new(seed, scale).run(None)
}

/// The selection study at a given scale.
pub fn selection_study_default(seed: u64, scale: Scale, ks: &[usize]) -> SelectionData {
    SelectionInputs::new(seed, scale, ks).run(None)
}

/// The k sweep used by Fig 6 (a subsample of 1..=35 that brackets the
/// paper's knee at k ≈ 10).
pub const FIG6_KS: &[usize] = &[1, 2, 3, 5, 7, 10, 15, 20, 25, 30, 35];

#[cfg(test)]
mod tests {
    use super::*;
    use ir_core::PathSpec;

    /// `set_worker_threads(0)` must restore the available-parallelism
    /// default — not panic, and not pin the pool to 0 workers.
    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "effective_worker_threads is the blessed single chokepoint for core counts (engine output is thread-count-invariant); the second site is its unit test"
    )]
    fn worker_threads_zero_restores_available_parallelism() {
        let default = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4);
        set_worker_threads(2);
        assert_eq!(effective_worker_threads(64), 2);
        set_worker_threads(0);
        assert_eq!(effective_worker_threads(64), default.min(64));
        // Even a degenerate task count yields at least one worker.
        assert!(effective_worker_threads(0) >= 1);
        // And the pool actually runs with the restored default.
        let out = parallel_map(8, |i| i * 2);
        assert_eq!(out, (0..8).map(|i| i * 2).collect::<Vec<_>>());
    }

    fn tiny_scenario() -> Scenario {
        // 3 clients × 4 relays × 1 server keeps unit tests fast.
        ir_workload::build(
            9,
            &ir_workload::roster::CLIENTS[..3],
            &ir_workload::roster::INTERMEDIATES[..4],
            &ir_workload::roster::SERVERS[..1],
            ir_workload::Calibration::default(),
            false,
        )
    }

    #[test]
    fn measurement_study_produces_expected_counts() {
        let sc = tiny_scenario();
        let schedule = Schedule::measurement_study().truncated(4);
        let data = run_measurement_study(&sc, 0, schedule, SessionConfig::paper_defaults());
        assert_eq!(data.pairs.len(), 3 * 4);
        assert!(data.pairs.iter().all(|p| p.records.len() == 4));
        // Every record has a positive control throughput.
        for r in data.all_records() {
            assert!(r.direct_throughput > 0.0, "{r:?}");
        }
    }

    #[test]
    fn measurement_study_is_deterministic() {
        let a = {
            let sc = tiny_scenario();
            let d = run_measurement_study(
                &sc,
                0,
                Schedule::measurement_study().truncated(3),
                SessionConfig::paper_defaults(),
            );
            d.all_records().map(|r| r.improvement()).collect::<Vec<_>>()
        };
        let b = {
            let sc = tiny_scenario();
            let d = run_measurement_study(
                &sc,
                0,
                Schedule::measurement_study().truncated(3),
                SessionConfig::paper_defaults(),
            );
            d.all_records().map(|r| r.improvement()).collect::<Vec<_>>()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn selection_study_produces_expected_counts() {
        let sc = tiny_scenario();
        let schedule = Schedule::selection_study().truncated(5);
        let data = run_selection_study(&sc, &[1, 2], schedule, SessionConfig::paper_defaults(), 7);
        assert_eq!(data.runs.len(), 3 * 2);
        assert_eq!(data.ks(), vec![1, 2]);
        let c0 = data.clients[0];
        assert!(data.mean_improvement_pct(c0, 1).is_some());
        assert!(data.run(c0, 3).is_none());
        // Candidate-set sizes honour k.
        for run in &data.runs {
            for r in &run.records {
                assert_eq!(r.candidates.len(), run.k.min(4));
            }
        }
    }

    /// The headroom study's oracle look-ahead.
    fn oracle_horizon() -> ir_simnet::time::SimDuration {
        ir_simnet::time::SimDuration::from_secs(1200)
    }

    /// `SimTransport::oracle_throughput` at `at` on a network built
    /// independently of every other.
    fn independent_oracle(at: SimTime, path: &PathSpec, bytes: u64) -> Option<f64> {
        let mut replica = tiny_scenario().network;
        replica.advance_until(at);
        SimTransport::new(replica).oracle_throughput(path, bytes, oracle_horizon())
    }

    /// Clones sharing their scenario's processes against networks built
    /// independently from the same seed: every measurement task, the
    /// selection study and one client's headroom oracle agree bit for
    /// bit.
    #[test]
    fn shared_clones_match_independent_builds() {
        let sc = tiny_scenario();
        let session = SessionConfig::paper_defaults();
        let server = sc.servers[0];

        let schedule = Schedule::measurement_study().truncated(3);
        let shared = run_measurement_study(&sc, 0, schedule, session);
        for (i, pair) in shared.pairs.iter().enumerate() {
            let deep = run_task(
                &sc,
                tiny_scenario().network,
                pair.client,
                server,
                &[pair.via],
                Box::new(StaticSingle(pair.via)),
                schedule,
                &session,
                i as u64,
                None,
            )
            .0;
            assert_eq!(pair.records, deep, "measurement task {i}");
        }

        let schedule = Schedule::selection_study().truncated(4);
        let shared = run_selection_study(&sc, &[1, 4], schedule, session, 7);
        for run in &shared.runs {
            let deep = run_task(
                &sc,
                tiny_scenario().network,
                run.client,
                server,
                &sc.relays,
                Box::new(selection_policy(7, run.client, run.k)),
                schedule,
                &session,
                0,
                None,
            )
            .0;
            assert_eq!(
                run.records, deep,
                "selection task ({:?}, {})",
                run.client, run.k
            );
        }

        let (client, horizon) = (sc.clients[0], oracle_horizon());
        let indirect = sc
            .relays
            .iter()
            .map(|&v| PathSpec::indirect(client, server, v));
        let paths: Vec<PathSpec> = std::iter::once(PathSpec::direct(client, server))
            .chain(indirect)
            .collect();
        let mut transport = SimTransport::new(sc.network.clone());
        let mut finished = 0;
        for at in schedule.instants(SimTime::ZERO) {
            transport.network_mut().advance_until(at);
            for p in &paths {
                let a = transport.oracle_throughput(p, session.file_bytes, horizon);
                let b = independent_oracle(at, p, session.file_bytes);
                assert_eq!(
                    a.map(f64::to_bits),
                    b.map(f64::to_bits),
                    "oracle on {p} at {at:?}"
                );
                finished += a.is_some() as u32;
            }
        }
        assert!(finished > 0, "no oracle transfer finished");
    }

    #[test]
    fn utilization_tracks_choices() {
        let sc = tiny_scenario();
        let data = run_measurement_study(
            &sc,
            0,
            Schedule::measurement_study().truncated(5),
            SessionConfig::paper_defaults(),
        );
        let u = data.utilization();
        // Every (client, via) pair appeared exactly 5 times.
        for p in &data.pairs {
            assert_eq!(u.appeared_count(p.client, p.via), 5);
        }
    }

    /// `cfg.mode` reaches the sweep path: a striped config handed to the
    /// measurement runner stripes every session (at the parent
    /// `run_task` raced it without a word).
    #[test]
    fn striped_mode_is_honoured_by_the_measurement_runner() {
        let sc = tiny_scenario();
        let mut session = SessionConfig::paper_defaults();
        session.mode = ir_core::SessionMode::Striped {
            chunks: 4,
            k: 2,
            rebalance: ir_core::RebalanceConfig::paper_defaults(),
        };
        let tel = Arc::new(Telemetry::metrics_only());
        let (records, _) = run_task(
            &sc,
            sc.network.clone(),
            sc.clients[0],
            sc.servers[0],
            &sc.relays,
            Box::new(ir_core::FullSet),
            Schedule::measurement_study().truncated(3),
            &session,
            0,
            Some(&tel),
        );
        assert_eq!(records.len(), 3);
        // k = 2 of the four relays were asked for, probed and recorded.
        assert!(records.iter().all(|r| r.candidates.len() == 2));
        let snap = tel.metrics.snapshot();
        assert_eq!(snap.counter("stripe_chunks_completed", &vec![]), Some(12));
        let labels = vec![("policy", "full-set".to_string())];
        assert_eq!(snap.counter("policy_probe_paths", &labels), Some(6));
        let (c, srv) = (sc.clients[0], sc.servers[0]);
        let roster = std::iter::once(ir_core::PathSpec::direct(c, srv)).chain(
            sc.relays[..2]
                .iter()
                .map(|&v| ir_core::PathSpec::indirect(c, srv, v)),
        );
        let carrying = roster
            .filter(|p| {
                snap.counter("stripe_path_chunks", &vec![("path", p.to_string())])
                    .is_some_and(|n| n > 0)
            })
            .count();
        assert!(carrying >= 2, "chunks landed on {carrying} path(s)");
    }

    #[test]
    fn traced_study_matches_untraced_and_emits_runner_spans() {
        let schedule = || Schedule::measurement_study().truncated(3);
        let plain = {
            let sc = tiny_scenario();
            run_measurement_study(&sc, 0, schedule(), SessionConfig::paper_defaults())
        };
        let tel = Arc::new(Telemetry::new());
        let traced = {
            let sc = tiny_scenario();
            run_measurement_study_traced(
                &sc,
                0,
                schedule(),
                SessionConfig::paper_defaults(),
                Some(Arc::clone(&tel)),
            )
        };
        // Telemetry is observational: record-for-record identical.
        assert_eq!(plain.pairs.len(), traced.pairs.len());
        for (p, t) in plain.pairs.iter().zip(traced.pairs.iter()) {
            assert_eq!(p.records, t.records);
        }
        // One runner span per (client, relay) task, and the layers
        // below reported through the same handle.
        let snap = tel.metrics.snapshot();
        assert_eq!(
            snap.counter("runner_tasks", &vec![]),
            Some(plain.pairs.len() as u64)
        );
        let sessions = plain.pairs.len() as u64 * 3;
        assert_eq!(snap.counter("session_completed", &vec![]), Some(sessions));
        let events = tel.tracer.as_ref().unwrap().snapshot();
        assert!(events
            .iter()
            .any(|e| e.kind == ir_telemetry::trace::EventKind::RunnerTask));
    }
}
