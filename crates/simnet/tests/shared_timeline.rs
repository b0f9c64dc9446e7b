//! Sharing canary: every clone of a network extends one timeline per
//! link, however many clones query it and on whichever thread.
//!
//! Eight clones of one network each run the same task, four per
//! thread, in a seeded interleaving of their boundary steps. Each
//! link's process is a test-local generator that counts the segments
//! it draws and logs every answer it gives, tagged with the clone that
//! asked. The clones together must draw exactly the segments one task
//! draws on its own (a copied process would draw them once per clone),
//! and each clone must see, query for query, the answers an
//! independently built network gave its own run of the task.

use ir_simnet::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

const CLONES: usize = 8;
/// The clone tag of the independently built reference run.
const REFERENCE: usize = usize::MAX;

thread_local! {
    /// The clone the current thread is stepping.
    static ASKER: Cell<usize> = const { Cell::new(REFERENCE) };
}

/// One answer a process gave.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Answer {
    Rate(SimTime, u64),
    Next(SimTime, Option<SimTime>),
}

/// Every answer of one world's processes: (asker, link, answer).
type Log = Arc<Mutex<Vec<(usize, u32, Answer)>>>;

/// Exponential holds (mean 200 ms) at uniform rates: a lazily drawn
/// timeline that counts its segments and logs its answers.
#[derive(Clone)]
struct Counted {
    link: u32,
    rng: StdRng,
    starts: Vec<SimTime>,
    rates: Vec<f64>,
    drawn: Arc<AtomicU64>,
    log: Log,
}

impl Counted {
    fn new(link: u32, drawn: Arc<AtomicU64>, log: Log) -> Self {
        let mut rng = StdRng::seed_from_u64(0x5EED ^ link as u64);
        let first = rng.gen_range(2e4..4e5);
        Counted {
            link,
            rng,
            starts: vec![SimTime::ZERO],
            rates: vec![first],
            drawn,
            log,
        }
    }

    /// Draws segments until one starts after `t`.
    fn ensure(&mut self, t: SimTime) {
        while *self.starts.last().unwrap() <= t {
            let hold = -0.2 * (1.0 - self.rng.gen::<f64>()).ln();
            let hold = SimDuration::from_micros((hold * 1e6) as u64 + 1);
            let start = *self.starts.last().unwrap() + hold;
            self.starts.push(start);
            self.rates.push(self.rng.gen_range(2e4..4e5));
            self.drawn.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn note(&self, answer: Answer) {
        let asker = ASKER.with(Cell::get);
        self.log.lock().unwrap().push((asker, self.link, answer));
    }
}

impl BandwidthProcess for Counted {
    fn rate_at(&mut self, t: SimTime) -> f64 {
        self.ensure(t);
        let rate = self.rates[self.starts.partition_point(|&s| s <= t) - 1];
        self.note(Answer::Rate(t, rate.to_bits()));
        rate
    }

    fn next_change_after(&mut self, t: SimTime) -> Option<SimTime> {
        self.ensure(t);
        let next = self.starts.get(self.starts.partition_point(|&s| s <= t));
        self.note(Answer::Next(t, next.copied()));
        next.copied()
    }

    fn clone_box(&self) -> Box<dyn BandwidthProcess> {
        Box::new(self.clone())
    }
}

/// A direct link and a two-hop overlay route between client and
/// server, every link on its own counted process; the counters and the
/// log are the world's.
fn world() -> (Network, [Route; 2], Vec<Arc<AtomicU64>>, Log) {
    let mut t = Topology::new();
    let c = t.add_node("c", NodeKind::Client);
    let m = t.add_node("m", NodeKind::Intermediate);
    let s = t.add_node("s", NodeKind::Server);
    t.add_link(c, s, SimDuration::from_millis(40));
    t.add_link(c, m, SimDuration::from_millis(20));
    t.add_link(m, s, SimDuration::from_millis(10));
    let routes = [t.route(&[c, s]).unwrap(), t.route(&[c, m, s]).unwrap()];
    let mut net = Network::new(t, 1.0);
    let log = Log::default();
    let drawn: Vec<Arc<AtomicU64>> = (0..3).map(|_| Arc::default()).collect();
    for (l, n) in drawn.iter().enumerate() {
        let p = Counted::new(l as u32, n.clone(), log.clone());
        net.set_link_process(LinkId(l as u32), Box::new(p));
    }
    (net, routes, drawn, log)
}

/// One task: a 2 MB flow down each route, then one more down the
/// overlay once the first two are done.
struct Task {
    net: Network,
    routes: [Route; 2],
    done: Vec<CompletedFlow>,
    second: bool,
}

impl Task {
    fn new(mut net: Network, routes: [Route; 2]) -> Task {
        for r in &routes {
            net.start_flow(r.clone(), 2_000_000, Box::new(NoCap));
        }
        Task {
            net,
            routes,
            done: Vec::new(),
            second: false,
        }
    }

    fn finished(&self) -> bool {
        self.second && self.done.len() == 3
    }

    /// One boundary step; false once the task is over.
    fn step(&mut self) -> bool {
        if self.finished() {
            return false;
        }
        if self.done.len() == 2 && !self.second {
            let overlay = self.routes[1].clone();
            self.net.start_flow(overlay, 2_000_000, Box::new(NoCap));
            self.second = true;
        }
        let horizon = SimTime::from_secs(3600);
        self.done.extend(self.net.step_boundary(horizon));
        assert!(self.net.now() < horizon, "the task never finished");
        true
    }
}

/// The answers `asker` got from `link`'s process, in order.
fn answers_of(log: &Log, asker: usize, link: u32) -> Vec<Answer> {
    let log = log.lock().unwrap();
    let asked = log.iter().filter(|(a, l, _)| *a == asker && *l == link);
    asked.map(|&(_, _, answer)| answer).collect()
}

#[test]
fn clones_draw_each_segment_once_and_see_an_independent_timeline() {
    // The reference: an independently built world runs the task alone.
    let (net, routes, ref_drawn, ref_log) = world();
    let mut reference = Task::new(net, routes);
    while reference.step() {}
    let one_task: Vec<u64> = ref_drawn
        .iter()
        .map(|n| n.load(Ordering::Relaxed))
        .collect();
    assert!(
        one_task.iter().all(|&n| n > 20),
        "too short a timeline: {one_task:?}"
    );

    // Eight clones of one donor, dealt to two threads in seeded order.
    let (donor, routes, drawn, log) = world();
    let mut rng = StdRng::seed_from_u64(2007);
    let mut order: Vec<usize> = (0..CLONES).collect();
    for i in (1..CLONES).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let go = Barrier::new(2);
    let results: Vec<(usize, Vec<CompletedFlow>)> = std::thread::scope(|s| {
        let handles: Vec<_> = order
            .chunks(CLONES / 2)
            .enumerate()
            .map(|(thread, ids)| {
                let mut tasks: Vec<(usize, Task)> = ids
                    .iter()
                    .map(|&id| (id, Task::new(donor.clone(), routes.clone())))
                    .collect();
                let (go, seed) = (&go, rng.gen::<u64>() ^ thread as u64);
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed);
                    go.wait();
                    while tasks.iter().any(|(_, t)| !t.finished()) {
                        let pick = rng.gen_range(0..tasks.len());
                        let (id, task) = &mut tasks[pick];
                        ASKER.with(|a| a.set(*id));
                        task.step();
                    }
                    let done = tasks.into_iter().map(|(id, t)| (id, t.done));
                    done.collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });

    assert_eq!(results.len(), CLONES);
    for (id, done) in &results {
        assert_eq!(done, &reference.done, "clone {id}'s flows");
    }
    let shared: Vec<u64> = drawn.iter().map(|n| n.load(Ordering::Relaxed)).collect();
    assert_eq!(
        shared, one_task,
        "segments drawn by {CLONES} clones vs by one task alone"
    );
    for link in 0..3 {
        let expected = answers_of(&ref_log, REFERENCE, link);
        for id in 0..CLONES {
            let got = answers_of(&log, id, link);
            assert_eq!(got, expected, "clone {id}'s answers on link {link}");
        }
    }
}
