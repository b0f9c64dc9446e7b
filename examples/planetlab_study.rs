//! The paper's §2.2 measurement study, end to end.
//!
//! Rebuilds the PlanetLab deployment (22 international clients, 21 US
//! relays, four web sites), runs the probe/select protocol on a
//! schedule, and prints the Fig 1 histogram, Table I penalty statistics
//! and Fig 5 utilizations with the paper's numbers alongside.
//!
//! ```text
//! cargo run --release --example planetlab_study [seed]
//! ```

use indirect_routing::experiments::{fig1, fig5, measurement_study_default, table1, Scale};

#[expect(
    clippy::disallowed_methods,
    reason = "reports the study's wall-clock run time on stderr; every printed table is a function of the seed"
)]
fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2007);
    eprintln!("running the §2.2 measurement study (seed {seed})...");
    let t0 = std::time::Instant::now();
    let data = measurement_study_default(seed, Scale::Quick);
    eprintln!(
        "{} transfers simulated in {:.1}s\n",
        data.all_records().count(),
        t0.elapsed().as_secs_f64()
    );

    for report in [
        fig1::report(&data),
        table1::report(&data),
        fig5::report(&data),
    ] {
        println!("{}\n", report.render());
    }
}
