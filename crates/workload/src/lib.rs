//! `ir-workload` — PlanetLab-like scenarios for the indirect-routing
//! study.
//!
//! * [`roster`] — the paper's node names and domains (Appendix Tables
//!   IV/V), the §4 extras, and the four destination web sites.
//! * [`category`] — §2.2's Low/Medium/High throughput bands and the
//!   stable/variable split used by Table I's filters.
//! * [`scenario`] — builds a calibrated simulated network:
//!   [`scenario::planetlab_study`] (§2.2: 22 clients × 21 relays × 4
//!   servers) and [`scenario::selection_study`] (§4: 3 clients × 35
//!   relays × eBay).
//! * [`schedule`] — the §2.2 (6 min × 100) and §4.2 (30 s × 720)
//!   transfer schedules.
//! * [`calfile`] — `key = value` load/save for [`Calibration`], so
//!   calibration sweeps need no recompile.

pub mod calfile;
pub mod category;
pub mod faults;
pub mod roster;
pub mod scenario;
pub mod schedule;

pub use calfile::{from_kv, to_kv};
pub use category::{Category, Variability, MBPS};
pub use faults::overlay_fault_plan;
pub use scenario::{build, planetlab_study, selection_study, Calibration, ClientProfile, Scenario};
pub use schedule::Schedule;
