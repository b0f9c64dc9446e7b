//! The paper's node roster (Appendix Tables IV and V).
//!
//! Names and domains are reproduced verbatim from the paper. The §4
//! selection study used 35 intermediates but the appendix lists only
//! 21; the 8 extra university sites named in Table III are included,
//! and the remaining 6 are synthesized (marked `synthesized: true`) to
//! reach the paper's 35 — they are statistically indistinguishable
//! members of the pool.

/// A client site: paper row, name, domain, and a one-way latency to the
/// continental US in milliseconds (calibrated from the site's
/// geography; the paper does not publish RTTs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientSite {
    /// Country label used throughout the paper's tables.
    pub name: &'static str,
    /// PlanetLab domain name (Table IV).
    pub domain: &'static str,
    /// One-way latency to the continental US, ms.
    pub us_latency_ms: u64,
}
ir_artifact::declare! { StableHash for struct ClientSite { name, domain, us_latency_ms } }

/// An intermediate (relay) site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelaySite {
    /// University label used in the paper's tables.
    pub name: &'static str,
    /// PlanetLab domain name (Table V) or a synthesized one.
    pub domain: &'static str,
    /// True for the 6 pool-filler sites not named anywhere in the paper.
    pub synthesized: bool,
}
ir_artifact::declare! { StableHash for struct RelaySite { name, domain, synthesized } }

/// A destination web site (§2.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerSite {
    /// Site label.
    pub name: &'static str,
    /// Relative scale of direct-path rates to this site (the paper's
    /// per-site improvement spread, 33–49%, implies the sites differ;
    /// eBay's data set — the paper's focus — sits at the slow end).
    pub rate_factor: f64,
}
ir_artifact::declare! { StableHash for struct ServerSite { name, rate_factor } }

/// The 22 international client nodes of Table IV.
pub const CLIENTS: &[ClientSite] = &[
    ClientSite {
        name: "Australia 1",
        domain: "plnode02.cs.mu.oz.au",
        us_latency_ms: 100,
    },
    ClientSite {
        name: "Australia 2",
        domain: "planet-lab-1.csse.monash.edu.au",
        us_latency_ms: 105,
    },
    ClientSite {
        name: "Beirut",
        domain: "planetlab1.aub.edu.lb",
        us_latency_ms: 95,
    },
    ClientSite {
        name: "Berlin",
        domain: "planetlab1.info.ucl.ac.be",
        us_latency_ms: 60,
    },
    ClientSite {
        name: "Brazil",
        domain: "planetlab2.lsd.ufcg.edu.br",
        us_latency_ms: 85,
    },
    ClientSite {
        name: "Canada",
        domain: "planetlab1.enel.ucalgary.ca",
        us_latency_ms: 30,
    },
    ClientSite {
        name: "Denmark",
        domain: "planetlab2.diku.dk",
        us_latency_ms: 62,
    },
    ClientSite {
        name: "Finland",
        domain: "planetlab2.hiit.fi",
        us_latency_ms: 70,
    },
    ClientSite {
        name: "France",
        domain: "planetlab2.eurecom.fr",
        us_latency_ms: 55,
    },
    ClientSite {
        name: "Greece",
        domain: "planetlab1.cslab.ece.ntua.gr",
        us_latency_ms: 75,
    },
    ClientSite {
        name: "Iceland",
        domain: "planetlab1.ru.is",
        us_latency_ms: 50,
    },
    ClientSite {
        name: "India",
        domain: "planetlab1.iiitb.ac.in",
        us_latency_ms: 115,
    },
    ClientSite {
        name: "Israel",
        domain: "planetlab2.bgu.ac.il",
        us_latency_ms: 82,
    },
    ClientSite {
        name: "Italy",
        domain: "planetlab1.polito.it",
        us_latency_ms: 60,
    },
    ClientSite {
        name: "Korea",
        domain: "arari.snu.ac.kr",
        us_latency_ms: 80,
    },
    ClientSite {
        name: "Norway",
        domain: "planetlab1.ifi.uio.no",
        us_latency_ms: 65,
    },
    ClientSite {
        name: "Russia",
        domain: "planet-lab.iki.rssi.ru",
        us_latency_ms: 88,
    },
    ClientSite {
        name: "Singapore",
        domain: "soccf-planet-001.comp.nus.edu.sg",
        us_latency_ms: 108,
    },
    ClientSite {
        name: "Sweden",
        domain: "planetlab1.sics.se",
        us_latency_ms: 66,
    },
    ClientSite {
        name: "Switzerland",
        domain: "planetlab02.ethz.ch",
        us_latency_ms: 58,
    },
    ClientSite {
        name: "Taiwan",
        domain: "ent1.cs.nccu.edu.tw",
        us_latency_ms: 92,
    },
    ClientSite {
        name: "UK",
        domain: "planetlab1.rn.informatics.scitech.susx.ac.uk",
        us_latency_ms: 45,
    },
];

/// The 21 US intermediate nodes of Table V.
pub const INTERMEDIATES: &[RelaySite] = &[
    RelaySite {
        name: "CMU",
        domain: "planetlab-2.cmcl.cs.cmu.edu",
        synthesized: false,
    },
    RelaySite {
        name: "Berkeley",
        domain: "planetlab1.millennium.berkeley.edu",
        synthesized: false,
    },
    RelaySite {
        name: "Caltech",
        domain: "planlab1.cs.caltech.edu",
        synthesized: false,
    },
    RelaySite {
        name: "Columbia",
        domain: "planetlab1.comet.columbia.edu",
        synthesized: false,
    },
    RelaySite {
        name: "Duke",
        domain: "planetlab1.cs.duke.edu",
        synthesized: false,
    },
    RelaySite {
        name: "Georgia Tech",
        domain: "planet.cc.gt.atl.ga.us",
        synthesized: false,
    },
    RelaySite {
        name: "Harvard",
        domain: "lefthand.eecs.harvard.edu",
        synthesized: false,
    },
    RelaySite {
        name: "Michigan",
        domain: "planetlab1.eecs.umich.edu",
        synthesized: false,
    },
    RelaySite {
        name: "MIT",
        domain: "planetlab1.csail.mit.edu",
        synthesized: false,
    },
    RelaySite {
        name: "Notre Dame",
        domain: "planetlab1.cse.nd.edu",
        synthesized: false,
    },
    RelaySite {
        name: "NYU",
        domain: "planet1.scs.cs.nyu.edu",
        synthesized: false,
    },
    RelaySite {
        name: "Princeton",
        domain: "planetlab-1.cs.princeton.edu",
        synthesized: false,
    },
    RelaySite {
        name: "Rice",
        domain: "ricepl-1.cs.rice.edu",
        synthesized: false,
    },
    RelaySite {
        name: "Stanford",
        domain: "planetlab-1.stanford.edu",
        synthesized: false,
    },
    RelaySite {
        name: "Texas",
        domain: "planetlab1.csres.utexas.edu",
        synthesized: false,
    },
    RelaySite {
        name: "UCLA",
        domain: "planetlab2.cs.ucla.edu",
        synthesized: false,
    },
    RelaySite {
        name: "UCSD",
        domain: "planetlab2.ucsd.edu",
        synthesized: false,
    },
    RelaySite {
        name: "UIUC",
        domain: "planetlab1.cs.uiuc.edu",
        synthesized: false,
    },
    RelaySite {
        name: "Upenn",
        domain: "planetlab1.cis.upenn.edu",
        synthesized: false,
    },
    RelaySite {
        name: "Washington",
        domain: "planetlab01.cs.washington.edu",
        synthesized: false,
    },
    RelaySite {
        name: "Wisconsin",
        domain: "planetlab1.cs.wisc.edu",
        synthesized: false,
    },
];

/// The additional intermediates of the §4 selection study: the 8 named
/// in Table III plus 6 synthesized fillers reaching the paper's 35.
pub const EXTRA_INTERMEDIATES: &[RelaySite] = &[
    RelaySite {
        name: "Northwestern",
        domain: "planetlab1.cs.northwestern.edu",
        synthesized: false,
    },
    RelaySite {
        name: "Minnesota",
        domain: "planetlab1.dtc.umn.edu",
        synthesized: false,
    },
    RelaySite {
        name: "DePaul",
        domain: "planetlab1.depaul.edu",
        synthesized: false,
    },
    RelaySite {
        name: "Utah",
        domain: "planetlab1.flux.utah.edu",
        synthesized: false,
    },
    RelaySite {
        name: "Maryland",
        domain: "planetlab1.umd.edu",
        synthesized: false,
    },
    RelaySite {
        name: "Wayne State",
        domain: "planetlab1.cs.wayne.edu",
        synthesized: false,
    },
    RelaySite {
        name: "UCSB",
        domain: "planetlab1.cs.ucsb.edu",
        synthesized: false,
    },
    RelaySite {
        name: "Georgetown",
        domain: "planetlab1.georgetown.edu",
        synthesized: false,
    },
    RelaySite {
        name: "Arizona",
        domain: "planetlab1.cs.arizona.edu",
        synthesized: true,
    },
    RelaySite {
        name: "Purdue",
        domain: "planetlab1.cs.purdue.edu",
        synthesized: true,
    },
    RelaySite {
        name: "Cornell",
        domain: "planetlab1.cs.cornell.edu",
        synthesized: true,
    },
    RelaySite {
        name: "Virginia",
        domain: "planetlab1.cs.virginia.edu",
        synthesized: true,
    },
    RelaySite {
        name: "Colorado",
        domain: "planetlab1.cs.colorado.edu",
        synthesized: true,
    },
    RelaySite {
        name: "Dartmouth",
        domain: "planetlab1.cs.dartmouth.edu",
        synthesized: true,
    },
    RelaySite {
        name: "Ohio State",
        domain: "planetlab1.cse.ohio-state.edu",
        synthesized: true,
    },
];

/// The four destination web sites of §2.2. eBay — the paper's focus
/// data set — is given the slowest direct paths (it shows the largest
/// improvement, 49%); the spread generates the paper's 33–49% per-site
/// range.
pub const SERVERS: &[ServerSite] = &[
    ServerSite {
        name: "eBay",
        rate_factor: 0.85,
    },
    ServerSite {
        name: "Google",
        rate_factor: 1.05,
    },
    ServerSite {
        name: "Microsoft",
        rate_factor: 0.92,
    },
    ServerSite {
        name: "Yahoo",
        rate_factor: 0.98,
    },
];

/// The three §4 clients (chosen by the paper for being Low/Medium
/// throughput): Duke (a US site acting as a client), Italy, Sweden.
pub const SELECTION_CLIENTS: &[ClientSite] = &[
    ClientSite {
        name: "Duke",
        domain: "planetlab1.cs.duke.edu",
        us_latency_ms: 18,
    },
    ClientSite {
        name: "Italy",
        domain: "planetlab1.polito.it",
        us_latency_ms: 60,
    },
    ClientSite {
        name: "Sweden",
        domain: "planetlab1.sics.se",
        us_latency_ms: 66,
    },
];

/// Full 35-relay pool of the §4 study: Table V plus the extras, minus
/// Duke (who plays the client there).
pub fn selection_relays() -> Vec<RelaySite> {
    INTERMEDIATES
        .iter()
        .filter(|r| r.name != "Duke")
        .chain(EXTRA_INTERMEDIATES.iter())
        .copied()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Schedule;
    use ir_artifact::fingerprint_of;

    #[test]
    fn schedules_and_rosters_disambiguate() {
        let a = Schedule::measurement_study();
        let b = Schedule::measurement_study().spread(8);
        assert_ne!(fingerprint_of(&a), fingerprint_of(&b));
        assert_ne!(fingerprint_of(&CLIENTS[..4]), fingerprint_of(&CLIENTS[..5]));
        assert_ne!(
            fingerprint_of(&CLIENTS[0]),
            fingerprint_of(&INTERMEDIATES[0])
        );
    }

    #[test]
    fn roster_sizes_match_paper() {
        assert_eq!(CLIENTS.len(), 22, "Table IV has 22 clients");
        assert_eq!(INTERMEDIATES.len(), 21, "Table V has 21 intermediates");
        assert_eq!(SERVERS.len(), 4);
        assert_eq!(SELECTION_CLIENTS.len(), 3);
        // §4: 38 nodes = 3 clients + 35 intermediates; Duke moves from
        // the Table V pool to the client side, so the pool is 20 + 15.
        assert_eq!(selection_relays().len(), 35);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = CLIENTS.iter().map(|c| c.name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), CLIENTS.len());
        let mut rn: Vec<&str> = INTERMEDIATES
            .iter()
            .chain(EXTRA_INTERMEDIATES.iter())
            .map(|r| r.name)
            .collect();
        rn.sort();
        rn.dedup();
        assert_eq!(rn.len(), INTERMEDIATES.len() + EXTRA_INTERMEDIATES.len());
    }

    #[test]
    fn table_iii_relays_present_in_selection_pool() {
        let pool = selection_relays();
        for name in [
            "Texas",
            "Northwestern",
            "Wisconsin",
            "Minnesota",
            "DePaul",
            "Georgia Tech",
            "Rice",
            "Utah",
            "Upenn",
            "Maryland",
            "Wayne State",
            "UCSD",
            "Caltech",
            "UCSB",
            "Washington",
            "UIUC",
            "Berkeley",
            "Georgetown",
            "Michigan",
            "Princeton",
            "UCLA",
            "MIT",
        ] {
            assert!(pool.iter().any(|r| r.name == name), "{name} missing");
        }
        assert!(!pool.iter().any(|r| r.name == "Duke"), "Duke is the client");
    }

    #[test]
    fn synthesized_fillers_are_marked() {
        let synth: Vec<&RelaySite> = EXTRA_INTERMEDIATES
            .iter()
            .filter(|r| r.synthesized)
            .collect();
        assert_eq!(synth.len(), 7);
        assert!(INTERMEDIATES.iter().all(|r| !r.synthesized));
    }
}
