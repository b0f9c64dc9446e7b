//! Cache codecs for study outputs.
//!
//! Each study result gets a total, versioned byte encoding built on
//! [`ir_artifact::ByteWriter`]/[`ir_artifact::ByteReader`]. Decoders
//! return `None` on any malformation — the sweep scheduler treats that
//! exactly like a corrupt cache entry and recomputes. The layout
//! version is part of every study fingerprint (see
//! [`crate::sweep::CODEC_VERSION`]), so changing an encoding
//! automatically retires incompatible cache entries instead of
//! misreading them.

use crate::faults::FaultCell;
use crate::headroom::Headroom;
use crate::megaflow::{MegaflowConfig, MegaflowResult};
use crate::runner::{MeasurementData, PairRun, SelectionData, SelectionRun};
use crate::sites::SiteResult;
use crate::soak::{SoakConfig, SoakResult};
use crate::striping::StripeCell;
use crate::tournament::TournamentCell;
use ir_artifact::{ByteReader, ByteWriter};
use ir_core::{PathSpec, TransferRecord};
use ir_simnet::time::SimTime;
use ir_simnet::topology::NodeId;
use ir_workload::{Category, ClientProfile, Variability};
use std::collections::BTreeMap;

fn put_node(w: &mut ByteWriter, id: NodeId) {
    w.put_u32(id.0);
}

fn get_node(r: &mut ByteReader<'_>) -> Option<NodeId> {
    r.get_u32().map(NodeId)
}

fn put_nodes(w: &mut ByteWriter, ids: &[NodeId]) {
    w.put_u64(ids.len() as u64);
    for &id in ids {
        put_node(w, id);
    }
}

fn get_nodes(r: &mut ByteReader<'_>) -> Option<Vec<NodeId>> {
    let n = r.get_len()?;
    (0..n).map(|_| get_node(r)).collect()
}

fn put_path(w: &mut ByteWriter, p: &PathSpec) {
    put_node(w, p.client);
    put_node(w, p.server);
    // Hop-chain layout (codec v2): count then the hops in traversal
    // order. A 1-hop chain is byte-for-byte the old `via` encoding.
    w.put_u8(p.hop_count() as u8);
    for &hop in p.hops() {
        put_node(w, hop);
    }
}

fn get_path(r: &mut ByteReader<'_>) -> Option<PathSpec> {
    let client = get_node(r)?;
    let server = get_node(r)?;
    let n = r.get_u8()? as usize;
    if n > ir_core::MAX_HOPS {
        return None;
    }
    let hops: Vec<NodeId> = (0..n).map(|_| get_node(r)).collect::<Option<_>>()?;
    // Reject degenerate chains instead of panicking in `chain`.
    if hops.iter().any(|&h| h == client || h == server) {
        return None;
    }
    if (1..hops.len()).any(|i| hops[..i].contains(&hops[i])) {
        return None;
    }
    Some(PathSpec::chain(client, server, &hops))
}

fn put_record(w: &mut ByteWriter, rec: &TransferRecord) {
    let TransferRecord {
        client,
        server,
        started,
        file_bytes,
        ref selected,
        ref candidates,
        direct_throughput,
        selected_throughput,
        probe_throughput,
        selected_path_rate,
        probe_timeout,
        failovers,
        stall_ms,
        abandoned,
    } = *rec;
    put_node(w, client);
    put_node(w, server);
    w.put_u64(started.0);
    w.put_u64(file_bytes);
    put_path(w, selected);
    put_nodes(w, candidates);
    w.put_f64(direct_throughput);
    w.put_f64(selected_throughput);
    w.put_f64(probe_throughput);
    w.put_f64(selected_path_rate);
    w.put_bool(probe_timeout);
    w.put_u32(failovers);
    w.put_u64(stall_ms);
    w.put_bool(abandoned);
}

fn get_record(r: &mut ByteReader<'_>) -> Option<TransferRecord> {
    Some(TransferRecord {
        client: get_node(r)?,
        server: get_node(r)?,
        started: SimTime(r.get_u64()?),
        file_bytes: r.get_u64()?,
        selected: get_path(r)?,
        candidates: get_nodes(r)?,
        direct_throughput: r.get_f64()?,
        selected_throughput: r.get_f64()?,
        probe_throughput: r.get_f64()?,
        selected_path_rate: r.get_f64()?,
        probe_timeout: r.get_bool()?,
        failovers: r.get_u32()?,
        stall_ms: r.get_u64()?,
        abandoned: r.get_bool()?,
    })
}

fn put_records(w: &mut ByteWriter, records: &[TransferRecord]) {
    w.put_u64(records.len() as u64);
    for rec in records {
        put_record(w, rec);
    }
}

fn get_records(r: &mut ByteReader<'_>) -> Option<Vec<TransferRecord>> {
    let n = r.get_len()?;
    (0..n).map(|_| get_record(r)).collect()
}

fn put_names(w: &mut ByteWriter, names: &BTreeMap<NodeId, String>) {
    w.put_u64(names.len() as u64);
    for (&id, name) in names {
        put_node(w, id);
        w.put_str(name);
    }
}

fn get_names(r: &mut ByteReader<'_>) -> Option<BTreeMap<NodeId, String>> {
    let n = r.get_len()?;
    (0..n).map(|_| Some((get_node(r)?, r.get_str()?))).collect()
}

fn put_profile(w: &mut ByteWriter, p: &ClientProfile) {
    w.put_u8(match p.category {
        Category::Low => 0,
        Category::Medium => 1,
        Category::High => 2,
    });
    w.put_u8(match p.variability {
        Variability::Stable => 0,
        Variability::Variable => 1,
    });
    w.put_f64(p.base_rate);
}

fn get_profile(r: &mut ByteReader<'_>) -> Option<ClientProfile> {
    let category = match r.get_u8()? {
        0 => Category::Low,
        1 => Category::Medium,
        2 => Category::High,
        _ => return None,
    };
    let variability = match r.get_u8()? {
        0 => Variability::Stable,
        1 => Variability::Variable,
        _ => return None,
    };
    Some(ClientProfile {
        category,
        variability,
        base_rate: r.get_f64()?,
    })
}

/// Encodes a [`MeasurementData`] for the study cache.
pub fn encode_measurement(d: &MeasurementData) -> Vec<u8> {
    let mut w = ByteWriter::new();
    put_names(&mut w, &d.names);
    w.put_u64(d.profiles.len() as u64);
    for (&id, p) in &d.profiles {
        put_node(&mut w, id);
        put_profile(&mut w, p);
    }
    put_nodes(&mut w, &d.clients);
    put_nodes(&mut w, &d.relays);
    put_node(&mut w, d.server);
    w.put_u64(d.pairs.len() as u64);
    for pair in &d.pairs {
        put_node(&mut w, pair.client);
        put_node(&mut w, pair.via);
        put_node(&mut w, pair.server);
        put_records(&mut w, &pair.records);
    }
    w.into_bytes()
}

/// Decodes a [`MeasurementData`]; `None` on any malformation.
pub fn decode_measurement(bytes: &[u8]) -> Option<MeasurementData> {
    let mut r = ByteReader::new(bytes);
    let names = get_names(&mut r)?;
    let n = r.get_len()?;
    let profiles: BTreeMap<NodeId, ClientProfile> = (0..n)
        .map(|_| Some((get_node(&mut r)?, get_profile(&mut r)?)))
        .collect::<Option<_>>()?;
    let clients = get_nodes(&mut r)?;
    let relays = get_nodes(&mut r)?;
    let server = get_node(&mut r)?;
    let n = r.get_len()?;
    let pairs: Vec<PairRun> = (0..n)
        .map(|_| {
            Some(PairRun {
                client: get_node(&mut r)?,
                via: get_node(&mut r)?,
                server: get_node(&mut r)?,
                records: get_records(&mut r)?,
            })
        })
        .collect::<Option<_>>()?;
    if !r.is_exhausted() {
        return None;
    }
    Some(MeasurementData {
        names,
        profiles,
        clients,
        relays,
        server,
        pairs,
    })
}

/// Encodes a [`SelectionData`] for the study cache.
pub fn encode_selection(d: &SelectionData) -> Vec<u8> {
    let mut w = ByteWriter::new();
    put_names(&mut w, &d.names);
    put_nodes(&mut w, &d.clients);
    put_nodes(&mut w, &d.relays);
    w.put_u64(d.runs.len() as u64);
    for run in &d.runs {
        put_node(&mut w, run.client);
        w.put_u64(run.k as u64);
        put_records(&mut w, &run.records);
    }
    w.into_bytes()
}

/// Decodes a [`SelectionData`]; `None` on any malformation.
pub fn decode_selection(bytes: &[u8]) -> Option<SelectionData> {
    let mut r = ByteReader::new(bytes);
    let names = get_names(&mut r)?;
    let clients = get_nodes(&mut r)?;
    let relays = get_nodes(&mut r)?;
    let n = r.get_len()?;
    let runs: Vec<SelectionRun> = (0..n)
        .map(|_| {
            Some(SelectionRun {
                client: get_node(&mut r)?,
                k: r.get_u64()? as usize,
                records: get_records(&mut r)?,
            })
        })
        .collect::<Option<_>>()?;
    if !r.is_exhausted() {
        return None;
    }
    Some(SelectionData {
        names,
        clients,
        relays,
        runs,
    })
}

/// Encodes the per-site study results for the cache.
pub fn encode_sites(results: &[SiteResult]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(results.len() as u64);
    for s in results {
        w.put_str(&s.site);
        w.put_f64(s.mean_improvement_pct);
        w.put_f64(s.chose_indirect_pct);
        w.put_u64(s.n as u64);
    }
    w.into_bytes()
}

/// Decodes the per-site study results; `None` on any malformation.
pub fn decode_sites(bytes: &[u8]) -> Option<Vec<SiteResult>> {
    let mut r = ByteReader::new(bytes);
    let n = r.get_len()?;
    let out: Vec<SiteResult> = (0..n)
        .map(|_| {
            Some(SiteResult {
                site: r.get_str()?,
                mean_improvement_pct: r.get_f64()?,
                chose_indirect_pct: r.get_f64()?,
                n: r.get_u64()? as usize,
            })
        })
        .collect::<Option<_>>()?;
    if !r.is_exhausted() {
        return None;
    }
    Some(out)
}

/// Encodes the headroom study results for the cache.
pub fn encode_headroom(results: &[Headroom]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(results.len() as u64);
    for h in results {
        w.put_str(&h.client);
        w.put_f64(h.oracle_pct);
        w.put_f64(h.random10_pct);
        w.put_f64(h.static_pct);
    }
    w.into_bytes()
}

/// Decodes the headroom study results; `None` on any malformation.
pub fn decode_headroom(bytes: &[u8]) -> Option<Vec<Headroom>> {
    let mut r = ByteReader::new(bytes);
    let n = r.get_len()?;
    let out: Vec<Headroom> = (0..n)
        .map(|_| {
            Some(Headroom {
                client: r.get_str()?,
                oracle_pct: r.get_f64()?,
                random10_pct: r.get_f64()?,
                static_pct: r.get_f64()?,
            })
        })
        .collect::<Option<_>>()?;
    if !r.is_exhausted() {
        return None;
    }
    Some(out)
}

/// Encodes the fault-sweep cells for the cache.
pub fn encode_faults(cells: &[FaultCell]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(cells.len() as u64);
    for c in cells {
        let FaultCell {
            mtbf_secs,
            k,
            transfers,
            availability_pct,
            mean_failovers,
            mean_stall_ms,
            goodput,
            goodput_ratio,
            mean_improvement_pct,
        } = *c;
        w.put_u64(mtbf_secs);
        w.put_u64(k as u64);
        w.put_u64(transfers as u64);
        w.put_f64(availability_pct);
        w.put_f64(mean_failovers);
        w.put_f64(mean_stall_ms);
        w.put_f64(goodput);
        w.put_f64(goodput_ratio);
        w.put_f64(mean_improvement_pct);
    }
    w.into_bytes()
}

/// Decodes the fault-sweep cells; `None` on any malformation.
pub fn decode_faults(bytes: &[u8]) -> Option<Vec<FaultCell>> {
    let mut r = ByteReader::new(bytes);
    let n = r.get_len()?;
    let out: Vec<FaultCell> = (0..n)
        .map(|_| {
            Some(FaultCell {
                mtbf_secs: r.get_u64()?,
                k: r.get_u64()? as usize,
                transfers: r.get_u64()? as usize,
                availability_pct: r.get_f64()?,
                mean_failovers: r.get_f64()?,
                mean_stall_ms: r.get_f64()?,
                goodput: r.get_f64()?,
                goodput_ratio: r.get_f64()?,
                mean_improvement_pct: r.get_f64()?,
            })
        })
        .collect::<Option<_>>()?;
    if !r.is_exhausted() {
        return None;
    }
    Some(out)
}

/// Encodes the striping-sweep cells for the cache.
pub fn encode_striping(cells: &[StripeCell]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(cells.len() as u64);
    for c in cells {
        let StripeCell {
            scenario,
            k,
            chunks,
            stale,
            raced_secs,
            striped_secs,
            ratio,
            reassignments,
            deaths,
            direct_chunks,
            overlay_chunks,
        } = c;
        w.put_str(scenario);
        w.put_u32(*k);
        w.put_u32(*chunks);
        w.put_bool(*stale);
        w.put_f64(*raced_secs);
        w.put_f64(*striped_secs);
        w.put_f64(*ratio);
        w.put_u32(*reassignments);
        w.put_u32(*deaths);
        w.put_u64(*direct_chunks);
        w.put_u64(*overlay_chunks);
    }
    w.into_bytes()
}

/// Decodes the striping-sweep cells; `None` on any malformation.
pub fn decode_striping(bytes: &[u8]) -> Option<Vec<StripeCell>> {
    let mut r = ByteReader::new(bytes);
    let n = r.get_len()?;
    let out: Vec<StripeCell> = (0..n)
        .map(|_| {
            Some(StripeCell {
                scenario: r.get_str()?,
                k: r.get_u32()?,
                chunks: r.get_u32()?,
                stale: r.get_bool()?,
                raced_secs: r.get_f64()?,
                striped_secs: r.get_f64()?,
                ratio: r.get_f64()?,
                reassignments: r.get_u32()?,
                deaths: r.get_u32()?,
                direct_chunks: r.get_u64()?,
                overlay_chunks: r.get_u64()?,
            })
        })
        .collect::<Option<_>>()?;
    if !r.is_exhausted() {
        return None;
    }
    Some(out)
}

/// Encodes one policy's tournament cells.
pub fn encode_tournament(cells: &[TournamentCell]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(cells.len() as u64);
    for c in cells {
        let TournamentCell {
            policy,
            scenario,
            transfers,
            mean_improvement_pct,
            indirect_pct,
            penalty_rate_pct,
            probe_paths_per_transfer,
            multi_hop_pct,
        } = c;
        w.put_str(policy);
        w.put_str(scenario);
        w.put_u64(*transfers as u64);
        w.put_f64(*mean_improvement_pct);
        w.put_f64(*indirect_pct);
        w.put_f64(*penalty_rate_pct);
        w.put_f64(*probe_paths_per_transfer);
        w.put_f64(*multi_hop_pct);
    }
    w.into_bytes()
}

/// Decodes tournament cells; `None` on any malformation.
pub fn decode_tournament(bytes: &[u8]) -> Option<Vec<TournamentCell>> {
    let mut r = ByteReader::new(bytes);
    let n = r.get_len()?;
    let out: Vec<TournamentCell> = (0..n)
        .map(|_| {
            Some(TournamentCell {
                policy: r.get_str()?,
                scenario: r.get_str()?,
                transfers: r.get_u64()? as usize,
                mean_improvement_pct: r.get_f64()?,
                indirect_pct: r.get_f64()?,
                penalty_rate_pct: r.get_f64()?,
                probe_paths_per_transfer: r.get_f64()?,
                multi_hop_pct: r.get_f64()?,
            })
        })
        .collect::<Option<_>>()?;
    if !r.is_exhausted() {
        return None;
    }
    Some(out)
}

/// Encodes a megaflow result for the cache.
pub fn encode_megaflow(r: &MegaflowResult) -> Vec<u8> {
    let MegaflowResult {
        cfg,
        nodes,
        flows_started,
        flows_completed,
        boundaries,
        full_solves,
        incremental_solves,
        component_solves,
        completion_batches,
        makespan_us,
    } = *r;
    let mut w = ByteWriter::new();
    w.put_u32(cfg.racks);
    w.put_u32(cfg.hosts_per_rack);
    w.put_u32(cfg.flows_per_host);
    w.put_u32(cfg.waves);
    w.put_u64(cfg.wave_stagger_ms);
    w.put_u64(cfg.file_bytes);
    w.put_u64(cfg.host_rate);
    w.put_u64(cfg.rack_base_rate);
    w.put_u64(nodes);
    w.put_u64(flows_started);
    w.put_u64(flows_completed);
    w.put_u64(boundaries);
    w.put_u64(full_solves);
    w.put_u64(incremental_solves);
    w.put_u64(component_solves);
    w.put_u64(completion_batches);
    w.put_u64(makespan_us);
    w.into_bytes()
}

/// Decodes a megaflow result; `None` on any malformation.
pub fn decode_megaflow(bytes: &[u8]) -> Option<MegaflowResult> {
    let mut r = ByteReader::new(bytes);
    let out = MegaflowResult {
        cfg: MegaflowConfig {
            racks: r.get_u32()?,
            hosts_per_rack: r.get_u32()?,
            flows_per_host: r.get_u32()?,
            waves: r.get_u32()?,
            wave_stagger_ms: r.get_u64()?,
            file_bytes: r.get_u64()?,
            host_rate: r.get_u64()?,
            rack_base_rate: r.get_u64()?,
        },
        nodes: r.get_u64()?,
        flows_started: r.get_u64()?,
        flows_completed: r.get_u64()?,
        boundaries: r.get_u64()?,
        full_solves: r.get_u64()?,
        incremental_solves: r.get_u64()?,
        component_solves: r.get_u64()?,
        completion_batches: r.get_u64()?,
        makespan_us: r.get_u64()?,
    };
    if !r.is_exhausted() {
        return None;
    }
    Some(out)
}

/// Encodes a soak result (see [`crate::soak`]).
pub fn encode_soak(r: &SoakResult) -> Vec<u8> {
    let SoakResult {
        cfg,
        completed,
        lost,
        accepted,
        backpressure_drops,
        p50_first_byte_us,
        p99_first_byte_us,
        max_first_byte_us,
        goodput_bps,
        wall_ms,
        drain_completed,
        drain_monotone,
    } = *r;
    let mut w = ByteWriter::new();
    w.put_u32(cfg.clients);
    w.put_u64(cfg.file_bytes);
    w.put_u64(cfg.probe_bytes);
    w.put_u64(cfg.direct_rate);
    w.put_u64(cfg.relay_rate);
    w.put_u32(cfg.workers);
    w.put_u64(cfg.stagger_ms);
    w.put_u64(completed);
    w.put_u64(lost);
    w.put_u64(accepted);
    w.put_u64(backpressure_drops);
    w.put_u64(p50_first_byte_us);
    w.put_u64(p99_first_byte_us);
    w.put_u64(max_first_byte_us);
    w.put_u64(goodput_bps);
    w.put_u64(wall_ms);
    w.put_bool(drain_completed);
    w.put_bool(drain_monotone);
    w.into_bytes()
}

/// Decodes a soak result; `None` on any malformation.
pub fn decode_soak(bytes: &[u8]) -> Option<SoakResult> {
    let mut r = ByteReader::new(bytes);
    let out = SoakResult {
        cfg: SoakConfig {
            clients: r.get_u32()?,
            file_bytes: r.get_u64()?,
            probe_bytes: r.get_u64()?,
            direct_rate: r.get_u64()?,
            relay_rate: r.get_u64()?,
            workers: r.get_u32()?,
            stagger_ms: r.get_u64()?,
        },
        completed: r.get_u64()?,
        lost: r.get_u64()?,
        accepted: r.get_u64()?,
        backpressure_drops: r.get_u64()?,
        p50_first_byte_us: r.get_u64()?,
        p99_first_byte_us: r.get_u64()?,
        max_first_byte_us: r.get_u64()?,
        goodput_bps: r.get_u64()?,
        wall_ms: r.get_u64()?,
        drain_completed: r.get_bool()?,
        drain_monotone: r.get_bool()?,
    };
    if !r.is_exhausted() {
        return None;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_measurement_study, run_selection_study};
    use ir_core::SessionConfig;
    use ir_workload::Schedule;

    fn tiny_scenario() -> ir_workload::Scenario {
        ir_workload::build(
            9,
            &ir_workload::roster::CLIENTS[..2],
            &ir_workload::roster::INTERMEDIATES[..2],
            &ir_workload::roster::SERVERS[..1],
            ir_workload::Calibration::default(),
            false,
        )
    }

    #[test]
    fn measurement_round_trips_bit_exactly() {
        let sc = tiny_scenario();
        let data = run_measurement_study(
            &sc,
            0,
            Schedule::measurement_study().truncated(3),
            SessionConfig::paper_defaults(),
        );
        let bytes = encode_measurement(&data);
        let back = decode_measurement(&bytes).expect("round trip");
        assert_eq!(back.names, data.names);
        assert_eq!(back.profiles, data.profiles);
        assert_eq!(back.clients, data.clients);
        assert_eq!(back.relays, data.relays);
        assert_eq!(back.server, data.server);
        assert_eq!(back.pairs.len(), data.pairs.len());
        for (a, b) in back.pairs.iter().zip(data.pairs.iter()) {
            assert_eq!(a.client, b.client);
            assert_eq!(a.via, b.via);
            assert_eq!(a.records, b.records);
        }
        // And the rendered artefacts agree byte for byte.
        let fig1_a = crate::fig1::report(&data);
        let fig1_b = crate::fig1::report(&back);
        assert_eq!(fig1_a.render(), fig1_b.render());
        assert_eq!(fig1_a.csv, fig1_b.csv);
        // Truncation is detected, not misread.
        assert!(decode_measurement(&bytes[..bytes.len() - 1]).is_none());
        assert!(decode_measurement(&[]).is_none());
    }

    #[test]
    fn selection_round_trips_bit_exactly() {
        let sc = tiny_scenario();
        let data = run_selection_study(
            &sc,
            &[1, 2],
            Schedule::selection_study().truncated(3),
            SessionConfig::paper_defaults(),
            7,
        );
        let bytes = encode_selection(&data);
        let back = decode_selection(&bytes).expect("round trip");
        assert_eq!(back.names, data.names);
        assert_eq!(back.clients, data.clients);
        assert_eq!(back.relays, data.relays);
        assert_eq!(back.runs.len(), data.runs.len());
        for (a, b) in back.runs.iter().zip(data.runs.iter()) {
            assert_eq!(a.client, b.client);
            assert_eq!(a.k, b.k);
            assert_eq!(a.records, b.records);
        }
        assert!(decode_selection(&bytes[..bytes.len() - 2]).is_none());
    }

    #[test]
    fn scalar_tables_round_trip_with_nan() {
        let sites = vec![SiteResult {
            site: "eBay".into(),
            mean_improvement_pct: 42.5,
            chose_indirect_pct: f64::NAN,
            n: 9,
        }];
        let back = decode_sites(&encode_sites(&sites)).unwrap();
        assert_eq!(back[0].site, "eBay");
        assert!(back[0].chose_indirect_pct.is_nan());
        assert_eq!(back[0].n, 9);

        let hr = vec![Headroom {
            client: "Duke".into(),
            oracle_pct: 88.0,
            random10_pct: 70.0,
            static_pct: 30.0,
        }];
        let back = decode_headroom(&encode_headroom(&hr)).unwrap();
        assert_eq!(back[0].client, "Duke");
        assert_eq!(back[0].oracle_pct.to_bits(), 88.0f64.to_bits());

        let cells = vec![FaultCell {
            mtbf_secs: 900,
            k: 3,
            transfers: 36,
            availability_pct: 97.2,
            mean_failovers: 0.11,
            mean_stall_ms: 812.0,
            goodput: 1.0e5,
            goodput_ratio: 0.93,
            mean_improvement_pct: f64::NAN,
        }];
        let bytes = encode_faults(&cells);
        let back = decode_faults(&bytes).unwrap();
        assert_eq!(back[0].mtbf_secs, 900);
        assert_eq!(back[0].goodput_ratio.to_bits(), 0.93f64.to_bits());
        assert!(back[0].mean_improvement_pct.is_nan());
        assert!(decode_faults(&bytes[..5]).is_none());
    }

    #[test]
    fn striping_cells_round_trip_with_nan() {
        let cells = vec![StripeCell {
            scenario: "stale-brownout".into(),
            k: 2,
            chunks: 8,
            stale: true,
            raced_secs: 112.9,
            striped_secs: 4.5,
            ratio: f64::NAN,
            reassignments: 2,
            deaths: 1,
            direct_chunks: 0,
            overlay_chunks: 8,
        }];
        let bytes = encode_striping(&cells);
        let back = decode_striping(&bytes).unwrap();
        assert_eq!(back[0].scenario, "stale-brownout");
        assert_eq!(back[0].k, 2);
        assert!(back[0].stale);
        assert_eq!(back[0].raced_secs.to_bits(), 112.9f64.to_bits());
        assert!(back[0].ratio.is_nan());
        assert_eq!(back[0].overlay_chunks, 8);
        assert!(decode_striping(&bytes[..5]).is_none());
        assert!(decode_striping(&bytes[..bytes.len() - 1]).is_none());
    }

    #[test]
    fn megaflow_round_trips_bit_exactly() {
        let r = MegaflowResult {
            cfg: MegaflowConfig::mini(),
            nodes: 41,
            flows_started: 160,
            flows_completed: 160,
            boundaries: 23,
            full_solves: 5,
            incremental_solves: 18,
            component_solves: 170,
            completion_batches: 16,
            makespan_us: 123_456_789,
        };
        let bytes = encode_megaflow(&r);
        let back = decode_megaflow(&bytes).expect("round trip");
        assert_eq!(back, r);
        assert!(decode_megaflow(&bytes[..bytes.len() - 1]).is_none());
        assert!(decode_megaflow(&[]).is_none());
    }

    #[test]
    fn soak_round_trips_bit_exactly() {
        let r = SoakResult {
            cfg: SoakConfig::quick(),
            completed: 250,
            lost: 0,
            accepted: 251,
            backpressure_drops: 0,
            p50_first_byte_us: 850,
            p99_first_byte_us: 14_200,
            max_first_byte_us: 22_407,
            goodput_bps: 1_935_483,
            wall_ms: 1_550,
            drain_completed: true,
            drain_monotone: true,
        };
        let bytes = encode_soak(&r);
        let back = decode_soak(&bytes).expect("round trip");
        assert_eq!(back, r);
        assert!(decode_soak(&bytes[..bytes.len() - 1]).is_none());
        assert!(decode_soak(&[]).is_none());
    }
}
