//! `warehouse_roam`: the §4.3 warehouse at paper scale — 16,000 robots
//! flipping between two physical edges at 800 moves/s, 198 emulated
//! edges hosting correspondents that stream 1 ms probes toward
//! [`MEASURED`] movers through each move (Fig. 11).
//!
//! Mobility writes (Map-Register, Map-Notify, SMR, pub/sub to the
//! border) run beside per-packet data through every edge's engine, one
//! packet per engine call.
//!
//! Checks, against the benchmark's own move plan:
//! * every measured handover is restored — a probe of its stream is
//!   delivered after the detach — within [`PROBE_WINDOW`];
//! * after a quiet tail longer than the map-cache idle timeout,
//!   `check_convergence` finds the fabric at the final placement the
//!   plan implies (server database, border view, edge caches, no stuck
//!   control state).

use std::net::Ipv4Addr;
use std::time::Instant;

use crate::adapter::{Ep, FabricCounts, FabricKnobs, FabricPlan, FabricRun, MS, SEC};
use crate::trace::Tracer;
use crate::util::{quantile, Rng};
use crate::{set_up, Args, Report, Window};

const HOSTS: usize = 16_000;
const EDGES: usize = 200;
const MOVES_PER_SEC: u64 = 800;
const WARMUP: u64 = 25 * SEC;
const DURATION: u64 = 10 * SEC;
/// Measured movers, each with its own correspondent.
const MEASURED: usize = 200;
const PROBE_INTERVAL: u64 = MS;
const PROBE_WINDOW: u64 = 400 * MS;
/// Probes sent before each measured move (warming the sender's cache).
const PRE_PROBES: u64 = 5;
/// Radio re-association gap: uniform in `[DETECT, 4 × DETECT]`.
const DETECT: u64 = 500_000;
/// Quiet tail after the last probe, longer than the idle timeout so
/// unused stale cache entries have been swept before the final check.
const QUIET: u64 = 6 * SEC;
const ROBOTS: u16 = 1;

const KNOBS: FabricKnobs = FabricKnobs {
    register_mac: false,
    register_ttl_secs: 24 * 3600,
    refresh: None,
    purge: None,
    eviction: SEC,
    idle_timeout: 3 * SEC,
};

struct Move {
    at: u64,
    host: usize,
    /// Re-attach instant on the other physical edge.
    back: u64,
    /// Correspondent index of a measured move.
    measured: Option<usize>,
}

struct Plan {
    host_attach: Vec<u64>,
    corr_attach: Vec<u64>,
    moves: Vec<Move>,
    /// Final physical edge (0 or 1) per host.
    side: Vec<usize>,
    /// Probe phase per measured move.
    phase: Vec<u64>,
}

fn end_of_round() -> u64 {
    WARMUP + DURATION + PROBE_WINDOW + QUIET
}

fn plan(seed: u64) -> Plan {
    let mut rng = Rng::new(seed);
    let host_attach = (0..HOSTS)
        .map(|_| (rng.unit() * WARMUP as f64 * 0.8) as u64)
        .collect();
    let corr_attach = (0..MEASURED)
        .map(|_| (rng.unit() * WARMUP as f64 * 0.5) as u64)
        .collect();
    let total = (MOVES_PER_SEC * DURATION / SEC) as usize;
    // Measured moves are spread evenly, skipping the first second so
    // the background load is established.
    let from = MOVES_PER_SEC as usize;
    let stride = (total - from) / MEASURED;
    let mut side: Vec<usize> = (0..HOSTS).map(|i| i % 2).collect();
    let mut moves = Vec::with_capacity(total);
    let mut phase = Vec::with_capacity(MEASURED);
    for i in 0..total {
        let at = WARMUP + i as u64 * SEC / MOVES_PER_SEC + rng.below(100_000) as u64;
        let host = rng.below(HOSTS);
        side[host] = 1 - side[host];
        let back = at + DETECT + (rng.unit() * 3.0 * DETECT as f64) as u64;
        let measured =
            (i >= from && (i - from).is_multiple_of(stride) && (i - from) / stride < MEASURED)
                .then_some((i - from) / stride);
        if measured.is_some() {
            phase.push((rng.unit() * PROBE_INTERVAL as f64) as u64);
        }
        moves.push(Move {
            at,
            host,
            back,
            measured,
        });
    }
    Plan {
        host_attach,
        corr_attach,
        moves,
        side,
        phase,
    }
}

/// Flow id of probe `j` of measured move `k`.
fn flow(k: usize, j: u64) -> u64 {
    ((k as u64) << 20) | j
}

fn corr_edge(k: usize) -> usize {
    2 + k % (EDGES - 2)
}

/// Builds the fabric and injects the plan (the timed set-up). Returns
/// the fabric, the hosts and the correspondents.
fn setup(seed: u64, p: &Plan) -> (FabricRun, Vec<Ep>, Vec<Ep>, u64) {
    let mut plan = FabricPlan::new(seed, &KNOBS, 200, Ipv4Addr::new(10, 0, 0, 0), 10);
    plan.allow(ROBOTS, ROBOTS);
    plan.add_edges(EDGES);
    plan.add_border(false);
    let hosts: Vec<Ep> = (0..HOSTS).map(|_| plan.mint(ROBOTS)).collect();
    let corrs: Vec<Ep> = (0..MEASURED).map(|_| plan.mint(ROBOTS)).collect();
    let mut f = plan.build();
    let mut inputs = 0u64;
    for (i, at) in p.host_attach.iter().enumerate() {
        f.attach(*at, i % 2, hosts[i], (i % 4096) as u16);
        inputs += 1;
    }
    for (k, at) in p.corr_attach.iter().enumerate() {
        f.attach(*at, corr_edge(k), corrs[k], 1);
        inputs += 1;
    }
    let mut side: Vec<usize> = (0..HOSTS).map(|i| i % 2).collect();
    for mv in &p.moves {
        let from = side[mv.host];
        side[mv.host] = 1 - from;
        f.detach(mv.at, from, hosts[mv.host]);
        f.attach(mv.back, 1 - from, hosts[mv.host], 9);
        inputs += 2;
        if let Some(k) = mv.measured {
            let (c, dst) = (corrs[k], hosts[mv.host].ipv4());
            for j in 0..PRE_PROBES {
                let at = mv.at - (PRE_PROBES - j) * PROBE_INTERVAL;
                f.send(at, corr_edge(k), c, dst, 1470, flow(k, j), true);
                inputs += 1;
            }
            let mut at = mv.at + p.phase[k];
            let mut j = PRE_PROBES;
            while at <= mv.at + PROBE_WINDOW {
                f.send(at, corr_edge(k), c, dst, 1470, flow(k, j), true);
                at += PROBE_INTERVAL;
                j += 1;
                inputs += 1;
            }
        }
    }
    (f, hosts, corrs, inputs)
}

/// Handover delays in simulated ms, one per measured move (`None` when
/// traffic was not restored inside the probe window).
fn handovers(f: &FabricRun, p: &Plan, hosts: &[Ep]) -> Vec<Option<f64>> {
    let mut out = vec![None; MEASURED];
    for mv in &p.moves {
        let Some(k) = mv.measured else { continue };
        let restored = f
            .deliveries(hosts[mv.host].ipv4())
            .into_iter()
            .filter(|(at, fl)| fl >> 20 == k as u64 && *at > mv.at && *at <= mv.at + PROBE_WINDOW)
            .map(|(at, _)| at)
            .min();
        out[k] = restored.map(|at| (at - mv.at) as f64 / MS as f64);
    }
    out
}

/// The core-layer counters both fabric workloads report.
pub fn core_layers(report: &mut Report, c: &FabricCounts) {
    report.layer("core.delivered", c.delivered as f64);
    report.layer("core.default_routed", c.default_routed as f64);
    report.layer("core.smrs", c.smrs as f64);
    report.layer("core.mobility_forwards", c.mobility_forwards as f64);
    report.layer(
        "core.map_requests_per_kdelivery",
        c.map_requests as f64 * 1000.0 / c.delivered.max(1) as f64,
    );
    report.layer("core.registers", c.registers as f64);
    report.layer("core.publishes", c.publishes as f64);
    report.layer(
        "dataplane.pkts_per_call",
        c.switch_rx as f64 / c.switch_batches.max(1) as f64,
    );
}

pub fn run(args: &Args, tr: &mut Tracer) -> Report {
    let p = plan(args.seed);
    let mut report = Report::default();
    let mut placement: Vec<(Ipv4Addr, usize)> = Vec::with_capacity(HOSTS + MEASURED);
    let mut window = Window::new(args);
    let mut first: Option<(Vec<Option<f64>>, FabricCounts, u64)> = None;
    while let Some(trace_this) = window.next_round() {
        let (mut f, hosts, corrs, inputs) = set_up(
            &mut report,
            tr,
            "setup.fabric",
            window.rounds() == 1,
            || setup(args.seed, &p),
        );
        let mut off = Tracer::new(false);
        let t: &mut Tracer = if trace_this { tr } else { &mut off };
        let end = end_of_round();
        // One `run_until` per simulated second.
        let mut busy = 0.0;
        let mut at = 0;
        while at < end {
            at = (at + SEC).min(end);
            t.enter("simnet.run_until");
            let t0 = Instant::now();
            f.run_until(at);
            busy += t0.elapsed().as_secs_f64();
            t.exit(1);
        }
        report.round(trace_this, end as f64 / SEC as f64, busy);

        let delays = handovers(&f, &p, &hosts);
        for (k, d) in delays.iter().enumerate() {
            if d.is_none() {
                eprintln!("warehouse: measured move {k} not restored within the probe window");
            }
            report.check(d.is_some());
        }
        placement.clear();
        for (i, h) in hosts.iter().enumerate() {
            placement.push((h.ipv4(), p.side[i]));
        }
        for (k, c) in corrs.iter().enumerate() {
            placement.push((c.ipv4(), corr_edge(k)));
        }
        if args.perturb {
            placement[0].1 = 1 - placement[0].1;
        }
        let faults = f.convergence_faults(&placement);
        report.attempted += placement.len() as u64;
        report.failed += (faults as u64).min(placement.len() as u64);
        if first.is_none() {
            first = Some((delays, f.counts(), inputs));
        }
    }
    let (delays, c, inputs) = first.expect("at least one round runs");
    let ms: Vec<f64> = delays.into_iter().flatten().collect();
    report.layer("simnet.events", c.events as f64);
    report.layer("simnet.events_per_input", c.events as f64 / inputs as f64);
    report.layer("simnet.routing_ingress_peak", c.routing_ingress_peak as f64);
    core_layers(&mut report, &c);
    report.layer("core.handover_ms_p50", quantile(&ms, 0.5));
    report.layer("core.handover_ms_p95", quantile(&ms, 0.95));
    report
}
