//! `campus_week`: building B of the paper's Table 3/4 (450 endpoints,
//! 6 edges, 2 borders) through diurnal days on the simulated fabric.
//!
//! Endpoints arrive and leave on a daily cycle (half are always on),
//! pick peers by Zipf popularity, reach the Internet through the
//! borders, and the always-on half chatters at night toward users who
//! have gone home. The run is dominated by the simulator's queueing
//! under synchronized 30-minute register refreshes; the data path is
//! light. The benchmark drives the fabric one simulated hour at a time
//! and samples every FIB from outside between hours (the Fig. 9 /
//! Table 5 edge-state result).
//!
//! Checks, against the schedule the benchmark generated:
//! * each tracked send whose source and destination were both attached
//!   across [`WINDOW`] either side of it is delivered exactly once,
//!   with its flow id, within [`WINDOW`]; a tracked send toward an
//!   endpoint absent across that window is never delivered;
//! * at 06:00 and 13:00 each border's IPv4 FIB equals the number of
//!   endpoints the schedule has present, and no edge FIB exceeds it.

use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::time::Instant;

use crate::adapter::{Ep, FabricKnobs, FabricPlan, FabricRun, SEC};
use crate::trace::Tracer;
use crate::util::{median, quantile, Rng, Zipf};
use crate::{set_up, Args, Report, Window};

const ENDPOINTS: usize = 450;
const EDGES: usize = 6;
const BORDERS: usize = 2;
const ALWAYS_ON_SHARE: f64 = 0.5;
const ATTENDANCE: f64 = 0.62;
const FLOWS_PER_HOUR: f64 = 1.2;
const NIGHT_FLOWS_PER_HOUR: f64 = 0.8;
const EXTERNAL_SHARE: f64 = 0.2;
const POPULARITY_SKEW: f64 = 1.6;
/// Simulated days per round (Monday onwards).
pub const DAYS: u64 = 7;
/// Convergence window either side of a tracked send.
const WINDOW: u64 = 60 * SEC;
const HOUR: u64 = 3600 * SEC;
const DAY: u64 = 24 * HOUR;
const USERS: u16 = 10;
const INFRA: u16 = 20;
/// Quiet hours of the day at which the FIB state is checked.
const QUIET_HOURS: [u64; 2] = [6, 13];

struct Send {
    at: u64,
    src: usize,
    /// Peer index, or `None` for the Internet.
    dst: Option<usize>,
    len: u16,
    flow: u64,
    /// Tracked sends: whether the schedule says it must arrive.
    expect: Option<bool>,
}

/// Everything the benchmark schedules, in plain values.
struct Schedule {
    /// Presence windows per endpoint, `[from, to)`.
    windows: Vec<Vec<(u64, u64)>>,
    /// `(at, endpoint, attach?)`.
    presence: Vec<(u64, usize, bool)>,
    sends: Vec<Send>,
}

impl Schedule {
    fn present_through(&self, ep: usize, from: u64, to: u64) -> bool {
        self.windows[ep].iter().any(|(a, l)| *a <= from && to < *l)
    }

    fn absent_through(&self, ep: usize, from: u64, to: u64) -> bool {
        self.windows[ep].iter().all(|(a, l)| *l <= from || to < *a)
    }

    fn present_at(&self, at: u64) -> usize {
        (0..self.windows.len())
            .filter(|&e| self.windows[e].iter().any(|(a, l)| *a <= at && at < *l))
            .count()
    }
}

fn always_on(i: usize) -> bool {
    (i as f64) < (ENDPOINTS as f64 * ALWAYS_ON_SHARE).round()
}

fn generate(seed: u64) -> Schedule {
    let mut rng = Rng::new(seed);
    let horizon = DAYS * DAY;
    let popularity = Zipf::new(ENDPOINTS, POPULARITY_SKEW);
    // Always-on devices talk to a handful of servers: the first ranks.
    let servers = Zipf::new(8, 0.8);
    let humans: Vec<usize> = (0..ENDPOINTS).filter(|i| !always_on(*i)).collect();
    let mut windows = vec![Vec::new(); ENDPOINTS];
    let mut presence = Vec::new();
    for (i, w) in windows.iter_mut().enumerate() {
        if always_on(i) {
            let at = (rng.unit() * HOUR as f64) as u64;
            w.push((at, horizon + DAY));
            presence.push((at, i, true));
        }
    }
    let mut sends = Vec::new();
    let mut draft = Vec::new();
    for d in 0..DAYS {
        let start = d * DAY;
        let weekday = d % 7 < 5;
        if weekday {
            // Exactly ATTENDANCE of the users come in, a seeded choice of
            // who: every seed loads the fabric alike.
            let mut who = humans.clone();
            for k in 0..who.len() {
                let j = k + rng.below(who.len() - k);
                who.swap(k, j);
            }
            who.truncate((humans.len() as f64 * ATTENDANCE).round() as usize);
            who.sort_unstable();
            for i in who {
                let arrive = start + ((8.0 + 2.0 * rng.unit()) * HOUR as f64) as u64;
                let leave = start + ((17.0 + 3.0 * rng.unit()) * HOUR as f64) as u64;
                windows[i].push((arrive, leave));
                presence.push((arrive, i, true));
                presence.push((leave, i, false));
            }
        }
        for (i, w) in windows.iter().enumerate() {
            let (from, to) = if always_on(i) {
                (start, start + DAY)
            } else {
                match w.iter().find(|(a, _)| *a >= start && *a < start + DAY) {
                    Some(w) => *w,
                    None => continue,
                }
            };
            let rate = if always_on(i) && !weekday {
                NIGHT_FLOWS_PER_HOUR
            } else {
                FLOWS_PER_HOUR
            };
            for _ in 0..rng.poisson(rate * (to - from) as f64 / HOUR as f64) {
                let at = from + (rng.unit() * (to - from) as f64) as u64;
                let dst = if rng.unit() < EXTERNAL_SHARE {
                    None
                } else {
                    let mut pick = if always_on(i) {
                        servers.sample(&mut rng)
                    } else {
                        popularity.sample(&mut rng)
                    };
                    if pick == i {
                        pick = (pick + 1) % ENDPOINTS;
                    }
                    Some(pick)
                };
                draft.push((at, i, dst, 512u16));
            }
        }
        // Night chatter: always-on devices probe user machines from
        // 20:00 to 08:00, most of which have left (§4.2's building-B
        // cache-cleaning mechanism).
        for i in (0..ENDPOINTS).filter(|i| always_on(*i)) {
            for _ in 0..rng.poisson(NIGHT_FLOWS_PER_HOUR * 12.0) {
                let at = start + ((20.0 + rng.unit() * 12.0) * HOUR as f64) as u64;
                let dst = humans[rng.below(humans.len())];
                draft.push((at, i, Some(dst), 256u16));
            }
        }
    }
    let mut sched = Schedule {
        windows,
        presence,
        sends: Vec::new(),
    };
    for (k, (at, src, dst, len)) in draft.into_iter().enumerate() {
        if at + WINDOW >= horizon || at < WINDOW {
            continue;
        }
        let expect = match dst {
            Some(d) if sched.present_through(src, at - WINDOW, at) => {
                if sched.present_through(d, at - WINDOW, at + WINDOW) {
                    Some(true)
                } else if sched.absent_through(d, at - WINDOW, at + WINDOW) {
                    Some(false)
                } else {
                    None
                }
            }
            _ => None,
        };
        sends.push(Send {
            at,
            src,
            dst,
            len,
            flow: k as u64 + 1,
            expect,
        });
    }
    sched.sends = sends;
    sched
}

const KNOBS: FabricKnobs = FabricKnobs {
    register_mac: true,
    register_ttl_secs: 2 * 3600,
    refresh: Some(30 * 60 * SEC),
    purge: Some(15 * 60 * SEC),
    eviction: 30 * 60 * SEC,
    idle_timeout: 40 * HOUR,
};

/// Builds the fabric and injects the whole schedule (the timed set-up).
fn setup(seed: u64, s: &Schedule) -> (FabricRun, Vec<Ep>) {
    let mut plan = FabricPlan::new(seed, &KNOBS, 100, Ipv4Addr::new(10, 100, 0, 0), 16);
    for src in [USERS, INFRA] {
        for dst in [USERS, INFRA] {
            plan.allow(src, dst);
        }
    }
    plan.add_edges(EDGES);
    for _ in 0..BORDERS {
        plan.add_border(true);
    }
    let eps: Vec<Ep> = (0..ENDPOINTS)
        .map(|i| plan.mint(if always_on(i) { INFRA } else { USERS }))
        .collect();
    let mut f = plan.build();
    for &(at, i, attach) in &s.presence {
        if attach {
            f.attach(at, i % EDGES, eps[i], i as u16);
        } else {
            f.detach(at, i % EDGES, eps[i]);
        }
    }
    let internet = Ipv4Addr::new(93, 184, 216, 34);
    for snd in &s.sends {
        let dst = snd.dst.map_or(internet, |d| eps[d].ipv4());
        f.send(
            snd.at,
            snd.src % EDGES,
            eps[snd.src],
            dst,
            snd.len,
            snd.flow,
            snd.expect.is_some(),
        );
    }
    (f, eps)
}

/// What one round observed.
struct Round {
    edge_fib: Vec<f64>,
    border_fib: Vec<f64>,
    /// Host time of each simulated hour.
    hour_ms: Vec<f64>,
}

fn run_round(
    f: &mut FabricRun,
    eps: &[Ep],
    s: &Schedule,
    report: &mut Report,
    tr: &mut Tracer,
    perturb: bool,
) -> Round {
    let mut r = Round {
        edge_fib: Vec::new(),
        border_fib: Vec::new(),
        hour_ms: Vec::new(),
    };
    for h in 1..=DAYS * 24 {
        tr.enter("simnet.run_until");
        let t0 = Instant::now();
        f.run_until(h * HOUR);
        let dt = t0.elapsed().as_secs_f64();
        tr.exit(1);
        r.hour_ms.push(dt * 1e3);
        let borders: Vec<usize> = (0..BORDERS).map(|b| f.border_fib_v4(b)).collect();
        r.border_fib.extend(borders.iter().map(|v| *v as f64));
        for e in 0..EDGES {
            r.edge_fib.push(f.edge_fib_v4(e) as f64);
        }
        if QUIET_HOURS.contains(&(h % 24)) {
            let present = s.present_at(h * HOUR);
            for &b in &borders {
                report.check(b == present);
                if b != present {
                    eprintln!("campus: hour {h}: border FIB {b}, schedule has {present} present");
                }
            }
            let top = borders.iter().copied().min().unwrap_or(0);
            for e in 0..EDGES {
                report.check(f.edge_fib_v4(e) <= top);
            }
        }
    }
    // Deliveries, against the schedule.
    let mut seen: HashMap<u64, Vec<u64>> = HashMap::new();
    for ep in eps {
        for (at, flow) in f.deliveries(ep.ipv4()) {
            seen.entry(flow).or_default().push(at);
        }
    }
    let mut bad = 0;
    for (k, snd) in s.sends.iter().enumerate() {
        let Some(mut expect) = snd.expect else {
            continue;
        };
        // The perturbed model expects the first tracked delivery to be
        // dropped.
        if perturb
            && k == s
                .sends
                .iter()
                .position(|x| x.expect == Some(true))
                .unwrap_or(0)
        {
            expect = false;
        }
        let got = seen.get(&snd.flow).map_or(&[][..], Vec::as_slice);
        let ok = if expect {
            got.len() == 1 && got[0] >= snd.at && got[0] <= snd.at + WINDOW
        } else {
            got.is_empty()
        };
        if !ok && bad < 5 {
            bad += 1;
            eprintln!(
                "campus: flow {} at {} s from {} to {:?}: expected {}, saw {:?}",
                snd.flow,
                snd.at / SEC,
                snd.src,
                snd.dst,
                expect,
                got
            );
        }
        report.check(ok);
    }
    r
}

pub fn run(args: &Args, tr: &mut Tracer) -> Report {
    let sched = generate(args.seed);
    let mut report = Report::default();
    let inputs = (sched.presence.len() + sched.sends.len()) as f64;
    let mut window = Window::new(args);
    let mut first: Option<(Round, crate::adapter::FabricCounts)> = None;
    let mut hour_ms = Vec::new();
    while let Some(trace_this) = window.next_round() {
        let (mut f, eps) = set_up(
            &mut report,
            tr,
            "setup.fabric",
            window.rounds() == 1,
            || setup(args.seed, &sched),
        );
        let mut off = Tracer::new(false);
        let round = run_round(
            &mut f,
            &eps,
            &sched,
            &mut report,
            if trace_this { tr } else { &mut off },
            args.perturb,
        );
        let busy = round.hour_ms.iter().sum::<f64>() / 1e3;
        report.round(trace_this, (DAYS * DAY / SEC) as f64, busy);
        if trace_this {
            hour_ms.extend_from_slice(&round.hour_ms);
        }
        if first.is_none() {
            let counts = f.counts();
            first = Some((round, counts));
        }
    }
    let (round, c) = first.expect("at least one round runs");
    if hour_ms.is_empty() {
        hour_ms = round.hour_ms.clone();
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    report.layer("simnet.events", c.events as f64);
    report.layer("simnet.events_per_input", c.events as f64 / inputs);
    report.layer("simnet.host_ms_per_sim_hour.p50", median(&hour_ms));
    report.layer("simnet.host_ms_per_sim_hour.max", quantile(&hour_ms, 1.0));
    report.layer("simnet.routing_ingress_peak", c.routing_ingress_peak as f64);
    crate::warehouse::core_layers(&mut report, &c);
    report.layer("core.edge_fib_mean", mean(&round.edge_fib));
    report.layer("core.border_fib_mean", mean(&round.border_fib));
    report
}
