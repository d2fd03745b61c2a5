//! `metro_ctrl`: the partitioned map-server at metro scale, fed LISP
//! wire bytes. The metro generator's stream for [`ENDPOINTS`] endpoints
//! is emitted to bytes once; every round then parses and serves it on a
//! fresh `PartitionedMapServer`: [`BORDERS`] borders subscribe to every
//! VN, every endpoint onboards, [`CHURN`] endpoints move (each change
//! published to every subscribed border), [`REQUESTS`] Map-Requests
//! resolve, and an expiry sweep withdraws the registrations whose TTL
//! lapsed. Replies and publishes are emitted back to bytes.
//!
//! Admission control is on at a budget that never sheds, and the
//! server has no more shards than the host has CPUs, because `expire`
//! sweeps each shard on its own thread.
//!
//! Checks, against a map of (vn, eid) → RLOC fed by the same stream:
//! every reply, notify and acknowledgment; the publishes of each flush
//! (one per subscribed border per change); the number of expired
//! registrations and their withdrawals; no message refused.

use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::time::Instant;

use crate::adapter::{self, view, CtrlServer, MsgView, SEC};
use crate::trace::Tracer;
use crate::{set_up, Args, Report, Window};

const ENDPOINTS: u32 = 1_000_000;
const CHURN: u32 = 100_000;
const REQUESTS: u32 = 100_000;
const BORDERS: usize = 4;
const TTL_SECS: u32 = 48 * 3600;
const HOUR: u64 = 3600 * SEC;
/// Onboarding is spread over ten simulated hours, churn over the next
/// hour, requests over the one after.
const ONBOARD_SPAN: u64 = 10 * HOUR;
/// The expiry sweep lapses registrations made in the first half hour
/// of onboarding (and not moved since).
const SWEEP_AT: u64 = TTL_SECS as u64 * SEC + HOUR / 2 + 18 * 1_000_000;
/// Messages between pub/sub flushes (below the per-subscriber queue
/// bound, so no flush ever needs a snapshot resync).
const FLUSH_EVERY: usize = 256;
/// Per-subscriber bound of the server's delta queue.
const QUEUE_CAP: usize = 1024;
/// Admission budget far above any rate the stream reaches.
const RATE: f64 = 1e12;
const BURST: f64 = 1e9;

/// The stream as bytes, with the simulated send time of each message.
struct Inputs {
    bytes: Vec<u8>,
    ends: Vec<usize>,
    at: Vec<u64>,
    views: Vec<MsgView>,
}

fn shards() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// Generates the stream and emits it to bytes (the timed set-up).
fn setup(seed: u64) -> Inputs {
    let s = adapter::metro_stream(seed, ENDPOINTS, CHURN, REQUESTS, TTL_SECS);
    let n = s.subscriptions.len() + s.registers.len() + s.churn.len() + s.requests.len();
    let mut inp = Inputs {
        bytes: Vec::with_capacity(n * 40),
        ends: Vec::with_capacity(n),
        at: Vec::with_capacity(n),
        views: Vec::with_capacity(n),
    };
    let phases = [
        (&s.subscriptions, 0, 1),
        (&s.registers, 0, ONBOARD_SPAN),
        (&s.churn, ONBOARD_SPAN, HOUR),
        (&s.requests, ONBOARD_SPAN + HOUR, HOUR),
    ];
    for (msgs, start, span) in phases {
        let len = msgs.len().max(1) as u64;
        for (k, m) in msgs.iter().enumerate() {
            adapter::emit_into(m, &mut inp.bytes);
            inp.ends.push(inp.bytes.len());
            inp.at.push(start + k as u64 * span / len);
            inp.views.push(view(m));
        }
    }
    inp
}

/// The benchmark's map: eid → (vn, rloc, registered at).
type Model = HashMap<Ipv4Addr, (u32, Ipv4Addr, u64)>;

/// A change the server must publish to every border of its VN.
type Change = (u32, Ipv4Addr, Ipv4Addr, bool);

/// Expected outbox of one input message; updates the model.
fn expect(
    v: &MsgView,
    at: u64,
    model: &mut Model,
    changes: &mut Vec<Change>,
    subs: &mut Vec<Ipv4Addr>,
) -> Vec<(Ipv4Addr, MsgView)> {
    match *v {
        MsgView::Subscribe { vn, subscriber } => {
            if !subs.contains(&subscriber) {
                subs.push(subscriber);
            }
            vec![(subscriber, MsgView::SubscribeAck { vn })]
        }
        MsgView::Register { vn, eid, rloc, .. } => {
            let prev = model.insert(eid, (vn, rloc, at));
            match prev {
                Some((_, old, reg)) if at - reg < TTL_SECS as u64 * SEC => {
                    if old == rloc {
                        Vec::new()
                    } else {
                        changes.push((vn, eid, rloc, false));
                        vec![(old, MsgView::Notify { vn, eid, rloc })]
                    }
                }
                _ => {
                    changes.push((vn, eid, rloc, false));
                    Vec::new()
                }
            }
        }
        MsgView::Request {
            vn,
            eid,
            itr,
            nonce,
        } => {
            let rloc = model.get(&eid).map(|e| e.1);
            vec![(
                itr,
                MsgView::Reply {
                    vn,
                    eid: Some(eid),
                    rloc,
                    negative: rloc.is_none(),
                    nonce,
                },
            )]
        }
        _ => Vec::new(),
    }
}

fn publishes(changes: &[Change], subs: &[Ipv4Addr]) -> Vec<(Ipv4Addr, MsgView)> {
    let mut v: Vec<(Ipv4Addr, MsgView)> = changes
        .iter()
        .flat_map(|&(vn, eid, rloc, withdraw)| {
            subs.iter().map(move |s| {
                (
                    *s,
                    MsgView::Publish {
                        vn,
                        eid: Some(eid),
                        rloc,
                        withdraw,
                    },
                )
            })
        })
        .collect();
    v.sort();
    v
}

fn sorted(out: &[(Ipv4Addr, adapter::Msg)]) -> Vec<(Ipv4Addr, MsgView)> {
    let mut v: Vec<(Ipv4Addr, MsgView)> = out.iter().map(|(to, m)| (*to, view(m))).collect();
    v.sort();
    v
}

/// Packs a publish as `(subscriber, vn, eid, rloc, withdraw)` into one
/// sortable key.
fn pub_key(sub: usize, vn: u32, eid: Ipv4Addr, rloc: Ipv4Addr, withdraw: bool) -> u128 {
    (u128::from(vn) << 104)
        | ((sub as u128) << 96)
        | (u128::from(u32::from(eid)) << 64)
        | (u128::from(u32::from(rloc)) << 32)
        | u128::from(withdraw)
}

/// The publishes after the expiry sweep, for every subscriber and VN
/// in the form the bounded delta queue ([`QUEUE_CAP`] changes per
/// subscriber, across its VNs) dictates. Every border subscribes to
/// every VN, so each is owed every lapsed registration's withdrawal:
/// - all of them fit in the queue: exactly the VN's withdrawals;
/// - the VN alone lapses more than the queue holds: its stream
///   overflows whatever the order, so exactly a snapshot of the VN's
///   live registrations;
/// - otherwise which VNs overflow depends on the order the server
///   withdraws in, and either form is accepted. The metro stream
///   spreads endpoints evenly over 64 VNs and lapses ~1,400 per VN,
///   so this case does not arise in `metro_ctrl`.
fn sweep_published(
    flushed: &[(Ipv4Addr, adapter::Msg)],
    subs: &[Ipv4Addr],
    model: &Model,
    ttl: u64,
) -> bool {
    let mut seen: Vec<u128> = Vec::with_capacity(flushed.len());
    for (to, m) in flushed {
        let Some(sub) = subs.iter().position(|s| s == to) else {
            return false;
        };
        let MsgView::Publish {
            vn,
            eid: Some(eid),
            rloc,
            withdraw,
        } = view(m)
        else {
            return false;
        };
        seen.push(pub_key(sub, vn, eid, rloc, withdraw));
    }
    seen.sort_unstable();
    let mut lapsed: Vec<(u32, u128)> = Vec::new();
    let mut live: Vec<(u32, u128)> = Vec::new();
    for (eid, &(vn, rloc, reg)) in model {
        if SWEEP_AT - reg >= ttl {
            lapsed.push((vn, pub_key(0, vn, *eid, rloc, true)));
        } else {
            live.push((vn, pub_key(0, vn, *eid, rloc, false)));
        }
    }
    lapsed.sort_unstable();
    live.sort_unstable();
    let group = |v: &[(u32, u128)], vn: u32| -> Vec<u128> {
        let from = v.partition_point(|(x, _)| *x < vn);
        let to = v.partition_point(|(x, _)| *x <= vn);
        v[from..to].iter().map(|(_, k)| *k).collect()
    };
    let mut vns: Vec<u32> = model.values().map(|(vn, _, _)| *vn).collect();
    vns.sort_unstable();
    vns.dedup();
    let fits = lapsed.len() <= QUEUE_CAP;
    let mut at = 0;
    for &vn in &vns {
        let (withdrawals, snapshot) = (group(&lapsed, vn), group(&live, vn));
        let overflows = withdrawals.len() > QUEUE_CAP;
        for sub in 0..subs.len() {
            let base = pub_key(sub, 0, Ipv4Addr::UNSPECIFIED, Ipv4Addr::UNSPECIFIED, false);
            let n = seen[at..]
                .iter()
                .take_while(|k| (*k >> 96) == (u128::from(vn) << 8 | sub as u128))
                .count();
            let got: Vec<u128> = seen[at..at + n].iter().map(|k| k - base).collect();
            at += n;
            let ok = if fits {
                got == withdrawals
            } else if overflows {
                got == snapshot
            } else {
                got == withdrawals || got == snapshot
            };
            if !ok {
                return false;
            }
        }
    }
    at == seen.len()
}

/// Emits `m` into the send buffer, which is handed off (cleared) every
/// 64 KiB as a socket would take it.
fn send(wire: &mut Vec<u8>, m: &adapter::Msg) {
    adapter::emit_into(m, wire);
    if wire.len() >= 1 << 16 {
        wire.clear();
    }
}

/// One round on a fresh server; returns the host seconds it spent in
/// the program.
fn round(inp: &Inputs, report: &mut Report, tr: &mut Tracer, perturb: bool) -> f64 {
    let mut srv = CtrlServer::new(shards(), RATE, BURST, QUEUE_CAP);
    let mut model: Model = HashMap::with_capacity(ENDPOINTS as usize);
    let mut subs: Vec<Ipv4Addr> = Vec::new();
    let mut busy = 0.0;
    let mut wire = Vec::with_capacity(1 << 16);
    let mut handled: Vec<adapter::Handled> = Vec::with_capacity(FLUSH_EVERY);
    let mut perturbed = !perturb;
    let n = inp.ends.len();
    let mut i = 0;
    while i < n {
        let end = (i + FLUSH_EVERY).min(n);
        handled.clear();
        let t0 = Instant::now();
        for k in i..end {
            let start = if k == 0 { 0 } else { inp.ends[k - 1] };
            tr.enter("wire.parse");
            let msg = adapter::parse(&inp.bytes[start..inp.ends[k]]);
            tr.exit(1);
            let Some(msg) = msg else {
                handled.push((false, Vec::new()));
                continue;
            };
            tr.enter(match inp.views[k] {
                MsgView::Register { .. } => "ctrl.register",
                MsgView::Request { .. } => "ctrl.request",
                _ => "ctrl.subscribe",
            });
            let h = srv.handle(msg, inp.at[k]);
            tr.exit(1);
            tr.enter("wire.emit");
            for (_, m) in &h.1 {
                send(&mut wire, m);
            }
            tr.exit(h.1.len() as u64);
            handled.push(h);
        }
        tr.enter("ctrl.flush");
        let flushed = srv.flush();
        tr.exit(flushed.len() as u64);
        tr.enter("wire.emit");
        for (_, m) in &flushed {
            send(&mut wire, m);
        }
        tr.exit(flushed.len() as u64);
        busy += t0.elapsed().as_secs_f64();

        let mut changes = Vec::new();
        for (k, (served, out)) in (i..end).zip(&handled) {
            let want = expect(
                &inp.views[k],
                inp.at[k],
                &mut model,
                &mut changes,
                &mut subs,
            );
            let got: Vec<(Ipv4Addr, MsgView)> = out.iter().map(|(to, m)| (*to, view(m))).collect();
            if !(*served && got == want) {
                eprintln!("metro_ctrl: message {k}: {:?} served {served}, sent {got:?}, expected {want:?}", inp.views[k]);
            }
            report.check(*served && got == want);
        }
        if !perturbed && !changes.is_empty() {
            // The perturbed model misses one publish.
            changes.pop();
            perturbed = true;
        }
        let ok = sorted(&flushed) == publishes(&changes, &subs);
        if !ok {
            eprintln!(
                "metro_ctrl: flush after message {end}: {} publishes, expected {}",
                flushed.len(),
                changes.len() * subs.len()
            );
        }
        report.check(ok);
        i = end;
    }

    // The data plane's view of the table, off the wire path.
    if tr.on() {
        let reqs: Vec<(u32, Ipv4Addr)> = inp
            .views
            .iter()
            .filter_map(|v| match v {
                MsgView::Request { vn, eid, .. } => Some((*vn, *eid)),
                _ => None,
            })
            .collect();
        tr.enter("lisp.db_lookup");
        let mut found = 0;
        for (vn, eid) in &reqs {
            found += usize::from(srv.lookup(*vn, *eid, SWEEP_AT - HOUR).is_some());
        }
        tr.exit(reqs.len() as u64);
        report.check(found == reqs.len());
    }
    let table_mib = srv.table_mib();

    // Expiry sweep, then the withdrawals it publishes.
    let t0 = Instant::now();
    tr.enter("ctrl.expire");
    let expired = srv.expire(SWEEP_AT);
    tr.exit(1);
    tr.enter("ctrl.flush");
    let flushed = srv.flush();
    tr.exit(flushed.len() as u64);
    tr.enter("wire.emit");
    for (_, m) in &flushed {
        send(&mut wire, m);
    }
    tr.exit(flushed.len() as u64);
    let sweep = t0.elapsed().as_secs_f64();
    let ttl = TTL_SECS as u64 * SEC;
    let lapsed = model
        .values()
        .filter(|(_, _, reg)| SWEEP_AT - reg >= ttl)
        .count();
    let fine = [
        expired == lapsed,
        sweep_published(&flushed, &subs, &model, ttl),
        srv.refused() == 0 && srv.db_len() == model.len() - lapsed && subs.len() == BORDERS,
    ];
    if fine.contains(&false) {
        eprintln!(
            "metro_ctrl: sweep checks {fine:?}: expired {expired} of {} lapsed, {} publishes, {} refused, db {} vs model {}",
            lapsed,
            flushed.len(),
            srv.refused(),
            srv.db_len(),
            model.len()
        );
    }
    for ok in fine {
        report.check(ok);
    }
    report.layer("ctrl.table_mib", table_mib);
    busy + sweep
}

pub fn run(args: &Args, tr: &mut Tracer) -> Report {
    let mut report = Report::default();
    let inp = set_up(&mut report, tr, "setup.metro", true, || setup(args.seed));
    let mut window = Window::new(args);
    while let Some(trace_this) = window.next_round() {
        let mut off = Tracer::new(false);
        let t: &mut Tracer = if trace_this { tr } else { &mut off };
        let busy = round(&inp, &mut report, t, args.perturb && window.rounds() == 1);
        report.round(trace_this, inp.ends.len() as f64, busy);
    }
    let ns = |name: &str| tr.agg(name).ns_per_item();
    report.layer("wire.parse_ns", ns("wire.parse"));
    report.layer("wire.emit_ns", ns("wire.emit"));
    report.layer("ctrl.register_ns", ns("ctrl.register"));
    report.layer("ctrl.request_ns", ns("ctrl.request"));
    report.layer("ctrl.flush_ns_per_publish", ns("ctrl.flush"));
    let e = tr.agg("ctrl.expire");
    report.layer(
        "ctrl.expire_ms",
        e.total_ns as f64 / e.count.max(1) as f64 / 1e6,
    );
    report.layer("lisp.db_lookup_ns", ns("lisp.db_lookup"));
    report
}
