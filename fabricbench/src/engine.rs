//! `edge_engine`: one edge `Switch` fed pre-built frames in 32-frame
//! bursts, with a second `Switch` decapsulating what the first forwards
//! to it. No simulator and no core: the dataplane, the map-cache trie
//! and the compiled policy do nearly all of the work, reads and writes
//! together.
//!
//! The traffic is a campus mix over [`REMOTE`] mappings: local peers,
//! remote peers (those on `b` are decapsulated and delivered there),
//! the Internet through the border default route, and one denied group
//! pair (guests toward infrastructure, dropped locally at `a` or at
//! `b`'s egress). Once every [`HANDOVER_EVERY`] frames a popular remote
//! endpoint moves: `a` receives an SMR, forwards on the stale entry
//! while it punts a refresh, and the benchmark answers with the new
//! mapping. The Internet share, the popularity skew and the payload
//! size are those of the repository's campus frame preset
//! (`sda_workloads::frames::FramePreset::campus`), the move rate that
//! of its warehouse preset; the local and denied-pair shares are the
//! benchmark's own.
//!
//! Checks, per frame, against the benchmark's model of the population,
//! the rules and the mappings: the verdict at `a`; for encapsulated
//! frames, the outer destination, VNI and group `parse_underlay` reads
//! and the inner packet byte for byte; for frames `b` delivers, the
//! destination MAC and the inner packet. Per burst: the punts are
//! exactly the misses and stale hits the model predicts.

use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;
use std::time::Instant;

use crate::adapter::{router_rloc, EngineRig, Out, PuntView, Side, BATCH};
use crate::trace::Tracer;
use crate::util::{Rng, Zipf};
use crate::{set_up, Args, Report, Window};

const VN: u32 = 100;
const A: u16 = 1;
const B: u16 = 2;
const BORDER: u16 = 30_000;
/// Remote edges other than `b`: router indices `3..3 + OTHER_EDGES`.
const OTHER_EDGES: u32 = 97;
const USERS: u16 = 10;
const INFRA: u16 = 20;
const GUEST: u16 = 30;
/// Endpoints on `a`: users, then infrastructure, then guests.
const LOCAL: usize = 96;
const LOCAL_USERS: usize = 64;
const LOCAL_INFRA: usize = 24;
/// Remote endpoints in `a`'s map-cache; the first [`ON_B`] live on `b`.
const REMOTE: u32 = 100_000;
const ON_B: u32 = 4096;
/// Bursts per round (the round replays the same frames).
const BURSTS: usize = 1024;
/// Shares of the traffic: local peers, the Internet (campus preset's
/// `external_share`), the denied pair; the rest goes to remote peers.
const LOCAL_SHARE: f64 = 0.30;
const EXTERNAL_SHARE: f64 = 0.20;
const DENIED_SHARE: f64 = 0.06;
/// Zipf exponent of remote destinations (campus preset's
/// `popularity_skew`).
const SKEW: f64 = 1.0;
/// Inner payload bytes (campus preset's `payload_len`).
const PAYLOAD: usize = 256;
/// Frames per endpoint move (warehouse preset's `handover_every`).
const HANDOVER_EVERY: usize = 24;
/// Simulated time per burst.
const BURST_NS: u64 = 32_000;
const INTERNET: [Ipv4Addr; 4] = [
    Ipv4Addr::new(93, 184, 216, 34),
    Ipv4Addr::new(142, 250, 1, 1),
    Ipv4Addr::new(151, 101, 2, 2),
    Ipv4Addr::new(104, 16, 3, 3),
];

fn local_mac(i: usize) -> [u8; 6] {
    [0x02, 0x0a, 0, 0, (i >> 8) as u8, i as u8]
}

fn local_ip(i: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, 100, (i >> 8) as u8, i as u8)
}

fn local_group(i: usize) -> u16 {
    if i < LOCAL_USERS {
        USERS
    } else if i < LOCAL_USERS + LOCAL_INFRA {
        INFRA
    } else {
        GUEST
    }
}

fn remote_ip(k: u32) -> Ipv4Addr {
    Ipv4Addr::from(u32::from(Ipv4Addr::new(10, 101, 0, 0)) + k)
}

fn remote_mac(k: u32) -> [u8; 6] {
    let b = k.to_be_bytes();
    [0x02, 0x0b, b[0], b[1], b[2], b[3]]
}

fn b_group(k: u32) -> u16 {
    if k.is_multiple_of(4) {
        INFRA
    } else {
        USERS
    }
}

fn home_rloc(k: u32) -> Ipv4Addr {
    if k < ON_B {
        router_rloc(B)
    } else {
        router_rloc(3 + (k % OTHER_EDGES) as u16)
    }
}

/// The next edge a moving endpoint lands on.
fn next_rloc(r: Ipv4Addr) -> Ipv4Addr {
    let idx = u16::from_be_bytes([r.octets()[2], r.octets()[3]]);
    router_rloc(3 + ((u32::from(idx) - 3 + 1) % OTHER_EDGES) as u16)
}

/// The benchmark's copy of the rules (default deny).
fn allowed(src: u16, dst: u16) -> bool {
    matches!(
        (src, dst),
        (USERS, USERS) | (USERS, INFRA) | (INFRA, USERS) | (INFRA, INFRA) | (GUEST, USERS)
    )
}

#[derive(Clone, Copy)]
enum Dst {
    Local(usize),
    Remote(u32),
    Internet(Ipv4Addr),
}

struct Frame {
    src: usize,
    dst: Dst,
    /// Byte range in the round's frame store.
    at: usize,
    len: usize,
}

impl Frame {
    fn dst_ip(&self) -> Ipv4Addr {
        match self.dst {
            Dst::Local(i) => local_ip(i),
            Dst::Remote(k) => remote_ip(k),
            Dst::Internet(ip) => ip,
        }
    }
}

/// The round's inputs: frames, their bytes, the probe inputs per burst
/// and the movers.
struct Inputs {
    frames: Vec<Frame>,
    bytes: Vec<u8>,
    movers: Vec<u32>,
}

fn compose(out: &mut Vec<u8>, src: usize, dst: Ipv4Addr, payload: usize) {
    let ip_len = 20 + payload;
    out.extend_from_slice(&[0xff; 6]);
    out.extend_from_slice(&local_mac(src));
    out.extend_from_slice(&[0x08, 0x00]);
    let mut h = [0u8; 20];
    h[0] = 0x45;
    h[2..4].copy_from_slice(&(ip_len as u16).to_be_bytes());
    h[8] = 64;
    h[9] = 253;
    h[12..16].copy_from_slice(&local_ip(src).octets());
    h[16..20].copy_from_slice(&dst.octets());
    let mut sum = 0u32;
    for w in h.chunks(2) {
        sum += u32::from(u16::from_be_bytes([w[0], w[1]]));
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    h[10..12].copy_from_slice(&(!(sum as u16)).to_be_bytes());
    out.extend_from_slice(&h);
    let start = out.len();
    out.extend((0..payload).map(|i| (i as u8).wrapping_mul(31).wrapping_add(src as u8)));
    debug_assert_eq!(out.len() - start, payload);
}

fn generate(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed);
    let popularity = Zipf::new(REMOTE as usize, SKEW);
    let mut frames = Vec::with_capacity(BURSTS * BATCH);
    let mut bytes = Vec::new();
    let senders = LOCAL_USERS + LOCAL_INFRA;
    for _ in 0..BURSTS * BATCH {
        let u = rng.unit();
        let (src, dst) = if u < LOCAL_SHARE {
            let src = rng.below(senders);
            let mut d = rng.below(senders);
            if d == src {
                d = (d + 1) % senders;
            }
            (src, Dst::Local(d))
        } else if u < 1.0 - EXTERNAL_SHARE - DENIED_SHARE {
            (
                rng.below(senders),
                Dst::Remote(popularity.sample(&mut rng) as u32),
            )
        } else if u < 1.0 - DENIED_SHARE {
            (
                rng.below(senders),
                Dst::Internet(INTERNET[rng.below(INTERNET.len())]),
            )
        } else {
            // The denied pair: a guest toward infrastructure, local or
            // on `b`.
            let src = senders + rng.below(LOCAL - senders);
            if rng.unit() < 0.5 {
                (src, Dst::Local(LOCAL_USERS + rng.below(LOCAL_INFRA)))
            } else {
                (src, Dst::Remote(4 * rng.below((ON_B / 4) as usize) as u32))
            }
        };
        let at = bytes.len();
        let f = Frame {
            src,
            dst,
            at,
            len: 0,
        };
        compose(&mut bytes, src, f.dst_ip(), PAYLOAD);
        frames.push(Frame {
            len: bytes.len() - at,
            ..f
        });
    }
    // Movers: popular remote endpoints not on `b`.
    let mut movers = Vec::new();
    while movers.len() < 64 {
        let k = popularity.sample(&mut rng) as u32;
        if k >= ON_B && !movers.contains(&k) {
            movers.push(k);
        }
    }
    Inputs {
        frames,
        bytes,
        movers,
    }
}

/// The model's view of `a`'s map-cache entries that have moved.
#[derive(Default)]
struct Model {
    rloc: HashMap<u32, Ipv4Addr>,
    stale: HashSet<u32>,
}

impl Model {
    fn rloc_of(&self, k: u32) -> Ipv4Addr {
        self.rloc.get(&k).copied().unwrap_or_else(|| home_rloc(k))
    }
}

/// Builds both switches and their tables (the timed set-up).
fn setup() -> EngineRig {
    let mut rig = EngineRig::new(VN, A, B, BORDER);
    for s in [USERS, INFRA, GUEST] {
        for d in [USERS, INFRA, GUEST] {
            if allowed(s, d) {
                rig.rule(s, d, true);
            }
        }
    }
    rig.rule(GUEST, INFRA, false);
    rig.install_policy();
    for i in 0..LOCAL {
        rig.attach(Side::A, i as u16, local_group(i), local_mac(i), local_ip(i));
    }
    for k in 0..ON_B {
        rig.attach(Side::B, k as u16, b_group(k), remote_mac(k), remote_ip(k));
    }
    for k in 0..REMOTE {
        rig.install(remote_ip(k), home_rloc(k), 0);
    }
    rig.compact();
    rig
}

/// Probe inputs of one burst for the traced stage breakdown.
struct Probe {
    macs: Vec<[u8; 6]>,
    dsts: Vec<Ipv4Addr>,
    pairs: Vec<(u16, u16)>,
}

fn probe_of(frames: &[Frame]) -> Probe {
    let mut p = Probe {
        macs: Vec::new(),
        dsts: Vec::new(),
        pairs: Vec::new(),
    };
    for f in frames {
        p.macs.push(local_mac(f.src));
        let sg = local_group(f.src);
        match f.dst {
            Dst::Local(d) => p.pairs.push((sg, local_group(d))),
            Dst::Remote(k) => {
                p.dsts.push(remote_ip(k));
                if k < ON_B {
                    p.pairs.push((sg, b_group(k)));
                }
            }
            Dst::Internet(ip) => p.dsts.push(ip),
        }
    }
    p
}

struct State {
    model: Model,
    burst: u64,
    next_mover: usize,
    /// Traced bursts by probe order (`[0]`: stages probed after the
    /// fused call, `[1]`: before it): host ns of the fused call and of
    /// the stage probes, and frames.
    split: [(f64, f64, u64); 2],
    /// Perturbations still to apply: a wrong expected RLOC, a flipped
    /// local verdict.
    perturb: bool,
    flip: bool,
}

/// One burst: returns the busy seconds spent in the program.
#[allow(clippy::too_many_arguments)]
fn burst(
    rig: &mut EngineRig,
    inp: &Inputs,
    b: usize,
    st: &mut State,
    probe: Option<&Probe>,
    tr: &mut Tracer,
    report: &mut Report,
) -> f64 {
    let frames = &inp.frames[b * BATCH..(b + 1) * BATCH];
    let now = 1_000_000_000 + st.burst * BURST_NS;
    st.burst += 1;
    let mut busy = 0.0;

    // Mobility: an SMR for a popular endpoint each time another
    // `HANDOVER_EVERY` frames of the round have been sent.
    let moves = b * BATCH / HANDOVER_EVERY - b.saturating_sub(1) * BATCH / HANDOVER_EVERY;
    for _ in 0..moves {
        let k = inp.movers[st.next_mover % inp.movers.len()];
        st.next_mover += 1;
        tr.enter("lisp.cache_update");
        let t0 = Instant::now();
        let had = rig.smr(remote_ip(k), now);
        busy += t0.elapsed().as_secs_f64();
        tr.exit(1);
        report.check(had == Some(st.model.rloc_of(k)));
        st.model.stale.insert(k);
    }

    // Traced rounds time the stages `process_ingress` fuses one by one
    // on the burst's inputs, after the fused call on even bursts and
    // before it on odd ones: whichever runs second finds the caches
    // warm. The probes are not part of `busy`.
    let before = b % 2 == 1;
    let mut stage_ns = 0.0;
    if let (Some(p), true) = (probe, before) {
        stage_ns = probe_stages(rig, p, now, tr);
    }

    tr.enter("dataplane.load");
    let t0 = Instant::now();
    for (i, f) in frames.iter().enumerate() {
        rig.load(i, &inp.bytes[f.at..f.at + f.len]);
    }
    busy += t0.elapsed().as_secs_f64();
    tr.exit(BATCH as u64);

    tr.enter("dataplane.process_ingress");
    let t0 = Instant::now();
    rig.ingress(BATCH, now);
    let fused = t0.elapsed().as_secs_f64();
    busy += fused;
    tr.exit(BATCH as u64);
    if let Some(p) = probe {
        if !before {
            stage_ns = probe_stages(rig, p, now, tr);
        }
        let s = &mut st.split[usize::from(before)];
        s.0 += fused * 1e9;
        s.1 += stage_ns;
        s.2 += BATCH as u64;
    }
    let verdicts = rig.a_verdicts();

    // Check `a`: verdicts and encapsulations.
    let mut to_b = Vec::new();
    let mut want_punts: HashSet<(Ipv4Addr, bool)> = HashSet::new();
    for (i, f) in frames.iter().enumerate() {
        let orig = &inp.bytes[f.at + 14..f.at + f.len];
        let sg = local_group(f.src);
        let expect = match f.dst {
            Dst::Local(d) => {
                // The perturbed model flips the first local verdict.
                let allow = allowed(sg, local_group(d)) != std::mem::take(&mut st.flip);
                if allow {
                    Out::Deliver(d as u16)
                } else {
                    Out::Drop("policy")
                }
            }
            Dst::Remote(k) => {
                if st.model.stale.contains(&k) {
                    want_punts.insert((remote_ip(k), true));
                }
                let mut r = st.model.rloc_of(k);
                if st.perturb {
                    // The perturbed model expects the first remote frame
                    // of the run to go to the wrong edge.
                    st.perturb = false;
                    r = next_rloc(r);
                }
                Out::Forward(r)
            }
            Dst::Internet(ip) => {
                want_punts.insert((ip, false));
                Out::Forward(router_rloc(BORDER))
            }
        };
        let mut ok = verdicts[i] == expect;
        match expect {
            Out::Forward(r) => match rig.underlay(i) {
                Some(u) => {
                    ok &= u.outer_src == router_rloc(A)
                        && u.outer_dst == r
                        && u.vni == VN
                        && u.group == Some(sg)
                        && u.inner == orig;
                    if ok && r == router_rloc(B) {
                        to_b.push(i);
                    }
                }
                None => ok = false,
            },
            Out::Deliver(_) => {
                let Dst::Local(d) = f.dst else { unreachable!() };
                let got = rig.a_bytes(i);
                ok &= got[..6] == local_mac(d) && &got[14..] == orig;
            }
            _ => {}
        }
        if !ok {
            eprintln!(
                "edge_engine: burst {b} frame {i}: expected {expect:?}, got {:?}",
                verdicts[i]
            );
        }
        report.check(ok);
    }

    // `b` decapsulates and enforces what `a` sent it.
    tr.enter("dataplane.process_egress");
    let t0 = Instant::now();
    rig.hand_to_b(&to_b);
    rig.egress(to_b.len(), now);
    busy += t0.elapsed().as_secs_f64();
    tr.exit(to_b.len() as u64);
    let bverdicts = rig.b_verdicts();
    for (j, &i) in to_b.iter().enumerate() {
        let f = &frames[i];
        let Dst::Remote(k) = f.dst else {
            unreachable!()
        };
        let expect = if allowed(local_group(f.src), b_group(k)) {
            Out::Deliver(k as u16)
        } else {
            Out::Drop("policy")
        };
        let mut ok = bverdicts[j] == expect;
        if ok && expect != Out::Drop("policy") {
            let got = rig.b_bytes(j);
            ok = got[..6] == remote_mac(k) && got[14..] == inp.bytes[f.at + 14..f.at + f.len];
        }
        report.check(ok);
    }

    // Punts: exactly the predicted misses and stale hits; each refresh
    // is answered with the endpoint's new location.
    tr.enter("dataplane.punt");
    let t0 = Instant::now();
    let b_punts = rig.drain_punts();
    busy += t0.elapsed().as_secs_f64();
    let punts = rig.a_punts();
    tr.exit(punts.len() as u64);
    let got: HashSet<(Ipv4Addr, bool)> = punts
        .iter()
        .filter_map(|p| match p {
            PuntView::MapRequest { dst, refresh } => Some((*dst, *refresh)),
            PuntView::Smr { .. } => None,
        })
        .collect();
    report.check(got == want_punts && b_punts == 0 && got.len() <= punts.len());
    for (ip, refresh) in got {
        if !refresh {
            continue;
        }
        let k = u32::from(ip) - u32::from(remote_ip(0));
        let r = next_rloc(st.model.rloc_of(k));
        tr.enter("lisp.cache_update");
        let t0 = Instant::now();
        rig.install(ip, r, now);
        busy += t0.elapsed().as_secs_f64();
        tr.exit(1);
        st.model.rloc.insert(k, r);
        st.model.stale.remove(&k);
    }
    busy
}

/// The stages `process_ingress` fuses, each called on its own over one
/// burst's inputs; returns their host ns.
fn probe_stages(rig: &mut EngineRig, p: &Probe, now: u64, tr: &mut Tracer) -> f64 {
    let mut ns = 0.0;
    let mut timed =
        |tr: &mut Tracer, name: &'static str, items: usize, f: &mut dyn FnMut() -> usize| {
            tr.enter(name);
            let t0 = Instant::now();
            std::hint::black_box(f());
            ns += t0.elapsed().as_nanos() as f64;
            tr.exit(items as u64);
        };
    timed(tr, "dataplane.classify", p.macs.len(), &mut || {
        rig.probe_classify(&p.macs)
    });
    timed(tr, "lisp.cache_lookup", p.dsts.len(), &mut || {
        rig.probe_cache(&p.dsts, now)
    });
    timed(tr, "policy.verdict", p.pairs.len(), &mut || {
        rig.probe_acl(&p.pairs)
    });
    timed(tr, "dataplane.encap_write", p.dsts.len(), &mut || {
        rig.probe_encap(p.dsts.len())
    });
    ns
}

pub fn run(args: &Args, tr: &mut Tracer) -> Report {
    let inp = generate(args.seed);
    let probes: Vec<Probe> = (0..BURSTS)
        .map(|b| probe_of(&inp.frames[b * BATCH..(b + 1) * BATCH]))
        .collect();
    let mut report = Report::default();
    let mut rig = set_up(&mut report, tr, "setup.engine", true, setup);
    let mut st = State {
        model: Model::default(),
        burst: 0,
        next_mover: 0,
        split: [(0.0, 0.0, 0); 2],
        perturb: args.perturb,
        flip: args.perturb,
    };
    let mut window = Window::new(args);
    while let Some(trace_this) = window.next_round() {
        let mut off = Tracer::new(false);
        let t: &mut Tracer = if trace_this { tr } else { &mut off };
        let mut busy = 0.0;
        for (b, p) in probes.iter().enumerate() {
            let probe = trace_this.then_some(p);
            busy += burst(&mut rig, &inp, b, &mut st, probe, t, &mut report);
        }
        report.round(trace_this, (BURSTS * BATCH) as f64, busy);
    }
    let ns = |name: &str| tr.agg(name).ns_per_item();
    // Fused time less the stage probes' time, per frame: with the probes
    // after the fused call (warm) an upper bound, before it a lower
    // bound, and over both orders the figure the README reports.
    let unaccounted = |s: &[(f64, f64, u64)]| {
        let (fused, stages, frames) = s
            .iter()
            .fold((0.0, 0.0, 0), |a, x| (a.0 + x.0, a.1 + x.1, a.2 + x.2));
        (fused - stages) / frames.max(1) as f64
    };
    report.layer("dataplane.load_ns", ns("dataplane.load"));
    report.layer("dataplane.classify_ns", ns("dataplane.classify"));
    report.layer("dataplane.ingress_ns", ns("dataplane.process_ingress"));
    report.layer("dataplane.egress_ns", ns("dataplane.process_egress"));
    report.layer("dataplane.encap_write_ns", ns("dataplane.encap_write"));
    report.layer("dataplane.punt_ns", ns("dataplane.punt"));
    report.layer("dataplane.unaccounted_ns", unaccounted(&st.split));
    report.layer(
        "dataplane.unaccounted_ns.probes_after",
        unaccounted(&st.split[..1]),
    );
    report.layer(
        "dataplane.unaccounted_ns.probes_before",
        unaccounted(&st.split[1..]),
    );
    report.layer("lisp.cache_lookup_ns", ns("lisp.cache_lookup"));
    report.layer("lisp.cache_update_ns", ns("lisp.cache_update"));
    report.layer("policy.verdict_ns", ns("policy.verdict"));
    let (rx, batches) = rig.rx_batches();
    report.layer("dataplane.pkts_per_call", rx as f64 / batches.max(1) as f64);
    report
}
