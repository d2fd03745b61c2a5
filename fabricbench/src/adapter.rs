//! Every call the benchmark makes into the program lives in this file.
//!
//! The workloads and their models speak plain values (IPv4 addresses,
//! group numbers, nanosecond instants); this module turns them into the
//! program's types and back. It uses the entry points the table-API
//! cleanup keeps — `FabricBuilder`/`Fabric`, the single-threaded
//! `Switch` with its `&self` read paths (`VrfTable::classify`,
//! `MapCache::lookup_batch_shared`, `CompiledAcl::check`) and
//! `PartitionedMapServer` — so a change to those APIs touches one file.

use std::net::Ipv4Addr;

use sda_core::controller::{BorderHandle, EdgeHandle};
use sda_core::{check_convergence, EndpointIdentity, ExpectedPlacement, Fabric, FabricBuilder};
use sda_ctrl::{AdmissionConfig, PartitionedMapServer};
use sda_dataplane::{
    parse_underlay, write_underlay, DropReason, EncapParams, InnerProto, LocalEndpoint,
    OuterChecksum, PacketBuf, Punt, Switch, SwitchConfig, Verdict, UNDERLAY_OVERHEAD,
};
use sda_lisp::map_cache::CacheOutcome;
use sda_policy::{Action, ConnectivityMatrix};
use sda_simnet::{SimDuration, SimTime};
use sda_types::{Eid, EidPrefix, GroupId, Ipv4Prefix, MacAddr, PortId, Rloc, VnId};
use sda_wire::lisp::Message;
use sda_workloads::metro::{MetroParams, MetroWorkload};

/// The locator of fabric router `i` (edges, borders and servers share
/// the `10.255.x.y` plan).
pub fn router_rloc(i: u16) -> Ipv4Addr {
    Rloc::for_router_index(i).addr()
}

fn t(ns: u64) -> SimTime {
    SimTime::from_nanos(ns)
}

fn vn_id(raw: u32) -> VnId {
    VnId::new(raw).expect("VN id fits 24 bits")
}

fn prefix(net: Ipv4Addr, len: u8) -> Ipv4Prefix {
    Ipv4Prefix::new(net, len).expect("valid prefix")
}

fn host_v4(p: &EidPrefix) -> Option<Ipv4Addr> {
    match p {
        EidPrefix::V4(p) if p.len() == 32 => Some(p.addr()),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Fabric (simnet + core)
// ---------------------------------------------------------------------

/// The `FabricConfig` knobs the fabric workloads set.
pub struct FabricKnobs {
    pub register_mac: bool,
    pub register_ttl_secs: u32,
    pub refresh: Option<SimDur>,
    pub purge: Option<SimDur>,
    pub eviction: SimDur,
    pub idle_timeout: SimDur,
}

/// A duration in simulated nanoseconds.
pub type SimDur = u64;

pub const SEC: u64 = 1_000_000_000;
pub const MS: u64 = 1_000_000;

/// An endpoint minted by the builder (its credentials stay inside).
#[derive(Clone, Copy)]
pub struct Ep {
    id: EndpointIdentity,
}

impl Ep {
    pub fn ipv4(&self) -> Ipv4Addr {
        self.id.ipv4
    }
}

/// The fabric under construction (`FabricBuilder`).
pub struct FabricPlan {
    b: FabricBuilder,
    vn: VnId,
    edges: Vec<EdgeHandle>,
    borders: Vec<BorderHandle>,
}

impl FabricPlan {
    pub fn new(seed: u64, knobs: &FabricKnobs, vn: u32, net: Ipv4Addr, len: u8) -> Self {
        let mut b = FabricBuilder::new(seed);
        {
            let c = b.config_mut();
            c.register_mac = knobs.register_mac;
            c.register_ttl_secs = knobs.register_ttl_secs;
            c.refresh_interval = knobs.refresh.map(SimDuration::from_nanos);
            c.purge_interval = knobs.purge.map(SimDuration::from_nanos);
            c.eviction_interval = SimDuration::from_nanos(knobs.eviction);
            c.idle_timeout = SimDuration::from_nanos(knobs.idle_timeout);
            c.fib_sample_interval = None;
        }
        let vn = b.add_vn(vn, prefix(net, len));
        FabricPlan {
            b,
            vn,
            edges: Vec::new(),
            borders: Vec::new(),
        }
    }

    pub fn allow(&mut self, src: u16, dst: u16) {
        self.b.allow(self.vn, GroupId(src), GroupId(dst));
    }

    pub fn add_edges(&mut self, n: usize) {
        for i in 0..n {
            let h = self.b.add_edge(format!("edge{i}"));
            self.edges.push(h);
        }
    }

    /// Adds a border; `internet` gives it the `0.0.0.0/0` exit.
    pub fn add_border(&mut self, internet: bool) {
        let ext = if internet {
            vec![prefix(Ipv4Addr::UNSPECIFIED, 0)]
        } else {
            Vec::new()
        };
        let h = self
            .b
            .add_border(format!("border{}", self.borders.len()), ext);
        self.borders.push(h);
    }

    pub fn mint(&mut self, group: u16) -> Ep {
        Ep {
            id: self.b.mint_endpoint(self.vn, GroupId(group)),
        }
    }

    /// `FabricBuilder::build`.
    pub fn build(self) -> FabricRun {
        FabricRun {
            f: self.b.build(),
            vn: self.vn,
            edges: self.edges,
            borders: self.borders,
        }
    }
}

/// Work counters read from the fabric's public accessors.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct FabricCounts {
    pub events: u64,
    pub routing_ingress_peak: u64,
    pub delivered: u64,
    pub default_routed: u64,
    pub smrs: u64,
    pub mobility_forwards: u64,
    pub map_requests: u64,
    pub registers: u64,
    pub publishes: u64,
    pub switch_rx: u64,
    pub switch_batches: u64,
}

/// A built fabric (`Fabric`).
pub struct FabricRun {
    f: Fabric,
    vn: VnId,
    edges: Vec<EdgeHandle>,
    borders: Vec<BorderHandle>,
}

impl FabricRun {
    pub fn attach(&mut self, at: u64, edge: usize, ep: Ep, port: u16) {
        self.f
            .attach_at(t(at), self.edges[edge], ep.id, PortId(port));
    }

    pub fn detach(&mut self, at: u64, edge: usize, ep: Ep) {
        self.f.detach_at(t(at), self.edges[edge], ep.id.mac);
    }

    #[allow(clippy::too_many_arguments)]
    pub fn send(
        &mut self,
        at: u64,
        edge: usize,
        src: Ep,
        dst: Ipv4Addr,
        len: u16,
        flow: u64,
        track: bool,
    ) {
        self.f.send_at(
            t(at),
            self.edges[edge],
            src.id.mac,
            Eid::V4(dst),
            len,
            flow,
            track,
        );
    }

    /// `Fabric::run_until`.
    pub fn run_until(&mut self, at: u64) {
        self.f.run_until(t(at));
    }

    pub fn edge_fib_v4(&self, edge: usize) -> usize {
        self.f.edge(self.edges[edge]).fib_len_v4()
    }

    pub fn border_fib_v4(&self, border: usize) -> usize {
        self.f.border(self.borders[border]).fib_len_v4()
    }

    /// Tracked deliveries to `dst` as `(time_ns, flow)`, in order.
    pub fn deliveries(&self, dst: Ipv4Addr) -> Vec<(u64, u64)> {
        self.f
            .metrics()
            .series(&format!("deliver.{}", Eid::V4(dst)))
            .iter()
            .map(|(at, flow)| (at.as_nanos(), *flow as u64))
            .collect()
    }

    pub fn counts(&mut self) -> FabricCounts {
        let mut c = FabricCounts::default();
        for h in &self.edges {
            let e = self.f.edge(*h);
            let s = e.stats();
            c.delivered += s.delivered;
            c.default_routed += s.default_routed;
            c.smrs += s.smrs_sent;
            c.mobility_forwards += s.mobility_forwards;
            c.map_requests += s.map_requests;
            let sw = e.switch().stats();
            c.switch_rx += sw.rx;
            c.switch_batches += sw.batches;
        }
        for h in &self.borders {
            let b = self.f.border(*h);
            c.delivered += b.stats().delivered;
            let sw = b.switch().stats();
            c.switch_rx += sw.rx;
            c.switch_batches += sw.batches;
        }
        let st = self.f.routing_server().server().stats();
        c.registers = st.registers;
        c.publishes = st.publishes;
        let routing = self.f.routing_node();
        let sim = self.f.sim_mut();
        c.events = sim.events_processed();
        c.routing_ingress_peak = u64::from(sim.ingress_peak(routing));
        c
    }

    /// `check_convergence` against `placement` (endpoint → serving
    /// edge). Returns the number of disagreements of every kind.
    pub fn convergence_faults(&self, placement: &[(Ipv4Addr, usize)]) -> usize {
        let expected: ExpectedPlacement = placement
            .iter()
            .map(|(ip, edge)| {
                (
                    (self.vn, Eid::V4(*ip)),
                    Rloc::for_router_index(1 + *edge as u16),
                )
            })
            .collect();
        let r = check_convergence(&self.f, &expected);
        if !r.converged() {
            eprintln!("convergence: {r:?}");
        }
        r.stuck_resolving
            + r.stuck_registers
            + r.stuck_subscribes
            + r.db_missing
            + r.db_wrong_rloc
            + r.db_extra
            + r.border_diffs
            + r.edge_cache_mismatches
    }
}

// ---------------------------------------------------------------------
// Edge engine (dataplane + lisp map-cache + policy)
// ---------------------------------------------------------------------

/// What became of one frame, in plain values.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Out {
    Forward(Ipv4Addr),
    Deliver(u16),
    External,
    Drop(&'static str),
}

/// A punt, in plain values.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PuntView {
    MapRequest { dst: Ipv4Addr, refresh: bool },
    Smr { to: Ipv4Addr, dst: Ipv4Addr },
}

/// An underlay header as `parse_underlay` reads it.
pub struct UnderlayView<'a> {
    pub outer_src: Ipv4Addr,
    pub outer_dst: Ipv4Addr,
    pub vni: u32,
    pub group: Option<u16>,
    pub inner: &'a [u8],
}

/// Which of the two switches.
#[derive(Clone, Copy)]
pub enum Side {
    A,
    B,
}

const MAPPING_TTL: SimDuration = SimDuration::from_secs(48 * 3600);
pub const BATCH: usize = sda_dataplane::BATCH_SIZE;

/// Two `Switch`es: `a` is the edge under test, `b` a remote edge that
/// decapsulates what `a` forwards to it.
pub struct EngineRig {
    a: Switch,
    b: Switch,
    vn: VnId,
    matrix: ConnectivityMatrix,
    bufs: Vec<PacketBuf>,
    bbufs: Vec<PacketBuf>,
    punts: Vec<Punt>,
    b_punts: Vec<Punt>,
    eids: Vec<Eid>,
    outcomes: Vec<CacheOutcome>,
    hdr: Vec<u8>,
}

fn out_of(v: &Verdict) -> Out {
    match v {
        Verdict::Forward { to } => Out::Forward(to.addr()),
        Verdict::Deliver { port } => Out::Deliver(port.0),
        Verdict::DeliverExternal => Out::External,
        Verdict::Drop(r) => Out::Drop(match r {
            DropReason::Malformed => "malformed",
            DropReason::Unsupported => "unsupported",
            DropReason::UnknownSource => "unknown_source",
            DropReason::Policy => "policy",
            DropReason::NoRoute => "no_route",
            DropReason::NotOurs => "not_ours",
            DropReason::TtlExpired => "ttl_expired",
        }),
    }
}

impl EngineRig {
    pub fn new(vn: u32, a: u16, b: u16, border: u16) -> Self {
        let mk = |i: u16| {
            let mut cfg = SwitchConfig::new(Rloc::for_router_index(i));
            cfg.border = Some(Rloc::for_router_index(border));
            Switch::new(cfg)
        };
        EngineRig {
            a: mk(a),
            b: mk(b),
            vn: vn_id(vn),
            matrix: ConnectivityMatrix::new(),
            bufs: (0..BATCH).map(|_| PacketBuf::new()).collect(),
            bbufs: (0..BATCH).map(|_| PacketBuf::new()).collect(),
            punts: Vec::new(),
            b_punts: Vec::new(),
            eids: Vec::with_capacity(BATCH),
            outcomes: Vec::with_capacity(BATCH),
            hdr: vec![0; UNDERLAY_OVERHEAD + 64],
        }
    }

    pub fn rule(&mut self, src: u16, dst: u16, allow: bool) {
        let action = if allow { Action::Allow } else { Action::Deny };
        self.matrix
            .set_rule(self.vn, GroupId(src), GroupId(dst), action);
    }

    /// Compiles the rules into both switches.
    pub fn install_policy(&mut self) {
        self.a.install_matrix(&self.matrix);
        self.b.install_matrix(&self.matrix);
    }

    pub fn attach(&mut self, side: Side, port: u16, group: u16, mac: [u8; 6], ip: Ipv4Addr) {
        let ep = LocalEndpoint {
            port: PortId(port),
            group: GroupId(group),
            mac: MacAddr(mac),
            ipv4: ip,
        };
        match side {
            Side::A => self.a.attach(self.vn, ep),
            Side::B => self.b.attach(self.vn, ep),
        }
    }

    /// `Switch::install_mapping` on `a` (a Map-Reply or a re-install
    /// after a move).
    pub fn install(&mut self, ip: Ipv4Addr, rloc: Ipv4Addr, now: u64) {
        self.a.install_mapping(
            self.vn,
            EidPrefix::host(Eid::V4(ip)),
            Rloc(rloc),
            MAPPING_TTL,
            t(now),
        );
    }

    /// `Switch::receive_smr` on `a`.
    pub fn smr(&mut self, ip: Ipv4Addr, now: u64) -> Option<Ipv4Addr> {
        self.a
            .receive_smr(self.vn, Eid::V4(ip), t(now))
            .map(|r| r.addr())
    }

    pub fn compact(&mut self) {
        self.a.compact_tables();
        self.b.compact_tables();
    }

    /// `PacketBuf::load` into `a`'s burst slot `i`.
    pub fn load(&mut self, i: usize, frame: &[u8]) -> bool {
        self.bufs[i].load(frame)
    }

    /// `Switch::process_ingress` on `a` over the first `n` slots.
    pub fn ingress(&mut self, n: usize, now: u64) {
        self.a.process_ingress(&mut self.bufs[..n], t(now));
    }

    /// Verdicts of `a`'s last burst.
    pub fn a_verdicts(&self) -> Vec<Out> {
        self.a.verdicts().iter().map(out_of).collect()
    }

    /// Verdicts of `b`'s last burst.
    pub fn b_verdicts(&self) -> Vec<Out> {
        self.b.verdicts().iter().map(out_of).collect()
    }

    /// Moves `a`'s slots `idx` into `b`'s burst (the wire between them;
    /// buffers are swapped, not copied).
    pub fn hand_to_b(&mut self, idx: &[usize]) {
        for (j, &i) in idx.iter().enumerate() {
            std::mem::swap(&mut self.bufs[i], &mut self.bbufs[j]);
        }
    }

    /// `Switch::process_egress` on `b` over its first `n` slots.
    pub fn egress(&mut self, n: usize, now: u64) {
        self.b.process_egress(&mut self.bbufs[..n], t(now));
    }

    pub fn a_bytes(&self, i: usize) -> &[u8] {
        self.bufs[i].bytes()
    }

    pub fn b_bytes(&self, j: usize) -> &[u8] {
        self.bbufs[j].bytes()
    }

    /// `parse_underlay` over `a`'s slot `i`.
    pub fn underlay(&self, i: usize) -> Option<UnderlayView<'_>> {
        let d = parse_underlay(self.bufs[i].bytes()).ok()?;
        Some(UnderlayView {
            outer_src: d.outer_src.addr(),
            outer_dst: d.outer_dst.addr(),
            vni: d.vn.raw(),
            group: d.group.map(|g| g.0),
            inner: d.inner,
        })
    }

    /// Drains both punt queues; returns how many `b` raised (the
    /// benchmark keeps `a`'s for [`EngineRig::a_punts`]).
    pub fn drain_punts(&mut self) -> usize {
        self.punts.clear();
        self.a.drain_punts_into(&mut self.punts);
        self.b_punts.clear();
        self.b.drain_punts_into(&mut self.b_punts);
        self.b_punts.len()
    }

    /// The punts `a` raised in its last drained burst.
    pub fn a_punts(&self) -> Vec<PuntView> {
        let mut views = Vec::with_capacity(self.punts.len());
        for p in &self.punts {
            let v4 = |e: &Eid| match e {
                Eid::V4(a) => *a,
                _ => Ipv4Addr::UNSPECIFIED,
            };
            views.push(match p {
                Punt::MapRequest { eid, refresh, .. } => PuntView::MapRequest {
                    dst: v4(eid),
                    refresh: *refresh,
                },
                Punt::Smr { to, eid, .. } => PuntView::Smr {
                    to: to.addr(),
                    dst: v4(eid),
                },
            });
        }
        views
    }

    /// (rx, batches) of both switches.
    pub fn rx_batches(&self) -> (u64, u64) {
        let (a, b) = (self.a.stats(), self.b.stats());
        (a.rx + b.rx, a.batches + b.batches)
    }

    // --- stage probes: the layers `process_ingress` fuses, called one
    // by one on the same inputs ---

    /// `VrfTable::classify` per source MAC.
    pub fn probe_classify(&self, macs: &[[u8; 6]]) -> usize {
        let vrf = self.a.tables().vrf();
        macs.iter()
            .filter(|m| vrf.classify(MacAddr(**m)).is_some())
            .count()
    }

    /// `MapCache::lookup_batch_shared` over remote destinations.
    pub fn probe_cache(&mut self, dsts: &[Ipv4Addr], now: u64) -> usize {
        self.eids.clear();
        self.eids.extend(dsts.iter().map(|d| Eid::V4(*d)));
        self.a
            .map_cache()
            .lookup_batch_shared(self.vn, &self.eids, t(now), &mut self.outcomes);
        self.outcomes
            .iter()
            .filter(|o| !matches!(o, CacheOutcome::Miss))
            .count()
    }

    /// `CompiledAcl::check` per group pair.
    pub fn probe_acl(&self, pairs: &[(u16, u16)]) -> usize {
        let acl = self.a.acl();
        pairs
            .iter()
            .filter(|(s, d)| {
                acl.check(self.vn, GroupId(*s), GroupId(*d), Action::Deny) == Action::Allow
            })
            .count()
    }

    /// `write_underlay` once per forwarded frame, into a scratch header.
    pub fn probe_encap(&mut self, n: usize) -> usize {
        let p = EncapParams {
            outer_src: self.a.config().rloc,
            outer_dst: Rloc::for_router_index(2),
            vn: self.vn,
            group: GroupId(10),
            policy_applied: false,
            ttl: 8,
            src_port: 49152,
            udp_checksum: OuterChecksum::Zero,
            inner_proto: InnerProto::Ipv4,
        };
        let mut ok = 0;
        for _ in 0..n {
            ok += usize::from(write_underlay(&mut self.hdr, &p).is_ok());
        }
        ok
    }
}

// ---------------------------------------------------------------------
// Metro control plane (wire + lisp + ctrl)
// ---------------------------------------------------------------------

/// A LISP control message as the program represents it.
pub type Msg = Message;

/// A control message, in plain values.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum MsgView {
    Register {
        vn: u32,
        eid: Ipv4Addr,
        rloc: Ipv4Addr,
        ttl_secs: u32,
    },
    Request {
        vn: u32,
        eid: Ipv4Addr,
        itr: Ipv4Addr,
        nonce: u64,
    },
    Subscribe {
        vn: u32,
        subscriber: Ipv4Addr,
    },
    Reply {
        vn: u32,
        eid: Option<Ipv4Addr>,
        rloc: Option<Ipv4Addr>,
        negative: bool,
        nonce: u64,
    },
    Notify {
        vn: u32,
        eid: Ipv4Addr,
        rloc: Ipv4Addr,
    },
    Publish {
        vn: u32,
        eid: Option<Ipv4Addr>,
        rloc: Ipv4Addr,
        withdraw: bool,
    },
    SubscribeAck {
        vn: u32,
    },
    Busy,
}

fn v4_of(e: &Eid) -> Ipv4Addr {
    match e {
        Eid::V4(a) => *a,
        _ => Ipv4Addr::UNSPECIFIED,
    }
}

pub fn view(m: &Message) -> MsgView {
    match m {
        Message::MapRegister {
            vn,
            eid,
            rloc,
            ttl_secs,
            ..
        } => MsgView::Register {
            vn: vn.raw(),
            eid: v4_of(eid),
            rloc: rloc.addr(),
            ttl_secs: *ttl_secs,
        },
        Message::MapRequest {
            nonce,
            vn,
            eid,
            itr_rloc,
            ..
        } => MsgView::Request {
            vn: vn.raw(),
            eid: v4_of(eid),
            itr: itr_rloc.addr(),
            nonce: *nonce,
        },
        Message::Subscribe { vn, subscriber, .. } => MsgView::Subscribe {
            vn: vn.raw(),
            subscriber: subscriber.addr(),
        },
        Message::MapReply {
            nonce,
            vn,
            prefix,
            rloc,
            negative,
            ..
        } => MsgView::Reply {
            vn: vn.raw(),
            eid: host_v4(prefix),
            rloc: rloc.map(|r| r.addr()),
            negative: *negative,
            nonce: *nonce,
        },
        Message::MapNotify {
            vn, eid, new_rloc, ..
        } => MsgView::Notify {
            vn: vn.raw(),
            eid: v4_of(eid),
            rloc: new_rloc.addr(),
        },
        Message::Publish {
            vn,
            prefix,
            rloc,
            withdraw,
            ..
        } => MsgView::Publish {
            vn: vn.raw(),
            eid: host_v4(prefix),
            rloc: rloc.addr(),
            withdraw: *withdraw,
        },
        Message::SubscribeAck { vn, .. } => MsgView::SubscribeAck { vn: vn.raw() },
        Message::ServerBusy { .. } => MsgView::Busy,
    }
}

/// The metro generator's stream at one size, in phase order.
pub struct MetroStream {
    pub subscriptions: Vec<Message>,
    pub registers: Vec<Message>,
    pub churn: Vec<Message>,
    pub requests: Vec<Message>,
}

/// Runs the `sda-workloads` metro generator.
pub fn metro_stream(
    seed: u64,
    endpoints: u32,
    churn: u32,
    requests: u32,
    ttl_secs: u32,
) -> MetroStream {
    let w = MetroWorkload::new(MetroParams {
        endpoints,
        churn_moves: churn,
        requests,
        register_ttl_secs: ttl_secs,
        seed,
        ..MetroParams::full()
    });
    MetroStream {
        subscriptions: w.subscriptions().collect(),
        registers: w.initial_registers().collect(),
        churn: w.churn().collect(),
        requests: w.requests().collect(),
    }
}

/// `Message::emit`, appended to `out`.
pub fn emit_into(m: &Message, out: &mut Vec<u8>) {
    out.extend_from_slice(&m.emit());
}

/// `Message::parse`.
pub fn parse(bytes: &[u8]) -> Option<Message> {
    Message::parse(bytes).ok()
}

/// A `PartitionedMapServer` with admission control on.
pub struct CtrlServer {
    s: PartitionedMapServer,
}

/// `(served, outbox)` of one handled message.
pub type Handled = (bool, Vec<(Ipv4Addr, Message)>);

impl CtrlServer {
    /// `shards` partitions, delta queues of `queue_cap` changes per
    /// subscriber; admission on with `rate`/`burst` per class.
    pub fn new(shards: usize, rate: f64, burst: f64, queue_cap: usize) -> Self {
        let mut s = PartitionedMapServer::with_queue_capacity(
            Rloc::for_router_index(65000),
            shards,
            queue_cap,
        );
        s.set_admission(Some(AdmissionConfig::uniform(
            rate,
            burst,
            SimDuration::from_millis(100),
        )));
        CtrlServer { s }
    }

    /// `PartitionedMapServer::handle_with_disposition`.
    pub fn handle(&mut self, m: Message, now: u64) -> Handled {
        let (d, out) = self.s.handle_with_disposition(m, t(now));
        (
            d == sda_ctrl::server::Disposition::Served,
            out.into_iter().map(|(r, m)| (r.addr(), m)).collect(),
        )
    }

    /// `PartitionedMapServer::flush_publishes`.
    pub fn flush(&mut self) -> Vec<(Ipv4Addr, Message)> {
        self.s
            .flush_publishes()
            .into_iter()
            .map(|(r, m)| (r.addr(), m))
            .collect()
    }

    /// `PartitionedMapServer::expire`.
    pub fn expire(&mut self, now: u64) -> usize {
        self.s.expire(t(now))
    }

    /// `PartitionedMapServer::lookup`: the RLOC currently mapped.
    pub fn lookup(&self, vn: u32, eid: Ipv4Addr, now: u64) -> Option<Ipv4Addr> {
        self.s
            .lookup(vn_id(vn), Eid::V4(eid), t(now))
            .map(|(_, rec)| rec.rloc.addr())
    }

    pub fn db_len(&self) -> usize {
        self.s.db_len()
    }

    /// Trie arena bytes reserved across shards, in MiB (`mem_stats`).
    pub fn table_mib(&self) -> f64 {
        self.s.mem_stats().capacity_bytes as f64 / (1024.0 * 1024.0)
    }

    /// Messages shed or dropped at a down shard.
    pub fn refused(&self) -> u64 {
        let o = self.s.overload_stats();
        o.shed_total() + o.shard_drops
    }
}
