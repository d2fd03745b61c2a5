//! The fabric's benchmark: one workload per process.
//!
//! ```text
//! fabricbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--perturb]
//! ```
//!
//! Each workload generates its inputs from the seed, sets the program
//! up several times (reporting the median as `setup_s`), then repeats
//! whole rounds of the same operations until `--seconds` have passed,
//! checking every round's outputs against the benchmark's own models.
//! `ops_per_s` is the work of every untraced round over the host
//! seconds those rounds spent in the program. The last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. `correct` is false, and the exit code 1,
//! when any checked operation failed.
//!
//! `--perturb` corrupts one entry of the workload's model, so the run
//! must report failed operations; the self-test uses it to show that
//! the checks can fail.

mod adapter;
mod campus;
mod engine;
mod metro;
mod trace;
mod util;
mod warehouse;

use std::time::{Duration, Instant};

use trace::Tracer;

/// The end-to-end metrics every workload reports with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ops_per_s", "1/s"),
];

/// The per-layer metrics reported with `--trace 1`. A workload that
/// does not exercise a layer reports 0 for it (see README.md for which
/// workload moves which metric).
const PER_LAYER: &[(&str, &str)] = &[
    ("simnet.events", "count"),
    ("simnet.events_per_input", "ratio"),
    ("simnet.host_ms_per_sim_hour.p50", "ms"),
    ("simnet.host_ms_per_sim_hour.max", "ms"),
    ("simnet.routing_ingress_peak", "count"),
    ("core.delivered", "count"),
    ("core.default_routed", "count"),
    ("core.smrs", "count"),
    ("core.mobility_forwards", "count"),
    ("core.map_requests_per_kdelivery", "ratio"),
    ("core.registers", "count"),
    ("core.publishes", "count"),
    ("core.edge_fib_mean", "entries"),
    ("core.border_fib_mean", "entries"),
    ("core.handover_ms_p50", "sim_ms"),
    ("core.handover_ms_p95", "sim_ms"),
    ("dataplane.pkts_per_call", "ratio"),
    ("dataplane.load_ns", "ns"),
    ("dataplane.classify_ns", "ns"),
    ("dataplane.ingress_ns", "ns"),
    ("dataplane.egress_ns", "ns"),
    ("dataplane.encap_write_ns", "ns"),
    ("dataplane.punt_ns", "ns"),
    ("dataplane.unaccounted_ns", "ns"),
    ("dataplane.unaccounted_ns.probes_after", "ns"),
    ("dataplane.unaccounted_ns.probes_before", "ns"),
    ("lisp.cache_lookup_ns", "ns"),
    ("lisp.cache_update_ns", "ns"),
    ("lisp.db_lookup_ns", "ns"),
    ("policy.verdict_ns", "ns"),
    ("wire.parse_ns", "ns"),
    ("wire.emit_ns", "ns"),
    ("ctrl.register_ns", "ns"),
    ("ctrl.request_ns", "ns"),
    ("ctrl.flush_ns_per_publish", "ns"),
    ("ctrl.expire_ms", "ms"),
    ("ctrl.table_mib", "MiB"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// Before its first round every workload sets the program up at least
/// `SETUP_REPS` times and for at least `SETUP_MIN_S` seconds; `setup_s`
/// is the median over these and every later round's set-up, so a
/// set-up of a few milliseconds still yields a steady figure.
const SETUP_REPS: usize = 3;
const SETUP_MIN_S: f64 = 1.0;

/// Times `setup` (repeatedly when `first`, see [`SETUP_REPS`]) into
/// `report.setups` and returns the last result.
pub fn set_up<T>(
    report: &mut Report,
    tr: &mut Tracer,
    name: &'static str,
    first: bool,
    mut setup: impl FnMut() -> T,
) -> T {
    let mut last = None;
    let (mut reps, mut spent) = (0, 0.0);
    while last.is_none() || (first && (reps < SETUP_REPS || spent < SETUP_MIN_S)) {
        drop(last.take());
        tr.enter(name);
        let t0 = Instant::now();
        last = Some(setup());
        let dt = t0.elapsed().as_secs_f64();
        tr.exit(1);
        report.setups.push(dt);
        reps += 1;
        spent += dt;
    }
    last.expect("set up at least once")
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub perturb: bool,
}

/// What a workload hands back.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Set-up durations, one per set-up, in seconds.
    pub setups: Vec<f64>,
    /// Rounds, work and host seconds spent in the program, untraced
    /// (`[0]`) and traced (`[1]`).
    rounds: [u64; 2],
    ops: [f64; 2],
    busy_s: [f64; 2],
    /// Per-layer values by name (only traced runs fill most of them).
    layers: Vec<(&'static str, f64)>,
}

impl Report {
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn layer(&mut self, name: &'static str, v: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.layers.push((name, v));
    }

    /// Records one round: `ops` units of work that took `busy_s` host
    /// seconds inside the program.
    pub fn round(&mut self, traced: bool, ops: f64, busy_s: f64) {
        let i = usize::from(traced);
        self.rounds[i] += 1;
        self.ops[i] += ops;
        self.busy_s[i] += busy_s;
    }

    /// Work per host second over every (untraced or traced) round of
    /// the run.
    fn rate(&self, traced: bool) -> f64 {
        let i = usize::from(traced);
        if self.busy_s[i] > 0.0 {
            self.ops[i] / self.busy_s[i]
        } else {
            0.0
        }
    }
}

/// The measuring window: rounds start while the deadline has not
/// passed, and at least `min_rounds` rounds always run. Traced runs
/// alternate untraced and traced rounds (so they need two), and report
/// the difference of their rates as the tracing overhead.
pub struct Window {
    start: Instant,
    len: Duration,
    min_rounds: u64,
    trace: bool,
    rounds: u64,
}

impl Window {
    pub fn new(args: &Args) -> Self {
        Window {
            start: Instant::now(),
            len: Duration::from_secs_f64(args.seconds),
            min_rounds: if args.trace { 2 } else { 1 },
            trace: args.trace,
            rounds: 0,
        }
    }

    /// Whether another round starts, and whether it is traced.
    pub fn next_round(&mut self) -> Option<bool> {
        if self.rounds >= self.min_rounds && self.start.elapsed() >= self.len {
            return None;
        }
        self.rounds += 1;
        Some(self.trace && self.rounds.is_multiple_of(2))
    }

    /// Rounds started so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut perturb) =
        (None, 1u64, 10.0f64, false, false);
    while let Some(flag) = it.next() {
        if flag == "--perturb" {
            perturb = true;
            continue;
        }
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(v),
            "--seed" => seed = v.parse().map_err(|_| format!("bad seed {v}"))?,
            "--seconds" => seconds = v.parse().map_err(|_| format!("bad seconds {v}"))?,
            "--trace" => trace = v == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        perturb,
    })
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fabricbench: {e}");
            std::process::exit(2);
        }
    };
    let mut tracer = Tracer::new(args.trace);
    let mut report = match args.workload.as_str() {
        "campus_week" => campus::run(&args, &mut tracer),
        "warehouse_roam" => warehouse::run(&args, &mut tracer),
        "edge_engine" => engine::run(&args, &mut tracer),
        "metro_ctrl" => metro::run(&args, &mut tracer),
        w => {
            eprintln!("fabricbench: unknown workload {w}");
            std::process::exit(2);
        }
    };

    let ops_per_s = report.rate(false);
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        let traced = report.rate(true);
        if traced > 0.0 {
            report.layer("trace.overhead_pct", (ops_per_s / traced - 1.0) * 100.0);
        }
        report.layer("trace.spans", tracer.seen() as f64);
        let path = std::path::PathBuf::from(".bench_out")
            .join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
        if let Err(e) = tracer.write(&path) {
            eprintln!("fabricbench: cannot write {}: {e}", path.display());
        }
        for (name, unit) in PER_LAYER {
            let v = report
                .layers
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |(_, v)| *v);
            metrics.push((name, v, unit));
        }
    } else {
        for (name, unit) in END_TO_END {
            let v = match *name {
                "setup_s" => util::median(&report.setups),
                "peak_rss_mib" => util::peak_rss_mib(),
                "ops_per_s" => ops_per_s,
                _ => unreachable!("every end-to-end metric is computed above"),
            };
            metrics.push((name, v, unit));
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    eprintln!(
        "fabricbench: {} seed {}: {} attempted, {} failed, {} setups, {} rounds, {:.3} busy s",
        args.workload,
        args.seed,
        report.attempted,
        report.failed,
        report.setups.len(),
        report.rounds[0] + report.rounds[1],
        report.busy_s[0] + report.busy_s[1]
    );
    let correct = report.attempted > 0 && report.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
