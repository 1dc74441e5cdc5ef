//! The Leap benchmark: one workload per run, end-to-end or per-layer.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <app-mix|stream-scan|dvmm-baseline|tenant-storm> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, timed on warm, untraced
//! Serial replays. `--trace 1` prints the per-layer metrics of a traced
//! replay (see `layers`). Either way every replay is checked against the
//! first one, and the last line of standard output is the JSON result.
//! See `benchmark/README.md` for the workloads and the metric map.

mod check;
mod layers;
mod reference;
mod report;
mod workloads;

use std::time::{Duration, Instant};

use leap::ReplayMode;
use leap::RunResult;

use check::Outcome;
use layers::Layer;
use report::{median, median_index, Metrics, MIB};
use workloads::{Body, Inputs, Kind, Raw};

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: leap-benchmark --workload <app-mix|stream-scan|dvmm-baseline|\
                     tenant-storm> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let kind = Kind::from_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("bad --seed: {e}"))?;
    let seconds = value("--seconds")?
        .parse()
        .map_err(|e| format!("bad --seconds: {e}"))?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
    })
}

/// Set-up repeats: at least this many, and more while they add up to less
/// than [`SETUP_MIN_TOTAL`].
const SETUP_MIN_REPEATS: usize = 3;
const SETUP_MAX_REPEATS: usize = 200;
const SETUP_MIN_TOTAL: Duration = Duration::from_secs(1);
/// Fewest timed replays a run reports a median over.
const MIN_TIMED_REPLAYS: usize = 3;

/// A run's progress: replays attempted, checks that failed.
#[derive(Default)]
struct Ledger {
    replays: u64,
    errors: Vec<String>,
}

impl Ledger {
    /// Counts a replay and records a failure unless it equals `want`.
    fn check(&mut self, what: &str, want: &Outcome, got: &mut Raw) {
        self.replays += 1;
        if got.outcome() != *want {
            self.errors
                .push(format!("{what} differs from the first serial replay"));
        }
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Builds the inputs again, keeping the last build, until enough set-ups
/// are timed. Like the replays, each set-up is measured against the
/// reference kernel run before and after it; the median is returned in
/// seconds at the kernel's nominal speed, with the median wall-clock time.
fn set_up_again(kind: Kind, seed: u64, first: Inputs) -> (Inputs, f64, f64) {
    let mut secs = Vec::new();
    let mut refs = vec![reference::seconds()];
    let mut inputs = Some(first);
    while secs.len() < SETUP_MIN_REPEATS
        || (secs.iter().sum::<f64>() < SETUP_MIN_TOTAL.as_secs_f64()
            && secs.len() < SETUP_MAX_REPEATS)
    {
        drop(inputs.take());
        let (built, s) = timed(|| Inputs::build(kind, seed));
        refs.push(reference::seconds());
        secs.push(s);
        inputs = Some(built);
    }
    let nominal = reference::in_nominal_seconds(&secs, &refs);
    (inputs.expect("at least one set-up"), nominal, median(&secs))
}

/// Checks a `tenant-storm` replay actually met the storm: faults were
/// injected, recovery acted, partitions forced fail-fasts, and the storm
/// window lies inside the wave.
fn storm_guards(inputs: &Inputs, first: &mut Raw, ledger: &mut Ledger) {
    let Body::Storm(storm) = &inputs.body else {
        return;
    };
    let makespan = first.completion();
    let Raw::Service(report) = first else {
        unreachable!("the storm's timed replay is a service run");
    };
    let mut fail = |what: String| ledger.errors.push(format!("tenant-storm guard: {what}"));
    if report.waves.len() != 1 {
        fail(format!("{} waves, expected one", report.waves.len()));
    }
    let r = &report.waves[0].result;
    let faulted = r.fault_stats.spiked_requests
        + r.fault_stats.degraded_requests
        + r.fault_stats.reconnect_requests;
    if faulted == 0 {
        fail("no request met an injected fault".into());
    }
    let rec = &r.recovery_stats;
    if rec.retries + rec.hedges_issued == 0 {
        fail("recovery issued no retry or hedge".into());
    }
    if rec.partition_failfasts == 0 {
        fail("no dispatch failed fast off a partitioned link".into());
    }
    if storm.fault.start.is_zero() || storm.fault.horizon > makespan {
        fail(format!(
            "storm window {}..{} ns is not inside the {} ns makespan",
            storm.fault.start.as_nanos(),
            storm.fault.horizon.as_nanos(),
            makespan.as_nanos()
        ));
    }
}

/// Share of attempted accesses served at full health: not degraded to the
/// disk path by a partition, not refused admission.
fn served_ratio(inputs: &Inputs, result: &RunResult) -> f64 {
    let lost = result.recovery_stats.degraded_reads + inputs.refused_accesses();
    1.0 - lost as f64 / inputs.accesses() as f64
}

/// The end-to-end run: set-up, one warm-up replay, more set-ups, timed
/// Serial replays for `seconds`, then the Threaded check.
fn end_to_end(args: &Args, ledger: &mut Ledger) -> (Metrics, Inputs) {
    let inputs = Inputs::build(args.kind, args.seed);

    let mut first = inputs.replay(ReplayMode::Serial);
    ledger.replays += 1;
    let want = first.outcome();
    storm_guards(&inputs, &mut first, ledger);
    let completion = first.completion();
    let served = served_ratio(&inputs, first.result());
    let result = first.result();
    let samples = result.remote_access_latency.len();
    let mean = result.remote_access_latency.mean();
    let p99 = result.remote_access_latency.percentile(99.0);
    let (coverage, accuracy) = (
        result.prefetch_stats.coverage(),
        result.prefetch_stats.accuracy(),
    );
    // Read before anything but one set-up and one Serial replay has run:
    // repeated set-ups, the reference kernel and the Threaded replay's
    // per-thread allocator arenas all make the peak jitter.
    let peak_rss = report::peak_rss_mib();
    drop(first);
    let (inputs, setup_s, setup_wall_s) = set_up_again(args.kind, args.seed, inputs);

    // Each replay is timed between two runs of the reference kernel, which
    // cancels most of the host's drift in speed (see `reference`).
    let mut secs = Vec::new();
    let mut refs = vec![reference::seconds()];
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    while secs.len() < MIN_TIMED_REPLAYS || Instant::now() < deadline {
        let (mut raw, s) = timed(|| inputs.replay(ReplayMode::Serial));
        refs.push(reference::seconds());
        ledger.check("a timed replay", &want, &mut raw);
        drop(raw);
        secs.push(s);
    }
    let replay_nominal_s = reference::in_nominal_seconds(&secs, &refs);
    let mut threaded = inputs.replay(ReplayMode::Threaded);
    ledger.check("the Threaded replay", &want, &mut threaded);
    drop(threaded);
    println!(
        "{}: {} accesses per replay, {} timed replays, {samples} remote-access latency samples",
        args.kind.name(),
        inputs.accesses(),
        secs.len(),
    );
    println!(
        "wall-clock: {:.0} pages/s median, set-up {setup_wall_s:.6} s median, \
         reference kernel {:.4} s median",
        inputs.accesses() as f64 / median(&secs),
        median(&refs),
    );

    let mut m = Metrics::default();
    m.add(
        "pages_per_s",
        inputs.accesses() as f64 / replay_nominal_s,
        "1/s",
    );
    m.add("setup_s", setup_s, "s");
    m.add("peak_rss_mb", peak_rss, "MiB");
    m.add("sim_fault_mean_us", mean.as_nanos() as f64 / 1e3, "us");
    m.add("sim_fault_p99_us", p99.as_nanos() as f64 / 1e3, "us");
    m.add("sim_completion_s", completion.as_secs_f64(), "s");
    m.add("prefetch_coverage", coverage, "ratio");
    m.add("prefetch_accuracy", accuracy, "ratio");
    let served = if ledger.errors.is_empty() {
        served
    } else {
        0.0
    };
    m.add("served_ratio", served, "ratio");
    (m, inputs)
}

/// One traced replay's numbers.
struct TracedReplay {
    secs: f64,
    trace: layers::Trace,
    peak_rise_mib: f64,
}

/// The per-layer run: set-up, one warm-up replay, the Threaded check, then
/// untraced, service (for `tenant-storm`) and traced Serial replays in
/// turn for `seconds`.
fn per_layer(args: &Args, ledger: &mut Ledger) -> (Metrics, Inputs) {
    let (inputs, setup_s) = timed(|| Inputs::build(args.kind, args.seed));
    let rss_after_setup = report::rss_mib();

    let (mut first, cold_s) = timed(|| inputs.replay(ReplayMode::Serial));
    ledger.replays += 1;
    let want = first.outcome();
    storm_guards(&inputs, &mut first, ledger);
    let result = first.result();
    let latency_samples = [
        result.remote_access_latency.len(),
        result.access_latency.len(),
        result.eviction_wait.len(),
        result.allocation_wait.len(),
        result.prefetch_stats.timeliness_ref().len(),
    ]
    .iter()
    .sum::<usize>() as f64;
    let p50 = result.remote_access_latency.percentile(50.0);
    let cache = result.cache_stats;
    let swapped_out = result.pages_swapped_out as f64;
    let stall = result.pipeline.total_stall.as_secs_f64();
    let faults = result.fault_stats;
    let rec = result.recovery_stats;
    drop(first);

    let (mut threaded, threaded_s) = timed(|| inputs.replay(ReplayMode::Threaded));
    ledger.check("the Threaded replay", &want, &mut threaded);
    drop(threaded);

    // Untraced, service (for `tenant-storm`) and traced replays take turns,
    // so their medians see the same host conditions.
    let storm = matches!(inputs.body, Body::Storm(_));
    let peak_resettable = report::reset_peak_rss();
    let mut untraced = Vec::new();
    let mut service = Vec::new();
    let mut traced: Vec<TracedReplay> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    while traced.len() < 2 || Instant::now() < deadline {
        let (mut raw, secs) = timed(|| inputs.untraced());
        ledger.check("an untraced replay", &want, &mut raw);
        drop(raw);
        untraced.push(secs);
        if storm {
            let (mut raw, secs) = timed(|| inputs.replay(ReplayMode::Serial));
            ledger.check("a service run", &want, &mut raw);
            drop(raw);
            service.push(secs);
        }
        report::reset_peak_rss();
        let rss_before = report::rss_mib();
        layers::reset();
        let (mut raw, secs) = timed(|| inputs.traced());
        let trace = layers::take();
        let peak_rise_mib = report::peak_rss_mib() - rss_before;
        ledger.check("a traced replay", &want, &mut raw);
        drop(raw);
        traced.push(TracedReplay {
            secs,
            trace,
            peak_rise_mib,
        });
    }
    let untraced_s = median(&untraced);
    let service_s = median(&service);
    let mid = &traced[median_index(&traced.iter().map(|t| t.secs).collect::<Vec<_>>())];
    let trace = &mid.trace;
    let replay_ns = (mid.secs * 1e9) as u64;
    let self_ns = replay_ns.saturating_sub(trace.spans_ns());
    if trace.spans_ns() > replay_ns {
        ledger
            .errors
            .push("layer spans add up to more than the replay".into());
    }
    println!(
        "{}: {} traced replays, {} untraced; peak reset {}",
        args.kind.name(),
        traced.len(),
        untraced.len(),
        if peak_resettable {
            "available"
        } else {
            "unavailable"
        },
    );

    let accesses = inputs.accesses() as f64;
    let secs = |ns: u64| ns as f64 / 1e9;
    let per = |ns: u64, n: u64| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
    let prefetcher = trace.layer(Layer::Prefetcher);
    let datapath = trace.layer(Layer::DataPath);
    let eviction = trace.layer(Layer::Eviction);
    let observer = trace.layer(Layer::Observer);
    let c = trace.counts;

    let mut m = Metrics::default();
    m.add("workloads.generate_s", inputs.generate_s, "s");
    m.add("workloads.setup_s", setup_s, "s");
    m.add(
        "workloads.trace_mb",
        inputs.trace_bytes() as f64 / MIB,
        "MiB",
    );
    m.add("prefetcher.calls", prefetcher.calls as f64, "count");
    m.add("prefetcher.busy_s", secs(prefetcher.total_ns), "s");
    m.add(
        "prefetcher.ns_per_call",
        per(prefetcher.total_ns, prefetcher.calls),
        "ns",
    );
    m.add(
        "prefetcher.pages_suggested",
        c.pages_suggested as f64,
        "count",
    );
    m.add("datapath.reads", c.reads as f64, "count");
    m.add("datapath.writes", c.writes as f64, "count");
    m.add("datapath.span_calls", c.span_calls as f64, "count");
    m.add(
        "datapath.pages_read",
        (c.reads + c.pages_read) as f64,
        "count",
    );
    m.add("datapath.busy_s", secs(datapath.total_ns), "s");
    m.add(
        "datapath.ns_per_page",
        per(datapath.total_ns, c.reads + c.pages_read + c.writes),
        "ns",
    );
    let faulted = faults.spiked_requests + faults.degraded_requests + faults.reconnect_requests;
    m.add("remote.faulted_requests", faulted as f64, "count");
    m.add("remote.retries", rec.retries as f64, "count");
    m.add(
        "remote.deadline_timeouts",
        rec.deadline_timeouts as f64,
        "count",
    );
    m.add("remote.hedges_issued", rec.hedges_issued as f64, "count");
    let waste = if rec.hedges_issued == 0 {
        0.0
    } else {
        rec.hedges_wasted as f64 / rec.hedges_issued as f64
    };
    m.add("remote.hedge_waste_ratio", waste, "ratio");
    m.add(
        "remote.partition_failfasts",
        rec.partition_failfasts as f64,
        "count",
    );
    m.add("remote.degraded_reads", rec.degraded_reads as f64, "count");
    m.add("eviction.calls", eviction.calls as f64, "count");
    m.add("eviction.busy_s", secs(eviction.total_ns), "s");
    m.add("eviction.reclaim_calls", c.reclaim_calls as f64, "count");
    m.add(
        "eviction.pages_reclaimed",
        c.pages_reclaimed as f64,
        "count",
    );
    m.add("mem.cache_hits", cache.hits() as f64, "count");
    m.add("mem.cache_misses", cache.misses() as f64, "count");
    m.add("mem.cache_adds", cache.cache_adds() as f64, "count");
    m.add("mem.pages_swapped_out", swapped_out, "count");
    m.add("mem.rss_after_setup_mb", rss_after_setup, "MiB");
    m.add("leap.replay_s", mid.secs, "s");
    m.add("leap.self_s", secs(self_ns), "s");
    m.add("leap.self_ns_per_access", self_ns as f64 / accesses, "ns");
    m.add("leap.cold_replay_s", cold_s, "s");
    m.add("leap.replay_peak_mb", mid.peak_rise_mib, "MiB");
    m.add("leap.pipeline_stall_sim_s", stall, "s");
    let serial_s = if service_s > 0.0 {
        service_s
    } else {
        untraced_s
    };
    m.add("leap.threaded_speedup", serial_s / threaded_s, "ratio");
    m.add("metrics.latency_samples", latency_samples, "count");
    m.add("metrics.fault_p50_us", p50.as_nanos() as f64 / 1e3, "us");
    m.add("metrics.latency_mb", latency_samples * 8.0 / MIB, "MiB");
    let (admitted, rejected) = match &inputs.body {
        Body::Storm(s) => {
            let admission = s.admission();
            (admission.admitted_count(), admission.rejected.len())
        }
        Body::Replay(_) => (0, 0),
    };
    m.add("service.run_s", service_s, "s");
    let overhead = if service_s > 0.0 {
        service_s - untraced_s
    } else {
        0.0
    };
    m.add("service.overhead_s", overhead, "s");
    m.add("service.observer_s", secs(observer.total_ns), "s");
    m.add("service.admitted", admitted as f64, "count");
    m.add("service.rejected", rejected as f64, "count");
    m.add("tracing.overhead_ratio", mid.secs / untraced_s, "ratio");
    (m, inputs)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut ledger = Ledger::default();
    let (metrics, inputs) = if args.trace {
        per_layer(&args, &mut ledger)
    } else {
        end_to_end(&args, &mut ledger)
    };
    for name in metrics.non_finite() {
        ledger.errors.push(format!("{name} is not a finite number"));
    }
    for e in &ledger.errors {
        println!("check failed: {e}");
    }
    print!("{}", metrics.table());
    let correct = ledger.errors.is_empty();
    let attempted = inputs.accesses() * ledger.replays;
    let failed = if correct {
        inputs.refused_accesses() * ledger.replays
    } else {
        attempted
    };
    println!("{}", metrics.json(correct, attempted, failed));
}
