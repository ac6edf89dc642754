//! One end-to-end benchmark of an InfoSleuth community.
//!
//! ```text
//! infosleuth-e2ebench --workload <walk_tcp|churn_bus> --seed <n>
//!                     --seconds <s> --trace <0|1>
//! infosleuth-e2ebench --probe
//! ```
//!
//! Each run is one closed loop: a single client thread issues the next
//! operation only after the previous one answered, and a watcher thread
//! timestamps the notifications standing subscriptions receive. The last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer split with `--trace 1`. `--probe` prints a
//! host probe (pointer chase over 256 KiB and 2 MiB) instead. See
//! README.md for the workloads, metrics and checks.

mod churn_bus;
mod community;
mod layers;
mod probe;
mod trace;
mod util;
mod walk_tcp;

use layers::LayerInputs;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use util::{median, ms, peak_rss_mib, process_cpu, quantile, Recorder};

/// A workload: generated inputs that can start a running community.
pub trait Workload {
    /// Starts the community on the generated inputs (timed as set-up).
    fn setup(&self) -> Result<Box<dyn World>, String>;
    /// The inputs the traced run replays through single layers.
    fn layer_inputs(&self) -> LayerInputs;
    /// Untimed rounds run after set-up, before measuring.
    fn warm_rounds(&self) -> usize;
    /// Set-ups per untimed run; `setup_s` is their median.
    fn setups(&self) -> usize;
}

/// A running community.
pub trait World {
    /// One whole round of the workload's operations.
    fn round(&mut self, rec: &mut Recorder);
    /// Called once warm-up is over: forget warm-up timings.
    fn begin_measurement(&mut self) {}
    /// End-of-run checks over everything the watcher received.
    fn finish(&mut self, rec: &mut Recorder);
    /// Match-cache `(hits, lookups)` summed over the community's brokers.
    fn cache_stats(&self) -> (u64, u64);
    /// Inter-broker forwards sent by the community's brokers.
    fn forwards(&self) -> u64;
    fn shutdown(self: Box<Self>);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = it.next() {
        if flag == "--probe" {
            return Ok(None);
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Some(Args { workload, seed, seconds, trace }))
}

fn workload(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "walk_tcp" => Box::new(walk_tcp::WalkTcp::generate(seed)),
        "churn_bus" => Box::new(churn_bus::ChurnBus::generate(seed)),
        other => return Err(format!("unknown workload {other}")),
    })
}

/// Metrics in print order: `(name, value, unit)`.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            probe::print();
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let wl = match workload(&args.workload, args.seed) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let measure = Duration::from_secs_f64(args.seconds);
    let outcome =
        if args.trace { traced(&*wl, &args, measure) } else { untraced(&*wl, args.seed, measure) };
    let (rec, metrics) = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2ebench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for f in rec.failures.iter().chain(&rec.violations) {
        eprintln!("e2ebench: check failed: {f}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rec.violations.is_empty(),
        rec.attempted,
        rec.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

/// Runs whole rounds until `length` has passed; returns the operations
/// per second of client busy time (wall time less think time).
fn run_for(world: &mut dyn World, rec: &mut Recorder, length: Duration) -> f64 {
    let (ops, thought) = (rec.attempted, rec.thought);
    let start = Instant::now();
    while start.elapsed() < length {
        world.round(rec);
    }
    let busy = start.elapsed() - (rec.thought - thought);
    (rec.attempted - ops) as f64 / busy.as_secs_f64()
}

/// Warm-up rounds: their operations count as attempted (and failed, if
/// they fail) but their latencies are not kept.
fn warm(wl: &dyn Workload, world: &mut dyn World, rec: &mut Recorder, seed: u64) {
    let mut w = Recorder::new(!seed);
    for _ in 0..wl.warm_rounds() {
        world.round(&mut w);
    }
    rec.attempted += w.attempted;
    rec.failed += w.failed;
    rec.failures.extend(w.failures);
    world.begin_measurement();
}

fn untraced(wl: &dyn Workload, seed: u64, length: Duration) -> Result<(Recorder, Metrics), String> {
    let mut setups = Vec::with_capacity(wl.setups());
    let mut world = None;
    for i in 0..wl.setups() {
        let start = Instant::now();
        let w = wl.setup()?;
        setups.push(start.elapsed().as_secs_f64());
        if i + 1 < wl.setups() {
            w.shutdown();
        } else {
            world = Some(w);
        }
    }
    let mut world = world.expect("at least one set-up");
    let mut rec = Recorder::new(seed);
    warm(wl, &mut *world, &mut rec, seed);
    let measured_from = rec.attempted;
    let cpu = process_cpu();
    let ops_per_s = run_for(&mut *world, &mut rec, length);
    let cpu = process_cpu() - cpu;
    let ops = (rec.attempted - measured_from) as f64;
    world.finish(&mut rec);
    world.shutdown();

    for (kind, v) in [
        ("query", &rec.query),
        ("sql", &rec.sql),
        ("advertise", &rec.advertise),
        ("notify", &rec.notify),
    ] {
        println!(
            "reference {kind}: n={} p50={:.3} ms p90={:.3} ms p99={:.3} ms (tails not gated)",
            v.len(),
            median(v),
            quantile(v, 0.9),
            quantile(v, 0.99)
        );
    }
    println!("reference setups_s: {setups:?}");

    let metrics = vec![
        ("setup_s", median(&setups), "s"),
        ("ops_per_s", ops_per_s, "1/s"),
        ("query_p50_ms", median(&rec.query), "ms"),
        ("cpu_ms_per_op", ms(cpu) / ops, "ms"),
        ("peak_rss_mb", peak_rss_mib(), "MiB"),
        ("advertise_p50_ms", median(&rec.advertise), "ms"),
        ("notify_p50_ms", median(&rec.notify), "ms"),
        ("sql_p50_ms", median(&rec.sql), "ms"),
    ];
    Ok((rec, metrics))
}

fn traced(wl: &dyn Workload, args: &Args, length: Duration) -> Result<(Recorder, Metrics), String> {
    let mut world = wl.setup()?;
    // The set-up community with no traffic: what does it burn idle?
    let cpu = process_cpu();
    let idle = Instant::now();
    std::thread::sleep(Duration::from_secs(1));
    let idle_cpu_ms_per_s = ms(process_cpu() - cpu) / idle.elapsed().as_secs_f64();

    let mut rec = Recorder::new(args.seed);
    warm(wl, &mut *world, &mut rec, args.seed);
    rec.tracer = Some(Tracer::default());
    let (hits0, lookups0) = world.cache_stats();
    let forwards0 = world.forwards();
    let (queries0, ops0) = (rec.query.len() + rec.sql.len(), rec.attempted);
    let traced_rate = run_for(&mut *world, &mut rec, length);
    let (hits, lookups) = world.cache_stats();
    let forwards = world.forwards() - forwards0;
    let queries = (rec.query.len() + rec.sql.len() - queries0) as f64;
    let ops = (rec.attempted - ops0) as f64;
    world.finish(&mut rec);
    world.shutdown();

    let mut tr = rec.tracer.take().expect("set above");
    // Tracing adds only the recording of each operation's span to the
    // client's loop (the layer replays run after it), so its overhead is
    // that recording cost over the time an operation takes: near 0 by
    // construction.
    let spans_per_op = tr.counts().values().sum::<usize>() as f64 / ops;
    let overhead_pct = spans_per_op * trace::record_cost_ns() * traced_rate / 1e7;
    println!("reference traced ops_per_s: {traced_rate:.1} (compare the untraced run's ops_per_s)");
    layers::transports(&mut tr);
    let affected_per_update = layers::replay(&wl.layer_inputs(), &mut tr);
    let path =
        PathBuf::from("e2ebench/out").join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    match tr.write_jsonl(&path) {
        Ok(()) => {
            println!("spans: {} written to {}", tr.counts().values().sum::<usize>(), path.display())
        }
        Err(e) => eprintln!("e2ebench: could not write spans to {}: {e}", path.display()),
    }
    for (name, n) in tr.counts() {
        println!("reference spans {name}: n={n} p50={:.2} us", tr.median_us(name));
    }
    let bus_rtt = tr.median_us("bus.rtt");
    let metrics = vec![
        ("bus.rtt_us", bus_rtt, "us"),
        ("tcp.rtt_us", tr.median_us("tcp.rtt"), "us"),
        ("runtime.dispatch_wait_us", tr.median_us("runtime.rtt") - bus_rtt, "us"),
        ("runtime.idle_cpu_ms_per_s", idle_cpu_ms_per_s, "ms/s"),
        ("kqml.parse_us", tr.median_us("kqml.parse"), "us"),
        ("kqml.render_us", tr.median_us("kqml.render"), "us"),
        ("codec.matches_decode_us", tr.median_us("codec.matches_decode"), "us"),
        ("match.miss_us", tr.median_us("match.miss"), "us"),
        ("match.hit_us", tr.median_us("match.hit"), "us"),
        (
            "cache.hits_per_lookup",
            (hits - hits0) as f64 / ((lookups - lookups0).max(1)) as f64,
            "ratio",
        ),
        ("repo.advertise_us", tr.median_us("repo.advertise"), "us"),
        ("repo.saturate_us", tr.median_us("repo.saturate"), "us"),
        ("analysis.admit_us", tr.median_us("analysis.admit"), "us"),
        ("sub.affected_us", tr.median_us("sub.affected"), "us"),
        ("sub.affected_per_update", affected_per_update, "count"),
        ("digest.build_us", tr.median_us("digest.build"), "us"),
        ("routing.forwards_per_query", forwards as f64 / queries.max(1.0), "count"),
        ("relquery.exec_us", tr.median_us("relquery.exec"), "us"),
        ("tablecodec.decode_us", tr.median_us("tablecodec.decode"), "us"),
        ("trace.overhead_pct", overhead_pct, "%"),
    ];
    Ok((rec, metrics))
}
