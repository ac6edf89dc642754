//! Small shared pieces: a seeded generator, percentiles, process CPU and
//! peak-RSS readings, and the per-kind latency recorder.

use crate::trace::Tracer;
use std::time::{Duration, Instant};

/// SplitMix64: the benchmark's only source of randomness, so one seed
/// always yields the same inputs whatever the program's own RNG does.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_1e55_b0a7_c0de)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation; `NaN`
/// for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `struct rusage` as Linux lays it out on 64-bit targets.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

fn rusage() -> RUsage {
    let mut r = RUsage { utime: [0; 2], stime: [0; 2], maxrss: 0, rest: [0; 13] };
    // SAFETY: `r` is a correctly sized, writable `struct rusage`;
    // RUSAGE_SELF (0) covers every thread of this process, ended or not.
    let rc = unsafe { getrusage(0, &mut r) };
    assert_eq!(rc, 0, "getrusage failed");
    r
}

/// User + system CPU time of the whole process so far.
pub fn process_cpu() -> Duration {
    let r = rusage();
    let micros = (r.utime[0] + r.stime[0]) * 1_000_000 + r.utime[1] + r.stime[1];
    Duration::from_micros(micros as u64)
}

/// Peak resident set size of the process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    rusage().maxrss as f64 / 1024.0
}

/// Operation kinds; each latency metric is the median of one kind.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Query,
    Sql,
    Advertise,
}

impl Kind {
    fn span_name(self) -> &'static str {
        match self {
            Kind::Query => "op.query",
            Kind::Sql => "op.sql",
            Kind::Advertise => "op.advertise",
        }
    }
}

/// Think time before each operation is drawn from `0..THINK_MAX`: one
/// full period of the runtime's 2 ms dispatcher poll, so an operation's
/// arrival phase against the poll does not lock to the length of the
/// operation before it.
const THINK_MAX_US: i64 = 2_000;

/// Latencies (ms) per kind, notification delays, and op counts.
pub struct Recorder {
    think: Rng,
    /// Total think time slept so far.
    pub thought: Duration,
    pub query: Vec<f64>,
    pub sql: Vec<f64>,
    pub advertise: Vec<f64>,
    pub notify: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// First failure descriptions, printed to stderr.
    pub failures: Vec<String>,
    /// Run-level check failures (not tied to one operation); any makes
    /// the run incorrect.
    pub violations: Vec<String>,
    /// Set in the traced run: every operation becomes a root span.
    pub tracer: Option<Tracer>,
}

impl Recorder {
    pub fn new(seed: u64) -> Recorder {
        Recorder {
            think: Rng::new(seed ^ 0x7417),
            thought: Duration::ZERO,
            query: Vec::new(),
            sql: Vec::new(),
            advertise: Vec::new(),
            notify: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            violations: Vec::new(),
            tracer: None,
        }
    }

    /// Sleeps the client's think time, then returns the operation's
    /// start instant.
    pub fn start(&mut self) -> Instant {
        let think = Duration::from_micros(self.think.range(0, THINK_MAX_US - 1) as u64);
        let before = Instant::now();
        std::thread::sleep(think);
        let start = Instant::now();
        self.thought += start - before;
        start
    }

    /// Records one operation: its latency under its kind when it passed
    /// its check, a failure otherwise.
    pub fn op(&mut self, kind: Kind, start: Instant, end: Instant, outcome: Result<(), String>) {
        let elapsed = ms(end - start);
        if let Some(t) = &mut self.tracer {
            t.record(kind.span_name(), 0, start, end);
        }
        self.attempted += 1;
        match outcome {
            Ok(()) => match kind {
                Kind::Query => self.query.push(elapsed),
                Kind::Sql => self.sql.push(elapsed),
                Kind::Advertise => self.advertise.push(elapsed),
            },
            Err(e) => self.fail(format!("{kind:?}: {e}")),
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    pub fn violation(&mut self, why: String) {
        self.violations.push(why);
    }
}
