//! Set-up, the timed closed loop, and the checks every reply passes.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

use hypar_engine::{service::handle_line, PlanEngine, PlanResponse, Strategy};
use hypar_telemetry::{statehash, StateHasher};

use crate::workload::{self, Generated, Workload};

/// How many times a run sets up before and after the timed loop;
/// `setup_s` is the median of all of them.
pub const SETUP_REPS_BEFORE: usize = 5;
/// See [`SETUP_REPS_BEFORE`].
pub const SETUP_REPS_AFTER: usize = 5;

/// A workload made ready to time: its lines, the reply each line must
/// get, and what the checks learned from the reference replies.
pub struct Prepared {
    /// The generated request lines and client schedules.
    pub generated: Generated,
    /// The engine the hot workload's clients share (warm); cold
    /// workloads time fresh engines instead.
    pub engine: PlanEngine,
    /// The reference (cold) reply to each line, verified.
    pub cold: Vec<String>,
    /// The reply the timed loop must see for each line: the cold reply
    /// itself, or for hot workloads the same bytes flagged as a hit.
    pub expected: Vec<String>,
    /// Each reference reply, parsed.
    pub responses: Vec<PlanResponse>,
    /// State hashes of the reference replies folded in line order.
    pub digest: String,
}

/// Generates `workload`, plans every line once on a fresh engine, and
/// verifies each reply: no error, the carried `state_hash` re-derives
/// from the deserialized response, and the line missed the cache.
pub fn prepare(workload: Workload, seed: u64) -> Result<Prepared, String> {
    let generated = workload::generate(workload, seed);
    let engine = PlanEngine::new();
    let mut cold = Vec::with_capacity(generated.lines.len());
    let mut responses = Vec::with_capacity(generated.lines.len());
    let mut digest = StateHasher::new();
    digest.write_str(workload.name());
    for line in &generated.lines {
        let reply = handle_line(&engine, line);
        let response = verify_reply(line, &reply)?;
        if response.cache_hit {
            return Err(format!("first request of a line hit the cache: {line}"));
        }
        digest.write_str(&response.state_hash);
        cold.push(reply);
        responses.push(response);
    }
    let expected = if workload.is_hot() {
        cold.iter()
            .map(|reply| reply.replacen("\"cache_hit\":false", "\"cache_hit\":true", 1))
            .collect()
    } else {
        cold.clone()
    };
    Ok(Prepared {
        generated,
        engine,
        cold,
        expected,
        responses,
        digest: statehash::hash_hex(digest.finish()),
    })
}

/// Parses a planning reply and re-derives its `state_hash`.
pub fn verify_reply(line: &str, reply: &str) -> Result<PlanResponse, String> {
    let response: PlanResponse = serde_json::from_str(reply)
        .map_err(|err| format!("reply is not a plan ({err}): {line} -> {reply}"))?;
    let rederived = response.compute_state_hash();
    if rederived != response.state_hash {
        return Err(format!(
            "state_hash {} does not re-derive ({rederived}): {line}",
            response.state_hash
        ));
    }
    Ok(response)
}

/// Sets up `reps` times, each from scratch, and checks that every
/// repetition replied byte-identically to `reference` (or to the first
/// repetition).  Returns the last set-up and each repetition's duration.
pub fn prepare_repeated(
    workload: Workload,
    seed: u64,
    reps: usize,
    reference: Option<&Prepared>,
) -> Result<(Prepared, Vec<Duration>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last: Option<Prepared> = None;
    for _ in 0..reps {
        let started = Instant::now();
        let prepared = prepare(workload, seed)?;
        times.push(started.elapsed());
        if let Some(previous) = reference.or(last.as_ref()) {
            if previous.cold != prepared.cold {
                return Err(format!(
                    "{workload}: two set-ups of seed {seed} replied differently (digest {} vs {})",
                    previous.digest, prepared.digest
                ));
            }
        }
        last = Some(prepared);
    }
    let prepared = last.ok_or("no set-up ran")?;
    Ok((prepared, times))
}

/// Length of one measurement window.  The metrics span the whole run, so
/// a host that changes speed during a run moves them by the share of the
/// run it spent at each speed; the windows show how steady the run was.
pub const WINDOW: Duration = Duration::from_secs(2);

/// One client's requests within one window.
#[derive(Copy, Clone, Debug, Default)]
pub struct WindowStats {
    /// Requests completed with the expected reply.
    pub completed: u64,
    /// 99th-percentile `handle_line` latency, ns (`None` for a window
    /// without requests).
    pub p99_ns: Option<u64>,
}

/// Sub-buckets per power of two in [`Histogram`]: a bucket spans at most
/// 1/64 of its lower edge.
const SUB_BITS: u32 = 6;
const EXACT: usize = 2 << SUB_BITS;
const BUCKETS: usize = EXACT + (64 - SUB_BITS as usize - 1) * (1 << SUB_BITS);

/// A fixed-size latency histogram over a whole run: log-linear buckets
/// (exact below 128 ns, then 64 per power of two), each keeping its count
/// and the sum of its samples, so memory stays flat however many requests
/// a run completes.
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: Vec<u64>,
    sums: Vec<u128>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            sums: vec![0; BUCKETS],
        }
    }
}

impl Histogram {
    fn bucket(ns: u64) -> usize {
        if ns < EXACT as u64 {
            return ns as usize;
        }
        let octave = 63 - ns.leading_zeros();
        let sub = (ns >> (octave - SUB_BITS)) as usize & ((1 << SUB_BITS) - 1);
        EXACT + (octave - SUB_BITS - 1) as usize * (1 << SUB_BITS) + sub
    }

    /// Adds one sample, in ns.
    pub fn record(&mut self, ns: u64) {
        let bucket = Self::bucket(ns);
        self.counts[bucket] += 1;
        self.sums[bucket] += u128::from(ns);
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (bucket, count) in other.counts.iter().enumerate() {
            self.counts[bucket] += count;
            self.sums[bucket] += other.sums[bucket];
        }
    }

    /// Samples recorded.
    pub fn len(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Nearest-rank percentile `p` in `(0, 100]`, in ns: the mean of the
    /// samples in the bucket that holds that rank, so it lies within the
    /// bucket's 1/64 of the exact value (`None` when empty).
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let len = self.len();
        if len == 0 {
            return None;
        }
        let rank = (((p / 100.0) * len as f64).ceil() as u64).clamp(1, len);
        let mut seen = 0;
        for (bucket, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Some(self.sums[bucket] as f64 / count as f64);
            }
        }
        None
    }
}

/// What the timed loop measured.
#[derive(Debug, Default)]
pub struct Timed {
    /// Per client, its whole windows in order.
    pub clients: Vec<Vec<WindowStats>>,
    /// Every timed `handle_line` latency of every client.
    pub latencies: Histogram,
    /// Requests sent.
    pub attempted: u64,
    /// Requests whose reply was an error, differed from the expected
    /// bytes, or panicked.
    pub failed: u64,
}

impl Timed {
    /// Requests all clients completed per second over the run's whole
    /// windows.
    pub fn throughput_rps(&self) -> f64 {
        let windows = self.clients.iter().map(Vec::len).max().unwrap_or(0);
        let completed: u64 = self.clients.iter().flatten().map(|w| w.completed).sum();
        completed as f64 / (windows.max(1) as f64 * WINDOW.as_secs_f64())
    }

    /// p50 of every request of the run, ms (0 when none completed).
    pub fn p50_ms(&self) -> f64 {
        self.latencies.percentile(50.0).unwrap_or(0.0) / 1e6
    }

    /// p99 of every request of the run, ms (0 when none completed).
    pub fn p99_ms(&self) -> f64 {
        self.latencies.percentile(99.0).unwrap_or(0.0) / 1e6
    }

    /// The largest window p99 of any client, ms.
    pub fn worst_window_p99_ms(&self) -> f64 {
        self.clients
            .iter()
            .flatten()
            .filter_map(|w| w.p99_ns)
            .max()
            .unwrap_or(0) as f64
            / 1e6
    }
}

/// Drives the workload closed-loop for `seconds`: each client sends its
/// next line only after the previous reply arrived and was checked.
pub fn run_timed(workload: Workload, prepared: &Prepared, seconds: f64) -> Timed {
    let barrier = Barrier::new(prepared.generated.schedules.len());
    let windows = ((seconds / WINDOW.as_secs_f64()).round() as usize).max(1);
    thread::scope(|scope| {
        let handles: Vec<_> = prepared
            .generated
            .schedules
            .iter()
            .map(|schedule| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    client_loop(workload, prepared, schedule, windows)
                })
            })
            .collect();
        let mut total = Timed::default();
        for handle in handles {
            // A client that panicked outside `handle_line` is a benchmark
            // bug; it counts as a failed request so the run fails.
            let (stats, latencies, attempted, failed) = handle.join().unwrap_or_default();
            total.clients.push(stats);
            total.latencies.merge(&latencies);
            total.attempted += attempted;
            total.failed += failed.max(u64::from(attempted == 0));
        }
        total
    })
}

fn client_loop(
    workload: Workload,
    prepared: &Prepared,
    schedule: &[usize],
    windows: usize,
) -> (Vec<WindowStats>, Histogram, u64, u64) {
    let mut stats = Vec::with_capacity(windows);
    let mut latencies = Histogram::default();
    let (mut attempted, mut failed) = (0, 0);
    // The current window's latencies, reused so memory stays flat.
    let mut samples: Vec<u64> = Vec::new();
    let mut completed = 0;
    let mut fresh = PlanEngine::new();
    let mut position = 0;
    let start = Instant::now();
    loop {
        if position == schedule.len() {
            position = 0;
            if !workload.is_hot() {
                // A new pass: every request misses again.
                fresh = PlanEngine::new();
            }
        }
        let engine = if workload.is_hot() {
            &prepared.engine
        } else {
            &fresh
        };
        let index = schedule[position];
        position += 1;
        let line = &prepared.generated.lines[index];
        let started = Instant::now();
        let reply = panic::catch_unwind(AssertUnwindSafe(|| handle_line(engine, line)));
        let finished = Instant::now();
        attempted += 1;
        let ok = matches!(&reply, Ok(reply) if *reply == prepared.expected[index]);
        failed += u64::from(!ok);
        // Close every window that ended before this reply arrived.
        let window = ((finished - start).as_nanos() / WINDOW.as_nanos()) as usize;
        while stats.len() < window.min(windows) {
            stats.push(summarize(&mut samples, completed));
            completed = 0;
        }
        if window >= windows {
            return (stats, latencies, attempted, failed);
        }
        samples.push(nanos(finished - started));
        latencies.record(nanos(finished - started));
        completed += u64::from(ok);
    }
}

/// Summarizes one window's latencies and empties the sample buffer.
fn summarize(samples: &mut Vec<u64>, completed: u64) -> WindowStats {
    let stats = WindowStats {
        completed,
        p99_ns: percentile(samples, 99.0),
    };
    samples.clear();
    stats
}

/// Nearest-rank percentile `p` in `(0, 100]` (reorders `values`).
fn percentile(values: &mut [u64], p: f64) -> Option<u64> {
    if values.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
    let (_, nth, _) = values.select_nth_unstable(rank.clamp(1, values.len()) - 1);
    Some(*nth)
}

/// Median of `values` (0 when empty).
pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    median_sorted(&values)
}

fn median_sorted(values: &[f64]) -> f64 {
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// A duration in whole nanoseconds (saturating).
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Geometric mean of positive values.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> Result<f64, String> {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        if v <= 0.0 || !v.is_finite() {
            return Err(format!("geomean needs positive values, got {v}"));
        }
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        return Err("geomean of nothing".to_owned());
    }
    Ok((log_sum / n as f64).exp())
}

/// Geomean `total_comm_bytes` of the distinct requests, in GB.
pub fn plan_comm_gb(prepared: &Prepared) -> Result<f64, String> {
    Ok(geomean(prepared.responses.iter().map(|r| r.total_comm_bytes))? / 1e9)
}

/// The paper's headline HyPar/DP geomeans (abstract; Figures 6 and 7).
pub const PAPER_PERF: f64 = 3.39;
/// See [`PAPER_PERF`].
pub const PAPER_ENERGY: f64 = 1.51;

/// The model's HyPar/DP geomeans over the ten zoo nets at the paper's
/// evaluation point.
#[derive(Copy, Clone, Debug)]
pub struct Fidelity {
    /// Geomean step-time speedup of HyPar over data parallelism.
    pub perf: f64,
    /// Geomean energy saving of HyPar over data parallelism.
    pub energy: f64,
}

impl Fidelity {
    /// `|model − paper| / paper` for performance.
    pub fn perf_err(self) -> f64 {
        (self.perf - PAPER_PERF).abs() / PAPER_PERF
    }

    /// `|model − paper| / paper` for energy efficiency.
    pub fn energy_err(self) -> f64 {
        (self.energy - PAPER_ENERGY).abs() / PAPER_ENERGY
    }
}

/// Computes the HyPar/DP geomeans from the `hypar` and `dp` replies of
/// the paper grid found in `responses` (simulated, batch 256, 4 levels).
fn fidelity(responses: &[PlanResponse]) -> Result<Fidelity, String> {
    let find = |net: &str, strategy: Strategy| {
        responses
            .iter()
            .find(|r| {
                r.network == net
                    && r.strategy == strategy
                    && r.batch == workload::PAPER_BATCH
                    && r.levels == workload::PAPER_LEVELS
            })
            .and_then(|r| r.simulation.as_ref())
            .ok_or_else(|| format!("no simulated {strategy} reply for {net}"))
    };
    let mut perf = Vec::new();
    let mut energy = Vec::new();
    for net in hypar_models::zoo::NAMES {
        let hypar = find(net, Strategy::Hypar)?;
        let dp = find(net, Strategy::Dp)?;
        perf.push(hypar.performance_gain_over(dp));
        energy.push(hypar.energy_efficiency_over(dp));
    }
    Ok(Fidelity {
        perf: geomean(perf)?,
        energy: geomean(energy)?,
    })
}

/// Plans the paper grid's `hypar` and `dp` points on a fresh engine and
/// computes the fidelity from the verified replies.
pub fn fidelity_pass() -> Result<Fidelity, String> {
    let engine = PlanEngine::new();
    let mut responses = Vec::new();
    for net in hypar_models::zoo::NAMES {
        for strategy in ["hypar", "dp"] {
            let line = workload::paper_line(net, strategy);
            responses.push(verify_reply(&line, &handle_line(&engine, &line))?);
        }
    }
    fidelity(&responses)
}

/// Peak resident memory of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|err| format!("cannot read /proc/self/status: {err}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut values: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut values, 50.0), Some(50));
        assert_eq!(percentile(&mut values, 99.0), Some(99));
        assert_eq!(percentile(&mut [7], 99.0), Some(7));
        assert_eq!(percentile(&mut [], 50.0), None);
    }

    #[test]
    fn metrics_span_the_whole_run() {
        let window = |completed, p99| WindowStats {
            completed,
            p99_ns: Some(p99),
        };
        let mut latencies = Histogram::default();
        // 1000 requests, 11 of them slow in one stalled window.  The
        // whole-run p99 (rank 990) is slow although most windows are not;
        // the p50 (rank 500) is the first 3 ms request.
        for _ in 0..489 {
            latencies.record(1_000_000);
        }
        for _ in 0..500 {
            latencies.record(3_000_000);
        }
        for _ in 0..11 {
            latencies.record(40_000_000);
        }
        let timed = Timed {
            clients: vec![
                vec![
                    window(400, 2_000_000),
                    window(100, 40_000_000),
                    window(400, 3_000_000),
                ],
                vec![
                    window(30, 1_000_000),
                    window(30, 1_000_000),
                    window(30, 1_000_000),
                ],
            ],
            latencies,
            attempted: 1000,
            failed: 10,
        };
        assert_eq!(timed.throughput_rps(), 990.0 / (3.0 * WINDOW.as_secs_f64()));
        assert_eq!(timed.p50_ms(), 3.0);
        assert_eq!(timed.p99_ms(), 40.0);
        assert_eq!(timed.worst_window_p99_ms(), 40.0);
    }

    #[test]
    fn histogram_percentiles_stay_within_a_bucket() {
        let mut histogram = Histogram::default();
        assert_eq!(histogram.percentile(99.0), None);
        for ns in 1..=100_000u64 {
            histogram.record(ns * 37);
        }
        assert_eq!(histogram.len(), 100_000);
        for (p, exact) in [(50.0, 50_000.0 * 37.0), (99.0, 99_000.0 * 37.0)] {
            let got = histogram.percentile(p).unwrap();
            assert!(
                (got - exact).abs() / exact < 1.0 / 64.0,
                "p{p}: {got} vs {exact}"
            );
        }
        // Small values are exact; the largest value has a bucket.
        let mut small = Histogram::default();
        small.record(5);
        small.record(u64::MAX);
        assert_eq!(small.percentile(50.0), Some(5.0));
        assert_eq!(small.percentile(100.0), Some(u64::MAX as f64));
    }

    #[test]
    fn set_up_twice_gives_the_same_digest() {
        let first = prepare(Workload::PaperSweep, 3).unwrap();
        let second = prepare(Workload::PaperSweep, 4).unwrap();
        // Another seed only reorders the sweep, and the digest folds in
        // line order; the same seed must repeat it exactly.
        let again = prepare(Workload::PaperSweep, 3).unwrap();
        assert_eq!(first.digest, again.digest);
        assert_eq!(first.cold, again.cold);
        assert_eq!(
            plan_comm_gb(&first).unwrap(),
            plan_comm_gb(&second).unwrap()
        );
    }

    #[test]
    fn paper_grid_reproduces_the_models_headline_numbers() {
        let fidelity = fidelity_pass().unwrap();
        assert!((fidelity.perf - 3.98).abs() < 0.01, "{}", fidelity.perf);
        assert!((fidelity.energy - 1.42).abs() < 0.01, "{}", fidelity.energy);
    }
}
