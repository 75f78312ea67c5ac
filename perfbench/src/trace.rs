//! The traced run: the engine's request pipeline rebuilt from each
//! layer's public functions, with a timer around every layer call.
//!
//! For each request the traced loop calls `service::handle_line` (timed,
//! untraced) and then this replica (traced), alternating which goes first
//! so neither always runs on warm caches.  The replica must reproduce the
//! engine's reply byte for byte — and so its `state_hash` — or it would
//! be timing a different program.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use hypar_comm::NetworkCommTensors;
use hypar_core::{baselines, exhaustive, hierarchical, refine, HierarchicalPlan};
use hypar_engine::fingerprint::{fingerprint, fingerprint_dag};
use hypar_engine::{
    parallel, service::handle_line, CustomNetwork, NetworkRef, PlanEngine, PlanRequest,
    PlanResponse, Strategy,
};
use hypar_graph::{zoo as graph_zoo, SegmentCommGraph};
use hypar_models::{zoo, ConvSpec, Layer, Network, NetworkShapes, PoolKind, PoolSpec};
use hypar_sim::{training, ArchConfig, StepReport};
use hypar_tensor::FeatureDims;
use serde::{Deserialize, Value};

use crate::run::{median, nanos, Prepared};
use crate::workload::Workload;

/// Accumulated per-layer measurements of one traced run.
#[derive(Debug, Default)]
pub struct Layers {
    /// Total ns per timed layer call site, keyed by metric name.
    time_ns: BTreeMap<&'static str, u64>,
    /// Requests each timed site ran in, keyed by metric name.
    calls: BTreeMap<&'static str, u64>,
    /// Counters (segments, candidates, flips, tasks, bytes).
    counts: BTreeMap<&'static str, u64>,
    /// Σ `handle_line` ns and Σ top-level layer ns over traced requests.
    handle_ns: u64,
    covered_ns: u64,
    /// Σ wall ns of the replica (the traced pipeline).
    replica_ns: u64,
    /// Clock reads the replica made in the timed loop: two per top-level
    /// layer call and two for its own wall time.
    timer_reads: u64,
    /// Measured cost of one clock read, ns.
    timer_read_ns: f64,
    /// Requests traced.
    requests: u64,
    /// Cache lookups made by `handle_line` (hits / all).
    hits: u64,
    lookups: u64,
    evictions: u64,
}

impl Layers {
    fn add(&mut self, metric: &'static str, d: Duration) {
        *self.time_ns.entry(metric).or_default() += nanos(d);
        *self.calls.entry(metric).or_default() += 1;
    }

    fn count(&mut self, metric: &'static str, n: u64) {
        *self.counts.entry(metric).or_default() += n;
    }

    /// Mean µs per request of a timed site, if it ran.
    fn mean_us(&self, metric: &str) -> Option<f64> {
        let calls = *self.calls.get(metric)?;
        Some(self.time_ns[metric] as f64 / calls as f64 / 1e3)
    }

    fn counter(&self, metric: &str) -> u64 {
        self.counts.get(metric).copied().unwrap_or(0)
    }

    /// Mean of counter `metric` per call of timed site `site` (0 if the
    /// site never ran).
    fn per_call(&self, metric: &str, site: &str) -> f64 {
        let calls = self.calls.get(site).copied().unwrap_or(0);
        self.counter(metric) as f64 / calls.max(1) as f64
    }

    fn ratio(&self, num: &str, den: &str) -> f64 {
        match self.counter(den) {
            0 => 0.0,
            d => self.counter(num) as f64 / d as f64,
        }
    }

    /// Every per-layer metric this run measured, by name, with its unit.
    /// Layers the workload never reaches are left out.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let mut out = Vec::new();
        for metric in TIMED {
            if let Some(us) = self.mean_us(metric) {
                out.push((metric, us, "us"));
            }
        }
        let requests = self.requests.max(1) as f64;
        out.push((
            "service.reply_bytes",
            self.counter("service.reply_bytes") as f64 / requests,
            "bytes",
        ));
        out.push((
            "engine.cache_hit_ratio",
            self.hits as f64 / self.lookups.max(1) as f64,
            "ratio",
        ));
        out.push(("engine.cache_evictions", self.evictions as f64, "count"));
        out.push((
            "graph.segment_count",
            self.per_call("graph.segments", "graph.segments_us"),
            "count",
        ));
        out.push((
            "graph.refine_candidates",
            self.per_call("graph.refine_candidates", "graph.refine_us"),
            "count",
        ));
        out.push((
            "graph.refine_accept_ratio",
            self.ratio("graph.refine_flips", "graph.refine_candidates"),
            "ratio",
        ));
        out.push((
            "core.refine_accept_ratio",
            self.ratio("core.refine_flips", "core.refine_candidates"),
            "ratio",
        ));
        out.push((
            "core.exhaustive_candidates",
            self.per_call("core.exhaustive_candidates", "core.exhaustive_us"),
            "count",
        ));
        out.push((
            "sim.tasks",
            self.per_call("sim.tasks", "sim.step_us"),
            "count",
        ));
        let sim_ns = self.time_ns.get("sim.step_us").copied().unwrap_or(0);
        out.push((
            "sim.ns_per_task",
            sim_ns as f64 / self.counter("sim.tasks").max(1) as f64,
            "ns",
        ));
        out.push((
            "trace.unattributed_us",
            (self.handle_ns as f64 - self.covered_ns as f64) / requests / 1e3,
            "us",
        ));
        out.push((
            "trace.overhead_share",
            self.timer_reads as f64 * self.timer_read_ns / self.handle_ns.max(1) as f64,
            "share",
        ));
        out
    }

    /// Σ traced pipeline wall time over Σ `handle_line` wall time.
    pub fn wall_ratio(&self) -> f64 {
        self.replica_ns as f64 / self.handle_ns.max(1) as f64
    }
}

/// The cost of one `Instant` read (`now` or `elapsed`), ns: the median of
/// five batches of reads.
fn timer_read_ns() -> f64 {
    const PAIRS: u32 = 1 << 16;
    let batches = (0..5)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..PAIRS {
                black_box(Instant::now().elapsed());
            }
            nanos(started.elapsed()) as f64 / f64::from(2 * PAIRS)
        })
        .collect();
    median(batches)
}

/// Timed layer call sites, in pipeline order.
const TIMED: [&str; 15] = [
    "service.parse_us",
    "models.infer_us",
    "comm.tensors_us",
    "graph.segments_us",
    "engine.fingerprint_us",
    "core.search_us",
    "graph.plan_segments_us",
    "graph.stitch_us",
    "graph.refine_us",
    "core.refine_us",
    "core.exhaustive_us",
    "sim.step_us",
    "telemetry.state_hash_us",
    "service.serialize_us",
    "engine.plan_hit_us",
];

/// Times `f` and adds it to `metric`; returns its output and ns.
fn stopwatch<R>(layers: &mut Layers, metric: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
    let started = Instant::now();
    let out = f();
    let elapsed = started.elapsed();
    layers.add(metric, elapsed);
    (out, nanos(elapsed))
}

/// Times a top-level layer call: adds it to `metric` and to `cover`.
fn timed<R>(
    layers: &mut Layers,
    cover: &mut u64,
    metric: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    let (out, ns) = stopwatch(layers, metric, f);
    *cover += ns;
    layers.timer_reads += 2;
    out
}

/// Times a nested call (one that also runs inside another timed call):
/// adds it to `metric` only.
fn nested<R>(layers: &mut Layers, metric: &'static str, f: impl FnOnce() -> R) -> R {
    stopwatch(layers, metric, f).0
}

/// Runs the traced loop for `seconds` and returns its measurements.
///
/// It first replays every distinct line cold through the replica and
/// requires the engine's `state_hash` (and reply bytes) back: for the hot
/// workload that pass stands for the warm-up's compute, which the timed
/// loop never repeats.
pub fn run_traced(
    workload: Workload,
    prepared: &Prepared,
    seconds: f64,
) -> Result<(Layers, u64, u64), String> {
    let mut layers = Layers::default();
    let cfg = ArchConfig::paper();
    for (index, line) in prepared.generated.lines.iter().enumerate() {
        let mut cover = 0;
        let (reply, hash, repeat) = replica_cold(line, &cfg, &mut layers, &mut cover)?;
        if let Some(repeat) = repeat {
            repeat.time_nested(&mut layers)?;
        }
        if hash != prepared.responses[index].state_hash {
            return Err(format!(
                "traced pipeline state_hash {hash} != engine {} for {line}",
                prepared.responses[index].state_hash
            ));
        }
        if reply != prepared.cold[index] {
            return Err(format!(
                "traced pipeline reply differs from the engine's for {line}"
            ));
        }
    }
    // The overhead share covers the timed loop only.
    layers.timer_reads = 0;
    layers.timer_read_ns = timer_read_ns();
    let schedule = &prepared.generated.schedules[0];
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut fresh = PlanEngine::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut position = 0;
    while Instant::now() < deadline {
        if position == schedule.len() {
            position = 0;
            if !workload.is_hot() {
                layers.evictions += fresh.cache_stats().evictions;
                fresh = PlanEngine::new();
            }
        }
        let index = schedule[position];
        position += 1;
        let line = &prepared.generated.lines[index];
        let engine = if workload.is_hot() {
            &prepared.engine
        } else {
            &fresh
        };
        let before = engine.cache_stats();
        let (handled, traced) = if attempted % 2 == 0 {
            let handled = handle(engine, line);
            (handled, replica(workload, engine, line, &cfg, &mut layers))
        } else {
            let traced = replica(workload, engine, line, &cfg, &mut layers);
            (handle(engine, line), traced)
        };
        if !workload.is_hot() {
            // Nested: the warm lookup of the request `handle_line` just
            // planned.
            let request = parse(line)?;
            let warm = nested(&mut layers, "engine.plan_hit_us", || engine.plan(&request))
                .map_err(|err| format!("{err}: {line}"))?;
            if !warm.cache_hit || warm.state_hash != prepared.responses[index].state_hash {
                failed += 1;
            }
        }
        let after = engine.cache_stats();
        attempted += 1;
        let (reply, handle_ns) = handled;
        let (traced_reply, covered_ns, replica_ns) = traced?;
        // One lookup per request is the replica's own warm hit, not the
        // workload's.
        layers.hits += (after.hits - before.hits).saturating_sub(1);
        layers.lookups +=
            (after.hits + after.misses - before.hits - before.misses).saturating_sub(1);
        if reply != prepared.expected[index] || traced_reply != prepared.expected[index] {
            failed += 1;
        }
        layers.handle_ns += handle_ns;
        layers.covered_ns += covered_ns;
        layers.replica_ns += replica_ns;
        layers.timer_reads += 2;
        layers.requests += 1;
        layers.count("service.reply_bytes", reply.len() as u64);
    }
    layers.evictions += prepared.engine.cache_stats().evictions + fresh.cache_stats().evictions;
    Ok((layers, attempted, failed))
}

/// One `handle_line` call, timed.
fn handle(engine: &PlanEngine, line: &str) -> (String, u64) {
    let started = Instant::now();
    let reply = handle_line(engine, line);
    (reply, nanos(started.elapsed()))
}

/// One traced request: returns the reply, the ns its top-level layer
/// calls covered, and the replica's wall ns.  The nested timings run
/// after the wall time is taken, so it compares with `handle_line` like
/// for like.
fn replica(
    workload: Workload,
    engine: &PlanEngine,
    line: &str,
    cfg: &ArchConfig,
    layers: &mut Layers,
) -> Result<(String, u64, u64), String> {
    let started = Instant::now();
    let mut cover = 0;
    if !workload.is_hot() {
        let (reply, _, repeat) = replica_cold(line, cfg, layers, &mut cover)?;
        let replica_ns = nanos(started.elapsed());
        if let Some(repeat) = repeat {
            repeat.time_nested(layers)?;
        }
        return Ok((reply, cover, replica_ns));
    }
    // A hit: parse, the engine's warm lookup (which re-resolves and
    // re-fingerprints the request), serialize.
    let request = timed(layers, &mut cover, "service.parse_us", || parse(line))?;
    let response = timed(layers, &mut cover, "engine.plan_hit_us", || {
        engine.plan(&request)
    })
    .map_err(|err| format!("{err}: {line}"))?;
    if !response.cache_hit {
        return Err(format!("hot request missed the cache: {line}"));
    }
    let reply = timed(layers, &mut cover, "service.serialize_us", || {
        serde_json::to_string(&response)
    })
    .map_err(|err| err.to_string())?;
    let replica_ns = nanos(started.elapsed());
    // Nested: the resolve steps that run inside the warm lookup.
    resolve_nested(&request, cfg, layers)?;
    Ok((reply, cover, replica_ns))
}

fn parse(line: &str) -> Result<PlanRequest, String> {
    let value: Value = serde_json::from_str(line).map_err(|err| err.to_string())?;
    PlanRequest::from_value(&value).map_err(|err| err.to_string())
}

/// The resolve steps a warm chain lookup repeats, timed one by one.
fn resolve_nested(
    request: &PlanRequest,
    cfg: &ArchConfig,
    layers: &mut Layers,
) -> Result<(), String> {
    let strategy = resolve_strategy(request)?;
    let cfg = cfg.clone().with_topology(request.topology);
    let Resolved::Chain(network) = resolve_network(&request.network)? else {
        return Err("the hot workload sends no DAGs".to_owned());
    };
    let shapes = nested(layers, "models.infer_us", || {
        NetworkShapes::infer(&network, request.batch)
    })
    .map_err(|err| err.to_string())?;
    let tensors = nested(layers, "comm.tensors_us", || {
        NetworkCommTensors::from_shapes(&shapes)
    });
    nested(layers, "engine.fingerprint_us", || {
        black_box(fingerprint(
            &tensors,
            request.levels,
            strategy,
            None,
            &cfg,
            request.simulate,
        ))
    });
    Ok(())
}

/// What a cold DAG request hands back for its nested timings: the calls
/// that already ran inside a timed call, repeated with the same inputs.
struct DagRepeat {
    graph: SegmentCommGraph,
    levels: usize,
    /// The per-segment plans `parallel::map` returned.
    plans: Vec<HierarchicalPlan>,
}

impl DagRepeat {
    fn time_nested(&self, layers: &mut Layers) -> Result<(), String> {
        // The per-segment comm views `segments` builds.
        nested(layers, "comm.tensors_us", || {
            for shapes in self.graph.shapes() {
                black_box(NetworkCommTensors::from_shapes(shapes));
            }
        });
        // The searches `parallel::map` fanned out, one after another.
        let serial = nested(layers, "core.search_us", || {
            self.graph
                .segments()
                .iter()
                .map(|segment| hierarchical::partition(segment, self.levels))
                .collect::<Vec<_>>()
        });
        if serial != self.plans {
            return Err(format!(
                "serial and parallel segment plans differ for {}",
                self.graph.name()
            ));
        }
        Ok(())
    }
}

/// The cold pipeline: parse, resolve, fingerprint, plan, simulate, hash,
/// serialize.  Returns the reply, its `state_hash`, and for a DAG the
/// calls to repeat for nested timings.
fn replica_cold(
    line: &str,
    cfg: &ArchConfig,
    layers: &mut Layers,
    cover: &mut u64,
) -> Result<(String, String, Option<DagRepeat>), String> {
    let request = timed(layers, cover, "service.parse_us", || parse(line))?;
    let strategy = resolve_strategy(&request)?;
    let cfg = cfg.clone().with_topology(request.topology);
    let levels = request.levels;
    let (network, batch, key, plan, simulation, repeat) = match resolve_network(&request.network)? {
        Resolved::Chain(network) => {
            let shapes = timed(layers, cover, "models.infer_us", || {
                NetworkShapes::infer(&network, request.batch)
            })
            .map_err(|err| err.to_string())?;
            let tensors = timed(layers, cover, "comm.tensors_us", || {
                NetworkCommTensors::from_shapes(&shapes)
            });
            let key = timed(layers, cover, "engine.fingerprint_us", || {
                fingerprint(&tensors, levels, strategy, None, &cfg, request.simulate)
            });
            let plan = plan_chain(&tensors, levels, strategy, layers, cover)?;
            let simulation = if request.simulate {
                let report = timed(layers, cover, "sim.step_us", || {
                    training::simulate_step(&shapes, &plan, &cfg)
                })
                .map_err(|err| err.to_string())?;
                layers.count("sim.tasks", report.trace_summary.tasks);
                Some(report)
            } else {
                None
            };
            (
                tensors.name().to_owned(),
                tensors.batch(),
                key,
                plan,
                simulation,
                None,
            )
        }
        Resolved::Dag(dag) => {
            let graph = timed(layers, cover, "graph.segments_us", || {
                dag.segments(request.batch)
            })
            .map_err(|err| err.to_string())?;
            layers.count("graph.segments", graph.num_segments() as u64);
            let key = timed(layers, cover, "engine.fingerprint_us", || {
                fingerprint_dag(&graph, levels, strategy, None, &cfg, request.simulate)
            });
            let (plan, plans) = plan_dag(&graph, levels, strategy, layers, cover)?;
            let simulation = sim_dag(&graph, &plan, &cfg, request.simulate, layers, cover)?;
            (
                graph.name().to_owned(),
                graph.batch(),
                key,
                plan,
                simulation,
                Some(DagRepeat {
                    graph,
                    levels,
                    plans,
                }),
            )
        }
    };
    let mut response = PlanResponse {
        network,
        batch,
        levels,
        accelerators: plan.num_accelerators(),
        strategy,
        fingerprint: key.to_string(),
        state_hash: String::new(),
        cache_hit: false,
        total_comm_elems: plan.total_comm_elems(),
        total_comm_bytes: plan.total_comm_bytes().value(),
        plan,
        simulation,
        timing: None,
    };
    response.state_hash = timed(layers, cover, "telemetry.state_hash_us", || {
        response.compute_state_hash()
    });
    let reply = timed(layers, cover, "service.serialize_us", || {
        serde_json::to_string(&response)
    })
    .map_err(|err| err.to_string())?;
    Ok((reply, response.state_hash, repeat))
}

fn plan_chain(
    tensors: &NetworkCommTensors,
    levels: usize,
    strategy: Strategy,
    layers: &mut Layers,
    cover: &mut u64,
) -> Result<HierarchicalPlan, String> {
    let search =
        |f: fn(&NetworkCommTensors, usize) -> HierarchicalPlan,
         layers: &mut Layers,
         cover: &mut u64| { timed(layers, cover, "core.search_us", || f(tensors, levels)) };
    Ok(match strategy {
        Strategy::Hypar => search(hierarchical::partition, layers, cover),
        Strategy::Dp => search(baselines::all_data, layers, cover),
        Strategy::Mp => search(baselines::all_model, layers, cover),
        Strategy::Owt => search(baselines::one_weird_trick, layers, cover),
        Strategy::Refined => {
            let (plan, report) = timed(layers, cover, "core.refine_us", || {
                refine::refine_partition_reported(tensors, levels)
            });
            layers.count(
                "core.refine_candidates",
                (report.sweeps * tensors.len() * levels) as u64,
            );
            layers.count("core.refine_flips", report.flips);
            plan
        }
        Strategy::Exhaustive => {
            let (cost, assignment) = timed(layers, cover, "core.exhaustive_us", || {
                exhaustive::best_joint(tensors, levels)
            })
            .map_err(|err| err.to_string())?;
            layers.count(
                "core.exhaustive_candidates",
                1u64 << (tensors.len() * levels),
            );
            let names = tensors.layers().iter().map(|l| l.name.clone()).collect();
            HierarchicalPlan::from_parts(tensors.name(), names, assignment, cost)
        }
        Strategy::Explicit => return Err("the benchmark sends no explicit plans".to_owned()),
    })
}

fn plan_dag(
    graph: &SegmentCommGraph,
    levels: usize,
    strategy: Strategy,
    layers: &mut Layers,
    cover: &mut u64,
) -> Result<(HierarchicalPlan, Vec<HierarchicalPlan>), String> {
    if !matches!(strategy, Strategy::Hypar | Strategy::Refined) {
        return Err(format!("the benchmark sends no `{strategy}` DAG requests"));
    }
    // As the engine does it: every segment through `parallel::map`.
    let plans = timed(layers, cover, "graph.plan_segments_us", || {
        parallel::map(graph.segments(), |segment| {
            hierarchical::partition(segment, levels)
        })
    })
    .map_err(|err| err.to_string())?;
    let stitched = timed(layers, cover, "graph.stitch_us", || {
        hypar_graph::stitch(graph, &plans)
    })
    .map_err(|err| err.to_string())?;
    if strategy == Strategy::Hypar {
        return Ok((stitched, plans));
    }
    let (refined, report) = timed(layers, cover, "graph.refine_us", || {
        hypar_graph::refine_graph_plan(graph, &stitched)
    })
    .map_err(|err| err.to_string())?;
    layers.count(
        "graph.refine_candidates",
        (report.sweeps * graph.num_layers() * levels) as u64,
    );
    layers.count("graph.refine_flips", report.flips);
    Ok((refined, plans))
}

fn sim_dag(
    graph: &SegmentCommGraph,
    plan: &HierarchicalPlan,
    cfg: &ArchConfig,
    simulate: bool,
    layers: &mut Layers,
    cover: &mut u64,
) -> Result<Option<StepReport>, String> {
    if !simulate {
        return Ok(None);
    }
    let report = timed(layers, cover, "sim.step_us", || {
        training::simulate_graph_step(graph, plan, cfg)
    })
    .map_err(|err| err.to_string())?;
    layers.count("sim.tasks", report.trace_summary.tasks);
    Ok(Some(report))
}

/// `refine: true` on `hypar` is the refined strategy, as the engine
/// resolves it.
fn resolve_strategy(request: &PlanRequest) -> Result<Strategy, String> {
    match (request.strategy, request.refine) {
        (strategy, false) => Ok(strategy),
        (Strategy::Hypar | Strategy::Refined, true) => Ok(Strategy::Refined),
        (other, true) => Err(format!("`refine: true` does not apply to `{other}`")),
    }
}

enum Resolved {
    Chain(Network),
    Dag(hypar_graph::DagNetwork),
}

fn resolve_network(reference: &NetworkRef) -> Result<Resolved, String> {
    match reference {
        NetworkRef::Zoo(name) => zoo::by_name(name)
            .map(Resolved::Chain)
            .or_else(|| graph_zoo::by_name(name).map(Resolved::Dag))
            .ok_or_else(|| format!("unknown network `{name}`")),
        NetworkRef::Custom(custom) => build_custom(custom).map(Resolved::Chain),
        NetworkRef::Graph(_) => Err("the benchmark sends no inline DAGs".to_owned()),
    }
}

/// Builds an inline chain network the way the engine does for the
/// fields the benchmark sends (conv/fc layers, optional max pool).
fn build_custom(custom: &CustomNetwork) -> Result<Network, String> {
    let input = FeatureDims::new(
        custom.input.channels,
        custom.input.height,
        custom.input.width,
    );
    let mut builder = Network::builder(
        custom.name.clone().unwrap_or_else(|| "custom".to_owned()),
        input,
    );
    for (index, spec) in custom.layers.iter().enumerate() {
        let name = spec
            .name
            .clone()
            .unwrap_or_else(|| format!("{}{}", spec.kind, index + 1));
        let mut layer = match (spec.kind.as_str(), spec.kernel) {
            ("conv", Some(kernel)) => Layer::conv(
                name,
                ConvSpec {
                    out_channels: spec.out,
                    kernel,
                    stride: spec.stride.unwrap_or(1),
                    padding: spec.padding.unwrap_or((kernel - 1) / 2),
                },
            ),
            ("fc", None) => Layer::fully_connected(name, spec.out),
            (kind, _) => return Err(format!("layer {index}: unsupported `{kind}` spec")),
        };
        if let Some(window) = spec.pool {
            layer = layer.with_pool(PoolSpec {
                size: window,
                stride: window,
                kind: PoolKind::Max,
            });
        }
        builder.layer(layer);
    }
    builder.build().map_err(|err| err.to_string())
}
