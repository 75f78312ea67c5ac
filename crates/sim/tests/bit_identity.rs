//! Pins the simulator's output bit for bit.
//!
//! Every [`StepReport`] field is folded into an FNV-1a digest through
//! [`f64::to_bits`], so any change to the task graph, the event order or
//! the float arithmetic of the discrete-event simulator changes a digest
//! below.  The Chrome traces are pinned byte for byte as well, so a task
//! label can neither change nor go missing.  A performance change to the
//! engine or the step builder must leave every pin as it is; a deliberate
//! model change re-pins them with the values printed by the failures.

use hypar_comm::NetworkCommTensors;
use hypar_core::{baselines, hierarchical, refine, HierarchicalPlan};
use hypar_graph::{partition_graph, plan_segments, zoo as graph_zoo, SegmentCommGraph};
use hypar_models::{zoo, NetworkShapes};
use hypar_sim::{training, ArchConfig, SimTraceSummary, StepReport};
use hypar_telemetry::StateHasher;

/// Folds every field of `report`; the destructuring is exhaustive, so a
/// new field cannot slip past the pin.
fn fold(h: &mut StateHasher, report: &StepReport) {
    let StepReport {
        step_time,
        energy,
        compute_energy,
        dram_energy,
        link_energy,
        comm_bytes,
        comm_bytes_per_level,
        dram_bytes,
        compute_busy,
        link_busy,
        dram_footprint_bytes,
        num_accelerators,
        trace_summary: SimTraceSummary { tasks, resources },
    } = report;
    for bits in [
        step_time.value(),
        energy.value(),
        compute_energy.value(),
        dram_energy.value(),
        link_energy.value(),
        comm_bytes.value(),
    ] {
        h.write_u64(bits.to_bits());
    }
    h.write_u64(comm_bytes_per_level.len() as u64);
    for level in comm_bytes_per_level {
        h.write_u64(level.value().to_bits());
    }
    for bits in [
        dram_bytes.value(),
        compute_busy.value(),
        link_busy.value(),
        dram_footprint_bytes.value(),
    ] {
        h.write_u64(bits.to_bits());
    }
    h.write_u64(*num_accelerators);
    h.write_u64(*tasks);
    h.write_u64(*resources);
}

fn digest_of_bytes(bytes: &str) -> u64 {
    let mut h = StateHasher::new();
    h.write_str(bytes);
    h.finish()
}

/// The paper's Figure 6/7 evaluation point.
const LEVELS: usize = 4;
const BATCH: u64 = 256;

/// The five plans the paper grid simulates per network.
fn grid_plans(net: &NetworkCommTensors) -> [HierarchicalPlan; 5] {
    [
        hierarchical::partition(net, LEVELS),
        baselines::all_data(net, LEVELS),
        baselines::all_model(net, LEVELS),
        baselines::one_weird_trick(net, LEVELS),
        refine::refine_partition(net, LEVELS),
    ]
}

#[test]
fn paper_grid_reports_are_pinned() {
    let mut h = StateHasher::new();
    let mut steps = 0;
    for name in zoo::NAMES {
        let shapes = NetworkShapes::infer(&zoo::by_name(name).unwrap(), BATCH).unwrap();
        let net = NetworkCommTensors::from_shapes(&shapes);
        for plan in grid_plans(&net) {
            for overlap in [false, true] {
                let cfg = ArchConfig::paper().with_overlap(overlap);
                fold(
                    &mut h,
                    &training::simulate_step(&shapes, &plan, &cfg).unwrap(),
                );
                steps += 1;
            }
        }
    }
    assert_eq!(steps, 100);
    assert_eq!(
        h.finish(),
        PAPER_GRID_DIGEST,
        "paper grid digest is now {:#018x}",
        h.finish()
    );
}
const PAPER_GRID_DIGEST: u64 = 0x505e_0b99_5dda_b1e7;

fn graph_plans(graph: &SegmentCommGraph) -> [HierarchicalPlan; 3] {
    [
        partition_graph(graph, LEVELS).unwrap(),
        plan_segments(graph, |s| baselines::all_data(s, LEVELS)).unwrap(),
        plan_segments(graph, |s| baselines::all_model(s, LEVELS)).unwrap(),
    ]
}

#[test]
fn graph_step_reports_are_pinned() {
    let mut h = StateHasher::new();
    for (name, batch) in [("ResNet-18", 64), ("Inception-Mini", 128)] {
        let graph = graph_zoo::by_name(name).unwrap().segments(batch).unwrap();
        for plan in graph_plans(&graph) {
            for overlap in [false, true] {
                let cfg = ArchConfig::paper().with_overlap(overlap);
                fold(
                    &mut h,
                    &training::simulate_graph_step(&graph, &plan, &cfg).unwrap(),
                );
            }
        }
    }
    assert_eq!(
        h.finish(),
        GRAPH_STEP_DIGEST,
        "graph step digest is now {:#018x}",
        h.finish()
    );
}
const GRAPH_STEP_DIGEST: u64 = 0xa129_0c07_ed86_bb82;

#[test]
fn lenet_chrome_trace_is_pinned() {
    let shapes = NetworkShapes::infer(&zoo::lenet_c(), BATCH).unwrap();
    let net = NetworkCommTensors::from_shapes(&shapes);
    let plan = hierarchical::partition(&net, LEVELS);
    let mut h = StateHasher::new();
    for overlap in [false, true] {
        let cfg = ArchConfig::paper().with_overlap(overlap);
        let (report, trace) = training::simulate_step_traced(&shapes, &plan, &cfg).unwrap();
        assert_eq!(
            report,
            training::simulate_step(&shapes, &plan, &cfg).unwrap()
        );
        h.write_u64(digest_of_bytes(&trace));
    }
    assert_eq!(
        h.finish(),
        LENET_TRACE_DIGEST,
        "Lenet-c trace digest is now {:#018x}",
        h.finish()
    );
}
const LENET_TRACE_DIGEST: u64 = 0x3d21_e8d9_e4b1_f03f;

#[test]
fn inception_chrome_trace_is_pinned() {
    let graph = graph_zoo::inception_mini().segments(128).unwrap();
    let [hypar, _, all_model] = graph_plans(&graph);
    let mut h = StateHasher::new();
    // The all-model plan pays a junction transfer on every edge, so its
    // trace carries the `xfer` labels as well as the `join` stage.
    for plan in [&hypar, &all_model] {
        for overlap in [false, true] {
            let cfg = ArchConfig::paper().with_overlap(overlap);
            let (report, trace) = training::simulate_graph_step_traced(&graph, plan, &cfg).unwrap();
            assert_eq!(
                report,
                training::simulate_graph_step(&graph, plan, &cfg).unwrap()
            );
            h.write_u64(digest_of_bytes(&trace));
        }
    }
    assert_eq!(
        h.finish(),
        INCEPTION_TRACE_DIGEST,
        "Inception-Mini trace digest is now {:#018x}",
        h.finish()
    );
}
const INCEPTION_TRACE_DIGEST: u64 = 0xac94_f565_d434_ca54;
