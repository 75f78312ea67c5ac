//! Properties of the joint DAG exhaustive search.
//!
//! Two anchors:
//!
//! * on **chain-shaped** DAGs, [`hypar_graph::best_joint_graph`] must be
//!   **bit-identical** to [`hypar_core::exhaustive::best_joint`] on the
//!   linearized network — same winning assignment, same cost to the last
//!   float — because the single-segment enumeration *is* the chain
//!   enumeration;
//! * on genuinely **branchy** DAGs, the stitched greedy plan
//!   ([`hypar_graph::partition_graph`]) can never beat the joint optimum:
//!   the stitched plan's levels are one point of the joint space, and
//!   [`hypar_graph::evaluate_graph_plan`] prices both identically.
//!
//! The joint DAG search is also pinned bit for bit: the winning cost
//! (through [`f64::to_bits`]) and bits on the branchy zoo, recorded with
//! the per-candidate loop the depth-first enumerator replaced, and a
//! proptest against that loop, kept below as the naive reference.

use hypar_comm::{inter_elems, JunctionScaling, NetworkCommTensors, Parallelism};
use hypar_core::exhaustive::{self, assignment_from_bits};
use hypar_graph::{
    best_joint_graph, best_joint_graph_with, partition_graph, zoo, GraphBuilder, SegmentCommGraph,
    INPUT,
};
use hypar_models::ConvSpec;
use hypar_telemetry::StateHasher;
use hypar_tensor::FeatureDims;
use proptest::prelude::*;

const MODES: [JunctionScaling; 3] = [
    JunctionScaling::Consumer,
    JunctionScaling::Producer,
    JunctionScaling::Unscaled,
];

/// A randomly drawn tiny chain (kept small: the joint space is `2^{L·H}`).
#[derive(Clone, Debug)]
struct TinyChain {
    in_features: u64,
    fcs: Vec<u64>,
}

impl TinyChain {
    fn dag(&self) -> hypar_graph::DagNetwork {
        let mut g = GraphBuilder::new("tiny", FeatureDims::new(1, 1, self.in_features));
        let mut prev = INPUT.to_owned();
        for (i, &out) in self.fcs.iter().enumerate() {
            let name = format!("fc{i}");
            g.fully_connected(&name, out, &prev);
            prev = name;
        }
        g.build().expect("generated chains are valid")
    }
}

fn arb_tiny_chain() -> impl Strategy<Value = TinyChain> {
    (1u64..128, proptest::collection::vec(1u64..128, 1..4))
        .prop_map(|(in_features, fcs)| TinyChain { in_features, fcs })
}

/// A randomly drawn tiny residual block: stem -> body (1 or 2 convs),
/// `add`-joined with the stem (or a 1x1 projection), into a classifier.
#[derive(Clone, Debug)]
struct TinyResidual {
    channels: u64,
    two_convs: bool,
    projection: bool,
    out: u64,
}

impl TinyResidual {
    fn graph(&self, batch: u64) -> SegmentCommGraph {
        let mut g = GraphBuilder::new("tiny-res", FeatureDims::new(self.channels, 8, 8));
        g.conv("stem", ConvSpec::same(self.channels, 3), INPUT);
        g.conv("body_a", ConvSpec::same(self.channels, 3), "stem");
        let tail = if self.two_convs {
            g.conv("body_b", ConvSpec::same(self.channels, 3), "body_a");
            "body_b"
        } else {
            "body_a"
        };
        let skip = if self.projection {
            g.conv("proj", ConvSpec::same(self.channels, 1), "stem");
            "proj"
        } else {
            "stem"
        };
        g.add("join", &[tail, skip]);
        g.fully_connected("fc", self.out, "join");
        g.build()
            .expect("generated residual blocks are valid")
            .segments(batch)
            .expect("positive batch")
    }
}

fn arb_tiny_residual() -> impl Strategy<Value = TinyResidual> {
    (1u64..16, any::<bool>(), any::<bool>(), 1u64..64).prop_map(
        |(channels, two_convs, projection, out)| TinyResidual {
            channels,
            two_convs,
            projection,
            out,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Chain-shaped DAGs: the joint graph search reproduces the chain
    /// joint search bit for bit — winning levels and cost.
    #[test]
    fn chain_joint_search_is_bit_identical(
        spec in arb_tiny_chain(),
        levels in 0usize..4,
        batch in 1u64..64,
    ) {
        let dag = spec.dag();
        let graph = dag.segments(batch).unwrap();
        prop_assert_eq!(graph.num_segments(), 1);

        let chain = NetworkCommTensors::from_network(&dag.linearize().unwrap(), batch).unwrap();
        let (chain_cost, chain_levels) = exhaustive::best_joint(&chain, levels).unwrap();
        let joint = best_joint_graph(&graph, levels).unwrap();

        prop_assert_eq!(joint.levels(), &chain_levels[..]);
        prop_assert_eq!(joint.total_comm_elems(), chain_cost);
    }

    /// Branchy DAGs: the stitched greedy plan's cost is always at least
    /// the joint optimum's (the joint space contains every stitched plan).
    #[test]
    fn stitched_greedy_never_beats_the_joint_optimum(
        spec in arb_tiny_residual(),
        levels in 1usize..4,
        batch in 1u64..64,
    ) {
        let graph = spec.graph(batch);
        prop_assert!(graph.num_segments() > 1, "residual blocks are branchy");
        let stitched = partition_graph(&graph, levels).unwrap().total_comm_elems();
        let joint = best_joint_graph(&graph, levels).unwrap().total_comm_elems();
        prop_assert!(
            joint <= stitched * (1.0 + 1e-12),
            "joint {} vs stitched {}", joint, stitched
        );
        // Cross-check the enumeration against the public evaluator on the
        // stitched point itself.
        let evaluated = hypar_graph::evaluate_graph_plan(
            &graph,
            partition_graph(&graph, levels).unwrap().levels(),
        ).unwrap();
        prop_assert!((evaluated - stitched).abs() <= 1e-9 * stitched.max(1.0));
    }
}

/// The per-candidate joint DAG search the enumerator replaced: every bit
/// pattern in ascending order, each priced from scratch level by level,
/// the first strictly cheaper one kept.  The scratch scales are indexed
/// at both ends of each junction, hence the range loops.
#[allow(clippy::needless_range_loop)]
fn naive_best_joint_graph(
    graph: &SegmentCommGraph,
    num_levels: usize,
    mode: JunctionScaling,
) -> (f64, Vec<Vec<Parallelism>>) {
    let num_layers = graph.num_layers();
    let layers: Vec<_> = graph.segments().iter().flat_map(|s| s.layers()).collect();
    let mut ranges = Vec::new();
    let mut offset = 0;
    for segment in graph.segments() {
        ranges.push((offset, offset + segment.len()));
        offset += segment.len();
    }
    let edges: Vec<(usize, usize, f64)> = graph
        .edges()
        .iter()
        .map(|e| (ranges[e.from].1 - 1, ranges[e.to].0, e.elems))
        .collect();
    let choice = |bits: u64, h: usize, l: usize| {
        Parallelism::from_bit(bits >> (h * num_layers + l) & 1 == 1)
    };
    let junction_scale = |bat: &[f64], fin: &[f64], from: usize, to: usize| match mode {
        JunctionScaling::Consumer => bat[to] * fin[to],
        JunctionScaling::Producer => bat[from],
        JunctionScaling::Unscaled => 1.0,
    };
    let mut bat = vec![1.0f64; num_layers];
    let mut fin = vec![1.0f64; num_layers];
    let mut best_cost = f64::INFINITY;
    let mut best_bits = 0u64;
    for bits in 0..1u64 << (num_layers * num_levels) {
        bat.fill(1.0);
        fin.fill(1.0);
        let mut total = 0.0;
        for h in 0..num_levels {
            let weight = (1u64 << h) as f64;
            let mut intra_sum = 0.0;
            let mut inter_sum = 0.0;
            for &(start, end) in &ranges {
                for l in start..end {
                    intra_sum += match choice(bits, h, l) {
                        Parallelism::Data => 2.0 * layers[l].weight_elems * fin[l],
                        Parallelism::Model => 2.0 * layers[l].output_elems * bat[l],
                    };
                }
                for l in start..end.saturating_sub(1) {
                    inter_sum += inter_elems(
                        choice(bits, h, l),
                        choice(bits, h, l + 1),
                        layers[l].junction_elems,
                        junction_scale(&bat, &fin, l, l + 1),
                    );
                }
            }
            let mut edge_sum = 0.0;
            for &(from, to, elems) in &edges {
                let scale = junction_scale(&bat, &fin, from, to);
                edge_sum += inter_elems(choice(bits, h, from), choice(bits, h, to), elems, scale);
            }
            total += weight * (intra_sum + inter_sum) + weight * edge_sum;
            for l in 0..num_layers {
                match choice(bits, h, l) {
                    Parallelism::Data => bat[l] *= 0.5,
                    Parallelism::Model => fin[l] *= 0.5,
                }
            }
        }
        if total < best_cost {
            best_cost = total;
            best_bits = bits;
        }
    }
    let levels = (0..num_levels)
        .map(|h| assignment_from_bits(best_bits >> (h * num_layers), num_layers))
        .collect();
    (best_cost, levels)
}

/// The joint search on the branchy zoo at four batches, every depth up to
/// three whose space is not a single level of 20 or more layers (those
/// share no prefix and stay slow in a debug build), and every junction
/// scaling mode.  Batch 1 is left out: its tiny activations prune so
/// little of Inception-Mini's 24-slot space that it takes seconds in a
/// debug build.
#[test]
fn best_joint_graph_on_the_branchy_zoo_is_pinned() {
    let mut h = StateHasher::new();
    let mut searched = 0;
    for name in zoo::NAMES {
        for batch in [16, 64, 256, 1024] {
            let graph = zoo::by_name(name).unwrap().segments(batch).unwrap();
            for levels in 0..=3 {
                let slots = graph.num_layers() * levels;
                if slots > exhaustive::SLOT_LIMIT || (levels == 1 && slots >= 20) {
                    continue;
                }
                for mode in MODES {
                    let plan = best_joint_graph_with(&graph, levels, mode).unwrap();
                    let cost = plan.total_comm_elems();
                    if levels == 0 {
                        // The DAG fold starts at `+0.0`.
                        assert_eq!(cost.to_bits(), 0.0f64.to_bits(), "{name} b{batch}");
                    }
                    h.write_f64(cost);
                    h.write_u64(plan.levels().len() as u64);
                    for level in plan.levels() {
                        let bits = level
                            .iter()
                            .enumerate()
                            .fold(0u64, |acc, (l, p)| acc | u64::from(p.bit()) << l);
                        h.write_u64(bits);
                    }
                    searched += 1;
                }
            }
        }
    }
    assert_eq!(searched, 60);
    assert_eq!(
        h.finish(),
        0xdd2f2232d9accce1,
        "digest {:#018x}",
        h.finish()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Branchy DAGs in every junction scaling mode: the enumerator returns
    /// the naive loop's winner and cost bit for bit.
    #[test]
    fn joint_graph_search_matches_the_naive_loop(
        spec in arb_tiny_residual(),
        levels in 0usize..4,
        batch in 1u64..64,
        mode_idx in 0usize..3,
    ) {
        let graph = spec.graph(batch);
        let mode = MODES[mode_idx];
        let joint = best_joint_graph_with(&graph, levels, mode).unwrap();
        let (naive_cost, naive_levels) = naive_best_joint_graph(&graph, levels, mode);
        prop_assert_eq!(joint.total_comm_elems().to_bits(), naive_cost.to_bits());
        prop_assert_eq!(joint.levels(), &naive_levels[..]);
    }
}
