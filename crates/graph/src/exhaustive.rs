//! Brute-force **joint** search over whole-DAG parallelism assignments.
//!
//! The segment-stitched planner ([`crate::partition_graph`]) is greedy in
//! two directions: Algorithm 2 commits level by level inside each segment,
//! and the segments are planned independently of the junction traffic
//! between them.  This module enumerates the full `2^{L·H}` joint space —
//! every dp/mp choice for every weighted layer of every segment at every
//! hierarchy level at once, with the inter-segment junctions priced by the
//! same `inter_segment_elems` model the stitcher uses — so the stitched
//! planner's *greedy gap* can be quantified on small branchy networks the
//! way Figures 9/10 quantify it for chains.
//!
//! The search runs on [`hypar_core::exhaustive`]'s one enumerator,
//! [`JointSpace`]: each segment is pushed as a chain and each
//! inter-segment junction as an edge, so the order (depth first, level by
//! level), the exact pruning (a prefix strictly above the best complete
//! total is skipped) and the tie-break (the lowest bit pattern wins) are
//! the chain search's.  A level costs `w·(intra + inter) + w·edges`, and
//! the total is a left fold from `+0.0`: a zero-level plan costs `+0.0`,
//! where [`hypar_core::exhaustive::best_joint`]'s costs `-0.0`.  For a
//! branch-free DAG (one segment, no edges) at one level or more, plan and
//! cost are bit-identical to the chain search's on the linearized chain
//! (property-tested).

use hypar_comm::{JunctionScaling, ScaleState};
use hypar_core::exhaustive::{levels_from_bits, ExhaustiveError, JointSpace};
use hypar_core::HierarchicalPlan;

use crate::segments::SegmentCommGraph;

/// Exhaustively finds the minimum-communication **joint** plan over all
/// segments and levels of a branchy DAG at once (`O(2^{L·H})`).
///
/// The returned plan concatenates the layers in canonical segment order —
/// the same layout [`crate::stitch`] produces — and its total is directly
/// comparable to the stitched planner's: both price intra-segment traffic
/// with [`hypar_core::evaluate::evaluate_plan`]'s model and junctions with
/// [`crate::inter_segment_elems`]'s.  The joint optimum is therefore a
/// lower bound on every stitched plan's cost.
///
/// Bit `h·L + l` of the enumeration is layer `l`'s choice at level `h`
/// (LSB first, `0` = dp, `1` = mp) — for a single-segment graph this is
/// exactly [`hypar_core::exhaustive::best_joint`]'s layout.
///
/// # Errors
///
/// Returns [`ExhaustiveError::Empty`] for a graph without weighted layers
/// and [`ExhaustiveError::TooLarge`] when `L·H` exceeds
/// [`hypar_core::exhaustive::SLOT_LIMIT`].
///
/// # Examples
///
/// ```
/// use hypar_graph::{exhaustive::best_joint_graph, partition_graph, zoo};
///
/// let graph = zoo::inception_mini().segments(64)?;   // 8 layers
/// let joint = best_joint_graph(&graph, 2).unwrap();  // 2^16 joint plans
/// let stitched = partition_graph(&graph, 2)?;
/// assert!(joint.total_comm_elems() <= stitched.total_comm_elems());
/// # Ok::<(), hypar_graph::GraphError>(())
/// ```
pub fn best_joint_graph(
    graph: &SegmentCommGraph,
    num_levels: usize,
) -> Result<HierarchicalPlan, ExhaustiveError> {
    best_joint_graph_with(graph, num_levels, JunctionScaling::Consumer)
}

/// [`best_joint_graph`] under an explicit [`JunctionScaling`]
/// interpretation (applied to intra-segment and inter-segment junctions
/// alike, matching [`crate::evaluate_graph_plan_with`]).
///
/// # Errors
///
/// Same as [`best_joint_graph`].
pub fn best_joint_graph_with(
    graph: &SegmentCommGraph,
    num_levels: usize,
    mode: JunctionScaling,
) -> Result<HierarchicalPlan, ExhaustiveError> {
    let mut space = JointSpace::new(mode);
    let ranges: Vec<_> = graph
        .segments()
        .iter()
        .map(|segment| space.push_chain(segment))
        .collect();
    // An edge leaves its producing segment's last layer and enters its
    // consuming segment's first.
    for edge in graph.edges() {
        space.push_edge(ranges[edge.from].end - 1, ranges[edge.to].start, edge.elems);
    }
    let num_layers = graph.num_layers();
    let (cost, bits) = space.search(&ScaleState::identity(num_layers), num_levels)?;
    let names = graph
        .segments()
        .iter()
        .flat_map(|segment| segment.layers())
        .map(|layer| layer.name.clone())
        .collect();
    Ok(HierarchicalPlan::from_parts(
        graph.name(),
        names,
        levels_from_bits(bits, num_layers, num_levels),
        // The DAG total folds from `+0.0`; adding it changes only the
        // `-0.0` of a zero-level plan.
        0.0 + cost,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::GraphBuilder;
    use crate::node::INPUT;
    use crate::plan::{evaluate_graph_plan_with, partition_graph_with};
    use hypar_models::ConvSpec;
    use hypar_tensor::FeatureDims;

    fn tiny_residual_graph(batch: u64) -> SegmentCommGraph {
        let mut g = GraphBuilder::new("tiny-res", FeatureDims::new(8, 16, 16));
        g.conv("stem", ConvSpec::same(8, 3), INPUT)
            .conv("body", ConvSpec::same(8, 3), "stem")
            .add("join", &["stem", "body"])
            .fully_connected("fc", 10, "join");
        g.build().unwrap().segments(batch).unwrap()
    }

    #[test]
    fn joint_cost_matches_evaluate_graph_plan() {
        // The scratch evaluator inside the enumeration and the public
        // whole-graph evaluator must agree on the winning plan.
        let graph = tiny_residual_graph(32);
        for mode in [
            JunctionScaling::Consumer,
            JunctionScaling::Producer,
            JunctionScaling::Unscaled,
        ] {
            let joint = best_joint_graph_with(&graph, 3, mode).unwrap();
            let recomputed = evaluate_graph_plan_with(&graph, joint.levels(), mode).unwrap();
            assert!(
                (joint.total_comm_elems() - recomputed).abs() <= 1e-9 * recomputed.max(1.0),
                "{mode:?}: joint {} vs evaluated {recomputed}",
                joint.total_comm_elems()
            );
        }
    }

    #[test]
    fn joint_lower_bounds_the_stitched_planner() {
        let graph = tiny_residual_graph(32);
        for levels in [1usize, 2, 4] {
            let joint = best_joint_graph(&graph, levels).unwrap().total_comm_elems();
            let stitched = partition_graph_with(&graph, levels, JunctionScaling::Consumer)
                .unwrap()
                .total_comm_elems();
            assert!(
                joint <= stitched * (1.0 + 1e-12),
                "H{levels}: joint {joint} vs stitched {stitched}"
            );
        }
    }

    #[test]
    fn joint_plan_carries_canonical_layout() {
        let graph = tiny_residual_graph(32);
        let joint = best_joint_graph(&graph, 2).unwrap();
        assert_eq!(joint.network(), "tiny-res");
        assert_eq!(
            joint.layer_names(),
            &["stem".to_owned(), "body".to_owned(), "fc".to_owned()]
        );
        assert_eq!(joint.num_levels(), 2);
    }

    #[test]
    fn infeasible_and_empty_graphs_are_typed_errors() {
        let graph = tiny_residual_graph(32);
        // 3 layers x 16 levels = 48 slots.
        assert_eq!(
            best_joint_graph(&graph, 16).unwrap_err(),
            ExhaustiveError::TooLarge { slots: 48 }
        );
    }

    #[test]
    fn zero_levels_joint_plan_is_trivial() {
        let graph = tiny_residual_graph(32);
        let joint = best_joint_graph(&graph, 0).unwrap();
        assert_eq!(joint.num_levels(), 0);
        assert_eq!(joint.total_comm_elems(), 0.0);
        assert_eq!(joint.num_accelerators(), 1);
    }
}
