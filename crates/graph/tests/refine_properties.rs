//! Properties of the junction-aware refinement pass.
//!
//! Two anchors:
//!
//! * the refined plan's whole-graph cost **never exceeds** the stitched
//!   plan's — strict-improvement acceptance guarantees it on any graph,
//!   any hierarchy depth, any [`JunctionScaling`] interpretation;
//! * wherever the joint exhaustive search can certify the optimum,
//!   refinement **reaches it**: on the branchy-zoo graphs within the
//!   slot limit the refined plan costs exactly what
//!   [`best_joint_graph_with`]'s does, across the junction-scaling
//!   modes.  Cost-identical, not bit-identical: optimal plans can tie
//!   (e.g. Inception-Mini's tiny fc flips mp at level 0 vs level 2 for
//!   the same total), and the two searches break ties from different
//!   directions — so the certificate is the evaluated cost of each
//!   plan's own bits under the shared whole-graph model.

use hypar_comm::JunctionScaling;
use hypar_core::exhaustive::SLOT_LIMIT;
use hypar_graph::{
    best_joint_graph_with, partition_graph_refined_with, partition_graph_with, zoo, GraphBuilder,
    SegmentCommGraph, INPUT,
};
use hypar_models::ConvSpec;
use hypar_tensor::FeatureDims;
use proptest::prelude::*;

const MODES: [JunctionScaling; 3] = [
    JunctionScaling::Consumer,
    JunctionScaling::Producer,
    JunctionScaling::Unscaled,
];

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
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The refined plan never costs more than the stitched plan it was
    /// seeded from, whatever the graph, depth, batch, or scaling mode.
    #[test]
    fn refined_never_exceeds_stitched(
        spec in arb_tiny_residual(),
        levels in 0usize..4,
        batch in 1u64..64,
        mode_idx in 0usize..3,
    ) {
        let graph = spec.graph(batch);
        let mode = MODES[mode_idx];
        let stitched = partition_graph_with(&graph, levels, mode).unwrap();
        let refined = partition_graph_refined_with(&graph, levels, mode).unwrap();
        prop_assert!(
            refined.total_comm_elems() <= stitched.total_comm_elems() * (1.0 + 1e-12),
            "refined {} vs stitched {}",
            refined.total_comm_elems(),
            stitched.total_comm_elems()
        );
        prop_assert_eq!(refined.layer_names(), stitched.layer_names());
        prop_assert_eq!(refined.num_levels(), stitched.num_levels());
    }

    /// Wherever the joint optimum is certifiable, refinement reaches its
    /// cost on the randomly drawn residual blocks too — bounded from
    /// **both** sides: a refined plan above the optimum means descent
    /// stopped short, one below it means the refinement evaluator and
    /// the joint enumeration's scratch evaluator have drifted apart.
    #[test]
    fn refined_reaches_the_joint_cost_on_random_residuals(
        spec in arb_tiny_residual(),
        levels in 1usize..4,
        batch in 1u64..64,
        mode_idx in 0usize..3,
    ) {
        let graph = spec.graph(batch);
        let mode = MODES[mode_idx];
        let refined = partition_graph_refined_with(&graph, levels, mode).unwrap();
        let joint = best_joint_graph_with(&graph, levels, mode).unwrap();
        prop_assert!(
            (refined.total_comm_elems() - joint.total_comm_elems()).abs()
                <= 1e-9 * joint.total_comm_elems().max(1.0),
            "refined {} vs joint {}",
            refined.total_comm_elems(),
            joint.total_comm_elems()
        );
    }
}

/// Every branchy-zoo graph at every hierarchy depth whose joint space is
/// within [`SLOT_LIMIT`] (ResNet-18's 21 layers at `H = 1`,
/// Inception-Mini's 8 layers at `H ≤ 3`, the 24-slot boundary itself):
/// the refined plan's cost is the certified joint optimum's, across the
/// junction-scaling modes, and both plans' bits evaluate to that same
/// cost under the shared whole-graph model.  The depth-first search
/// prunes most of Inception-Mini's 16.8M candidates per mode, so the
/// boundary costs milliseconds even in a debug build; ResNet-18's single
/// level shares no prefix and is the slow case here.
#[test]
fn refined_matches_the_joint_optimum_cost_on_the_zoo_within_the_bound() {
    let mut certified = 0;
    for name in zoo::NAMES {
        let graph = zoo::by_name(name).unwrap().segments(64).unwrap();
        for levels in 1usize..=4 {
            if graph.num_layers() * levels > SLOT_LIMIT {
                continue;
            }
            for mode in MODES {
                let refined = partition_graph_refined_with(&graph, levels, mode).unwrap();
                let joint = best_joint_graph_with(&graph, levels, mode).unwrap();
                let tolerance = 1e-9 * joint.total_comm_elems().max(1.0);
                assert!(
                    (refined.total_comm_elems() - joint.total_comm_elems()).abs() <= tolerance,
                    "{name} H{levels} {mode:?}: refined {} vs joint {}",
                    refined.total_comm_elems(),
                    joint.total_comm_elems()
                );
                // Certify each plan's own bits under the shared evaluator
                // (optimal plans may tie with different bits, so cost —
                // not the bit pattern — is the certificate).
                for plan in [&refined, &joint] {
                    let evaluated =
                        hypar_graph::evaluate_graph_plan_with(&graph, plan.levels(), mode).unwrap();
                    assert!(
                        (evaluated - joint.total_comm_elems()).abs() <= tolerance,
                        "{name} H{levels} {mode:?}: bits evaluate to {evaluated}, joint {}",
                        joint.total_comm_elems()
                    );
                }
                certified += 1;
            }
        }
    }
    assert!(certified >= 12, "expected coverage, certified {certified}");
}
