//! Brute-force search over parallelism assignments.
//!
//! The paper motivates the dynamic program by noting that naive enumeration
//! is `O(2^L)` per level (§3.4).  This module implements that enumeration —
//! it validates the DP's optimality in tests and quantifies the *greedy
//! gap* of the level-by-level recursion against the joint optimum over all
//! levels at once (the effect visible in Figure 10, where HyPar attains
//! 4.97× against a sweep peak of 5.05×).
//!
//! Every search space is validated up front: infeasible requests surface as
//! typed [`ExhaustiveError`]s instead of panics, so the long-running plan
//! service can expose the brute-force strategies to untrusted input.
//!
//! One enumerator, [`JointSpace::search`], backs [`best_level`],
//! [`best_joint`] and the DAG-side joint search in `hypar-graph`:
//!
//! * **Depth first.**  Level `h` enumerates its `2^L` assignments under the
//!   scales the levels above it committed.  Each level's per-layer terms
//!   and the scales it hands to the level below are computed once per
//!   prefix, in a fixed per-depth scratch, so no candidate allocates.  The
//!   walk is an explicit odometer, not a recursion.
//! * **Exact pruning.**  A prefix whose partial total is strictly greater
//!   than the best complete total is skipped.  No completion of it can win
//!   or tie: every level's term is `≥ 0`, and IEEE round-to-nearest
//!   addition is monotone.
//! * **Lowest bits win ties.**  Among equal-cost plans the one with the
//!   lowest bit pattern wins, as when the space was scanned in ascending
//!   order.  Depth-first order is not ascending order, so a candidate that
//!   ties the best cost is compared by its bits.
//! * **Zero levels.**  The total is a left fold from `-0.0`, the empty
//!   `f64` sum, as [`crate::evaluate::PlanCost::total_elems`] is: a
//!   zero-level chain search costs `-0.0`.

use std::fmt;
use std::ops::Range;

use hypar_comm::{
    inter_elems, intra_elems, junction_scale_between, JunctionScaling, LayerCommTensors,
    LayerScale, NetworkCommTensors, Parallelism, ScaleState,
};

/// Upper bound on the number of binary slots (`layers × levels`) a
/// brute-force search may enumerate: `2^24` ≈ 16.8M candidate plans.
pub const SLOT_LIMIT: usize = 24;

/// Why a brute-force search could not run.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ExhaustiveError {
    /// The network has no weighted layers to assign.
    Empty,
    /// The search space exceeds [`SLOT_LIMIT`] binary slots.
    TooLarge {
        /// The requested number of slots (`layers × levels`).
        slots: usize,
    },
}

impl fmt::Display for ExhaustiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExhaustiveError::Empty => {
                write!(f, "cannot search an empty network (no weighted layers)")
            }
            ExhaustiveError::TooLarge { slots } => write!(
                f,
                "exhaustive search over {slots} slots (layers x levels) exceeds the \
                 feasibility limit of {SLOT_LIMIT} — use the dynamic program"
            ),
        }
    }
}

impl std::error::Error for ExhaustiveError {}

/// Decodes a bit pattern into a per-layer assignment; bit `l` (LSB first)
/// is layer `l`, `0` = dp, `1` = mp.
///
/// # Examples
///
/// ```
/// use hypar_comm::Parallelism::{Data, Model};
/// use hypar_core::exhaustive::assignment_from_bits;
///
/// assert_eq!(assignment_from_bits(0b0110, 4), vec![Data, Model, Model, Data]);
/// ```
#[must_use]
pub fn assignment_from_bits(bits: u64, len: usize) -> Vec<Parallelism> {
    (0..len)
        .map(|l| Parallelism::from_bit(bits >> l & 1 == 1))
        .collect()
}

/// Decodes a joint bit pattern into `num_levels` per-layer assignments,
/// top level first; bit `h·len + l` is layer `l` at level `h`.
#[must_use]
pub fn levels_from_bits(bits: u64, len: usize, num_levels: usize) -> Vec<Vec<Parallelism>> {
    (0..num_levels)
        .map(|h| assignment_from_bits(bits >> (h * len), len))
        .collect()
}

/// A tensor the joint search prices at every level with Table 2's
/// transitions: `elems` batched elements produced by layer `from` and
/// consumed by layer `to`.
#[derive(Copy, Clone, Debug, PartialEq)]
struct Junction {
    from: usize,
    to: usize,
    elems: f64,
}

/// The layers and junctions of a joint search, in bit order.
///
/// Level `h` costs `w·(intra + inter) + w·edges` with `w = 2^h`: `intra`
/// folds the layers' Table 1 terms in order, `inter` the Table 2 terms of
/// the junctions inside each chain, `edges` those of the junctions added
/// with [`JointSpace::push_edge`].  A chain has no edges, so its level
/// costs exactly `2^h ·` [`hypar_comm::LevelCost::total_elems`]: every
/// term is `≥ 0`, and `x + w·0 = x` for `x ≥ 0`.
///
/// # Examples
///
/// ```
/// use hypar_comm::{JunctionScaling, NetworkCommTensors, ScaleState};
/// use hypar_core::evaluate::evaluate_plan;
/// use hypar_core::exhaustive::{levels_from_bits, JointSpace};
/// use hypar_models::zoo;
///
/// let net = NetworkCommTensors::from_network(&zoo::lenet_c(), 256)?;
/// let mut space = JointSpace::new(JunctionScaling::Consumer);
/// assert_eq!(space.push_chain(&net), 0..4);
/// // 2^12 joint plans; bit `4·h + l` is layer `l` at level `h`.
/// let (cost, bits) = space.search(&ScaleState::identity(4), 3).unwrap();
/// let plan = levels_from_bits(bits, 4, 3);
/// assert_eq!(cost, evaluate_plan(&net, &plan).total_elems());
/// # Ok::<(), hypar_models::NetworkError>(())
/// ```
#[derive(Clone, Debug)]
pub struct JointSpace<'a> {
    layers: Vec<&'a LayerCommTensors>,
    junctions: Vec<Junction>,
    edges: Vec<Junction>,
    mode: JunctionScaling,
}

impl<'a> JointSpace<'a> {
    /// An empty space whose junctions scale under `mode`.
    #[must_use]
    pub fn new(mode: JunctionScaling) -> Self {
        Self {
            layers: Vec::new(),
            junctions: Vec::new(),
            edges: Vec::new(),
            mode,
        }
    }

    /// Appends a chain's layers, joined by its adjacent-layer junctions,
    /// and returns the bit range they occupy.
    pub fn push_chain(&mut self, net: &'a NetworkCommTensors) -> Range<usize> {
        let start = self.layers.len();
        self.layers.extend(net.layers());
        let end = self.layers.len();
        let junctions = (start + 1..end).map(|to| Junction {
            from: to - 1,
            to,
            elems: self.layers[to - 1].junction_elems,
        });
        self.junctions.extend(junctions);
        start..end
    }

    /// Adds a junction priced after the chains' own: `elems` batched
    /// elements from layer `from` to layer `to`.
    pub fn push_edge(&mut self, from: usize, to: usize, elems: f64) {
        self.edges.push(Junction { from, to, elems });
    }

    /// Finds the cheapest joint plan over `num_levels` levels whose top
    /// level sees the scales `top`.  Returns its total and its bits, bit
    /// `h·L + l` being layer `l`'s choice at level `h` (`0` = dp,
    /// `1` = mp); see the [module docs](self) for the order, the pruning
    /// and the tie-break.
    ///
    /// # Errors
    ///
    /// Returns [`ExhaustiveError::Empty`] for a space without layers and
    /// [`ExhaustiveError::TooLarge`] when `L·H > `[`SLOT_LIMIT`].
    ///
    /// # Panics
    ///
    /// Panics if `top` does not cover every layer.
    pub fn search(
        &self,
        top: &ScaleState,
        num_levels: usize,
    ) -> Result<(f64, u64), ExhaustiveError> {
        let len = self.layers.len();
        if len == 0 {
            return Err(ExhaustiveError::Empty);
        }
        let slots = len.saturating_mul(num_levels);
        if slots > SLOT_LIMIT {
            return Err(ExhaustiveError::TooLarge { slots });
        }
        assert_eq!(top.len(), len, "scales must cover every weighted layer");
        let Some(last) = num_levels.checked_sub(1) else {
            return Ok((-0.0, 0));
        };

        let mut walk = Walk::new(self, top, num_levels);
        let end = 1u64 << len;
        let mut best = (f64::INFINITY, 0u64);
        let mut depth = 0;
        loop {
            if depth == last {
                walk.scan_last(depth, &mut best);
            } else if walk.next[depth] < end {
                let assignment = walk.next[depth];
                walk.next[depth] += 1;
                let partial = walk.partial[depth] + walk.level_cost(depth, assignment);
                if partial <= best.0 {
                    walk.descend(depth, assignment, partial);
                    depth += 1;
                }
                continue;
            }
            // Every assignment at this depth is done: back up one level.
            match depth.checked_sub(1) {
                Some(up) => depth = up,
                None => return Ok(best),
            }
        }
    }
}

/// The depth-first walk's per-depth scratch, allocated once per search.
/// Depth `d` holds the state shared by every candidate with the same
/// assignments at levels `0..d`.
struct Walk<'s, 'a> {
    space: &'s JointSpace<'a>,
    len: usize,
    /// The scales every layer sees at depth `d`: `len` per depth.
    scales: Vec<LayerScale>,
    /// Each layer's Table 1 term at depth `d`, indexed by its bit.
    intra: Vec<[f64; 2]>,
    /// Each junction's Table 2 term at depth `d` (chain junctions, then
    /// edges), indexed by `from_bit << 1 | to_bit`.
    inter: Vec<[f64; 4]>,
    /// The total of levels `0..d`: a left fold from `-0.0`.
    partial: Vec<f64>,
    /// The bits of levels `0..d`.
    prefix: Vec<u64>,
    /// The next assignment to try at depth `d`.
    next: Vec<u64>,
}

impl<'s, 'a> Walk<'s, 'a> {
    /// The scratch for `num_levels` levels, depth 0 priced at `top`.
    fn new(space: &'s JointSpace<'a>, top: &ScaleState, num_levels: usize) -> Self {
        let len = space.layers.len();
        let junctions = space.junctions.len() + space.edges.len();
        let mut scales = vec![LayerScale::IDENTITY; num_levels * len];
        scales[..len].copy_from_slice(top.layers());
        let mut walk = Self {
            space,
            len,
            scales,
            intra: vec![[0.0; 2]; num_levels * len],
            inter: vec![[0.0; 4]; num_levels * junctions],
            partial: vec![-0.0; num_levels],
            prefix: vec![0; num_levels],
            next: vec![0; num_levels],
        };
        walk.price(0);
        walk
    }

    /// Prices every layer and junction at depth `d` from its scales.
    fn price(&mut self, d: usize) {
        use Parallelism::{Data, Model};
        let space = self.space;
        let scales = &self.scales[d * self.len..][..self.len];
        let intra = &mut self.intra[d * self.len..][..self.len];
        for ((terms, layer), &scale) in intra.iter_mut().zip(&space.layers).zip(scales) {
            *terms = [
                intra_elems(Data, layer, scale),
                intra_elems(Model, layer, scale),
            ];
        }
        let all = space.junctions.iter().chain(&space.edges);
        let stride = space.junctions.len() + space.edges.len();
        for (terms, j) in self.inter[d * stride..].iter_mut().zip(all) {
            let scale = junction_scale_between(scales[j.from], scales[j.to], space.mode);
            *terms = [(Data, Data), (Data, Model), (Model, Data), (Model, Model)]
                .map(|(prev, next)| inter_elems(prev, next, j.elems, scale));
        }
    }

    /// Level `d`'s weighted cost under `assignment`, in the accumulation
    /// order of the DAG model: `w·(intra + inter) + w·edges`.
    fn level_cost(&self, d: usize, assignment: u64) -> f64 {
        let space = self.space;
        let bit = |l: usize| usize::from(assignment >> l & 1 == 1);
        let mut intra = 0.0;
        for (l, terms) in self.intra[d * self.len..][..self.len].iter().enumerate() {
            intra += terms[bit(l)];
        }
        let stride = space.junctions.len() + space.edges.len();
        let (chain, edges) = self.inter[d * stride..][..stride].split_at(space.junctions.len());
        let mut inter = 0.0;
        for (terms, j) in chain.iter().zip(&space.junctions) {
            inter += terms[bit(j.from) << 1 | bit(j.to)];
        }
        let mut edge = 0.0;
        for (terms, j) in edges.iter().zip(&space.edges) {
            edge += terms[bit(j.from) << 1 | bit(j.to)];
        }
        let weight = (1u64 << d) as f64;
        weight * (intra + inter) + weight * edge
    }

    /// Commits `assignment` at depth `d` (whose total through `d` is
    /// `partial`) and prepares depth `d + 1`.
    fn descend(&mut self, d: usize, assignment: u64, partial: f64) {
        let (above, below) = self.scales.split_at_mut((d + 1) * self.len);
        let scales = above[d * self.len..].iter().zip(&mut below[..self.len]);
        for (l, (scale, next)) in scales.enumerate() {
            *next = scale.descend(Parallelism::from_bit(assignment >> l & 1 == 1));
        }
        self.partial[d + 1] = partial;
        self.prefix[d + 1] = self.prefix[d] | assignment << (d * self.len);
        self.next[d + 1] = 0;
        self.price(d + 1);
    }

    /// Scans every assignment of the last level `d`, keeping the cheapest
    /// plan in `best` and, among equal costs, the lowest bits.
    fn scan_last(&self, d: usize, best: &mut (f64, u64)) {
        let partial = self.partial[d];
        for assignment in 0..1u64 << self.len {
            let total = partial + self.level_cost(d, assignment);
            if total <= best.0 {
                let bits = self.prefix[d] | assignment << (d * self.len);
                if total < best.0 || bits < best.1 {
                    *best = (total, bits);
                }
            }
        }
    }
}

/// Exhaustively finds the minimum-communication assignment for **one**
/// level (`O(2^L)`), for validating [`crate::two_group::partition`].
///
/// # Errors
///
/// Returns [`ExhaustiveError::Empty`] for a network without weighted
/// layers and [`ExhaustiveError::TooLarge`] beyond [`SLOT_LIMIT`] layers
/// (the enumeration would be infeasible — use the dynamic program).
///
/// # Panics
///
/// Panics if `scales` does not cover every weighted layer.
pub fn best_level(
    net: &NetworkCommTensors,
    scales: &ScaleState,
) -> Result<(f64, Vec<Parallelism>), ExhaustiveError> {
    let mut space = JointSpace::new(JunctionScaling::Consumer);
    space.push_chain(net);
    let (cost, bits) = space.search(scales, 1)?;
    Ok((cost, assignment_from_bits(bits, net.len())))
}

/// Exhaustively finds the minimum-communication **joint** plan over all
/// `num_levels` levels at once (`O(2^{L·H})`), for quantifying the greedy
/// gap of Algorithm 2.  The cost is bit-identical to
/// [`crate::evaluate::evaluate_plan`]'s total of the returned plan.
///
/// # Errors
///
/// Returns [`ExhaustiveError::Empty`] for a network without weighted
/// layers and [`ExhaustiveError::TooLarge`] when
/// `L·H > `[`SLOT_LIMIT`].
pub fn best_joint(
    net: &NetworkCommTensors,
    num_levels: usize,
) -> Result<(f64, Vec<Vec<Parallelism>>), ExhaustiveError> {
    let mut space = JointSpace::new(JunctionScaling::Consumer);
    space.push_chain(net);
    let (cost, bits) = space.search(&ScaleState::identity(net.len()), num_levels)?;
    Ok((cost, levels_from_bits(bits, net.len(), num_levels)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{hierarchical, two_group};
    use hypar_comm::LayerCommTensors;
    use hypar_models::zoo;
    use proptest::prelude::*;

    fn view(name: &str) -> NetworkCommTensors {
        NetworkCommTensors::from_network(&zoo::by_name(name).unwrap(), 256).unwrap()
    }

    #[test]
    fn dp_matches_exhaustive_on_small_zoo_networks() {
        // All networks with L <= 13: 2^13 points is still instant.
        for name in [
            "SFC", "SCONV", "Lenet-c", "Cifar-c", "AlexNet", "VGG-A", "VGG-B",
        ] {
            let net = view(name);
            let scales = ScaleState::identity(net.len());
            let dp = two_group::partition(&net, &scales);
            let (brute_cost, _) = best_level(&net, &scales).unwrap();
            assert!(
                (dp.comm_elems - brute_cost).abs() <= 1e-9 * brute_cost.max(1.0),
                "{name}: DP {} vs exhaustive {brute_cost}",
                dp.comm_elems
            );
        }
    }

    #[test]
    fn dp_matches_exhaustive_at_descended_scales() {
        let net = view("AlexNet");
        let mut scales = ScaleState::identity(net.len());
        for _ in 0..3 {
            let dp = two_group::partition(&net, &scales);
            let (brute_cost, _) = best_level(&net, &scales).unwrap();
            assert!((dp.comm_elems - brute_cost).abs() <= 1e-9 * brute_cost.max(1.0));
            scales = scales.descend(&dp.assignment);
        }
    }

    #[test]
    fn greedy_is_close_to_joint_optimum_on_lenet() {
        // L=4, H=3 -> 2^12 joint plans.
        let net = view("Lenet-c");
        let greedy = hierarchical::partition(&net, 3).total_comm_elems();
        let (joint, _) = best_joint(&net, 3).unwrap();
        assert!(joint <= greedy + 1e-9);
        // The paper's greedy gap is small (4.97 vs 5.05 in Figure 10).
        assert!(
            greedy <= joint * 1.25,
            "greedy {greedy} too far from joint {joint}"
        );
    }

    #[test]
    fn bits_round_trip() {
        for bits in 0..16u64 {
            let a = assignment_from_bits(bits, 4);
            let back = a
                .iter()
                .enumerate()
                .fold(0u64, |acc, (l, p)| acc | (u64::from(p.bit()) << l));
            assert_eq!(back, bits);
        }
    }

    #[test]
    fn oversized_searches_are_typed_errors_not_panics() {
        // VGG-E has 19 layers: 19 x 4 = 76 slots for the joint search.
        let net = view("VGG-E");
        assert_eq!(
            best_joint(&net, 4).unwrap_err(),
            ExhaustiveError::TooLarge { slots: 76 }
        );
        // A 30-layer network overflows even the single-level search — the
        // class of input that used to `assert!` inside a service worker.
        let layers: Vec<LayerCommTensors> = (0..30)
            .map(|i| LayerCommTensors::fully_connected(format!("fc{i}"), 32, 64, 64))
            .collect();
        let wide = NetworkCommTensors::from_layers("wide", 32, layers);
        let err = best_level(&wide, &ScaleState::identity(30)).unwrap_err();
        assert_eq!(err, ExhaustiveError::TooLarge { slots: 30 });
        assert!(err.to_string().contains("feasibility limit"));
    }

    #[test]
    fn empty_network_is_a_typed_error() {
        let empty = NetworkCommTensors::from_layers("empty", 32, Vec::new());
        assert_eq!(
            best_level(&empty, &ScaleState::identity(0)).unwrap_err(),
            ExhaustiveError::Empty
        );
        assert_eq!(best_joint(&empty, 2).unwrap_err(), ExhaustiveError::Empty);
        assert!(ExhaustiveError::Empty.to_string().contains("empty"));
    }

    #[test]
    fn zero_levels_joint_plan_is_trivial() {
        let net = view("Lenet-c");
        let (cost, levels) = best_joint(&net, 0).unwrap();
        assert_eq!(cost, 0.0);
        assert!(levels.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The dynamic program is optimal for arbitrary synthetic networks.
        #[test]
        fn dp_is_optimal_on_random_networks(
            layer_params in proptest::collection::vec(
                (1u64..2000, 1u64..2000, any::<bool>()), 1..9
            ),
            batch in 1u64..512,
            descents in proptest::collection::vec(any::<bool>(), 0..4),
        ) {
            let layers: Vec<LayerCommTensors> = layer_params
                .iter()
                .enumerate()
                .map(|(i, &(w_in, out, is_conv))| LayerCommTensors {
                    name: format!("l{i}"),
                    is_conv,
                    weight_elems: (w_in * out) as f64,
                    input_elems: (batch * w_in) as f64,
                    output_elems: (batch * out) as f64,
                    junction_elems: (batch * out) as f64,
                })
                .collect();
            let len = layers.len();
            let net = NetworkCommTensors::from_layers("rand", batch, layers);
            let mut scales = ScaleState::identity(len);
            for &d in &descents {
                let assignment: Vec<_> = (0..len)
                    .map(|l| Parallelism::from_bit(d ^ (l % 2 == 0)))
                    .collect();
                scales = scales.descend(&assignment);
            }
            let dp = two_group::partition(&net, &scales);
            let (brute, _) = best_level(&net, &scales).unwrap();
            prop_assert!((dp.comm_elems - brute).abs() <= 1e-9 * brute.max(1.0),
                "DP {} vs exhaustive {}", dp.comm_elems, brute);
        }
    }
}
