//! Pins the chain exhaustive searches bit for bit.
//!
//! The winning cost (through [`f64::to_bits`], so `-0.0` and `+0.0`
//! differ) and the winning bit pattern of every pinned search are folded
//! into an FNV-1a digest.  The pins were recorded with the per-candidate
//! `evaluate_plan` loop that the depth-first enumerator replaced, so a
//! change to the enumeration order, the pruning or the tie-break that
//! moves any winner or any cost bit fails here.  A proptest also checks
//! the enumerator against that per-candidate loop, kept below as the
//! naive reference, on random networks whose tensors are often zero, so
//! ties are frequent.

use hypar_comm::{level_cost, LayerCommTensors, NetworkCommTensors, Parallelism, ScaleState};
use hypar_core::evaluate::evaluate_plan;
use hypar_core::exhaustive::{self, assignment_from_bits, SLOT_LIMIT};
use hypar_models::zoo;
use hypar_telemetry::StateHasher;
use proptest::prelude::*;

/// The per-level bit pattern of an assignment, layer `l` at bit `l`.
fn level_bits(level: &[Parallelism]) -> u64 {
    level
        .iter()
        .enumerate()
        .fold(0, |acc, (l, p)| acc | u64::from(p.bit()) << l)
}

fn fold(h: &mut StateHasher, cost: f64, levels: &[Vec<Parallelism>]) {
    h.write_f64(cost);
    h.write_u64(levels.len() as u64);
    for level in levels {
        h.write_u64(level_bits(level));
    }
}

/// Every zoo chain at two batches and every depth whose joint space fits
/// [`SLOT_LIMIT`].
#[test]
fn best_joint_on_the_zoo_chains_is_pinned() {
    let mut h = StateHasher::new();
    let mut searched = 0;
    for name in zoo::NAMES {
        for batch in [32, 256] {
            let net =
                NetworkCommTensors::from_network(&zoo::by_name(name).unwrap(), batch).unwrap();
            for levels in 0..=4 {
                if net.len() * levels > SLOT_LIMIT {
                    continue;
                }
                let (cost, plan) = exhaustive::best_joint(&net, levels).unwrap();
                if levels == 0 {
                    // An empty `f64` sum: the chain keeps `-0.0`.
                    assert_eq!(cost.to_bits(), (-0.0f64).to_bits(), "{name} b{batch}");
                }
                fold(&mut h, cost, &plan);
                searched += 1;
            }
        }
    }
    assert_eq!(searched, 70);
    assert_eq!(
        h.finish(),
        0x832831c851a6d9fc,
        "digest {:#018x}",
        h.finish()
    );
}

/// The one-level search at the identity and at two descended scales, on
/// the zoo chains of at most 16 layers (VGG-E's `2^19` single-level space
/// shares no prefix and is slow in a debug build; `best_joint` pins it at
/// the identity).
#[test]
fn best_level_on_the_zoo_chains_is_pinned() {
    let mut h = StateHasher::new();
    for name in zoo::NAMES {
        let net = NetworkCommTensors::from_network(&zoo::by_name(name).unwrap(), 256).unwrap();
        if net.len() > 16 {
            continue;
        }
        let mut scales = ScaleState::identity(net.len());
        for _ in 0..3 {
            let (cost, level) = exhaustive::best_level(&net, &scales).unwrap();
            fold(&mut h, cost, std::slice::from_ref(&level));
            scales = scales.descend(&level);
        }
    }
    assert_eq!(
        h.finish(),
        0x9e72056a7cb435d1,
        "digest {:#018x}",
        h.finish()
    );
}

/// The per-candidate joint search the enumerator replaced: every bit
/// pattern in ascending order, priced by `evaluate_plan`, the first
/// strictly cheaper one kept.
fn naive_best_joint(net: &NetworkCommTensors, num_levels: usize) -> (f64, Vec<Vec<Parallelism>>) {
    let len = net.len();
    let decode = |bits: u64| -> Vec<Vec<Parallelism>> {
        (0..num_levels)
            .map(|h| assignment_from_bits(bits >> (h * len), len))
            .collect()
    };
    let mut best_cost = f64::INFINITY;
    let mut best_bits = 0u64;
    for bits in 0..1u64 << (len * num_levels) {
        let cost = evaluate_plan(net, &decode(bits)).total_elems();
        if cost < best_cost {
            best_cost = cost;
            best_bits = bits;
        }
    }
    (best_cost, decode(best_bits))
}

/// The per-candidate one-level search the enumerator replaced.
fn naive_best_level(net: &NetworkCommTensors, scales: &ScaleState) -> (f64, Vec<Parallelism>) {
    let len = net.len();
    let mut best_cost = f64::INFINITY;
    let mut best_bits = 0u64;
    for bits in 0..1u64 << len {
        let cost = level_cost(net, scales, &assignment_from_bits(bits, len)).total_elems();
        if cost < best_cost {
            best_cost = cost;
            best_bits = bits;
        }
    }
    (best_cost, assignment_from_bits(best_bits, len))
}

/// A tensor size that is zero half the time and otherwise one of three
/// small values, so equal-cost plans are common.
fn tie_prone() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), Just(0), Just(0), Just(8), Just(16), Just(24)]
}

fn tie_prone_net(sizes: &[(u64, u64, u64)]) -> NetworkCommTensors {
    let layers = sizes
        .iter()
        .enumerate()
        .map(|(i, &(weight, output, junction))| LayerCommTensors {
            name: format!("l{i}"),
            is_conv: i % 2 == 0,
            weight_elems: weight as f64,
            input_elems: output as f64,
            output_elems: output as f64,
            junction_elems: junction as f64,
        })
        .collect();
    NetworkCommTensors::from_layers("ties", 8, layers)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The enumerator returns the naive loop's winner and cost bit for
    /// bit, ties included.
    #[test]
    fn best_joint_matches_the_naive_loop_on_tie_prone_nets(
        sizes in proptest::collection::vec((tie_prone(), tie_prone(), tie_prone()), 1..5),
        levels in 0usize..4,
    ) {
        let net = tie_prone_net(&sizes);
        let (cost, plan) = exhaustive::best_joint(&net, levels).unwrap();
        let (naive_cost, naive_plan) = naive_best_joint(&net, levels);
        prop_assert_eq!(cost.to_bits(), naive_cost.to_bits());
        prop_assert_eq!(plan, naive_plan);
    }

    /// The one-level search matches the naive loop at descended scales.
    #[test]
    fn best_level_matches_the_naive_loop_on_tie_prone_nets(
        sizes in proptest::collection::vec((tie_prone(), tie_prone(), tie_prone()), 1..7),
        descents in proptest::collection::vec(0u64..64, 0..3),
    ) {
        let net = tie_prone_net(&sizes);
        let mut scales = ScaleState::identity(net.len());
        for &bits in &descents {
            scales = scales.descend(&assignment_from_bits(bits, net.len()));
        }
        let (cost, level) = exhaustive::best_level(&net, &scales).unwrap();
        let (naive_cost, naive_level) = naive_best_level(&net, &scales);
        prop_assert_eq!(cost.to_bits(), naive_cost.to_bits());
        prop_assert_eq!(level, naive_level);
    }
}
