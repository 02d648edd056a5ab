//! Property-based tests for exception-graph resolution.
//!
//! The implementation resolves via precomputed descendant bitsets; the
//! oracle here recomputes covers by naive DFS reachability, so any
//! divergence indicates a bitset or ordering bug.

use std::collections::HashSet;

use caa_core::exception::ExceptionId;
use caa_exgraph::generate::conjunction_lattice;
use caa_exgraph::{ExceptionGraph, ExceptionGraphBuilder};
use proptest::prelude::*;

/// A random layered DAG description: `layers[k]` holds node names of level
/// k; each non-bottom node covers a non-empty subset of the layer below.
#[derive(Debug, Clone)]
struct RandomDag {
    layers: Vec<Vec<String>>,
    /// For each (layer > 0, node) a bitmask over the layer below.
    covers: Vec<Vec<u64>>,
}

fn random_dag() -> impl Strategy<Value = RandomDag> {
    // 2..=4 layers, each with 1..=5 nodes.
    let layer_sizes = prop::collection::vec(1usize..=5, 2..=4);
    layer_sizes
        .prop_flat_map(|sizes| {
            let layers: Vec<Vec<String>> = sizes
                .iter()
                .enumerate()
                .map(|(k, &n)| (0..n).map(|i| format!("L{k}N{i}")).collect())
                .collect();
            let mask_strategies: Vec<_> = sizes
                .windows(2)
                .map(|w| {
                    let below = w[0] as u32;
                    prop::collection::vec(1u64..(1u64 << below), w[1])
                })
                .collect();
            (Just(layers), mask_strategies)
        })
        .prop_map(|(layers, covers)| RandomDag { layers, covers })
}

fn build(dag: &RandomDag) -> ExceptionGraph {
    let mut b = ExceptionGraphBuilder::new();
    for node in &dag.layers[0] {
        b = b.primitive(node.as_str());
    }
    for (k, masks) in dag.covers.iter().enumerate() {
        let below = &dag.layers[k];
        for (i, &mask) in masks.iter().enumerate() {
            let name = dag.layers[k + 1][i].as_str();
            let covered: Vec<&str> = below
                .iter()
                .enumerate()
                .filter(|(j, _)| mask & (1 << j) != 0)
                .map(|(_, n)| n.as_str())
                .collect();
            b = b.resolves(name, covered);
        }
    }
    b.build().expect("layered DAGs are acyclic and valid")
}

/// Oracle: all nodes reachable from `from` (inclusive), via recursive DFS
/// over `children_of`.
fn reachable(g: &ExceptionGraph, from: &ExceptionId) -> HashSet<ExceptionId> {
    let mut seen = HashSet::new();
    let mut stack = vec![*from];
    while let Some(node) = stack.pop() {
        if seen.insert(node) {
            for child in g.children_of(&node) {
                stack.push(*child);
            }
        }
    }
    seen
}

/// Oracle resolution: scan every node, keep covers of the whole raised set,
/// pick the minimum by (reachable-set size, level, name).
fn oracle_resolve(g: &ExceptionGraph, raised: &[ExceptionId]) -> ExceptionId {
    let raised_set: HashSet<&ExceptionId> = raised.iter().collect();
    if raised_set.is_empty() || raised.iter().any(|r| !g.contains(r)) {
        return ExceptionId::universal();
    }
    g.iter()
        .filter_map(|candidate| {
            let desc = reachable(g, candidate);
            raised_set
                .iter()
                .all(|r| desc.contains(*r))
                .then(|| (desc.len(), g.level(candidate).unwrap(), *candidate))
        })
        .min()
        .map(|(_, _, id)| id)
        .expect("universal root always covers")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn resolution_matches_oracle(dag in random_dag(), seed in any::<u64>()) {
        let g = build(&dag);
        // Draw a random non-empty subset of primitives (and occasionally a
        // resolving node) as the raised set.
        let all: Vec<ExceptionId> = g.iter().cloned().collect();
        let mut raised = Vec::new();
        let mut s = seed;
        for id in &all {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            if s.is_multiple_of(3) {
                raised.push(*id);
            }
        }
        if raised.is_empty() {
            raised.push(all[0]);
        }
        prop_assert_eq!(g.resolve(&raised), oracle_resolve(&g, &raised));
    }

    #[test]
    fn resolving_exception_covers_all_raised(dag in random_dag(), seed in any::<u64>()) {
        let g = build(&dag);
        let prims: Vec<ExceptionId> = g.primitives().cloned().collect();
        let mut raised = Vec::new();
        let mut s = seed;
        for id in &prims {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            if s.is_multiple_of(2) {
                raised.push(*id);
            }
        }
        if raised.is_empty() {
            raised.push(prims[0]);
        }
        let resolved = g.resolve(&raised);
        for r in &raised {
            prop_assert!(
                g.covers(&resolved, r),
                "{} must cover raised {}", resolved, r
            );
        }
    }

    #[test]
    fn single_known_exception_resolves_to_itself(dag in random_dag(), pick in any::<prop::sample::Index>()) {
        let g = build(&dag);
        let all: Vec<ExceptionId> = g.iter().cloned().collect();
        let chosen = all[pick.index(all.len())];
        prop_assert_eq!(g.resolve(std::slice::from_ref(&chosen)), chosen);
    }

    #[test]
    fn spec_roundtrip_preserves_resolution(dag in random_dag(), seed in any::<u64>()) {
        let g = build(&dag);
        let g2 = ExceptionGraph::from_spec(g.to_spec()).unwrap();
        let prims: Vec<ExceptionId> = g.primitives().cloned().collect();
        let mut raised = Vec::new();
        let mut s = seed;
        for id in &prims {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            if s.is_multiple_of(2) {
                raised.push(*id);
            }
        }
        if raised.is_empty() {
            raised.push(prims[0]);
        }
        prop_assert_eq!(g.resolve(&raised), g2.resolve(&raised));
    }

    #[test]
    fn lattice_pair_resolution_is_exact(n in 2usize..=6) {
        let prims: Vec<ExceptionId> =
            (0..n).map(|i| ExceptionId::new(format!("p{i}"))).collect();
        let g = conjunction_lattice(&prims, n).unwrap();
        for i in 0..n {
            for j in (i + 1)..n {
                let raised = [prims[i], prims[j]];
                let resolved = g.resolve(&raised);
                prop_assert!(resolved.name().contains(prims[i].name()));
                prop_assert!(resolved.name().contains(prims[j].name()));
                prop_assert!(!resolved.is_universal());
                // Exactly the pair: one '∩'.
                prop_assert_eq!(resolved.name().matches('∩').count(), 1);
            }
        }
    }

    #[test]
    fn removal_keeps_cover_property(n in 3usize..=5) {
        let prims: Vec<ExceptionId> =
            (0..n).map(|i| ExceptionId::new(format!("p{i}"))).collect();
        let g = conjunction_lattice(&prims, n).unwrap();
        // Remove the first pair node and check all pairs still resolve to a
        // covering exception.
        let victim = ExceptionId::new("p0∩p1");
        let g2 = g.without(&victim).unwrap();
        for i in 0..n {
            for j in (i + 1)..n {
                let raised = [prims[i], prims[j]];
                let resolved = g2.resolve(&raised);
                prop_assert!(g2.covers(&resolved, &raised[0]));
                prop_assert!(g2.covers(&resolved, &raised[1]));
            }
        }
    }
}
