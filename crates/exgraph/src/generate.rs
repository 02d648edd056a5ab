//! Automatic generation of exception graphs (§3.2).
//!
//! "In general, an n-level exception graph can be defined with n primitive
//! exceptions at level 0. The first level can contain up to n × (n – 1)/2
//! resolving exception nodes. Level two could consist of up to
//! n × (n – 1)(n – 2)/6 nodes, and so on. … This general method for defining
//! exception graphs makes the automatic generation of an exception graph
//! possible."
//!
//! [`conjunction_lattice`] materialises exactly that construction: level *k*
//! holds one resolving node per (k+1)-subset of the primitives, named by
//! joining the sorted member names with `∩`. A `max_combo` cut-off yields
//! the partial graphs of simplification rule 3, where larger combinations
//! fall through to the universal exception.

use caa_core::exception::ExceptionId;

use crate::error::GraphError;
use crate::graph::{ExceptionGraph, ExceptionGraphBuilder};

/// Canonical name of the conjunction of a set of primitive exceptions:
/// the sorted member names joined with `∩`.
///
/// # Examples
///
/// ```
/// use caa_exgraph::generate::conjunction_name;
/// use caa_core::exception::ExceptionId;
///
/// let name = conjunction_name([
///     ExceptionId::new("rm_stop"),
///     ExceptionId::new("vm_stop"),
/// ]);
/// assert_eq!(name.name(), "rm_stop∩vm_stop");
/// ```
#[must_use]
pub fn conjunction_name<I>(members: I) -> ExceptionId
where
    I: IntoIterator<Item = ExceptionId>,
{
    let mut names: Vec<String> = members.into_iter().map(|id| id.name().to_owned()).collect();
    names.sort();
    names.dedup();
    ExceptionId::new(names.join("∩"))
}

/// Generates the full conjunction lattice over `primitives`, materialising
/// combinations of size 2 through `max_combo` (inclusive).
///
/// With `max_combo == primitives.len()` this is exactly the n-level graph of
/// §3.2 (Figure 3 for n = 3). Smaller values produce partial graphs: any
/// concurrently raised set larger than `max_combo` resolves to the universal
/// exception, matching the paper's Move_Loaded_Table graph which permits "no
/// more than two exceptions concurrently raised".
///
/// # Errors
///
/// [`GraphError::Empty`] when `primitives` is empty, or
/// [`GraphError::DuplicateNode`] when it contains duplicates.
///
/// # Examples
///
/// ```
/// use caa_exgraph::generate::conjunction_lattice;
/// use caa_core::exception::ExceptionId;
///
/// # fn main() -> Result<(), caa_exgraph::GraphError> {
/// let prims: Vec<ExceptionId> = ["e1", "e2", "e3"].map(ExceptionId::new).into();
/// let g = conjunction_lattice(&prims, 3)?;
/// // 3 primitives + 3 pairs + 1 triple + universal.
/// assert_eq!(g.len(), 8);
/// assert_eq!(
///     g.resolve(&prims),
///     ExceptionId::new("e1∩e2∩e3"),
/// );
/// # Ok(())
/// # }
/// ```
pub fn conjunction_lattice(
    primitives: &[ExceptionId],
    max_combo: usize,
) -> Result<ExceptionGraph, GraphError> {
    let mut builder = ExceptionGraphBuilder::new();
    for p in primitives {
        builder = builder.exception(*p);
    }
    let n = primitives.len();
    let max_combo = max_combo.min(n);
    // Materialise levels bottom-up; at each size k, a combination covers its
    // (k-1)-sized sub-combinations.
    let mut previous: Vec<(Vec<usize>, ExceptionId)> =
        (0..n).map(|i| (vec![i], primitives[i])).collect();
    for size in 2..=max_combo {
        let combos = combinations(n, size);
        let mut current = Vec::with_capacity(combos.len());
        for combo in combos {
            let id = conjunction_name(combo.iter().map(|&i| primitives[i]));
            let covered: Vec<ExceptionId> = previous
                .iter()
                .filter(|(sub, _)| sub.iter().all(|i| combo.contains(i)))
                .map(|(_, id)| *id)
                .collect();
            builder = builder.resolves(id, covered);
            current.push((combo, id));
        }
        previous = current;
    }
    builder.build()
}

/// All `size`-subsets of `0..n` in lexicographic order.
fn combinations(n: usize, size: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut combo: Vec<usize> = (0..size).collect();
    if size == 0 || size > n {
        return out;
    }
    loop {
        out.push(combo.clone());
        // Advance the rightmost index that can still move.
        let mut i = size;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if combo[i] != i + n - size {
                break;
            }
            if i == 0 {
                return out;
            }
        }
        combo[i] += 1;
        for j in i + 1..size {
            combo[j] = combo[j - 1] + 1;
        }
    }
}

/// Number of nodes §3.2 predicts at combination level `k` (combinations of
/// size `k + 1` out of `n` primitives): `C(n, k+1)`.
#[must_use]
pub fn predicted_level_size(n: usize, level: usize) -> usize {
    binomial(n, level + 1)
}

fn binomial(n: usize, k: usize) -> usize {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut result = 1usize;
    for i in 0..k {
        result = result * (n - i) / (i + 1);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prims(n: usize) -> Vec<ExceptionId> {
        (1..=n).map(|i| ExceptionId::new(format!("e{i}"))).collect()
    }

    #[test]
    fn combinations_enumerate_lexicographically() {
        assert_eq!(
            combinations(4, 2),
            vec![
                vec![0, 1],
                vec![0, 2],
                vec![0, 3],
                vec![1, 2],
                vec![1, 3],
                vec![2, 3]
            ]
        );
        assert_eq!(combinations(3, 3), vec![vec![0, 1, 2]]);
        assert!(combinations(2, 3).is_empty());
        assert!(combinations(3, 0).is_empty());
    }

    #[test]
    fn binomial_matches_known_values() {
        assert_eq!(binomial(3, 2), 3);
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(6, 3), 20);
        assert_eq!(binomial(4, 0), 1);
        assert_eq!(binomial(2, 5), 0);
    }

    #[test]
    fn full_lattice_has_paper_level_sizes() {
        // §3.2: level 1 holds n(n-1)/2 nodes, level 2 holds n(n-1)(n-2)/6.
        let n = 5;
        let g = conjunction_lattice(&prims(n), n).unwrap();
        for level in 1..n {
            let count = g
                .iter()
                .filter(|id| g.level(id) == Some(level) && !id.is_universal())
                .count();
            assert_eq!(
                count,
                predicted_level_size(n, level),
                "level {level} of the n={n} lattice"
            );
        }
        assert_eq!(predicted_level_size(n, 1), n * (n - 1) / 2);
        assert_eq!(predicted_level_size(n, 2), n * (n - 1) * (n - 2) / 6);
        // Level n-1 has exactly one node covering all primitives.
        assert_eq!(predicted_level_size(n, n - 1), 1);
    }

    #[test]
    fn lattice_resolves_pairs_and_triples() {
        let p = prims(4);
        let g = conjunction_lattice(&p, 4).unwrap();
        assert_eq!(g.resolve(&[p[0], p[2]]), ExceptionId::new("e1∩e3"));
        assert_eq!(g.resolve(&[p[3], p[1], p[0]]), ExceptionId::new("e1∩e2∩e4"));
        assert_eq!(g.resolve(&p), ExceptionId::new("e1∩e2∩e3∩e4"));
    }

    #[test]
    fn truncated_lattice_falls_back_to_universal() {
        // Figure 7's policy: "no more than two exceptions concurrently
        // raised"; three or more resolve to the universal exception.
        let p = prims(4);
        let g = conjunction_lattice(&p, 2).unwrap();
        assert_eq!(g.resolve(&[p[0], p[1]]), ExceptionId::new("e1∩e2"));
        assert!(g.resolve(&[p[0], p[1], p[2]]).is_universal());
    }

    #[test]
    fn max_combo_is_clamped_to_n() {
        let p = prims(3);
        let clamped = conjunction_lattice(&p, 99).unwrap();
        let exact = conjunction_lattice(&p, 3).unwrap();
        assert_eq!(clamped, exact);
    }

    #[test]
    fn empty_primitives_is_an_error() {
        assert_eq!(conjunction_lattice(&[], 2).unwrap_err(), GraphError::Empty);
    }

    #[test]
    fn duplicate_primitives_are_an_error() {
        let p = vec![ExceptionId::new("x"), ExceptionId::new("x")];
        assert!(matches!(
            conjunction_lattice(&p, 2).unwrap_err(),
            GraphError::DuplicateNode(_)
        ));
    }

    #[test]
    fn conjunction_name_sorts_and_dedups() {
        let name = conjunction_name([
            ExceptionId::new("b"),
            ExceptionId::new("a"),
            ExceptionId::new("b"),
        ]);
        assert_eq!(name.name(), "a∩b");
    }

    #[test]
    fn lattice_size_grows_with_max_combo() {
        let p = prims(6);
        let pairs_only = conjunction_lattice(&p, 2).unwrap();
        let triples = conjunction_lattice(&p, 3).unwrap();
        assert!(triples.len() > pairs_only.len());
        // n + C(n,2) + universal
        assert_eq!(pairs_only.len(), 6 + 15 + 1);
        assert_eq!(triples.len(), 6 + 15 + 20 + 1);
    }
}
