//! The exception graph and its resolution procedure (§3.2).
//!
//! An exception graph is a directed graph `G(E, R)` where each node is an
//! exception and each edge `(ei, ej)` makes `ei` the direct high-level
//! (parent) node of `ej`. Nodes with out-degree 0 are *primitive*
//! exceptions; interior nodes are *resolving* exceptions; the unique node
//! with in-degree 0 is the *universal* exception. When several exceptions
//! are raised concurrently, they are resolved into "the exception that is
//! the root of the smallest subtree containing all the raised exceptions".

use std::collections::HashMap;
use std::fmt;

use caa_core::exception::ExceptionId;

use crate::bitset::BitSet;
use crate::error::GraphError;

/// An immutable, validated exception graph.
///
/// Build one with [`ExceptionGraphBuilder`] (or the generators in
/// [`crate::generate`]), then answer resolution queries with
/// [`ExceptionGraph::resolve`].
///
/// Every graph contains the universal exception as its single root; the
/// builder adds it (and edges from it to otherwise-parentless nodes)
/// automatically, so partial graphs "simply cause the raising of the
/// universal exception" for combinations they do not cover.
///
/// # Examples
///
/// The three-level graph of Figure 3:
///
/// ```
/// use caa_exgraph::ExceptionGraphBuilder;
/// use caa_core::exception::ExceptionId;
///
/// # fn main() -> Result<(), caa_exgraph::GraphError> {
/// let g = ExceptionGraphBuilder::new()
///     .resolves("e1∩e2", ["e1", "e2"])
///     .resolves("e1∩e3", ["e1", "e3"])
///     .resolves("e2∩e3", ["e2", "e3"])
///     .resolves("e1∩e2∩e3", ["e1∩e2", "e1∩e3", "e2∩e3"])
///     .build()?;
///
/// let raised = [ExceptionId::new("e1"), ExceptionId::new("e2")];
/// assert_eq!(g.resolve(&raised), ExceptionId::new("e1∩e2"));
///
/// let all = [
///     ExceptionId::new("e1"),
///     ExceptionId::new("e2"),
///     ExceptionId::new("e3"),
/// ];
/// assert_eq!(g.resolve(&all), ExceptionId::new("e1∩e2∩e3"));
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct ExceptionGraph {
    nodes: Vec<ExceptionId>,
    index: HashMap<ExceptionId, usize>,
    children: Vec<Vec<usize>>,
    parents: Vec<Vec<usize>>,
    /// Descendant set of each node, *including the node itself*.
    descendants: Vec<BitSet>,
    /// `descendants[i].len()`, cached: the size of the subtree rooted at `i`.
    subtree_size: Vec<usize>,
    /// Longest distance to a leaf: primitives are level 0.
    level: Vec<usize>,
    root: usize,
}

impl ExceptionGraph {
    /// The universal exception at the root of this graph.
    #[must_use]
    pub fn root(&self) -> &ExceptionId {
        &self.nodes[self.root]
    }

    /// Number of exceptions in the graph (including the universal root).
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// An exception graph is never empty (it always holds the universal
    /// exception), so this always returns `false`; provided for API
    /// completeness.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether `id` is declared in this graph.
    #[must_use]
    pub fn contains(&self, id: &ExceptionId) -> bool {
        self.index.contains_key(id)
    }

    /// Iterates over all exceptions in the graph in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &ExceptionId> {
        self.nodes.iter()
    }

    /// The primitive exceptions (out-degree 0, level 0).
    pub fn primitives(&self) -> impl Iterator<Item = &ExceptionId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(i, _)| self.children[*i].is_empty())
            .map(|(_, id)| id)
    }

    /// The resolving exceptions (interior nodes: neither primitive nor the
    /// universal root).
    pub fn resolving(&self) -> impl Iterator<Item = &ExceptionId> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, id)| (!self.children[i].is_empty() && i != self.root).then_some(id))
    }

    /// The level of `id`: primitives are level 0; a resolving exception is
    /// one more than its highest child (§3.2's level structure).
    #[must_use]
    pub fn level(&self, id: &ExceptionId) -> Option<usize> {
        self.index.get(id).map(|&i| self.level[i])
    }

    /// Direct lower-level exceptions covered by `id`.
    #[must_use]
    pub fn children_of(&self, id: &ExceptionId) -> Vec<&ExceptionId> {
        match self.index.get(id) {
            Some(&i) => self.children[i].iter().map(|&c| &self.nodes[c]).collect(),
            None => Vec::new(),
        }
    }

    /// Direct higher-level exceptions covering `id`.
    #[must_use]
    pub fn parents_of(&self, id: &ExceptionId) -> Vec<&ExceptionId> {
        match self.index.get(id) {
            Some(&i) => self.parents[i].iter().map(|&p| &self.nodes[p]).collect(),
            None => Vec::new(),
        }
    }

    /// All exceptions in the subtree rooted at `id`, including `id` itself,
    /// in insertion order. Empty when `id` is not in the graph.
    #[must_use]
    pub fn descendants_of(&self, id: &ExceptionId) -> Vec<&ExceptionId> {
        match self.index.get(id) {
            Some(&i) => self.descendants[i].iter().map(|j| &self.nodes[j]).collect(),
            None => Vec::new(),
        }
    }

    /// Whether `high` covers `low`, i.e. `low` lies in the subtree rooted at
    /// `high`. Every exception covers itself.
    #[must_use]
    pub fn covers(&self, high: &ExceptionId, low: &ExceptionId) -> bool {
        match (self.index.get(high), self.index.get(low)) {
            (Some(&h), Some(&l)) => self.descendants[h].contains(l),
            _ => false,
        }
    }

    /// Resolves a set of concurrently raised exceptions to the root of the
    /// smallest subtree containing all of them (§3.2).
    ///
    /// Exceptions not declared in the graph — "other undefined exceptions" —
    /// "simply lead to the raising of the universal exception", as does an
    /// uncovered combination. Ties between equally small subtrees are broken
    /// by level (lower first) and then name, so resolution is deterministic
    /// and identical on every partition (§5.1 requires every partition's
    /// copy of the resolution function to pick the same handler).
    ///
    /// # Examples
    ///
    /// ```
    /// use caa_exgraph::ExceptionGraphBuilder;
    /// use caa_core::exception::ExceptionId;
    ///
    /// # fn main() -> Result<(), caa_exgraph::GraphError> {
    /// let g = ExceptionGraphBuilder::new()
    ///     .resolves("dual_motor_failures", ["vm_stop", "rm_stop"])
    ///     .build()?;
    /// let both = [ExceptionId::new("vm_stop"), ExceptionId::new("rm_stop")];
    /// assert_eq!(g.resolve(&both), ExceptionId::new("dual_motor_failures"));
    /// // A single raised exception resolves to itself.
    /// assert_eq!(g.resolve(&both[..1]), ExceptionId::new("vm_stop"));
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn resolve(&self, raised: &[ExceptionId]) -> ExceptionId {
        self.resolve_detailed(raised).exception
    }

    /// Like [`ExceptionGraph::resolve`] but reports how the result was
    /// obtained.
    #[must_use]
    pub fn resolve_detailed(&self, raised: &[ExceptionId]) -> Resolution {
        let universal = || Resolution {
            exception: self.nodes[self.root],
            all_known: false,
            candidates: 0,
        };
        if raised.is_empty() {
            return universal();
        }
        let mut target = BitSet::new(self.nodes.len());
        for id in raised {
            match self.index.get(id) {
                Some(&i) => target.insert(i),
                None => return universal(),
            }
        }
        // Find the node with the smallest subtree whose descendants cover
        // every raised exception. The root always qualifies.
        let mut best: Option<usize> = None;
        let mut candidates = 0usize;
        for i in 0..self.nodes.len() {
            if !self.descendants[i].is_superset_of(&target) {
                continue;
            }
            candidates += 1;
            best = Some(match best {
                None => i,
                Some(b) => self.smaller_subtree(i, b),
            });
        }
        let chosen = best.expect("the universal root covers every declared exception");
        Resolution {
            exception: self.nodes[chosen],
            all_known: true,
            candidates,
        }
    }

    /// Deterministic comparison: smaller subtree wins, then lower level,
    /// then lexicographically smaller name.
    fn smaller_subtree(&self, a: usize, b: usize) -> usize {
        let key = |i: usize| (self.subtree_size[i], self.level[i], &self.nodes[i]);
        if key(a) < key(b) {
            a
        } else {
            b
        }
    }

    /// Returns a new graph with the interior resolving exception `id`
    /// removed (simplification rule 1 of §3.2: combinations that cannot
    /// occur concurrently need no resolving node).
    ///
    /// The removed node's children are re-attached to its parents so the
    /// cover relation stays rooted.
    ///
    /// # Errors
    ///
    /// [`GraphError::CannotRemove`] if `id` is the universal root or a
    /// primitive exception; [`GraphError::UnknownNode`] if it is not in the
    /// graph.
    pub fn without(&self, id: &ExceptionId) -> Result<ExceptionGraph, GraphError> {
        let &idx = self.index.get(id).ok_or(GraphError::UnknownNode(*id))?;
        if idx == self.root || self.children[idx].is_empty() {
            return Err(GraphError::CannotRemove(*id));
        }
        let mut builder = ExceptionGraphBuilder::new();
        for (i, node) in self.nodes.iter().enumerate() {
            if i != idx {
                builder = builder.exception(*node);
            }
        }
        for (parent, children) in self.children.iter().enumerate() {
            if parent == idx {
                continue;
            }
            for &child in children {
                if child == idx {
                    // Re-attach the removed node's children to this parent.
                    for &grandchild in &self.children[idx] {
                        builder = builder.edge_if_new(self.nodes[parent], self.nodes[grandchild]);
                    }
                } else {
                    builder = builder.edge_if_new(self.nodes[parent], self.nodes[child]);
                }
            }
        }
        builder.build()
    }

    /// The declarative form of this graph: its nodes and cover edges.
    #[must_use]
    pub fn to_spec(&self) -> GraphSpec {
        GraphSpec {
            nodes: self.nodes.clone(),
            edges: self
                .children
                .iter()
                .enumerate()
                .flat_map(|(p, cs)| cs.iter().map(move |&c| (self.nodes[p], self.nodes[c])))
                .collect(),
        }
    }

    /// Builds a graph from its declarative form.
    ///
    /// # Errors
    ///
    /// Any [`GraphError`] the builder would report for the same input.
    pub fn from_spec(spec: GraphSpec) -> Result<ExceptionGraph, GraphError> {
        let mut builder = ExceptionGraphBuilder::new();
        for node in spec.nodes {
            builder = builder.exception(node);
        }
        for (hi, lo) in spec.edges {
            builder = builder.edge(hi, lo);
        }
        builder.build()
    }
}

impl fmt::Debug for ExceptionGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExceptionGraph")
            .field("nodes", &self.nodes.len())
            .field("root", self.root())
            .field(
                "primitives",
                &self.primitives().map(ExceptionId::name).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl PartialEq for ExceptionGraph {
    fn eq(&self, other: &Self) -> bool {
        self.to_spec() == other.to_spec()
    }
}

impl Eq for ExceptionGraph {}

/// Declarative description of an exception graph: nodes plus
/// `(high, low)` cover edges. Obtained from [`ExceptionGraph::to_spec`] and
/// consumed by [`ExceptionGraph::from_spec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphSpec {
    /// All declared exceptions.
    pub nodes: Vec<ExceptionId>,
    /// Cover edges: `(high, low)` means `high` is a direct parent of `low`.
    pub edges: Vec<(ExceptionId, ExceptionId)>,
}

/// Outcome of [`ExceptionGraph::resolve_detailed`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resolution {
    /// The resolving exception.
    pub exception: ExceptionId,
    /// Whether every raised exception was declared in the graph. When
    /// `false` the result is the universal exception by fallback.
    pub all_known: bool,
    /// How many nodes covered the whole raised set (the chosen one is the
    /// smallest). Zero only on fallback.
    pub candidates: usize,
}

/// Incremental builder for [`ExceptionGraph`] ([C-BUILDER]).
///
/// `resolves(er, [e1, …, ek])` mirrors the paper's declaration syntax
/// "`er: e1, e2, …, ek`" and auto-declares any exception it has not seen,
/// so typical graphs read like the paper's `exception hierarchy` clause.
///
/// # Examples
///
/// ```
/// use caa_exgraph::ExceptionGraphBuilder;
///
/// # fn main() -> Result<(), caa_exgraph::GraphError> {
/// let g = ExceptionGraphBuilder::new()
///     .primitive("rt_exc")
///     .resolves("table_and_sensor_failures", ["vm_stop", "s_stuck"])
///     .build()?;
/// assert!(g.contains(&"rt_exc".into()));
/// assert_eq!(g.root().name(), caa_core::exception::UNIVERSAL_NAME);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default, Clone)]
#[must_use = "builders do nothing until .build() is called"]
pub struct ExceptionGraphBuilder {
    nodes: Vec<ExceptionId>,
    edges: Vec<(ExceptionId, ExceptionId)>,
    duplicate: Option<GraphError>,
}

impl ExceptionGraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        ExceptionGraphBuilder::default()
    }

    /// Declares a primitive exception (no children). Equivalent to
    /// [`ExceptionGraphBuilder::exception`]; the distinct name documents
    /// intent at call sites.
    pub fn primitive(self, id: impl Into<ExceptionId>) -> Self {
        self.exception(id)
    }

    /// Declares an exception node. Declaring the same id twice is an error
    /// reported by [`ExceptionGraphBuilder::build`].
    pub fn exception(mut self, id: impl Into<ExceptionId>) -> Self {
        let id = id.into();
        if self.nodes.contains(&id) {
            self.duplicate.get_or_insert(GraphError::DuplicateNode(id));
        } else {
            self.nodes.push(id);
        }
        self
    }

    /// Declares that `resolver` covers each exception in `covered`,
    /// auto-declaring any id not yet seen — the paper's
    /// "`er: e1, e2, …, ek`" hierarchy clause.
    pub fn resolves<I, T>(mut self, resolver: impl Into<ExceptionId>, covered: I) -> Self
    where
        I: IntoIterator<Item = T>,
        T: Into<ExceptionId>,
    {
        let hi = resolver.into();
        self = self.declare_if_new(hi);
        for lo in covered {
            let lo = lo.into();
            self = self.declare_if_new(lo);
            self.edges.push((hi, lo));
        }
        self
    }

    /// Adds a single cover edge between already-declared (or auto-declared)
    /// exceptions.
    pub fn edge(mut self, high: impl Into<ExceptionId>, low: impl Into<ExceptionId>) -> Self {
        let (hi, lo) = (high.into(), low.into());
        self = self.declare_if_new(hi);
        self = self.declare_if_new(lo);
        self.edges.push((hi, lo));
        self
    }

    fn declare_if_new(mut self, id: ExceptionId) -> Self {
        if !self.nodes.contains(&id) {
            self.nodes.push(id);
        }
        self
    }

    fn edge_if_new(mut self, high: ExceptionId, low: ExceptionId) -> Self {
        if !self.edges.contains(&(high, low)) {
            self.edges.push((high, low));
        }
        self
    }

    /// Validates and freezes the graph.
    ///
    /// The universal exception is added as the root if absent, and becomes
    /// the parent of every otherwise-parentless exception, so that any
    /// uncovered combination of raised exceptions resolves to it.
    ///
    /// # Errors
    ///
    /// * [`GraphError::DuplicateNode`] / [`GraphError::DuplicateEdge`] for
    ///   repeated declarations;
    /// * [`GraphError::SelfEdge`] for an exception covering itself;
    /// * [`GraphError::Cycle`] if the cover relation is cyclic;
    /// * [`GraphError::Empty`] if nothing was declared.
    pub fn build(self) -> Result<ExceptionGraph, GraphError> {
        if let Some(err) = self.duplicate {
            return Err(err);
        }
        if self.nodes.is_empty() {
            return Err(GraphError::Empty);
        }

        let mut nodes = self.nodes;
        let universal = ExceptionId::universal();
        if !nodes.contains(&universal) {
            nodes.push(universal);
        }
        let index: HashMap<ExceptionId, usize> =
            nodes.iter().enumerate().map(|(i, id)| (*id, i)).collect();
        let root = index[&universal];

        let mut children: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
        let mut parents: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
        for (hi, lo) in &self.edges {
            let (&h, &l) = (&index[hi], &index[lo]);
            if h == l {
                return Err(GraphError::SelfEdge(*hi));
            }
            if children[h].contains(&l) {
                return Err(GraphError::DuplicateEdge(*hi, *lo));
            }
            children[h].push(l);
            parents[l].push(h);
        }
        // Root the graph: the universal exception covers every maximal node.
        for (i, node_parents) in parents.iter_mut().enumerate() {
            if i != root && node_parents.is_empty() {
                children[root].push(i);
                node_parents.push(root);
            }
        }

        // Topological order (parents before children) via Kahn's algorithm;
        // leftovers indicate a cycle.
        let mut in_deg: Vec<usize> = parents.iter().map(Vec::len).collect();
        let mut queue: Vec<usize> = (0..nodes.len()).filter(|&i| in_deg[i] == 0).collect();
        let mut topo = Vec::with_capacity(nodes.len());
        while let Some(n) = queue.pop() {
            topo.push(n);
            for &c in &children[n] {
                in_deg[c] -= 1;
                if in_deg[c] == 0 {
                    queue.push(c);
                }
            }
        }
        if topo.len() != nodes.len() {
            let culprit = (0..nodes.len())
                .find(|&i| in_deg[i] > 0)
                .expect("cycle implies a node with unresolved in-degree");
            return Err(GraphError::Cycle(nodes[culprit]));
        }

        // Descendant bitsets and levels, children before parents.
        let mut descendants: Vec<BitSet> =
            (0..nodes.len()).map(|_| BitSet::new(nodes.len())).collect();
        let mut level = vec![0usize; nodes.len()];
        for &n in topo.iter().rev() {
            let mut set = BitSet::new(nodes.len());
            set.insert(n);
            let mut lvl = 0;
            for &c in &children[n] {
                set.union_with(&descendants[c]);
                lvl = lvl.max(level[c] + 1);
            }
            descendants[n] = set;
            level[n] = lvl;
        }
        let subtree_size = descendants.iter().map(BitSet::len).collect();

        Ok(ExceptionGraph {
            nodes,
            index,
            children,
            parents,
            descendants,
            subtree_size,
            level,
            root,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure3() -> ExceptionGraph {
        ExceptionGraphBuilder::new()
            .resolves("e1∩e2", ["e1", "e2"])
            .resolves("e1∩e3", ["e1", "e3"])
            .resolves("e2∩e3", ["e2", "e3"])
            .resolves("e1∩e2∩e3", ["e1∩e2", "e1∩e3", "e2∩e3"])
            .build()
            .expect("figure 3 graph is valid")
    }

    fn ids(names: &[&str]) -> Vec<ExceptionId> {
        names.iter().map(|&name| ExceptionId::new(name)).collect()
    }

    #[test]
    fn figure3_structure() {
        let g = figure3();
        // 3 primitives + 3 pairs + 1 triple + universal root.
        assert_eq!(g.len(), 8);
        assert_eq!(g.primitives().count(), 3);
        assert_eq!(g.resolving().count(), 4);
        assert!(g.root().is_universal());
        assert_eq!(g.level(&"e1".into()), Some(0));
        assert_eq!(g.level(&"e1∩e2".into()), Some(1));
        assert_eq!(g.level(&"e1∩e2∩e3".into()), Some(2));
        assert_eq!(g.level(g.root()), Some(3));
    }

    #[test]
    fn single_exception_resolves_to_itself() {
        let g = figure3();
        for name in ["e1", "e2", "e3", "e1∩e2", "e1∩e2∩e3"] {
            assert_eq!(g.resolve(&ids(&[name])), ExceptionId::new(name));
        }
    }

    #[test]
    fn pairs_resolve_to_pair_nodes() {
        let g = figure3();
        assert_eq!(g.resolve(&ids(&["e1", "e2"])), ExceptionId::new("e1∩e2"));
        assert_eq!(g.resolve(&ids(&["e3", "e1"])), ExceptionId::new("e1∩e3"));
        assert_eq!(g.resolve(&ids(&["e2", "e3"])), ExceptionId::new("e2∩e3"));
    }

    #[test]
    fn triple_resolves_to_triple_node() {
        let g = figure3();
        assert_eq!(
            g.resolve(&ids(&["e1", "e2", "e3"])),
            ExceptionId::new("e1∩e2∩e3")
        );
    }

    #[test]
    fn undefined_exception_resolves_to_universal() {
        let g = figure3();
        let res = g.resolve_detailed(&ids(&["e1", "mystery"]));
        assert!(res.exception.is_universal());
        assert!(!res.all_known);
    }

    #[test]
    fn mixed_levels_resolve_to_cover() {
        let g = figure3();
        // A pair node plus the remaining primitive needs the triple node.
        assert_eq!(
            g.resolve(&ids(&["e1∩e2", "e3"])),
            ExceptionId::new("e1∩e2∩e3")
        );
    }

    #[test]
    fn empty_raise_set_falls_back_to_universal() {
        let g = figure3();
        let res = g.resolve_detailed(&[]);
        assert!(res.exception.is_universal());
        assert!(!res.all_known);
    }

    #[test]
    fn duplicates_in_raise_set_are_harmless() {
        let g = figure3();
        assert_eq!(
            g.resolve(&ids(&["e1", "e1", "e2"])),
            ExceptionId::new("e1∩e2")
        );
    }

    #[test]
    fn covers_is_reflexive_and_transitive_on_figure3() {
        let g = figure3();
        let e1 = ExceptionId::new("e1");
        let pair = ExceptionId::new("e1∩e2");
        let triple = ExceptionId::new("e1∩e2∩e3");
        assert!(g.covers(&e1, &e1));
        assert!(g.covers(&pair, &e1));
        assert!(g.covers(&triple, &e1));
        assert!(g.covers(&triple, &pair));
        assert!(!g.covers(&e1, &pair));
        assert!(g.covers(g.root(), &triple));
    }

    #[test]
    fn parentless_nodes_attach_to_universal() {
        let g = ExceptionGraphBuilder::new()
            .primitive("lonely")
            .build()
            .unwrap();
        assert_eq!(g.parents_of(&"lonely".into()), vec![g.root()]);
        // Two unrelated primitives resolve to universal.
        let g = ExceptionGraphBuilder::new()
            .primitive("a")
            .primitive("b")
            .build()
            .unwrap();
        assert!(g.resolve(&ids(&["a", "b"])).is_universal());
    }

    #[test]
    fn duplicate_node_is_an_error() {
        let err = ExceptionGraphBuilder::new()
            .primitive("x")
            .primitive("x")
            .build()
            .unwrap_err();
        assert_eq!(err, GraphError::DuplicateNode("x".into()));
    }

    #[test]
    fn duplicate_edge_is_an_error() {
        let err = ExceptionGraphBuilder::new()
            .edge("hi", "lo")
            .edge("hi", "lo")
            .build()
            .unwrap_err();
        assert_eq!(err, GraphError::DuplicateEdge("hi".into(), "lo".into()));
    }

    #[test]
    fn self_edge_is_an_error() {
        let err = ExceptionGraphBuilder::new()
            .edge("x", "x")
            .build()
            .unwrap_err();
        assert_eq!(err, GraphError::SelfEdge("x".into()));
    }

    #[test]
    fn cycle_is_an_error() {
        let err = ExceptionGraphBuilder::new()
            .edge("a", "b")
            .edge("b", "c")
            .edge("c", "a")
            .build()
            .unwrap_err();
        assert!(matches!(err, GraphError::Cycle(_)));
    }

    #[test]
    fn empty_graph_is_an_error() {
        assert_eq!(
            ExceptionGraphBuilder::new().build().unwrap_err(),
            GraphError::Empty
        );
    }

    #[test]
    fn removal_reattaches_children() {
        let g = figure3();
        let g2 = g.without(&"e1∩e2".into()).unwrap();
        assert!(!g2.contains(&"e1∩e2".into()));
        // e1 and e2 together must now resolve to the triple node (the next
        // smallest cover).
        assert_eq!(
            g2.resolve(&ids(&["e1", "e2"])),
            ExceptionId::new("e1∩e2∩e3")
        );
        // Other pairs are unaffected.
        assert_eq!(g2.resolve(&ids(&["e1", "e3"])), ExceptionId::new("e1∩e3"));
    }

    #[test]
    fn removal_of_primitive_or_root_is_rejected() {
        let g = figure3();
        assert_eq!(
            g.without(&"e1".into()).unwrap_err(),
            GraphError::CannotRemove("e1".into())
        );
        assert_eq!(
            g.without(g.root()).unwrap_err(),
            GraphError::CannotRemove(*g.root())
        );
        assert!(matches!(
            g.without(&"ghost".into()).unwrap_err(),
            GraphError::UnknownNode(_)
        ));
    }

    #[test]
    fn spec_roundtrip_preserves_resolution() {
        let g = figure3();
        let g2 = ExceptionGraph::from_spec(g.to_spec()).unwrap();
        assert_eq!(g, g2);
        assert_eq!(
            g2.resolve(&ids(&["e1", "e3"])),
            g.resolve(&ids(&["e1", "e3"]))
        );
    }

    #[test]
    fn same_level_cover_promotion() {
        // Simplification rule 2: an exception may cover another of the same
        // conceptual level; the cover relation simply makes it higher.
        let g = ExceptionGraphBuilder::new()
            .resolves("big", ["small"])
            .resolves("small", ["x"])
            .build()
            .unwrap();
        assert_eq!(g.level(&"big".into()), Some(2));
        assert!(g.covers(&"big".into(), &"x".into()));
    }

    #[test]
    fn descendants_listing() {
        let g = figure3();
        let desc = g.descendants_of(&"e1∩e2".into());
        let names: Vec<&str> = desc.iter().map(|d| d.name()).collect();
        assert_eq!(desc.len(), 3);
        assert!(names.contains(&"e1") && names.contains(&"e2") && names.contains(&"e1∩e2"));
        assert!(g.descendants_of(&"ghost".into()).is_empty());
    }

    #[test]
    fn debug_is_nonempty() {
        let repr = format!("{:?}", figure3());
        assert!(repr.contains("ExceptionGraph"));
        assert!(repr.contains("primitives"));
    }
}
