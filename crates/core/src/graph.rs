//! Logical operator graphs — the unit the fusion/fission passes transform.
//!
//! A [`PlanGraph`] is a DAG of relational operators over named plan inputs,
//! built in topological order (every node's inputs must already exist).
//! This is the representation a query-plan front end would hand to the
//! paper's compiler; the Fig. 17 TPC-H plans and the Fig. 2 fusable
//! patterns are all constructed as `PlanGraph`s.

use crate::deps::Dep;
use kfusion_ir::KernelBody;
use kfusion_relalg::ops::{Agg, SortBy};

/// Index of a node within its [`PlanGraph`].
pub type NodeId = usize;

/// The operator at a node.
#[derive(Debug, Clone, Hash)]
pub enum OpKind {
    /// A plan input (leaf): `input` indexes the relation array passed to the
    /// executor.
    Input {
        /// Which executor input this leaf reads.
        input: usize,
    },
    /// Filter by an IR predicate.
    Select {
        /// The predicate body (library calling convention).
        pred: KernelBody,
    },
    /// Keep a subset of payload columns.
    Project {
        /// Column indices to keep.
        keep: Vec<usize>,
    },
    /// Replace the payload with the outputs of an IR expression body.
    Arith {
        /// The expression body.
        body: KernelBody,
    },
    /// Append the outputs of an IR expression body to the payload.
    ArithExtend {
        /// The expression body.
        body: KernelBody,
    },
    /// Re-key by an i64 payload column (the column becomes the tuple key),
    /// used before SORT "by a different key" (paper Fig. 17(a)).
    Rekey {
        /// The payload column that becomes the key.
        col: usize,
    },
    /// Sort-merge equijoin on key (2 inputs, both key-sorted).
    Join,
    /// Zip relations with identical keys into a wide relation (2 inputs) —
    /// the column-combining join of the paper's Q1 plan.
    ColumnJoin,
    /// Keep left tuples whose key exists on the right (EXISTS).
    Semijoin,
    /// Keep left tuples whose key does not exist on the right (NOT EXISTS).
    Antijoin,
    /// Cartesian product (2 inputs).
    Product,
    /// Set union over whole tuples (2 inputs).
    Union,
    /// Set intersection over whole tuples (2 inputs).
    Intersect,
    /// Set difference over whole tuples (2 inputs).
    Difference,
    /// Group by key and reduce (input must be key-sorted).
    Aggregate {
        /// The aggregates, one output column each.
        aggs: Vec<Agg>,
    },
    /// Reduce the whole relation as one group.
    AggregateAll {
        /// The aggregates.
        aggs: Vec<Agg>,
    },
    /// Sort (the fusion barrier).
    Sort {
        /// Sort attribute.
        by: SortBy,
    },
    /// Drop consecutive duplicate tuples (requires sorted input; barrier).
    Unique,
}

/// How the host executor holds an operator's inputs and output
/// (DESIGN.md §17).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Host {
    /// Reads its inputs as views and yields one: its result is its input's
    /// columns under a narrower selection (a filter, by predicate or by
    /// membership of its key in another input), in another arrangement, or
    /// beside the columns it computes, so inside a fused group it is never
    /// materialized. A filtered input it would widen by more bytes than the
    /// input's rows is gathered into its slot first — the executor decides
    /// that, and only there (`exec::host::gathers_first`, by
    /// `relalg::View::gathers_first`).
    View,
    /// Reads any view where it is, filtered or not; what it produces is new
    /// rows — so a group's last view may leave the group for it.
    ReadsViews,
    /// Needs stored rows, produces stored rows.
    Stored,
}

/// What an operator's IR body computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BodyRole {
    /// Output 0 is the keep/drop mask of a filter.
    Predicate,
    /// Every output is a payload column of the result.
    Values,
}

/// Everything the compiler and the executor know about an operator without
/// looking at its payload — one row of the table in [`OpKind::traits`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpTraits {
    /// Display name: EXPLAIN labels, host span names, lint diagnostics.
    pub name: &'static str,
    /// How many relation inputs the operator takes.
    pub arity: usize,
    /// Dependence class (§III-C / §IV): what fuses, what segments.
    pub dep: Dep,
    /// How the host executor holds its inputs and output.
    pub host: Host,
    /// Whether every input must be key-sorted — checked statically by
    /// `check_plan`, enforced at run time by `relalg::ops`.
    pub needs_sorted: bool,
    /// Whether the output tuple is input 0's tuple unchanged (same key, same
    /// columns), so a fused consumer's IR body addresses the slots its
    /// producer's did.
    pub keeps_schema: bool,
}

impl OpKind {
    /// The operator table. Each column is read by one layer — `dep` by
    /// `fusion`, `check` and the schedule builder, `host` by `exec::host`,
    /// `needs_sorted` by `check`, `keeps_schema` by `analyze` — and none of
    /// them keeps a copy; a new operator fills in one row here.
    #[rustfmt::skip]
    pub fn traits(&self) -> OpTraits {
        use {Dep::*, Host::*};
        let row = |name, arity, dep, host, needs_sorted, keeps_schema| {
            OpTraits { name, arity, dep, host, needs_sorted, keeps_schema }
        };
        match self {
            //                                   name    arity  dep          host        sorted keeps
            OpKind::Input { .. }        => row("INPUT",      0, Leaf,        Stored,     false, false),
            OpKind::Select { .. }       => row("SELECT",     1, Elementwise, View,       false, true),
            OpKind::Project { .. }      => row("PROJECT",    1, Elementwise, View,       false, false),
            OpKind::Arith { .. }        => row("ARITH",      1, Elementwise, Stored,     false, false),
            OpKind::ArithExtend { .. }  => row("ARITH+",     1, Elementwise, View,       false, false),
            OpKind::Rekey { .. }        => row("REKEY",      1, Elementwise, View,       false, false),
            OpKind::Join                => row("JOIN",       2, Fusable,     Stored,     true,  false),
            OpKind::ColumnJoin          => row("COLJOIN",    2, Elementwise, View,       false, false),
            OpKind::Semijoin            => row("SEMIJOIN",   2, Fusable,     View,       true,  true),
            OpKind::Antijoin            => row("ANTIJOIN",   2, Fusable,     View,       true,  true),
            OpKind::Product             => row("PRODUCT",    2, Fusable,     Stored,     false, false),
            OpKind::Union               => row("UNION",      2, Barrier,     Stored,     false, false),
            OpKind::Intersect           => row("INTERSECT",  2, Barrier,     Stored,     false, false),
            OpKind::Difference          => row("DIFFERENCE", 2, Barrier,     Stored,     false, false),
            OpKind::Aggregate { .. }    => row("AGGREGATE",  1, Terminal,    ReadsViews, true,  false),
            OpKind::AggregateAll { .. } => row("AGGREGATE*", 1, Terminal,    ReadsViews, false, false),
            OpKind::Sort { .. }         => row("SORT",       1, Barrier,     ReadsViews, false, true),
            OpKind::Unique              => row("UNIQUE",     1, Barrier,     Stored,     true,  true),
        }
    }

    /// The IR body the operator carries, and what it computes.
    pub fn body(&self) -> Option<(&KernelBody, BodyRole)> {
        match self {
            OpKind::Select { pred } => Some((pred, BodyRole::Predicate)),
            OpKind::Arith { body } | OpKind::ArithExtend { body } => Some((body, BodyRole::Values)),
            _ => None,
        }
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        self.traits().name
    }

    /// How many relation inputs the operator takes.
    pub fn arity(&self) -> usize {
        self.traits().arity
    }

    /// Whether this is a plan-input leaf rather than an operator.
    pub fn is_input(&self) -> bool {
        self.traits().dep == Dep::Leaf
    }
}

/// One node of the plan DAG.
#[derive(Debug, Clone, Hash)]
pub struct Node {
    /// Operator.
    pub kind: OpKind,
    /// Producer nodes, all with smaller ids (topological construction).
    pub inputs: Vec<NodeId>,
}

/// Graph construction/validation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A node references an id at or after itself.
    ForwardEdge {
        /// Consumer node.
        node: NodeId,
        /// Referenced producer.
        input: NodeId,
    },
    /// Wrong number of inputs for the operator.
    Arity {
        /// Offending node.
        node: NodeId,
        /// Operator's required arity.
        expected: usize,
        /// Supplied inputs.
        got: usize,
    },
    /// The graph has no nodes.
    Empty,
    /// The root is not one of the graph's nodes.
    Root {
        /// The named root.
        root: NodeId,
        /// The graph's node count.
        nodes: usize,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::ForwardEdge { node, input } => {
                write!(f, "node {node} references non-earlier node {input}")
            }
            GraphError::Arity { node, expected, got } => {
                write!(f, "node {node} takes {expected} inputs, got {got}")
            }
            GraphError::Empty => write!(f, "empty plan graph"),
            GraphError::Root { root, nodes } => {
                write!(f, "root {root} is not one of its {nodes} nodes")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// A DAG of operators; node ids are topologically ordered by construction.
#[derive(Debug, Clone, Default, Hash)]
pub struct PlanGraph {
    /// Nodes; `nodes[i].inputs[j] < i` always.
    pub nodes: Vec<Node>,
    /// The node whose result is the plan output (defaults to the last node).
    pub root: NodeId,
}

impl PlanGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a plan-input leaf reading executor input `input`.
    pub fn input(&mut self, input: usize) -> NodeId {
        self.push(OpKind::Input { input }, vec![])
    }

    /// Add an operator node; returns its id and makes it the root.
    ///
    /// # Panics
    /// If the inputs are not all earlier nodes or the arity is wrong —
    /// construction bugs, caught eagerly.
    pub fn add(&mut self, kind: OpKind, inputs: Vec<NodeId>) -> NodeId {
        assert_eq!(kind.arity(), inputs.len(), "arity mismatch for {}", kind.name());
        self.push(kind, inputs)
    }

    fn push(&mut self, kind: OpKind, inputs: Vec<NodeId>) -> NodeId {
        let id = self.nodes.len();
        for &i in &inputs {
            assert!(i < id, "input {i} not earlier than node {id}");
        }
        self.nodes.push(Node { kind, inputs });
        self.root = id;
        id
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Ids of the plan-input leaves, ascending.
    pub fn inputs(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.len()).filter(|&id| self.nodes[id].kind.is_input())
    }

    /// Validate structure (redundant with `add`'s assertions; for graphs
    /// deserialized or built by other means).
    pub fn validate(&self) -> Result<(), GraphError> {
        if self.nodes.is_empty() {
            return Err(GraphError::Empty);
        }
        if self.root >= self.nodes.len() {
            return Err(GraphError::Root { root: self.root, nodes: self.nodes.len() });
        }
        for (id, node) in self.nodes.iter().enumerate() {
            if node.kind.arity() != node.inputs.len() {
                return Err(GraphError::Arity {
                    node: id,
                    expected: node.kind.arity(),
                    got: node.inputs.len(),
                });
            }
            for &i in &node.inputs {
                if i >= id {
                    return Err(GraphError::ForwardEdge { node: id, input: i });
                }
            }
        }
        Ok(())
    }

    /// Consumer count per node (fan-out; the root gains one implicit
    /// consumer — the plan output).
    pub fn consumer_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.nodes.len()];
        for node in &self.nodes {
            for &i in &node.inputs {
                counts[i] += 1;
            }
        }
        counts[self.root] += 1;
        counts
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::check::{check_plan, PlanCheckError};
    use crate::exec::{execute, ExecConfig, Strategy};
    use crate::CoreError;
    use kfusion_relalg::{predicates, Column, RelError, Relation};

    /// An instance of every variant. The match beside it has no wildcard, so
    /// a new variant does not compile until it is listed here — and with
    /// that is covered by every table test below.
    pub(crate) fn all_kinds() -> Vec<OpKind> {
        let kinds = vec![
            OpKind::Input { input: 0 },
            OpKind::Select { pred: predicates::key_lt(10) },
            OpKind::Project { keep: vec![0] },
            OpKind::Arith { body: predicates::discounted_price(0, 1) },
            OpKind::ArithExtend { body: predicates::discounted_price(0, 1) },
            OpKind::Rekey { col: 2 },
            OpKind::Join,
            OpKind::ColumnJoin,
            OpKind::Semijoin,
            OpKind::Antijoin,
            OpKind::Product,
            OpKind::Union,
            OpKind::Intersect,
            OpKind::Difference,
            OpKind::Aggregate { aggs: vec![Agg::Count] },
            OpKind::AggregateAll { aggs: vec![Agg::Count] },
            OpKind::Sort { by: SortBy::Key },
            OpKind::Unique,
        ];
        for kind in &kinds {
            match kind {
                OpKind::Input { .. }
                | OpKind::Select { .. }
                | OpKind::Project { .. }
                | OpKind::Arith { .. }
                | OpKind::ArithExtend { .. }
                | OpKind::Rekey { .. }
                | OpKind::Join
                | OpKind::ColumnJoin
                | OpKind::Semijoin
                | OpKind::Antijoin
                | OpKind::Product
                | OpKind::Union
                | OpKind::Intersect
                | OpKind::Difference
                | OpKind::Aggregate { .. }
                | OpKind::AggregateAll { .. }
                | OpKind::Sort { .. }
                | OpKind::Unique => {}
            }
        }
        kinds
    }

    #[test]
    fn the_table_is_consistent_with_itself() {
        for kind in all_kinds() {
            let t = kind.traits();
            // What never needs its rows stored works a tuple at a time, or
            // is a key filter: SEMIJOIN and ANTIJOIN output a subset of
            // their left side's tuples, unchanged and in order, and read
            // only the keys of their right side — so a selection over the
            // left side is the whole result, though which tuples it keeps
            // depends on another input (not elementwise: it must be sorted).
            if t.host == Host::View {
                let key_filter = t.arity == 2 && t.keeps_schema && t.needs_sorted;
                assert!(t.dep == Dep::Elementwise || key_filter, "{}", t.name);
            }
            let carries_ir = ["SELECT", "ARITH", "ARITH+"].contains(&t.name);
            assert_eq!(kind.body().is_some(), carries_ir, "{}", t.name);
            assert_eq!(kind.is_input(), t.arity == 0, "{}", t.name);
        }
    }

    /// `needs_sorted` is one fact with two enforcers: `check_plan` rejects a
    /// provably unsorted producer statically, `relalg::ops` rejects unsorted
    /// rows at run time. Both must agree with the table for every operator.
    #[test]
    fn sortedness_is_required_statically_and_at_run_time_by_the_same_operators() {
        let system = kfusion_vgpu::GpuSystem::c2070();
        let unsorted = Relation::new(
            vec![3, 1, 2],
            vec![
                Column::F64(vec![10.0, 20.0, 30.0]),
                Column::F64(vec![0.1, 0.2, 0.3]),
                Column::I64(vec![7, 8, 9]),
            ],
        )
        .unwrap();
        for kind in all_kinds().into_iter().filter(|k| k.arity() >= 1) {
            let needs_sorted = kind.traits().needs_sorted;

            let mut g = PlanGraph::new();
            let i = g.input(0);
            g.add(kind.clone(), vec![i; kind.arity()]);
            for strategy in [Strategy::Serial, Strategy::Fusion] {
                let run = execute(
                    &system,
                    &g,
                    std::slice::from_ref(&unsorted),
                    &ExecConfig::new(strategy, &system),
                );
                match run {
                    Err(CoreError::Rel(RelError::NotSorted)) if needs_sorted => {}
                    Ok(_) if !needs_sorted => {}
                    other => panic!("{} under {strategy:?}: {other:?}", kind.name()),
                }
            }

            let mut g = PlanGraph::new();
            let i = g.input(0);
            let rekeyed = g.add(OpKind::Rekey { col: 2 }, vec![i]);
            g.add(kind.clone(), vec![rekeyed; kind.arity()]);
            match check_plan(&g) {
                Err(PlanCheckError::UnsortedInput { destroyed_by: "REKEY", .. })
                    if needs_sorted => {}
                Ok(()) if !needs_sorted => {}
                other => panic!("REKEY -> {}: {other:?}", kind.name()),
            }
        }
    }

    #[test]
    fn build_simple_chain() {
        let mut g = PlanGraph::new();
        let i = g.input(0);
        let s1 = g.add(OpKind::Select { pred: predicates::key_lt(10) }, vec![i]);
        let s2 = g.add(OpKind::Select { pred: predicates::key_lt(5) }, vec![s1]);
        assert_eq!(g.root, s2);
        assert_eq!(g.len(), 3);
        assert!(g.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn join_needs_two_inputs() {
        let mut g = PlanGraph::new();
        let i = g.input(0);
        g.add(OpKind::Join, vec![i]);
    }

    #[test]
    fn consumer_counts_track_fanout() {
        let mut g = PlanGraph::new();
        let i = g.input(0);
        let s = g.add(OpKind::Select { pred: predicates::key_lt(10) }, vec![i]);
        let a = g.add(OpKind::Select { pred: predicates::key_lt(5) }, vec![s]);
        let b = g.add(OpKind::Select { pred: predicates::key_lt(3) }, vec![s]);
        let _u = g.add(OpKind::Union, vec![a, b]);
        let counts = g.consumer_counts();
        assert_eq!(counts[s], 2, "s feeds both selects (Fig 2(c) shape)");
        assert_eq!(counts[i], 1);
        assert_eq!(*counts.last().unwrap(), 1, "root has the implicit consumer");
    }

    #[test]
    fn validate_catches_bad_arity() {
        let g = PlanGraph { nodes: vec![Node { kind: OpKind::Join, inputs: vec![] }], root: 0 };
        assert!(matches!(g.validate(), Err(GraphError::Arity { .. })));
    }

    #[test]
    fn validate_catches_forward_edge() {
        let g = PlanGraph { nodes: vec![Node { kind: OpKind::Unique, inputs: vec![0] }], root: 0 };
        assert!(matches!(g.validate(), Err(GraphError::ForwardEdge { .. })));
    }

    #[test]
    fn empty_graph_invalid() {
        assert!(matches!(PlanGraph::new().validate(), Err(GraphError::Empty)));
    }

    #[test]
    fn validate_catches_a_root_that_is_not_a_node() {
        let g = PlanGraph {
            nodes: vec![Node { kind: OpKind::Input { input: 0 }, inputs: vec![] }],
            root: 1,
        };
        assert_eq!(g.validate(), Err(GraphError::Root { root: 1, nodes: 1 }));
    }
}
