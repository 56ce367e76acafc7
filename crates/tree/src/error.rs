//! Error types shared by the tree substrate.

use std::fmt;

use crate::tree::NodeId;

/// Errors produced while building, validating or simulating task trees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// The tree has no nodes.
    Empty,
    /// The weight and parent arrays of a tree differ in length.
    LengthMismatch {
        /// Number of weights.
        weights: usize,
        /// Number of parent entries.
        parents: usize,
    },
    /// A node references a parent that does not exist.
    UnknownNode(NodeId),
    /// This node's parent index is `u32::MAX` or more, which no node id
    /// can be.
    ParentOutOfRange(NodeId),
    /// More than one node has no parent.
    MultipleRoots(NodeId, NodeId),
    /// No node without a parent was found (the parent relation has a cycle).
    NoRoot,
    /// The parent relation contains a cycle involving this node.
    Cycle(NodeId),
    /// A schedule is not a topological order of the nodes it contains.
    NotTopological(NodeId),
    /// A schedule contains a node whose child is missing from the schedule.
    MissingChild {
        /// The scheduled node.
        node: NodeId,
        /// The child that is not part of the schedule.
        child: NodeId,
    },
    /// A schedule contains the same node twice.
    DuplicateNode(NodeId),
    /// The memory bound is too small to execute this task at all
    /// (`M < w̄_i`); no amount of I/O can make the traversal feasible.
    InsufficientMemory {
        /// The offending node.
        node: NodeId,
        /// Memory required to execute the node (`w̄_i`).
        required: u64,
        /// Available memory `M`.
        available: u64,
    },
    /// An I/O function assigns a node more I/O than the size of its output.
    IoExceedsWeight {
        /// The offending node.
        node: NodeId,
        /// Requested I/O volume `τ(i)`.
        io: u64,
        /// Output size `w_i`.
        weight: u64,
    },
    /// A traversal `(σ, τ)` exceeds the memory bound at some step.
    MemoryExceeded {
        /// The node being executed when the bound was exceeded.
        node: NodeId,
        /// Memory in use at that step.
        used: u64,
        /// Available memory `M`.
        available: u64,
    },
    /// The memory bound is zero, where the paper's performance `(M + IO)/M`
    /// is undefined.
    ZeroMemory,
    /// Summing weights overflows `u64`: either the children weights of this
    /// node, or the total weight of all nodes up to this one.
    WeightOverflow(NodeId),
    /// A solve report is inconsistent with the instance it reports on
    /// (a reported quantity does not match its recomputation).
    ReportMismatch {
        /// Name of the mismatched quantity.
        field: &'static str,
        /// The reported value.
        reported: u64,
        /// The recomputed value.
        actual: u64,
    },
}

impl TreeError {
    /// The same error with every node it names passed through `map`: how a
    /// failure on a renumbered copy of a tree is reported in the ids of the
    /// original.
    pub fn map_nodes(self, map: impl Fn(NodeId) -> NodeId) -> TreeError {
        use TreeError::*;
        match self {
            UnknownNode(n) => UnknownNode(map(n)),
            ParentOutOfRange(n) => ParentOutOfRange(map(n)),
            MultipleRoots(a, b) => MultipleRoots(map(a), map(b)),
            Cycle(n) => Cycle(map(n)),
            NotTopological(n) => NotTopological(map(n)),
            MissingChild { node, child } => MissingChild {
                node: map(node),
                child: map(child),
            },
            DuplicateNode(n) => DuplicateNode(map(n)),
            InsufficientMemory {
                node,
                required,
                available,
            } => InsufficientMemory {
                node: map(node),
                required,
                available,
            },
            IoExceedsWeight { node, io, weight } => IoExceedsWeight {
                node: map(node),
                io,
                weight,
            },
            MemoryExceeded {
                node,
                used,
                available,
            } => MemoryExceeded {
                node: map(node),
                used,
                available,
            },
            WeightOverflow(n) => WeightOverflow(map(n)),
            e @ (Empty | LengthMismatch { .. } | NoRoot | ZeroMemory | ReportMismatch { .. }) => e,
        }
    }
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::Empty => write!(f, "tree has no nodes"),
            TreeError::LengthMismatch { weights, parents } => write!(
                f,
                "{weights} weights but {parents} parent entries: one of each per node"
            ),
            TreeError::UnknownNode(n) => write!(f, "unknown node {n:?}"),
            TreeError::ParentOutOfRange(n) => write!(f, "parent of {n:?} is past every node id"),
            TreeError::MultipleRoots(a, b) => {
                write!(f, "multiple roots: {a:?} and {b:?}")
            }
            TreeError::NoRoot => write!(f, "no root found (cyclic parent relation)"),
            TreeError::Cycle(n) => write!(f, "cycle in parent relation at {n:?}"),
            TreeError::NotTopological(n) => {
                write!(f, "schedule is not topological at node {n:?}")
            }
            TreeError::MissingChild { node, child } => {
                write!(f, "schedule contains {node:?} but not its child {child:?}")
            }
            TreeError::DuplicateNode(n) => write!(f, "schedule contains {n:?} twice"),
            TreeError::InsufficientMemory {
                node,
                required,
                available,
            } => write!(
                f,
                "node {node:?} needs {required} memory units but only {available} are available"
            ),
            TreeError::IoExceedsWeight { node, io, weight } => write!(
                f,
                "I/O function writes {io} units of node {node:?} whose output is only {weight}"
            ),
            TreeError::MemoryExceeded {
                node,
                used,
                available,
            } => write!(
                f,
                "traversal uses {used} memory units at node {node:?} but only {available} are available"
            ),
            TreeError::ZeroMemory => {
                write!(f, "memory bound is zero: the performance (M + IO)/M is undefined")
            }
            TreeError::WeightOverflow(n) => {
                write!(f, "weights summed at node {n:?} overflow u64")
            }
            TreeError::ReportMismatch {
                field,
                reported,
                actual,
            } => write!(
                f,
                "solve report is inconsistent: {field} reported as {reported}, recomputed as {actual}"
            ),
        }
    }
}

impl std::error::Error for TreeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_nodes_maps_every_named_node_and_nothing_else() {
        let shift = |n: NodeId| NodeId(n.0 + 10);
        assert_eq!(
            TreeError::MissingChild {
                node: NodeId(1),
                child: NodeId(2),
            }
            .map_nodes(shift),
            TreeError::MissingChild {
                node: NodeId(11),
                child: NodeId(12),
            }
        );
        assert_eq!(
            TreeError::NotTopological(NodeId(0)).map_nodes(shift),
            TreeError::NotTopological(NodeId(10))
        );
        assert_eq!(
            TreeError::ZeroMemory.map_nodes(shift),
            TreeError::ZeroMemory
        );
    }
}
