//! # ppd-graph — program dependence graphs for the PPD debugger
//!
//! The four graph structures of Miller & Choi (PLDI 1988):
//!
//! - [`staticpdg`] — the **static program dependence graph** (§4.1):
//!   potential flow/control/data dependences from the program text;
//! - [`simplified`] — the **simplified static graph** (§5.5) and its
//!   synchronization units (Definition 5.1);
//! - [`dynamic`] — the **dynamic program dependence graph** (§4.2):
//!   actual run-time dependences, built incrementally during debugging;
//! - [`parallel`] — the **parallel dynamic graph** (§6.1): sync nodes,
//!   internal edges with READ/WRITE sets, and synchronization edges.
//!
//! Plus [`order`] (Lamport-style happened-before, via transitive closure
//! or vector clocks), [`race`] (Definitions 6.1–6.4) and [`dot`]
//! (Graphviz export).
//!
//! ## Example: detecting a write/write race
//!
//! ```
//! use ppd_graph::parallel::ParallelGraph;
//! use ppd_graph::order::VectorClocks;
//! use ppd_graph::race;
//! use ppd_lang::{ProcId, VarId};
//!
//! let mut g = ParallelGraph::new(1);
//! g.start_process(ProcId(0), 0);
//! g.start_process(ProcId(1), 1);
//! g.record_write(ProcId(0), VarId(0));
//! g.record_write(ProcId(1), VarId(0));
//! g.end_process(ProcId(0), 2);
//! g.end_process(ProcId(1), 3);
//!
//! let ord = VectorClocks::compute(&g);
//! let races = race::detect_races(&g, &ord, None);
//! assert_eq!(races.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod dot;
pub mod dynamic;
pub mod order;
pub mod parallel;
pub mod race;
pub mod simplified;
pub mod staticpdg;

pub use dynamic::{DynEdgeKind, DynNode, DynNodeId, DynNodeKind, DynamicGraph};
pub use order::{Ordering, TransitiveClosure, VectorClocks};
pub use parallel::{
    InternalEdge, InternalEdgeId, ParallelGraph, SyncEdge, SyncEdgeLabel, SyncNode, SyncNodeId,
    SyncNodeKind,
};
pub use race::{
    candidates_from_graph, detect_races, detect_races_absint, detect_races_naive, detect_races_par,
    is_race_free, stage_pairs, ConflictKind, Race, RaceCandidates, StagePairs,
};
pub use simplified::{SimpleEdgeId, SimpleNode, SimplifiedGraph, UnitEdges};
pub use staticpdg::{BodyStaticGraph, StaticEdge, StaticGraph, StaticNode};
