//! Graph substrate for the LazyMC reproduction.
//!
//! This crate provides everything the solvers need from a graph library:
//!
//! * [`CsrGraph`] — compact, immutable, undirected graphs in compressed
//!   sparse row form with sorted adjacency lists;
//! * [`GraphBuilder`] — ingestion of arbitrary (possibly duplicated,
//!   self-looped, one-directional) edge streams;
//! * [`io`] — readers/writers for edge-list, DIMACS `.clq` and
//!   MatrixMarket files;
//! * [`gen`] — deterministic synthetic generators used as stand-ins for the
//!   paper's 28 proprietary/web-scale datasets;
//! * [`suite`] — the named benchmark suite used by every experiment binary;
//! * [`snapshot`] — the `.lmcs` durable snapshot format: versioned,
//!   checksummed, mmap-friendly serialization of the CSR arrays and the
//!   k-core decomposition, with one writer and one validation ladder
//!   that every reader runs;
//! * [`mmap`] — the zero-copy reader: [`MappedSnapshot`] runs that
//!   ladder over a read-only mapping and borrows the CSR and coreness
//!   slices straight out of it, behind the [`GraphStore`]
//!   `Heap | Mapped` enum and the [`GraphAccess`] trait every kernel
//!   consumes.
//!
//! All vertex identifiers are [`VertexId`] (`u32`), matching the 4-byte ids
//! the paper assumes (16 per cache line, which motivates the hopscotch hash
//! neighbourhood size of 16).

pub mod access;
pub mod builder;
pub mod components;
pub mod csr;
pub mod gen;
pub mod io;
pub mod mmap;
pub mod snapshot;
pub mod stats;
pub mod suite;

pub use access::GraphAccess;
pub use builder::GraphBuilder;
pub use components::{connected_components, largest_component, triangle_count, DisjointSet};
pub use csr::CsrGraph;
pub use mmap::{GraphStore, MappedSnapshot};
pub use stats::GraphStats;

/// Vertex identifier. The paper stores vertices as 4-byte integers.
pub type VertexId = u32;

/// Marker for "no vertex" in dense arrays.
pub const NO_VERTEX: VertexId = VertexId::MAX;
