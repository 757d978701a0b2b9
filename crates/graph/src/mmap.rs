//! Zero-copy `.lmcs` loading: `mmap` the snapshot file and point CSR
//! slices straight into it.
//!
//! The `.lmcs` layout was designed for this (fixed header, absolute
//! 8-byte-aligned section offsets — see [`crate::snapshot`]).
//! [`MappedSnapshot::map`] runs the one validation ladder,
//! [`snapshot::validate`], over the mapped bytes — exact length,
//! whole-file checksum, hostile section-table checks, CSR structure,
//! content re-fingerprint, decomposition shape — so it accepts exactly
//! the files the heap reader accepts. It reads the bytes through the
//! mapping instead of copying them: a validated graph costs one
//! streaming pass at page-cache speed and **zero resident heap**. The
//! offsets, targets, coreness and peel-order arrays are then borrowed
//! `&[u64]` / `&[u32]` slices into the file.
//!
//! # Safety argument
//!
//! The borrowed slices are sound because:
//!
//! * `mmap` returns a page-aligned base, and every section payload
//!   starts at a file offset that is a validated multiple of 8, so the
//!   `*const u8 → *const u32 / *const u64` casts are always aligned;
//! * the mapping is `PROT_READ` + `MAP_PRIVATE` and lives exactly as
//!   long as the `MappedSnapshot` (unmapped in `Drop`), and every slice
//!   borrows from `&self`, so no slice can outlive the mapping;
//! * section bounds were checked against the mapped length before any
//!   slice is formed, so no slice reaches past the file;
//! * snapshot files are only ever replaced by atomic rename
//!   ([`crate::snapshot::write_file_atomic`]) or quarantined by rename —
//!   never rewritten in place — so the inode backing an open mapping is
//!   immutable for the mapping's lifetime and the process cannot take a
//!   `SIGBUS` from a shrinking file. In-place corruption by an outside
//!   actor is outside the contract; the service's scrubber detects it on
//!   the *file* and drops the mapped registry entry (see
//!   `docs/snapshot-format.md` § zero-copy loader).
//!
//! u32/u64 have no invalid bit patterns, so even hostile payload bytes
//! can at worst fail validation — they cannot cause UB through the
//! typed slices.

use crate::csr::CsrGraph;
use crate::snapshot::{self, Layout, Span, HEADER_LEN};
use crate::{access::GraphAccess, VertexId};
use std::path::Path;
use std::sync::Arc;

/// Raw mmap surface, `extern "C"` against the libc `std` already links —
/// same zero-deps pattern as `crates/netio`.
mod sys {
    #![allow(non_camel_case_types)]

    use std::os::raw::{c_int, c_void};

    pub const PROT_READ: c_int = 0x1;
    pub const MAP_PRIVATE: c_int = 0x02;
    /// `MAP_FAILED` is `(void *)-1`.
    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    pub const MADV_RANDOM: c_int = 1;
    pub const MADV_WILLNEED: c_int = 3;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            length: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, length: usize) -> c_int;
        pub fn madvise(addr: *mut c_void, length: usize, advice: c_int) -> c_int;
    }
}

/// A validated `.lmcs` snapshot whose CSR arrays are borrowed straight
/// out of a read-only file mapping. See the module docs for the
/// validation ladder and the safety argument.
pub struct MappedSnapshot {
    base: *mut std::os::raw::c_void,
    len: usize,
    layout: Layout,
}

// SAFETY: the mapping is PROT_READ and never written through; all
// accessors hand out shared immutable slices, so the type is as
// thread-safe as `&[u8]`.
unsafe impl Send for MappedSnapshot {}
unsafe impl Sync for MappedSnapshot {}

impl Drop for MappedSnapshot {
    fn drop(&mut self) {
        // SAFETY: base/len are exactly what mmap returned; the struct is
        // being dropped, so no borrowed slice can still be live.
        unsafe {
            sys::munmap(self.base, self.len);
        }
    }
}

/// RAII guard so validation failures between `mmap` and the
/// `MappedSnapshot` construction still unmap.
struct RawMapping {
    base: *mut std::os::raw::c_void,
    len: usize,
}

impl Drop for RawMapping {
    fn drop(&mut self) {
        if !self.base.is_null() {
            // SAFETY: base/len came from a successful mmap.
            unsafe {
                sys::munmap(self.base, self.len);
            }
        }
    }
}

impl MappedSnapshot {
    /// Maps `path` and runs [`snapshot::validate`] over the mapping, so
    /// it rejects exactly what the heap reader rejects: truncation, bit
    /// flips, hostile section tables, malformed CSR, fingerprint
    /// mismatch, a missing or malformed decomposition.
    pub fn map(path: &Path) -> Result<MappedSnapshot, String> {
        use std::os::unix::io::AsRawFd;

        let file = std::fs::File::open(path).map_err(|e| format!("open {path:?}: {e}"))?;
        let len = file
            .metadata()
            .map_err(|e| format!("stat {path:?}: {e}"))?
            .len();
        let len = usize::try_from(len).map_err(|_| "file larger than address space")?;
        // mmap refuses a zero length, so the header-length rung runs here.
        if len < HEADER_LEN {
            return Err(format!(
                "file too short for a snapshot header ({len} bytes)"
            ));
        }
        // SAFETY: plain read-only private mapping of an open fd; length
        // is non-zero (>= HEADER_LEN). The fd may be closed after mmap —
        // the mapping keeps its own reference to the inode.
        let base = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if base == sys::MAP_FAILED {
            return Err(format!(
                "mmap {path:?} failed: {}",
                std::io::Error::last_os_error()
            ));
        }
        let guard = RawMapping { base, len };
        // SAFETY: the mapping covers exactly `len` readable bytes and
        // outlives `bytes` via `guard` (moved into the final struct on
        // success, unmapped on error).
        let bytes: &[u8] = unsafe { std::slice::from_raw_parts(base as *const u8, len) };
        let layout = snapshot::validate(bytes)?;
        let mapped = MappedSnapshot {
            base: guard.base,
            len: guard.len,
            layout,
        };
        std::mem::forget(guard);
        Ok(mapped)
    }

    /// The mapped bytes (whole file).
    fn bytes(&self) -> &[u8] {
        // SAFETY: the mapping is live for &self's lifetime and covers
        // exactly `len` readable bytes.
        unsafe { std::slice::from_raw_parts(self.base as *const u8, self.len) }
    }

    /// CSR row offsets, borrowed from the mapping (`n + 1` entries).
    pub fn offsets(&self) -> &[u64] {
        slice_u64(self.bytes(), self.layout.offsets)
    }

    /// CSR adjacency targets, borrowed from the mapping (`m2` entries).
    pub fn targets(&self) -> &[u32] {
        slice_u32(self.bytes(), self.layout.targets)
    }

    /// Embedded per-vertex coreness, borrowed from the mapping.
    pub fn coreness(&self) -> &[u32] {
        slice_u32(self.bytes(), self.layout.coreness)
    }

    /// Embedded sequential peel order (empty when the snapshot was
    /// written from a parallel decomposition, which records none).
    pub fn peel_order(&self) -> &[u32] {
        self.layout
            .peel_order
            .map_or(&[], |span| slice_u32(self.bytes(), span))
    }

    /// Content fingerprint (validated against the stored CSR on map).
    pub fn fingerprint(&self) -> u64 {
        self.layout.fingerprint
    }

    /// Degeneracy = max embedded coreness.
    pub fn degeneracy(&self) -> u32 {
        self.layout.degeneracy
    }

    /// Size of the backing file in bytes (the mapping's length).
    pub fn byte_len(&self) -> u64 {
        self.len as u64
    }

    /// Hints the kernel to prefetch the whole mapping (first solve on a
    /// cold graph).
    pub fn advise_willneed(&self) {
        // SAFETY: base/len are the live mapping; madvise is advisory and
        // cannot invalidate it. Failure is ignorable by design.
        unsafe {
            sys::madvise(self.base, self.len, sys::MADV_WILLNEED);
        }
    }

    /// Hints the kernel that access will be random (branch-and-bound
    /// neighbourhood probes), disabling readahead.
    pub fn advise_random(&self) {
        // SAFETY: as advise_willneed.
        unsafe {
            sys::madvise(self.base, self.len, sys::MADV_RANDOM);
        }
    }
}

impl std::fmt::Debug for MappedSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedSnapshot")
            .field("len", &self.len)
            .field("n", &self.layout.n)
            .field("m2", &self.layout.m2)
            .field(
                "fingerprint",
                &format_args!("{:016x}", self.layout.fingerprint),
            )
            .field("degeneracy", &self.layout.degeneracy)
            .finish()
    }
}

impl GraphAccess for MappedSnapshot {
    fn num_vertices(&self) -> usize {
        self.layout.n
    }

    fn num_edges(&self) -> usize {
        self.layout.m2 / 2
    }

    fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let offsets = self.offsets();
        let start = offsets[v as usize] as usize;
        let end = offsets[v as usize + 1] as usize;
        &self.targets()[start..end]
    }

    fn degree(&self, v: VertexId) -> usize {
        let offsets = self.offsets();
        (offsets[v as usize + 1] - offsets[v as usize]) as usize
    }
}

/// Borrows a validated u64 section out of the mapped bytes.
fn slice_u64(bytes: &[u8], span: Span) -> &[u64] {
    let ptr = bytes[span.offset..span.offset + span.count * 8].as_ptr();
    debug_assert!(
        (ptr as usize).is_multiple_of(8),
        "section offset must be 8-aligned"
    );
    // SAFETY: the span comes from the `Layout` that `snapshot::validate`
    // built over this mapping in `map` (only it builds one), which checked
    // its bounds and 8-byte alignment; the mapping base itself is
    // page-aligned, so `base + offset` is 8-aligned. u64 has no invalid
    // bit patterns. Lifetime is tied to `bytes`, which borrows the mapping.
    unsafe { std::slice::from_raw_parts(ptr as *const u64, span.count) }
}

/// Borrows a validated u32 section out of the mapped bytes.
fn slice_u32(bytes: &[u8], span: Span) -> &[u32] {
    let ptr = bytes[span.offset..span.offset + span.count * 4].as_ptr();
    debug_assert!(
        (ptr as usize).is_multiple_of(4),
        "section offset must be 4-aligned"
    );
    // SAFETY: as `slice_u64` — bounds/alignment validated up front, u32
    // has no invalid bit patterns, lifetime tied to the mapping.
    unsafe { std::slice::from_raw_parts(ptr as *const u32, span.count) }
}

/// One graph, either decoded onto the heap or mapped zero-copy — the
/// registry's unit of residency. Small graphs stay [`GraphStore::Heap`]
/// (the dense kernels' bit-matrix fast path wants hot contiguous heap
/// memory anyway); large graphs go [`GraphStore::Mapped`] and cost the
/// page cache, not the process, their bytes. The mapping is shared, so a
/// holder can also borrow the decomposition embedded in it.
#[derive(Debug)]
pub enum GraphStore {
    Heap(CsrGraph),
    Mapped(Arc<MappedSnapshot>),
}

impl GraphStore {
    /// Approximate resident heap bytes: the CSR arrays for heap graphs,
    /// 0 for mapped graphs (their pages belong to the page cache and are
    /// reclaimable at any time — eviction must not count them).
    pub fn heap_bytes(&self) -> u64 {
        match self {
            GraphStore::Heap(g) => {
                let (offsets, targets) = g.raw_parts();
                (std::mem::size_of_val(offsets) + std::mem::size_of_val(targets)) as u64
            }
            GraphStore::Mapped(_) => 0,
        }
    }

    /// Bytes of file mapped into the address space (0 for heap graphs).
    pub fn mapped_bytes(&self) -> u64 {
        match self {
            GraphStore::Heap(_) => 0,
            GraphStore::Mapped(m) => m.byte_len(),
        }
    }

    pub fn is_mapped(&self) -> bool {
        matches!(self, GraphStore::Mapped(_))
    }

    /// Content fingerprint, identical across representations.
    pub fn fingerprint(&self) -> u64 {
        match self {
            GraphStore::Heap(g) => g.fingerprint(),
            GraphStore::Mapped(m) => m.fingerprint(),
        }
    }

    pub fn as_mapped(&self) -> Option<&MappedSnapshot> {
        match self {
            GraphStore::Heap(_) => None,
            GraphStore::Mapped(m) => Some(m),
        }
    }
}

impl GraphAccess for GraphStore {
    fn num_vertices(&self) -> usize {
        match self {
            GraphStore::Heap(g) => GraphAccess::num_vertices(g),
            GraphStore::Mapped(m) => GraphAccess::num_vertices(&**m),
        }
    }

    fn num_edges(&self) -> usize {
        match self {
            GraphStore::Heap(g) => GraphAccess::num_edges(g),
            GraphStore::Mapped(m) => GraphAccess::num_edges(&**m),
        }
    }

    fn neighbors(&self, v: VertexId) -> &[VertexId] {
        match self {
            GraphStore::Heap(g) => GraphAccess::neighbors(g, v),
            GraphStore::Mapped(m) => GraphAccess::neighbors(&**m, v),
        }
    }

    fn degree(&self, v: VertexId) -> usize {
        match self {
            GraphStore::Heap(g) => GraphAccess::degree(g, v),
            GraphStore::Mapped(m) => GraphAccess::degree(&**m, v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::snapshot::{encode, write_file_atomic};

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("lazymc_mmap_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    /// Snapshots `g` with a stand-in decomposition (the ladder checks
    /// its shape, not its values): coreness `v % 4`, peel order `n-1..0`.
    fn snap_to(path: &Path, g: &CsrGraph) {
        let n = g.num_vertices() as u32;
        let coreness: Vec<u32> = (0..n).map(|v| v % 4).collect();
        let peel_order: Vec<u32> = (0..n).rev().collect();
        write_file_atomic(path, &encode(g, &coreness, &peel_order)).expect("write snapshot");
    }

    #[test]
    fn mapped_slices_match_heap_decode() {
        let dir = temp_dir("roundtrip");
        let g = gen::planted_clique(500, 0.02, 9, 42);
        let path = dir.join("g.lmcs");
        snap_to(&path, &g);
        let m = MappedSnapshot::map(&path).expect("map");
        assert_eq!(GraphAccess::num_vertices(&m), g.num_vertices());
        assert_eq!(GraphAccess::num_edges(&m), g.num_edges());
        assert_eq!(m.fingerprint(), g.fingerprint());
        for v in 0..g.num_vertices() as VertexId {
            assert_eq!(GraphAccess::neighbors(&m, v), g.neighbors(v));
            assert_eq!(GraphAccess::degree(&m, v), g.degree(v));
        }
        let n = g.num_vertices() as u32;
        assert_eq!(m.coreness(), (0..n).map(|v| v % 4).collect::<Vec<_>>());
        assert_eq!(m.degeneracy(), 3);
        assert_eq!(m.peel_order(), (0..n).rev().collect::<Vec<_>>());
        m.advise_willneed();
        m.advise_random();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_graph_maps() {
        let dir = temp_dir("empty");
        let g = CsrGraph::empty(0);
        let path = dir.join("e.lmcs");
        snap_to(&path, &g);
        let m = MappedSnapshot::map(&path).expect("map empty");
        assert_eq!(GraphAccess::num_vertices(&m), 0);
        assert_eq!(GraphAccess::num_edges(&m), 0);
        assert!(m.coreness().is_empty());
        assert!(m.peel_order().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn map_rejects_missing_and_garbage_files() {
        let dir = temp_dir("garbage");
        assert!(MappedSnapshot::map(&dir.join("nope.lmcs")).is_err());
        let short = dir.join("short.lmcs");
        std::fs::write(&short, b"LMCS").expect("write");
        assert!(MappedSnapshot::map(&short).is_err());
        let junk = dir.join("junk.lmcs");
        std::fs::write(&junk, vec![0xAAu8; 4096]).expect("write");
        assert!(MappedSnapshot::map(&junk).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn graph_store_byte_accounting() {
        let dir = temp_dir("store");
        let g = gen::gnp(300, 0.05, 3);
        let path = dir.join("g.lmcs");
        snap_to(&path, &g);
        let heap = GraphStore::Heap(g);
        assert!(!heap.is_mapped());
        assert!(heap.heap_bytes() > 0);
        assert_eq!(heap.mapped_bytes(), 0);
        let mapped = GraphStore::Mapped(Arc::new(MappedSnapshot::map(&path).expect("map")));
        assert!(mapped.is_mapped());
        assert_eq!(mapped.heap_bytes(), 0);
        assert!(mapped.mapped_bytes() > 0);
        assert_eq!(heap.fingerprint(), mapped.fingerprint());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
