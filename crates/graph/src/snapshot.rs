//! `.lmcs` — the durable snapshot format, and the one module that knows
//! its layout.
//!
//! A snapshot freezes the artifacts that are expensive to recompute — the
//! CSR adjacency arrays and the exact k-core decomposition — into one
//! versioned, checksummed, little-endian file. The layout is
//! mmap-friendly by construction:
//!
//! * a fixed 64-byte header holding the magic, version, total length,
//!   content fingerprint and checksum;
//! * a section table of fixed-size records (id, element width, absolute
//!   byte offset, element count);
//! * the section payloads themselves, each starting on an 8-byte boundary
//!   and zero-padded to one.
//!
//! [`encode`] is the one writer and [`validate`] the one validation
//! ladder. Every reader runs the ladder: [`decode`] then copies each
//! section once onto the heap, [`crate::MappedSnapshot::map`] borrows the
//! sections straight out of a file mapping, and an integrity scrub runs
//! the ladder alone. So the heap and mapped readers accept exactly the
//! same files. Every rung returns `Err` rather than panicking on hostile
//! bytes.

use crate::{CsrGraph, VertexId};
use std::io::Write as _;
use std::path::Path;

/// File magic: the first four bytes of every `.lmcs` file.
pub const MAGIC: [u8; 4] = *b"LMCS";
/// Current format version. Readers reject other versions.
pub const VERSION: u32 = 1;
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 64;
/// Size of one section-table record in bytes.
pub const SECTION_RECORD_LEN: usize = 24;

/// CSR row offsets (`u64`, `n + 1` entries).
pub const SEC_OFFSETS: u32 = 1;
/// CSR adjacency targets (`u32`, `m2` entries).
pub const SEC_TARGETS: u32 = 2;
/// Exact per-vertex coreness (`u32`, `n` entries). Required.
pub const SEC_CORENESS: u32 = 3;
/// Sequential peel order (`u32`, a permutation of `0..n`). Omitted when
/// the decomposition recorded none.
pub const SEC_PEEL_ORDER: u32 = 4;

/// Header fields readable without touching the payload — what a startup
/// index scan needs to know about a file before deciding to load it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// Total file length the header promises (truncation check).
    pub file_len: u64,
    /// Content fingerprint of the stored graph ([`CsrGraph::fingerprint`]).
    pub fingerprint: u64,
    /// Vertex count.
    pub n: u64,
    /// Length of the targets array (twice the undirected edge count).
    pub m2: u64,
}

/// Where one validated section lies: `count` elements from byte
/// `offset`, a multiple of 8, and wholly inside the validated bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Span {
    pub(crate) offset: usize,
    pub(crate) count: usize,
}

/// What [`validate`] proved about a snapshot: the header facts, the
/// degeneracy and where each section the readers use lies in the bytes.
/// Only [`validate`] builds one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    pub(crate) fingerprint: u64,
    pub(crate) n: usize,
    pub(crate) m2: usize,
    /// Maximum of the coreness section; the format does not store it.
    pub(crate) degeneracy: u32,
    pub(crate) offsets: Span,
    pub(crate) targets: Span,
    pub(crate) coreness: Span,
    /// `None` when the snapshot holds no peel order.
    pub(crate) peel_order: Option<Span>,
}

/// A snapshot decoded onto the heap by [`decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decoded {
    pub graph: CsrGraph,
    pub fingerprint: u64,
    pub coreness: Vec<u32>,
    pub degeneracy: u32,
    /// Empty when the snapshot holds no peel order.
    pub peel_order: Vec<VertexId>,
}

/// Serializes `g` and its decomposition to the `.lmcs` layout, writing
/// each section straight from its array: offsets, targets, coreness and,
/// when non-empty, the peel order. The arrays are written as given; the
/// readers' ladder is what rejects a decomposition that does not fit `g`.
pub fn encode(g: &CsrGraph, coreness: &[u32], peel_order: &[VertexId]) -> Vec<u8> {
    let (offsets, targets) = g.raw_parts();
    let mut words = vec![(SEC_TARGETS, targets), (SEC_CORENESS, coreness)];
    if !peel_order.is_empty() {
        words.push((SEC_PEEL_ORDER, peel_order));
    }
    // (id, element width, payload offset, element count), in file order.
    let mut records = Vec::with_capacity(1 + words.len());
    let mut end = align8(HEADER_LEN + (1 + words.len()) * SECTION_RECORD_LEN);
    for (id, width, count) in std::iter::once((SEC_OFFSETS, 8u32, offsets.len()))
        .chain(words.iter().map(|&(id, w)| (id, 4, w.len())))
    {
        records.push((id, width, end, count));
        end = align8(end + width as usize * count);
    }

    let mut out = vec![0u8; end];
    put(&mut out, 0, MAGIC);
    put(&mut out, 4, VERSION.to_le_bytes());
    put(&mut out, 8, (end as u64).to_le_bytes());
    put(&mut out, 16, g.fingerprint().to_le_bytes());
    put(&mut out, 24, (g.num_vertices() as u64).to_le_bytes());
    put(&mut out, 32, (targets.len() as u64).to_le_bytes());
    put(&mut out, 40, (records.len() as u32).to_le_bytes());
    // out[44..48] reserved, zero. out[48..56] is the checksum slot,
    // zero while hashing. out[56..64] reserved, zero.
    for (i, &(id, width, offset, count)) in records.iter().enumerate() {
        let at = HEADER_LEN + i * SECTION_RECORD_LEN;
        put(&mut out, at, id.to_le_bytes());
        put(&mut out, at + 4, width.to_le_bytes());
        put(&mut out, at + 8, (offset as u64).to_le_bytes());
        put(&mut out, at + 16, (count as u64).to_le_bytes());
    }
    for (slot, &o) in out[records[0].2..].chunks_exact_mut(8).zip(offsets) {
        slot.copy_from_slice(&(o as u64).to_le_bytes());
    }
    for (&(_, elems), &(_, _, offset, _)) in words.iter().zip(&records[1..]) {
        for (slot, e) in out[offset..].chunks_exact_mut(4).zip(elems) {
            slot.copy_from_slice(&e.to_le_bytes());
        }
    }
    let checksum = fnv1a(&out);
    put(&mut out, 48, checksum.to_le_bytes());
    out
}

/// Reads just the fixed header: magic, version, promised length,
/// fingerprint, counts. Cheap enough to run over a whole directory at
/// boot. This is the ladder's first rung; it does **not** verify the
/// checksum.
pub fn peek(bytes: &[u8]) -> Result<SnapshotInfo, String> {
    if bytes.len() < HEADER_LEN {
        return Err(format!(
            "file too short for a snapshot header ({} bytes)",
            bytes.len()
        ));
    }
    if bytes[0..4] != MAGIC {
        return Err("bad magic (not an .lmcs file)".into());
    }
    let version = u32_at(bytes, 4);
    if version != VERSION {
        return Err(format!("unsupported snapshot version {version}"));
    }
    Ok(SnapshotInfo {
        file_len: u64_at(bytes, 8),
        fingerprint: u64_at(bytes, 16),
        n: u64_at(bytes, 24),
        m2: u64_at(bytes, 32),
    })
}

/// The validation ladder every reader runs, in order: header, exact
/// length, whole-file checksum, section table, CSR structure, content
/// fingerprint, decomposition shape. On success the bytes hold exactly
/// what [`encode`] wrote for some graph and its decomposition.
pub fn validate(bytes: &[u8]) -> Result<Layout, String> {
    // 1. Header.
    let info = peek(bytes)?;
    // 2. Exact length: truncation or padding.
    if info.file_len != bytes.len() as u64 {
        return Err(format!(
            "truncated or padded snapshot: header promises {} bytes, file has {}",
            info.file_len,
            bytes.len()
        ));
    }
    let n = usize::try_from(info.n).map_err(|_| "vertex count overflows usize")?;
    let m2 = usize::try_from(info.m2).map_err(|_| "target count overflows usize")?;

    // 3. Checksum over the whole file with its own field read as zeroes,
    // hashed in three spans so a multi-GB buffer is never copied.
    let stored_checksum = u64_at(bytes, 48);
    let computed = fnv1a_update(fnv1a_update(fnv1a(&bytes[..48]), &[0u8; 8]), &bytes[56..]);
    if computed != stored_checksum {
        return Err(format!(
            "checksum mismatch: stored {stored_checksum:016x}, computed {computed:016x}"
        ));
    }

    // 4. Section table. Every record is bounds-checked; records with ids
    // this version does not know are then skipped.
    let section_count = u32_at(bytes, 40) as usize;
    let table_end = section_count
        .checked_mul(SECTION_RECORD_LEN)
        .and_then(|len| len.checked_add(HEADER_LEN))
        .ok_or("section table overflow")?;
    if table_end > bytes.len() {
        return Err("section table extends past end of file".into());
    }
    let mut ids = Vec::with_capacity(section_count);
    let mut known: [Option<Span>; 4] = [None; 4];
    for i in 0..section_count {
        let at = HEADER_LEN + i * SECTION_RECORD_LEN;
        let id = u32_at(bytes, at);
        let width = u32_at(bytes, at + 4);
        // Values past usize fail the overflow and bounds checks below.
        let offset = usize::try_from(u64_at(bytes, at + 8)).unwrap_or(usize::MAX);
        let count = usize::try_from(u64_at(bytes, at + 16)).unwrap_or(usize::MAX);
        if width != 4 && width != 8 {
            return Err(format!("section {id}: unsupported element width {width}"));
        }
        if !offset.is_multiple_of(8) {
            return Err(format!("section {id}: payload not 8-byte aligned"));
        }
        let end = count
            .checked_mul(width as usize)
            .ok_or_else(|| format!("section {id}: length overflow"))?
            .checked_add(offset)
            .ok_or_else(|| format!("section {id}: extent overflow"))?;
        if offset < table_end || end > bytes.len() {
            return Err(format!("section {id}: payload out of bounds"));
        }
        if ids.contains(&id) {
            return Err(format!("duplicate section id {id}"));
        }
        ids.push(id);
        let want = match id {
            SEC_OFFSETS => 8,
            SEC_TARGETS | SEC_CORENESS | SEC_PEEL_ORDER => 4,
            _ => continue,
        };
        if width != want {
            return Err(format!(
                "section {id}: element width {width}, expected {want}"
            ));
        }
        known[id as usize - 1] = Some(Span { offset, count });
    }
    let [offsets, targets, coreness, peel_order] = known;

    // 5. CSR structure.
    let offsets = offsets.ok_or("snapshot has no offsets section")?;
    let targets = targets.ok_or("snapshot has no targets section")?;
    if offsets.count.checked_sub(1) != Some(n) {
        return Err(format!(
            "offsets section has {} entries for {n} vertices",
            offsets.count
        ));
    }
    if targets.count != m2 {
        return Err(format!(
            "targets section has {} entries, header says {m2}",
            targets.count
        ));
    }
    let offs = u64s(bytes, offsets);
    if offs.clone().next() != Some(0) || offs.clone().next_back() != Some(m2 as u64) {
        return Err("offsets do not span the targets array".into());
    }
    if offs.clone().zip(offs.clone().skip(1)).any(|(a, b)| a > b) {
        return Err("offsets are not monotone".into());
    }
    if u32s(bytes, targets).any(|t| t as usize >= n) {
        return Err("target vertex out of range".into());
    }

    // 6. Content fingerprint, recomputed over the stored arrays.
    let degrees = offs.clone().zip(offs.skip(1)).map(|(a, b)| b - a);
    let fp = crate::csr::content_fingerprint(n, degrees, u32s(bytes, targets));
    if fp != info.fingerprint {
        return Err(format!(
            "content fingerprint mismatch: stored {:016x}, decoded {fp:016x}",
            info.fingerprint
        ));
    }

    // 7. Decomposition: coreness per vertex, peel order a permutation.
    let coreness = coreness.ok_or("snapshot has no coreness section")?;
    if coreness.count != n {
        return Err(format!(
            "coreness section has {} entries for {n} vertices",
            coreness.count
        ));
    }
    if let Some(span) = peel_order {
        if span.count != n {
            return Err(format!(
                "peel order has {} entries for {n} vertices",
                span.count
            ));
        }
        let mut seen = vec![false; n];
        for v in u32s(bytes, span) {
            let Some(slot) = seen.get_mut(v as usize) else {
                return Err(format!("peel order names out-of-range vertex {v}"));
            };
            if std::mem::replace(slot, true) {
                return Err(format!("peel order repeats vertex {v}"));
            }
        }
    }
    Ok(Layout {
        fingerprint: info.fingerprint,
        n,
        m2,
        degeneracy: u32s(bytes, coreness).max().unwrap_or(0),
        offsets,
        targets,
        coreness,
        peel_order,
    })
}

/// The heap reader: runs [`validate`], then copies each section once into
/// owned arrays.
pub fn decode(bytes: &[u8]) -> Result<Decoded, String> {
    let layout = validate(bytes)?;
    let offsets = u64s(bytes, layout.offsets).map(|o| o as usize).collect();
    let targets = u32s(bytes, layout.targets).collect();
    Ok(Decoded {
        graph: CsrGraph::from_parts(offsets, targets),
        fingerprint: layout.fingerprint,
        coreness: u32s(bytes, layout.coreness).collect(),
        degeneracy: layout.degeneracy,
        peel_order: layout
            .peel_order
            .map_or_else(Vec::new, |span| u32s(bytes, span).collect()),
    })
}

fn align8(x: usize) -> usize {
    (x + 7) & !7
}

fn put<const W: usize>(out: &mut [u8], at: usize, field: [u8; W]) {
    out[at..at + W].copy_from_slice(&field);
}

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// The elements of a bounds-checked `u32` section.
fn u32s(bytes: &[u8], span: Span) -> impl DoubleEndedIterator<Item = u32> + Clone + '_ {
    let (elems, _) = bytes[span.offset..span.offset + 4 * span.count].as_chunks::<4>();
    elems.iter().map(|&e| u32::from_le_bytes(e))
}

/// The elements of a bounds-checked `u64` section.
fn u64s(bytes: &[u8], span: Span) -> impl DoubleEndedIterator<Item = u64> + Clone + '_ {
    let (elems, _) = bytes[span.offset..span.offset + 8 * span.count].as_chunks::<8>();
    elems.iter().map(|&e| u64::from_le_bytes(e))
}

/// FNV-1a over a byte stream: the snapshot checksum, and (through
/// `fnv1a_update`) the mixer behind [`CsrGraph::fingerprint`].
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_update(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a hash over another span (for hashing a file in
/// pieces, e.g. skipping the checksum field without copying the buffer).
#[inline]
pub(crate) fn fnv1a_update(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Durably writes `bytes` to `path`: write to a sibling temp file, fsync
/// it, rename over the target, then fsync the parent directory so the
/// rename itself survives a crash. The temp name embeds the pid *and* a
/// process-wide counter, so neither another process sharing the data dir
/// nor a concurrent thread writing the same target can clobber a
/// half-written file.
pub fn write_file_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path.file_name().ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "path has no file name")
    })?;
    let mut tmp = path.to_path_buf();
    tmp.set_file_name(format!(
        ".{}.tmp.{}.{}",
        file_name.to_string_lossy(),
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    if let Some(dir) = dir {
        // Directory fsync can fail on exotic filesystems; the data itself
        // is already durable, so don't fail the write over it.
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    /// A stand-in decomposition: the ladder checks its shape, not its
    /// values.
    fn encode_plain(g: &CsrGraph) -> Vec<u8> {
        let n = g.num_vertices() as u32;
        let coreness: Vec<u32> = (0..n).map(|v| v % 3).collect();
        let peel_order: Vec<u32> = (0..n).rev().collect();
        encode(g, &coreness, &peel_order)
    }

    /// `bytes` with `patch` applied and the checksum resealed, so only the
    /// rungs after the checksum can reject it.
    fn resealed(bytes: &[u8], patch: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut b = bytes.to_vec();
        patch(&mut b);
        b[48..56].fill(0);
        let c = fnv1a(&b);
        b[48..56].copy_from_slice(&c.to_le_bytes());
        b
    }

    /// Byte offset of table record `i`'s payload.
    fn payload_of(bytes: &[u8], i: usize) -> usize {
        u64_at(bytes, HEADER_LEN + i * SECTION_RECORD_LEN + 8) as usize
    }

    /// `bytes` with table record `i`, which holds section `id`, renumbered
    /// to an id this version does not know.
    fn renumbered(bytes: &[u8], i: usize, id: u32) -> Vec<u8> {
        resealed(bytes, |b| {
            let at = HEADER_LEN + i * SECTION_RECORD_LEN;
            assert_eq!(u32_at(b, at), id);
            put(b, at, 99u32.to_le_bytes());
        })
    }

    #[test]
    fn round_trip_preserves_graph_and_fingerprint() {
        for g in [
            gen::complete(6),
            gen::planted_clique(120, 0.05, 9, 3),
            CsrGraph::empty(0),
            CsrGraph::empty(5),
            gen::path(2),
        ] {
            let n = g.num_vertices() as u32;
            let coreness: Vec<u32> = (0..n).map(|v| v % 3).collect();
            let back = decode(&encode_plain(&g)).expect("decode");
            assert_eq!(back.graph, g);
            assert_eq!(back.fingerprint, g.fingerprint());
            assert_eq!(back.coreness, coreness);
            assert_eq!(back.degeneracy, coreness.iter().copied().max().unwrap_or(0));
            assert_eq!(back.peel_order, (0..n).rev().collect::<Vec<_>>());
        }
        // An empty peel order is omitted, and reads back empty.
        let g = gen::cycle(10);
        let bytes = encode(&g, &[2; 10], &[]);
        assert_eq!(u32_at(&bytes, 40), 3, "offsets, targets, coreness");
        let layout = validate(&bytes).unwrap();
        assert_eq!(layout.peel_order, None);
        assert_eq!(layout.degeneracy, 2);
        assert!(decode(&bytes).unwrap().peel_order.is_empty());
    }

    #[test]
    fn unknown_section_ids_are_skipped() {
        // Renumber the peel-order section to an id this version does not
        // know: the record is still bounds-checked, then ignored.
        let g = gen::planted_clique(40, 0.1, 5, 2);
        let unknown = renumbered(&encode_plain(&g), 3, SEC_PEEL_ORDER);
        let layout = validate(&unknown).expect("unknown ids are skipped");
        assert_eq!(layout.peel_order, None);
        let back = decode(&unknown).unwrap();
        assert_eq!(back.graph, g);
        assert!(back.peel_order.is_empty());
        // An unknown record is bounds-checked all the same.
        let hostile = resealed(&unknown, |b| {
            put(
                b,
                HEADER_LEN + 3 * SECTION_RECORD_LEN + 8,
                (1u64 << 40).to_le_bytes(),
            );
        });
        assert!(validate(&hostile).unwrap_err().contains("out of bounds"));
    }

    #[test]
    fn sections_are_aligned_and_header_is_fixed() {
        let g = gen::planted_clique(33, 0.1, 5, 1); // odd sizes → padding
        let bytes = encode(&g, &[0; 33], &[]);
        assert_eq!(&bytes[0..4], b"LMCS");
        assert_eq!(bytes.len() % 8, 0);
        let count = u32_at(&bytes, 40) as usize;
        for i in 0..count {
            let at = HEADER_LEN + i * SECTION_RECORD_LEN;
            assert_eq!(u64_at(&bytes, at + 8) % 8, 0, "section {i} misaligned");
        }
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = encode_plain(&gen::complete(8));
        for cut in [
            0,
            10,
            HEADER_LEN - 1,
            HEADER_LEN,
            bytes.len() - 8,
            bytes.len() - 1,
        ] {
            assert!(
                validate(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
        // Padding (extra bytes) is also rejected.
        let mut padded = bytes.clone();
        padded.extend_from_slice(&[0; 8]);
        assert!(validate(&padded).is_err());
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let bytes = encode_plain(&gen::planted_clique(40, 0.1, 5, 2));
        // Exhaustive over the whole file: header, table, payload, padding.
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x01;
            assert!(
                validate(&corrupt).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn peek_reads_header_only() {
        let g = gen::planted_clique(50, 0.1, 6, 4);
        let bytes = encode_plain(&g);
        let info = peek(&bytes[..HEADER_LEN]).unwrap();
        assert_eq!(info.fingerprint, g.fingerprint());
        assert_eq!(info.n, 50);
        assert_eq!(info.m2, 2 * g.num_edges() as u64);
        assert_eq!(info.file_len, bytes.len() as u64);
        assert!(peek(b"nope").is_err());
        let mut wrong_version = bytes.clone();
        wrong_version[4] = 99;
        assert!(peek(&wrong_version).is_err());
    }

    #[test]
    fn hostile_section_tables_do_not_panic() {
        let base = encode_plain(&gen::path(6));
        // Corrupt the table in targeted ways, re-patching the checksum so
        // only the structural validation can catch it.
        let rewrite = |f: &mut dyn FnMut(&mut Vec<u8>)| validate(&resealed(&base, f));
        // Section offset pointing past the end.
        assert!(rewrite(&mut |b| {
            let at = HEADER_LEN + 8;
            b[at..at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        })
        .is_err());
        // Element count overflowing the extent.
        assert!(rewrite(&mut |b| {
            let at = HEADER_LEN + 16;
            b[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        })
        .is_err());
        // Bogus element width.
        assert!(rewrite(&mut |b| {
            let at = HEADER_LEN + 4;
            b[at..at + 4].copy_from_slice(&3u32.to_le_bytes());
        })
        .is_err());
        // Misaligned payload offset.
        assert!(rewrite(&mut |b| {
            let at = HEADER_LEN + 8;
            let off = u64_at(b, at) + 4;
            b[at..at + 8].copy_from_slice(&off.to_le_bytes());
        })
        .is_err());
    }

    #[test]
    fn ladder_rejects_structurally_bad_sections() {
        let base = encode_plain(&gen::path(4));
        let rejects = |patch: &dyn Fn(&mut Vec<u8>), why: &str| {
            let err = validate(&resealed(&base, patch)).unwrap_err();
            assert!(err.contains(why), "{err}");
        };
        let (offsets_at, targets_at) = (payload_of(&base, 0), payload_of(&base, 1));
        // Offsets [0, 1, 2, 3, 4], not spanning the 6 targets.
        rejects(
            &|b| (0..5).for_each(|i| put(b, offsets_at + 8 * i, (i as u64).to_le_bytes())),
            "offsets do not span",
        );
        rejects(
            &|b| put(b, targets_at, 1000u32.to_le_bytes()),
            "target vertex out of range",
        );
        rejects(&|b| b[16] ^= 1, "content fingerprint mismatch");
    }

    #[test]
    fn ladder_rejects_malformed_decompositions() {
        let g = gen::complete(5);
        let coreness = [4; 5];
        let peel = [0, 1, 2, 3, 4];
        let rejects = |bytes: Vec<u8>, why: &str| {
            let err = validate(&bytes).unwrap_err();
            assert!(err.contains(why), "{err}");
        };
        // Missing coreness: its record renumbered to an unknown id.
        let no_coreness = renumbered(&encode(&g, &coreness, &peel), 2, SEC_CORENESS);
        rejects(no_coreness, "no coreness section");
        rejects(encode(&g, &[1, 2], &peel), "coreness section has 2 entries");
        rejects(
            encode(&g, &coreness, &[0, 0, 1, 2, 3]),
            "peel order repeats vertex",
        );
        rejects(
            encode(&g, &coreness, &[0, 1, 2, 3, 99]),
            "out-of-range vertex 99",
        );
        // Degeneracy is recomputed, not trusted.
        assert_eq!(
            validate(&encode(&g, &coreness, &peel)).unwrap().degeneracy,
            4
        );
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("lmcs_atomic_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.lmcs");
        write_file_atomic(&path, b"first").unwrap();
        write_file_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
