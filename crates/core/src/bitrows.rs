//! Local bit rows: the bit path of the filter cascade (Alg. 8) and the
//! degree heuristic (Alg. 5).
//!
//! Both ask one question over and over: how many of the current
//! candidates does `u` see? The scalar kernels answer it with one hash or
//! binary-search probe per candidate pair, so every filter round and every
//! greedy step over a dense candidate set costs up to |cand|² probes. Here
//! the candidates' induced adjacency is built once, as a [`BitMatrix`] in
//! local index space (position in the sorted candidate list), and the
//! question becomes `popcount(row_u & alive)`: |cand|/64 word operations.
//!
//! The build goes through a direct-address map over the candidates' id
//! window, so it costs one load per neighbour-list entry inside that
//! window. The map is grown to the widest window seen and cleared entry by
//! entry after each build, so no build pays an O(n) term.
//!
//! Rows pay for themselves only past a candidate count and, in the
//! filter, past a slack between that count and θ (below either, the
//! scalar early exits win; the crossover sweep is in `docs/perf.md`), and
//! only while the matrix and the map window stay small enough for a
//! worker to keep. [`filter_rows_pay`] and [`heuristic_rows_pay`] are the
//! gates. They read the input only, never a `Config` knob: `early_exit`
//! and `second_exit` keep their meaning inside the scalar kernels.

use lazymc_graph::VertexId;
use lazymc_solver::bitset::BitMatrix;

/// Scratch arenas grown past this by an outlier neighbourhood (a huge
/// candidate set means O(|cand|²/8)-byte matrices) are dropped on return
/// instead of pinned in their static pool for the process lifetime:
/// long-lived daemons must not pay one pathological graph's high-water
/// mark forever.
pub(crate) const MAX_RETAINED_ARENA_BYTES: usize = 8 << 20;

/// Widest id window (last − first candidate id + 1) the map may cover:
/// 2 MiB of `u16` slots, a quarter of the retained-arena budget.
const MAX_MAP_SPAN: usize = 1 << 20;

/// Largest candidate set given rows: a 2 MiB matrix, a quarter of the
/// retained-arena budget.
pub(crate) const MAX_ROWS: usize = 4096;

/// Fewest filter candidates (after filter 1) worth building rows for.
const MIN_FILTER_ROWS: usize = 8;

/// Least slack |n1| − θ worth building rows for. With less, the scalar
/// bool kernel fails a candidate after a few misses, and the probes it
/// makes cost less than the row build.
const MIN_FILTER_SLACK: usize = 4;

/// Fewest first-step candidates of a greedy descent worth building rows
/// for.
const MIN_HEURISTIC_ROWS: usize = 8;

/// Whether `members` (sorted) fits the map window and the matrix cap.
fn rows_fit(members: &[VertexId]) -> bool {
    match (members.first(), members.last()) {
        (Some(&first), Some(&last)) => {
            members.len() <= MAX_ROWS && ((last - first) as usize) < MAX_MAP_SPAN
        }
        _ => false,
    }
}

/// Gate of the filter cascade: rows over `n1` (filter 1's survivors)
/// against the induced-degree threshold `theta` (`None`: no threshold).
///
/// Per-neighbourhood timings of both paths on the same inputs put the
/// crossover at these two bounds (`docs/perf.md`): below
/// [`MIN_FILTER_ROWS`] candidates or [`MIN_FILTER_SLACK`] slack the
/// probes win; above both the rows win, from ~1.05× on sparse graphs to
/// 5× on 200-candidate dense neighbourhoods.
pub(crate) fn filter_rows_pay(n1: &[VertexId], theta: Option<usize>) -> bool {
    let slack = n1.len().saturating_sub(theta.unwrap_or(0));
    n1.len() >= MIN_FILTER_ROWS && slack >= MIN_FILTER_SLACK && rows_fit(n1)
}

/// Gate of one greedy descent of the degree heuristic, over its first
/// candidate set.
pub(crate) fn heuristic_rows_pay(cand: &[VertexId]) -> bool {
    cand.len() >= MIN_HEURISTIC_ROWS && rows_fit(cand)
}

/// The direct-address map behind [`RowBuilder::build`]: slot `w − first`
/// holds `1 + local index` of member `w`, and 0 everywhere else between
/// builds. A set has at most [`MAX_ROWS`] members, so a slot fits a `u16`.
#[derive(Default)]
pub(crate) struct RowBuilder {
    slot: Vec<u16>,
}

const _: () = assert!(MAX_ROWS <= u16::MAX as usize);

impl RowBuilder {
    /// Heap bytes retained (pool retention bound).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.slot.capacity() * 2
    }

    /// Writes into `rows` the adjacency of the sorted, distinct `members`
    /// in local index space: `rows[i][j]` is set iff `members[j]` is in
    /// `nbrs(members[i])`. Every list `nbrs` returns must be sorted and
    /// symmetric on `members` (each pair is read once, from the list of
    /// its smaller id). The caller must have checked [`rows_fit`] through
    /// one of the gates.
    pub(crate) fn build<'a>(
        &mut self,
        members: &[VertexId],
        nbrs: impl Fn(VertexId) -> &'a [VertexId],
        rows: &mut BitMatrix,
    ) {
        debug_assert!(members.windows(2).all(|w| w[0] < w[1]));
        let nn = members.len();
        rows.reset(nn);
        let (Some(&first), Some(&last)) = (members.first(), members.last()) else {
            return;
        };
        let span = (last - first) as usize + 1;
        debug_assert!(span <= MAX_MAP_SPAN && nn <= MAX_ROWS);
        if self.slot.len() < span {
            self.slot.resize(span, 0);
        }
        for (i, &u) in members.iter().enumerate() {
            self.slot[(u - first) as usize] = i as u16 + 1;
        }
        for (i, &u) in members.iter().enumerate() {
            // Only the upper triangle: neighbours in (u, last].
            let list = nbrs(u);
            let lo = list.partition_point(|&w| w <= u);
            let hi = lo + list[lo..].partition_point(|&w| w <= last);
            let window = &list[lo..hi];
            let later = &members[i + 1..];
            if window.len() > 8 * later.len() {
                // A hub's list: probe the few later members instead of
                // walking the whole window.
                for (j, &m) in later.iter().enumerate() {
                    if window.binary_search(&m).is_ok() {
                        rows.add_edge(i, i + 1 + j);
                    }
                }
            } else {
                for &w in window {
                    let j = self.slot[(w - first) as usize];
                    if j != 0 {
                        rows.add_edge(i, j as usize - 1);
                    }
                }
            }
        }
        for &u in members {
            self.slot[(u - first) as usize] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazymc_graph::gen;

    #[test]
    fn rows_match_the_graph_and_leave_the_map_clean() {
        let g = gen::gnp(300, 0.2, 5);
        let mut b = RowBuilder::default();
        let mut rows = BitMatrix::new(3); // wrong-size scratch gets reshaped
        for members in [
            (0..300).step_by(3).collect::<Vec<u32>>(),
            vec![7, 8, 250, 299],
            (100..164).collect(),
        ] {
            b.build(&members, |u| g.neighbors(u), &mut rows);
            assert_eq!(rows.len(), members.len());
            for (i, &u) in members.iter().enumerate() {
                for (j, &w) in members.iter().enumerate() {
                    assert_eq!(rows.has_edge(i, j), g.has_edge(u, w), "({u},{w})");
                }
            }
            assert!(b.slot.iter().all(|&s| s == 0), "map must be cleared");
        }
    }

    #[test]
    fn hub_rows_take_the_probe_branch() {
        // Vertex 0 sees everyone; the members are few and far apart, so
        // 0's window is far longer than 8× the later members.
        let g = gen::star(2000);
        let mut b = RowBuilder::default();
        let mut rows = BitMatrix::new(0);
        let members = [0u32, 500, 1999];
        b.build(&members, |u| g.neighbors(u), &mut rows);
        assert!(rows.has_edge(0, 1) && rows.has_edge(0, 2) && !rows.has_edge(1, 2));
    }

    #[test]
    fn gates_refuse_small_tight_wide_and_huge_sets() {
        let small: Vec<u32> = (0..MIN_FILTER_ROWS as u32 - 1).collect();
        assert!(!filter_rows_pay(&small, None));
        let ok: Vec<u32> = (0..MIN_FILTER_ROWS as u32).collect();
        assert!(filter_rows_pay(&ok, Some(0)) && filter_rows_pay(&ok, None));
        let tight = Some(MIN_FILTER_ROWS - MIN_FILTER_SLACK + 1);
        assert!(!filter_rows_pay(&ok, tight));
        let mut wide = ok.clone();
        *wide.last_mut().unwrap() = MAX_MAP_SPAN as u32;
        assert!(!filter_rows_pay(&wide, None));
        let huge: Vec<u32> = (0..MAX_ROWS as u32 + 1).collect();
        assert!(!heuristic_rows_pay(&huge));
        assert!(!heuristic_rows_pay(&[]));
    }
}
