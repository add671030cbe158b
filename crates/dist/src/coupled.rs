//! Cross-rank **coupled** exact recovery.
//!
//! When two ranks lose stencil-adjacent pages in the same iteration, neither
//! side can run its exact reconstruction alone: each lost row's relation
//! reads the other rank's lost (blank) entries, so the round-1 recovery
//! exchange flags them invalid and the purely local planner blank-accepts
//! the pages. But the *union* of the lost rows is still a perfectly good
//! coupled system — `A_UU x_U = b_U − g_U − Σ_{c∉U} A_Uc x_c` over the
//! cross-boundary union `U` — as long as every entry the union's stencil
//! reads from outside survives somewhere.
//!
//! This module turns that observation into a deterministic neighbourhood
//! protocol on top of the two wave collectives of [`RankComm`]:
//!
//! 1. each rank computes its **candidate set** (the transitive closure of
//!    its recoverable pages that touch invalid remote entries, see
//!    [`cross_rank_candidates`]) and offers the candidates' rows (with their
//!    surviving rhs values) plus the surviving stencil **support** outside
//!    the candidate rows;
//! 2. the offers merge *down* the rank chain
//!    ([`RankComm::coupled_gather_wave`]), so the lowest-ranked owner of
//!    every coupled component ends up seeing the whole union;
//! 3. that rank — and only that rank, because any other owner still sees an
//!    invalid outside column where the union continues below it — runs the
//!    coupled solve per connected component and ships the reconstructed
//!    entries back *up* ([`RankComm::coupled_result_wave`]);
//! 4. every rank installs the returned entries into its full-length view and
//!    reports which of its own pages are now exactly reconstructed.
//!
//! The solve/skip rule needs no extra arbitration round: a component is
//! solved exactly once because the downward wave gives full visibility only
//! to the component's lowest row-owning rank, while every other owner hits
//! an invalid outside column (the part of the union it cannot see) and
//! skips. Components that genuinely depend on unrecoverable data — e.g. a
//! related-loss page whose residual is also gone — fail the validity check
//! on *every* rank and flow to the honest blank-accept path.

use std::collections::HashMap;
use std::ops::Range;

use feir_recovery::engine::cross_rank_candidates;
use feir_sparse::blocking::BlockPartition;
use feir_sparse::CsrMatrix;

use crate::comm::{CommError, RankComm};
use crate::rank_loop::global_rows;

/// What one coupled cross-rank round achieved on this rank.
#[derive(Debug, Default)]
pub(crate) struct CoupledOutcome {
    /// Sorted local pages whose every row now holds an exact coupled
    /// reconstruction, already installed into the target view.
    pub recovered_pages: Vec<usize>,
    /// Rows and support entries this rank received from its peers across
    /// the two waves (a traffic statistic, not a correctness input).
    pub values_gathered: usize,
}

/// Runs one coupled cross-rank recovery round (both waves — every rank must
/// call this exactly once per faulty iteration, with empty inputs when its
/// own losses do not couple across a boundary).
///
/// `rec` are this rank's recoverable pages of the target vector (related
/// losses already excluded), `own_blank` the sorted global rows this rank
/// scrubbed this round (its round-1 unserviceable set) and `invalid` the
/// sorted fetched indices whose owner flagged them invalid. `rhs_local` is
/// the surviving relation value at each own row (the residual for iterate
/// recovery, the retained matvec image for direction recovery), aligned to
/// `own`. `solve` is the relation's coupled reconstruction over sorted
/// global rows, rhs values at those rows and a full-length view — it sees
/// the gathered union, so it also covers rows owned by other ranks.
#[allow(clippy::too_many_arguments)]
pub(crate) fn coupled_cross_rank_recovery<F>(
    comm: &RankComm,
    a: &CsrMatrix,
    pages: &BlockPartition,
    own: &Range<usize>,
    rec: &[usize],
    own_blank: &[usize],
    invalid: &[usize],
    rhs_local: &[f64],
    target_full: &mut [f64],
    solve: F,
) -> Result<CoupledOutcome, CommError>
where
    F: Fn(&[usize], &[f64], &[f64]) -> Option<Vec<f64>>,
{
    let cand = cross_rank_candidates(a, pages, own.start, rec, invalid);

    // This rank's offer: the candidate rows with their surviving rhs values,
    // plus every stencil column the candidate rows read outside the
    // candidate row set, valued from the (halo- and round-1-patched) view
    // and flagged valid unless this rank blanked it or its owner did.
    let offer_rows: Vec<(usize, f64)> = cand
        .rows
        .iter()
        .map(|&r| (r, rhs_local[r - own.start]))
        .collect();
    let mut offer_support: Vec<(usize, f64, bool)> = Vec::new();
    for &r in &cand.rows {
        let (cols, _) = a.row(r);
        for &c in cols {
            let c = c as usize;
            if cand.rows.binary_search(&c).is_ok() {
                continue;
            }
            let valid = if own.contains(&c) {
                own_blank.binary_search(&c).is_err()
            } else {
                invalid.binary_search(&c).is_err()
            };
            offer_support.push((c, target_full[c], valid));
        }
    }
    offer_support.sort_by_key(|&(c, _, _)| c);
    offer_support.dedup_by_key(|&mut (c, _, _)| c);
    let own_offer = offer_rows.len() + offer_support.len();

    // Downward wave: after it, `union_rows` holds every coupled lost row
    // this rank can see (its own plus everything offered above it), sorted.
    let (union_rows, support) = comm.coupled_gather_wave(&offer_rows, &offer_support)?;
    let values_gathered = (union_rows.len() + support.len()).saturating_sub(own_offer);
    let row_ids: Vec<usize> = union_rows.iter().map(|&(r, _)| r).collect();

    // Connected components of the union under stencil adjacency (the full
    // operator is replicated on every rank, so adjacency of remote rows is
    // computable locally).
    let mut uf: Vec<usize> = (0..row_ids.len()).collect();
    for (i, &r) in row_ids.iter().enumerate() {
        let (cols, _) = a.row(r);
        for &c in cols {
            if let Ok(j) = row_ids.binary_search(&(c as usize)) {
                let (ri, rj) = (find(&mut uf, i), find(&mut uf, j));
                if ri != rj {
                    uf[ri.max(rj)] = ri.min(rj);
                }
            }
        }
    }
    let mut components: HashMap<usize, Vec<usize>> = HashMap::new();
    for i in 0..row_ids.len() {
        components.entry(find(&mut uf, i)).or_default().push(i);
    }
    let mut roots: Vec<usize> = components.keys().copied().collect();
    roots.sort_unstable();

    // Shared solve view: the full-length target patched with every valid
    // support value outside the union (values for this rank's own healthy
    // range are already authoritative in `target_full` and bitwise-equal to
    // any peer's re-offer of them).
    let is_union = |c: usize| row_ids.binary_search(&c).is_ok();
    let support_valid = |c: usize| -> bool {
        if own.contains(&c) {
            own_blank.binary_search(&c).is_err()
        } else {
            match support.binary_search_by_key(&c, |&(col, _, _)| col) {
                Ok(k) => support[k].2,
                // A column nobody offered and nobody validated: treat as
                // invalid rather than solve on unknown provenance.
                Err(_) => false,
            }
        }
    };
    let mut view = target_full.to_vec();
    for &(c, v, ok) in &support {
        if ok && !own.contains(&c) && !is_union(c) {
            view[c] = v;
        }
    }

    // Solve the components this rank is responsible for: it must own at
    // least one row, and every stencil column the component reads outside
    // the union must be valid — which holds only on the component's lowest
    // row-owning rank (any other owner sees the union's continuation below
    // it as an invalid column and skips, so no component is solved twice).
    let mut solved: Vec<(usize, f64)> = Vec::new();
    for root in roots {
        let comp = &components[&root];
        let comp_rows: Vec<usize> = comp.iter().map(|&i| row_ids[i]).collect();
        if !comp_rows.iter().any(|r| own.contains(r)) {
            continue;
        }
        let solvable = comp_rows.iter().all(|&r| {
            let (cols, _) = a.row(r);
            cols.iter()
                .map(|&c| c as usize)
                .all(|c| is_union(c) || support_valid(c))
        });
        if !solvable {
            continue;
        }
        let rhs_at: Vec<f64> = comp.iter().map(|&i| union_rows[i].1).collect();
        if let Some(values) = solve(&comp_rows, &rhs_at, &view) {
            solved.extend(comp_rows.iter().copied().zip(values));
        }
    }

    // Upward wave: every solved entry reaches every rank that offered (or
    // neighbours) part of its component; install what came back.
    let final_entries = comm.coupled_result_wave(&solved)?;
    for &(r, v) in &final_entries {
        target_full[r] = v;
    }
    let mut recovered_pages = Vec::new();
    for &p in &cand.pages {
        let all_valued = global_rows(own.start, pages, p).all(|r| {
            final_entries
                .binary_search_by_key(&r, |&(row, _)| row)
                .is_ok()
        });
        if all_valued {
            recovered_pages.push(p);
        }
    }
    Ok(CoupledOutcome {
        recovered_pages,
        values_gathered,
    })
}

/// Union-find root with path halving.
fn find(uf: &mut [usize], mut i: usize) -> usize {
    while uf[i] != i {
        uf[i] = uf[uf[i]];
        i = uf[i];
    }
    i
}
