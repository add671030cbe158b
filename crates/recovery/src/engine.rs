//! The solver-agnostic **resilient iteration engine**.
//!
//! The paper's central observation (Sections 2–3, 5) is that exact forward
//! recovery is a property of the *algebraic relations between an iteration's
//! protected vectors*, not of one particular solver: the same reconstruction
//! machinery applies to CG and to preconditioned CG, and (Table 1) to
//! BiCGStab and GMRES. This module is that observation as code. It owns the
//! pieces every resilient solver shares —
//!
//! * the [`RecoverableIteration`] trait describing one solver's algebraic
//!   relations per protected vector (how an iterate, residual, direction,
//!   matvec-product or preconditioned-residual page is reconstructed from
//!   the surviving state);
//! * the coupled-row **page reconstruction** every relations type shares:
//!   one solve of a lost row set's diagonal block `A_RR`, generalising the
//!   shared-memory [`BlockRecovery`](crate::BlockRecovery) solves to
//!   arbitrary simultaneous row sets, with the sparse [`EnvelopeCholesky`]
//!   factor of each distinct block built once per solve and kept in the
//!   relations object;
//! * **scrub-point fault materialisation** ([`scrub_blank`], [`mark_page`])
//!   — the page-granular analogue of SIGBUS-on-touch — and the related-data
//!   partitioning of simultaneous losses ([`split_related`]);
//! * the read-only **recovery planning** types ([`StatePlan`],
//!   [`plan_state_fixes`], [`RecoveryPlan`]) that let reconstruction run
//!   concurrently with a reduction without aliasing the pages being reduced
//!   over; [`plan_state_fixes`] plans any (vector, image) pair from its two
//!   relations, so the distributed loops repair `x`/`g` and the merged
//!   loop's `p`/`s` with the same planner.
//!
//! Both resilient solvers instantiate this layer: the shared-memory
//! [`ResilientCg`](crate::ResilientCg) consumes the planning machinery
//! directly, and `feir-dist`'s per-rank loop is generic over
//! [`RecoverableIteration`] — plain CG is [`CgRelations`], block-Jacobi PCG
//! is [`PcgRelations`], and every future solver variant is another ~100-line
//! trait implementation instead of another monolithic solver copy.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::{Arc, Mutex, PoisonError};

use feir_pagemem::{AccessOutcome, PageRegistry, VectorId};
use feir_sparse::blocking::BlockPartition;
use feir_sparse::envelope::row_position;
use feir_sparse::{CsrMatrix, EnvelopeCholesky, LocalBlockJacobi};

use crate::report::{RecoveryAction, RecoveryEvent};

// ----- the solver-relation trait -------------------------------------------

/// The algebraic relations of one solver's iteration, per protected vector.
///
/// An implementation answers exactly one question for each protected vector:
/// *given the surviving state, how is a lost set of rows reconstructed
/// exactly?* The engine (and the per-rank distributed loop built on it)
/// handles everything else — scrub points, related-data conflicts, policy
/// dispatch, split-phase scheduling, cross-rank fetches — so a new solver variant
/// only describes its relations:
///
/// * **iterate** `x`: solve `A_RR x_R = b_R − g_R − Σ_{c∉R} A_Rc x_c`
///   over the lost rows `R` ([`RecoverableIteration::reconstruct_iterate`]);
/// * **direction** `d(t−1)`: solve `A_RR d_R = q_R − Σ_{c∉R} A_Rc d_c`
///   against the *retained* snapshot of `d` that produced `q`
///   ([`RecoverableIteration::reconstruct_direction`]);
/// * **residual** `g`: recompute `g_R = b_R − Σ_c A_Rc x_c` from the
///   repaired iterate ([`RecoverableIteration::residual_rows`]);
/// * **preconditioned residual** `z` (PCG only): re-solve the rank-local
///   coupled system `M_pp z_p = g_p` with the preconditioner's factorized
///   diagonal block ([`RecoverableIteration::reapply_preconditioner`]);
/// * the **Lossy Restart** interpolation drops the residual term
///   ([`RecoverableIteration::lossy_iterate_rows`], Theorems 1–3).
///
/// All row indices are global; callers working on a rank-local page space
/// offset them first (see [`plan_state_fixes`]).
pub trait RecoverableIteration: Sync {
    /// Short solver name for reports and tables (e.g. `"cg"`, `"pcg"`).
    fn solver_name(&self) -> &'static str;

    /// True when the iteration carries a preconditioned residual `z` whose
    /// pages are protected in addition to `x`, `g`, `d`, `q`.
    fn preconditioned(&self) -> bool {
        false
    }

    /// Exact reconstruction of the lost (sorted, global) `rows` of the
    /// iterate from the residual at those rows and the surviving iterate
    /// view; `None` when the coupled system is unsolvable (the paper
    /// "simply ignores" those losses).
    fn reconstruct_iterate(
        &self,
        rows: &[usize],
        g_at_rows: &[f64],
        x_view: &[f64],
    ) -> Option<Vec<f64>>;

    /// Exact reconstruction of the lost `rows` of the search direction from
    /// the retained matvec product `q = A·d` and the retained view of `d`
    /// (the values that produced `q`, *not* freshly fetched ones).
    fn reconstruct_direction(
        &self,
        rows: &[usize],
        q_at_rows: &[f64],
        d_view: &[f64],
    ) -> Option<Vec<f64>>;

    /// Recomputes the residual over `rows` from a repaired iterate view:
    /// `out[k] = b[rows.start + k] − Σ_c A_{rows.start+k,c} x_view[c]`.
    fn residual_rows(&self, rows: Range<usize>, x_view: &[f64], out: &mut [f64]);

    /// Lossy (residual-free) interpolation of lost iterate rows — the
    /// distributed form of the Lossy Restart step.
    fn lossy_iterate_rows(&self, rows: &[usize], x_view: &[f64]) -> Option<Vec<f64>>;

    /// Re-solves the preconditioner's coupled block system `M_pp z_p = g_p`
    /// for one local page, writing the reconstructed preconditioned
    /// residual; returns `false` for solvers without a `z` vector.
    fn reapply_preconditioner(&self, page: usize, g_page: &[f64], z_page: &mut [f64]) -> bool {
        let _ = (page, g_page, z_page);
        false
    }
}

/// The algebraic relations of plain CG (Listing 1): protected vectors
/// `x, g, d, q` tied together by `g = b − A·x` and `q = A·d`.
///
/// Every exact repair and lossy interpolation solves the lost rows'
/// diagonal block `A_RR`; the relations keep the factor of each distinct
/// block they have solved, so one object serves one rank's solve and
/// factors each distinct block content once.
#[derive(Debug)]
pub struct CgRelations<'a> {
    a: &'a CsrMatrix,
    b: &'a [f64],
    factors: FactorStore,
}

impl<'a> CgRelations<'a> {
    /// Binds the relations to one linear system.
    ///
    /// # Panics
    /// Panics if the matrix is not square or `b` has the wrong length.
    pub fn new(a: &'a CsrMatrix, b: &'a [f64]) -> Self {
        assert_eq!(
            a.rows(),
            a.cols(),
            "recovery relations need a square matrix"
        );
        assert_eq!(a.rows(), b.len(), "rhs length mismatch");
        Self {
            a,
            b,
            factors: FactorStore::default(),
        }
    }

    /// The bound operator.
    pub fn matrix(&self) -> &'a CsrMatrix {
        self.a
    }

    /// The bound right-hand side.
    pub fn rhs(&self) -> &'a [f64] {
        self.b
    }

    /// Solves `A_RR · y = constant(i, rows[i]) − Σ_{c∉R} A_{rows[i],c} ·
    /// outside[c]` over the sorted global rows `R`: the relation's own term
    /// less what the surviving entries contribute. One pass over the rows
    /// builds both the right-hand side and the block's content key; the
    /// block is factored only when no earlier row set of this solve had the
    /// same content. `None` when the block is not positive definite.
    fn solve_coupled(
        &self,
        rows: &[usize],
        outside: &[f64],
        constant: impl Fn(usize, usize) -> f64,
    ) -> Option<Vec<f64>> {
        let _probe = feir_trace::span(feir_trace::Phase::RecoveryReconstruct);
        let position = row_position(rows);
        let row_len = self.a.nnz().div_ceil(self.a.rows().max(1));
        let mut key = Vec::with_capacity(rows.len() * (2 * row_len + 1));
        let mut rhs = Vec::with_capacity(rows.len());
        for (i, &r) in rows.iter().enumerate() {
            let (cols, vals) = self.a.row(r);
            let mut acc = constant(i, r);
            for (&c, v) in cols.iter().zip(vals) {
                let c = c as usize;
                match position(c) {
                    Some(j) => key.extend([j as u64, v.to_bits()]),
                    None => acc -= v * outside[c],
                }
            }
            key.push(ROW_END);
            rhs.push(acc);
        }
        let factor = self.factors.factor(self.a, rows, key)?;
        Some(factor.solve(&rhs))
    }
}

impl RecoverableIteration for CgRelations<'_> {
    fn solver_name(&self) -> &'static str {
        "cg"
    }

    fn reconstruct_iterate(
        &self,
        rows: &[usize],
        g_at_rows: &[f64],
        x_view: &[f64],
    ) -> Option<Vec<f64>> {
        // A_RR x_R = b_R − g_R − Σ_{c∉R} A_Rc x_c; on a distributed machine
        // the remote columns of `x_view` come from the recovery exchange.
        debug_assert_eq!(g_at_rows.len(), rows.len());
        self.solve_coupled(rows, x_view, |i, r| self.b[r] - g_at_rows[i])
    }

    fn reconstruct_direction(
        &self,
        rows: &[usize],
        q_at_rows: &[f64],
        d_view: &[f64],
    ) -> Option<Vec<f64>> {
        // A_RR d_R = q_R − Σ_{c∉R} A_Rc d_c, against the retained halo
        // snapshot: a neighbour may already have advanced its direction.
        debug_assert_eq!(q_at_rows.len(), rows.len());
        self.solve_coupled(rows, d_view, |i, _| q_at_rows[i])
    }

    fn residual_rows(&self, rows: Range<usize>, x_view: &[f64], out: &mut [f64]) {
        // Recovery matvec over a page-sized row block: the CSR row kernel,
        // bitwise-identical to either format, and far cheaper than
        // converting the page to SELL first.
        self.a.spmv_rows(rows.start, rows.end, x_view, out);
        for (k, r) in rows.enumerate() {
            out[k] = self.b[r] - out[k];
        }
    }

    fn lossy_iterate_rows(&self, rows: &[usize], x_view: &[f64]) -> Option<Vec<f64>> {
        // A_RR x_R = b_R − Σ_{c∉R} A_Rc x_c, the block-Jacobi step of the
        // Lossy Restart interpolation (Theorems 1–3).
        self.solve_coupled(rows, x_view, |_, r| self.b[r])
    }
}

/// The algebraic relations of block-Jacobi PCG (Listing 5): everything CG
/// has, plus the preconditioned residual `z` solved per page from
/// `M_pp z_p = g_p` — whose factorization the recovery reuses, which is
/// exactly why the paper picks page-sized Jacobi blocks (Section 5.1).
#[derive(Debug)]
pub struct PcgRelations<'a> {
    cg: CgRelations<'a>,
    jacobi: &'a LocalBlockJacobi,
}

impl<'a> PcgRelations<'a> {
    /// Binds the CG relations plus a (rank-)local block-Jacobi
    /// preconditioner.
    pub fn new(a: &'a CsrMatrix, b: &'a [f64], jacobi: &'a LocalBlockJacobi) -> Self {
        Self {
            cg: CgRelations::new(a, b),
            jacobi,
        }
    }

    /// The bound preconditioner.
    pub fn preconditioner(&self) -> &'a LocalBlockJacobi {
        self.jacobi
    }
}

impl RecoverableIteration for PcgRelations<'_> {
    fn solver_name(&self) -> &'static str {
        "pcg"
    }

    fn preconditioned(&self) -> bool {
        true
    }

    fn reconstruct_iterate(
        &self,
        rows: &[usize],
        g_at_rows: &[f64],
        x_view: &[f64],
    ) -> Option<Vec<f64>> {
        self.cg.reconstruct_iterate(rows, g_at_rows, x_view)
    }

    fn reconstruct_direction(
        &self,
        rows: &[usize],
        q_at_rows: &[f64],
        d_view: &[f64],
    ) -> Option<Vec<f64>> {
        self.cg.reconstruct_direction(rows, q_at_rows, d_view)
    }

    fn residual_rows(&self, rows: Range<usize>, x_view: &[f64], out: &mut [f64]) {
        self.cg.residual_rows(rows, x_view, out);
    }

    fn lossy_iterate_rows(&self, rows: &[usize], x_view: &[f64]) -> Option<Vec<f64>> {
        self.cg.lossy_iterate_rows(rows, x_view)
    }

    fn reapply_preconditioner(&self, page: usize, g_page: &[f64], z_page: &mut [f64]) -> bool {
        self.jacobi.apply_block(page, g_page, z_page);
        true
    }
}

/// The algebraic relations of **merged-reduction** (pipelined
/// Chronopoulos–Gear) CG.
///
/// The merged iteration renames the protected vectors — the recurrence
/// residual is `r`, the direction `p`, its matvec image `s = A·p` — but the
/// *relations between them are exactly CG's*: `r = b − A·x` recovers lost
/// iterate and residual pages, and `s = A·p` recovers directions, so this is
/// a delegating wrapper whose only job is to give the engine the merged
/// solver's identity. The merged iteration's *companion* vectors (`w = A·r`
/// and the `z = A·s` recurrence helper) are deliberately **not** protected:
/// each is a pure function of a protected vector and is recomputable from it
/// on demand, so protecting them would spend scrub traffic on redundant
/// state.
#[derive(Debug)]
pub struct MergedCgRelations<'a> {
    cg: CgRelations<'a>,
}

impl<'a> MergedCgRelations<'a> {
    /// Binds the relations to one linear system (see [`CgRelations::new`]).
    pub fn new(a: &'a CsrMatrix, b: &'a [f64]) -> Self {
        Self {
            cg: CgRelations::new(a, b),
        }
    }
}

impl RecoverableIteration for MergedCgRelations<'_> {
    fn solver_name(&self) -> &'static str {
        "cg_merged"
    }

    fn reconstruct_iterate(
        &self,
        rows: &[usize],
        g_at_rows: &[f64],
        x_view: &[f64],
    ) -> Option<Vec<f64>> {
        self.cg.reconstruct_iterate(rows, g_at_rows, x_view)
    }

    fn reconstruct_direction(
        &self,
        rows: &[usize],
        q_at_rows: &[f64],
        d_view: &[f64],
    ) -> Option<Vec<f64>> {
        self.cg.reconstruct_direction(rows, q_at_rows, d_view)
    }

    fn residual_rows(&self, rows: Range<usize>, x_view: &[f64], out: &mut [f64]) {
        self.cg.residual_rows(rows, x_view, out);
    }

    fn lossy_iterate_rows(&self, rows: &[usize], x_view: &[f64]) -> Option<Vec<f64>> {
        self.cg.lossy_iterate_rows(rows, x_view)
    }
}

/// The algebraic relations of merged-reduction block-Jacobi PCG: everything
/// [`MergedCgRelations`] has, plus the preconditioned residual `u = M⁻¹·r`
/// re-solved per page from the factorized diagonal block (the same relation
/// classic PCG uses for `z`). The merged iteration's `q = M⁻¹·s` and
/// `z = A·q` companions stay unprotected for the same reason as `w`.
#[derive(Debug)]
pub struct MergedPcgRelations<'a> {
    pcg: PcgRelations<'a>,
}

impl<'a> MergedPcgRelations<'a> {
    /// Binds the CG relations plus a (rank-)local block-Jacobi
    /// preconditioner (see [`PcgRelations::new`]).
    pub fn new(a: &'a CsrMatrix, b: &'a [f64], jacobi: &'a LocalBlockJacobi) -> Self {
        Self {
            pcg: PcgRelations::new(a, b, jacobi),
        }
    }
}

impl RecoverableIteration for MergedPcgRelations<'_> {
    fn solver_name(&self) -> &'static str {
        "pcg_merged"
    }

    fn preconditioned(&self) -> bool {
        true
    }

    fn reconstruct_iterate(
        &self,
        rows: &[usize],
        g_at_rows: &[f64],
        x_view: &[f64],
    ) -> Option<Vec<f64>> {
        self.pcg.reconstruct_iterate(rows, g_at_rows, x_view)
    }

    fn reconstruct_direction(
        &self,
        rows: &[usize],
        q_at_rows: &[f64],
        d_view: &[f64],
    ) -> Option<Vec<f64>> {
        self.pcg.reconstruct_direction(rows, q_at_rows, d_view)
    }

    fn residual_rows(&self, rows: Range<usize>, x_view: &[f64], out: &mut [f64]) {
        self.pcg.residual_rows(rows, x_view, out);
    }

    fn lossy_iterate_rows(&self, rows: &[usize], x_view: &[f64]) -> Option<Vec<f64>> {
        self.pcg.lossy_iterate_rows(rows, x_view)
    }

    fn reapply_preconditioner(&self, page: usize, g_page: &[f64], z_page: &mut [f64]) -> bool {
        self.pcg.reapply_preconditioner(page, g_page, z_page)
    }
}

// ----- the page-factor store ----------------------------------------------

/// Ends one row of a block key; no local column index reaches it.
const ROW_END: u64 = u64::MAX;

/// A cheap multiplicative hash of a block key, four lanes wide so that the
/// multiplies of neighbouring words overlap.
fn mix(key: &[u64]) -> u64 {
    let step = |h: u64, w: u64| (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
    let chunks = key.chunks_exact(4);
    let tail = chunks.remainder();
    let mut lanes = [0u64; 4];
    for chunk in chunks {
        for (h, &w) in lanes.iter_mut().zip(chunk) {
            *h = step(*h, w);
        }
    }
    lanes.iter().chain(tail).fold(0, |h, &w| step(h, w))
}

/// The [`EnvelopeCholesky`] factor of every distinct diagonal block `A_RR`
/// one relations object has solved, keyed by the block's content.
///
/// A key lists, row by row in local order, each stored entry `(r, c)` with
/// `c ∈ R` as its local column and value bits, each row closed by
/// [`ROW_END`]. The factor is a pure function of that local submatrix (the
/// ordering breaks ties by local index), so equal keys give bit-equal
/// factors and solves: all 16 page blocks of a `poisson_2d(128)` rank share
/// one entry. A block that is not positive definite is remembered as
/// `None`. Keys are hashed by a cheap multiplicative mix and compared in
/// full on a hit. The store lives as long as its relations object — one
/// rank's solve — with no cap; a fault-free solve leaves it empty. (Under
/// PCG the rank's [`LocalBlockJacobi`] holds the same factor of a whole
/// page; the store builds its own on the page's first loss.)
#[derive(Default)]
struct FactorStore {
    /// Blocks by their key's [`mix`].
    buckets: Mutex<HashMap<u64, Bucket>>,
}

/// The `(key, factor)` pairs of the blocks whose keys share one hash; the
/// factor is `None` for a block that is not positive definite.
type Bucket = Vec<(Vec<u64>, Option<Arc<EnvelopeCholesky>>)>;

impl FactorStore {
    /// The factor of the block `key` describes, factoring `rows` of `a` on
    /// the block's first use.
    fn factor(
        &self,
        a: &CsrMatrix,
        rows: &[usize],
        key: Vec<u64>,
    ) -> Option<Arc<EnvelopeCholesky>> {
        let hash = mix(&key);
        // Every update pushes a finished entry, so a panic under the lock
        // (in `factorize`) leaves at most an empty bucket: a poisoned store
        // is still valid.
        let mut buckets = self.buckets.lock().unwrap_or_else(PoisonError::into_inner);
        let bucket = buckets.entry(hash).or_default();
        if let Some((_, factor)) = bucket.iter().find(|(k, _)| *k == key) {
            return factor.clone();
        }
        let factor = EnvelopeCholesky::factorize(a, rows).ok().map(Arc::new);
        bucket.push((key, factor.clone()));
        factor
    }

    /// Number of distinct blocks stored.
    pub(crate) fn len(&self) -> usize {
        let buckets = self.buckets.lock().unwrap_or_else(PoisonError::into_inner);
        buckets.values().map(Vec::len).sum()
    }
}

impl fmt::Debug for FactorStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FactorStore")
            .field("blocks", &self.len())
            .finish()
    }
}

// ----- scrub-point fault materialisation -----------------------------------

/// Touches every page of a protected vector at a scrub point; lost pages are
/// blanked (the fresh `mmap` of the paper's signal handler) and returned.
pub fn scrub_blank(
    registry: &PageRegistry,
    id: VectorId,
    pages: &BlockPartition,
    data: &mut [f64],
) -> Vec<usize> {
    let mut lost = Vec::new();
    for p in 0..pages.num_blocks() {
        match registry.on_access(id, p) {
            AccessOutcome::Ok => {}
            AccessOutcome::FaultDiscovered | AccessOutcome::AlreadyLost => {
                for v in &mut data[pages.range(p)] {
                    *v = 0.0;
                }
                lost.push(p);
            }
        }
    }
    lost
}

/// Marks a page healthy again after its data has been reconstructed (or
/// blank-accepted).
pub fn mark_page(registry: &PageRegistry, id: VectorId, page: usize) {
    let _ = registry.on_access(id, page);
    registry.mark_recovered(id, page);
}

/// Partitions two vectors' simultaneous page losses into the pages
/// recoverable on each side and the *related-data* conflicts (pages lost in
/// both, which no relation can reconstruct — the paper "simply ignores"
/// them). Returns `(recoverable_a, recoverable_b, conflicted)`.
pub fn split_related(lost_a: &[usize], lost_b: &[usize]) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
    let conflicted: Vec<usize> = lost_a
        .iter()
        .copied()
        .filter(|p| lost_b.contains(p))
        .collect();
    let rec_a = lost_a
        .iter()
        .copied()
        .filter(|p| !conflicted.contains(p))
        .collect();
    let rec_b = lost_b
        .iter()
        .copied()
        .filter(|p| !conflicted.contains(p))
        .collect();
    (rec_a, rec_b, conflicted)
}

// ----- read-only recovery planning -----------------------------------------

/// Reconstructions planned for the lost pages of a protected vector and of
/// its image, computed from a read-only snapshot and installed afterwards,
/// so the installation can run inside a split-phase reduction's wait.
#[derive(Debug, Default)]
pub struct StatePlan {
    /// Local vector pages the coupled solve covered.
    pub pages: Vec<usize>,
    /// Global rows of the coupled exact solve over `pages`.
    pub rows: Vec<usize>,
    /// The reconstructed vector values for `rows` (`None` when the coupled
    /// system was unsolvable).
    pub values: Option<Vec<f64>>,
    /// Local vector pages abandoned because their stencil depends on
    /// known-blank entries (related losses, locally or across ranks).
    pub ignored: Vec<usize>,
    /// Recomputed image pages `(local page, values)`.
    pub image_fixes: Vec<(usize, Vec<f64>)>,
    /// Local image pages abandoned because their recomputation would read
    /// blank vector data.
    pub image_ignored: Vec<usize>,
    /// Local vector pages already reconstructed by the cross-rank coupled
    /// exchange before planning; the plan leaves their (installed) values
    /// alone and image recomputation may read them.
    pub cross_rank: Vec<usize>,
}

/// One scrub point's losses of a protected vector and of its image — the
/// vector one relation ties it to, as `g = b − A·x` ties the iterate to the
/// residual and `q = A·d` the direction to its matvec image — as input to
/// [`plan_state_fixes`].
#[derive(Debug, Clone, Copy)]
pub struct StateLosses<'a> {
    /// Lost vector pages with a surviving image (related-loss conflicts
    /// already excluded, e.g. via [`split_related`]).
    pub rec: &'a [usize],
    /// Lost image pages with a surviving vector.
    pub rec_image: &'a [usize],
    /// Sorted global vector entries known to hold blank garbage that no
    /// relation can repair this round: the rows of related-loss pages (the
    /// vector and its image lost together) plus remote entries whose owning
    /// rank flagged them invalid in the recovery exchange. Pages whose
    /// relation reaches into this set are *abandoned* (blank-accepted)
    /// instead of being reconstructed from garbage and reported as exact —
    /// the cross-rank form of the paper's "related data" case.
    pub blank: &'a [usize],
    /// Sorted local pages (a subset of `rec`) the cross-rank coupled
    /// exchange already reconstructed and installed into the vector view;
    /// planning must neither re-solve nor abandon them.
    pub cross_rank: &'a [usize],
}

/// Plans the exact recovery of the lost vector/image pages in `losses` from
/// the patched snapshot; never mutates solver state. `pages` partitions the
/// local slice `image`, whose global rows start at `row_offset`; `view` is
/// the full-length (halo-patched) vector view and `stencil` the operator
/// whose rows decide which entries each relation reads. `reconstruct`
/// solves lost vector rows from the image at those rows and the view (e.g.
/// [`RecoverableIteration::reconstruct_iterate`]); `recompute` rebuilds a
/// row range of the image from the repaired view (e.g.
/// [`RecoverableIteration::residual_rows`]).
#[allow(clippy::too_many_arguments)]
pub fn plan_state_fixes(
    stencil: &CsrMatrix,
    pages: &BlockPartition,
    row_offset: usize,
    losses: StateLosses<'_>,
    image: &[f64],
    view: &[f64],
    reconstruct: impl Fn(&[usize], &[f64], &[f64]) -> Option<Vec<f64>>,
    recompute: impl Fn(Range<usize>, &[f64], &mut [f64]),
) -> StatePlan {
    let _probe = feir_trace::span(feir_trace::Phase::RecoveryPlan);
    let StateLosses {
        rec,
        rec_image,
        blank,
        cross_rank,
    } = losses;
    debug_assert!(blank.windows(2).all(|w| w[0] < w[1]), "blank sorted");
    debug_assert!(
        cross_rank.windows(2).all(|w| w[0] < w[1]),
        "cross_rank sorted"
    );
    let page_rows = |p: usize| {
        let local = pages.range(p);
        row_offset + local.start..row_offset + local.end
    };
    let touches_blank = |p: usize, blanks: &[usize]| {
        page_rows(p).any(|r| {
            let (cols, _) = stencil.row(r);
            cols.iter()
                .any(|&c| blanks.binary_search(&(c as usize)).is_ok())
        })
    };
    // Vector pages whose stencil reads known-blank entries cannot be
    // reconstructed exactly; the rest go into one coupled solve. The taint
    // is transitive — an abandoned page's own rows stay blank, poisoning
    // any neighbour page whose stencil reads them — so the partition runs
    // to a fixpoint before anything is solved.
    // Pages the coupled cross-rank exchange already repaired hold exact,
    // installed values in `view`: they leave the local partition entirely
    // and simply count as healthy stencil input for everything below.
    let cross_handled: Vec<usize> = rec
        .iter()
        .copied()
        .filter(|p| cross_rank.binary_search(p).is_ok())
        .collect();
    let mut blanks: Vec<usize> = blank.to_vec();
    let mut solved: Vec<usize> = rec
        .iter()
        .copied()
        .filter(|p| cross_rank.binary_search(p).is_err())
        .collect();
    let mut ignored: Vec<usize> = Vec::new();
    loop {
        let (keep, dropped): (Vec<usize>, Vec<usize>) =
            solved.iter().partition(|&&p| !touches_blank(p, &blanks));
        solved = keep;
        if dropped.is_empty() {
            break;
        }
        blanks.extend(dropped.iter().flat_map(|&p| page_rows(p)));
        blanks.sort_unstable();
        blanks.dedup();
        ignored.extend(dropped);
    }
    ignored.sort_unstable();
    let rows: Vec<usize> = solved.iter().flat_map(|&p| page_rows(p)).collect();
    let image_at_rows: Vec<f64> = solved
        .iter()
        .flat_map(|&p| pages.range(p))
        .map(|i| image[i])
        .collect();
    let values = if rows.is_empty() {
        None
    } else {
        reconstruct(&rows, &image_at_rows, view)
    };
    // Recompute lost image pages from the repaired vector — but only where
    // every vector entry the stencil reads is trustworthy (repaired,
    // surviving, or validly fetched). `blanks` already carries the
    // abandoned pages' rows. The view is copied only when an image page has
    // to read repaired rows; every other plan borrows it.
    let mut repaired = Cow::Borrowed(view);
    if !rec_image.is_empty() {
        if let Some(values) = &values {
            let patched = repaired.to_mut();
            for (&r, v) in rows.iter().zip(values) {
                patched[r] = *v;
            }
        }
    }
    let mut blank_for_image = blanks;
    if values.is_none() {
        blank_for_image.extend(rows.iter().copied());
        blank_for_image.sort_unstable();
        blank_for_image.dedup();
    }
    let mut image_fixes = Vec::with_capacity(rec_image.len());
    let mut image_ignored = Vec::new();
    for &p in rec_image {
        if touches_blank(p, &blank_for_image) {
            image_ignored.push(p);
            continue;
        }
        let rows = page_rows(p);
        let mut out = vec![0.0; rows.len()];
        recompute(rows, &repaired, &mut out);
        image_fixes.push((p, out));
    }
    StatePlan {
        pages: solved,
        rows,
        values,
        ignored,
        image_fixes,
        image_ignored,
        cross_rank: cross_handled,
    }
}

/// The subset of one rank's recoverable pages whose exact reconstruction is
/// coupled *across a rank boundary*: their stencil reads remote entries the
/// owning rank flagged invalid, so no purely local solve can repair them.
/// [`cross_rank_candidates`] computes it; the distributed coupled-recovery
/// exchange consumes it.
#[derive(Debug, Default, Clone)]
pub struct CrossRankPartition {
    /// Sorted local page ids in the cross-rank coupled set.
    pub pages: Vec<usize>,
    /// Sorted global rows covered by `pages`.
    pub rows: Vec<usize>,
}

impl CrossRankPartition {
    /// True when no page needs the cross-rank exchange.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }
}

/// Partitions the recoverable pages `rec` into the cross-rank coupled set:
/// the transitive closure, under stencil adjacency within `rec`, of the
/// pages whose stencil touches an `invalid` remote entry (sorted global
/// indices a neighbouring rank reported blank). Because the operator is
/// symmetric, any page another rank's coupled union demands from this rank
/// also touches one of that rank's invalid rows, so both sides compute
/// consistent candidate sets from their own loss views.
pub fn cross_rank_candidates(
    stencil: &CsrMatrix,
    pages: &BlockPartition,
    row_offset: usize,
    rec: &[usize],
    invalid: &[usize],
) -> CrossRankPartition {
    if rec.is_empty() || invalid.is_empty() {
        return CrossRankPartition::default();
    }
    debug_assert!(invalid.windows(2).all(|w| w[0] < w[1]), "invalid sorted");
    let page_rows = |p: usize| {
        let local = pages.range(p);
        row_offset + local.start..row_offset + local.end
    };
    let touches = |p: usize, set: &[usize]| {
        page_rows(p).any(|r| {
            let (cols, _) = stencil.row(r);
            cols.iter()
                .any(|&c| set.binary_search(&(c as usize)).is_ok())
        })
    };
    let (mut selected, mut remaining): (Vec<usize>, Vec<usize>) =
        rec.iter().partition(|&&p| touches(p, invalid));
    if selected.is_empty() {
        return CrossRankPartition::default();
    }
    loop {
        let mut sel_rows: Vec<usize> = selected.iter().flat_map(|&p| page_rows(p)).collect();
        sel_rows.sort_unstable();
        let (more, rest): (Vec<usize>, Vec<usize>) =
            remaining.iter().partition(|&&p| touches(p, &sel_rows));
        if more.is_empty() {
            break;
        }
        selected.extend(more);
        remaining = rest;
    }
    selected.sort_unstable();
    let mut rows: Vec<usize> = selected.iter().flat_map(|&p| page_rows(p)).collect();
    rows.sort_unstable();
    CrossRankPartition {
        pages: selected,
        rows,
    }
}

/// Planned page reconstructions produced by a recovery task. The plan is
/// computed from read-only state and applied afterwards so that the AFEIR
/// overlap never aliases the pages being reduced over.
#[derive(Debug, Default)]
pub struct RecoveryPlan {
    /// Pages with reconstructed data: `(vector, skip bit, page, values)`.
    pub(crate) fixes: Vec<(VectorId, u32, usize, Vec<f64>)>,
    /// Pages that could not be recovered (blank-accepted, "ignored").
    pub(crate) abandoned: Vec<(VectorId, u32, usize)>,
    /// Recovery events for the report.
    pub(crate) events: Vec<RecoveryEvent>,
}

impl RecoveryPlan {
    /// Records a reconstructed page.
    pub fn fix(&mut self, id: VectorId, bit: u32, page: usize, values: Vec<f64>) {
        self.fixes.push((id, bit, page, values));
    }

    /// Records a page the engine gives up on (blank-accepted).
    pub fn give_up(&mut self, id: VectorId, bit: u32, page: usize) {
        self.abandoned.push((id, bit, page));
    }

    /// Records a recovery event for the run report.
    pub fn push(&mut self, iteration: usize, vector: &str, page: usize, action: RecoveryAction) {
        self.events.push(RecoveryEvent {
            iteration,
            vector: vector.to_string(),
            page,
            action,
        });
    }

    /// Pages of `id` the plan abandoned.
    pub fn abandoned_pages(&self, id: VectorId) -> Vec<usize> {
        self.abandoned
            .iter()
            .filter(|(aid, _, _)| *aid == id)
            .map(|(_, _, p)| *p)
            .collect()
    }
}

/// For each output page of the row-blocked SpMV, the set of input pages its
/// rows reference (used to decide whether a matvec page can be produced when
/// some direction pages are lost).
pub fn compute_touched_pages(a: &CsrMatrix, partition: BlockPartition) -> Vec<Vec<usize>> {
    let mut touched = Vec::with_capacity(partition.num_blocks());
    for (_, range) in partition.iter() {
        let mut pages: Vec<usize> = Vec::new();
        for r in range {
            let (cols, _) = a.row(r);
            for &c in cols {
                let p = partition.block_of(c as usize);
                if !pages.contains(&p) {
                    pages.push(p);
                }
            }
        }
        pages.sort_unstable();
        touched.push(pages);
    }
    touched
}

#[cfg(test)]
mod tests {
    use super::*;
    use feir_sparse::generators::{manufactured_rhs, poisson_2d, poisson_3d_27pt};

    #[test]
    fn cg_relations_reconstruct_iterate_rows_exactly() {
        let a = poisson_2d(12);
        let n = a.rows();
        let (x_true, b) = manufactured_rhs(&a, 5);
        // Consistent (x, g) pair away from the solution.
        let x: Vec<f64> = x_true.iter().map(|v| 0.9 * v + 0.02).collect();
        let mut g = vec![0.0; n];
        a.spmv(&x, &mut g);
        for (gi, bi) in g.iter_mut().zip(&b) {
            *gi = bi - *gi;
        }
        let relations = CgRelations::new(&a, &b);
        let rows: Vec<usize> = (24..48).collect();
        let g_at_rows: Vec<f64> = rows.iter().map(|&r| g[r]).collect();
        let mut damaged = x.clone();
        for &r in &rows {
            damaged[r] = 0.0;
        }
        let recovered = relations
            .reconstruct_iterate(&rows, &g_at_rows, &damaged)
            .expect("coupled solve failed");
        for (k, &r) in rows.iter().enumerate() {
            assert!((recovered[k] - x[r]).abs() < 1e-8, "row {r}");
        }
    }

    #[test]
    fn pcg_relations_reapply_the_preconditioner_block() {
        let a = poisson_2d(8);
        let n = a.rows();
        let (_, b) = manufactured_rhs(&a, 2);
        let jacobi = LocalBlockJacobi::new(&a, 0..n, 16).unwrap();
        let relations = PcgRelations::new(&a, &b, &jacobi);
        assert!(relations.preconditioned());
        assert_eq!(relations.solver_name(), "pcg");
        let g: Vec<f64> = (0..n).map(|i| (i as f64 * 0.13).sin()).collect();
        let mut z_full = vec![0.0; n];
        jacobi.apply(&g, &mut z_full);
        // "Recover" page 1 by re-solving its coupled block system.
        let range = jacobi.partition().range(1);
        let mut z_page = vec![0.0; range.len()];
        assert!(relations.reapply_preconditioner(1, &g[range.clone()], &mut z_page));
        assert_eq!(&z_full[range], z_page.as_slice());
    }

    #[test]
    fn planned_residual_pages_read_the_repaired_iterate() {
        let a = poisson_2d(12);
        let n = a.rows();
        let (x_true, b) = manufactured_rhs(&a, 9);
        let x: Vec<f64> = x_true.iter().map(|v| 0.8 * v - 0.01).collect();
        let relations = CgRelations::new(&a, &b);
        let mut g = vec![0.0; n];
        relations.residual_rows(0..n, &x, &mut g);
        // Iterate page 1 and residual page 2 are lost together; page 2's
        // stencil reads page 1's rows, so its fix is right only if it is
        // computed from the repaired view.
        let pages = BlockPartition::new(n, 24);
        let (mut x_lost, mut g_lost) = (x.clone(), g.clone());
        x_lost[pages.range(1)].fill(0.0);
        g_lost[pages.range(2)].fill(0.0);
        let plan = |rec_image: &[usize]| {
            let losses = StateLosses {
                rec: &[1],
                rec_image,
                blank: &[],
                cross_rank: &[],
            };
            plan_state_fixes(
                &a,
                &pages,
                0,
                losses,
                &g_lost,
                &x_lost,
                |rows, g_at, view| relations.reconstruct_iterate(rows, g_at, view),
                |rows, view, out| relations.residual_rows(rows, view, out),
            )
        };
        let both = plan(&[2]);
        let x_values = both.values.as_ref().expect("page 1 is solvable");
        for (v, r) in x_values.iter().zip(pages.range(1)) {
            assert!((v - x[r]).abs() < 1e-10, "x row {r}");
        }
        let (page, fix) = &both.image_fixes[0];
        assert_eq!((*page, both.image_fixes.len()), (2, 1));
        for (v, r) in fix.iter().zip(pages.range(2)) {
            assert!((v - g[r]).abs() < 1e-10, "g row {r}");
        }
        // Without a residual loss the plan borrows the iterate and repairs
        // the same page to the same bits.
        let alone = plan(&[]);
        assert!(alone.image_fixes.is_empty());
        assert_eq!(alone.values.as_ref(), Some(x_values));
    }

    #[test]
    fn split_related_isolates_conflicts() {
        let (rec_a, rec_b, conflicted) = split_related(&[0, 2, 5], &[2, 3]);
        assert_eq!(rec_a, vec![0, 5]);
        assert_eq!(rec_b, vec![3]);
        assert_eq!(conflicted, vec![2]);
    }

    #[test]
    fn cg_and_pcg_relations_agree_on_shared_kernels() {
        let a = poisson_2d(10);
        let n = a.rows();
        let (x_true, b) = manufactured_rhs(&a, 7);
        let jacobi = LocalBlockJacobi::new(&a, 0..n, 25).unwrap();
        let cg = CgRelations::new(&a, &b);
        let pcg = PcgRelations::new(&a, &b, &jacobi);
        let d = x_true.clone();
        let mut q = vec![0.0; n];
        a.spmv(&d, &mut q);
        let rows: Vec<usize> = (10..30).collect();
        let q_at_rows: Vec<f64> = rows.iter().map(|&r| q[r]).collect();
        let mut damaged = d.clone();
        for &r in &rows {
            damaged[r] = f64::NAN;
        }
        let from_cg = cg
            .reconstruct_direction(&rows, &q_at_rows, &damaged)
            .unwrap();
        let from_pcg = pcg
            .reconstruct_direction(&rows, &q_at_rows, &damaged)
            .unwrap();
        for (u, v) in from_cg.iter().zip(&from_pcg) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
        for (k, &r) in rows.iter().enumerate() {
            assert!((from_cg[k] - d[r]).abs() < 1e-8, "row {r}");
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `A_RR d_R = q_R − Σ_{c∉R} A_Rc d_c` solved from a fresh factor, the
    /// right-hand side built by a binary search per entry.
    fn fresh_direction(a: &CsrMatrix, rows: &[usize], q_at_rows: &[f64], view: &[f64]) -> Vec<f64> {
        let rhs: Vec<f64> = rows
            .iter()
            .zip(q_at_rows)
            .map(|(&r, &q)| {
                let (cols, vals) = a.row(r);
                let mut acc = q;
                for (&c, v) in cols.iter().zip(vals) {
                    if rows.binary_search(&(c as usize)).is_err() {
                        acc -= v * view[c as usize];
                    }
                }
                acc
            })
            .collect();
        EnvelopeCholesky::factorize(a, rows).unwrap().solve(&rhs)
    }

    /// `a` with the diagonal entry of `row` replaced by `f` of itself.
    fn with_diagonal(a: &CsrMatrix, row: usize, f: impl Fn(f64) -> f64) -> CsrMatrix {
        let mut values = a.values().to_vec();
        let diagonal = u32::try_from(row).unwrap();
        let at = a.row_ptr()[row] + a.row(row).0.binary_search(&diagonal).unwrap();
        values[at] = f(values[at]);
        CsrMatrix::from_raw(
            a.rows(),
            a.cols(),
            a.row_ptr().to_vec(),
            a.col_idx().to_vec(),
            values,
        )
        .unwrap()
    }

    #[test]
    fn factor_store_serves_solves_bit_equal_to_a_fresh_factor() {
        for a in [poisson_2d(128), poisson_3d_27pt(16)] {
            let n = a.rows();
            let (_, b) = manufactured_rhs(&a, 3);
            let relations = CgRelations::new(&a, &b);
            let view: Vec<f64> = (0..n).map(|i| (i as f64 * 0.21).sin()).collect();
            let pages = BlockPartition::new(n, 512);
            for (p, range) in pages.iter() {
                let rows: Vec<usize> = range.collect();
                let q_at_rows: Vec<f64> = rows.iter().map(|&r| (r as f64 * 0.07).cos()).collect();
                let expected = bits(&fresh_direction(&a, &rows, &q_at_rows, &view));
                // Twice: the first call may factor, the second is served.
                for _ in 0..2 {
                    let got = relations
                        .reconstruct_direction(&rows, &q_at_rows, &view)
                        .unwrap();
                    assert_eq!(bits(&got), expected, "page {p}");
                }
            }
        }
    }

    #[test]
    fn factor_store_factors_the_pages_of_one_rank_once() {
        let a = poisson_2d(128);
        let (x, b) = manufactured_rhs(&a, 4);
        let relations = CgRelations::new(&a, &b);
        assert_eq!(relations.factors.len(), 0, "nothing is factored up front");
        let mut g = vec![0.0; a.rows()];
        relations.residual_rows(0..a.rows(), &x, &mut g);
        // Rank 0 of two: rows 0..8192, sixteen 512-row pages.
        for page in 0..16 {
            let rows: Vec<usize> = (page * 512..(page + 1) * 512).collect();
            let g_at_rows: Vec<f64> = rows.iter().map(|&r| g[r]).collect();
            let got = relations
                .reconstruct_iterate(&rows, &g_at_rows, &x)
                .unwrap();
            for (v, &r) in got.iter().zip(&rows) {
                assert!((v - x[r]).abs() < 1e-8, "row {r}");
            }
            assert!(relations.lossy_iterate_rows(&rows, &x).is_some());
        }
        assert_eq!(relations.factors.len(), 1);
        // The union across the rank boundary is a block of its own.
        let union: Vec<usize> = (7680..8704).collect();
        let g_at_rows: Vec<f64> = union.iter().map(|&r| g[r]).collect();
        assert!(relations
            .reconstruct_iterate(&union, &g_at_rows, &x)
            .is_some());
        assert_eq!(relations.factors.len(), 2);
    }

    #[test]
    fn factor_store_gives_a_block_one_value_bit_away_its_own_entry() {
        // Pages of 64 rows (two grid rows) of a 32-wide grid: identical
        // blocks, except that page 1 has its lowest diagonal mantissa bit
        // flipped and page 2 a negated diagonal — the sign bit — which makes
        // it indefinite.
        let a = poisson_2d(32);
        let a = with_diagonal(&a, 64 + 5, |v| f64::from_bits(v.to_bits() ^ 1));
        let a = with_diagonal(&a, 128 + 7, |v| -v);
        let n = a.rows();
        let b = vec![1.0; n];
        let relations = CgRelations::new(&a, &b);
        let view: Vec<f64> = (0..n).map(|i| 1.0 / (i + 1) as f64).collect();
        let page = |p: usize| (p * 64..(p + 1) * 64).collect::<Vec<usize>>();
        let q_at_rows = vec![0.5; 64];
        for _ in 0..2 {
            for p in [0, 1, 3] {
                let rows = page(p);
                let got = relations
                    .reconstruct_direction(&rows, &q_at_rows, &view)
                    .unwrap();
                assert_eq!(
                    bits(&got),
                    bits(&fresh_direction(&a, &rows, &q_at_rows, &view))
                );
            }
            assert!(relations
                .reconstruct_direction(&page(2), &q_at_rows, &view)
                .is_none());
            assert!(relations.lossy_iterate_rows(&page(2), &view).is_none());
        }
        // Pages 0 and 3 share one entry; page 1 and the indefinite page 2
        // were each factored once.
        assert_eq!(relations.factors.len(), 3);
    }
}
