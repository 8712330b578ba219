//! Traversal-based matrix-free MATVEC (§3.5) and matrix assembly (§3.6).
//!
//! No element-to-node map exists anywhere. Instead, top-down traversal of
//! the (incomplete) octree buckets nodal data into child subtrees — a node
//! incident on several children is *duplicated* — until each leaf holds its
//! elemental nodes contiguously; the elemental operator is applied there;
//! the bottom-up phase accumulates duplicated contributions back to single
//! values. Hanging lattice slots are interpolated from ancestor buckets on
//! the way down and transposed (scattered with the same weights) on the way
//! up, so the operator equals the assembled constrained matrix to machine
//! precision.
//!
//! The traversal only descends into subtrees containing *owned* elements, so
//! incomplete trees and distributed ownership need no special treatment —
//! the property the paper calls "gracefully handles incomplete octrees".
//!
//! # Execution model (DESIGN.md §6d)
//!
//! The engine buckets the root's nodes into its children serially; each
//! non-empty child subtree holding owned elements is one SFC-contiguous
//! **task**. Tasks then run either inline or fork-joined across scoped
//! worker threads (`CARVE_PAR_THREADS` / `available_parallelism` via
//! [`crate::par::thread_budget`]) by one fork-join runner shared by the
//! MATVEC, its overlapped interior/boundary passes and assembly. A task owns
//! its subtree's bucket stack; writes that would land in the shared root
//! bucket (hanging-node scatters) are appended to a per-task **scatter
//! log** and replayed on the main thread at join time, in SFC task order,
//! interleaved with the bottom-up bucket merges exactly where the
//! sequential traversal would have performed them. Every floating-point
//! accumulation therefore happens in the *same order for any thread count*:
//! results are bitwise identical to the sequential engine by construction.
//!
//! Three entry points drive the engine: [`traversal_matvec`],
//! [`traversal_assemble`] and, for distributed meshes,
//! [`crate::DistMesh::matvec_par`], which overlaps the ghost exchange with
//! the interior tasks. Each takes a kernel *factory*, so every worker
//! builds its own kernel. All bucket vectors come from a caller-held
//! [`TraversalWorkspace`] arena that pools them across recursion levels
//! *and* across repeated calls (Krylov iterations). Observability:
//! `par_workers`, `arena_alloc` and `arena_reuse` counters join the
//! existing `leaves` / `node_copies`.
//!
//! # Leaf plans (DESIGN.md §6j)
//!
//! Which bucket slot each leaf lattice slot reads, and how each hanging
//! slot interpolates from ancestor buckets, depends on the mesh only. The
//! first MATVEC on a mesh records it once — one coords-only descent, a
//! merge-sweep per leaf, ancestor binary searches for hanging chains —
//! into a `LeafPlan` owned by the mesh's [`NodeSet`] (phase
//! `matvec/plan`: `plans`, `hanging_slots`, `program_terms`, `plan_bytes`,
//! `slot_sweep_hits`). Every MATVEC then gathers and scatters through the
//! plan alone: a leaf-bucket slot is a direct read/accumulate, a hanging
//! program replays `v += w · eval(term)` / `scatter(term, w · val)` in the
//! recursion order of the per-call resolution it replaces, so every
//! floating-point operation — and the output — is bitwise unchanged.
//!
//! # Batched leaf panels (DESIGN.md §6h)
//!
//! Inside a task, maximal runs of SFC-consecutive same-level sibling leaves
//! are processed as one structure-of-arrays panel (`npe × batch`, element
//! lane innermost) when the elemental kernel opts in via
//! [`LeafKernel::supports_panels`]: the per-leaf plan gathers are hoisted
//! ahead of the batched apply
//! (they only read `vin`, which the traversal never writes), the kernel
//! runs once over the whole panel, and the per-leaf scatters + bottom-up
//! merges then replay in exact SFC element order — scatter of leaf `b+1`
//! can hit the same parent slots as the merge of leaf `b` through hanging
//! sources on shared faces, so the two stay interleaved per element exactly
//! like the scalar path. The result is therefore bitwise identical to the
//! scalar engine for any batch width (`CARVE_BATCH_WIDTH`), thread count,
//! and chaos schedule. Counters: `batched_leaves`, `batch_count`,
//! `scalar_leaves`.
//!
//! # Assembly sinks (DESIGN.md §6i)
//!
//! The assembly traversal buckets global ids instead of values and emits
//! `W^T K_e W` entries into an [`AssemblySink`]: a [`CooBuilder`] for the
//! sparse matrix, or a `Vec<f64>` that keeps only its diagonal — all a
//! Jacobi preconditioner for the matrix-free operator needs.

use crate::nodes::{elem_node_coord, lattice_index, lattice_linear, nodes_per_elem, NodeSet};
use crate::par;
use carve_la::CooBuilder;
use carve_la::DenseMatrix;
use carve_sfc::morton::point_cmp_morton;
use carve_sfc::{Curve, Octant, SfcState};
use std::borrow::BorrowMut;
use std::ops::Range;
use std::sync::{Arc, Mutex};

// Phase taxonomy (see DESIGN.md §"Observability"): the traversal engine
// reports through `carve-obs` under its caller's root scope — `"matvec"`
// for the operator apply, `"assemble"` for sparse assembly — with nested
// `top_down` / `leaf` / `bottom_up` phases (the Figs. 7–10 breakdown).
// Worker threads record detached and are re-absorbed into the calling
// rank's recorder (`carve_obs::absorb_rebased`), so per-rank snapshots
// stay complete under fork-join execution.

/// Scatter-log entry `(bucket depth | row, bucket slot | col, value)`:
/// the matvec path logs deferred root-bucket accumulations, the
/// assembly path reuses the same buffer for global `(row, col, val)`
/// entries bound for its [`AssemblySink`]. Either way the log is replayed
/// in SFC task order.
type OutLog = Vec<(u32, u32, f64)>;

/// One level's worth of bucketed nodal data along the current traversal
/// path. `parent_slot[i]` is the index of entry `i` in the parent bucket.
#[derive(Default)]
struct Bucket<const DIM: usize> {
    coords: Vec<[u64; DIM]>,
    parent_slot: Vec<u32>,
    ids: Vec<u32>,
    vin: Vec<f64>,
    vout: Vec<f64>,
}

impl<const DIM: usize> Bucket<DIM> {
    fn find(&self, coord: &[u64; DIM]) -> Option<usize> {
        self.coords
            .binary_search_by(|c| point_cmp_morton(c, coord))
            .ok()
    }

    /// Empties contents, keeping capacity (arena reuse).
    fn clear(&mut self) {
        self.coords.clear();
        self.parent_slot.clear();
        self.ids.clear();
        self.vin.clear();
        self.vout.clear();
    }
}

// --- Workspace arena ------------------------------------------------------

/// Per-worker scratch: a bucket free-list for the task-local recursion, the
/// SoA panel buffers, and the depth stack container itself. Lives
/// in the workspace so repeated matvecs (Krylov iterations) allocate
/// nothing after warm-up.
#[derive(Default)]
struct WorkerScratch<const DIM: usize> {
    buckets: Vec<Bucket<DIM>>,
    own_stack: Vec<Bucket<DIM>>,
    /// Per-sibling buckets of the leaf run currently processed as a panel.
    panel_stack: Vec<Bucket<DIM>>,
    /// SoA panel values (`npe × batch`, element lane innermost) — pooled
    /// here so steady-state batched applies allocate nothing.
    panel_in: Vec<f64>,
    panel_out: Vec<f64>,
    alloc: u64,
    reuse: u64,
}

/// Default panel width: one full sibling group in 3D (`2^3`), the natural
/// maximum run length the traversal produces.
const DEFAULT_BATCH_WIDTH: usize = 8;

/// Reusable arena for the traversal engine: bucket vectors, scatter logs,
/// and per-worker scratch pooled across recursion levels and across calls.
/// Also carries the intra-rank thread budget (`CARVE_PAR_THREADS` env or
/// `available_parallelism`) and the maximum leaf-panel width. Results never
/// depend on either — see the module docs — only wall-clock does.
pub struct TraversalWorkspace<const DIM: usize> {
    threads: usize,
    /// Maximum leaf-panel width (`CARVE_BATCH_WIDTH` env, default 8;
    /// 1 disables batching). Results never depend on it.
    batch_width: usize,
    bucket_pool: Vec<Bucket<DIM>>,
    log_pool: Vec<OutLog>,
    scratch: Vec<WorkerScratch<DIM>>,
    /// Persistent ghosted copy of the matvec input vector, so repeated
    /// applies (Krylov iterations) never re-allocate the `x.to_vec()` they
    /// used to. Borrowed via [`Self::take_ghost_scratch`].
    ghost_scratch: Vec<f64>,
    /// Pooled per-task interior/boundary flags for the overlapped matvec.
    task_flags: Vec<bool>,
    alloc: u64,
    reuse: u64,
}

impl<const DIM: usize> TraversalWorkspace<DIM> {
    /// Workspace with the environment-resolved thread budget.
    pub fn new() -> Self {
        let batch = std::env::var("CARVE_BATCH_WIDTH")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&w| w >= 1)
            .unwrap_or(DEFAULT_BATCH_WIDTH)
            .min(64);
        Self::with_threads(par::thread_budget()).with_batch_width(batch)
    }

    /// Workspace with an explicit thread count (tests; avoids racy env
    /// mutation under a parallel test harness).
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            batch_width: DEFAULT_BATCH_WIDTH,
            bucket_pool: Vec::new(),
            log_pool: Vec::new(),
            scratch: Vec::new(),
            ghost_scratch: Vec::new(),
            task_flags: Vec::new(),
            alloc: 0,
            reuse: 0,
        }
    }

    /// Sets the maximum leaf-panel width (builder style; tests). `1`
    /// disables batching entirely.
    pub fn with_batch_width(mut self, width: usize) -> Self {
        self.batch_width = width.max(1);
        self
    }

    /// The maximum leaf-panel width batch-capable kernels will see.
    pub fn batch_width(&self) -> usize {
        self.batch_width
    }

    /// Takes the persistent ghosted-input scratch vector (empty the first
    /// time, with its grown capacity afterwards). Callers fill it with the
    /// ghosted input, run the traversal, and hand it back via
    /// [`Self::restore_ghost_scratch`] so the next apply is allocation-free.
    pub fn take_ghost_scratch(&mut self) -> Vec<f64> {
        std::mem::take(&mut self.ghost_scratch)
    }

    /// Returns the ghosted-input scratch for reuse by the next apply.
    pub fn restore_ghost_scratch(&mut self, v: Vec<f64>) {
        self.ghost_scratch = v;
    }

    /// The intra-rank thread budget this workspace will fork up to.
    pub fn threads(&self) -> usize {
        self.threads
    }

    fn acquire_bucket(&mut self) -> Bucket<DIM> {
        match self.bucket_pool.pop() {
            Some(mut b) => {
                b.clear();
                self.reuse += 1;
                b
            }
            None => {
                self.alloc += 1;
                Bucket::default()
            }
        }
    }

    fn acquire_log(&mut self) -> OutLog {
        let mut l = self.log_pool.pop().unwrap_or_default();
        l.clear();
        l
    }

    fn release_plan(&mut self, plan: TaskPlan<DIM>) {
        for t in plan.tasks {
            self.bucket_pool.push(t.bucket);
            let mut log = t.out_log;
            log.clear();
            self.log_pool.push(log);
        }
        self.bucket_pool.extend(plan.root);
    }

    /// Emits and resets the arena's alloc/reuse tallies (engine + workers)
    /// under the currently open obs scope.
    fn emit_arena_counters(&mut self) {
        let mut a = std::mem::take(&mut self.alloc);
        let mut r = std::mem::take(&mut self.reuse);
        for s in &mut self.scratch {
            a += std::mem::take(&mut s.alloc);
            r += std::mem::take(&mut s.reuse);
        }
        if a > 0 {
            carve_obs::counter("arena_alloc", a);
        }
        if r > 0 {
            carve_obs::counter("arena_reuse", r);
        }
    }
}

impl<const DIM: usize> Default for TraversalWorkspace<DIM> {
    fn default() -> Self {
        Self::new()
    }
}

// --- Task-local bucket stack view -----------------------------------------

/// A task's view of the bucket stack: the shared read-only root bucket
/// (absent when the task is the root itself), the task's own base bucket,
/// and the task-local stack of deeper buckets. Writes into the root are
/// deferred to the scatter log; everything else accumulates in place.
struct Ctx<'a, const DIM: usize> {
    root: Option<&'a Bucket<DIM>>,
    base: &'a mut Bucket<DIM>,
    own: Vec<Bucket<DIM>>,
    log: &'a mut OutLog,
    free: &'a mut Vec<Bucket<DIM>>,
    /// Buckets of the sibling run currently processed as a leaf panel.
    panel: &'a mut Vec<Bucket<DIM>>,
    /// SoA panel value buffers (workspace arena).
    panel_in: &'a mut Vec<f64>,
    panel_out: &'a mut Vec<f64>,
    alloc: &'a mut u64,
    reuse: &'a mut u64,
}

impl<const DIM: usize> Ctx<'_, DIM> {
    /// Depth of the task's base bucket.
    #[inline]
    fn base_depth(&self) -> usize {
        self.root.is_some() as usize
    }

    #[inline]
    fn top_depth(&self) -> usize {
        self.base_depth() + self.own.len()
    }

    #[inline]
    fn bucket(&self, depth: usize) -> &Bucket<DIM> {
        let bd = self.base_depth();
        match self.root {
            Some(root) if depth < bd => root,
            _ if depth == bd => self.base,
            _ => &self.own[depth - bd - 1],
        }
    }

    #[inline]
    fn top_bucket(&self) -> &Bucket<DIM> {
        self.bucket(self.top_depth())
    }

    /// Adds `val` into `vout[slot]` of the depth-`depth` bucket — directly
    /// when the bucket is task-owned, via the scatter log when it is the
    /// shared root (replayed in order at join).
    #[inline]
    fn vout_add(&mut self, depth: usize, slot: usize, val: f64) {
        let bd = self.base_depth();
        if depth < bd {
            self.log.push((depth as u32, slot as u32, val));
        } else if depth == bd {
            self.base.vout[slot] += val;
        } else {
            self.own[depth - bd - 1].vout[slot] += val;
        }
    }

    fn acquire(&mut self) -> Bucket<DIM> {
        match self.free.pop() {
            Some(mut b) => {
                b.clear();
                *self.reuse += 1;
                b
            }
            None => {
                *self.alloc += 1;
                Bucket::default()
            }
        }
    }
}

// --- Hanging-node resolution ----------------------------------------------

/// Pushes the one-level-up interpolation sources for a hanging coordinate
/// onto the arena stack `srcs`: `coord` belongs to the p-lattice of `oct`
/// but is not a real node; the sources live on the minimal face of
/// `parent(oct)` containing it, with tensor-Lagrange weights. Callers
/// record `srcs.len()` before the call and truncate back after consuming
/// their segment, so recursive chains share one allocation.
fn push_hanging_sources<const DIM: usize>(
    oct: &Octant<DIM>,
    coord: &[u64; DIM],
    p: u64,
    srcs: &mut Vec<([u64; DIM], f64)>,
) {
    assert!(
        oct.level > 0,
        "hanging coordinate at the root: invalid mesh"
    );
    let parent = oct.parent();
    let pside = parent.side() as u64;
    let mut fixed = [false; DIM];
    let mut t = [0.0f64; DIM];
    for k in 0..DIM {
        let off = coord[k] - parent.anchor[k] as u64 * p;
        if off == 0 || off == p * pside {
            fixed[k] = true;
        }
        t[k] = off as f64 / pside as f64;
    }
    debug_assert!(fixed.iter().any(|&f| f));
    let mut free_axes = [0usize; DIM];
    let mut n_free = 0;
    for (k, &fx) in fixed.iter().enumerate() {
        if !fx {
            free_axes[n_free] = k;
            n_free += 1;
        }
    }
    let combos = (p + 1).pow(n_free as u32);
    for combo in 0..combos {
        let mut rem = combo;
        let mut w = 1.0;
        let mut src = *coord;
        for &k in &free_axes[..n_free] {
            let j = rem % (p + 1);
            rem /= p + 1;
            w *= crate::nodes::lagrange_1d(p, j, t[k]);
            src[k] = parent.anchor[k] as u64 * p + j * pside;
        }
        if w != 0.0 {
            srcs.push((src, w));
        }
    }
}

/// Resolves `coord` into a `(global id, weight)` stencil (assembly path).
#[allow(clippy::too_many_arguments)]
fn stencil_coord<const DIM: usize>(
    ctx: &Ctx<'_, DIM>,
    leaf: &Octant<DIM>,
    depth: usize,
    coord: &[u64; DIM],
    weight: f64,
    p: u64,
    srcs: &mut Vec<([u64; DIM], f64)>,
    out: &mut Vec<(u32, f64)>,
) {
    let b = ctx.bucket(depth);
    if let Some(i) = b.find(coord) {
        out.push((b.ids[i], weight));
        return;
    }
    let oct = leaf.ancestor_at(depth as u8);
    let base = srcs.len();
    push_hanging_sources(&oct, coord, p, srcs);
    let end = srcs.len();
    for k in base..end {
        let (src, w) = srcs[k];
        stencil_coord(ctx, leaf, depth - 1, &src, weight * w, p, srcs, out);
    }
    srcs.truncate(base);
}

// --- Leaf plan ------------------------------------------------------------

/// Plan-ref flag: the low bits index a hanging program, not a bucket slot.
const HANG: u32 = 1 << 31;

/// What a leaf plan was recorded for, compared in O(1) on every use: a
/// traversal whose mesh shape differs records a fresh plan.
#[derive(Clone, PartialEq, Debug)]
struct PlanKey {
    elems: usize,
    owned: Range<usize>,
    curve: Curve,
    p: u64,
    nodes: usize,
    /// Hash of the first, last and owned-end elements and of the first and
    /// last node coordinates.
    ends: u64,
}

impl PlanKey {
    fn new<const DIM: usize>(env: &Env<'_, DIM>, nodes: &NodeSet<DIM>) -> Self {
        let picks = [0, env.owned.start, env.owned.end - 1, env.elems.len() - 1];
        let elems = picks.iter().filter_map(|&i| env.elems.get(i));
        let coords = nodes.coords.first().into_iter().chain(nodes.coords.last());
        Self {
            elems: env.elems.len(),
            owned: env.owned.clone(),
            curve: env.curve,
            p: env.p,
            nodes: nodes.len(),
            ends: fnv1a(
                elems
                    .flat_map(octant_words)
                    .chain(coords.flatten().copied()),
            ),
        }
    }
}

fn octant_words<const DIM: usize>(o: &Octant<DIM>) -> impl Iterator<Item = u64> + '_ {
    o.anchor
        .iter()
        .map(|&a| a as u64)
        .chain(std::iter::once(o.level as u64))
}

/// Word-wise FNV-1a.
fn fnv1a(words: impl Iterator<Item = u64>) -> u64 {
    words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Hash of every element and node coordinate: the debug-build check that a
/// plan whose shape matches was not recorded for different contents.
fn content_hash<const DIM: usize>(elems: &[Octant<DIM>], nodes: &NodeSet<DIM>) -> u64 {
    fnv1a(
        elems
            .iter()
            .flat_map(octant_words)
            .chain(nodes.coords.iter().flatten().copied()),
    )
}

/// A mesh's leaf plan (DESIGN.md §6j): for every owned leaf, its `npe`
/// lattice slots as refs. A ref below [`HANG`] is a slot of the leaf's own
/// bucket; `HANG | i` is hanging program `i`, whose terms `(w, to)` each
/// name a target one bucket level up — again a slot or a program. Terms
/// keep the source order of `push_hanging_sources`, so replaying a program
/// performs the floating-point operations of the recursive per-call
/// resolution it replaces, one for one.
#[derive(Debug)]
pub(crate) struct LeafPlan {
    key: PlanKey,
    content: u64,
    npe: usize,
    /// `npe` refs per owned leaf, in element order.
    refs: Vec<u32>,
    /// Program `i`'s terms are `start[i]..start[i + 1]` of `w` / `to`.
    start: Vec<u32>,
    w: Vec<f64>,
    to: Vec<u32>,
}

impl LeafPlan {
    /// The refs of owned element `ei`.
    #[inline]
    fn refs(&self, ei: usize) -> &[u32] {
        let at = (ei - self.key.owned.start) * self.npe;
        &self.refs[at..at + self.npe]
    }

    /// Value of ref `r` at bucket depth `depth`.
    fn eval<const DIM: usize>(&self, ctx: &Ctx<'_, DIM>, depth: usize, r: u32) -> f64 {
        if r < HANG {
            return ctx.bucket(depth).vin[r as usize];
        }
        let prog = (r - HANG) as usize;
        let mut v = 0.0;
        for t in self.start[prog] as usize..self.start[prog + 1] as usize {
            v += self.w[t] * self.eval(ctx, depth - 1, self.to[t]);
        }
        v
    }

    /// Transpose of [`Self::eval`]: accumulates `val` into the slots `r`
    /// reads from.
    fn scatter<const DIM: usize>(&self, ctx: &mut Ctx<'_, DIM>, depth: usize, r: u32, val: f64) {
        if r < HANG {
            ctx.vout_add(depth, r as usize, val);
            return;
        }
        let prog = (r - HANG) as usize;
        for t in self.start[prog] as usize..self.start[prog + 1] as usize {
            self.scatter(ctx, depth - 1, self.to[t], self.w[t] * val);
        }
    }

    fn bytes(&self) -> usize {
        4 * (self.refs.len() + self.start.len() + self.to.len()) + 8 * self.w.len()
    }
}

/// The lazily recorded leaf plan a [`NodeSet`] holds for its mesh. Empty
/// until the first MATVEC (or [`crate::DistMesh::leaf_plan_bytes`]);
/// replacing the node set (mesh adaptation) drops it, and a clone starts
/// empty. Fork-join workers share it read-only.
#[derive(Default, Debug)]
pub(crate) struct PlanCell(Mutex<Option<Arc<LeafPlan>>>);

impl Clone for PlanCell {
    fn clone(&self) -> Self {
        Self::default()
    }
}

/// The plan `nodes` holds for this traversal's mesh, recording (and
/// keeping) a fresh one when there is none or its shape differs.
fn leaf_plan<const DIM: usize>(env: &Env<'_, DIM>, nodes: &NodeSet<DIM>) -> Arc<LeafPlan> {
    let key = PlanKey::new(env, nodes);
    let mut cell = nodes.plan.0.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(plan) = cell.as_ref().filter(|plan| plan.key == key) {
        debug_assert_eq!(
            plan.content,
            content_hash(env.elems, nodes),
            "stale leaf plan: the mesh changed without changing shape"
        );
        return Arc::clone(plan);
    }
    let plan = Arc::new(record_plan(env, nodes, key));
    *cell = Some(Arc::clone(&plan));
    plan
}

/// Resident bytes of the leaf plan `nodes` holds for the owned leaves
/// `owned` of `elems`, recording it first when it has none — the plan
/// every later MATVEC over this mesh then replays.
pub(crate) fn leaf_plan_bytes<const DIM: usize>(
    elems: &[Octant<DIM>],
    owned: Range<usize>,
    curve: Curve,
    nodes: &NodeSet<DIM>,
) -> usize {
    if elems.is_empty() || owned.is_empty() {
        return 0;
    }
    leaf_plan(&Env::new(elems, owned, curve, nodes, true, 1), nodes).bytes()
}

/// Records the leaf plan with one coords-only descent over the owned
/// subtrees (the buckets are those every MATVEC builds), reporting under
/// the `plan` phase.
fn record_plan<const DIM: usize>(
    env: &Env<'_, DIM>,
    nodes: &NodeSet<DIM>,
    key: PlanKey,
) -> LeafPlan {
    let _obs = carve_obs::scope("plan");
    let npe = nodes_per_elem::<DIM>(env.p);
    let mut root = Bucket::default();
    root.coords.extend_from_slice(&nodes.coords);
    let mut rec = Recorder {
        env,
        plan: LeafPlan {
            key,
            content: content_hash(env.elems, nodes),
            npe,
            refs: Vec::with_capacity(env.owned.len() * npe),
            start: Vec::new(),
            w: Vec::new(),
            to: Vec::new(),
        },
        stack: vec![root],
        free: Vec::new(),
        srcs: Vec::new(),
        slots: vec![NO_SLOT; npe],
        hits: 0,
        hanging: 0,
    };
    rec.walk(Octant::ROOT, SfcState::ROOT, 0..env.elems.len());
    let mut plan = rec.plan;
    plan.start.push(plan.w.len() as u32);
    carve_obs::counter("plans", 1);
    carve_obs::counter("slot_sweep_hits", rec.hits);
    carve_obs::counter("hanging_slots", rec.hanging);
    carve_obs::counter("program_terms", plan.w.len() as u64);
    carve_obs::counter("plan_bytes", plan.bytes() as u64);
    plan
}

/// Recording state: the depth-indexed coords-only bucket path, a bucket
/// free-list, and the hanging-source arena stack.
struct Recorder<'a, const DIM: usize> {
    env: &'a Env<'a, DIM>,
    plan: LeafPlan,
    stack: Vec<Bucket<DIM>>,
    free: Vec<Bucket<DIM>>,
    srcs: Vec<([u64; DIM], f64)>,
    slots: Vec<u32>,
    hits: u64,
    hanging: u64,
}

impl<const DIM: usize> Recorder<'_, DIM> {
    /// The traversal's descent (same owned-subtree restriction, same bucket
    /// fills), visiting owned leaves in element order.
    fn walk(&mut self, subtree: Octant<DIM>, st: SfcState, range: Range<usize>) {
        let env = self.env;
        if range.len() == 1 && env.elems[range.start] == subtree {
            if env.owned.contains(&range.start) {
                self.leaf(range.start, &subtree);
            }
            return;
        }
        let child_level = subtree.level + 1;
        let mut lo = range.start;
        for r in 0..(1usize << DIM) {
            let hi = run_end(env, st, child_level, lo..range.end, r);
            if hi == lo {
                continue;
            }
            if lo < env.owned.end && hi > env.owned.start {
                let child_oct = subtree.child(st.sfc_to_morton(env.curve, DIM, r));
                let mut b = self.free.pop().unwrap_or_default();
                b.clear();
                let parent = &self.stack[self.stack.len() - 1];
                fill_child_bucket(parent, &child_oct, env.p, false, false, &mut b);
                self.stack.push(b);
                self.walk(child_oct, st.child(env.curve, DIM, r), lo..hi);
                let b = self.stack.pop().expect("child bucket");
                self.free.push(b);
            }
            lo = hi;
        }
    }

    /// One merge-sweep maps the leaf bucket onto lattice slots; every slot
    /// it leaves open is hanging and gets a program.
    fn leaf(&mut self, ei: usize, leaf: &Octant<DIM>) {
        let p = self.env.p;
        let depth = leaf.level as usize;
        debug_assert_eq!(self.stack.len(), depth + 1);
        debug_assert_eq!(
            self.plan.refs.len(),
            (ei - self.env.owned.start) * self.plan.npe
        );
        self.slots.fill(NO_SLOT);
        for (i, c) in self.stack[depth].coords.iter().enumerate() {
            if let Some(lin) = lattice_linear(leaf, p, c) {
                self.slots[lin] = i as u32;
                self.hits += 1;
            }
        }
        for lin in 0..self.plan.npe {
            let r = match self.slots[lin] {
                NO_SLOT => {
                    self.hanging += 1;
                    let c = elem_node_coord(leaf, p, &lattice_index::<DIM>(lin, p));
                    self.resolve(leaf, depth, &c)
                }
                s => s,
            };
            self.plan.refs.push(r);
        }
    }

    /// Ref for `coord` at bucket depth `depth`: its slot there, or a new
    /// program over its one-level-up interpolation sources. A program
    /// claims its block of terms before its sources resolve, so
    /// sub-programs append after it and every block stays contiguous.
    fn resolve(&mut self, leaf: &Octant<DIM>, depth: usize, coord: &[u64; DIM]) -> u32 {
        if let Some(i) = self.stack[depth].find(coord) {
            return i as u32;
        }
        let src_base = self.srcs.len();
        push_hanging_sources(
            &leaf.ancestor_at(depth as u8),
            coord,
            self.env.p,
            &mut self.srcs,
        );
        let prog = self.plan.start.len() as u32;
        assert!(prog < HANG, "leaf plan program index overflow");
        let at = self.plan.w.len();
        self.plan.start.push(at as u32);
        self.plan
            .w
            .extend(self.srcs[src_base..].iter().map(|s| s.1));
        self.plan.to.resize(self.plan.w.len(), 0);
        for k in 0..self.srcs.len() - src_base {
            let src = self.srcs[src_base + k].0;
            self.plan.to[at + k] = self.resolve(leaf, depth - 1, &src);
        }
        self.srcs.truncate(src_base);
        HANG | prog
    }
}

/// End of the run of `elems[run]` (SFC-sorted, so contiguous) that falls in
/// SFC child rank `r` of a subtree whose children sit at `child_level`.
#[inline]
fn run_end<const DIM: usize>(
    env: &Env<'_, DIM>,
    st: SfcState,
    child_level: u8,
    run: Range<usize>,
    r: usize,
) -> usize {
    let mut hi = run.start;
    while hi < run.end
        && st.morton_to_sfc(env.curve, DIM, env.elems[hi].child_bits_at(child_level)) == r
    {
        hi += 1;
    }
    hi
}

// --- Task decomposition ---------------------------------------------------

/// Immutable per-call traversal parameters.
struct Env<'a, const DIM: usize> {
    elems: &'a [Octant<DIM>],
    owned: Range<usize>,
    curve: Curve,
    p: u64,
    carry_values: bool,
    carry_ids: bool,
    /// Maximum leaf-panel width (workspace `batch_width`); the effective
    /// width is additionally capped by the visitor's [`LeafVisitor::
    /// panel_width`] and the natural sibling-run length.
    batch: usize,
}

impl<'a, const DIM: usize> Env<'a, DIM> {
    /// The matvec traversal carries values; assembly carries global ids.
    fn new(
        elems: &'a [Octant<DIM>],
        owned: Range<usize>,
        curve: Curve,
        nodes: &NodeSet<DIM>,
        carry_values: bool,
        batch: usize,
    ) -> Self {
        Self {
            elems,
            owned,
            curve,
            p: nodes.order,
            carry_values,
            carry_ids: !carry_values,
            batch,
        }
    }
}

/// An independent SFC-contiguous subtree of work: one child of the root.
struct Task<const DIM: usize> {
    oct: Octant<DIM>,
    st: SfcState,
    range: Range<usize>,
    bucket: Bucket<DIM>,
    out_log: OutLog,
}

/// The serial top of the traversal: the root bucket, shared read-only by
/// the tasks below it, and the tasks in SFC order. `root` is `None` for the
/// degenerate single-element tree, whose lone task holds the root bucket.
struct TaskPlan<const DIM: usize> {
    root: Option<Bucket<DIM>>,
    tasks: Vec<Task<DIM>>,
}

/// Buckets the root's nodes into each child subtree holding owned elements
/// (serially, under `top_down`), one task per child in SFC order.
fn split_root<const DIM: usize>(
    env: &Env<'_, DIM>,
    root: Bucket<DIM>,
    ws: &mut TraversalWorkspace<DIM>,
) -> TaskPlan<DIM> {
    let n = env.elems.len();
    if n == 1 && env.elems[0] == Octant::ROOT {
        let task = Task {
            oct: Octant::ROOT,
            st: SfcState::ROOT,
            range: 0..1,
            bucket: root,
            out_log: ws.acquire_log(),
        };
        return TaskPlan {
            root: None,
            tasks: vec![task],
        };
    }
    let st = SfcState::ROOT;
    let mut tasks = Vec::new();
    let mut lo = 0;
    for r in 0..(1usize << DIM) {
        let hi = run_end(env, st, 1, lo..n, r);
        if hi == lo {
            continue;
        }
        // Skip subtrees with no owned elements (distributed restriction).
        if lo >= env.owned.end || hi <= env.owned.start {
            lo = hi;
            continue;
        }
        let oct = Octant::ROOT.child(st.sfc_to_morton(env.curve, DIM, r));
        let obs_td = carve_obs::scope("top_down");
        let mut bucket = ws.acquire_bucket();
        fill_child_bucket(
            &root,
            &oct,
            env.p,
            env.carry_values,
            env.carry_ids,
            &mut bucket,
        );
        carve_obs::counter("node_copies", bucket.coords.len() as u64);
        drop(obs_td);
        tasks.push(Task {
            oct,
            st: st.child(env.curve, DIM, r),
            range: lo..hi,
            bucket,
            out_log: ws.acquire_log(),
        });
        lo = hi;
    }
    debug_assert_eq!(lo, n, "elements not fully bucketed");
    TaskPlan {
        root: Some(root),
        tasks,
    }
}

/// Buckets the parent's nodes incident on `child_oct`'s closed region into
/// `out` (which the arena has already cleared).
fn fill_child_bucket<const DIM: usize>(
    parent: &Bucket<DIM>,
    child_oct: &Octant<DIM>,
    p: u64,
    carry_values: bool,
    carry_ids: bool,
    out: &mut Bucket<DIM>,
) {
    let side = child_oct.side() as u64;
    for (i, c) in parent.coords.iter().enumerate() {
        let mut incident = true;
        for (&ck, &ak) in c.iter().zip(&child_oct.anchor) {
            let a = ak as u64 * p;
            if ck < a || ck > a + side * p {
                incident = false;
                break;
            }
        }
        if incident {
            out.coords.push(*c);
            out.parent_slot.push(i as u32);
            if carry_ids {
                out.ids.push(parent.ids[i]);
            }
            if carry_values {
                out.vin.push(parent.vin[i]);
            }
        }
    }
    if carry_values {
        out.vout.resize(out.coords.len(), 0.0);
    }
}

// --- Elemental kernel traits ----------------------------------------------

/// Elemental operator for the matvec traversal. `apply` is the scalar
/// per-element kernel; kernels that can consume structure-of-arrays panels
/// of SFC-consecutive same-level siblings opt in via
/// [`Self::supports_panels`] + [`Self::apply_panel`].
///
/// Implemented for every `FnMut(&Octant<DIM>, &[f64], &mut [f64])` closure
/// (scalar-only), so plain-closure call sites need no changes.
pub trait LeafKernel<const DIM: usize> {
    /// `v_e += K_e u_e` on one element (`v_e` arrives zeroed).
    fn apply(&mut self, e: &Octant<DIM>, u: &[f64], v: &mut [f64]);

    /// Whether [`Self::apply_panel`] is implemented; when `false` the
    /// traversal stays on the scalar per-leaf path.
    fn supports_panels(&self) -> bool {
        false
    }

    /// Applies the operator to a panel of `elems.len()` same-level elements
    /// in SoA layout: node `lin` of element `b` lives at
    /// `[lin * batch + b]` (`v` arrives zeroed). Implementations must
    /// perform each element's floating-point operations in exactly the
    /// order of [`Self::apply`] so batched and scalar traversals agree
    /// bitwise.
    fn apply_panel(&mut self, elems: &[Octant<DIM>], u: &[f64], v: &mut [f64]) {
        let _ = (elems, u, v);
        unreachable!("apply_panel called on a kernel without panel support")
    }
}

impl<const DIM: usize, F> LeafKernel<DIM> for F
where
    F: FnMut(&Octant<DIM>, &[f64], &mut [f64]),
{
    fn apply(&mut self, e: &Octant<DIM>, u: &[f64], v: &mut [f64]) {
        self(e, u, v)
    }
}

/// Elemental matrix source for the assembly traversal. Caching kernels
/// (e.g. per-level matrices on axis-aligned octrees) return a borrow via
/// [`Self::matrix_ref`] so the traversal skips the per-leaf build + clone;
/// the emitted triplet stream is identical either way.
///
/// Implemented for every `FnMut(&Octant<DIM>) -> DenseMatrix` closure.
pub trait AssemblyKernel<const DIM: usize> {
    /// The elemental matrix `K_e` (owned).
    fn matrix(&mut self, e: &Octant<DIM>) -> DenseMatrix;

    /// Borrowing variant for caching kernels; `None` means "use
    /// [`Self::matrix`]". Must hold the same values as `matrix`.
    fn matrix_ref(&mut self, e: &Octant<DIM>) -> Option<&DenseMatrix> {
        let _ = e;
        None
    }

    /// Whether same-level sibling runs should be processed as panels (the
    /// stencil sweeps batch and the obs counters record it; the triplet
    /// stream is unchanged either way).
    fn supports_panels(&self) -> bool {
        false
    }
}

impl<const DIM: usize, F> AssemblyKernel<DIM> for F
where
    F: FnMut(&Octant<DIM>) -> DenseMatrix,
{
    fn matrix(&mut self, e: &Octant<DIM>) -> DenseMatrix {
        self(e)
    }
}

/// Where the assembly traversal's global `(row, col, value)` entries go.
/// Each task's entries reach the sink as its log drains, in SFC task
/// order, so a sink sees one sequence for any thread count and batch
/// width.
///
/// A [`CooBuilder`] takes the full triplet stream of `W^T K_e W`; a
/// `Vec<f64>` indexed by global id accumulates only its diagonal.
pub trait AssemblySink {
    /// Whether the sink keeps only `row == col` entries. The traversal
    /// then emits just the diagonal stencil products, including those
    /// between two distinct lattice slots whose stencils share a node.
    const DIAGONAL_ONLY: bool;

    /// Capacity hint: about `additional` more entries follow.
    fn reserve(&mut self, additional: usize) {
        let _ = additional;
    }

    fn add(&mut self, row: u32, col: u32, val: f64);
}

impl AssemblySink for CooBuilder {
    const DIAGONAL_ONLY: bool = false;

    fn reserve(&mut self, additional: usize) {
        CooBuilder::reserve(self, additional);
    }

    #[inline]
    fn add(&mut self, row: u32, col: u32, val: f64) {
        CooBuilder::add(self, row as usize, col as usize, val);
    }
}

impl AssemblySink for Vec<f64> {
    const DIAGONAL_ONLY: bool = true;

    #[inline]
    fn add(&mut self, row: u32, col: u32, val: f64) {
        debug_assert_eq!(row, col);
        self[row as usize] += val;
    }
}

// --- Task execution -------------------------------------------------------

/// What to do at each owned leaf (`ei` is its index in `elems`). Visitors
/// that can consume sibling runs as panels report a `panel_width() > 1` and
/// implement the three-phase panel protocol (`gather×B → apply → scatter
/// per leaf in SFC order`).
trait LeafVisitor<const DIM: usize> {
    fn leaf(&mut self, ei: usize, leaf: &Octant<DIM>, ctx: &mut Ctx<'_, DIM>);

    /// Maximum sibling-run width this visitor consumes as one panel
    /// (1 = scalar only).
    fn panel_width(&self) -> usize {
        1
    }

    /// Reads element `b` of a `batch`-wide panel into the visitor's panel
    /// buffers (must not write any traversal state).
    fn panel_gather(
        &mut self,
        b: usize,
        batch: usize,
        ei: usize,
        leaf: &Octant<DIM>,
        ctx: &mut Ctx<'_, DIM>,
    ) {
        let _ = (b, batch, ei, leaf, ctx);
        unreachable!("panel_gather requires panel_width() > 1")
    }

    /// Applies the batched operator to the gathered panel.
    fn panel_apply(&mut self, leaves: &[Octant<DIM>], ctx: &mut Ctx<'_, DIM>) {
        let _ = (leaves, ctx);
        unreachable!("panel_apply requires panel_width() > 1")
    }

    /// Writes element `b`'s results back; called once per element in SFC
    /// order, interleaved with the bottom-up merges.
    fn panel_scatter(
        &mut self,
        b: usize,
        batch: usize,
        ei: usize,
        leaf: &Octant<DIM>,
        ctx: &mut Ctx<'_, DIM>,
    ) {
        let _ = (b, batch, ei, leaf, ctx);
        unreachable!("panel_scatter requires panel_width() > 1")
    }
}

/// Runs one task to completion below the shared root bucket.
fn run_task<const DIM: usize, V: LeafVisitor<DIM>>(
    env: &Env<'_, DIM>,
    task: &mut Task<DIM>,
    root: Option<&Bucket<DIM>>,
    scr: &mut WorkerScratch<DIM>,
    visitor: &mut V,
) {
    let WorkerScratch {
        buckets,
        own_stack,
        panel_stack,
        panel_in,
        panel_out,
        alloc,
        reuse,
    } = scr;
    let mut ctx = Ctx {
        root,
        base: &mut task.bucket,
        own: std::mem::take(own_stack),
        log: &mut task.out_log,
        free: buckets,
        panel: panel_stack,
        panel_in,
        panel_out,
        alloc,
        reuse,
    };
    let range = task.range.clone();
    rec(env, task.oct, task.st, range, &mut ctx, visitor);
    debug_assert!(ctx.own.is_empty());
    *own_stack = ctx.own;
}

/// The recursive top-down / bottom-up sweep inside one task.
fn rec<const DIM: usize, V: LeafVisitor<DIM>>(
    env: &Env<'_, DIM>,
    subtree: Octant<DIM>,
    st: SfcState,
    range: Range<usize>,
    ctx: &mut Ctx<'_, DIM>,
    visitor: &mut V,
) {
    debug_assert!(!range.is_empty());
    if range.len() == 1 && env.elems[range.start] == subtree {
        if env.owned.contains(&range.start) {
            let _obs = carve_obs::scope("leaf");
            carve_obs::counter("leaves", 1);
            carve_obs::counter("scalar_leaves", 1);
            visitor.leaf(range.start, &subtree, ctx);
        }
        return;
    }
    // Partition the (SFC-sorted) element range by SFC child rank; the
    // runs are contiguous and in rank order.
    let child_level = subtree.level + 1;
    let bw = env.batch.min(visitor.panel_width());
    let mut lo = range.start;
    for r in 0..(1usize << DIM) {
        let hi = run_end(env, st, child_level, lo..range.end, r);
        if hi == lo {
            continue;
        }
        if lo >= env.owned.end || hi <= env.owned.start {
            lo = hi;
            continue;
        }
        // Batched leaf panels: an element at exactly `child_level` IS one
        // whole child of this subtree, so a run of consecutive such owned
        // elements is a run of sibling leaves (distinct, ascending SFC
        // ranks). Consume it as one SoA panel; the for-loop then naturally
        // skips the ranks the panel covered, because runs are re-scanned
        // from the advanced `lo`.
        if bw >= 2 && hi - lo == 1 && env.elems[lo].level == child_level {
            let mut q = lo + 1;
            while q - lo < bw
                && q < range.end
                && q < env.owned.end
                && env.elems[q].level == child_level
            {
                q += 1;
            }
            if q - lo >= 2 {
                panel_run(env, lo, q - lo, ctx, visitor);
                lo = q;
                continue;
            }
        }
        let m = st.sfc_to_morton(env.curve, DIM, r);
        let child_oct = subtree.child(m);
        let child_st = st.child(env.curve, DIM, r);
        // Top-down: bucket nodes incident on the child's closed region.
        let obs_td = carve_obs::scope("top_down");
        let mut child = ctx.acquire();
        fill_child_bucket(
            ctx.top_bucket(),
            &child_oct,
            env.p,
            env.carry_values,
            env.carry_ids,
            &mut child,
        );
        carve_obs::counter("node_copies", child.coords.len() as u64);
        drop(obs_td);
        ctx.own.push(child);
        rec(env, child_oct, child_st, lo..hi, ctx, visitor);
        // Bottom-up: accumulate duplicated node contributions.
        let _obs_bu = carve_obs::scope("bottom_up");
        let child = ctx.own.pop().expect("child bucket");
        if env.carry_values {
            let pd = ctx.top_depth();
            for (i, &ps) in child.parent_slot.iter().enumerate() {
                ctx.vout_add(pd, ps as usize, child.vout[i]);
            }
        }
        ctx.free.push(child);
        lo = hi;
    }
    debug_assert_eq!(lo, range.end, "elements not fully bucketed");
}

/// Processes `batch` consecutive sibling leaves (`env.elems[lo..lo+batch]`)
/// as one SoA panel: per-leaf bucket fills, hoisted gathers, one batched
/// kernel apply, then per-leaf scatter + bottom-up merge in SFC order.
///
/// Bitwise identity with the scalar path: the hoisted phases (bucket fill,
/// gather) only *read* traversal state (`vin`, coords), which
/// no leaf ever writes, so moving them ahead of sibling scatters changes no
/// input value. The write phases — scatter of leaf `b` followed by its
/// bottom-up merge — stay interleaved per element in SFC order, because
/// scatter of leaf `b+1` can accumulate into the same parent slots as the
/// merge of leaf `b` (hanging sources on shared sibling faces recurse into
/// the parent bucket). Every floating-point accumulation therefore happens
/// in exactly the scalar order.
fn panel_run<const DIM: usize, V: LeafVisitor<DIM>>(
    env: &Env<'_, DIM>,
    lo: usize,
    batch: usize,
    ctx: &mut Ctx<'_, DIM>,
    visitor: &mut V,
) {
    debug_assert!(ctx.panel.is_empty());
    let pd = ctx.top_depth();
    // Top-down: fill every sibling's bucket from the shared parent.
    for b in 0..batch {
        let obs_td = carve_obs::scope("top_down");
        let mut bkt = ctx.acquire();
        fill_child_bucket(
            ctx.top_bucket(),
            &env.elems[lo + b],
            env.p,
            env.carry_values,
            env.carry_ids,
            &mut bkt,
        );
        carve_obs::counter("node_copies", bkt.coords.len() as u64);
        drop(obs_td);
        ctx.panel.push(bkt);
    }
    {
        let _obs = carve_obs::scope("leaf");
        carve_obs::counter("leaves", batch as u64);
        carve_obs::counter("batched_leaves", batch as u64);
        carve_obs::counter("batch_count", 1);
        for b in 0..batch {
            // Temporarily put sibling `b`'s bucket on the own-stack so the
            // visitor sees the same depth-indexed view as the scalar path.
            let bkt = std::mem::take(&mut ctx.panel[b]);
            ctx.own.push(bkt);
            visitor.panel_gather(b, batch, lo + b, &env.elems[lo + b], ctx);
            let bkt = ctx.own.pop().expect("panel bucket");
            ctx.panel[b] = bkt;
        }
        visitor.panel_apply(&env.elems[lo..lo + batch], ctx);
    }
    // Scatter + merge per leaf, in SFC order (see the ordering argument in
    // the doc comment above).
    for b in 0..batch {
        let leaf = env.elems[lo + b];
        let bkt = {
            let _obs = carve_obs::scope("leaf");
            let bkt = std::mem::take(&mut ctx.panel[b]);
            ctx.own.push(bkt);
            visitor.panel_scatter(b, batch, lo + b, &leaf, ctx);
            ctx.own.pop().expect("panel bucket")
        };
        if env.carry_values {
            let _obs = carve_obs::scope("bottom_up");
            for (i, &ps) in bkt.parent_slot.iter().enumerate() {
                ctx.vout_add(pd, ps as usize, bkt.vout[i]);
            }
        }
        ctx.free.push(bkt);
    }
    ctx.panel.clear();
}

// --- Join (ordered merge) -------------------------------------------------

/// Replays each task's deferred root writes and merges its bucket's `vout`
/// into the root, in SFC task order — exactly where the sequential
/// traversal would have performed each accumulation — then adds the root's
/// `vout` into `y`. Only meaningful for the matvec path (`carry_values`).
fn finish_matvec<const DIM: usize>(plan: &mut TaskPlan<DIM>, y: &mut [f64]) {
    let TaskPlan { root, tasks } = plan;
    let root_vout = match root {
        None => &tasks[0].bucket.vout,
        Some(root) => {
            for t in tasks.iter_mut() {
                let _obs = carve_obs::scope("bottom_up");
                for &(_, slot, val) in t.out_log.iter() {
                    root.vout[slot as usize] += val;
                }
                t.out_log.clear();
                for (i, &ps) in t.bucket.parent_slot.iter().enumerate() {
                    root.vout[ps as usize] += t.bucket.vout[i];
                }
            }
            &root.vout
        }
    };
    for (yi, vo) in y.iter_mut().zip(root_vout) {
        *yi += vo;
    }
}

// --- Leaf visitors --------------------------------------------------------

struct MatvecVisitor<'p, K> {
    kernel: K,
    plan: &'p LeafPlan,
    in_vals: Vec<f64>,
    out_vals: Vec<f64>,
}

impl<'p, K> MatvecVisitor<'p, K> {
    fn new(kernel: K, plan: &'p LeafPlan) -> Self {
        Self {
            kernel,
            plan,
            in_vals: vec![0.0; plan.npe],
            out_vals: vec![0.0; plan.npe],
        }
    }
}

/// Sentinel for "lattice slot not in the leaf bucket" (hanging node).
const NO_SLOT: u32 = u32::MAX;

impl<const DIM: usize, K> LeafVisitor<DIM> for MatvecVisitor<'_, K>
where
    K: LeafKernel<DIM>,
{
    fn leaf(&mut self, ei: usize, leaf: &Octant<DIM>, ctx: &mut Ctx<'_, DIM>) {
        let depth = leaf.level as usize;
        debug_assert_eq!(ctx.top_depth(), depth);
        let plan = self.plan;
        for (v, &r) in self.in_vals.iter_mut().zip(plan.refs(ei)) {
            *v = plan.eval(ctx, depth, r);
        }
        self.out_vals.fill(0.0);
        self.kernel.apply(leaf, &self.in_vals, &mut self.out_vals);
        for (&val, &r) in self.out_vals.iter().zip(plan.refs(ei)) {
            plan.scatter(ctx, depth, r, val);
        }
    }

    fn panel_width(&self) -> usize {
        if self.kernel.supports_panels() {
            usize::MAX
        } else {
            1
        }
    }

    fn panel_gather(
        &mut self,
        b: usize,
        batch: usize,
        ei: usize,
        leaf: &Octant<DIM>,
        ctx: &mut Ctx<'_, DIM>,
    ) {
        let depth = leaf.level as usize;
        debug_assert_eq!(ctx.top_depth(), depth);
        let n = self.plan.npe * batch;
        if b == 0 {
            ctx.panel_in.clear();
            ctx.panel_in.resize(n, 0.0);
            ctx.panel_out.clear();
            ctx.panel_out.resize(n, 0.0);
        }
        // The panel buffer lives in the workspace arena; take it out so the
        // bucket reads below don't conflict with the writes.
        let mut pin = std::mem::take(ctx.panel_in);
        for (lin, &r) in self.plan.refs(ei).iter().enumerate() {
            // SoA: node `lin` of element `b` at `lin * batch + b`.
            pin[lin * batch + b] = self.plan.eval(ctx, depth, r);
        }
        *ctx.panel_in = pin;
    }

    fn panel_apply(&mut self, leaves: &[Octant<DIM>], ctx: &mut Ctx<'_, DIM>) {
        let n = self.plan.npe * leaves.len();
        self.kernel
            .apply_panel(leaves, &ctx.panel_in[..n], &mut ctx.panel_out[..n]);
    }

    fn panel_scatter(
        &mut self,
        b: usize,
        batch: usize,
        ei: usize,
        leaf: &Octant<DIM>,
        ctx: &mut Ctx<'_, DIM>,
    ) {
        let depth = leaf.level as usize;
        debug_assert_eq!(ctx.top_depth(), depth);
        let pout = std::mem::take(ctx.panel_out);
        for (lin, &r) in self.plan.refs(ei).iter().enumerate() {
            self.plan.scatter(ctx, depth, r, pout[lin * batch + b]);
        }
        *ctx.panel_out = pout;
    }
}

struct AssemblyVisitor<const DIM: usize, K> {
    kernel: K,
    p: u64,
    npe: usize,
    /// Emit only `row == col` products ([`AssemblySink::DIAGONAL_ONLY`]).
    diagonal_only: bool,
    stencils: Vec<Vec<(u32, f64)>>,
    slots: Vec<u32>,
    /// Hanging-source arena stack of `stencil_coord`.
    srcs: Vec<([u64; DIM], f64)>,
}

impl<const DIM: usize, K> AssemblyVisitor<DIM, K> {
    fn new(kernel: K, p: u64, diagonal_only: bool) -> Self {
        let npe = nodes_per_elem::<DIM>(p);
        Self {
            kernel,
            p,
            npe,
            diagonal_only,
            srcs: Vec::new(),
            stencils: (0..npe).map(|_| Vec::with_capacity(4)).collect(),
            slots: Vec::with_capacity(npe),
        }
    }
}

/// Emits `W^T K_e W` into the triplet log: every (row stencil) × (col
/// stencil) product, skipping structural zeros. Shared by the scalar and
/// panel assembly paths, so the triplet sequence is identical.
///
/// With `diagonal_only`, only the `ri == cj` products are kept. They come
/// from every `(i, j)` pair, not just `i == j`: two hanging slots (or a
/// hanging slot and a real one) interpolate from shared parent nodes, and
/// those cross terms are part of the assembled diagonal.
fn emit_triplets(
    stencils: &[Vec<(u32, f64)>],
    ke: &DenseMatrix,
    npe: usize,
    diagonal_only: bool,
    log: &mut OutLog,
) {
    debug_assert_eq!(ke.rows, npe);
    debug_assert_eq!(ke.cols, npe);
    for i in 0..npe {
        for j in 0..npe {
            let v = ke[(i, j)];
            if v == 0.0 {
                continue;
            }
            for &(ri, rw) in &stencils[i] {
                for &(cj, cw) in &stencils[j] {
                    if !diagonal_only || ri == cj {
                        log.push((ri, cj, rw * cw * v));
                    }
                }
            }
        }
    }
}

impl<const DIM: usize, K> AssemblyVisitor<DIM, K>
where
    K: AssemblyKernel<DIM>,
{
    /// Resolves the `npe` lattice stencils of `leaf` into
    /// `self.stencils[base..base + npe]` (reads only traversal state).
    fn gather_stencils(&mut self, base: usize, leaf: &Octant<DIM>, ctx: &Ctx<'_, DIM>) {
        let (p, npe) = (self.p, self.npe);
        let depth = leaf.level as usize;
        if self.stencils.len() < base + npe {
            self.stencils.resize_with(base + npe, Vec::new);
        }
        self.slots.clear();
        self.slots.resize(npe, NO_SLOT);
        let mut hits = 0u64;
        for (i, c) in ctx.bucket(depth).coords.iter().enumerate() {
            if let Some(lin) = lattice_linear(leaf, p, c) {
                self.slots[lin] = i as u32;
                hits += 1;
            }
        }
        carve_obs::counter("slot_sweep_hits", hits);
        for lin in 0..npe {
            self.stencils[base + lin].clear();
            let s = self.slots[lin];
            if s != NO_SLOT {
                let b = ctx.bucket(depth);
                self.stencils[base + lin].push((b.ids[s as usize], 1.0));
            } else {
                let idx = lattice_index::<DIM>(lin, p);
                let c = elem_node_coord(leaf, p, &idx);
                stencil_coord(
                    ctx,
                    leaf,
                    depth,
                    &c,
                    1.0,
                    p,
                    &mut self.srcs,
                    &mut self.stencils[base + lin],
                );
            }
        }
    }

    /// Fetches `K_e` (borrowed from caching kernels, built otherwise) and
    /// emits the stencil products for the element at `base`.
    fn emit_elem(&mut self, base: usize, leaf: &Octant<DIM>, log: &mut OutLog) {
        let (npe, diag) = (self.npe, self.diagonal_only);
        let stencils = &self.stencils[base..base + npe];
        if let Some(ke) = self.kernel.matrix_ref(leaf) {
            emit_triplets(stencils, ke, npe, diag, log);
        } else {
            let ke = self.kernel.matrix(leaf);
            emit_triplets(stencils, &ke, npe, diag, log);
        }
    }
}

impl<const DIM: usize, K> LeafVisitor<DIM> for AssemblyVisitor<DIM, K>
where
    K: AssemblyKernel<DIM>,
{
    fn leaf(&mut self, _ei: usize, leaf: &Octant<DIM>, ctx: &mut Ctx<'_, DIM>) {
        self.gather_stencils(0, leaf, ctx);
        self.emit_elem(0, leaf, ctx.log);
    }

    fn panel_width(&self) -> usize {
        if self.kernel.supports_panels() {
            usize::MAX
        } else {
            1
        }
    }

    fn panel_gather(
        &mut self,
        b: usize,
        _batch: usize,
        _ei: usize,
        leaf: &Octant<DIM>,
        ctx: &mut Ctx<'_, DIM>,
    ) {
        self.gather_stencils(b * self.npe, leaf, ctx);
    }

    fn panel_apply(&mut self, _leaves: &[Octant<DIM>], _ctx: &mut Ctx<'_, DIM>) {
        // Nothing to batch here: the elemental matrices are emitted
        // per-leaf at scatter time (caching kernels make the fetch O(1)
        // within a same-level run).
    }

    fn panel_scatter(
        &mut self,
        b: usize,
        _batch: usize,
        _ei: usize,
        leaf: &Octant<DIM>,
        ctx: &mut Ctx<'_, DIM>,
    ) {
        self.emit_elem(b * self.npe, leaf, ctx.log);
    }
}

// --- Fork-join runner ------------------------------------------------------

/// Runs `tasks` (SFC order) below the shared `root` bucket: inline when the
/// thread budget gives one worker, otherwise in SFC-contiguous chunks on
/// scoped workers, each with its own visitor from `make_visitor` and its own
/// workspace scratch. Workers record detached and are re-absorbed into the
/// calling thread's open scope. `during` runs on the calling thread while
/// the workers run (after the inline pass when there are none): the
/// communicator is single-threaded, so the overlapped matvec waits for its
/// ghost exchange there. `after` sees every task in SFC order — right after
/// it runs on the inline path, after the join on the threaded one. Returns
/// the number of workers used.
#[allow(clippy::too_many_arguments)]
fn fork_join<const DIM: usize, T, V, M>(
    env: &Env<'_, DIM>,
    root: Option<&Bucket<DIM>>,
    tasks: &mut [T],
    threads: usize,
    scratch: &mut Vec<WorkerScratch<DIM>>,
    make_visitor: &M,
    during: impl FnOnce(),
    mut after: impl FnMut(&mut Task<DIM>),
) -> usize
where
    T: BorrowMut<Task<DIM>> + Send,
    V: LeafVisitor<DIM>,
    M: Fn() -> V + Sync,
{
    let (chunk, n_workers) = chunking(tasks.len(), threads);
    if scratch.len() < n_workers {
        scratch.resize_with(n_workers, WorkerScratch::default);
    }
    if n_workers <= 1 {
        if !tasks.is_empty() {
            let mut vis = make_visitor();
            for t in tasks.iter_mut() {
                run_task(env, t.borrow_mut(), root, &mut scratch[0], &mut vis);
                after(t.borrow_mut());
            }
        }
        during();
        return 1;
    }
    let snaps: Vec<carve_obs::Snapshot> = std::thread::scope(|s| {
        let handles: Vec<_> = tasks
            .chunks_mut(chunk)
            .zip(scratch.iter_mut())
            .map(|(tchunk, scr)| {
                s.spawn(move || {
                    carve_obs::detach_thread();
                    let mut vis = make_visitor();
                    for t in tchunk.iter_mut() {
                        run_task(env, t.borrow_mut(), root, scr, &mut vis);
                    }
                    carve_obs::thread_snapshot()
                })
            })
            .collect();
        during();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    for snap in &snaps {
        carve_obs::absorb_rebased(snap);
    }
    for t in tasks.iter_mut() {
        after(t.borrow_mut());
    }
    n_workers
}

/// Contiguous chunk size and worker count for `n_tasks` under `budget`.
fn chunking(n_tasks: usize, budget: usize) -> (usize, usize) {
    let workers = par::worker_count(n_tasks, budget);
    let chunk = n_tasks.div_ceil(workers).max(1);
    (chunk, n_tasks.div_ceil(chunk).max(1))
}

// --- Public entry points ----------------------------------------------------

/// Applies the global operator `y += A x` matrix-free via octree traversal.
///
/// * `elems` — SFC-sorted leaf elements (owned + ghost in the distributed
///   case); `owned` restricts which leaves apply their elemental kernel.
/// * `make_kernel()` — builds the elemental operator (`v_e = K_e u_e`),
///   once per worker.
///
/// Subtree tasks are partitioned SFC-contiguously across up to
/// `ws.threads()` scoped workers. Deferred root writes replay in SFC order
/// at join, so the output is **bitwise identical for any thread count**.
/// Hot loops (Krylov iterations) reuse one `ws` across calls.
#[allow(clippy::too_many_arguments)]
pub fn traversal_matvec<const DIM: usize, K, F>(
    elems: &[Octant<DIM>],
    owned: Range<usize>,
    curve: Curve,
    nodes: &NodeSet<DIM>,
    x: &[f64],
    y: &mut [f64],
    ws: &mut TraversalWorkspace<DIM>,
    make_kernel: &F,
) where
    K: LeafKernel<DIM>,
    F: Fn() -> K + Sync,
{
    assert_eq!(x.len(), nodes.len());
    assert_eq!(y.len(), nodes.len());
    if elems.is_empty() || owned.is_empty() {
        return;
    }
    let _obs = carve_obs::scope("matvec");
    let env = Env::new(elems, owned, curve, nodes, true, ws.batch_width);
    let lp = leaf_plan(&env, nodes);
    let mut plan = split_root(&env, matvec_root(ws, nodes, x), ws);
    let TaskPlan { root, tasks } = &mut plan;
    let workers = fork_join(
        &env,
        root.as_ref(),
        tasks,
        ws.threads,
        &mut ws.scratch,
        &|| MatvecVisitor::new(make_kernel(), &lp),
        || {},
        |_| {},
    );
    carve_obs::counter("par_workers", workers as u64);
    finish_matvec(&mut plan, y);
    ws.release_plan(plan);
    ws.emit_arena_counters();
}

/// True iff any *owned* element in the task's range touches a ghost node
/// (per the caller's element classification): such a task must not run
/// until the ghost exchange has landed.
fn task_touches_ghosts<const DIM: usize>(
    t: &Task<DIM>,
    owned: &Range<usize>,
    boundary_elem: &[bool],
) -> bool {
    let lo = t.range.start.max(owned.start);
    let hi = t.range.end.min(owned.end);
    lo < hi && boundary_elem[lo..hi].iter().any(|&b| b)
}

/// Re-seeds the input values (`vin`) of the root bucket and the flagged
/// boundary-task buckets from the now-complete ghosted vector `xg`. Only
/// `vin` is touched: interior tasks have already run and their pending
/// output lives in `vout`s and scatter logs, which this pass never reads or
/// writes — so the subsequent boundary sweep + ordered join reproduce the
/// sequential result bit for bit.
fn refresh_vin<const DIM: usize>(plan: &mut TaskPlan<DIM>, xg: &[f64], flags: &[bool]) {
    let Some(root) = &mut plan.root else {
        // Degenerate single-root-element plan: the lone task IS the root
        // bucket, seeded directly from the input vector.
        if flags[0] {
            plan.tasks[0].bucket.vin.copy_from_slice(xg);
        }
        return;
    };
    root.vin.copy_from_slice(xg);
    for (t, _) in plan.tasks.iter_mut().zip(flags).filter(|(_, &f)| f) {
        for (i, &ps) in t.bucket.parent_slot.iter().enumerate() {
            t.bucket.vin[i] = root.vin[ps as usize];
        }
    }
}

/// Overlapped-exchange matvec (§3.5). The caller has already *posted* the
/// nonblocking ghost-read of `xg`'s owned entries; this traversal runs
/// every interior task (owned elements whose stencil closure is
/// rank-local) against the stale vector on the fork-join workers *while the
/// calling thread completes the exchange into `xg`* by calling `wait` under
/// a `ghost_wait` sub-phase. It then re-seeds the root and boundary-task
/// `vin`s (`refresh_vin`) and only then runs the boundary tasks. The
/// ordered join is unchanged, so the result is bitwise identical to
/// [`traversal_matvec`] on the post-exchange vector, at any thread count.
///
/// `wait` is invoked exactly once on every path, including empty-owned
/// ranks — it carries the exchange's collective tag discipline.
#[allow(clippy::too_many_arguments)]
pub(crate) fn traversal_matvec_overlap<const DIM: usize, K, F, W>(
    elems: &[Octant<DIM>],
    owned: Range<usize>,
    curve: Curve,
    nodes: &NodeSet<DIM>,
    xg: &mut [f64],
    y: &mut [f64],
    ws: &mut TraversalWorkspace<DIM>,
    boundary_elem: &[bool],
    wait: W,
    make_kernel: &F,
) where
    K: LeafKernel<DIM>,
    F: Fn() -> K + Sync,
    W: FnOnce(&mut [f64]),
{
    assert_eq!(xg.len(), nodes.len());
    assert_eq!(y.len(), nodes.len());
    assert_eq!(boundary_elem.len(), elems.len());
    let _obs = carve_obs::scope("matvec");
    let ghost_wait = |xg: &mut [f64]| {
        let _w = carve_obs::scope("ghost_wait");
        wait(xg);
    };
    if elems.is_empty() || owned.is_empty() {
        ghost_wait(xg);
        return;
    }
    let env = Env::new(elems, owned, curve, nodes, true, ws.batch_width);
    let lp = leaf_plan(&env, nodes);
    let mut plan = split_root(&env, matvec_root(ws, nodes, xg), ws);
    let mut flags = std::mem::take(&mut ws.task_flags);
    flags.clear();
    flags.extend(
        plan.tasks
            .iter()
            .map(|t| task_touches_ghosts(t, &env.owned, boundary_elem)),
    );
    let make_visitor = || MatvecVisitor::new(make_kernel(), &lp);
    // Phase A: interior tasks, overlapping the exchange.
    let TaskPlan { root, tasks } = &mut plan;
    let mut pass: Vec<&mut Task<DIM>> = tasks
        .iter_mut()
        .zip(&flags)
        .filter_map(|(t, &b)| (!b).then_some(t))
        .collect();
    let workers_a = fork_join(
        &env,
        root.as_ref(),
        &mut pass,
        ws.threads,
        &mut ws.scratch,
        &make_visitor,
        || ghost_wait(&mut *xg),
        |_| {},
    );
    drop(pass);
    refresh_vin(&mut plan, xg, &flags);
    // Phase B: boundary tasks, against the refreshed input.
    let TaskPlan { root, tasks } = &mut plan;
    let mut pass: Vec<&mut Task<DIM>> = tasks
        .iter_mut()
        .zip(&flags)
        .filter_map(|(t, &b)| b.then_some(t))
        .collect();
    let workers_b = fork_join(
        &env,
        root.as_ref(),
        &mut pass,
        ws.threads,
        &mut ws.scratch,
        &make_visitor,
        || {},
        |_| {},
    );
    drop(pass);
    carve_obs::counter("par_workers", workers_a.max(workers_b) as u64);
    ws.task_flags = flags;
    finish_matvec(&mut plan, y);
    ws.release_plan(plan);
    ws.emit_arena_counters();
}

/// Seeds the root bucket (full node set + input vector) from the arena.
fn matvec_root<const DIM: usize>(
    ws: &mut TraversalWorkspace<DIM>,
    nodes: &NodeSet<DIM>,
    x: &[f64],
) -> Bucket<DIM> {
    let mut root = ws.acquire_bucket();
    root.coords.extend_from_slice(&nodes.coords);
    root.vin.extend_from_slice(x);
    root.vout.resize(nodes.len(), 0.0);
    root
}

/// Assembles the global sparse matrix via octree traversal (§3.6): node
/// *ids* are bucketed instead of values; at each leaf the elemental matrix
/// entries from `make_kernel()` (built once per worker) are emitted with
/// global indices into `sink` (duplicates merge by addition, the PETSc
/// `ADD_VALUES` contract). A [`CooBuilder`] sink gets the whole matrix, a
/// `Vec<f64>` sink only its diagonal. No bottom-up phase.
///
/// Per-task entry buffers drain into `sink` in SFC task order — each right
/// after its task on the inline path, all after the join on the threaded
/// one — so the sink sees one entry sequence, and a built CSR or
/// accumulated diagonal is bitwise identical, for any thread count.
#[allow(clippy::too_many_arguments)]
pub fn traversal_assemble<const DIM: usize, K, F, S>(
    elems: &[Octant<DIM>],
    owned: Range<usize>,
    curve: Curve,
    nodes: &NodeSet<DIM>,
    global_ids: &[u32],
    sink: &mut S,
    ws: &mut TraversalWorkspace<DIM>,
    make_kernel: &F,
) where
    K: AssemblyKernel<DIM>,
    F: Fn() -> K + Sync,
    S: AssemblySink,
{
    assert_eq!(global_ids.len(), nodes.len());
    if elems.is_empty() || owned.is_empty() {
        return;
    }
    let _obs = carve_obs::scope("assemble");
    let env = Env::new(elems, owned, curve, nodes, false, ws.batch_width);
    let npe = nodes_per_elem::<DIM>(env.p);
    let mut root = ws.acquire_bucket();
    root.coords.extend_from_slice(&nodes.coords);
    root.ids.extend_from_slice(global_ids);
    let mut plan = split_root(&env, root, ws);
    // Capacity hint for the triplet stream: `owned leaves × npe²`.
    let owned_leaves = env
        .owned
        .end
        .min(elems.len())
        .saturating_sub(env.owned.start);
    sink.reserve(owned_leaves * npe * npe);
    let TaskPlan { root, tasks } = &mut plan;
    let workers = fork_join(
        &env,
        root.as_ref(),
        tasks,
        ws.threads,
        &mut ws.scratch,
        &|| AssemblyVisitor::new(make_kernel(), env.p, S::DIAGONAL_ONLY),
        || {},
        |t| {
            for &(ri, cj, v) in t.out_log.iter() {
                sink.add(ri, cj, v);
            }
            t.out_log.clear();
        },
    );
    carve_obs::counter("par_workers", workers as u64);
    ws.release_plan(plan);
    ws.emit_arena_counters();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::construct_balanced;
    use crate::construct::{construct_boundary_refined, construct_uniform};
    use crate::nodes::enumerate_nodes;
    use carve_geom::{CarvedSolids, FullDomain, Sphere, Subdomain};
    use rand::{Rng, SeedableRng};

    /// A simple symmetric elemental "mass-like" kernel: K_e = h^DIM *
    /// (I + ones/npe), giving a well-defined global SPD operator.
    fn toy_kernel<const DIM: usize>(_p: u64) -> impl FnMut(&Octant<DIM>, &[f64], &mut [f64]) {
        move |e: &Octant<DIM>, u: &[f64], v: &mut [f64]| {
            let h = e.bounds_unit().1;
            let scale = h.powi(DIM as i32);
            let npe = u.len();
            let sum: f64 = u.iter().sum();
            for i in 0..npe {
                v[i] = scale * (u[i] + sum / npe as f64);
            }
        }
    }

    fn toy_matrix<const DIM: usize>(p: u64) -> impl FnMut(&Octant<DIM>) -> DenseMatrix {
        move |e: &Octant<DIM>| {
            let h = e.bounds_unit().1;
            let scale = h.powi(DIM as i32);
            let npe = nodes_per_elem::<DIM>(p);
            let mut m = DenseMatrix::zeros(npe, npe);
            for i in 0..npe {
                for j in 0..npe {
                    m[(i, j)] = scale * (if i == j { 1.0 } else { 0.0 } + 1.0 / npe as f64);
                }
            }
            m
        }
    }

    fn matvec_equals_assembled<const DIM: usize>(
        domain: &dyn Subdomain<DIM>,
        elems: &[Octant<DIM>],
        p: u64,
        curve: Curve,
        seed: u64,
    ) {
        let nodes = enumerate_nodes(domain, elems, p);
        let n = nodes.len();
        assert!(n > 0);
        let ids: Vec<u32> = (0..n as u32).collect();
        let mut coo = CooBuilder::new(n);
        traversal_assemble(
            elems,
            0..elems.len(),
            curve,
            &nodes,
            &ids,
            &mut coo,
            &mut TraversalWorkspace::with_threads(1),
            &|| toy_matrix::<DIM>(p),
        );
        let a = coo.build();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..3 {
            let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut y_mf = vec![0.0; n];
            traversal_matvec(
                elems,
                0..elems.len(),
                curve,
                &nodes,
                &x,
                &mut y_mf,
                &mut TraversalWorkspace::with_threads(1),
                &|| toy_kernel::<DIM>(p),
            );
            let mut y_as = vec![0.0; n];
            a.matvec(&x, &mut y_as);
            for (i, (a, b)) in y_mf.iter().zip(&y_as).enumerate() {
                assert!(
                    (a - b).abs() < 1e-11 * (1.0 + b.abs()),
                    "mismatch at node {i}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn matvec_matches_assembly_uniform_2d() {
        for p in [1u64, 2] {
            for curve in [Curve::Morton, Curve::Hilbert] {
                let elems = construct_uniform::<2>(&FullDomain, curve, 3);
                matvec_equals_assembled(&FullDomain, &elems, p, curve, 1);
            }
        }
    }

    #[test]
    fn matvec_matches_assembly_adaptive_carved_2d() {
        let domain = CarvedSolids::<2>::new(vec![Box::new(Sphere::new([0.5, 0.5], 0.28))]);
        for p in [1u64, 2] {
            for curve in [Curve::Morton, Curve::Hilbert] {
                let t = construct_boundary_refined(&domain, curve, 2, 5);
                let elems = construct_balanced(&domain, curve, &t);
                matvec_equals_assembled(&domain, &elems, p, curve, 7);
            }
        }
    }

    #[test]
    fn matvec_matches_assembly_adaptive_3d() {
        let domain = CarvedSolids::<3>::new(vec![Box::new(Sphere::new([0.5; 3], 0.3))]);
        for p in [1u64, 2] {
            let t = construct_boundary_refined(&domain, Curve::Hilbert, 2, 4);
            let elems = construct_balanced(&domain, Curve::Hilbert, &t);
            matvec_equals_assembled(&domain, &elems, p, Curve::Hilbert, 11);
        }
    }

    #[test]
    fn hanging_interpolation_preserves_constants() {
        // For a partition-of-unity kernel (mass-like), A·1 must equal the
        // row sums of the assembled matrix — and more fundamentally, the
        // hanging interpolation of a constant vector is the same constant.
        let domain = CarvedSolids::<2>::new(vec![Box::new(Sphere::new([0.3, 0.6], 0.2))]);
        let t = construct_boundary_refined(&domain, Curve::Morton, 2, 5);
        let elems = construct_balanced(&domain, Curve::Morton, &t);
        let nodes = enumerate_nodes(&domain, &elems, 1);
        let n = nodes.len();
        let ones = vec![1.0; n];
        let mut y = vec![0.0; n];
        // Kernel returning the input (identity on elemental nodes): the
        // output at each node is then Σ_elems (interp weights), and for a
        // constant input every elemental value must be exactly 1.
        let probe = |_e: &Octant<2>, u: &[f64], v: &mut [f64]| {
            for ui in u {
                assert!((ui - 1.0).abs() < 1e-13, "hanging interp broke constants");
            }
            v.copy_from_slice(u);
        };
        traversal_matvec(
            &elems,
            0..elems.len(),
            Curve::Morton,
            &nodes,
            &ones,
            &mut y,
            &mut TraversalWorkspace::with_threads(1),
            &|| probe,
        );
    }

    #[test]
    fn owned_subrange_sums_to_full() {
        // Splitting the element list into owned ranges and summing the
        // partial MATVECs must reproduce the full MATVEC (the distributed
        // decomposition property). The parts run first, on one node set:
        // each owned range must get a leaf plan of its own.
        let domain = CarvedSolids::<2>::new(vec![Box::new(Sphere::new([0.5, 0.5], 0.25))]);
        let t = construct_boundary_refined(&domain, Curve::Hilbert, 2, 4);
        let elems = construct_balanced(&domain, Curve::Hilbert, &t);
        let nodes = enumerate_nodes(&domain, &elems, 2);
        let n = nodes.len();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mid = elems.len() / 3;
        let mut y_parts = vec![0.0; n];
        for range in [0..mid, mid..elems.len()] {
            traversal_matvec(
                &elems,
                range,
                Curve::Hilbert,
                &nodes,
                &x,
                &mut y_parts,
                &mut TraversalWorkspace::with_threads(1),
                &|| toy_kernel::<2>(2),
            );
        }
        let mut y_full = vec![0.0; n];
        traversal_matvec(
            &elems,
            0..elems.len(),
            Curve::Hilbert,
            &nodes,
            &x,
            &mut y_full,
            &mut TraversalWorkspace::with_threads(1),
            &|| toy_kernel::<2>(2),
        );
        for (a, b) in y_full.iter().zip(&y_parts) {
            assert!((a - b).abs() < 1e-12 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn obs_phases_are_populated() {
        let _e = carve_obs::force_enabled();
        let elems = construct_uniform::<2>(&FullDomain, Curve::Morton, 4);
        let nodes = enumerate_nodes(&FullDomain, &elems, 1);
        let n = nodes.len();
        let x = vec![1.0; n];
        let mut y = vec![0.0; n];
        let before = carve_obs::thread_snapshot();
        traversal_matvec(
            &elems,
            0..elems.len(),
            Curve::Morton,
            &nodes,
            &x,
            &mut y,
            &mut TraversalWorkspace::with_threads(1),
            &|| toy_kernel::<2>(1),
        );
        let d = carve_obs::thread_snapshot().diff(&before);
        let leaf = &d.phases["matvec/leaf"];
        assert_eq!(leaf.calls, elems.len() as u64);
        assert_eq!(leaf.counters["leaves"], elems.len() as u64);
        // The merge-sweep runs once, in the plan record pass.
        let plan = &d.phases["matvec/plan"];
        assert_eq!(plan.calls, 1);
        assert_eq!(plan.counters["plans"], 1);
        assert!(plan.counters["slot_sweep_hits"] > 0);
        assert!(!leaf.counters.contains_key("slot_sweep_hits"));
        let td = &d.phases["matvec/top_down"];
        assert!(td.counters["node_copies"] > 0);
        assert_eq!(d.phases["matvec"].calls, 1);
        assert_eq!(d.phases["matvec"].counters["par_workers"], 1);
        assert!(d.phases["matvec"].counters["arena_alloc"] > 0);
        assert!(d.phases.contains_key("matvec/bottom_up"));
    }

    /// The overlap contract: `wait` runs exactly once on every path, and the
    /// output equals the plain traversal on the post-exchange vector — for
    /// an empty owned range and for all-interior, all-boundary and mixed
    /// task splits, inline and fork-joined.
    #[test]
    fn overlap_waits_once_and_matches_plain_matvec() {
        let domain = CarvedSolids::<2>::new(vec![Box::new(Sphere::new([0.5, 0.5], 0.28))]);
        let t = construct_boundary_refined(&domain, Curve::Hilbert, 2, 4);
        let elems = construct_balanced(&domain, Curve::Hilbert, &t);
        let p = 2u64;
        let nodes = enumerate_nodes(&domain, &elems, p);
        let n = nodes.len();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(41);
        let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        // The engine's tasks are the root's children: the mixed case flags
        // every element of the last one as boundary.
        let last = elems[elems.len() - 1].ancestor_at(1);
        let mixed: Vec<bool> = elems.iter().map(|e| e.ancestor_at(1) == last).collect();
        assert!(mixed.contains(&true) && mixed.contains(&false));
        let all = 0..elems.len();
        let cases = [
            ("empty", 0..0, vec![false; elems.len()]),
            ("interior", all.clone(), vec![false; elems.len()]),
            ("boundary", all.clone(), vec![true; elems.len()]),
            ("mixed", all, mixed),
        ];
        for (case, owned, boundary) in cases {
            let mut y_ref = vec![0.0; n];
            traversal_matvec(
                &elems,
                owned.clone(),
                Curve::Hilbert,
                &nodes,
                &x,
                &mut y_ref,
                &mut TraversalWorkspace::with_threads(1),
                &|| toy_kernel::<2>(p),
            );
            // Before the exchange lands, every node outside the interior
            // tasks' closed regions is stale (NaN): reading one before
            // `wait` would poison the output.
            let interior: Vec<Octant<2>> = elems
                .iter()
                .zip(&boundary)
                .filter(|(_, &b)| !b)
                .map(|(e, _)| e.ancestor_at(1))
                .collect();
            let in_closure = |o: &Octant<2>, c: &[u64; 2]| {
                let side = o.side() as u64 * p;
                o.anchor.iter().zip(c).all(|(&a, &ck)| {
                    let a = a as u64 * p;
                    a <= ck && ck <= a + side
                })
            };
            let stale: Vec<f64> = nodes
                .coords
                .iter()
                .zip(&x)
                .map(|(c, &v)| {
                    if interior.iter().any(|o| in_closure(o, c)) {
                        v
                    } else {
                        f64::NAN
                    }
                })
                .collect();
            for threads in [1usize, 4] {
                let waits = std::cell::Cell::new(0);
                let mut xg = stale.clone();
                let mut y = vec![0.0; n];
                traversal_matvec_overlap(
                    &elems,
                    owned.clone(),
                    Curve::Hilbert,
                    &nodes,
                    &mut xg,
                    &mut y,
                    &mut TraversalWorkspace::with_threads(threads),
                    &boundary,
                    |v: &mut [f64]| {
                        waits.set(waits.get() + 1);
                        v.copy_from_slice(&x);
                    },
                    &|| toy_kernel::<2>(p),
                );
                assert_eq!(waits.get(), 1, "case={case} threads={threads}");
                for (i, (a, b)) in y_ref.iter().zip(&y).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "case={case} threads={threads} node {i}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn matvec_bitwise_identical_across_thread_counts() {
        // The ISSUE's determinism property: an adaptive carved 3D mesh,
        // p ∈ {1, 2}, CARVE_PAR_THREADS ∈ {1, 2, 8} — outputs must agree
        // bit for bit, with each other AND with a single-thread workspace,
        // including on workspace reuse.
        let domain = CarvedSolids::<3>::new(vec![Box::new(Sphere::new([0.5; 3], 0.3))]);
        let t = construct_boundary_refined(&domain, Curve::Hilbert, 2, 4);
        let elems = construct_balanced(&domain, Curve::Hilbert, &t);
        for p in [1u64, 2] {
            let nodes = enumerate_nodes(&domain, &elems, p);
            let n = nodes.len();
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(17 + p);
            let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut y_ref = vec![0.0; n];
            traversal_matvec(
                &elems,
                0..elems.len(),
                Curve::Hilbert,
                &nodes,
                &x,
                &mut y_ref,
                &mut TraversalWorkspace::with_threads(1),
                &|| toy_kernel::<3>(p),
            );
            for threads in [1usize, 2, 8] {
                let mut ws = TraversalWorkspace::with_threads(threads);
                for round in 0..2 {
                    let mut y = vec![0.0; n];
                    traversal_matvec(
                        &elems,
                        0..elems.len(),
                        Curve::Hilbert,
                        &nodes,
                        &x,
                        &mut y,
                        &mut ws,
                        &|| toy_kernel::<3>(p),
                    );
                    for (i, (a, b)) in y_ref.iter().zip(&y).enumerate() {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "threads={threads} p={p} round={round} node {i}: {a} vs {b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn assembly_identical_across_thread_counts() {
        let domain = CarvedSolids::<2>::new(vec![Box::new(Sphere::new([0.5, 0.5], 0.28))]);
        let t = construct_boundary_refined(&domain, Curve::Hilbert, 2, 4);
        let elems = construct_balanced(&domain, Curve::Hilbert, &t);
        let p = 2u64;
        let nodes = enumerate_nodes(&domain, &elems, p);
        let n = nodes.len();
        let ids: Vec<u32> = (0..n as u32).collect();
        let build = |threads: usize| {
            let mut ws = TraversalWorkspace::with_threads(threads);
            let mut coo = CooBuilder::new(n);
            traversal_assemble(
                &elems,
                0..elems.len(),
                Curve::Hilbert,
                &nodes,
                &ids,
                &mut coo,
                &mut ws,
                &|| toy_matrix::<2>(p),
            );
            coo.build()
        };
        let a1 = build(1);
        for threads in [2usize, 8] {
            let at = build(threads);
            assert_eq!(a1.row_ptr, at.row_ptr, "threads={threads}");
            assert_eq!(a1.cols, at.cols, "threads={threads}");
            assert_eq!(a1.vals.len(), at.vals.len());
            for (i, (v1, vt)) in a1.vals.iter().zip(&at.vals).enumerate() {
                assert_eq!(v1.to_bits(), vt.to_bits(), "threads={threads} nz {i}");
            }
        }
    }

    /// Panel-capable twin of [`toy_kernel`]: the scalar apply is the same
    /// code, and the panel apply performs each element's additions in the
    /// same order over the SoA layout — so batched and scalar traversals
    /// must agree bit for bit.
    struct ToyBatchKernel<const DIM: usize>;

    impl<const DIM: usize> LeafKernel<DIM> for ToyBatchKernel<DIM> {
        fn apply(&mut self, e: &Octant<DIM>, u: &[f64], v: &mut [f64]) {
            let h = e.bounds_unit().1;
            let scale = h.powi(DIM as i32);
            let npe = u.len();
            let sum: f64 = u.iter().sum();
            for i in 0..npe {
                v[i] = scale * (u[i] + sum / npe as f64);
            }
        }

        fn supports_panels(&self) -> bool {
            true
        }

        fn apply_panel(&mut self, elems: &[Octant<DIM>], u: &[f64], v: &mut [f64]) {
            let batch = elems.len();
            let npe = u.len() / batch;
            let h = elems[0].bounds_unit().1;
            let scale = h.powi(DIM as i32);
            for b in 0..batch {
                let mut sum = 0.0;
                for lin in 0..npe {
                    sum += u[lin * batch + b];
                }
                for lin in 0..npe {
                    v[lin * batch + b] = scale * (u[lin * batch + b] + sum / npe as f64);
                }
            }
        }
    }

    /// Panel-capable twin of [`toy_matrix`] with a per-level matrix cache
    /// (the toy matrix depends on the octant only through `h`, i.e. level).
    struct ToyBatchMatrix<const DIM: usize> {
        p: u64,
        levels: Vec<Option<DenseMatrix>>,
    }

    impl<const DIM: usize> ToyBatchMatrix<DIM> {
        fn new(p: u64) -> Self {
            Self {
                p,
                levels: vec![None; carve_sfc::MAX_LEVEL as usize + 1],
            }
        }
    }

    impl<const DIM: usize> AssemblyKernel<DIM> for ToyBatchMatrix<DIM> {
        fn matrix(&mut self, e: &Octant<DIM>) -> DenseMatrix {
            toy_matrix::<DIM>(self.p)(e)
        }

        fn matrix_ref(&mut self, e: &Octant<DIM>) -> Option<&DenseMatrix> {
            let slot = &mut self.levels[e.level as usize];
            if slot.is_none() {
                *slot = Some(toy_matrix::<DIM>(self.p)(e));
            }
            slot.as_ref()
        }

        fn supports_panels(&self) -> bool {
            true
        }
    }

    fn check_batched_matvec_matrix<const DIM: usize>(domain: &dyn Subdomain<DIM>, seed: u64) {
        let t = construct_boundary_refined(domain, Curve::Hilbert, 2, 4);
        let elems = construct_balanced(domain, Curve::Hilbert, &t);
        // Node enumeration supports orders 1 and 2; p = 3 panel coverage
        // lives in carve-fem's batched-apply tests.
        for p in [1u64, 2] {
            let nodes = enumerate_nodes(domain, &elems, p);
            let n = nodes.len();
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed + p);
            let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut y_ref = vec![0.0; n];
            traversal_matvec(
                &elems,
                0..elems.len(),
                Curve::Hilbert,
                &nodes,
                &x,
                &mut y_ref,
                &mut TraversalWorkspace::with_threads(1),
                &|| toy_kernel::<DIM>(p),
            );
            for threads in [1usize, 2, 8] {
                for width in [1usize, 2, 3, 4, 8] {
                    let mut ws = TraversalWorkspace::with_threads(threads).with_batch_width(width);
                    for round in 0..2 {
                        let mut y = vec![0.0; n];
                        traversal_matvec(
                            &elems,
                            0..elems.len(),
                            Curve::Hilbert,
                            &nodes,
                            &x,
                            &mut y,
                            &mut ws,
                            &|| ToyBatchKernel::<DIM>,
                        );
                        for (i, (a, b)) in y_ref.iter().zip(&y).enumerate() {
                            assert_eq!(
                                a.to_bits(),
                                b.to_bits(),
                                "DIM={DIM} p={p} threads={threads} width={width} \
                                 round={round} node {i}: {a} vs {b}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn batched_matvec_bitwise_matches_scalar_2d() {
        let domain = CarvedSolids::<2>::new(vec![Box::new(Sphere::new([0.5, 0.5], 0.28))]);
        check_batched_matvec_matrix(&domain, 23);
    }

    #[test]
    fn batched_matvec_bitwise_matches_scalar_3d() {
        let domain = CarvedSolids::<3>::new(vec![Box::new(Sphere::new([0.5; 3], 0.3))]);
        check_batched_matvec_matrix(&domain, 31);
    }

    #[test]
    fn batched_assembly_bitwise_matches_scalar() {
        let domain = CarvedSolids::<2>::new(vec![Box::new(Sphere::new([0.5, 0.5], 0.28))]);
        let t = construct_boundary_refined(&domain, Curve::Hilbert, 2, 4);
        let elems = construct_balanced(&domain, Curve::Hilbert, &t);
        for p in [1u64, 2] {
            let nodes = enumerate_nodes(&domain, &elems, p);
            let n = nodes.len();
            let ids: Vec<u32> = (0..n as u32).collect();
            let mut coo = CooBuilder::new(n);
            traversal_assemble(
                &elems,
                0..elems.len(),
                Curve::Hilbert,
                &nodes,
                &ids,
                &mut coo,
                &mut TraversalWorkspace::with_threads(1),
                &|| toy_matrix::<2>(p),
            );
            let a_ref = coo.build();
            for threads in [1usize, 2, 8] {
                for width in [1usize, 4, 8] {
                    let mut ws = TraversalWorkspace::with_threads(threads).with_batch_width(width);
                    let mut coo = CooBuilder::new(n);
                    traversal_assemble(
                        &elems,
                        0..elems.len(),
                        Curve::Hilbert,
                        &nodes,
                        &ids,
                        &mut coo,
                        &mut ws,
                        &|| ToyBatchMatrix::<2>::new(p),
                    );
                    let a = coo.build();
                    assert_eq!(a_ref.row_ptr, a.row_ptr, "p={p} threads={threads}");
                    assert_eq!(a_ref.cols, a.cols, "p={p} threads={threads}");
                    for (i, (v1, v2)) in a_ref.vals.iter().zip(&a.vals).enumerate() {
                        assert_eq!(
                            v1.to_bits(),
                            v2.to_bits(),
                            "p={p} threads={threads} width={width} nz {i}"
                        );
                    }
                }
            }
        }
    }

    /// The diagonal sink equals the assembled CSR's diagonal up to
    /// summation order (hanging cross terms included) and is bitwise
    /// independent of thread count and batch width.
    fn check_diagonal_sink<const DIM: usize>(domain: &dyn Subdomain<DIM>) {
        let t = construct_boundary_refined(domain, Curve::Hilbert, 2, 4);
        let elems = construct_balanced(domain, Curve::Hilbert, &t);
        assert!(
            elems.iter().any(|e| e.level != elems[0].level),
            "mesh must be adaptive so leaves carry hanging slots"
        );
        for p in [1u64, 2] {
            let nodes = enumerate_nodes(domain, &elems, p);
            let n = nodes.len();
            let ids: Vec<u32> = (0..n as u32).collect();
            let mut coo = CooBuilder::new(n);
            traversal_assemble(
                &elems,
                0..elems.len(),
                Curve::Hilbert,
                &nodes,
                &ids,
                &mut coo,
                &mut TraversalWorkspace::with_threads(1),
                &|| toy_matrix::<DIM>(p),
            );
            let oracle = coo.build().diagonal();
            let mut d_ref = vec![0.0; n];
            traversal_assemble(
                &elems,
                0..elems.len(),
                Curve::Hilbert,
                &nodes,
                &ids,
                &mut d_ref,
                &mut TraversalWorkspace::with_threads(1),
                &|| toy_matrix::<DIM>(p),
            );
            for (i, (d, o)) in d_ref.iter().zip(&oracle).enumerate() {
                assert!(
                    (d - o).abs() <= 1e-13 * o.abs(),
                    "DIM={DIM} p={p} node {i}: diagonal sink {d} vs CSR {o}"
                );
            }
            for threads in [1usize, 4] {
                for width in [1usize, 8] {
                    let mut ws = TraversalWorkspace::with_threads(threads).with_batch_width(width);
                    let mut d = vec![0.0; n];
                    traversal_assemble(
                        &elems,
                        0..elems.len(),
                        Curve::Hilbert,
                        &nodes,
                        &ids,
                        &mut d,
                        &mut ws,
                        &|| ToyBatchMatrix::<DIM>::new(p),
                    );
                    for (i, (a, b)) in d_ref.iter().zip(&d).enumerate() {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "DIM={DIM} p={p} threads={threads} width={width} node {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn diagonal_sink_matches_csr_diagonal_2d() {
        let domain = CarvedSolids::<2>::new(vec![Box::new(Sphere::new([0.5, 0.5], 0.28))]);
        check_diagonal_sink(&domain);
    }

    #[test]
    fn diagonal_sink_matches_csr_diagonal_3d() {
        let domain = CarvedSolids::<3>::new(vec![Box::new(Sphere::new([0.5; 3], 0.3))]);
        check_diagonal_sink(&domain);
    }

    #[test]
    fn batched_counters_reconcile_with_leaf_total() {
        // On a uniform mesh with panels enabled, most leaves batch; the
        // batched/scalar split must account for every leaf exactly, and
        // disabling panels (width 1) must route everything scalar.
        let _e = carve_obs::force_enabled();
        let elems = construct_uniform::<2>(&FullDomain, Curve::Hilbert, 4);
        let nodes = enumerate_nodes(&FullDomain, &elems, 1);
        let n = nodes.len();
        let x = vec![1.0; n];
        let run = |width: usize| {
            let mut ws = TraversalWorkspace::with_threads(1).with_batch_width(width);
            let before = carve_obs::thread_snapshot();
            let mut y = vec![0.0; n];
            traversal_matvec(
                &elems,
                0..elems.len(),
                Curve::Hilbert,
                &nodes,
                &x,
                &mut y,
                &mut ws,
                &|| ToyBatchKernel::<2>,
            );
            carve_obs::thread_snapshot().diff(&before)
        };
        let d = run(4);
        let leaf = &d.phases["matvec/leaf"].counters;
        assert!(leaf["batched_leaves"] > 0, "no panels fired: {leaf:?}");
        assert!(leaf["batch_count"] > 0);
        assert_eq!(
            leaf["batched_leaves"] + leaf.get("scalar_leaves").copied().unwrap_or(0),
            leaf["leaves"],
            "batched + scalar must cover every leaf: {leaf:?}"
        );
        let d1 = run(1);
        let leaf1 = &d1.phases["matvec/leaf"].counters;
        assert!(!leaf1.contains_key("batched_leaves"), "{leaf1:?}");
        assert_eq!(leaf1["scalar_leaves"], leaf1["leaves"]);
    }

    #[test]
    fn workspace_reuse_allocates_no_new_buckets() {
        // Two consecutive matvecs through one workspace: the second must be
        // served entirely from the arena (`arena_alloc` absent, only
        // `arena_reuse`), for both the sequential and fork-join paths.
        let _e = carve_obs::force_enabled();
        let domain = CarvedSolids::<2>::new(vec![Box::new(Sphere::new([0.5, 0.5], 0.28))]);
        let t = construct_boundary_refined(&domain, Curve::Hilbert, 2, 4);
        let elems = construct_balanced(&domain, Curve::Hilbert, &t);
        let nodes = enumerate_nodes(&domain, &elems, 1);
        let n = nodes.len();
        let x = vec![1.0; n];
        for threads in [1usize, 4] {
            let mut ws = TraversalWorkspace::with_threads(threads);
            let run = |ws: &mut TraversalWorkspace<2>| {
                let before = carve_obs::thread_snapshot();
                let mut y = vec![0.0; n];
                traversal_matvec(
                    &elems,
                    0..elems.len(),
                    Curve::Hilbert,
                    &nodes,
                    &x,
                    &mut y,
                    ws,
                    &|| toy_kernel::<2>(1),
                );
                carve_obs::thread_snapshot().diff(&before)
            };
            let d1 = run(&mut ws);
            assert!(
                d1.phases["matvec"].counters["arena_alloc"] > 0,
                "cold workspace must allocate (threads={threads})"
            );
            let d2 = run(&mut ws);
            let c2 = &d2.phases["matvec"].counters;
            assert!(
                !c2.contains_key("arena_alloc"),
                "warm workspace allocated bucket vectors (threads={threads}): {c2:?}"
            );
            assert!(
                c2["arena_reuse"] > 0,
                "warm workspace must reuse the arena (threads={threads})"
            );
        }
    }
}
