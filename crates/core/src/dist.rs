//! Distributed incomplete-octree meshes: Algorithm 3
//! (`DistributedConstructConstrained`) plus ghost elements, node ownership,
//! ghost exchange, and the distributed traversal MATVEC.
//!
//! Partitioning only ever sees the *active* (retained) octants — the paper's
//! central load-balancing argument versus complete-tree frameworks — because
//! carved subtrees were pruned during construction and `DistTreeSort`
//! operates on whatever it is given.
//!
//! Node ownership uses a two-round broker protocol: every rank routes each
//! needed nodal coordinate to a deterministic *broker* rank (by SFC bin of
//! the coordinate's finest containing cell); brokers elect the minimum
//! requesting rank as owner and reply; a final round with the owners
//! assigns global DOF ids and builds the ghost send/recv plans. Ownership is
//! therefore derived from actual users, so every ghost node is guaranteed
//! to exist on its owner.

use crate::balance::bottom_up_constrain_neighbors;
use crate::construct::{construct_constrained, construct_uniform};
use crate::matvec::{traversal_matvec, traversal_matvec_overlap, TraversalWorkspace};
use crate::nodes::{
    elem_node_coord, enumerate_nodes, lattice_index, nodes_per_elem, resolve_slot, NodeSet, SlotRef,
};
use carve_comm::{
    dist_tree_sort, run_spmd_with, Comm, ExchangeHandle, ReduceOp, SpmdError, SpmdOptions,
};
use carve_geom::{RegionLabel, Subdomain};
use carve_la::{Reduce, SolveCheckpoint};
use carve_sfc::morton::{finest_cell_of_point, point_cmp_morton};
use carve_sfc::{sfc_cmp, Curve, Octant};
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Mutex;

/// Requested consistency of a distributed operation's output vector.
///
/// `Ghosted` finishes with the trailing owner→user ghost read, so every
/// rank ends up holding correct values for every node it can address.
/// `OwnedOnly` skips that round: owned entries are authoritative, ghost
/// entries are left zeroed by the accumulate. Krylov iterations want
/// `OwnedOnly` — their inner products mask to owned entries anyway (see
/// [`DistReduce`]), so each matvec saves a full exchange round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GhostState {
    OwnedOnly,
    Ghosted,
}

/// Per-rank ghost statistics (Fig. 11's raw data).
#[derive(Clone, Copy, Debug, Default)]
pub struct GhostStats {
    pub owned_nodes: usize,
    pub ghost_nodes: usize,
    pub owned_elems: usize,
    pub ghost_elems: usize,
    /// Bytes exchanged per ghost-read of one scalar field.
    pub ghost_read_bytes: u64,
    /// Ranks this rank exchanges ghost data with (send or receive lanes).
    pub neighbors: usize,
}

impl GhostStats {
    /// η = N_G / N_L (the ratio the paper shows behaves like 1/(p+1)).
    pub fn eta(&self) -> f64 {
        if self.owned_nodes == 0 {
            0.0
        } else {
            self.ghost_nodes as f64 / self.owned_nodes as f64
        }
    }
}

/// A distributed, 2:1-balanced incomplete-octree mesh on one rank.
pub struct DistMesh<const DIM: usize> {
    pub curve: Curve,
    pub order: u64,
    /// Owned + ghost elements, SFC-sorted; owned are the contiguous `owned`
    /// range (ghosts sort strictly before/after by the splitter property).
    pub elems: Vec<Octant<DIM>>,
    pub owned: Range<usize>,
    /// Per-element subdomain labels (aligned with `elems`).
    pub labels: Vec<RegionLabel>,
    /// Needed nodes (owned + ghost), point-Morton sorted.
    pub nodes: NodeSet<DIM>,
    /// Owning rank per node.
    pub owner: Vec<u32>,
    /// Global DOF id per node.
    pub global_id: Vec<u32>,
    pub n_owned_nodes: usize,
    pub n_global_dofs: usize,
    /// Persistent neighbor-sparse exchange built once from the send/recv
    /// plans (`send_plan[q]` = local indices of owned nodes rank `q` reads;
    /// `recv_plan[q]` = local indices of ghost nodes owned by `q`, ordered
    /// to match `q`'s send plan). `RefCell` because the exchange mutates
    /// its lane buffers while the mesh stays logically immutable; the
    /// communicator is per-rank single-threaded by design, so no exchange
    /// ever runs concurrently with another on the same mesh.
    pub(crate) exchange: RefCell<ExchangeHandle>,
    /// Per-element flag aligned with `elems`: `true` iff the element is
    /// owned and its stencil closure (direct or hanging) reads at least one
    /// ghost-owned node — i.e. it must wait for the ghost exchange in the
    /// overlapped matvec. Ghost elements are always `false`.
    pub boundary_elem: Vec<bool>,
}

/// Bin of an octant key among rank splitters: the largest rank whose
/// splitter is `<=` the key. Ranks without elements never win a bin.
pub fn splitter_bin<const DIM: usize>(
    splitters: &[Option<Octant<DIM>>],
    curve: Curve,
    key: &Octant<DIM>,
) -> usize {
    let mut bin = 0usize;
    for (r, s) in splitters.iter().enumerate() {
        if let Some(s) = s {
            if sfc_cmp(curve, s, key) != Ordering::Greater {
                bin = r;
            } else {
                break;
            }
        }
    }
    bin
}

/// SFC range of leaf-level keys covered by subtree `n`:
/// `[first_descendant, last_descendant]`.
pub fn descendant_key_range<const DIM: usize>(n: &Octant<DIM>) -> (Octant<DIM>, Octant<DIM>) {
    let first = Octant {
        anchor: n.anchor,
        level: carve_sfc::MAX_LEVEL,
    };
    let mut last_anchor = n.anchor;
    let side = n.side();
    for a in last_anchor.iter_mut() {
        *a += side - 1;
    }
    let last = Octant {
        anchor: last_anchor,
        level: carve_sfc::MAX_LEVEL,
    };
    (first, last)
}

impl<const DIM: usize> DistMesh<DIM> {
    /// Distributed mesh construction: Algorithm 4 over Algorithm 3, then
    /// ghost elements, nodal enumeration, ownership, and exchange plans.
    pub fn build(
        comm: &Comm,
        domain: &dyn Subdomain<DIM>,
        curve: Curve,
        base_level: u8,
        boundary_level: u8,
        order: u64,
    ) -> Self {
        // --- Local adaptive seed generation -----------------------------
        // Deterministic global adaptive refinement, sliced by rank: every
        // rank refines its slice of the base tree near the boundary.
        let base = construct_uniform(domain, curve, base_level);
        let p = comm.size();
        let r = comm.rank();
        let lo = r * base.len() / p;
        let hi = (r + 1) * base.len() / p;
        let mut local: Vec<Octant<DIM>> = base[lo..hi].to_vec();
        // Refine intercepted leaves to the boundary level (children pruned
        // when carved).
        let _obs = carve_obs::scope("refine");
        loop {
            let mut next = Vec::with_capacity(local.len());
            let mut changed = false;
            for oct in &local {
                if oct.level < boundary_level
                    && crate::construct::classify_octant(domain, oct) == RegionLabel::RetainBoundary
                {
                    changed = true;
                    for c in 0..(1usize << DIM) {
                        let ch = oct.child(c);
                        if crate::construct::classify_octant(domain, &ch) != RegionLabel::Carved {
                            next.push(ch);
                        }
                    }
                } else {
                    next.push(*oct);
                }
            }
            local = next;
            if !changed {
                break;
            }
        }
        drop(_obs);
        Self::build_from_seeds(comm, domain, curve, local, order)
    }

    /// Algorithm 4 distributed: balance the given distributed seed leaves
    /// and build the mesh.
    pub fn build_from_seeds(
        comm: &Comm,
        domain: &dyn Subdomain<DIM>,
        curve: Curve,
        local_seeds: Vec<Octant<DIM>>,
        order: u64,
    ) -> Self {
        // T1 = DistributedConstructConstrained(seeds)
        let t1 = dist_construct_constrained(comm, domain, curve, local_seeds);
        // T2 = BottomUpConstrainNeighbors(T1)   (F not applied)
        let t2 = bottom_up_constrain_neighbors(&t1);
        // T3 = DistributedConstructConstrained(T2)
        let owned_elems = dist_construct_constrained(comm, domain, curve, t2);
        Self::finish(comm, domain, curve, owned_elems, order)
    }

    /// Ghost elements + nodes + ownership for an already-partitioned,
    /// balanced owned-element list.
    pub fn finish(
        comm: &Comm,
        domain: &dyn Subdomain<DIM>,
        curve: Curve,
        owned_elems: Vec<Octant<DIM>>,
        order: u64,
    ) -> Self {
        let my = comm.rank();
        let splitters: Vec<Option<Octant<DIM>>> = comm.all_gather(owned_elems.first().copied());

        // --- Ghost element exchange --------------------------------------
        let (elems, owned) = exchange_ghost_layer(comm, curve, &owned_elems, &splitters);

        // --- Nodes --------------------------------------------------------
        let nodes = needed_node_set(domain, &elems, owned.clone(), order);

        // --- Ownership, global ids, exchange plans -------------------------
        // The full (all-coords) broker protocol: the incremental patch path
        // uses the interior fast path instead, which is provably identical.
        let own = node_ownership_plans(comm, curve, &splitters, &nodes, false);

        // --- Interior/boundary element split ------------------------------
        let boundary_elem = boundary_elem_flags(&elems, owned.clone(), &nodes, &own.owner, my);

        let labels = elems
            .iter()
            .map(|e| crate::construct::classify_octant(domain, e))
            .collect();
        DistMesh {
            curve,
            order,
            elems,
            owned,
            labels,
            nodes,
            owner: own.owner,
            global_id: own.global_id,
            n_owned_nodes: own.n_owned_nodes,
            n_global_dofs: own.n_global_dofs,
            exchange: RefCell::new(ExchangeHandle::new(&own.send_plan, &own.recv_plan)),
            boundary_elem,
        }
    }

    pub fn num_owned_elems(&self) -> usize {
        self.owned.len()
    }

    /// Resident bytes of this mesh's MATVEC leaf plan (DESIGN.md §6j),
    /// recording the plan first if no MATVEC has yet.
    pub fn leaf_plan_bytes(&self) -> usize {
        crate::matvec::leaf_plan_bytes(&self.elems, self.owned.clone(), self.curve, &self.nodes)
    }

    /// Refreshes ghost node entries of `values` from their owners through
    /// the persistent neighbor-sparse exchange (recycled lane buffers, only
    /// actual neighbors). Returns bytes sent by this rank. A 1-rank mesh is
    /// a zero-comm fast path: no tag tick, no messages, no obs phase.
    pub fn ghost_read(&self, comm: &Comm, values: &mut [f64]) -> u64 {
        if comm.size() == 1 {
            return 0;
        }
        let _obs = carve_obs::scope("ghost_read");
        self.exchange.borrow_mut().read(comm, values)
    }

    /// Sends ghost partial sums to their owners and adds them there; ghost
    /// entries are zeroed locally (their authoritative value now lives at
    /// the owner). Same neighbor-sparse path and 1-rank fast path as
    /// [`Self::ghost_read`].
    pub fn ghost_accumulate(&self, comm: &Comm, values: &mut [f64]) -> u64 {
        if comm.size() == 1 {
            return 0;
        }
        let _obs = carve_obs::scope("ghost_accumulate");
        self.exchange.borrow_mut().accumulate(comm, values)
    }

    /// Distributed MATVEC `y = A x` on local vectors (indexed like
    /// `self.nodes`): post the ghost-read of `x`, run the interior subtree
    /// tasks on up to `ws.threads()` workers *while this thread waits on the
    /// exchange* (`matvec/ghost_wait`), run the boundary tasks after the
    /// payloads land, ghost-accumulate `y`, and — for
    /// [`GhostState::Ghosted`] — finish with a ghost-read of `y` so every
    /// rank holds consistent values. `OwnedOnly` skips that trailing read,
    /// the right choice inside Krylov loops. `make_kernel` builds one
    /// elemental kernel per worker; the ghosted input lives in the
    /// caller-held workspace, so repeated applies allocate nothing. Output
    /// is bitwise identical for any thread count. Phase timings report
    /// through `carve-obs`.
    pub fn matvec_par<K, F>(
        &self,
        comm: &Comm,
        x: &[f64],
        y: &mut [f64],
        ws: &mut TraversalWorkspace<DIM>,
        ghost: GhostState,
        make_kernel: &F,
    ) where
        K: crate::matvec::LeafKernel<DIM>,
        F: Fn() -> K + Sync,
    {
        let mut xg = ws.take_ghost_scratch();
        xg.clear();
        xg.extend_from_slice(x);
        y.iter_mut().for_each(|v| *v = 0.0);
        if comm.size() == 1 {
            // Zero-comm fast path: no exchange posted, no tag ticked.
            traversal_matvec(
                &self.elems,
                self.owned.clone(),
                self.curve,
                &self.nodes,
                &xg,
                y,
                ws,
                make_kernel,
            );
            ws.restore_ghost_scratch(xg);
            return;
        }
        {
            let mut ex = self.exchange.borrow_mut();
            let pending = {
                let _obs = carve_obs::scope("ghost_read");
                ex.post_read(comm, &xg)
            };
            let wait = move |v: &mut [f64]| {
                ex.wait_read(comm, pending, v);
            };
            traversal_matvec_overlap(
                &self.elems,
                self.owned.clone(),
                self.curve,
                &self.nodes,
                &mut xg,
                y,
                ws,
                &self.boundary_elem,
                wait,
                make_kernel,
            );
        }
        ws.restore_ghost_scratch(xg);
        self.ghost_accumulate(comm, y);
        if matches!(ghost, GhostState::Ghosted) {
            self.ghost_read(comm, y);
        }
    }

    /// A [`Reduce`] backend over this mesh's node ownership: hand it to
    /// `cg_with` / `bicgstab_with` so each batch of inner products rides
    /// one fused all-reduce.
    pub fn reducer<'a>(&'a self, comm: &'a Comm) -> DistReduce<'a> {
        DistReduce {
            comm,
            owner: &self.owner,
        }
    }

    /// Ghost statistics for Fig. 11.
    pub fn ghost_stats(&self) -> GhostStats {
        let ghost_nodes = self.nodes.len() - self.n_owned_nodes;
        GhostStats {
            owned_nodes: self.n_owned_nodes,
            ghost_nodes,
            owned_elems: self.owned.len(),
            ghost_elems: self.elems.len() - self.owned.len(),
            ghost_read_bytes: self.exchange.borrow().read_bytes(),
            neighbors: self.exchange.borrow().neighbor_count(),
        }
    }
}

/// Distributed [`Reduce`] backend: each batch of inner products is computed
/// as owned-masked partial sums and globally summed with **one** fused
/// all-reduce message per batch (`all_reduce_f64_many`), instead of one
/// blocking reduction per dot/norm. Batches of more than one pair bump the
/// `reductions_fused` obs counter by the number of messages saved.
pub struct DistReduce<'a> {
    comm: &'a Comm,
    /// Owning rank per local node (ghost entries are skipped in the partial
    /// sums so every value is counted exactly once cluster-wide).
    owner: &'a [u32],
}

impl Reduce for DistReduce<'_> {
    fn dots(&self, pairs: &[(&[f64], &[f64])], out: &mut [f64]) {
        let my = self.comm.rank() as u32;
        for (o, (u, v)) in out.iter_mut().zip(pairs) {
            debug_assert_eq!(u.len(), self.owner.len());
            debug_assert_eq!(v.len(), self.owner.len());
            *o = u
                .iter()
                .zip(v.iter())
                .zip(self.owner)
                .filter(|&(_, &ow)| ow == my)
                .map(|((a, b), _)| a * b)
                .sum();
        }
        let global = self.comm.all_reduce_f64_many(out, ReduceOp::Sum);
        out.copy_from_slice(&global);
        if pairs.len() > 1 {
            carve_obs::counter("reductions_fused", (pairs.len() - 1) as u64);
        }
    }
}

/// Adds `reductions_fused` accounting to any [`Reduce`] backend that lacks
/// it: every multi-pair batch bumps the counter by the rounds it saved over
/// issuing one reduction per pair, exactly like [`DistReduce`] does
/// natively. The serving engine's single-rank multigrid path wraps
/// [`carve_la::LocalReduce`] with this so the fusion discipline of the
/// preconditioned cycle shows up in the obs report (and in the
/// seed-determinism gate) even when no communicator is involved.
///
/// Do **not** wrap [`DistReduce`] — it already counts, and the wrapper
/// would double-bump.
pub struct FusedReduce<'a, R: Reduce + ?Sized>(pub &'a R);

impl<R: Reduce + ?Sized> Reduce for FusedReduce<'_, R> {
    fn dots(&self, pairs: &[(&[f64], &[f64])], out: &mut [f64]) {
        self.0.dots(pairs, out);
        if pairs.len() > 1 {
            carve_obs::counter("reductions_fused", (pairs.len() - 1) as u64);
        }
    }
}

// --- Solve supervision: cross-attempt checkpoints + retrying SPMD driver ---

/// Per-rank [`SolveCheckpoint`] slots that outlive SPMD attempts: the rank
/// threads of a killed cluster die, but snapshots flushed here (via
/// `Checkpointer::with_sink`) survive for the supervisor's next attempt.
///
/// Restart consistency: each rank restores its *own* latest snapshot. Under
/// an asynchronous abort, ranks can be one iteration apart in what they
/// managed to flush; a Krylov restart from mixed-iteration owned values is
/// still just a fresh solve from a valid initial guess (ghost values are
/// re-read from owners on the first matvec), so correctness never depends
/// on snapshot alignment. Callers that also need a *deterministic* retry
/// trajectory (the bench recovery stage) arrange the kill away from a
/// checkpoint-cadence boundary, which pins every rank's latest flushed
/// snapshot to the same iteration.
pub struct CheckpointStore {
    slots: Mutex<Vec<Option<SolveCheckpoint>>>,
}

impl CheckpointStore {
    pub fn new(nranks: usize) -> Self {
        CheckpointStore {
            slots: Mutex::new(vec![None; nranks]),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Option<SolveCheckpoint>>> {
        self.slots.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Saves `rank`'s latest snapshot (overwrites the previous one).
    pub fn save(&self, rank: usize, ckpt: &SolveCheckpoint) {
        self.lock()[rank] = Some(ckpt.clone());
    }

    /// This rank's latest surviving snapshot, if any attempt got far enough
    /// to flush one.
    pub fn load(&self, rank: usize) -> Option<SolveCheckpoint> {
        self.lock()[rank].clone()
    }

    /// Number of ranks holding a snapshot.
    pub fn saved_count(&self) -> usize {
        self.lock().iter().filter(|s| s.is_some()).count()
    }

    /// Drops all snapshots (e.g. between independent solves).
    pub fn clear(&self) {
        for slot in self.lock().iter_mut() {
            *slot = None;
        }
    }
}

/// Runs an SPMD solve under a retry policy: on [`SpmdError`] (rank kill,
/// watchdog timeout, contained panic) the cluster is relaunched up to
/// `max_retries` times, with the rank closure told which attempt it is on
/// so it can restore from a [`CheckpointStore`]. A deterministic fault-plan
/// kill is stripped before the first retry — the killed node has been
/// "replaced" — while ambient delay/loss probabilities stay in force, so
/// retries are exercised under the same chaos that killed the first run.
///
/// Each retry is recorded on the supervising thread under the
/// `recovery/retry` obs phase (counter `solve_retries`); rank closures are
/// expected to record their restores under `recovery/restore`.
pub fn supervise_spmd<R, F>(
    nranks: usize,
    mut opts: SpmdOptions,
    max_retries: usize,
    f: F,
) -> Result<Vec<R>, SpmdError>
where
    R: Send,
    F: Fn(&Comm, usize) -> R + Send + Sync,
{
    let mut attempt = 0usize;
    loop {
        let fref = &f;
        match run_spmd_with(nranks, opts.clone(), move |c| fref(c, attempt)) {
            Ok(v) => return Ok(v),
            Err(err) => {
                if attempt >= max_retries {
                    return Err(err);
                }
                let _recovery = carve_obs::scope("recovery");
                let _retry = carve_obs::scope("retry");
                carve_obs::counter("solve_retries", 1);
                if let Some(fault) = &mut opts.fault {
                    fault.kill = None;
                }
                attempt += 1;
            }
        }
    }
}

/// Ghost-element exchange: the region-request protocol shared by
/// [`DistMesh::finish`], the distributed balance fixpoint, and the
/// incremental adapt patch. Request regions are the same-level neighbors of
/// each owned element and of its ancestors up to three levels (covers
/// hanging-source chains); owners reply with every owned element overlapping
/// a requested region. Returns the merged, SFC-sorted `(elems, owned)` pair
/// with the owned elements occupying the contiguous `owned` range.
pub(crate) fn exchange_ghost_layer<const DIM: usize>(
    comm: &Comm,
    curve: Curve,
    owned_elems: &[Octant<DIM>],
    splitters: &[Option<Octant<DIM>>],
) -> (Vec<Octant<DIM>>, Range<usize>) {
    let p = comm.size();
    let my = comm.rank();
    let _obs = carve_obs::scope("ghost_elems");
    let mut regions: Vec<Octant<DIM>> = Vec::new();
    for e in owned_elems {
        let mut a = *e;
        for _ in 0..4 {
            regions.push(a);
            for n in a.neighbors() {
                regions.push(n);
            }
            if a.level == 0 {
                break;
            }
            a = a.parent();
        }
    }
    carve_sfc::treesort(&mut regions, curve);
    regions.dedup();
    // Route each region to the rank bins covering its descendant range.
    let mut requests: Vec<Vec<Octant<DIM>>> = (0..p).map(|_| Vec::new()).collect();
    for n in &regions {
        let (first, last) = descendant_key_range(n);
        let b0 = splitter_bin(splitters, curve, &first);
        let b1 = splitter_bin(splitters, curve, &last);
        for (b, lane) in requests.iter_mut().enumerate().take(b1 + 1).skip(b0) {
            if b != my {
                lane.push(*n);
            }
        }
    }
    let incoming = comm.all_to_allv(requests);
    // Reply with owned elements overlapping any requested region.
    let mut replies: Vec<Vec<Octant<DIM>>> = (0..p).map(|_| Vec::new()).collect();
    for (q, regs) in incoming.iter().enumerate() {
        if regs.is_empty() {
            continue;
        }
        for e in owned_elems {
            if regs.iter().any(|n| {
                n.is_ancestor_or_self(e) || e.is_ancestor_or_self(n) || e.closed_regions_touch(n)
            }) {
                replies[q].push(*e);
            }
        }
    }
    let ghost_in = comm.all_to_allv(replies);
    let mut elems = owned_elems.to_vec();
    for v in ghost_in {
        elems.extend(v);
    }
    carve_sfc::treesort(&mut elems, curve);
    elems.dedup();
    // Owned range within the merged list.
    let owned_start = elems
        .iter()
        .position(|e| Some(e) == owned_elems.first())
        .unwrap_or(0);
    let owned = owned_start..owned_start + owned_elems.len();
    debug_assert_eq!(&elems[owned.clone()], owned_elems);
    (elems, owned)
}

/// Enumerates nodes over `elems` and filters down to the *needed* set:
/// coords referenced by owned elements directly or via hanging stencils.
pub(crate) fn needed_node_set<const DIM: usize>(
    domain: &dyn Subdomain<DIM>,
    elems: &[Octant<DIM>],
    owned: Range<usize>,
    order: u64,
) -> NodeSet<DIM> {
    let full_nodes = enumerate_nodes(domain, elems, order);
    let mut needed = vec![false; full_nodes.len()];
    let npe = nodes_per_elem::<DIM>(order);
    for e in &elems[owned] {
        for lin in 0..npe {
            let idx = lattice_index::<DIM>(lin, order);
            let c = elem_node_coord(e, order, &idx);
            match resolve_slot(&full_nodes, e, &c) {
                SlotRef::Direct(i) => needed[i] = true,
                SlotRef::Hanging(st) => {
                    for (i, _) in st {
                        needed[i] = true;
                    }
                }
            }
        }
    }
    let mut coords = Vec::new();
    let mut flags = Vec::new();
    for (i, &need) in needed.iter().enumerate() {
        if need {
            coords.push(full_nodes.coords[i]);
            flags.push(full_nodes.flags[i]);
        }
    }
    NodeSet {
        order,
        coords,
        flags,
        plan: Default::default(),
    }
}

/// Everything the broker protocol decides for a node set.
pub(crate) struct OwnershipPlans {
    pub owner: Vec<u32>,
    pub global_id: Vec<u32>,
    pub n_owned_nodes: usize,
    pub n_global_dofs: usize,
    pub send_plan: Vec<Vec<u32>>,
    pub recv_plan: Vec<Vec<u32>>,
}

/// Node ownership election + global DOF ids + ghost exchange plans.
///
/// With `fast_interior` set, a node whose adjacent finest cells *all* bin to
/// this rank is owned locally without any broker traffic: such a node's
/// broker is this rank (its primary cell bins here) and no other rank can
/// use it (any user's element covers one of the adjacent cells, and an
/// element covering a cell binned here is owned here — SFC subtree intervals
/// are contiguous), so the full protocol would elect this rank anyway.
/// Only *surface* nodes ride the two broker rounds, which is what makes the
/// incremental adapt patch O(partition surface) in node traffic instead of
/// O(volume). The elected owners and ids are bitwise identical either way.
pub(crate) fn node_ownership_plans<const DIM: usize>(
    comm: &Comm,
    curve: Curve,
    splitters: &[Option<Octant<DIM>>],
    nodes: &NodeSet<DIM>,
    fast_interior: bool,
) -> OwnershipPlans {
    let p = comm.size();
    let my = comm.rank();
    let order = nodes.order;
    let _obs = carve_obs::scope("ownership");
    // Broker of a coord = splitter bin of its finest containing cell.
    let broker_of = |c: &[u64; DIM]| -> usize {
        let mut pt = [0u64; DIM];
        for k in 0..DIM {
            pt[k] = c[k] / order;
        }
        splitter_bin(splitters, curve, &finest_cell_of_point(&pt))
    };
    // Interior classification: every adjacent finest cell bins to this rank.
    // Every user of a coord computes the same verdict from the shared
    // splitters, so the broker rounds below stay globally consistent.
    let is_interior = |c: &[u64; DIM]| -> bool {
        let mut pt = [0u64; DIM];
        for k in 0..DIM {
            pt[k] = c[k] / order;
        }
        adjacent_cells_of_node(&pt)
            .iter()
            .all(|cell| splitter_bin(splitters, curve, cell) == my)
    };
    let surface: Vec<bool> = if fast_interior {
        let s: Vec<bool> = nodes.coords.iter().map(|c| !is_interior(c)).collect();
        let n_surface = s.iter().filter(|&&x| x).count();
        carve_obs::counter("nodes_interior_fast", (s.len() - n_surface) as u64);
        carve_obs::counter("nodes_brokered", n_surface as u64);
        s
    } else {
        vec![true; nodes.len()]
    };
    let mut to_broker: Vec<Vec<[u64; DIM]>> = (0..p).map(|_| Vec::new()).collect();
    for (c, &surf) in nodes.coords.iter().zip(&surface) {
        if surf {
            to_broker[broker_of(c)].push(*c);
        }
    }
    let broker_in = comm.all_to_allv(to_broker);
    // Elect owners: the broker rank itself when it is a user of the
    // node (the natural SFC owner — the broker is the rank whose
    // splitter range contains the node's cell), otherwise the minimum
    // requesting rank.
    let mut owner_map: HashMap<[u64; DIM], u32> = HashMap::new();
    for (q, cs) in broker_in.iter().enumerate() {
        for c in cs {
            if q == my {
                owner_map.insert(*c, my as u32);
            } else {
                owner_map
                    .entry(*c)
                    .and_modify(|o| {
                        if *o != my as u32 {
                            *o = (*o).min(q as u32)
                        }
                    })
                    .or_insert(q as u32);
            }
        }
    }
    // Reply to each requester with owners, in request order.
    let replies: Vec<Vec<u32>> = broker_in
        .iter()
        .map(|cs| cs.iter().map(|c| owner_map[c]).collect())
        .collect();
    let owner_replies = comm.all_to_allv(replies);
    // Scatter owner ranks back to node order (interior nodes are this
    // rank's without a round trip).
    let mut owner = vec![u32::MAX; nodes.len()];
    {
        let mut cursors = vec![0usize; p];
        for (i, c) in nodes.coords.iter().enumerate() {
            if !surface[i] {
                owner[i] = my as u32;
                continue;
            }
            let b = broker_of(c);
            owner[i] = owner_replies[b][cursors[b]];
            cursors[b] += 1;
        }
    }

    // --- Global ids ----------------------------------------------------
    let n_owned_nodes = owner.iter().filter(|&&o| o == my as u32).count();
    let offset = comm.exscan_u64(n_owned_nodes as u64) as u32;
    let n_global_dofs =
        comm.all_reduce_u64(n_owned_nodes as u64, carve_comm::ReduceOp::Sum) as usize;
    let mut global_id = vec![u32::MAX; nodes.len()];
    {
        let mut next = offset;
        for i in 0..nodes.len() {
            if owner[i] == my as u32 {
                global_id[i] = next;
                next += 1;
            }
        }
    }
    // Ghosts: request ids from owners.
    let mut ghost_req: Vec<Vec<[u64; DIM]>> = (0..p).map(|_| Vec::new()).collect();
    let mut ghost_req_idx: Vec<Vec<u32>> = (0..p).map(|_| Vec::new()).collect();
    for (i, &ow) in owner.iter().enumerate() {
        let o = ow as usize;
        if o != my {
            ghost_req[o].push(nodes.coords[i]);
            ghost_req_idx[o].push(i as u32);
        }
    }
    let req_in = comm.all_to_allv(ghost_req);
    // Owners answer with global ids and record send plans.
    let mut send_plan: Vec<Vec<u32>> = (0..p).map(|_| Vec::new()).collect();
    let mut id_replies: Vec<Vec<u32>> = (0..p).map(|_| Vec::new()).collect();
    for (q, cs) in req_in.iter().enumerate() {
        for c in cs {
            let li = nodes
                .coords
                .binary_search_by(|x| point_cmp_morton(x, c))
                // A structured protocol error aborts the whole cluster;
                // a bare panic here used to deadlock the other ranks
                // inside the next all_to_allv.
                .unwrap_or_else(|_| {
                    comm.protocol_error(format!(
                        "owner rank {my} missing requested node {c:?} (broker routed a node to a non-user)"
                    ))
                });
            debug_assert_eq!(owner[li], my as u32, "request routed to non-owner");
            send_plan[q].push(li as u32);
            id_replies[q].push(global_id[li]);
        }
    }
    let id_in = comm.all_to_allv(id_replies);
    for q in 0..p {
        for (slot, &gid) in ghost_req_idx[q].iter().zip(&id_in[q]) {
            global_id[*slot as usize] = gid;
        }
    }
    let recv_plan = ghost_req_idx;
    debug_assert!(global_id.iter().all(|&g| g != u32::MAX));
    OwnershipPlans {
        owner,
        global_id,
        n_owned_nodes,
        n_global_dofs,
        send_plan,
        recv_plan,
    }
}

/// The finest-level cells adjacent to cell point `pt` (up to `2^DIM`): the
/// point's own finest cell plus every down-nudged combination along the
/// axes. Nudges below the low edge are skipped; points on the high edge
/// clamp inward inside `finest_cell_of_point`, so high-boundary duplicates
/// collapse onto real cells.
pub(crate) fn adjacent_cells_of_node<const DIM: usize>(pt: &[u64; DIM]) -> Vec<Octant<DIM>> {
    let mut cells = Vec::with_capacity(1 << DIM);
    'combo: for combo in 0..(1usize << DIM) {
        let mut pt2 = *pt;
        for (k, v) in pt2.iter_mut().enumerate() {
            if (combo >> k) & 1 == 1 {
                if *v == 0 {
                    continue 'combo;
                }
                *v -= 1;
            }
        }
        cells.push(finest_cell_of_point(&pt2));
    }
    cells
}

/// Flags owned elements whose stencil closure (direct or hanging) reads at
/// least one ghost-owned node — they must wait for the ghost exchange in
/// the overlapped matvec. Ghost elements are always `false`.
pub(crate) fn boundary_elem_flags<const DIM: usize>(
    elems: &[Octant<DIM>],
    owned: Range<usize>,
    nodes: &NodeSet<DIM>,
    owner: &[u32],
    my: usize,
) -> Vec<bool> {
    let npe = nodes_per_elem::<DIM>(nodes.order);
    let mut boundary_elem = vec![false; elems.len()];
    for (ei, e) in elems.iter().enumerate() {
        if !owned.contains(&ei) {
            continue;
        }
        'lattice: for lin in 0..npe {
            let idx = lattice_index::<DIM>(lin, nodes.order);
            let c = elem_node_coord(e, nodes.order, &idx);
            match resolve_slot(nodes, e, &c) {
                SlotRef::Direct(i) => {
                    if owner[i] != my as u32 {
                        boundary_elem[ei] = true;
                        break 'lattice;
                    }
                }
                SlotRef::Hanging(st) => {
                    for (i, _) in st {
                        if owner[i] != my as u32 {
                            boundary_elem[ei] = true;
                            break 'lattice;
                        }
                    }
                }
            }
        }
    }
    boundary_elem
}

/// Algorithm 3 — `DistributedConstructConstrained`: sorts/partitions the
/// seeds, constructs each rank's constrained tree, then globally sorts,
/// dedups, and resolves overlaps keeping finer octants.
pub fn dist_construct_constrained<const DIM: usize>(
    comm: &Comm,
    domain: &dyn Subdomain<DIM>,
    curve: Curve,
    local_seeds: Vec<Octant<DIM>>,
) -> Vec<Octant<DIM>> {
    let seeds = dist_tree_sort(comm, local_seeds, curve);
    // Graceful incompleteness (§3.5): a rank left without seeds (more ranks
    // than octants) must still join every collective, but running Algorithm 2
    // with zero constraints would emit the root octant and shadow-cover the
    // whole domain; it contributes nothing instead.
    let t_tmp = if seeds.is_empty() {
        Vec::new()
    } else {
        construct_constrained(domain, curve, &seeds)
    };
    dist_tree_sort(comm, t_tmp, curve)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::Mesh;
    use carve_comm::run_spmd;
    use carve_geom::{CarvedSolids, FullDomain, RetainBox, Sphere};
    use rand::{Rng, SeedableRng};

    fn sphere_domain_2d() -> CarvedSolids<2> {
        CarvedSolids::new(vec![Box::new(Sphere::new([0.5, 0.5], 0.28))])
    }

    #[test]
    fn dist_construction_matches_sequential_union() {
        for p in [1usize, 2, 4] {
            let union: Vec<Octant<2>> = run_spmd(p, |c| {
                let domain = sphere_domain_2d();
                let m = DistMesh::<2>::build(c, &domain, Curve::Hilbert, 3, 5, 1);
                m.elems[m.owned.clone()].to_vec()
            })
            .into_iter()
            .flatten()
            .collect();
            let domain = sphere_domain_2d();
            let seq = Mesh::build(&domain, Curve::Hilbert, 3, 5, 1);
            assert_eq!(union, seq.elems, "p={p}");
        }
    }

    #[test]
    fn dist_global_dof_count_matches_sequential() {
        for p in [1usize, 3] {
            let counts: Vec<usize> = run_spmd(p, |c| {
                let domain = sphere_domain_2d();
                let m = DistMesh::<2>::build(c, &domain, Curve::Morton, 3, 5, 2);
                m.n_global_dofs
            });
            let domain = sphere_domain_2d();
            let seq = Mesh::build(&domain, Curve::Morton, 3, 5, 2);
            for n in counts {
                assert_eq!(n, seq.num_dofs(), "p={p}");
            }
        }
    }

    fn toy_kernel<const DIM: usize>() -> impl FnMut(&Octant<DIM>, &[f64], &mut [f64]) {
        |e: &Octant<DIM>, u: &[f64], v: &mut [f64]| {
            let h = e.bounds_unit().1;
            let scale = h.powi(DIM as i32);
            let npe = u.len();
            let sum: f64 = u.iter().sum();
            for i in 0..npe {
                v[i] = scale * (2.0 * u[i] + sum / npe as f64);
            }
        }
    }

    fn check_dist_matvec(p: usize, order: u64, curve: Curve) {
        // Sequential reference.
        let domain = sphere_domain_2d();
        let seq = Mesh::build(&domain, curve, 3, 5, order);
        let n = seq.num_dofs();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(17);
        let x_global: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut y_ref = vec![0.0; n];
        traversal_matvec(
            &seq.elems,
            0..seq.elems.len(),
            curve,
            &seq.nodes,
            &x_global,
            &mut y_ref,
            &mut TraversalWorkspace::new(),
            &toy_kernel::<2>,
        );
        // Distributed: global ids on the distributed side must map onto the
        // sequential node order for comparison; both sides sort nodes by
        // point-Morton, and owned ranges follow rank order, so the global id
        // ordering is a permutation we can recover via coordinates.
        let results: Vec<Vec<([u64; 2], f64)>> = run_spmd(p, |c| {
            let domain = sphere_domain_2d();
            let m = DistMesh::<2>::build(c, &domain, curve, 3, 5, order);
            // Fill x from the same global field by coordinate lookup.
            let seq_nodes = &m.nodes;
            let x_local: Vec<f64> = (0..seq_nodes.len())
                .map(|i| {
                    // deterministic pseudo-random keyed by coordinate
                    let c = seq_nodes.coords[i];
                    let h = c[0].wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(c[1]);
                    ((h >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
                })
                .collect();
            let mut y = vec![0.0; x_local.len()];
            m.matvec_par(
                c,
                &x_local,
                &mut y,
                &mut TraversalWorkspace::new(),
                GhostState::Ghosted,
                &toy_kernel::<2>,
            );
            // Report owned node results keyed by coordinate.
            (0..m.nodes.len())
                .filter(|&i| m.owner[i] as usize == c.rank())
                .map(|i| (m.nodes.coords[i], y[i]))
                .collect()
        });
        // Rebuild the same coordinate-keyed input on the sequential mesh.
        let x_keyed: Vec<f64> = (0..n)
            .map(|i| {
                let c = seq.nodes.coords[i];
                let h = c[0].wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(c[1]);
                ((h >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            })
            .collect();
        let mut y_keyed = vec![0.0; n];
        traversal_matvec(
            &seq.elems,
            0..seq.elems.len(),
            curve,
            &seq.nodes,
            &x_keyed,
            &mut y_keyed,
            &mut TraversalWorkspace::new(),
            &toy_kernel::<2>,
        );
        let mut seen = 0;
        for per_rank in &results {
            for (coord, val) in per_rank {
                let i = seq.nodes.find(coord).expect("dist node exists in seq");
                assert!(
                    (val - y_keyed[i]).abs() < 1e-11 * (1.0 + y_keyed[i].abs()),
                    "p={p} order={order} coord {coord:?}: {val} vs {}",
                    y_keyed[i]
                );
                seen += 1;
            }
        }
        assert_eq!(seen, n, "every global DOF owned exactly once");
    }

    #[test]
    fn dist_matvec_matches_sequential_linear() {
        for p in [2usize, 3] {
            check_dist_matvec(p, 1, Curve::Hilbert);
        }
    }

    #[test]
    fn dist_matvec_matches_sequential_quadratic() {
        check_dist_matvec(2, 2, Curve::Morton);
        check_dist_matvec(4, 2, Curve::Hilbert);
    }

    #[test]
    fn ghost_read_then_accumulate_roundtrip() {
        let p = 3;
        let sums: Vec<f64> = run_spmd(p, |c| {
            let domain = RetainBox::<2>::channel([1.0, 0.5]);
            let m = DistMesh::<2>::build(c, &domain, Curve::Morton, 3, 3, 1);
            // Set every owned node to 1, ghosts to 0; read makes ghosts 1;
            // accumulate-of-ones then gives each owned node (1 + #users).
            let mut v: Vec<f64> = (0..m.nodes.len())
                .map(|i| {
                    if m.owner[i] as usize == c.rank() {
                        1.0
                    } else {
                        0.0
                    }
                })
                .collect();
            m.ghost_read(c, &mut v);
            assert!(v.iter().all(|&x| (x - 1.0).abs() < 1e-15));
            m.ghost_accumulate(c, &mut v);
            // Sum over owned nodes of v  = n_owned + total ghost instances.
            (0..m.nodes.len())
                .filter(|&i| m.owner[i] as usize == c.rank())
                .map(|i| v[i])
                .sum()
        });
        let total: f64 = sums.iter().sum();
        assert!(total > 0.0);
    }

    #[test]
    fn zero_octant_rank_participates_gracefully() {
        // Graceful incompleteness (§3.5): more ranks than elements. A level-1
        // uniform 2D mesh has 4 elements; over 5 ranks at least one rank owns
        // nothing, yet construction and both ghost exchanges must complete
        // without deadlock and the global mesh must stay intact.
        let p = 5;
        let results: Vec<(usize, usize, f64)> = run_spmd(p, |c| {
            let domain = FullDomain;
            let m = DistMesh::<2>::build(c, &domain, Curve::Morton, 1, 1, 1);
            let mut v: Vec<f64> = (0..m.nodes.len())
                .map(|i| {
                    if m.owner[i] as usize == c.rank() {
                        1.0
                    } else {
                        0.0
                    }
                })
                .collect();
            m.ghost_read(c, &mut v);
            m.ghost_accumulate(c, &mut v);
            let owned_sum: f64 = (0..m.nodes.len())
                .filter(|&i| m.owner[i] as usize == c.rank())
                .map(|i| v[i])
                .sum();
            (m.num_owned_elems(), m.n_global_dofs, owned_sum)
        });
        let total_elems: usize = results.iter().map(|r| r.0).sum();
        assert_eq!(total_elems, 4, "{results:?}");
        assert!(
            results.iter().any(|r| r.0 == 0),
            "at least one rank must own zero octants: {results:?}"
        );
        // Level-1 uniform 2D grid has 3x3 nodes, and every rank agrees.
        for (_, ndofs, owned_sum) in &results {
            assert_eq!(*ndofs, 9, "{results:?}");
            assert!(owned_sum.is_finite());
        }
    }

    #[test]
    fn chaos_schedule_leaves_dist_construction_and_ghosts_exact() {
        // Hostile delivery schedules (delays, reorders, duplicated collective
        // payloads) must not change a single bit of the distributed build or
        // the ghost exchanges.
        use carve_comm::{run_spmd_with, FaultPlan, SpmdOptions};
        let p = 4;
        let run = |fault: Option<FaultPlan>| -> Vec<(Vec<Octant<2>>, usize, Vec<f64>)> {
            let mut opts = SpmdOptions::default().timeout(std::time::Duration::from_secs(20));
            opts.fault = fault;
            run_spmd_with(p, opts, |c| {
                let domain = sphere_domain_2d();
                let m = DistMesh::<2>::build(c, &domain, Curve::Hilbert, 3, 5, 1);
                let mut v: Vec<f64> = (0..m.nodes.len())
                    .map(|i| {
                        if m.owner[i] as usize == c.rank() {
                            1.0
                        } else {
                            0.0
                        }
                    })
                    .collect();
                m.ghost_read(c, &mut v);
                m.ghost_accumulate(c, &mut v);
                let owned: Vec<f64> = (0..m.nodes.len())
                    .filter(|&i| m.owner[i] as usize == c.rank())
                    .map(|i| v[i])
                    .collect();
                (m.elems[m.owned.clone()].to_vec(), m.n_global_dofs, owned)
            })
            .expect("chaos schedule must not break the run")
        };
        let clean = run(None);
        for seed in [3u64, 271] {
            assert_eq!(run(Some(FaultPlan::chaos(seed))), clean, "seed {seed}");
        }
    }

    #[test]
    fn killed_rank_during_dist_build_is_reported_not_deadlocked() {
        // A rank dying inside dist_construct_constrained's collectives must
        // surface as a structured error naming it — the survivors unwind on
        // the abort flag instead of waiting on a dead peer.
        use carve_comm::{run_spmd_with, FaultPlan, SpmdOptions};
        let opts = SpmdOptions::with_fault(FaultPlan::kill_rank(1, 2))
            .timeout(std::time::Duration::from_secs(20));
        let err = run_spmd_with(3, opts, |c| {
            let domain = sphere_domain_2d();
            DistMesh::<2>::build(c, &domain, Curve::Morton, 3, 5, 1).n_global_dofs
        })
        .expect_err("killed rank must fail the build");
        assert_eq!(err.failed_ranks(), vec![1], "{err}");
    }

    #[test]
    fn ghost_stats_reasonable() {
        let p = 4;
        let stats: Vec<GhostStats> = run_spmd(p, |c| {
            let domain = FullDomain;
            let m = DistMesh::<2>::build(c, &domain, Curve::Hilbert, 4, 4, 1);
            m.ghost_stats()
        });
        let owned_total: usize = stats.iter().map(|s| s.owned_nodes).sum();
        assert_eq!(owned_total, 17 * 17); // level-4 uniform 2D grid
                                          // Under SFC ownership the rank at the domain's max corner may own
                                          // every node it touches; but most ranks must carry ghosts.
        let with_ghosts = stats.iter().filter(|s| s.ghost_nodes > 0).count();
        assert!(with_ghosts >= p - 1, "stats {stats:?}");
        for s in &stats {
            assert!(s.eta() < 1.0, "eta should be far from the 1-elem limit");
        }
    }

    /// Coordinate-keyed pseudo-random field, identical across ranks for any
    /// node the ranks share (same recipe as `check_dist_matvec`).
    fn keyed_field<const DIM: usize>(m: &DistMesh<DIM>) -> Vec<f64> {
        (0..m.nodes.len())
            .map(|i| {
                let c = m.nodes.coords[i];
                let h = c.iter().fold(0u64, |acc, &v| {
                    acc.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(v)
                });
                ((h >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn overlapped_matvec_bitwise_identical_across_threads() {
        // The interior/boundary overlap split (sequential and fork-join, any
        // worker count, cold and warm workspaces) must reproduce the plain
        // distributed MATVEC bit for bit.
        let p = 3;
        let splits: Vec<(usize, usize)> = run_spmd(p, |c| {
            let domain = sphere_domain_2d();
            let m = DistMesh::<2>::build(c, &domain, Curve::Hilbert, 3, 5, 2);
            let x = keyed_field(&m);
            let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|f| f.to_bits()).collect() };
            let mut ws = TraversalWorkspace::with_threads(1);
            let mut y_ref = vec![0.0; x.len()];
            m.matvec_par(
                c,
                &x,
                &mut y_ref,
                &mut ws,
                GhostState::OwnedOnly,
                &toy_kernel::<2>,
            );
            let mut y_warm = vec![0.0; x.len()];
            m.matvec_par(
                c,
                &x,
                &mut y_warm,
                &mut ws,
                GhostState::OwnedOnly,
                &toy_kernel::<2>,
            );
            assert_eq!(bits(&y_ref), bits(&y_warm), "warm matvec drifted");
            let mk = || toy_kernel::<2>();
            for t in [1usize, 2, 8] {
                let mut wst = TraversalWorkspace::with_threads(t);
                for pass in 0..2 {
                    let mut y = vec![0.0; x.len()];
                    m.matvec_par(c, &x, &mut y, &mut wst, GhostState::OwnedOnly, &mk);
                    assert_eq!(
                        bits(&y_ref),
                        bits(&y),
                        "threads={t} pass={pass} rank={}",
                        c.rank()
                    );
                }
            }
            let nb = m.owned.clone().filter(|&ei| m.boundary_elem[ei]).count();
            (m.num_owned_elems() - nb, nb)
        });
        // The split must be non-trivial somewhere: interior work is what the
        // overlap hides latency behind, boundary work is what exercises the
        // deferred ghost path.
        assert!(splits.iter().any(|&(int, _)| int > 0), "{splits:?}");
        assert!(splits.iter().any(|&(_, bnd)| bnd > 0), "{splits:?}");
    }

    #[test]
    fn overlapped_matvec_unchanged_under_chaos_delay_and_reorder() {
        // Seeded delay/reorder/duplication in the transport must not move a
        // bit of the overlapped fork-join MATVEC: the interior phase never
        // touches in-flight data and the wait point is a hard barrier.
        use carve_comm::{run_spmd_with, FaultPlan, SpmdOptions};
        let p = 4;
        let run = |fault: Option<FaultPlan>| -> Vec<Vec<([u64; 2], u64)>> {
            let mut opts = SpmdOptions::default().timeout(std::time::Duration::from_secs(20));
            opts.fault = fault;
            run_spmd_with(p, opts, |c| {
                let domain = sphere_domain_2d();
                let m = DistMesh::<2>::build(c, &domain, Curve::Hilbert, 3, 5, 1);
                let x = keyed_field(&m);
                let mut ws = TraversalWorkspace::with_threads(4);
                let mut y = vec![0.0; x.len()];
                let mk = || toy_kernel::<2>();
                m.matvec_par(c, &x, &mut y, &mut ws, GhostState::Ghosted, &mk);
                (0..m.nodes.len())
                    .filter(|&i| m.owner[i] as usize == c.rank())
                    .map(|i| (m.nodes.coords[i], y[i].to_bits()))
                    .collect()
            })
            .expect("chaos schedule must not break the overlapped matvec")
        };
        let clean = run(None);
        for seed in [11u64, 97] {
            assert_eq!(run(Some(FaultPlan::chaos(seed))), clean, "seed {seed}");
        }
    }

    #[test]
    fn single_rank_matvec_and_ghost_ops_are_zero_comm() {
        // On one rank every ghost path must collapse to a no-op: no message,
        // no tag tick, no exchange round — the traversal runs directly on the
        // caller's vector copied into the workspace scratch.
        run_spmd(1, |c| {
            let domain = sphere_domain_2d();
            let m = DistMesh::<2>::build(c, &domain, Curve::Morton, 3, 5, 2);
            let before = c.stats().messages;
            let x = keyed_field(&m);
            let mut y = vec![0.0; x.len()];
            let mut ws = TraversalWorkspace::with_threads(2);
            m.matvec_par(
                c,
                &x,
                &mut y,
                &mut ws,
                GhostState::Ghosted,
                &toy_kernel::<2>,
            );
            assert!(y.iter().all(|v| v.is_finite()));
            let mk = || toy_kernel::<2>();
            m.matvec_par(c, &x, &mut y, &mut ws, GhostState::Ghosted, &mk);
            let mut v = x.clone();
            assert_eq!(m.ghost_read(c, &mut v), 0);
            assert_eq!(m.ghost_accumulate(c, &mut v), 0);
            assert_eq!(
                c.stats().messages,
                before,
                "1-rank fast path must send nothing"
            );
        });
    }

    #[test]
    fn dist_cg_with_fused_reducer_converges() {
        // End-to-end Krylov stack: `cg_with` over the overlapped OwnedOnly
        // MATVEC and the mesh's `DistReduce` (owned-masked partials, one
        // fused all-reduce per batch). Every rank must agree on the iteration
        // trajectory and the distributed residual must actually be small.
        use carve_la::{cg_with, IdentityPrecond};
        let p = 3;
        let results: Vec<(bool, usize, f64, f64)> = run_spmd(p, |c| {
            let domain = sphere_domain_2d();
            let m = DistMesh::<2>::build(c, &domain, Curve::Hilbert, 3, 4, 1);
            let n = m.nodes.len();
            let b = keyed_field(&m);
            let ws = std::cell::RefCell::new(TraversalWorkspace::with_threads(1));
            let op = (n, |xv: &[f64], yv: &mut [f64]| {
                m.matvec_par(
                    c,
                    xv,
                    yv,
                    &mut ws.borrow_mut(),
                    GhostState::OwnedOnly,
                    &toy_kernel::<2>,
                );
            });
            let mut x = vec![0.0; n];
            let rd = m.reducer(c);
            let res = cg_with(&op, &b, &mut x, &IdentityPrecond, 1e-10, 0.0, 500, &rd);
            // Independent residual check through the distributed operator.
            let mut ax = vec![0.0; n];
            m.matvec_par(
                c,
                &x,
                &mut ax,
                &mut ws.borrow_mut(),
                GhostState::OwnedOnly,
                &toy_kernel::<2>,
            );
            let r: Vec<f64> = b.iter().zip(&ax).map(|(bi, ai)| bi - ai).collect();
            let mut out = [0.0; 2];
            rd.dots(&[(&r, &r), (&b, &b)], &mut out);
            (res.converged, res.iterations, out[0].sqrt(), out[1].sqrt())
        });
        let it0 = results[0].1;
        for (converged, iters, rn, bn) in &results {
            assert!(*converged, "{results:?}");
            assert_eq!(*iters, it0, "ranks disagreed on the CG trajectory");
            assert!(*bn > 0.0);
            assert!(rn <= &(1e-8 * bn), "residual {rn} vs rhs norm {bn}");
        }
    }

    #[test]
    fn supervised_solve_with_rank_kill_recovers_from_checkpoint() {
        // The acceptance property of the recovery stack: a distributed CG
        // whose cluster loses one rank mid-solve is relaunched by the
        // supervisor, restores from the surviving checkpoints, and converges
        // to the same answer as the uninterrupted solve — doing *fewer*
        // iterations on the retry than a from-scratch solve would.
        use carve_la::{cg_checkpointed, Checkpointer, IdentityPrecond};
        use std::sync::Arc;

        let p = 3;
        // Rank closure: distributed CG over the traversal matvec, snapshot
        // every 5 iterations into the cross-attempt store, restore on retry.
        let solve = |c: &Comm, attempt: usize, store: &CheckpointStore| {
            let domain = sphere_domain_2d();
            let m = DistMesh::<2>::build(c, &domain, Curve::Hilbert, 3, 4, 1);
            let n = m.nodes.len();
            let b = keyed_field(&m);
            let ws = std::cell::RefCell::new(TraversalWorkspace::with_threads(1));
            let op = (n, |xv: &[f64], yv: &mut [f64]| {
                m.matvec_par(
                    c,
                    xv,
                    yv,
                    &mut ws.borrow_mut(),
                    GhostState::OwnedOnly,
                    &toy_kernel::<2>,
                );
            });
            let rank = c.rank();
            let mut x = vec![0.0; n];
            let mut ck = Checkpointer::new(5)
                .with_sink(|snap: &carve_la::SolveCheckpoint| store.save(rank, snap));
            if attempt > 0 {
                if let Some(snap) = store.load(rank) {
                    let _restore = carve_obs::scope("recovery");
                    let _r2 = carve_obs::scope("restore");
                    carve_obs::counter("ranks_restored", 1);
                    x.copy_from_slice(&snap.x);
                    ck = Checkpointer::new(5)
                        .with_sink(|snap: &carve_la::SolveCheckpoint| store.save(rank, snap))
                        .resume_from(&snap);
                }
            }
            let rd = m.reducer(c);
            let res = cg_checkpointed(
                &op,
                &b,
                &mut x,
                &IdentityPrecond,
                1e-10,
                0.0,
                500,
                &rd,
                &mut ck,
            );
            let owned: Vec<f64> = x
                .iter()
                .zip(&m.owner)
                .filter(|&(_, &ow)| ow == c.rank() as u32)
                .map(|(v, _)| *v)
                .collect();
            (res.converged, res.iterations, owned)
        };

        // Uninterrupted reference (also measures ops to place the kill).
        let probe_store = CheckpointStore::new(p);
        let probe = run_spmd(p, |c| {
            let ops_before = c.op_count();
            let out = solve(c, 0, &probe_store);
            (ops_before, c.op_count(), out)
        });
        let full_iters = probe[0].2 .1;
        let x_full: Vec<Vec<f64>> = probe.iter().map(|(_, _, o)| o.2.clone()).collect();
        assert!(probe[0].2 .0, "reference solve converged");
        assert!(full_iters > 12, "need room for a mid-solve kill");

        // Kill rank 1 roughly 60% through its solve ops: past checkpoint
        // iteration 10, before the end.
        let (ops_lo, ops_hi) = (probe[1].0, probe[1].1);
        let kill_at = ops_lo + (ops_hi - ops_lo) * 6 / 10;

        let store = Arc::new(CheckpointStore::new(p));
        let opts = SpmdOptions {
            fault: Some(carve_comm::FaultPlan::kill_rank(1, kill_at)),
            ..SpmdOptions::default()
        };
        let results = {
            let store = Arc::clone(&store);
            supervise_spmd(p, opts, 2, move |c, attempt| solve(c, attempt, &store))
        }
        .expect("supervisor must recover the solve");

        for (r, (converged, iters, owned)) in results.iter().enumerate() {
            assert!(*converged, "rank {r} converged after recovery");
            // The retry restored mid-solve state: it must finish in fewer
            // iterations than the full solve took.
            assert!(
                *iters < full_iters,
                "rank {r}: retry took {iters} vs full {full_iters} — checkpoint not used"
            );
            assert_eq!(owned.len(), x_full[r].len(), "rank {r} owned layout");
            let scale = x_full[r].iter().map(|v| v.abs()).fold(1.0f64, f64::max);
            for (a, b) in owned.iter().zip(&x_full[r]) {
                assert!(
                    (a - b).abs() <= 1e-7 * scale,
                    "rank {r}: {a} vs {b} after recovery"
                );
            }
        }
        assert_eq!(store.saved_count(), p, "every rank checkpointed");
    }

    #[test]
    fn warm_dist_matvec_reuses_ghost_scratch_allocation() {
        // The ghosted input buffer lives in the workspace; a warm second
        // apply must reuse the exact allocation (no per-apply `to_vec`).
        run_spmd(2, |c| {
            let domain = sphere_domain_2d();
            let m = DistMesh::<2>::build(c, &domain, Curve::Hilbert, 3, 4, 1);
            let x = keyed_field(&m);
            let mut y = vec![0.0; x.len()];
            let mut ws = TraversalWorkspace::with_threads(1);
            m.matvec_par(
                c,
                &x,
                &mut y,
                &mut ws,
                GhostState::OwnedOnly,
                &toy_kernel::<2>,
            );
            let s = ws.take_ghost_scratch();
            let (ptr, cap) = (s.as_ptr() as usize, s.capacity());
            assert!(cap >= x.len());
            ws.restore_ghost_scratch(s);
            m.matvec_par(
                c,
                &x,
                &mut y,
                &mut ws,
                GhostState::OwnedOnly,
                &toy_kernel::<2>,
            );
            let s = ws.take_ghost_scratch();
            assert_eq!(
                s.as_ptr() as usize,
                ptr,
                "warm apply must not reallocate the ghosted input"
            );
            assert_eq!(s.capacity(), cap);
            ws.restore_ghost_scratch(s);
        });
    }

    /// Back-to-back served solves: the same warm workspace *and* the same
    /// [`carve_la::KrylovScratch`] pool must hand back the identical buffer
    /// allocations on the second solve (the serving path's repeat-request
    /// contract), and the scratch-backed solve must be bitwise identical to
    /// the allocating one.
    #[test]
    fn warm_back_to_back_solves_reuse_krylov_scratch() {
        run_spmd(2, |c| {
            let domain = sphere_domain_2d();
            let m = DistMesh::<2>::build(c, &domain, Curve::Hilbert, 3, 4, 1);
            let b = keyed_field(&m);
            let n = m.nodes.len();
            let ws_cell = std::cell::RefCell::new(TraversalWorkspace::with_threads(1));
            let op = (n, |xv: &[f64], yv: &mut [f64]| {
                m.matvec_par(
                    c,
                    xv,
                    yv,
                    &mut ws_cell.borrow_mut(),
                    GhostState::OwnedOnly,
                    &toy_kernel::<2>,
                );
            });
            let rd = m.reducer(c);

            let mut x_fresh = vec![0.0; n];
            carve_la::cg_with(
                &op,
                &b,
                &mut x_fresh,
                &carve_la::IdentityPrecond,
                0.0,
                0.0,
                6,
                &rd,
            );

            let mut scratch = carve_la::KrylovScratch::new();
            let mut first: Option<Vec<usize>> = None;
            for round in 0..2 {
                let mut x = vec![0.0; n];
                carve_la::cg_with_scratch(
                    &op,
                    &b,
                    &mut x,
                    &carve_la::IdentityPrecond,
                    0.0,
                    0.0,
                    6,
                    &rd,
                    &mut scratch,
                );
                for (a, bb) in x.iter().zip(&x_fresh) {
                    assert_eq!(a.to_bits(), bb.to_bits(), "scratch solve drifted");
                }
                assert_eq!(scratch.pooled(), 4, "r/z/p/Ap parked between solves");
                // Drain/restore to read the pooled addresses in LIFO order.
                let bufs: Vec<Vec<f64>> = (0..4).map(|_| scratch.take(n)).collect();
                let ptrs: Vec<usize> = bufs.iter().map(|v| v.as_ptr() as usize).collect();
                for v in bufs.into_iter().rev() {
                    scratch.put(v);
                }
                match &first {
                    None => first = Some(ptrs),
                    Some(p0) => assert_eq!(
                        &ptrs, p0,
                        "round {round}: warm solve must reuse the exact Krylov buffers"
                    ),
                }
            }
        });
    }
}
