//! Manufactured, consistent right-hand sides and the checks every solve
//! and point read must pass.
//!
//! The served operator is the pure-Neumann stiffness matrix `K`: singular,
//! with the constants as its null space. A source that is not in `K`'s
//! range makes CG diverge once it is asked for a real tolerance, so every
//! right-hand side here is manufactured as `b = K·u_ref` from a seeded
//! reference field `u_ref`. Such a `b` is consistent by construction, and
//! a correct solve returns `u_ref` up to an additive constant.
//!
//! `u_ref` is a linear function plus small seeded nodal noise. The linear
//! part is reproduced exactly by the finite-element space (hanging nodes
//! included), so a point read of the solved field must return the linear
//! function up to the interpolated noise, and a read that found no
//! covering leaf (value `0.0`) is far off and fails.

use carve_comm::{Comm, ReduceOp};
use carve_core::{DistMesh, GhostState, TraversalWorkspace};
use carve_fem::poisson::StiffnessKernel;

/// Offset of the linear part: keeps every true value near 10, far from
/// the `0.0` a missed point read returns.
const OFFSET: f64 = 10.0;

/// Amplitude of the nodal noise on top of the linear part.
pub const NOISE: f64 = 0.05;

/// Largest admissible `|read - linear(q)|` of a point read: the nodal
/// noise times a bound on the Lebesgue constant of the tensor Lagrange
/// basis (below 2 for p ≤ 2 in 3-D), with margin.
pub const EVAL_TOL: f64 = 4.0 * NOISE;

/// splitmix64: a small, well-mixed seeded generator for inputs.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded reference field `u_ref = linear + noise`.
#[derive(Clone, Debug)]
pub struct Manufactured<const DIM: usize> {
    seed: u64,
    grad: [f64; DIM],
}

impl<const DIM: usize> Manufactured<DIM> {
    /// Gradient components with magnitudes in `[0.5, 1.5)` and seeded
    /// signs, so every seed gives a problem of the same difficulty.
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let mut grad = [0.0; DIM];
        for g in &mut grad {
            let mag = 0.5 + rng.unit();
            *g = if rng.next_u64() & 1 == 0 { mag } else { -mag };
        }
        Manufactured { seed, grad }
    }

    /// The linear part at unit-cube point `x`: what a point read returns.
    pub fn linear(&self, x: &[f64; DIM]) -> f64 {
        OFFSET
            + self
                .grad
                .iter()
                .zip(x)
                .map(|(g, xi)| g * (xi - 0.5))
                .sum::<f64>()
    }

    /// `u_ref` at every local node. The noise is keyed by the node's
    /// lattice coordinates, so owners and ghosts agree and the field does
    /// not depend on how the mesh is partitioned.
    pub fn field(&self, dm: &DistMesh<DIM>) -> Vec<f64> {
        (0..dm.nodes.len())
            .map(|i| {
                let key = dm.nodes.coords[i]
                    .iter()
                    .fold(self.seed, |h, &c| mix(h ^ c));
                let noise = (mix(key) >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
                self.linear(&dm.nodes.unit_coords(i)) + NOISE * noise
            })
            .collect()
    }
}

/// `b = K·u_ref` through the traversal MATVEC, owned rows only (the
/// Krylov contract of the served solve).
pub fn consistent_rhs<const DIM: usize>(
    comm: &Comm,
    dm: &DistMesh<DIM>,
    scale: f64,
    u_ref: &[f64],
    ws: &mut TraversalWorkspace<DIM>,
) -> Vec<f64> {
    let p = dm.order as usize;
    let mut b = vec![0.0; u_ref.len()];
    dm.matvec_par(comm, u_ref, &mut b, ws, GhostState::OwnedOnly, &|| {
        StiffnessKernel::<DIM>::new(p, scale)
    });
    b
}

/// Moves `x` onto `u_ref`'s representative of the null space — adds the
/// global mean of `u_ref - x` over owned nodes — and returns the largest
/// remaining nodal error relative to `max |u_ref|`. Collective.
pub fn align_and_error<const DIM: usize>(
    comm: &Comm,
    dm: &DistMesh<DIM>,
    x: &mut [f64],
    u_ref: &[f64],
) -> f64 {
    let me = comm.rank() as u32;
    let owned = |i: &usize| dm.owner[*i] == me;
    let (mut sum, mut count) = (0.0, 0.0);
    for i in (0..x.len()).filter(owned) {
        sum += u_ref[i] - x[i];
        count += 1.0;
    }
    let tot = comm.all_reduce_f64_many(&[sum, count], ReduceOp::Sum);
    let shift = tot[0] / tot[1];
    x.iter_mut().for_each(|v| *v += shift);
    let (mut err, mut mag) = (0.0f64, 0.0f64);
    for i in (0..x.len()).filter(owned) {
        err = err.max((x[i] - u_ref[i]).abs());
        mag = mag.max(u_ref[i].abs());
    }
    let m = comm.all_reduce_f64_many(&[err, mag], ReduceOp::Max);
    m[0] / m[1]
}

/// How many point reads miss the linear part by more than [`EVAL_TOL`]:
/// wrong values and reads that found no covering leaf alike.
pub fn bad_reads<const DIM: usize>(
    mf: &Manufactured<DIM>,
    pts: &[[f64; DIM]],
    vals: &[f64],
) -> usize {
    pts.iter()
        .zip(vals)
        .filter(|(q, v)| {
            let dev = (*v - mf.linear(q)).abs();
            dev.is_nan() || dev > EVAL_TOL
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use carve_comm::run_spmd;
    use carve_fem::serve::{geometry_hash, ScenarioCache, ScenarioSpec, ServedField};
    use carve_geom::{CarvedSolids, Sphere};
    use carve_sfc::Curve;

    #[test]
    fn rng_is_seeded_and_uniform_enough() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut r = Rng::new(1);
        let mean = (0..10_000).map(|_| r.unit()).sum::<f64>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "{mean}");
        let mut v: Vec<usize> = (0..50).collect();
        r.shuffle(&mut v);
        let mut s = v.clone();
        s.sort_unstable();
        assert_eq!(s, (0..50).collect::<Vec<_>>());
    }

    /// The manufactured right-hand side is consistent: Jacobi-CG converges
    /// to a real tolerance on a small carved mesh over two ranks, recovers
    /// `u_ref` modulo a constant, and point reads return the linear part.
    #[test]
    fn consistent_rhs_converges_and_recovers_reference() {
        let out = run_spmd(2, |c| {
            let domain = CarvedSolids::<3>::new(vec![Box::new(Sphere::new([0.5; 3], 0.2))]);
            let spec = ScenarioSpec {
                geometry: geometry_hash("test-sphere"),
                curve: Curve::Hilbert,
                base_level: 2,
                boundary_level: 3,
                order: 1,
                scale: 1.0,
                mg_min_level: None,
            };
            let mut cache = ScenarioCache::<3>::with_cap_bytes(usize::MAX);
            let e = cache.get_or_build(c, &domain, spec);
            let mf = Manufactured::<3>::new(11);
            let u_ref = mf.field(&e.dm);
            let mut ws = TraversalWorkspace::with_threads(1);
            let b = consistent_rhs(c, &e.dm, spec.scale, &u_ref, &mut ws);
            let mut x = vec![0.0; b.len()];
            let res = e.solve(c, &b, &mut x, 1e-10, 500);
            let err = align_and_error(c, &e.dm, &mut x, &u_ref);
            let pts = [[0.1, 0.2, 0.15], [0.9, 0.85, 0.5], [0.05, 0.95, 0.9]];
            let vals = ServedField { entry: e, u: &x }.eval_points(c, &pts);
            // A missed read returns 0.0 and must count as bad.
            let miss = bad_reads(&mf, &pts[..1], &[0.0]);
            (
                res.converged,
                res.iterations,
                err,
                bad_reads(&mf, &pts, &vals),
                miss,
            )
        });
        for (converged, iters, err, bad, miss) in out {
            assert!(converged && iters > 0, "CG did not converge");
            assert!(err < 1e-6, "relative nodal error {err}");
            assert_eq!(bad, 0);
            assert_eq!(miss, 1);
        }
    }
}
