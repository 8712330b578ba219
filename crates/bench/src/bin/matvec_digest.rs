//! Emits an FNV-1a digest of the traversal MATVEC output bits for the CI
//! leaf-kernel-determinism stage: carved-sphere meshes (2-D and 3-D, with
//! hanging nodes from boundary refinement) at orders 1 and 2, applied
//! through the batched stiffness kernel. Traversal threads come from
//! `CARVE_PAR_THREADS` and the leaf-panel width from `CARVE_BATCH_WIDTH`,
//! so the stage reruns this binary across a width × threads matrix and
//! byte-compares the documents — the panel path must be bitwise identical
//! to the scalar path under any schedule.
//!
//! Usage: `matvec_digest [OUT.txt]` — writes to the path, or stdout.

use carve_core::{traversal_matvec, Mesh, TraversalWorkspace};
use carve_fem::StiffnessKernel;
use carve_geom::{CarvedSolids, Sphere};
use carve_sfc::Curve;

/// FNV-1a over the raw bit patterns, so `-0.0 != +0.0` and NaN payloads
/// would all show up as digest differences.
fn fnv1a(bits: impl Iterator<Item = u64>) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in bits {
        for byte in b.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

fn digest<const DIM: usize>(domain: &CarvedSolids<DIM>, p: u64) -> u64 {
    let mesh = Mesh::<DIM>::build(domain, Curve::Hilbert, 3, 5, p);
    let n = mesh.num_dofs();
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.13).sin() + 0.01).collect();
    let mut y = vec![0.0f64; n];
    // Env-resolved workspace: CARVE_PAR_THREADS and CARVE_BATCH_WIDTH apply.
    let mut ws = TraversalWorkspace::<DIM>::new();
    let make_kernel = || StiffnessKernel::<DIM>::new(p as usize, 16.0);
    // Two rounds through the same workspace so arena/pool reuse is covered.
    for _ in 0..2 {
        y.iter_mut().for_each(|v| *v = 0.0);
        traversal_matvec(
            &mesh.elems,
            0..mesh.elems.len(),
            mesh.curve,
            &mesh.nodes,
            &x,
            &mut y,
            &mut ws,
            &make_kernel,
        );
    }
    fnv1a(y.iter().map(|v| v.to_bits()))
}

fn main() {
    let d2 = CarvedSolids::<2>::new(vec![Box::new(Sphere::new([0.5, 0.5], 0.28))]);
    let d3 = CarvedSolids::<3>::new(vec![Box::new(Sphere::new([0.5; 3], 0.28))]);
    let mut out = String::from("carve-matvec-digest-v1\n");
    for p in [1u64, 2] {
        out.push_str(&format!("dim=2 p={p} digest={:016x}\n", digest(&d2, p)));
        out.push_str(&format!("dim=3 p={p} digest={:016x}\n", digest(&d3, p)));
    }
    match std::env::args().nth(1) {
        Some(path) => std::fs::write(&path, out).expect("write matvec digest"),
        None => print!("{out}"),
    }
}
