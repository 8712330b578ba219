//! Anisotropic domains without stretched elements: builds the paper's
//! 16×1×1 channel as an incomplete octree (unit-aspect elements all the
//! way), runs the distributed pipeline on a few simulated ranks, and prints
//! partition/ghost statistics — a miniature of §4.5.1.
//!
//! ```sh
//! cargo run --release --example channel_adaptivity
//! ```

use carve::comm::run_spmd;
use carve::core::{DistMesh, GhostState, Mesh, TraversalWorkspace};
use carve::geom::RetainBox;
use carve::sfc::{Curve, Octant};

fn main() {
    let domain = RetainBox::<3>::channel([1.0, 1.0 / 16.0, 1.0 / 16.0]);
    // Sequential mesh with boundary-layer refinement at the walls.
    let mesh = Mesh::build(&domain, Curve::Hilbert, 5, 7, 1);
    println!(
        "channel 16x1x1: {} elements, {} dofs (complete octree at the finest \
         level would need {} elements for the same wall resolution)",
        mesh.num_elems(),
        mesh.num_dofs(),
        1u64 << (3 * 7)
    );
    let levels: Vec<u8> = mesh.elems.iter().map(|e| e.level).collect();
    let min_l = levels.iter().min().unwrap();
    let max_l = levels.iter().max().unwrap();
    println!("levels {min_l}..{max_l}; every element has aspect ratio 1.");

    // Distributed build on 4 simulated ranks (threads): Algorithm 3 + ghost
    // exchange, then one distributed MATVEC with a Poisson kernel. Phase
    // timings come from the observability layer (each rank thread reads its
    // own snapshot).
    let results = run_spmd(4, |comm| {
        let _obs = carve::obs::force_enabled();
        let domain = RetainBox::<3>::channel([1.0, 1.0 / 16.0, 1.0 / 16.0]);
        let dm = DistMesh::<3>::build(comm, &domain, Curve::Hilbert, 5, 6, 1);
        let make_kernel = || {
            let mut cache = carve::fem::ElementCache::<3>::new(1);
            move |e: &Octant<3>, u: &[f64], v: &mut [f64]| {
                cache.apply_stiffness_tensor(e.bounds_unit().1 * 16.0, u, v);
            }
        };
        let x = vec![1.0; dm.nodes.len()];
        let mut y = vec![0.0; dm.nodes.len()];
        let before = carve::obs::thread_snapshot();
        dm.matvec_par(
            comm,
            &x,
            &mut y,
            &mut TraversalWorkspace::new(),
            GhostState::Ghosted,
            &make_kernel,
        );
        let d = carve::obs::thread_snapshot().diff(&before);
        let secs = |name: &str| d.phases.get(name).map_or(0.0, |p| p.secs);
        let matvec_s = secs("matvec");
        let comm_s = secs("ghost_read") + secs("ghost_accumulate");
        let stats = dm.ghost_stats();
        // Laplacian of a constant is zero: a built-in correctness check.
        let max_owned = (0..dm.nodes.len())
            .filter(|&i| dm.owner[i] as usize == comm.rank())
            .map(|i| y[i].abs())
            .fold(0.0, f64::max);
        (stats, matvec_s, comm_s, max_owned)
    });
    println!("\nrank  owned elems  owned nodes  ghosts  eta    matvec(s)  comm(s)");
    for (r, (s, t, c, residual)) in results.iter().enumerate() {
        println!(
            "{r:>4}  {:>11}  {:>11}  {:>6}  {:.3}  {t:.5}    {c:.5}",
            s.owned_elems,
            s.owned_nodes,
            s.ghost_nodes,
            s.eta()
        );
        assert!(*residual < 1e-10, "K·1 must vanish, got {residual}");
    }
    println!("\nK·1 = 0 verified on every rank (distributed hanging-node handling).");
}
