//! End-to-end integration tests spanning the workspace crates: geometry →
//! incomplete octree → nodes → FEM solve → error, plus the distributed
//! pipeline and the application layer.

use carve::core::{DistMesh, GhostState, Mesh, TraversalWorkspace};
use carve::fem::{l2_linf_error, solve_poisson, BcMode, PoissonProblem, SbmParams};
use carve::geom::{CarvedSolids, RetainBox, RetainSolid, Solid, Sphere};
use carve::ns::{FlowSolver, NodeBc, TransportSolver, VmsParams};
use carve::sfc::{Curve, Octant};

#[test]
fn disk_poisson_sbm_beats_naive_end_to_end() {
    let disk = Sphere::<2>::new([0.5, 0.5], 0.5);
    let domain = RetainSolid::new(disk);
    let one = |_: &[f64; 2]| 1.0;
    let zero = |_: &[f64; 2]| 0.0;
    let closest = move |x: &[f64; 2]| disk.closest_boundary_point(x);
    let exact = |x: &[f64; 2]| {
        let r2 = (x[0] - 0.5).powi(2) + (x[1] - 0.5).powi(2);
        0.25 * (0.25 - r2)
    };
    let mesh = Mesh::build(&domain, Curve::Hilbert, 5, 5, 1);
    let mut errs = Vec::new();
    for bc in [BcMode::Naive, BcMode::Sbm(SbmParams::default())] {
        let prob = PoissonProblem {
            scale: 1.0,
            f: &one,
            dirichlet: &zero,
            closest_boundary: Some(&closest),
            strong_cube_bc: false,
            bc,
        };
        let sol = solve_poisson(&mesh, &domain, &prob);
        assert!(sol.krylov.converged);
        errs.push(l2_linf_error(&mesh, &domain, &sol.u, &exact, 1.0).l2);
    }
    assert!(
        errs[1] < errs[0] / 5.0,
        "SBM ({}) must beat naive ({}) by a clear margin",
        errs[1],
        errs[0]
    );
}

#[test]
fn channel_mesh_counts_match_closed_form() {
    // Channel [0,1]x[0,1/4]x[0,1/4] at uniform level L: 4^? ... elements =
    // 2^L x 2^(L-2) x 2^(L-2); nodes = (2^L+1)(2^(L-2)+1)^2 for p=1.
    for l in [3u8, 4, 5] {
        let domain = RetainBox::<3>::channel([1.0, 0.25, 0.25]);
        let mesh = Mesh::build(&domain, Curve::Morton, l, l, 1);
        let nx = 1usize << l;
        let ny = 1usize << (l - 2);
        assert_eq!(mesh.num_elems(), nx * ny * ny, "level {l}");
        assert_eq!(mesh.num_dofs(), (nx + 1) * (ny + 1) * (ny + 1));
    }
}

#[test]
fn distributed_poisson_matvec_equals_sequential() {
    // The full distributed pipeline with a *real* FEM kernel.
    let seq_mesh = {
        let domain = CarvedSolids::<2>::new(vec![Box::new(Sphere::new([0.5, 0.5], 0.3))]);
        Mesh::build(&domain, Curve::Hilbert, 3, 5, 1)
    };
    let n = seq_mesh.num_dofs();
    // Deterministic input keyed by coordinate.
    let key = |c: &[u64; 2]| {
        let h = c[0].wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(c[1]);
        ((h >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    };
    let x: Vec<f64> = (0..n).map(|i| key(&seq_mesh.nodes.coords[i])).collect();
    let mut y_seq = vec![0.0; n];
    let cache = carve::fem::ElementCache::<2>::new(1);
    carve::core::traversal_matvec(
        &seq_mesh.elems,
        0..seq_mesh.elems.len(),
        Curve::Hilbert,
        &seq_mesh.nodes,
        &x,
        &mut y_seq,
        &mut TraversalWorkspace::new(),
        &|| {
            |e: &Octant<2>, u: &[f64], v: &mut [f64]| {
                cache.apply_stiffness_dense(e.bounds_unit().1, u, v);
            }
        },
    );
    let results = carve::comm::run_spmd(3, |comm| {
        let domain = CarvedSolids::<2>::new(vec![Box::new(Sphere::new([0.5, 0.5], 0.3))]);
        let dm = DistMesh::<2>::build(comm, &domain, Curve::Hilbert, 3, 5, 1);
        let x_local: Vec<f64> = (0..dm.nodes.len())
            .map(|i| key(&dm.nodes.coords[i]))
            .collect();
        let mut y = vec![0.0; dm.nodes.len()];
        let cache = carve::fem::ElementCache::<2>::new(1);
        dm.matvec_par(
            comm,
            &x_local,
            &mut y,
            &mut TraversalWorkspace::new(),
            GhostState::Ghosted,
            &|| {
                |e: &Octant<2>, u: &[f64], v: &mut [f64]| {
                    cache.apply_stiffness_dense(e.bounds_unit().1, u, v);
                }
            },
        );
        (0..dm.nodes.len())
            .filter(|&i| dm.owner[i] as usize == comm.rank())
            .map(|i| (dm.nodes.coords[i], y[i]))
            .collect::<Vec<_>>()
    });
    let mut seen = 0;
    for per_rank in results {
        for (coord, val) in per_rank {
            let i = seq_mesh.nodes.find(&coord).expect("node exists");
            assert!(
                (val - y_seq[i]).abs() < 1e-10 * (1.0 + y_seq[i].abs()),
                "coord {coord:?}: {val} vs {}",
                y_seq[i]
            );
            seen += 1;
        }
    }
    assert_eq!(seen, n);
}

#[test]
fn classroom_pipeline_smoke() {
    use carve::geom::classroom::ClassroomScene;
    let scene = ClassroomScene::new(false, (0, 0));
    let mesh = Mesh::build(&scene.domain, Curve::Hilbert, 4, 5, 1);
    assert!(mesh.num_elems() > 100);
    // Uniform downward draft as a frozen field; transport a puff.
    let n = mesh.num_dofs();
    let mut vel = vec![0.0; n * 3];
    for i in 0..n {
        vel[i * 3 + 2] = -0.2;
    }
    let bc = |_: &[f64; 3], _: carve::core::NodeFlags| None;
    let mut t = TransportSolver::new(&mesh, &vel, 1e-4, 0.1, scene.scale, &bc);
    let src = scene.source_center;
    let scale = scene.scale;
    let source = move |x: &[f64; 3]| {
        let d2 = (x[0] - src[0] * scale).powi(2)
            + (x[1] - src[1] * scale).powi(2)
            + (x[2] - src[2] * scale).powi(2);
        if d2 < 0.05 {
            1.0
        } else {
            0.0
        }
    };
    for _ in 0..3 {
        let r = t.step(&source);
        assert!(r.converged);
    }
    assert!(t.total_mass() > 0.0);
}

#[test]
fn stokes_flow_in_cavity_is_divergence_free_enough() {
    let domain = RetainBox::<2>::new([0.0, 0.0], [0.5, 0.5]);
    let mesh = Mesh::build(&domain, Curve::Morton, 4, 4, 1);
    let bc = |x: &[f64; 2], _fl: carve::core::NodeFlags| -> NodeBc<2> {
        let eps = 1e-9;
        if x[1] >= 0.5 - eps && x[0] > eps && x[0] < 0.5 - eps {
            NodeBc::Velocity([1.0, 0.0])
        } else if x[0] <= eps || x[0] >= 0.5 - eps || x[1] <= eps || x[1] >= 0.5 - eps {
            if (x[0] - 0.25).abs() < 1e-9 && x[1] <= eps {
                NodeBc::VelocityAndPressure([0.0, 0.0], 0.0)
            } else {
                NodeBc::Velocity([0.0, 0.0])
            }
        } else {
            NodeBc::Free
        }
    };
    let params = VmsParams::new(0.05, 0.5);
    let mut solver = FlowSolver::new(&mesh, params, 1.0, &bc);
    let zero = |_: &[f64; 2]| [0.0, 0.0];
    solver.run_to_steady(&zero, 10, 1e-4);
    // The lid corners are singular (u jumps 1 -> 0), so pointwise divergence
    // is large there; require only that the bulk is sensible and the cavity
    // actually recirculates.
    assert!(
        solver.divergence_l2() < 2.0,
        "div {}",
        solver.divergence_l2()
    );
    let mut min_u = f64::INFINITY;
    for i in 0..mesh.num_dofs() {
        let x = mesh.nodes.unit_coords(i);
        if x[1] < 0.3 && x[0] > 0.1 && x[0] < 0.4 {
            min_u = min_u.min(solver.velocity(i)[0]);
        }
    }
    assert!(min_u < -0.005, "no return flow: {min_u}");
}

#[test]
fn dragon_to_mesh_to_nodes_pipeline() {
    use carve::geom::dragon::{dragon_mesh, DragonParams};
    use carve::geom::TriMeshSolid;
    let params = DragonParams {
        n_spine: 48,
        n_ring: 12,
        ..Default::default()
    };
    let solid = TriMeshSolid::new(dragon_mesh(&params));
    let domain = CarvedSolids::new(vec![Box::new(solid)]);
    let mesh = Mesh::build(&domain, Curve::Hilbert, 3, 5, 1);
    carve::core::check_2to1(&mesh.elems).unwrap();
    assert!(!mesh.intercepted_elems().is_empty());
    // Boundary nodes exist and sit near the surface.
    let nb = mesh
        .nodes
        .flags
        .iter()
        .filter(|f| f.is_carved_boundary())
        .count();
    assert!(nb > 0);
}
