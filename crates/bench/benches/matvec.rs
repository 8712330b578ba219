//! MATVEC implementations on the same carved sphere mesh: traversal-based
//! (§3.5, no element-to-node map) vs classic e2n gather/scatter vs
//! assembled CSR, for linear and quadratic elements — one row per paper
//! MATVEC configuration.

use carve_baseline::ImmersedMesh;
use carve_core::{traversal_assemble, traversal_matvec, Mesh, TraversalWorkspace};
use carve_fem::ElementCache;
use carve_geom::{CarvedSolids, FullDomain, Sphere};
use carve_la::CooBuilder;
use carve_sfc::{Curve, Octant};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn sphere_mesh(order: u64) -> Mesh<3> {
    let domain = CarvedSolids::new(vec![Box::new(Sphere::new([0.5; 3], 0.25))]);
    Mesh::build(&domain, Curve::Hilbert, 4, 6, order)
}

fn bench_matvec(c: &mut Criterion) {
    let mut g = c.benchmark_group("matvec");
    g.sample_size(10);
    for order in [1u64, 2] {
        let mesh = sphere_mesh(order);
        let n = mesh.num_dofs();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
        let p = order as usize;

        // Traversal-based, sum-factorized kernel.
        g.bench_with_input(
            BenchmarkId::new("traversal_tensor", format!("p{order}")),
            &mesh,
            |b, mesh| {
                let make_kernel = || {
                    let mut cache = ElementCache::<3>::new(p);
                    move |e: &Octant<3>, u: &[f64], v: &mut [f64]| {
                        cache.apply_stiffness_tensor(e.bounds_unit().1, u, v);
                    }
                };
                let mut ws = TraversalWorkspace::with_threads(1);
                let mut y = vec![0.0; n];
                b.iter(|| {
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
                    y[0]
                })
            },
        );

        // e2n-map baseline (same kernel).
        let baseline = ImmersedMesh::from_mesh(&FullDomain, mesh.clone());
        g.bench_with_input(
            BenchmarkId::new("e2n_map_tensor", format!("p{order}")),
            &baseline,
            |b, baseline| {
                let mut cache = ElementCache::<3>::new(p);
                let mut y = vec![0.0; n];
                b.iter(|| {
                    y.iter_mut().for_each(|v| *v = 0.0);
                    baseline.matvec(
                        &x,
                        &mut y,
                        &mut |e: &Octant<3>, u: &[f64], v: &mut [f64]| {
                            cache.apply_stiffness_tensor(e.bounds_unit().1, u, v);
                        },
                    );
                    y[0]
                })
            },
        );

        // Assembled CSR.
        let mut coo = CooBuilder::new(n);
        let ids: Vec<u32> = (0..n as u32).collect();
        traversal_assemble(
            &mesh.elems,
            0..mesh.elems.len(),
            mesh.curve,
            &mesh.nodes,
            &ids,
            &mut coo,
            &mut TraversalWorkspace::new(),
            &|| {
                let cache = ElementCache::<3>::new(p);
                move |e: &Octant<3>| cache.stiffness(e.bounds_unit().1)
            },
        );
        let a = coo.build();
        g.bench_with_input(
            BenchmarkId::new("assembled_csr", format!("p{order}")),
            &a,
            |b, a| {
                let mut y = vec![0.0; n];
                b.iter(|| {
                    a.matvec(&x, &mut y);
                    y[0]
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_matvec);
criterion_main!(benches);
