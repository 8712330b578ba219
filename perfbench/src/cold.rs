//! `cold_solve`: the one-shot pipeline, repeated. Each unit builds its
//! scenario on a fresh cache (a miss), solves to [`RTOL`], and reads the
//! solution at [`QUERY_POINTS`] points per rank. Nothing is reused between
//! units: no warm cache, no block solve, no adaptation.

use carve_comm::Comm;
use carve_core::TraversalWorkspace;
use carve_fem::serve::{ScenarioCache, ServedField};

use crate::clock::timed;
use crate::measure::RankOut;
use crate::rhs::{align_and_error, bad_reads, consistent_rhs, Manufactured, Rng};
use crate::scenario::Scenario;

/// Relative residual every solve must reach.
pub const RTOL: f64 = 1e-8;
/// Iteration cap; hitting it is a failed solve.
pub const MAX_ITER: usize = 2000;
/// Largest admissible nodal error after removing the null-space constant,
/// relative to `max |u_ref|` (solves reach about 3e-9 at [`RTOL`]).
pub const ERR_TOL: f64 = 1e-6;
/// Point reads per rank per burst.
pub const QUERY_POINTS: usize = 2000;
/// Wall seconds of one unit at the time the benchmark was defined; sets how
/// many units a run of a given length measures.
const NOMINAL_UNIT_S: f64 = 1.5;

/// A p = 2 carved sphere, about 20K DOFs.
pub fn scenario() -> Scenario {
    Scenario::sphere("sphere_p2_3_5", 0.2, 3, 5, 2)
}

pub fn units_for(seconds: f64) -> usize {
    ((seconds / NOMINAL_UNIT_S).round() as usize).max(3)
}

/// Runs `units` pipelines on this rank. Unit `i` draws its inputs from
/// `(seed, i)`, so a pass over the first units repeats exactly.
pub fn run(comm: &Comm, seed: u64, units: usize) -> RankOut {
    let sc = scenario();
    let domain = sc.domain();
    let mut out = RankOut::default();
    let mut ws = TraversalWorkspace::with_threads(1);
    for i in 0..units as u64 {
        let unit_seed = seed.wrapping_mul(1_000_003).wrapping_add(i);
        let mut cache = ScenarioCache::<3>::with_cap_bytes(usize::MAX);

        let c0 = comm.stats();
        let (entry, t_build) = timed(|| {
            let _obs = carve_obs::scope("bench.build");
            cache.get_or_build(comm, &*domain, sc.spec)
        });
        out.comm_delta(comm, "build", &c0);

        let mf = Manufactured::<3>::new(unit_seed);
        let u_ref = mf.field(&entry.dm);
        let b = consistent_rhs(comm, &entry.dm, sc.spec.scale, &u_ref, &mut ws);
        let mut x = vec![0.0; b.len()];
        let c0 = comm.stats();
        let (res, t_solve) = timed(|| {
            let _obs = carve_obs::scope("bench.solve");
            entry.solve(comm, &b, &mut x, RTOL, MAX_ITER)
        });
        out.comm_delta(comm, "solve", &c0);
        out.global(comm, "la.iterations", res.iterations as f64);
        let err = align_and_error(comm, &entry.dm, &mut x, &u_ref);

        let pts = sc.probe_points(&mut Rng::new(unit_seed ^ comm.rank() as u64), QUERY_POINTS);
        let c0 = comm.stats();
        let (vals, t_eval) = timed(|| {
            let _obs = carve_obs::scope("bench.query");
            ServedField { entry, u: &x }.eval_points(comm, &pts)
        });
        out.comm_delta(comm, "query", &c0);
        let bad = bad_reads(&mf, &pts, &vals);

        out.verdict(comm, res.converged && err <= ERR_TOL && bad == 0, || {
            format!(
                "cold_solve unit {i}: converged {} after {} iterations, error {err:.2e}, \
                 {bad} bad reads on rank 0",
                res.converged, res.iterations
            )
        });
        if i == 0 {
            let gs = entry.dm.ghost_stats();
            out.add("core.elements", gs.owned_elems as f64);
            out.add("core.owned_nodes", gs.owned_nodes as f64);
            out.add("core.ghost_nodes", gs.ghost_nodes as f64);
            out.add("fem.serve.entry_bytes", entry.bytes as f64);
        }
        out.setup.push(t_build);
        out.span("build", t_build);
        out.span("solve", t_solve);
        out.span("eval", t_eval);
        let mut unit = t_build;
        unit += t_solve;
        unit += t_eval;
        out.units.push(unit);
        if i == 0 {
            out.add("fem.serve.resident_bytes", cache.resident_bytes() as f64);
        }
    }
    out
}
