//! `amr_transient`: the adaptive backward-Euler heat run on a 3-D carved
//! sphere, repeated. It is the one workload that rewrites the mesh — mark,
//! refine, 2:1 balance, repartition or patch, field transfer — beside the
//! heat MATVECs that read it.
//!
//! The initial condition is a Gaussian bump near a cube corner with a
//! seeded amplitude. The adapt marking is relative to the global maximum,
//! so every seed adapts the same mesh: the seed changes every value, not
//! the amount or placement of work. (A bump at another corner adapts an
//! equally large mesh but changes which rank does the work, and with it
//! the run time by up to 15 %.)

use carve_comm::{Comm, ReduceOp};
use carve_core::DistMesh;
use carve_fem::{run_transient, TransientConfig};
use carve_geom::{CarvedSolids, Sphere};

use crate::clock::timed;
use crate::measure::RankOut;
use crate::rhs::Rng;

const RADIUS: f64 = 0.28;
/// Wall seconds of one run when the benchmark was defined.
const NOMINAL_RUN_S: f64 = 1.6;
/// Bump centre and width: `exp(-|x - CENTER|² / WIDTH)`.
const CENTER: [f64; 3] = [0.18; 3];
const WIDTH: f64 = 0.008;

pub fn config() -> TransientConfig {
    TransientConfig {
        steps: 6,
        adapt_every: 2,
        base_level: 3,
        boundary_level: 5,
        max_level: 6,
        dt: 2e-3,
        threads: 1,
        ..TransientConfig::default()
    }
}

pub fn runs_for(seconds: f64) -> usize {
    ((seconds / NOMINAL_RUN_S).round() as usize).max(3)
}

/// Runs the transient `runs` times on this rank, every run from the same
/// seeded initial condition.
pub fn run(comm: &Comm, seed: u64, runs: usize) -> RankOut {
    let cfg = config();
    let domain = CarvedSolids::<3>::new(vec![Box::new(Sphere::new([0.5; 3], RADIUS))]);
    let mut out = RankOut::default();

    let amp = 0.5 + 1.5 * Rng::new(seed).unit();
    let init = move |p: &[f64; 3]| {
        let d2: f64 = p.iter().zip(&CENTER).map(|(x, c)| (x - c) * (x - c)).sum();
        amp * (-d2 / WIDTH).exp()
    };

    let mut first_trace = None;
    for i in 0..runs {
        // One set-up before each run: spread over the pass, so a burst of
        // machine noise at start-up does not set the median.
        let (dm, t) = timed(|| {
            let _obs = carve_obs::scope("setup");
            DistMesh::<3>::build(
                comm,
                &domain,
                cfg.curve,
                cfg.base_level,
                cfg.boundary_level,
                cfg.order,
            )
        });
        out.setup.push(t);
        if i == 0 {
            let gs = dm.ghost_stats();
            out.add("core.elements", gs.owned_elems as f64);
            out.add("core.owned_nodes", gs.owned_nodes as f64);
            out.add("core.ghost_nodes", gs.ghost_nodes as f64);
        }
        drop(dm);

        let c0 = comm.stats();
        let (res, t) = timed(|| {
            let _obs = carve_obs::scope("bench.transient");
            run_transient(comm, &domain, &cfg, &init)
        });
        out.comm_delta(comm, "transient", &c0);

        // Heat with zero boundary values obeys the maximum principle: the
        // field stays within [0, amp] up to round-off and the small
        // undershoot of the consistent mass matrix.
        let finite = res.u.iter().all(|v| v.is_finite());
        let (lo, hi) = res
            .u
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            });
        let lo = comm.all_reduce_f64(lo, ReduceOp::Min);
        let hi = comm.all_reduce_f64(hi, ReduceOp::Max);
        let cycles = res.trace.cycles.len() as u64;
        let want_cycles = cfg.steps / cfg.adapt_every;
        let repeats = first_trace.as_ref().is_none_or(|t| *t == res.trace);
        let ok = finite
            && hi <= amp
            && hi > 0.0
            && lo >= -1e-3 * amp
            && cycles == want_cycles
            && repeats;
        out.verdict(comm, ok, || {
            format!(
                "amr_transient run {i}: finite {finite}, range [{lo:.3e}, {hi:.3e}] for \
                 amplitude {amp:.3}, {cycles} of {want_cycles} adapt cycles, \
                 repeats the first run's trace: {repeats}"
            )
        });
        out.span("transient", t);
        out.units.push(t);
        out.global(comm, "fem.transient.cycles", cycles as f64);
        out.global(comm, "fem.transient.dofs_final", res.dofs_final as f64);
        for rec in &res.trace.cycles {
            out.global(comm, "core.adapt.elements_refined", rec.refined as f64);
            out.global(comm, "core.adapt.elements_coarsened", rec.coarsened as f64);
        }
        first_trace.get_or_insert(res.trace);
    }
    out
}
