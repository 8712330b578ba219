//! `serve_mix`: one closed-loop client with no think time replaying a
//! seeded request trace against one [`ScenarioCache`].
//!
//! Three p = 1 scenarios — the channel and carved spheres at two
//! refinements — are visited in sessions. A session opens with a single
//! solve (a hit, or a miss when its scenario was evicted) and then serves a
//! seeded shuffle of hit solves, k = 4 block solves and point-query bursts
//! on that scenario. The cache budget holds two of the three scenarios, and
//! the session order is fixed, so every cycle of [`CYCLE`] makes exactly
//! two misses and two evictions; the seed changes the request order inside
//! sessions, the right-hand sides and the points.

use carve_comm::Comm;
use carve_core::{GhostStats, TraversalWorkspace};
use carve_fem::serve::{ScenarioCache, ServedField};
use carve_geom::Subdomain;

use crate::clock::{timed, Elapsed};
use crate::cold::{ERR_TOL, MAX_ITER, QUERY_POINTS, RTOL};
use crate::measure::RankOut;
use crate::rhs::{align_and_error, bad_reads, consistent_rhs, Manufactured, Rng};
use crate::scenario::Scenario;

/// Right-hand sides per block solve.
pub const BLOCK_K: usize = 4;
/// Cache warm-ups before each cycle; `setup_s` is the median of all of
/// them. Spreading the set-ups over the run keeps one burst of machine
/// noise at start-up from setting the median.
const WARM_UPS_PER_CYCLE: usize = 4;
/// Wall seconds of one [`CYCLE`] when the benchmark was defined.
const NOMINAL_CYCLE_S: f64 = 4.7;

const CHANNEL: usize = 0;
const SMALL: usize = 1;
const LARGE: usize = 2;

/// Session order over the scenarios. With two of three resident, the
/// visits to `CHANNEL` and the second `LARGE` are the misses.
const CYCLE: [usize; 6] = [SMALL, LARGE, SMALL, CHANNEL, SMALL, LARGE];

pub fn scenarios() -> [Scenario; 3] {
    [
        Scenario::channel("channel_3_5", 3, 5, 1),
        Scenario::sphere("sphere_3_4", 0.2, 3, 4, 1),
        Scenario::sphere("sphere_4_5", 0.2, 4, 5, 1),
    ]
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Req {
    Solve,
    Block,
    Query,
}

/// The requests that follow a session's opening solve, before shuffling.
fn session_tail(scenario: usize) -> Vec<Req> {
    let (hits, blocks, queries) = if scenario == LARGE {
        (2, 1, 1)
    } else {
        (6, 1, 2)
    };
    let mut v = vec![Req::Solve; hits];
    v.extend(std::iter::repeat_n(Req::Block, blocks));
    v.extend(std::iter::repeat_n(Req::Query, queries));
    v
}

pub fn cycles_for(seconds: f64) -> usize {
    ((seconds / NOMINAL_CYCLE_S).round() as usize).max(2)
}

/// Builds every scenario into `cache`, timing the whole warm-up; returns
/// each entry's size and ghost statistics.
fn warm_up(
    comm: &Comm,
    cache: &mut ScenarioCache<3>,
    scs: &[Scenario],
    domains: &[Box<dyn Subdomain<3>>],
) -> (Vec<(usize, GhostStats)>, Elapsed) {
    timed(|| {
        let _obs = carve_obs::scope("setup");
        scs.iter()
            .zip(domains)
            .map(|(s, d)| {
                let e = cache.get_or_build(comm, &**d, s.spec);
                (e.bytes, e.dm.ghost_stats())
            })
            .collect()
    })
}

/// Replays `cycles` cycles of sessions on this rank.
pub fn run(comm: &Comm, seed: u64, cycles: usize) -> RankOut {
    let scs = scenarios();
    let domains: Vec<_> = scs.iter().map(|s| s.domain()).collect();
    let mut out = RankOut::default();

    // The first warm-up learns the entry sizes; the budget then holds any
    // two scenarios but not all three, on every rank alike.
    let mut cache = ScenarioCache::<3>::with_cap_bytes(usize::MAX);
    let (built, t) = warm_up(comm, &mut cache, &scs, &domains);
    out.setup.push(t);
    let bytes: Vec<usize> = built.iter().map(|(b, _)| *b).collect();
    let cap = bytes.iter().sum::<usize>() - bytes.iter().min().expect("three scenarios");
    for (b, gs) in &built {
        out.add("fem.serve.entry_bytes", *b as f64);
        out.add("core.elements", gs.owned_elems as f64);
        out.add("core.owned_nodes", gs.owned_nodes as f64);
        out.add("core.ghost_nodes", gs.ghost_nodes as f64);
    }

    let mut ws = TraversalWorkspace::with_threads(1);
    let mut rng = Rng::new(seed);
    let (mut hits, mut misses, mut evictions) = (0, 0, 0);
    for _ in 0..cycles {
        // Each cycle serves a freshly warmed cache under the budget: the
        // last two built scenarios resident, the largest most recent. That
        // is also the state a cycle ends in, so warming up anew does not
        // change which requests hit.
        for _ in 0..WARM_UPS_PER_CYCLE {
            cache = ScenarioCache::with_cap_bytes(cap);
            out.setup.push(warm_up(comm, &mut cache, &scs, &domains).1);
        }
        let stats0 = cache.stats();
        for &k in &CYCLE {
            let sc = &scs[k];
            let domain = &*domains[k];
            let mut reqs = session_tail(k);
            rng.shuffle(&mut reqs);
            reqs.insert(0, Req::Solve);
            // The session's latest solution and its reference, for queries.
            let mut field: Option<(Manufactured<3>, Vec<f64>)> = None;
            for req in reqs {
                let req_seed = rng.next_u64();
                let hit = cache.contains(&sc.spec);
                let c_get = comm.stats();
                let (entry, t_get) = timed(|| {
                    let _obs = carve_obs::scope(match (req, hit) {
                        (_, false) => "bench.miss",
                        (Req::Solve, true) => "bench.hit",
                        (Req::Block, true) => "bench.block",
                        (Req::Query, true) => "bench.query",
                    });
                    cache.get_or_build(comm, domain, sc.spec)
                });
                if !hit {
                    out.comm_delta(comm, "build", &c_get);
                }
                let latency = match req {
                    Req::Solve => {
                        let mf = Manufactured::<3>::new(req_seed);
                        let u_ref = mf.field(&entry.dm);
                        let b = consistent_rhs(comm, &entry.dm, sc.spec.scale, &u_ref, &mut ws);
                        let mut x = vec![0.0; b.len()];
                        let c0 = comm.stats();
                        let (res, t_solve) = timed(|| {
                            let _obs =
                                carve_obs::scope(if hit { "bench.hit" } else { "bench.miss" });
                            entry.solve(comm, &b, &mut x, RTOL, MAX_ITER)
                        });
                        out.comm_delta(comm, "solve", &c0);
                        out.global(comm, "la.iterations", res.iterations as f64);
                        out.global(comm, "la.solo_iters", res.iterations as f64);
                        out.global(
                            comm,
                            "la.solo_coll",
                            (comm.stats().collective_calls - c0.collective_calls) as f64,
                        );
                        let err = align_and_error(comm, &entry.dm, &mut x, &u_ref);
                        out.verdict(comm, res.converged && err <= ERR_TOL, || {
                            format!(
                                "serve_mix solve on {}: converged {} after {} iterations, \
                                 error {err:.2e}",
                                sc.name, res.converged, res.iterations
                            )
                        });
                        field = Some((mf, x));
                        out.span("solve", t_solve);
                        if !hit {
                            out.span("build", t_get);
                        }
                        let mut lat = t_get;
                        lat += t_solve;
                        out.span(if hit { "hit" } else { "miss" }, lat);
                        lat
                    }
                    Req::Block => {
                        let mfs: Vec<Manufactured<3>> = (0..BLOCK_K as u64)
                            .map(|j| Manufactured::new(req_seed.wrapping_add(j)))
                            .collect();
                        let u_refs: Vec<Vec<f64>> =
                            mfs.iter().map(|m| m.field(&entry.dm)).collect();
                        let bs: Vec<Vec<f64>> = u_refs
                            .iter()
                            .map(|u| consistent_rhs(comm, &entry.dm, sc.spec.scale, u, &mut ws))
                            .collect();
                        let mut xs = vec![vec![0.0; bs[0].len()]; BLOCK_K];
                        let c0 = comm.stats();
                        let (res, t_block) = timed(|| {
                            let _obs = carve_obs::scope("bench.block");
                            let b_refs: Vec<&[f64]> = bs.iter().map(Vec::as_slice).collect();
                            let mut x_refs: Vec<&mut [f64]> =
                                xs.iter_mut().map(Vec::as_mut_slice).collect();
                            entry.block_solve(comm, &b_refs, &mut x_refs, RTOL, MAX_ITER)
                        });
                        out.comm_delta(comm, "block", &c0);
                        let iters = res.iter().map(|r| r.iterations).max().unwrap_or(0);
                        out.global(comm, "la.block_iters", iters as f64);
                        out.global(
                            comm,
                            "la.block_coll",
                            (comm.stats().collective_calls - c0.collective_calls) as f64,
                        );
                        let mut worst = 0.0f64;
                        for (x, u) in xs.iter_mut().zip(&u_refs) {
                            worst = worst.max(align_and_error(comm, &entry.dm, x, u));
                        }
                        let converged = res.iter().all(|r| r.converged);
                        out.verdict(comm, converged && worst <= ERR_TOL, || {
                            format!(
                                "serve_mix block solve on {}: converged {converged}, \
                                 worst lane error {worst:.2e}",
                                sc.name
                            )
                        });
                        let mut lat = t_get;
                        lat += t_block;
                        out.span("block", lat);
                        lat
                    }
                    Req::Query => {
                        let (mf, u) = field.as_ref().expect("sessions open with a solve");
                        let pts = sc.probe_points(
                            &mut Rng::new(req_seed ^ comm.rank() as u64),
                            QUERY_POINTS,
                        );
                        let c0 = comm.stats();
                        let (vals, t_eval) = timed(|| {
                            let _obs = carve_obs::scope("bench.query");
                            ServedField { entry, u }.eval_points(comm, &pts)
                        });
                        out.comm_delta(comm, "query", &c0);
                        let bad = bad_reads(mf, &pts, &vals);
                        out.verdict(comm, bad == 0, || {
                            format!("serve_mix query on {}: {bad} bad reads on rank 0", sc.name)
                        });
                        out.span("eval", t_eval);
                        let mut lat = t_get;
                        lat += t_eval;
                        out.span("query", lat);
                        lat
                    }
                };
                out.units.push(latency);
            }
        }
        let st = cache.stats();
        hits += st.hits - stats0.hits;
        misses += st.misses - stats0.misses;
        evictions += st.evictions - stats0.evictions;
    }
    out.global(comm, "fem.serve.hits", hits as f64);
    out.global(comm, "fem.serve.misses", misses as f64);
    out.global(comm, "fem.serve.evictions", evictions as f64);
    out.add("fem.serve.resident_bytes", cache.resident_bytes() as f64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replays the cycle through an LRU of capacity two and counts misses:
    /// exactly two per cycle after the warm-up leaves the last two built
    /// scenarios resident.
    #[test]
    fn cycle_makes_two_misses_per_pass() {
        let mut lru: Vec<usize> = vec![SMALL, LARGE];
        let mut misses = 0;
        for _ in 0..3 {
            for &k in &CYCLE {
                if let Some(pos) = lru.iter().position(|&s| s == k) {
                    lru.remove(pos);
                } else {
                    misses += 1;
                    lru.remove(0);
                }
                lru.push(k);
            }
        }
        assert_eq!(misses, 6);
    }
}
