//! Turns measured passes into the named end-to-end and per-layer metrics.
//!
//! End-to-end metrics come from an untraced pass. Per-layer metrics come
//! from a traced pass over the first half of the same units (layer times
//! from the `carve-obs` phase tree under the benchmark's own spans, bench
//! span times from its own clocks) and from the untraced pass (exact
//! counts, request-class latencies, the overhead base).

use carve_fem::flops::{elemental_bytes, tensor_apply_flops};
use carve_obs::Snapshot;

use crate::measure::Pass;
use crate::report::Metric;
use crate::serve::BLOCK_K;
use crate::stats::{count_above, median, percentile};

/// Every phase the layer metrics read lies under one of the benchmark's
/// unit spans; library work done outside them (building reference fields
/// and right-hand sides, set-up) is not the workload's.
const UNIT_SPAN_PREFIX: &str = "bench.";

/// Layer time metrics: `(name, phase suffix)`. A phase matches when its
/// path ends in the suffix at a `/` boundary and no enclosing phase
/// matches too.
const LAYER_TIMES: [(&str, &str); 19] = [
    ("sfc.treesort_s", "treesort"),
    ("core.construct_s", "construct"),
    ("core.balance_s", "balance"),
    ("core.nodes_s", "nodes"),
    ("core.ownership_s", "ownership"),
    ("core.ghost_elems_s", "ghost_elems"),
    ("fem.serve.assemble_s", "assemble"),
    ("core.matvec_s", "matvec"),
    ("core.matvec.leaf_s", "matvec/leaf"),
    ("core.matvec.top_down_s", "matvec/top_down"),
    ("core.matvec.bottom_up_s", "matvec/bottom_up"),
    ("comm.ghost_wait_s", "matvec/ghost_wait"),
    ("comm.ghost_read_s", "ghost_read"),
    ("comm.ghost_accumulate_s", "ghost_accumulate"),
    ("core.adapt_s", "adapt"),
    ("core.adapt.mark_s", "adapt/mark"),
    ("core.adapt.refine_s", "adapt/refine"),
    ("core.adapt.patch_s", "adapt/patch"),
    ("core.adapt.repartition_s", "adapt/repartition"),
];

/// Request classes whose communication is counted per operation.
const COMM_CLASSES: [&str; 5] = ["build", "solve", "block", "query", "transient"];

fn matches(path: &str, suffix: &str) -> bool {
    path == suffix || path.ends_with(&format!("/{suffix}"))
}

/// Phases of one rank's snapshot under the unit spans that match `suffix`
/// and have no matching ancestor.
fn matching<'a>(
    snap: &'a Snapshot,
    suffix: &'a str,
    prefix: &'a str,
) -> impl Iterator<Item = &'a carve_obs::PhaseStats> + 'a {
    snap.phases.iter().filter_map(move |(path, st)| {
        if !path.starts_with(prefix) || !matches(path, suffix) {
            return None;
        }
        let nested = path
            .match_indices('/')
            .any(|(i, _)| matches(&path[..i], suffix));
        (!nested).then_some(st)
    })
}

/// Seconds in phases matching `suffix`, summed over ranks.
fn phase_secs(obs: &[Snapshot], suffix: &str, prefix: &str) -> f64 {
    obs.iter()
        .flat_map(|s| matching(s, suffix, prefix))
        .map(|st| st.secs)
        .sum()
}

fn phase_calls(obs: &[Snapshot], suffix: &str, prefix: &str) -> f64 {
    obs.iter()
        .flat_map(|s| matching(s, suffix, prefix))
        .map(|st| st.calls as f64)
        .sum()
}

fn phase_counter(obs: &[Snapshot], suffix: &str, counter: &str) -> f64 {
    obs.iter()
        .flat_map(|s| matching(s, suffix, UNIT_SPAN_PREFIX))
        .filter_map(|st| st.counters.get(counter))
        .map(|&v| v as f64)
        .sum()
}

/// A counter wherever it was raised under the unit spans.
fn any_counter(obs: &[Snapshot], counter: &str) -> f64 {
    obs.iter()
        .flat_map(|s| s.phases.iter())
        .filter(|(p, _)| p.starts_with(UNIT_SPAN_PREFIX))
        .filter_map(|(_, st)| st.counters.get(counter))
        .map(|&v| v as f64)
        .sum()
}

fn med(xs: &[f64]) -> f64 {
    median(xs).unwrap_or(0.0)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The untraced pass's end-to-end metrics.
pub fn end_to_end(u: &Pass, peak_rss_mb: f64) -> Vec<Metric> {
    let walls: Vec<f64> = u.units.iter().map(|e| e.wall_s).collect();
    let setup: Vec<f64> = u.setup.iter().map(|e| e.wall_s).collect();
    vec![
        Metric::new("setup_s", med(&setup), "s", setup.len()),
        Metric::new("time_to_solution_s", med(&walls), "s", walls.len()),
        // On `serve_mix` a unit is one request, so this is the served
        // request rate.
        Metric::new(
            "throughput_per_s",
            ratio(walls.len() as f64, walls.iter().sum()),
            "1/s",
            walls.len(),
        ),
        Metric::new("peak_rss_mb", peak_rss_mb, "MB", 1),
    ]
}

/// Latencies and counts that need no tracing: request classes, CPU time,
/// and the exact counters read from `CommStats`, the cache, the Krylov
/// results and the transient's adapt trace.
pub fn untraced_detail(u: &Pass) -> Vec<Metric> {
    let ms = |span: &str, q: f64| percentile(&u.wall(span), q).map_or(0.0, |s| s * 1e3);
    let n = |span: &str| u.wall(span).len();
    let hits = u.wall("hit");
    let hit_p90 = percentile(&hits, 0.9).unwrap_or(0.0);
    let mut v = vec![
        Metric::new("solve_s", med(&u.wall("solve")), "s", n("solve")),
        Metric::new("hit_p50_ms", ms("hit", 0.5), "ms", n("hit")),
        Metric::new("hit_p90_ms", hit_p90 * 1e3, "ms", n("hit")),
        Metric::new(
            "hit_beyond_p90",
            count_above(&hits, hit_p90) as f64,
            "count",
            n("hit"),
        ),
        Metric::new("block_p50_ms", ms("block", 0.5), "ms", n("block")),
        Metric::new("miss_p50_ms", ms("miss", 0.5), "ms", n("miss")),
        Metric::new("query_p50_ms", ms("query", 0.5), "ms", n("query")),
        Metric::new("amr_run_s", med(&u.wall("transient")), "s", n("transient")),
        Metric::new(
            "setup_cpu_s",
            med(&u.setup.iter().map(|e| e.cpu_s).collect::<Vec<_>>()),
            "s",
            u.setup.len(),
        ),
        Metric::new(
            "time_to_solution_cpu_s",
            med(&u.units.iter().map(|e| e.cpu_s).collect::<Vec<_>>()),
            "s",
            u.units.len(),
        ),
    ];
    let hits_n = u.count("fem.serve.hits");
    let count = |name: &str, value: f64, unit: &str| Metric::new(name, value, unit, 1);
    v.extend([
        count(
            "fem.serve.entry_bytes",
            u.count("fem.serve.entry_bytes"),
            "bytes",
        ),
        count(
            "fem.serve.resident_bytes",
            u.count("fem.serve.resident_bytes"),
            "bytes",
        ),
        count(
            "fem.serve.hit_ratio",
            ratio(hits_n, hits_n + u.count("fem.serve.misses")),
            "ratio",
        ),
        count(
            "fem.serve.evictions",
            u.count("fem.serve.evictions"),
            "count",
        ),
    ]);
    for class in COMM_CLASSES {
        let ops = u.count(&format!("ops.{class}"));
        for (what, unit) in [
            ("msgs", "count"),
            ("bytes", "bytes"),
            ("coll_calls", "count"),
        ] {
            let key = format!("comm.{what}.{class}");
            v.push(count(&key, ratio(u.count(&key), ops), unit));
        }
    }
    let runs = u.count("ops.transient");
    v.extend([
        count("la.iterations", u.count("la.iterations"), "count"),
        count(
            "la.block_rounds",
            ratio(u.count("la.block_coll"), u.count("la.block_iters")),
            "count",
        ),
        count(
            "la.seq_rounds",
            BLOCK_K as f64 * ratio(u.count("la.solo_coll"), u.count("la.solo_iters")),
            "count",
        ),
        count(
            "core.adapt.elements_refined",
            ratio(u.count("core.adapt.elements_refined"), runs),
            "count",
        ),
        count(
            "core.adapt.elements_coarsened",
            ratio(u.count("core.adapt.elements_coarsened"), runs),
            "count",
        ),
        count(
            "fem.transient.cycles",
            ratio(u.count("fem.transient.cycles"), runs),
            "count",
        ),
        count(
            "fem.transient.dofs_final",
            ratio(u.count("fem.transient.dofs_final"), runs),
            "count",
        ),
        count("core.elements", u.count("core.elements"), "count"),
        count("core.owned_nodes", u.count("core.owned_nodes"), "count"),
        count("core.ghost_nodes", u.count("core.ghost_nodes"), "count"),
    ]);
    v
}

/// Layer metrics of the traced pass `t`, plus the tracing overhead against
/// the untraced pass `u` over the same units. `order` is the workload's
/// polynomial order, for the computed leaf rates.
pub fn traced_detail(t: &Pass, u: &Pass, order: usize) -> Vec<Metric> {
    let units = t.units.len();
    let ranks = t.obs.len().max(1) as f64;
    let per_unit = ranks * units.max(1) as f64;
    let mut v: Vec<Metric> = LAYER_TIMES
        .iter()
        .map(|(name, suffix)| {
            let secs = phase_secs(&t.obs, suffix, UNIT_SPAN_PREFIX) / per_unit;
            Metric::new(name, secs, "s", units)
        })
        .collect();
    let leaves = phase_counter(&t.obs, "matvec/leaf", "leaves");
    let leaf_secs = phase_secs(&t.obs, "matvec/leaf", UNIT_SPAN_PREFIX);
    let count = |name: &str, value: f64, unit: &str| Metric::new(name, value, unit, 1);
    v.extend([
        count(
            "core.matvec.calls",
            phase_calls(&t.obs, "matvec", UNIT_SPAN_PREFIX),
            "count",
        ),
        count("core.matvec.leaves", leaves, "count"),
        count(
            "core.matvec.node_copies",
            phase_counter(&t.obs, "matvec/top_down", "node_copies"),
            "count",
        ),
        count(
            "fem.eval_misses",
            any_counter(&t.obs, "eval_misses"),
            "count",
        ),
        count(
            "core.matvec.leaf_gflops",
            ratio(tensor_apply_flops(3, order) as f64 * leaves, leaf_secs) * 1e-9,
            "Gflop/s",
        ),
        count(
            "core.matvec.leaf_gbps",
            ratio(elemental_bytes(3, order) as f64 * leaves, leaf_secs) * 1e-9,
            "GB/s",
        ),
        count(
            "la.matvecs_per_block",
            ratio(
                phase_calls(&t.obs, "matvec", "bench.block") / ranks,
                t.count("la.block_iters"),
            ),
            "count",
        ),
    ]);
    for (name, span) in [
        ("fem.serve.build", "build"),
        ("la.solve", "solve"),
        ("fem.eval", "eval"),
    ] {
        let n = t.wall(span).len();
        v.push(Metric::new(
            &format!("{name}_s"),
            med(&t.wall(span)),
            "s",
            n,
        ));
        v.push(Metric::new(
            &format!("{name}_cpu_s"),
            med(&t.cpu(span)),
            "s",
            n,
        ));
    }
    let base: Vec<f64> = u.units.iter().take(units).map(|e| e.wall_s).collect();
    let traced: Vec<f64> = t.units.iter().map(|e| e.wall_s).collect();
    v.push(Metric::new(
        "obs.overhead_ratio",
        ratio(med(&traced), med(&base)),
        "ratio",
        units,
    ));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use carve_obs::PhaseStats;
    use std::collections::BTreeMap;

    fn snap(entries: &[(&str, f64, u64)]) -> Snapshot {
        let mut s = Snapshot::default();
        for &(p, secs, calls) in entries {
            s.phases.insert(
                p.to_owned(),
                PhaseStats {
                    calls,
                    secs,
                    counters: BTreeMap::from([("leaves".to_owned(), calls)]),
                },
            );
        }
        s
    }

    #[test]
    fn layer_matching_skips_nested_and_unscoped_phases() {
        let s = snap(&[
            ("bench.hit/matvec", 2.0, 3),
            ("bench.hit/matvec/leaf", 1.0, 5),
            ("bench.transient/adapt/refine", 0.5, 1),
            ("bench.transient/adapt/refine/refine", 0.25, 1),
            ("bench.transient/adapt/refine/construct", 0.125, 1),
            ("bench.build/construct", 0.0625, 1),
            ("matvec", 8.0, 1), // reference-field work outside a unit span
            ("setup/construct", 4.0, 1),
        ]);
        let obs = [s];
        assert_eq!(phase_secs(&obs, "matvec", UNIT_SPAN_PREFIX), 2.0);
        assert_eq!(phase_secs(&obs, "matvec/leaf", UNIT_SPAN_PREFIX), 1.0);
        assert_eq!(phase_secs(&obs, "adapt/refine", UNIT_SPAN_PREFIX), 0.5);
        assert_eq!(phase_secs(&obs, "construct", UNIT_SPAN_PREFIX), 0.1875);
        assert_eq!(phase_calls(&obs, "matvec", "bench.block"), 0.0);
        assert_eq!(phase_counter(&obs, "matvec/leaf", "leaves"), 5.0);
        // `refine` nested in `adapt/refine` is not counted twice.
        let nested = snap(&[
            ("bench.x/refine", 1.0, 1),
            ("bench.x/refine/refine", 0.5, 1),
        ]);
        assert_eq!(phase_secs(&[nested], "refine", UNIT_SPAN_PREFIX), 1.0);
    }
}
