//! carve's end-to-end benchmark: three workloads on two simulated ranks,
//! timed untraced end to end, with a separate traced pass for the
//! per-layer breakdown. See `README.md` beside this package.
//!
//! ```text
//! perfbench --workload <cold_solve|serve_mix|amr_transient> --seed N
//!           --seconds S --trace 0|1 [--out FILE]
//! ```
//!
//! A run prints a readable summary, then its full record as one JSON line
//! (also appended to `--out`), then the result line: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics untraced,
//! the per-layer metrics traced.

mod amr;
mod clock;
mod cold;
mod measure;
mod metrics;
mod report;
mod rhs;
mod scenario;
mod serve;
mod stamp;
mod stats;

use std::io::Write as _;

use carve_comm::{run_spmd, Comm};

use measure::{Pass, RankOut};
use report::{Metric, Report};

/// Simulated ranks. With one traversal thread each, no more threads run
/// than a 2-vCPU machine has cores.
const RANKS: usize = 2;

/// Detail metrics that are not part of the per-layer set.
const DETAIL_ONLY: [&str; 2] = ["hit_beyond_p90", "host_steal_s"];

#[derive(Clone, Copy, Debug, PartialEq)]
enum Workload {
    ColdSolve,
    ServeMix,
    AmrTransient,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::ColdSolve,
        Workload::ServeMix,
        Workload::AmrTransient,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::ColdSolve => "cold_solve",
            Workload::ServeMix => "serve_mix",
            Workload::AmrTransient => "amr_transient",
        }
    }

    fn parse(s: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| format!("unknown workload `{s}`"))
    }

    /// Units of work a run of `seconds` measures: fixed by the arguments,
    /// never by the clock, so two runs do identical work.
    fn units(self, seconds: f64) -> usize {
        match self {
            Workload::ColdSolve => cold::units_for(seconds),
            Workload::ServeMix => serve::cycles_for(seconds),
            Workload::AmrTransient => amr::runs_for(seconds),
        }
    }

    fn order(self) -> usize {
        match self {
            Workload::ColdSolve => cold::scenario().spec.order as usize,
            Workload::ServeMix | Workload::AmrTransient => 1,
        }
    }

    fn run(self, comm: &Comm, seed: u64, units: usize) -> RankOut {
        match self {
            Workload::ColdSolve => cold::run(comm, seed, units),
            Workload::ServeMix => serve::run(comm, seed, units),
            Workload::AmrTransient => amr::run(comm, seed, units),
        }
    }
}

/// One pass over `units` units on [`RANKS`] ranks; traced passes bring
/// each rank's `carve-obs` data back.
fn pass(w: Workload, seed: u64, units: usize, traced: bool) -> Pass {
    carve_obs::set_enabled(traced);
    let ranks = run_spmd(RANKS, move |c| {
        let before = carve_obs::thread_snapshot();
        let mut out = w.run(c, seed, units);
        if traced {
            out.obs = Some(carve_obs::thread_snapshot().diff(&before));
        }
        out
    });
    carve_obs::set_enabled(false);
    Pass::merge(ranks)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn value<'a>(args: &'a [String], i: usize, flag: &str) -> Result<&'a str, String> {
    args.get(i + 1)
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut out) = (None, 1, 10.0, false, None);
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let v = value(args, i, flag)?;
        match flag {
            "--workload" => workload = Some(Workload::parse(v)?),
            "--seed" => seed = v.parse().map_err(|_| format!("bad seed `{v}`"))?,
            "--seconds" => {
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad seconds `{v}`"))?
            }
            "--trace" => {
                trace = match v {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--out" => out = Some(v.to_owned()),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
        i += 2;
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        out,
    })
}

fn measure(a: &Args) -> Report {
    let w = a.workload;
    let units = w.units(a.seconds);
    let steal0 = measure::host_steal_s();
    let u = pass(w, a.seed, units, false);
    let steal = measure::host_steal_s() - steal0;
    let rss = measure::peak_rss_mb();
    let e2e = metrics::end_to_end(&u, rss);
    let mut detail = metrics::untraced_detail(&u);
    detail.push(Metric::new("host_steal_s", steal, "s", 1));
    let (mut attempted, mut failed, mut failures) = (u.attempted, u.failed, u.failures.clone());
    let metrics = if a.trace {
        let t = pass(w, a.seed, units.div_ceil(2), true);
        attempted += t.attempted;
        failed += t.failed;
        failures.extend(t.failures.iter().cloned());
        detail.extend(metrics::traced_detail(&t, &u, w.order()));
        let (layer, rest): (Vec<Metric>, Vec<Metric>) = detail
            .into_iter()
            .partition(|m| !DETAIL_ONLY.contains(&m.name.as_str()));
        detail = e2e.into_iter().chain(rest).collect();
        layer
    } else {
        e2e
    };
    Report {
        workload: w.name().to_owned(),
        seed: a.seed,
        seconds: a.seconds.round() as u64,
        trace: a.trace,
        stamp: stamp::stamp(RANKS),
        correct: failed == 0 && attempted > 0,
        attempted,
        failed,
        metrics,
        detail,
        failures,
    }
}

fn print_summary(r: &Report) {
    println!(
        "{} seed {} trace {}: {} of {} operations failed",
        r.workload, r.seed, r.trace as u8, r.failed, r.attempted
    );
    for f in &r.failures {
        println!("  FAILED {f}");
    }
    for m in r.metrics.iter().chain(&r.detail) {
        println!(
            "  {:<32} {:>16.6} {:<8} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
}

fn real_main() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let a = parse_args(&args)?;
    // One traversal thread per rank, whatever the environment says, set
    // before any thread exists.
    std::env::set_var("CARVE_PAR_THREADS", "1");
    let r = measure(&a);
    print_summary(&r);
    let full = r.to_json();
    println!("{full}");
    if let Some(path) = &a.out {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{path}: {e}"))?;
        writeln!(f, "{full}").map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", r.result_line());
    Ok(())
}

fn main() {
    if let Err(e) = real_main() {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carve_io::json::Json;

    /// `BENCHMARK.json` names exactly the metrics a run reports, with the
    /// same units: the end-to-end set untraced, the per-layer set traced.
    #[test]
    fn benchmark_json_lists_every_reported_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_owned();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let names = |ms: Vec<Metric>| -> Vec<(String, String)> {
            ms.into_iter().map(|m| (m.name, m.unit)).collect()
        };
        let empty = Pass::default();
        assert_eq!(
            listed("end_to_end"),
            names(metrics::end_to_end(&empty, 0.0))
        );
        let mut layer = metrics::untraced_detail(&empty);
        layer.extend(metrics::traced_detail(&empty, &empty, 1));
        layer.retain(|m| !DETAIL_ONLY.contains(&m.name.as_str()));
        assert_eq!(listed("per_layer"), names(layer));
    }
}
