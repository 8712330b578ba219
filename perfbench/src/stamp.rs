//! Machine and configuration stamp carried by every result. Results with
//! different stamps (other than the commit) are not compared (`sweep.py
//! compare`).

use std::process::Command;

/// Environment knobs that change what the library does at run time.
pub const KNOBS: [&str; 4] = [
    "CARVE_PAR_THREADS",
    "CARVE_BATCH_WIDTH",
    "CARVE_PAR_SPLIT",
    "CARVE_OBS",
];

fn first_line(s: &str) -> String {
    s.lines().next().unwrap_or("").trim().to_owned()
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Size of the highest-level cache of CPU 0, as the kernel reports it.
fn last_level_cache() -> String {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    (0..8)
        .rev()
        .find_map(|i| {
            let dir = format!("{base}/index{i}");
            let level = std::fs::read_to_string(format!("{dir}/level")).ok()?;
            let size = std::fs::read_to_string(format!("{dir}/size")).ok()?;
            Some(format!("L{} {}", level.trim(), size.trim()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit of the checkout being measured, when it is a git work tree.
fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| first_line(&String::from_utf8_lossy(&o.stdout)))
        .unwrap_or_else(|| "unknown".into())
}

/// The stamp, in a fixed field order.
pub fn stamp(ranks: usize) -> Vec<(String, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut s = vec![
        ("nproc".to_owned(), nproc.to_string()),
        ("cpu_model".to_owned(), cpu_model()),
        ("last_level_cache".to_owned(), last_level_cache()),
        ("rustc".to_owned(), env!("PERFBENCH_RUSTC").to_owned()),
        ("commit".to_owned(), commit()),
        ("ranks".to_owned(), ranks.to_string()),
    ];
    for k in KNOBS {
        let v = std::env::var(k).unwrap_or_else(|_| "unset".into());
        s.push((k.to_owned(), v));
    }
    s
}
