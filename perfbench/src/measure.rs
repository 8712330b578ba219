//! What one pass of a workload measured, per rank and merged.

use std::collections::BTreeMap;

use carve_comm::{Comm, CommStats, ReduceOp};
use carve_obs::Snapshot;

use crate::clock::Elapsed;

/// What one rank brings back from a pass over a workload's units.
#[derive(Default)]
pub struct RankOut {
    /// Operations attempted and failed (global: every rank agrees).
    pub attempted: u64,
    pub failed: u64,
    /// One entry per set-up (spec → ready-to-solve state).
    pub setup: Vec<Elapsed>,
    /// One entry per unit of work (its time to solution).
    pub units: Vec<Elapsed>,
    /// Per request class (`hit`, `block`, …) and per benchmark span
    /// (`build`, `solve`, `eval`): one entry per call.
    pub spans: BTreeMap<&'static str, Vec<Elapsed>>,
    /// Exact counts. Summed over ranks when merged, so values every rank
    /// agrees on are recorded by rank 0 only (see [`RankOut::global`]).
    pub counts: BTreeMap<String, f64>,
    /// Failure descriptions (rank 0 only).
    pub failures: Vec<String>,
    /// The rank's `carve-obs` data for this pass, when traced.
    pub obs: Option<Snapshot>,
}

impl RankOut {
    pub fn span(&mut self, name: &'static str, e: Elapsed) {
        self.spans.entry(name).or_default().push(e);
    }

    pub fn add(&mut self, key: &str, v: f64) {
        *self.counts.entry(key.to_owned()).or_insert(0.0) += v;
    }

    /// Adds a value every rank holds identically, once for the cluster.
    pub fn global(&mut self, comm: &Comm, key: &str, v: f64) {
        if comm.rank() == 0 {
            self.add(key, v);
        }
    }

    /// Adds this rank's `CommStats` growth since `before` under
    /// `comm.{msgs,bytes,coll_calls}.<class>` and counts one operation of
    /// the class.
    pub fn comm_delta(&mut self, comm: &Comm, class: &str, before: &CommStats) {
        let now = comm.stats();
        self.add(
            &format!("comm.msgs.{class}"),
            (now.messages - before.messages) as f64,
        );
        self.add(
            &format!("comm.bytes.{class}"),
            (now.bytes_sent - before.bytes_sent) as f64,
        );
        let coll = (now.collective_calls - before.collective_calls) as f64;
        self.add(&format!("comm.coll_calls.{class}"), coll);
        self.global(comm, &format!("ops.{class}"), 1.0);
    }

    /// Records one operation's verdict, agreed across ranks: it failed if
    /// it failed on any rank.
    pub fn verdict(&mut self, comm: &Comm, ok: bool, what: impl FnOnce() -> String) {
        let bad = comm.all_reduce_u64(u64::from(!ok), ReduceOp::Max) > 0;
        self.attempted += 1;
        if bad {
            self.failed += 1;
            if comm.rank() == 0 {
                self.failures.push(what());
            }
        }
    }
}

/// A pass merged over ranks: wall times from rank 0 (collectives keep the
/// ranks in step), CPU times summed over the rank threads, counts summed.
#[derive(Default)]
pub struct Pass {
    pub attempted: u64,
    pub failed: u64,
    pub setup: Vec<Elapsed>,
    pub units: Vec<Elapsed>,
    pub spans: BTreeMap<&'static str, Vec<Elapsed>>,
    pub counts: BTreeMap<String, f64>,
    pub failures: Vec<String>,
    pub obs: Vec<Snapshot>,
}

fn merge_samples(ranks: &[&Vec<Elapsed>]) -> Vec<Elapsed> {
    let n = ranks.iter().map(|r| r.len()).min().unwrap_or(0);
    (0..n)
        .map(|i| Elapsed {
            wall_s: ranks[0][i].wall_s,
            cpu_s: ranks.iter().map(|r| r[i].cpu_s).sum(),
        })
        .collect()
}

impl Pass {
    pub fn merge(ranks: Vec<RankOut>) -> Pass {
        let first = &ranks[0];
        let mut spans = BTreeMap::new();
        for name in first.spans.keys() {
            let per: Vec<&Vec<Elapsed>> = ranks.iter().map(|r| &r.spans[name]).collect();
            spans.insert(*name, merge_samples(&per));
        }
        let mut counts = BTreeMap::new();
        for r in &ranks {
            for (k, v) in &r.counts {
                *counts.entry(k.clone()).or_insert(0.0) += v;
            }
        }
        Pass {
            attempted: first.attempted,
            failed: first.failed,
            setup: merge_samples(&ranks.iter().map(|r| &r.setup).collect::<Vec<_>>()),
            units: merge_samples(&ranks.iter().map(|r| &r.units).collect::<Vec<_>>()),
            spans,
            counts,
            failures: first.failures.clone(),
            obs: ranks.into_iter().filter_map(|r| r.obs).collect(),
        }
    }

    pub fn count(&self, key: &str) -> f64 {
        self.counts.get(key).copied().unwrap_or(0.0)
    }

    /// Wall seconds of every call of a span (empty when the workload has
    /// no such span).
    pub fn wall(&self, span: &str) -> Vec<f64> {
        self.spans
            .get(span)
            .map(|v| v.iter().map(|e| e.wall_s).collect())
            .unwrap_or_default()
    }

    pub fn cpu(&self, span: &str) -> Vec<f64> {
        self.spans
            .get(span)
            .map(|v| v.iter().map(|e| e.cpu_s).collect())
            .unwrap_or_default()
    }
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds the hypervisor has taken from this machine's virtual CPUs
/// since boot (the `steal` column of `/proc/stat`, in 1/100 s ticks).
/// Steal during a run stretches its wall times without touching thread CPU
/// time; it is reported beside the run so a stolen run can be told apart
/// from a slow program.
pub fn host_steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|t| {
            let cpu = t.lines().next()?.strip_prefix("cpu ")?.to_owned();
            cpu.split_whitespace().nth(7)?.parse::<f64>().ok()
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}
