//! Phase-structured observability for the `carve` workspace.
//!
//! The paper's entire evaluation is a breakdown of wall-clock into phases —
//! construction, 2:1 balance, nodal enumeration, matvec top-down / leaf /
//! bottom-up, ghost exchange — so this crate makes that breakdown a
//! first-class subsystem (the FEMPAR / ForestClaw approach) instead of
//! ad-hoc `Instant` calls scattered through the solvers:
//!
//! * [`scope`] — RAII phase timers on a thread-local phase stack. Nested
//!   scopes produce hierarchical paths (`"matvec/leaf"`), so shared code
//!   (e.g. the traversal engine) is attributed to whichever phase is active
//!   in its caller.
//! * [`counter`] — monotonic counters attributed to the innermost active
//!   phase (`"node_copies"` under `"matvec/top_down"`, ghost bytes under
//!   `"ghost_read"`, …).
//! * [`Snapshot`] / [`snapshot`] / [`thread_snapshot`] — per-thread
//!   accumulators, merged on demand. A simulated-MPI rank (one OS thread)
//!   captures its own [`thread_snapshot`]; [`aggregate`] then folds the
//!   per-rank snapshots into min/mean/max summaries the way MPI profilers
//!   (mpiP, IPM) do.
//! * Runtime switch: recording is off by default; enable it with
//!   `CARVE_OBS=1`, [`set_enabled`], or (preferred inside library code that
//!   must measure regardless of the environment) the RAII [`force_enabled`]
//!   guard. The disabled path is a no-op behind an `Option` — one relaxed
//!   atomic load per call site — so instrumentation can stay in production
//!   hot paths.
//!
//! Everything is `std`-only and panic-free (a poisoned registry lock is
//! recovered, not propagated), so any crate in the workspace can depend on
//! it, including `carve-comm` which denies `unwrap`/`expect` crate-wide.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Phase that unattributed counters land in (counter incremented while no
/// scope is active on the thread, e.g. from a worker thread).
pub const UNPHASED: &str = "(unphased)";

// --- Enable switch --------------------------------------------------------

const BASE_UNINIT: u8 = 0;
const BASE_OFF: u8 = 1;
const BASE_ON: u8 = 2;

/// Lazily-initialized base flag (`CARVE_OBS` env; overridable by
/// [`set_enabled`]).
static BASE: AtomicU8 = AtomicU8::new(BASE_UNINIT);
/// Refcount of live [`force_enabled`] guards; recording is on while > 0.
static FORCE: AtomicUsize = AtomicUsize::new(0);

fn base_enabled() -> bool {
    match BASE.load(Ordering::Relaxed) {
        BASE_OFF => false,
        BASE_ON => true,
        _ => {
            let on = std::env::var("CARVE_OBS")
                .map(|v| !v.is_empty() && v != "0")
                .unwrap_or(false);
            BASE.store(if on { BASE_ON } else { BASE_OFF }, Ordering::Relaxed);
            on
        }
    }
}

/// Is recording currently enabled (env flag, [`set_enabled`], or a live
/// [`force_enabled`] guard)?
pub fn enabled() -> bool {
    FORCE.load(Ordering::Relaxed) > 0 || base_enabled()
}

/// Overrides the `CARVE_OBS` environment switch process-wide.
pub fn set_enabled(on: bool) {
    BASE.store(if on { BASE_ON } else { BASE_OFF }, Ordering::Relaxed);
}

/// RAII handle from [`force_enabled`]; recording stays on until every
/// outstanding guard is dropped.
pub struct EnabledGuard(());

/// Forces recording on for the guard's lifetime, regardless of `CARVE_OBS`.
/// Refcounted, so concurrent measurement sections (e.g. two calibration
/// tests) cannot switch each other off mid-run.
#[must_use = "recording stops when the guard is dropped"]
pub fn force_enabled() -> EnabledGuard {
    FORCE.fetch_add(1, Ordering::SeqCst);
    EnabledGuard(())
}

impl Drop for EnabledGuard {
    fn drop(&mut self) {
        FORCE.fetch_sub(1, Ordering::SeqCst);
    }
}

// --- Data model -----------------------------------------------------------

/// Accumulated statistics of one phase path on one thread (or merged set of
/// threads): call count, inclusive seconds, and counters raised inside it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhaseStats {
    pub calls: u64,
    pub secs: f64,
    pub counters: BTreeMap<String, u64>,
}

/// A point-in-time copy of accumulated phase data. Ordered map, so
/// serialization and comparison are deterministic.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    pub phases: BTreeMap<String, PhaseStats>,
}

impl Snapshot {
    /// Adds `other`'s phases and counters into `self`.
    pub fn merge(&mut self, other: &Snapshot) {
        for (path, st) in &other.phases {
            let e = self.phases.entry(path.clone()).or_default();
            e.calls += st.calls;
            e.secs += st.secs;
            for (k, v) in &st.counters {
                *e.counters.entry(k.clone()).or_insert(0) += v;
            }
        }
    }

    /// Statistics accumulated since `baseline` was captured (phases that did
    /// not advance are dropped). Counters and calls subtract saturating, so
    /// a `reset` between the two snapshots degrades gracefully.
    pub fn diff(&self, baseline: &Snapshot) -> Snapshot {
        let mut out = Snapshot::default();
        for (path, st) in &self.phases {
            let base = baseline.phases.get(path);
            let calls = st.calls - base.map_or(0, |b| b.calls.min(st.calls));
            let secs = (st.secs - base.map_or(0.0, |b| b.secs)).max(0.0);
            let mut counters = BTreeMap::new();
            for (k, v) in &st.counters {
                let bv = base.and_then(|b| b.counters.get(k)).copied().unwrap_or(0);
                let d = v.saturating_sub(bv);
                if d > 0 {
                    counters.insert(k.clone(), d);
                }
            }
            if calls > 0 || secs > 0.0 || !counters.is_empty() {
                out.phases.insert(
                    path.clone(),
                    PhaseStats {
                        calls,
                        secs,
                        counters,
                    },
                );
            }
        }
        out
    }

    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }
}

// --- Per-thread recording -------------------------------------------------

#[derive(Default)]
struct ThreadData {
    /// Stack of full phase paths currently open on this thread.
    stack: Vec<String>,
    snap: Snapshot,
}

/// Every thread that ever recorded, kept alive past thread death so global
/// snapshots see completed worker/rank threads.
static ALL_THREADS: Mutex<Vec<Arc<Mutex<ThreadData>>>> = Mutex::new(Vec::new());

/// Poison-immune lock: observability must never take a solver down.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

thread_local! {
    static DETACHED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    static TLS: Arc<Mutex<ThreadData>> = {
        let d = Arc::new(Mutex::new(ThreadData::default()));
        if !DETACHED.with(std::cell::Cell::get) {
            lock(&ALL_THREADS).push(Arc::clone(&d));
        }
        d
    };
}

/// Marks the calling thread as *detached*: its recorder is never registered
/// in the process-wide registry, so [`snapshot`] / [`aggregate`] consumers
/// do not see (or double-count) it. Short-lived worker threads that hand
/// their [`thread_snapshot`] back to a parent rank via [`absorb_rebased`]
/// call this first — otherwise each fork-join would leak a registry entry
/// *and* report the same phases twice.
///
/// Must be called before the thread's first `scope`/`counter`; once the
/// recorder exists, detaching is a no-op.
pub fn detach_thread() {
    DETACHED.with(|c| c.set(true));
}

/// Merges a worker thread's snapshot into the *calling* thread's recorder,
/// re-rooting every phase path under the caller's innermost open scope.
/// A worker that recorded `"top_down"` while the caller holds a `"matvec"`
/// scope lands as `"matvec/top_down"` — exactly where the same work would
/// have been attributed had it run inline. Seconds merge additively, so
/// absorbed phases report aggregate worker time, not wall-clock.
pub fn absorb_rebased(worker: &Snapshot) {
    if !enabled() || worker.is_empty() {
        return;
    }
    let cell = TLS.with(Arc::clone);
    let mut d = lock(&cell);
    let prefix = d.stack.last().cloned();
    for (path, st) in &worker.phases {
        let full = match &prefix {
            Some(p) => format!("{p}/{path}"),
            None => path.clone(),
        };
        let e = d.snap.phases.entry(full).or_default();
        e.calls += st.calls;
        e.secs += st.secs;
        for (k, v) in &st.counters {
            *e.counters.entry(k.clone()).or_insert(0) += v;
        }
    }
}

/// Open phase; records `{calls += 1, secs += elapsed}` under its full
/// hierarchical path when dropped.
pub struct PhaseGuard {
    path: String,
    start: Instant,
    cell: Arc<Mutex<ThreadData>>,
}

/// Opens a phase scope named `name`, nested under the innermost open scope
/// of this thread (`"top_down"` inside `"matvec"` records as
/// `"matvec/top_down"`). Returns `None` — a free no-op — when recording is
/// disabled. Bind the result (`let _obs = scope(..)`) so the guard lives to
/// the end of the region being timed.
pub fn scope(name: &str) -> Option<PhaseGuard> {
    if !enabled() {
        return None;
    }
    let cell = TLS.with(Arc::clone);
    let path = {
        let mut d = lock(&cell);
        let path = match d.stack.last() {
            Some(parent) => format!("{parent}/{name}"),
            None => name.to_owned(),
        };
        d.stack.push(path.clone());
        path
    };
    Some(PhaseGuard {
        path,
        start: Instant::now(),
        cell,
    })
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        let secs = self.start.elapsed().as_secs_f64();
        let mut d = lock(&self.cell);
        // Guards may be dropped out of LIFO order (interleaved scopes);
        // remove this guard's own entry, wherever it sits.
        if let Some(pos) = d.stack.iter().rposition(|p| *p == self.path) {
            d.stack.remove(pos);
        }
        let e = d
            .snap
            .phases
            .entry(std::mem::take(&mut self.path))
            .or_default();
        e.calls += 1;
        e.secs += secs;
    }
}

/// Adds `delta` to counter `name` under the innermost open phase of the
/// calling thread ([`UNPHASED`] when none). No-op when disabled.
pub fn counter(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    let cell = TLS.with(Arc::clone);
    let mut d = lock(&cell);
    let path = d
        .stack
        .last()
        .cloned()
        .unwrap_or_else(|| UNPHASED.to_owned());
    let e = d.snap.phases.entry(path).or_default();
    *e.counters.entry(name.to_owned()).or_insert(0) += delta;
}

/// Snapshot of the calling thread's accumulated data only. This is the
/// rank-local capture: immune to whatever other threads (other ranks, other
/// tests in the same process) are concurrently recording.
pub fn thread_snapshot() -> Snapshot {
    let cell = TLS.with(Arc::clone);
    let d = lock(&cell);
    d.snap.clone()
}

/// Merged snapshot across every thread that has recorded in this process,
/// including threads that have since exited.
pub fn snapshot() -> Snapshot {
    let mut out = Snapshot::default();
    let all = lock(&ALL_THREADS);
    for cell in all.iter() {
        let d = lock(cell);
        out.merge(&d.snap);
    }
    out
}

/// Clears accumulated data on every thread (open scope stacks are kept, so
/// a reset mid-phase still records subsequent exits consistently) and drops
/// registry entries of threads that have exited.
pub fn reset() {
    let mut all = lock(&ALL_THREADS);
    for cell in all.iter() {
        lock(cell).snap = Snapshot::default();
    }
    all.retain(|cell| Arc::strong_count(cell) > 1 || !lock(cell).snap.is_empty());
}

// --- Cross-rank aggregation ----------------------------------------------

/// Min/mean/max of a phase's seconds over the ranks where it appears.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SecsSummary {
    pub min: f64,
    pub mean: f64,
    pub max: f64,
}

/// One phase aggregated across ranks: calls and counters are summed, secs
/// summarized, `ranks` counts the ranks on which the phase appeared.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AggPhase {
    pub calls: u64,
    pub ranks: u64,
    pub secs: SecsSummary,
    pub counters: BTreeMap<String, u64>,
}

/// Per-rank snapshots folded into the MPI-profiler-style summary.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Report {
    /// Number of rank snapshots aggregated.
    pub ranks: u64,
    pub phases: BTreeMap<String, AggPhase>,
}

/// Folds per-rank snapshots into a [`Report`]: per phase, calls/counters sum
/// across ranks and seconds reduce to min/mean/max over the ranks where the
/// phase appeared.
pub fn aggregate(ranks: &[Snapshot]) -> Report {
    let mut phases: BTreeMap<String, AggPhase> = BTreeMap::new();
    for snap in ranks {
        for (path, st) in &snap.phases {
            let e = phases.entry(path.clone()).or_default();
            if e.ranks == 0 {
                e.secs = SecsSummary {
                    min: st.secs,
                    mean: 0.0,
                    max: st.secs,
                };
            } else {
                e.secs.min = e.secs.min.min(st.secs);
                e.secs.max = e.secs.max.max(st.secs);
            }
            e.secs.mean += st.secs; // divided by ranks below
            e.ranks += 1;
            e.calls += st.calls;
            for (k, v) in &st.counters {
                *e.counters.entry(k.clone()).or_insert(0) += v;
            }
        }
    }
    for p in phases.values_mut() {
        p.secs.mean /= p.ranks.max(1) as f64;
    }
    Report {
        ranks: ranks.len() as u64,
        phases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// Serialises the tests that read or write the process-wide switch
    /// (`FORCE` / `BASE`), so no test sees a sibling's guard.
    static SWITCH: Mutex<()> = Mutex::new(());

    fn lock_switch() -> MutexGuard<'static, ()> {
        SWITCH.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn nested_scopes_build_hierarchical_paths() {
        let _s = lock_switch();
        let _e = force_enabled();
        let before = thread_snapshot();
        {
            let _a = scope("alpha");
            {
                let _b = scope("beta");
                std::thread::yield_now();
            }
            {
                let _b = scope("beta");
            }
        }
        let d = thread_snapshot().diff(&before);
        assert_eq!(d.phases["alpha"].calls, 1);
        assert_eq!(d.phases["alpha/beta"].calls, 2);
        assert!(d.phases["alpha"].secs >= 0.0);
        assert!(!d.phases.contains_key("beta"), "inner scope must nest");
    }

    #[test]
    fn interleaved_guards_record_their_own_paths() {
        let _s = lock_switch();
        let _e = force_enabled();
        let before = thread_snapshot();
        let a = scope("ia");
        let b = scope("ib"); // path fixed at creation: "ia/ib"
        drop(a); // dropped before b — non-LIFO
        drop(b);
        let d = thread_snapshot().diff(&before);
        assert_eq!(d.phases["ia"].calls, 1);
        assert_eq!(d.phases["ia/ib"].calls, 1);
        // And the stack fully unwound: a fresh scope is top-level again.
        let before2 = thread_snapshot();
        drop(scope("after"));
        let d2 = thread_snapshot().diff(&before2);
        assert_eq!(d2.phases["after"].calls, 1);
    }

    #[test]
    fn counters_attach_to_innermost_phase() {
        let _s = lock_switch();
        let _e = force_enabled();
        let before = thread_snapshot();
        {
            let _a = scope("cphase");
            counter("widgets", 3);
            counter("widgets", 4);
        }
        counter("loose", 2);
        let d = thread_snapshot().diff(&before);
        assert_eq!(d.phases["cphase"].counters["widgets"], 7);
        assert_eq!(d.phases[UNPHASED].counters["loose"], 2);
    }

    #[test]
    fn disabled_mode_is_a_complete_noop() {
        // No force guard, base off: scope returns None, nothing recorded.
        let _s = lock_switch();
        assert_eq!(FORCE.load(Ordering::SeqCst), 0, "a force guard is live");
        let was = base_enabled();
        set_enabled(false);
        assert!(!enabled());
        let before = thread_snapshot();
        assert!(scope("ghost-phase").is_none());
        counter("ghost-counter", 99);
        let d = thread_snapshot().diff(&before);
        set_enabled(was);
        assert!(
            !d.phases.contains_key("ghost-phase") && !d.phases.contains_key(UNPHASED),
            "disabled mode recorded data: {d:?}"
        );
    }

    #[test]
    fn cross_thread_snapshot_merges_worker_data() {
        let _s = lock_switch();
        let _e = force_enabled();
        let before = snapshot();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    let _g = scope("worker");
                    counter("items", i + 1);
                })
            })
            .collect();
        for h in handles {
            let _ = h.join();
        }
        let d = snapshot().diff(&before);
        assert_eq!(d.phases["worker"].calls, 4);
        assert_eq!(d.phases["worker"].counters["items"], 1 + 2 + 3 + 4);
    }

    #[test]
    fn detached_threads_stay_out_of_global_snapshots() {
        let _s = lock_switch();
        let _e = force_enabled();
        let before = snapshot();
        let worker_snap = std::thread::spawn(|| {
            detach_thread();
            {
                let _g = scope("detached-phase");
                counter("detached-items", 5);
            }
            thread_snapshot()
        })
        .join()
        .expect("worker");
        // The worker saw its own data locally…
        assert_eq!(worker_snap.phases["detached-phase"].calls, 1);
        // …but the global registry never did.
        let d = snapshot().diff(&before);
        assert!(
            !d.phases.contains_key("detached-phase"),
            "detached thread leaked into global snapshot: {d:?}"
        );
    }

    #[test]
    fn absorb_rebased_nests_under_innermost_scope() {
        let _s = lock_switch();
        let _e = force_enabled();
        let mut worker = Snapshot::default();
        worker.phases.insert(
            "top_down".into(),
            PhaseStats {
                calls: 3,
                secs: 0.5,
                counters: BTreeMap::from([("node_copies".to_string(), 7)]),
            },
        );
        let before = thread_snapshot();
        {
            let _m = scope("outer");
            absorb_rebased(&worker);
            absorb_rebased(&worker);
        }
        let d = thread_snapshot().diff(&before);
        assert_eq!(d.phases["outer/top_down"].calls, 6);
        assert_eq!(d.phases["outer/top_down"].counters["node_copies"], 14);
        assert!(!d.phases.contains_key("top_down"), "must rebase, not copy");
        // Without an open scope, paths pass through unprefixed.
        let before2 = thread_snapshot();
        absorb_rebased(&worker);
        let d2 = thread_snapshot().diff(&before2);
        assert_eq!(d2.phases["top_down"].calls, 3);
    }

    #[test]
    fn aggregate_summarizes_min_mean_max() {
        let mk = |secs: f64, calls: u64| {
            let mut s = Snapshot::default();
            s.phases.insert(
                "ph".into(),
                PhaseStats {
                    calls,
                    secs,
                    counters: BTreeMap::from([("c".to_string(), calls)]),
                },
            );
            s
        };
        let r = aggregate(&[mk(1.0, 2), mk(3.0, 4), mk(2.0, 6)]);
        assert_eq!(r.ranks, 3);
        let p = &r.phases["ph"];
        assert_eq!(p.calls, 12);
        assert_eq!(p.ranks, 3);
        assert_eq!(p.secs.min, 1.0);
        assert_eq!(p.secs.max, 3.0);
        assert!((p.secs.mean - 2.0).abs() < 1e-15);
        assert_eq!(p.counters["c"], 12);
    }
}
