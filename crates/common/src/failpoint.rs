//! Deterministic fault injection: named failpoints with seeded decisions.
//!
//! A *failpoint* is a named site on a hot path (`net.write.partial`,
//! `svc.estimate.delay`, …) where the serving tier asks "should something
//! go wrong right here?". In a normal build the whole registry exists but
//! is *disarmed*: [`hit`] is one relaxed atomic load and every site answers
//! `None`. A chaos run arms the registry with a seed and configures
//! specific sites.
//!
//! **Determinism.** Every chaos run must be replayable from a printed seed.
//! Each site draws from its *own* [`Xoshiro256pp`] stream, seeded as
//! `seed ^ fxhash(site-name)`, so the decision sequence at one site is a
//! pure function of `(seed, site, hit index)` — concurrent traffic at
//! *other* sites (a time-driven health prober, a background sweep) cannot
//! shift it. A serially issued request schedule therefore reproduces the
//! exact same fault sequence on every run. [`FireMode::FirstN`] and
//! [`FireMode::Every`] are counter-driven and deterministic even under
//! concurrent hits at the same site.
//!
//! **Scoping.** One process often hosts several tiers at once (the chaos
//! harness runs a gateway *and* its backends in-process; so do the loopback
//! tests). Faults usually belong to one tier: corrupting the *backend's*
//! responses must not also corrupt the gateway's answers to the external
//! client, or no invariant about end-to-end correctness can hold. Each
//! thread carries an inherited scope label ([`set_thread_scope`] /
//! [`thread_scope`]); servers capture the constructing thread's scope and
//! re-apply it to their worker threads. A [`FaultSpec`] with a `scope`
//! only fires on threads carrying that label (and only such hits count in
//! its statistics). Scope is checked *before* any RNG draw, so scoped and
//! unscoped traffic cannot perturb each other's decision streams.

use crate::fxhash::fxhash64;
use crate::rng::Xoshiro256pp;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// What a fired failpoint asks the call site to do. Sites interpret the
/// action in their own terms (a "reset" on an accept path drops the socket;
/// on a write path it closes mid-frame); an action a site cannot express is
/// ignored there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Stall for the given duration before proceeding.
    Delay(Duration),
    /// Fail the operation (probe failure, injected error return).
    Err,
    /// Drop the connection (accept-time reset, mid-frame close).
    Reset,
    /// Split the write: deliver a prefix now, the rest later (exercises
    /// partial-frame resumption on the peer).
    PartialWrite,
    /// Corrupt the outgoing frame's bytes (keeps framing, garbles content).
    Corrupt,
    /// Answer `BUSY` instead of doing the work (injected shed storm).
    Busy,
}

/// When a configured site fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FireMode {
    /// Every hit fires.
    Always,
    /// The first `n` hits fire, then the site goes quiet. The workhorse for
    /// deterministic scenarios: the fire count is exactly `min(hits, n)`
    /// regardless of timing.
    FirstN(u64),
    /// Every `n`th hit fires (hits 1-based: hit `n`, `2n`, …).
    Every(u64),
    /// Each hit fires with probability `p`, drawn from the site's own
    /// seeded stream (deterministic for a serial hit sequence).
    Prob(f64),
}

/// One site's configuration: what to inject, when, and for whom.
#[derive(Debug, Clone)]
pub struct FaultSpec {
    /// The injected action.
    pub action: FaultAction,
    /// Firing schedule.
    pub mode: FireMode,
    /// Only threads whose [`thread_scope`] equals this label are affected;
    /// `None` affects every thread.
    pub scope: Option<String>,
}

impl FaultSpec {
    /// Fire on every matching hit.
    pub fn always(action: FaultAction) -> Self {
        Self {
            action,
            mode: FireMode::Always,
            scope: None,
        }
    }

    /// Fire on the first `n` matching hits.
    pub fn first_n(action: FaultAction, n: u64) -> Self {
        Self {
            action,
            mode: FireMode::FirstN(n),
            scope: None,
        }
    }

    /// Fire on every `n`th matching hit.
    pub fn every(action: FaultAction, n: u64) -> Self {
        Self {
            action,
            mode: FireMode::Every(n.max(1)),
            scope: None,
        }
    }

    /// Fire with probability `p` per matching hit.
    pub fn prob(action: FaultAction, p: f64) -> Self {
        Self {
            action,
            mode: FireMode::Prob(p.clamp(0.0, 1.0)),
            scope: None,
        }
    }

    /// Restrict to threads scoped `scope` (builder-style).
    pub fn scoped(mut self, scope: &str) -> Self {
        self.scope = Some(scope.to_string());
        self
    }
}

/// Counters one site accumulated since it was configured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteStats {
    /// Site name.
    pub site: String,
    /// Matching hits (scope checked; non-matching traffic is not counted).
    pub hits: u64,
    /// Hits that fired the configured action.
    pub fires: u64,
}

/// Fast-path gate: one relaxed load decides whether [`hit`] does any
/// work at all.
static ARMED: AtomicBool = AtomicBool::new(false);
static SEED: AtomicU64 = AtomicU64::new(0);

struct Site {
    spec: FaultSpec,
    hits: AtomicU64,
    fires: AtomicU64,
    rng: Mutex<Xoshiro256pp>,
}

fn sites() -> &'static Mutex<BTreeMap<String, &'static Site>> {
    static SITES: OnceLock<Mutex<BTreeMap<String, &'static Site>>> = OnceLock::new();
    SITES.get_or_init(|| Mutex::new(BTreeMap::new()))
}

thread_local! {
    static SCOPE: RefCell<String> = const { RefCell::new(String::new()) };
}

/// Label this thread for scoped failpoints (empty = unscoped).
pub fn set_thread_scope(scope: &str) {
    SCOPE.with(|s| *s.borrow_mut() = scope.to_string());
}

/// This thread's scope label (empty when unscoped).
pub fn thread_scope() -> String {
    SCOPE.with(|s| s.borrow().clone())
}

/// Arm the registry with `seed`. Clears any previous site configs and
/// stats so a run always starts from a clean, replayable state.
pub fn arm(seed: u64) {
    clear();
    SEED.store(seed, Ordering::Release);
    ARMED.store(true, Ordering::Release);
}

/// Disarm (sites and stats are kept for inspection until [`clear`] or
/// the next [`arm`]).
pub fn disarm() {
    ARMED.store(false, Ordering::Release);
}

/// Is the registry armed?
pub fn armed() -> bool {
    ARMED.load(Ordering::Acquire)
}

/// The seed the registry was armed with.
pub fn seed() -> u64 {
    SEED.load(Ordering::Acquire)
}

/// Drop every site configuration and its statistics.
pub fn clear() {
    // Sites are leaked statics (hot-path reads never lock); clearing
    // forgets them from the table, which is bounded by the number of
    // distinct (site, configure-call) pairs a process makes — a test
    // and chaos-harness pattern, not a production allocation treadmill.
    sites().lock().unwrap().clear();
}

/// Configure (or reconfigure) one site. The site's RNG stream restarts
/// from `seed ^ fxhash(site)` and its counters reset, so per-site
/// decisions depend only on the seed, the name, and the hit index.
pub fn configure(site: &str, spec: FaultSpec) {
    let rng = Xoshiro256pp::new(seed() ^ fxhash64(site.as_bytes()));
    let boxed: &'static Site = Box::leak(Box::new(Site {
        spec,
        hits: AtomicU64::new(0),
        fires: AtomicU64::new(0),
        rng: Mutex::new(rng),
    }));
    sites().lock().unwrap().insert(site.to_string(), boxed);
}

/// Evaluate a failpoint. `None` in the overwhelmingly common case
/// (disarmed, site unconfigured, scope mismatch, or schedule says no);
/// `Some(action)` when the site fires.
pub fn hit(site: &str) -> Option<FaultAction> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    let entry: &'static Site = *sites().lock().unwrap().get(site)?;
    if let Some(want) = &entry.spec.scope {
        let matches = SCOPE.with(|s| *s.borrow() == *want);
        if !matches {
            return None;
        }
    }
    let hit_no = entry.hits.fetch_add(1, Ordering::AcqRel) + 1;
    let fires = match entry.spec.mode {
        FireMode::Always => true,
        FireMode::FirstN(n) => hit_no <= n,
        FireMode::Every(n) => hit_no.is_multiple_of(n.max(1)),
        FireMode::Prob(p) => entry.rng.lock().unwrap().chance(p),
    };
    if !fires {
        return None;
    }
    entry.fires.fetch_add(1, Ordering::AcqRel);
    Some(entry.spec.action)
}

/// Per-site statistics, sorted by site name.
pub fn snapshot() -> Vec<SiteStats> {
    sites()
        .lock()
        .unwrap()
        .iter()
        .map(|(name, s)| SiteStats {
            site: name.clone(),
            hits: s.hits.load(Ordering::Acquire),
            fires: s.fires.load(Ordering::Acquire),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, OnceLock};

    /// The registry is process-global; tests in this module serialize.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disarmed_sites_never_fire() {
        let _g = lock();
        disarm();
        clear();
        assert!(hit("x.y").is_none());
        arm(1);
        configure("x.y", FaultSpec::always(FaultAction::Err));
        disarm();
        assert!(hit("x.y").is_none());
        clear();
    }

    #[test]
    fn counter_modes_are_exact() {
        let _g = lock();
        arm(7);
        configure("a", FaultSpec::first_n(FaultAction::Err, 3));
        configure("b", FaultSpec::every(FaultAction::Err, 4));
        let fa = (0..10).filter(|_| hit("a").is_some()).count();
        let fb = (0..12).filter(|_| hit("b").is_some()).count();
        assert_eq!(fa, 3);
        assert_eq!(fb, 3, "hits 4, 8, 12");
        let snap = snapshot();
        assert_eq!(
            snap,
            vec![
                SiteStats {
                    site: "a".into(),
                    hits: 10,
                    fires: 3
                },
                SiteStats {
                    site: "b".into(),
                    hits: 12,
                    fires: 3
                },
            ]
        );
        disarm();
        clear();
    }

    #[test]
    fn prob_streams_are_per_site_and_replayable() {
        let _g = lock();
        let run = |seed: u64| -> (Vec<bool>, Vec<bool>) {
            arm(seed);
            configure("p.one", FaultSpec::prob(FaultAction::Err, 0.5));
            configure("p.two", FaultSpec::prob(FaultAction::Err, 0.5));
            // Interleave unevenly: site streams must not perturb each other.
            let mut one = Vec::new();
            let mut two = Vec::new();
            for i in 0..64 {
                one.push(hit("p.one").is_some());
                if i % 3 == 0 {
                    two.push(hit("p.two").is_some());
                }
            }
            disarm();
            (one, two)
        };
        let (a1, a2) = run(42);
        // Replay with extra traffic at an unrelated site in between.
        arm(42);
        configure("p.one", FaultSpec::prob(FaultAction::Err, 0.5));
        configure("p.two", FaultSpec::prob(FaultAction::Err, 0.5));
        configure("noise", FaultSpec::prob(FaultAction::Err, 0.9));
        let mut b1 = Vec::new();
        let mut b2 = Vec::new();
        for i in 0..64 {
            let _ = hit("noise");
            b1.push(hit("p.one").is_some());
            if i % 3 == 0 {
                let _ = hit("noise");
                b2.push(hit("p.two").is_some());
            }
        }
        disarm();
        assert_eq!(a1, b1, "per-site stream survives unrelated traffic");
        assert_eq!(a2, b2);
        let (c1, _) = run(43);
        assert_ne!(a1, c1, "different seed, different decisions");
        clear();
    }

    #[test]
    fn scoped_specs_only_fire_on_matching_threads() {
        let _g = lock();
        arm(5);
        configure(
            "s.only",
            FaultSpec::always(FaultAction::Reset).scoped("backend"),
        );
        assert!(hit("s.only").is_none(), "unscoped thread unaffected");
        set_thread_scope("gateway");
        assert!(hit("s.only").is_none(), "wrong scope unaffected");
        set_thread_scope("backend");
        assert_eq!(hit("s.only"), Some(FaultAction::Reset));
        set_thread_scope("");
        // Mismatched hits were not counted.
        let snap = snapshot();
        let s = snap.iter().find(|s| s.site == "s.only").unwrap();
        assert_eq!((s.hits, s.fires), (1, 1));
        disarm();
        clear();
    }

    #[test]
    fn scope_is_per_thread_and_inheritable_by_hand() {
        let _g = lock();
        set_thread_scope("main-scope");
        let inherited = thread_scope();
        let seen = std::thread::spawn(move || {
            let before = thread_scope();
            set_thread_scope(&inherited);
            (before, thread_scope())
        })
        .join()
        .unwrap();
        assert_eq!(seen.0, "", "threads start unscoped");
        assert_eq!(seen.1, "main-scope");
        set_thread_scope("");
    }
}
