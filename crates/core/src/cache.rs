//! Compiled-candidate cache: memoize Chaitin-Briggs allocation + layout
//! matching over `(kernel fingerprint, slot budget, allocator options)`.
//!
//! Orion's whole point is that occupancy search is cheap: ≤5 candidate
//! versions per kernel (§3.3), then repeated re-measurement across the
//! application loop (§3.4). The *same* allocation inputs recur
//! constantly in that regime — the Figure 8 candidate set is rebuilt
//! per sweep, Figure 9 walks re-realize versions they already produced,
//! and the resilient runtime's retry/quarantine loops re-plan
//! candidates after faults. All of those funnel through
//! [`allocate_cached`], so a version is realized once per process and
//! then served as a clone of the cached binary.
//!
//! ## Key
//!
//! The realized binary is a pure function of `(module, SlotBudget,
//! AllocOptions)` — the allocator never consults the device, the
//! occupancy bound, or shared-memory padding; those enter downstream,
//! when the driver computes occupancy for the *already realized*
//! binary and when the launch adds `extra_smem_per_block`. Keying on
//! the allocation inputs therefore both stays correct under any
//! device/padding combination and reuses one binary across all of
//! them. The module half of the key is a structural fingerprint
//! ([`orion_kir::function::Module::fingerprint`]) because workload
//! builders construct a fresh `Module` value per call. Fingerprinting
//! renders the whole module, so callers compute it once per module
//! ([`FingerprintedModule::new`]) and reuse it for every budget.
//!
//! The cache is **one mutex** over the entry map, its FIFO order, and
//! the counters. Compiles run on one thread at a time in practice:
//! `OrionService::run` compiles its batch sequentially on the calling
//! thread before its job threads start, and `OrionService::tune_one`
//! on the caller's thread; job threads only run launches. Compiling is a fraction of a
//! percent of a tuning run's wall time, so there is no contention to
//! stripe away.
//!
//! ## In-flight coalescing
//!
//! Allocation runs *outside* the lock (it is the expensive part), so
//! two threads racing on a cold key would both allocate — and worse,
//! split the hit/miss accounting nondeterministically. The cache
//! therefore tracks in-flight keys: the first requester registers the
//! key and allocates; concurrent requesters for the same key wait on
//! the cache's condvar and are served the freshly inserted entry as a
//! **hit** (also counted under [`CompileCacheStats::coalesced`]).
//! Hit/miss totals are thus a pure function of the request multiset,
//! whatever the thread interleaving — the observability suite's
//! bit-identical sequential-vs-concurrent gate leans on exactly this.
//! If the allocation fails, waiters simply retry the protocol
//! themselves.
//!
//! ## Poison recovery
//!
//! A thread that panics while holding the lock must not wedge every
//! future compile. All locking goes through one poison-tolerant helper:
//! a poisoned cache is *cleared* (entries are pure memoization, so
//! dropping them is always safe — the next request simply recompiles),
//! the event is counted ([`CompileCacheStats::poison_recovered`]) and
//! the mutex is un-poisoned. In-flight markers are cleaned up by an unwind-safe drop
//! guard plus a bounded condvar wait, so coalesced waiters can never
//! strand on an allocation whose owner died.
//!
//! ## Invalidation
//!
//! Entries never go stale — the key captures every input of the
//! allocation function — so the only invalidation is FIFO eviction at
//! [`CACHE_CAPACITY`] entries plus the explicit [`reset`] used by
//! benches to measure cold-cache behavior. Allocation *errors* are not
//! cached; they are deterministic but cheap (they fail early), and
//! callers treat them as exceptional.
//!
//! Hit/miss/eviction counters are exported programmatically
//! ([`stats`]). Each thread also keeps a tally of its own
//! operations next to the process-wide counters; a service batch
//! reports the delta of its calling thread's tally
//! ([`crate::service::ServiceReport::cache`]), so a batch counts only
//! its own lookups.

use orion_alloc::realize::{allocate, AllocError, AllocOptions, Allocated, SlotBudget};
use orion_kir::function::Module;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

/// Upper bound on one coalescing condvar wait. The in-flight guard
/// wakes waiters when an allocation resolves (or unwinds), so this
/// never fires on a healthy cache — it is pure defense so a lost wakeup
/// can never strand a waiter forever.
const COALESCE_WAIT: Duration = Duration::from_millis(50);

/// Maximum resident entries; past it the oldest entry is evicted
/// (FIFO). Far above any single tuning session in this repo (a sweep
/// realizes ≤ 16 versions per kernel), so eviction only matters to
/// unbounded multi-kernel processes.
pub const CACHE_CAPACITY: usize = 256;

type Key = (u64, SlotBudget, AllocOptions);

#[derive(Default)]
struct State {
    map: HashMap<Key, Arc<Allocated>>,
    /// Insertion order, for FIFO eviction at capacity.
    order: VecDeque<Key>,
    /// Keys some thread is currently allocating (coalescing).
    inflight: HashSet<Key>,
    /// Process-wide counters (`entries` unused: it is `map.len()`).
    counters: CompileCacheStats,
}

thread_local! {
    /// The counters of this thread's own cache operations, kept next to
    /// the process-wide ones so a caller can meter just its own work
    /// while other threads compile.
    static THREAD_COUNTERS: RefCell<CompileCacheStats> = RefCell::default();
}

/// Apply `bump` to the process-wide counters and to this thread's.
fn count(counters: &mut CompileCacheStats, bump: impl Fn(&mut CompileCacheStats)) {
    bump(counters);
    THREAD_COUNTERS.with_borrow_mut(bump);
}

impl State {
    /// Insert a freshly allocated entry, FIFO-evicting down to
    /// capacity first.
    fn insert(&mut self, key: Key, value: Allocated) {
        while self.map.len() >= CACHE_CAPACITY {
            let Some(oldest) = self.order.pop_front() else { break };
            self.map.remove(&oldest);
            count(&mut self.counters, |c| c.evictions += 1);
        }
        self.order.push_back(key);
        self.map.insert(key, Arc::new(value));
    }
}

#[derive(Default)]
struct Cache {
    state: Mutex<State>,
    /// Wakes coalesced waiters when an in-flight allocation resolves.
    resolved: Condvar,
}

static CACHE: OnceLock<Cache> = OnceLock::new();

fn cache() -> &'static Cache {
    CACHE.get_or_init(Cache::default)
}

/// Lock the cache, recovering from poison instead of propagating it.
///
/// A thread that panics while holding the lock leaves the contents in
/// an unknown state (a half-finished insert, an in-flight key whose
/// allocation will never resolve). Recovery therefore *clears* the
/// cache — resident entries, FIFO order, and in-flight markers — which
/// is always safe because entries are pure memoization, then counts the
/// event ([`CompileCacheStats::poison_recovered`]), un-poisons the mutex
/// so every future compile proceeds normally, and wakes any waiters
/// coalesced on a cleared in-flight key so they retry their own
/// allocation.
fn lock() -> MutexGuard<'static, State> {
    let cache = cache();
    match cache.state.lock() {
        Ok(st) => st,
        Err(poisoned) => {
            let mut st = poisoned.into_inner();
            st.map.clear();
            st.order.clear();
            st.inflight.clear();
            count(&mut st.counters, |c| c.poison_recovered += 1);
            cache.state.clear_poison();
            cache.resolved.notify_all();
            st
        }
    }
}

/// Clears `key`'s in-flight marker and wakes coalesced waiters when
/// dropped — *including* by unwind — so a panicking allocation can
/// never strand the threads waiting on it.
struct InflightGuard {
    key: Key,
}

impl Drop for InflightGuard {
    fn drop(&mut self) {
        lock().inflight.remove(&self.key);
        cache().resolved.notify_all();
    }
}

/// Counter snapshot of the process-wide compile cache.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CompileCacheStats {
    /// Allocations served from the cache.
    pub hits: u64,
    /// Allocations actually performed (Chaitin-Briggs + layout).
    pub misses: u64,
    /// Entries dropped by capacity-bound FIFO eviction.
    pub evictions: u64,
    /// Hits coalesced onto a concurrent in-flight allocation (a subset
    /// of `hits`).
    pub coalesced: u64,
    /// Times the mutex was found poisoned (a thread panicked while
    /// holding it) and recovered by clearing the cache. Counts
    /// resilience events, so [`reset`] preserves it.
    pub poison_recovered: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl CompileCacheStats {
    /// Aggregate hit fraction (0.0 when untouched).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }

    /// The activity between `before` and `self` (both from [`stats`]):
    /// counters are subtracted, `entries` keeps the *after* value (it is
    /// a level, not a flow).
    #[must_use]
    pub fn delta_since(&self, before: &CompileCacheStats) -> CompileCacheStats {
        CompileCacheStats {
            hits: self.hits.saturating_sub(before.hits),
            misses: self.misses.saturating_sub(before.misses),
            evictions: self.evictions.saturating_sub(before.evictions),
            coalesced: self.coalesced.saturating_sub(before.coalesced),
            poison_recovered: self.poison_recovered.saturating_sub(before.poison_recovered),
            entries: self.entries,
        }
    }
}

/// A module paired with its structural fingerprint, computed once.
///
/// The only constructor takes the module itself, so a cache key can
/// never be paired with a different module.
#[derive(Debug, Clone, Copy)]
pub struct FingerprintedModule<'a> {
    module: &'a Module,
    fingerprint: u64,
}

impl<'a> FingerprintedModule<'a> {
    /// Fingerprint `module` ([`Module::fingerprint`]).
    #[must_use]
    pub fn new(module: &'a Module) -> Self {
        FingerprintedModule { module, fingerprint: module.fingerprint() }
    }

    /// The module.
    #[must_use]
    pub fn module(&self) -> &'a Module {
        self.module
    }
}

/// [`orion_alloc::realize::allocate`] memoized over
/// `(module fingerprint, budget, options)`, with in-flight coalescing
/// (see the module docs).
///
/// # Errors
/// Propagates allocation failures (which are never cached).
pub fn allocate_cached(
    module: FingerprintedModule<'_>,
    budget: SlotBudget,
    opts: &AllocOptions,
) -> Result<Allocated, AllocError> {
    let key = (module.fingerprint, budget, *opts);
    let mut st = lock();
    let mut waited = false;
    loop {
        if let Some(hit) = st.map.get(&key).cloned() {
            count(&mut st.counters, |c| {
                c.hits += 1;
                c.coalesced += u64::from(waited);
            });
            drop(st);
            return Ok((*hit).clone());
        }
        if !st.inflight.contains(&key) {
            break;
        }
        waited = true;
        // Bounded wait: the in-flight guard signals on resolve *and*
        // on unwind; the timeout just re-checks in case a recovery
        // cleared the in-flight key between our test and the wait.
        st = match cache().resolved.wait_timeout(st, COALESCE_WAIT) {
            Ok((st, _timed_out)) => st,
            Err(poisoned) => {
                drop(poisoned); // releases the poisoned guard...
                lock() // ...and recovers the cache
            }
        };
    }
    count(&mut st.counters, |c| c.misses += 1);
    // Armed before the allocation runs: if `allocate` (or this thread,
    // between here and return) unwinds, the guard still clears the
    // in-flight marker and wakes waiters, so nobody coalesces forever
    // on a corpse.
    st.inflight.insert(key);
    let _inflight = InflightGuard { key };
    drop(st);
    let out = allocate(module.module, budget, opts);
    if let Ok(v) = &out {
        let mut st = lock();
        if !st.map.contains_key(&key) {
            st.insert(key, v.clone());
        }
    }
    // `_inflight` drops on return: marker cleared, waiters woken —
    // after the entry above is visible, so they resolve as hits.
    out
}

/// Snapshot the process-wide hit/miss/eviction/coalesce counters and
/// the resident entry count.
pub fn stats() -> CompileCacheStats {
    let st = lock();
    CompileCacheStats { entries: st.map.len(), ..st.counters.clone() }
}

/// Snapshot the counters of the calling thread's own cache operations
/// and the resident entry count. A delta of two such snapshots meters
/// only the work between them on this thread, whatever other threads
/// compile meanwhile.
pub(crate) fn thread_stats() -> CompileCacheStats {
    let entries = lock().map.len();
    CompileCacheStats { entries, ..THREAD_COUNTERS.with_borrow(Clone::clone) }
}

/// Drop every entry and zero the performance counters (cold-cache
/// measurements). The poison-recovery count is kept — it tallies
/// resilience events, not cache effectiveness, and reports assert on
/// its lifetime value.
pub fn reset() {
    let mut st = lock();
    st.map.clear();
    st.order.clear();
    st.counters = CompileCacheStats {
        poison_recovered: st.counters.poison_recovered,
        ..CompileCacheStats::default()
    };
}

/// Deliberately poison the cache's mutex: spawn a thread that takes the
/// lock and panics. Chaos/test helper proving poison recovery end to
/// end — the *next* cache operation clears the cache, increments
/// [`CompileCacheStats::poison_recovered`], and proceeds normally. The
/// panicking thread prints through the process panic hook; callers that
/// want silence install a quiet hook first.
pub fn poison_for_chaos() {
    let poisoner = std::thread::spawn(|| {
        let _guard = cache().state.lock().unwrap_or_else(PoisonError::into_inner);
        panic!("chaos: poisoning the compile cache on purpose");
    });
    // The join error *is* the panic we induced; swallowing it keeps the
    // poison (set when the guard dropped during unwind) as the only
    // side effect.
    let _ = poisoner.join();
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_kir::builder::FunctionBuilder;
    use orion_kir::inst::Operand;
    use orion_kir::types::{MemSpace, SpecialReg, Width};

    fn module() -> Module {
        let mut b = FunctionBuilder::kernel("cached");
        let tid = b.mov(Operand::Special(SpecialReg::TidX));
        let a = b.imad(tid, Operand::Imm(4), Operand::Param(0));
        let x = b.ld(MemSpace::Global, Width::W32, a, 0);
        // Hold several values live at once so a tight register budget
        // (see `distinct_budgets_are_distinct_entries`) must spill.
        let vals: Vec<_> = (1..=6).map(|k| b.iadd(x, Operand::Imm(k))).collect();
        let mut acc = b.iadd(vals[0], vals[1]);
        for v in &vals[2..] {
            acc = b.iadd(acc, *v);
        }
        b.st(MemSpace::Global, Width::W32, a, acc, 0);
        Module::new(b.finish())
    }

    // Note: the cache and its counters are process-global and the test
    // harness runs tests concurrently, so assertions below compare
    // against a snapshot with `>=`, not exact totals.
    #[test]
    fn hit_returns_identical_binary_and_counts() {
        let m = module();
        let budget = SlotBudget { reg_slots: 12, smem_slots: 0 };
        let before = stats();
        let fm = FingerprintedModule::new(&m);
        let cold = allocate_cached(fm, budget, &AllocOptions::default()).expect("alloc");
        let warm = allocate_cached(fm, budget, &AllocOptions::default()).expect("alloc");
        assert_eq!(cold.machine, warm.machine);
        // A structurally equal but separately built module still hits.
        let m2 = module();
        let again =
            allocate_cached(FingerprintedModule::new(&m2), budget, &AllocOptions::default())
                .expect("alloc");
        assert_eq!(again.machine, cold.machine);
        let after = stats();
        assert!(after.hits >= before.hits + 2, "{after:?} vs {before:?}");
    }

    #[test]
    fn distinct_budgets_are_distinct_entries() {
        let m = module();
        let fm = FingerprintedModule::new(&m);
        let a = allocate_cached(
            fm,
            SlotBudget { reg_slots: 12, smem_slots: 0 },
            &AllocOptions::default(),
        )
        .expect("alloc");
        let b = allocate_cached(
            fm,
            SlotBudget { reg_slots: 2, smem_slots: 0 },
            &AllocOptions::default(),
        )
        .expect("alloc");
        assert_ne!(a.machine, b.machine);
        assert!(stats().entries >= 2);
    }

    #[test]
    fn delta_since_subtracts_counters_and_keeps_levels() {
        let before = CompileCacheStats {
            hits: 10,
            misses: 4,
            evictions: 1,
            coalesced: 2,
            poison_recovered: 0,
            entries: 3,
        };
        let after = CompileCacheStats {
            hits: 25,
            misses: 9,
            evictions: 1,
            coalesced: 5,
            poison_recovered: 1,
            entries: 7,
        };
        let d = after.delta_since(&before);
        assert_eq!((d.hits, d.misses, d.evictions, d.coalesced), (15, 5, 0, 3));
        assert_eq!(d.poison_recovered, 1);
        assert_eq!(d.entries, 7);
    }

    // Exact-count coalescing behavior is asserted in the own-process
    // `cache_config` integration binary, where no concurrent test can
    // perturb the process-global counters.
}
