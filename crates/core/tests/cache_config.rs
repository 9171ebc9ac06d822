//! Capacity/eviction/coalescing/poison behavior of the process-global
//! compile cache.
//!
//! Lives in its own integration-test binary (one process, one cache) so
//! the counters are not raced by the crate's unit tests. The whole
//! sequence is one test function for the same reason: the harness runs
//! test functions concurrently within a binary.

use orion_alloc::realize::{AllocOptions, SlotBudget};
use orion_core::cache::{self, FingerprintedModule, CACHE_CAPACITY};
use orion_core::compiler::{compile, TuningConfig};
use orion_gpusim::device::DeviceSpec;
use orion_kir::builder::FunctionBuilder;
use orion_kir::function::Module;
use orion_kir::inst::Operand;
use orion_kir::types::{MemSpace, SpecialReg, Width};

fn module(tag: usize) -> Module {
    let mut b = FunctionBuilder::kernel("cfg");
    let tid = b.mov(Operand::Special(SpecialReg::TidX));
    let a = b.imad(tid, Operand::Imm(4), Operand::Param(0));
    let x = b.ld(MemSpace::Global, Width::W32, a, 0);
    let y = b.iadd(x, Operand::Imm(tag as i64)); // distinct fingerprint per tag
    b.st(MemSpace::Global, Width::W32, a, y, 0);
    Module::new(b.finish())
}

fn alloc(tag: usize) {
    cache::allocate_cached(
        FingerprintedModule::new(&module(tag)),
        SlotBudget { reg_slots: 8, smem_slots: 0 },
        &AllocOptions::default(),
    )
    .expect("alloc");
}

#[test]
fn capacity_bounds_entries_and_counts_evictions() {
    // Fill the cache to capacity plus two: exactly the two oldest
    // entries are evicted.
    cache::reset();
    for tag in 0..CACHE_CAPACITY + 2 {
        alloc(tag);
    }
    let st = cache::stats();
    assert_eq!(st.entries, CACHE_CAPACITY, "{st:?}");
    assert_eq!(st.misses, CACHE_CAPACITY as u64 + 2, "{st:?}");
    assert_eq!(st.hits, 0, "{st:?}");
    assert_eq!(st.evictions, 2, "{st:?}");

    // FIFO, not LRU: tags 0 and 1 are gone, tag 2 (now the oldest) and
    // the newest tag are resident. Hitting tag 2 does not protect it —
    // the next insertion evicts it all the same.
    let before = cache::stats();
    alloc(2);
    alloc(CACHE_CAPACITY + 1);
    let st = cache::stats().delta_since(&before);
    assert_eq!((st.hits, st.misses, st.evictions), (2, 0, 0), "{st:?}");
    alloc(0);
    alloc(2);
    let st = cache::stats().delta_since(&before);
    assert_eq!((st.hits, st.misses, st.evictions), (2, 2, 2), "{st:?}");
    assert_eq!(st.entries, CACHE_CAPACITY, "{st:?}");

    // Reset drops every entry and zeroes the counters.
    cache::reset();
    let st = cache::stats();
    assert_eq!((st.hits, st.misses, st.evictions, st.entries), (0, 0, 0, 0));

    // Concurrent cold-key requests coalesce onto one allocation:
    // exactly 1 miss and N-1 hits, whatever the thread interleaving.
    let m = module(9_999);
    let fm = FingerprintedModule::new(&m);
    let before = cache::stats();
    std::thread::scope(|scope| {
        for _ in 0..6 {
            scope.spawn(move || {
                cache::allocate_cached(
                    fm,
                    SlotBudget { reg_slots: 8, smem_slots: 0 },
                    &AllocOptions::default(),
                )
                .expect("alloc");
            });
        }
    });
    let d = cache::stats().delta_since(&before);
    assert_eq!(d.misses, 1, "{d:?}");
    assert_eq!(d.hits, 5, "{d:?}");
    // Threads that arrived while the allocation was in flight count as
    // coalesced; late arrivals are plain hits. Either way, never more
    // coalesced waits than hits.
    assert!(d.coalesced <= d.hits, "{d:?}");

    // A poisoned cache (a thread panicked while holding the lock) is
    // recovered, not propagated: the next operation clears it, counts
    // the recovery, and subsequent compiles succeed.
    cache::reset();
    let before_poison = cache::stats().poison_recovered;
    // Quiet hook: the induced panic is part of the test, not noise.
    let prior_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    cache::poison_for_chaos();
    std::panic::set_hook(prior_hook);
    let recovered = cache::stats().poison_recovered;
    assert_eq!(recovered, before_poison + 1, "stats() itself recovers the poisoned cache");
    for tag in 200..204 {
        alloc(tag); // compiles succeed after recovery
        alloc(tag);
    }
    let st = cache::stats();
    assert_eq!((st.hits, st.misses), (4, 4), "warm repeats hit again after recovery: {st:?}");
    assert_eq!(st.poison_recovered, recovered, "one poison event, one recovery");
    // reset() preserves the resilience counter.
    cache::reset();
    assert_eq!(cache::stats().poison_recovered, recovered);

    // A warm rebuild of a kernel's candidate set re-allocates nothing:
    // every lookup of the second compile hits. (A reset between the two
    // compiles zeroes the counters, so the warm delta would read no hits.)
    let (dev, cfg) = (DeviceSpec::gtx680(), TuningConfig::new(128));
    let m = module(300);
    let before = cache::stats();
    compile(&m, &dev, &cfg).expect("cold compile");
    let after_cold = cache::stats();
    compile(&m, &dev, &cfg).expect("warm compile");
    let cold = after_cold.delta_since(&before);
    let warm = cache::stats().delta_since(&after_cold);
    assert!(cold.misses > 0, "the cold compile allocates: {cold:?}");
    assert_eq!(
        (warm.hits, warm.misses),
        (cold.hits + cold.misses, 0),
        "the warm rebuild re-allocated a candidate: {warm:?}"
    );
}
