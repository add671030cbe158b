//! Thread-stress tests of the lock-free page-state machinery: the
//! poison → lost → healthy transitions of [`PageRegistry`] and the bit
//! traffic of [`SkipMask`] hammered from many OS threads. No fault may ever
//! be double-counted or lost, exactly one thread may observe each SIGBUS,
//! and the counters must balance when the dust settles.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use feir_pagemem::{AccessOutcome, PageRegistry, PageStatus, SkipMask};

const THREADS: usize = 8;
const PAGES: usize = 64;
const ROUNDS: usize = 200;

#[test]
fn registry_hammered_from_many_threads_never_loses_a_fault() {
    let registry = Arc::new(PageRegistry::new());
    let vector = registry.register("stress", PAGES);
    let barrier = Arc::new(Barrier::new(THREADS));
    let discoveries = Arc::new(AtomicUsize::new(0));

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let registry = Arc::clone(&registry);
            let barrier = Arc::clone(&barrier);
            let discoveries = Arc::clone(&discoveries);
            scope.spawn(move || {
                barrier.wait();
                for round in 0..ROUNDS {
                    for p in 0..PAGES {
                        // Every thread races all three transitions on a
                        // rotating page schedule so injector, application and
                        // recovery interleave on the same pages.
                        let page = (p + t * 7 + round * 13) % PAGES;
                        registry.inject(vector, page);
                        if registry.on_access(vector, page) == AccessOutcome::FaultDiscovered {
                            discoveries.fetch_add(1, Ordering::Relaxed);
                            // Only the discovering thread repairs the page —
                            // as the paper's recovery tasks do.
                            registry.mark_recovered(vector, page);
                        }
                    }
                }
            });
        }
    });

    // Drain: materialise any still-poisoned page, then repair everything.
    for p in 0..PAGES {
        if registry.on_access(vector, p) != AccessOutcome::Ok {
            registry.mark_recovered(vector, p);
        }
    }
    assert!(registry.all_healthy());
    // Every injection that landed was discovered exactly once and repaired:
    // the registry's own counters must agree with the test's observation.
    assert_eq!(
        registry.discovered_count(),
        discoveries.load(Ordering::Relaxed)
    );
    assert_eq!(
        registry.discovered_count(),
        registry.injected_count(),
        "a poisoned page was lost or double-discovered"
    );
    assert!(registry.recovered_count() >= registry.discovered_count());
    assert!(
        registry.injected_count() > 0,
        "stress produced no injections"
    );
}

#[test]
fn exactly_one_discovery_per_injection_under_contention() {
    // Repeat the one-page race many times: each round injects once, then all
    // threads pounce; exactly one may win.
    let registry = Arc::new(PageRegistry::new());
    let vector = registry.register("one-page", 1);
    for round in 0..100 {
        assert!(registry.inject(vector, 0), "round {round}");
        let winners = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(Barrier::new(THREADS));
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                let registry = Arc::clone(&registry);
                let winners = Arc::clone(&winners);
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    barrier.wait();
                    if registry.on_access(vector, 0) == AccessOutcome::FaultDiscovered {
                        winners.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(winners.load(Ordering::Relaxed), 1, "round {round}");
        assert_eq!(registry.probe(vector, 0), PageStatus::Lost);
        registry.mark_recovered(vector, 0);
    }
    assert_eq!(registry.injected_count(), 100);
    assert_eq!(registry.discovered_count(), 100);
    assert_eq!(registry.recovered_count(), 100);
}

#[test]
fn concurrent_injections_count_once_per_page() {
    // Every thread tries to poison every page; each page counts once.
    let registry = PageRegistry::new();
    let vector = registry.register("x", PAGES);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let registry = &registry;
            scope.spawn(move || {
                for p in 0..PAGES {
                    registry.inject(vector, (p + t) % PAGES);
                }
            });
        }
    });
    assert_eq!(registry.injected_count(), PAGES);
    assert_eq!(registry.poisoned_pages(vector).len(), PAGES);
}

#[test]
fn skipmask_bits_are_independent_under_concurrent_traffic() {
    let mask = Arc::new(SkipMask::new(PAGES));
    let barrier = Arc::new(Barrier::new(THREADS));
    // Each thread owns one bit and toggles it over all pages many times;
    // bits of other threads must never be disturbed. Bit 63 stays set
    // throughout as a canary.
    for p in 0..PAGES {
        mask.set(p, 63);
    }
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let mask = Arc::clone(&mask);
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                let bit = t as u32;
                barrier.wait();
                for _ in 0..ROUNDS {
                    for p in 0..PAGES {
                        mask.set(p, bit);
                        assert!(mask.is_set(p, bit));
                        assert!(mask.any_of(p, 1 << bit));
                        mask.clear(p, bit);
                    }
                }
            });
        }
    });
    for p in 0..PAGES {
        assert_eq!(mask.raw(p), 1 << 63, "page {p} lost the canary bit");
    }
    assert_eq!(mask.pages_with_any(1 << 63).len(), PAGES);
    assert!(!mask.all_clear());
}

#[test]
fn registry_and_skipmask_cooperate_like_the_solver_phases() {
    // The resilient CG's contract: a task marks its output page's skip bit
    // when an input is invalid, and recovery clears it after repairing the
    // page. Run that protocol from many threads and require a consistent
    // final state: no page both healthy and skipped, no fault unaccounted.
    let registry = Arc::new(PageRegistry::new());
    let vector = registry.register("d", PAGES);
    let mask = Arc::new(SkipMask::new(PAGES));
    let bit = 2u32;
    let barrier = Arc::new(Barrier::new(THREADS));

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let registry = Arc::clone(&registry);
            let mask = Arc::clone(&mask);
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                barrier.wait();
                for round in 0..ROUNDS {
                    let page = (t * 31 + round * 17) % PAGES;
                    if t % 2 == 0 {
                        // Injector role.
                        registry.inject(vector, page);
                    } else {
                        // Solver-task role: touch, skip on loss; only the
                        // thread that received the SIGBUS repairs the page
                        // (recovering on AlreadyLost could race a fresh
                        // injection and absorb it without a discovery).
                        match registry.on_access(vector, page) {
                            AccessOutcome::Ok => {}
                            AccessOutcome::AlreadyLost => mask.set(page, bit),
                            AccessOutcome::FaultDiscovered => {
                                mask.set(page, bit);
                                // Recovery task: repair and clear the bit.
                                registry.mark_recovered(vector, page);
                                mask.clear(page, bit);
                            }
                        }
                    }
                }
            });
        }
    });

    // Settle: repair leftover poisoned/lost pages and clear stale skip bits
    // (an AlreadyLost observer may have re-marked a page after its recovery).
    for p in 0..PAGES {
        if registry.on_access(vector, p) != AccessOutcome::Ok {
            registry.mark_recovered(vector, p);
        }
        mask.clear(p, bit);
    }
    assert!(registry.all_healthy());
    assert!(mask.all_clear(), "a skip bit survived recovery");
    assert_eq!(registry.discovered_count(), registry.injected_count());
}
