//! Concurrent plan-cache stress: many threads, few shapes.
//!
//! The cache's contract is "compile once per shape, modulo benign races":
//! a thread can only pay a miss on its *first* encounter with a shape
//! (afterwards the entry is resident), so total compiles are bounded by
//! `threads x shapes` and in practice sit near `shapes`. The answers must
//! be byte-identical to uncached execution no matter which thread's
//! compile won the race.

use kfusion_core::exec::{execute, execute_prepared, ExecConfig, Strategy};
use kfusion_core::graph::{OpKind, PlanGraph};
use kfusion_core::multiquery::merge_plans;
use kfusion_relalg::{gen, predicates};
use kfusion_server::PlanCache;
use kfusion_vgpu::GpuSystem;

const THREADS: usize = 8;
const ROUNDS: usize = 6;

fn shape(i: usize) -> PlanGraph {
    // Four distinct shapes: selection chains of different depths/constants.
    let mut g = PlanGraph::new();
    let mut cur = g.input(0);
    for d in 0..(1 + i % 4) {
        cur = g.add(OpKind::Select { pred: predicates::key_lt(1 << (28 + i % 4 + d)) }, vec![cur]);
    }
    g
}

#[test]
fn concurrent_lookups_share_compiles_and_answers_stay_byte_identical() {
    let system = GpuSystem::c2070();
    let cfg = ExecConfig::new(Strategy::Fusion, &system);
    let tables = [gen::random_keys(60_000, 17)];
    let cache = PlanCache::new(cfg);
    let shapes = 4;

    // Uncached ground truth, one per shape.
    let expected: Vec<_> =
        (0..shapes).map(|i| execute(&system, &shape(i), &tables, &cfg).unwrap().output).collect();

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (cache, cfg, system, tables, expected) =
                (&cache, &cfg, &system, &tables, &expected);
            s.spawn(move || {
                for r in 0..ROUNDS {
                    let i = (t + r) % shapes;
                    let plan = shape(i);
                    let fusion =
                        cache.prepare(&merge_plans(std::slice::from_ref(&plan))).unwrap().0;
                    let got = execute_prepared(system, &plan, tables, cfg, &fusion).unwrap();
                    assert_eq!(got.output, expected[i], "thread {t} round {r} shape {i}");
                }
            });
        }
    });

    let stats = cache.stats();
    assert_eq!(stats.entries, shapes, "{stats:?}");
    assert_eq!(stats.hits + stats.misses, (THREADS * ROUNDS) as u64, "{stats:?}");
    assert_eq!(stats.misses, stats.compiles, "{stats:?}");
    // A thread can only miss on its first encounter with a shape; all later
    // lookups of that shape hit. So compiles are bounded by threads x shapes
    // (the benign-race ceiling), far below one-compile-per-query.
    assert!(stats.compiles <= (THREADS * shapes) as u64, "{stats:?}");
    assert!(stats.hits >= ((ROUNDS - 1) * THREADS) as u64, "{stats:?}");
}

#[test]
fn cache_hit_plans_are_shared_not_recompiled() {
    let system = GpuSystem::c2070();
    let cfg = ExecConfig::new(Strategy::Fusion, &system);
    let cache = PlanCache::new(cfg);
    let first = cache.prepare(&merge_plans(&[shape(0)])).unwrap().0;
    let handles: Vec<_> = std::thread::scope(|s| {
        (0..THREADS)
            .map(|_| {
                let cache = &cache;
                s.spawn(move || cache.prepare(&merge_plans(&[shape(0)])).unwrap().0)
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    for h in &handles {
        assert!(std::sync::Arc::ptr_eq(h, &first), "hits must share the one compiled plan");
    }
    assert_eq!(cache.stats().compiles, 1);
}

#[test]
fn racing_duplicate_compiles_stay_bounded_and_leak_nothing() {
    // Many threads race the same *fresh* shape: some duplicate the compile
    // (benign, bounded by the racer count), but every caller must converge
    // on the map's winning Arc and every losing duplicate must be dropped.
    // The exact-interleaving version of this property is explored
    // exhaustively by the `cache-race-duplicate-compile` scenario in
    // `crates/checker/src/model_scenarios.rs`; this test covers the real
    // thread scheduler at a scale the explorer cannot.
    let system = GpuSystem::c2070();
    let cfg = ExecConfig::new(Strategy::Fusion, &system);
    let cache = PlanCache::new(cfg);
    let plans: Vec<_> = std::thread::scope(|s| {
        (0..THREADS)
            .map(|_| {
                let cache = &cache;
                s.spawn(move || cache.prepare(&merge_plans(&[shape(1)])).unwrap().0)
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    let stats = cache.stats();
    assert_eq!(stats.entries, 1, "{stats:?}");
    assert!(
        (1..=THREADS as u64).contains(&stats.compiles),
        "compiles must stay within the benign-race ceiling: {stats:?}"
    );
    for p in &plans {
        assert!(std::sync::Arc::ptr_eq(p, &plans[0]), "racers must converge on one plan");
    }
    // Losing compiles' Arcs are gone: the only strong refs left are the
    // cache's map entry plus our THREADS clones. A duplicate surviving
    // anywhere would show up here as a leaked count.
    assert_eq!(
        std::sync::Arc::strong_count(&plans[0]),
        THREADS + 1,
        "every losing duplicate Arc must have been dropped"
    );
}
