//! The plan cache: compile once per batch *shape*, share the result.
//!
//! `prepare_fusion` — verify, fuse, optimize — is a pure function of the
//! plan's structure and of the [`ExecConfig`] it runs under (strategy
//! class, register budget, optimization level). A cache is built for the
//! one config of the service that owns it, so the config is not part of the
//! key and a cache can never mix strategy classes, budgets or levels: the
//! key is the structural fingerprint of the merged plan a dispatch runs
//! ([`fingerprint_multi`] over its graph and roots). A lone query is a merge
//! of one, so a recurring query and a recurring batch *composition* (e.g.
//! the same two dashboard queries admitted together every window) both hit
//! after their first compile. Entries are `Arc<FusionPlan>`s, so concurrent
//! dispatches of the same shape pay the compile side once and share the
//! result by reference.
//!
//! Misses build **outside** the lock: two threads racing on the same fresh
//! shape may both compile it (a benign, bounded duplication — the second
//! insert defers to the first), but no thread ever executes a query while
//! holding the cache lock. The `compiles` counter counts real compile runs,
//! so the stress test can distinguish "once per shape, plus benign races"
//! from "once per query".

use crate::ServerError;
use kfusion_core::exec::{prepare_fusion, ExecConfig};
use kfusion_core::fingerprint::fingerprint_multi;
use kfusion_core::fusion::FusionPlan;
use kfusion_core::multiquery::MergedPlan;
use kfusion_core::Fingerprint;
// Shimmed sync (std in production builds): the cache's racy-miss protocol
// is one of the fixed scenarios `kfusion-model` explores exhaustively.
use kfusion_model::sync::atomic::{AtomicU64, Ordering};
use kfusion_model::sync::{Arc, Mutex, MutexGuard};
use std::collections::HashMap;

/// A point-in-time view of the cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that found no entry.
    pub misses: u64,
    /// Actual compile-pipeline runs (≥ distinct shapes; > only when two
    /// threads raced on the same fresh shape).
    pub compiles: u64,
    /// Distinct batch shapes resident.
    pub entries: usize,
}

/// A concurrent map from batch shape to its prepared [`FusionPlan`], for
/// one [`ExecConfig`].
#[derive(Debug)]
pub struct PlanCache {
    cfg: ExecConfig,
    map: Mutex<HashMap<Fingerprint, Arc<FusionPlan>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    compiles: AtomicU64,
}

impl PlanCache {
    /// An empty cache that prepares every plan under `cfg`.
    pub fn new(cfg: ExecConfig) -> Self {
        PlanCache {
            cfg,
            map: Mutex::default(),
            hits: AtomicU64::default(),
            misses: AtomicU64::default(),
            compiles: AtomicU64::default(),
        }
    }

    /// The config every plan of this cache is prepared — and so must be
    /// executed — under.
    pub fn cfg(&self) -> &ExecConfig {
        &self.cfg
    }

    /// The prepared fusion plan for `merged`, and whether the lookup was a
    /// hit — the bit the service's `QueryRecord` attributes compile time
    /// against.
    pub fn prepare(&self, merged: &MergedPlan) -> Result<(Arc<FusionPlan>, bool), ServerError> {
        let key = fingerprint_multi(&merged.graph, &merged.roots);
        if let Some(plan) = self.lock().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            kfusion_trace::counter("kfusion_server_plan_cache_hits_total", 1);
            return Ok((plan.clone(), true));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        kfusion_trace::counter("kfusion_server_plan_cache_misses_total", 1);
        // Compile with the lock released; a racing thread duplicates work,
        // never blocks behind it.
        self.compiles.fetch_add(1, Ordering::Relaxed);
        kfusion_trace::counter("kfusion_server_plan_compiles_total", 1);
        let plan = Arc::new(prepare_fusion(&merged.graph, &self.cfg)?);
        Ok((self.lock().entry(key).or_insert(plan).clone(), false))
    }

    /// Current counters and residency.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            compiles: self.compiles.load(Ordering::Relaxed),
            entries: self.lock().len(),
        }
    }

    /// Number of cached shapes.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<Fingerprint, Arc<FusionPlan>>> {
        // The critical sections only touch the map; a poisoned lock means a
        // panic elsewhere, not a broken map.
        self.map.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfusion_core::exec::Strategy;
    use kfusion_core::graph::{OpKind, PlanGraph};
    use kfusion_core::multiquery::merge_plans;
    use kfusion_relalg::predicates;
    use kfusion_vgpu::GpuSystem;

    fn query(t: u64) -> PlanGraph {
        let mut g = PlanGraph::new();
        let i = g.input(0);
        g.add(OpKind::Select { pred: predicates::key_lt(t) }, vec![i]);
        g
    }

    fn fused() -> PlanCache {
        PlanCache::new(ExecConfig::new(Strategy::Fusion, &GpuSystem::c2070()))
    }

    #[test]
    fn same_shape_compiles_once() {
        let cache = fused();
        let (a, hit_a) = cache.prepare(&merge_plans(&[query(10)])).unwrap();
        let (b, hit_b) = cache.prepare(&merge_plans(&[query(10)])).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same shape must share one plan");
        assert_eq!((hit_a, hit_b), (false, true));
        let st = cache.stats();
        assert_eq!((st.hits, st.misses, st.compiles, st.entries), (1, 1, 1, 1));
    }

    #[test]
    fn predicate_constants_are_part_of_the_shape() {
        let cache = fused();
        cache.prepare(&merge_plans(&[query(10)])).unwrap();
        cache.prepare(&merge_plans(&[query(11)])).unwrap();
        assert_eq!(cache.len(), 2, "different constants are different shapes");
    }

    #[test]
    fn a_cache_prepares_under_its_own_config() {
        let s = GpuSystem::c2070();
        let mut g = PlanGraph::new();
        let i = g.input(0);
        let a = g.add(OpKind::Select { pred: predicates::key_lt(5) }, vec![i]);
        g.add(OpKind::Select { pred: predicates::key_lt(3) }, vec![a]);
        let merged = merge_plans(&[g]);
        let serial = PlanCache::new(ExecConfig::new(Strategy::Serial, &s));
        assert_eq!(fused().prepare(&merged).unwrap().0.groups.len(), 1);
        assert_eq!(serial.prepare(&merged).unwrap().0.groups.len(), 2, "one group per operator");
    }

    #[test]
    fn key_covers_batch_composition() {
        let cache = fused();
        let m2 = merge_plans(&[query(10), query(20)]);
        let m1 = merge_plans(&[query(10)]);
        cache.prepare(&m2).unwrap();
        cache.prepare(&m1).unwrap();
        cache.prepare(&m2).unwrap();
        let st = cache.stats();
        assert_eq!((st.hits, st.entries), (1, 2), "{st:?}");
    }
}
