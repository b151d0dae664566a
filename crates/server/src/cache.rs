//! The plan cache: compile once per plan *shape*, share the result.
//!
//! `prepare_fusion` — verify, fuse, optimize — is a pure function of the
//! plan's structure, the register budget, and the optimization level
//! ([`PlanKey`] captures exactly those), plus the strategy *class* (serial
//! strategies take the singleton plan, fused ones run the fusion pass).
//! The cache keys on `(PlanKey, class)` and hands out `Arc<FusionPlan>`s,
//! so concurrent submissions of structurally identical plans pay the
//! compile side once and share the result by reference.
//!
//! Misses build **outside** the lock: two threads racing on the same fresh
//! shape may both compile it (a benign, bounded duplication — the second
//! insert defers to the first), but no thread ever executes a query while
//! holding the cache lock. The `compiles` counter counts real compile runs,
//! so the stress test can distinguish "once per shape, plus benign races"
//! from "once per query".

use crate::ServerError;
use kfusion_core::exec::{prepare_fusion, ExecConfig, Strategy};
use kfusion_core::fingerprint::fingerprint_multi;
use kfusion_core::fusion::FusionPlan;
use kfusion_core::graph::PlanGraph;
use kfusion_core::multiquery::MergedPlan;
use kfusion_core::PlanKey;
// Shimmed sync (std in production builds): the cache's racy-miss protocol
// is one of the fixed scenarios `kfusion-model` explores exhaustively.
use kfusion_model::sync::atomic::{AtomicU64, Ordering};
use kfusion_model::sync::{Arc, Mutex, MutexGuard};
use std::collections::HashMap;

/// Unfused strategies prepare singleton plans, fused strategies run the
/// fusion pass; a cached entry is only valid within its class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum PlanClass {
    Singleton,
    Fused,
}

fn class_of(strategy: Strategy) -> PlanClass {
    if strategy.fuses() {
        PlanClass::Fused
    } else {
        PlanClass::Singleton
    }
}

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
    /// Distinct `(shape, budget, level, class)` entries resident.
    pub entries: usize,
}

/// A concurrent map from plan shape to its prepared [`FusionPlan`].
#[derive(Debug, Default)]
pub struct PlanCache {
    map: Mutex<HashMap<(PlanKey, PlanClass), Arc<FusionPlan>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    compiles: AtomicU64,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Prepared fusion plan for a single-root `graph` under `cfg`, cached.
    pub fn prepare(
        &self,
        graph: &PlanGraph,
        cfg: &ExecConfig,
    ) -> Result<Arc<FusionPlan>, ServerError> {
        self.prepare_observed(graph, cfg).map(|(plan, _)| plan)
    }

    /// Like [`PlanCache::prepare`], but also reports whether the lookup was
    /// a hit — the bit the service's `QueryRecord` attributes compile time
    /// against.
    pub fn prepare_observed(
        &self,
        graph: &PlanGraph,
        cfg: &ExecConfig,
    ) -> Result<(Arc<FusionPlan>, bool), ServerError> {
        let key = (PlanKey::new(graph, &cfg.budget, cfg.level), class_of(cfg.strategy));
        self.get_or_build(key, || prepare_fusion(graph, cfg).map_err(Into::into))
    }

    /// Prepared fusion plan for a merged multi-root batch, cached on the
    /// batch's combined fingerprint: a recurring batch *composition* (e.g.
    /// the same two dashboard queries admitted together every window) hits
    /// after its first compile.
    pub fn prepare_multi(
        &self,
        merged: &MergedPlan,
        cfg: &ExecConfig,
    ) -> Result<Arc<FusionPlan>, ServerError> {
        self.prepare_multi_observed(merged, cfg).map(|(plan, _)| plan)
    }

    /// Like [`PlanCache::prepare_multi`], but also reports hit/miss.
    pub fn prepare_multi_observed(
        &self,
        merged: &MergedPlan,
        cfg: &ExecConfig,
    ) -> Result<(Arc<FusionPlan>, bool), ServerError> {
        let key = PlanKey {
            plan: fingerprint_multi(&merged.graph, &merged.roots),
            max_regs_per_thread: cfg.budget.max_regs_per_thread,
            level: cfg.level,
        };
        self.get_or_build((key, class_of(cfg.strategy)), || {
            prepare_fusion(&merged.graph, cfg).map_err(Into::into)
        })
    }

    fn get_or_build(
        &self,
        key: (PlanKey, PlanClass),
        build: impl FnOnce() -> Result<FusionPlan, ServerError>,
    ) -> Result<(Arc<FusionPlan>, bool), ServerError> {
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
        let plan = Arc::new(build()?);
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

    fn lock(&self) -> MutexGuard<'_, HashMap<(PlanKey, PlanClass), Arc<FusionPlan>>> {
        // The critical sections only touch the map; a poisoned lock means a
        // panic elsewhere, not a broken map.
        self.map.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfusion_core::graph::OpKind;
    use kfusion_relalg::predicates;
    use kfusion_vgpu::GpuSystem;

    fn query(t: u64) -> PlanGraph {
        let mut g = PlanGraph::new();
        let i = g.input(0);
        g.add(OpKind::Select { pred: predicates::key_lt(t) }, vec![i]);
        g
    }

    #[test]
    fn same_shape_compiles_once() {
        let s = GpuSystem::c2070();
        let cfg = ExecConfig::new(Strategy::Fusion, &s);
        let cache = PlanCache::new();
        let a = cache.prepare(&query(10), &cfg).unwrap();
        let b = cache.prepare(&query(10), &cfg).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same shape must share one plan");
        let st = cache.stats();
        assert_eq!((st.hits, st.misses, st.compiles, st.entries), (1, 1, 1, 1));
    }

    #[test]
    fn predicate_constants_are_part_of_the_shape() {
        let s = GpuSystem::c2070();
        let cfg = ExecConfig::new(Strategy::Fusion, &s);
        let cache = PlanCache::new();
        cache.prepare(&query(10), &cfg).unwrap();
        cache.prepare(&query(11), &cfg).unwrap();
        assert_eq!(cache.len(), 2, "different constants are different shapes");
    }

    #[test]
    fn serial_and_fused_preparations_do_not_alias() {
        let s = GpuSystem::c2070();
        let cache = PlanCache::new();
        let mut g = PlanGraph::new();
        let i = g.input(0);
        let a = g.add(OpKind::Select { pred: predicates::key_lt(5) }, vec![i]);
        g.add(OpKind::Select { pred: predicates::key_lt(3) }, vec![a]);
        let fused = cache.prepare(&g, &ExecConfig::new(Strategy::Fusion, &s)).unwrap();
        let serial = cache.prepare(&g, &ExecConfig::new(Strategy::Serial, &s)).unwrap();
        assert_eq!(fused.groups.len(), 1);
        assert_eq!(serial.groups.len(), 2, "singleton plan per operator");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn multi_key_covers_batch_composition() {
        let s = GpuSystem::c2070();
        let cfg = ExecConfig::new(Strategy::Fusion, &s);
        let cache = PlanCache::new();
        let m2 = kfusion_core::multiquery::merge_plans(&[query(10), query(20)]);
        let m1 = kfusion_core::multiquery::merge_plans(&[query(10)]);
        cache.prepare_multi(&m2, &cfg).unwrap();
        cache.prepare_multi(&m1, &cfg).unwrap();
        cache.prepare_multi(&m2, &cfg).unwrap();
        let st = cache.stats();
        assert_eq!((st.hits, st.entries), (1, 2), "{st:?}");
    }
}
