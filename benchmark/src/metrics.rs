//! The metric names, units and bounds this benchmark fixes — the same list
//! `BENCHMARK.json` carries (a unit test holds the two together).

/// How `--repeat` judges a metric across runs of the same code and seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// A deterministic function of the seed: must repeat bit for bit.
    Exact,
    /// A host-clock measurement that may worsen by at most this share.
    Timed(f64),
    /// Reported with its spread, not judged (per-layer timings, and counts
    /// that depend on how many queries fit the window).
    Reported,
}

/// One named metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    /// Whether a lower value is the better one.
    pub lower_is_better: bool,
    pub kind: Kind,
}

const fn spec(name: &'static str, unit: &'static str, lower_is_better: bool, kind: Kind) -> Spec {
    Spec { name, unit, lower_is_better, kind }
}

/// What a user of the service sees; measured with all tracing off.
///
/// The host-clock bounds are what this benchmark can resolve, not what one
/// would wish for: on the 2-core VM it was written on, the same code gives
/// medians that wander by 5–12 % (quartile distance over ten runs) with the
/// machine's load, and the allocator makes `peak_rss_mb` wander by up to
/// 16 %. A bound has to be about three times that spread to mean anything.
///
/// The `sim_*` pair repeats exactly for one seed (`--repeat` asserts it),
/// but the driver compares runs over *different* seeds, whose data differ,
/// so `BENCHMARK.json` gives them the nonzero bound the tests below name.
pub const END_TO_END: [Spec; 6] = [
    spec("query_p50_ms", "ms", true, Kind::Timed(0.25)),
    spec("rows_per_s", "rows/s", false, Kind::Timed(0.25)),
    spec("peak_rss_mb", "MB", true, Kind::Timed(0.25)),
    spec("sim_makespan_ms", "ms", true, Kind::Exact),
    spec("sim_speedup_vs_serial", "ratio", false, Kind::Exact),
    spec("setup_s", "s", true, Kind::Timed(0.25)),
];

const fn us(name: &'static str) -> Spec {
    spec(name, "us", true, Kind::Reported)
}

const fn ms(name: &'static str) -> Spec {
    spec(name, "ms", true, Kind::Reported)
}

const fn exact(name: &'static str, unit: &'static str, lower_is_better: bool) -> Spec {
    spec(name, unit, lower_is_better, Kind::Exact)
}

/// Single layers, from the traced pass: a timing is the median self time of
/// the layer's span over the replayed queries, a count is exact.
///
/// `cpu_ms_per_query` leads the list although it is a whole-process number:
/// on `adhoc_small` (1.4 ms of CPU per query, most of it thread hand-offs
/// whose cost follows the hypervisor's mood) it wandered by 16–30 % between
/// runs of the same code, beyond any bound the driver accepts for an
/// end-to-end metric. It is measured over the same untraced window.
pub const PER_LAYER: [Spec; 55] = [
    ms("cpu_ms_per_query"),
    us("frontend.lex_us"),
    us("frontend.parse_us"),
    us("frontend.lower_us"),
    exact("frontend.plan_nodes", "count", true),
    us("core.fingerprint_us"),
    us("core.prepare_fusion_us"),
    exact("core.fused_groups", "count", true),
    exact("core.max_group_len", "count", false),
    us("checker.check_plan_us"),
    ms("core.execute_prepared_ms"),
    ms("core.exec_residual_ms"),
    us("core.merge_plans_us"),
    us("ir.optimize_us"),
    exact("ir.instrs_o0", "count", true),
    exact("ir.instrs_o3", "count", true),
    us("ir.compile_kernel_us"),
    spec("ir.batch_rows_per_s", "rows/s", false, Kind::Reported),
    ms("relalg.select_ms"),
    exact("relalg.select_rows", "rows", true),
    ms("relalg.arith_ms"),
    exact("relalg.arith_rows", "rows", true),
    ms("relalg.aggregate_ms"),
    exact("relalg.aggregate_rows", "rows", true),
    ms("relalg.sort_ms"),
    exact("relalg.sort_rows", "rows", true),
    ms("relalg.column_join_ms"),
    exact("relalg.column_join_rows", "rows", true),
    ms("relalg.join_ms"),
    exact("relalg.join_rows", "rows", true),
    ms("relalg.project_ms"),
    exact("relalg.project_rows", "rows", true),
    us("vgpu.simulate_us"),
    exact("vgpu.commands", "count", true),
    exact("vgpu.sim_h2d_ms", "ms", true),
    exact("vgpu.sim_compute_ms", "ms", true),
    exact("vgpu.sim_d2h_ms", "ms", true),
    exact("vgpu.peak_resident_mb", "MB", true),
    us("server.queue_wait_us"),
    us("server.batch_form_us"),
    us("server.compile_us"),
    ms("server.execute_ms"),
    us("server.reply_us"),
    ms("server.overhead_ms"),
    spec("server.cache_hit_rate", "share", false, Kind::Reported),
    spec("server.plan_compiles", "count", true, Kind::Reported),
    spec("server.cache_entries", "count", true, Kind::Reported),
    spec("server.mean_batch", "count", false, Kind::Reported),
    ms("server.query_tail_ms"),
    spec("server.query_tail_pct", "%", false, Kind::Reported),
    spec("trace.recorder_on_overhead_pct", "%", true, Kind::Reported),
    spec("bench.span_overhead_pct", "%", true, Kind::Reported),
    spec("ledger.unattributed_share", "share", true, Kind::Reported),
    spec("tpch.generate_s", "s", true, Kind::Reported),
    exact("tpch.lineitem_rows", "rows", false),
];

/// One measured value of a named metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub name: &'static str,
    pub value: f64,
    /// How many observations the value summarizes.
    pub samples: u64,
}

impl Sample {
    pub fn new(name: &'static str, value: f64, samples: u64) -> Self {
        Sample { name, value, samples }
    }
}

/// `samples` in `specs` order; an error names a metric measured twice, never
/// measured, or not finite.
pub fn in_catalog_order(specs: &[Spec], samples: &[Sample]) -> Result<Vec<Sample>, String> {
    if let Some(stray) = samples.iter().find(|s| specs.iter().all(|spec| spec.name != s.name)) {
        return Err(format!("metric {} is not in the catalog", stray.name));
    }
    specs
        .iter()
        .map(|spec| {
            let mut found = samples.iter().filter(|s| s.name == spec.name);
            match (found.next(), found.next()) {
                (Some(s), None) if s.value.is_finite() => Ok(s.clone()),
                (Some(s), None) => Err(format!("metric {} is {}", spec.name, s.value)),
                (None, _) => Err(format!("metric {} was not measured", spec.name)),
                (Some(_), Some(_)) => Err(format!("metric {} was measured twice", spec.name)),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;
    use kfusion::trace::json::{parse, Value};

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
    /// Room for seed-to-seed data differences: row counts and selectivities
    /// move the simulated makespan by a few percent.
    const SIM_BOUND_ACROSS_SEEDS: f64 = 0.10;

    /// The bound `BENCHMARK.json` states for a metric.
    fn json_bound(spec: &Spec) -> f64 {
        match spec.kind {
            Kind::Timed(bound) => bound,
            _ => SIM_BOUND_ACROSS_SEEDS,
        }
    }

    fn listed(doc: &Value, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc.get(key)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("{key} is an array"))
            .iter()
            .map(|m| {
                let text = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                (text("name"), text("unit"), text("better"), m.get("bound").and_then(Value::as_f64))
            })
            .collect()
    }

    fn better(spec: &Spec) -> String {
        if spec.lower_is_better { "lower" } else { "higher" }.to_string()
    }

    #[test]
    fn benchmark_json_lists_exactly_this_catalog() {
        let doc = parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let end_to_end: Vec<_> = END_TO_END
            .iter()
            .map(|s| (s.name.to_string(), s.unit.to_string(), better(s), Some(json_bound(s))))
            .collect();
        assert_eq!(listed(&doc, "end_to_end"), end_to_end);
        let per_layer: Vec<_> = PER_LAYER
            .iter()
            .map(|s| (s.name.to_string(), s.unit.to_string(), better(s), None))
            .collect();
        assert_eq!(listed(&doc, "per_layer"), per_layer);

        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS.map(|w| w.name()));
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|s| s.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used once");
        for spec in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(spec.name.len() <= 64 && spec.unit.len() <= 16, "{spec:?}");
            assert!(json_bound(spec) <= 0.25);
        }
        assert!(END_TO_END.iter().any(|s| s.name == "setup_s" && s.unit == "s"));
    }

    #[test]
    fn catalog_order_rejects_missing_duplicate_and_stray_metrics() {
        let specs = [us("a"), us("b")];
        let (a, b) = (Sample::new("a", 1.0, 3), Sample::new("b", 2.0, 3));
        assert_eq!(
            in_catalog_order(&specs, &[b.clone(), a.clone()]),
            Ok(vec![a.clone(), b.clone()])
        );
        assert!(in_catalog_order(&specs, std::slice::from_ref(&a))
            .unwrap_err()
            .contains("b was not"));
        assert!(in_catalog_order(&specs, &[a.clone(), a.clone(), b.clone()]).is_err());
        assert!(in_catalog_order(&specs, &[a.clone(), b, Sample::new("c", 0.0, 1)]).is_err());
        assert!(in_catalog_order(&specs, &[a, Sample::new("b", f64::NAN, 1)]).is_err());
    }
}
