//! The five workloads: what each one serves, over which tables, and the
//! answers its replies are held against.

use kfusion::core::exec::{execute, ExecConfig, Strategy};
use kfusion::core::graph::{OpKind, PlanGraph};
use kfusion::relalg::Relation;
use kfusion::server::{ServerConfig, TableRegistry};
use kfusion::tpch::gen::{generate, TpchConfig, TpchDb, MAX_DAY};
use kfusion::tpch::sql::{bit_identical, q6_schema, q6_sql, q6_wide_table};
use kfusion::tpch::{q1, q21, q6};
use kfusion::vgpu::GpuSystem;
use kfusion_prng::Rng;
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Scale factor of the four workloads that read real data (~1.2 M lineitems).
pub const SCALE: f64 = 0.2;
/// Scale factor of `adhoc_small` (~1.2 k lineitems): data time is ~0.
pub const ADHOC_SCALE: f64 = 0.0002;
/// Q21's nation parameter (the paper's Fig. 18(b) run).
const Q21_NATION: i64 = 20;
/// How many of `adhoc_small`'s first queries stand for its shape on the
/// simulated clock: enough that the mean makespan moves by only a few percent
/// from seed to seed.
const ADHOC_SIM_SHAPES: usize = 32;
/// Relative tolerance against the imperative references, which sum in a
/// different order than the plans do.
const REFERENCE_TOLERANCE: f64 = 1e-9;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Q6Scan,
    Q1Groupby,
    Q21Join,
    AdhocSmall,
    Q6Batched,
}

/// Every workload, in reporting order.
pub const WORKLOADS: [Workload; 5] = [
    Workload::Q6Scan,
    Workload::Q1Groupby,
    Workload::Q21Join,
    Workload::AdhocSmall,
    Workload::Q6Batched,
];

impl Workload {
    /// The name `--workload` takes and `BENCHMARK.json` lists.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Q6Scan => "q6_scan",
            Workload::Q1Groupby => "q1_groupby",
            Workload::Q21Join => "q21_join",
            Workload::AdhocSmall => "adhoc_small",
            Workload::Q6Batched => "q6_batched",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop client threads: never more than the machine has cores.
    pub fn clients(self, nproc: usize) -> usize {
        match self {
            Workload::Q6Batched => nproc.min(2),
            _ => 1,
        }
    }
}

/// The shipped executor configuration: fusion plus 8-way fission on the
/// paper's C2070.
pub fn exec_config(system: &GpuSystem) -> ExecConfig {
    ExecConfig::new(Strategy::FusionFission { segments: 8 }, system)
}

/// The shipped service configuration, untuned (2 ms window, 2 workers,
/// unbounded cache). Only the submit patience is raised, so a slow machine
/// queues a closed-loop client instead of refusing it.
pub fn server_config(system: &GpuSystem) -> ServerConfig {
    let mut config = ServerConfig::new(exec_config(system));
    config.submit_timeout = Duration::from_secs(30);
    config
}

/// The constants of a Q6-shaped query. Discounts are in basis points so the
/// whole tuple hashes and compares exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Q6Params {
    pub date_lo: i64,
    pub date_hi: i64,
    pub disc_lo_bp: i64,
    pub disc_hi_bp: i64,
    pub qty: i64,
}

impl Q6Params {
    /// The query as SQL text, in the shape of `tpch::sql::q6_sql`.
    pub fn sql(&self) -> String {
        format!(
            "SELECT SUM(extendedprice * discount) AS revenue, COUNT(*) FROM lineitem \
             WHERE shipdate >= {} AND shipdate < {} \
             AND discount BETWEEN 0.{:04} AND 0.{:04} AND quantity < {}",
            self.date_lo, self.date_hi, self.disc_lo_bp, self.disc_hi_bp, self.qty
        )
    }

    /// `(revenue, qualifying rows)` computed imperatively from the table
    /// arrays — the independent answer for a Q6-shaped query.
    pub fn reference(&self, db: &TpchDb) -> (f64, i64) {
        let li = &db.lineitem;
        let (disc_lo, disc_hi) = (self.disc_lo_bp as f64 / 1e4, self.disc_hi_bp as f64 / 1e4);
        let mut revenue = 0.0;
        let mut count = 0;
        for i in 0..li.len() {
            if (self.date_lo..self.date_hi).contains(&li.shipdate[i])
                && (disc_lo..=disc_hi).contains(&li.discount[i])
                && li.quantity[i] < self.qty as f64
            {
                revenue += li.extendedprice[i] * li.discount[i];
                count += 1;
            }
        }
        (revenue, count)
    }
}

/// Seeded stream of pairwise-distinct Q6-shaped queries: a random date
/// window, discount band and quantity bound each. The same seed gives the
/// same stream.
#[derive(Debug, Clone)]
pub struct AdhocGen {
    rng: Rng,
    seen: HashSet<Q6Params>,
}

impl AdhocGen {
    pub fn new(seed: u64) -> Self {
        AdhocGen { rng: Rng::seed_from_u64(seed), seen: HashSet::new() }
    }

    /// The next query's constants; never a tuple already handed out.
    pub fn next_params(&mut self) -> Q6Params {
        loop {
            let date_lo = self.rng.gen_range(0..MAX_DAY - 400);
            let disc_lo_pct = self.rng.gen_range(1i64..=8);
            let params = Q6Params {
                date_lo,
                date_hi: date_lo + self.rng.gen_range(30i64..=400),
                disc_lo_bp: disc_lo_pct * 100 - 1,
                disc_hi_bp: (disc_lo_pct + self.rng.gen_range(0i64..=2)) * 100 + 1,
                qty: self.rng.gen_range(2i64..=50),
            };
            if self.seen.insert(params) {
                return params;
            }
        }
    }
}

/// One query shape a client submits, with the answer its replies must match
/// bit for bit.
#[derive(Debug, Clone)]
pub struct Shape {
    /// The text submitted; `None` for a hand-built plan.
    pub sql: Option<String>,
    /// The plan (for text: what the registry compiles the text to).
    pub plan: PlanGraph,
    /// Output of a standalone `execute` of `plan` under the served strategy.
    pub expected: Relation,
    /// Rows the plan's `Input` leaves read.
    pub input_rows: u64,
    /// Simulated makespan in seconds: served strategy, `Strategy::Serial`.
    pub makespan_s: (f64, f64),
}

impl Shape {
    /// Execute `plan` standalone under the served strategy and under
    /// `Strategy::Serial`; the two answers must agree bit for bit.
    fn new(
        system: &GpuSystem,
        registry: &TableRegistry,
        sql: Option<String>,
        plan: PlanGraph,
    ) -> Result<Shape, String> {
        let tables = registry.tables();
        let served = execute(system, &plan, tables, &exec_config(system))
            .map_err(|e| format!("standalone execute failed: {e}"))?;
        let serial = execute(system, &plan, tables, &ExecConfig::new(Strategy::Serial, system))
            .map_err(|e| format!("serial execute failed: {e}"))?;
        if !bit_identical(&served.output, &serial.output) {
            return Err("served strategy and Strategy::Serial disagree".into());
        }
        let input_rows = plan
            .nodes
            .iter()
            .filter_map(|n| match n.kind {
                OpKind::Input { input } => Some(tables[input].len() as u64),
                _ => None,
            })
            .sum();
        Ok(Shape {
            sql,
            plan,
            expected: served.output,
            input_rows,
            makespan_s: (served.report.total(), serial.report.total()),
        })
    }

    /// The shape SQL text compiles to against `registry`.
    pub fn from_sql(
        system: &GpuSystem,
        registry: &TableRegistry,
        sql: String,
    ) -> Result<Shape, String> {
        let compiled = registry.compile(&sql).map_err(|e| format!("{sql}: {e}"))?;
        Shape::new(system, registry, Some(sql), compiled.plan)
    }
}

/// Where a workload's queries come from.
#[derive(Debug)]
pub enum Source {
    /// Client `c` submits `shapes[c]` over and over (plan-cache hits).
    Fixed(Vec<Shape>),
    /// The single client draws a fresh query each time (plan-cache misses).
    Adhoc(AdhocGen),
}

/// Everything a workload needs before it serves its first query.
#[derive(Debug)]
pub struct Setup {
    pub registry: TableRegistry,
    pub source: Source,
    /// Seconds `tpch::gen::generate` took.
    pub generate_s: f64,
    pub lineitem_rows: u64,
    /// Mean simulated makespan of the workload's shapes, served strategy.
    pub sim_makespan_ms: f64,
    /// Summed `Strategy::Serial` makespan over summed served makespan.
    pub sim_speedup_vs_serial: f64,
}

/// Hold a Q6-shaped answer against `(revenue, qualifying rows)` from an
/// imperative reference. No qualifying row means an empty answer.
fn check_q6(out: &Relation, reference: (f64, i64)) -> Result<(), String> {
    let agrees = match q6::q6_answer(out) {
        Some((revenue, count)) => {
            let tolerance = REFERENCE_TOLERANCE * reference.0.abs().max(1.0);
            count == reference.1 && (revenue - reference.0).abs() <= tolerance
        }
        None => out.is_empty() && reference.1 == 0,
    };
    if agrees {
        Ok(())
    } else {
        Err(format!("Q6-shaped answer {out:?} but the reference says {reference:?}"))
    }
}

fn lineitem_registry(db: &TpchDb) -> Result<TableRegistry, String> {
    let mut registry = TableRegistry::new();
    registry.add_table("lineitem", q6_schema(), q6_wide_table(db)).map_err(|e| e.to_string())?;
    Ok(registry)
}

fn positional_registry(inputs: Vec<Relation>) -> TableRegistry {
    let mut registry = TableRegistry::new();
    for rel in inputs {
        registry.add_relation(rel);
    }
    registry
}

/// Generate the workload's database from `seed`, register its tables, build
/// its query shapes with their expected answers, and check each shape once
/// against the independent imperative reference.
pub fn set_up(workload: Workload, system: &GpuSystem, seed: u64) -> Result<Setup, String> {
    let scale = if workload == Workload::AdhocSmall { ADHOC_SCALE } else { SCALE };
    let began = Instant::now();
    let db = generate(TpchConfig { scale, seed });
    let generate_s = began.elapsed().as_secs_f64();

    let (registry, shapes) = match workload {
        Workload::Q6Scan | Workload::Q6Batched => {
            let registry = lineitem_registry(&db)?;
            let mut shapes = vec![Shape::from_sql(system, &registry, q6_sql())?];
            check_q6(&shapes[0].expected, q6::reference_q6(&db))?;
            if workload.clients(nproc()) > 1 {
                // The second client's variant: other constants, same shape,
                // so a window holds two different plans over one input.
                let variant = Q6Params {
                    date_lo: q6::DATE_LO + 365,
                    date_hi: q6::DATE_HI + 365,
                    disc_lo_bp: 299,
                    disc_hi_bp: 501,
                    qty: 30,
                };
                let shape = Shape::from_sql(system, &registry, variant.sql())?;
                check_q6(&shape.expected, variant.reference(&db))?;
                shapes.push(shape);
            }
            (registry, shapes)
        }
        Workload::Q1Groupby => {
            let registry = positional_registry(q1::q1_inputs(&db));
            let shape = Shape::new(system, &registry, None, q1::q1_plan())?;
            if !q1::q1_matches_reference(
                &shape.expected,
                &q1::reference_q1(&db),
                REFERENCE_TOLERANCE,
            ) {
                return Err("Q1 answer disagrees with reference_q1".into());
            }
            (registry, vec![shape])
        }
        Workload::Q21Join => {
            let registry = positional_registry(q21::q21_inputs(&db));
            let shape = Shape::new(system, &registry, None, q21::q21_plan(Q21_NATION))?;
            if shape.expected != q21::reference_q21(&db, Q21_NATION) {
                return Err("Q21 answer disagrees with reference_q21".into());
            }
            (registry, vec![shape])
        }
        Workload::AdhocSmall => {
            let registry = lineitem_registry(&db)?;
            let mut probe = AdhocGen::new(seed);
            let mut shapes = Vec::with_capacity(ADHOC_SIM_SHAPES);
            for _ in 0..ADHOC_SIM_SHAPES {
                let params = probe.next_params();
                let shape = Shape::from_sql(system, &registry, params.sql())?;
                check_q6(&shape.expected, params.reference(&db))?;
                shapes.push(shape);
            }
            (registry, shapes)
        }
    };
    let served: f64 = shapes.iter().map(|s| s.makespan_s.0).sum();
    let serial: f64 = shapes.iter().map(|s| s.makespan_s.1).sum();
    Ok(Setup {
        registry,
        generate_s,
        lineitem_rows: db.lineitem.len() as u64,
        sim_makespan_ms: served / shapes.len() as f64 * 1e3,
        sim_speedup_vs_serial: serial / served,
        // `adhoc_small` serves the stream its probe shapes were the head of.
        source: match workload {
            Workload::AdhocSmall => Source::Adhoc(AdhocGen::new(seed)),
            _ => Source::Fixed(shapes),
        },
    })
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adhoc_stream_is_seeded_distinct_and_compiles() {
        let texts = |seed| {
            let mut gen = AdhocGen::new(seed);
            (0..500).map(|_| gen.next_params().sql()).collect::<Vec<_>>()
        };
        let a = texts(11);
        assert_eq!(a, texts(11), "same seed, same text");
        assert_ne!(a, texts(12));
        let distinct: HashSet<&String> = a.iter().collect();
        assert_eq!(distinct.len(), a.len(), "statements are pairwise distinct");

        let db = generate(TpchConfig { scale: ADHOC_SCALE, seed: 11 });
        let registry = lineitem_registry(&db).unwrap();
        let mut keys = HashSet::new();
        for sql in &a {
            let compiled = registry.compile(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
            keys.insert(kfusion::core::fingerprint_plan(&compiled.plan));
        }
        assert_eq!(keys.len(), a.len(), "every statement is its own plan-cache key");
    }

    #[test]
    fn default_constants_reproduce_the_library_reference() {
        let db = generate(TpchConfig { scale: 0.01, seed: 3 });
        let q6_as_params = Q6Params {
            date_lo: q6::DATE_LO,
            date_hi: q6::DATE_HI,
            disc_lo_bp: 499,
            disc_hi_bp: 701,
            qty: 24,
        };
        assert_eq!(q6_as_params.sql(), q6_sql());
        assert_eq!(q6_as_params.reference(&db), q6::reference_q6(&db));
    }

    #[test]
    fn every_workload_sets_up_against_its_reference() {
        // Full scale is the benchmark's job; here only that set-up passes its
        // own checks. `set_up` fixes the scale, so drive the pieces directly.
        let system = GpuSystem::c2070();
        let db = generate(TpchConfig { scale: 0.01, seed: 5 });
        let registry = lineitem_registry(&db).unwrap();
        let shape = Shape::from_sql(&system, &registry, q6_sql()).unwrap();
        check_q6(&shape.expected, q6::reference_q6(&db)).unwrap();
        assert_eq!(shape.input_rows, db.lineitem.len() as u64);
        assert!(check_q6(&shape.expected, (1.0, 1)).is_err());

        let small = set_up(Workload::AdhocSmall, &system, 5).unwrap();
        assert!(small.sim_makespan_ms > 0.0 && small.sim_speedup_vs_serial > 0.0);
        assert!(matches!(small.source, Source::Adhoc(_)));
    }

    #[test]
    fn names_round_trip_and_clients_stay_within_nproc() {
        for w in WORKLOADS {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            for cores in 1..=4 {
                assert!(w.clients(cores) <= cores);
            }
        }
        assert_eq!(Workload::from_name("all"), None);
    }
}
