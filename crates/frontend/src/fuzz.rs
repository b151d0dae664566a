//! Generator-based differential fuzzer for the SQL front end.
//!
//! Random well-typed queries over random catalogs are compiled once and
//! executed under every engine × strategy × optimization-level combination;
//! the scalar engine running `Serial` is the oracle and every other
//! configuration must reproduce its answer *bit for bit*. This is the same
//! answer-equivalence discipline the rest of the repository applies to the
//! hand-built TPC-H plans, pointed at the front end: any divergence is a
//! bug in the lexer, parser, lowering, an optimizer rewrite, or an engine —
//! and the failing query is minimized back to a replayable SQL string.
//!
//! The generator is biased toward the traps that historically broke the
//! front end: division by zero-prone literals (i64 division by zero is
//! defined as 0, f64 follows IEEE), duplicate keys for GROUP BY KEY over
//! *unsorted* tables, float output columns under ORDER BY, `DESC`,
//! aggregates over computed expressions, and empty tables.

use crate::catalog::{Catalog, ColType, TableSchema};
use crate::lower::compile;
use kfusion_core::exec::{execute, ExecConfig, Strategy};
use kfusion_ir::opt::OptLevel;
use kfusion_prng::Rng;
use kfusion_relalg::{bit_identical, engine, Column, Relation};
use kfusion_vgpu::GpuSystem;
use std::fmt;

/// One generated case: a table, its catalog entry, and a query against it.
#[derive(Debug, Clone)]
pub struct FuzzCase {
    /// Seed that regenerates this exact case.
    pub seed: u64,
    /// The query text.
    pub sql: String,
    /// Catalog with the single generated table.
    pub catalog: Catalog,
    /// The generated table (plan input 0).
    pub table: Relation,
}

/// A confirmed mismatch (or execution failure), with everything needed to
/// replay it.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// Seed of the generating case.
    pub seed: u64,
    /// The original failing query.
    pub sql: String,
    /// The minimized failing query (equal to `sql` when minimization
    /// cannot shrink it).
    pub minimized: String,
    /// Which configuration diverged and how.
    pub detail: String,
}

impl fmt::Display for FuzzFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "frontend fuzz mismatch (replay with seed {}):", self.seed)?;
        writeln!(f, "  sql:       {}", self.sql)?;
        writeln!(f, "  minimized: {}", self.minimized)?;
        write!(f, "  detail:    {}", self.detail)
    }
}

/// Aggregate result of a fuzz run.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Queries generated and compiled.
    pub queries: usize,
    /// Plan executions across the whole configuration matrix.
    pub executions: usize,
    /// Confirmed divergences (empty on a clean run).
    pub failures: Vec<FuzzFailure>,
}

/// Restores the process-global engine selection on scope exit, so a failing
/// differential never leaks the scalar engine into the rest of the process.
struct EngineGuard {
    was: bool,
}

impl EngineGuard {
    fn new() -> Self {
        EngineGuard { was: engine::batch_enabled() }
    }
}

impl Drop for EngineGuard {
    fn drop(&mut self) {
        engine::set_batch_enabled(self.was);
    }
}

// ---------------------------------------------------------------------------
// Generation
// ---------------------------------------------------------------------------

/// Interesting f64 values the generator mixes into data and literals:
/// signed zeros, subnormal-adjacent magnitudes, and values that make
/// products/divisions overflow into inf.
const F64_POOL: [f64; 8] = [0.0, -0.0, 1.0, -1.5, 0.25, 0.05, 1e-3, 1e6];

/// Int literals are biased toward 0/1/2 so `/ 0` and `x / (c - c)` shapes
/// appear often.
const I64_POOL: [i64; 6] = [0, 0, 1, 2, -1, 100];

fn gen_f64(rng: &mut Rng) -> f64 {
    if rng.gen_bool(0.5) {
        F64_POOL[rng.gen_range(0usize..F64_POOL.len())]
    } else {
        (rng.gen_range(-1000i64..=1000) as f64) / 8.0
    }
}

fn gen_i64(rng: &mut Rng) -> i64 {
    if rng.gen_bool(0.5) {
        I64_POOL[rng.gen_range(0usize..I64_POOL.len())]
    } else {
        rng.gen_range(-50i64..=200)
    }
}

fn gen_literal(rng: &mut Rng) -> String {
    if rng.gen_bool(0.5) {
        // `{:?}` is Rust's shortest round-trip rendering; it may produce
        // exponent forms (`1e-3`), which the lexer accepts.
        format!("{:?}", gen_f64(rng).abs())
    } else {
        format!("{}", gen_i64(rng).unsigned_abs())
    }
}

/// A random parenthesized expression over the schema's columns. Every
/// composite is fully parenthesized so rendering never depends on
/// precedence.
fn gen_expr(rng: &mut Rng, schema: &TableSchema, depth: usize) -> String {
    let leaf = depth == 0 || rng.gen_bool(0.4);
    if leaf {
        match rng.gen_range(0usize..4) {
            0 => gen_literal(rng),
            1 => "KEY".to_string(),
            _ => {
                let names: Vec<&str> = schema.names().collect();
                names[rng.gen_range(0usize..names.len())].to_string()
            }
        }
    } else if rng.gen_bool(0.15) {
        format!("(- {})", gen_expr(rng, schema, depth - 1))
    } else {
        let op = ["+", "-", "*", "/"][rng.gen_range(0usize..4)];
        let lhs = gen_expr(rng, schema, depth - 1);
        let rhs = gen_expr(rng, schema, depth - 1);
        format!("({lhs} {op} {rhs})")
    }
}

fn gen_predicate(rng: &mut Rng, schema: &TableSchema) -> String {
    if rng.gen_bool(0.25) {
        let lhs = gen_expr(rng, schema, 1);
        let (a, b) = (gen_literal(rng), gen_literal(rng));
        format!("{lhs} BETWEEN {a} AND {b}")
    } else {
        let op = ["<", "<=", ">", ">=", "=", "<>"][rng.gen_range(0usize..6)];
        let lhs = gen_expr(rng, schema, 2);
        let rhs = gen_expr(rng, schema, 1);
        format!("{lhs} {op} {rhs}")
    }
}

/// Generate one case. The same `(seed, rows)` always regenerates the same
/// table and query.
pub fn gen_case(seed: u64, rows: usize) -> FuzzCase {
    let mut rng = Rng::seed_from_u64(seed);

    // --- table ---
    let n_cols = rng.gen_range(2usize..6);
    let spec: Vec<(String, ColType)> = (0..n_cols)
        .map(|i| {
            let ty = if rng.gen_bool(0.5) { ColType::F64 } else { ColType::I64 };
            (format!("c{i}"), ty)
        })
        .collect();
    let schema = TableSchema::new(spec.iter().map(|(n, t)| (n.as_str(), *t)));

    let n = rng.gen_range(0usize..rows.max(1) + 1);
    // Duplicate-heavy, *unsorted* keys stress GROUP BY KEY; occasionally
    // pre-sorted row ids.
    let key: Vec<u64> = if rng.gen_bool(0.3) {
        (0..n as u64).collect()
    } else {
        let domain = (n as u64 / 3).max(1) + 1;
        (0..n).map(|_| rng.gen_range(0u64..domain)).collect()
    };
    let cols: Vec<Column> = spec
        .iter()
        .map(|(_, ty)| match ty {
            ColType::I64 => Column::I64((0..n).map(|_| gen_i64(&mut rng)).collect()),
            ColType::F64 => Column::F64((0..n).map(|_| gen_f64(&mut rng)).collect()),
        })
        .collect();
    let table = Relation::new(key, cols).expect("generated columns are key-aligned");

    let mut catalog = Catalog::new();
    catalog.add_table("t", schema);
    let schema = catalog.table("t").expect("just added");

    // --- query ---
    let agg_mode = rng.gen_bool(0.5);
    let n_items = rng.gen_range(1usize..4);
    let mut items = Vec::new();
    for i in 0..n_items {
        let alias = if rng.gen_bool(0.3) { format!(" AS x{i}") } else { String::new() };
        if agg_mode {
            let func = ["SUM", "AVG", "MIN", "MAX", "COUNT"][rng.gen_range(0usize..5)];
            let arg = if func == "COUNT" && rng.gen_bool(0.6) {
                "*".to_string()
            } else {
                gen_expr(&mut rng, schema, 2)
            };
            items.push(format!("{func}({arg}){alias}"));
        } else if rng.gen_bool(0.15) {
            items.push("*".to_string());
        } else {
            items.push(format!("{}{alias}", gen_expr(&mut rng, schema, 2)));
        }
    }
    let mut sql = format!("SELECT {} FROM t", items.join(", "));
    let n_preds = rng.gen_range(0usize..4);
    for i in 0..n_preds {
        let joiner = if i == 0 { " WHERE " } else { " AND " };
        sql.push_str(joiner);
        sql.push_str(&gen_predicate(&mut rng, schema));
    }
    if agg_mode && rng.gen_bool(0.5) {
        sql.push_str(" GROUP BY KEY");
    }

    // ORDER BY over the *output* schema: compile the prefix to learn the
    // real (deduplicated) output names, then target one of them.
    if rng.gen_bool(0.5) {
        let target = if rng.gen_bool(0.3) {
            Some("KEY".to_string())
        } else {
            compile(&sql, &catalog).ok().and_then(|c| {
                // Default names like `count` collide with keywords and are
                // not addressable in ORDER BY; only pick real identifiers.
                let usable: Vec<&String> = c
                    .output_names
                    .iter()
                    .filter(|n| {
                        matches!(
                            crate::token::lex(n).as_deref(),
                            Ok([t, _]) if matches!(t.kind, crate::token::TokenKind::Ident(_))
                        )
                    })
                    .collect();
                if usable.is_empty() {
                    None
                } else {
                    Some(usable[rng.gen_range(0usize..usable.len())].clone())
                }
            })
        };
        if let Some(t) = target {
            sql.push_str(&format!(" ORDER BY {t}"));
            if rng.gen_bool(0.4) {
                sql.push_str(" DESC");
            }
        }
    }

    FuzzCase { seed, sql, catalog, table }
}

// ---------------------------------------------------------------------------
// Differential execution
// ---------------------------------------------------------------------------

const STRATEGIES: [Strategy; 3] =
    [Strategy::Serial, Strategy::Fusion, Strategy::FusionFission { segments: 4 }];
const LEVELS: [OptLevel; 3] = [OptLevel::O1, OptLevel::O2, OptLevel::O3];

/// Execute `sql` against `table` under the full engine × strategy × level
/// matrix. Returns the number of executions on agreement, or a description
/// of the first divergence.
pub fn differential(
    system: &GpuSystem,
    catalog: &Catalog,
    table: &Relation,
    sql: &str,
) -> Result<usize, String> {
    let compiled = compile(sql, catalog).map_err(|e| format!("compile failed: {e}"))?;
    let inputs = [table.clone()];
    let _guard = EngineGuard::new();
    let mut oracle: Option<Relation> = None;
    let mut executions = 0usize;
    for batch in [false, true] {
        engine::set_batch_enabled(batch);
        let engine_name = if batch { "batch" } else { "scalar" };
        for strategy in STRATEGIES {
            for level in LEVELS {
                let mut cfg = ExecConfig::new(strategy, system);
                cfg.level = level;
                let out = execute(system, &compiled.plan, &inputs, &cfg).map_err(|e| {
                    format!("{engine_name}/{strategy:?}/{level:?} failed to execute: {e}")
                })?;
                executions += 1;
                match &oracle {
                    None => oracle = Some(out.output),
                    Some(expect) => {
                        if !bit_identical(expect, &out.output) {
                            return Err(format!(
                                "{engine_name}/{strategy:?}/{level:?} diverges from the \
                                 scalar Serial oracle: oracle {} rows, got {} rows",
                                expect.len(),
                                out.output.len()
                            ));
                        }
                    }
                }
            }
        }
    }
    Ok(executions)
}

// ---------------------------------------------------------------------------
// Minimization
// ---------------------------------------------------------------------------

/// Greedily shrink a failing query: drop WHERE conjuncts, SELECT items,
/// ORDER BY, and GROUP BY while the reduced query still diverges. Rendering
/// goes through the real parser, so every intermediate stays replayable.
pub fn minimize(system: &GpuSystem, catalog: &Catalog, table: &Relation, sql: &str) -> String {
    let Ok(mut query) = crate::parser::parse(sql) else {
        return sql.to_string();
    };
    let still_fails = |q: &crate::ast::Query| {
        let text = render(q);
        differential(system, catalog, table, &text).is_err()
    };
    if !still_fails(&query) {
        // Rendering the parsed AST changed behavior (itself a bug, but not
        // one the minimizer can chase); report the original.
        return sql.to_string();
    }
    loop {
        let mut shrunk = false;
        for i in 0..query.predicates.len() {
            let mut cand = query.clone();
            cand.predicates.remove(i);
            if still_fails(&cand) {
                query = cand;
                shrunk = true;
                break;
            }
        }
        if shrunk {
            continue;
        }
        if query.items.len() > 1 {
            for i in 0..query.items.len() {
                let mut cand = query.clone();
                cand.items.remove(i);
                if still_fails(&cand) {
                    query = cand;
                    shrunk = true;
                    break;
                }
            }
        }
        if shrunk {
            continue;
        }
        if query.order_by.is_some() {
            let mut cand = query.clone();
            cand.order_by = None;
            if still_fails(&cand) {
                query = cand;
                continue;
            }
        }
        if query.group_by_key {
            let mut cand = query.clone();
            cand.group_by_key = false;
            if still_fails(&cand) {
                query = cand;
                continue;
            }
        }
        break;
    }
    render(&query)
}

/// Render an AST back to SQL (composites fully parenthesized). `BETWEEN`
/// reappears as its desugared conjunct pair.
pub fn render(q: &crate::ast::Query) -> String {
    use crate::ast::{AggFunc, CmpOp, Item, OrderTarget};
    let item = |i: &Item| -> String {
        match i {
            Item::Star => "*".to_string(),
            Item::Expr { expr, alias } => match alias {
                Some(a) => format!("{} AS {a}", render_expr(expr)),
                None => render_expr(expr),
            },
            Item::Agg { func, arg, alias } => {
                let f = match func {
                    AggFunc::Sum => "SUM",
                    AggFunc::Count => "COUNT",
                    AggFunc::Avg => "AVG",
                    AggFunc::Min => "MIN",
                    AggFunc::Max => "MAX",
                };
                let a = match arg {
                    None => "*".to_string(),
                    Some(e) => render_expr(e),
                };
                match alias {
                    Some(al) => format!("{f}({a}) AS {al}"),
                    None => format!("{f}({a})"),
                }
            }
        }
    };
    let mut out = format!(
        "SELECT {} FROM {}",
        q.items.iter().map(item).collect::<Vec<_>>().join(", "),
        q.table
    );
    for (i, p) in q.predicates.iter().enumerate() {
        let op = match p.op {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
        };
        out.push_str(if i == 0 { " WHERE " } else { " AND " });
        out.push_str(&format!("{} {op} {}", render_expr(&p.lhs), render_expr(&p.rhs)));
    }
    if q.group_by_key {
        out.push_str(" GROUP BY KEY");
    }
    if let Some(ob) = &q.order_by {
        match &ob.target {
            OrderTarget::Key => out.push_str(" ORDER BY KEY"),
            OrderTarget::Column(c) => out.push_str(&format!(" ORDER BY {c}")),
        }
        if ob.desc {
            out.push_str(" DESC");
        }
    }
    out
}

fn render_expr(e: &crate::ast::Expr) -> String {
    use crate::ast::{BinOp, Expr};
    match e {
        Expr::Key => "KEY".to_string(),
        Expr::Column(c) => c.clone(),
        Expr::Int(v) => format!("{v}"),
        // `{:?}` round-trips f64 exactly (the lexer accepts its exponent
        // forms), so re-rendered literals keep their bit patterns.
        Expr::Float(v) => format!("{v:?}"),
        Expr::Binary { op, lhs, rhs } => {
            let o = match op {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Div => "/",
            };
            format!("({} {o} {})", render_expr(lhs), render_expr(rhs))
        }
        Expr::Neg(inner) => format!("(- {})", render_expr(inner)),
    }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Run the fuzzer: `n_queries` cases of up to `rows` rows starting at
/// `seed0`. Mismatches are minimized and collected; a clean run returns an
/// empty `failures` list.
pub fn fuzz(system: &GpuSystem, n_queries: usize, rows: usize, seed0: u64) -> FuzzReport {
    let mut report = FuzzReport::default();
    for i in 0..n_queries {
        let seed = seed0.wrapping_add(i as u64);
        let case = gen_case(seed, rows);
        report.queries += 1;
        match differential(system, &case.catalog, &case.table, &case.sql) {
            Ok(execs) => report.executions += execs,
            Err(detail) => {
                let minimized = minimize(system, &case.catalog, &case.table, &case.sql);
                report.failures.push(FuzzFailure { seed, sql: case.sql, minimized, detail });
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_always_compiles() {
        for seed in 0..200u64 {
            let a = gen_case(seed, 64);
            let b = gen_case(seed, 64);
            assert_eq!(a.sql, b.sql, "seed {seed} not deterministic");
            assert_eq!(a.table.keys(), b.table.keys());
            compile(&a.sql, &a.catalog)
                .unwrap_or_else(|e| panic!("seed {seed}: {:?} failed to compile: {e}", a.sql));
        }
    }

    #[test]
    fn render_round_trips_through_the_parser() {
        for seed in 0..100u64 {
            let case = gen_case(seed, 16);
            let q = crate::parser::parse(&case.sql).unwrap();
            let text = render(&q);
            let q2 = crate::parser::parse(&text)
                .unwrap_or_else(|e| panic!("seed {seed}: rendered {text:?} unparseable: {e}"));
            assert_eq!(render(&q2), text, "seed {seed}: render not a fixed point");
        }
    }

    #[test]
    fn generated_queries_cover_the_grammar() {
        let mut group = 0;
        let mut order = 0;
        let mut agg = 0;
        let mut desc = 0;
        let mut div = 0;
        for seed in 0..300u64 {
            let sql = gen_case(seed, 32).sql;
            group += sql.contains("GROUP BY KEY") as usize;
            order += sql.contains("ORDER BY") as usize;
            agg += (sql.contains("SUM(") || sql.contains("COUNT(")) as usize;
            desc += sql.ends_with("DESC") as usize;
            div += sql.contains('/') as usize;
        }
        assert!(group > 20, "GROUP BY underrepresented: {group}");
        assert!(order > 40, "ORDER BY underrepresented: {order}");
        assert!(agg > 50, "aggregates underrepresented: {agg}");
        assert!(desc > 10, "DESC underrepresented: {desc}");
        assert!(div > 50, "division underrepresented: {div}");
    }
}
