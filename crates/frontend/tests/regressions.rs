//! End-to-end regression tests for front-end bugs found by the fuzzer:
//! each compiles a query that used to miscompile and *executes* it, so the
//! fix is pinned at the answer level, not just the plan level.

use kfusion_core::exec::{execute, ExecConfig, Strategy};
use kfusion_frontend::{compile, Catalog, ColType, TableSchema};
use kfusion_relalg::{Column, Relation};
use kfusion_vgpu::GpuSystem;

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_table("t", TableSchema::new([("score", ColType::F64), ("rank", ColType::I64)]));
    c
}

fn table() -> Relation {
    Relation::new(
        vec![3, 1, 2, 0],
        vec![Column::F64(vec![2.5, -0.5, 2.5, 7.25]), Column::I64(vec![10, 40, 20, 30])],
    )
    .unwrap()
}

fn run(sql: &str) -> Relation {
    let system = GpuSystem::c2070();
    let q = compile(sql, &catalog()).expect("compiles");
    execute(&system, &q.plan, &[table()], &ExecConfig::new(Strategy::Fusion, &system))
        .expect("executes")
        .output
}

#[test]
fn order_by_f64_column_executes() {
    // Regression: this used to compile to an integer-column sort and fail
    // at runtime with SchemaMismatch.
    let out = run("SELECT score FROM t ORDER BY score");
    assert_eq!(out.cols[0].as_f64().unwrap(), &[-0.5, 2.5, 2.5, 7.25]);
    // Ties keep source order (stable sort): key 3 precedes key 2.
    assert_eq!(*out.keys(), vec![1, 3, 2, 0]);

    let out = run("SELECT score FROM t ORDER BY score DESC");
    assert_eq!(out.cols[0].as_f64().unwrap(), &[7.25, 2.5, 2.5, -0.5]);
    assert_eq!(*out.keys(), vec![0, 3, 2, 1], "descending is stable too");
}

#[test]
fn order_by_i64_column_still_works() {
    let out = run("SELECT rank FROM t ORDER BY rank");
    assert_eq!(out.cols[0].as_i64().unwrap(), &[10, 20, 30, 40]);
    let out = run("SELECT rank FROM t ORDER BY rank DESC");
    assert_eq!(out.cols[0].as_i64().unwrap(), &[40, 30, 20, 10]);
}

#[test]
fn group_by_key_over_unsorted_keys_executes() {
    // Regression: lowering emitted no key sort, so grouped aggregation over
    // any unsorted table failed at runtime with NotSorted.
    let out = run("SELECT SUM(score), COUNT(*) FROM t GROUP BY KEY");
    assert_eq!(*out.keys(), vec![0, 1, 2, 3]);
    assert_eq!(out.cols[0].as_f64().unwrap(), &[7.25, -0.5, 2.5, 2.5]);
    assert_eq!(out.cols[1].as_i64().unwrap(), &[1, 1, 1, 1]);
}

#[test]
fn duplicate_keys_group_correctly() {
    let rel = Relation::new(
        vec![2, 1, 2, 1, 2],
        vec![Column::F64(vec![1.0, 2.0, 4.0, 8.0, 16.0]), Column::I64(vec![1, 2, 3, 4, 5])],
    )
    .unwrap();
    let system = GpuSystem::c2070();
    let q = compile("SELECT SUM(score), MAX(rank) FROM t GROUP BY KEY", &catalog()).unwrap();
    let out = execute(&system, &q.plan, &[rel], &ExecConfig::new(Strategy::Serial, &system))
        .unwrap()
        .output;
    assert_eq!(*out.keys(), vec![1, 2]);
    assert_eq!(out.cols[0].as_f64().unwrap(), &[10.0, 21.0]);
    assert_eq!(out.cols[1].as_i64().unwrap(), &[4, 5]);
}

#[test]
fn second_dot_rejected_end_to_end() {
    // Regression: `1.2.3` used to lex as two floats, so this query parsed
    // (as nonsense) instead of erroring with a position.
    let err = compile("SELECT score FROM t WHERE score < 1.2.3", &catalog()).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("byte 37"), "positioned diagnostic, got: {msg}");
}
