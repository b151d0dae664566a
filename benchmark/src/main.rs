//! The paired, two-clock TPC-H ledger: one command that serves five
//! workloads through the shipped `QueryService` configuration in closed loop,
//! checks every reply, and prints end-to-end metrics (tracing off) or
//! per-layer metrics (a separate traced pass). See README.md.

mod drive;
mod metrics;
mod procfs;
mod replay;
mod spans;
mod stats;
mod workload;

use drive::{run_clients, wrong_answers, Stop, Window};
use kfusion::server::{HostStage, QueryService};
use kfusion::trace::json::{self, Value};
use kfusion::vgpu::GpuSystem;
use metrics::{in_catalog_order, Kind, Sample, Spec, END_TO_END, PER_LAYER};
use replay::Replay;
use stats::{max_rel_spread, median, quartiles, tail};
use std::process::{Command, ExitCode, ExitStatus, Stdio};
use std::time::{Duration, Instant};
use workload::{nproc, server_config, set_up, AdhocGen, Setup, Shape, Source, Workload, WORKLOADS};

/// Queries per client that let caches fill before the clock starts.
const WARM_UP_QUERIES: usize = 3;
/// Set-ups timed in an end-to-end run, each in a process of its own;
/// `setup_s` is their median. At least three; a cheap set-up (tens of
/// milliseconds on `adhoc_small`, where a cold process jitters by ±20 %) is
/// timed up to nine times while the rounds together stay under the budget.
const SETUP_ROUNDS: std::ops::RangeInclusive<usize> = 3..=9;
const SETUP_ROUNDS_BUDGET_S: f64 = 1.5;
/// Queries the traced pass replays.
const REPLAY_QUERIES: usize = 16;
/// Measured window when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str = "usage: kfusion-benchmark --workload <name|all> [--seed N] [--seconds S] \
                     [--trace 0|1] [--repeat K]";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    /// `None` is `--workload all`.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    /// `None`: both passes in `all`/`--repeat` mode, the end-to-end pass for
    /// a single workload.
    trace: Option<bool>,
    repeat: usize,
    /// Internal (`--setup-only 1`): set up, warm up, print the seconds, exit.
    setup_only: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: None,
        repeat: 1,
        setup_only: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value.as_str()),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad("seconds"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 3600.0) {
                    return Err(bad("seconds in (0, 3600]"));
                }
            }
            "--trace" => {
                parsed.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--setup-only" => parsed.setup_only = value == "1",
            "--repeat" => {
                parsed.repeat = value.parse().map_err(|_| bad("a count"))?;
                if parsed.repeat == 0 {
                    return Err(bad("at least 1"));
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    parsed.workload = match workload {
        Some("all") => None,
        Some(name) => match Workload::from_name(name) {
            Some(workload) => Some(workload),
            None => {
                let names: Vec<_> = WORKLOADS.iter().map(|w| w.name()).collect();
                return Err(format!("--workload must be all or one of {}", names.join(", ")));
            }
        },
        None => return Err("--workload is required".to_string()),
    };
    Ok(parsed)
}

/// What one run of one workload measured.
#[derive(Debug)]
struct RunResult {
    attempted: u64,
    failed: u64,
    samples: Vec<Sample>,
}

/// The served part of a run.
struct Served {
    setup: Setup,
    /// Seconds from the start of set-up to the end of warm-up.
    setup_s: f64,
    /// The measured window, and `VmHWM` when it closed.
    window: Option<(Window, f64)>,
}

/// Set up, warm up and — unless only set-up is being timed — hold the
/// measured window open for `seconds`.
fn serve(
    workload: Workload,
    system: &GpuSystem,
    seed: u64,
    seconds: Option<f64>,
) -> Result<Served, String> {
    let config = server_config(system);
    let began = Instant::now();
    let mut setup = set_up(workload, system, seed)?;
    let Setup { registry, source, .. } = &mut setup;
    let (setup_s, window) = QueryService::serve_catalog(system, registry, &config, |client| {
        let warm_up = run_clients(client, registry, source, Stop::Count(WARM_UP_QUERIES))?.log;
        if let Some(e) = warm_up.errors.first() {
            return Err(format!("warm-up query failed: {e}"));
        }
        if wrong_answers(system, registry, source, &warm_up.replies)? > 0 {
            return Err("warm-up reply differs from the standalone answer".to_string());
        }
        let setup_s = began.elapsed().as_secs_f64();
        let Some(seconds) = seconds else { return Ok((setup_s, None)) };
        let window = Stop::After(Duration::from_secs_f64(seconds));
        let window = run_clients(client, registry, source, window)?;
        Ok((setup_s, Some((window, procfs::peak_rss_mb()?))))
    })?;
    Ok(Served { setup, setup_s, window })
}

/// Time one more set-up in a fresh process. Repeating it in this process
/// would time something else: once the window has churned through gigabytes,
/// glibc has raised its mmap threshold for good, and the same set-up takes
/// two to three times as long (Q1: 2.3 s, then 5.4 s, then 7.4 s).
fn set_up_in_child(workload: Workload, seed: u64) -> Result<f64, String> {
    let (status, stdout) =
        rerun(&["--workload", workload.name(), "--seed", &seed.to_string(), "--setup-only", "1"])?;
    match stdout.trim().strip_prefix("setup_s ").map(str::parse) {
        Some(Ok(setup_s)) if status.success() => Ok(setup_s),
        _ => Err(format!("set-up process failed ({status}): {stdout}")),
    }
}

/// Run this binary again with `args`, wait for it, and return its exit
/// status and everything it printed.
fn rerun(args: &[&str]) -> Result<(ExitStatus, String), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {args:?}: {e}"))?;
    Ok((output.status, String::from_utf8_lossy(&output.stdout).into_owned()))
}

/// Run one workload in this process and measure it.
fn run_workload(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<RunResult, String> {
    let system = GpuSystem::c2070();
    let Served { setup, setup_s, window } = serve(workload, &system, seed, Some(seconds))?;
    let (window, peak_rss_mb) = window.expect("serve was given a window");
    let log = &window.log;
    let completed = log.latencies_ms.len();
    if completed == 0 {
        return Err(format!("no query completed in {seconds} s: {:?}", log.errors.first()));
    }
    for e in log.errors.iter().take(3) {
        eprintln!("query failed: {e}");
    }
    let wrong = wrong_answers(&system, &setup.registry, &setup.source, &log.replies)?;
    let query_p50_ms = median(&log.latencies_ms);
    let n = completed as u64;

    let samples = if trace {
        let mut samples = server_samples(&window);
        samples.push(Sample::new("cpu_ms_per_query", window.cpu_ms / completed as f64, n));
        let replayed = replay_samples(workload, &system, &setup, seed)?;
        let executed = replayed.iter().find(|s| s.name == "core.execute_prepared_ms");
        let execute_prepared_ms = executed.ok_or("replay did not time execute_prepared")?.value;
        samples.extend(replayed);
        samples.push(Sample::new("server.overhead_ms", query_p50_ms - execute_prepared_ms, n));
        samples.push(Sample::new("tpch.generate_s", setup.generate_s, 1));
        samples.push(Sample::new("tpch.lineitem_rows", setup.lineitem_rows as f64, 1));
        in_catalog_order(&PER_LAYER, &samples)?
    } else {
        let mut setup_s = vec![setup_s];
        while setup_s.len() < *SETUP_ROUNDS.start()
            || (setup_s.len() < *SETUP_ROUNDS.end()
                && setup_s.iter().sum::<f64>() < SETUP_ROUNDS_BUDGET_S)
        {
            setup_s.push(set_up_in_child(workload, seed)?);
        }
        let samples = [
            Sample::new("query_p50_ms", query_p50_ms, n),
            Sample::new("rows_per_s", log.input_rows as f64 / window.elapsed_s, n),
            Sample::new("peak_rss_mb", peak_rss_mb, 1),
            Sample::new("sim_makespan_ms", setup.sim_makespan_ms, 1),
            Sample::new("sim_speedup_vs_serial", setup.sim_speedup_vs_serial, 1),
            Sample::new("setup_s", median(&setup_s), setup_s.len() as u64),
        ];
        in_catalog_order(&END_TO_END, &samples)?
    };
    Ok(RunResult { attempted: log.attempted(), failed: log.errors.len() as u64 + wrong, samples })
}

/// The traced pass: replay the head of the workload's query stream without
/// the server, write the spans out, and return the per-layer samples.
fn replay_samples(
    workload: Workload,
    system: &GpuSystem,
    setup: &Setup,
    seed: u64,
) -> Result<Vec<Sample>, String> {
    let adhoc_head;
    let shapes: &[Shape] = match &setup.source {
        Source::Fixed(shapes) => shapes,
        Source::Adhoc(_) => {
            let mut gen = AdhocGen::new(seed);
            adhoc_head = (0..REPLAY_QUERIES)
                .map(|_| Shape::from_sql(system, &setup.registry, gen.next_params().sql()))
                .collect::<Result<Vec<_>, _>>()?;
            &adhoc_head
        }
    };
    let clients = workload.clients(nproc());
    let replay = Replay {
        system,
        registry: &setup.registry,
        config: workload::exec_config(system),
        shapes,
        n_queries: REPLAY_QUERIES,
        batch: shapes[..clients].iter().map(|s| s.plan.clone()).collect(),
    };
    let traced = replay.run()?;
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let file = out.join(format!("{}.spans.json", workload.name()));
    std::fs::write(&file, spans::to_json(workload.name(), seed, &traced.spans))
        .map_err(|e| format!("{}: {e}", file.display()))?;
    println!("# {} spans -> {}", traced.spans.len(), file.display());
    Ok(traced.samples)
}

/// The `server.*` metrics of the measured window, from the lifecycle record
/// the service closes for every query (exact stage times, not the bucketed
/// histogram percentiles `server_stats()` rounds them to).
fn server_samples(window: &Window) -> Vec<Sample> {
    let log = &window.log;
    let n = log.records.len() as u64;
    let stage = |name: &'static str, stage: HostStage, per_second: f64| {
        let values: Vec<f64> =
            log.records.iter().map(|r| r.host_stage(stage) * per_second).collect();
        Sample::new(name, median(&values), n)
    };
    let (before, after) = window.cache;
    let lookups = (after.hits - before.hits) + (after.misses - before.misses);
    let hit_rate =
        if lookups == 0 { 0.0 } else { (after.hits - before.hits) as f64 / lookups as f64 };
    let batch_sizes: f64 = log.records.iter().map(|r| r.batch_size as f64).sum();
    let (tail_pct, tail_ms) = tail(&log.latencies_ms);
    vec![
        stage("server.queue_wait_us", HostStage::QueueWait, 1e6),
        stage("server.batch_form_us", HostStage::BatchForm, 1e6),
        stage("server.compile_us", HostStage::Compile, 1e6),
        stage("server.execute_ms", HostStage::Execute, 1e3),
        stage("server.reply_us", HostStage::Reply, 1e6),
        Sample::new("server.cache_hit_rate", hit_rate, lookups),
        Sample::new("server.plan_compiles", (after.compiles - before.compiles) as f64, lookups),
        Sample::new("server.cache_entries", after.entries as f64, 1),
        Sample::new("server.mean_batch", batch_sizes / n as f64, n),
        Sample::new("server.query_tail_ms", tail_ms, n),
        Sample::new("server.query_tail_pct", tail_pct, n),
    ]
}

fn spec_of(name: &str) -> Option<&'static Spec> {
    END_TO_END.iter().chain(&PER_LAYER).find(|s| s.name == name)
}

/// A metric as the result line carries it: name, value, unit.
type Metric = (String, f64, String);

/// The result line the builder's contract prescribes.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let listed: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        listed.join(", ")
    )
}

fn single(workload: Workload, args: &Args) -> Result<bool, String> {
    if args.setup_only {
        let served = serve(workload, &GpuSystem::c2070(), args.seed, None)?;
        println!("setup_s {}", served.setup_s);
        return Ok(true);
    }
    let trace = args.trace.unwrap_or(false);
    let cores = nproc();
    println!(
        "# workload={} seed={} seconds={} trace={} nproc={cores} clients={} workers={}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(trace),
        workload.clients(cores),
        server_config(&GpuSystem::c2070()).workers,
    );
    let run = run_workload(workload, args.seed, args.seconds, trace)?;
    let mut metrics = Vec::with_capacity(run.samples.len());
    for s in &run.samples {
        let unit = spec_of(s.name).expect("samples come in catalog order").unit;
        println!("metric {} = {} {unit} (n={})", s.name, s.value, s.samples);
        metrics.push((s.name.to_string(), s.value, unit.to_string()));
    }
    let failed_share = run.failed as f64 / run.attempted as f64;
    println!("metric failed_share = {failed_share} share ({} of {})", run.failed, run.attempted);
    let correct = run.failed == 0;
    println!("{}", result_line(correct, run.attempted, run.failed, &metrics));
    Ok(correct)
}

/// What a child process reported on its last line.
struct ChildResult {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn parse_result_line(line: &str) -> Result<ChildResult, String> {
    let doc = json::parse(line).map_err(|e| format!("bad result line: {e}"))?;
    let whole = |key: &str| {
        doc.get(key).and_then(Value::as_f64).map(|v| v as u64).ok_or(format!("no {key}"))
    };
    let metrics = doc
        .get("metrics")
        .and_then(Value::as_obj)
        .ok_or("no metrics")?
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Value::as_f64).ok_or("metric without value")?;
            let unit = m.get("unit").and_then(Value::as_str).ok_or("metric without unit")?;
            Ok((name.clone(), value, unit.to_string()))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(ChildResult { attempted: whole("attempted")?, failed: whole("failed")?, metrics })
}

/// Run one workload in a process of its own, so `peak_rss_mb` is that
/// workload's alone, echo what it prints, and parse its result line.
fn run_child(workload: Workload, args: &Args, trace: bool) -> Result<ChildResult, String> {
    let name = workload.name();
    let (seed, seconds) = (args.seed.to_string(), args.seconds.to_string());
    let trace = if trace { "1" } else { "0" };
    let (status, stdout) =
        rerun(&["--workload", name, "--seed", &seed, "--seconds", &seconds, "--trace", trace])?;
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().ok_or_else(|| format!("{name} printed nothing"))?;
    for line in lines {
        println!("{line}");
    }
    let result = parse_result_line(last).map_err(|e| format!("{name} ({status}): {e}"))?;
    if !status.success() && result.failed == 0 {
        return Err(format!("{name} exited with {status}"));
    }
    Ok(result)
}

/// One metric of one workload: a value per round, in first-seen order.
struct Series {
    workload: &'static str,
    name: String,
    unit: String,
    values: Vec<f64>,
}

/// `--workload all` and `--repeat K`: run the set K times, one process per
/// workload and pass, then print every metric — for K ≥ 2 with its medians,
/// quartiles, spread and a verdict. Returns whether every verdict passed.
fn run_set(workloads: &[Workload], args: &Args) -> Result<bool, String> {
    let passes: &[bool] = match args.trace {
        Some(true) => &[true],
        Some(false) => &[false],
        None => &[false, true],
    };
    let mut table: Vec<Series> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for round in 1..=args.repeat {
        for &workload in workloads {
            for &trace in passes {
                println!(
                    "## round {round}/{}: {} trace={}",
                    args.repeat,
                    workload.name(),
                    u8::from(trace)
                );
                let child = run_child(workload, args, trace)?;
                attempted += child.attempted;
                failed += child.failed;
                for (name, value, unit) in child.metrics {
                    let workload = workload.name();
                    match table.iter_mut().find(|s| s.workload == workload && s.name == name) {
                        Some(series) => series.values.push(value),
                        None => table.push(Series { workload, name, unit, values: vec![value] }),
                    }
                }
            }
        }
    }

    let mut ok = failed == 0;
    let mut unresolved = 0;
    let mut metrics = Vec::with_capacity(table.len());
    println!("## summary over {} round(s), seed {}", args.repeat, args.seed);
    for Series { workload, name, unit, values } in &table {
        let mid = median(values);
        metrics.push((format!("{workload}.{name}"), mid, unit.clone()));
        let Some([q1, _, q3]) = quartiles(values) else {
            println!("{workload} {name} = {mid} {unit}");
            continue;
        };
        let spread = max_rel_spread(values);
        let verdict = match spec_of(name).map(|s| s.kind) {
            Some(Kind::Exact) if values.iter().all(|v| v.to_bits() == values[0].to_bits()) => {
                "identical".to_string()
            }
            Some(Kind::Exact) => {
                ok = false;
                format!("MISMATCH {values:?}")
            }
            Some(Kind::Timed(bound)) if spread <= bound => format!("unchanged (bound {bound})"),
            Some(Kind::Timed(bound)) => {
                unresolved += 1;
                format!("unresolved (bound {bound}): lengthen the window")
            }
            _ => "reported".to_string(),
        };
        println!(
            "{workload} {name} median={mid} q1={q1} q3={q3} {unit} spread={:.2}% {verdict}",
            spread * 100.0
        );
    }
    println!(
        "failed_share = {} ({failed} of {attempted})",
        failed as f64 / attempted.max(1) as f64
    );
    if unresolved > 0 {
        println!("{unresolved} timed metric(s) unresolved");
    }
    println!("{}", result_line(ok, attempted, failed, &metrics));
    Ok(ok && unresolved == 0)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload {
        // Measured off the main thread, as the service's workers run: glibc's
        // main arena hands freed memory back to the OS after every query and
        // page-faults it in again, which doubles the time of a standalone
        // `execute` (Q1: ~390 ms against ~200 ms on any other thread).
        Some(workload) if args.repeat == 1 => {
            let args = args.clone();
            std::thread::spawn(move || single(workload, &args))
                .join()
                .unwrap_or_else(|_| Err("the workload thread panicked".to_string()))
        }
        Some(workload) => run_set(&[workload], &args),
        None => run_set(&WORKLOADS, &args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn driver_command_line_parses() {
        let args = parse_args(&argv(&[
            "--workload",
            "q6_scan",
            "--seed",
            "9",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            args,
            Args {
                workload: Some(Workload::Q6Scan),
                seed: 9,
                seconds: 12.0,
                trace: Some(true),
                repeat: 1,
                setup_only: false,
            }
        );
        let child = parse_args(&argv(&["--workload", "q1_groupby", "--setup-only", "1"])).unwrap();
        assert!(child.setup_only);
        let all = parse_args(&argv(&["--workload", "all", "--repeat", "2"])).unwrap();
        assert_eq!(
            (all.workload, all.trace, all.repeat, all.seconds),
            (None, None, 2, DEFAULT_SECONDS)
        );
        for bad in [
            &["--workload", "q7"][..],
            &["--seed", "1"],
            &["--workload", "all", "--trace", "2"],
            &["--workload", "all", "--seconds", "0"],
            &["--workload", "all", "--repeat", "0"],
            &["--workload", "all", "--seed"],
            &["--workload", "all", "--verbose", "1"],
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn result_line_round_trips_with_every_digit() {
        let metrics = vec![
            ("query_p50_ms".to_string(), 17.123456789012345, "ms".to_string()),
            ("rows_per_s".to_string(), 7.0e7, "rows/s".to_string()),
        ];
        let line = result_line(false, 70, 2, &metrics);
        let back = parse_result_line(&line).unwrap();
        assert_eq!((back.attempted, back.failed), (70, 2));
        assert_eq!(back.metrics, metrics);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 70, \"failed\": 2, "));
        assert!(parse_result_line("{\"correct\": true}").is_err());
    }
}
