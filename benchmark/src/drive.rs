//! The load generator: closed-loop clients against the running service.
//!
//! Each client sends its next query only after the previous reply arrived,
//! from one process, with no more client threads than the machine has cores.

use crate::procfs;
use crate::workload::{AdhocGen, Shape, Source};
use kfusion::core::exec::execute;
use kfusion::relalg::Relation;
use kfusion::server::{CacheStats, QueryRecord, ServerError, ServiceClient, TableRegistry};
use kfusion::tpch::sql::bit_identical;
use kfusion::vgpu::GpuSystem;
use std::time::{Duration, Instant};

/// When a client stops submitting.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// Once this much time has passed since the clients started.
    After(Duration),
    /// After this many queries per client (warm-up).
    Count(usize),
}

/// One reply, kept for verification after the clock has stopped.
#[derive(Debug)]
pub struct Reply {
    /// Which client (= which fixed shape) asked.
    pub client: usize,
    /// The text of an ad-hoc query; `None` for a fixed shape.
    pub adhoc_sql: Option<String>,
    pub output: Relation,
}

/// What clients logged, query by query.
#[derive(Debug, Default)]
pub struct Log {
    /// Submit → reply, one per completed query.
    pub latencies_ms: Vec<f64>,
    /// The service's closed lifecycle record of each completed query.
    pub records: Vec<QueryRecord>,
    pub replies: Vec<Reply>,
    /// Submissions the service refused or failed.
    pub errors: Vec<ServerError>,
    /// Rows read by the plan inputs of the completed queries.
    pub input_rows: u64,
}

impl Log {
    pub fn attempted(&self) -> u64 {
        (self.latencies_ms.len() + self.errors.len()) as u64
    }
}

/// What the clients saw between their common start and the last reply.
#[derive(Debug)]
pub struct Window {
    /// Every client's log, concatenated.
    pub log: Log,
    /// Start → last reply.
    pub elapsed_s: f64,
    /// Process CPU (user + system, all threads) spent in that time.
    pub cpu_ms: f64,
    /// Plan-cache counters before the first and after the last query.
    pub cache: (CacheStats, CacheStats),
}

enum ClientSource<'a> {
    Fixed(&'a Shape),
    Adhoc { gen: &'a mut AdhocGen, input_rows: u64 },
}

/// One client's closed loop; returns its log and when its last reply came.
fn client_loop(
    client: &ServiceClient<'_>,
    id: usize,
    mut source: ClientSource<'_>,
    stop: Stop,
    start: Instant,
) -> (Log, Instant) {
    let mut log = Log::default();
    let mut last_reply = start;
    loop {
        let done = match stop {
            Stop::After(d) => start.elapsed() >= d,
            Stop::Count(n) => log.attempted() as usize >= n,
        };
        if done {
            return (log, last_reply);
        }
        // Rendering an ad-hoc query is the load generator's work, not the
        // system's: it happens before the clock starts.
        let (adhoc_sql, began, result, input_rows) = match &mut source {
            ClientSource::Adhoc { gen, input_rows } => {
                let sql = gen.next_params().sql();
                let began = Instant::now();
                let result = client.query_sql(&sql).map(|(_, outcome)| outcome);
                (Some(sql), began, result, *input_rows)
            }
            ClientSource::Fixed(shape) => {
                let began = Instant::now();
                let result = match &shape.sql {
                    Some(sql) => client.query_sql(sql).map(|(_, outcome)| outcome),
                    None => client.query(shape.plan.clone()),
                };
                (None, began, result, shape.input_rows)
            }
        };
        last_reply = Instant::now();
        match result {
            Ok(outcome) => {
                log.latencies_ms.push((last_reply - began).as_secs_f64() * 1e3);
                log.input_rows += input_rows;
                log.records.push(outcome.record);
                log.replies.push(Reply { client: id, adhoc_sql, output: outcome.output });
            }
            Err(e) => log.errors.push(e),
        }
    }
}

/// Run the workload's clients against `client` until `stop`: one thread per
/// fixed shape (on the caller's thread when there is only one), or the
/// single ad-hoc client.
pub fn run_clients(
    client: &ServiceClient<'_>,
    registry: &TableRegistry,
    source: &mut Source,
    stop: Stop,
) -> Result<Window, String> {
    let cache_before = client.cache_stats();
    let cpu_before = procfs::cpu_ms()?;
    let start = Instant::now();
    let logs: Vec<(Log, Instant)> = match source {
        Source::Adhoc(gen) => {
            let input_rows = registry.tables()[0].len() as u64;
            vec![client_loop(client, 0, ClientSource::Adhoc { gen, input_rows }, stop, start)]
        }
        Source::Fixed(shapes) if shapes.len() == 1 => {
            vec![client_loop(client, 0, ClientSource::Fixed(&shapes[0]), stop, start)]
        }
        Source::Fixed(shapes) => std::thread::scope(|scope| {
            let handles: Vec<_> = shapes
                .iter()
                .enumerate()
                .map(|(id, shape)| {
                    scope.spawn(move || {
                        client_loop(client, id, ClientSource::Fixed(shape), stop, start)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        }),
    };
    let cpu_ms = procfs::cpu_ms()? - cpu_before;
    let last_reply = logs.iter().map(|(_, last)| *last).max().unwrap_or(start);
    let mut all = Log::default();
    for (log, _) in logs {
        all.latencies_ms.extend(log.latencies_ms);
        all.records.extend(log.records);
        all.replies.extend(log.replies);
        all.errors.extend(log.errors);
        all.input_rows += log.input_rows;
    }
    Ok(Window {
        log: all,
        elapsed_s: (last_reply - start).as_secs_f64(),
        cpu_ms,
        cache: (cache_before, client.cache_stats()),
    })
}

/// The answer a standalone `execute` of `sql` gives over `registry`.
pub fn standalone_answer(
    system: &GpuSystem,
    registry: &TableRegistry,
    sql: &str,
) -> Result<Relation, String> {
    let compiled = registry.compile(sql).map_err(|e| format!("{sql}: {e}"))?;
    let config = crate::workload::exec_config(system);
    execute(system, &compiled.plan, registry.tables(), &config)
        .map(|r| r.output)
        .map_err(|e| format!("{sql}: {e}"))
}

/// How many replies differ from a standalone `execute` of the same plan: a
/// fixed shape's reply against the answer computed at set-up, each ad-hoc
/// reply against its own standalone run.
pub fn wrong_answers(
    system: &GpuSystem,
    registry: &TableRegistry,
    source: &Source,
    replies: &[Reply],
) -> Result<u64, String> {
    let mut wrong = 0;
    for reply in replies {
        let same = match (&reply.adhoc_sql, source) {
            (Some(sql), _) => {
                bit_identical(&reply.output, &standalone_answer(system, registry, sql)?)
            }
            (None, Source::Fixed(shapes)) => {
                bit_identical(&reply.output, &shapes[reply.client].expected)
            }
            (None, Source::Adhoc(_)) => return Err("ad-hoc reply without its text".into()),
        };
        wrong += u64::from(!same);
    }
    Ok(wrong)
}
