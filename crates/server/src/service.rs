//! The query service: admission window, shared-scan grouping, worker pool.
//!
//! One admission thread and `workers` execution threads run inside a
//! `std::thread::scope` for the duration of [`QueryService::serve`]; the
//! caller's closure gets a [`ServiceClient`] and drives load against it
//! (typically from its own scoped client threads). Submissions flow
//!
//! ```text
//! submit → [submission queue] → admission window → shared-input grouping
//!        → [dispatch queue] → worker: plan cache → execute → reply channel
//! ```
//!
//! The admission window is bounded in both count ([`ServerConfig::max_batch`])
//! and time ([`ServerConfig::window`]): the first submission opens the
//! window, and everything admitted before it closes is grouped by
//! overlapping scan inputs (union-find). Every group splices through
//! [`merge_plans`] and runs as one batch — shared scans uploaded once,
//! SELECTs from different queries in one kernel — with its compile side
//! from the shared [`PlanCache`]. A lone query is a batch of one: there is
//! one dispatch path, whatever the group's size.
//!
//! Both queues are bounded: a full submission queue rejects with
//! [`ServerError::Overloaded`] (backpressure at the edge), and a full
//! dispatch queue blocks *admission*, which in turn fills the submission
//! queue — load sheds at the client, never as unbounded memory. Shutdown is
//! a drain: closing the submission queue lets admission flush every queued
//! query into final batches, then close the dispatch queue, which the
//! workers drain before exiting; nothing accepted is dropped.

use crate::cache::{CacheStats, PlanCache};
use crate::queue::{BoundedQueue, Pop, PushError};
use crate::sql::{SqlTicket, TableRegistry};
use crate::stats::{QueryRecord, RecordOutcome, ServerStats, StatsHub, SIM_STAGES};
use crate::ServerError;
use kfusion_core::exec::ExecConfig;
use kfusion_core::graph::{OpKind, PlanGraph};
use kfusion_core::multiquery::{execute_multi_prepared, merge_plans};
use kfusion_core::report::Report;
use kfusion_core::CoreError;
use kfusion_relalg::Relation;
use kfusion_vgpu::{Engine, GpuSystem};
use std::collections::HashMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Lane carrying the retroactive `queue_wait` spans on the `server` track —
/// far above the recorder's per-thread lane counter, so waits (which
/// overlap freely) never interleave with a worker's own `execute` spans.
const QUEUE_WAIT_LANE: u32 = 1 << 16;

/// Capacity of the submission and dispatch queues.
const QUEUE_DEPTH: usize = 64;

/// How many recent [`QueryRecord`]s the flight recorder retains.
const FLIGHT_RECORDER_DEPTH: usize = 256;

/// How many slow-query records the slow log retains.
const SLOW_LOG_DEPTH: usize = 32;

/// Service tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Executor configuration shared by every query the service runs. One
    /// service instance serves one `(strategy, budget, level)` regime, and
    /// its plan cache is built for exactly that one.
    pub exec: ExecConfig,
    /// Worker threads executing dispatched groups.
    pub workers: usize,
    /// Count bound of the admission window: a window dispatches as soon as
    /// this many queries are admitted.
    pub max_batch: usize,
    /// Time bound of the admission window, measured from the first
    /// submission that opens it.
    pub window: Duration,
    /// How long `submit` waits for a submission-queue slot before
    /// rejecting with [`ServerError::Overloaded`].
    pub submit_timeout: Duration,
    /// End-to-end host latency at which a completed query is copied into
    /// the slow log (`None` disables the log).
    pub slow_query_threshold: Option<Duration>,
}

impl ServerConfig {
    /// A config for `exec` with small-service defaults: 2 workers, windows
    /// of up to 4 queries or 2 ms, 20 ms submit patience, and the slow log
    /// disabled. The service's sizes are constants, not knobs: queues of 64,
    /// a 256-record flight recorder and a 32-record slow log.
    pub fn new(exec: ExecConfig) -> Self {
        ServerConfig {
            exec,
            workers: 2,
            max_batch: 4,
            window: Duration::from_millis(2),
            submit_timeout: Duration::from_millis(20),
            slow_query_threshold: None,
        }
    }
}

/// What a successful query gets back.
#[derive(Debug)]
pub struct QueryOutcome {
    /// The query result — byte-identical to a standalone
    /// [`kfusion_core::exec::execute`] of the same plan over the service's
    /// tables.
    pub output: Relation,
    /// How many queries co-executed in this dispatch (1 = ran alone).
    pub batch_size: usize,
    /// Simulated seconds of the whole dispatch this query rode in. Summing
    /// `sim_batch_total / batch_size` over queries reproduces the exact
    /// aggregate simulated time of the run.
    pub sim_batch_total: f64,
    /// The closed per-stage lifecycle record of this query (queue wait,
    /// batch formation, compile, execute, reply on the host clock; its
    /// engine-time share on the simulated clock). The same record is
    /// retained in the service's flight recorder.
    pub record: QueryRecord,
}

/// One queued query: its plan plus everything needed to time it out and to
/// route its result home.
struct Submission {
    plan: PlanGraph,
    seq: u64,
    enqueued_at: Instant,
    admitted_at: Option<Instant>,
    deadline: Option<Instant>,
    reply: mpsc::Sender<Result<QueryOutcome, ServerError>>,
}

/// A dispatched unit of work: one or more submissions that share inputs.
struct GroupJob {
    members: Vec<Submission>,
}

/// The receiving end of one submission.
#[derive(Debug)]
pub struct QueryTicket {
    rx: mpsc::Receiver<Result<QueryOutcome, ServerError>>,
}

impl QueryTicket {
    /// Block until the service delivers this query's outcome.
    pub fn wait(self) -> Result<QueryOutcome, ServerError> {
        self.rx.recv().map_err(|_| ServerError::Disconnected)?
    }

    /// Wait at most `timeout` for the outcome. On expiry the ticket is
    /// *not* consumed: the error is [`ServerError::WaitTimedOut`] and the
    /// caller can poll again (or fall back to [`QueryTicket::wait`]).
    pub fn wait_timeout(&self, timeout: Duration) -> Result<QueryOutcome, ServerError> {
        match self.rx.recv_timeout(timeout) {
            Ok(res) => res,
            Err(mpsc::RecvTimeoutError::Timeout) => Err(ServerError::WaitTimedOut),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(ServerError::Disconnected),
        }
    }
}

/// The submission handle passed to [`QueryService::serve`]'s closure; share
/// it across client threads freely (`&self` everywhere).
pub struct ServiceClient<'a> {
    submissions: &'a BoundedQueue<Submission>,
    cache: &'a PlanCache,
    config: &'a ServerConfig,
    hub: &'a StatsHub,
    /// Present only under [`QueryService::serve_catalog`]; text queries
    /// need it to resolve table names.
    registry: Option<&'a TableRegistry>,
}

impl ServiceClient<'_> {
    /// Submit `plan` (over the service's table registry) with no deadline.
    pub fn submit(&self, plan: PlanGraph) -> Result<QueryTicket, ServerError> {
        self.submit_with_deadline(plan, None)
    }

    /// Submit with an explicit deadline (`None` = never times out).
    pub fn submit_with_deadline(
        &self,
        plan: PlanGraph,
        deadline: Option<Duration>,
    ) -> Result<QueryTicket, ServerError> {
        let (tx, rx) = mpsc::channel();
        let now = Instant::now();
        let sub = Submission {
            plan,
            seq: self.hub.submission_attempt(),
            enqueued_at: now,
            admitted_at: None,
            deadline: deadline.map(|d| now + d),
            reply: tx,
        };
        kfusion_trace::counter("kfusion_server_submissions_total", 1);
        match self.submissions.push_timeout(sub, self.config.submit_timeout) {
            Ok(()) => Ok(QueryTicket { rx }),
            Err(PushError::Full(_)) => {
                self.hub.shed_overload();
                Err(ServerError::Overloaded)
            }
            Err(PushError::Closed(_)) => {
                self.hub.shed_overload();
                Err(ServerError::ShuttingDown)
            }
        }
    }

    /// Convenience: submit and wait.
    pub fn query(&self, plan: PlanGraph) -> Result<QueryOutcome, ServerError> {
        self.submit(plan)?.wait()
    }

    /// Submit SQL text with no deadline. The query compiles against the
    /// service's table registry ([`ServerError::NoCatalog`] if the service
    /// was started without one, [`ServerError::Compile`] with the
    /// positioned diagnostic if the text is bad), then rides the ordinary
    /// admission/batching/plan-cache path: repeated text compiles to the
    /// same plan shape and hits the cache, and a text query fuses into
    /// cross-query batches exactly like a hand-built plan.
    pub fn submit_sql(&self, sql: &str) -> Result<SqlTicket, ServerError> {
        let registry = self.registry.ok_or(ServerError::NoCatalog)?;
        let compiled = registry.compile(sql).map_err(ServerError::Compile)?;
        let ticket = self.submit(compiled.plan)?;
        Ok(SqlTicket { columns: compiled.columns, ticket })
    }

    /// Convenience: submit SQL text and wait; returns the output column
    /// names alongside the outcome.
    pub fn query_sql(&self, sql: &str) -> Result<(Vec<String>, QueryOutcome), ServerError> {
        self.submit_sql(sql)?.wait()
    }

    /// Point-in-time plan-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Dump the service's observability state: per-stage p50/p95/p99 in
    /// both clock domains, cache hit rate, queue depth, shed/deadline
    /// counts, and the flight-recorder + slow-query rings. Always
    /// available — the service-local histograms do not depend on the
    /// global recorder being enabled.
    pub fn server_stats(&self) -> ServerStats {
        self.hub.snapshot(self.cache.stats(), self.submissions.len())
    }
}

/// The service itself; see the module docs for the pipeline it runs.
pub struct QueryService;

impl QueryService {
    /// Run a service over `system` and the table registry `tables` (plan
    /// `Input { i }` leaves read `tables[i]`), call `f` with a client, then
    /// shut down gracefully: every query accepted before `f` returned is
    /// executed and answered before `serve` returns.
    pub fn serve<R>(
        system: &GpuSystem,
        tables: &[Relation],
        config: &ServerConfig,
        f: impl FnOnce(&ServiceClient<'_>) -> R,
    ) -> R {
        Self::serve_inner(system, tables, None, config, f)
    }

    /// Like [`QueryService::serve`], but over a named [`TableRegistry`]:
    /// the registry's slot array backs positional plans, and its catalog
    /// makes [`ServiceClient::submit_sql`] /
    /// [`ServiceClient::query_sql`] available for text queries.
    pub fn serve_catalog<R>(
        system: &GpuSystem,
        registry: &TableRegistry,
        config: &ServerConfig,
        f: impl FnOnce(&ServiceClient<'_>) -> R,
    ) -> R {
        Self::serve_inner(system, registry.tables(), Some(registry), config, f)
    }

    fn serve_inner<R>(
        system: &GpuSystem,
        tables: &[Relation],
        registry: Option<&TableRegistry>,
        config: &ServerConfig,
        f: impl FnOnce(&ServiceClient<'_>) -> R,
    ) -> R {
        let cache = PlanCache::new(config.exec);
        let hub = StatsHub::new(FLIGHT_RECORDER_DEPTH, SLOW_LOG_DEPTH, config.slow_query_threshold);
        let submissions: BoundedQueue<Submission> = BoundedQueue::new(QUEUE_DEPTH);
        let dispatch: BoundedQueue<GroupJob> = BoundedQueue::new(QUEUE_DEPTH);
        let (subs, disp, cache_ref, hub_ref) = (&submissions, &dispatch, &cache, &hub);
        std::thread::scope(|s| {
            s.spawn(move || admission_loop(subs, disp, config));
            for _ in 0..config.workers.max(1) {
                s.spawn(move || worker_loop(system, tables, cache_ref, hub_ref, disp));
            }
            let client = ServiceClient {
                submissions: subs,
                cache: cache_ref,
                config,
                hub: hub_ref,
                registry,
            };
            // Drain, don't drop: admission flushes what is queued into
            // final batches and then closes the dispatch queue itself. The
            // guard closes on every exit, so a panicking `f` lets the scope
            // join its threads and re-raise the panic instead of hanging.
            let _close = CloseOnDrop(subs);
            f(&client)
        })
    }
}

/// Closes its queue when dropped, unwinding included.
struct CloseOnDrop<'a, T>(&'a BoundedQueue<T>);

impl<T> Drop for CloseOnDrop<'_, T> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// The admission thread: open a window on the first arrival, fill it until
/// the count or time bound, group by shared inputs, dispatch.
fn admission_loop(
    subs: &BoundedQueue<Submission>,
    dispatch: &BoundedQueue<GroupJob>,
    config: &ServerConfig,
) {
    // An unbounded wait ends only in an item or, once drained, `Closed`.
    while let Pop::Item(mut first) = subs.pop_timeout(Duration::MAX) {
        let window_open = Instant::now();
        first.admitted_at = Some(window_open);
        let closes_at = window_open + config.window;
        let mut batch = vec![first];
        while batch.len() < config.max_batch.max(1) {
            let now = Instant::now();
            if now >= closes_at {
                break;
            }
            match subs.pop_timeout(closes_at - now) {
                Pop::Item(mut x) => {
                    x.admitted_at = Some(Instant::now());
                    batch.push(x);
                }
                Pop::TimedOut | Pop::Closed => break,
            }
        }
        kfusion_trace::counter("kfusion_server_windows_total", 1);
        kfusion_trace::record_host_span("server", "batch_form", window_open);
        for members in group_by_shared_inputs(batch) {
            // Block until the dispatch queue takes the group — the
            // backpressure path: admission stalls, the submission queue
            // fills, submitters see `Overloaded`. Only admission closes the
            // dispatch queue, so the push cannot be refused.
            let placed = dispatch.push_timeout(GroupJob { members }, Duration::MAX);
            assert!(placed.is_ok(), "dispatch closes only after admission exits");
        }
    }
    dispatch.close();
}

/// The executor-input indices a plan scans, sorted and deduplicated.
fn input_set(plan: &PlanGraph) -> Vec<usize> {
    let mut v: Vec<usize> = plan
        .nodes
        .iter()
        .filter_map(|n| match n.kind {
            OpKind::Input { input } => Some(input),
            _ => None,
        })
        .collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// Partition a window into groups of submissions with overlapping scan-input
/// sets (transitively: if A shares with B and B with C, all three group),
/// preserving submission order within each group.
fn group_by_shared_inputs(batch: Vec<Submission>) -> Vec<Vec<Submission>> {
    let n = batch.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    let mut first_scanner: HashMap<usize, usize> = HashMap::new();
    for (i, sub) in batch.iter().enumerate() {
        for input in input_set(&sub.plan) {
            match first_scanner.get(&input) {
                Some(&j) => {
                    let (a, b) = (find(&mut parent, i), find(&mut parent, j));
                    parent[a] = b;
                }
                None => {
                    first_scanner.insert(input, i);
                }
            }
        }
    }
    let mut groups: Vec<Vec<Submission>> = Vec::new();
    let mut slot_of_root: HashMap<usize, usize> = HashMap::new();
    for (i, sub) in batch.into_iter().enumerate() {
        let root = find(&mut parent, i);
        let slot = *slot_of_root.entry(root).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[slot].push(sub);
    }
    groups
}

/// A worker thread: pop groups, execute, route results.
fn worker_loop(
    system: &GpuSystem,
    tables: &[Relation],
    cache: &PlanCache,
    hub: &StatsHub,
    dispatch: &BoundedQueue<GroupJob>,
) {
    while let Pop::Item(job) = dispatch.pop_timeout(Duration::MAX) {
        run_group(system, tables, cache, hub, job.members);
    }
}

/// A dispatch's per-query simulated-stage attribution: each member's share
/// of the report's H2D / compute / D2H engine seconds and makespan (in
/// [`SIM_STAGES`] order).
fn sim_shares(report: &Report, batch_size: usize) -> [f64; SIM_STAGES.len()] {
    let n = batch_size.max(1) as f64;
    [
        report.engine_time(Engine::CopyH2D) / n,
        report.engine_time(Engine::Compute) / n,
        report.engine_time(Engine::CopyD2H) / n,
        report.total() / n,
    ]
}

/// What one dispatch measured, shared by every member's record: when the
/// worker picked the group up, the plan cache's answer and its cost, when
/// execution ended and how long it took, the batch size, and each member's
/// share of the simulated stages. A stage the dispatch never reached stays
/// zero.
struct Dispatch {
    picked_up: Instant,
    compile_s: f64,
    cache_hit: bool,
    exec_end: Instant,
    exec_s: f64,
    batch_size: usize,
    sim: [f64; SIM_STAGES.len()],
}

impl Dispatch {
    /// A dispatch picked up at `at` that has done nothing yet.
    fn picked_up(at: Instant) -> Self {
        Dispatch {
            picked_up: at,
            compile_s: 0.0,
            cache_hit: false,
            exec_end: at,
            exec_s: 0.0,
            batch_size: 1,
            sim: [0.0; SIM_STAGES.len()],
        }
    }

    /// Close member `m`'s lifecycle record with `outcome`: compute its host
    /// stage durations (queue wait → admission, batch form → pickup,
    /// compile, execute, reply, total), hand the record to the hub
    /// (histograms + flight recorder), and return it for the
    /// [`QueryOutcome`].
    fn close(&self, hub: &StatsHub, m: &Submission, outcome: RecordOutcome) -> QueryRecord {
        let done = Instant::now();
        let admitted = m.admitted_at.unwrap_or(self.picked_up);
        // Host stages in `stats::HOST_STAGES` order.
        let host = [
            admitted.saturating_duration_since(m.enqueued_at).as_secs_f64(),
            self.picked_up.saturating_duration_since(admitted).as_secs_f64(),
            self.compile_s,
            self.exec_s,
            done.saturating_duration_since(self.exec_end).as_secs_f64(),
            done.saturating_duration_since(m.enqueued_at).as_secs_f64(),
        ];
        let record = QueryRecord {
            seq: m.seq,
            batch_size: self.batch_size,
            cache_hit: self.cache_hit,
            outcome,
            host,
            sim: self.sim,
        };
        hub.close_record(record.clone());
        record
    }
}

/// Execute one dispatched group and answer every member exactly once —
/// closing every member's [`QueryRecord`] exactly once on every path
/// (success, compile or execution failure, deadline shed); the
/// `unobserved-stage` lint cross-checks that invariant from the emitted
/// counters.
///
/// A group of one query or many takes the same steps: merge the members'
/// plans ([`merge_plans`]), prepare the merged plan through the cache, run
/// it, route one output per member. A lone query whose `Input` leaves name
/// distinct slots merges into its own plan node for node, so its answer,
/// schedule and simulated time are those of a standalone run. A member
/// whose plan is malformed fails alone before the merge, and its
/// group-mates still run.
fn run_group(
    system: &GpuSystem,
    tables: &[Relation],
    cache: &PlanCache,
    hub: &StatsHub,
    members: Vec<Submission>,
) {
    let mut dispatch = Dispatch::picked_up(Instant::now());
    let mut live = Vec::with_capacity(members.len());
    for m in members {
        // Recorded retroactively on a dedicated lane: the wait reaches back
        // across spans this worker has already closed on its own lane.
        kfusion_trace::record_host_span_on("server", QUEUE_WAIT_LANE, "queue_wait", m.enqueued_at);
        if m.deadline.is_some_and(|d| dispatch.picked_up > d) {
            kfusion_trace::counter("kfusion_server_deadline_rejections_total", 1);
            // Shed before anything ran: a batch of one, no compile, no
            // execution.
            dispatch.close(hub, &m, RecordOutcome::DeadlineExceeded);
            let _ = m.reply.send(Err(ServerError::DeadlineExceeded));
        } else if let Err(e) = m.plan.validate() {
            // A malformed plan — [`merge_plans`] could not splice it — is
            // picked up and failed, as the checker fails it standalone: it
            // counts as executed, so its closed record balances. Plans
            // arrive from clients, so this is an error reply, never a panic.
            kfusion_trace::counter("kfusion_server_queries_executed_total", 1);
            dispatch.close(hub, &m, RecordOutcome::Failed);
            let _ = m.reply.send(Err(CoreError::from(e).into()));
        } else {
            live.push(m);
        }
    }
    if live.is_empty() {
        return;
    }
    let _span = kfusion_trace::host_span("server", "execute");
    let n = live.len();
    dispatch.batch_size = n;
    kfusion_trace::counter("kfusion_server_queries_executed_total", n as u64);
    if n > 1 {
        kfusion_trace::counter("kfusion_server_batched_queries_total", n as u64);
    }
    // Canonicalize member order by structural fingerprint: a recurring batch
    // *composition* then always merges into the same graph regardless of
    // arrival order, so it re-keys in the plan cache. Results still route by
    // member (outputs come back in `live` order), so reordering is safe.
    live.sort_by_key(|m| kfusion_core::fingerprint_plan(&m.plan).0);
    let plans: Vec<PlanGraph> = live.iter_mut().map(|m| std::mem::take(&mut m.plan)).collect();
    let merged = merge_plans(&plans);
    let compile_began = Instant::now();
    let prepared = cache.prepare(&merged);
    dispatch.compile_s = compile_began.elapsed().as_secs_f64();
    let res = prepared.and_then(|(fusion, hit)| {
        dispatch.cache_hit = hit;
        let exec_began = Instant::now();
        let multi = execute_multi_prepared(system, &merged, tables, cache.cfg(), &fusion);
        dispatch.exec_s = exec_began.elapsed().as_secs_f64();
        multi.map_err(ServerError::from)
    });
    dispatch.exec_end = Instant::now();
    match res {
        Ok(multi) => {
            dispatch.sim = sim_shares(&multi.report, n);
            let sim_batch_total = multi.report.total();
            for (m, output) in live.into_iter().zip(multi.outputs) {
                let record = dispatch.close(hub, &m, RecordOutcome::Completed);
                let _ = m.reply.send(Ok(QueryOutcome {
                    output,
                    batch_size: n,
                    sim_batch_total,
                    record,
                }));
            }
        }
        Err(e) => {
            for m in live {
                dispatch.close(hub, &m, RecordOutcome::Failed);
                let _ = m.reply.send(Err(e.clone()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfusion_core::exec::{execute, Strategy};
    use kfusion_relalg::{gen, predicates};

    fn sys() -> GpuSystem {
        GpuSystem::c2070()
    }

    fn query(input: usize, t: u64) -> PlanGraph {
        let mut g = PlanGraph::new();
        let i = g.input(input);
        g.add(OpKind::Select { pred: predicates::key_lt(t) }, vec![i]);
        g
    }

    #[test]
    fn single_query_round_trips_byte_identical() {
        let s = sys();
        let tables = [gen::random_keys(100_000, 3)];
        let cfg = ServerConfig::new(ExecConfig::new(Strategy::Fusion, &s));
        let outcome = QueryService::serve(&s, &tables, &cfg, |c| c.query(query(0, 1 << 30)))
            .expect("query succeeds");
        let alone = execute(&s, &query(0, 1 << 30), &tables, &cfg.exec).unwrap();
        assert_eq!(outcome.output, alone.output);
        assert!(outcome.sim_batch_total > 0.0);
    }

    #[test]
    fn same_window_shared_input_queries_batch_together() {
        let s = sys();
        let tables = [gen::random_keys(50_000, 5)];
        let mut cfg = ServerConfig::new(ExecConfig::new(Strategy::Fusion, &s));
        // A generous window and one worker so both submissions land in the
        // same admission window deterministically.
        cfg.window = Duration::from_millis(200);
        cfg.workers = 1;
        let (a, b) = QueryService::serve(&s, &tables, &cfg, |c| {
            let ta = c.submit(query(0, 1 << 30)).unwrap();
            let tb = c.submit(query(0, 1 << 29)).unwrap();
            (ta.wait().unwrap(), tb.wait().unwrap())
        });
        assert_eq!(a.batch_size, 2, "both queries must ride one dispatch");
        assert_eq!(b.batch_size, 2);
        assert_eq!(a.sim_batch_total, b.sim_batch_total);
        for (q, out) in [(query(0, 1 << 30), &a), (query(0, 1 << 29), &b)] {
            assert_eq!(out.output, execute(&s, &q, &tables, &cfg.exec).unwrap().output);
        }
    }

    #[test]
    fn disjoint_inputs_do_not_merge() {
        let s = sys();
        let tables = [gen::random_keys(20_000, 7), gen::random_keys(20_000, 8)];
        let mut cfg = ServerConfig::new(ExecConfig::new(Strategy::Fusion, &s));
        cfg.window = Duration::from_millis(200);
        cfg.workers = 1;
        let (a, b) = QueryService::serve(&s, &tables, &cfg, |c| {
            let ta = c.submit(query(0, 1 << 30)).unwrap();
            let tb = c.submit(query(1, 1 << 30)).unwrap();
            (ta.wait().unwrap(), tb.wait().unwrap())
        });
        assert_eq!((a.batch_size, b.batch_size), (1, 1), "no shared scans, no merge");
    }

    #[test]
    fn expired_deadline_rejects_instead_of_executing() {
        let s = sys();
        let tables = [gen::random_keys(10_000, 9)];
        let mut cfg = ServerConfig::new(ExecConfig::new(Strategy::Fusion, &s));
        // One-query windows held open long past the deadline.
        cfg.window = Duration::from_millis(100);
        cfg.max_batch = 4;
        let res = QueryService::serve(&s, &tables, &cfg, |c| {
            c.submit_with_deadline(query(0, 100), Some(Duration::from_millis(1))).unwrap().wait()
        });
        assert!(matches!(res, Err(ServerError::DeadlineExceeded)), "{res:?}");
    }

    #[test]
    fn shutdown_drains_accepted_queries() {
        let s = sys();
        let tables = [gen::random_keys(50_000, 11)];
        let mut cfg = ServerConfig::new(ExecConfig::new(Strategy::Fusion, &s));
        cfg.workers = 1;
        // Submit and return the tickets unwaited: serve must still answer
        // them all before returning.
        let tickets = QueryService::serve(&s, &tables, &cfg, |c| {
            (0..6).map(|i| c.submit(query(0, 1 << (20 + i))).unwrap()).collect::<Vec<_>>()
        });
        for t in tickets {
            t.wait().expect("drained query still answered");
        }
    }

    #[test]
    fn repeated_shapes_hit_the_cache() {
        let s = sys();
        let tables = [gen::random_keys(10_000, 13)];
        let cfg = ServerConfig::new(ExecConfig::new(Strategy::Fusion, &s));
        let stats = QueryService::serve(&s, &tables, &cfg, |c| {
            for _ in 0..5 {
                c.query(query(0, 42)).unwrap();
            }
            c.cache_stats()
        });
        assert!(stats.hits >= 3, "repeats must hit: {stats:?}");
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn wait_timeout_is_non_consuming() {
        let s = sys();
        let tables = [gen::random_keys(50_000, 15)];
        let mut cfg = ServerConfig::new(ExecConfig::new(Strategy::Fusion, &s));
        // A long window delays the reply well past the first poll.
        cfg.window = Duration::from_millis(300);
        cfg.max_batch = 8;
        let outcome = QueryService::serve(&s, &tables, &cfg, |c| {
            let ticket = c.submit(query(0, 1 << 30)).unwrap();
            let early = ticket.wait_timeout(Duration::from_millis(1));
            assert!(matches!(early, Err(ServerError::WaitTimedOut)), "{early:?}");
            // The ticket survives the timeout; the result still arrives.
            ticket.wait()
        })
        .expect("query succeeds after timed-out poll");
        assert_eq!(outcome.batch_size, 1);
    }

    #[test]
    fn outcomes_carry_closed_stage_records() {
        let s = sys();
        let tables = [gen::random_keys(50_000, 17)];
        let mut cfg = ServerConfig::new(ExecConfig::new(Strategy::Fusion, &s));
        cfg.window = Duration::from_millis(200);
        cfg.workers = 1;
        let (a, b) = QueryService::serve(&s, &tables, &cfg, |c| {
            let ta = c.submit(query(0, 1 << 30)).unwrap();
            let tb = c.submit(query(0, 1 << 29)).unwrap();
            (ta.wait().unwrap(), tb.wait().unwrap())
        });
        for out in [&a, &b] {
            let r = &out.record;
            assert_eq!(r.outcome, RecordOutcome::Completed);
            assert_eq!(r.batch_size, 2);
            // Host total covers every other host stage.
            let total = r.host_stage(crate::stats::HostStage::Total);
            for stage in crate::stats::HOST_STAGES {
                assert!(r.host_stage(stage) >= 0.0);
                if stage != crate::stats::HostStage::Total {
                    assert!(r.host_stage(stage) <= total + 1e-9, "{stage:?}");
                }
            }
            // The sim share is the batch total split across members.
            let share = r.sim_stage(crate::stats::SimStage::Total);
            assert!((share - out.sim_batch_total / 2.0).abs() < 1e-12);
        }
        assert_ne!(a.record.seq, b.record.seq);
    }

    #[test]
    fn server_stats_snapshot_counts_and_percentiles() {
        let s = sys();
        let tables = [gen::random_keys(20_000, 19)];
        let mut cfg = ServerConfig::new(ExecConfig::new(Strategy::Fusion, &s));
        cfg.slow_query_threshold = Some(Duration::ZERO); // everything is "slow"
        let stats = QueryService::serve(&s, &tables, &cfg, |c| {
            // One shape five times: the repeats hit the plan cache.
            for _ in 0..5 {
                c.query(query(0, 1 << 12)).unwrap();
            }
            c.server_stats()
        });
        assert_eq!(stats.submitted, 5);
        assert_eq!(stats.completed, 5);
        assert_eq!((stats.shed_overload, stats.shed_deadline, stats.failed), (0, 0, 0));
        assert_eq!(stats.recent.len(), 5);
        assert_eq!(stats.slow.len(), 5, "zero threshold logs every query");
        let summaries: Vec<_> =
            stats.host.iter().map(|(_, s)| *s).chain(stats.sim.iter().map(|(_, s)| *s)).collect();
        for sum in summaries {
            assert_eq!(sum.count, 5);
            assert!(sum.p50 <= sum.p95 && sum.p95 <= sum.p99);
        }
        assert!(stats.cache_hit_rate > 0.5, "{}", stats.cache_hit_rate);
    }

    #[test]
    fn grouping_is_transitive_over_shared_inputs() {
        // A scans {0}, B scans {0,1}, C scans {1}: one group of three.
        let subs: Vec<Submission> = [vec![0], vec![0, 1], vec![1]]
            .into_iter()
            .map(|ins| {
                let mut g = PlanGraph::new();
                let nodes: Vec<_> = ins.into_iter().map(|i| g.input(i)).collect();
                let mut acc = nodes[0];
                for &n in &nodes[1..] {
                    acc = g.add(OpKind::ColumnJoin, vec![acc, n]);
                }
                let _ = acc;
                let (tx, _rx) = mpsc::channel();
                Submission {
                    plan: g,
                    seq: 0,
                    enqueued_at: Instant::now(),
                    admitted_at: None,
                    deadline: None,
                    reply: tx,
                }
            })
            .collect();
        let groups = group_by_shared_inputs(subs);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].len(), 3);
    }
}
