//! The serve harness: the cohort deployment every serve bench measures,
//! and the closed-loop and open-loop load generators that drive it.
//!
//! `deploy_cohort` enrols and calibrates the deployment. Every request
//! either generator sends comes from one plan: request `i` under plan
//! seed `seed` is [`plan_indexed_request`]`(seed, i, …)` — a genuine
//! probe (70 %), a cross-user impostor probe (20 %), or a
//! fault-injected probe that exercises the retry/degraded policy path
//! (10 %).
//!
//! * [`run_load`] is the closed loop: N client threads against the
//!   in-process [`VerifyService`] or a TCP
//!   [`VerifyServer`](mandipass_serve::VerifyServer), one request in
//!   flight per client. Client `c` issues indices `c, c + N, c + 2N, …`,
//!   each only once the previous response has landed, so sustained QPS
//!   and the latency quantiles describe the same steady state.
//! * [`run_open_loop`] fires index `i` over TCP at `start + i / rate`
//!   whatever is outstanding — the only way to drive offered load past
//!   capacity.
//!
//! Request contents derive only from `(seed, index)`, never from
//! timing or thread, so two runs of one config send the same bytes: the
//! transport-parity check of `exp_serve`, the deterministic decision
//! counts of `BENCH_serve.json` and the admitted-decision parity of
//! `exp_overload` all rest on this.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use mandipass::prelude::*;
use mandipass::template::MatrixMemo;
use mandipass_dsp::stats::median;
use mandipass_imu_sim::faults::sweep_profiles;
use mandipass_imu_sim::{Condition, Recorder, Recording, UserProfile};
use mandipass_serve::{BreakerConfig, Request, Response, VerifyClient, VerifyService};
use mandipass_telemetry::{Histogram, Monitor, Registry};
use mandipass_util::json::Value;
use mandipass_util::rand::{rngs::StdRng, Rng, SeedableRng};

use crate::harness::TrainedStack;

/// Users every serve bench enrols.
const COHORT: usize = 4;

/// The users a [`deploy_cohort`] deployment enrols: the first four of
/// the trained cohort. The serve benches measure the serving layer, so
/// they want real accept/reject contrast, which the held-out split is
/// too small to give at smoke scale.
pub(crate) fn cohort_users(stack: &TrainedStack) -> &[UserProfile] {
    let users = stack.population.users();
    &users[..COHORT.min(users.len())]
}

/// Builds the deployment every serve bench measures. Equal arguments
/// build bit-identical deployments, which the overload drill relies on.
///
/// Each of the [`cohort_users`] is enrolled from four recordings (seeds
/// `salt << 16 ^ id << 8 ^ s`) under the matrix seeded `salt ^ id`. Four
/// genuine and four cross-user calibration verifies per user (seeds
/// `salt << 16 ^ 0x3000 ^ u << 8 ^ s`) then do two jobs. The threshold
/// moves to the midpoint of the genuine and impostor mean distances:
/// the EER `threshold` was fit on a different matrix pairing and need
/// not separate this cohort at smoke scale. And the drift baseline
/// freezes on the genuine distances, so the PSI judges traffic against
/// traffic. The windows are reset last, so verdicts cover only the load.
///
/// The deployment feeds a private monitor, reachable through
/// `service.system().monitor()`: load traffic stays out of the global
/// drift windows, and the trace store holds only this deployment's
/// requests.
///
/// # Errors
///
/// Propagates enrolment failures.
pub(crate) fn deploy_cohort(
    stack: &TrainedStack,
    threshold: f64,
    salt: u64,
    breaker: BreakerConfig,
) -> Result<Arc<VerifyService>, MandiPassError> {
    let monitor: &'static Monitor = Box::leak(Box::new(Monitor::default()));
    let config = PipelineConfig {
        threshold,
        ..PipelineConfig::default()
    };
    let mut auth = MandiPass::new(stack.extractor.clone(), config);
    auth.set_monitor(monitor);
    let dim = auth.embedding_dim();
    let mut service = VerifyService::with_breaker(auth, VerifyPolicy::default(), breaker);
    let users = cohort_users(stack);
    let record = |user: &UserProfile, seed: u64| {
        stack
            .recorder
            .record(user, Condition::Normal, (salt << 16) ^ seed)
    };
    for user in users {
        let id = u64::from(user.id);
        let recordings: Vec<Recording> = (0..4).map(|s| record(user, (id << 8) ^ s)).collect();
        service.enroll(
            user.id,
            &recordings,
            GaussianMatrix::generate(salt ^ id, dim),
        )?;
    }
    let distance = |service: &VerifyService, user_id: u32, probe: Recording| match service
        .handle(&Request::Verify { user_id, probe })
    {
        Response::Decision { distance, .. } => Some(distance),
        _ => None,
    };
    let (mut genuine, mut impostor) = (Vec::new(), Vec::new());
    for (u, user) in users.iter().enumerate() {
        let other = &users[(u + 1) % users.len()];
        for s in 0..4u64 {
            let seed = 0x3000 ^ ((u as u64) << 8) ^ s;
            genuine.extend(distance(&service, user.id, record(user, seed)));
            impostor.extend(distance(&service, user.id, record(other, seed ^ 0x77)));
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let (genuine_mean, impostor_mean) = (mean(&genuine), mean(&impostor));
    if impostor_mean > genuine_mean {
        service.system_mut().config_mut().threshold = (genuine_mean + impostor_mean) / 2.0;
    }
    monitor.extend_baseline(&genuine);
    monitor.freeze_baseline();
    monitor.reset_windows();
    Ok(Arc::new(service))
}

/// Share of planned requests, in whole percent, that are genuine
/// probes from the claimed user.
const GENUINE_PCT: u32 = 70;
/// Share of planned requests, in whole percent, that are probes recorded
/// from a *different* enrolled user. The remaining 10 % are genuine
/// probes with an injected sensor fault, sent through the policy path
/// (retry + degraded fallback).
const IMPOSTOR_PCT: u32 = 20;
/// Fault intensity (0..=1) of the faulty share.
const FAULT_INTENSITY: f64 = 0.75;

/// One closed-loop run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadConfig {
    /// Concurrent closed-loop client threads.
    pub clients: usize,
    /// Requests each client issues.
    pub requests_per_client: usize,
    /// Seed of the request plan the clients send.
    pub seed: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            clients: 4,
            requests_per_client: 32,
            seed: 0x5e12_4e20,
        }
    }
}

impl LoadConfig {
    pub(crate) fn serialise(&self) -> Value {
        Value::Object(crate::gate::numbers(&[
            ("clients", self.clients as f64),
            ("requests_per_client", self.requests_per_client as f64),
            ("fault_intensity", FAULT_INTENSITY),
            ("seed", self.seed as f64),
        ]))
    }
}

/// Where the generated traffic goes.
#[derive(Debug, Clone)]
pub enum LoadTarget<'a> {
    /// Call [`VerifyService::handle`] directly — no sockets, the upper
    /// bound a TCP transport can approach.
    InProcess(&'a Arc<VerifyService>),
    /// Connect one TCP client per thread to a running verify server.
    Tcp(SocketAddr),
}

/// Decision tallies of one closed-loop run, summed over the client
/// threads after join so the totals do not depend on scheduling.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Completed requests.
    pub requests: u64,
    /// Accept decisions.
    pub accepted: u64,
    /// Reject decisions (a decision was made, identity denied).
    pub rejected: u64,
    /// Decisions taken in degraded accel-only mode.
    pub degraded: u64,
    /// Policy runs that exhausted every attempt.
    pub exhausted: u64,
    /// Transport or unexpected server errors.
    pub errors: u64,
    /// Genuine requests issued.
    pub genuine: u64,
    /// Genuine requests that were accepted.
    pub genuine_accepted: u64,
    /// Impostor requests issued.
    pub impostor: u64,
    /// Impostor requests that were (wrongly) accepted.
    pub impostor_accepted: u64,
    /// Fault-injected requests issued.
    pub faulty: u64,
}

impl Counts {
    fn add(&mut self, other: &Counts) {
        self.requests += other.requests;
        self.accepted += other.accepted;
        self.rejected += other.rejected;
        self.degraded += other.degraded;
        self.exhausted += other.exhausted;
        self.errors += other.errors;
        self.genuine += other.genuine;
        self.genuine_accepted += other.genuine_accepted;
        self.impostor += other.impostor;
        self.impostor_accepted += other.impostor_accepted;
        self.faulty += other.faulty;
    }

    /// Tallies the response to one request planned as `kind`.
    fn score(&mut self, kind: PlannedKind, response: &Result<Response, String>) {
        self.requests += 1;
        match kind {
            PlannedKind::Genuine => self.genuine += 1,
            PlannedKind::Impostor => self.impostor += 1,
            PlannedKind::Faulty => self.faulty += 1,
        }
        match response {
            Ok(Response::Decision {
                accepted, degraded, ..
            }) => {
                if *accepted {
                    self.accepted += 1;
                    match kind {
                        PlannedKind::Genuine => self.genuine_accepted += 1,
                        PlannedKind::Impostor => self.impostor_accepted += 1,
                        PlannedKind::Faulty => {}
                    }
                } else {
                    self.rejected += 1;
                }
                if *degraded {
                    self.degraded += 1;
                }
            }
            // Pipeline rejects on hostile probes (e.g. undetectable
            // vibration) and exhausted retries are decisions of a kind
            // too; anything else — transport failures, bad_request — is
            // an error.
            Ok(Response::Error { kind, .. })
                if kind != "bad_request" && kind != "not_enrolled" && kind != "unknown" =>
            {
                self.exhausted += 1
            }
            _ => self.errors += 1,
        }
    }
}

/// Latency quantiles of one run, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
    /// Mean.
    pub mean: f64,
    /// Slowest observed request.
    pub max: f64,
}

impl LatencySummary {
    fn of(histogram: &Histogram) -> Self {
        LatencySummary {
            p50: histogram.quantile(0.5),
            p99: histogram.quantile(0.99),
            p999: histogram.quantile(0.999),
            mean: histogram.mean(),
            max: histogram.max(),
        }
    }
}

/// The result of one load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// The configuration that produced it.
    pub config: LoadConfig,
    /// Wall-clock span from first spawn to last join, seconds.
    pub wall_seconds: f64,
    /// Sustained throughput: completed requests / wall seconds.
    pub qps: f64,
    /// Latency quantiles.
    pub latency: LatencySummary,
    /// Decision and per-category tallies.
    pub counts: Counts,
    /// The serving deployment's drift-monitor health report at the end
    /// of the run, when the caller handed the monitor over.
    pub monitor: Value,
    /// Trace ids the server echoed back, in client-thread order (empty
    /// for in-process runs, which cannot observe their minted ids).
    pub trace_ids: Vec<u64>,
}

impl LoadReport {
    /// Reject fraction over completed requests (rejected + exhausted).
    pub fn reject_rate(&self) -> f64 {
        (self.counts.rejected + self.counts.exhausted) as f64 / self.counts.requests.max(1) as f64
    }

    /// Degraded-decision fraction over completed requests.
    pub fn degraded_rate(&self) -> f64 {
        self.counts.degraded as f64 / self.counts.requests.max(1) as f64
    }

    /// The decision tallies that must be transport-invariant.
    pub fn decision_signature(&self) -> [u64; 7] {
        let c = &self.counts;
        [
            c.requests,
            c.accepted,
            c.rejected,
            c.degraded,
            c.exhausted,
            c.genuine_accepted,
            c.impostor_accepted,
        ]
    }

    /// One transport section of the `BENCH_serve.json` metrics.
    pub fn to_json(&self) -> Value {
        let c = &self.counts;
        Value::Object(crate::gate::numbers(&[
            ("requests", c.requests as f64),
            ("wall_seconds", self.wall_seconds),
            ("qps", self.qps),
            ("latency_seconds.p50", self.latency.p50),
            ("latency_seconds.p99", self.latency.p99),
            ("latency_seconds.p999", self.latency.p999),
            ("latency_seconds.mean", self.latency.mean),
            ("latency_seconds.max", self.latency.max),
            ("counts.accepted", c.accepted as f64),
            ("counts.rejected", c.rejected as f64),
            ("counts.degraded", c.degraded as f64),
            ("counts.exhausted", c.exhausted as f64),
            ("counts.errors", c.errors as f64),
            ("counts.genuine", c.genuine as f64),
            ("counts.genuine_accepted", c.genuine_accepted as f64),
            ("counts.impostor", c.impostor as f64),
            ("counts.impostor_accepted", c.impostor_accepted as f64),
            ("counts.faulty", c.faulty as f64),
            ("rates.reject", self.reject_rate()),
            ("rates.degraded", self.degraded_rate()),
        ]))
    }
}

/// What one client thread does with a prepared request.
enum Caller<'a> {
    InProcess(&'a VerifyService),
    Tcp(Box<VerifyClient>),
}

impl Caller<'_> {
    /// Issues one request. TCP calls ride [`VerifyClient::call_traced`]
    /// so the echoed trace id comes back with the response; in-process
    /// calls mint and commit their trace inside `handle` and return no
    /// id (there is no wire to echo it on).
    fn call(&mut self, request: &Request) -> (Result<Response, String>, Option<u64>) {
        match self {
            Caller::InProcess(service) => (Ok(service.handle(request)), None),
            Caller::Tcp(client) => match client.call_traced(request, None) {
                Ok((response, echoed)) => (Ok(response), echoed),
                Err(e) => (Err(e.to_string()), None),
            },
        }
    }
}

/// Traffic category of one planned request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannedKind {
    /// Genuine probe from the claimed user.
    Genuine,
    /// Probe recorded from a different enrolled user.
    Impostor,
    /// Fault-injected genuine probe through the policy path.
    Faulty,
}

/// Request `index` of the plan seeded `seed` and its category: a pure
/// function of `(seed, index)`, whichever thread plans it and in
/// whatever order. The one planner behind both generators and the
/// overload parity replay.
pub fn plan_indexed_request(
    seed: u64,
    index: usize,
    users: &[UserProfile],
    recorder: &Recorder,
) -> (Request, PlannedKind) {
    let mut rng =
        StdRng::seed_from_u64(seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let draw = rng.gen_range(0..100u32);
    let user_idx = rng.gen_range(0..users.len());
    let probe_seed = rng.next_u64();
    let user = &users[user_idx];
    if draw < GENUINE_PCT {
        let probe = recorder.record(user, Condition::Normal, probe_seed);
        (
            Request::Verify {
                user_id: user.id,
                probe,
            },
            PlannedKind::Genuine,
        )
    } else if draw < GENUINE_PCT + IMPOSTOR_PCT && users.len() > 1 {
        let offset = 1 + rng.gen_range(0..users.len() - 1);
        let other = &users[(user_idx + offset) % users.len()];
        let probe = recorder.record(other, Condition::Normal, probe_seed);
        (
            Request::Verify {
                user_id: user.id,
                probe,
            },
            PlannedKind::Impostor,
        )
    } else {
        let profiles = sweep_profiles(FAULT_INTENSITY);
        let profile = &profiles[rng.gen_range(0..profiles.len())];
        let clean = recorder.record(user, Condition::Normal, probe_seed);
        // The fault-injected probe, then one clean retry.
        let probes = vec![
            profile.apply(&clean, probe_seed),
            recorder.record(user, Condition::Normal, probe_seed ^ 0xDEAD_BEEF),
        ];
        (
            Request::VerifyWithPolicy {
                user_id: user.id,
                probes,
            },
            PlannedKind::Faulty,
        )
    }
}

/// Per-frame cost of decoding the same planned request frames two ways:
/// the serve protocol's typed decoder, and the generic `json::parse`
/// tree it replaced. `BENCH_serve` gates their same-run ratio.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecodeTiming {
    /// Distinct frames timed.
    pub frames: usize,
    /// Typed decode (`Request::from_frame`), µs per frame.
    pub typed_us: f64,
    /// UTF-8 check plus `json::parse`, µs per frame.
    pub generic_us: f64,
}

impl DecodeTiming {
    /// Times the first `frames` requests of plan `seed`, framed as the
    /// client sends them (trace id included). Each of `rounds` rounds
    /// decodes every frame one way, then the other; the fastest round of
    /// each counts, so a scheduling hiccup cannot fake a regression and
    /// a slow stretch of the host hits both sides alike.
    pub fn measure(
        seed: u64,
        frames: usize,
        rounds: usize,
        users: &[UserProfile],
        recorder: &Recorder,
    ) -> DecodeTiming {
        let payloads: Vec<Vec<u8>> = (0..frames)
            .map(|i| {
                let (request, _) = plan_indexed_request(seed, i, users, recorder);
                mandipass_serve::with_trace_id(request.to_json(), i as u64 + 1)
                    .to_json()
                    .into_bytes()
            })
            .collect();
        let per_frame_us = |decode: &dyn Fn(&[u8]) -> bool| {
            let started = Instant::now();
            for payload in &payloads {
                assert!(
                    decode(std::hint::black_box(payload)),
                    "planned frame decodes"
                );
            }
            started.elapsed().as_secs_f64() * 1e6 / frames.max(1) as f64
        };
        let (mut typed_us, mut generic_us) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..rounds.max(1) {
            typed_us = typed_us.min(per_frame_us(&|p| Request::from_frame(p).is_ok()));
            generic_us = generic_us.min(per_frame_us(&|p| {
                std::str::from_utf8(p).is_ok_and(|text| mandipass_util::json::parse(text).is_ok())
            }));
        }
        DecodeTiming {
            frames,
            typed_us,
            generic_us,
        }
    }

    /// The `decode` section of the `BENCH_serve.json` metrics.
    pub fn to_json(&self) -> Value {
        Value::Object(crate::gate::numbers(&[
            ("frames", self.frames as f64),
            ("typed_us", self.typed_us),
            ("generic_us", self.generic_us),
        ]))
    }
}

/// The same-run figures `BENCH_serve` gates beside its two load runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SameRun {
    /// Typed vs generic frame decode.
    pub decode: DecodeTiming,
    /// Memo hit vs fresh draw of the template transform.
    pub transform: TransformTiming,
    /// The in-process run's memo lookups; `None` when the deployment's
    /// matrices are too large for the memo, which leaves the hit-rate
    /// gate undeclared.
    pub memo: Option<MemoUse>,
}

/// Same-run timing of the template transform on the same 64-d prints:
/// a matrix-memo hit against a fresh draw of the matrix, and whether
/// the two agree bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransformTiming {
    /// Distinct prints (each under its own matrix) timed.
    pub prints: usize,
    /// Median memo-hit transform, µs.
    pub hit_us: f64,
    /// Median fresh-draw transform, µs.
    pub draw_us: f64,
    /// Whether every hit template equals its fresh draw bit for bit.
    pub memo_bitwise: bool,
}

impl TransformTiming {
    /// The print dimension timed, whatever the deployment's: the
    /// served smoke scale, and one the memo admits.
    pub const DIM: usize = 64;

    /// Extracts one print per user (recording seed `seed ^ id`), keeps
    /// its first [`Self::DIM`] components (repeating a shorter print),
    /// and times `rounds` transforms of each under its own matrix, a
    /// fresh draw and a memo hit in turn, so a slow stretch of the host
    /// hits both sides alike.
    pub fn measure(
        system: &MandiPass,
        users: &[UserProfile],
        recorder: &Recorder,
        seed: u64,
        rounds: usize,
    ) -> TransformTiming {
        let prints: Vec<MandiblePrint> = users
            .iter()
            .filter_map(|u| {
                let recording = recorder.record(u, Condition::Normal, seed ^ u64::from(u.id));
                let print = system.extract_print(&recording).ok()?;
                let values = print.as_slice().iter().copied().cycle().take(Self::DIM);
                Some(MandiblePrint::new(values.collect()))
            })
            .collect();
        let matrices: Vec<GaussianMatrix> = (0..prints.len())
            .map(|i| GaussianMatrix::generate(seed ^ ((i as u64) << 8), Self::DIM))
            .collect();
        let memo = MatrixMemo::new();
        let bits = |t: Result<CancelableTemplate, MandiPassError>| {
            t.map(|t| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>())
        };
        let mut memo_bitwise = !prints.is_empty();
        for (matrix, print) in matrices.iter().zip(&prints) {
            let drawn = bits(matrix.transform(print));
            // The first memo call draws into the memo, the second hits.
            let (miss, hit) = (
                bits(memo.transform(matrix, print)),
                bits(memo.transform(matrix, print)),
            );
            memo_bitwise &= drawn.is_ok() && miss == drawn && hit == drawn;
        }
        let (mut hit_us, mut draw_us) = (Vec::new(), Vec::new());
        let time_us = |f: &dyn Fn() -> Result<CancelableTemplate, MandiPassError>| {
            let started = Instant::now();
            let _ = std::hint::black_box(f());
            started.elapsed().as_secs_f64() * 1e6
        };
        for _ in 0..rounds.max(1) {
            for (matrix, print) in matrices.iter().zip(&prints) {
                draw_us.push(time_us(&|| matrix.transform(std::hint::black_box(print))));
                hit_us.push(time_us(&|| {
                    memo.transform(matrix, std::hint::black_box(print))
                }));
            }
        }
        TransformTiming {
            prints: prints.len(),
            hit_us: median(&hit_us),
            draw_us: median(&draw_us),
            memo_bitwise,
        }
    }

    /// The `transform` section of the `BENCH_serve.json` metrics.
    pub fn to_json(&self) -> Value {
        let mut fields = crate::gate::numbers(&[
            ("prints", self.prints as f64),
            ("hit_us", self.hit_us),
            ("draw_us", self.draw_us),
        ]);
        fields.push(("memo_bitwise".to_string(), Value::Bool(self.memo_bitwise)));
        Value::Object(fields)
    }
}

/// Matrix-memo lookups over one load run, read from the
/// `template.memo.*` counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoUse {
    /// Transforms that reused a memoized matrix.
    pub hits: u64,
    /// Transforms that drew their matrix into the memo.
    pub misses: u64,
}

impl MemoUse {
    /// The process-wide counters now; subtract two readings to get a
    /// run's lookups.
    pub fn now() -> MemoUse {
        let metrics = mandipass_telemetry::metrics();
        MemoUse {
            hits: metrics.counter("template.memo.hits").get(),
            misses: metrics.counter("template.memo.misses").get(),
        }
    }

    /// The lookups between `earlier` and `self`.
    pub fn since(self, earlier: MemoUse) -> MemoUse {
        MemoUse {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
        }
    }

    /// Hits over lookups (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        self.hits as f64 / (self.hits + self.misses).max(1) as f64
    }

    /// The `memo` section of the `BENCH_serve.json` metrics.
    pub fn to_json(&self) -> Value {
        Value::Object(crate::gate::numbers(&[
            ("hits", self.hits as f64),
            ("misses", self.misses as f64),
            ("hit_rate", self.hit_rate()),
        ]))
    }
}

/// A stable, bit-exact signature of one service outcome: decisions
/// carry their accept/degraded flags, attempt count, and the distance's
/// exact bit pattern; typed errors carry their kind. Two transports (or
/// an open-loop and a closed-loop run) serving the same request must
/// produce equal signatures — util JSON round-trips f64 exactly.
pub fn outcome_signature(response: &Response) -> String {
    match response {
        Response::Decision {
            accepted,
            degraded,
            attempts,
            distance,
            ..
        } => format!(
            "d:{}:{}:{}:{:016x}",
            u8::from(*accepted),
            u8::from(*degraded),
            attempts,
            distance.to_bits()
        ),
        Response::Error { kind, .. } => format!("e:{kind}"),
        Response::Health { .. } => "h".to_string(),
    }
}

/// Runs one closed-loop load generation against `target`.
///
/// `users` are the enrolled identities (probe material comes from
/// `recorder`); `monitor`, when given, contributes the end-of-run
/// health verdict to the report.
///
/// # Panics
///
/// Panics when `users` is empty — a harness-construction bug, not a
/// runtime state.
pub fn run_load(
    target: &LoadTarget<'_>,
    users: &[UserProfile],
    recorder: &Recorder,
    config: &LoadConfig,
    monitor: Option<&Monitor>,
) -> LoadReport {
    assert!(!users.is_empty(), "load generation needs enrolled users");
    // A private registry so repeated runs in one process do not blur
    // each other's quantiles.
    let histogram = Registry::new().histogram("serve.load_latency_seconds");
    let clients = config.clients.max(1);
    let started = Instant::now();
    let per_client: Vec<(Counts, Vec<u64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let histogram: Histogram = histogram.clone();
                scope.spawn(move || {
                    let mut caller = match target {
                        LoadTarget::InProcess(service) => Caller::InProcess(service.as_ref()),
                        LoadTarget::Tcp(addr) => Caller::Tcp(Box::new(
                            VerifyClient::connect(*addr)
                                .unwrap_or_else(|e| panic!("load client connect: {e}")),
                        )),
                    };
                    let mut counts = Counts::default();
                    let mut echoed_ids = Vec::new();
                    for j in 0..config.requests_per_client {
                        let (request, kind) = plan_indexed_request(
                            config.seed,
                            client + j * clients,
                            users,
                            recorder,
                        );
                        let sent = Instant::now();
                        let (response, echoed) = caller.call(&request);
                        histogram.observe(sent.elapsed().as_secs_f64());
                        counts.score(kind, &response);
                        echoed_ids.extend(echoed);
                    }
                    (counts, echoed_ids)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| panic!("load client panicked")))
            .collect()
    });
    let wall_seconds = started.elapsed().as_secs_f64().max(1e-9);
    let mut counts = Counts::default();
    let mut trace_ids = Vec::new();
    for (c, ids) in &per_client {
        counts.add(c);
        trace_ids.extend_from_slice(ids);
    }
    LoadReport {
        config: config.clone(),
        wall_seconds,
        qps: counts.requests as f64 / wall_seconds,
        latency: LatencySummary::of(&histogram),
        counts,
        monitor: monitor.map_or(Value::Null, |m| m.health().to_json()),
        trace_ids,
    }
}

/// The latency-attribution report for the traces a monitor sampled
/// during a load run: per-stage p50/p99/mean/max over the queue-wait /
/// decode / verify / write taxonomy plus the `top_k` slowest traces in
/// full. A thin re-export of
/// [`mandipass_telemetry::attribution_report`] so bench binaries do not
/// reach into the telemetry crate directly.
pub fn trace_attribution(monitor: &Monitor, top_k: usize) -> Value {
    mandipass_telemetry::attribution_report(&monitor.traces(), top_k)
}

// ---------------------------------------------------------------------
// Open-loop (arrival-rate-driven) generation and the overload bench
// document. A closed-loop generator can never overload a server — each
// client waits for its answer, so offered load self-throttles to
// capacity. The open-loop generator fires request `i` at time
// `start + i / rate` regardless of outstanding responses, which is the
// only way to drive offered load past capacity and observe the shed
// path, the bounded queue, and saturated tail latency.
// ---------------------------------------------------------------------

/// One open-loop run: `total_requests` arrivals at `rate_per_sec`,
/// issued by `senders` threads (thread `s` owns indices `i ≡ s mod
/// senders`), one fresh connection per request.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenLoopConfig {
    /// Offered arrival rate, requests per second.
    pub rate_per_sec: f64,
    /// Total arrivals.
    pub total_requests: usize,
    /// Sender threads; must comfortably exceed `rate × per-request
    /// latency` or the offered rate degrades toward closed-loop.
    pub senders: usize,
    /// Seed of the request plan the senders send.
    pub seed: u64,
    /// Optional per-request `deadline_ms` budget.
    pub deadline_ms: Option<u64>,
}

/// What happened to one open-loop request.
#[derive(Debug, Clone, PartialEq)]
pub enum OpenOutcome {
    /// The server dispatched it; the signature is
    /// [`outcome_signature`] of the response.
    Served {
        /// Bit-exact outcome signature for parity checks.
        signature: String,
    },
    /// The server shed it with a typed error (`overloaded`,
    /// `deadline_exceeded`, or `shutting_down`).
    Shed {
        /// The error kind.
        kind: String,
    },
    /// The transport failed — a hang-up, reset, or timeout. The
    /// overload acceptance gate requires zero of these: overload must
    /// surface as typed sheds, never as connection failures.
    Transport {
        /// The I/O error text.
        error: String,
    },
}

/// The result of one open-loop run.
#[derive(Debug, Clone)]
pub struct OpenLoopReport {
    /// Configured arrival rate.
    pub offered_rate: f64,
    /// Completed arrivals / wall time — sags below `offered_rate` when
    /// senders cannot keep up.
    pub achieved_rate: f64,
    /// Wall-clock seconds, first arrival to last response.
    pub wall_seconds: f64,
    /// Requests that got a dispatched (served) response.
    pub served: u64,
    /// Requests shed with a typed `overloaded`.
    pub shed_overloaded: u64,
    /// Requests shed with a typed `deadline_exceeded`.
    pub shed_deadline: u64,
    /// Requests shed with a typed `shutting_down`.
    pub shed_shutdown: u64,
    /// Transport failures (must be zero under the acceptance gate).
    pub transport_errors: u64,
    /// Served responses / wall seconds — the goodput the overload chart
    /// plots against offered load.
    pub goodput: f64,
    /// Latency quantiles of *served* requests only (connect + round
    /// trip); sheds answer fast and would flatter the tail.
    pub latency: LatencySummary,
    /// Per-index outcomes, `outcomes[i]` for request `i`.
    pub outcomes: Vec<OpenOutcome>,
}

impl OpenLoopReport {
    /// Served + shed + failed — always `total_requests`.
    pub fn total(&self) -> u64 {
        self.served
            + self.shed_overloaded
            + self.shed_deadline
            + self.shed_shutdown
            + self.transport_errors
    }

    /// One sweep point: the `overload.*` metrics of `BENCH_overload.json`.
    pub fn to_json(&self) -> Value {
        Value::Object(crate::gate::numbers(&[
            ("offered_rate", self.offered_rate),
            ("achieved_rate", self.achieved_rate),
            ("wall_seconds", self.wall_seconds),
            ("total", self.total() as f64),
            ("served", self.served as f64),
            ("shed.overloaded", self.shed_overloaded as f64),
            ("shed.deadline", self.shed_deadline as f64),
            ("shed.shutting_down", self.shed_shutdown as f64),
            ("transport_errors", self.transport_errors as f64),
            ("goodput", self.goodput),
            ("latency_seconds.p50", self.latency.p50),
            ("latency_seconds.p99", self.latency.p99),
            ("latency_seconds.mean", self.latency.mean),
            ("latency_seconds.max", self.latency.max),
        ]))
    }
}

/// Issues one pre-serialized request frame on a fresh connection and
/// classifies the reply.
fn open_loop_call(
    addr: SocketAddr,
    frame: &[u8],
    max_frame_bytes: usize,
) -> Result<Response, String> {
    use mandipass_serve::protocol;
    let mut stream = std::net::TcpStream::connect_timeout(&addr, std::time::Duration::from_secs(5))
        .map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    protocol::write_frame(&mut stream, frame).map_err(|e| format!("write: {e}"))?;
    let payload = protocol::read_frame(&mut stream, max_frame_bytes)
        .map_err(|e| format!("read: {e}"))?
        .ok_or_else(|| "server closed before answering".to_string())?;
    Response::from_frame(&payload).map_err(|e| format!("parse: {e}"))
}

/// Runs one open-loop generation against a TCP endpoint.
///
/// All request frames are planned and serialized *before* the clock
/// starts, so the send loop does no probe synthesis and the offered
/// rate is real. Request `i` is what [`plan_indexed_request`] returns
/// for `i`, which is what the admitted-decision parity check in
/// `exp_overload` compares against.
///
/// # Panics
///
/// Panics on a zero rate or request count, or on empty `users` —
/// harness-construction bugs.
pub fn run_open_loop(
    addr: SocketAddr,
    users: &[UserProfile],
    recorder: &Recorder,
    config: &OpenLoopConfig,
) -> OpenLoopReport {
    use mandipass_serve::with_deadline_ms;
    assert!(
        config.rate_per_sec > 0.0 && config.total_requests > 0,
        "open-loop config needs a positive rate and request count"
    );
    assert!(
        !users.is_empty(),
        "open-loop generation needs enrolled users"
    );
    let max_frame_bytes = 1 << 24;
    // Plan phase (off the clock): serialize every frame up front.
    let frames: Vec<Vec<u8>> = (0..config.total_requests)
        .map(|i| {
            let (request, _) = plan_indexed_request(config.seed, i, users, recorder);
            let mut doc = request.to_json();
            if let Some(ms) = config.deadline_ms {
                doc = with_deadline_ms(doc, ms);
            }
            doc.to_json().into_bytes()
        })
        .collect();
    let histogram = Registry::new().histogram("serve.open_loop_latency_seconds");
    let senders = config.senders.max(1);
    let started = Instant::now();
    let per_thread: Vec<Vec<(usize, OpenOutcome)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..senders)
            .map(|s| {
                let frames = &frames;
                let histogram = histogram.clone();
                scope.spawn(move || {
                    let mut outcomes = Vec::new();
                    let mut index = s;
                    while index < frames.len() {
                        // Open loop: arrival i is due at start + i/rate;
                        // sleep if early, fire immediately if late.
                        let due = started
                            + std::time::Duration::from_secs_f64(
                                index as f64 / config.rate_per_sec,
                            );
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let outcome = match open_loop_call(addr, &frames[index], max_frame_bytes) {
                            Ok(Response::Error { kind, .. })
                                if kind == "overloaded"
                                    || kind == "deadline_exceeded"
                                    || kind == "shutting_down" =>
                            {
                                OpenOutcome::Shed { kind }
                            }
                            Ok(response) => {
                                histogram.observe(sent.elapsed().as_secs_f64());
                                OpenOutcome::Served {
                                    signature: outcome_signature(&response),
                                }
                            }
                            Err(error) => OpenOutcome::Transport { error },
                        };
                        outcomes.push((index, outcome));
                        index += senders;
                    }
                    outcomes
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| panic!("open-loop sender panicked"))
            })
            .collect()
    });
    let wall_seconds = started.elapsed().as_secs_f64().max(1e-9);
    let mut indexed: Vec<(usize, OpenOutcome)> = per_thread.into_iter().flatten().collect();
    indexed.sort_by_key(|(i, _)| *i);
    let outcomes: Vec<OpenOutcome> = indexed.into_iter().map(|(_, o)| o).collect();
    let mut served = 0u64;
    let (mut shed_overloaded, mut shed_deadline, mut shed_shutdown) = (0u64, 0u64, 0u64);
    let mut transport_errors = 0u64;
    for outcome in &outcomes {
        match outcome {
            OpenOutcome::Served { .. } => served += 1,
            OpenOutcome::Shed { kind } => match kind.as_str() {
                "overloaded" => shed_overloaded += 1,
                "deadline_exceeded" => shed_deadline += 1,
                _ => shed_shutdown += 1,
            },
            OpenOutcome::Transport { .. } => transport_errors += 1,
        }
    }
    OpenLoopReport {
        offered_rate: config.rate_per_sec,
        achieved_rate: outcomes.len() as f64 / wall_seconds,
        wall_seconds,
        served,
        shed_overloaded,
        shed_deadline,
        shed_shutdown,
        transport_errors,
        goodput: served as f64 / wall_seconds,
        latency: LatencySummary::of(&histogram),
        outcomes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{
        overload_document, serve_document, spans_exactly_on_dispatched_failures, trace_document,
    };
    use crate::gate::{check, compare};

    fn fake_report(qps: f64, p99: f64) -> LoadReport {
        LoadReport {
            config: LoadConfig::default(),
            wall_seconds: 1.0,
            qps,
            latency: LatencySummary {
                p50: p99 / 2.0,
                p99,
                p999: p99 * 1.5,
                mean: p99 / 2.0,
                max: p99 * 2.0,
            },
            counts: Counts {
                requests: 128,
                accepted: 80,
                rejected: 40,
                degraded: 4,
                exhausted: 8,
                errors: 0,
                genuine: 90,
                genuine_accepted: 78,
                impostor: 26,
                impostor_accepted: 2,
                faulty: 12,
            },
            monitor: Value::Object(vec![(
                "status".to_string(),
                Value::String("healthy".to_string()),
            )]),
            trace_ids: Vec::new(),
        }
    }

    #[test]
    fn attribution_of_an_idle_monitor_is_empty_but_well_formed() {
        let monitor = Monitor::default();
        let report = trace_attribution(&monitor, 5);
        assert_eq!(report.get("trace_count").and_then(Value::as_f64), Some(0.0));
        assert!(matches!(report.get("slowest"), Some(Value::Array(a)) if a.is_empty()));
    }

    const FAKE_SAME_RUN: SameRun = SameRun {
        decode: DecodeTiming {
            frames: 8,
            typed_us: 20.0,
            generic_us: 60.0,
        },
        transform: TransformTiming {
            prints: 6,
            hit_us: 3.0,
            draw_us: 120.0,
            memo_bitwise: true,
        },
        memo: Some(MemoUse {
            hits: 95,
            misses: 1,
        }),
    };

    fn fake_doc(qps: f64, p99: f64) -> Value {
        serve_document(
            "test scale",
            &LoadConfig::default(),
            4,
            &fake_report(qps, p99),
            &fake_report(qps * 0.8, p99 * 1.2),
            &FAKE_SAME_RUN,
            None,
        )
    }

    /// `doc` with one metric replaced.
    fn with_metric(doc: &Value, name: &str, value: Value) -> Value {
        patch(doc, &["metrics", name], value)
    }

    #[test]
    fn document_round_trips_and_validates() {
        let doc = fake_doc(500.0, 0.010);
        let text = doc.to_json();
        let parsed = mandipass_util::json::parse(&text).unwrap();
        check(&parsed).unwrap();
    }

    #[test]
    fn validator_names_the_violated_field() {
        let mut doc = fake_doc(500.0, 0.010);
        if let Value::Object(members) = &mut doc {
            for (key, value) in members.iter_mut() {
                if let (true, Value::Object(metrics)) = (key == "metrics", value) {
                    metrics.retain(|(k, _)| !k.starts_with("tcp."));
                }
            }
        }
        let err = check(&doc).unwrap_err();
        assert!(err.contains("tcp"), "{err}");

        let bad_schema = Value::Object(vec![(
            "schema".to_string(),
            Value::String("something/v9".to_string()),
        )]);
        assert!(check(&bad_schema).unwrap_err().contains("v9"));
    }

    #[test]
    fn validator_rejects_disordered_quantiles_and_errors() {
        let mut report = fake_report(100.0, 0.01);
        report.latency.p999 = report.latency.p50 / 2.0;
        let doc = serve_document(
            "s",
            &LoadConfig::default(),
            2,
            &report,
            &report,
            &FAKE_SAME_RUN,
            None,
        );
        let err = check(&doc).unwrap_err();
        assert!(err.contains("x tcp.latency_seconds.p999"), "{err}");

        let mut report = fake_report(100.0, 0.01);
        report.counts.errors = 3;
        let doc = serve_document(
            "s",
            &LoadConfig::default(),
            2,
            &report,
            &report,
            &FAKE_SAME_RUN,
            None,
        );
        assert!(check(&doc).unwrap_err().contains("counts.errors"));
    }

    #[test]
    fn comparator_gates_p99_and_qps() {
        let baseline = fake_doc(1000.0, 0.010);
        // Healthy: same perf passes within the baseline's envelope.
        compare(&fake_doc(1000.0, 0.010), &baseline).unwrap();
        // Slightly worse but inside the envelope passes.
        compare(&fake_doc(600.0, 0.018), &baseline).unwrap();
        // p99 blow-up fails and is named.
        let err = compare(&fake_doc(1000.0, 0.050), &baseline).unwrap_err();
        assert!(err.contains("p99"), "{err}");
        // QPS collapse fails.
        let err = compare(&fake_doc(100.0, 0.010), &baseline).unwrap_err();
        assert!(err.contains("qps"), "{err}");
    }

    #[test]
    fn failure_spans_follow_dispatch_exactly() {
        let spans = || Some(mandipass_telemetry::try_capture(|| ()).1.unwrap());
        let trace = |decision: &str, spans| {
            let mut t = mandipass_telemetry::RequestTrace::new(1, "verify", decision);
            t.spans = spans;
            t
        };
        let dispatched = trace("error:not_enrolled", spans());
        let degraded = trace("degraded", spans());
        let shed = trace("error:degraded_only", None);
        let accepted = trace("accepted", None);
        assert!(spans_exactly_on_dispatched_failures(&[
            dispatched.clone(),
            degraded,
            shed.clone(),
            accepted,
            trace("error:overloaded", None),
            trace("error:bad_request", None),
        ]));
        // A dispatched error without spans fails.
        assert!(!spans_exactly_on_dispatched_failures(&[
            dispatched.clone(),
            trace("error:retries_exhausted", None),
        ]));
        // A breaker shed with spans fails.
        assert!(!spans_exactly_on_dispatched_failures(&[
            dispatched.clone(),
            trace("error:overloaded", spans()),
        ]));
        // Sheds without spans alone fail: no dispatched failure exists.
        assert!(!spans_exactly_on_dispatched_failures(std::slice::from_ref(
            &shed
        )));
        assert!(spans_exactly_on_dispatched_failures(&[shed, dispatched]));
    }

    #[test]
    fn reject_and_degraded_rates_are_fractions_of_requests() {
        let report = fake_report(100.0, 0.01);
        assert!((report.reject_rate() - 48.0 / 128.0).abs() < 1e-12);
        assert!((report.degraded_rate() - 4.0 / 128.0).abs() < 1e-12);
    }

    #[test]
    fn indexed_plans_are_deterministic_and_index_local() {
        let population = mandipass_imu_sim::Population::generate(3, 0xbeef);
        let users = population.users();
        let recorder = Recorder::default();
        for index in [0usize, 1, 7, 63] {
            let (a, ka) = plan_indexed_request(42, index, users, &recorder);
            let (b, kb) = plan_indexed_request(42, index, users, &recorder);
            assert_eq!(ka, kb, "plan kind must be a pure function of (seed, index)");
            assert_eq!(
                a.to_json().to_json(),
                b.to_json().to_json(),
                "request {index} must serialize identically across plans"
            );
        }
        let (a, _) = plan_indexed_request(42, 5, users, &recorder);
        let (b, _) = plan_indexed_request(43, 5, users, &recorder);
        assert_ne!(
            a.to_json().to_json(),
            b.to_json().to_json(),
            "different seeds must alter the stream"
        );
    }

    /// The serve benches' one deployment recipe and one request plan:
    /// equal arguments deploy services that decide bit-identically, and
    /// a closed-loop run sends exactly the categories the indexed plan
    /// assigns to `0..clients × requests`.
    #[test]
    fn one_cohort_deployment_and_one_indexed_plan() {
        let stack = TrainedStack::build(crate::EvalScale::smoke_test()).unwrap();
        let (users, recorder) = (cohort_users(&stack), &stack.recorder);
        let deploy = || deploy_cohort(&stack, 0.5, 0x5e12, BreakerConfig::default()).unwrap();
        let (a, b) = (deploy(), deploy());
        let threshold = |s: &VerifyService| s.system().config().threshold.to_bits();
        assert_eq!(threshold(&a), threshold(&b));
        let config = LoadConfig {
            clients: 3,
            requests_per_client: 5,
            ..LoadConfig::default()
        };
        for index in 0..12 {
            let (request, _) = plan_indexed_request(config.seed, index, users, recorder);
            assert_eq!(
                outcome_signature(&a.handle(&request)),
                outcome_signature(&b.handle(&request)),
                "request {index}"
            );
        }

        let report = run_load(&LoadTarget::InProcess(&a), users, recorder, &config, None);
        let mut planned = [0u64; 3];
        for index in 0..15 {
            planned[plan_indexed_request(config.seed, index, users, recorder).1 as usize] += 1;
        }
        let c = report.counts;
        assert_eq!(c.requests, 15);
        assert_eq!([c.genuine, c.impostor, c.faulty], planned);
    }

    #[test]
    fn outcome_signatures_distinguish_decisions_errors_and_health() {
        let decision = Response::Decision {
            accepted: true,
            distance: 0.25,
            threshold: 0.5,
            degraded: false,
            attempts: 1,
            rejects: Vec::new(),
        };
        let sig = outcome_signature(&decision);
        assert!(sig.starts_with("d:1:0:1:"), "{sig}");
        let error = Response::error("overloaded", "queue full");
        assert_eq!(outcome_signature(&error), "e:overloaded");
        let health = Response::Health {
            health: Value::Object(Vec::new()),
            enrolled: 0,
        };
        assert_eq!(outcome_signature(&health), "h");
    }

    fn fake_overload_doc() -> Value {
        let point = |rate: f64, served: f64, shed: f64| {
            Value::Object(vec![
                ("offered_rate".to_string(), Value::Number(rate)),
                ("achieved_rate".to_string(), Value::Number(rate)),
                ("wall_seconds".to_string(), Value::Number(1.0)),
                ("total".to_string(), Value::Number(served + shed)),
                ("served".to_string(), Value::Number(served)),
                (
                    "shed".to_string(),
                    Value::Object(vec![
                        ("overloaded".to_string(), Value::Number(shed)),
                        ("deadline".to_string(), Value::Number(0.0)),
                        ("shutting_down".to_string(), Value::Number(0.0)),
                    ]),
                ),
                ("transport_errors".to_string(), Value::Number(0.0)),
                ("goodput".to_string(), Value::Number(served)),
                (
                    "latency_seconds".to_string(),
                    Value::Object(vec![
                        ("p50".to_string(), Value::Number(0.002)),
                        ("p99".to_string(), Value::Number(0.008)),
                        ("mean".to_string(), Value::Number(0.003)),
                        ("max".to_string(), Value::Number(0.02)),
                    ]),
                ),
            ])
        };
        let mut overload = match point(440.0, 180.0, 260.0) {
            Value::Object(fields) => fields,
            _ => unreachable!(),
        };
        overload.push(("saturation_ratio".to_string(), Value::Number(2.2)));
        overload.push(("p99_ratio_vs_unsaturated".to_string(), Value::Number(1.6)));
        overload.push(("parity_checked".to_string(), Value::Number(180.0)));
        overload.push(("parity_mismatches".to_string(), Value::Number(0.0)));
        let metrics = Value::Object(vec![
            (
                "capacity".to_string(),
                Value::Object(vec![
                    ("qps".to_string(), Value::Number(200.0)),
                    ("p99_seconds".to_string(), Value::Number(0.005)),
                ]),
            ),
            ("overload".to_string(), Value::Object(overload)),
            (
                "drill".to_string(),
                Value::Object(vec![
                    ("opened".to_string(), Value::Bool(true)),
                    ("recovered".to_string(), Value::Bool(true)),
                    ("runs_identical".to_string(), Value::Bool(true)),
                ]),
            ),
        ]);
        let detail = Value::Object(vec![(
            "sweep".to_string(),
            Value::Array(vec![point(160.0, 160.0, 0.0), point(440.0, 180.0, 260.0)]),
        )]);
        overload_document("test", &metrics, detail)
    }

    fn patch(doc: &Value, path: &[&str], value: Value) -> Value {
        match doc {
            Value::Object(fields) => Value::Object(
                fields
                    .iter()
                    .map(|(k, v)| {
                        if k == path[0] {
                            if path.len() == 1 {
                                (k.clone(), value.clone())
                            } else {
                                (k.clone(), patch(v, &path[1..], value.clone()))
                            }
                        } else {
                            (k.clone(), v.clone())
                        }
                    })
                    .collect(),
            ),
            other => other.clone(),
        }
    }

    #[test]
    fn overload_document_round_trips_and_validates() {
        let doc = fake_overload_doc();
        let parsed = mandipass_util::json::parse(&doc.to_json()).unwrap();
        check(&parsed).unwrap();
    }

    #[test]
    fn overload_validator_enforces_every_acceptance_gate() {
        let doc = fake_overload_doc();
        let cases: Vec<(&str, Value)> = vec![
            ("overload.saturation_ratio", Value::Number(1.5)),
            ("overload.transport_errors", Value::Number(2.0)),
            ("overload.p99_ratio_vs_unsaturated", Value::Number(9.0)),
            ("overload.parity_mismatches", Value::Number(1.0)),
            ("overload.shed.overloaded", Value::Number(0.0)),
            ("overload.served", Value::Number(0.0)),
            ("overload.parity_checked", Value::Number(0.0)),
            ("capacity.qps", Value::Number(0.0)),
            ("drill.runs_identical", Value::Bool(false)),
            ("drill.opened", Value::Bool(false)),
            ("drill.recovered", Value::Bool(false)),
        ];
        for (metric, value) in cases {
            let err = check(&with_metric(&doc, metric, value)).unwrap_err();
            assert!(err.contains(metric), "{metric}: {err}");
        }
        let err = check(&patch(
            &doc,
            &["schema"],
            Value::String("mandipass.bench.overload/v9".to_string()),
        ))
        .unwrap_err();
        assert!(err.contains("v9"), "{err}");
    }

    #[test]
    fn overload_comparator_gates_goodput_and_saturated_p99() {
        let baseline = fake_overload_doc();
        compare(&baseline, &baseline).unwrap();
        let slow = with_metric(
            &baseline,
            "overload.latency_seconds.p99",
            Value::Number(0.1),
        );
        assert!(compare(&slow, &baseline).unwrap_err().contains("p99"));
        let starved = with_metric(&baseline, "overload.goodput", Value::Number(10.0));
        assert!(compare(&starved, &baseline)
            .unwrap_err()
            .contains("goodput"));
    }

    fn fake_trace_doc() -> Value {
        let stage = |count: f64, p50: f64, p99: f64| {
            Value::Object(vec![
                ("count".to_string(), Value::Number(count)),
                ("p50_nanos".to_string(), Value::Number(p50)),
                ("p99_nanos".to_string(), Value::Number(p99)),
                ("mean_nanos".to_string(), Value::Number(p50)),
                ("max_nanos".to_string(), Value::Number(p99 * 1.2)),
            ])
        };
        let metrics = Value::Object(vec![
            ("requests".to_string(), Value::Number(64.0)),
            ("echoed_ids".to_string(), Value::Number(64.0)),
            (
                "attribution".to_string(),
                Value::Object(vec![
                    ("trace_count".to_string(), Value::Number(66.0)),
                    (
                        "stages".to_string(),
                        Value::Object(vec![
                            ("total".to_string(), stage(66.0, 3.5e7, 4.8e7)),
                            ("queue_wait".to_string(), stage(5.0, 4.0e6, 1.2e7)),
                            ("decode".to_string(), stage(66.0, 8.5e4, 1.7e5)),
                            ("verify".to_string(), stage(66.0, 3.2e7, 4.1e7)),
                            ("write".to_string(), stage(66.0, 3.1e6, 1.3e7)),
                        ]),
                    ),
                ]),
            ),
            (
                "checks".to_string(),
                Value::Object(vec![
                    ("stage_sums_within_total".to_string(), Value::Bool(true)),
                    ("sampling_bit_identical".to_string(), Value::Bool(true)),
                ]),
            ),
        ]);
        trace_document("4 clients x 16 requests", &metrics)
    }

    #[test]
    fn trace_validator_accepts_the_real_shape_and_names_failures() {
        let doc = fake_trace_doc();
        check(&doc).unwrap_or_else(|e| panic!("{e}"));
        let wrong_schema = patch(&doc, &["schema"], Value::String("v9".to_string()));
        assert!(check(&wrong_schema).unwrap_err().contains("v9"));
        let no_traces = with_metric(&doc, "attribution.trace_count", Value::Number(0.0));
        assert!(check(&no_traces).unwrap_err().contains("trace_count"));
        let disordered = with_metric(
            &doc,
            "attribution.stages.verify.p50_nanos",
            Value::Number(9.9e7),
        );
        let err = check(&disordered).unwrap_err();
        assert!(
            err.contains("x attribution.stages.verify.p99_nanos"),
            "{err}"
        );
        let failed_check = with_metric(&doc, "checks.sampling_bit_identical", Value::Bool(false));
        assert!(check(&failed_check)
            .unwrap_err()
            .contains("sampling_bit_identical"));
    }

    #[test]
    fn trace_comparator_gates_verify_p99_and_request_coverage() {
        let baseline = fake_trace_doc();
        compare(&baseline, &baseline).unwrap_or_else(|e| panic!("{e}"));
        let slow = with_metric(
            &baseline,
            "attribution.stages.verify.p99_nanos",
            Value::Number(9.0e7),
        );
        assert!(compare(&slow, &baseline).unwrap_err().contains("verify"));
        let shrunk = with_metric(&baseline, "requests", Value::Number(8.0));
        assert!(compare(&shrunk, &baseline)
            .unwrap_err()
            .contains("requests"));
    }
}
