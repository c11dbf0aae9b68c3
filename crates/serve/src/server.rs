//! The daemon: accept loop, worker pool, routing, coalescing,
//! backpressure.
//!
//! # Concurrency shape
//!
//! One acceptor thread pushes connections onto an mpsc channel; `threads`
//! workers pull and serve them (one request per connection). Heavy work
//! — an explore sweep — passes three gates, in order:
//!
//! 1. **Response cache**: a bounded FIFO of completed responses keyed by
//!    (profile content, canonical request JSON). A warm repeat performs
//!    zero new predictions.
//! 2. **Coalescing**: concurrent identical requests share one
//!    computation. The first becomes the *leader*; the rest block on the
//!    flight's condvar and receive a clone of the leader's response.
//! 3. **Backpressure**: leaders take an in-flight sweep slot
//!    (compare-and-swap on an atomic); at capacity the request is
//!    rejected with 429 + `Retry-After` rather than queued without
//!    bound.
//!
//! So for N concurrent identical explore requests:
//! `cache_hits + coalesced + computed + rejected_busy == N`, and the
//! space is swept at most once — the invariant the serve-smoke CI job
//! asserts via `/metrics`.

use crate::engine;
use crate::http::{read_request, Request, Response};
use crate::metrics::Metrics;
use crate::registry::Registry;
use crate::scheduler::{self, BatchQueues};
use pmt_api::{
    fnv1a, ApiError, ExploreRequest, HealthResponse, PredictRequest, ProfilesResponse,
    RegisterProfileRequest, WIRE_SCHEMA_VERSION,
};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Daemon configuration. The defaults serve a workstation: a handful of
/// workers, two concurrent sweeps, space sizes up to a few million
/// points.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address (`127.0.0.1:7071`; port 0 picks a free port).
    pub addr: String,
    /// Worker threads serving requests.
    pub threads: usize,
    /// Concurrent explore sweeps admitted before 429.
    pub max_inflight_sweeps: usize,
    /// Largest admitted design space (points); larger requests get 413.
    pub max_space_points: usize,
    /// `Retry-After` seconds on 429.
    pub retry_after_s: u32,
    /// Largest accepted request body (registered profiles dominate).
    pub max_body_bytes: usize,
    /// Completed responses kept for the warm-repeat fast path.
    pub response_cache_entries: usize,
    /// Most profiles the registry admits (bounds the deliberate leak).
    pub max_profiles: usize,
    /// Micro-batching collection window for `/v1/predict`, in
    /// milliseconds. Concurrent predicts against the same profile that
    /// arrive within one window share one `BatchPredictor` flight; the
    /// window closes early when the batch is full or the daemon is
    /// otherwise idle, so a solo request pays no added latency. `0`
    /// disables batching (every predict is its own flight).
    pub batch_window_ms: u64,
    /// Most design points admitted into one batch flight.
    pub batch_max_points: usize,
    /// Learned residual corrector loaded at boot (`pmt serve
    /// --corrector`). Predictions against profiles the corrector covers
    /// gain the additive `corrected_*` wire fields; everything else —
    /// including every analytical field — is untouched.
    pub corrector: Option<Arc<pmt_api::ResidualModel>>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:7071".to_string(),
            threads: 4,
            max_inflight_sweeps: 2,
            max_space_points: 4_000_000,
            retry_after_s: 2,
            max_body_bytes: 64 * 1024 * 1024,
            response_cache_entries: 64,
            max_profiles: 64,
            batch_window_ms: 5,
            batch_max_points: 64,
            corrector: None,
        }
    }
}

/// One in-flight explore computation that identical concurrent requests
/// coalesce onto.
struct Flight {
    done: Mutex<Option<Response>>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Flight {
        Flight {
            done: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn complete(&self, response: Response) {
        // Poison-tolerant: this also runs from `FlightGuard::drop` during
        // an unwind, where a second panic would abort the process.
        if let Ok(mut done) = self.done.lock() {
            *done = Some(response);
        }
        self.cv.notify_all();
    }

    fn wait(&self) -> Response {
        let mut done = self.done.lock().expect("flight lock");
        loop {
            if let Some(r) = done.as_ref() {
                return r.clone();
            }
            done = self.cv.wait(done).expect("flight lock");
        }
    }
}

/// One response-cache lookup outcome. A `Collision` is a lookup whose
/// 64-bit key matched an entry but whose stored identity bytes did not —
/// without the verification it would have served another request's
/// response.
enum CacheLookup {
    Hit(Response),
    Miss,
    Collision,
}

/// Bounded FIFO of completed responses. Entries store the full request
/// identity alongside the response, and [`get`](ResponseCache::get)
/// verifies it: the 64-bit FNV key alone is an index, not proof of
/// equality.
struct ResponseCache {
    capacity: usize,
    order: VecDeque<u64>,
    by_key: HashMap<u64, (String, Response)>,
}

impl ResponseCache {
    fn new(capacity: usize) -> ResponseCache {
        ResponseCache {
            capacity,
            order: VecDeque::new(),
            by_key: HashMap::new(),
        }
    }

    fn get(&self, key: u64, identity: &str) -> CacheLookup {
        match self.by_key.get(&key) {
            Some((stored, response)) if stored == identity => CacheLookup::Hit(response.clone()),
            Some(_) => CacheLookup::Collision,
            None => CacheLookup::Miss,
        }
    }

    fn insert(&mut self, key: u64, identity: &str, response: Response) {
        // A colliding key keeps its first occupant; the colliding
        // request is simply never cached (and counted on lookup).
        if self.capacity == 0 || self.by_key.contains_key(&key) {
            return;
        }
        if self.order.len() >= self.capacity {
            if let Some(evicted) = self.order.pop_front() {
                self.by_key.remove(&evicted);
            }
        }
        self.order.push_back(key);
        self.by_key.insert(key, (identity.to_string(), response));
    }

    fn len(&self) -> usize {
        self.by_key.len()
    }
}

/// State shared by every worker. Flights are keyed by the full request
/// identity string, not its 64-bit hash — two distinct requests must
/// never coalesce onto one computation. (Batch queues are keyed by the
/// profile content hash instead: *distinct* requests do share a batch
/// flight, each keeping its own demuxed response.)
pub(crate) struct Shared {
    pub(crate) config: ServeConfig,
    pub(crate) registry: Arc<Registry>,
    pub(crate) metrics: Metrics,
    flights: Mutex<HashMap<String, Arc<Flight>>>,
    pub(crate) batches: BatchQueues,
    cache: Mutex<ResponseCache>,
}

impl Shared {
    pub(crate) fn new(config: ServeConfig, registry: Arc<Registry>) -> Shared {
        Shared {
            cache: Mutex::new(ResponseCache::new(config.response_cache_entries)),
            config,
            registry,
            metrics: Metrics::new(),
            flights: Mutex::new(HashMap::new()),
            batches: BatchQueues::new(),
        }
    }
}

/// A running daemon. Dropping it stops and joins the threads.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    stop: Arc<AtomicBool>,
    handles: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the acceptor and worker pool, and return immediately.
    pub fn start(config: ServeConfig, registry: Arc<Registry>) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared::new(config, registry));
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));

        let mut handles = Vec::new();
        for _ in 0..shared.config.threads.max(1) {
            let shared = Arc::clone(&shared);
            let rx = Arc::clone(&rx);
            handles.push(std::thread::spawn(move || worker_loop(&shared, &rx)));
        }
        {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    if let Ok(stream) = stream {
                        Metrics::bump(&shared.metrics.queue_depth);
                        if tx.send(stream).is_err() {
                            break;
                        }
                    }
                }
                // Dropping `tx` here shuts the workers down.
            }));
        }
        Ok(Server {
            addr,
            shared,
            stop,
            handles,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Counters (for in-process callers; HTTP clients use `/metrics`).
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// Ask the daemon to stop and join every thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    /// A handle another thread (e.g. a signal watcher) can use to begin
    /// a graceful drain while this thread blocks in [`join`](Self::join).
    pub fn stop_handle(&self) -> StopHandle {
        StopHandle {
            stop: Arc::clone(&self.stop),
            addr: self.addr,
        }
    }

    /// Block until the daemon is stopped from another thread.
    pub fn join(mut self) {
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the acceptor with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.handles.is_empty() {
            self.shutdown();
        }
    }
}

/// Requests a graceful drain of a running [`Server`] from another
/// thread: the acceptor stops taking new connections, every connection
/// already accepted — including in-flight batch flights and coalesced
/// sweeps — is served to completion, then the workers exit and
/// [`Server::join`] returns. This is what `pmt serve` triggers on
/// SIGTERM/SIGINT.
#[derive(Clone, Debug)]
pub struct StopHandle {
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl StopHandle {
    /// Begin the drain (idempotent; returns immediately).
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the acceptor with a throwaway connection; it checks
        // the stop flag before dispatching whatever it accepts next.
        let _ = TcpStream::connect(self.addr);
    }
}

/// Serve connections until the channel closes.
fn worker_loop(shared: &Shared, rx: &Mutex<mpsc::Receiver<TcpStream>>) {
    loop {
        let stream = match rx.lock().expect("worker queue lock").recv() {
            Ok(s) => s,
            Err(_) => return,
        };
        shared.metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
        serve_connection(shared, stream);
    }
}

/// One request, one response, close — unless the predict handler handed
/// the connection off to a batch flight, in which case the flight's
/// leader writes the response and this worker writes nothing.
fn serve_connection(shared: &Shared, stream: TcpStream) {
    Metrics::bump(&shared.metrics.requests);
    let mut stream = Some(stream);
    let response = match read_request(
        stream.as_mut().expect("connection"),
        shared.config.max_body_bytes,
    ) {
        // Contain panics here so one poisoned request answers a
        // structured 500 instead of killing the worker thread.
        Ok(request) => std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handle(shared, &request, &mut stream)
        }))
        .unwrap_or_else(|_| Response::error(&ApiError::internal("request handling panicked"))),
        Err(e) => Response::error(&e),
    };
    // Handed off: the response (and its error accounting) belongs to
    // the batch leader now.
    let Some(mut stream) = stream else { return };
    if response.is_error() {
        Metrics::bump(&shared.metrics.errors);
    }
    let _ = response.write_to(&mut stream);
}

/// Route one parsed request. `stream` is the caller's connection; the
/// predict handler may move it into a batch flight (see
/// [`scheduler::submit`]), after which the returned response is a
/// placeholder that is never written.
fn handle(shared: &Shared, request: &Request, stream: &mut Option<TcpStream>) -> Response {
    let method = request.method.as_str();
    let target = request.target.split('?').next().unwrap_or("");
    match (method, target) {
        ("GET", "/healthz") => json_200(&HealthResponse {
            schema_version: WIRE_SCHEMA_VERSION,
            status: "ok".to_string(),
            profiles: shared.registry.len(),
        }),
        ("GET", "/metrics") => {
            let snap = shared.metrics.snapshot(
                shared.registry.len(),
                shared.config.max_inflight_sweeps as u64,
                shared.config.threads as u64,
                shared.config.corrector.is_some(),
            );
            json_200(&snap)
        }
        ("GET", "/v1/profiles") => json_200(&ProfilesResponse {
            schema_version: WIRE_SCHEMA_VERSION,
            profiles: shared.registry.list(),
        }),
        ("POST", "/v1/profiles") => or_error(handle_register(shared, request)),
        ("POST", "/v1/predict") => {
            Metrics::bump(&shared.metrics.predict_requests);
            or_error(handle_predict(shared, request, stream))
        }
        ("POST", "/v1/explore") => {
            Metrics::bump(&shared.metrics.explore_requests);
            or_error(handle_explore(shared, request))
        }
        (_, "/healthz" | "/metrics" | "/v1/profiles" | "/v1/predict" | "/v1/explore") => {
            Response::error(&ApiError::new(
                405,
                "method_not_allowed",
                format!("{method} is not supported on {target}"),
            ))
        }
        _ => Response::error(&ApiError::not_found(
            "unknown_endpoint",
            format!("no endpoint at {target}"),
        )),
    }
}

pub(crate) fn json_200<T: serde::Serialize>(value: &T) -> Response {
    Response::json(serde_json::to_string(value).expect("wire types serialize"))
}

/// Assemble one predict response through the engine, overlay the
/// daemon's corrector (when one is loaded), and keep the corrector
/// counters honest. Both the solo predict path and every batch lane
/// answer through this one function, so a corrected batched response is
/// byte-identical to the corrected solo response.
pub(crate) fn predict_json(
    shared: &Shared,
    profile: &crate::registry::RegisteredProfile,
    machine: &pmt_uarch::MachineConfig,
    summary: &pmt_core::PredictionSummary,
) -> Response {
    let mut response = engine::summary_response(&profile.name, machine, summary);
    if shared.config.corrector.is_some() {
        // The registry's content hash is the profile fingerprint's
        // pre-hex form, so no per-request re-serialization happens here.
        let fingerprint = format!("{:016x}", profile.content_hash);
        let applied = engine::apply_corrector(
            &mut response,
            shared.config.corrector.as_deref(),
            &fingerprint,
            machine,
            profile.prepared.profile(),
        );
        Metrics::bump(if applied {
            &shared.metrics.corrected_requests
        } else {
            &shared.metrics.corrector_skipped
        });
    }
    json_200(&response)
}

fn or_error(result: Result<Response, ApiError>) -> Response {
    result.unwrap_or_else(|e| Response::error(&e))
}

fn parse_body<T: serde::Deserialize>(request: &Request) -> Result<T, ApiError> {
    let body = request.body_utf8()?;
    serde_json::from_str(body)
        .map_err(|e| ApiError::bad_request("bad_json", format!("parsing request body: {e}")))
}

fn handle_register(shared: &Shared, request: &Request) -> Result<Response, ApiError> {
    let req: RegisterProfileRequest = parse_body(request)?;
    req.check_version()?;
    let response = shared.registry.register(req.profile)?;
    Ok(json_200(&response))
}

/// Decrements a gauge on scope exit — including unwind.
struct GaugeGuard<'a> {
    gauge: &'a std::sync::atomic::AtomicU64,
}

impl<'a> GaugeGuard<'a> {
    fn hold(gauge: &'a std::sync::atomic::AtomicU64) -> GaugeGuard<'a> {
        gauge.fetch_add(1, Ordering::Relaxed);
        GaugeGuard { gauge }
    }
}

impl Drop for GaugeGuard<'_> {
    fn drop(&mut self) {
        self.gauge.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Counts a computing request under `failed_requests` if its evaluation
/// unwinds before [`complete`](SoloFlight::complete) disarms it — the
/// `failed` term of the metrics partition invariant, for flights with no
/// riders to publish to (solo predicts).
struct SoloFlight<'a> {
    metrics: &'a Metrics,
    completed: bool,
}

impl<'a> SoloFlight<'a> {
    fn start(metrics: &'a Metrics) -> SoloFlight<'a> {
        SoloFlight {
            metrics,
            completed: false,
        }
    }

    fn complete(mut self) {
        self.completed = true;
        Metrics::bump(&self.metrics.flight_leaders);
    }
}

impl Drop for SoloFlight<'_> {
    fn drop(&mut self) {
        if !self.completed {
            Metrics::bump(&self.metrics.failed_requests);
        }
    }
}

fn handle_predict(
    shared: &Shared,
    request: &Request,
    stream: &mut Option<TcpStream>,
) -> Result<Response, ApiError> {
    let req: PredictRequest = parse_body(request)?;
    req.check_version()?;
    let profile = shared.registry.get(&req.profile)?;
    // Resolve before admission: machine errors are this caller's 4xx,
    // never a batch-mate's problem.
    let machine = req.machine.resolve()?;
    let (key, identity) = request_identity(profile.content_hash, &req);
    let _inflight = GaugeGuard::hold(&shared.metrics.predict_inflight);
    if let Some(hit) = cache_lookup(shared, key, &identity) {
        return Ok(hit);
    }
    if shared.config.batch_window_ms > 0 {
        return Ok(
            match scheduler::submit(shared, &profile, machine, key, identity, stream) {
                Some(response) => response,
                // Handed off: the batch leader answers this connection;
                // this placeholder is never written (the stream is gone).
                None => Response::json(String::new()),
            },
        );
    }
    // Batching disabled: a solo flight through the same assembly path.
    let flight = SoloFlight::start(&shared.metrics);
    let started = Instant::now();
    let summary = pmt_core::IntervalModel::new(&machine).predict_summary(&profile.prepared);
    let response = predict_json(shared, &profile, &machine, &summary);
    Metrics::add(&shared.metrics.points_predicted, 1);
    Metrics::add(
        &shared.metrics.predict_nanos,
        started.elapsed().as_nanos() as u64,
    );
    flight.complete();
    cache_insert(shared, key, &identity, &response);
    Ok(response)
}

/// Completes the leader's flight and unregisters it exactly once — with
/// the computed response on the normal path
/// ([`publish`](FlightGuard::publish)), or with a structured 500 from
/// `Drop` if the computation unwinds. Without the unwind arm, followers
/// would block on the condvar forever and the stuck flight key would
/// poison every future identical request.
struct FlightGuard<'a> {
    shared: &'a Shared,
    identity: &'a str,
    flight: &'a Flight,
    completed: bool,
}

impl FlightGuard<'_> {
    fn finish(shared: &Shared, identity: &str, flight: &Flight, response: Response) {
        flight.complete(response);
        // `if let` rather than `.expect`: the drop path runs during
        // unwind, where a second panic would abort the process.
        if let Ok(mut flights) = shared.flights.lock() {
            flights.remove(identity);
        }
    }

    /// Publish the leader's response to the followers (normal path).
    fn publish(mut self, response: Response) {
        self.completed = true;
        Self::finish(self.shared, self.identity, self.flight, response);
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if self.completed {
            return;
        }
        // The panicking leader is the `failed` term's explore case; its
        // followers count themselves when they see the 500.
        Metrics::bump(&self.shared.metrics.failed_requests);
        Self::finish(
            self.shared,
            self.identity,
            self.flight,
            Response::error(&ApiError::internal(
                "explore computation panicked; the in-flight request was aborted",
            )),
        );
    }
}

fn handle_explore(shared: &Shared, request: &Request) -> Result<Response, ApiError> {
    let req: ExploreRequest = parse_body(request)?;
    req.check_version()?;
    let profile = shared.registry.get(&req.profile)?;
    let (key, identity) = request_identity(profile.content_hash, &req);

    // Gate 1: the response cache.
    if let Some(hit) = cache_lookup(shared, key, &identity) {
        return Ok(hit);
    }

    // Gate 2: coalesce onto an identical in-flight computation.
    let (flight, leader) = {
        let mut flights = shared.flights.lock().expect("flights lock");
        match flights.get(&identity) {
            Some(f) => (Arc::clone(f), false),
            None => {
                let f = Arc::new(Flight::new());
                flights.insert(identity.clone(), Arc::clone(&f));
                (f, true)
            }
        }
    };
    if !leader {
        let response = flight.wait();
        // Classify after the wait, not before: a follower whose leader
        // panicked received the guard's 500 and belongs to the `failed`
        // term of the partition invariant, not `coalesced` (sweep errors
        // reach followers as the leader's own 4xx/429, never a 500).
        if response.status == 500 {
            Metrics::bump(&shared.metrics.failed_requests);
        } else {
            Metrics::bump(&shared.metrics.coalesced_requests);
        }
        return Ok(response);
    }

    // Leader: compute (or reject), publish to followers, uncache the
    // flight — via the guard, so a panicking sweep still unblocks its
    // followers and frees the key.
    let guard = FlightGuard {
        shared,
        identity: &identity,
        flight: &flight,
        completed: false,
    };
    let response = leader_compute(shared, &req, &profile.prepared, key, &identity);
    // A 429 was already counted under `rejected_busy`; everything else
    // — including a structured 4xx from the sweep — led the flight.
    if response.status != 429 {
        Metrics::bump(&shared.metrics.flight_leaders);
    }
    guard.publish(response.clone());
    Ok(response)
}

/// Releases an in-flight sweep slot on scope exit — including unwind, so
/// a panicking sweep cannot permanently shrink the admission capacity.
struct SweepSlot<'a> {
    metrics: &'a Metrics,
}

impl Drop for SweepSlot<'_> {
    fn drop(&mut self) {
        self.metrics.inflight_sweeps.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The leader's path: backpressure gate, space-size cap, sweep.
fn leader_compute(
    shared: &Shared,
    req: &ExploreRequest,
    prepared: &pmt_core::PreparedProfile<'static>,
    key: u64,
    identity: &str,
) -> Response {
    // Gate 3: an in-flight sweep slot, or 429.
    if !acquire_sweep_slot(shared) {
        Metrics::bump(&shared.metrics.rejected_busy);
        return Response::error(&ApiError::busy(
            format!(
                "{} sweeps already in flight; retry shortly",
                shared.config.max_inflight_sweeps
            ),
            shared.config.retry_after_s,
        ));
    }
    let _slot = SweepSlot {
        metrics: &shared.metrics,
    };
    let response = match sized_ok(shared, req) {
        Err(e) => Response::error(&e),
        Ok(()) => {
            let started = Instant::now();
            let result = engine::explore_response(prepared, req);
            match result {
                Ok(resp) => {
                    Metrics::add(
                        &shared.metrics.points_predicted,
                        resp.summary.evaluated as u64,
                    );
                    Metrics::add(
                        &shared.metrics.predict_nanos,
                        started.elapsed().as_nanos() as u64,
                    );
                    json_200(&resp)
                }
                Err(e) => Response::error(&e),
            }
        }
    };
    if !response.is_error() {
        cache_insert(shared, key, identity, &response);
    }
    response
}

/// Refuse spaces past the configured point cap (413) before sweeping.
fn sized_ok(shared: &Shared, req: &ExploreRequest) -> Result<(), ApiError> {
    let space = req.space.resolve()?;
    let len = space.len();
    if len > shared.config.max_space_points {
        return Err(ApiError::too_large(
            "space_too_large",
            format!(
                "space has {len} points; this server admits at most {}",
                shared.config.max_space_points
            ),
        ));
    }
    Ok(())
}

/// Take an in-flight sweep slot if one is free (CAS loop).
fn acquire_sweep_slot(shared: &Shared) -> bool {
    let max = shared.config.max_inflight_sweeps as u64;
    let counter = &shared.metrics.inflight_sweeps;
    let mut current = counter.load(Ordering::Relaxed);
    loop {
        if current >= max {
            return false;
        }
        match counter.compare_exchange(current, current + 1, Ordering::AcqRel, Ordering::Relaxed) {
            Ok(_) => return true,
            Err(now) => current = now,
        }
    }
}

/// The cache/coalescing identity: profile content hash plus the
/// canonical re-serialization of the request (so client-side formatting
/// or field order differences cannot split it), and its 64-bit FNV key.
/// The key indexes the maps; only the full identity string proves two
/// requests equal — coalescing compares identities and cache hits are
/// verified against them, so a hash collision can never serve or share
/// the wrong response.
fn request_identity<T: serde::Serialize>(content_hash: u64, req: &T) -> (u64, String) {
    let mut identity = format!("{content_hash:016x}:");
    serde::Serialize::to_json(req, &mut identity);
    (fnv1a(&[&identity]), identity)
}

/// Gate-1 lookup: a verified hit returns the cached response; a verified
/// collision counts toward `response_cache_collisions` and misses.
fn cache_lookup(shared: &Shared, key: u64, identity: &str) -> Option<Response> {
    match shared.cache.lock().expect("cache lock").get(key, identity) {
        CacheLookup::Hit(hit) => {
            Metrics::bump(&shared.metrics.response_cache_hits);
            Some(hit)
        }
        CacheLookup::Collision => {
            Metrics::bump(&shared.metrics.response_cache_collisions);
            None
        }
        CacheLookup::Miss => None,
    }
}

pub(crate) fn cache_insert(shared: &Shared, key: u64, identity: &str, response: &Response) {
    let mut cache = shared.cache.lock().expect("cache lock");
    cache.insert(key, identity, response.clone());
    shared
        .metrics
        .response_cache_entries
        .store(cache.len() as u64, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(lookup: CacheLookup) -> Option<Response> {
        match lookup {
            CacheLookup::Hit(r) => Some(r),
            _ => None,
        }
    }

    #[test]
    fn response_cache_is_bounded_fifo() {
        let mut cache = ResponseCache::new(2);
        cache.insert(1, "one", Response::json("a".into()));
        cache.insert(2, "two", Response::json("b".into()));
        cache.insert(3, "three", Response::json("c".into()));
        assert_eq!(cache.len(), 2);
        assert!(hit(cache.get(1, "one")).is_none(), "oldest evicted");
        assert_eq!(hit(cache.get(2, "two")).unwrap().body, "b");
        assert_eq!(hit(cache.get(3, "three")).unwrap().body, "c");
        // Zero capacity caches nothing.
        let mut none = ResponseCache::new(0);
        none.insert(1, "one", Response::json("a".into()));
        assert_eq!(none.len(), 0);
    }

    #[test]
    fn colliding_keys_are_verified_misses_not_wrong_hits() {
        let mut cache = ResponseCache::new(4);
        cache.insert(7, "request A", Response::json("a".into()));
        // Same 64-bit key, different request bytes: must not serve "a".
        assert!(matches!(cache.get(7, "request B"), CacheLookup::Collision));
        assert!(matches!(cache.get(8, "request B"), CacheLookup::Miss));
        // The first occupant keeps the slot; the collider is never cached.
        cache.insert(7, "request B", Response::json("b".into()));
        assert_eq!(hit(cache.get(7, "request A")).unwrap().body, "a");
        assert!(matches!(cache.get(7, "request B"), CacheLookup::Collision));
    }

    #[test]
    fn flight_delivers_to_waiters() {
        let flight = Arc::new(Flight::new());
        let f2 = Arc::clone(&flight);
        let waiter = std::thread::spawn(move || f2.wait());
        flight.complete(Response::json("done".into()));
        assert_eq!(waiter.join().unwrap().body, "done");
        // Late waiters get the completed response immediately.
        assert_eq!(flight.wait().body, "done");
    }

    #[test]
    fn request_identity_separates_profiles_and_requests() {
        use pmt_api::{MachineSpec, PredictRequest};
        let a = PredictRequest::new("astar", MachineSpec::named("nehalem"));
        let b = PredictRequest::new("astar", MachineSpec::named("low-power"));
        assert_ne!(request_identity(1, &a), request_identity(1, &b));
        assert_ne!(request_identity(1, &a), request_identity(2, &a));
        assert_eq!(request_identity(1, &a), request_identity(1, &a.clone()));
        // The identity embeds the full canonical request, not just a hash.
        let (_, identity) = request_identity(1, &a);
        assert!(identity.contains("nehalem"));
    }
}
