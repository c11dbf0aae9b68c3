//! Service counters: lock-free atomics (plus one lock for the memo
//! tallies, taken once per batch flight), snapshotted into a
//! [`MetricsResponse`] on `GET /metrics`.

use pmt_api::{CorrectorMetrics, MetricsResponse, WIRE_SCHEMA_VERSION};
use pmt_core::MemoStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Cumulative counters since daemon start. All counters are relaxed —
/// they are monotone telemetry, not synchronization; the coalescing and
/// backpressure decisions use their own synchronized state.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Total HTTP requests handled.
    pub requests: AtomicU64,
    /// `POST /v1/predict` requests handled.
    pub predict_requests: AtomicU64,
    /// `POST /v1/explore` requests handled.
    pub explore_requests: AtomicU64,
    /// Requests answered with any error status.
    pub errors: AtomicU64,
    /// Requests rejected with 429.
    pub rejected_busy: AtomicU64,
    /// Explore requests that joined an identical in-flight computation.
    pub coalesced_requests: AtomicU64,
    /// Predict requests answered from another caller's batch flight.
    pub batched_requests: AtomicU64,
    /// Batch flights evaluated (one `BatchPredictor` pass each).
    pub batch_flights: AtomicU64,
    /// Design points evaluated inside batch flights.
    pub batch_points: AtomicU64,
    /// Requests that ended in a panic-shaped 500 (panicking leaders plus
    /// the riders/followers the panic failed).
    pub failed_requests: AtomicU64,
    /// Requests that led a flight to completion (solo predicts, batch
    /// leaders, explore leaders).
    pub flight_leaders: AtomicU64,
    /// Predict requests currently inside `handle_predict` — the
    /// idle-close signal for the batch window (when every in-flight
    /// predict is already aboard a batch and nothing is queued, waiting
    /// longer cannot grow it).
    pub predict_inflight: AtomicU64,
    /// Cumulative `BatchPredictor` memo tallies across batch flights.
    pub memo: Mutex<MemoStats>,
    /// Requests answered from the response cache.
    pub response_cache_hits: AtomicU64,
    /// Cache lookups whose 64-bit key matched but whose stored request
    /// bytes did not — verified hash collisions, served as misses.
    pub response_cache_collisions: AtomicU64,
    /// Responses currently held by the cache.
    pub response_cache_entries: AtomicU64,
    /// Design points actually predicted.
    pub points_predicted: AtomicU64,
    /// Nanoseconds spent inside sweep/predict computation.
    pub predict_nanos: AtomicU64,
    /// Sweeps executing right now.
    pub inflight_sweeps: AtomicU64,
    /// Connections accepted but not yet picked up by a worker.
    pub queue_depth: AtomicU64,
    /// Predictions the loaded residual corrector adjusted.
    pub corrected_requests: AtomicU64,
    /// Predictions a loaded corrector skipped (uncovered profile).
    pub corrector_skipped: AtomicU64,
}

impl Metrics {
    /// A zeroed counter set.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Add one to a counter.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n` to a counter.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Fold one batch flight's memo snapshot into the cumulative
    /// tallies.
    pub fn absorb_memo_stats(&self, stats: &MemoStats) {
        // Poison-tolerant: a panicking flight must not wedge `/metrics`.
        let mut memo = self.memo.lock().unwrap_or_else(|e| e.into_inner());
        memo.add(stats);
    }

    /// Snapshot into the wire type. `profiles`, `max_inflight_sweeps`,
    /// `worker_threads` and `corrector_loaded` are configuration the
    /// counters don't know.
    pub fn snapshot(
        &self,
        profiles: usize,
        max_inflight_sweeps: u64,
        worker_threads: u64,
        corrector_loaded: bool,
    ) -> MetricsResponse {
        let points = self.points_predicted.load(Ordering::Relaxed);
        let secs = self.predict_nanos.load(Ordering::Relaxed) as f64 / 1e9;
        let batch_flights = self.batch_flights.load(Ordering::Relaxed);
        let batch_points = self.batch_points.load(Ordering::Relaxed);
        MetricsResponse {
            schema_version: WIRE_SCHEMA_VERSION,
            profiles,
            requests: self.requests.load(Ordering::Relaxed),
            predict_requests: self.predict_requests.load(Ordering::Relaxed),
            explore_requests: self.explore_requests.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            rejected_busy: self.rejected_busy.load(Ordering::Relaxed),
            coalesced_requests: self.coalesced_requests.load(Ordering::Relaxed),
            batched_requests: self.batched_requests.load(Ordering::Relaxed),
            batch_flights,
            batch_points,
            batch_mean_size: if batch_flights > 0 {
                batch_points as f64 / batch_flights as f64
            } else {
                0.0
            },
            failed_requests: self.failed_requests.load(Ordering::Relaxed),
            flight_leaders: self.flight_leaders.load(Ordering::Relaxed),
            response_cache_hits: self.response_cache_hits.load(Ordering::Relaxed),
            response_cache_collisions: self.response_cache_collisions.load(Ordering::Relaxed),
            response_cache_entries: self.response_cache_entries.load(Ordering::Relaxed),
            points_predicted: points,
            predict_seconds: secs,
            points_per_s: if secs > 0.0 {
                points as f64 / secs
            } else {
                0.0
            },
            inflight_sweeps: self.inflight_sweeps.load(Ordering::Relaxed),
            max_inflight_sweeps,
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            worker_threads,
            memo: *self.memo.lock().unwrap_or_else(|e| e.into_inner()),
            corrector: CorrectorMetrics {
                loaded: corrector_loaded,
                corrected_requests: self.corrected_requests.load(Ordering::Relaxed),
                skipped_requests: self.corrector_skipped.load(Ordering::Relaxed),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reports_counters_and_derived_rate() {
        let m = Metrics::new();
        Metrics::bump(&m.requests);
        Metrics::bump(&m.requests);
        Metrics::add(&m.points_predicted, 1000);
        Metrics::add(&m.predict_nanos, 500_000_000); // 0.5 s
        let snap = m.snapshot(3, 2, 4, true);
        assert_eq!(snap.schema_version, WIRE_SCHEMA_VERSION);
        assert_eq!(snap.requests, 2);
        assert_eq!(snap.profiles, 3);
        assert_eq!(snap.max_inflight_sweeps, 2);
        assert_eq!(snap.worker_threads, 4);
        assert!(snap.corrector.loaded);
        assert_eq!(snap.corrector.corrected_requests, 0);
        assert!((snap.points_per_s - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn zero_time_means_zero_rate_not_nan() {
        let snap = Metrics::new().snapshot(0, 1, 1, false);
        assert_eq!(snap.points_per_s, 0.0);
        assert_eq!(snap.predict_seconds, 0.0);
        assert!(!snap.corrector.loaded);
    }
}
