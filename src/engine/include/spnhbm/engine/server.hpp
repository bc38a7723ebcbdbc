// Async batching request scheduler over N registered inference engines,
// with self-healing, model-routed dispatch.
//
// Clients submit() independent requests of any sample count against a
// named model; the server
//   * queues them per model (a "lane"), bounded: once queued + in-flight
//     samples reach ServerConfig::max_queue_samples, submit() blocks
//     (backpressure) and try_submit() rejects; every entry point runs
//     through one private enqueue(),
//   * coalesces adjacent same-model requests into engine batches of up to
//     batch_samples — batches never mix models — by the BatchPlanner rule
//     (batch_planner.hpp), whose max_latency flush bounds tail latency,
//   * dispatches batches across the engines currently serving that model,
//     round-robin or by least expected completion time (outstanding work
//     divided by measured throughput, falling back to the engine's
//     nominal claim),
//   * scatters batch results back into per-request futures; a request
//     split across batches — possibly landing on different engines —
//     resolves when its last slice completes.
//
// Multi-model serving: every engine announces the ModelArtifact it hosts
// (InferenceEngine::loaded_model()); registering engines for different
// artifacts makes the server host several models at once, each with its
// own input width, queue lane, stats and telemetry counters. activate()
// hot-swaps one engine onto another artifact: the worker finishes its
// in-flight batches, then runs the engine's own reconfiguration (the FPGA
// simulation charges virtual bitstream + table-staging time and re-checks
// placement) while the rest of the fleet keeps serving. Work queued for a
// model whose last engine leaves resolves with RuntimeApiError.
//
// Self-healing (the fault-tolerance layer over the same machinery):
//   * a failed batch is retried up to RetryPolicy::max_attempts times with
//     capped exponential backoff and deterministic jitter, preferring a
//     *different* engine of the same model on the retry (failover); only
//     when the budget is exhausted does the failure reach the affected
//     request futures — and only those futures (per-slice error tracking),
//   * every engine runs a health state machine healthy -> degraded ->
//     quarantined driven by consecutive failures; a quarantined engine
//     receives no regular traffic but is re-tried with single
//     circuit-breaker probe batches at growing intervals, and one probe
//     success readmits it,
//   * engines register with a priority tier: dispatch uses the best
//     (lowest) tier with a non-quarantined engine of the batch's model,
//     so quarantining every preferred engine degrades gracefully onto the
//     fallback tier,
//   * with ServerConfig::request_timeout set, every request carries a
//     deadline; an expired request resolves its future with
//     DeadlineExceededError (undispatched samples are cancelled, in-flight
//     work completes and is discarded),
//   * when every engine of the addressed model is quarantined and no probe
//     can run yet, submit()/try_submit() fail fast with
//     NoHealthyEngineError instead of queueing work that cannot be served.
//
// Dynamic membership (the spatial-multi-tenancy hook): engines can be
// registered while the server runs — the worker thread spawns on the
// spot and the model's lane opens immediately — and retired again with
// retire_engine(), which drains the engine's in-flight batches and hands
// the engine back (so a fleet can evict the corresponding device tenant).
// Several co-registered engines may live on the *same* physical device in
// different partitions (FpgaSimDevice tenants): each still gets its own
// worker thread, so contention is per-partition, not per-device, exactly
// matching the disjoint-channel hardware model underneath.
//
// Threading model: one dispatcher thread forms batches, re-dispatches
// retries and expires deadlines; one worker thread per engine drives
// submit()/wait()/activate(), so an engine never sees concurrent calls.
// Requests may be queued before start(); they are dispatched as soon as
// the threads run, which also gives tests a deterministic coalescing path
// (queue everything, then start + stop). stop() drains every queued
// request — including pending retries and activations — before joining
// the threads.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "spnhbm/engine/batch_planner.hpp"
#include "spnhbm/engine/engine.hpp"
#include "spnhbm/engine/service.hpp"
#include "spnhbm/telemetry/trace.hpp"
#include "spnhbm/util/rng.hpp"

namespace spnhbm::engine {

/// A request's deadline passed before its results were ready. The samples
/// may still be processed (in-flight work is not interrupted); only the
/// future resolves early.
class DeadlineExceededError : public Error {
 public:
  explicit DeadlineExceededError(const std::string& what)
      : Error("deadline exceeded: " + what) {}
};

/// The request's payload is malformed (a dense payload that is not a
/// whole, positive number of rows). Not retryable.
class InvalidRequestError : public Error {
 public:
  explicit InvalidRequestError(const std::string& what)
      : Error("invalid request: " + what) {}
};

/// The request holds more samples than ServerConfig::max_queue_samples,
/// so it could never be queued. Not retryable: the client must split it.
class RequestTooLargeError : public Error {
 public:
  explicit RequestTooLargeError(const std::string& what)
      : Error("request too large: " + what) {}
};

/// Every engine of the addressed model is quarantined and no
/// circuit-breaker probe is due, so newly submitted work could not be
/// served. Fail-fast signal: the client should back off and retry.
class NoHealthyEngineError : public Error {
 public:
  explicit NoHealthyEngineError(const std::string& what)
      : Error("no healthy engine: " + what) {}
};

enum class DispatchPolicy {
  kRoundRobin,
  /// Least expected completion time: (outstanding + batch) / throughput.
  kLeastLoaded,
};

/// Per-engine health as seen by the dispatcher.
enum class EngineHealth {
  kHealthy,
  /// Recent consecutive failures, still in the dispatch rotation (with an
  /// ETA penalty under kLeastLoaded).
  kDegraded,
  /// Out of the rotation; only periodic probe batches reach it until one
  /// succeeds.
  kQuarantined,
};
std::string to_string(EngineHealth health);

/// Per-batch retry behaviour on engine failure.
struct RetryPolicy {
  /// Total executions per batch (1 = no retry).
  int max_attempts = 3;
  /// Backoff before retry k is base * multiplier^(k-1), capped, then
  /// jittered deterministically into [delay*(1-jitter), delay).
  std::chrono::microseconds backoff_base{100};
  double backoff_multiplier = 2.0;
  std::chrono::microseconds backoff_cap{5000};
  double jitter = 0.25;
  /// Seed of the jitter stream (no wall-clock entropy anywhere).
  std::uint64_t seed = 0x5eed;
};

/// Health state machine thresholds and circuit-breaker probe cadence.
struct HealthPolicy {
  /// Consecutive failures before an engine is marked degraded.
  int degraded_after = 1;
  /// Consecutive failures before an engine is quarantined.
  int quarantine_after = 3;
  /// Delay before the first probe of a quarantined engine; each failed
  /// probe multiplies the interval, up to the cap.
  std::chrono::microseconds probe_interval{5000};
  double probe_backoff_multiplier = 2.0;
  std::chrono::microseconds probe_interval_cap{500000};
};

struct ServerConfig {
  /// Coalescing target per dispatched batch. 0 = the smallest
  /// preferred_batch_samples over the registered engines.
  std::size_t batch_samples = 0;
  /// Backpressure bound on queued + in-flight samples (across all models).
  std::size_t max_queue_samples = 1 << 16;
  /// A partial batch is flushed once its oldest request has waited this
  /// long.
  std::chrono::microseconds max_latency{1000};
  DispatchPolicy policy = DispatchPolicy::kRoundRobin;
  /// Per-request deadline from enqueue to completion; 0 = no deadline.
  std::chrono::microseconds request_timeout{0};
  RetryPolicy retry;
  HealthPolicy health;
};

/// Per-model serving totals (one entry per model id ever served).
struct ModelServingStats {
  std::uint64_t requests = 0;
  std::uint64_t samples = 0;
  std::uint64_t batches = 0;
  std::uint64_t failed_requests = 0;
  /// Effective coalescing target of the model's lane: the tuned per-lane
  /// batch size when its artifact carries a TuningManifest, the
  /// server-wide target otherwise (0 until the lane exists).
  std::size_t batch_samples = 0;
};

struct ServerStats {
  std::uint64_t requests = 0;
  std::uint64_t rejected = 0;
  std::uint64_t batches = 0;
  std::uint64_t samples = 0;
  /// Batches flushed below the coalescing target by the latency deadline.
  std::uint64_t deadline_flushes = 0;
  std::size_t peak_outstanding_samples = 0;
  // --- Self-healing accounting -------------------------------------------
  /// Batch executions that failed and were re-dispatched.
  std::uint64_t batch_retries = 0;
  /// Retries that landed on a different engine than the failed attempt.
  std::uint64_t failovers = 0;
  /// healthy/degraded -> quarantined transitions.
  std::uint64_t quarantines = 0;
  /// Circuit-breaker probe batches sent to quarantined engines.
  std::uint64_t probes = 0;
  /// Quarantined engines readmitted after a successful batch.
  std::uint64_t readmissions = 0;
  /// Requests resolved with DeadlineExceededError.
  std::uint64_t deadline_expirations = 0;
  /// Requests resolved with an engine error after the retry budget (or a
  /// dead model lane).
  std::uint64_t failed_requests = 0;
  // --- Multi-model accounting --------------------------------------------
  /// Completed engine hot-swaps (InferenceServer::activate).
  std::uint64_t activations = 0;
  /// Hot-swaps that failed (e.g. placement); the engine kept its model.
  std::uint64_t failed_activations = 0;
  std::map<std::string, ModelServingStats> per_model;
  /// Wall time a request spends queued before its first slice dispatches.
  telemetry::HistogramSnapshot queue_wait_us;
  /// Wall time from enqueue to the last slice completing (end-to-end).
  telemetry::HistogramSnapshot request_latency_us;
  /// Samples per dispatched batch (the coalescing payoff, as a
  /// distribution; mean_batch_samples() is its mean).
  telemetry::HistogramSnapshot batch_fill_samples;

  /// Average samples per dispatched batch (the coalescing payoff).
  double mean_batch_samples() const {
    return batches > 0 ? static_cast<double>(samples) /
                             static_cast<double>(batches)
                       : 0.0;
  }
  std::string describe() const;
};

class InferenceServer : public InferenceService {
 public:
  explicit InferenceServer(ServerConfig config = {});
  ~InferenceServer() override;

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Registers a backend for the model it has loaded and returns its
  /// stable engine index. All engines must be functional; engines serving
  /// the same model id must agree on input_features. `priority` is the
  /// failover tier: dispatch prefers the lowest tier that still has a
  /// non-quarantined engine of the batch's model (0 = most preferred).
  /// `device` labels the physical device (or device/partition) the engine
  /// lives on, for grouping in stats and fleet bookkeeping. Engines may
  /// be registered while the server is running: the worker thread spawns
  /// immediately and the engine's model lane opens for traffic.
  std::size_t register_engine(std::shared_ptr<InferenceEngine> engine,
                              int priority = 0, std::string device = "");

  /// Removes engine `index` from dispatch, drains its in-flight batches
  /// on its own worker thread, joins the thread and returns the engine
  /// (so the caller can evict its device tenant). Indices stay stable:
  /// the slot remains, marked retired. Queued work of a model whose last
  /// engine retires fails with RuntimeApiError (same as hot-swapping the
  /// last engine away). Throws RuntimeApiError for a bad index, an
  /// already-retired engine, or one with a pending activation.
  /// Control-plane calls (register_engine/retire_engine/activate/stop)
  /// must be serialised by the caller; the data plane (submit/try_submit/
  /// stats) may run concurrently with them.
  std::shared_ptr<InferenceEngine> retire_engine(std::size_t index);

  /// Registered engine slots, including retired ones (indices are stable
  /// across retire_engine).
  std::size_t engine_count() const { return workers_.size(); }
  /// True when engine `index` has been retired. Throws RuntimeApiError
  /// when `index` is out of range.
  bool engine_retired(std::size_t index) const;
  /// Device label given at registration ("" when none). Throws
  /// RuntimeApiError when `index` is out of range.
  std::string engine_device(std::size_t index) const;
  /// Throws RuntimeApiError when `index` is out of range.
  const InferenceEngine& engine(std::size_t index) const;
  /// Samples dispatched to engine `index` so far (retries re-count).
  /// Throws RuntimeApiError when `index` is out of range.
  std::uint64_t dispatched_samples(std::size_t index) const;
  /// Current health of engine `index`. Throws RuntimeApiError when
  /// `index` is out of range.
  EngineHealth engine_health(std::size_t index) const;
  /// Model id engine `index` currently serves (or is activating towards).
  /// Throws RuntimeApiError when `index` is out of range.
  std::string engine_model(std::size_t index) const;

  void start();
  /// Drains every queued request — retrying/failing over as configured —
  /// then stops all threads. Idempotent; the destructor calls it.
  void stop();

  // Every submit throws InvalidRequestError for a dense payload that is
  // not whole rows, RequestTooLargeError for a request larger than
  // the whole queue bound, NoHealthyEngineError while every engine of the
  // model is quarantined, and RuntimeApiError before any engine is
  // registered, after stop() and for unknown or ambiguous models.

  /// Blocking submit against the server's sole model: applies backpressure
  /// by waiting for queue space. `samples` is rows of the model's
  /// input_features bytes; the future resolves to one probability per row
  /// (or rethrows the engine's failure / a deadline error). Throws
  /// RuntimeApiError unless exactly one model lane is open (use the model
  /// overload).
  std::future<std::vector<double>> submit(std::vector<std::uint8_t> samples);

  /// Blocking submit against a named model ("name@version", bare name when
  /// unambiguous).
  std::future<std::vector<double>> submit(const std::string& model,
                                          std::vector<std::uint8_t> samples);

  /// Non-blocking submits: return std::nullopt when the queue bound would
  /// be exceeded.
  std::optional<std::future<std::vector<double>>> try_submit(
      const std::string& model, std::vector<std::uint8_t> samples) override;
  /// Trace-carrying variant: the context is attached to the pending
  /// request, stamped on its lane-queue/batch spans and published to the
  /// engine thread while the batch executes.
  std::optional<std::future<std::vector<double>>> try_submit(
      const std::string& model, std::vector<std::uint8_t> samples,
      const telemetry::TraceContext& trace) override;
  /// Non-blocking sparse submit: `stream` is the CSR evidence stream for
  /// `sample_count` samples. The stream is validated at this front door
  /// (a malformed one throws ParseError here, never inside an engine
  /// where it would read as an engine fault and trip the health
  /// machinery). By the BatchPlanner rule a sparse request dispatches
  /// alone and whole, as soon as it reaches the head of its lane.
  std::optional<std::future<std::vector<double>>> try_submit_sparse(
      const std::string& model, std::vector<std::uint8_t> stream,
      std::size_t sample_count,
      const telemetry::TraceContext& trace = {}) override;

  /// Per-engine health lines for the admin plane.
  std::string health_text() const override;

  /// Hot-swaps engine `index` onto `next`: the worker finishes its queued
  /// batches, then runs InferenceEngine::activate on its own thread (an
  /// FPGA engine charges simulated reconfiguration time there). Requests
  /// for the incoming model may be submitted immediately — they queue in
  /// its lane until the swap completes. The returned future resolves when
  /// the swap finished, or carries the engine's error (the old model then
  /// keeps serving). Throws RuntimeApiError for a bad index, a null
  /// handle, a swap already pending on the engine, or a server that is
  /// not running.
  std::future<void> activate(std::size_t index, ModelHandle next);

  /// Model ids currently served (including activation targets), sorted.
  std::vector<std::string> served_models() const override;

  /// Queued + in-flight samples (the backpressure quantity).
  std::size_t outstanding_samples() const override;
  /// Input width of a named model; throws RuntimeApiError when unknown.
  std::size_t input_features(const std::string& model) const override;
  ServerStats stats() const;

 private:
  static constexpr std::size_t kNoWorker = static_cast<std::size_t>(-1);
  using Planner = BatchPlanner<std::chrono::steady_clock::time_point>;

  struct PendingRequest {
    std::string model;  ///< lane id ("name@version" + query-kind suffix)
    /// Dense: rows of input_features bytes. Sparse: the CSR evidence
    /// stream (count then carries the explicit sample count).
    std::vector<std::uint8_t> samples;
    std::vector<double> results;
    std::promise<std::vector<double>> promise;
    std::chrono::steady_clock::time_point enqueue_time;
    std::chrono::steady_clock::time_point deadline;  ///< if request_timeout
    std::size_t count = 0;      ///< total samples in the request
    std::size_t cursor = 0;     ///< next sample to dispatch
    std::size_t remaining = 0;  ///< samples not yet completed
    /// Promise resolved (completion or deadline); nothing more may touch it.
    bool settled = false;
    /// Set only when a slice's batch fails permanently (satellite of the
    /// retry design: transient failures never reach the request).
    std::exception_ptr error;
    /// Distributed-tracing context; invalid (trace_id 0) when untraced.
    telemetry::TraceContext trace;
    /// samples holds a CSR evidence stream; the request dispatches as one
    /// indivisible batch (cursor jumps 0 -> count) that takes the stream.
    bool sparse = false;
  };

  struct BatchSlice {
    std::shared_ptr<PendingRequest> request;
    std::size_t request_offset = 0;
    std::size_t batch_offset = 0;
    std::size_t count = 0;
  };

  struct Batch {
    std::string model;  ///< lane id; batches never mix models
    std::vector<std::uint8_t> samples;
    std::vector<double> results;
    std::vector<BatchSlice> slices;
    std::size_t sample_count = 0;
    /// Completed (failed) executions so far.
    int attempts = 0;
    /// Engine of the last failed attempt, avoided on retry when possible.
    std::size_t last_worker = kNoWorker;
    /// Earliest re-dispatch time (backoff) for a batch in retry_queue_.
    std::chrono::steady_clock::time_point not_before;
    /// Context of the first traced request in the batch (a batch-level
    /// representative: the batch span and the engine's virtual-time
    /// spans join that request's flow chain).
    telemetry::TraceContext trace;
    /// samples holds a CSR evidence stream; the worker dispatches it via
    /// InferenceEngine::submit_sparse.
    bool sparse = false;
  };

  /// Per-model request queue + accounting (one lane per served model id).
  struct ModelLane {
    std::deque<std::shared_ptr<PendingRequest>> queue;
    std::size_t queued_samples = 0;
    std::size_t input_features = 0;
    /// Per-lane overrides from the model's TuningManifest; 0 means "use
    /// the server-wide ServerConfig value". Set when an engine whose
    /// artifact carries tuning registers (or activates) into the lane.
    std::size_t batch_samples = 0;
    std::chrono::microseconds max_latency{0};
    std::shared_ptr<telemetry::Counter> ctr_requests;
    std::shared_ptr<telemetry::Counter> ctr_samples;
    std::shared_ptr<telemetry::Counter> ctr_batches;
  };

  struct Worker {
    std::shared_ptr<InferenceEngine> engine;
    std::thread thread;
    std::deque<Batch> queue;
    std::condition_variable cv;
    std::size_t index = 0;
    int priority = 0;
    /// Device (or device/partition) label for fleet bookkeeping.
    std::string device;
    /// retire_engine was called: the dispatcher hands the worker no new
    /// batches; the worker drains its queue and exits.
    bool retiring = false;
    /// The worker exited and its engine was handed back; the slot stays
    /// to keep indices stable.
    bool retired = false;
    /// Lane id of the engine's loaded model (updated on activation).
    std::string model_id;
    /// Requested hot-swap target; the worker runs it once its queue
    /// drains. While set, the dispatcher hands the worker no new batches.
    ModelHandle pending_activation;
    std::shared_ptr<std::promise<void>> activation_promise;
    /// Dispatch accounting, guarded by the server mutex (the worker is the
    /// only thread that calls into the engine itself).
    std::size_t outstanding_samples = 0;
    std::uint64_t dispatched_samples = 0;
    std::uint64_t completed_samples = 0;
    double busy_seconds = 0.0;
    double nominal_throughput = 0.0;
    // --- Health state machine (guarded by the server mutex) --------------
    EngineHealth health = EngineHealth::kHealthy;
    int consecutive_failures = 0;
    std::chrono::steady_clock::time_point quarantined_until;
    std::chrono::microseconds probe_interval{0};
    bool probe_in_flight = false;
    telemetry::TrackId track = 0;
  };

  /// Opens (or returns) the lane for `model`. When `artifact` carries a
  /// tuning manifest, its batch target and flush deadline become the
  /// lane's per-model overrides.
  ModelLane& ensure_lane_locked(const std::string& model,
                                std::size_t input_features,
                                const ModelHandle& artifact);
  /// Effective coalescing target / flush deadline of a lane (its tuned
  /// override, falling back to the server-wide configuration).
  std::size_t lane_batch_locked(const ModelLane& lane) const {
    return lane.batch_samples > 0 ? lane.batch_samples : batch_samples_;
  }
  Planner planner_locked(const ModelLane& lane) const {
    return Planner(lane_batch_locked(lane), lane.max_latency.count() > 0
                                                ? lane.max_latency
                                                : config_.max_latency);
  }
  /// The planner's view of a non-empty lane.
  Planner::Lane plan_view_locked(const ModelLane& lane) const {
    const PendingRequest& head = *lane.queue.front();
    return {lane.queued_samples, head.enqueue_time, head.sparse, stopping_};
  }
  /// Resolves a model reference (lane id or unambiguous bare name) to a
  /// lane id; throws RuntimeApiError for unknown/ambiguous references.
  std::string resolve_model_locked(const std::string& ref) const;
  /// The id of the only lane; throws RuntimeApiError unless exactly one
  /// lane is open.
  std::string default_model_locked() const;
  /// Worker slot `index`; throws RuntimeApiError when out of range.
  Worker& worker_at_locked(std::size_t index) const;
  /// True when a worker serves `model` or is activating towards it.
  bool lane_served_locked(const std::string& model) const;
  /// The one submit path. `model_ref` null addresses the sole model.
  /// `sparse_samples` set marks `payload` as a CSR stream covering that
  /// many samples (unset = dense rows). `block` waits for queue space;
  /// otherwise a full queue returns std::nullopt.
  std::optional<std::future<std::vector<double>>> enqueue(
      const std::string* model_ref, std::vector<std::uint8_t> payload,
      std::optional<std::size_t> sparse_samples,
      const telemetry::TraceContext& trace, bool block);
  /// Throws NoHealthyEngineError if a started server cannot serve new work
  /// for `model`; RuntimeApiError when no engine hosts it at all.
  void require_admissible_locked(const std::string& model) const;
  /// Takes `plan` (from the lane's planner) off the lane: copies dense
  /// rows, moves a sparse stream, stamps queue waits and books the batch.
  Batch form_batch_locked(const std::string& model, ModelLane& lane,
                          const BatchPlan& plan);
  /// The engine for a batch of `samples` samples of `model` (a due probe
  /// first, then the policy over the best tier, avoiding engine `avoid`
  /// when another is eligible), or kNoWorker when none is eligible.
  std::size_t pick_engine_locked(const std::string& model, std::size_t samples,
                                 std::size_t avoid);
  void dispatch_batch_locked(Batch& batch, std::size_t target);
  void complete_slice_locked(const BatchSlice& slice);
  void expire_request_locked(PendingRequest& request);
  void finish_batch_locked(const Batch& batch);
  /// Permanently fails every slice of the batch with `error`.
  void fail_batch_locked(Batch& batch, const std::exception_ptr& error);
  /// Fails queued work of models no engine serves any more and removes
  /// their lanes.
  void drain_dead_lanes_locked();
  void note_worker_success_locked(Worker& worker);
  void note_worker_failure_locked(Worker& worker);
  std::chrono::steady_clock::time_point retry_time_locked(int attempts);
  /// Runs the engine's activate() off-lock on the worker thread.
  void perform_activation(std::unique_lock<std::mutex>& lock, Worker& worker);
  /// Registers the worker's telemetry track and starts its thread.
  void spawn_worker_locked(Worker& worker);
  /// True when the worker takes part in dispatch (not retiring/retired).
  static bool worker_active(const Worker& worker) {
    return !worker.retiring && !worker.retired;
  }
  void dispatcher_loop();
  void worker_loop(Worker& worker);

  ServerConfig config_;
  mutable std::mutex mutex_;
  std::condition_variable cv_dispatch_;
  std::condition_variable cv_space_;
  /// Signalled by a worker the moment it finishes retiring.
  std::condition_variable cv_retire_;
  std::vector<std::unique_ptr<Worker>> workers_;
  /// Per-model request lanes, keyed by lane id ("name@version" plus the
  /// query-kind suffix of the engines' loaded module, see lane_id_for).
  std::map<std::string, ModelLane> lanes_;
  /// Failed batches awaiting their backoff before re-dispatch.
  std::deque<Batch> retry_queue_;
  /// Deadline watchlist, in expiry order (one config-wide timeout + FIFO
  /// enqueue means front() always expires first).
  std::deque<std::shared_ptr<PendingRequest>> live_requests_;
  std::thread dispatcher_;
  ServerStats stats_;
  Rng jitter_rng_;
  /// Owned latency histograms; also published into the global registry via
  /// attach_histogram, so --metrics-out always shows the live server.
  std::shared_ptr<telemetry::Histogram> queue_wait_us_;
  std::shared_ptr<telemetry::Histogram> request_latency_us_;
  std::shared_ptr<telemetry::Histogram> batch_fill_samples_;
  std::shared_ptr<telemetry::Counter> ctr_requests_;
  std::shared_ptr<telemetry::Counter> ctr_rejected_;
  std::shared_ptr<telemetry::Counter> ctr_batches_;
  std::shared_ptr<telemetry::Counter> ctr_samples_;
  std::shared_ptr<telemetry::Counter> ctr_deadline_flushes_;
  std::shared_ptr<telemetry::Counter> ctr_batch_retries_;
  std::shared_ptr<telemetry::Counter> ctr_failovers_;
  std::shared_ptr<telemetry::Counter> ctr_quarantines_;
  std::shared_ptr<telemetry::Counter> ctr_probes_;
  std::shared_ptr<telemetry::Counter> ctr_readmissions_;
  std::shared_ptr<telemetry::Counter> ctr_deadline_expirations_;
  std::shared_ptr<telemetry::Counter> ctr_failed_requests_;
  std::shared_ptr<telemetry::Counter> ctr_activations_;
  std::shared_ptr<telemetry::Counter> ctr_failed_activations_;
  telemetry::TrackId dispatcher_track_ = 0;
  std::size_t batch_samples_ = 0;
  std::size_t outstanding_samples_ = 0;
  /// Batches formed but not yet permanently finished (in a worker queue,
  /// executing, or awaiting retry). stop() drains until this reaches 0.
  std::size_t pending_batches_ = 0;
  std::size_t round_robin_next_ = 0;
  bool started_ = false;
  bool stopping_ = false;
  bool workers_stopping_ = false;
  bool stopped_ = false;
};

}  // namespace spnhbm::engine
