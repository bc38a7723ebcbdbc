#include "spnhbm/rpc/resilient_client.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <future>
#include <utility>

#include "spnhbm/fault/fault.hpp"
#include "spnhbm/util/log.hpp"
#include "spnhbm/util/rng.hpp"
#include "spnhbm/util/strings.hpp"

namespace spnhbm::rpc {

namespace {

std::uint64_t fnv1a(std::uint64_t h, const std::uint8_t* data,
                    std::size_t size) {
  for (std::size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 0x100000001B3ull;
  }
  return h;
}

std::uint64_t fnv1a(const std::string& s) {
  return fnv1a(0xCBF29CE484222325ull,
               reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// RpcClient::fail_outstanding prefixes transport losses with this, which
/// is how a lost-connection INTERNAL_ERROR is told apart from a genuine
/// server-side execution failure.
constexpr const char kTransportPrefix[] = "rpc error: ";

bool is_transport_error(Status status, const std::string& error) {
  return status == Status::kInternalError &&
         error.rfind(kTransportPrefix, 0) == 0;
}

void sleep_us(double us) {
  if (us > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::micro>(us));
  }
}

}  // namespace

const char* to_string(GiveUpReason reason) {
  switch (reason) {
    case GiveUpReason::kNone: return "none";
    case GiveUpReason::kConnectFailed: return "connect-failed";
    case GiveUpReason::kAttemptsExhausted: return "attempts-exhausted";
    case GiveUpReason::kRetryBudgetExpired: return "retry-budget-expired";
    case GiveUpReason::kNonRetryable: return "non-retryable";
    case GiveUpReason::kClientClosed: return "client-closed";
  }
  return "?";
}

ResilientClient::ResilientClient(ResilientClientConfig config)
    : config_(std::move(config)) {
  // Distinct labels land in far-apart key ranges, so concurrent clients
  // against one server cannot collide in its idempotency cache.
  key_base_ = splitmix64(fnv1a(config_.label) ^ config_.seed);
  retry_thread_ = std::thread([this] { retry_loop(); });
}

ResilientClient::~ResilientClient() { close(); }

double ResilientClient::backoff_us(std::uint64_t key, std::uint32_t attempt,
                                   double base, double cap) const {
  const std::uint32_t exponent = attempt > 0 ? attempt - 1 : 0;
  double wait = base * std::pow(config_.backoff_multiplier, exponent);
  wait = std::min(wait, cap);
  // The jitter is a pure function of (seed, key, attempt): identical
  // schedules on every run, independent of thread interleaving.
  Rng jitter_rng =
      Rng(config_.seed).fork(key * 0x9E3779B97F4A7C15ull + attempt);
  const double factor =
      1.0 + config_.jitter * (2.0 * jitter_rng.next_double() - 1.0);
  return std::max(0.0, wait * factor);
}

std::shared_ptr<RpcClient> ResilientClient::dial_with_backoff() {
  std::string last_error = "never dialed";
  const int budget = std::max(1, config_.max_connect_attempts);
  for (int attempt = 1; attempt <= budget; ++attempt) {
    const auto decision =
        fault::injector().decide("rpc.client.connect", config_.label);
    if (decision && decision.kind != fault::FaultKind::kStall &&
        decision.kind != fault::FaultKind::kDelay) {
      last_error = "injected dial failure (rpc.client.connect)";
    } else {
      if (decision) sleep_us(decision.duration_us);
      try {
        return RpcClient::connect(config_.host, config_.port);
      } catch (const ProtocolVersionError&) {
        throw;  // terminal: redialing reaches the same peer
      } catch (const std::exception& e) {
        last_error = e.what();
      }
    }
    if (attempt == budget) break;
    const double wait =
        backoff_us(key_base_, static_cast<std::uint32_t>(attempt),
                   config_.connect_backoff_base_us,
                   config_.connect_backoff_cap_us);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      retry_log_.push_back({0, static_cast<std::uint32_t>(attempt),
                            static_cast<std::uint64_t>(wait)});
    }
    sleep_us(wait);
  }
  throw RpcGiveUpError(
      GiveUpReason::kConnectFailed, Status::kInternalError,
      static_cast<std::uint32_t>(budget),
      strformat("no connection to %s:%u (%s)", config_.host.c_str(),
                static_cast<unsigned>(config_.port), last_error.c_str()));
}

std::shared_ptr<RpcClient> ResilientClient::acquire_client(
    std::unique_lock<std::mutex>& lock) {
  for (;;) {
    if (closed_) throw RpcError("resilient client is closed");
    if (client_ && client_->alive()) return client_;
    if (connecting_) {
      // Another thread is already dialing; wait for its verdict.
      cv_.wait(lock);
      continue;
    }
    connecting_ = true;
    std::shared_ptr<RpcClient> dead = std::move(client_);
    lock.unlock();
    // Joining the dead client's reader thread must happen without the
    // lock: its orphaned requests re-enter through on_response, which
    // takes it. (A sender still holding a reference defers the join to
    // its own scope — never the reader's.)
    dead.reset();
    std::shared_ptr<RpcClient> fresh;
    std::exception_ptr dial_failure;
    try {
      fresh = dial_with_backoff();
    } catch (...) {
      dial_failure = std::current_exception();
    }
    lock.lock();
    connecting_ = false;
    cv_.notify_all();
    if (dial_failure) std::rethrow_exception(dial_failure);
    client_ = std::move(fresh);
    connects_ += 1;
    SPNHBM_INFO("rpc") << config_.label << " connected to " << config_.host
                       << ":" << config_.port << " (connect #" << connects_
                       << ")";
  }
}

void ResilientClient::submit_with_callback(const std::string& model,
                                           std::vector<std::uint8_t> samples,
                                           std::uint64_t deadline_us,
                                           ResilientCallback callback,
                                           const QueryOptions& query) {
  start(model, std::move(samples), deadline_us,
        [callback = std::move(callback)](
            Status status, const std::vector<double>& results,
            const std::string& error, GiveUpReason reason, std::uint32_t) {
          callback(status, results, error, reason);
        },
        query);
}

void ResilientClient::start(const std::string& model,
                            std::vector<std::uint8_t> samples,
                            std::uint64_t deadline_us, FinalCallback callback,
                            const QueryOptions& query) {
  auto request = std::make_shared<Request>();
  request->model = model;
  request->samples = std::move(samples);
  request->deadline_us = deadline_us;
  request->query = query;
  request->callback = std::move(callback);
  // The key folds in the request content (model + query shape + payload)
  // on top of the per-client (label, seed, sequence) stream: two clients
  // that happen to share a label and seed — e.g. two one-shot `infer`
  // processes — must not collide in the server's dedup cache unless they
  // really are retransmitting the same request. Still a pure function of
  // deterministic inputs, so retry schedules reproduce across runs.
  const std::uint8_t query_shape[2] = {query.query_kind, query.encoding};
  std::uint64_t content = fnv1a(fnv1a(request->model), request->samples.data(),
                                request->samples.size());
  content = fnv1a(content, query_shape, sizeof(query_shape));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) throw RpcError("resilient client is closed");
    std::uint64_t key =
        splitmix64(key_base_ ^ splitmix64(next_key_++) ^ content);
    if (key == 0) key = 0x9E3779B97F4A7C15ull;  // 0 means "no key"
    request->key = key;
    outstanding_ += 1;
  }
  request->first_sent = Clock::now();
  send_attempt(std::move(request));
}

std::vector<double> ResilientClient::infer(const std::string& model,
                                           std::vector<std::uint8_t> samples,
                                           std::uint64_t deadline_us,
                                           const QueryOptions& query) {
  // The reader thread hands the outcome over as a value; the give-up
  // error is built here, on the waiting thread.
  struct Outcome : RpcFuture::Outcome {
    GiveUpReason reason = GiveUpReason::kNone;
    std::uint32_t attempts = 0;
  };
  auto promise = std::make_shared<std::promise<Outcome>>();
  std::future<Outcome> future = promise->get_future();
  start(
      model, std::move(samples), deadline_us,
      [promise](Status status, const std::vector<double>& results,
                const std::string& error, GiveUpReason reason,
                std::uint32_t attempts) {
        promise->set_value(Outcome{{status, error, results}, reason, attempts});
      },
      query);
  Outcome outcome = future.get();
  if (outcome.status == Status::kOk) return std::move(outcome.results);
  throw RpcGiveUpError(outcome.reason == GiveUpReason::kNone
                           ? GiveUpReason::kNonRetryable
                           : outcome.reason,
                       outcome.status, outcome.attempts, outcome.error);
}

ServerInfo ResilientClient::server_info() {
  std::shared_ptr<RpcClient> client;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    client = acquire_client(lock);
  }
  return client->server_info();
}

void ResilientClient::request_shutdown() {
  std::shared_ptr<RpcClient> client;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    client = acquire_client(lock);
  }
  client->request_shutdown();
}

std::size_t ResilientClient::outstanding() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return outstanding_;
}

std::uint64_t ResilientClient::connects() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return connects_;
}

std::vector<RetryEvent> ResilientClient::retry_log() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return retry_log_;
}

void ResilientClient::send_attempt(RequestPtr request) {
  for (;;) {
    std::shared_ptr<RpcClient> client;
    try {
      std::unique_lock<std::mutex> lock(mutex_);
      client = acquire_client(lock);
    } catch (const RpcGiveUpError& e) {
      finish(request, Status::kInternalError, {}, e.what(),
             GiveUpReason::kConnectFailed);
      return;
    } catch (const ProtocolVersionError& e) {
      finish(request, Status::kInvalidRequest, {}, e.what(),
             GiveUpReason::kNonRetryable);
      return;
    } catch (const std::exception& e) {
      finish(request, Status::kInternalError, {}, e.what(),
             GiveUpReason::kClientClosed);
      return;
    }
    // The send happens outside the lock: a slow peer must not stall
    // unrelated submits or the response path.
    request->attempts += 1;
    try {
      RequestPtr tracked = request;
      client->submit_with_callback(
          request->model, request->samples, request->deadline_us,
          [this, tracked](Status status, const std::vector<double>& results,
                          const std::string& error) {
            on_response(tracked, status, results, error);
          },
          request->key, request->query);
      return;  // the response (or transport failure) drives the rest
    } catch (const WireError& e) {
      // Invalid query options: no resend could make the frame valid.
      finish(request, Status::kInvalidRequest, {}, e.what(),
             GiveUpReason::kNonRetryable);
      return;
    } catch (const std::exception& e) {
      // The connection died between acquire and send; nothing reached
      // the wire, so retry immediately — the next acquire re-dials.
      request->last_status = Status::kInternalError;
      request->last_error = std::string(kTransportPrefix) + e.what();
      if (config_.max_attempts > 0 &&
          request->attempts >=
              static_cast<std::uint32_t>(config_.max_attempts)) {
        finish(request, request->last_status, {}, request->last_error,
               GiveUpReason::kAttemptsExhausted);
        return;
      }
    }
  }
}

bool ResilientClient::should_retry(Status status,
                                   const std::string& error) const {
  if (is_retryable(status)) return true;
  if (is_transport_error(status, error)) return true;
  if (status == Status::kInternalError && config_.retry_internal_errors) {
    return true;
  }
  return false;
}

void ResilientClient::on_response(const RequestPtr& request, Status status,
                                  const std::vector<double>& results,
                                  const std::string& error) {
  if (status == Status::kOk) {
    finish(request, status, results, error, GiveUpReason::kNone);
    return;
  }
  if (!should_retry(status, error)) {
    finish(request, status, results, error, GiveUpReason::kNonRetryable);
    return;
  }
  request->last_status = status;
  request->last_error = error;
  schedule_retry(request);
}

void ResilientClient::schedule_retry(const RequestPtr& request) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (closed_) {
    lock.unlock();
    finish(request, request->last_status, {}, request->last_error,
           GiveUpReason::kClientClosed);
    return;
  }
  if (config_.max_attempts > 0 &&
      request->attempts >= static_cast<std::uint32_t>(config_.max_attempts)) {
    lock.unlock();
    finish(request, request->last_status, {}, request->last_error,
           GiveUpReason::kAttemptsExhausted);
    return;
  }
  const double wait = backoff_us(request->key, request->attempts,
                                 config_.backoff_base_us,
                                 config_.backoff_cap_us);
  const auto due =
      Clock::now() + std::chrono::microseconds(
                         static_cast<std::uint64_t>(wait));
  if (config_.retry_budget_us > 0.0) {
    const double elapsed_us =
        std::chrono::duration<double, std::micro>(due - request->first_sent)
            .count();
    if (elapsed_us > config_.retry_budget_us) {
      lock.unlock();
      finish(request, request->last_status, {}, request->last_error,
             GiveUpReason::kRetryBudgetExpired);
      return;
    }
  }
  retry_log_.push_back({request->key, request->attempts,
                        static_cast<std::uint64_t>(wait)});
  retry_queue_.emplace(due, request);
  cv_.notify_all();
}

void ResilientClient::finish(const RequestPtr& request, Status status,
                             const std::vector<double>& results,
                             const std::string& error, GiveUpReason reason) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    outstanding_ -= 1;
  }
  if (reason != GiveUpReason::kNone && reason != GiveUpReason::kNonRetryable) {
    SPNHBM_WARN("rpc") << config_.label << " gave up on request (key "
                       << request->key << ", " << to_string(reason)
                       << " after " << request->attempts
                       << " attempt(s)): " << error;
  }
  request->callback(status, results, error, reason, request->attempts);
}

void ResilientClient::retry_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (closed_) return;
    if (retry_queue_.empty()) {
      cv_.wait(lock);
      continue;
    }
    const auto due = retry_queue_.begin()->first;
    if (Clock::now() < due) {
      cv_.wait_until(lock, due);
      continue;
    }
    RequestPtr request = retry_queue_.begin()->second;
    retry_queue_.erase(retry_queue_.begin());
    lock.unlock();
    send_attempt(std::move(request));
    lock.lock();
  }
}

void ResilientClient::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) return;
    closed_ = true;
  }
  cv_.notify_all();
  if (retry_thread_.joinable()) retry_thread_.join();
  std::shared_ptr<RpcClient> client;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    client = std::move(client_);
  }
  // Failing in-flight wire attempts routes them through on_response ->
  // schedule_retry, which sees closed_ and finishes them kClientClosed.
  client.reset();
  std::multimap<Clock::time_point, RequestPtr> abandoned;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    abandoned.swap(retry_queue_);
  }
  for (auto& [due, request] : abandoned) {
    (void)due;
    finish(request, request->last_status, {}, request->last_error,
           GiveUpReason::kClientClosed);
  }
}

}  // namespace spnhbm::rpc
