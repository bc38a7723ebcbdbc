#include "spnhbm/rpc/server.hpp"

#include <algorithm>
#include <utility>

#include "spnhbm/compiler/datapath.hpp"
#include "spnhbm/engine/server.hpp"
#include "spnhbm/fault/fault.hpp"
#include "spnhbm/util/log.hpp"
#include "spnhbm/util/strings.hpp"

namespace spnhbm::rpc {

namespace {

using SteadyClock = std::chrono::steady_clock;

double us_since(SteadyClock::time_point start, SteadyClock::time_point end) {
  return std::chrono::duration<double, std::micro>(end - start).count();
}

/// Wall sleep for injected stall/delay decisions (network sites have no
/// virtual clock; a slow peer is wall-clock slow).
void fault_sleep(const fault::FaultDecision& decision) {
  if (decision.duration_us > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::micro>(
        decision.duration_us));
  }
}

}  // namespace

std::string RpcServerStats::describe() const {
  std::string text = strformat(
      "%llu connections (%llu rejected, %llu fault-refused); %llu requests "
      "= %llu accepted + %llu rejected + %llu shed (%llu rate-limit, "
      "%llu queue-depth, %llu no-healthy-engine, %llu shutting-down) + "
      "%llu duplicates; accepted = %llu completed + %llu failed "
      "(%llu deadline-exceeded)",
      static_cast<unsigned long long>(connections_accepted),
      static_cast<unsigned long long>(connections_rejected),
      static_cast<unsigned long long>(connections_refused),
      static_cast<unsigned long long>(received),
      static_cast<unsigned long long>(accepted),
      static_cast<unsigned long long>(rejected),
      static_cast<unsigned long long>(shed()),
      static_cast<unsigned long long>(shed_rate_limit),
      static_cast<unsigned long long>(shed_queue_depth),
      static_cast<unsigned long long>(shed_no_healthy_engine),
      static_cast<unsigned long long>(shed_shutting_down),
      static_cast<unsigned long long>(duplicates),
      static_cast<unsigned long long>(completed),
      static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(deadline_exceeded));
  text += conserved() ? "; conservation ok" : "; conservation VIOLATED";
  if (request_latency_us.count > 0) {
    text += "; rpc latency us " + request_latency_us.summary();
  }
  return text;
}

RpcServer::RpcServer(engine::InferenceService& server, RpcServerConfig config)
    : server_(server),
      config_(std::move(config)),
      bucket_(config_.admission.rate_limit_rps,
              config_.admission.burst > 0.0
                  ? config_.admission.burst
                  : std::max(config_.admission.rate_limit_rps, 1.0)),
      listener_(config_.port),
      tail_(std::max<std::size_t>(config_.tail_sample_capacity, 1)) {
  port_ = listener_.port();
  latency_us_ = std::make_shared<telemetry::Histogram>();
  auto& registry = telemetry::metrics();
  registry.attach_histogram("rpc.request_latency_us", latency_us_);
  ctr_connections_ = registry.counter("rpc.connections");
  ctr_received_ = registry.counter("rpc.requests");
  ctr_accepted_ = registry.counter("rpc.accepted");
  ctr_rejected_ = registry.counter("rpc.rejected");
  ctr_shed_rate_limit_ = registry.counter("rpc.shed_rate_limit");
  ctr_shed_queue_depth_ = registry.counter("rpc.shed_queue_depth");
  ctr_completed_ = registry.counter("rpc.completed");
  ctr_failed_ = registry.counter("rpc.failed");
  ctr_duplicates_ = registry.counter("rpc.duplicates");
}

RpcServer::~RpcServer() { stop(); }

void RpcServer::start() {
  SPNHBM_REQUIRE(!started_.exchange(true), "RpcServer already started");
  acceptor_ = std::thread([this] { accept_loop(); });
}

void RpcServer::stop() {
  if (!started_.load()) return;
  if (stopping_.exchange(true)) return;  // first caller runs the teardown
  listener_.shutdown();
  if (acceptor_.joinable()) acceptor_.join();
  std::vector<std::unique_ptr<Connection>> connections;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    connections.swap(connections_);
  }
  for (auto& connection : connections) {
    connection->socket.shutdown();
  }
  for (auto& connection : connections) {
    if (connection->reader.joinable()) connection->reader.join();
    if (connection->writer.joinable()) connection->writer.join();
  }
  listener_.close();
  cv_shutdown_.notify_all();
}

void RpcServer::wait_for_shutdown_request() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_shutdown_.wait(lock, [this] {
    return shutdown_requested_.load(std::memory_order_acquire) ||
           stopping_.load();
  });
}

std::size_t RpcServer::active_connections() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t active = 0;
  for (const auto& connection : connections_) {
    std::lock_guard<std::mutex> connection_lock(connection->mutex);
    if (!connection->reader_done || !connection->writer_done) active += 1;
  }
  return active;
}

RpcServerStats RpcServer::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  RpcServerStats snapshot = stats_;
  snapshot.request_latency_us = latency_us_->snapshot();
  return snapshot;
}

HelloFrame RpcServer::make_hello() const {
  HelloFrame hello;
  hello.build_version = config_.build_version;
  for (const std::string& id : server_.served_models()) {
    ModelInfo model;
    model.id = id;
    model.input_features =
        static_cast<std::uint32_t>(server_.input_features(id));
    hello.models.push_back(std::move(model));
  }
  return hello;
}

void RpcServer::accept_loop() {
  for (;;) {
    Socket socket = listener_.accept();
    if (!socket.valid()) return;  // listener shut down
    if (stopping_.load()) return;
    // Injected accept() refusal: the accepted socket is closed before the
    // handshake, modelling a refusal window on the listener.
    if (auto decision = fault::injector().decide("rpc.accept", "listener")) {
      if (decision.kind == fault::FaultKind::kStall ||
          decision.kind == fault::FaultKind::kDelay) {
        fault_sleep(decision);
      } else {
        SPNHBM_WARN("rpc") << "injected accept refusal (rpc.accept)";
        std::lock_guard<std::mutex> lock(mutex_);
        stats_.connections_refused += 1;
        continue;  // Socket destructor closes the connection
      }
    }
    std::lock_guard<std::mutex> lock(mutex_);
    // Reap finished connections so long-lived servers do not accumulate
    // one entry per client ever seen.
    for (auto it = connections_.begin(); it != connections_.end();) {
      Connection& c = **it;
      bool finished;
      {
        // Only reap once BOTH threads have run to completion: the writer
        // may still be resolving its last popped entry (and taking the
        // server mutex for stats) after the outbox looks empty.
        std::lock_guard<std::mutex> connection_lock(c.mutex);
        finished = c.reader_done && c.writer_done;
      }
      if (finished) {
        if (c.reader.joinable()) c.reader.join();
        if (c.writer.joinable()) c.writer.join();
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
    if (connections_.size() >= config_.max_connections) {
      stats_.connections_rejected += 1;
      continue;  // Socket destructor closes the connection
    }
    auto connection = std::make_unique<Connection>();
    connection->socket = std::move(socket);
    connection->id = next_connection_id_++;
    connection->track = telemetry::tracer().register_track(
        "rpc/conn" + std::to_string(connection->id),
        telemetry::TraceClock::kWall);
    stats_.connections_accepted += 1;
    ctr_connections_->add(1);
    Connection& ref = *connection;
    connection->reader = std::thread([this, &ref] { reader_loop(ref); });
    connection->writer = std::thread([this, &ref] { writer_loop(ref); });
    connections_.push_back(std::move(connection));
  }
}

void RpcServer::enqueue(Connection& connection, Outgoing outgoing) {
  {
    std::lock_guard<std::mutex> lock(connection.mutex);
    connection.outbox.push_back(std::move(outgoing));
  }
  connection.cv.notify_one();
}

void RpcServer::reader_loop(Connection& connection) {
  const std::string fault_instance = "conn" + std::to_string(connection.id);
  try {
    for (;;) {
      std::uint8_t header[kFrameHeaderBytes];
      if (!connection.socket.recv_exact(header, sizeof(header))) break;
      FrameType type;
      const std::uint32_t body_length = decode_frame_header(header, type);
      std::vector<std::uint8_t> body(body_length);
      if (body_length > 0 &&
          !connection.socket.recv_exact(body.data(), body_length)) {
        throw RpcError("peer closed between frame header and body");
      }
      // Injected receive-path faults, one decision per frame: a reset
      // drops the connection, a corruption bit-flips the body (the
      // decoder then rejects it like any malformed frame), a stall
      // models a slow network before processing.
      if (auto decision =
              fault::injector().decide("rpc.conn.rx", fault_instance)) {
        switch (decision.kind) {
          case fault::FaultKind::kFail:
          case fault::FaultKind::kHang:
            throw RpcError("injected connection reset (rpc.conn.rx)");
          case fault::FaultKind::kCorrupt:
            for (auto& byte : body) byte ^= decision.corrupt_mask;
            break;
          default:
            fault_sleep(decision);
            break;
        }
      }
      switch (type) {
        case FrameType::kRequest:
          enqueue(connection, handle_request(connection, decode_request(body)));
          break;
        case FrameType::kAdmin:
          enqueue(connection, handle_admin());
          break;
        case FrameType::kShutdown:
          SPNHBM_INFO("rpc") << "shutdown requested by connection "
                             << connection.id;
          shutdown_requested_.store(true, std::memory_order_release);
          cv_shutdown_.notify_all();
          break;
        default:
          throw WireError(strformat("unexpected client frame type %u",
                                    static_cast<unsigned>(type)));
      }
    }
  } catch (const std::exception& e) {
    if (!stopping_.load()) {
      SPNHBM_WARN("rpc") << "connection " << connection.id
                         << " dropped: " << e.what();
    }
    // Protocol violations and injected resets close the connection; the
    // explicit shutdown makes the close visible to the peer immediately
    // (the writer keeps draining futures for the accounting books).
    connection.socket.shutdown();
  }
  {
    std::lock_guard<std::mutex> lock(connection.mutex);
    connection.reader_done = true;
  }
  connection.cv.notify_all();
}

RpcServer::Outgoing RpcServer::handle_admin() {
  AdminReplyFrame reply;
  reply.build_version = config_.build_version;
  reply.metrics_text = telemetry::metrics().prometheus_text();
  reply.health_text = server_.health_text();
  reply.replicas_text = server_.replicas_text();
  reply.tail_text = tail_.describe();
  Outgoing outgoing;
  outgoing.admin = true;
  outgoing.received = SteadyClock::now();
  outgoing.wire = encode_frame(encode_admin_reply(reply));
  return outgoing;
}

RpcServer::Outgoing RpcServer::handle_request(Connection& connection,
                                              RequestFrame request) {
  const auto received = SteadyClock::now();
  // The lane address folds the query-kind byte into the model reference
  // ("m@1" + kind 1 -> "m@1#marginal"), matching the suffixed lane ids
  // the serving layer advertises in HELLO.
  std::string lane_ref = request.model;
  if (request.query_kind != 0) {
    lane_ref += engine::query_lane_suffix(
        static_cast<compiler::QueryKind>(request.query_kind));
  }
  const bool sparse = request.encoding == kEncodingSparse;
  Outgoing outgoing;
  outgoing.request_id = request.request_id;
  outgoing.deadline_us = request.deadline_us;
  outgoing.received = received;
  outgoing.trace = request.trace;
  outgoing.model = lane_ref;

  ResponseFrame response;
  response.request_id = request.request_id;

  // Idempotency: a key seen before marks a client retry. Answer
  // from the cache once the original completed OK — or with a retryable
  // status while it is still in flight — so completed work is never
  // re-executed and the frame lands in the `duplicates` book instead of
  // the accepted/completed ones. Failed executions drop their key on
  // resolution, so a retry of a failure re-executes from scratch.
  if (request.idempotency_key != 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = idempotency_cache_.find(request.idempotency_key);
    if (it != idempotency_cache_.end()) {
      stats_.received += 1;
      stats_.duplicates += 1;
      ctr_received_->add(1);
      ctr_duplicates_->add(1);
      if (it->second.done) {
        response = it->second.response;
        response.request_id = request.request_id;
      } else {
        response.status = Status::kOverloaded;
        response.error = "duplicate of an in-flight request (retryable)";
      }
      outgoing.wire = encode_frame(encode_response(response));
      return outgoing;
    }
  }

  auto reject = [&](Status status, const std::string& error,
                    std::uint64_t RpcServerStats::* bucket,
                    const std::shared_ptr<telemetry::Counter>& counter) {
    response.status = status;
    response.error = error;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stats_.received += 1;
      stats_.*bucket += 1;
    }
    ctr_received_->add(1);
    counter->add(1);
    outgoing.wire = encode_frame(encode_response(response));
  };

  // 1. Model resolution (width lookup doubles as the existence check).
  if (request.model.empty()) {
    reject(Status::kInvalidRequest, "request carries no model reference",
           &RpcServerStats::rejected, ctr_rejected_);
    return outgoing;
  }
  std::size_t features = 0;
  try {
    features = server_.input_features(lane_ref);
  } catch (const std::exception& e) {
    reject(Status::kUnknownModel, e.what(), &RpcServerStats::rejected,
           ctr_rejected_);
    return outgoing;
  }
  // 2. Frame consistency: a non-zero dense sample count must agree with
  //    the payload. The payload itself (whole rows, a well-formed sparse
  //    stream) is validated by the serving layer at submit below.
  if (!sparse) {
    if (request.sample_count != 0 &&
        request.sample_count != request.samples.size() / features) {
      reject(Status::kInvalidRequest,
             strformat("explicit sample count %u disagrees with the payload "
                       "(%zu rows of %zu bytes)",
                       request.sample_count, request.samples.size() / features,
                       features),
             &RpcServerStats::rejected, ctr_rejected_);
      return outgoing;
    }
  }
  // 3. Admission: token bucket, then queue depth. Shed responses go out
  //    immediately; the socket thread never blocks on queue space.
  if (!bucket_.try_acquire(received)) {
    reject(Status::kOverloaded, "shed by rate limit (retryable)",
           &RpcServerStats::shed_rate_limit, ctr_shed_rate_limit_);
    return outgoing;
  }
  if (config_.admission.max_outstanding_samples > 0 &&
      server_.outstanding_samples() >=
          config_.admission.max_outstanding_samples) {
    reject(Status::kOverloaded, "shed by queue depth (retryable)",
           &RpcServerStats::shed_queue_depth, ctr_shed_queue_depth_);
    return outgoing;
  }
  // 4. Submit (non-blocking; a full server queue is queue-depth shedding).
  //    A dense payload that is not whole rows throws InvalidRequestError,
  //    and try_submit_sparse's front-door decoder throws ParseError on a
  //    malformed stream — invalid requests, not engine faults. A request
  //    larger than the whole queue bound can never be admitted, so it is
  //    invalid, not shed.
  try {
    outgoing.sample_count =
        sparse ? request.sample_count : request.samples.size() / features;
    auto future =
        sparse ? server_.try_submit_sparse(lane_ref, std::move(request.samples),
                                           request.sample_count, request.trace)
               : server_.try_submit(lane_ref, std::move(request.samples),
                                    request.trace);
    if (!future.has_value()) {
      reject(Status::kOverloaded, "shed by server queue bound (retryable)",
             &RpcServerStats::shed_queue_depth, ctr_shed_queue_depth_);
      return outgoing;
    }
    outgoing.future = std::move(future);
  } catch (const ParseError& e) {
    reject(Status::kInvalidRequest, e.what(), &RpcServerStats::rejected,
           ctr_rejected_);
    return outgoing;
  } catch (const engine::InvalidRequestError& e) {
    reject(Status::kInvalidRequest, e.what(), &RpcServerStats::rejected,
           ctr_rejected_);
    return outgoing;
  } catch (const engine::RequestTooLargeError& e) {
    reject(Status::kInvalidRequest, e.what(), &RpcServerStats::rejected,
           ctr_rejected_);
    return outgoing;
  } catch (const engine::NoHealthyEngineError& e) {
    reject(Status::kNoHealthyEngine, e.what(),
           &RpcServerStats::shed_no_healthy_engine, ctr_failed_);
    return outgoing;
  } catch (const std::exception& e) {
    // A stopped / stopping InferenceServer surfaces as RuntimeApiError.
    reject(Status::kShuttingDown, e.what(),
           &RpcServerStats::shed_shutting_down, ctr_failed_);
    return outgoing;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.received += 1;
    stats_.accepted += 1;
    // Register the accepted key as in-flight; the writer publishes the
    // resolved response into this slot. Bounded: oldest entries fall out
    // first (an evicted key's late retry is simply re-executed).
    if (request.idempotency_key != 0) {
      outgoing.idempotency_key = request.idempotency_key;
      idempotency_cache_.emplace(request.idempotency_key, IdempotencyEntry{});
      idempotency_order_.push_back(request.idempotency_key);
      while (idempotency_order_.size() > config_.idempotency_cache_capacity) {
        idempotency_cache_.erase(idempotency_order_.front());
        idempotency_order_.pop_front();
      }
    }
  }
  ctr_received_->add(1);
  ctr_accepted_->add(1);
  if (request.trace.valid()) {
    auto& tracer = telemetry::tracer();
    tracer.complete_wall(connection.track, "admission", received,
                         SteadyClock::now());
    tracer.flow_wall(connection.track, "request", 't', request.trace.trace_id,
                     received);
  }
  return outgoing;
}

ResponseFrame RpcServer::resolve(Outgoing& outgoing) {
  ResponseFrame response;
  response.request_id = outgoing.request_id;
  // A deadline past what the clock can represent cannot expire: wait
  // without one (adding it would overflow the time point).
  const auto headroom = std::chrono::duration_cast<std::chrono::microseconds>(
      SteadyClock::time_point::max() - outgoing.received);
  if (outgoing.deadline_us > 0 &&
      outgoing.deadline_us <= static_cast<std::uint64_t>(headroom.count())) {
    const auto deadline =
        outgoing.received + std::chrono::microseconds(outgoing.deadline_us);
    // A past deadline reports a ready result as ready, so a writer that
    // reaches the request late must check the clock itself: a response
    // that would go out after its deadline is an expired one.
    if (outgoing.future->wait_until(deadline) != std::future_status::ready ||
        SteadyClock::now() > deadline) {
      // The engine may still compute the batch; only the response is due.
      response.status = Status::kDeadlineExceeded;
      response.error = strformat(
          "per-request deadline of %llu us expired before completion",
          static_cast<unsigned long long>(outgoing.deadline_us));
      return response;
    }
  }
  try {
    response.results = outgoing.future->get();
    response.status = Status::kOk;
  } catch (const engine::DeadlineExceededError& e) {
    response.status = Status::kDeadlineExceeded;
    response.error = e.what();
  } catch (const engine::NoHealthyEngineError& e) {
    response.status = Status::kNoHealthyEngine;
    response.error = e.what();
  } catch (const RuntimeApiError& e) {
    response.status = Status::kShuttingDown;
    response.error = e.what();
  } catch (const std::exception& e) {
    response.status = Status::kInternalError;
    response.error = e.what();
  }
  return response;
}

void RpcServer::writer_loop(Connection& connection) {
  const std::string fault_instance = "conn" + std::to_string(connection.id);
  bool peer_writable = true;
  auto send_frame = [&](const std::vector<std::uint8_t>& wire) {
    if (!peer_writable) return;
    // Injected send-path faults, one decision per frame: a reset drops
    // the connection mid-stream ("connection reset after N frames" via
    // window/every triggers), a stall models a slow peer draining its
    // receive window.
    if (auto decision =
            fault::injector().decide("rpc.conn.tx", fault_instance)) {
      if (decision.kind == fault::FaultKind::kStall ||
          decision.kind == fault::FaultKind::kDelay) {
        fault_sleep(decision);
      } else {
        SPNHBM_WARN("rpc") << "connection " << connection.id
                           << " injected send reset (rpc.conn.tx)";
        connection.socket.shutdown();
        peer_writable = false;
        return;
      }
    }
    try {
      connection.socket.send_all(wire.data(), wire.size());
    } catch (const std::exception& e) {
      // Keep draining futures for the accounting invariants even when the
      // responses can no longer be delivered.
      if (!stopping_.load()) {
        SPNHBM_WARN("rpc") << "connection " << connection.id
                           << " send failed: " << e.what();
      }
      peer_writable = false;
    }
  };

  // Injected HELLO rejection: the connection is closed before the
  // handshake, so the client's connect() fails and its reconnect/backoff
  // path is exercised.
  if (auto decision = fault::injector().decide("rpc.hello", fault_instance)) {
    if (decision.kind == fault::FaultKind::kStall ||
        decision.kind == fault::FaultKind::kDelay) {
      fault_sleep(decision);
    } else {
      SPNHBM_WARN("rpc") << "connection " << connection.id
                         << " injected hello rejection (rpc.hello)";
      connection.socket.shutdown();
      peer_writable = false;
    }
  }
  if (peer_writable) send_frame(encode_frame(encode_hello(make_hello())));
  for (;;) {
    Outgoing outgoing;
    {
      std::unique_lock<std::mutex> lock(connection.mutex);
      connection.cv.wait(lock, [&] {
        return !connection.outbox.empty() || connection.reader_done;
      });
      if (connection.outbox.empty()) break;  // reader done, outbox drained
      outgoing = std::move(connection.outbox.front());
      connection.outbox.pop_front();
    }
    Status status = Status::kOk;
    if (outgoing.future.has_value()) {
      ResponseFrame response = resolve(outgoing);
      status = response.status;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (response.status == Status::kOk) {
          stats_.completed += 1;
        } else {
          stats_.failed += 1;
          if (response.status == Status::kDeadlineExceeded) {
            stats_.deadline_exceeded += 1;
          }
        }
        if (outgoing.idempotency_key != 0) {
          auto it = idempotency_cache_.find(outgoing.idempotency_key);
          if (it != idempotency_cache_.end()) {
            if (response.status == Status::kOk) {
              it->second.done = true;
              it->second.response = response;
            } else {
              // A failed execution must not pin the key: the client's
              // retry asks for a re-execution, not a replay of the
              // failure. Only completed work is dedup-protected.
              idempotency_cache_.erase(it);
            }
          }
        }
      }
      (response.status == Status::kOk ? ctr_completed_ : ctr_failed_)->add(1);
      outgoing.wire = encode_frame(encode_response(response));
    }
    // Book the request before its response leaves, so a client holding
    // the response already sees it in the latency and tail books. ADMIN
    // replies are not requests: no latency accounting.
    if (!outgoing.admin) {
      const auto now = SteadyClock::now();
      const double latency_us = us_since(outgoing.received, now);
      latency_us_->record(latency_us);
      auto& tracer = telemetry::tracer();
      if (tracer.enabled() && connection.track != 0) {
        tracer.complete_wall(connection.track, "request", outgoing.received,
                             now);
      }
      if (outgoing.trace.valid()) {
        // Server-side flow step across the whole frame-to-response window,
        // then the record competes for a slot in the tail ring.
        tracer.flow_wall(connection.track, "request", 't',
                         outgoing.trace.trace_id, outgoing.received);
        telemetry::RequestTraceRecord record;
        record.trace_id = outgoing.trace.trace_id;
        record.model = outgoing.model;
        record.status = to_string(status);
        record.sample_count = outgoing.sample_count;
        record.latency_us = latency_us;
        record.spans.push_back({"request", 0.0, latency_us, 0});
        tail_.offer(std::move(record));
      }
    }
    send_frame(outgoing.wire);
  }
  {
    std::lock_guard<std::mutex> lock(connection.mutex);
    connection.writer_done = true;
  }
  connection.cv.notify_all();
}

}  // namespace spnhbm::rpc
