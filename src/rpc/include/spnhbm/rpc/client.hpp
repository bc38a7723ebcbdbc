// RpcClient: the library a remote caller links against.
//
// connect() performs the TCP connect and consumes the server's hello
// handshake, so server_info() (protocol version, build string, loaded
// models) is available before the first request. The client refuses to
// talk to a server speaking any protocol version but its own.
//
// Requests are fully pipelined: submit() assigns a request id, writes the
// frame (serialised by a send mutex — safe from any thread) and returns a
// future; a background reader thread matches response frames back to
// their promises. A non-OK response resolves the future with
// RpcStatusError carrying the typed wire status, so callers can
// distinguish retryable sheds (OVERLOADED, NO_HEALTHY_ENGINE) from hard
// failures. A dropped connection fails every outstanding future with
// INTERNAL_ERROR.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "spnhbm/rpc/socket.hpp"
#include "spnhbm/rpc/wire.hpp"
#include "spnhbm/telemetry/trace.hpp"

namespace spnhbm::rpc {

/// A response with a non-OK wire status, as a typed exception.
class RpcStatusError : public Error {
 public:
  RpcStatusError(Status status, const std::string& message)
      : Error(to_string(status) + ": " + message), status_(status) {}

  Status status() const { return status_; }
  /// True for sheds the caller should back off and resend.
  bool retryable() const { return is_retryable(status_); }

 private:
  Status status_;
};

/// The peer's HELLO advertised a protocol version other than
/// kProtocolVersion. Terminal: reconnecting cannot change the peer.
class ProtocolVersionError : public RpcError {
 public:
  explicit ProtocolVersionError(std::uint16_t version)
      : RpcError("server speaks wire protocol v" + std::to_string(version) +
                 ", this client speaks only v" +
                 std::to_string(kProtocolVersion)),
        version_(version) {}

  std::uint16_t version() const { return version_; }

 private:
  std::uint16_t version_;
};

/// Reads the HELLO frame that opens every connection. Throws
/// ProtocolVersionError when it advertises another protocol version,
/// WireError on a malformed frame and RpcError when the peer hangs up.
HelloFrame receive_hello(Socket& socket);

/// Server identity learned from the hello handshake.
struct ServerInfo {
  std::uint16_t protocol_version = 0;
  std::string build_version;
  std::vector<ModelInfo> models;

  /// Input width of model `ref` ("name@version" id or bare name when it
  /// uniquely prefixes one id). Throws RpcError when unknown.
  std::uint32_t input_features(const std::string& ref) const;
};

/// Query options of a REQUEST frame. The defaults describe a dense joint
/// request whose sample count the server derives from the input width.
struct QueryOptions {
  /// 0 joint, 1 marginal, 2 MPE (compiler::QueryKind values).
  std::uint8_t query_kind = 0;
  /// kEncodingDense (sample rows) or kEncodingSparse (CSR evidence
  /// stream, see compiler/sparse_evidence.hpp).
  std::uint8_t encoding = kEncodingDense;
  /// Sample count. Required (non-zero) for sparse payloads — they are not
  /// self-describing; 0 on dense ones lets the server derive it.
  std::uint32_t sample_count = 0;

  /// True for a non-default query kind or encoding.
  bool request2() const {
    return query_kind != 0 || encoding != kEncodingDense;
  }
};

/// The pending response of one submit(). The reader thread hands the
/// outcome over as a value (status, error text, results); get() builds
/// the typed error on the thread that waits, so no exception object is
/// shared between threads.
class RpcFuture {
 public:
  struct Outcome {
    Status status = Status::kOk;
    std::string error;
    std::vector<double> results;
  };

  explicit RpcFuture(std::future<Outcome> outcome)
      : outcome_(std::move(outcome)) {}

  /// One probability per sample row; throws RpcStatusError for a non-OK
  /// response (a lost connection is INTERNAL_ERROR).
  std::vector<double> get() {
    Outcome outcome = outcome_.get();
    if (outcome.status == Status::kOk) return std::move(outcome.results);
    throw RpcStatusError(outcome.status, outcome.error);
  }
  template <typename Rep, typename Period>
  std::future_status wait_for(
      const std::chrono::duration<Rep, Period>& timeout) const {
    return outcome_.wait_for(timeout);
  }

 private:
  std::future<Outcome> outcome_;
};

/// Completion callback: status, results (kOk only), error text (other
/// statuses). Invoked on the client's reader thread — keep it cheap.
using ResponseCallback = std::function<void(
    Status, const std::vector<double>&, const std::string&)>;

class RpcClient {
 public:
  /// Connects and blocks until the hello handshake arrives.
  static std::unique_ptr<RpcClient> connect(const std::string& host,
                                            std::uint16_t port);

  ~RpcClient();
  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  const ServerInfo& server_info() const { return info_; }

  /// Pipelined asynchronous request. `model` empty = the server's first
  /// advertised model. `deadline_us` 0 = no per-request deadline. The
  /// future carries one probability per sample row, or RpcStatusError.
  /// A non-zero `idempotency_key` marks retries of one logical
  /// request so the server can deduplicate them. Non-default `query`
  /// options select marginal/MPE inference or sparse evidence; invalid
  /// ones throw WireError before anything is sent.
  RpcFuture submit(const std::string& model, std::vector<std::uint8_t> samples,
                   std::uint64_t deadline_us = 0,
                   std::uint64_t idempotency_key = 0,
                   const QueryOptions& query = {});

  /// As submit(), but delivers the raw response via `callback` (on the
  /// reader thread) instead of a future — the open-loop load generator's
  /// path, where thousands of outstanding futures would be pure overhead.
  void submit_with_callback(const std::string& model,
                            std::vector<std::uint8_t> samples,
                            std::uint64_t deadline_us,
                            ResponseCallback callback,
                            std::uint64_t idempotency_key = 0,
                            const QueryOptions& query = {});

  /// Synchronous convenience wrapper around submit().get().
  std::vector<double> infer(const std::string& model,
                            std::vector<std::uint8_t> samples,
                            std::uint64_t deadline_us = 0,
                            const QueryOptions& query = {});

  /// Asks the serving process to drain and exit (admin/CI path).
  void request_shutdown();

  /// Requests not yet answered.
  std::size_t outstanding() const;

  /// False once the connection dropped (every further submit would throw
  /// RpcError). The self-healing wrapper polls this to decide whether a
  /// fresh connection is needed.
  bool alive() const;

  /// Closes the connection; outstanding futures fail with INTERNAL_ERROR.
  /// Idempotent; the destructor calls it.
  void close();

 private:
  RpcClient(Socket socket, ServerInfo info);

  /// A request awaiting its response: the completion callback plus the
  /// trace context minted at send time (invalid when unsampled), so the
  /// reader thread can close the request's flow chain on the response.
  struct PendingEntry {
    ResponseCallback callback;
    telemetry::TraceContext trace;
  };

  struct SentRequest {
    std::uint64_t request_id = 0;
    telemetry::TraceContext trace;
  };

  SentRequest send_request(const std::string& model,
                           std::vector<std::uint8_t> samples,
                           std::uint64_t deadline_us,
                           std::uint64_t idempotency_key,
                           const QueryOptions& query);
  void reader_loop();
  void fail_outstanding(const std::string& reason);

  Socket socket_;
  ServerInfo info_;
  std::thread reader_;
  std::mutex send_mutex_;
  mutable std::mutex pending_mutex_;
  std::map<std::uint64_t, PendingEntry> pending_;
  /// Wall-clock telemetry track of this connection ("rpc/clientN"); 0
  /// while tracing is disabled.
  telemetry::TrackId track_ = 0;
  /// Set by the reader on exit (guarded by pending_mutex_); submits after
  /// a lost connection fail fast instead of leaving a future hanging.
  bool reader_done_ = false;
  std::uint64_t next_request_id_ = 1;
  bool closed_ = false;
};

}  // namespace spnhbm::rpc
