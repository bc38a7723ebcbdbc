// InferenceService: the minimal serving surface a front end needs.
//
// The RPC front door (rpc::RpcServer), the CLI drivers and the load
// generator do not care whether requests land on one InferenceServer or
// are routed across a fleet of devices — they need exactly four things:
// which models are served, each model's input width, the current
// backpressure quantity, and a non-blocking submit. This interface is
// that seam. engine::InferenceServer implements it directly (one device
// group, local dispatch); fleet::FleetRouter implements it by routing
// each request to one of its member servers.
//
// Contract notes, shared by every implementation:
//   * try_submit never blocks: a full queue returns std::nullopt (the
//     caller sheds or retries), typed failures throw (RuntimeApiError
//     for unknown/ambiguous models or a stopped service,
//     NoHealthyEngineError when the model is temporarily unservable).
//   * served_models() returns sorted "name@version" ids; a model ref
//     passed to input_features/try_submit may be a bare name when it is
//     unambiguous.
//   * outstanding_samples() is advisory (admission control); it may be
//     stale by the time the caller acts on it.
#pragma once

#include <cstdint>
#include <future>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "spnhbm/telemetry/trace_context.hpp"
#include "spnhbm/util/error.hpp"

namespace spnhbm::compiler {
enum class QueryKind : std::uint8_t;
}  // namespace spnhbm::compiler

namespace spnhbm::engine {

// --- Query-kind lane addressing -----------------------------------------
// A served lane is addressed by the model id plus a query-kind suffix:
// "name@version" serves the joint likelihood (unchanged from before query
// kinds existed), "name@version#marginal" and "name@version#mpe" serve the
// marginal and max-product datapaths of the same artifact. Bare-name
// references resolve within one kind: "m" finds the joint lane only,
// "m#marginal" the marginal one.

/// Lane-id suffix for a query kind: "" (joint), "#marginal", "#mpe".
std::string query_lane_suffix(compiler::QueryKind query);

/// Lane id of a model artifact serving `query`: "<model-id><suffix>".
std::string lane_id_for(const std::string& model_id,
                        compiler::QueryKind query);

/// Splits a model/lane reference into {base, kind-suffix}; the suffix is
/// "" for joint references. Only the known kind suffixes are recognised,
/// so '#' elsewhere in an id stays part of the base.
std::pair<std::string, std::string> split_lane_ref(const std::string& ref);

/// True when reference `ref` names lane `id`: the id itself, or its bare
/// model name with the same kind suffix ("m" names "m@1", "m#mpe" names
/// "m@1#mpe", but "m" never names "m@1#mpe").
bool lane_ref_names(const std::string& ref, const std::string& id);

class InferenceService {
 public:
  virtual ~InferenceService() = default;

  /// Model ids currently served, sorted.
  virtual std::vector<std::string> served_models() const = 0;
  /// Input width (bytes per sample) of a named model; throws
  /// RuntimeApiError when unknown or ambiguous.
  virtual std::size_t input_features(const std::string& model) const = 0;
  /// Queued + in-flight samples across the service (advisory).
  virtual std::size_t outstanding_samples() const = 0;
  /// Non-blocking submit: std::nullopt when the queue bound would be
  /// exceeded; otherwise a future resolving to one probability per row.
  virtual std::optional<std::future<std::vector<double>>> try_submit(
      const std::string& model, std::vector<std::uint8_t> samples) = 0;

  /// Trace-carrying submit: same contract, but the request's
  /// TraceContext rides along so the service's spans join the request's
  /// flow chain. The default drops the context (services predating the
  /// tracing layer keep working unchanged).
  virtual std::optional<std::future<std::vector<double>>> try_submit(
      const std::string& model, std::vector<std::uint8_t> samples,
      const telemetry::TraceContext& trace) {
    (void)trace;
    return try_submit(model, std::move(samples));
  }

  /// Non-blocking sparse submit: `stream` is the CSR evidence stream of
  /// compiler/sparse_evidence.hpp covering `sample_count` samples; absent
  /// variables read the model's default evidence. Same nullopt/throw
  /// contract as try_submit, plus ParseError for a malformed stream. The
  /// default rejects: services predating sparse evidence keep compiling.
  virtual std::optional<std::future<std::vector<double>>> try_submit_sparse(
      const std::string& model, std::vector<std::uint8_t> stream,
      std::size_t sample_count, const telemetry::TraceContext& trace = {}) {
    (void)stream;
    (void)sample_count;
    (void)trace;
    throw RuntimeApiError("service does not accept sparse evidence for '" +
                          model + "'");
  }

  // --- Live-introspection hooks (the ADMIN plane) ------------------------
  /// Per-engine health lines ("engine 0 [fpga0] model=a@1 health=healthy
  /// ..."); empty when the service has nothing to report.
  virtual std::string health_text() const { return ""; }
  /// Replica-map lines for routed services (model -> member/partition);
  /// empty for a single-server service.
  virtual std::string replicas_text() const { return ""; }
};

}  // namespace spnhbm::engine
