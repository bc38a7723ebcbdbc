// A sharded fleet router over N simulated FPGA devices.
//
// Completes the spatial-multi-tenancy refactor: one device is a
// partitioned set of datapaths (engine::FpgaSimDevice), and one fleet is
// a routed set of devices. Each fleet member pairs a FpgaSimDevice with
// its own InferenceServer; deploy() places a model replica into a fresh
// partition of the least-loaded member (partial reconfiguration only —
// co-resident tenants keep serving) and registers the tenant engine with
// that member's running server. The router itself implements
// engine::InferenceService, so RpcServer and the CLI front a whole fleet
// exactly as they front a single server.
//
// Routing: try_submit() resolves the model (lane id or unambiguous bare
// name), then offers the request to the model's replicas round-robin,
// falling over to the next replica when a member's queue bound rejects
// it. Member health folds into the choice: replicas whose engine is
// quarantined, or whose member has rejected
// `member_suspect_threshold` consecutive offers, are skipped on the
// first pass (counted in stats().health_skips) and only offered to as a
// last resort when every healthy replica rejected — a degraded fleet
// still prefers guaranteed-dead capacity over a guaranteed rejection.
// The fleet keeps conservation identities end to end:
//     routed_requests == accepted_requests + rejected_requests
// and every accepted sample is queued on exactly one member.
//
// Rebalancing: rebalance() reads the process-global telemetry counters
// "server.model.<id>.samples" (the PR-2 metrics registry — every member
// server feeds them), computes each model's share of the traffic since
// the previous rebalance, and scales hot models up (one more replica, on
// the member with the most free PE slots) and cold models down (retire +
// evict one replica), within the policy's replica bounds.
//
// Threading: the router's bookkeeping is mutex-guarded; data-plane calls
// (try_submit/stats) may run concurrently with each other and with the
// member servers. Control-plane calls (deploy/undeploy/rebalance/start/
// stop) must be serialised by the caller — the same contract as the
// underlying InferenceServer.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "spnhbm/engine/fpga_device.hpp"
#include "spnhbm/engine/server.hpp"
#include "spnhbm/engine/service.hpp"

namespace spnhbm::fleet {

struct FleetConfig {
  /// Number of simulated devices (fleet members); each gets its own
  /// InferenceServer. Member i's device is named "<device_prefix><i>".
  std::size_t devices = 2;
  std::string device_prefix = "fpga";
  /// Per-member server configuration.
  engine::ServerConfig server;
  /// Template for every member's device; `name` is overridden per member.
  engine::FpgaDeviceConfig device;
  /// PE slots per replica when deploy() is not told otherwise.
  int default_pe_slots = 1;
  /// Consecutive rejected offers after which a member is treated as
  /// suspect and skipped on the first routing pass (an accepted offer
  /// resets the count); <= 0 disables the deprioritisation.
  int member_suspect_threshold = 8;
};

/// Where one replica of a model lives.
struct ReplicaLocation {
  std::size_t member = 0;      ///< fleet member index
  std::string partition;       ///< partition name on that member's device
  std::size_t engine_index = 0;  ///< engine slot in the member's server
};

/// Thresholds for the telemetry-driven rebalancer.
struct RebalancePolicy {
  std::size_t min_replicas = 1;
  std::size_t max_replicas = 4;
  /// A model taking at least this share of the traffic since the last
  /// rebalance gains a replica (if under max_replicas and a member has
  /// free PE slots).
  double hot_share = 0.5;
  /// A model taking at most this share loses a replica (if over
  /// min_replicas).
  double cold_share = 0.05;
  /// PE slots of a replica added by the rebalancer.
  int pe_slots = 1;
};

/// What one rebalance() pass observed and did.
struct RebalanceReport {
  /// Samples served per model since the previous rebalance (the signal).
  std::map<std::string, std::uint64_t> sample_deltas;
  std::vector<std::string> scaled_up;    ///< model ids that gained a replica
  std::vector<std::string> scaled_down;  ///< model ids that lost a replica
  bool changed() const { return !scaled_up.empty() || !scaled_down.empty(); }
  std::string describe() const;
};

/// Router-level conservation accounting.
struct FleetStats {
  std::uint64_t routed_requests = 0;    ///< try_submit calls that resolved
  std::uint64_t accepted_requests = 0;  ///< landed on some member
  /// Every replica's queue was full, or the request was refused as such
  /// (RequestTooLargeError, a malformed stream), which no member is
  /// penalised for.
  std::uint64_t rejected_requests = 0;
  std::uint64_t accepted_samples = 0;
  /// First-pass skips of unhealthy replicas (quarantined engine or
  /// suspect member); not part of the conservation identity — a skipped
  /// replica may still be offered to on the fallback pass.
  std::uint64_t health_skips = 0;
  std::uint64_t deployments = 0;    ///< replicas added (deploy + rebalance)
  std::uint64_t undeployments = 0;  ///< replicas removed
  std::string describe() const;
};

class FleetRouter : public engine::InferenceService {
 public:
  explicit FleetRouter(FleetConfig config = {});
  ~FleetRouter() override;

  FleetRouter(const FleetRouter&) = delete;
  FleetRouter& operator=(const FleetRouter&) = delete;

  /// Starts every member server. Replicas may be deployed before or
  /// after; a deploy against a running fleet opens its lane immediately.
  void start();
  /// Drains and stops every member server. Idempotent.
  void stop();

  /// Adds one replica of `model` on the member with the most free PE
  /// slots (ties: lowest index), in a fresh partition of `pe_slots` PEs
  /// (0 = the model's attached TuningManifest PE count when present,
  /// FleetConfig::default_pe_slots otherwise). Propagates
  /// fpga::PlacementDeficitError (with per-resource deficits) when the
  /// best member cannot fit the tenant; the fleet is left unchanged —
  /// which is exactly how tuned PE counts stay deficit-checked.
  ReplicaLocation deploy(model::ModelHandle model, int pe_slots = 0);

  /// Removes one replica of `model_ref` — the most recently deployed —
  /// retiring its engine from the member's server and evicting its
  /// tenant partition. Throws RuntimeApiError for an unknown model.
  void undeploy_one(const std::string& model_ref);

  /// One telemetry-driven scaling pass; see the file comment.
  RebalanceReport rebalance(const RebalancePolicy& policy = {});

  // --- InferenceService ----------------------------------------------------
  std::vector<std::string> served_models() const override;
  std::size_t input_features(const std::string& model) const override;
  std::size_t outstanding_samples() const override;
  std::optional<std::future<std::vector<double>>> try_submit(
      const std::string& model, std::vector<std::uint8_t> samples) override;
  /// Trace-carrying routing: the context rides into the chosen member's
  /// InferenceServer, so a fleet-routed request traces end to end.
  std::optional<std::future<std::vector<double>>> try_submit(
      const std::string& model, std::vector<std::uint8_t> samples,
      const telemetry::TraceContext& trace) override;
  /// Sparse routing: the CSR stream is offered to the model's replicas
  /// with the same two-pass health-aware policy as dense requests; each
  /// offer copies the stream so a rejection leaves it intact.
  std::optional<std::future<std::vector<double>>> try_submit_sparse(
      const std::string& model, std::vector<std::uint8_t> stream,
      std::size_t sample_count,
      const telemetry::TraceContext& trace = {}) override;
  /// Per-engine health of every member, one block per member.
  std::string health_text() const override;
  /// The replica map: model -> member/partition/engine, one line each.
  std::string replicas_text() const override;

  // --- Introspection -------------------------------------------------------
  std::size_t member_count() const { return members_.size(); }
  engine::FpgaSimDevice& device(std::size_t member);
  engine::InferenceServer& server(std::size_t member);
  std::size_t replica_count(const std::string& model_ref) const;
  std::vector<ReplicaLocation> replicas(const std::string& model_ref) const;
  /// Rejected offers since member `member` last accepted one (the
  /// suspect-member routing signal).
  std::uint64_t member_consecutive_rejects(std::size_t member) const;
  FleetStats stats() const;
  /// Fleet header, one block per member (device partitions + tenants),
  /// then the replica map.
  std::string describe() const;

 private:
  struct Member {
    std::unique_ptr<engine::FpgaSimDevice> device;
    std::unique_ptr<engine::InferenceServer> server;
    /// Rejected offers since the last accepted one (guarded by mutex_).
    std::uint64_t consecutive_rejects = 0;
  };

  /// True when the replica should be skipped on the first routing pass.
  bool replica_suspect_locked(const ReplicaLocation& location) const;

  /// The two-pass health-aware offer loop shared by the dense and sparse
  /// submit paths. `submit` offers the request to one member's server
  /// (nullopt on rejection, NoHealthyEngineError when the member's
  /// engines are all quarantined).
  std::optional<std::future<std::vector<double>>> route_locked(
      const std::string& id, std::size_t sample_count,
      const std::function<std::optional<std::future<std::vector<double>>>(
          engine::InferenceServer&)>& submit);

  /// Resolves a model reference (lane id "name@version" with optional
  /// query-kind suffix, or unambiguous bare name within one kind)
  /// against the deployed replicas; throws RuntimeApiError.
  std::string resolve_model_locked(const std::string& ref) const;
  /// Member with the most free PE slots (ties: lowest index).
  std::size_t pick_member_locked() const;
  ReplicaLocation deploy_locked(model::ModelHandle model, int pe_slots);
  void undeploy_locked(const std::string& model_id);
  std::uint64_t model_samples_total(const std::string& model_id) const;

  FleetConfig config_;
  mutable std::mutex mutex_;
  std::vector<Member> members_;
  /// lane id (model id + query-kind suffix) -> replicas, in deployment
  /// order; the same keys the member servers use for their lanes.
  std::map<std::string, std::vector<ReplicaLocation>> replicas_;
  /// lane id -> artifact (kept for input_features and redeploys).
  std::map<std::string, model::ModelHandle> artifacts_;
  /// lane id -> round-robin cursor for routing.
  std::map<std::string, std::size_t> rr_;
  /// model id -> "server.model.<id>.samples" reading at the last
  /// rebalance (or first deploy), so deltas ignore pre-fleet history.
  std::map<std::string, std::uint64_t> sample_baseline_;
  std::uint64_t next_partition_ = 0;
  FleetStats stats_;
  bool started_ = false;
};

}  // namespace spnhbm::fleet
