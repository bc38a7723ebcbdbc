#include "spnhbm/fleet/router.hpp"

#include <algorithm>
#include <utility>

#include "spnhbm/compiler/datapath.hpp"
#include "spnhbm/engine/chaos_engine.hpp"
#include "spnhbm/model/tuning.hpp"
#include "spnhbm/telemetry/metrics.hpp"
#include "spnhbm/util/strings.hpp"

namespace spnhbm::fleet {

namespace {
/// Lane id a replica serves under: the same model-id + query-kind suffix
/// keying the member servers' lanes, so router and member agree on the
/// address of every replica.
std::string lane_id_of(const model::ModelHandle& model) {
  return engine::lane_id_for(model->id(), model->module().query());
}
}  // namespace

std::string RebalanceReport::describe() const {
  std::string text = "rebalance:";
  if (sample_deltas.empty()) {
    text += " no traffic observed";
  }
  for (const auto& [model, delta] : sample_deltas) {
    text += strformat(" %s=%llu", model.c_str(),
                      static_cast<unsigned long long>(delta));
  }
  for (const auto& model : scaled_up) text += " +" + model;
  for (const auto& model : scaled_down) text += " -" + model;
  if (!changed()) text += " (steady)";
  return text;
}

std::string FleetStats::describe() const {
  return strformat(
      "fleet: routed=%llu accepted=%llu rejected=%llu samples=%llu "
      "deploys=%llu undeploys=%llu health_skips=%llu",
      static_cast<unsigned long long>(routed_requests),
      static_cast<unsigned long long>(accepted_requests),
      static_cast<unsigned long long>(rejected_requests),
      static_cast<unsigned long long>(accepted_samples),
      static_cast<unsigned long long>(deployments),
      static_cast<unsigned long long>(undeployments),
      static_cast<unsigned long long>(health_skips));
}

FleetRouter::FleetRouter(FleetConfig config) : config_(std::move(config)) {
  SPNHBM_REQUIRE(config_.devices > 0, "a fleet needs at least one device");
  SPNHBM_REQUIRE(config_.default_pe_slots > 0,
                 "default_pe_slots must be positive");
  members_.reserve(config_.devices);
  for (std::size_t i = 0; i < config_.devices; ++i) {
    engine::FpgaDeviceConfig device_config = config_.device;
    device_config.name = config_.device_prefix + std::to_string(i);
    Member member;
    member.device =
        std::make_unique<engine::FpgaSimDevice>(std::move(device_config));
    member.server = std::make_unique<engine::InferenceServer>(config_.server);
    members_.push_back(std::move(member));
  }
}

FleetRouter::~FleetRouter() { stop(); }

void FleetRouter::start() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (started_) return;
  for (auto& member : members_) member.server->start();
  started_ = true;
}

void FleetRouter::stop() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& member : members_) member.server->stop();
  started_ = false;
}

ReplicaLocation FleetRouter::deploy(model::ModelHandle model, int pe_slots) {
  SPNHBM_REQUIRE(model != nullptr, "deploy requires a model");
  std::lock_guard<std::mutex> lock(mutex_);
  if (pe_slots <= 0) {
    // Tuned models bring their own PE count; PartitionTable::reserve
    // deficit-checks it against the member's free slots/channels below,
    // so an oversized tuning fails with the usual placement rows instead
    // of being silently clamped.
    if (const auto tuning = model->tuning()) {
      pe_slots = tuning->config.pe_count;
    } else {
      pe_slots = config_.default_pe_slots;
    }
  }
  return deploy_locked(std::move(model), pe_slots);
}

ReplicaLocation FleetRouter::deploy_locked(model::ModelHandle model,
                                           int pe_slots) {
  const std::string id = lane_id_of(model);
  const std::size_t member_index = pick_member_locked();
  Member& member = members_[member_index];
  const std::string partition = "t" + std::to_string(next_partition_);

  // add_tenant reserves the partition first, so a tenant that does not
  // fit fails with its per-resource deficits and the fleet is unchanged.
  member.device->add_tenant(partition, model, pe_slots);
  std::size_t engine_index = 0;
  try {
    // The chaos decorator makes the "engine.*" fault sites apply to
    // fleet tenants exactly as they do to standalone serve engines;
    // disarmed it costs one relaxed atomic load per submit.
    engine_index = member.server->register_engine(
        std::make_shared<engine::ChaosEngine>(
            member.device->tenant_engine(partition)),
        0, member.device->name() + "/" + partition);
  } catch (...) {
    member.device->evict_tenant(partition);
    throw;
  }
  ++next_partition_;

  ReplicaLocation location{member_index, partition, engine_index};
  replicas_[id].push_back(location);
  artifacts_.emplace(id, std::move(model));
  stats_.deployments += 1;
  telemetry::metrics().counter("fleet.deployments")->add();
  telemetry::metrics()
      .gauge("fleet.model." + id + ".replicas")
      ->set(static_cast<double>(replicas_[id].size()));
  // First replica: baseline the model's global sample counter so the
  // rebalancer only sees traffic routed while the model was deployed.
  sample_baseline_.emplace(id, model_samples_total(id));
  return location;
}

void FleetRouter::undeploy_one(const std::string& model_ref) {
  std::lock_guard<std::mutex> lock(mutex_);
  undeploy_locked(resolve_model_locked(model_ref));
}

void FleetRouter::undeploy_locked(const std::string& model_id) {
  auto it = replicas_.find(model_id);
  SPNHBM_REQUIRE(it != replicas_.end() && !it->second.empty(),
                 "undeploy of a model with no replicas");
  const ReplicaLocation location = it->second.back();
  Member& member = members_[location.member];
  // Retire first (drains the engine's in-flight batches on its worker
  // thread), then evict the tenant — the reverse order would destroy an
  // engine a worker still drives.
  member.server->retire_engine(location.engine_index);
  member.device->evict_tenant(location.partition);
  it->second.pop_back();
  const std::size_t remaining = it->second.size();
  if (it->second.empty()) {
    replicas_.erase(it);
    artifacts_.erase(model_id);
    sample_baseline_.erase(model_id);
    rr_.erase(model_id);
  }
  stats_.undeployments += 1;
  telemetry::metrics().counter("fleet.undeployments")->add();
  telemetry::metrics()
      .gauge("fleet.model." + model_id + ".replicas")
      ->set(static_cast<double>(remaining));
}

std::uint64_t FleetRouter::model_samples_total(
    const std::string& model_id) const {
  return telemetry::metrics()
      .counter("server.model." + model_id + ".samples")
      ->value();
}

RebalanceReport FleetRouter::rebalance(const RebalancePolicy& policy) {
  SPNHBM_REQUIRE(policy.min_replicas >= 1, "min_replicas must be >= 1");
  SPNHBM_REQUIRE(policy.max_replicas >= policy.min_replicas,
                 "max_replicas must be >= min_replicas");
  std::lock_guard<std::mutex> lock(mutex_);
  RebalanceReport report;

  std::uint64_t total_delta = 0;
  std::map<std::string, std::uint64_t> totals;
  for (const auto& [model, locations] : replicas_) {
    const std::uint64_t total = model_samples_total(model);
    const std::uint64_t baseline = sample_baseline_[model];
    const std::uint64_t delta = total > baseline ? total - baseline : 0;
    totals[model] = total;
    report.sample_deltas[model] = delta;
    total_delta += delta;
  }
  if (total_delta == 0) return report;  // no traffic, nothing to learn

  // Scale down before scaling up, so the freed PE slots are available to
  // the hot models within the same pass.
  for (const auto& [model, delta] : report.sample_deltas) {
    const double share =
        static_cast<double>(delta) / static_cast<double>(total_delta);
    if (share <= policy.cold_share &&
        replicas_[model].size() > policy.min_replicas) {
      undeploy_locked(model);
      report.scaled_down.push_back(model);
    }
  }
  for (const auto& [model, delta] : report.sample_deltas) {
    const double share =
        static_cast<double>(delta) / static_cast<double>(total_delta);
    if (share < policy.hot_share) continue;
    auto it = replicas_.find(model);
    if (it == replicas_.end() || it->second.size() >= policy.max_replicas) {
      continue;
    }
    const std::size_t target = pick_member_locked();
    if (members_[target].device->free_pe_slots() < policy.pe_slots) {
      continue;  // fleet is full; keep serving at the current replica count
    }
    deploy_locked(artifacts_.at(model), policy.pe_slots);
    report.scaled_up.push_back(model);
  }

  // Re-baseline every surviving model so the next pass sees fresh deltas.
  for (const auto& [model, locations] : replicas_) {
    auto it = totals.find(model);
    sample_baseline_[model] =
        it != totals.end() ? it->second : model_samples_total(model);
  }
  return report;
}

std::vector<std::string> FleetRouter::served_models() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> models;
  models.reserve(replicas_.size());
  for (const auto& [model, locations] : replicas_) models.push_back(model);
  return models;  // std::map iterates sorted
}

std::size_t FleetRouter::input_features(const std::string& model) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return artifacts_.at(resolve_model_locked(model))->input_features();
}

std::size_t FleetRouter::outstanding_samples() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = 0;
  for (const auto& member : members_) {
    total += member.server->outstanding_samples();
  }
  return total;
}

std::optional<std::future<std::vector<double>>> FleetRouter::try_submit(
    const std::string& model, std::vector<std::uint8_t> samples) {
  return try_submit(model, std::move(samples), telemetry::TraceContext{});
}

bool FleetRouter::replica_suspect_locked(
    const ReplicaLocation& location) const {
  const Member& member = members_[location.member];
  if (member.server->engine_health(location.engine_index) ==
      engine::EngineHealth::kQuarantined) {
    return true;
  }
  return config_.member_suspect_threshold > 0 &&
         member.consecutive_rejects >=
             static_cast<std::uint64_t>(config_.member_suspect_threshold);
}

std::optional<std::future<std::vector<double>>> FleetRouter::try_submit(
    const std::string& model, std::vector<std::uint8_t> samples,
    const telemetry::TraceContext& trace) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::string id = resolve_model_locked(model);
  const std::size_t sample_count =
      artifacts_.at(id)->input_features() > 0
          ? samples.size() / artifacts_.at(id)->input_features()
          : 0;
  // The router only picks the member; a copy of `samples` is offered so
  // a rejection leaves it intact for the next replica.
  return route_locked(id, sample_count,
                      [&](engine::InferenceServer& server) {
                        return server.try_submit(id, samples, trace);
                      });
}

std::optional<std::future<std::vector<double>>> FleetRouter::try_submit_sparse(
    const std::string& model, std::vector<std::uint8_t> stream,
    std::size_t sample_count, const telemetry::TraceContext& trace) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::string id = resolve_model_locked(model);
  return route_locked(id, sample_count,
                      [&](engine::InferenceServer& server) {
                        return server.try_submit_sparse(id, stream,
                                                        sample_count, trace);
                      });
}

std::optional<std::future<std::vector<double>>> FleetRouter::route_locked(
    const std::string& id, std::size_t sample_count,
    const std::function<std::optional<std::future<std::vector<double>>>(
        engine::InferenceServer&)>& submit) {
  const auto& locations = replicas_.at(id);
  stats_.routed_requests += 1;
  std::size_t& cursor = rr_[id];
  std::size_t offers = 0;
  std::size_t unhealthy = 0;
  // A member whose engines are all quarantined throws
  // NoHealthyEngineError — counted as a rejection here so
  // `routed == accepted + rejected` survives, and rethrown below only
  // when every replica is in that state.
  const auto offer = [&](const ReplicaLocation& location, std::size_t advance)
      -> std::optional<std::future<std::vector<double>>> {
    Member& member = members_[location.member];
    offers += 1;
    std::optional<std::future<std::vector<double>>> future;
    try {
      future = submit(*member.server);
    } catch (const engine::NoHealthyEngineError&) {
      unhealthy += 1;
    } catch (...) {
      // The request itself is at fault (larger than the queue bound,
      // malformed) or the service is stopping: every replica would refuse
      // it alike, so book one rejection, penalise no member and rethrow.
      stats_.rejected_requests += 1;
      telemetry::metrics().counter("fleet.rejected")->add();
      throw;
    }
    if (future.has_value()) {
      member.consecutive_rejects = 0;
      cursor = (cursor + advance) % locations.size();
      stats_.accepted_requests += 1;
      stats_.accepted_samples += sample_count;
      telemetry::metrics().counter("fleet.accepted")->add();
    } else {
      member.consecutive_rejects += 1;
    }
    return future;
  };
  // Pass 1: healthy replicas only. Quarantined engines and suspect
  // members are skipped, so one dead member never eats its round-robin
  // share of the traffic.
  std::vector<std::size_t> skipped;
  for (std::size_t attempt = 0; attempt < locations.size(); ++attempt) {
    const std::size_t slot = (cursor + attempt) % locations.size();
    if (replica_suspect_locked(locations[slot])) {
      skipped.push_back(slot);
      stats_.health_skips += 1;
      telemetry::metrics().counter("fleet.health_skips")->add();
      continue;
    }
    auto future = offer(locations[slot], attempt + 1);
    if (future.has_value()) return future;
  }
  // Pass 2: last resort — offer to the replicas pass 1 skipped. A
  // quarantined engine may still probe its way back, and rejecting here
  // without asking would turn a slow member into a guaranteed loss.
  for (const std::size_t slot : skipped) {
    auto future = offer(locations[slot], 1);
    if (future.has_value()) return future;
  }
  cursor = (cursor + 1) % locations.size();
  stats_.rejected_requests += 1;
  telemetry::metrics().counter("fleet.rejected")->add();
  if (offers > 0 && unhealthy == offers) {
    throw engine::NoHealthyEngineError("all " + std::to_string(offers) +
                                       " replicas of '" + id +
                                       "' are quarantined");
  }
  return std::nullopt;
}

std::string FleetRouter::health_text() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string text;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    const Member& member = members_[i];
    const bool suspect =
        config_.member_suspect_threshold > 0 &&
        member.consecutive_rejects >=
            static_cast<std::uint64_t>(config_.member_suspect_threshold);
    text += strformat(
        "member %zu [%s%zu] consecutive_rejects=%llu%s\n", i,
        config_.device_prefix.c_str(), i,
        static_cast<unsigned long long>(member.consecutive_rejects),
        suspect ? " SUSPECT" : "");
    text += member.server->health_text();
  }
  return text;
}

std::string FleetRouter::replicas_text() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string text;
  for (const auto& [model, locations] : replicas_) {
    for (const ReplicaLocation& location : locations) {
      text += strformat("%s -> member %zu partition %s engine %zu\n",
                        model.c_str(), location.member,
                        location.partition.c_str(), location.engine_index);
    }
  }
  return text;
}

engine::FpgaSimDevice& FleetRouter::device(std::size_t member) {
  SPNHBM_REQUIRE(member < members_.size(), "fleet member out of range");
  return *members_[member].device;
}

engine::InferenceServer& FleetRouter::server(std::size_t member) {
  SPNHBM_REQUIRE(member < members_.size(), "fleet member out of range");
  return *members_[member].server;
}

std::size_t FleetRouter::replica_count(const std::string& model_ref) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = replicas_.find(model_ref);
  if (it != replicas_.end()) return it->second.size();
  // Bare-name lookups are a convenience; unknown models simply have 0.
  const auto [base, suffix] = engine::split_lane_ref(model_ref);
  for (const auto& [model, locations] : replicas_) {
    if (engine::split_lane_ref(model).second != suffix) continue;
    if (artifacts_.at(model)->name() == base) return locations.size();
  }
  return 0;
}

std::vector<ReplicaLocation> FleetRouter::replicas(
    const std::string& model_ref) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return replicas_.at(resolve_model_locked(model_ref));
}

std::uint64_t FleetRouter::member_consecutive_rejects(
    std::size_t member) const {
  std::lock_guard<std::mutex> lock(mutex_);
  SPNHBM_REQUIRE(member < members_.size(), "fleet member out of range");
  return members_[member].consecutive_rejects;
}

FleetStats FleetRouter::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::string FleetRouter::describe() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string text = strformat("fleet: %zu device(s), %zu model(s)\n",
                               members_.size(), replicas_.size());
  for (const auto& member : members_) {
    text += member.device->describe();
  }
  for (const auto& [model, locations] : replicas_) {
    text += strformat("  %s x%zu:", model.c_str(), locations.size());
    for (const auto& location : locations) {
      text += strformat(" %s/%s",
                        members_[location.member].device->name().c_str(),
                        location.partition.c_str());
    }
    text += "\n";
  }
  return text;
}

std::string FleetRouter::resolve_model_locked(const std::string& ref) const {
  if (replicas_.count(ref) > 0) return ref;
  // Bare model name, optionally kind-suffixed: match within one query
  // kind, so "m" finds the joint replicas even when marginal/MPE replicas
  // of m are deployed too.
  const auto [base, suffix] = engine::split_lane_ref(ref);
  std::string match;
  for (const auto& [model, locations] : replicas_) {
    const auto [model_base, model_suffix] = engine::split_lane_ref(model);
    (void)model_base;
    if (model_suffix != suffix) continue;
    if (artifacts_.at(model)->name() != base) continue;
    if (!match.empty()) {
      throw RuntimeApiError("model name '" + ref +
                            "' is ambiguous across versions; use name@version");
    }
    match = model;
  }
  if (match.empty()) {
    throw RuntimeApiError("no replica of model '" + ref +
                          "' is deployed in the fleet");
  }
  return match;
}

std::size_t FleetRouter::pick_member_locked() const {
  std::size_t best = 0;
  int best_free = -1;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    const int free = members_[i].device->free_pe_slots();
    if (free > best_free) {
      best = i;
      best_free = free;
    }
  }
  return best;
}

}  // namespace spnhbm::fleet
