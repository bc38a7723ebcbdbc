#include "spnhbm/engine/fpga_device.hpp"

#include <utility>

#include "spnhbm/util/strings.hpp"

namespace spnhbm::engine {

FpgaSimDevice::FpgaSimDevice(FpgaDeviceConfig config)
    : config_(std::move(config)), partitions_(config_.budget) {
  SPNHBM_REQUIRE(!config_.name.empty(), "device needs a name");
}

FpgaSimEngine& FpgaSimDevice::add_tenant(const std::string& partition,
                                         ModelHandle model, int pe_slots) {
  SPNHBM_REQUIRE(model != nullptr, "add_tenant requires a model");
  std::lock_guard<std::mutex> lock(mutex_);
  // Reserve first: a tenant that does not fit must fail with the
  // per-resource deficits before any engine state exists.
  const fpga::Partition& reserved = partitions_.reserve(
      partition, model->module(), model->backend().kind(), pe_slots);

  FpgaEngineConfig engine_config;
  engine_config.platform = fpga::Platform::kHbmXupVvh;
  engine_config.pe_count = reserved.pe_slots;
  engine_config.threads_per_pe = config_.threads_per_pe;
  engine_config.pcie_generation = config_.pcie_generation;
  engine_config.include_transfers = config_.include_transfers;
  engine_config.compute_results = config_.compute_results;
  // The table already placement-checked the *combined* design (shared
  // shell + every tenant); re-checking the tenant alone against the full
  // budget would be both redundant and too lenient.
  engine_config.skip_placement_check = true;
  engine_config.partition_bitstream_fraction =
      partitions_.bitstream_fraction(partition);
  engine_config.partition_label = config_.name + "/" + partition;
  engine_config.charge_initial_program = true;

  std::shared_ptr<FpgaSimEngine> engine;
  try {
    engine = std::make_shared<FpgaSimEngine>(std::move(model), engine_config);
  } catch (...) {
    partitions_.release(partition);
    throw;
  }
  stats_.tenants_added += 1;
  stats_.reconfiguration_seconds += engine->stats().reconfiguration_seconds;
  auto [it, inserted] = tenants_.emplace(partition, std::move(engine));
  SPNHBM_REQUIRE(inserted, "partition table admitted a duplicate partition");
  return *it->second;
}

void FpgaSimDevice::evict_tenant(const std::string& partition) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = tenants_.find(partition);
  if (it == tenants_.end()) {
    throw PlacementError(
        strformat("device %s has no tenant in partition '%s'",
                  config_.name.c_str(), partition.c_str()));
  }
  // Blanking a partition streams the same partial bitstream through the
  // ICAP as programming it; charge it to the device before the tenant's
  // timeline disappears with its engine.
  stats_.reconfiguration_seconds +=
      partial_program_seconds(partitions_.bitstream_fraction(partition));
  stats_.tenants_evicted += 1;
  tenants_.erase(it);
  partitions_.release(partition);
}

bool FpgaSimDevice::has_tenant(const std::string& partition) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return tenants_.count(partition) > 0;
}

FpgaSimEngine& FpgaSimDevice::tenant(const std::string& partition) {
  return *tenant_engine(partition);
}

std::shared_ptr<FpgaSimEngine> FpgaSimDevice::tenant_engine(
    const std::string& partition) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = tenants_.find(partition);
  if (it == tenants_.end()) {
    throw PlacementError(
        strformat("device %s has no tenant in partition '%s'",
                  config_.name.c_str(), partition.c_str()));
  }
  return it->second;
}

std::vector<std::string> FpgaSimDevice::tenant_partitions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(tenants_.size());
  for (const auto& [name, engine] : tenants_) names.push_back(name);
  return names;
}

std::size_t FpgaSimDevice::tenant_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return tenants_.size();
}

int FpgaSimDevice::free_pe_slots() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return partitions_.free_pe_slots();
}

int FpgaSimDevice::free_channels() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return partitions_.free_channels();
}

FpgaDeviceStats FpgaSimDevice::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::string FpgaSimDevice::describe() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string text = strformat("device %s: %zu tenant(s)\n",
                               config_.name.c_str(), tenants_.size());
  text += partitions_.describe();
  for (const auto& [name, engine] : tenants_) {
    text += strformat("  %s serves %s\n", name.c_str(),
                      engine->loaded_model()->id().c_str());
  }
  return text;
}

double FpgaSimDevice::partial_program_seconds(double fraction) const {
  return fpga::cal::kBitstreamBytesHbm * fraction /
         fpga::cal::kIcapBytesPerSecond;
}

}  // namespace spnhbm::engine
