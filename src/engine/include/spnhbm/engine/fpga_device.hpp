// A spatially partitioned simulated FPGA card hosting several tenants.
//
// The classic flow (one FpgaSimEngine = one card = one model) swaps the
// *whole* bitstream to change models. FpgaSimDevice refactors that into
// "one device = a partitioned set of datapaths": a PartitionTable divides
// the card's fabric into named partitions (disjoint PE slots + disjoint
// HBM channels, placement-checked against the Table I budgets), and each
// partition hosts one tenant — a FpgaSimEngine composed with exactly that
// partition's PEs and channels.
//
// Adding a tenant partially reconfigures only its partition: the engine
// is constructed with charge_initial_program, so its virtual timeline
// starts with partition_bitstream_fraction of the full bitstream through
// the ICAP plus the tenant's lookup-table staging over the DMA path.
// Evicting a tenant streams the same partial (blanking) bitstream and
// frees the partition. Neither touches any other tenant: partitions share
// no queue (disjoint channels, §II-B), so every co-resident tenant owns
// an independent virtual timeline and keeps serving throughout — the
// whole-device bitstream swap of the single-tenant flow is gone.
//
// Threading: the device's partition bookkeeping is mutex-guarded (the
// fleet router adds/evicts tenants while servers run), but each tenant
// engine keeps the engine-layer contract — NOT thread-safe, driven by
// exactly one InferenceServer worker thread. Callers must retire a
// tenant's engine from its server before evicting the tenant.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "spnhbm/engine/fpga_engine.hpp"
#include "spnhbm/fpga/partition.hpp"

namespace spnhbm::engine {

struct FpgaDeviceConfig {
  /// Device identity; tenant engines report "<name>/<partition>".
  std::string name = "fpga0";
  /// Discrete fabric budgets to partition (defaults model the XUP-VVH).
  fpga::PartitionBudget budget;
  int pcie_generation = 3;
  int threads_per_pe = 1;
  bool include_transfers = true;
  bool compute_results = true;
};

/// Cumulative partial-reconfiguration accounting for one device.
struct FpgaDeviceStats {
  std::uint64_t tenants_added = 0;
  std::uint64_t tenants_evicted = 0;
  /// Virtual seconds of partial reconfiguration charged by add/evict
  /// (each tenant's add charge also appears in its engine's stats()).
  double reconfiguration_seconds = 0.0;
};

class FpgaSimDevice {
 public:
  explicit FpgaSimDevice(FpgaDeviceConfig config = {});

  /// Admits `model` into a new partition of `pe_slots` PEs. Reserves the
  /// partition (throws fpga::PlacementDeficitError with per-resource
  /// required-vs-available when the tenant does not fit, leaving every
  /// existing tenant untouched), then constructs the tenant engine with
  /// the partial-reconfiguration charge on its virtual timeline. The
  /// returned reference stays valid until evict_tenant(partition).
  FpgaSimEngine& add_tenant(const std::string& partition, ModelHandle model,
                            int pe_slots);

  /// Destroys the tenant engine and frees its partition, charging the
  /// partial (blanking) bitstream to the device's reconfiguration
  /// accounting. The engine must no longer be driven by any server
  /// worker. Throws fpga::PlacementError for an unknown partition.
  void evict_tenant(const std::string& partition);

  bool has_tenant(const std::string& partition) const;
  /// Throws fpga::PlacementError for an unknown partition.
  FpgaSimEngine& tenant(const std::string& partition);
  /// Shared handle on the tenant's engine, for registering it with an
  /// InferenceServer. The handle keeps the engine alive across an evict
  /// (so a late retire cannot dangle), but the partition itself is freed
  /// at evict time — retire from the server first.
  std::shared_ptr<FpgaSimEngine> tenant_engine(const std::string& partition);
  /// Partition names, sorted.
  std::vector<std::string> tenant_partitions() const;
  std::size_t tenant_count() const;

  const std::string& name() const { return config_.name; }
  int free_pe_slots() const;
  int free_channels() const;
  FpgaDeviceStats stats() const;
  /// Device header plus one line per partition (PE slots, channels,
  /// fabric cost) and the free budgets.
  std::string describe() const;

 private:
  /// Virtual seconds to stream `fraction` of the full bitstream.
  double partial_program_seconds(double fraction) const;

  FpgaDeviceConfig config_;
  mutable std::mutex mutex_;
  fpga::PartitionTable partitions_;
  std::map<std::string, std::shared_ptr<FpgaSimEngine>> tenants_;
  FpgaDeviceStats stats_;
};

}  // namespace spnhbm::engine
