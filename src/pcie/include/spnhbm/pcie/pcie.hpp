// PCIe link + DMA engine model — the bottleneck the paper's evaluation
// identifies (§V-B/V-C).
//
// Host<->device block transfers go through a single DMA engine (the
// TaPaSCo platform DMA): descriptors for both directions are serviced from
// one FIFO queue, so the *aggregate* H2D+D2H throughput is capped by the
// engine's streaming rate — ~100 Gb/s-class for PCIe 3.0 x16 engines like
// XDMA/Corundum (11.64 GiB/s), per the paper's §V-C discussion. Each
// transfer additionally pays a setup latency (descriptor write, doorbell,
// completion interrupt) that does *not* occupy the engine.
//
// Link generations 3.0-6.0 are configurable to reproduce the paper's
// forward-looking scaling discussion.
#pragma once

#include <cstdint>
#include <string>

#include "spnhbm/sim/channel.hpp"
#include "spnhbm/sim/scheduler.hpp"
#include "spnhbm/sim/task.hpp"
#include "spnhbm/telemetry/metrics.hpp"
#include "spnhbm/telemetry/trace.hpp"
#include "spnhbm/util/error.hpp"
#include "spnhbm/util/units.hpp"

namespace spnhbm::pcie {

enum class Direction { kHostToDevice, kDeviceToHost };

struct PcieGeneration {
  int generation = 3;
  /// Theoretical one-direction bandwidth of an x16 link.
  Bandwidth theoretical;
  /// Practical one-direction DMA-engine streaming rate.
  Bandwidth practical;
};

/// The paper's §V-C numbers: 15.754 GB/s theoretical / ~11.64 GiB/s
/// practical for 3.0, then ~23 / 46 / 92 GiB/s practical for 4.0/5.0/6.0.
PcieGeneration pcie_generation(int generation);

struct DmaEngineConfig {
  /// Aggregate streaming rate of the engine (both directions share it).
  Bandwidth engine_bandwidth = Bandwidth::gbit_per_second(100.0);
  /// Descriptor setup + doorbell + completion latency per transfer
  /// (pipelined: does not occupy the engine).
  Picoseconds setup_latency = microseconds(40);
  /// Engine-occupying per-transfer overhead (descriptor fetch, TLP
  /// framing ramp).
  Picoseconds per_transfer_overhead = microseconds(12);
};

/// Thrown by DmaEngine::transfer when a `pcie.dma` fault-plan rule aborts
/// the transfer (link CRC error / descriptor abort); the driver re-queues.
class DmaError : public Error {
 public:
  explicit DmaError(const std::string& what) : Error("DMA error: " + what) {}
};

DmaEngineConfig dma_config_for_generation(int generation);

class DmaEngine {
 public:
  /// `card` names the card this engine belongs to: it is the `pcie.dma`
  /// fault-site instance, so each card keeps its own op counter.
  DmaEngine(sim::Scheduler& scheduler, DmaEngineConfig config = {},
            std::string card = "dma");

  const DmaEngineConfig& config() const { return config_; }

  /// Moves `bytes` across the link; completes when the transfer is done.
  sim::Task<void> transfer(std::uint64_t bytes, Direction direction);

  std::uint64_t bytes_to_device() const { return bytes_to_device_; }
  std::uint64_t bytes_to_host() const { return bytes_to_host_; }
  Picoseconds busy_time() const { return busy_time_; }
  std::uint64_t transfers() const { return transfers_; }
  std::uint64_t failed_transfers() const { return failed_transfers_; }

  /// Engine utilisation over an observation window.
  double utilisation(Picoseconds window) const {
    return window > 0 ? static_cast<double>(busy_time_) /
                            static_cast<double>(window)
                      : 0.0;
  }

 private:
  sim::Scheduler& scheduler_;
  DmaEngineConfig config_;
  sim::Resource engine_;
  std::string card_;
  telemetry::TrackId track_ = 0;
  std::shared_ptr<telemetry::Counter> ctr_transfers_;
  std::shared_ptr<telemetry::Counter> ctr_bytes_h2d_;
  std::shared_ptr<telemetry::Counter> ctr_bytes_d2h_;
  std::shared_ptr<telemetry::Counter> ctr_failures_;
  std::uint64_t bytes_to_device_ = 0;
  std::uint64_t bytes_to_host_ = 0;
  Picoseconds busy_time_ = 0;
  std::uint64_t transfers_ = 0;
  std::uint64_t failed_transfers_ = 0;
};

}  // namespace spnhbm::pcie
