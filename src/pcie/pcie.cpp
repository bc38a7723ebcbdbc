#include "spnhbm/pcie/pcie.hpp"

#include <utility>

#include "spnhbm/fault/fault.hpp"
#include "spnhbm/util/log.hpp"

namespace spnhbm::pcie {

PcieGeneration pcie_generation(int generation) {
  switch (generation) {
    case 3:
      return {3, Bandwidth::gb_per_second(15.754),
              Bandwidth::gbit_per_second(100.0)};  // 11.64 GiB/s
    case 4:
      return {4, Bandwidth::gb_per_second(31.508),
              Bandwidth::gib_per_second(23.0)};
    case 5:
      return {5, Bandwidth::gb_per_second(63.015),
              Bandwidth::gib_per_second(46.0)};
    case 6:
      return {6, Bandwidth::gb_per_second(126.03),
              Bandwidth::gib_per_second(92.0)};
    default:
      throw Error("unsupported PCIe generation");
  }
}

DmaEngineConfig dma_config_for_generation(int generation) {
  DmaEngineConfig config;
  config.engine_bandwidth = pcie_generation(generation).practical;
  return config;
}

DmaEngine::DmaEngine(sim::Scheduler& scheduler, DmaEngineConfig config,
                     std::string card)
    : scheduler_(scheduler),
      config_(config),
      engine_(scheduler, 1),
      card_(std::move(card)) {
  track_ = telemetry::tracer().register_track("pcie/dma",
                                              telemetry::TraceClock::kVirtual);
  auto& registry = telemetry::metrics();
  ctr_transfers_ = registry.counter("pcie.transfers");
  ctr_bytes_h2d_ = registry.counter("pcie.bytes_h2d");
  ctr_bytes_d2h_ = registry.counter("pcie.bytes_d2h");
  ctr_failures_ = registry.counter("pcie.failed_transfers");
}

sim::Task<void> DmaEngine::transfer(std::uint64_t bytes, Direction direction) {
  SPNHBM_REQUIRE(bytes > 0, "empty DMA transfer");
  // Injected transfer faults: decided up front (so the op index is the
  // transfer's issue order), applied after the engine time is consumed —
  // a failed transfer still burnt its descriptor slot and link time.
  fault::FaultDecision injected;
  if (fault::injector().armed()) {
    injected = fault::injector().decide("pcie.dma", card_);
    if (injected.kind != fault::FaultKind::kNone) {
      // Annotate the fault onto the DMA lane at issue time: stalls show
      // up ahead of the stretched h2d/d2h span, fail/corrupt ahead of the
      // aborted transfer's DmaError.
      telemetry::tracer().instant_virtual(
          track_, fault::trace_label(injected.kind), scheduler_.now());
    }
  }
  // Setup (descriptor + doorbell): latency only, overlappable across
  // transfers.
  co_await sim::delay(scheduler_, config_.setup_latency);
  co_await engine_.acquire();
  const Picoseconds start = scheduler_.now();
  const Picoseconds occupancy =
      config_.engine_bandwidth.transfer_time(bytes) +
      config_.per_transfer_overhead +
      (injected.kind == fault::FaultKind::kStall ||
               injected.kind == fault::FaultKind::kDelay ||
               injected.kind == fault::FaultKind::kHang
           ? microseconds(injected.duration_us)
           : 0);
  busy_time_ += occupancy;
  ++transfers_;
  ctr_transfers_->add(1);
  if (direction == Direction::kHostToDevice) {
    bytes_to_device_ += bytes;
    ctr_bytes_h2d_->add(bytes);
  } else {
    bytes_to_host_ += bytes;
    ctr_bytes_d2h_->add(bytes);
  }
  co_await sim::delay(scheduler_, occupancy);
  engine_.release();
  telemetry::tracer().complete_virtual(
      track_, direction == Direction::kHostToDevice ? "h2d" : "d2h", start,
      scheduler_.now());
  // Continue a traced request's flow chain through its DMA transfers
  // (the worker thread driving the DES publishes the trace id).
  if (const std::uint64_t trace_id = current_trace_id()) {
    telemetry::tracer().flow_virtual(track_, "request", 't', trace_id, start);
  }
  if (injected.kind == fault::FaultKind::kFail ||
      injected.kind == fault::FaultKind::kCorrupt) {
    // The transfer consumed engine time but delivered a CRC/abort error;
    // the host driver must re-queue it.
    ++failed_transfers_;
    ctr_failures_->add(1);
    throw DmaError("transfer aborted (injected fault)");
  }
}

}  // namespace spnhbm::pcie
