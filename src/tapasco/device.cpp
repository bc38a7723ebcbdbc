#include "spnhbm/tapasco/device.hpp"

#include <string>
#include <utility>

#include "spnhbm/fault/fault.hpp"

namespace spnhbm::tapasco {

Device::Device(sim::ProcessRunner& runner,
               const compiler::DatapathModule& module,
               const arith::ArithBackend& backend, CompositionConfig config,
               std::string card)
    : runner_(runner), config_(config) {
  // Typed front-door validation: the autotuner probes the edges of this
  // space on purpose, so out-of-range knobs must be catchable rejections,
  // not logic errors or silently "fixed up" values.
  if (config_.pe_count < 1) {
    throw ConfigError("composition needs at least one PE, got " +
                      std::to_string(config_.pe_count));
  }
  if (config_.hbm_pes_per_channel < 1) {
    throw ConfigError("hbm_pes_per_channel must be >= 1, got " +
                      std::to_string(config_.hbm_pes_per_channel));
  }
  if (!config_.skip_placement_check) {
    fpga::DesignSpec spec;
    spec.platform = config_.platform;
    spec.pe_count = config_.pe_count;
    spec.memory_controllers = config_.memory_channels;
    fpga::check_placement(module, backend.kind(), spec);
  }

  auto& scheduler = runner.scheduler();
  pcie::DmaEngineConfig dma_config =
      pcie::dma_config_for_generation(config_.pcie_generation);
  if (config_.platform == fpga::Platform::kF1) {
    // AWS EDMA class engine: slower streaming rate than XDMA.
    dma_config.engine_bandwidth =
        Bandwidth::gbit_per_second(fpga::cal::kF1DmaGbps);
  }
  dma_ = std::make_unique<pcie::DmaEngine>(scheduler, dma_config,
                                           std::move(card));

  fpga::AcceleratorConfig accel_config;
  accel_config.compute_results = config_.compute_results;

  if (config_.platform == fpga::Platform::kHbmXupVvh) {
    const int channels_needed =
        (config_.pe_count + config_.hbm_pes_per_channel - 1) /
        config_.hbm_pes_per_channel;
    if (channels_needed > 32) {
      throw ConfigError(std::to_string(config_.pe_count) + " PE(s) at " +
                        std::to_string(config_.hbm_pes_per_channel) +
                        " per channel need " +
                        std::to_string(channels_needed) +
                        " HBM channels; the device has 32");
    }
    hbm::HbmDeviceConfig hbm_config;
    hbm_config.crossbar_enabled = config_.hbm_crossbar;
    hbm_ = std::make_unique<hbm::HbmDevice>(scheduler, hbm_config);
    for (int i = 0; i < config_.pe_count; ++i) {
      // PE -> register slice -> SmartConnect (clock/width/protocol
      // conversion) -> HBM channel (paper §IV-A). With the default
      // packing of one PE per channel this is the paper's dedicated
      // channel; packed PEs share their channel's port and therefore
      // serialise on its bandwidth.
      const std::size_t channel = channel_of(static_cast<std::size_t>(i));
      smart_connects_.push_back(std::make_unique<axi::SmartConnect>(
          scheduler, hbm_->port(channel)));
      register_slices_.push_back(std::make_unique<axi::RegisterSlice>(
          scheduler, *smart_connects_.back()));
      accel_config.label = "pe" + std::to_string(i);
      accelerators_.push_back(std::make_unique<fpga::SpnAccelerator>(
          runner, module, backend, *register_slices_.back(),
          &hbm_->channel(channel), accel_config));
    }
  } else {
    SPNHBM_REQUIRE(config_.memory_channels >= 1 &&
                       config_.memory_channels <= fpga::cal::kF1MaxMemoryChannels,
                   "F1 supports 1..4 DDR channels");
    accel_config.clock = ClockDomain(fpga::cal::kF1PeClockHz);
    accel_config.compute_results = false;  // DDR model is timing-only
    for (int c = 0; c < config_.memory_channels; ++c) {
      ddr_channels_.push_back(std::make_unique<ddr::DdrChannel>(scheduler));
    }
    for (int i = 0; i < config_.pe_count; ++i) {
      auto& channel =
          *ddr_channels_[static_cast<std::size_t>(i) % ddr_channels_.size()];
      register_slices_.push_back(std::make_unique<axi::RegisterSlice>(
          scheduler, channel.port()));
      accel_config.label = "pe" + std::to_string(i);
      accelerators_.push_back(std::make_unique<fpga::SpnAccelerator>(
          runner, module, backend, *register_slices_.back(), nullptr,
          accel_config));
    }
  }
}

fpga::SpnAccelerator& Device::pe(std::size_t index) {
  SPNHBM_REQUIRE(index < accelerators_.size(), "PE index out of range");
  return *accelerators_[index];
}

hbm::HbmChannel* Device::backing_channel(std::size_t pe_index) {
  SPNHBM_REQUIRE(pe_index < accelerators_.size(), "PE index out of range");
  if (!hbm_) return nullptr;
  return &hbm_->channel(channel_of(pe_index));
}

std::size_t Device::channel_of(std::size_t pe_index) const {
  return pe_index / static_cast<std::size_t>(config_.hbm_pes_per_channel);
}

std::uint64_t Device::channel_address(std::size_t pe_index,
                                      std::uint64_t address) const {
  if (!hbm_) return address;
  const auto slot =
      pe_index % static_cast<std::size_t>(config_.hbm_pes_per_channel);
  return address + slot * memory_capacity_per_pe();
}

std::uint64_t Device::memory_capacity_per_pe() const {
  if (hbm_) {
    // Packed PEs split their channel's 256 MiB region into equal slices.
    return hbm_->channel(0).config().capacity_bytes /
           static_cast<std::uint64_t>(config_.hbm_pes_per_channel);
  }
  return ddr_channels_.front()->config().capacity_bytes /
         static_cast<std::uint64_t>(config_.pe_count);
}

sim::Task<void> Device::dma_and_channel(std::size_t pe_index,
                                        std::uint64_t address,
                                        std::uint64_t bytes, bool to_device) {
  // The stream occupies the DMA engine and the destination memory channel
  // concurrently; completion is bounded by the slower of the two. Failed
  // transfers (injected faults) are re-queued by this driver layer, up to
  // a bounded retry budget.
  constexpr int kMaxDmaAttempts = 8;
  SPNHBM_REQUIRE(pe_index < accelerators_.size(), "PE index out of range");
  auto& accel_port =
      hbm_ ? hbm_->channel(channel_of(pe_index)).port()
           : ddr_channels_[pe_index % ddr_channels_.size()]->port();
  const pcie::Direction direction = to_device
                                        ? pcie::Direction::kHostToDevice
                                        : pcie::Direction::kDeviceToHost;
  for (int attempt = 1;; ++attempt) {
    sim::Process channel_side =
        runner_.spawn([&accel_port, address, bytes, to_device]() -> sim::Process {
          co_await axi::linear_transfer(accel_port, address, bytes, to_device);
        });
    std::exception_ptr failure;
    try {
      co_await dma_->transfer(bytes, direction);
    } catch (const pcie::DmaError&) {
      failure = std::current_exception();
    }
    try {
      co_await channel_side.join();
    } catch (const hbm::HbmEccError&) {
      // ECC-detected corruption on the memory side. A write stream can be
      // re-queued here — the data is re-sent and overwrites the corrupted
      // line. A read cannot: only re-running the producing job recomputes
      // the data, so read-side ECC errors propagate to the host runtime.
      if (!to_device) throw;
      if (!failure) failure = std::current_exception();
    }
    if (!failure) co_return;
    if (attempt >= kMaxDmaAttempts) std::rethrow_exception(failure);
  }
}

sim::Task<void> Device::copy_to_device(std::size_t pe_index,
                                       std::uint64_t address,
                                       std::uint64_t bytes,
                                       std::span<const std::uint8_t> data) {
  SPNHBM_REQUIRE(data.empty() || data.size() == bytes,
                 "copy data does not match the byte count");
  const std::uint64_t device_address = channel_address(pe_index, address);
  co_await dma_and_channel(pe_index, device_address, bytes, true);
  if (hbm_ && !data.empty()) {
    hbm_->channel(channel_of(pe_index)).write_backdoor(device_address, data);
  }
}

sim::Task<void> Device::copy_from_device(std::size_t pe_index,
                                         std::uint64_t address,
                                         std::uint64_t bytes,
                                         std::span<std::uint8_t> out) {
  SPNHBM_REQUIRE(out.empty() || out.size() == bytes,
                 "copy buffer does not match the byte count");
  const std::uint64_t device_address = channel_address(pe_index, address);
  co_await dma_and_channel(pe_index, device_address, bytes, false);
  if (hbm_ && !out.empty()) {
    hbm_->channel(channel_of(pe_index)).read_backdoor(device_address, out);
  }
}

sim::Task<void> Device::launch(std::size_t pe_index,
                               std::uint64_t input_address,
                               std::uint64_t output_address,
                               std::uint64_t samples,
                               std::uint64_t input_bytes) {
  auto& scheduler = runner_.scheduler();
  fpga::SpnAccelerator& accelerator = pe(pe_index);
  if (fault::injector().armed()) {
    const fault::FaultDecision decision = fault::injector().decide(
        "pe.launch", "pe" + std::to_string(pe_index));
    switch (decision.kind) {
      case fault::FaultKind::kFail:
      case fault::FaultKind::kCorrupt:
        // Rejected before any register is touched: nothing to clean up.
        throw PeLaunchError("pe" + std::to_string(pe_index) +
                            " rejected job launch (injected)");
      case fault::FaultKind::kStall:
      case fault::FaultKind::kDelay:
      case fault::FaultKind::kHang:
        // Slow doorbell path (interrupt storm / driver contention).
        co_await sim::delay(scheduler, microseconds(decision.duration_us));
        break;
      case fault::FaultKind::kNone:
        break;
    }
  }
  // AXI4-Lite register writes + doorbell. The PE addresses its channel
  // slice directly, so the host driver writes translated addresses.
  co_await sim::delay(scheduler, fpga::cal::kJobLaunchOverhead / 2);
  accelerator.write_register(fpga::Reg::kInputAddress,
                             channel_address(pe_index, input_address));
  accelerator.write_register(fpga::Reg::kOutputAddress,
                             channel_address(pe_index, output_address));
  accelerator.write_register(fpga::Reg::kSampleCount, samples);
  // Always written: a stale non-zero value from a previous sparse job
  // must not turn a dense launch sparse.
  accelerator.write_register(fpga::Reg::kInputBytes, input_bytes);
  accelerator.write_register(fpga::Reg::kControl, 1);
  co_await accelerator.wait_done();
  // Completion interrupt + handler.
  co_await sim::delay(scheduler, fpga::cal::kJobLaunchOverhead / 2);
}

std::uint64_t Device::query_config(std::size_t pe_index,
                                   fpga::ConfigQuery query) {
  fpga::SpnAccelerator& accelerator = pe(pe_index);
  accelerator.write_register(fpga::Reg::kSampleCount,
                             static_cast<std::uint64_t>(query));
  accelerator.write_register(fpga::Reg::kControl, 2);
  return accelerator.read_register(fpga::Reg::kReturnValue);
}

}  // namespace spnhbm::tapasco
