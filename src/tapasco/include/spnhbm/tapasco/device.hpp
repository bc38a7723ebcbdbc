// TaPaSCo-style platform composition and device API.
//
// Mirrors the open-source TaPaSCo framework the paper builds on (§IV-A):
// a *composition* instantiates N processing elements (the generated SPN
// accelerators), binds each to memory (a dedicated HBM channel via AXI
// SmartConnect + register slices on this work's platform; shared DDR4
// channels with soft controllers on the prior-work F1 platform), and
// exposes a host-side device object with copy/launch/wait primitives over
// the PCIe DMA engine.
//
// Composition runs the placement check (resource model) first — exactly
// where the real toolflow would fail in synthesis.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "spnhbm/axi/smart_connect.hpp"
#include "spnhbm/ddr/ddr.hpp"
#include "spnhbm/fpga/accelerator.hpp"
#include "spnhbm/fpga/resource_model.hpp"
#include "spnhbm/hbm/hbm.hpp"
#include "spnhbm/pcie/pcie.hpp"

namespace spnhbm::tapasco {

/// A PE refused its job launch (injected fault): the control register write
/// was rejected before the accelerator touched any data, so the job can be
/// retried on the same or another device without cleanup.
class PeLaunchError : public Error {
 public:
  explicit PeLaunchError(const std::string& what)
      : Error("PE launch error: " + what) {}
};

struct CompositionConfig {
  fpga::Platform platform = fpga::Platform::kHbmXupVvh;
  int pe_count = 1;
  /// F1 only: DDR channels/controllers composed in (1..4).
  int memory_channels = 1;
  /// HBM only: route PEs through the (slower) global crossbar.
  bool hbm_crossbar = false;
  /// HBM only: PEs sharing one channel. 1 composes the paper's
  /// dedicated-channel architecture; k > 1 packs k PEs onto each channel
  /// (they contend for its bandwidth and split its capacity), which frees
  /// channels for other tenants on a partitioned device. The autotuner
  /// searches this dimension.
  int hbm_pes_per_channel = 1;
  int pcie_generation = 3;
  /// Evaluate samples functionally (disable for timing-only sweeps).
  bool compute_results = true;
  /// Skip the placement feasibility check (used by what-if scaling
  /// studies that deliberately exceed the device, e.g. paper Fig. 5).
  bool skip_placement_check = false;
};

class Device {
 public:
  /// Composes the design; throws PlacementError if it does not fit.
  /// `card` names the card for the `pcie.dma` fault site (see DmaEngine).
  Device(sim::ProcessRunner& runner, const compiler::DatapathModule& module,
         const arith::ArithBackend& backend, CompositionConfig config,
         std::string card = "dma");

  std::size_t pe_count() const { return accelerators_.size(); }
  fpga::SpnAccelerator& pe(std::size_t index);
  pcie::DmaEngine& dma() { return *dma_; }
  const CompositionConfig& config() const { return config_; }

  /// Device address-space capacity visible to one PE (its HBM channel on
  /// this work's platform, the shared DDR on F1).
  std::uint64_t memory_capacity_per_pe() const;

  /// Moves `bytes` from the host into PE-local device memory: occupies
  /// the DMA engine and the target memory channel concurrently (the
  /// transfer streams through both), then deposits `data` (when given,
  /// exactly `bytes` long) in the backing store. Without `data` the copy
  /// is timing-only.
  sim::Task<void> copy_to_device(std::size_t pe_index, std::uint64_t address,
                                 std::uint64_t bytes,
                                 std::span<const std::uint8_t> data = {});

  /// Moves `bytes` of results back to the host, into `out` when given.
  sim::Task<void> copy_from_device(std::size_t pe_index, std::uint64_t address,
                                   std::uint64_t bytes,
                                   std::span<std::uint8_t> out = {});

  /// TaPaSCo-style job: set registers, start, wait for completion.
  /// Includes the AXI4-Lite launch + interrupt overhead. A non-zero
  /// `input_bytes` marks a sparse-evidence job: the input region holds a
  /// CSR evidence stream of that many bytes (not samples x features
  /// dense rows), and the PE's load unit bursts exactly those bytes.
  sim::Task<void> launch(std::size_t pe_index, std::uint64_t input_address,
                         std::uint64_t output_address, std::uint64_t samples,
                         std::uint64_t input_bytes = 0);

  /// Configuration read-out via the PE's second execution mode.
  std::uint64_t query_config(std::size_t pe_index, fpga::ConfigQuery query);

  /// The backing channel of a PE (HBM platform only; nullptr on F1).
  hbm::HbmChannel* backing_channel(std::size_t pe_index);
  /// Translates a PE-relative device address into the PE's slice of its
  /// (possibly shared) backing channel.
  std::uint64_t channel_address(std::size_t pe_index,
                                std::uint64_t address) const;

 private:
  /// Channel backing PE `pe_index` under the configured packing.
  std::size_t channel_of(std::size_t pe_index) const;
  sim::Task<void> dma_and_channel(std::size_t pe_index, std::uint64_t address,
                                  std::uint64_t bytes, bool to_device);

  sim::ProcessRunner& runner_;
  CompositionConfig config_;
  std::unique_ptr<hbm::HbmDevice> hbm_;
  std::vector<std::unique_ptr<ddr::DdrChannel>> ddr_channels_;
  std::vector<std::unique_ptr<axi::SmartConnect>> smart_connects_;
  std::vector<std::unique_ptr<axi::RegisterSlice>> register_slices_;
  std::vector<std::unique_ptr<fpga::SpnAccelerator>> accelerators_;
  std::unique_ptr<pcie::DmaEngine> dma_;
};

}  // namespace spnhbm::tapasco
