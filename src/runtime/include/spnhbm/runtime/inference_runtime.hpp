// The multi-threaded host runtime (paper §IV-B).
//
// Splits an inference job into sub-jobs of `block_samples` samples and
// drives them with `threads_per_pe` control threads per accelerator.
// Each control thread loops:
//
//   1. stage the block into a pinned DMA buffer (host memcpy),
//   2. DMA the inputs into the PE's HBM channel,
//   3. launch the PE and wait for its completion interrupt,
//   4. DMA the results back and unstage them.
//
// With two threads per PE, thread B performs transfers for block n+1 while
// thread A waits on the computation of block n — the transfer/compute
// overlap scheme of the paper and [8]. Device buffers are double-buffered
// per control thread through the thread-safe DeviceMemoryManager.
//
// Control threads are virtual-time actors here (the runtime logic is
// identical; the scheduling substrate is the DES instead of pthreads).
#pragma once

#include <cstdint>
#include <vector>

#include "spnhbm/fpga/calibration.hpp"
#include "spnhbm/runtime/memory_manager.hpp"
#include "spnhbm/tapasco/device.hpp"
#include "spnhbm/telemetry/trace.hpp"

namespace spnhbm::runtime {

struct RuntimeConfig {
  std::size_t block_samples = fpga::cal::kDefaultBlockSamples;
  int threads_per_pe = 1;
  /// Include host<->device transfers (paper Fig. 4 right) or measure
  /// on-device computation only (Fig. 4 left).
  bool include_transfers = true;
  /// Model the host-side staging copy into pinned buffers.
  bool model_host_staging = true;
};

struct RunStats {
  std::uint64_t samples = 0;
  Picoseconds elapsed = 0;
  double samples_per_second = 0.0;
  std::uint64_t blocks = 0;
  double dma_utilisation = 0.0;
  std::uint64_t dma_bytes = 0;

  std::string describe() const;
};

class InferenceRuntime {
 public:
  /// Queries each PE's synthesis-time configuration (second execution
  /// mode) and verifies it against the compiled module.
  InferenceRuntime(sim::ProcessRunner& runner, tapasco::Device& device,
                   const compiler::DatapathModule& module,
                   RuntimeConfig config = {});

  const RuntimeConfig& config() const { return config_; }
  DeviceMemoryManager& memory() { return memory_; }

  /// Timing run: processes `total_samples` spread over all PEs and returns
  /// end-to-end statistics. Drives the simulation to completion.
  RunStats run(std::uint64_t total_samples);

  /// Functional end-to-end inference of real samples (row-major bytes,
  /// one row per sample): returns one result per sample (joint density,
  /// marginal, or max-product value depending on the module's query),
  /// computed by the accelerators through the full copy/launch/readback
  /// path.
  std::vector<double> infer(std::span<const std::uint8_t> samples);

  /// Functional inference over a CSR sparse-evidence stream of
  /// `sample_count` samples (see compiler/sparse_evidence.hpp for the
  /// layout). Only the stream's bytes cross PCIe and the PE's HBM
  /// channel — the bandwidth saving sparse queries exist for.
  std::vector<double> infer_sparse(std::span<const std::uint8_t> stream,
                                   std::size_t sample_count);

 private:
  struct BlockCursor {
    std::uint64_t next_block = 0;
    std::uint64_t block_count = 0;
    std::uint64_t total_samples = 0;
  };

  sim::Process control_thread(std::size_t pe_index, BlockCursor& cursor,
                              sim::Resource& pe_lock,
                              telemetry::TrackId track);

  sim::ProcessRunner& runner_;
  tapasco::Device& device_;
  /// Throws unless `byte` lies inside every lookup table of `feature`.
  void check_byte(std::uint8_t byte, std::size_t feature) const;

  const compiler::DatapathModule& module_;
  RuntimeConfig config_;
  DeviceMemoryManager memory_;
  /// Per feature: how many byte values all of its lookup tables cover.
  /// Inputs are checked against it on the host, before any bytes move,
  /// so a bad byte never fails inside the simulated device.
  std::vector<std::size_t> byte_domain_;
};

}  // namespace spnhbm::runtime
