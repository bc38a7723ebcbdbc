// Native CPU inference engine (really runs on the host).
//
// The paper's CPU baseline is vectorised multi-threaded batch inference on
// a 12-core Xeon E5-2680 v3. This engine reproduces that implementation
// style: the compiled datapath's operator program is evaluated in double
// precision over *lanes* of samples simultaneously (struct-of-arrays
// layout, so the compiler auto-vectorises across the batch), with a thread
// pool splitting the batch across cores.
//
// submit() hands the batch to a helper thread (std::async), so a driver
// can overlap staging of the next batch with compute of the current one —
// the same overlap idea the FPGA runtime gets from its control threads.
// wait() joins the helper and charges the measured wall time to the
// engine's stats.
//
// Because the container this repo is built in may have any core count, the
// engine reports its own measured throughput; the paper-scale Xeon numbers
// for Fig. 6 come from baselines/reference_platforms.hpp.
#pragma once

#include <future>
#include <map>
#include <vector>

#include "spnhbm/engine/engine.hpp"
#include "spnhbm/util/thread_pool.hpp"

namespace spnhbm::engine {

struct CpuEngineConfig {
  /// 0 = std::thread::hardware_concurrency().
  std::size_t threads = 0;
};

class CpuEngine : public InferenceEngine {
 public:
  explicit CpuEngine(ModelHandle model, CpuEngineConfig config = {});

  const EngineCapabilities& capabilities() const override {
    return capabilities_;
  }
  const ModelHandle& loaded_model() const override { return model_; }
  /// Cheap swap: the next artifact's operator program runs on the same
  /// thread pool. No batch may be pending.
  void activate(ModelHandle next) override;
  BatchHandle submit(std::span<const std::uint8_t> samples,
                     std::span<double> results) override;
  /// Sparse batches densify against the module's default evidence and run
  /// the same vectorised kernel — numerically identical to the dense path
  /// (the CPU has no bandwidth model to shrink).
  BatchHandle submit_sparse(std::span<const std::uint8_t> stream,
                            std::size_t sample_count,
                            std::span<double> results) override;
  void wait(BatchHandle handle) override;
  double measure_throughput(std::uint64_t sample_count) override;
  EngineStats stats() const override {
    EngineStats stats = stats_;
    stats.batch_latency_us = batch_latency_us_.snapshot();
    return stats;
  }

  std::size_t threads() const { return pool_.worker_count(); }

 private:
  void refresh_capabilities();
  /// Evaluates every row of `samples` across the pool; blocks until done.
  void infer_rows(const compiler::DatapathModule& module,
                  std::span<const std::uint8_t> samples,
                  std::span<double> results);
  /// Runs infer_rows on a helper thread and files the batch under a new
  /// handle. The rows are `densified` when it is non-empty (the helper
  /// owns them), the caller's `samples` otherwise.
  BatchHandle launch(std::span<const std::uint8_t> samples,
                     std::vector<std::uint8_t> densified,
                     std::span<double> results);

  ModelHandle model_;
  ThreadPool pool_;
  EngineCapabilities capabilities_;
  EngineStats stats_;
  telemetry::Histogram batch_latency_us_;
  BatchHandle next_handle_ = 1;
  /// In-flight batches: handle -> wall-seconds future.
  std::map<BatchHandle, std::future<double>> pending_;
};

}  // namespace spnhbm::engine
