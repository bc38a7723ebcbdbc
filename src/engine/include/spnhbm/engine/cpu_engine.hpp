// InferenceEngine adapter over the native vectorised CPU baseline.
//
// submit() hands the batch to a helper thread (std::async), so a driver
// can overlap staging of the next batch with compute of the current one —
// the same overlap idea the FPGA runtime gets from its control threads.
// wait() joins the helper and charges the measured wall time to the
// engine's stats.
#pragma once

#include <future>
#include <map>
#include <memory>

#include "spnhbm/baselines/cpu_engine.hpp"
#include "spnhbm/engine/engine.hpp"

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
  /// Cheap swap: rebuilds the native evaluator over the next artifact.
  /// No batch may be pending.
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

  std::size_t threads() const { return native_->threads(); }

 private:
  void refresh_capabilities();

  ModelHandle model_;
  CpuEngineConfig config_;
  std::unique_ptr<baselines::CpuInferenceEngine> native_;
  EngineCapabilities capabilities_;
  EngineStats stats_;
  telemetry::Histogram batch_latency_us_;
  BatchHandle next_handle_ = 1;
  /// In-flight batches: handle -> wall-seconds future.
  std::map<BatchHandle, std::future<double>> pending_;
};

}  // namespace spnhbm::engine
