#include "spnhbm/engine/cpu_engine.hpp"

#include <chrono>
#include <thread>
#include <utility>

#include "spnhbm/compiler/sparse_evidence.hpp"
#include "spnhbm/util/strings.hpp"

namespace spnhbm::engine {

namespace {
std::size_t resolve_threads(std::size_t requested) {
  if (requested > 0) return requested;
  return std::max(1u, std::thread::hardware_concurrency());
}
}  // namespace

CpuEngine::CpuEngine(ModelHandle model, CpuEngineConfig config)
    : model_(std::move(model)), config_(config) {
  SPNHBM_REQUIRE(model_ != nullptr, "CpuEngine requires a model");
  native_ = std::make_unique<baselines::CpuInferenceEngine>(
      model_->module(), resolve_threads(config_.threads));
  refresh_capabilities();
}

void CpuEngine::refresh_capabilities() {
  capabilities_.name = strformat("cpu-native x%zu", native_->threads());
  capabilities_.input_features = model_->module().input_features();
  capabilities_.functional = true;
  // Unknown until measured: the host's real speed depends on the machine.
  capabilities_.nominal_throughput = 0.0;
  // Big enough to amortise thread-pool dispatch, small enough to keep the
  // struct-of-arrays working set in cache.
  capabilities_.preferred_batch_samples = 8192;
}

void CpuEngine::activate(ModelHandle next) {
  SPNHBM_REQUIRE(next != nullptr, "activate requires a model");
  SPNHBM_REQUIRE(pending_.empty(), "activate with batches in flight");
  auto native = std::make_unique<baselines::CpuInferenceEngine>(
      next->module(), resolve_threads(config_.threads));
  native_ = std::move(native);
  model_ = std::move(next);
  refresh_capabilities();
  stats_.reconfigurations += 1;  // host-side swap: no device time charged
}

BatchHandle CpuEngine::submit(std::span<const std::uint8_t> samples,
                              std::span<double> results) {
  const std::size_t count = check_batch(samples, results);
  const BatchHandle handle = next_handle_++;
  pending_.emplace(handle,
                   std::async(std::launch::async, [this, samples, results] {
                     const auto start = std::chrono::steady_clock::now();
                     native_->infer(samples, results);
                     return std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start)
                         .count();
                   }));
  stats_.batches += 1;
  stats_.samples += count;
  return handle;
}

BatchHandle CpuEngine::submit_sparse(std::span<const std::uint8_t> stream,
                                     std::size_t sample_count,
                                     std::span<double> results) {
  check_sparse_batch(stream, sample_count, results);
  const auto& module = model_->module();
  // Densify up front (the helper thread owns the buffer) and reuse the
  // dense vectorised kernel.
  auto rows = std::make_shared<std::vector<std::uint8_t>>(
      compiler::decode_sparse(stream, module.input_features(), sample_count)
          .densify(module.default_evidence()));
  const BatchHandle handle = next_handle_++;
  pending_.emplace(handle,
                   std::async(std::launch::async, [this, rows, results] {
                     const auto start = std::chrono::steady_clock::now();
                     native_->infer(*rows, results);
                     return std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start)
                         .count();
                   }));
  stats_.batches += 1;
  stats_.samples += sample_count;
  return handle;
}

void CpuEngine::wait(BatchHandle handle) {
  const auto it = pending_.find(handle);
  SPNHBM_REQUIRE(it != pending_.end(),
                 "wait on unknown or already-completed batch handle");
  const double batch_seconds = it->second.get();
  stats_.busy_seconds += batch_seconds;
  batch_latency_us_.record(batch_seconds * 1e6);
  pending_.erase(it);
}

double CpuEngine::measure_throughput(std::uint64_t sample_count) {
  const double rate =
      native_->measure_throughput(static_cast<std::size_t>(sample_count));
  stats_.batches += 1;
  stats_.samples += sample_count;
  stats_.busy_seconds += static_cast<double>(sample_count) / rate;
  return rate;
}

}  // namespace spnhbm::engine
