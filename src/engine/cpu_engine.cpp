#include "spnhbm/engine/cpu_engine.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "spnhbm/compiler/sparse_evidence.hpp"
#include "spnhbm/util/rng.hpp"
#include "spnhbm/util/strings.hpp"

namespace spnhbm::engine {

namespace {

/// Samples evaluated side by side per pass over the operator program.
constexpr std::size_t kLanes = 8;

std::size_t resolve_threads(std::size_t requested) {
  if (requested > 0) return requested;
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Evaluates samples [begin, end) of `samples`, kLanes at a time.
void infer_block(const compiler::DatapathModule& module,
                 std::span<const std::uint8_t> samples, std::size_t begin,
                 std::size_t end, std::span<double> results) {
  const std::size_t features = module.input_features();
  const auto& ops = module.ops();
  const auto& tables = module.tables();
  // Lane-blocked struct-of-arrays evaluation: values[op][lane]. The inner
  // per-op loops are trivially auto-vectorisable.
  std::vector<double> values(ops.size() * kLanes);
  for (std::size_t block = begin; block < end; block += kLanes) {
    const std::size_t lanes = std::min(kLanes, end - block);
    for (std::size_t op_index = 0; op_index < ops.size(); ++op_index) {
      const auto& op = ops[op_index];
      double* out = values.data() + op_index * kLanes;
      switch (op.kind) {
        case compiler::OpKind::kHistogramLookup: {
          const auto& table = tables[op.table_index].probability_by_byte;
          for (std::size_t lane = 0; lane < lanes; ++lane) {
            const std::uint8_t byte =
                samples[(block + lane) * features + op.variable];
            SPNHBM_REQUIRE(byte < table.size(),
                           "feature byte outside lookup table");
            out[lane] = table[byte];
          }
          break;
        }
        case compiler::OpKind::kMul: {
          const double* lhs = values.data() + op.lhs * kLanes;
          const double* rhs = values.data() + op.rhs * kLanes;
          for (std::size_t lane = 0; lane < kLanes; ++lane) {
            out[lane] = lhs[lane] * rhs[lane];
          }
          break;
        }
        case compiler::OpKind::kConstMul: {
          const double* lhs = values.data() + op.lhs * kLanes;
          const double constant = op.constant;
          for (std::size_t lane = 0; lane < kLanes; ++lane) {
            out[lane] = lhs[lane] * constant;
          }
          break;
        }
        case compiler::OpKind::kAdd: {
          const double* lhs = values.data() + op.lhs * kLanes;
          const double* rhs = values.data() + op.rhs * kLanes;
          for (std::size_t lane = 0; lane < kLanes; ++lane) {
            out[lane] = lhs[lane] + rhs[lane];
          }
          break;
        }
        case compiler::OpKind::kMax: {
          const double* lhs = values.data() + op.lhs * kLanes;
          const double* rhs = values.data() + op.rhs * kLanes;
          // Same tie and NaN order as ArithBackend::max.
          for (std::size_t lane = 0; lane < kLanes; ++lane) {
            out[lane] = lhs[lane] >= rhs[lane] ? lhs[lane] : rhs[lane];
          }
          break;
        }
      }
    }
    const double* root = values.data() + module.result_op() * kLanes;
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      results[block + lane] = root[lane];
    }
  }
}

}  // namespace

CpuEngine::CpuEngine(ModelHandle model, CpuEngineConfig config)
    : model_(std::move(model)), pool_(resolve_threads(config.threads)) {
  SPNHBM_REQUIRE(model_ != nullptr, "CpuEngine requires a model");
  refresh_capabilities();
}

void CpuEngine::refresh_capabilities() {
  capabilities_.name = strformat("cpu-native x%zu", threads());
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
  model_ = std::move(next);
  refresh_capabilities();
  stats_.reconfigurations += 1;  // host-side swap: no device time charged
}

void CpuEngine::infer_rows(const compiler::DatapathModule& module,
                           std::span<const std::uint8_t> samples,
                           std::span<double> results) {
  // Chunk on lane boundaries so blocks never straddle threads.
  const std::size_t lane_groups = (results.size() + kLanes - 1) / kLanes;
  pool_.parallel_for(lane_groups, [&](std::size_t group_begin,
                                      std::size_t group_end) {
    const std::size_t begin = group_begin * kLanes;
    const std::size_t end = std::min(group_end * kLanes, results.size());
    infer_block(module, samples, begin, end, results);
  });
}

BatchHandle CpuEngine::launch(std::span<const std::uint8_t> samples,
                              std::vector<std::uint8_t> densified,
                              std::span<double> results) {
  const BatchHandle handle = next_handle_++;
  // The helper thread pins the model, so the module outlives the batch.
  auto run = [this, model = model_, samples, rows = std::move(densified),
              results] {
    const auto start = std::chrono::steady_clock::now();
    infer_rows(model->module(),
               rows.empty() ? samples : std::span<const std::uint8_t>(rows),
               results);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  pending_.emplace(handle, std::async(std::launch::async, std::move(run)));
  stats_.batches += 1;
  stats_.samples += results.size();
  return handle;
}

BatchHandle CpuEngine::submit(std::span<const std::uint8_t> samples,
                              std::span<double> results) {
  check_batch(samples, results);
  return launch(samples, {}, results);
}

BatchHandle CpuEngine::submit_sparse(std::span<const std::uint8_t> stream,
                                     std::size_t sample_count,
                                     std::span<double> results) {
  check_sparse_batch(stream, sample_count, results);
  const auto& module = model_->module();
  // Densify up front (the helper thread owns the rows) and reuse the dense
  // vectorised kernel.
  return launch({},
                compiler::decode_sparse(stream, module.input_features(),
                                        sample_count)
                    .densify(module.default_evidence()),
                results);
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
  const auto& module = model_->module();
  Rng rng(1);
  // Draw bytes every lookup table covers.
  std::size_t domain = 256;
  for (const auto& table : module.tables()) {
    domain = std::min(domain, table.probability_by_byte.size());
  }
  std::vector<std::uint8_t> samples(sample_count * module.input_features());
  for (auto& byte : samples) {
    byte = static_cast<std::uint8_t>(rng.next_below(domain));
  }
  std::vector<double> results(sample_count);
  const auto start = std::chrono::steady_clock::now();
  infer_rows(module, samples, results);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  const double rate = static_cast<double>(sample_count) / seconds;
  stats_.batches += 1;
  stats_.samples += sample_count;
  stats_.busy_seconds += seconds;
  return rate;
}

}  // namespace spnhbm::engine
