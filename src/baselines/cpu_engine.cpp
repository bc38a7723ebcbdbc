#include "spnhbm/baselines/cpu_engine.hpp"

#include <algorithm>
#include <chrono>
#include <vector>

#include "spnhbm/util/rng.hpp"

namespace spnhbm::baselines {

CpuInferenceEngine::CpuInferenceEngine(const compiler::DatapathModule& module,
                                       std::size_t threads)
    : module_(module), pool_(std::make_unique<ThreadPool>(threads)) {}

void CpuInferenceEngine::infer_block(std::span<const std::uint8_t> samples,
                                     std::size_t begin, std::size_t end,
                                     std::span<double> results) const {
  const std::size_t features = module_.input_features();
  const auto& ops = module_.ops();
  const auto& tables = module_.tables();
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
    const double* root = values.data() + module_.result_op() * kLanes;
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      results[block + lane] = root[lane];
    }
  }
}

void CpuInferenceEngine::infer(std::span<const std::uint8_t> samples,
                               std::span<double> results) {
  const std::size_t features = module_.input_features();
  SPNHBM_REQUIRE(features > 0 && samples.size() == results.size() * features,
                 "samples/results size mismatch");
  if (results.empty()) return;
  // Chunk on lane boundaries so blocks never straddle threads.
  const std::size_t lane_groups = (results.size() + kLanes - 1) / kLanes;
  pool_->parallel_for(lane_groups, [&](std::size_t group_begin,
                                       std::size_t group_end) {
    const std::size_t begin = group_begin * kLanes;
    const std::size_t end = std::min(group_end * kLanes, results.size());
    infer_block(samples, begin, end, results);
  });
}

double CpuInferenceEngine::measure_throughput(std::size_t sample_count,
                                              std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t features = module_.input_features();
  // Draw bytes every lookup table covers.
  std::size_t domain = 256;
  for (const auto& table : module_.tables()) {
    domain = std::min(domain, table.probability_by_byte.size());
  }
  std::vector<std::uint8_t> samples(sample_count * features);
  for (auto& byte : samples) {
    byte = static_cast<std::uint8_t>(rng.next_below(domain));
  }
  std::vector<double> results(sample_count);
  const auto start = std::chrono::steady_clock::now();
  infer(samples, results);
  const auto stop = std::chrono::steady_clock::now();
  const double seconds =
      std::chrono::duration<double>(stop - start).count();
  return static_cast<double>(sample_count) / seconds;
}

}  // namespace spnhbm::baselines
