// The NIPS benchmark model zoo.
//
// Reconstructs the paper's benchmark suite: Mixed SPNs (histogram leaves)
// learned over the first N word features of the (synthetic) NIPS
// bag-of-words corpus, for N in {10, 20, 30, 40, 80} — the sizes named in
// the paper. Each model also carries the per-sample transfer sizes the
// evaluation reasons with (N input bytes + 8 result bytes; e.g. NIPS10 =
// 144 bits per sample).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spnhbm/spn/graph.hpp"

namespace spnhbm::workload {

struct NipsModel {
  std::string name;            ///< "NIPS10", ...
  std::size_t variables = 0;   ///< word features == input bytes per sample
  spn::Spn spn;

  std::size_t input_bytes_per_sample() const { return variables; }
  static constexpr std::size_t result_bytes_per_sample() { return 8; }
  std::size_t total_bytes_per_sample() const {
    return input_bytes_per_sample() + result_bytes_per_sample();
  }
};

/// Benchmark sizes used throughout the paper's evaluation.
const std::vector<std::size_t>& nips_benchmark_sizes();

/// Builds the learned model for `variables` word features. Deterministic in
/// (variables, seed); validated before returning.
NipsModel make_nips_model(std::size_t variables,
                          std::uint64_t seed = 20220530);

}  // namespace spnhbm::workload
