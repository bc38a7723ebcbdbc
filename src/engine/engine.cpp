#include "spnhbm/engine/engine.hpp"

#include "spnhbm/compiler/datapath.hpp"
#include "spnhbm/compiler/sparse_evidence.hpp"
#include "spnhbm/util/strings.hpp"
#include "spnhbm/util/units.hpp"

namespace spnhbm::engine {

std::string query_lane_suffix(compiler::QueryKind query) {
  switch (query) {
    case compiler::QueryKind::kJoint:
      return "";
    case compiler::QueryKind::kMarginal:
      return "#marginal";
    case compiler::QueryKind::kMpe:
      return "#mpe";
  }
  return "";
}

std::string lane_id_for(const std::string& model_id,
                        compiler::QueryKind query) {
  return model_id + query_lane_suffix(query);
}

std::pair<std::string, std::string> split_lane_ref(const std::string& ref) {
  const std::size_t hash = ref.rfind('#');
  if (hash == std::string::npos) return {ref, ""};
  std::string suffix = ref.substr(hash);
  if (suffix != "#marginal" && suffix != "#mpe") return {ref, ""};
  return {ref.substr(0, hash), std::move(suffix)};
}

bool lane_ref_names(const std::string& ref, const std::string& id) {
  if (ref == id) return true;
  const auto [base, suffix] = split_lane_ref(ref);
  const auto [id_base, id_suffix] = split_lane_ref(id);
  const std::size_t at = id_base.rfind('@');
  return id_suffix == suffix && at != std::string::npos &&
         id_base.compare(0, at, base) == 0;
}

std::string EngineStats::describe() const {
  std::string text = strformat(
      "%llu batches, %llu samples, %.3f ms busy -> %s",
      static_cast<unsigned long long>(batches),
      static_cast<unsigned long long>(samples), busy_seconds * 1e3,
      format_rate(samples_per_second()).c_str());
  if (batch_latency_us.count > 0) {
    text += strformat(
        ", batch latency us p50/p95/p99=%.1f/%.1f/%.1f",
        batch_latency_us.p50(), batch_latency_us.p95(),
        batch_latency_us.p99());
  }
  if (reconfigurations > 0) {
    text += strformat(", %llu reconfigurations (%.3f ms)",
                      static_cast<unsigned long long>(reconfigurations),
                      reconfiguration_seconds * 1e3);
  }
  return text;
}

std::size_t InferenceEngine::check_batch(std::span<const std::uint8_t> samples,
                                         std::span<double> results) const {
  const auto& caps = capabilities();
  SPNHBM_REQUIRE(caps.functional,
                 "engine '" + caps.name +
                     "' is configured timing-only and cannot run functional "
                     "batches");
  SPNHBM_REQUIRE(caps.input_features > 0 &&
                     samples.size() == results.size() * caps.input_features,
                 "samples/results size mismatch");
  return results.size();
}

std::vector<double> InferenceEngine::infer(
    std::span<const std::uint8_t> samples) {
  const std::size_t features = capabilities().input_features;
  SPNHBM_REQUIRE(features > 0 && samples.size() % features == 0,
                 "input is not a whole number of samples");
  std::vector<double> results(samples.size() / features);
  wait(submit(samples, results));
  return results;
}

std::vector<double> InferenceEngine::infer_sparse(
    std::span<const std::uint8_t> stream, std::size_t sample_count) {
  std::vector<double> results(sample_count);
  wait(submit_sparse(stream, sample_count, results));
  return results;
}

void InferenceEngine::check_sparse_batch(std::span<const std::uint8_t> stream,
                                         std::size_t sample_count,
                                         std::span<double> results) const {
  const auto& caps = capabilities();
  SPNHBM_REQUIRE(caps.functional,
                 "engine '" + caps.name +
                     "' is configured timing-only and cannot run functional "
                     "batches");
  SPNHBM_REQUIRE(sample_count > 0 && results.size() == sample_count,
                 "sparse sample_count/results size mismatch");
  // Full decode: bounds, ordering, duplicates, truncation. Rejection
  // happens before the engine touches the batch.
  compiler::decode_sparse(stream, caps.input_features, sample_count);
}

}  // namespace spnhbm::engine
