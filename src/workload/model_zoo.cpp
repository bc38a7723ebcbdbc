#include "spnhbm/workload/model_zoo.hpp"

#include "spnhbm/spn/learn.hpp"
#include "spnhbm/spn/validate.hpp"
#include "spnhbm/util/strings.hpp"
#include "spnhbm/workload/bag_of_words.hpp"

namespace spnhbm::workload {

const std::vector<std::size_t>& nips_benchmark_sizes() {
  static const std::vector<std::size_t> sizes{10, 20, 30, 40, 80};
  return sizes;
}

NipsModel make_nips_model(std::size_t variables, std::uint64_t seed) {
  SPNHBM_REQUIRE(variables >= 2 && variables <= 255,
                 "NIPS model size out of range");
  CorpusConfig corpus;
  corpus.vocabulary = variables;
  corpus.seed = seed;
  // More features -> longer documents, like taking a wider slice of the
  // same corpus.
  corpus.document_length = 2.0 * static_cast<double>(variables);
  const auto data = make_bag_of_words(corpus);

  spn::LearnOptions options;
  options.seed = seed ^ (variables * 0x9E3779B97F4A7C15ull);
  // Tuned so structure size grows with the variable count roughly the way
  // the published resource table implies (see fpga/calibration.hpp).
  options.min_instances = 640;
  options.independence_threshold = 0.25;
  options.histogram_buckets = 16;

  NipsModel model;
  model.name = strformat("NIPS%zu", variables);
  model.variables = variables;
  model.spn = spn::learn_spn(data, options);
  spn::validate_or_throw(model.spn);
  return model;
}

}  // namespace spnhbm::workload
