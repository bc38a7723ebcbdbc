#include "spnhbm/compiler/serialize.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <sstream>

#include "spnhbm/util/rng.hpp"
#include "spnhbm/workload/model_zoo.hpp"

namespace spnhbm::compiler {
namespace {

DatapathModule compile_test_module() {
  const auto model = workload::make_nips_model(10);
  const auto backend = arith::make_cfp_backend(arith::paper_cfp_format());
  return compile_spn(model.spn, *backend);
}

TEST(Serialize, RoundTripPreservesStructure) {
  const auto original = compile_test_module();
  std::stringstream stream;
  save_design(original, stream);
  const auto loaded = load_design(stream);

  EXPECT_EQ(loaded.input_features(), original.input_features());
  EXPECT_EQ(loaded.pipeline_depth(), original.pipeline_depth());
  EXPECT_EQ(loaded.result_op(), original.result_op());
  ASSERT_EQ(loaded.ops().size(), original.ops().size());
  for (std::size_t i = 0; i < original.ops().size(); ++i) {
    EXPECT_EQ(loaded.ops()[i].kind, original.ops()[i].kind);
    EXPECT_EQ(loaded.ops()[i].lhs, original.ops()[i].lhs);
    EXPECT_EQ(loaded.ops()[i].stage, original.ops()[i].stage);
    EXPECT_EQ(loaded.ops()[i].constant, original.ops()[i].constant);
  }
  ASSERT_EQ(loaded.tables().size(), original.tables().size());
  EXPECT_EQ(loaded.balance_register_stages(),
            original.balance_register_stages());
}

TEST(Serialize, RoundTripPreservesSemantics) {
  const auto original = compile_test_module();
  std::stringstream stream;
  save_design(original, stream);
  const auto loaded = load_design(stream);

  const auto backend = arith::make_cfp_backend(arith::paper_cfp_format());
  Rng rng(11);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<std::uint8_t> sample(10);
    for (auto& b : sample) b = static_cast<std::uint8_t>(rng.next_below(256));
    EXPECT_DOUBLE_EQ(loaded.evaluate(*backend, sample),
                     original.evaluate(*backend, sample));
  }
}

TEST(Serialize, FileRoundTrip) {
  const auto original = compile_test_module();
  const std::string path = "/tmp/spnhbm_test_design.bin";
  save_design_file(original, path);
  const auto loaded = load_design_file(path);
  EXPECT_EQ(loaded.ops().size(), original.ops().size());
}

TEST(Serialize, RejectsBadMagic) {
  std::stringstream stream;
  stream.write("NOPE", 4);
  stream.write("\0\0\0\0\0\0\0\0", 8);
  EXPECT_THROW(load_design(stream), ParseError);
}

TEST(Serialize, RejectsTruncatedFile) {
  const auto original = compile_test_module();
  std::stringstream stream;
  save_design(original, stream);
  const std::string full = stream.str();
  for (const std::size_t cut :
       {full.size() / 4, full.size() / 2, full.size() - 3}) {
    std::stringstream truncated(full.substr(0, cut));
    EXPECT_THROW(load_design(truncated), ParseError) << "cut=" << cut;
  }
}

// Layout offsets: magic, version, query word, default-evidence count and
// bytes, feature count, pipeline depth, result op, op count, then ops of
// 9 u32 fields + 1 f64 each (kind, lhs, rhs, variable, table_index,
// constant, stage, latency, lhs_delay, rhs_delay).
constexpr std::size_t kFeaturesOffset = 4 + 4 + 4 + 8;  // + evidence bytes
constexpr std::size_t kOpSize = 9 * 4 + 8;
constexpr std::size_t kOpVariable = 12;
constexpr std::size_t kOpLatency = 4 + 4 + 4 + 4 + 4 + 8 + 4;

std::string saved_bytes(const DatapathModule& module) {
  std::stringstream stream;
  save_design(module, stream);
  return stream.str();
}

std::size_t ops_offset(const DatapathModule& module) {
  return kFeaturesOffset + module.input_features() + 8 + 4 + 4 + 8;
}

template <typename T>
void poke(std::string& bytes, std::size_t offset, T value) {
  std::memcpy(bytes.data() + offset, &value, sizeof(value));
}

void expect_parse_error(const std::string& bytes) {
  std::stringstream stream(bytes);
  EXPECT_THROW(load_design(stream), ParseError);
}

/// Index of the first op of `kind`.
std::size_t first_op(const DatapathModule& module, OpKind kind) {
  for (std::size_t i = 0; i < module.ops().size(); ++i) {
    if (module.ops()[i].kind == kind) return i;
  }
  ADD_FAILURE() << "no op of kind " << op_kind_name(kind);
  return 0;
}

TEST(Serialize, RejectsCorruptedOpOrder) {
  // Bump the first mul op's lhs to a forward reference.
  const auto original = compile_test_module();
  std::string bytes = saved_bytes(original);
  const std::size_t op = first_op(original, OpKind::kMul);
  poke<std::uint32_t>(bytes, ops_offset(original) + op * kOpSize + 4,
                      0x7FFFFFFF);
  expect_parse_error(bytes);
}

TEST(Serialize, RejectsBinaryOpWithoutSecondOperand) {
  const auto original = compile_test_module();
  std::string bytes = saved_bytes(original);
  const std::size_t op = first_op(original, OpKind::kAdd);
  poke<std::uint32_t>(bytes, ops_offset(original) + op * kOpSize + 8, kNoOp);
  expect_parse_error(bytes);
}

TEST(Serialize, RejectsLookupVariablePastInputFeatures) {
  // A lookup reading byte 1000000 of a 10-byte row used to load and then
  // crash every engine.
  const auto original = compile_test_module();
  std::string bytes = saved_bytes(original);
  const std::size_t op = first_op(original, OpKind::kHistogramLookup);
  poke<std::uint32_t>(bytes, ops_offset(original) + op * kOpSize + kOpVariable,
                      1000000);
  expect_parse_error(bytes);
  // The last valid variable still loads.
  poke<std::uint32_t>(bytes, ops_offset(original) + op * kOpSize + kOpVariable,
                      static_cast<std::uint32_t>(original.input_features() - 1));
  std::stringstream stream(bytes);
  EXPECT_NO_THROW(load_design(stream));
}

TEST(Serialize, RejectsHugeFeatureCounts) {
  // A feature count of 2^36 used to reach a multi-gigabyte allocation.
  // The feature count must equal the default-evidence count, which is
  // capped at 65536 bytes.
  const auto original = compile_test_module();
  std::string huge_features = saved_bytes(original);
  poke<std::uint64_t>(huge_features,
                      kFeaturesOffset + original.input_features(),
                      std::uint64_t{1} << 36);
  expect_parse_error(huge_features);

  std::string huge_evidence = saved_bytes(original);
  poke<std::uint64_t>(huge_evidence, 12, std::uint64_t{1} << 36);
  expect_parse_error(huge_evidence);
}

TEST(Serialize, RejectsScheduleAndValueCorruption) {
  const auto original = compile_test_module();
  const std::size_t ops = ops_offset(original);

  // A latency that disagrees with the consumers' stages.
  std::string latency = saved_bytes(original);
  poke<std::uint32_t>(latency, ops + kOpLatency, 0x40000000);
  expect_parse_error(latency);

  // A pipeline depth that disagrees with the result op.
  std::string depth = saved_bytes(original);
  poke<std::uint32_t>(depth, ops - 16, original.pipeline_depth() + 1);
  expect_parse_error(depth);

  // Weights and table entries must be finite and non-negative.
  std::string weight = saved_bytes(original);
  const std::size_t cmul = first_op(original, OpKind::kConstMul);
  poke<double>(weight, ops + cmul * kOpSize + 20, -0.5);
  expect_parse_error(weight);

  std::string entry = saved_bytes(original);
  const std::size_t tables = ops + original.ops().size() * kOpSize + 8;
  poke<double>(entry, tables + 4 + 8,
               std::numeric_limits<double>::quiet_NaN());
  expect_parse_error(entry);
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW(load_design_file("/nonexistent/path/design.bin"), Error);
}

TEST(Serialize, EveryModuleSavesTheOneLayout) {
  // Joint modules carry the query word and their (all-zero) default
  // evidence like every other module.
  const auto original = compile_test_module();
  ASSERT_EQ(original.query(), QueryKind::kJoint);
  std::string bytes = saved_bytes(original);
  std::uint32_t version = 0, query = 9;
  std::uint64_t evidence = 0;
  std::memcpy(&version, bytes.data() + 4, 4);
  std::memcpy(&query, bytes.data() + 8, 4);
  std::memcpy(&evidence, bytes.data() + 12, 8);
  EXPECT_EQ(version, 2u);
  EXPECT_EQ(query, 0u);
  EXPECT_EQ(evidence, original.input_features());
  std::stringstream stream(bytes);
  const auto loaded = load_design(stream);
  EXPECT_EQ(loaded.query(), QueryKind::kJoint);
  EXPECT_EQ(loaded.default_evidence(), original.default_evidence());

  // Any other version word is rejected.
  for (const std::uint32_t other : {1u, 3u}) {
    poke(bytes, 4, other);
    expect_parse_error(bytes);
  }
}

TEST(Serialize, QueryModulesRoundTripThroughV2) {
  const auto model = workload::make_nips_model(10);
  const auto backend = arith::make_float64_backend();
  for (const QueryKind query : {QueryKind::kMarginal, QueryKind::kMpe}) {
    CompileOptions options;
    options.query = query;
    options.input_domain = kMissingByte;
    const auto original = compile_spn(model.spn, *backend, options);
    std::stringstream stream;
    save_design(original, stream);
    const std::string bytes = stream.str();
    std::uint32_t version = 0;
    std::memcpy(&version, bytes.data() + 4, 4);
    EXPECT_EQ(version, 2u) << query_kind_name(query);

    const auto loaded = load_design(stream);
    EXPECT_EQ(loaded.query(), query);
    EXPECT_EQ(loaded.default_evidence(), original.default_evidence());
    ASSERT_EQ(loaded.tables().size(), original.tables().size());

    // Semantics survive, reserved slot included.
    Rng rng(19);
    for (int trial = 0; trial < 50; ++trial) {
      std::vector<std::uint8_t> sample(10);
      for (auto& b : sample) {
        b = rng.next_below(4) == 0
                ? kMissingByte
                : static_cast<std::uint8_t>(rng.next_below(kMissingByte));
      }
      EXPECT_DOUBLE_EQ(loaded.evaluate(*backend, sample),
                       original.evaluate(*backend, sample));
    }
  }
}

TEST(Serialize, RejectsCorruptedQueryKind) {
  const auto model = workload::make_nips_model(10);
  const auto backend = arith::make_float64_backend();
  CompileOptions options;
  options.query = QueryKind::kMarginal;
  options.input_domain = kMissingByte;
  const auto original = compile_spn(model.spn, *backend, options);
  std::stringstream stream;
  save_design(original, stream);
  std::string bytes = stream.str();
  // v2 layout: magic, version, then the query-kind word at offset 8.
  const std::uint32_t bogus = 9;
  std::memcpy(bytes.data() + 8, &bogus, 4);
  std::stringstream corrupted(bytes);
  EXPECT_THROW(load_design(corrupted), ParseError);
}

}  // namespace
}  // namespace spnhbm::compiler
