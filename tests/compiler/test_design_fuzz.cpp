// Design-file fuzz: >= 10k seeded mutants of valid SPND files —
// truncations, bit flips, and overwritten counts and op indices — go
// through ModelArtifact::load_file, the path `spnhbm infer` takes. Each
// mutant must either be rejected with ParseError or load a module that
// the FPGA simulator, the CPU baseline and the GPU model all evaluate
// without fault, bit-identical to the reference evaluator.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "spnhbm/compiler/serialize.hpp"
#include "spnhbm/engine/cpu_engine.hpp"
#include "spnhbm/engine/fpga_engine.hpp"
#include "spnhbm/engine/gpu_engine.hpp"
#include "spnhbm/model/artifact.hpp"
#include "spnhbm/spn/text_format.hpp"
#include "spnhbm/util/rng.hpp"

namespace spnhbm {
namespace {

constexpr std::size_t kMutantsPerSeed = 5'000;

constexpr const char* kDemoSpn =
    "Sum(0.3*Product(Histogram(V0|[0,64,128,256];[0.0078125,0.0078125,0.0])\n"
    "              * Histogram(V1|[0,128,256];[0.0078125,0.0]))\n"
    "  + 0.7*Product(Histogram(V0|[0,64,256];[0.0078125,"
    "0.00260416666666666652])\n"
    "              * Histogram(V1|[0,128,256];[0.005,0.0028125])))\n";

/// A valid design to mutate, as saved bytes.
std::string seed_design(compiler::QueryKind query) {
  compiler::CompileOptions options;
  options.query = query;
  if (query != compiler::QueryKind::kJoint) {
    options.input_domain = compiler::kMissingByte;
  }
  const auto module = compiler::compile_spn(
      spn::parse_spn(kDemoSpn), *arith::make_float64_backend(), options);
  std::ostringstream out;
  compiler::save_design(module, out);
  return out.str();
}

/// Values that sit on the loader's boundaries.
std::uint64_t interesting(Rng& rng, const std::string& design) {
  const std::uint64_t values[] = {0,
                                  1,
                                  2,
                                  3,
                                  255,
                                  256,
                                  65535,
                                  65536,
                                  65537,
                                  0x7FFFFFFFull,
                                  0xFFFFFFFFull,
                                  std::uint64_t{1} << 36,
                                  ~std::uint64_t{0},
                                  design.size(),
                                  rng.next_below(64)};
  return values[rng.next_below(std::size(values))];
}

template <typename T>
void overwrite(std::string& bytes, std::size_t at, T value) {
  if (at + sizeof(value) <= bytes.size()) {
    std::memcpy(bytes.data() + at, &value, sizeof(value));
  }
}

std::string mutate(const std::string& design, Rng& rng) {
  std::string bytes = design;
  // Field offsets of the seed design (see serialize.cpp for the layout).
  std::uint64_t features = 0;
  std::memcpy(&features, design.data() + 12, 8);
  const std::size_t ops_at = 4 + 4 + 4 + 8 + features + 8 + 4 + 4 + 8;
  std::uint64_t op_count = 0;
  std::memcpy(&op_count, design.data() + ops_at - 8, 8);
  constexpr std::size_t kOpSize = 9 * 4 + 8;
  const std::size_t tables_at = ops_at + op_count * kOpSize;

  switch (rng.next_below(5)) {
    case 0:  // truncation
      bytes.resize(rng.next_below(bytes.size()));
      break;
    case 1: {  // 1..8 bit flips anywhere
      const std::size_t flips = 1 + rng.next_below(8);
      for (std::size_t f = 0; f < flips; ++f) {
        bytes[rng.next_below(bytes.size())] ^=
            static_cast<char>(1u << rng.next_below(8));
      }
      break;
    }
    case 2: {  // an overwritten count: evidence, features, ops or tables
      const std::size_t counts[] = {12, 4 + 4 + 4 + 8 + features,
                                    ops_at - 8, tables_at};
      overwrite(bytes, counts[rng.next_below(std::size(counts))],
                interesting(rng, design));
      break;
    }
    case 3: {  // an overwritten op index: lhs, rhs, variable or table
      const std::size_t op = rng.next_below(op_count);
      overwrite(bytes, ops_at + op * kOpSize + 4 * (1 + rng.next_below(4)),
                static_cast<std::uint32_t>(interesting(rng, design)));
      break;
    }
    default: {  // an overwritten aligned word anywhere
      const std::size_t at = 4 * rng.next_below(bytes.size() / 4);
      overwrite(bytes, at, static_cast<std::uint32_t>(interesting(rng, design)));
      break;
    }
  }
  return bytes;
}

bool same_result(double a, double b) {
  return (std::isnan(a) && std::isnan(b)) ||
         std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Rows every lookup table covers: all-low, all-high and two random.
std::vector<std::uint8_t> in_domain_rows(const compiler::DatapathModule& module,
                                         Rng& rng) {
  std::size_t domain = 256;
  for (const auto& table : module.tables()) {
    domain = std::min(domain, table.probability_by_byte.size());
  }
  const std::size_t features = module.input_features();
  std::vector<std::uint8_t> rows(4 * features);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::size_t row = i / features;
    rows[i] = static_cast<std::uint8_t>(
        row == 0 ? 0 : row == 1 ? domain - 1 : rng.next_below(domain));
  }
  return rows;
}

/// Evaluates `artifact` on every engine; returns "" or the first fault.
std::string evaluate_everywhere(const model::ModelHandle& artifact, Rng& rng) {
  const auto& module = artifact->module();
  const auto rows = in_domain_rows(module, rng);
  const std::size_t features = module.input_features();
  std::vector<double> want;
  for (std::size_t r = 0; r < rows.size() / features; ++r) {
    want.push_back(module.evaluate(
        artifact->backend(),
        std::span<const std::uint8_t>(rows).subspan(r * features, features)));
  }
  engine::FpgaEngineConfig fpga_config;
  fpga_config.pe_count = 1;
  engine::FpgaSimEngine fpga(artifact, fpga_config);
  engine::CpuEngine cpu(artifact, {.threads = 1});
  engine::GpuModelEngine gpu(artifact);
  for (engine::InferenceEngine* eng :
       std::initializer_list<engine::InferenceEngine*>{&fpga, &cpu, &gpu}) {
    const auto got = eng->infer(rows);
    for (std::size_t r = 0; r < want.size(); ++r) {
      if (!same_result(got.at(r), want[r])) {
        return eng->capabilities().name + " disagrees with the reference";
      }
    }
  }
  return "";
}

TEST(DesignFuzz, TenThousandMutantsParseErrorOrEvaluateEverywhere) {
  const std::string path = "test_design_fuzz_mutant.spnd";
  std::size_t rejected = 0, loaded = 0;
  std::uint64_t seed = 20261017;
  for (const auto query :
       {compiler::QueryKind::kJoint, compiler::QueryKind::kMarginal}) {
    const std::string design = seed_design(query);
    Rng rng(seed++);
    for (std::size_t i = 0; i < kMutantsPerSeed; ++i) {
      const std::string mutant = mutate(design, rng);
      {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(mutant.data(), static_cast<std::streamsize>(mutant.size()));
      }
      model::ModelHandle artifact;
      try {
        artifact = model::ModelArtifact::load_file(
            "fuzz", "1", path, arith::make_float64_backend());
      } catch (const ParseError&) {
        rejected += 1;
        continue;
      } catch (const std::exception& e) {
        FAIL() << "mutant " << i << " (" << compiler::query_kind_name(query)
               << ") escaped the loader: " << e.what();
      }
      loaded += 1;
      try {
        const std::string fault = evaluate_everywhere(artifact, rng);
        ASSERT_TRUE(fault.empty()) << "mutant " << i << ": " << fault;
      } catch (const std::exception& e) {
        FAIL() << "mutant " << i << " (" << compiler::query_kind_name(query)
               << ") loaded but an engine failed: " << e.what();
      }
    }
  }
  std::remove(path.c_str());
  EXPECT_EQ(rejected + loaded, 2 * kMutantsPerSeed);
  // Both outcomes must be well represented, or the fuzz is vacuous.
  EXPECT_GT(rejected, kMutantsPerSeed / 2);
  EXPECT_GT(loaded, kMutantsPerSeed / 10);
  std::printf("design fuzz: %zu rejected, %zu loaded and evaluated\n",
              rejected, loaded);
}

}  // namespace
}  // namespace spnhbm
