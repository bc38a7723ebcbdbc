// Integration tests across the whole stack: text format -> compiler ->
// composition -> runtime -> results, parameterised over model sizes and
// arithmetic formats, plus fault-injection ("chaos") runs on the DMA path.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "spnhbm/compiler/serialize.hpp"
#include "spnhbm/fault/fault.hpp"
#include "spnhbm/runtime/inference_runtime.hpp"
#include "spnhbm/spn/evaluate.hpp"
#include "spnhbm/spn/text_format.hpp"
#include "spnhbm/util/rng.hpp"
#include "spnhbm/workload/bag_of_words.hpp"
#include "spnhbm/workload/model_zoo.hpp"

namespace spnhbm {
namespace {

struct FlowParam {
  std::size_t variables;
  arith::FormatKind format;
};

std::unique_ptr<arith::ArithBackend> make_backend(arith::FormatKind kind) {
  switch (kind) {
    case arith::FormatKind::kFloat64: return arith::make_float64_backend();
    case arith::FormatKind::kCfp:
      return arith::make_cfp_backend(arith::paper_cfp_format());
    case arith::FormatKind::kLns:
      return arith::make_lns_backend(arith::paper_lns_format());
    case arith::FormatKind::kPosit:
      return arith::make_posit_backend(arith::paper_posit_format());
  }
  return nullptr;
}

class FullFlowTest : public ::testing::TestWithParam<FlowParam> {};

TEST_P(FullFlowTest, TextToAcceleratorToResults) {
  const auto param = GetParam();
  // 1. Learn, serialise to text, re-parse (the SPFlow interchange step).
  const auto model = workload::make_nips_model(param.variables);
  const spn::Spn reparsed = spn::parse_spn(spn::to_text(model.spn));

  // 2. Compile; round-trip the compiled artifact through the binary
  //    design format.
  const auto backend = make_backend(param.format);
  const auto compiled = compiler::compile_spn(reparsed, *backend);
  std::stringstream artifact;
  compiler::save_design(compiled, artifact);
  const auto module = compiler::load_design(artifact);

  // 3. Compose a 2-PE device and run real samples end-to-end.
  sim::Scheduler scheduler;
  sim::ProcessRunner runner(scheduler);
  tapasco::CompositionConfig composition;
  composition.pe_count = 2;
  tapasco::Device device(runner, module, *backend, composition);
  runtime::InferenceRuntime rt(runner, device, module);

  // In-distribution documents (uniform random bytes would push every
  // joint probability below the reduced-precision formats' ranges).
  workload::CorpusConfig corpus;
  corpus.vocabulary = param.variables;
  corpus.documents = 123;
  corpus.seed = 1000 + param.variables;
  const std::size_t count = corpus.documents;
  const std::vector<std::uint8_t> samples =
      workload::make_bag_of_words(corpus).to_bytes();
  const auto results = rt.infer(samples);
  ASSERT_EQ(results.size(), count);

  // 4. Compare against the reference evaluator. Bounds are format-shaped:
  //    posit's tapered precision loses fraction bits far from 1.0, and
  //    joints below ~1e-33 approach CFP's flush-to-zero region.
  const double floor = param.format == arith::FormatKind::kPosit ? 1e-25
                                                                 : 1e-33;
  const double tolerance =
      param.format == arith::FormatKind::kPosit ? 1e-2 : 1e-3;
  spn::Evaluator reference(model.spn);
  int compared = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const double want = reference.evaluate_bytes(
        std::span<const std::uint8_t>(samples).subspan(i * param.variables,
                                                       param.variables));
    if (want < floor) continue;
    EXPECT_NEAR(results[i] / want, 1.0, tolerance) << "sample " << i;
    ++compared;
  }
  EXPECT_GT(compared, 0);
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndFormats, FullFlowTest,
    ::testing::Values(FlowParam{10, arith::FormatKind::kCfp},
                      FlowParam{10, arith::FormatKind::kLns},
                      FlowParam{10, arith::FormatKind::kPosit},
                      FlowParam{10, arith::FormatKind::kFloat64},
                      FlowParam{20, arith::FormatKind::kCfp},
                      FlowParam{20, arith::FormatKind::kLns}),
    [](const auto& info) {
      return "NIPS" + std::to_string(info.param.variables) + "_" +
             arith::format_kind_name(info.param.format);
    });

/// A plan under which each DMA transfer aborts with `probability` (a
/// `pcie.dma` fail rule); the device driver re-queues aborted transfers.
fault::FaultPlan dma_abort_plan(double probability) {
  fault::FaultRule rule;
  rule.site = "pcie.dma";
  rule.kind = fault::FaultKind::kFail;
  rule.probability = probability;
  fault::FaultPlan plan;
  plan.rules.push_back(rule);
  return plan;
}

TEST(FaultInjection, RuntimeSurvivesDmaFaults) {
  // 5% of DMA transfers abort; the driver's retry path must deliver the
  // same results, just later.
  const auto model = workload::make_nips_model(10);
  const auto backend = arith::make_cfp_backend(arith::paper_cfp_format());
  const auto module = compiler::compile_spn(model.spn, *backend);

  sim::Scheduler scheduler;
  sim::ProcessRunner runner(scheduler);
  const fault::ScopedFaultPlan armed(dma_abort_plan(0.05));
  tapasco::Device device(runner, module, *backend, {});
  runtime::InferenceRuntime rt(runner, device, module);

  Rng rng(7);
  const std::size_t count = 300;
  std::vector<std::uint8_t> samples(count * 10);
  for (auto& b : samples) b = static_cast<std::uint8_t>(rng.next_below(48));
  const auto results = rt.infer(samples);
  ASSERT_EQ(results.size(), count);

  spn::Evaluator reference(model.spn);
  for (std::size_t i = 0; i < count; ++i) {
    const double want = reference.evaluate_bytes(
        std::span<const std::uint8_t>(samples).subspan(i * 10, 10));
    if (want > 1e-25) {
      EXPECT_NEAR(results[i] / want, 1.0, 1e-3);
    }
  }
}

TEST(FaultInjection, FaultsCostThroughputButNotCorrectness) {
  const auto model = workload::make_nips_model(10);
  const auto backend = arith::make_cfp_backend(arith::paper_cfp_format());
  const auto module = compiler::compile_spn(model.spn, *backend);
  const auto run_rate = [&](double failure_rate) {
    sim::Scheduler scheduler;
    sim::ProcessRunner runner(scheduler);
    tapasco::CompositionConfig composition;
    composition.pe_count = 4;
    composition.compute_results = false;
    std::unique_ptr<fault::ScopedFaultPlan> armed;
    if (failure_rate > 0.0) {
      armed = std::make_unique<fault::ScopedFaultPlan>(
          dma_abort_plan(failure_rate));
    }
    tapasco::Device device(runner, module, *backend, composition);
    runtime::InferenceRuntime rt(runner, device, module);
    const auto stats = rt.run(4'000'000);
    if (failure_rate > 0.0) {
      EXPECT_GT(device.dma().failed_transfers(), 0u);
    }
    return stats.samples_per_second;
  };
  const double clean = run_rate(0.0);
  const double faulty = run_rate(0.20);
  EXPECT_LT(faulty, clean);        // retries cost time
  EXPECT_GT(faulty, clean * 0.5);  // but the system stays functional
}

TEST(FaultInjection, PersistentFailureSurfacesAfterRetries) {
  const auto model = workload::make_nips_model(10);
  const auto backend = arith::make_cfp_backend(arith::paper_cfp_format());
  const auto module = compiler::compile_spn(model.spn, *backend);
  sim::Scheduler scheduler;
  sim::ProcessRunner runner(scheduler);
  tapasco::CompositionConfig composition;
  composition.compute_results = false;
  // Practically always failing.
  const fault::ScopedFaultPlan armed(dma_abort_plan(0.98));
  tapasco::Device device(runner, module, *backend, composition);
  runtime::InferenceRuntime rt(runner, device, module);
  EXPECT_THROW(rt.run(1 << 20), pcie::DmaError);
}

TEST(Determinism, IdenticalRunsProduceIdenticalVirtualTime) {
  const auto model = workload::make_nips_model(10);
  const auto backend = arith::make_cfp_backend(arith::paper_cfp_format());
  const auto module = compiler::compile_spn(model.spn, *backend);
  const auto elapsed = [&] {
    sim::Scheduler scheduler;
    sim::ProcessRunner runner(scheduler);
    tapasco::CompositionConfig composition;
    composition.pe_count = 3;
    composition.compute_results = false;
    tapasco::Device device(runner, module, *backend, composition);
    runtime::RuntimeConfig config;
    config.threads_per_pe = 2;
    runtime::InferenceRuntime rt(runner, device, module, config);
    return rt.run(3'000'000).elapsed;
  };
  EXPECT_EQ(elapsed(), elapsed());
}

}  // namespace
}  // namespace spnhbm
