#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "spnhbm/baselines/reference_platforms.hpp"
#include "spnhbm/engine/cpu_engine.hpp"
#include "spnhbm/spn/evaluate.hpp"
#include "spnhbm/util/rng.hpp"
#include "spnhbm/util/stats.hpp"
#include "spnhbm/workload/model_zoo.hpp"

namespace spnhbm::baselines {
namespace {

model::ModelHandle nips10_f64() {
  return model::ModelArtifact::compile("nips10", "1",
                                       workload::make_nips_model(10).spn,
                                       arith::make_float64_backend());
}

TEST(CpuEngine, MatchesReferenceEvaluator) {
  const auto model = workload::make_nips_model(10);
  engine::CpuEngine engine(nips10_f64(), {.threads = 2});

  Rng rng(3);
  const std::size_t count = 1000;
  std::vector<std::uint8_t> samples(count * 10);
  for (auto& b : samples) b = static_cast<std::uint8_t>(rng.next_below(256));
  std::vector<double> results(count);
  engine.wait(engine.submit(samples, results));

  spn::Evaluator reference(model.spn);
  for (std::size_t i = 0; i < count; ++i) {
    const double want = reference.evaluate_bytes(
        std::span<const std::uint8_t>(samples).subspan(i * 10, 10));
    EXPECT_DOUBLE_EQ(results[i], want) << "sample " << i;
  }
}

TEST(CpuEngine, HandlesNonLaneAlignedBatches) {
  engine::CpuEngine engine(nips10_f64(), {.threads = 1});
  for (const std::size_t count : {1u, 7u, 8u, 9u, 63u}) {
    std::vector<std::uint8_t> samples(count * 10, 5);
    std::vector<double> results(count, -1.0);
    engine.wait(engine.submit(samples, results));
    for (const double r : results) EXPECT_GT(r, 0.0);
  }
}

TEST(CpuEngine, EmptyBatchIsNoop) {
  engine::CpuEngine engine(nips10_f64(), {.threads = 1});
  EXPECT_NO_THROW(engine.wait(engine.submit({}, {})));
}

TEST(CpuEngine, RejectsMismatchedSizes) {
  engine::CpuEngine engine(nips10_f64(), {.threads = 1});
  std::vector<std::uint8_t> samples(15);  // not a multiple of 10
  std::vector<double> results(2);
  EXPECT_THROW(engine.submit(samples, results), std::logic_error);
}

TEST(CpuEngine, ThroughputIsMeasurable) {
  engine::CpuEngine engine(nips10_f64(), {.threads = 1});
  const double rate = engine.measure_throughput(50'000);
  EXPECT_GT(rate, 1e5);  // sanity: >100 Ksamples/s even on a weak host
}

TEST(ReferencePlatforms, CurvesCoverAllBenchmarks) {
  for (const auto& curve : all_reference_curves()) {
    for (const std::size_t size : workload::nips_benchmark_sizes()) {
      EXPECT_GT(curve.at(size), 0.0) << curve.platform;
    }
    EXPECT_FALSE(curve.provenance.empty());
  }
}

TEST(ReferencePlatforms, PublishedAbsolutesExact) {
  EXPECT_DOUBLE_EQ(paper_hbm_curve().at(10), 614.7e6);
  EXPECT_DOUBLE_EQ(paper_hbm_curve().at(80), 116.6e6);
}

TEST(ReferencePlatforms, SpeedupConstraintsHold) {
  const auto hbm = paper_hbm_curve();
  const auto cpu = xeon_e5_2680v3_curve();
  const auto gpu = tesla_v100_curve();
  const auto f1 = aws_f1_curve();

  std::vector<double> cpu_speedups, gpu_speedups, f1_speedups;
  for (const std::size_t size : workload::nips_benchmark_sizes()) {
    cpu_speedups.push_back(hbm.at(size) / cpu.at(size));
    gpu_speedups.push_back(hbm.at(size) / gpu.at(size));
    f1_speedups.push_back(hbm.at(size) / f1.at(size));
  }
  // CPU wins the small NIPS10 benchmark; loses from NIPS20 on.
  EXPECT_LT(cpu_speedups.front(), 1.0);
  EXPECT_GT(cpu_speedups[1], 1.0);
  // Published aggregates: geo 1.6x / max 2.46x (CPU), geo 6.9x / max 8.4x
  // (V100), geo 1.29x / max 1.50x (F1).
  EXPECT_NEAR(geometric_mean(cpu_speedups), 1.6, 0.02);
  EXPECT_NEAR(cpu_speedups.back(), 2.46, 0.01);
  EXPECT_NEAR(geometric_mean(gpu_speedups), 6.9, 0.05);
  EXPECT_NEAR(gpu_speedups.back(), 8.4, 0.01);
  EXPECT_NEAR(geometric_mean(f1_speedups), 1.29, 0.01);
  EXPECT_NEAR(f1_speedups.back(), 1.50, 0.01);
}

TEST(ReferencePlatforms, UnknownSizeThrows) {
  EXPECT_THROW(paper_hbm_curve().at(55), Error);
}

TEST(ReferencePlatforms, V100LosesEverywhere) {
  // The paper: "the Nvidia Tesla V100 is unsuitable for SPN inference".
  const auto hbm = paper_hbm_curve();
  const auto gpu = tesla_v100_curve();
  const auto cpu = xeon_e5_2680v3_curve();
  for (const std::size_t size : workload::nips_benchmark_sizes()) {
    EXPECT_LT(gpu.at(size), hbm.at(size));
    EXPECT_LT(gpu.at(size), cpu.at(size));
  }
}

}  // namespace
}  // namespace spnhbm::baselines
