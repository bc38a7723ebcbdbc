// Engine-layer tests: cross-backend result equivalence through the one
// InferenceEngine interface, throughput parity with the pre-engine direct
// runtime path, and the submit/wait contract.
#include <gtest/gtest.h>

#include <initializer_list>
#include <stdexcept>
#include <string>

#include "spnhbm/compiler/sparse_evidence.hpp"
#include "spnhbm/engine/cpu_engine.hpp"
#include "spnhbm/engine/fpga_engine.hpp"
#include "spnhbm/engine/gpu_engine.hpp"
#include "spnhbm/spn/evaluate.hpp"
#include "spnhbm/spn/text_format.hpp"
#include "spnhbm/workload/bag_of_words.hpp"
#include "spnhbm/workload/model_zoo.hpp"

namespace spnhbm {
namespace {

// In-distribution documents: uniform random bytes would push joint
// probabilities below the reduced formats' representable range.
std::vector<std::uint8_t> make_documents(std::size_t variables,
                                         std::size_t count,
                                         std::uint64_t seed) {
  workload::CorpusConfig corpus;
  corpus.vocabulary = variables;
  corpus.documents = count;
  corpus.seed = seed;
  return workload::make_bag_of_words(corpus).to_bytes();
}

TEST(CrossBackend, Float64ResultsAreBitIdentical) {
  // With a float64-compiled module every backend evaluates the same
  // operator program in IEEE double: CPU, FPGA simulation and the GPU
  // model must agree bit for bit.
  const auto model = workload::make_nips_model(10);
  const auto artifact = model::ModelArtifact::compile(
      "m", "1", model.spn, arith::make_float64_backend());
  const auto samples = make_documents(10, 96, 2024);

  engine::FpgaSimEngine fpga(artifact);
  engine::CpuEngine cpu(artifact, {.threads = 2});
  engine::GpuModelEngine gpu(artifact);

  const auto p_fpga = fpga.infer(samples);
  const auto p_cpu = cpu.infer(samples);
  const auto p_gpu = gpu.infer(samples);
  ASSERT_EQ(p_fpga.size(), 96u);
  ASSERT_EQ(p_cpu.size(), 96u);
  ASSERT_EQ(p_gpu.size(), 96u);
  for (std::size_t i = 0; i < p_fpga.size(); ++i) {
    EXPECT_DOUBLE_EQ(p_fpga[i], p_cpu[i]) << "sample " << i;
    EXPECT_DOUBLE_EQ(p_fpga[i], p_gpu[i]) << "sample " << i;
  }
}

TEST(CrossBackend, CfpAcceleratorMatchesCpuWithinFormatBound) {
  // The FPGA engine runs the paper's custom floating-point datapath; the
  // CPU engine evaluates in double. They must agree within the format's
  // documented relative bound (1e-3 above CFP's ~1e-33 flush-to-zero
  // region — same bound as the integration tests).
  const auto model = workload::make_nips_model(10);
  const auto artifact_cfp = model::ModelArtifact::compile(
      "m", "1", model.spn, arith::make_cfp_backend(arith::paper_cfp_format()));
  const auto artifact_f64 = model::ModelArtifact::compile(
      "m", "1", model.spn, arith::make_float64_backend());
  const auto samples = make_documents(10, 123, 77);

  engine::FpgaSimEngine fpga(artifact_cfp);
  engine::CpuEngine cpu(artifact_f64, {.threads = 2});
  const auto p_fpga = fpga.infer(samples);
  const auto p_cpu = cpu.infer(samples);

  int compared = 0;
  for (std::size_t i = 0; i < p_cpu.size(); ++i) {
    if (p_cpu[i] < 1e-33) continue;
    EXPECT_NEAR(p_fpga[i] / p_cpu[i], 1.0, 1e-3) << "sample " << i;
    ++compared;
  }
  EXPECT_GT(compared, 0);
}

TEST(CrossBackend, EnginesMatchReferenceEvaluator) {
  const auto model = workload::make_nips_model(10);
  const auto artifact = model::ModelArtifact::compile(
      "m", "1", model.spn, arith::make_float64_backend());
  const auto samples = make_documents(10, 32, 5);

  engine::CpuEngine cpu(artifact);
  const auto results = cpu.infer(samples);
  spn::Evaluator reference(model.spn);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const double want = reference.evaluate_bytes(
        std::span<const std::uint8_t>(samples).subspan(i * 10, 10));
    EXPECT_DOUBLE_EQ(results[i], want) << "sample " << i;
  }
}

TEST(CrossBackend, EnginesRejectBytesOutsideTheLookupTables) {
  // The demo model compiled over a 128-byte domain: byte 200 has no
  // table entry. Every engine must refuse it rather than read past the
  // table (the CPU baseline used to return whatever lay behind it).
  compiler::CompileOptions options;
  options.input_domain = 128;
  const auto artifact = model::ModelArtifact::compile(
      "demo", "1",
      spn::parse_spn(
          "Sum(0.3*Product(Histogram(V0|[0,64,128,256];[0.0078125,0.0078125,"
          "0.0]) * Histogram(V1|[0,128,256];[0.0078125,0.0]))"
          " + 0.7*Product(Histogram(V0|[0,64,256];[0.0078125,"
          "0.00260416666666666652]) * Histogram(V1|[0,128,256];[0.005,"
          "0.0028125])))"),
      arith::make_float64_backend(), options);
  const std::vector<std::uint8_t> inside = {100, 30};
  const std::vector<std::uint8_t> outside = {200, 30};

  engine::FpgaSimEngine fpga(artifact);
  engine::CpuEngine cpu(artifact, {.threads = 1});
  engine::GpuModelEngine gpu(artifact);
  for (engine::InferenceEngine* eng :
       std::initializer_list<engine::InferenceEngine*>{&fpga, &cpu, &gpu}) {
    EXPECT_GT(eng->infer(inside).at(0), 0.0) << eng->capabilities().name;
    try {
      eng->infer(outside);
      ADD_FAILURE() << eng->capabilities().name << " accepted byte 200";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("feature byte outside lookup table"),
                std::string::npos)
          << eng->capabilities().name << ": " << e.what();
    }
  }
}

TEST(FpgaSimEngine, ThroughputMatchesDirectRuntimePath) {
  // measure_throughput must reproduce the pre-engine benchmark path
  // exactly: same composition, same runtime, same virtual-time result.
  const auto model = workload::make_nips_model(10);
  const auto artifact = model::ModelArtifact::compile(
      "m", "1", model.spn, arith::make_cfp_backend(arith::paper_cfp_format()));
  const auto& module = artifact->module();

  engine::FpgaEngineConfig config;
  config.pe_count = 2;
  config.compute_results = false;
  engine::FpgaSimEngine eng(artifact, config);
  const double via_engine = eng.measure_throughput(1'000'000);

  sim::Scheduler scheduler;
  sim::ProcessRunner runner(scheduler);
  tapasco::CompositionConfig composition;
  composition.pe_count = 2;
  composition.compute_results = false;
  tapasco::Device device(runner, module, artifact->backend(), composition);
  runtime::InferenceRuntime rt(runner, device, module);
  const double direct = rt.run(1'000'000).samples_per_second;

  EXPECT_DOUBLE_EQ(via_engine, direct);
}

TEST(FpgaSimEngine, ServedBatchesTakeTheTimedBlockPath) {
  // A served batch runs the same blocked, all-PE job that run() times (and
  // the autotuner scores): its virtual time matches run() for the same
  // sample count to the picosecond, and its results are the datapath's.
  const auto model = workload::make_nips_model(10);
  const auto artifact = model::ModelArtifact::compile(
      "m", "1", model.spn, arith::make_cfp_backend(arith::paper_cfp_format()));
  const auto& module = artifact->module();
  engine::FpgaEngineConfig config;
  config.pe_count = 8;
  config.block_samples = 8192;
  engine::FpgaSimEngine eng(artifact, config);

  constexpr std::size_t kSamples = 65536;  // 8 blocks, one per PE
  const auto samples = make_documents(10, kSamples, 77);
  std::vector<double> results(kSamples);
  const Picoseconds before = eng.virtual_now();
  eng.wait(eng.submit(samples, results));
  const Picoseconds served = eng.virtual_now() - before;
  EXPECT_EQ(served, eng.runtime().run(kSamples).elapsed);

  const auto row = [&](std::size_t i) {
    return std::span<const std::uint8_t>(samples).subspan(i * 10, 10);
  };
  for (std::size_t i = 0; i < kSamples; ++i) {
    ASSERT_EQ(results[i], module.evaluate(artifact->backend(), row(i)))
        << "sample " << i;
  }

  // A sparse batch splits at sample boundaries across three blocks.
  constexpr std::size_t kSparse = 20000;
  const auto dense = std::span<const std::uint8_t>(samples).first(kSparse * 10);
  const auto stream = compiler::encode_sparse(
      compiler::sparse_from_dense(dense, 10, module.default_evidence()));
  const auto sparse_results = eng.infer_sparse(stream, kSparse);
  ASSERT_EQ(sparse_results.size(), kSparse);
  for (std::size_t i = 0; i < kSparse; ++i) {
    ASSERT_EQ(sparse_results[i], results[i]) << "sample " << i;
  }
}

TEST(FpgaSimEngine, TimingOnlyConfigurationRejectsFunctionalBatches) {
  const auto model = workload::make_nips_model(10);
  const auto artifact = model::ModelArtifact::compile(
      "m", "1", model.spn, arith::make_cfp_backend(arith::paper_cfp_format()));

  engine::FpgaEngineConfig config;
  config.compute_results = false;
  engine::FpgaSimEngine eng(artifact, config);
  EXPECT_FALSE(eng.capabilities().functional);

  std::vector<std::uint8_t> samples(10, 0);
  std::vector<double> results(1);
  EXPECT_THROW(eng.submit(samples, results), std::logic_error);
  EXPECT_GT(eng.measure_throughput(500'000), 0.0);
}

TEST(FpgaSimEngine, StatsAccumulateAcrossBatches) {
  const auto model = workload::make_nips_model(10);
  const auto artifact = model::ModelArtifact::compile(
      "m", "1", model.spn, arith::make_float64_backend());
  engine::FpgaSimEngine eng(artifact);

  const auto samples = make_documents(10, 20, 1);
  eng.infer(samples);
  eng.infer(samples);
  const auto stats = eng.stats();
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.samples, 40u);
  EXPECT_GT(stats.busy_seconds, 0.0);       // virtual device time
  EXPECT_GT(stats.samples_per_second(), 0.0);
}

TEST(Engine, SubmitValidatesSpans) {
  const auto model = workload::make_nips_model(10);
  const auto artifact = model::ModelArtifact::compile(
      "m", "1", model.spn, arith::make_float64_backend());
  engine::CpuEngine eng(artifact);

  std::vector<std::uint8_t> ragged(15, 0);  // not a whole number of rows
  std::vector<double> results(2);
  EXPECT_THROW(eng.submit(ragged, results), std::logic_error);

  std::vector<std::uint8_t> samples(20, 0);
  std::vector<double> short_results(1);  // 2 rows but room for 1 result
  EXPECT_THROW(eng.submit(samples, short_results), std::logic_error);
}

TEST(Engine, WaitRejectsUnknownAndReusedHandles) {
  const auto model = workload::make_nips_model(10);
  const auto artifact = model::ModelArtifact::compile(
      "m", "1", model.spn, arith::make_float64_backend());
  engine::FpgaSimEngine eng(artifact);

  const auto samples = make_documents(10, 4, 9);
  std::vector<double> results(4);
  const auto handle = eng.submit(samples, results);
  EXPECT_THROW(eng.wait(handle + 1), std::logic_error);  // never submitted
  eng.wait(handle);
  EXPECT_THROW(eng.wait(handle), std::logic_error);  // already completed
}

TEST(Engine, CapabilitiesDescribeTheBackends) {
  const auto model = workload::make_nips_model(10);
  const auto artifact = model::ModelArtifact::compile(
      "m", "1", model.spn, arith::make_float64_backend());

  engine::FpgaSimEngine fpga(artifact);
  engine::CpuEngine cpu(artifact, {.threads = 3});
  engine::GpuModelEngine gpu(artifact);

  EXPECT_EQ(fpga.capabilities().name, "fpga-sim/hbm x1");
  EXPECT_EQ(fpga.capabilities().input_features, 10u);
  EXPECT_GT(fpga.capabilities().nominal_throughput, 0.0);
  EXPECT_EQ(cpu.capabilities().name, "cpu-native x3");
  EXPECT_EQ(cpu.capabilities().nominal_throughput, 0.0);  // unknown until measured
  EXPECT_GT(gpu.capabilities().nominal_throughput, 0.0);
  EXPECT_TRUE(cpu.capabilities().functional);
  EXPECT_TRUE(gpu.capabilities().functional);
}

}  // namespace
}  // namespace spnhbm
