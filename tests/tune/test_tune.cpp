// Autotuner tests: deterministic search trajectories, manifest round-trip
// and mismatch rejection, typed front-door config validation, HBM channel
// packing correctness, and the serve/fleet paths that apply a manifest
// per model lane.
#include <gtest/gtest.h>

#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "spnhbm/arith/cfp.hpp"
#include "spnhbm/engine/cpu_engine.hpp"
#include "spnhbm/engine/fpga_engine.hpp"
#include "spnhbm/engine/server.hpp"
#include "spnhbm/fleet/router.hpp"
#include "spnhbm/model/artifact.hpp"
#include "spnhbm/model/tuning.hpp"
#include "spnhbm/runtime/inference_runtime.hpp"
#include "spnhbm/sim/process.hpp"
#include "spnhbm/sim/scheduler.hpp"
#include "spnhbm/tapasco/device.hpp"
#include "spnhbm/tune/cost_model.hpp"
#include "spnhbm/tune/tuner.hpp"
#include "spnhbm/tune/workload.hpp"
#include "spnhbm/util/error.hpp"
#include "spnhbm/workload/model_zoo.hpp"

namespace spnhbm {
namespace {

model::ModelHandle nips_artifact(std::size_t variables = 10,
                                 std::string name = "m") {
  auto nips = workload::make_nips_model(variables);
  return model::ModelArtifact::compile(
      std::move(name), "1", std::move(nips.spn),
      arith::make_cfp_backend(arith::paper_cfp_format()));
}

/// A manifest matching `artifact` with serving-layer knobs set.
model::TuningManifest matching_manifest(const model::ModelArtifact& artifact,
                                        std::size_t batch = 4,
                                        std::uint64_t flush_us = 700) {
  model::TuningManifest manifest;
  manifest.model_id = artifact.id();
  manifest.content_hash_hex = artifact.content_hash_hex();
  manifest.query = compiler::query_kind_name(artifact.module().query());
  manifest.seed = 9;
  manifest.config.block_samples = 1 << 14;
  manifest.config.pe_count = 2;
  manifest.config.hbm_pes_per_channel = 1;
  manifest.config.batch_samples = batch;
  manifest.config.flush_deadline_us = flush_us;
  manifest.tuned_samples_per_second = 100.0;
  manifest.baseline_samples_per_second = 50.0;
  manifest.candidates_evaluated = 3;
  return manifest;
}

tune::TuneOptions fast_options() {
  tune::TuneOptions options;
  options.workload.requests = 8;
  options.workload.mean_request_samples = 512;
  options.workload.mean_interarrival_us = 100;
  options.workload.seed = 21;
  options.max_evaluations = 10;
  return options;
}

// --- Workload traces ---------------------------------------------------------

TEST(TuneWorkload, TraceIsDeterministicAndSorted) {
  tune::WorkloadSpec spec;
  spec.requests = 64;
  spec.sparse_fraction = 0.3;
  const auto a = tune::make_trace(spec);
  const auto b = tune::make_trace(spec);
  ASSERT_EQ(a.size(), 64u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival_us, b[i].arrival_us);
    EXPECT_EQ(a[i].samples, b[i].samples);
    EXPECT_EQ(a[i].sparse, b[i].sparse);
    EXPECT_GE(a[i].samples, 1u);
    if (i > 0) {
      EXPECT_GE(a[i].arrival_us, a[i - 1].arrival_us);
    }
  }
  spec.seed = 99;
  const auto c = tune::make_trace(spec);
  bool any_differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    any_differs |= a[i].samples != c[i].samples;
  }
  EXPECT_TRUE(any_differs) << "different seeds must yield different traces";
}

TEST(TuneWorkload, ZeroInterarrivalMeansBurstAtTimeZero) {
  tune::WorkloadSpec spec;
  spec.requests = 5;
  spec.mean_interarrival_us = 0;
  for (const auto& request : tune::make_trace(spec)) {
    EXPECT_EQ(request.arrival_us, 0u);
  }
}

// --- Cost model --------------------------------------------------------------

TEST(TuneCostModel, InfeasibleCandidatesAreRejectedNotThrown) {
  const auto model = nips_artifact();
  tune::WorkloadSpec spec;
  spec.requests = 4;
  const auto trace = tune::make_trace(spec);
  model::TunedConfig config;
  config.block_samples = 1 << 14;
  config.pe_count = 16;  // beyond the routable maximum (8 on XUP-VVH)
  config.batch_samples = 1024;
  config.flush_deadline_us = 1000;
  const auto score = tune::score_candidate(model, config, spec, trace,
                                           fpga::Platform::kHbmXupVvh);
  EXPECT_FALSE(score.feasible);
  EXPECT_FALSE(score.rejection.empty());
}

TEST(TuneCostModel, SparseWorkloadScores) {
  const auto model = nips_artifact();
  tune::WorkloadSpec spec;
  spec.requests = 4;
  spec.mean_request_samples = 64;
  spec.sparse_fraction = 0.5;
  const auto trace = tune::make_trace(spec);
  model::TunedConfig config;
  config.block_samples = 1 << 14;
  config.pe_count = 2;
  config.batch_samples = 256;
  config.flush_deadline_us = 1000;
  const auto score = tune::score_candidate(model, config, spec, trace,
                                           fpga::Platform::kHbmXupVvh);
  EXPECT_TRUE(score.feasible) << score.rejection;
  EXPECT_GT(score.samples_per_second, 0.0);
}

// --- The search --------------------------------------------------------------

TEST(Tuner, SameSeedReproducesSearchLogByteForByte) {
  const auto model = nips_artifact();
  const auto options = fast_options();
  const auto a = tune::tune(model, options);
  const auto b = tune::tune(model, options);
  EXPECT_EQ(a.search_log, b.search_log);
  EXPECT_EQ(a.best, b.best);
  EXPECT_EQ(a.candidates_evaluated, b.candidates_evaluated);
}

TEST(Tuner, TunedNeverLosesToBaseline) {
  const auto model = nips_artifact();
  const auto result = tune::tune(model, fast_options());
  EXPECT_TRUE(result.best_score.feasible);
  EXPECT_GE(result.best_score.samples_per_second,
            result.baseline_score.samples_per_second);
  EXPECT_LE(result.candidates_evaluated, 10u);
  EXPECT_NE(result.search_log.find("baseline"), std::string::npos);
  EXPECT_NE(result.search_log.find("best"), std::string::npos);
}

TEST(Tuner, RespectsPeBound) {
  const auto model = nips_artifact();
  auto options = fast_options();
  options.max_pe_count = 2;
  const auto result = tune::tune(model, options);
  EXPECT_LE(result.best.pe_count, 2);
  EXPECT_LE(result.baseline.pe_count, 2);
}

// --- Manifest round-trip and rejection ---------------------------------------

TEST(TuningManifest, JsonRoundTrip) {
  const auto model = nips_artifact();
  const auto manifest = matching_manifest(*model);
  const auto restored = model::TuningManifest::from_json(manifest.to_json());
  EXPECT_EQ(restored.model_id, manifest.model_id);
  EXPECT_EQ(restored.content_hash_hex, manifest.content_hash_hex);
  EXPECT_EQ(restored.query, manifest.query);
  EXPECT_EQ(restored.seed, manifest.seed);
  EXPECT_EQ(restored.config, manifest.config);
  EXPECT_DOUBLE_EQ(restored.tuned_samples_per_second,
                   manifest.tuned_samples_per_second);
  EXPECT_EQ(restored.candidates_evaluated, manifest.candidates_evaluated);
}

TEST(TuningManifest, SaveLoadFile) {
  const auto model = nips_artifact();
  const auto manifest = matching_manifest(*model);
  const std::string path = "tune_manifest_test.json";
  manifest.save(path);
  const auto loaded = model::TuningManifest::load(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.config, manifest.config);
  EXPECT_EQ(loaded.content_hash_hex, manifest.content_hash_hex);
}

TEST(TuningManifest, MalformedJsonIsRejected) {
  EXPECT_THROW(model::TuningManifest::from_json("{}"), model::TuningError);
  EXPECT_THROW(model::TuningManifest::from_json("not json"), Error);
}

TEST(TuningManifest, HashMismatchIsRejectedOnAttach) {
  const auto tuned_for = nips_artifact(10);
  const auto other = nips_artifact(20, "other");  // different compiled bits
  const auto manifest = std::make_shared<const model::TuningManifest>(
      matching_manifest(*tuned_for));
  EXPECT_THROW(other->attach_tuning(manifest), model::TuningError);
  EXPECT_EQ(other->tuning(), nullptr);
  // The artifact it was minted for accepts it.
  tuned_for->attach_tuning(manifest);
  ASSERT_NE(tuned_for->tuning(), nullptr);
  EXPECT_EQ(tuned_for->tuning()->config.batch_samples, 4u);
}

TEST(Tuner, ManifestCarriesModelIdentityAndScores) {
  const auto model = nips_artifact();
  const auto result = tune::tune(model, fast_options());
  const auto manifest = result.manifest(*model);
  EXPECT_EQ(manifest.content_hash_hex, model->content_hash_hex());
  EXPECT_EQ(manifest.query, "joint");
  EXPECT_EQ(manifest.config, result.best);
  EXPECT_EQ(manifest.candidates_evaluated, result.candidates_evaluated);
  // And it attaches cleanly to the model it was tuned for.
  model->attach_tuning(
      std::make_shared<const model::TuningManifest>(manifest));
  EXPECT_NE(model->tuning(), nullptr);
}

// --- Typed front-door validation ---------------------------------------------

TEST(TunedConfig, ValidateRejectsBadKnobs) {
  model::TunedConfig config;
  config.block_samples = 1 << 14;
  config.pe_count = 2;
  config.batch_samples = 256;
  config.flush_deadline_us = 1000;
  EXPECT_NO_THROW(config.validate());

  auto broken = config;
  broken.block_samples = 0;
  EXPECT_THROW(broken.validate(), ConfigError);

  broken = config;
  broken.pe_count = 0;
  EXPECT_THROW(broken.validate(), ConfigError);

  broken = config;
  broken.hbm_pes_per_channel = 0;
  EXPECT_THROW(broken.validate(), ConfigError);

  // The satellite edge: batch 0 with a nonzero flush deadline is a
  // contradiction (nothing ever batches, yet a deadline is armed).
  broken = config;
  broken.batch_samples = 0;
  broken.flush_deadline_us = 500;
  EXPECT_THROW(broken.validate(), ConfigError);
}

TEST(RuntimeConfig, ZeroBlockSamplesIsTypedError) {
  const auto model = nips_artifact();
  engine::FpgaEngineConfig config;
  config.pe_count = 1;
  config.block_samples = 0;  // engine treats 0 as "default"; force it low
  EXPECT_NO_THROW(engine::FpgaSimEngine(model, config));
  // The runtime front door itself rejects a zero block size.
  sim::Scheduler scheduler;
  sim::ProcessRunner runner(scheduler);
  tapasco::CompositionConfig composition;
  composition.pe_count = 1;
  tapasco::Device device(runner, model->module(), model->backend(),
                         composition);
  runtime::RuntimeConfig rc;
  rc.block_samples = 0;
  EXPECT_THROW(
      runtime::InferenceRuntime(runner, device, model->module(), rc),
      ConfigError);
}

TEST(FpgaEngineConfig, NegativePeCountIsTypedError) {
  const auto model = nips_artifact();
  engine::FpgaEngineConfig config;
  config.pe_count = -3;
  EXPECT_THROW(engine::FpgaSimEngine(model, config), ConfigError);
}

TEST(CompositionConfig, BadPackingIsTypedError) {
  const auto model = nips_artifact();
  sim::Scheduler scheduler;
  sim::ProcessRunner runner(scheduler);
  tapasco::CompositionConfig composition;
  composition.pe_count = 2;
  composition.hbm_pes_per_channel = 0;
  EXPECT_THROW(tapasco::Device(runner, model->module(), model->backend(),
                               composition),
               ConfigError);
}

// --- HBM channel packing -----------------------------------------------------

TEST(ChannelPacking, PackedEngineMatchesDedicatedResults) {
  const auto model = nips_artifact();
  engine::FpgaEngineConfig dedicated;
  dedicated.pe_count = 4;
  engine::FpgaEngineConfig packed = dedicated;
  packed.hbm_pes_per_channel = 2;  // 4 PEs on 2 channels
  engine::FpgaSimEngine a(model, dedicated);
  engine::FpgaSimEngine b(model, packed);

  std::vector<std::uint8_t> samples;
  for (std::size_t i = 0; i < 32 * model->input_features(); ++i) {
    samples.push_back(static_cast<std::uint8_t>(i % 7));
  }
  const auto dedicated_results = a.infer(samples);
  const auto packed_results = b.infer(samples);
  ASSERT_EQ(dedicated_results.size(), packed_results.size());
  for (std::size_t i = 0; i < dedicated_results.size(); ++i) {
    EXPECT_DOUBLE_EQ(dedicated_results[i], packed_results[i]) << "sample " << i;
  }
}

TEST(ChannelPacking, SharedChannelIsNeverFasterThanDedicated) {
  const auto model = nips_artifact();
  engine::FpgaEngineConfig dedicated;
  dedicated.pe_count = 4;
  dedicated.compute_results = false;
  engine::FpgaEngineConfig packed = dedicated;
  packed.hbm_pes_per_channel = 4;  // all four PEs share one channel
  engine::FpgaSimEngine a(model, dedicated);
  engine::FpgaSimEngine b(model, packed);
  const double dedicated_throughput = a.measure_throughput(1 << 16);
  const double packed_throughput = b.measure_throughput(1 << 16);
  EXPECT_LE(packed_throughput, dedicated_throughput * 1.0001);
}

// --- Serving applies the manifest per lane -----------------------------------

TEST(ServerTuning, LaneUsesManifestBatchAndFlush) {
  const auto model = nips_artifact();
  model->attach_tuning(std::make_shared<const model::TuningManifest>(
      matching_manifest(*model, /*batch=*/4, /*flush_us=*/700)));

  engine::ServerConfig config;
  config.batch_samples = 64;  // server-wide default the lane must override
  engine::InferenceServer server(config);
  server.register_engine(std::make_shared<engine::CpuEngine>(model));
  server.start();
  EXPECT_EQ(server.stats().per_model.at(model->id()).batch_samples, 4u);

  std::vector<std::future<std::vector<double>>> futures;
  for (int i = 0; i < 8; ++i) {
    std::vector<std::uint8_t> row(model->input_features(),
                                  static_cast<std::uint8_t>(i));
    futures.push_back(server.submit(model->id(), std::move(row)));
  }
  for (auto& future : futures) {
    EXPECT_EQ(future.get().size(), 1u);
  }
  server.stop();

  const auto stats = server.stats();
  const auto it = stats.per_model.find(model->id());
  ASSERT_NE(it, stats.per_model.end());
  EXPECT_EQ(it->second.batch_samples, 4u);
  EXPECT_EQ(stats.requests, 8u);
}

TEST(ServerTuning, UntunedLaneKeepsServerDefaults) {
  const auto model = nips_artifact();
  engine::ServerConfig config;
  config.batch_samples = 64;
  engine::InferenceServer server(config);
  server.register_engine(std::make_shared<engine::CpuEngine>(model));
  server.start();
  EXPECT_EQ(server.stats().per_model.at(model->id()).batch_samples, 64u);
  server.stop();
}

// --- Fleet placement from the manifest ---------------------------------------

TEST(FleetTuning, DeploySizesPartitionFromManifest) {
  const auto model = nips_artifact();
  model->attach_tuning(std::make_shared<const model::TuningManifest>(
      matching_manifest(*model)));  // pe_count = 2

  fleet::FleetConfig config;
  config.devices = 1;
  fleet::FleetRouter router(config);
  const auto location = router.deploy(model);  // pe_slots = 0 -> manifest
  EXPECT_EQ(router.replica_count(model->id()), 1u);
  EXPECT_EQ(location.member, 0u);
}

TEST(FleetTuning, OversizedManifestFailsPlacementLoudly) {
  const auto model = nips_artifact(10, "big");
  auto manifest = matching_manifest(*model);
  manifest.config.pe_count = 64;  // no device fits this partition
  model->attach_tuning(
      std::make_shared<const model::TuningManifest>(manifest));

  fleet::FleetConfig config;
  config.devices = 1;
  fleet::FleetRouter router(config);
  EXPECT_THROW(router.deploy(model), PlacementError);
  EXPECT_EQ(router.replica_count(model->id()), 0u);
}

}  // namespace
}  // namespace spnhbm
