// Multi-model serving tests: one InferenceServer hosting several models
// with distinct input widths, model-routed dispatch (batches never mix
// models), per-model stats, and engine hot-swap — cheap on the CPU/mock
// backends, mechanistic (simulated reconfiguration time + placement
// re-check) on the FPGA simulation, and fault-injectable through the
// chaos decorator.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "mock_engine.hpp"
#include "spnhbm/engine/chaos_engine.hpp"
#include "spnhbm/engine/cpu_engine.hpp"
#include "spnhbm/engine/fpga_engine.hpp"
#include "spnhbm/engine/server.hpp"
#include "spnhbm/fault/fault.hpp"
#include "spnhbm/fpga/resource_model.hpp"
#include "spnhbm/model/artifact.hpp"
#include "spnhbm/spn/random_spn.hpp"
#include "spnhbm/util/rng.hpp"
#include "spnhbm/workload/model_zoo.hpp"

namespace spnhbm {
namespace {

using engine_test::expect_encoded;
using engine_test::kFeatures;
using engine_test::make_request;
using engine_test::MockEngine;

model::ModelHandle nips_artifact(std::size_t variables,
                                 std::string version = "1") {
  auto model = workload::make_nips_model(variables);
  return model::ModelArtifact::compile(model.name, std::move(version),
                                       std::move(model.spn),
                                       arith::make_float64_backend());
}

model::ModelHandle random_artifact(std::string name, std::size_t variables,
                                   std::uint64_t seed) {
  spn::RandomSpnConfig config;
  config.variables = variables;
  config.seed = seed;
  return model::ModelArtifact::compile(std::move(name), "1",
                                       spn::make_random_spn(config),
                                       arith::make_float64_backend());
}

std::vector<std::uint8_t> random_rows(Rng& rng, std::size_t rows,
                                      std::size_t features) {
  std::vector<std::uint8_t> samples(rows * features);
  for (auto& byte : samples) {
    byte = static_cast<std::uint8_t>(rng.next_below(256));
  }
  return samples;
}

void expect_reference(const model::ModelArtifact& artifact,
                      std::span<const std::uint8_t> samples,
                      const std::vector<double>& results) {
  const std::size_t features = artifact.input_features();
  ASSERT_EQ(results.size(), samples.size() / features);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const double want = artifact.module().evaluate(
        artifact.backend(), samples.subspan(i * features, features));
    EXPECT_DOUBLE_EQ(results[i], want) << "sample " << i;
  }
}

// ---------------------------------------------------------------------------
// Concurrent multi-model serving, verified against the reference evaluator.

TEST(MultiModelServer, ServesThreeModelsWithDistinctWidthsConcurrently) {
  const auto nips10 = nips_artifact(10);
  const auto nips20 = nips_artifact(20);
  const auto rand8 = random_artifact("rand8", 8, 42);
  const std::vector<model::ModelHandle> artifacts = {nips10, nips20, rand8};

  engine::ServerConfig config;
  config.batch_samples = 8;
  config.max_latency = std::chrono::microseconds(200);
  engine::InferenceServer server(config);
  for (const auto& artifact : artifacts) {
    server.register_engine(std::make_shared<engine::CpuEngine>(artifact));
  }
  EXPECT_EQ(server.served_models(),
            (std::vector<std::string>{"NIPS10@1", "NIPS20@1", "rand8@1"}));
  EXPECT_EQ(server.input_features("NIPS10@1"), 10u);
  EXPECT_EQ(server.input_features("rand8"), 8u);  // bare name
  // The sole-model submit cannot pick among several models.
  EXPECT_THROW(server.submit(std::vector<std::uint8_t>(10, 0)),
               RuntimeApiError);
  EXPECT_THROW(server.input_features("nope"), RuntimeApiError);
  server.start();

  // Interleaved traffic: request r goes to model r%3 with 1..4 rows.
  Rng rng(2022);
  std::vector<std::pair<std::size_t, std::vector<std::uint8_t>>> requests;
  std::vector<std::future<std::vector<double>>> futures;
  std::vector<std::uint64_t> rows_per_model(artifacts.size(), 0);
  for (std::size_t r = 0; r < 45; ++r) {
    const std::size_t m = r % artifacts.size();
    const std::size_t rows = 1 + rng.next_below(4);
    auto samples = random_rows(rng, rows, artifacts[m]->input_features());
    futures.push_back(server.submit(artifacts[m]->id(), samples));
    requests.emplace_back(m, std::move(samples));
    rows_per_model[m] += rows;
  }
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const auto& [m, samples] = requests[r];
    expect_reference(*artifacts[m], samples, futures[r].get());
  }
  server.stop();

  const auto stats = server.stats();
  ASSERT_EQ(stats.per_model.size(), artifacts.size());
  for (std::size_t m = 0; m < artifacts.size(); ++m) {
    const auto& per = stats.per_model.at(artifacts[m]->id());
    EXPECT_EQ(per.requests, 15u);
    EXPECT_EQ(per.samples, rows_per_model[m]);
    EXPECT_GT(per.batches, 0u);
    EXPECT_EQ(per.failed_requests, 0u);
  }
  EXPECT_EQ(stats.requests, 45u);
}

TEST(MultiModelServer, ModelResolutionHandlesBareAmbiguousAndUnknown) {
  const auto v1 = nips_artifact(10, "1");
  const auto v2 = nips_artifact(10, "2");
  engine::InferenceServer server;
  server.register_engine(std::make_shared<engine::CpuEngine>(v1));
  server.register_engine(std::make_shared<engine::CpuEngine>(v2));
  server.start();

  Rng rng(7);
  auto row = random_rows(rng, 1, 10);
  // Exact ids always resolve; the bare name is ambiguous across versions;
  // the single-model overload refuses to guess between two models.
  auto ok = server.submit("NIPS10@2", row);
  expect_reference(*v2, row, ok.get());
  EXPECT_THROW(server.submit(row), RuntimeApiError);
  EXPECT_THROW(server.submit("missing@1", row), RuntimeApiError);
  // The ambiguity error must list the candidate ids, so a remote caller
  // seeing only the message can immediately retry with an exact id.
  try {
    server.submit("NIPS10", row);
    FAIL() << "expected RuntimeApiError for the ambiguous bare name";
  } catch (const RuntimeApiError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("ambiguous"), std::string::npos) << what;
    EXPECT_NE(what.find("NIPS10@1"), std::string::npos) << what;
    EXPECT_NE(what.find("NIPS10@2"), std::string::npos) << what;
  }
  server.stop();
}

TEST(MultiModelServer, BatchesNeverMixModels) {
  // Two mock fleets serving different 4-feature models: every batch an
  // engine observes must contain only its own model's samples. The mock's
  // checksum results prove the per-slot routing; the dispatch counters
  // prove no batch crossed lanes.
  auto for_mock = std::make_shared<MockEngine>();
  auto for_other = std::make_shared<MockEngine>();
  for_other->activate(random_artifact("other", kFeatures, 99));

  engine::ServerConfig config;
  config.batch_samples = 8;
  config.max_latency = std::chrono::milliseconds(1000);  // flush via stop()
  engine::InferenceServer server(config);
  server.register_engine(for_mock);
  server.register_engine(for_other);

  std::vector<std::vector<std::uint8_t>> requests;
  std::vector<std::future<std::vector<double>>> futures;
  std::uint64_t mock_rows = 0, other_rows = 0;
  for (std::size_t r = 0; r < 24; ++r) {
    const bool to_mock = (r % 2) == 0;
    const std::size_t rows = 1 + r % 3;
    requests.push_back(make_request(rows, static_cast<std::uint8_t>(r * 8)));
    futures.push_back(
        server.submit(to_mock ? "mock" : "other", requests.back()));
    (to_mock ? mock_rows : other_rows) += rows;
  }
  server.start();
  server.stop();

  for (std::size_t r = 0; r < requests.size(); ++r) {
    expect_encoded(requests[r], futures[r].get());
  }
  // Each engine saw exactly its model's samples — nothing leaked across.
  EXPECT_EQ(for_mock->stats().samples, mock_rows);
  EXPECT_EQ(for_other->stats().samples, other_rows);
  EXPECT_EQ(server.dispatched_samples(0), mock_rows);
  EXPECT_EQ(server.dispatched_samples(1), other_rows);
  EXPECT_EQ(server.engine_model(0), "mock@1");
  EXPECT_EQ(server.engine_model(1), "other@1");
  const auto stats = server.stats();
  EXPECT_EQ(stats.per_model.at("mock@1").samples, mock_rows);
  EXPECT_EQ(stats.per_model.at("other@1").samples, other_rows);
}

// ---------------------------------------------------------------------------
// FPGA hot-swap: mechanistic reconfiguration on the simulated card.

TEST(FpgaHotSwap, ChargesSimulatedReconfigurationTimeAndServesNewModel) {
  const auto nips10 = nips_artifact(10);
  const auto nips20 = nips_artifact(20);
  engine::FpgaSimEngine engine(nips10);
  EXPECT_EQ(engine.loaded_model()->id(), "NIPS10@1");
  EXPECT_EQ(engine.capabilities().input_features, 10u);

  Rng rng(5);
  const auto before = random_rows(rng, 4, 10);
  std::vector<double> results(4);
  engine.wait(engine.submit(before, results));
  expect_reference(*nips10, before, results);

  const auto virtual_before = engine.virtual_now();
  engine.activate(nips20);

  // The swap is charged in simulated time: bitstream over the ICAP plus
  // staging the new model's tables through the DMA path.
  const auto stats = engine.stats();
  EXPECT_EQ(stats.reconfigurations, 1u);
  EXPECT_GT(stats.reconfiguration_seconds, 0.0);
  EXPECT_GT(engine.virtual_now(), virtual_before);
  EXPECT_EQ(engine.loaded_model()->id(), "NIPS20@1");
  EXPECT_EQ(engine.capabilities().input_features, 20u);

  const auto after = random_rows(rng, 4, 20);
  engine.wait(engine.submit(after, results));
  expect_reference(*nips20, after, results);
}

TEST(FpgaHotSwap, PlacementFailureKeepsThePreviousModelServing) {
  const auto small = nips_artifact(10);
  const auto big = nips_artifact(80);

  // Pick a PE count the small design places at but the big one cannot.
  const auto platform = fpga::Platform::kHbmXupVvh;
  const int max_big = fpga::max_placeable_pes(
      big->module(), big->backend().kind(), platform);
  const int max_small = fpga::max_placeable_pes(
      small->module(), small->backend().kind(), platform);
  ASSERT_GT(max_small, max_big) << "test premise: NIPS80 is the larger design";

  engine::FpgaEngineConfig config;
  config.pe_count = max_big + 1;
  engine::FpgaSimEngine engine(small, config);
  EXPECT_THROW(engine.activate(big), PlacementError);

  // The failed swap must leave the old model fully operational.
  EXPECT_EQ(engine.loaded_model()->id(), "NIPS10@1");
  EXPECT_EQ(engine.capabilities().input_features, 10u);
  EXPECT_EQ(engine.stats().reconfigurations, 0u);
  Rng rng(6);
  const auto samples = random_rows(rng, 3, 10);
  std::vector<double> results(3);
  engine.wait(engine.submit(samples, results));
  expect_reference(*small, samples, results);
}

// ---------------------------------------------------------------------------
// Server-driven hot-swap, including a deterministic activation fault.

TEST(MultiModelServer, ActivateHotSwapsOneEngineWhileTheFleetServes) {
  const auto other = random_artifact("other", kFeatures, 99);
  auto first = std::make_shared<MockEngine>();
  auto second = std::make_shared<MockEngine>();
  engine::ServerConfig config;
  config.batch_samples = 4;
  config.max_latency = std::chrono::microseconds(200);
  engine::InferenceServer server(config);
  server.register_engine(first);
  server.register_engine(second);
  server.start();

  std::vector<std::vector<std::uint8_t>> requests;
  std::vector<std::future<std::vector<double>>> futures;
  for (std::size_t r = 0; r < 8; ++r) {
    requests.push_back(make_request(2, static_cast<std::uint8_t>(r * 16)));
    futures.push_back(server.submit("mock", requests.back()));
  }

  server.activate(0, other).get();
  EXPECT_EQ(server.engine_model(0), "other@1");
  EXPECT_EQ(server.engine_model(1), "mock@1");
  EXPECT_EQ(server.served_models(),
            (std::vector<std::string>{"mock@1", "other@1"}));
  EXPECT_EQ(first->stats().reconfigurations, 1u);

  // Both lanes keep serving after the swap: "mock" on the remaining
  // engine, "other" on the freshly activated one.
  for (std::size_t r = 0; r < 8; ++r) {
    requests.push_back(make_request(2, static_cast<std::uint8_t>(r * 8 + 4)));
    futures.push_back(
        server.submit(r % 2 == 0 ? "other" : "mock", requests.back()));
  }
  for (std::size_t r = 0; r < requests.size(); ++r) {
    expect_encoded(requests[r], futures[r].get());
  }
  server.stop();
  EXPECT_EQ(server.stats().activations, 1u);
  EXPECT_EQ(server.stats().failed_activations, 0u);
}

TEST(MultiModelServer, ActivateValidatesItsArguments) {
  auto mock = std::make_shared<MockEngine>();
  const auto other = random_artifact("other", kFeatures, 99);
  engine::InferenceServer server;
  server.register_engine(mock);
  EXPECT_THROW(server.activate(0, other), RuntimeApiError);  // not running
  server.start();
  EXPECT_THROW(server.activate(7, other), RuntimeApiError);  // bad index
  EXPECT_THROW(server.activate(0, nullptr), RuntimeApiError);
  server.stop();
}

TEST(MultiModelServer, ChaosActivationFailureIsContainedAndRetryable) {
  // Deterministic fault: the first engine.activate on the chaos-wrapped
  // engine fails; in-flight and later batches must be untouched, the old
  // model keeps serving, and a second activate succeeds.
  fault::FaultPlan plan;
  plan.seed = 99;
  fault::FaultRule rule;
  rule.site = "engine.activate";
  rule.kind = fault::FaultKind::kFail;
  rule.from = 0;
  rule.until = 1;
  rule.has_window = true;
  plan.rules.push_back(rule);
  fault::ScopedFaultPlan armed(std::move(plan));

  const auto other = random_artifact("other", kFeatures, 99);
  auto chaos = std::make_shared<engine::ChaosEngine>(
      std::make_unique<MockEngine>());
  auto steady = std::make_shared<MockEngine>();

  engine::ServerConfig config;
  config.batch_samples = 4;
  config.max_latency = std::chrono::microseconds(200);
  config.health.quarantine_after = 100;  // failures stay visible, not fatal
  engine::InferenceServer server(config);
  server.register_engine(chaos);
  server.register_engine(steady);
  server.start();

  std::vector<std::vector<std::uint8_t>> requests;
  std::vector<std::future<std::vector<double>>> futures;
  auto pump = [&](std::size_t count, std::uint8_t tint) {
    for (std::size_t r = 0; r < count; ++r) {
      requests.push_back(
          make_request(2, static_cast<std::uint8_t>(tint + r * 4)));
      futures.push_back(server.submit("mock", requests.back()));
    }
  };

  pump(6, 0);  // traffic in flight across the failed swap
  auto failed = server.activate(0, other);
  EXPECT_THROW(failed.get(), Error);
  EXPECT_EQ(server.engine_model(0), "mock@1");  // old model kept
  pump(6, 100);

  server.activate(0, other).get();  // op index 1: outside the fault window
  EXPECT_EQ(server.engine_model(0), "other@1");
  requests.push_back(make_request(3, 200));
  futures.push_back(server.submit("other", requests.back()));

  for (std::size_t r = 0; r < requests.size(); ++r) {
    expect_encoded(requests[r], futures[r].get());
  }
  server.stop();

  const auto stats = server.stats();
  EXPECT_EQ(stats.activations, 1u);
  EXPECT_EQ(stats.failed_activations, 1u);
  EXPECT_EQ(stats.failed_requests, 0u);  // no request was harmed
  EXPECT_EQ(stats.per_model.at("mock@1").samples, 24u);
  EXPECT_EQ(stats.per_model.at("other@1").samples, 3u);
}

}  // namespace
}  // namespace spnhbm
