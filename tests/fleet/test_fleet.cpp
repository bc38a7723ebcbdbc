// The sharded fleet router: replicas placed across N simulated devices,
// round-robin routing with failover on a full member queue, conservation
// identities end to end, and the telemetry-driven rebalancer scaling hot
// models up and cold models down.
#include "spnhbm/fleet/router.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "spnhbm/compiler/sparse_evidence.hpp"
#include "spnhbm/fpga/resource_model.hpp"
#include "spnhbm/model/artifact.hpp"
#include "spnhbm/util/rng.hpp"
#include "spnhbm/workload/model_zoo.hpp"

namespace spnhbm {
namespace {

model::ModelHandle nips_artifact(std::size_t variables,
                                 std::string version = "1") {
  auto model = workload::make_nips_model(variables);
  return model::ModelArtifact::compile(model.name, std::move(version),
                                       std::move(model.spn),
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

fleet::FleetConfig quick_fleet(std::size_t devices) {
  fleet::FleetConfig config;
  config.devices = devices;
  config.server.batch_samples = 8;
  config.server.max_latency = std::chrono::microseconds(200);
  return config;
}

void expect_reference(const model::ModelHandle& artifact,
                      const std::vector<std::uint8_t>& samples,
                      const std::vector<double>& results) {
  const std::size_t features = artifact->input_features();
  ASSERT_EQ(results.size(), samples.size() / features);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const double want = artifact->module().evaluate(
        artifact->backend(),
        std::span<const std::uint8_t>(samples).subspan(i * features,
                                                       features));
    EXPECT_DOUBLE_EQ(results[i], want) << "sample " << i;
  }
}

TEST(FleetRouter, RoutesMixedTrafficAcrossDevicesAndConserves) {
  auto nips10 = nips_artifact(10);
  auto nips20 = nips_artifact(20);
  fleet::FleetRouter router(quick_fleet(2));

  // Two replicas of NIPS10 land on different devices (least-loaded
  // placement); NIPS20 gets one.
  const auto r0 = router.deploy(nips10);
  const auto r1 = router.deploy(nips10);
  EXPECT_NE(r0.member, r1.member);
  router.deploy(nips20);
  EXPECT_EQ(router.replica_count("NIPS10@1"), 2u);
  EXPECT_EQ(router.served_models(),
            (std::vector<std::string>{"NIPS10@1", "NIPS20@1"}));
  EXPECT_EQ(router.input_features("NIPS10"), 10u);
  EXPECT_EQ(router.input_features("NIPS20@1"), 20u);

  router.start();
  Rng rng(23);
  std::vector<std::pair<model::ModelHandle, std::vector<std::uint8_t>>> sent;
  std::vector<std::future<std::vector<double>>> futures;
  for (std::size_t r = 0; r < 16; ++r) {
    const auto& artifact = r % 3 == 0 ? nips20 : nips10;
    auto samples = random_rows(rng, 2, artifact->input_features());
    auto future = router.try_submit(artifact->id(), samples);
    ASSERT_TRUE(future.has_value());
    futures.push_back(std::move(*future));
    sent.emplace_back(artifact, std::move(samples));
  }
  for (std::size_t r = 0; r < sent.size(); ++r) {
    expect_reference(sent[r].first, sent[r].second, futures[r].get());
  }
  router.stop();

  // Conservation: every routed request was accepted by exactly one
  // member, and the members' own accounting agrees with the router's.
  const auto stats = router.stats();
  EXPECT_EQ(stats.routed_requests, 16u);
  EXPECT_EQ(stats.accepted_requests + stats.rejected_requests,
            stats.routed_requests);
  EXPECT_EQ(stats.rejected_requests, 0u);
  EXPECT_EQ(stats.accepted_samples, 32u);
  std::uint64_t member_requests = 0;
  std::uint64_t member_samples = 0;
  std::uint64_t member_failed = 0;
  for (std::size_t m = 0; m < router.member_count(); ++m) {
    const auto member_stats = router.server(m).stats();
    member_requests += member_stats.requests;
    member_samples += member_stats.samples;
    member_failed += member_stats.failed_requests;
  }
  EXPECT_EQ(member_requests, stats.accepted_requests);
  EXPECT_EQ(member_samples, stats.accepted_samples);
  EXPECT_EQ(member_failed, 0u);
  // Both NIPS10 replicas saw traffic: round-robin spreads the lane.
  EXPECT_GT(router.server(r0.member).stats().requests, 0u);
  EXPECT_GT(router.server(r1.member).stats().requests, 0u);
}

TEST(FleetRouter, FailsOverToAnotherReplicaWhenAMemberQueueIsFull) {
  auto nips10 = nips_artifact(10);
  auto config = quick_fleet(2);
  // Tiny per-member queue bound: 4 samples fill a member.
  config.server.max_queue_samples = 4;
  fleet::FleetRouter router(config);
  router.deploy(nips10);
  router.deploy(nips10);

  // Before start() nothing drains, so admission is deterministic: the
  // first request fills one member, the second fails over to the other,
  // the third finds every replica full and is rejected.
  Rng rng(31);
  std::vector<std::vector<std::uint8_t>> requests;
  std::vector<std::future<std::vector<double>>> futures;
  for (int r = 0; r < 3; ++r) {
    requests.push_back(random_rows(rng, 4, 10));
    auto future = router.try_submit("NIPS10@1", requests.back());
    if (r < 2) {
      ASSERT_TRUE(future.has_value()) << "request " << r;
      futures.push_back(std::move(*future));
    } else {
      EXPECT_FALSE(future.has_value());
    }
  }
  const auto before = router.stats();
  EXPECT_EQ(before.routed_requests, 3u);
  EXPECT_EQ(before.accepted_requests, 2u);
  EXPECT_EQ(before.rejected_requests, 1u);

  router.start();
  for (std::size_t r = 0; r < futures.size(); ++r) {
    expect_reference(nips10, requests[r], futures[r].get());
  }
  router.stop();
}

TEST(FleetRouter, RequestsLargerThanTheQueueBoundAreRejectedOnce) {
  // A request no member could ever queue is the request's fault: it is
  // booked as one rejection (routed = accepted + rejected still holds),
  // no member's reject streak grows, and the typed error reaches the
  // caller on the dense and the sparse path alike.
  auto nips10 = nips_artifact(10);
  auto config = quick_fleet(2);
  config.server.max_queue_samples = 4;
  fleet::FleetRouter router(config);
  router.deploy(nips10);
  router.deploy(nips10);

  Rng rng(37);
  const auto rows = random_rows(rng, 5, 10);
  const std::vector<std::uint8_t> defaults(10, 0);
  const auto stream = compiler::encode_sparse(
      compiler::sparse_from_dense(rows, 10, defaults));
  EXPECT_THROW(router.try_submit("NIPS10@1", rows),
               engine::RequestTooLargeError);
  EXPECT_THROW(router.try_submit_sparse("NIPS10@1", stream, 5),
               engine::RequestTooLargeError);
  for (std::size_t m = 0; m < router.member_count(); ++m) {
    EXPECT_EQ(router.member_consecutive_rejects(m), 0u) << "member " << m;
  }

  const std::vector<std::uint8_t> fitting(rows.begin(), rows.begin() + 40);
  auto future = router.try_submit("NIPS10@1", fitting);
  ASSERT_TRUE(future.has_value());
  const auto stats = router.stats();
  EXPECT_EQ(stats.routed_requests, 3u);
  EXPECT_EQ(stats.accepted_requests, 1u);
  EXPECT_EQ(stats.rejected_requests, 2u);
  EXPECT_EQ(stats.accepted_requests + stats.rejected_requests,
            stats.routed_requests);

  router.start();
  expect_reference(nips10, fitting, future->get());
  router.stop();
}

TEST(FleetRouter, RebalanceScalesHotModelsUpAndColdModelsDown) {
  auto hot = nips_artifact(10);
  auto cold = nips_artifact(20);
  fleet::FleetRouter router(quick_fleet(2));
  router.deploy(hot);
  router.deploy(cold);
  router.deploy(cold);
  EXPECT_EQ(router.replica_count("NIPS20@1"), 2u);
  router.start();

  // Skewed traffic: the hot model takes ~94% of the samples.
  Rng rng(41);
  std::vector<std::future<std::vector<double>>> futures;
  for (int r = 0; r < 15; ++r) {
    auto future = router.try_submit("NIPS10@1", random_rows(rng, 2, 10));
    ASSERT_TRUE(future.has_value());
    futures.push_back(std::move(*future));
  }
  auto cold_future = router.try_submit("NIPS20@1", random_rows(rng, 2, 20));
  ASSERT_TRUE(cold_future.has_value());
  futures.push_back(std::move(*cold_future));
  for (auto& future : futures) future.get();  // drain before rebalancing

  fleet::RebalancePolicy policy;
  policy.hot_share = 0.6;
  policy.cold_share = 0.1;
  const auto report = router.rebalance(policy);
  EXPECT_TRUE(report.changed());
  EXPECT_EQ(report.scaled_up, (std::vector<std::string>{"NIPS10@1"}));
  EXPECT_EQ(report.scaled_down, (std::vector<std::string>{"NIPS20@1"}));
  EXPECT_EQ(report.sample_deltas.at("NIPS10@1"), 30u);
  EXPECT_EQ(report.sample_deltas.at("NIPS20@1"), 2u);
  EXPECT_EQ(router.replica_count("NIPS10@1"), 2u);
  EXPECT_EQ(router.replica_count("NIPS20@1"), 1u);

  // A quiet fleet is steady state: deltas were re-baselined, so a pass
  // with no new traffic changes nothing.
  const auto steady = router.rebalance(policy);
  EXPECT_FALSE(steady.changed());

  // The new replica serves: more hot traffic resolves correctly.
  std::vector<std::vector<std::uint8_t>> samples;
  std::vector<std::future<std::vector<double>>> more;
  for (int r = 0; r < 6; ++r) {
    samples.push_back(random_rows(rng, 2, 10));
    auto future = router.try_submit("NIPS10", samples.back());
    ASSERT_TRUE(future.has_value());
    more.push_back(std::move(*future));
  }
  for (std::size_t r = 0; r < more.size(); ++r) {
    expect_reference(hot, samples[r], more[r].get());
  }
  router.stop();

  const auto stats = router.stats();
  EXPECT_EQ(stats.deployments, 4u);
  EXPECT_EQ(stats.undeployments, 1u);
  EXPECT_EQ(stats.accepted_requests + stats.rejected_requests,
            stats.routed_requests);
}

TEST(FleetRouter, PlacementDeficitsPropagateAndLeaveTheFleetUnchanged) {
  fleet::FleetRouter router(quick_fleet(2));
  auto nips10 = nips_artifact(10);
  // Fill both devices' PE budgets completely.
  router.deploy(nips10, 8);
  router.deploy(nips_artifact(10, "2"), 8);
  EXPECT_EQ(router.device(0).free_pe_slots(), 0);
  EXPECT_EQ(router.device(1).free_pe_slots(), 0);

  try {
    router.deploy(nips_artifact(10, "3"), 2);
    FAIL() << "expected PlacementDeficitError";
  } catch (const fpga::PlacementDeficitError& error) {
    EXPECT_NE(std::string(error.what()).find("PE slots"), std::string::npos);
  }
  EXPECT_EQ(router.replica_count("NIPS10@3"), 0u);
  EXPECT_EQ(router.served_models(),
            (std::vector<std::string>{"NIPS10@1", "NIPS10@2"}));

  // Undeploy frees the slots; the next deploy fits again.
  router.undeploy_one("NIPS10@2");
  EXPECT_EQ(router.device(router.deploy(nips_artifact(10, "3"), 2).member)
                .free_pe_slots(),
            6);
}

TEST(FleetRouter, ValidatesModelReferences) {
  fleet::FleetRouter router(quick_fleet(1));
  auto v1 = nips_artifact(10, "1");
  auto v2 = nips_artifact(10, "2");
  router.deploy(v1);
  EXPECT_THROW(router.try_submit("absent", {}), RuntimeApiError);
  EXPECT_THROW(router.input_features("absent"), RuntimeApiError);
  EXPECT_THROW(router.undeploy_one("absent"), RuntimeApiError);

  // A bare name shared by two versions is ambiguous.
  router.deploy(v2);
  EXPECT_THROW(router.try_submit("NIPS10", {}), RuntimeApiError);
  EXPECT_EQ(router.replica_count("NIPS10@2"), 1u);
  router.undeploy_one("NIPS10@2");
  EXPECT_EQ(router.replica_count("NIPS10@2"), 0u);
}

}  // namespace
}  // namespace spnhbm
