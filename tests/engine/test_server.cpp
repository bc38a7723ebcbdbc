// InferenceServer tests: dynamic-batching coalescing, the latency-deadline
// flush, backpressure at the queue bound, result routing for requests split
// across batches/engines, dispatch policies and failure propagation.
//
// A deterministic MockEngine stands in for the real backends so batch
// boundaries and dispatch decisions are exactly checkable.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "mock_engine.hpp"
#include "spnhbm/engine/server.hpp"

namespace spnhbm {
namespace {

using engine_test::MockEngine;
using engine_test::expect_encoded;
using engine_test::kFeatures;
using engine_test::make_request;

TEST(Server, CoalescesSmallRequestsIntoBlockSizedBatches) {
  // k requests of n samples queued before start must dispatch in exactly
  // ceil(k*n / B) batches — the dynamic-batching guarantee.
  auto mock = std::make_shared<MockEngine>();
  engine::ServerConfig config;
  config.batch_samples = 8;
  config.max_latency = std::chrono::milliseconds(1000);  // flush via stop()
  engine::InferenceServer server(config);
  server.register_engine(mock);

  const std::size_t k = 10, n = 3;  // 30 samples -> ceil(30/8) = 4 batches
  std::vector<std::vector<std::uint8_t>> requests;
  std::vector<std::future<std::vector<double>>> futures;
  for (std::size_t r = 0; r < k; ++r) {
    requests.push_back(make_request(n, static_cast<std::uint8_t>(r * 16)));
    futures.push_back(server.submit(requests.back()));
  }
  server.start();
  server.stop();

  for (std::size_t r = 0; r < k; ++r) {
    expect_encoded(requests[r], futures[r].get());
  }
  const auto sizes = mock->batch_sizes();
  ASSERT_EQ(sizes.size(), 4u);
  EXPECT_EQ(sizes[0], 8u);
  EXPECT_EQ(sizes[1], 8u);
  EXPECT_EQ(sizes[2], 8u);
  EXPECT_EQ(sizes[3], 6u);
  EXPECT_EQ(server.stats().batches, 4u);
  EXPECT_EQ(server.stats().samples, 30u);
  EXPECT_EQ(server.stats().requests, 10u);
}

TEST(Server, DeadlineFlushBoundsTailLatency) {
  // A partial batch far below the coalescing target must still be flushed
  // once the oldest request has waited max_latency — without stop().
  auto mock = std::make_shared<MockEngine>();
  engine::ServerConfig config;
  config.batch_samples = 1024;
  config.max_latency = std::chrono::milliseconds(20);
  engine::InferenceServer server(config);
  server.register_engine(mock);
  server.start();

  const auto request_a = make_request(3, 1);
  const auto request_b = make_request(3, 101);
  auto future_a = server.submit(request_a);
  auto future_b = server.submit(request_b);
  expect_encoded(request_a, future_a.get());
  expect_encoded(request_b, future_b.get());
  server.stop();

  EXPECT_GE(server.stats().deadline_flushes, 1u);
  EXPECT_LE(server.stats().batches, 2u);
}

TEST(Server, BackpressureBlocksAndTrySubmitRejectsAtTheBound) {
  MockEngine::Config mock_config;
  mock_config.gated = true;
  auto mock = std::make_shared<MockEngine>(mock_config);
  engine::ServerConfig config;
  config.batch_samples = 4;
  config.max_queue_samples = 8;
  config.max_latency = std::chrono::milliseconds(1);
  engine::InferenceServer server(config);
  server.register_engine(mock);
  server.start();

  // Fill the bound exactly; the gated engine holds everything in flight.
  const auto big = make_request(8, 7);
  auto big_future = server.submit(big);
  // Wait until the whole request is dispatched or queued against the bound.
  while (server.outstanding_samples() < 8) {
    std::this_thread::yield();
  }

  EXPECT_FALSE(server.try_submit("mock@1", make_request(1, 50)).has_value());
  EXPECT_EQ(server.stats().rejected, 1u);
  EXPECT_EQ(server.outstanding_samples(), 8u);

  // A blocking submit must park, not throw or drop.
  const auto extra = make_request(4, 90);
  auto parked = std::async(std::launch::async,
                           [&] { return server.submit(extra).get(); });
  EXPECT_EQ(parked.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);

  mock->release();
  expect_encoded(big, big_future.get());
  expect_encoded(extra, parked.get());
  server.stop();
  EXPECT_EQ(server.outstanding_samples(), 0u);
  EXPECT_EQ(server.stats().peak_outstanding_samples, 8u);
}

TEST(Server, RequestSplitAcrossEnginesResolvesWithOrderedResults) {
  // One 8-sample request over two round-robin engines with batch size 4:
  // each engine computes half, and the scatter must reassemble the results
  // in request order.
  auto mock_a = std::make_shared<MockEngine>();
  auto mock_b = std::make_shared<MockEngine>();
  engine::ServerConfig config;
  config.batch_samples = 4;
  config.policy = engine::DispatchPolicy::kRoundRobin;
  engine::InferenceServer server(config);
  server.register_engine(mock_a);
  server.register_engine(mock_b);

  const auto request = make_request(8, 23);
  auto future = server.submit(request);
  server.start();
  server.stop();

  expect_encoded(request, future.get());
  EXPECT_EQ(server.dispatched_samples(0), 4u);
  EXPECT_EQ(server.dispatched_samples(1), 4u);
}

TEST(Server, LeastLoadedProbesUnknownEnginesThenPrefersTheFastOne) {
  // Engine A claims 1e9 samples/s; engine B is unmeasured (nominal 0,
  // like a cold CPU engine). The policy probes B once while it is idle,
  // then routes everything else to A.
  MockEngine::Config fast_config;
  fast_config.nominal_throughput = 1e9;
  fast_config.busy_per_sample = 1e-9;
  MockEngine::Config cold_config;
  cold_config.nominal_throughput = 0.0;
  cold_config.busy_per_sample = 1.0;  // measures as 1 sample/s
  auto fast = std::make_shared<MockEngine>(fast_config);
  auto cold = std::make_shared<MockEngine>(cold_config);

  engine::ServerConfig config;
  config.batch_samples = 4;
  config.policy = engine::DispatchPolicy::kLeastLoaded;
  engine::InferenceServer server(config);
  server.register_engine(fast);
  server.register_engine(cold);

  std::vector<std::future<std::vector<double>>> futures;
  std::vector<std::vector<std::uint8_t>> requests;
  for (std::size_t r = 0; r < 5; ++r) {
    requests.push_back(make_request(4, static_cast<std::uint8_t>(r * 8)));
    futures.push_back(server.submit(requests.back()));
  }
  server.start();
  server.stop();
  for (std::size_t r = 0; r < 5; ++r) {
    expect_encoded(requests[r], futures[r].get());
  }
  EXPECT_EQ(server.dispatched_samples(1), 4u);   // exactly one probe batch
  EXPECT_EQ(server.dispatched_samples(0), 16u);  // everything else
}

TEST(Server, EngineFailurePropagatesToTheRequestFuture) {
  MockEngine::Config mock_config;
  mock_config.fail = true;
  auto mock = std::make_shared<MockEngine>(mock_config);
  engine::InferenceServer server;
  server.register_engine(mock);

  auto future = server.submit(make_request(2, 3));
  server.start();
  server.stop();
  EXPECT_THROW(future.get(), Error);
}

TEST(Server, RegistrationValidatesEngines) {
  engine::InferenceServer server;
  MockEngine::Config timing_only;
  timing_only.functional = false;
  EXPECT_THROW(server.register_engine(std::make_shared<MockEngine>(timing_only)),
               std::logic_error);
  EXPECT_THROW(server.register_engine(nullptr), std::logic_error);
  server.register_engine(std::make_shared<MockEngine>());
}

TEST(Server, SubmitValidatesRequests) {
  engine::ServerConfig validate_config;
  validate_config.batch_samples = 4;
  validate_config.max_queue_samples = 16;
  engine::InferenceServer server(validate_config);
  server.register_engine(std::make_shared<MockEngine>());

  // Not a whole number of rows: a typed, non-retryable request error.
  EXPECT_THROW(server.submit(std::vector<std::uint8_t>(kFeatures + 1, 0)),
               engine::InvalidRequestError);
  EXPECT_THROW(server.submit(std::vector<std::uint8_t>{}),
               engine::InvalidRequestError);
  // A single request larger than the whole queue bound can never fit,
  // whichever entry point it arrives by.
  EXPECT_THROW(server.submit(make_request(17, 0)),
               engine::RequestTooLargeError);
  EXPECT_THROW(server.try_submit("mock@1", make_request(17, 0)),
               engine::RequestTooLargeError);
  EXPECT_EQ(server.stats().rejected, 2u);
  EXPECT_EQ(server.stats().requests, 0u);

  server.start();
  server.stop();
  // Lifecycle misuse is a runtime API error, not a validation failure.
  EXPECT_THROW(server.submit(make_request(1, 0)), RuntimeApiError);
}

TEST(Server, StatsCarryLatencyAndQueueWaitDistributions) {
  auto mock = std::make_shared<MockEngine>();
  engine::ServerConfig config;
  config.batch_samples = 8;
  engine::InferenceServer server(config);
  server.register_engine(mock);
  server.start();

  const std::size_t k = 6;
  std::vector<std::vector<std::uint8_t>> requests;
  std::vector<std::future<std::vector<double>>> futures;
  for (std::size_t r = 0; r < k; ++r) {
    requests.push_back(make_request(2, static_cast<std::uint8_t>(r)));
    futures.push_back(server.submit(requests.back()));
  }
  for (auto& f : futures) f.get();
  server.stop();

  const engine::ServerStats stats = server.stats();
  // One latency sample per completed request, one queue-wait sample per
  // request whose first slice dispatched, one fill sample per batch.
  EXPECT_EQ(stats.request_latency_us.count, k);
  EXPECT_EQ(stats.queue_wait_us.count, k);
  EXPECT_EQ(stats.batch_fill_samples.count, stats.batches);
  EXPECT_GT(stats.request_latency_us.max, 0.0);
  EXPECT_GE(stats.request_latency_us.p99(), stats.request_latency_us.p50());
  // Queue wait is a prefix of the end-to-end latency.
  EXPECT_LE(stats.queue_wait_us.p50(), stats.request_latency_us.max);
  EXPECT_DOUBLE_EQ(stats.batch_fill_samples.sum,
                   static_cast<double>(stats.samples));

  const std::string description = stats.describe();
  EXPECT_NE(description.find("latency us p50/p95/p99="), std::string::npos);
  EXPECT_NE(description.find("queue wait us p50/p99="), std::string::npos);
}

TEST(Server, EmptyStatsDescribeOmitsLatencySection) {
  engine::InferenceServer server;
  server.register_engine(std::make_shared<MockEngine>());
  const std::string description = server.stats().describe();
  EXPECT_EQ(description.find("latency us"), std::string::npos);
}

TEST(Server, DefaultBatchSizeIsTheSmallestEnginePreference) {
  MockEngine::Config small;
  small.preferred_batch_samples = 32;
  MockEngine::Config large;
  large.preferred_batch_samples = 64;
  engine::InferenceServer server;  // batch_samples = 0 -> derive
  server.register_engine(std::make_shared<MockEngine>(large));
  server.register_engine(std::make_shared<MockEngine>(small));
  EXPECT_EQ(server.stats().per_model.at("mock@1").batch_samples, 32u);
}

TEST(Server, PerEngineAccessorsRejectOutOfRangeIndices) {
  // Regression: these used to index the worker vector unchecked; a bad
  // index must surface as a RuntimeApiError, not undefined behaviour.
  engine::InferenceServer server;
  EXPECT_THROW(server.engine(0), RuntimeApiError);  // no engines at all
  server.register_engine(std::make_shared<MockEngine>());
  EXPECT_NO_THROW(server.engine(0));
  EXPECT_NO_THROW(server.engine_health(0));
  EXPECT_NO_THROW(server.dispatched_samples(0));
  EXPECT_NO_THROW(server.engine_model(0));
  EXPECT_THROW(server.engine(1), RuntimeApiError);
  EXPECT_THROW(server.engine_health(1), RuntimeApiError);
  EXPECT_THROW(server.dispatched_samples(1), RuntimeApiError);
  EXPECT_THROW(server.engine_model(1), RuntimeApiError);
}

}  // namespace
}  // namespace spnhbm
