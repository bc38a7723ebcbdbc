// stop()/drain ordering under load (robustness satellite): stopping a
// busy server must (a) let in-flight batches run to completion, (b) drain
// queued requests to a terminal state — a value, or a *typed* error when
// a deadline expired on the way — and (c) leak no future: after stop()
// returns, every future ever handed out is ready, and late submits fail
// with RuntimeApiError instead of queueing work nobody will serve.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "mock_engine.hpp"
#include "spnhbm/engine/server.hpp"

namespace spnhbm {
namespace {

using engine_test::MockEngine;
using engine_test::expect_encoded;
using engine_test::make_request;

TEST(ServerStopDrain, InFlightBatchCompletesAndQueuedRequestsDrain) {
  MockEngine::Config mock_config;
  mock_config.gated = true;  // the first dispatched batch parks in submit
  auto mock = std::make_shared<MockEngine>(mock_config);
  engine::ServerConfig config;
  config.batch_samples = 4;
  config.max_latency = std::chrono::microseconds(100);
  engine::InferenceServer server(config);
  server.register_engine(mock);
  server.start();

  constexpr std::size_t kRequests = 12;
  std::vector<std::vector<std::uint8_t>> requests;
  std::vector<std::future<std::vector<double>>> futures;
  for (std::size_t i = 0; i < kRequests; ++i) {
    requests.push_back(make_request(1, static_cast<std::uint8_t>(i * 8)));
    futures.push_back(server.submit(requests.back()));
  }

  // Begin the stop while the engine is wedged: the drain must wait for
  // the in-flight batch and then serve everything still queued.
  std::thread stopper([&] { server.stop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  mock->release();
  stopper.join();

  for (std::size_t i = 0; i < kRequests; ++i) {
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "future " << i << " leaked by stop()";
    expect_encoded(requests[i], futures[i].get());
  }
  const auto stats = server.stats();
  EXPECT_EQ(stats.requests, kRequests);
  EXPECT_EQ(stats.failed_requests, 0u);
  EXPECT_EQ(stats.deadline_expirations, 0u);
}

TEST(ServerStopDrain, ExpiredQueuedRequestsFailTypedDuringDrain) {
  MockEngine::Config mock_config;
  mock_config.gated = true;
  auto mock = std::make_shared<MockEngine>(mock_config);
  engine::ServerConfig config;
  config.batch_samples = 2;
  config.max_latency = std::chrono::microseconds(100);
  config.request_timeout = std::chrono::microseconds(20'000);
  engine::InferenceServer server(config);
  server.register_engine(mock);
  server.start();

  constexpr std::size_t kRequests = 8;
  std::vector<std::future<std::vector<double>>> futures;
  for (std::size_t i = 0; i < kRequests; ++i) {
    futures.push_back(
        server.submit(make_request(1, static_cast<std::uint8_t>(i * 16))));
  }
  // Let every deadline lapse while the engine is wedged, then unwedge and
  // stop: expired requests must drain as DeadlineExceededError — a typed,
  // catchable outcome — not hang, and not surface as a broken promise.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  mock->release();
  server.stop();

  std::size_t expired = 0;
  std::size_t served = 0;
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    try {
      future.get();
      served += 1;
    } catch (const engine::DeadlineExceededError&) {
      expired += 1;
    }
  }
  EXPECT_EQ(expired + served, kRequests);
  EXPECT_GE(expired, 1u);  // the queued tail was past its deadline
  const auto stats = server.stats();
  EXPECT_EQ(stats.deadline_expirations, expired);
}

TEST(ServerStopDrain, SubmitAfterStopFailsWithTypedError) {
  engine::InferenceServer server;
  server.register_engine(std::make_shared<MockEngine>());
  server.start();
  server.stop();
  EXPECT_THROW(server.submit(make_request(1, 1)), RuntimeApiError);
  EXPECT_THROW(server.try_submit("mock@1", make_request(1, 2)), RuntimeApiError);
}

TEST(ServerStopDrain, StopUnderConcurrentSubmittersLeaksNothing) {
  constexpr std::size_t kThreads = 4;
  auto mock = std::make_shared<MockEngine>();
  engine::ServerConfig config;
  config.batch_samples = 4;
  config.max_queue_samples = 16;
  config.max_latency = std::chrono::microseconds(100);
  engine::InferenceServer server(config);
  server.register_engine(mock);
  server.start();

  // Each submitter keeps every accepted (request, future) pair and stops
  // at the first RuntimeApiError — the typed signal that the server shut
  // down underneath it.
  struct SubmitterLog {
    std::vector<std::vector<std::uint8_t>> requests;
    std::vector<std::future<std::vector<double>>> futures;
    bool saw_shutdown_error = false;
  };
  std::vector<SubmitterLog> logs(kThreads);
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (std::size_t r = 0;; ++r) {
        auto request = make_request(
            1, static_cast<std::uint8_t>(t * 64 + r % 64));
        try {
          auto future = server.submit(request);
          logs[t].requests.push_back(std::move(request));
          logs[t].futures.push_back(std::move(future));
        } catch (const RuntimeApiError&) {
          logs[t].saw_shutdown_error = true;
          return;
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server.stop();
  for (auto& submitter : submitters) submitter.join();

  std::size_t accepted = 0;
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(logs[t].saw_shutdown_error) << "thread " << t;
    for (std::size_t i = 0; i < logs[t].futures.size(); ++i) {
      ASSERT_EQ(logs[t].futures[i].wait_for(std::chrono::seconds(0)),
                std::future_status::ready)
          << "thread " << t << " future " << i << " leaked";
      expect_encoded(logs[t].requests[i], logs[t].futures[i].get());
    }
    accepted += logs[t].futures.size();
  }
  // Conservation: the server saw exactly the accepted requests (blocking
  // submit only — no rejects in this test) and failed none of them.
  const auto stats = server.stats();
  EXPECT_EQ(stats.requests, accepted);
  EXPECT_EQ(stats.failed_requests, 0u);
}

}  // namespace
}  // namespace spnhbm
