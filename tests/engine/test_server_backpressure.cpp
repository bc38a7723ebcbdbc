// Backpressure under concurrency (robustness satellite): N submitter
// threads hammer a server whose queue bound is far smaller than the
// offered load, mixing try_submit (counting rejections) with blocking
// submit. Every accepted request must resolve exactly once with the
// correct per-row checksums — no lost, duplicated or cross-wired results
// — and the server's rejected counter must equal the rejections the
// submitters observed.
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

TEST(ServerBackpressure, ConcurrentSubmittersLoseNothingAtTheBound) {
  constexpr std::size_t kThreads = 6;
  constexpr std::size_t kRequestsPerThread = 40;

  auto mock = std::make_shared<MockEngine>();
  engine::ServerConfig config;
  config.batch_samples = 4;
  config.max_queue_samples = 16;  // far below the offered load
  config.max_latency = std::chrono::microseconds(200);
  engine::InferenceServer server(config);
  server.register_engine(mock);
  server.start();

  std::atomic<std::uint64_t> rejections{0};
  std::atomic<std::uint64_t> accepted{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (std::size_t r = 0; r < kRequestsPerThread; ++r) {
        // A unique tag per (thread, request) makes every row distinct, so
        // a result scattered into the wrong request is always detected.
        const auto tag =
            static_cast<std::uint8_t>(t * kRequestsPerThread + r);
        const std::size_t count = 1 + (t + r) % 3;
        const auto request = make_request(count, tag);
        std::future<std::vector<double>> future;
        if (r % 2 == 0) {
          // Non-blocking path: count rejections, then fall back to the
          // blocking submit so every request is eventually accepted.
          auto attempt = server.try_submit("mock@1", request);
          while (!attempt.has_value()) {
            rejections.fetch_add(1, std::memory_order_relaxed);
            std::this_thread::yield();
            attempt = server.try_submit("mock@1", request);
          }
          future = std::move(*attempt);
        } else {
          future = server.submit(request);
        }
        accepted.fetch_add(1, std::memory_order_relaxed);
        expect_encoded(request, future.get());
      }
    });
  }
  for (auto& thread : submitters) thread.join();
  server.stop();

  const engine::ServerStats stats = server.stats();
  EXPECT_EQ(accepted.load(), kThreads * kRequestsPerThread);
  EXPECT_EQ(stats.requests, kThreads * kRequestsPerThread);
  EXPECT_EQ(stats.rejected, rejections.load());
  // Conservation: every accepted sample was dispatched and completed.
  std::uint64_t expected_samples = 0;
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t r = 0; r < kRequestsPerThread; ++r) {
      expected_samples += 1 + (t + r) % 3;
    }
  }
  EXPECT_EQ(stats.samples, expected_samples);
  EXPECT_EQ(mock->stats().samples, expected_samples);
  EXPECT_EQ(server.outstanding_samples(), 0u);
  // The bound actually bit: outstanding work never exceeded it.
  EXPECT_LE(stats.peak_outstanding_samples, config.max_queue_samples);
}

TEST(ServerBackpressure, BlockedSubmittersDrainOnStop) {
  // Submitters parked in submit() while the queue is full must either be
  // admitted during the drain or see the stop as RuntimeApiError — never
  // deadlock. A gated engine keeps the queue full until stop is underway.
  MockEngine::Config mock_config;
  mock_config.gated = true;
  auto mock = std::make_shared<MockEngine>(mock_config);
  engine::ServerConfig config;
  config.batch_samples = 4;
  config.max_queue_samples = 4;
  config.max_latency = std::chrono::microseconds(200);
  engine::InferenceServer server(config);
  server.register_engine(mock);
  server.start();

  auto first = server.submit(make_request(4, 1));
  std::atomic<int> outcomes{0};
  std::vector<std::thread> parked;
  for (int t = 0; t < 3; ++t) {
    parked.emplace_back([&, t] {
      try {
        auto future =
            server.submit(make_request(4, static_cast<std::uint8_t>(40 + t)));
        future.get();
      } catch (const RuntimeApiError&) {
      } catch (const Error&) {
      }
      outcomes.fetch_add(1, std::memory_order_relaxed);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  mock->release();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  server.stop();
  for (auto& thread : parked) thread.join();
  EXPECT_EQ(outcomes.load(), 3);
  first.get();
  EXPECT_EQ(server.outstanding_samples(), 0u);
}

}  // namespace
}  // namespace spnhbm
