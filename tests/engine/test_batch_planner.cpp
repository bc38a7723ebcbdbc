// BatchPlanner tests: the flush rule on hand-built lanes (in the server's
// steady_clock time), and a seeded property test that drives random lane
// queues through the planner (in the replay's double microseconds) and
// checks conservation, FIFO order, kind purity and the batch target.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <limits>
#include <vector>

#include "spnhbm/engine/batch_planner.hpp"
#include "spnhbm/util/rng.hpp"

namespace spnhbm::engine {
namespace {

TEST(BatchPlanner, FlushRuleOnSteadyClockLanes) {
  using Clock = std::chrono::steady_clock;
  const BatchPlanner<Clock::time_point> planner(
      8, std::chrono::microseconds(500));
  const Clock::time_point t0{};
  const auto at = [&](int us) { return t0 + std::chrono::microseconds(us); };

  BatchPlanner<Clock::time_point>::Lane lane{3, t0, false, false};
  EXPECT_EQ(planner.due(lane, at(499)), FlushReason::kNotDue);
  EXPECT_EQ(planner.due(lane, at(500)), FlushReason::kDeadline);
  EXPECT_EQ(planner.due_at(lane), at(500));

  lane.queued_samples = 8;
  EXPECT_EQ(planner.due(lane, t0), FlushReason::kFull);
  EXPECT_EQ(planner.due_at(lane), t0);

  lane = {3, t0, true, false};
  EXPECT_EQ(planner.due(lane, t0), FlushReason::kSparseHead);
  EXPECT_EQ(planner.due_at(lane), t0);

  lane = {3, t0, false, true};
  EXPECT_EQ(planner.due(lane, t0), FlushReason::kDraining);
}

TEST(BatchPlanner, SlicesGreedyPrefixes) {
  const BatchPlanner<double> planner(10, 100.0);
  const auto plan_of = [&](const std::vector<QueuedWork>& queue) {
    return planner.plan(queue.size(),
                        [&](std::size_t i) { return queue[i]; });
  };
  // Dense requests fill the target; the one that overflows it is split.
  BatchPlan plan = plan_of({{4, false}, {5, false}, {7, false}});
  EXPECT_EQ(plan.whole, 2u);
  EXPECT_EQ(plan.partial, 1u);
  EXPECT_EQ(plan.samples, 10u);
  EXPECT_FALSE(plan.sparse);
  // A sparse request closes the dense batch ahead of it...
  plan = plan_of({{4, false}, {3, true}, {2, false}});
  EXPECT_EQ(plan.whole, 1u);
  EXPECT_EQ(plan.partial, 0u);
  EXPECT_EQ(plan.samples, 4u);
  // ...and at the head rides alone and whole, even above the target.
  plan = plan_of({{30, true}, {2, false}});
  EXPECT_EQ(plan.whole, 1u);
  EXPECT_EQ(plan.samples, 30u);
  EXPECT_TRUE(plan.sparse);
}

struct Request {
  double arrival = 0.0;
  std::size_t samples = 0;
  bool sparse = false;
};

struct Slice {
  std::size_t request = 0;
  std::size_t offset = 0;
  std::size_t count = 0;
};

TEST(BatchPlanner, RandomLanesConserveOrderAndPurity) {
  constexpr int kQueues = 1500;
  Rng rng(0xBA7C4);
  std::size_t total_batches = 0;
  std::size_t sparse_batches = 0;
  std::size_t split_requests = 0;
  for (int q = 0; q < kQueues; ++q) {
    const std::size_t target = 1 + rng.next_below(256);
    const double flush = static_cast<double>(rng.next_below(1000));
    const double sparse_share = rng.next_double() * 0.5;
    std::vector<Request> requests(1 + rng.next_below(40));
    double clock = 0.0;
    for (auto& request : requests) {
      // Bursts (gap 0) mixed with gaps longer than the flush deadline.
      clock += rng.next_below(4) == 0
                   ? 0.0
                   : static_cast<double>(rng.next_below(1500));
      request.arrival = clock;
      request.samples = 1 + rng.next_below(rng.next_below(2) ? 16 : 600);
      request.sparse = rng.next_double() < sparse_share;
    }
    // Some lanes start draining (the server stops) part-way through.
    const double drain_at = rng.next_below(4) == 0
                                ? clock * rng.next_double()
                                : std::numeric_limits<double>::infinity();
    const BatchPlanner<double> planner(target, flush);

    // Drive the lane: admit arrivals, form every due batch, advance to
    // the next arrival, flush deadline or drain start.
    std::vector<std::vector<Slice>> batches;
    std::vector<bool> batch_sparse;
    std::size_t head = 0, head_taken = 0, next = 0, queued = 0;
    double now = requests[0].arrival;
    const auto lane = [&]() {
      return BatchPlanner<double>::Lane{queued, requests[head].arrival,
                                        requests[head].sparse,
                                        now >= drain_at};
    };
    for (;;) {
      for (; next < requests.size() && requests[next].arrival <= now;
           ++next) {
        queued += requests[next].samples;
      }
      while (head < next) {
        const FlushReason reason = planner.due(lane(), now);
        if (reason == FlushReason::kNotDue) break;
        ASSERT_LE(planner.due_at(lane()), now);
        if (reason == FlushReason::kDeadline) {
          ASSERT_GE(now - requests[head].arrival, flush);
        }
        const BatchPlan plan = planner.plan(next - head, [&](std::size_t i) {
          const Request& r = requests[head + i];
          return QueuedWork{r.samples - (i == 0 ? head_taken : 0), r.sparse};
        });
        ASSERT_GT(plan.samples, 0u);
        std::vector<Slice> slices;
        for (std::size_t i = 0; i < plan.whole; ++i, ++head) {
          slices.push_back({head, head_taken, requests[head].samples -
                                                  head_taken});
          head_taken = 0;
        }
        if (plan.partial > 0) {
          slices.push_back({head, head_taken, plan.partial});
          head_taken += plan.partial;
          ++split_requests;
        }
        std::size_t sum = 0;
        for (const Slice& s : slices) sum += s.count;
        ASSERT_EQ(sum, plan.samples);
        // Greedy: a dense batch below the target stops only at the end of
        // the queue or at a sparse request.
        if (!plan.sparse && plan.samples < target) {
          ASSERT_TRUE(head == next || requests[head].sparse);
        }
        queued -= plan.samples;
        batches.push_back(std::move(slices));
        batch_sparse.push_back(plan.sparse);
      }
      if (head == requests.size()) break;
      double wake = std::numeric_limits<double>::infinity();
      if (head < next) wake = planner.due_at(lane());
      if (next < requests.size()) wake = std::min(wake, requests[next].arrival);
      if (drain_at > now) wake = std::min(wake, drain_at);
      ASSERT_GT(wake, now);
      now = wake;
    }

    // Every sample exactly once, requests in arrival order: the slices,
    // read batch by batch, tile each request front to back, one request
    // after the other.
    std::size_t expect_request = 0, expect_offset = 0;
    for (std::size_t b = 0; b < batches.size(); ++b) {
      std::size_t samples = 0;
      for (const Slice& s : batches[b]) {
        ASSERT_EQ(s.request, expect_request);
        ASSERT_EQ(s.offset, expect_offset);
        // No batch mixes sparse and dense; sparse requests are never split.
        ASSERT_EQ(requests[s.request].sparse, batch_sparse[b]);
        if (batch_sparse[b]) {
          ASSERT_EQ(batches[b].size(), 1u);
          ASSERT_EQ(s.count, requests[s.request].samples);
        }
        samples += s.count;
        expect_offset += s.count;
        if (expect_offset == requests[s.request].samples) {
          ++expect_request;
          expect_offset = 0;
        }
      }
      // No dense batch exceeds the target.
      if (!batch_sparse[b]) {
        ASSERT_LE(samples, target);
      }
      sparse_batches += batch_sparse[b] ? 1 : 0;
    }
    ASSERT_EQ(expect_request, requests.size());
    ASSERT_EQ(queued, 0u);
    total_batches += batches.size();
  }
  // The seeded mix exercises every branch: sparse batches, split dense
  // requests and plenty of coalescing.
  EXPECT_GT(sparse_batches, 1000u);
  EXPECT_GT(split_requests, 1000u);
  EXPECT_GT(total_batches, 10000u);
}

}  // namespace
}  // namespace spnhbm::engine
