// BatchPlanner: the one batching policy of the serving stack. A lane (one
// model's FIFO request queue) has its head batch due when it holds at
// least `target` samples (either kind), when the head request is sparse
// (it rides alone, so waiting cannot fill its batch), when the lane drains
// (the server stops), or once the oldest request has waited `max_latency`.
// A due batch is a greedy prefix of up to `target` samples: dense requests
// are taken whole while they fit and the one that does not fit is split; a
// sparse request rides alone and whole, closing any dense batch before it.
// Pure (no lock, clock or telemetry): InferenceServer asks it in
// steady_clock time, the tuner's replay (tune::score_candidate) in virtual
// microseconds, so the tuner scores the policy the server runs.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>

namespace spnhbm::engine {

/// Why a lane's head batch is due, or kNotDue.
enum class FlushReason { kNotDue, kFull, kSparseHead, kDraining, kDeadline };

/// What the planner needs to know of one queued request.
struct QueuedWork {
  std::size_t samples = 0;  ///< samples not yet dispatched
  bool sparse = false;
};

/// The head batch as a queue prefix: the first `whole` requests give all
/// their undispatched samples, the request after them `partial` (0 =
/// none). A sparse batch is exactly one whole request.
struct BatchPlan {
  std::size_t whole = 0;
  std::size_t partial = 0;
  std::size_t samples = 0;
  bool sparse = false;
};

template <typename Time>
class BatchPlanner {
 public:
  using Duration = decltype(std::declval<Time>() - std::declval<Time>());

  /// A non-empty lane as the planner sees it.
  struct Lane {
    std::size_t queued_samples = 0;  ///< undispatched samples, both kinds
    Time head_arrival{};             ///< arrival of the oldest request
    bool head_sparse = false;
    bool draining = false;
  };

  /// `target` > 0.
  BatchPlanner(std::size_t target, Duration max_latency)
      : target_(target), max_latency_(max_latency) {}

  FlushReason due(const Lane& lane, Time now) const {
    if (lane.queued_samples >= target_) return FlushReason::kFull;
    if (lane.head_sparse) return FlushReason::kSparseHead;
    if (lane.draining) return FlushReason::kDraining;
    return now >= lane.head_arrival + max_latency_ ? FlushReason::kDeadline
                                                   : FlushReason::kNotDue;
  }

  /// When the head batch falls due if nothing else arrives.
  Time due_at(const Lane& lane) const {
    return due(lane, lane.head_arrival) == FlushReason::kNotDue
               ? lane.head_arrival + max_latency_
               : lane.head_arrival;
  }

  /// Slices the head batch off a queue of `count` requests; `work(i)` is
  /// the QueuedWork of request i (0 = the head).
  template <typename WorkAt>
  BatchPlan plan(std::size_t count, WorkAt&& work) const {
    BatchPlan plan;
    for (std::size_t i = 0; i < count && plan.samples < target_; ++i) {
      const QueuedWork next = work(i);
      if (next.sparse) {
        if (i == 0) plan = {1, 0, next.samples, true};
        break;
      }
      const std::size_t take = std::min(target_ - plan.samples, next.samples);
      plan.samples += take;
      if (take < next.samples) {
        plan.partial = take;
        break;
      }
      ++plan.whole;
    }
    return plan;
  }

 private:
  std::size_t target_;
  Duration max_latency_;
};

}  // namespace spnhbm::engine
