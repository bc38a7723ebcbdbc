#include "spnhbm/tune/cost_model.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>

#include "spnhbm/compiler/sparse_evidence.hpp"
#include "spnhbm/engine/batch_planner.hpp"
#include "spnhbm/engine/fpga_engine.hpp"
#include "spnhbm/util/error.hpp"
#include "spnhbm/util/rng.hpp"
#include "spnhbm/util/strings.hpp"

namespace spnhbm::tune {
namespace {

constexpr double kPsPerUs = 1e6;

/// Deterministic CSR evidence stream for sparse request `index`: every
/// sample activates round(density * features) distinct features chosen by
/// a per-request fork of the workload seed.
std::vector<std::uint8_t> make_sparse_stream(const WorkloadSpec& spec,
                                             std::size_t index,
                                             std::size_t samples,
                                             std::size_t features) {
  Rng rng = Rng(spec.seed).fork(0x5AB5ull + index);
  const auto active = std::clamp<std::size_t>(
      static_cast<std::size_t>(spec.sparse_density *
                               static_cast<double>(features)),
      1, features);
  std::vector<std::uint16_t> universe(features);
  std::iota(universe.begin(), universe.end(), std::uint16_t{0});
  compiler::SparseBatch batch;
  batch.features = features;
  std::vector<std::uint16_t> indices(active);
  std::vector<std::uint8_t> values(active);
  for (std::size_t s = 0; s < samples; ++s) {
    // Partial Fisher-Yates: the first `active` entries become a uniform
    // distinct subset, then sort for the strictly-increasing CSR order.
    for (std::size_t j = 0; j < active; ++j) {
      const auto pick = j + rng.next_below(features - j);
      std::swap(universe[j], universe[pick]);
      indices[j] = universe[j];
      values[j] = static_cast<std::uint8_t>(rng.next_below(250));
    }
    std::sort(indices.begin(), indices.begin() + static_cast<long>(active));
    batch.add_sample(indices, values);
  }
  return compiler::encode_sparse(batch);
}

CandidateScore rejected(const std::exception& error) {
  CandidateScore score;
  score.rejection = error.what();
  return score;
}

}  // namespace

std::string CandidateScore::describe() const {
  if (!feasible) return "infeasible: " + rejection;
  return strformat("thr=%.1f samples/s mean_lat=%.1fus batches=%llu",
                   samples_per_second, mean_latency_us,
                   static_cast<unsigned long long>(batches));
}

bool CandidateScore::better_than(const CandidateScore& other) const {
  if (!feasible) return false;
  if (!other.feasible) return true;
  if (samples_per_second != other.samples_per_second) {
    return samples_per_second > other.samples_per_second;
  }
  return mean_latency_us < other.mean_latency_us;
}

CandidateScore score_candidate(const model::ModelHandle& model,
                               const model::TunedConfig& config,
                               const WorkloadSpec& spec,
                               const std::vector<WorkloadRequest>& trace,
                               fpga::Platform platform) {
  CandidateScore score;
  if (trace.empty()) {
    score.rejection = "empty workload trace";
    return score;
  }
  try {
    config.validate();

    engine::FpgaEngineConfig ec;
    ec.platform = platform;
    ec.pe_count = config.pe_count;
    ec.block_samples = config.block_samples;
    ec.hbm_pes_per_channel = config.hbm_pes_per_channel;
    ec.hbm_crossbar = config.hbm_crossbar;
    // Timing-only compositions are much cheaper to replay. Sparse jobs
    // need no evaluation either: their timing depends only on the
    // stream's byte counts, which the job moves all the same.
    ec.compute_results = false;
    engine::FpgaSimEngine engine(model, ec);
    auto& runtime = engine.runtime();
    const std::size_t features = model->input_features();

    // Service-time oracles, all in virtual microseconds, both on the
    // runtime's one block-pipelined job path that served batches take.
    // Dense batches are memoised per size (the simulated card is
    // stateless between runs, so the time is a pure function of the
    // batch size).
    std::map<std::size_t, double> dense_service;
    auto dense_service_us = [&](std::size_t samples) {
      auto it = dense_service.find(samples);
      if (it != dense_service.end()) return it->second;
      const auto stats = runtime.run(samples);
      const double us = static_cast<double>(stats.elapsed) / kPsPerUs;
      dense_service.emplace(samples, us);
      return us;
    };
    auto sparse_service_us = [&](std::size_t index, std::size_t samples) {
      const auto stream = make_sparse_stream(spec, index, samples, features);
      const auto before = engine.virtual_now();
      runtime.infer_sparse(stream, samples);
      const auto after = engine.virtual_now();
      return static_cast<double>(after - before) / kPsPerUs;
    };

    // --- Open-loop replay of the server's lane: an event loop over
    // arrivals and flush deadlines. The queue is the trace range
    // [head, next), its head with `head_taken` samples dispatched.
    const engine::BatchPlanner<double> planner(
        config.batch_samples, static_cast<double>(config.flush_deadline_us));
    const auto arrival = [&](std::size_t i) {
      return static_cast<double>(trace[i].arrival_us);
    };
    std::size_t head = 0, head_taken = 0, next = 0, queued_samples = 0;
    double now = arrival(0);
    double engine_free = 0.0;  // also the last completion (FIFO service)
    std::vector<double> latency(trace.size(), 0.0);
    const auto lane = [&]() {
      return engine::BatchPlanner<double>::Lane{queued_samples, arrival(head),
                                                trace[head].sparse, false};
    };

    for (;;) {
      for (; next < trace.size() && arrival(next) <= now; ++next) {
        queued_samples += trace[next].samples;
      }
      while (head < next &&
             planner.due(lane(), now) != engine::FlushReason::kNotDue) {
        const engine::BatchPlan plan =
            planner.plan(next - head, [&](std::size_t i) {
              const auto& request = trace[head + i];
              return engine::QueuedWork{
                  request.samples - (i == 0 ? head_taken : 0),
                  request.sparse};
            });
        const double service =
            plan.sparse ? sparse_service_us(head, plan.samples)
                        : dense_service_us(plan.samples);
        const double done = std::max(now, engine_free) + service;
        engine_free = done;
        queued_samples -= plan.samples;
        for (std::size_t i = 0; i < plan.whole; ++i, ++head) {
          latency[head] = done - arrival(head);
          head_taken = 0;
        }
        head_taken += plan.partial;
        ++score.batches;
      }
      if (head == trace.size()) break;
      now = head < next ? planner.due_at(lane())
                        : std::numeric_limits<double>::infinity();
      if (next < trace.size()) now = std::min(now, arrival(next));
    }

    const double makespan = std::max(engine_free - arrival(0), 1e-9);
    std::size_t total_samples = 0;
    for (const auto& request : trace) total_samples += request.samples;
    score.feasible = true;
    score.samples_per_second =
        static_cast<double>(total_samples) * 1e6 / makespan;
    score.mean_latency_us =
        std::accumulate(latency.begin(), latency.end(), 0.0) /
        static_cast<double>(latency.size());
    score.makespan_us = static_cast<std::uint64_t>(makespan);
  } catch (const ConfigError& error) {
    return rejected(error);
  } catch (const PlacementError& error) {
    return rejected(error);
  } catch (const DeviceMemoryError& error) {
    return rejected(error);
  }
  return score;
}

}  // namespace spnhbm::tune
