#include "spnhbm/runtime/inference_runtime.hpp"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "spnhbm/compiler/sparse_evidence.hpp"
#include "spnhbm/util/strings.hpp"

namespace spnhbm::runtime {

std::string RunStats::describe() const {
  return strformat(
      "%llu samples in %.3f ms -> %s (%llu blocks, DMA %.1f%% busy, %llu "
      "bytes moved)",
      static_cast<unsigned long long>(samples), to_seconds(elapsed) * 1e3,
      format_rate(samples_per_second).c_str(),
      static_cast<unsigned long long>(blocks), dma_utilisation * 100.0,
      static_cast<unsigned long long>(dma_bytes));
}

InferenceRuntime::InferenceRuntime(sim::ProcessRunner& runner,
                                   tapasco::Device& device,
                                   const compiler::DatapathModule& module,
                                   RuntimeConfig config)
    : runner_(runner),
      device_(device),
      module_(module),
      config_(config),
      memory_(device.pe_count(), device.memory_capacity_per_pe()),
      byte_domain_(module.input_features(), 256) {
  for (const auto& op : module_.ops()) {
    if (op.kind == compiler::OpKind::kHistogramLookup) {
      byte_domain_[op.variable] = std::min(
          byte_domain_[op.variable],
          module_.tables()[op.table_index].probability_by_byte.size());
    }
  }
  // Typed front-door validation (not SPNHBM_REQUIRE): the autotuner and
  // the CLI probe the edges of this space, and must be able to catch the
  // rejection as a recoverable error.
  if (config_.block_samples == 0) {
    throw ConfigError("RuntimeConfig::block_samples must be positive");
  }
  if (config_.threads_per_pe < 1 || config_.threads_per_pe > 8) {
    throw ConfigError("RuntimeConfig::threads_per_pe must be in 1..8, got " +
                      std::to_string(config_.threads_per_pe));
  }
  // Self-configuration (paper §IV-B): read the parameters from the
  // accelerator instead of asking the user for them.
  for (std::size_t pe = 0; pe < device_.pe_count(); ++pe) {
    const std::uint64_t features =
        device_.query_config(pe, fpga::ConfigQuery::kInputFeatures);
    SPNHBM_REQUIRE(features == module_.input_features(),
                   "PE configuration does not match the compiled module");
    for (int t = 0; t < config_.threads_per_pe; ++t) {
      tracks_.push_back(telemetry::tracer().register_track(
          "runtime/pe" + std::to_string(pe) + ".t" + std::to_string(t),
          telemetry::TraceClock::kVirtual));
    }
  }
}

sim::Process InferenceRuntime::control_thread(std::size_t pe_index, Job& job,
                                              sim::Resource& pe_lock,
                                              telemetry::TrackId track) {
  auto& scheduler = runner_.scheduler();
  auto& tracer = telemetry::tracer();
  constexpr std::uint64_t kResultBytes = 8;
  const bool sparse = !job.stream.empty();
  const std::span<const std::uint8_t> input = sparse ? job.stream : job.dense;
  const auto staging_time = [](std::uint64_t bytes) {
    return static_cast<Picoseconds>(
        static_cast<double>(bytes) / fpga::cal::kHostStagingBytesPerSecond *
        static_cast<double>(kPicosecondsPerSecond));
  };

  // Per-thread device buffers sized for the job's largest block (double
  // buffering happens across threads; each thread owns one in/out pair).
  const DeviceBuffer input_buffer(memory_, pe_index, job.max_block_bytes);
  const DeviceBuffer output_buffer(
      memory_, pe_index,
      std::min<std::uint64_t>(config_.block_samples, job.samples) *
          kResultBytes);
  hbm::HbmChannel* const backdoor = device_.backing_channel(pe_index);

  while (job.next_block + 1 < job.block_offsets.size()) {
    const std::uint64_t block = job.next_block++;
    const std::uint64_t begin = block * config_.block_samples;
    const std::uint64_t samples =
        std::min<std::uint64_t>(config_.block_samples, job.samples - begin);
    const std::uint64_t in_first = job.block_offsets[block];
    const std::uint64_t in_bytes = job.block_offsets[block + 1] - in_first;
    const std::uint64_t out_bytes = samples * kResultBytes;
    const auto in_data =
        input.empty() ? input : input.subspan(in_first, in_bytes);
    std::span<std::uint8_t> out_data;
    if (!job.results.empty()) {
      out_data = {reinterpret_cast<std::uint8_t*>(&job.results[begin]),
                  out_bytes};
    }

    if (config_.include_transfers) {
      // Host memcpy into the pinned DMA buffer.
      const Picoseconds stage_start = scheduler.now();
      co_await sim::delay(scheduler, staging_time(in_bytes));
      tracer.complete_virtual(track, "stage_in", stage_start, scheduler.now());
      const Picoseconds span_start = scheduler.now();
      co_await device_.copy_to_device(pe_index, input_buffer.address(),
                                      in_bytes, in_data);
      tracer.complete_virtual(track, "h2d", span_start, scheduler.now());
    } else if (!in_data.empty()) {
      backdoor->write_backdoor(
          device_.channel_address(pe_index, input_buffer.address()), in_data);
    }

    // The PE runs one job at a time; with >1 control threads the launch
    // serialises here while the other thread's transfers overlap.
    co_await pe_lock.acquire();
    const Picoseconds compute_start = scheduler.now();
    try {
      co_await device_.launch(pe_index, input_buffer.address(),
                              output_buffer.address(), samples,
                              sparse ? in_bytes : 0);
    } catch (...) {
      pe_lock.release();
      throw;
    }
    pe_lock.release();
    tracer.complete_virtual(track, "compute", compute_start, scheduler.now());

    if (config_.include_transfers) {
      const Picoseconds span_start = scheduler.now();
      co_await device_.copy_from_device(pe_index, output_buffer.address(),
                                        out_bytes, out_data);
      tracer.complete_virtual(track, "d2h", span_start, scheduler.now());
      const Picoseconds unstage_start = scheduler.now();
      co_await sim::delay(scheduler, staging_time(out_bytes));
      tracer.complete_virtual(track, "stage_out", unstage_start,
                              scheduler.now());
    } else if (!out_data.empty()) {
      backdoor->read_backdoor(
          device_.channel_address(pe_index, output_buffer.address()),
          out_data);
    }
  }
}

RunStats InferenceRuntime::execute(Job job) {
  auto& scheduler = runner_.scheduler();
  const Picoseconds start = scheduler.now();
  const std::uint64_t dma_busy_before = device_.dma().busy_time();
  const std::uint64_t dma_bytes_before =
      device_.dma().bytes_to_device() + device_.dma().bytes_to_host();

  if (job.block_offsets.empty()) {  // dense rows, or a timing run of them
    const std::uint64_t features = module_.input_features();
    for (std::uint64_t first = 0; first < job.samples;
         first += config_.block_samples) {
      job.block_offsets.push_back(first * features);
    }
    job.block_offsets.push_back(job.samples * features);
  }
  const std::uint64_t block_count = job.block_offsets.size() - 1;
  for (std::uint64_t block = 0; block < block_count; ++block) {
    job.max_block_bytes =
        std::max(job.max_block_bytes,
                 job.block_offsets[block + 1] - job.block_offsets[block]);
  }
  std::vector<std::unique_ptr<sim::Resource>> pe_locks;
  std::vector<sim::Process> threads;
  for (std::size_t pe = 0; pe < device_.pe_count(); ++pe) {
    pe_locks.push_back(std::make_unique<sim::Resource>(scheduler, 1));
    for (int t = 0; t < config_.threads_per_pe; ++t) {
      const telemetry::TrackId track =
          tracks_[pe * static_cast<std::size_t>(config_.threads_per_pe) +
                  static_cast<std::size_t>(t)];
      threads.push_back(
          runner_.spawn(control_thread(pe, job, *pe_locks.back(), track)));
    }
  }
  scheduler.run();
  runner_.check();
  for (const auto& thread : threads) {
    SPNHBM_REQUIRE(thread.done(), "control thread did not finish");
  }

  RunStats stats;
  stats.samples = job.samples;
  stats.elapsed = scheduler.now() - start;
  stats.samples_per_second =
      static_cast<double>(job.samples) / to_seconds(stats.elapsed);
  stats.blocks = block_count;
  stats.dma_utilisation =
      stats.elapsed > 0
          ? static_cast<double>(device_.dma().busy_time() - dma_busy_before) /
                static_cast<double>(stats.elapsed)
          : 0.0;
  stats.dma_bytes = device_.dma().bytes_to_device() +
                    device_.dma().bytes_to_host() - dma_bytes_before;
  return stats;
}

RunStats InferenceRuntime::run(std::uint64_t total_samples) {
  SPNHBM_REQUIRE(total_samples > 0, "nothing to run");
  return execute({.samples = total_samples});
}

void InferenceRuntime::check_byte(std::uint8_t byte,
                                  std::size_t feature) const {
  SPNHBM_REQUIRE(byte < byte_domain_[feature],
                 "feature byte outside lookup table");
}

std::vector<double> InferenceRuntime::infer(
    std::span<const std::uint8_t> samples) {
  const std::uint64_t features = module_.input_features();
  SPNHBM_REQUIRE(features > 0 && samples.size() % features == 0,
                 "input is not a whole number of samples");
  const std::uint64_t count = samples.size() / features;
  SPNHBM_REQUIRE(count > 0, "nothing to infer");
  SPNHBM_REQUIRE(device_.backing_channel(0) != nullptr,
                 "functional inference needs a platform with backing store");
  for (std::size_t i = 0; i < samples.size(); i += features) {
    for (std::size_t f = 0; f < features; ++f) check_byte(samples[i + f], f);
  }

  std::vector<double> results(count);
  execute({.samples = count, .dense = samples, .results = results});
  return results;
}

std::vector<double> InferenceRuntime::infer_sparse(
    std::span<const std::uint8_t> stream, std::size_t sample_count) {
  SPNHBM_REQUIRE(sample_count > 0, "nothing to infer");
  SPNHBM_REQUIRE(device_.backing_channel(0) != nullptr,
                 "functional inference needs a platform with backing store");
  // Validate on the host before any bytes move: a malformed stream must
  // fail here, not inside the device.
  const compiler::SparseBatch batch =
      compiler::decode_sparse(stream, module_.input_features(), sample_count);
  for (std::size_t k = 0; k < batch.indices.size(); ++k) {
    check_byte(batch.values[k], batch.indices[k]);
  }
  for (std::size_t f = 0; f < byte_domain_.size(); ++f) {
    check_byte(module_.default_evidence()[f], f);
  }

  std::vector<double> results(sample_count);
  // Split at sample boundaries: sample i starts 2 bytes per earlier
  // sample plus 3 per earlier active index into the stream.
  std::vector<std::uint64_t> block_offsets;
  for (std::size_t first = 0; first < sample_count;
       first += config_.block_samples) {
    block_offsets.push_back(2 * first + 3 * batch.offsets[first]);
  }
  block_offsets.push_back(stream.size());
  execute({.samples = sample_count, .stream = stream, .results = results,
           .block_offsets = std::move(block_offsets)});
  return results;
}

}  // namespace spnhbm::runtime
