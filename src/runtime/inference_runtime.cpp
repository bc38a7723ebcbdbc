#include "spnhbm/runtime/inference_runtime.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
#include <string>

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
  }
}

sim::Process InferenceRuntime::control_thread(std::size_t pe_index,
                                              BlockCursor& cursor,
                                              sim::Resource& pe_lock,
                                              telemetry::TrackId track) {
  auto& scheduler = runner_.scheduler();
  const std::uint64_t features = module_.input_features();
  constexpr std::uint64_t kResultBytes = 8;

  // Per-thread device buffers sized for a full block (double buffering
  // happens across threads; each thread owns one in/out pair).
  const std::uint64_t max_in = config_.block_samples * features;
  const std::uint64_t max_out = config_.block_samples * kResultBytes;
  const DeviceBuffer input_buffer(memory_, pe_index, max_in);
  const DeviceBuffer output_buffer(memory_, pe_index, max_out);

  for (;;) {
    if (cursor.next_block >= cursor.block_count) break;
    const std::uint64_t block = cursor.next_block++;
    const std::uint64_t begin = block * config_.block_samples;
    const std::uint64_t samples = std::min<std::uint64_t>(
        config_.block_samples, cursor.total_samples - begin);
    const std::uint64_t in_bytes = samples * features;
    const std::uint64_t out_bytes = samples * kResultBytes;

    auto& tracer = telemetry::tracer();
    if (config_.include_transfers) {
      if (config_.model_host_staging) {
        // Host memcpy into the pinned DMA buffer.
        const Picoseconds span_start = scheduler.now();
        co_await sim::delay(
            scheduler, static_cast<Picoseconds>(
                           static_cast<double>(in_bytes) /
                           fpga::cal::kHostStagingBytesPerSecond *
                           static_cast<double>(kPicosecondsPerSecond)));
        tracer.complete_virtual(track, "stage_in", span_start,
                                scheduler.now());
      }
      const Picoseconds span_start = scheduler.now();
      co_await device_.copy_to_device_timed(pe_index, input_buffer.address(),
                                            in_bytes);
      tracer.complete_virtual(track, "h2d", span_start, scheduler.now());
    }

    // The PE runs one job at a time; with >1 control threads the launch
    // serialises here while the other thread's transfers overlap.
    co_await pe_lock.acquire();
    const Picoseconds compute_start = scheduler.now();
    try {
      co_await device_.launch_inference(pe_index, input_buffer.address(),
                                        output_buffer.address(), samples);
    } catch (...) {
      pe_lock.release();
      throw;
    }
    pe_lock.release();
    tracer.complete_virtual(track, "compute", compute_start, scheduler.now());

    if (config_.include_transfers) {
      const Picoseconds span_start = scheduler.now();
      co_await device_.copy_from_device_timed(
          pe_index, output_buffer.address(), out_bytes);
      tracer.complete_virtual(track, "d2h", span_start, scheduler.now());
      if (config_.model_host_staging) {
        const Picoseconds unstage_start = scheduler.now();
        co_await sim::delay(
            scheduler, static_cast<Picoseconds>(
                           static_cast<double>(out_bytes) /
                           fpga::cal::kHostStagingBytesPerSecond *
                           static_cast<double>(kPicosecondsPerSecond)));
        tracer.complete_virtual(track, "stage_out", unstage_start,
                                scheduler.now());
      }
    }
  }
}

RunStats InferenceRuntime::run(std::uint64_t total_samples) {
  SPNHBM_REQUIRE(total_samples > 0, "nothing to run");
  auto& scheduler = runner_.scheduler();
  const Picoseconds start = scheduler.now();
  const std::uint64_t dma_busy_before = device_.dma().busy_time();
  const std::uint64_t dma_bytes_before =
      device_.dma().bytes_to_device() + device_.dma().bytes_to_host();

  BlockCursor cursor;
  cursor.total_samples = total_samples;
  cursor.block_count =
      (total_samples + config_.block_samples - 1) / config_.block_samples;

  std::vector<std::unique_ptr<sim::Resource>> pe_locks;
  std::vector<sim::Process> threads;
  for (std::size_t pe = 0; pe < device_.pe_count(); ++pe) {
    pe_locks.push_back(std::make_unique<sim::Resource>(scheduler, 1));
    for (int t = 0; t < config_.threads_per_pe; ++t) {
      const telemetry::TrackId track = telemetry::tracer().register_track(
          "runtime/pe" + std::to_string(pe) + ".t" + std::to_string(t),
          telemetry::TraceClock::kVirtual);
      threads.push_back(
          runner_.spawn(control_thread(pe, cursor, *pe_locks.back(), track)));
    }
  }
  scheduler.run();
  runner_.check();
  for (const auto& thread : threads) {
    SPNHBM_REQUIRE(thread.done(), "control thread did not finish");
  }

  RunStats stats;
  stats.samples = total_samples;
  stats.elapsed = scheduler.now() - start;
  stats.samples_per_second =
      static_cast<double>(total_samples) / to_seconds(stats.elapsed);
  stats.blocks = cursor.block_count;
  stats.dma_utilisation =
      stats.elapsed > 0
          ? static_cast<double>(device_.dma().busy_time() - dma_busy_before) /
                static_cast<double>(stats.elapsed)
          : 0.0;
  stats.dma_bytes = device_.dma().bytes_to_device() +
                    device_.dma().bytes_to_host() - dma_bytes_before;
  return stats;
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

  auto& scheduler = runner_.scheduler();
  const DeviceBuffer input_buffer(memory_, 0, samples.size());
  const DeviceBuffer output_buffer(memory_, 0, count * 8);
  std::vector<std::uint8_t> raw_results(count * 8);

  sim::Process job = runner_.spawn([&]() -> sim::Process {
    co_await device_.copy_to_device(0, input_buffer.address(), samples);
    co_await device_.launch_inference(0, input_buffer.address(),
                                      output_buffer.address(), count);
    co_await device_.copy_from_device(0, output_buffer.address(), raw_results);
  });
  scheduler.run();
  runner_.check();
  SPNHBM_REQUIRE(job.done(), "inference job did not finish");

  std::vector<double> results(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, raw_results.data() + i * 8, 8);
    results[i] = std::bit_cast<double>(bits);
  }
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

  auto& scheduler = runner_.scheduler();
  const DeviceBuffer input_buffer(memory_, 0, stream.size());
  const DeviceBuffer output_buffer(memory_, 0, sample_count * 8);
  std::vector<std::uint8_t> raw_results(sample_count * 8);

  sim::Process job = runner_.spawn([&]() -> sim::Process {
    co_await device_.copy_to_device(0, input_buffer.address(), stream);
    co_await device_.launch_inference_sparse(
        0, input_buffer.address(), output_buffer.address(), sample_count,
        stream.size());
    co_await device_.copy_from_device(0, output_buffer.address(), raw_results);
  });
  scheduler.run();
  runner_.check();
  SPNHBM_REQUIRE(job.done(), "inference job did not finish");

  std::vector<double> results(sample_count);
  for (std::size_t i = 0; i < sample_count; ++i) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, raw_results.data() + i * 8, 8);
    results[i] = std::bit_cast<double>(bits);
  }
  return results;
}

}  // namespace spnhbm::runtime
