#include "spnhbm/engine/fpga_engine.hpp"

#include <atomic>
#include <utility>

#include "spnhbm/fpga/resource_model.hpp"
#include "spnhbm/model/tuning.hpp"
#include "spnhbm/util/log.hpp"
#include "spnhbm/util/strings.hpp"

namespace spnhbm::engine {

namespace {

tapasco::CompositionConfig make_composition(
    const compiler::DatapathModule& module, const arith::ArithBackend& backend,
    const FpgaEngineConfig& config) {
  if (config.pe_count < 0) {
    throw ConfigError("FpgaEngineConfig::pe_count must be >= 0, got " +
                      std::to_string(config.pe_count));
  }
  tapasco::CompositionConfig composition;
  composition.platform = config.platform;
  composition.pe_count =
      config.pe_count > 0
          ? config.pe_count
          : fpga::max_placeable_pes(module, backend.kind(), config.platform);
  composition.memory_channels = config.memory_channels;
  composition.hbm_crossbar = config.hbm_crossbar;
  composition.hbm_pes_per_channel =
      config.hbm_pes_per_channel > 0 ? config.hbm_pes_per_channel : 1;
  composition.pcie_generation = config.pcie_generation;
  composition.compute_results = config.compute_results;
  composition.skip_placement_check = config.skip_placement_check;
  return composition;
}

runtime::RuntimeConfig make_runtime_config(const FpgaEngineConfig& config) {
  runtime::RuntimeConfig rc;
  if (config.block_samples > 0) rc.block_samples = config.block_samples;
  rc.threads_per_pe = config.threads_per_pe;
  rc.include_transfers = config.include_transfers;
  return rc;
}

/// Folds the artifact's attached tuning manifest (when present) into the
/// engine config: the manifest supplies the device-level knobs the caller
/// left open. Explicit config values win over the manifest; pe_count is
/// deliberately *not* taken here — placement is the caller's decision
/// (CLI --pes, FleetRouter pe_slots), and both apply the tuned PE count
/// themselves where it can be deficit-checked.
FpgaEngineConfig with_model_tuning(FpgaEngineConfig config,
                                   const model::ModelArtifact& artifact) {
  const auto tuning = artifact.tuning();
  if (tuning == nullptr) return config;
  if (config.block_samples == 0) {
    config.block_samples = tuning->config.block_samples;
  }
  if (config.hbm_pes_per_channel == 0) {
    config.hbm_pes_per_channel = tuning->config.hbm_pes_per_channel;
    config.hbm_crossbar = tuning->config.hbm_crossbar;
  }
  return config;
}

/// The card's `pcie.dma` fault-site instance: the partition label is
/// unique per tenant and fixed before any traffic, so each card's DMA op
/// counter is independent of how threads interleave.
std::string card_label(const FpgaEngineConfig& config) {
  return config.partition_label.empty() ? "dma" : config.partition_label;
}

/// Device bytes of one PE's lookup-table image in the artifact's format.
std::uint64_t table_image_bytes(const model::ModelArtifact& artifact) {
  const std::uint64_t value_bytes =
      (static_cast<std::uint64_t>(artifact.backend().width_bits()) + 7) / 8;
  std::uint64_t bytes = 0;
  for (const auto& table : artifact.module().tables()) {
    bytes += table.probability_by_byte.size() * value_bytes;
  }
  return bytes;
}

}  // namespace

FpgaSimEngine::FpgaSimEngine(ModelHandle model, FpgaEngineConfig config)
    : model_(std::move(model)), config_(config), runner_(scheduler_) {
  SPNHBM_REQUIRE(model_ != nullptr, "FpgaSimEngine requires a model");
  SPNHBM_REQUIRE(config_.partition_bitstream_fraction <= 1.0,
                 "partition cannot exceed the whole bitstream");
  // One virtual-clock track per card instance: engine-level infer windows
  // and reconfiguration stalls land here, between the server's wall-clock
  // batch span above and the HBM/DMA spans below.
  static std::atomic<std::uint64_t> next_engine_ordinal{0};
  std::string track_label =
      "fpga/e" + std::to_string(next_engine_ordinal.fetch_add(1));
  if (!config_.partition_label.empty()) {
    track_label += " @" + config_.partition_label;
  }
  track_ = telemetry::tracer().register_track(track_label,
                                              telemetry::TraceClock::kVirtual);
  // config_ stays the caller's raw request; the artifact's tuning fills
  // the open knobs per composed design (activate() re-folds against the
  // incoming model, so one model's tuning never leaks onto another).
  const FpgaEngineConfig effective = with_model_tuning(config_, *model_);
  device_ = std::make_unique<tapasco::Device>(
      runner_, model_->module(), model_->backend(),
      make_composition(model_->module(), model_->backend(), effective),
      card_label(config_));
  runtime_ = std::make_unique<runtime::InferenceRuntime>(
      runner_, *device_, model_->module(), make_runtime_config(effective));
  if (config_.charge_initial_program) {
    const Picoseconds charged = program_and_stage(*device_, *runtime_, *model_);
    stats_.reconfigurations += 1;
    stats_.reconfiguration_seconds += to_seconds(charged);
  }
  refresh_capabilities();
}

void FpgaSimEngine::refresh_capabilities() {
  capabilities_.name = strformat(
      "fpga-sim/%s x%zu",
      config_.platform == fpga::Platform::kF1 ? "f1" : "hbm",
      device_->pe_count());
  if (!config_.partition_label.empty()) {
    capabilities_.name += " @" + config_.partition_label;
  }
  capabilities_.input_features = model_->module().input_features();
  capabilities_.functional = config_.compute_results;
  // Compute ceiling of the composed design: one sample per PE clock per PE
  // (II = 1). The server replaces this with measured throughput as soon as
  // batches complete.
  capabilities_.nominal_throughput =
      static_cast<double>(device_->pe_count()) * fpga::cal::kPeClockHz /
      compiler::DatapathModule::initiation_interval();
  capabilities_.preferred_batch_samples = runtime_->config().block_samples;
}

Picoseconds FpgaSimEngine::program_and_stage(
    tapasco::Device& device, runtime::InferenceRuntime& runtime,
    const model::ModelArtifact& artifact) {
  // Reprogram in virtual time: the bitstream streams through the ICAP —
  // the whole device's, or only this tenant's partition share when the
  // engine is partitioned (partial reconfiguration) — then every PE's
  // lookup-table image is staged into its memory channel over the real
  // DMA path (same dma_and_channel pipeline batches use, so the cost
  // scales with the artifact, not a constant).
  const Picoseconds before = scheduler_.now();
  double bitstream_bytes = config_.platform == fpga::Platform::kF1
                               ? fpga::cal::kBitstreamBytesF1
                               : fpga::cal::kBitstreamBytesHbm;
  if (config_.partition_bitstream_fraction > 0.0) {
    bitstream_bytes *= config_.partition_bitstream_fraction;
  }
  const Picoseconds program_time = static_cast<Picoseconds>(
      bitstream_bytes / fpga::cal::kIcapBytesPerSecond *
      static_cast<double>(kPicosecondsPerSecond));
  const std::uint64_t table_bytes = table_image_bytes(artifact);
  runner_.spawn([this, &device, &runtime, program_time,
                 table_bytes]() -> sim::Process {
    co_await sim::delay(scheduler_, program_time);
    for (std::size_t pe = 0; pe < device.pe_count(); ++pe) {
      if (table_bytes == 0) continue;
      runtime::DeviceBuffer image(runtime.memory(), pe, table_bytes);
      co_await device.copy_to_device(pe, image.address(), table_bytes);
    }
  });
  scheduler_.run();
  runner_.check();
  // The reconfiguration stall is a first-class span: requests queued
  // behind a hot-swap show matching lane_queue growth on the wall clock.
  telemetry::tracer().complete_virtual(track_, "reconfigure", before,
                                       scheduler_.now());
  return scheduler_.now() - before;
}

void FpgaSimEngine::activate(ModelHandle next) {
  SPNHBM_REQUIRE(next != nullptr, "activate requires a model");
  // Compose the next design first: a placement (or composition) failure
  // must leave the current model serving untouched.
  const FpgaEngineConfig effective = with_model_tuning(config_, *next);
  auto device = std::make_unique<tapasco::Device>(
      runner_, next->module(), next->backend(),
      make_composition(next->module(), next->backend(), effective),
      card_label(config_));
  auto staged_runtime = std::make_unique<runtime::InferenceRuntime>(
      runner_, *device, next->module(), make_runtime_config(effective));

  const Picoseconds reconfiguration =
      program_and_stage(*device, *staged_runtime, *next);

  // Swap: the old runtime (which references the old device) dies first.
  runtime_ = std::move(staged_runtime);
  device_ = std::move(device);
  model_ = std::move(next);
  refresh_capabilities();
  stats_.reconfigurations += 1;
  stats_.reconfiguration_seconds += to_seconds(reconfiguration);
}

BatchHandle FpgaSimEngine::submit(std::span<const std::uint8_t> samples,
                                  std::span<double> results) {
  const std::size_t count = check_batch(samples, results);
  // The DES completes the job inside submit; wait() is the barrier that
  // hands the handle back.
  const Picoseconds before = scheduler_.now();
  const auto values = runtime_->infer(samples);
  std::copy(values.begin(), values.end(), results.begin());
  return finish_batch("infer", before, count);
}

BatchHandle FpgaSimEngine::submit_sparse(std::span<const std::uint8_t> stream,
                                         std::size_t sample_count,
                                         std::span<double> results) {
  check_sparse_batch(stream, sample_count, results);
  const Picoseconds before = scheduler_.now();
  const auto values = runtime_->infer_sparse(stream, sample_count);
  std::copy(values.begin(), values.end(), results.begin());
  return finish_batch("infer_sparse", before, sample_count);
}

BatchHandle FpgaSimEngine::finish_batch(const char* span, Picoseconds before,
                                        std::size_t samples) {
  telemetry::tracer().complete_virtual(track_, span, before, scheduler_.now());
  if (const std::uint64_t trace_id = current_trace_id()) {
    telemetry::tracer().flow_virtual(track_, "request", 't', trace_id, before);
  }
  stats_.batches += 1;
  stats_.samples += samples;
  const double batch_seconds = to_seconds(scheduler_.now() - before);
  stats_.busy_seconds += batch_seconds;
  batch_latency_us_.record(batch_seconds * 1e6);
  return next_handle_++;
}

void FpgaSimEngine::wait(BatchHandle handle) {
  SPNHBM_REQUIRE(handle > last_completed_ && handle < next_handle_,
                 "wait on unknown or already-completed batch handle");
  last_completed_ = handle;
}

double FpgaSimEngine::measure_throughput(std::uint64_t sample_count) {
  const auto stats = runtime_->run(sample_count);
  stats_.batches += stats.blocks;
  stats_.samples += stats.samples;
  stats_.busy_seconds += to_seconds(stats.elapsed);
  return stats.samples_per_second;
}

}  // namespace spnhbm::engine
