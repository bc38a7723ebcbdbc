#include "spnhbm/tapasco/device.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "spnhbm/fault/fault.hpp"
#include "spnhbm/workload/model_zoo.hpp"

namespace spnhbm::tapasco {
namespace {

struct Harness {
  Harness()
      : model(workload::make_nips_model(10)),
        backend(arith::make_cfp_backend(arith::paper_cfp_format())),
        module(compiler::compile_spn(model.spn, *backend)) {}

  sim::Scheduler scheduler;
  sim::ProcessRunner runner{scheduler};
  workload::NipsModel model;
  std::unique_ptr<arith::ArithBackend> backend;
  compiler::DatapathModule module;
};

TEST(Device, ComposesHbmPlatform) {
  Harness h;
  CompositionConfig config;
  config.pe_count = 4;
  Device device(h.runner, h.module, *h.backend, config);
  EXPECT_EQ(device.pe_count(), 4u);
  EXPECT_NE(device.backing_channel(0), nullptr);
  EXPECT_EQ(device.memory_capacity_per_pe(), 256ull * kMiB);
}

TEST(Device, ComposesF1Platform) {
  Harness h;
  const auto f64 = arith::make_float64_backend();
  const auto module = compiler::compile_spn(h.model.spn, *f64);
  CompositionConfig config;
  config.platform = fpga::Platform::kF1;
  config.pe_count = 4;
  config.memory_channels = 4;
  Device device(h.runner, module, *f64, config);
  EXPECT_EQ(device.pe_count(), 4u);
  EXPECT_EQ(device.backing_channel(0), nullptr);
}

TEST(Device, CompositionRunsPlacementCheck) {
  Harness h;
  CompositionConfig config;
  config.pe_count = 16;  // beyond the routing cap
  EXPECT_THROW(Device(h.runner, h.module, *h.backend, config),
               PlacementError);
  config.skip_placement_check = true;
  EXPECT_NO_THROW(Device(h.runner, h.module, *h.backend, config));
}

TEST(Device, ConfigQueryThroughRegisterFile) {
  Harness h;
  CompositionConfig config;
  Device device(h.runner, h.module, *h.backend, config);
  EXPECT_EQ(device.query_config(0, fpga::ConfigQuery::kInputFeatures), 10u);
  EXPECT_EQ(device.query_config(0, fpga::ConfigQuery::kInterfaceBytes), 64u);
}

TEST(Device, CopyRoundTripThroughDma) {
  Harness h;
  CompositionConfig config;
  Device device(h.runner, h.module, *h.backend, config);
  std::vector<std::uint8_t> data(10'000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i);
  }
  std::vector<std::uint8_t> readback(data.size());
  h.runner.spawn([&]() -> sim::Process {
    co_await device.copy_to_device(0, 4096, data.size(), data);
    co_await device.copy_from_device(0, 4096, readback.size(), readback);
  });
  h.scheduler.run();
  h.runner.check();
  EXPECT_EQ(readback, data);
  EXPECT_EQ(device.dma().bytes_to_device(), data.size());
  EXPECT_EQ(device.dma().bytes_to_host(), data.size());
  EXPECT_GT(h.scheduler.now(), 0);
}

TEST(Device, LaunchInferencePaysLaunchOverhead) {
  Harness h;
  CompositionConfig config;
  config.compute_results = false;
  Device device(h.runner, h.module, *h.backend, config);
  h.runner.spawn([&]() -> sim::Process {
    co_await device.launch(0, 0, 16 * kMiB, 1000);
  });
  h.scheduler.run();
  h.runner.check();
  EXPECT_GE(h.scheduler.now(), fpga::cal::kJobLaunchOverhead);
}

TEST(Device, F1UsesSlowerDma) {
  Harness h;
  CompositionConfig hbm_config;
  Device hbm_device(h.runner, h.module, *h.backend, hbm_config);

  const auto f64 = arith::make_float64_backend();
  const auto f1_module = compiler::compile_spn(h.model.spn, *f64);
  CompositionConfig f1_config;
  f1_config.platform = fpga::Platform::kF1;
  f1_config.memory_channels = 1;
  sim::Scheduler scheduler2;
  sim::ProcessRunner runner2(scheduler2);
  Device f1_device(runner2, f1_module, *f64, f1_config);
  EXPECT_LT(f1_device.dma().config().engine_bandwidth.as_gib_per_second(),
            hbm_device.dma().config().engine_bandwidth.as_gib_per_second());
}

TEST(DeviceFaults, WriteSideEccErrorIsHealedByDriverRetry) {
  // Corrupting the first HBM burst of a host->device stream trips the ECC
  // check; the driver layer re-queues the write (the retried stream
  // re-sends the data), so the copy still succeeds and the backing store
  // ends up with the intended bytes.
  Harness h;
  CompositionConfig config;
  Device device(h.runner, h.module, *h.backend, config);

  fault::FaultPlan plan;
  fault::FaultRule rule;
  rule.site = "hbm.access";
  rule.instance = "hbm/ch0";
  rule.kind = fault::FaultKind::kCorrupt;
  rule.has_window = true;
  rule.from = 0;
  rule.until = 1;
  plan.rules.push_back(rule);
  fault::ScopedFaultPlan armed(plan);

  std::vector<std::uint8_t> data(4096);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 7);
  }
  std::vector<std::uint8_t> readback(data.size());
  h.runner.spawn([&]() -> sim::Process {
    co_await device.copy_to_device(0, 8192, data.size(), data);
    co_await device.copy_from_device(0, 8192, readback.size(), readback);
  });
  h.scheduler.run();
  h.runner.check();
  EXPECT_EQ(readback, data);
  EXPECT_EQ(fault::injector().injected(), 1u);
}

TEST(DeviceFaults, ReadSideEccErrorPropagatesToTheHost) {
  // A read stream cannot be healed by re-queueing — only re-running the
  // producing job recomputes the data — so the ECC error must reach the
  // caller (where the serving layer's batch retry takes over).
  Harness h;
  CompositionConfig config;
  Device device(h.runner, h.module, *h.backend, config);

  fault::FaultPlan plan;
  fault::FaultRule rule;
  rule.site = "hbm.access";
  rule.instance = "hbm/ch0";
  rule.kind = fault::FaultKind::kCorrupt;
  rule.has_window = true;
  rule.from = 0;
  rule.until = 1;
  plan.rules.push_back(rule);
  fault::ScopedFaultPlan armed(plan);

  std::vector<std::uint8_t> out(4096);
  h.runner.spawn([&]() -> sim::Process {
    co_await device.copy_from_device(0, 8192, out.size(), out);
  });
  h.scheduler.run();
  EXPECT_THROW(h.runner.check(), hbm::HbmEccError);
}

TEST(DeviceFaults, TransientDmaFaultIsRetriedToCompletion) {
  Harness h;
  CompositionConfig config;
  Device device(h.runner, h.module, *h.backend, config);

  fault::FaultPlan plan;
  fault::FaultRule rule;
  rule.site = "pcie.dma";
  rule.kind = fault::FaultKind::kFail;
  rule.has_window = true;
  rule.from = 0;
  rule.until = 1;
  plan.rules.push_back(rule);
  fault::ScopedFaultPlan armed(plan);

  std::vector<std::uint8_t> data(2048, 0x5A);
  std::vector<std::uint8_t> readback(data.size());
  h.runner.spawn([&]() -> sim::Process {
    co_await device.copy_to_device(0, 0, data.size(), data);
    co_await device.copy_from_device(0, 0, readback.size(), readback);
  });
  h.scheduler.run();
  h.runner.check();
  EXPECT_EQ(readback, data);
  EXPECT_EQ(device.dma().failed_transfers(), 1u);
  // First transfer burnt by the fault + its retry + the read-back.
  EXPECT_EQ(device.dma().transfers(), 3u);
}

TEST(DeviceFaults, PersistentDmaFaultExhaustsTheRetryBudget) {
  Harness h;
  CompositionConfig config;
  Device device(h.runner, h.module, *h.backend, config);

  fault::FaultPlan plan;
  fault::FaultRule rule;
  rule.site = "pcie.dma";
  rule.kind = fault::FaultKind::kFail;
  rule.every = 1;  // every transfer aborts
  plan.rules.push_back(rule);
  fault::ScopedFaultPlan armed(plan);

  std::vector<std::uint8_t> data(1024, 1);
  h.runner.spawn([&]() -> sim::Process {
    co_await device.copy_to_device(0, 0, data.size(), data);
  });
  h.scheduler.run();
  EXPECT_THROW(h.runner.check(), pcie::DmaError);
  // The driver's bounded budget: 8 attempts, all failed.
  EXPECT_EQ(device.dma().failed_transfers(), 8u);
}

TEST(DeviceFaults, PeLaunchFaultRejectsTheJobThenRecovers) {
  Harness h;
  CompositionConfig config;
  config.compute_results = false;
  Device device(h.runner, h.module, *h.backend, config);

  fault::FaultPlan plan;
  fault::FaultRule rule;
  rule.site = "pe.launch";
  rule.instance = "pe0";
  rule.kind = fault::FaultKind::kFail;
  rule.has_window = true;
  rule.from = 0;
  rule.until = 1;
  plan.rules.push_back(rule);
  fault::ScopedFaultPlan armed(plan);

  h.runner.spawn([&]() -> sim::Process {
    co_await device.launch(0, 0, 16 * kMiB, 100);
  });
  h.scheduler.run();
  EXPECT_THROW(h.runner.check(), PeLaunchError);

  // The next launch (op 1, outside the window) proceeds normally.
  h.runner.spawn([&]() -> sim::Process {
    co_await device.launch(0, 0, 16 * kMiB, 100);
  });
  h.scheduler.run();
  h.runner.check();
  EXPECT_GE(h.scheduler.now(), fpga::cal::kJobLaunchOverhead);
}

TEST(DeviceFaults, PeLaunchStallDelaysTheDoorbell) {
  Harness h;
  CompositionConfig config;
  config.compute_results = false;
  Device device(h.runner, h.module, *h.backend, config);
  const auto run = [&](bool inject) {
    std::unique_ptr<fault::ScopedFaultPlan> armed;
    if (inject) {
      fault::FaultPlan plan;
      fault::FaultRule rule;
      rule.site = "pe.launch";
      rule.kind = fault::FaultKind::kStall;
      rule.every = 1;
      rule.duration_us = 250.0;
      plan.rules.push_back(rule);
      armed = std::make_unique<fault::ScopedFaultPlan>(plan);
    }
    const Picoseconds start = h.scheduler.now();
    h.runner.spawn([&]() -> sim::Process {
      co_await device.launch(0, 0, 16 * kMiB, 100);
    });
    h.scheduler.run();
    h.runner.check();
    return h.scheduler.now() - start;
  };
  const Picoseconds baseline = run(false);
  const Picoseconds stalled = run(true);
  // Consecutive launches differ by a few ns of register-file state, so
  // bound the injected delay instead of demanding exact equality.
  EXPECT_GE(stalled - baseline, microseconds(250.0));
  EXPECT_LT(stalled - baseline, microseconds(251.0));
}

TEST(Device, RejectsBadIndices) {
  Harness h;
  CompositionConfig config;
  Device device(h.runner, h.module, *h.backend, config);
  EXPECT_THROW(device.pe(5), std::logic_error);
  EXPECT_THROW(device.backing_channel(5), std::logic_error);
}

}  // namespace
}  // namespace spnhbm::tapasco
