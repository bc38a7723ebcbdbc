// Micro-benchmarks (google-benchmark) of the host-side runtime components:
// the device memory manager (hot allocate/free path taken per sub-job), the
// native CPU inference engine driven through the unified InferenceEngine
// interface, and the InferenceServer's batching/dispatch overhead.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "spnhbm/engine/cpu_engine.hpp"
#include "spnhbm/engine/server.hpp"
#include "spnhbm/runtime/memory_manager.hpp"
#include "spnhbm/spn/evaluate.hpp"
#include "spnhbm/util/rng.hpp"
#include "spnhbm/workload/model_zoo.hpp"

namespace {

using namespace spnhbm;

void BM_MemoryManagerAllocFree(benchmark::State& state) {
  runtime::DeviceMemoryManager manager(1, 256ull << 20);
  for (auto _ : state) {
    const auto a = manager.allocate(0, 10 << 20);
    const auto b = manager.allocate(0, 2 << 20);
    manager.free(0, a);
    manager.free(0, b);
  }
}
BENCHMARK(BM_MemoryManagerAllocFree);

void BM_MemoryManagerFragmented(benchmark::State& state) {
  runtime::DeviceMemoryManager manager(1, 256ull << 20);
  // Build a fragmented arena first.
  std::vector<std::uint64_t> held;
  for (int i = 0; i < 128; ++i) held.push_back(manager.allocate(0, 1 << 20));
  for (std::size_t i = 0; i < held.size(); i += 2) manager.free(0, held[i]);
  for (auto _ : state) {
    const auto address = manager.allocate(0, 512 << 10);
    manager.free(0, address);
  }
  for (std::size_t i = 1; i < held.size(); i += 2) manager.free(0, held[i]);
}
BENCHMARK(BM_MemoryManagerFragmented);

void BM_ReferenceEvaluator(benchmark::State& state) {
  const auto model =
      workload::make_nips_model(static_cast<std::size_t>(state.range(0)));
  spn::Evaluator evaluator(model.spn);
  Rng rng(5);
  std::vector<double> sample(model.variables);
  for (auto& v : sample) v = static_cast<double>(rng.next_below(256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.evaluate(sample));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReferenceEvaluator)->Arg(10)->Arg(40)->Arg(80);

void BM_CpuEngineBatch(benchmark::State& state) {
  const auto model =
      workload::make_nips_model(static_cast<std::size_t>(state.range(0)));
  engine::CpuEngine cpu(model::ModelArtifact::compile(
      "bench", "1", model.spn, arith::make_float64_backend()));
  Rng rng(5);
  const std::size_t count = 8192;
  std::vector<std::uint8_t> samples(count * model.variables);
  for (auto& b : samples) b = static_cast<std::uint8_t>(rng.next_below(256));
  std::vector<double> results(count);
  for (auto _ : state) {
    cpu.wait(cpu.submit(samples, results));
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_CpuEngineBatch)->Arg(10)->Arg(80)->UseRealTime();

// Full server path: small independent requests coalesced into engine
// batches — measures the scheduler's per-request overhead, not the math.
void BM_ServerSmallRequests(benchmark::State& state) {
  const auto model = workload::make_nips_model(10);
  engine::ServerConfig config;
  config.batch_samples = 1024;
  config.max_latency = std::chrono::microseconds(200);
  engine::InferenceServer server(config);
  server.register_engine(
      std::make_shared<engine::CpuEngine>(model::ModelArtifact::compile(
          "bench", "1", model.spn, arith::make_float64_backend())));
  server.start();
  Rng rng(5);
  const std::size_t requests = 64;
  const std::size_t request_samples = 16;
  std::vector<std::uint8_t> sample(request_samples * model.variables);
  for (auto& b : sample) b = static_cast<std::uint8_t>(rng.next_below(256));
  for (auto _ : state) {
    std::vector<std::future<std::vector<double>>> futures;
    futures.reserve(requests);
    for (std::size_t r = 0; r < requests; ++r) {
      futures.push_back(server.submit(sample));
    }
    for (auto& f : futures) benchmark::DoNotOptimize(f.get());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(requests));
  server.stop();
}
BENCHMARK(BM_ServerSmallRequests)->UseRealTime();

}  // namespace

// Like BENCHMARK_MAIN(), but defaults --benchmark_out to the same
// BENCH_<name>.json location the fig benches use (overridable via
// SPNHBM_BENCH_JSON_DIR), unless the caller passed their own --benchmark_out.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag;
  std::string format_flag = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).starts_with("--benchmark_out=")) {
      has_out = true;
    }
  }
  if (!has_out) {
    std::string path = "BENCH_micro_runtime.json";
    if (const char* dir = std::getenv("SPNHBM_BENCH_JSON_DIR");
        dir != nullptr && *dir != '\0') {
      path = std::string(dir) + "/" + path;
    }
    out_flag = "--benchmark_out=" + path;
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
