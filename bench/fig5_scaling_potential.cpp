// Reproduces paper Fig. 5: HBM scaling potential. For each benchmark, the
// memory throughput a hypothetical design with N SPN cores would require
// (N x single-core end-to-end rate x bytes/sample), compared against
//   * the measured single-channel throughput (Fig. 2 plateau),
//   * the practical aggregate limit HBM max_p = 32 channels x channel rate,
//   * the vendor's theoretical limit HBM max_t = 460 GB/s (~428 GiB/s).
// Paper conclusions to reproduce: 64 instances are HBM-feasible for every
// benchmark (8x over the 8-PE designs); NIPS10/NIPS20 could even go to
// 128; 128 NIPS10 cores need ~285 GiB/s, well under max_p = 384 GiB/s.
#include "bench_common.hpp"

#include "spnhbm/hbm/hbm.hpp"

int main() {
  using namespace spnhbm;
  using namespace spnhbm::bench;
  print_header("Fig. 5 — HBM scaling potential",
               "required memory throughput by core count vs HBM limits");

  const double channel_gib = 12.0;  // Fig. 2 plateau (measured)
  const double max_practical_gib = 32.0 * channel_gib;  // 384 GiB/s
  const double max_theoretical_gib =
      hbm::HbmDevice::theoretical_peak().as_gib_per_second();  // ~428 GiB/s

  Table table({"benchmark", "B/sample", "1-core rate [Ms/s]",
               "1-core [GiB/s]", "64 cores [GiB/s]", "128 cores [GiB/s]",
               "max cores (HBM max_p)"});
  std::printf("limits: single channel %.1f GiB/s, HBM max_p %.0f GiB/s, "
              "HBM max_t %.0f GiB/s\n",
              channel_gib, max_practical_gib, max_theoretical_gib);

  for (const std::size_t size : workload::nips_benchmark_sizes()) {
    const auto model = workload::make_nips_model(size);
    // Single-core end-to-end rate (the paper derives per-core bandwidth
    // from the measured single-accelerator rate, e.g. NIPS10: 133.1 Ms/s
    // x 18 B = 2.23 GiB/s).
    const double rate =
        simulate_hbm_throughput(compile_model(model.spn), 1, 1, true, 2'000'000);
    const double bytes = static_cast<double>(model.total_bytes_per_sample());
    const double one_core_gib = rate * bytes / static_cast<double>(kGiB);
    const auto max_cores = static_cast<int>(max_practical_gib / one_core_gib);
    table.add_row({model.name, strformat("%zu", model.total_bytes_per_sample()),
                   msamples(rate), strformat("%.2f", one_core_gib),
                   strformat("%.1f", 64.0 * one_core_gib),
                   strformat("%.1f", 128.0 * one_core_gib),
                   strformat("%d", max_cores)});
  }
  print_table(table);
  std::printf(
      "\npaper reference: NIPS10 needs 2.23 GiB/s per core -> 128 cores = "
      "~285 GiB/s < max_p; 64 cores are feasible for ALL benchmarks (an 8x\n"
      "boost over the 8-PE designs), 128 for NIPS10/NIPS20 (paper §V-C).\n");
  return 0;
}
