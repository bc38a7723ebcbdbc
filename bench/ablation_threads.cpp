// Ablation (paper §IV-B / §V-B): control threads per PE.
// The paper found that two threads per PE saturate the DMA engine, and
// that more than one control thread only improves throughput below four
// PEs — beyond that the shared DMA engine is the bottleneck either way.
#include "bench_common.hpp"

int main() {
  using namespace spnhbm;
  using namespace spnhbm::bench;
  print_header("Ablation — control threads per PE (NIPS10, end-to-end)",
               "paper: >1 thread helps only below 4 PEs; 2 threads saturate "
               "the DMA engine");

  const auto model = compile_model(workload::make_nips_model(10).spn);

  Table table({"PEs", "1 thread [Ms/s]", "2 threads [Ms/s]",
               "4 threads [Ms/s]", "2t vs 1t"});
  for (const int pes : {1, 2, 3, 4, 6, 8}) {
    const double one = simulate_hbm_throughput(model, pes, 1, true, 2'000'000);
    const double two = simulate_hbm_throughput(model, pes, 2, true, 2'000'000);
    const double four = simulate_hbm_throughput(model, pes, 4, true, 2'000'000);
    table.add_row({strformat("%d", pes), msamples(one), msamples(two),
                   msamples(four), strformat("%+.1f%%", (two / one - 1) * 100)});
  }
  print_table(table);
  return 0;
}
