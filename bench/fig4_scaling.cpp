// Reproduces paper Fig. 4: samples/s versus PE count (1..8) for every
// benchmark SPN, (a) excluding host-to-device transfers (left subplot:
// near-linear scaling, the embarrassingly-parallel case) and (b) including
// them (right subplot: scaling flattens once the shared DMA engine
// saturates — around five PEs for NIPS10).
//
// Published anchors: NIPS10 1 PE = 133.1 Msamples/s end-to-end; NIPS10
// 5 PEs = 614.7 Msamples/s end-to-end.
#include "bench_common.hpp"

int main() {
  using namespace spnhbm;
  using namespace spnhbm::bench;
  print_header("Fig. 4 — throughput scaling by PE count",
               "left block: w/o host<->device transfers; right block: "
               "end-to-end (1 control thread per PE, as in the paper)");

  for (const bool include_transfers : {false, true}) {
    std::printf("\n--- %s ---\n", include_transfers
                                      ? "WITH host<->device transfers"
                                      : "WITHOUT transfers (compute only)");
    std::vector<std::string> header{"PEs"};
    for (const std::size_t size : workload::nips_benchmark_sizes()) {
      header.push_back(strformat("NIPS%zu [Ms/s]", size));
    }
    Table table(header);

    std::vector<model::ModelHandle> models;
    for (const std::size_t size : workload::nips_benchmark_sizes()) {
      models.push_back(compile_model(workload::make_nips_model(size).spn));
    }
    for (int pes = 1; pes <= 8; ++pes) {
      std::vector<std::string> row{strformat("%d", pes)};
      for (const auto& model : models) {
        const double rate = simulate_hbm_throughput(
            model, pes, /*threads_per_pe=*/1, include_transfers,
            /*samples_per_pe=*/1'500'000);
        row.push_back(msamples(rate));
      }
      table.add_row(row);
    }
    print_table(table);
  }
  std::printf(
      "\npaper anchors (end-to-end NIPS10): 1 PE = 133.1 Ms/s, 5 PEs = "
      "614.7 Ms/s, little gain beyond 5 PEs; without transfers scaling is\n"
      "almost linear to 8 PEs for every benchmark (paper Fig. 4).\n");
  return 0;
}
