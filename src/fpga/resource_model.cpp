#include "spnhbm/fpga/resource_model.hpp"

#include <algorithm>
#include <cmath>

#include "spnhbm/util/strings.hpp"

namespace spnhbm::fpga {

ResourceVector& ResourceVector::operator+=(const ResourceVector& other) {
  kluts_logic += other.kluts_logic;
  kluts_mem += other.kluts_mem;
  kregs += other.kregs;
  bram36 += other.bram36;
  dsp += other.dsp;
  return *this;
}

ResourceVector ResourceVector::operator+(const ResourceVector& other) const {
  ResourceVector result = *this;
  result += other;
  return result;
}

ResourceVector ResourceVector::operator*(double factor) const {
  return ResourceVector{kluts_logic * factor, kluts_mem * factor,
                        kregs * factor, bram36 * factor, dsp * factor};
}

bool ResourceVector::fits_within(const ResourceVector& budget) const {
  return kluts_logic <= budget.kluts_logic && kluts_mem <= budget.kluts_mem &&
         kregs <= budget.kregs && bram36 <= budget.bram36 && dsp <= budget.dsp;
}

std::string ResourceVector::describe() const {
  return strformat(
      "%.1f kLUT logic, %.1f kLUT mem, %.1f kRegs, %.0f BRAM, %.0f DSP",
      kluts_logic, kluts_mem, kregs, bram36, dsp);
}

std::string ResourceDeficit::describe() const {
  return strformat("%s: %.1f required vs %.1f available (short %.1f)",
                   resource.c_str(), required, available, deficit());
}

std::vector<ResourceDeficit> resource_deficits(const ResourceVector& required,
                                               const ResourceVector& budget) {
  std::vector<ResourceDeficit> deficits;
  const auto check = [&](const char* name, double need, double have) {
    if (need > have) deficits.push_back({name, need, have});
  };
  check("kLUT logic", required.kluts_logic, budget.kluts_logic);
  check("kLUT mem", required.kluts_mem, budget.kluts_mem);
  check("kRegs", required.kregs, budget.kregs);
  check("BRAM36", required.bram36, budget.bram36);
  check("DSP48", required.dsp, budget.dsp);
  return deficits;
}

namespace {

std::string deficit_message(const std::string& context,
                            const std::vector<ResourceDeficit>& deficits) {
  std::string message = context;
  for (const auto& deficit : deficits) {
    message += "\n  " + deficit.describe();
  }
  return message;
}

}  // namespace

PlacementDeficitError::PlacementDeficitError(
    const std::string& context, std::vector<ResourceDeficit> deficits)
    : PlacementError(deficit_message(context, deficits)),
      deficits_(std::move(deficits)) {}

ResourceVector vu37p_budget() {
  // "Available" row of Table I (New columns).
  return ResourceVector{1304.0, 601.0, 2607.0, 2016.0, 9024.0};
}

ResourceVector f1_vu9p_budget() {
  // "Available" row of Table I ([8] columns).
  return ResourceVector{1182.0, 592.0, 2364.0, 2160.0, 6840.0};
}

namespace {

const cal::OperatorCosts& costs_for(arith::FormatKind format) {
  switch (format) {
    case arith::FormatKind::kFloat64: return cal::kFloat64Costs;
    case arith::FormatKind::kPosit: return cal::kPositCosts;
    case arith::FormatKind::kCfp:
    case arith::FormatKind::kLns: return cal::kCfpCosts;
  }
  return cal::kCfpCosts;
}

}  // namespace

ResourceVector estimate_pe(const compiler::DatapathModule& module,
                           arith::FormatKind format) {
  const auto& costs = costs_for(format);
  const auto& base = format == arith::FormatKind::kFloat64 ? cal::kPeBaseF1
                                                           : cal::kPeBaseNew;
  const double muls = static_cast<double>(
      module.count_ops(compiler::OpKind::kMul) +
      module.count_ops(compiler::OpKind::kConstMul));
  const double adds =
      static_cast<double>(module.count_ops(compiler::OpKind::kAdd));
  const double hists =
      static_cast<double>(module.count_ops(compiler::OpKind::kHistogramLookup));
  const double tables = static_cast<double>(module.tables().size());

  double op_register_bits = 0.0;
  for (const auto& op : module.ops()) {
    op_register_bits += static_cast<double>(op.latency) * costs.value_width_bits;
  }
  const double balance_luts =
      static_cast<double>(module.balance_register_stages()) *
      costs.value_width_bits / 16.0;  // SRL-packed delay lines

  ResourceVector pe;
  pe.dsp = costs.dsp_per_mul * muls;
  pe.kluts_logic = (costs.lut_mul * muls + costs.lut_add * adds +
                    costs.lut_hist * hists + base.lut_pe_base) /
                   1000.0;
  pe.kregs = (op_register_bits + base.regs_pe_base) / 1000.0;
  pe.kluts_mem =
      (costs.lutmem_table * tables + balance_luts + base.lutmem_pe_base) /
      1000.0;
  pe.bram36 = base.bram_fifo_pe + std::ceil(costs.bram_per_table * tables);
  return pe;
}

ResourceVector estimate_design(const compiler::DatapathModule& module,
                               arith::FormatKind format,
                               const DesignSpec& spec) {
  SPNHBM_REQUIRE(spec.pe_count >= 1, "design needs at least one PE");
  const auto& infra = spec.platform == Platform::kF1 ? cal::kInfraF1Shell
                                                     : cal::kInfraHbm;
  ResourceVector design = estimate_pe(module, format) *
                          static_cast<double>(spec.pe_count);
  design.kluts_logic += infra.kluts_logic +
                        infra.kluts_per_pe * static_cast<double>(spec.pe_count);
  design.kluts_mem += infra.kluts_mem;
  design.kregs += infra.kregs +
                  infra.kregs_per_pe * static_cast<double>(spec.pe_count);
  design.bram36 += infra.bram;
  design.dsp += infra.dsp;
  if (spec.platform == Platform::kF1) {
    SPNHBM_REQUIRE(spec.memory_controllers >= 1 &&
                       spec.memory_controllers <= cal::kF1MaxMemoryChannels,
                   "F1 supports 1..4 DDR channels");
    const auto& ctrl = cal::kDdrControllerCost;
    const auto n = static_cast<double>(spec.memory_controllers);
    design.kluts_logic += ctrl.kluts_logic * n;
    design.kluts_mem += ctrl.kluts_mem * n;
    design.kregs += ctrl.kregs * n;
    design.bram36 += ctrl.bram * n;
  }
  return design;
}

void check_placement(const compiler::DatapathModule& module,
                     arith::FormatKind format, const DesignSpec& spec) {
  const ResourceVector budget =
      (spec.platform == Platform::kF1 ? f1_vu9p_budget() : vu37p_budget()) *
      cal::kRoutableUtilisation;
  const ResourceVector design = estimate_design(module, format, spec);
  auto deficits = resource_deficits(design, budget);
  if (spec.platform == Platform::kHbmXupVvh) {
    SPNHBM_REQUIRE(spec.pe_count <= 32,
                   "HBM platform has 32 channels (one per PE)");
    if (spec.pe_count > cal::kMaxRoutablePes) {
      deficits.push_back({"PE slots", static_cast<double>(spec.pe_count),
                          static_cast<double>(cal::kMaxRoutablePes)});
    }
  }
  if (!deficits.empty()) {
    throw PlacementDeficitError(
        strformat("%d PE(s) do not place on this device", spec.pe_count),
        std::move(deficits));
  }
}

int max_placeable_pes(const compiler::DatapathModule& module,
                      arith::FormatKind format, Platform platform) {
  const int cap = platform == Platform::kHbmXupVvh
                      ? cal::kMaxRoutablePes
                      : cal::kF1MaxMemoryChannels;
  int best = 0;
  for (int n = 1; n <= cap; ++n) {
    DesignSpec spec;
    spec.platform = platform;
    spec.pe_count = n;
    spec.memory_controllers =
        platform == Platform::kF1
            ? std::min(n, cal::kF1MaxMemoryChannels)
            : 1;
    try {
      check_placement(module, format, spec);
      best = n;
    } catch (const PlacementError&) {
      break;
    }
  }
  return best;
}

}  // namespace spnhbm::fpga
