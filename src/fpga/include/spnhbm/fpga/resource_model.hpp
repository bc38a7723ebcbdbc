// FPGA resource estimation and placement feasibility.
//
// Reproduces the paper's Table I: per-design resource vectors (kLUT as
// logic, kLUT as memory, kRegs, BRAM36, DSP48) for N accelerator instances
// of a compiled datapath on either the HBM platform (this work, Bittware
// XUP-VVH / VU37P) or the prior-work AWS F1 platform (VU9P + shell + soft
// DDR4 controllers). All constants live in calibration.hpp.
#pragma once

#include <string>
#include <vector>

#include "spnhbm/compiler/datapath.hpp"
#include "spnhbm/fpga/calibration.hpp"

namespace spnhbm::fpga {

struct ResourceVector {
  double kluts_logic = 0.0;
  double kluts_mem = 0.0;
  double kregs = 0.0;
  double bram36 = 0.0;
  double dsp = 0.0;

  ResourceVector& operator+=(const ResourceVector& other);
  ResourceVector operator+(const ResourceVector& other) const;
  ResourceVector operator*(double factor) const;
  /// True if every component is <= the corresponding budget component.
  bool fits_within(const ResourceVector& budget) const;
  std::string describe() const;
};

/// Device budgets — the "Available" row of Table I.
ResourceVector vu37p_budget();   ///< Bittware XUP-VVH (this work)
ResourceVector f1_vu9p_budget(); ///< AWS F1 (prior work [8])

/// One over-budget resource of a failed placement: what the design needs
/// vs what the device offers (after the routable-utilisation margin).
/// `resource` also covers the discrete budgets ("PE slots",
/// "HBM channels") that have no ResourceVector component.
struct ResourceDeficit {
  std::string resource;
  double required = 0.0;
  double available = 0.0;
  double deficit() const { return required - available; }
  /// "kLUT logic: 812.3 required vs 643.2 available (short 169.1)"
  std::string describe() const;
};

/// The over-budget components of `required` against `budget`, one entry
/// per Table I resource that does not fit (empty = the design places).
std::vector<ResourceDeficit> resource_deficits(const ResourceVector& required,
                                               const ResourceVector& budget);

/// PlacementError that carries the per-resource breakdown: every placement
/// failure in this module reports required vs available for each
/// over-budget resource instead of a bare "does not fit".
class PlacementDeficitError : public PlacementError {
 public:
  PlacementDeficitError(const std::string& context,
                        std::vector<ResourceDeficit> deficits);
  const std::vector<ResourceDeficit>& deficits() const { return deficits_; }

 private:
  std::vector<ResourceDeficit> deficits_;
};

enum class Platform { kHbmXupVvh, kF1 };

struct DesignSpec {
  Platform platform = Platform::kHbmXupVvh;
  int pe_count = 1;
  /// F1 only: number of soft DDR controllers composed into the design
  /// (HBM controllers are hardened and free).
  int memory_controllers = 1;
};

/// Resource cost of one PE instance of the compiled datapath.
ResourceVector estimate_pe(const compiler::DatapathModule& module,
                           arith::FormatKind format);

/// Full-design estimate: PEs + platform infrastructure (+ controllers).
ResourceVector estimate_design(const compiler::DatapathModule& module,
                               arith::FormatKind format,
                               const DesignSpec& spec);

/// Throws PlacementError (with a resource breakdown) if the design does
/// not fit the platform within the routable-utilisation margin.
void check_placement(const compiler::DatapathModule& module,
                     arith::FormatKind format, const DesignSpec& spec);

/// Largest PE count that places on the platform (respecting the routing
/// cap and, on F1, one controller per PE up to the channel limit).
int max_placeable_pes(const compiler::DatapathModule& module,
                      arith::FormatKind format, Platform platform);

}  // namespace spnhbm::fpga
