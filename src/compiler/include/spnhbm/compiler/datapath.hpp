// SPN -> pipelined datapath compiler.
//
// Mirrors the paper's hardware generator: the textual SPN description is
// lowered to a fully spatial, fully pipelined operator graph with
// initiation interval II = 1 — one complete input sample enters the
// datapath every PE clock cycle.
//
// Lowering rules (one hardware operator per IR op):
//   * histogram leaf  -> BRAM lookup (byte feature -> probability);
//   * product node    -> balanced tree of 2-input multipliers;
//   * sum node        -> one constant multiplier per child (mixture weight,
//                        baked into the bitstream) + balanced adder tree.
//
// The scheduler assigns each operator a start stage (ASAP) and inserts
// delay registers wherever operand paths have unequal latency — those
// balance registers are a large share of the register counts in the
// paper's Table I, so they are tracked explicitly.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "spnhbm/arith/backend.hpp"
#include "spnhbm/spn/graph.hpp"

namespace spnhbm::compiler {

enum class OpKind : std::uint8_t {
  kHistogramLookup,  ///< input: feature byte; output: bucket probability
  kMul,              ///< 2-input multiply
  kConstMul,         ///< multiply by a synthesis-time constant (sum weight)
  kAdd,              ///< 2-input add
  kMax,              ///< 2-input max (sum nodes of a max-product datapath)
};

const char* op_kind_name(OpKind kind);

/// Which SPN query the compiled datapath answers. The query is baked into
/// the bitstream: a marginal datapath has a "marginalised" slot in every
/// leaf lookup table (missing evidence -> probability 1), an MPE datapath
/// replaces the adder trees of sum nodes with max trees (max-product).
enum class QueryKind : std::uint8_t {
  kJoint = 0,     ///< full-evidence joint likelihood (the paper's query)
  kMarginal = 1,  ///< marginal likelihood; missing variables summed out
  kMpe = 2,       ///< most probable explanation value (max-product)
};

const char* query_kind_name(QueryKind kind);
/// "joint" / "marginal" / "mpe"; throws ParseError on anything else.
QueryKind parse_query_kind(const std::string& name);

/// The input byte that means "this variable carries no evidence". Leaf
/// lookup tables of non-joint datapaths reserve this slot, so non-joint
/// compiles require input_domain <= 255.
inline constexpr std::uint8_t kMissingByte = 0xFF;

using OpId = std::uint32_t;
inline constexpr OpId kNoOp = static_cast<OpId>(-1);

struct DatapathOp {
  OpKind kind = OpKind::kMul;
  OpId lhs = kNoOp;               ///< producer op (kMul/kAdd/kConstMul)
  OpId rhs = kNoOp;               ///< second producer (kMul/kAdd)
  spn::VariableId variable = 0;   ///< kHistogramLookup: feature index
  std::uint32_t table_index = 0;  ///< kHistogramLookup: which LUT
  double constant = 0.0;          ///< kConstMul: the weight
  // Filled by the scheduler:
  std::uint32_t stage = 0;      ///< cycle (relative to sample entry) at
                                ///< which this op *starts*
  std::uint32_t latency = 0;    ///< operator latency in cycles
  std::uint32_t lhs_delay = 0;  ///< balance registers inserted on lhs path
  std::uint32_t rhs_delay = 0;  ///< balance registers inserted on rhs path
};

/// One histogram lookup table (becomes BRAM contents).
struct LookupTable {
  spn::VariableId variable = 0;
  std::vector<double> probability_by_byte;  ///< 256 entries (byte domain)
};

struct CompileOptions {
  /// Feature domain (byte input): lookup tables are built over [0, domain).
  std::size_t input_domain = 256;
  /// Reuse identical lookup tables across leaves (CSE for BRAM).
  bool deduplicate_tables = true;
  /// Query the datapath is compiled for. Non-joint queries reserve the
  /// kMissingByte lookup slot, so they require input_domain <= 255.
  QueryKind query = QueryKind::kJoint;
};

/// A read-only view over one input sample: either a dense byte row or a
/// CSR-style sparse set of {index, value} pairs over a per-model default
/// evidence vector (absent indices read the default — for non-joint
/// datapaths that default is kMissingByte, i.e. "no evidence").
class SampleView {
 public:
  static SampleView dense(std::span<const std::uint8_t> row) {
    SampleView view;
    view.row_ = row;
    return view;
  }
  /// `indices` must be strictly increasing; `defaults` spans every
  /// feature and backs the reads sparse pairs do not cover.
  static SampleView sparse(std::span<const std::uint16_t> indices,
                           std::span<const std::uint8_t> values,
                           std::span<const std::uint8_t> defaults) {
    SampleView view;
    view.indices_ = indices;
    view.values_ = values;
    view.row_ = defaults;
    view.is_sparse_ = true;
    return view;
  }

  std::size_t active_count() const {
    return is_sparse_ ? indices_.size() : row_.size();
  }

  std::uint8_t operator[](std::size_t variable) const {
    if (is_sparse_) {
      const auto it =
          std::lower_bound(indices_.begin(), indices_.end(), variable);
      if (it != indices_.end() && *it == variable) {
        return values_[static_cast<std::size_t>(it - indices_.begin())];
      }
    }
    return row_[variable];
  }

 private:
  std::span<const std::uint8_t> row_;       ///< dense row, or the defaults
  std::span<const std::uint16_t> indices_;  ///< sparse only
  std::span<const std::uint8_t> values_;    ///< sparse only
  bool is_sparse_ = false;
};

/// The compiled artifact — everything the simulator ("bitstream") needs.
class DatapathModule {
 public:
  /// `default_evidence` backs sparse samples (one byte per feature);
  /// empty = derive from the query (zeros for joint, kMissingByte
  /// otherwise).
  DatapathModule(std::vector<DatapathOp> ops, std::vector<LookupTable> tables,
                 OpId result_op, std::size_t input_features,
                 std::uint32_t pipeline_depth,
                 QueryKind query = QueryKind::kJoint,
                 std::vector<std::uint8_t> default_evidence = {});

  const std::vector<DatapathOp>& ops() const { return ops_; }
  const std::vector<LookupTable>& tables() const { return tables_; }
  OpId result_op() const { return result_op_; }

  /// Number of single-byte input features per sample.
  std::size_t input_features() const { return input_features_; }
  /// Total pipeline latency in PE cycles (fill time).
  std::uint32_t pipeline_depth() const { return pipeline_depth_; }
  /// Samples per cycle in steady state; always 1 (II = 1).
  static constexpr std::uint32_t initiation_interval() { return 1; }
  /// Query this datapath was compiled for.
  QueryKind query() const { return query_; }
  /// Per-feature byte a sparse sample reads where no pair covers the
  /// feature (all-kMissingByte for non-joint datapaths).
  const std::vector<std::uint8_t>& default_evidence() const {
    return default_evidence_;
  }

  std::size_t count_ops(OpKind kind) const;
  /// Total balance registers (value-widths) inserted by the scheduler.
  std::uint64_t balance_register_stages() const;

  /// Functional evaluation of one sample through the operator graph using
  /// `backend` arithmetic — bit-accurate to the modelled hardware.
  double evaluate(const arith::ArithBackend& backend,
                  std::span<const std::uint8_t> sample) const;
  /// Same, over a SampleView (dense or sparse) — identical arithmetic,
  /// so a sparse sample and its densified twin give bit-equal results.
  double evaluate(const arith::ArithBackend& backend,
                  const SampleView& sample) const;

  std::string report() const;

 private:
  std::vector<DatapathOp> ops_;
  std::vector<LookupTable> tables_;
  OpId result_op_;
  std::size_t input_features_;
  std::uint32_t pipeline_depth_;
  QueryKind query_ = QueryKind::kJoint;
  std::vector<std::uint8_t> default_evidence_;
};

/// Compiles the SPN into a scheduled datapath for the given arithmetic
/// backend. Throws ValidationError if the SPN is structurally invalid and
/// Error if it uses leaves the hardware flow does not support (only
/// histogram leaves map to the byte-input datapath, as in the paper).
DatapathModule compile_spn(const spn::Spn& spn,
                           const arith::ArithBackend& backend,
                           const CompileOptions& options = {});

}  // namespace spnhbm::compiler
