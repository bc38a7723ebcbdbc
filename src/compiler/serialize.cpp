#include "spnhbm/compiler/serialize.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

namespace spnhbm::compiler {

namespace {

constexpr std::uint32_t kMagic = 0x53504E44;  // "SPND"
// The only layout: a query-kind word and the default-evidence vector
// follow the version word.
constexpr std::uint32_t kVersion = 2;
// Default evidence is one byte per input feature, so this also bounds
// the feature count every lookup op indexes.
constexpr std::uint64_t kMaxFeatures = 65536;

void write_u32(std::ostream& out, std::uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void write_u64(std::ostream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void write_f64(std::ostream& out, double v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint32_t read_u32(std::istream& in) {
  std::uint32_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) throw ParseError("truncated design file (u32)");
  return v;
}
std::uint64_t read_u64(std::istream& in) {
  std::uint64_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) throw ParseError("truncated design file (u64)");
  return v;
}
double read_f64(std::istream& in) {
  double v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) throw ParseError("truncated design file (f64)");
  return v;
}

/// Weights and table entries must be finite and non-negative, so every
/// arithmetic backend can encode them.
double checked_probability(double v) {
  if (!std::isfinite(v) || v < 0.0) {
    throw ParseError("probability or weight outside [0, inf) in design file");
  }
  return v;
}

std::uint64_t ready_cycle(const DatapathOp& op) {
  return std::uint64_t{op.stage} + op.latency;
}

/// Checks op `index` against the ops before it: producers precede
/// consumers (the evaluators rely on it), lookups read a byte inside the
/// sample row, and the schedule is the compiler's ASAP one, so corrupt
/// latencies or delays cannot reach the resource model or the simulator.
void check_op(const DatapathOp& op, std::uint64_t index,
              const std::vector<DatapathOp>& before, std::uint64_t features) {
  if (op.kind == OpKind::kHistogramLookup) {
    if (op.variable >= features) {
      throw ParseError("lookup op reads a variable past the input features");
    }
    if (op.stage != 0 || op.lhs_delay != 0 || op.rhs_delay != 0) {
      throw ParseError("lookup op is not scheduled at stage 0");
    }
    return;
  }
  const bool unary = op.kind == OpKind::kConstMul;
  if (op.lhs >= index || (!unary && op.rhs >= index)) {
    throw ParseError("design file violates topological op order");
  }
  if (unary) checked_probability(op.constant);
  const std::uint64_t lhs_ready = ready_cycle(before[op.lhs]);
  const std::uint64_t rhs_ready =
      unary ? lhs_ready : ready_cycle(before[op.rhs]);
  const std::uint64_t stage = std::max(lhs_ready, rhs_ready);
  if (op.stage != stage || op.lhs_delay != stage - lhs_ready ||
      op.rhs_delay != stage - rhs_ready) {
    throw ParseError("op schedule disagrees with its producers");
  }
}

}  // namespace

void save_design(const DatapathModule& module, std::ostream& out) {
  write_u32(out, kMagic);
  write_u32(out, kVersion);
  write_u32(out, static_cast<std::uint32_t>(module.query()));
  write_u64(out, module.default_evidence().size());
  out.write(reinterpret_cast<const char*>(module.default_evidence().data()),
            static_cast<std::streamsize>(module.default_evidence().size()));
  write_u64(out, module.input_features());
  write_u32(out, module.pipeline_depth());
  write_u32(out, module.result_op());

  write_u64(out, module.ops().size());
  for (const auto& op : module.ops()) {
    write_u32(out, static_cast<std::uint32_t>(op.kind));
    write_u32(out, op.lhs);
    write_u32(out, op.rhs);
    write_u32(out, op.variable);
    write_u32(out, op.table_index);
    write_f64(out, op.constant);
    write_u32(out, op.stage);
    write_u32(out, op.latency);
    write_u32(out, op.lhs_delay);
    write_u32(out, op.rhs_delay);
  }

  write_u64(out, module.tables().size());
  for (const auto& table : module.tables()) {
    write_u32(out, table.variable);
    write_u64(out, table.probability_by_byte.size());
    for (const double p : table.probability_by_byte) write_f64(out, p);
  }
  SPNHBM_REQUIRE(out.good(), "design serialisation stream failure");
}

DatapathModule load_design(std::istream& in) {
  if (read_u32(in) != kMagic) {
    throw ParseError("not a spnhbm design file (bad magic)");
  }
  if (read_u32(in) != kVersion) {
    throw ParseError("unsupported design file version");
  }
  const std::uint32_t raw_query = read_u32(in);
  if (raw_query > static_cast<std::uint32_t>(QueryKind::kMpe)) {
    throw ParseError("invalid query kind in design file");
  }
  const auto query = static_cast<QueryKind>(raw_query);
  const std::uint64_t evidence_bytes = read_u64(in);
  if (evidence_bytes > kMaxFeatures) {
    throw ParseError("implausible default-evidence size");
  }
  std::vector<std::uint8_t> default_evidence(evidence_bytes);
  in.read(reinterpret_cast<char*>(default_evidence.data()),
          static_cast<std::streamsize>(evidence_bytes));
  if (!in) throw ParseError("truncated design file (default evidence)");
  const std::uint64_t features = read_u64(in);
  if (features != evidence_bytes) {
    throw ParseError("default evidence does not span the input features");
  }
  const std::uint32_t pipeline_depth = read_u32(in);
  const std::uint32_t result_op = read_u32(in);

  // Counts are not trusted for reservations: a corrupt one must end in a
  // truncation error, not a multi-gigabyte allocation.
  const std::uint64_t op_count = read_u64(in);
  if (op_count > (1ull << 28)) throw ParseError("implausible op count");
  std::vector<DatapathOp> ops;
  for (std::uint64_t i = 0; i < op_count; ++i) {
    DatapathOp op;
    const std::uint32_t kind = read_u32(in);
    if (kind > static_cast<std::uint32_t>(OpKind::kMax)) {
      throw ParseError("invalid op kind in design file");
    }
    op.kind = static_cast<OpKind>(kind);
    op.lhs = read_u32(in);
    op.rhs = read_u32(in);
    op.variable = read_u32(in);
    op.table_index = read_u32(in);
    op.constant = read_f64(in);
    op.stage = read_u32(in);
    op.latency = read_u32(in);
    op.lhs_delay = read_u32(in);
    op.rhs_delay = read_u32(in);
    check_op(op, i, ops, features);
    ops.push_back(op);
  }

  const std::uint64_t table_count = read_u64(in);
  if (table_count > op_count) throw ParseError("implausible table count");
  std::vector<LookupTable> tables;
  for (std::uint64_t t = 0; t < table_count; ++t) {
    LookupTable table;
    table.variable = read_u32(in);
    const std::uint64_t entries = read_u64(in);
    if (entries == 0 || entries > 65536) {
      throw ParseError("implausible lookup table size");
    }
    table.probability_by_byte.resize(entries);
    for (auto& p : table.probability_by_byte) {
      p = checked_probability(read_f64(in));
    }
    tables.push_back(std::move(table));
  }
  for (const auto& op : ops) {
    if (op.kind == OpKind::kHistogramLookup &&
        op.table_index >= tables.size()) {
      throw ParseError("op references a missing lookup table");
    }
  }
  if (result_op >= ops.size()) {
    throw ParseError("result op out of range in design file");
  }
  if (ready_cycle(ops[result_op]) != pipeline_depth) {
    throw ParseError("pipeline depth disagrees with the result op's schedule");
  }
  return DatapathModule(std::move(ops), std::move(tables), result_op,
                        features, pipeline_depth, query,
                        std::move(default_evidence));
}

void save_design_file(const DatapathModule& module, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw Error("cannot open design file for writing: " + path);
  save_design(module, out);
}

DatapathModule load_design_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open design file: " + path);
  return load_design(in);
}

bool is_design_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open file: " + path);
  std::uint32_t magic = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  return in.gcount() == sizeof(magic) && magic == kMagic;
}

}  // namespace spnhbm::compiler
