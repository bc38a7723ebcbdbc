#include "spnhbm/model/artifact.hpp"

#include <fstream>
#include <sstream>
#include <utility>

#include "spnhbm/compiler/serialize.hpp"
#include "spnhbm/model/tuning.hpp"
#include "spnhbm/spn/text_format.hpp"
#include "spnhbm/util/strings.hpp"

namespace spnhbm::model {

namespace {

std::uint64_t fnv1a(std::uint64_t hash, const char* data, std::size_t size) {
  constexpr std::uint64_t kPrime = 0x100000001b3ull;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= kPrime;
  }
  return hash;
}

std::uint64_t hash_artifact(const compiler::DatapathModule& module,
                            const arith::ArithBackend& backend) {
  std::ostringstream design;
  compiler::save_design(module, design);
  const std::string bytes = design.str();
  std::uint64_t hash = 0xcbf29ce484222325ull;  // FNV offset basis
  hash = fnv1a(hash, bytes.data(), bytes.size());
  const std::string format = backend.describe();
  hash = fnv1a(hash, format.data(), format.size());
  return hash;
}

std::string read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ModelError("cannot open model file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

ModelArtifact::ModelArtifact(std::string name, std::string version,
                             std::optional<spn::Spn> spn,
                             compiler::DatapathModule module,
                             std::unique_ptr<arith::ArithBackend> backend)
    : name_(std::move(name)),
      version_(std::move(version)),
      spn_(std::move(spn)),
      module_(std::move(module)),
      backend_(std::move(backend)) {
  if (name_.empty()) throw ModelError("model name must not be empty");
  if (version_.empty()) throw ModelError("model version must not be empty");
  if (backend_ == nullptr) throw ModelError("model backend must not be null");
  content_hash_ = hash_artifact(module_, *backend_);
}

ModelHandle ModelArtifact::compile(std::string name, std::string version,
                                   spn::Spn spn,
                                   std::unique_ptr<arith::ArithBackend> backend,
                                   const compiler::CompileOptions& options) {
  if (!backend) throw ModelError("model backend must not be null");
  compiler::DatapathModule module = compiler::compile_spn(spn, *backend, options);
  return ModelHandle(new ModelArtifact(std::move(name), std::move(version),
                                       std::move(spn), std::move(module),
                                       std::move(backend)));
}

ModelHandle ModelArtifact::load_file(std::string name, std::string version,
                                     const std::string& path,
                                     std::unique_ptr<arith::ArithBackend> backend,
                                     const compiler::CompileOptions& options) {
  bool design = false;
  try {
    design = compiler::is_design_file(path);
  } catch (const Error& error) {
    throw ModelError(error.what());
  }
  if (design) {
    if (!backend) throw ModelError("model backend must not be null");
    compiler::DatapathModule module = compiler::load_design_file(path);
    return ModelHandle(new ModelArtifact(std::move(name), std::move(version),
                                         std::nullopt, std::move(module),
                                         std::move(backend)));
  }
  return compile(std::move(name), std::move(version),
                 spn::parse_spn(read_text_file(path)), std::move(backend),
                 options);
}

const spn::Spn& ModelArtifact::spn() const {
  if (!spn_.has_value()) {
    throw ModelError("artifact " + id() + " carries no source SPN");
  }
  return *spn_;
}

std::string ModelArtifact::content_hash_hex() const {
  return strformat("%016llx",
                         static_cast<unsigned long long>(content_hash_));
}

std::string ModelArtifact::describe() const {
  return strformat("%s [%s] %zu features, %s", id().c_str(),
                         content_hash_hex().c_str(), input_features(),
                         backend_->describe().c_str());
}

void ModelArtifact::attach_tuning(
    std::shared_ptr<const TuningManifest> manifest) const {
  SPNHBM_REQUIRE(manifest != nullptr, "attach_tuning requires a manifest");
  manifest->require_matches(*this);
  std::lock_guard<std::mutex> lock(tuning_mutex_);
  tuning_ = std::move(manifest);
}

std::shared_ptr<const TuningManifest> ModelArtifact::tuning() const {
  std::lock_guard<std::mutex> lock(tuning_mutex_);
  return tuning_;
}

std::unique_ptr<arith::ArithBackend> make_backend(const std::string& format) {
  if (format == "f64" || format == "float64") {
    return arith::make_float64_backend();
  }
  if (format == "cfp") return arith::make_cfp_backend(arith::paper_cfp_format());
  if (format == "lns") return arith::make_lns_backend(arith::paper_lns_format());
  if (format == "posit") {
    return arith::make_posit_backend(arith::paper_posit_format());
  }
  throw ModelError("unknown arithmetic format: " + format +
                   " (expected f64, cfp, lns or posit)");
}

}  // namespace spnhbm::model
