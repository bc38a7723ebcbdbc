// ModelArtifact / ModelRegistry tests: content-addressed hashing, the
// text-vs-binary load_file sniff, version-aware lookup, aliasing and the
// deferred-unload refcounting that keeps artifacts alive under live pins.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "spnhbm/arith/backend.hpp"
#include "spnhbm/compiler/serialize.hpp"
#include "spnhbm/model/artifact.hpp"
#include "spnhbm/model/registry.hpp"
#include "spnhbm/spn/random_spn.hpp"

namespace spnhbm {
namespace {

spn::Spn test_spn(std::uint64_t seed, std::size_t variables = 5) {
  spn::RandomSpnConfig config;
  config.variables = variables;
  config.seed = seed;
  return spn::make_random_spn(config);
}

model::ModelHandle compiled(std::string name, std::string version,
                            std::uint64_t seed = 11) {
  return model::ModelArtifact::compile(std::move(name), std::move(version),
                                       test_spn(seed),
                                       arith::make_float64_backend());
}

/// RAII temp file in the test working directory.
struct TempFile {
  explicit TempFile(std::string path_in, const std::string& contents = "")
      : path(std::move(path_in)) {
    if (!contents.empty()) {
      std::ofstream out(path, std::ios::binary);
      out << contents;
    }
  }
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

constexpr const char* kTextSpn =
    "Sum(0.25*Product(Histogram(V0|[0,128,256];[0.005,0.0028125])\n"
    "               * Histogram(V1|[0,64,256];[0.0078125,0.00260416666666666652]))\n"
    "  + 0.75*Product(Histogram(V0|[0,64,128,256];[0.0078125,0.0078125,0.0])\n"
    "               * Histogram(V1|[0,128,256];[0.0078125,0.0])))\n";

TEST(ModelArtifact, CompileIsContentAddressed) {
  const auto a = compiled("a", "1");
  const auto b = compiled("b", "2");  // same bits, different identity
  EXPECT_EQ(a->content_hash(), b->content_hash());
  EXPECT_EQ(a->content_hash_hex().size(), 16u);
  EXPECT_EQ(a->content_hash_hex(), b->content_hash_hex());

  const auto other_graph = compiled("a", "1", /*seed=*/12);
  EXPECT_NE(a->content_hash(), other_graph->content_hash());

  const auto other_backend = model::ModelArtifact::compile(
      "a", "1", test_spn(11), model::make_backend("lns"));
  EXPECT_NE(a->content_hash(), other_backend->content_hash());
}

TEST(ModelArtifact, IdentityAndDescribe) {
  const auto artifact = compiled("nips10", "3");
  EXPECT_EQ(artifact->name(), "nips10");
  EXPECT_EQ(artifact->version(), "3");
  EXPECT_EQ(artifact->id(), "nips10@3");
  EXPECT_TRUE(artifact->has_spn());
  EXPECT_EQ(artifact->input_features(), 5u);
  const std::string text = artifact->describe();
  EXPECT_NE(text.find("nips10@3"), std::string::npos);
  EXPECT_NE(text.find(artifact->content_hash_hex()), std::string::npos);
}

TEST(ModelArtifact, LoadFileSniffsTextVersusBinary) {
  TempFile text("test_model_text.spn", kTextSpn);
  const auto from_text = model::ModelArtifact::load_file(
      "demo", "1", text.path, arith::make_float64_backend());
  EXPECT_TRUE(from_text->has_spn());
  EXPECT_EQ(from_text->input_features(), 2u);

  TempFile binary("test_model_design.bin");
  compiler::save_design_file(from_text->module(), binary.path);
  const auto from_binary = model::ModelArtifact::load_file(
      "demo", "2", binary.path, arith::make_float64_backend());
  EXPECT_FALSE(from_binary->has_spn());

  // The round trip preserves the compiled bits and the functional result.
  EXPECT_EQ(from_text->content_hash(), from_binary->content_hash());
  const std::vector<std::uint8_t> row = {100, 30};
  EXPECT_DOUBLE_EQ(from_text->module().evaluate(from_text->backend(), row),
                   from_binary->module().evaluate(from_binary->backend(), row));
}

TEST(ModelArtifact, LoadFileRejectsCraftedDesigns) {
  // The two crafted design files that used to crash `infer`: a lookup op
  // reading variable 1000000 (SIGSEGV in every engine) and a feature
  // count of 2^36 (std::bad_alloc). Both must be ParseErrors at load.
  const auto source = model::ModelArtifact::load_file(
      "demo", "1", TempFile("test_model_crafted.spn", kTextSpn).path,
      arith::make_float64_backend());
  std::ostringstream saved;
  compiler::save_design(source->module(), saved);
  const std::string bytes = saved.str();
  const std::size_t features_at = 4 + 4 + 4 + 8 + source->input_features();
  const std::size_t first_op_at = features_at + 8 + 4 + 4 + 8;
  ASSERT_EQ(source->module().ops().front().kind,
            compiler::OpKind::kHistogramLookup);

  std::string far_variable = bytes;
  const std::uint32_t variable = 1000000;
  std::memcpy(far_variable.data() + first_op_at + 12, &variable, 4);
  std::string huge_features = bytes;
  const std::uint64_t features = std::uint64_t{1} << 36;
  std::memcpy(huge_features.data() + features_at, &features, 8);

  for (const std::string& crafted : {far_variable, huge_features}) {
    TempFile file("test_model_crafted.spnd", crafted);
    EXPECT_THROW(model::ModelArtifact::load_file(
                     "demo", "2", file.path, arith::make_float64_backend()),
                 ParseError);
  }
}

TEST(ModelArtifact, LoadFileMissingPathThrows) {
  EXPECT_THROW(model::ModelArtifact::load_file(
                   "x", "1", "does_not_exist.spn",
                   arith::make_float64_backend()),
               model::ModelError);
}

TEST(ModelArtifact, MakeBackendKnowsThePaperFormats) {
  for (const char* format : {"f64", "cfp", "lns", "posit"}) {
    EXPECT_NE(model::make_backend(format), nullptr) << format;
  }
  EXPECT_THROW(model::make_backend("fp8"), model::ModelError);
}

TEST(ModelRegistry, AddGetAndDuplicateRejection) {
  model::ModelRegistry registry;
  const auto artifact = registry.add(compiled("m", "1"));
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.get("m@1"), artifact);
  EXPECT_EQ(registry.get("m"), artifact);  // bare name
  EXPECT_THROW(registry.add(compiled("m", "1")), model::ModelError);
  EXPECT_THROW(registry.add(nullptr), model::ModelError);
  EXPECT_THROW(registry.get("unknown"), model::ModelError);
  EXPECT_EQ(registry.try_get("unknown"), nullptr);
}

TEST(ModelRegistry, BareNameResolvesHighestVersionNumerically) {
  model::ModelRegistry registry;
  registry.add(compiled("m", "2"));
  const auto v10 = registry.add(compiled("m", "10"));
  EXPECT_EQ(registry.get("m"), v10);  // "10" > "2" numerically
  EXPECT_EQ(registry.ids(), (std::vector<std::string>{"m@10", "m@2"}));
}

TEST(ModelRegistry, AmbiguousBareNameListsCandidates) {
  // "07" and "7" are numerically equal, so neither version wins the
  // bare-name lookup — the error must name both ids so the caller can
  // disambiguate without listing the registry.
  model::ModelRegistry registry;
  registry.add(compiled("m", "07"));
  registry.add(compiled("m", "7"));
  registry.add(compiled("m", "2"));  // a clear loser; must not appear
  try {
    registry.get("m");
    FAIL() << "expected ModelError for the version tie";
  } catch (const model::ModelError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("ambiguous"), std::string::npos) << what;
    EXPECT_NE(what.find("m@07"), std::string::npos) << what;
    EXPECT_NE(what.find("m@7"), std::string::npos) << what;
    EXPECT_EQ(what.find("m@2"), std::string::npos) << what;
  }
  // try_get treats ambiguity as a caller error too, not as "missing".
  EXPECT_THROW(registry.try_get("m"), model::ModelError);
  // Exact ids still resolve either artifact.
  EXPECT_EQ(registry.get("m@7")->version(), "7");
  EXPECT_EQ(registry.get("m@07")->version(), "07");
}

TEST(ModelRegistry, AliasesFollowRepointing) {
  model::ModelRegistry registry;
  const auto v1 = registry.add(compiled("m", "1"));
  const auto v2 = registry.add(compiled("m", "2"));
  registry.alias("prod", "m@1");
  EXPECT_EQ(registry.get("prod"), v1);
  registry.alias("prod", "m@2");  // re-pointing is allowed
  EXPECT_EQ(registry.get("prod"), v2);
  EXPECT_THROW(registry.alias("m@1", "m@2"), model::ModelError);  // id clash
  EXPECT_THROW(registry.alias("broken", "nothing"), model::ModelError);
}

TEST(ModelRegistry, UnloadIsDeferredWhileExternallyPinned) {
  model::ModelRegistry registry;
  model::ModelHandle pin = registry.add(compiled("m", "1"));
  registry.add(compiled("free", "1"));

  // An unpinned model frees immediately.
  EXPECT_TRUE(registry.unload("free"));
  EXPECT_EQ(registry.pending_unload_count(), 0u);

  // A pinned model (an engine mid-batch in real life) defers.
  EXPECT_FALSE(registry.unload("m@1"));
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_EQ(registry.pending_unload_count(), 1u);
  EXPECT_THROW(registry.get("m@1"), model::ModelError);
  pin.reset();  // last pin drops -> reclaimed
  EXPECT_EQ(registry.pending_unload_count(), 0u);
}

TEST(ModelRegistry, VersionLessIsNumericAware) {
  EXPECT_TRUE(model::version_less("2", "10"));
  EXPECT_FALSE(model::version_less("10", "2"));
  EXPECT_TRUE(model::version_less("1.2", "1.10"));
  EXPECT_FALSE(model::version_less("3", "3"));
}

}  // namespace
}  // namespace spnhbm
