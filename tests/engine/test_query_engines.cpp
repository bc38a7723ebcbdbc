// Query-generic engine tests: marginal and MPE artifacts must produce
// bit-identical results to the reference queries on every backend (FPGA
// simulation, native CPU, GPU model), sparse evidence must equal its
// densified twin bit-for-bit while moving fewer modelled bytes, and the
// InferenceServer must address per-query lanes by suffix and validate
// sparse streams at the front door.
#include <gtest/gtest.h>

#include <algorithm>

#include "spnhbm/compiler/sparse_evidence.hpp"
#include "spnhbm/engine/cpu_engine.hpp"
#include "spnhbm/engine/fpga_engine.hpp"
#include "spnhbm/engine/gpu_engine.hpp"
#include "spnhbm/engine/server.hpp"
#include "spnhbm/spn/evaluate.hpp"
#include "spnhbm/spn/queries.hpp"
#include "spnhbm/spn/random_spn.hpp"
#include "spnhbm/util/rng.hpp"

namespace spnhbm::engine {
namespace {

constexpr std::size_t kVars = 8;

spn::Spn query_spn(std::uint64_t seed) {
  spn::RandomSpnConfig config;
  config.variables = kVars;
  config.leaf_domain = compiler::kMissingByte;
  config.seed = seed;
  return spn::make_random_spn(config);
}

ModelHandle query_artifact(const spn::Spn& spn, compiler::QueryKind query,
                           const std::string& name = "q") {
  compiler::CompileOptions options;
  options.query = query;
  options.input_domain = compiler::kMissingByte;
  return model::ModelArtifact::compile(name, "1", spn,
                                       arith::make_float64_backend(), options);
}

/// Byte rows with random missingness (kMissingByte) plus the double twin
/// rows (NaN) the reference evaluator reads.
struct MissingBatch {
  std::vector<std::uint8_t> bytes;
  std::vector<std::vector<double>> doubles;
};

MissingBatch missing_batch(std::size_t count, std::uint64_t seed) {
  MissingBatch batch;
  Rng rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<double> row(kVars);
    for (std::size_t v = 0; v < kVars; ++v) {
      if (rng.next_below(3) == 0) {
        batch.bytes.push_back(compiler::kMissingByte);
        row[v] = spn::missing_value();
      } else {
        const auto byte =
            static_cast<std::uint8_t>(rng.next_below(compiler::kMissingByte));
        batch.bytes.push_back(byte);
        row[v] = static_cast<double>(byte);
      }
    }
    batch.doubles.push_back(std::move(row));
  }
  return batch;
}

TEST(QueryEngines, MarginalBitIdenticalAcrossBackendsAndReference) {
  const spn::Spn spn = query_spn(101);
  const auto artifact = query_artifact(spn, compiler::QueryKind::kMarginal);
  const MissingBatch batch = missing_batch(48, 101);

  FpgaSimEngine fpga(artifact);
  CpuEngine cpu(artifact, {.threads = 2});
  GpuModelEngine gpu(artifact);
  const auto p_fpga = fpga.infer(batch.bytes);
  const auto p_cpu = cpu.infer(batch.bytes);
  const auto p_gpu = gpu.infer(batch.bytes);

  spn::Evaluator reference(spn);
  ASSERT_EQ(p_fpga.size(), 48u);
  for (std::size_t i = 0; i < p_fpga.size(); ++i) {
    const double want = reference.evaluate(batch.doubles[i]);
    EXPECT_DOUBLE_EQ(p_fpga[i], want) << "sample " << i;
    EXPECT_DOUBLE_EQ(p_cpu[i], want) << "sample " << i;
    EXPECT_DOUBLE_EQ(p_gpu[i], want) << "sample " << i;
  }
}

TEST(QueryEngines, MpeBitIdenticalAcrossBackendsAndReference) {
  const spn::Spn spn = query_spn(102);
  const auto artifact = query_artifact(spn, compiler::QueryKind::kMpe);
  const MissingBatch batch = missing_batch(48, 102);

  FpgaSimEngine fpga(artifact);
  CpuEngine cpu(artifact, {.threads = 2});
  GpuModelEngine gpu(artifact);
  const auto p_fpga = fpga.infer(batch.bytes);
  const auto p_cpu = cpu.infer(batch.bytes);
  const auto p_gpu = gpu.infer(batch.bytes);

  for (std::size_t i = 0; i < p_fpga.size(); ++i) {
    const double want = spn::max_product_value(spn, batch.doubles[i],
                                               compiler::kMissingByte);
    EXPECT_DOUBLE_EQ(p_fpga[i], want) << "sample " << i;
    EXPECT_DOUBLE_EQ(p_cpu[i], want) << "sample " << i;
    EXPECT_DOUBLE_EQ(p_gpu[i], want) << "sample " << i;
  }
}

TEST(QueryEngines, SparseEqualsDenseOnEveryBackend) {
  const spn::Spn spn = query_spn(103);
  const auto artifact = query_artifact(spn, compiler::QueryKind::kMarginal);
  const MissingBatch batch = missing_batch(32, 103);
  const auto& defaults = artifact->module().default_evidence();
  const compiler::SparseBatch sparse =
      compiler::sparse_from_dense(batch.bytes, kVars, defaults);
  const auto stream = compiler::encode_sparse(sparse);
  EXPECT_LT(stream.size(), batch.bytes.size() * 3);  // sanity: it encodes

  FpgaSimEngine fpga(artifact);
  CpuEngine cpu(artifact);
  GpuModelEngine gpu(artifact);
  const auto dense = cpu.infer(batch.bytes);
  const auto s_cpu = cpu.infer_sparse(stream, 32);
  const auto s_fpga = fpga.infer_sparse(stream, 32);
  const auto s_gpu = gpu.infer_sparse(stream, 32);
  ASSERT_EQ(s_cpu.size(), 32u);
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_DOUBLE_EQ(s_cpu[i], dense[i]) << "sample " << i;
    EXPECT_DOUBLE_EQ(s_fpga[i], dense[i]) << "sample " << i;
    EXPECT_DOUBLE_EQ(s_gpu[i], dense[i]) << "sample " << i;
  }
}

TEST(QueryEngines, SparseMovesFewerModelledBytesThanDense) {
  // One active variable per sample: 5 stream bytes vs kVars dense bytes.
  // The FPGA simulation charges PCIe DMA and HBM bursts for exactly the
  // bytes moved, so the sparse run must finish in strictly less virtual
  // time on an otherwise identical card.
  const spn::Spn spn = query_spn(104);
  const auto artifact = query_artifact(spn, compiler::QueryKind::kMarginal);
  constexpr std::size_t kCount = 256;

  compiler::SparseBatch sparse;
  sparse.features = kVars;
  std::vector<std::uint8_t> dense;
  Rng rng(104);
  for (std::size_t i = 0; i < kCount; ++i) {
    const auto index = static_cast<std::uint16_t>(rng.next_below(kVars));
    const auto value =
        static_cast<std::uint8_t>(rng.next_below(compiler::kMissingByte));
    const std::uint16_t indices[] = {index};
    const std::uint8_t values[] = {value};
    sparse.add_sample(indices, values);
    std::vector<std::uint8_t> row(kVars, compiler::kMissingByte);
    row[index] = value;
    dense.insert(dense.end(), row.begin(), row.end());
  }
  const auto stream = compiler::encode_sparse(sparse);
  ASSERT_LT(stream.size(), dense.size());

  FpgaSimEngine dense_engine(artifact);
  FpgaSimEngine sparse_engine(artifact);
  const auto p_dense = dense_engine.infer(dense);
  const auto p_sparse = sparse_engine.infer_sparse(stream, kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_DOUBLE_EQ(p_sparse[i], p_dense[i]) << "sample " << i;
  }
  EXPECT_LT(sparse_engine.virtual_now(), dense_engine.virtual_now());
}

TEST(QueryEngines, ServerAddressesQueryLanesBySuffix) {
  const spn::Spn spn = query_spn(105);
  const auto joint = query_artifact(spn, compiler::QueryKind::kJoint, "m");
  const auto marginal =
      query_artifact(spn, compiler::QueryKind::kMarginal, "m");

  ServerConfig config;
  config.batch_samples = 8;
  config.max_latency = std::chrono::microseconds(200);
  InferenceServer server(config);
  server.register_engine(std::make_shared<CpuEngine>(joint));
  server.register_engine(std::make_shared<CpuEngine>(marginal));
  server.start();

  const auto models = server.served_models();
  ASSERT_EQ(models.size(), 2u);
  EXPECT_NE(std::find(models.begin(), models.end(), "m@1"), models.end());
  EXPECT_NE(std::find(models.begin(), models.end(), "m@1#marginal"),
            models.end());
  EXPECT_EQ(server.input_features("m@1#marginal"), kVars);
  EXPECT_EQ(server.input_features("m#marginal"), kVars);  // bare + suffix

  const MissingBatch batch = missing_batch(4, 105);
  spn::Evaluator reference(spn);
  auto result = server.submit("m#marginal", batch.bytes).get();
  ASSERT_EQ(result.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(result[i], reference.evaluate(batch.doubles[i]));
  }
  server.stop();
}

TEST(QueryEngines, ServerValidatesSparseStreamsAtTheFrontDoor) {
  const spn::Spn spn = query_spn(106);
  const auto marginal =
      query_artifact(spn, compiler::QueryKind::kMarginal, "m");
  ServerConfig config;
  config.batch_samples = 8;
  config.max_latency = std::chrono::microseconds(200);
  InferenceServer server(config);
  const std::size_t engine_index =
      server.register_engine(std::make_shared<CpuEngine>(marginal));
  server.start();

  // A valid stream round-trips through try_submit_sparse.
  const MissingBatch batch = missing_batch(3, 106);
  const auto& defaults = marginal->module().default_evidence();
  const auto stream = compiler::encode_sparse(
      compiler::sparse_from_dense(batch.bytes, kVars, defaults));
  auto future = server.try_submit_sparse("m#marginal", stream, 3);
  ASSERT_TRUE(future.has_value());
  const auto results = future->get();
  spn::Evaluator reference(spn);
  ASSERT_EQ(results.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(results[i], reference.evaluate(batch.doubles[i]));
  }

  // A truncated stream throws ParseError at the submit call — it never
  // reaches the engine, so the health machinery records no failure.
  std::vector<std::uint8_t> truncated(stream.begin(), stream.end() - 1);
  EXPECT_THROW(server.try_submit_sparse("m#marginal", truncated, 3),
               ParseError);
  EXPECT_EQ(server.engine_health(engine_index), EngineHealth::kHealthy);
  server.stop();
}

TEST(QueryEngines, LoneSparseRequestDispatchesWithoutWaitingForTheFlush) {
  // A sparse request rides alone, so waiting cannot fill its batch: it
  // dispatches as soon as it heads its lane, not at the flush deadline.
  const spn::Spn spn = query_spn(107);
  const auto marginal =
      query_artifact(spn, compiler::QueryKind::kMarginal, "m");
  ServerConfig config;
  config.batch_samples = 64;
  config.max_latency = std::chrono::seconds(5);
  InferenceServer server(config);
  server.register_engine(std::make_shared<CpuEngine>(marginal));
  server.start();

  const MissingBatch batch = missing_batch(3, 107);
  const auto stream = compiler::encode_sparse(compiler::sparse_from_dense(
      batch.bytes, kVars, marginal->module().default_evidence()));
  auto future = server.try_submit_sparse("m#marginal", stream, 3);
  ASSERT_TRUE(future.has_value());
  ASSERT_EQ(future->wait_for(std::chrono::seconds(1)),
            std::future_status::ready);
  EXPECT_EQ(future->get().size(), 3u);
  EXPECT_EQ(server.stats().deadline_flushes, 0u);
  server.stop();
}

}  // namespace
}  // namespace spnhbm::engine
