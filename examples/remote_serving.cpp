// Remote serving demo: the full TCP front end in one process — an
// InferenceServer wrapped by the RpcServer on an ephemeral loopback
// port, an RpcClient issuing pipelined requests over the wire, and the
// open-loop load generator replaying a seeded Poisson arrival schedule
// across four connections.
//
// The client results are verified against the reference evaluator, so a
// framing or routing bug anywhere in the wire path shows up as a
// probability mismatch, and both the loadgen report and the server's
// conservation identities (received = accepted + rejected + shed,
// accepted = completed + failed) are checked before exiting.
//
//   ./build/examples/remote_serving
#include <cmath>
#include <cstdio>
#include <span>
#include <vector>

#include "spnhbm/engine/cpu_engine.hpp"
#include "spnhbm/engine/server.hpp"
#include "spnhbm/rpc/client.hpp"
#include "spnhbm/rpc/loadgen.hpp"
#include "spnhbm/rpc/server.hpp"
#include "spnhbm/spn/evaluate.hpp"
#include "spnhbm/workload/bag_of_words.hpp"
#include "spnhbm/workload/model_zoo.hpp"

int main() {
  using namespace spnhbm;
  const std::size_t variables = 10;

  // The served model, behind the usual batching server.
  const auto model = workload::make_nips_model(variables);
  const auto artifact = model::ModelArtifact::compile(
      model.name, "1", model.spn, arith::make_float64_backend());
  engine::ServerConfig config;
  config.batch_samples = 64;
  config.max_latency = std::chrono::microseconds(300);
  engine::InferenceServer server(config);
  server.register_engine(std::make_shared<engine::CpuEngine>(artifact));
  server.start();

  // The TCP front door, on an ephemeral loopback port.
  rpc::RpcServerConfig rpc_config;
  rpc_config.admission.max_outstanding_samples = 1 << 14;
  rpc::RpcServer front(server, rpc_config);
  front.start();
  std::printf("serving %s on 127.0.0.1:%u\n", model.name.c_str(),
              front.port());

  // A remote client: the handshake advertises the loaded models, every
  // request travels as wire frames and comes back bit-exact.
  auto client = rpc::RpcClient::connect("127.0.0.1", front.port());
  const rpc::ServerInfo& info = client->server_info();
  std::printf("handshake: build %s, %zu model(s), %u features\n",
              info.build_version.c_str(), info.models.size(),
              info.input_features(info.models.at(0).id));

  workload::CorpusConfig corpus;
  corpus.vocabulary = variables;
  corpus.documents = 256;
  corpus.seed = 99;
  const auto docs = workload::make_bag_of_words(corpus).to_bytes();
  std::vector<std::vector<std::uint8_t>> requests;
  for (std::size_t cursor = 0; (cursor + 8) * variables <= docs.size();
       cursor += 8) {
    requests.emplace_back(docs.begin() + cursor * variables,
                          docs.begin() + (cursor + 8) * variables);
  }
  std::vector<rpc::RpcFuture> futures;
  futures.reserve(requests.size());
  for (const auto& request : requests) {
    futures.push_back(client->submit("", request));
  }

  spn::Evaluator reference(model.spn);
  std::size_t checked = 0;
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const auto results = futures[r].get();
    for (std::size_t i = 0; i < results.size(); ++i) {
      const double want = reference.evaluate_bytes(
          std::span<const std::uint8_t>(requests[r])
              .subspan(i * variables, variables));
      if (want > 0.0 && std::abs(results[i] / want - 1.0) > 1e-9) {
        std::printf("MISMATCH request %zu sample %zu: %g vs %g\n", r, i,
                    results[i], want);
        return 1;
      }
      ++checked;
    }
  }
  std::printf("remote client: %zu requests (%zu samples), all verified\n",
              requests.size(), checked);
  client->close();

  // The open-loop load generator against the same port: a seeded Poisson
  // schedule over 4 connections, arrivals never waiting for responses.
  rpc::LoadgenConfig loadgen;
  loadgen.port = front.port();
  loadgen.payloads.assign(requests.begin(), requests.begin() + 8);
  loadgen.request_count = 400;
  loadgen.rate_rps = 20'000.0;
  loadgen.arrival = rpc::ArrivalProcess::kPoisson;
  loadgen.connections = 4;
  const rpc::LoadgenReport report = rpc::run_loadgen(loadgen);
  std::printf("%s\n", report.describe().c_str());
  if (!report.conserved() || report.ok() != report.sent) {
    std::printf("loadgen run lost requests\n");
    return 1;
  }

  front.stop();
  server.stop();
  const rpc::RpcServerStats stats = front.stats();
  std::printf("rpc server: %s\n", stats.describe().c_str());
  if (!stats.conserved()) {
    std::printf("conservation VIOLATED\n");
    return 1;
  }
  return 0;
}
