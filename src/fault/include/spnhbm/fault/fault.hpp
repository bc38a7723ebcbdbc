// Deterministic fault-injection framework.
//
// A FaultPlan is a seeded, declarative description of *what* fails,
// *where*, and *when*: each rule names an injection site (a stable string
// like "hbm.access" or "engine.submit"), optionally narrows it to one
// instance (a channel label, a PE label, an engine name), picks a fault
// kind, and chooses a trigger — a fixed op-index window, a periodic
// "every Nth op", or a Bernoulli probability drawn from a generator that
// is forked deterministically per (rule, site, instance). Plans parse
// from / serialize to JSON through the telemetry JSON layer, so chaos
// configurations live next to the metrics they explain.
//
// The FaultInjector is the process-global arbiter the instrumented sites
// consult: it keeps one operation counter per (site, instance), evaluates
// the armed plan's rules in order (first trigger wins), logs every
// injected fault, and counts them in the telemetry registry
// ("fault.injected"). Disarmed, decide() is a single relaxed atomic load —
// the hot paths of the simulation are unperturbed, which is what keeps
// the figure benchmarks byte-identical with the framework compiled in.
//
// Determinism: a decision depends only on the plan, the (site, instance)
// pair and that pair's op index — never on wall-clock time or thread
// interleaving. Any component whose own operation order is deterministic
// (every DES-driven site; every engine, which the server drives from a
// single worker thread) therefore sees the identical fault sequence on
// every run with the same seed.
//
// Site inventory. Device/substrate sites: "hbm.access", "pcie.dma",
// "pe.launch", "engine.submit", "engine.wait", "engine.activate" (instance
// = channel/card/PE/engine label; a card is its engine's partition label,
// "dma" for a whole-device engine). Network sites (DESIGN.md §12):
// "rpc.accept" (instance "listener", one op per accepted socket),
// "rpc.hello", "rpc.conn.rx" and "rpc.conn.tx" (instance "conn<N>"; rx
// counts received frames, tx counts sent frames with the HELLO as tx op
// 0 — per-connection counters restart on every new connection, keeping
// reconnect-heavy runs reproducible), and "rpc.client.connect"
// (instance = the client's label, one op per dial attempt).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "spnhbm/telemetry/metrics.hpp"
#include "spnhbm/util/rng.hpp"

namespace spnhbm::fault {

enum class FaultKind {
  kNone,
  kFail,     ///< The operation errors (site-specific exception).
  kStall,    ///< The operation succeeds but takes extra time.
  kCorrupt,  ///< Data is corrupted; sites with ECC detect it and fail.
  kDelay,    ///< Wall-clock latency spike before the operation.
  kHang,     ///< Bounded wall-clock hang (models an unresponsive backend).
};

const char* to_string(FaultKind kind);
FaultKind fault_kind_from_string(const std::string& name);

/// Static "fault.<kind>" label for annotating an injected fault onto the
/// owning trace span (instant events keep the trace allocation-free).
const char* trace_label(FaultKind kind);

/// What an instrumented site is told to do for the current operation.
struct FaultDecision {
  FaultKind kind = FaultKind::kNone;
  /// Stall/delay/hang duration (virtual or wall, per the site's clock).
  double duration_us = 0.0;
  /// XOR mask applied by corrupting sites.
  std::uint8_t corrupt_mask = 0xFF;

  explicit operator bool() const { return kind != FaultKind::kNone; }
};

/// One declarative fault source. Exactly one trigger must be set:
/// `probability`, `every`, or a window (`from`/`until`).
struct FaultRule {
  std::string site;      ///< Required: injection-site name.
  std::string instance;  ///< Optional exact instance filter; empty = any.
  FaultKind kind = FaultKind::kFail;
  /// Bernoulli per-op probability, deterministic in the plan seed.
  double probability = 0.0;
  /// Fire on every Nth operation (op indices N-1, 2N-1, ...).
  std::uint64_t every = 0;
  /// Fire on op indices in [from, until); until = 0 means unbounded.
  std::uint64_t from = 0;
  std::uint64_t until = 0;
  bool has_window = false;
  double duration_us = 0.0;
  std::uint8_t corrupt_mask = 0xFF;
};

struct FaultPlan {
  std::uint64_t seed = 1;
  std::vector<FaultRule> rules;

  /// Parses {"seed": S, "faults": [{...}, ...]}; throws ParseError on
  /// malformed documents (unknown kind, missing site, no/ambiguous
  /// trigger).
  static FaultPlan from_json(const std::string& text);
  static FaultPlan from_json_file(const std::string& path);
  std::string to_json() const;
};

/// One logged injection (the reproducibility witness: two runs with the
/// same plan must produce identical per-(site, instance) sequences).
struct InjectedFault {
  std::string site;
  std::string instance;
  std::uint64_t op_index = 0;
  FaultKind kind = FaultKind::kNone;
};

class FaultInjector {
 public:
  /// Arms `plan`; resets op counters, RNG streams and the log.
  void arm(FaultPlan plan);
  void disarm();
  bool armed() const { return armed_.load(std::memory_order_acquire); }

  /// Consulted by an instrumented site once per operation. Increments the
  /// (site, instance) op counter and returns the first triggering rule's
  /// decision (kNone when nothing fires or the injector is disarmed).
  FaultDecision decide(const std::string& site, const std::string& instance);

  /// Total faults injected since the last arm().
  std::uint64_t injected() const;
  /// Injection log, capped at kLogCap entries (counting continues).
  std::vector<InjectedFault> log() const;

  static constexpr std::size_t kLogCap = 65536;

 private:
  mutable std::mutex mutex_;
  std::atomic<bool> armed_{false};
  FaultPlan plan_;
  /// Op counter per (site, instance).
  std::map<std::pair<std::string, std::string>, std::uint64_t> op_counts_;
  /// Bernoulli stream per (rule index, site, instance).
  std::map<std::pair<std::size_t, std::pair<std::string, std::string>>, Rng>
      rule_rngs_;
  std::vector<InjectedFault> log_;
  std::uint64_t injected_ = 0;
  std::shared_ptr<telemetry::Counter> ctr_injected_;
};

/// The process-global injector every instrumented site consults.
FaultInjector& injector();

/// RAII arm/disarm, for tests and scoped chaos runs.
class ScopedFaultPlan {
 public:
  explicit ScopedFaultPlan(FaultPlan plan) { injector().arm(std::move(plan)); }
  ~ScopedFaultPlan() { injector().disarm(); }
  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;
};

}  // namespace spnhbm::fault
