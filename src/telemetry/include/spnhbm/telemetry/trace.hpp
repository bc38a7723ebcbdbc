// Dual-clock tracing layer with Chrome trace-event JSON export.
//
// Spans ("X" complete events), instants and counter samples are stamped in
// one of two clocks:
//   * kVirtual — DES virtual time (`sim::Scheduler::now()`, integer
//     picoseconds), used by the simulated hardware (HBM channels, PCIe DMA,
//     accelerator PEs, runtime control threads);
//   * kWall    — wall-clock time relative to `enable()`, used by the real
//     threads of the inference server.
// Each clock maps to one Chrome trace "process" and every registered track
// to one named "thread" inside it, so Perfetto / chrome://tracing renders
// one swim lane per hardware component or server thread.
//
// Cost model: tracing is DISABLED by default. Every emit function starts
// with one relaxed atomic load and returns immediately when disabled — no
// locks, no allocation, no timestamp capture. Track registration while
// disabled returns the null track (0), and events on the null track are
// dropped, so the instrumented stack must be constructed AFTER `enable()`
// for its tracks to appear (the CLI enables tracing before building
// anything).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "spnhbm/util/units.hpp"

namespace spnhbm::telemetry {

enum class TraceClock { kWall = 0, kVirtual = 1 };

/// Opaque track handle; 0 is the null track (events dropped).
using TrackId = std::uint32_t;

class Tracer {
 public:
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Clears any previous events and starts collecting; the wall clock's
  /// origin is the moment of this call.
  void enable();
  void disable();

  /// Registers a named swim lane under the given clock. Returns the null
  /// track while disabled. Thread-safe.
  TrackId register_track(const std::string& name, TraceClock clock);

  // --- Virtual-clock events (timestamps in DES picoseconds) --------------
  void complete_virtual(TrackId track, const char* name, Picoseconds start,
                        Picoseconds end);
  void instant_virtual(TrackId track, const char* name, Picoseconds at);
  void counter_virtual(TrackId track, const char* name, Picoseconds at,
                       double value);

  // --- Wall-clock events -------------------------------------------------
  using WallTime = std::chrono::steady_clock::time_point;
  static WallTime wall_now() { return std::chrono::steady_clock::now(); }
  void complete_wall(TrackId track, const char* name, WallTime start,
                     WallTime end);
  void instant_wall(TrackId track, const char* name);

  // --- Flow events ---------------------------------------------------------
  // Chrome flow events ('s' start, 't' step, 'f' end) sharing one `id`
  // draw an arrow chain through the enclosing 'X' slices — including
  // across the two clock "processes", which is how one request's
  // wall-clock server spans are linked to its virtual-time device spans.
  // Every flow event is emitted with the same category ("req"), because
  // Chrome only binds flow events whose cat AND id match. A flow event
  // must fall inside an 'X' slice on the same track to bind; emit it at
  // (or just after) the enclosing slice's start timestamp.
  void flow_wall(TrackId track, const char* name, char phase,
                 std::uint64_t flow_id, WallTime at);
  void flow_virtual(TrackId track, const char* name, char phase,
                    std::uint64_t flow_id, Picoseconds at);

  /// RAII wall-clock span; emits a complete event on destruction. Safe to
  /// construct with tracing disabled (no-op).
  class WallSpan {
   public:
    WallSpan(Tracer& tracer, TrackId track, const char* name)
        : tracer_(tracer), track_(track), name_(name),
          active_(tracer.enabled() && track != 0),
          start_(active_ ? wall_now() : WallTime{}) {}
    ~WallSpan() {
      if (active_) tracer_.complete_wall(track_, name_, start_, wall_now());
    }
    WallSpan(const WallSpan&) = delete;
    WallSpan& operator=(const WallSpan&) = delete;

   private:
    Tracer& tracer_;
    TrackId track_;
    const char* name_;
    bool active_;
    WallTime start_;
  };

  std::size_t event_count() const;
  /// Capacity of the internal event buffer — stays 0 on the disabled path
  /// (the zero-allocation guarantee tests assert on this).
  std::size_t event_buffer_capacity() const;
  std::size_t track_count() const;

  /// Serialises everything collected so far as a Chrome trace-event JSON
  /// document ({"traceEvents": [...], ...}), loadable in Perfetto or
  /// chrome://tracing.
  std::string chrome_trace_json() const;
  /// Writes chrome_trace_json() to `path`; throws on I/O failure.
  void write_chrome_trace(const std::string& path) const;

 private:
  struct Event {
    TrackId track;
    const char* name;  ///< must point at a string literal
    char phase;        ///< 'X' complete, 'i' instant, 'C' counter,
                       ///< 's'/'t'/'f' flow start/step/end
    double ts_us;
    double dur_us;     ///< 'X' only
    double value;      ///< 'C' only
    std::uint64_t flow;  ///< flow events only: the binding id
  };
  struct Track {
    std::string name;
    TraceClock clock;
  };

  double wall_us(WallTime t) const {
    return std::chrono::duration<double, std::micro>(t - wall_epoch_).count();
  }
  static double virtual_us(Picoseconds ps) {
    return static_cast<double>(ps) / 1e6;
  }
  void push(const Event& event);

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<Event> events_;
  std::vector<Track> tracks_;
  WallTime wall_epoch_{};
};

/// The process-global tracer.
Tracer& tracer();

}  // namespace spnhbm::telemetry
