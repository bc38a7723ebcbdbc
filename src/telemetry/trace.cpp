#include "spnhbm/telemetry/trace.hpp"

#include <fstream>

#include "spnhbm/telemetry/json.hpp"
#include "spnhbm/util/error.hpp"

namespace spnhbm::telemetry {

namespace {
/// Chrome trace pids: one synthetic process per clock.
constexpr int pid_for(TraceClock clock) {
  return clock == TraceClock::kWall ? 1 : 2;
}
}  // namespace

void Tracer::enable() {
  const std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
  events_.shrink_to_fit();
  tracks_.clear();
  wall_epoch_ = wall_now();
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::disable() { enabled_.store(false, std::memory_order_relaxed); }

TrackId Tracer::register_track(const std::string& name, TraceClock clock) {
  if (!enabled()) return 0;
  const std::lock_guard<std::mutex> lock(mutex_);
  tracks_.push_back(Track{name, clock});
  return static_cast<TrackId>(tracks_.size());  // ids are 1-based
}

void Tracer::push(const Event& event) {
  if (event.track == 0) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  // A stale id from before a re-enable() has no track entry any more.
  if (event.track > tracks_.size()) return;
  events_.push_back(event);
}

void Tracer::complete_virtual(TrackId track, const char* name,
                              Picoseconds start, Picoseconds end) {
  if (!enabled()) return;
  push(Event{track, name, 'X', virtual_us(start),
             virtual_us(end) - virtual_us(start), 0.0, 0});
}

void Tracer::instant_virtual(TrackId track, const char* name, Picoseconds at) {
  if (!enabled()) return;
  push(Event{track, name, 'i', virtual_us(at), 0.0, 0.0, 0});
}

void Tracer::counter_virtual(TrackId track, const char* name, Picoseconds at,
                             double value) {
  if (!enabled()) return;
  push(Event{track, name, 'C', virtual_us(at), 0.0, value, 0});
}

void Tracer::complete_wall(TrackId track, const char* name, WallTime start,
                           WallTime end) {
  if (!enabled()) return;
  push(Event{track, name, 'X', wall_us(start), wall_us(end) - wall_us(start),
             0.0, 0});
}

void Tracer::instant_wall(TrackId track, const char* name) {
  if (!enabled()) return;
  push(Event{track, name, 'i', wall_us(wall_now()), 0.0, 0.0, 0});
}

void Tracer::flow_wall(TrackId track, const char* name, char phase,
                       std::uint64_t flow_id, WallTime at) {
  if (!enabled()) return;
  push(Event{track, name, phase, wall_us(at), 0.0, 0.0, flow_id});
}

void Tracer::flow_virtual(TrackId track, const char* name, char phase,
                          std::uint64_t flow_id, Picoseconds at) {
  if (!enabled()) return;
  push(Event{track, name, phase, virtual_us(at), 0.0, 0.0, flow_id});
}

std::size_t Tracer::event_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

std::size_t Tracer::event_buffer_capacity() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return events_.capacity();
}

std::size_t Tracer::track_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return tracks_.size();
}

std::string Tracer::chrome_trace_json() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  JsonWriter w;
  w.begin_object();
  w.key("displayTimeUnit").value("ms");
  w.key("traceEvents").begin_array();

  // Process metadata: one Chrome "process" per clock domain.
  bool clock_used[2] = {false, false};
  for (const auto& track : tracks_) {
    clock_used[static_cast<int>(track.clock)] = true;
  }
  for (const TraceClock clock : {TraceClock::kWall, TraceClock::kVirtual}) {
    if (!clock_used[static_cast<int>(clock)]) continue;
    w.begin_object();
    w.key("name").value("process_name");
    w.key("ph").value("M");
    w.key("pid").value(pid_for(clock));
    w.key("tid").value(0);
    w.key("args").begin_object();
    w.key("name").value(clock == TraceClock::kWall
                            ? "wall clock"
                            : "simulated hardware (virtual time)");
    w.end_object();
    w.end_object();
  }
  // Thread metadata: one named lane per track.
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    w.begin_object();
    w.key("name").value("thread_name");
    w.key("ph").value("M");
    w.key("pid").value(pid_for(tracks_[i].clock));
    w.key("tid").value(static_cast<std::uint64_t>(i + 1));
    w.key("args").begin_object();
    w.key("name").value(tracks_[i].name);
    w.end_object();
    w.end_object();
    // Keep lanes in registration order.
    w.begin_object();
    w.key("name").value("thread_sort_index");
    w.key("ph").value("M");
    w.key("pid").value(pid_for(tracks_[i].clock));
    w.key("tid").value(static_cast<std::uint64_t>(i + 1));
    w.key("args").begin_object();
    w.key("sort_index").value(static_cast<std::uint64_t>(i + 1));
    w.end_object();
    w.end_object();
  }

  for (const auto& event : events_) {
    const Track& track = tracks_[event.track - 1];
    const bool is_flow =
        event.phase == 's' || event.phase == 't' || event.phase == 'f';
    w.begin_object();
    w.key("name").value(event.name);
    // Flow events carry one shared category ("req") regardless of the
    // track's clock: Chrome binds a flow chain only across events whose
    // cat and id both match, and a request chain crosses both clocks.
    w.key("cat").value(
        is_flow ? "req"
                : (track.clock == TraceClock::kWall ? "wall" : "sim"));
    w.key("ph").value(std::string(1, event.phase));
    w.key("pid").value(pid_for(track.clock));
    w.key("tid").value(static_cast<std::uint64_t>(event.track));
    w.key("ts").value(event.ts_us);
    if (event.phase == 'X') {
      w.key("dur").value(event.dur_us);
    } else if (event.phase == 'i') {
      w.key("s").value("t");  // thread-scoped instant
    } else if (event.phase == 'C') {
      w.key("args").begin_object();
      w.key("value").value(event.value);
      w.end_object();
    } else if (is_flow) {
      w.key("id").value(event.flow);
      // Bind the flow end to the enclosing slice rather than the next
      // slice on the track.
      if (event.phase == 'f') w.key("bp").value("e");
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw Error("cannot open trace output file: " + path);
  out << chrome_trace_json() << "\n";
  if (!out) throw Error("failed writing trace output file: " + path);
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

}  // namespace spnhbm::telemetry
