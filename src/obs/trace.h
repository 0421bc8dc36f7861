// Causal trace layer: follow one mutation's invalidation cascade
// end-to-end through the replica/network stack.
//
// The simulator's interesting behavior is a *chain*: a mutation at an
// origin fans out notifications, each dirty holder drops its copy, an
// eager-refresh shipment crosses the wire, and the copy re-installs at
// the holder — four subsystems, three network hops, one cause. Per-
// subsystem counters cannot show that chain; this tracer can:
//
//  - every span event carries a TraceId (the causal id). A root cause
//    (a mutation, a top-level replica read) mints a fresh id; everything
//    it triggers inherits it;
//  - propagation is *scoped*, not plumbed: the tracer keeps a "current"
//    id on the (single) simulation thread, Tracer::Scope sets/restores
//    it RAII-style, and the Network captures the current id at Send time
//    and re-establishes it around the delivery callback — so the id
//    crosses simulated network hops without touching any message struct;
//  - events live in a bounded ring buffer (oldest dropped first), each
//    stamped with the *simulated* clock, a peer, a category/name pair
//    and a byte count;
//  - ToChromeJson() exports the buffer in Chrome trace-event format
//    (load at ui.perfetto.dev or chrome://tracing): peers render as
//    processes, causal chains as threads (tid == TraceId), sim-time as
//    the microsecond clock.
//
// Disabled by default: Record() is a single branch when off. When the
// log level is kDebug, every recorded event is mirrored to the log —
// the interactive twin of the exported file.
//
// The scoped current-id trick relies on the event loop running
// callbacks one at a time, on the one thread that runs the System
// (docs/architecture.md).

#ifndef AXML_OBS_TRACE_H_
#define AXML_OBS_TRACE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/ids.h"
#include "net/sim_time.h"

namespace axml {

/// Causal chain identifier. 0 = no chain (events recorded outside any
/// scope still land in the buffer, as orphans).
using TraceId = uint64_t;

/// One recorded event.
struct TraceSpan {
  uint64_t seq = 0;   ///< monotone across the tracer's lifetime
  TraceId trace = 0;  ///< causal chain, 0 for orphans
  PeerId peer;        ///< where it happened
  SimTime time = 0;   ///< simulated start time, seconds
  SimTime duration = 0;  ///< 0 for instant events
  std::string category;  ///< subsystem: "replica", "net", "eval", ...
  std::string name;      ///< event: "mutation", "notify", "shipment", ...
  uint64_t bytes = 0;    ///< payload size where meaningful
  std::string detail;    ///< free-form (doc key, policy, ...)

  /// "[  1.250s] #42 replica/notify @p3 48B (d@p0)" — the kDebug mirror
  /// and test-failure format.
  std::string ToString() const;
};

/// Per-System ring buffer of causally-linked span events.
class Tracer {
 public:
  static constexpr size_t kDefaultCapacity = 8192;

  /// `clock` supplies the simulated time events are stamped with
  /// (AxmlSystem wires the event loop's now()); a null clock stamps 0.
  explicit Tracer(std::function<SimTime()> clock = nullptr,
                  size_t capacity = kDefaultCapacity);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Recording gate. Off by default; Record() is a no-op while off
  /// (current-id scoping still works, so enabling mid-run is safe).
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Resizes the ring buffer; existing events are dropped.
  void set_capacity(size_t capacity);
  size_t capacity() const { return capacity_; }

  // --- Causal ids ---

  /// Mints a fresh causal id (never 0; monotone, so deterministic runs
  /// assign deterministic ids). Does not change the current id — pair
  /// with a Scope.
  TraceId NewTrace() { return ++last_trace_id_; }

  /// The causal id of whatever is executing right now (0 = none).
  TraceId current() const { return current_; }

  /// The current id, or a fresh one when none is active: root spans
  /// (mutation, top-level read) open a chain only if they are not
  /// already part of one.
  TraceId CurrentOrNew() { return current_ != 0 ? current_ : NewTrace(); }

  /// RAII current-id window. Everything recorded (on this thread)
  /// while the scope lives — including synchronous fan-out several
  /// calls deep — carries `id`.
  class Scope {
   public:
    Scope(Tracer* tracer, TraceId id) : tracer_(tracer) {
      if (tracer_ != nullptr) {
        previous_ = tracer_->current_;
        tracer_->current_ = id;
      }
    }
    ~Scope() {
      if (tracer_ != nullptr) tracer_->current_ = previous_;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    TraceId previous_ = 0;
  };

  /// Wraps `fn` so that, when invoked later (e.g. as an event-loop
  /// callback), it runs under the causal id current *now* — the hop
  /// that carries an id across a scheduled delivery.
  std::function<void()> Bind(std::function<void()> fn);

  // --- Recording ---

  /// Appends an event under the current causal id, stamped with the
  /// simulated clock. No-op while disabled. When the log level is
  /// kDebug, the event is mirrored to the log.
  void Record(std::string category, std::string name, PeerId peer,
              uint64_t bytes = 0, SimTime duration = 0,
              std::string detail = {});

  /// Events currently resident, oldest first (wraparound drops from the
  /// front; `seq` exposes the gaps).
  std::vector<TraceSpan> Events() const;

  /// Total events ever recorded / dropped by wraparound.
  uint64_t recorded() const { return recorded_; }
  uint64_t dropped() const { return recorded_ - size_; }
  size_t size() const { return size_; }

  void Clear();

  /// Chrome trace-event JSON (the "traceEvents" array form): one "X"
  /// complete event per span, ts/dur in simulated microseconds,
  /// pid = peer index, tid = causal id, args = {bytes, seq, detail}.
  std::string ToChromeJson() const;

 private:
  std::function<SimTime()> clock_;
  bool enabled_ = false;
  size_t capacity_;
  /// Ring: ring_[(start_ + i) % capacity_] for i < size_.
  std::vector<TraceSpan> ring_;
  size_t start_ = 0;
  size_t size_ = 0;
  uint64_t recorded_ = 0;
  uint64_t next_seq_ = 0;
  TraceId last_trace_id_ = 0;
  TraceId current_ = 0;
};

}  // namespace axml

#endif  // AXML_OBS_TRACE_H_
