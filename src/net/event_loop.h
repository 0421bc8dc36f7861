// Discrete-event scheduler driving the whole distributed simulation.
//
// Events fire in (time, sequence) order, so simultaneous events run in
// scheduling order — the simulation is fully deterministic for a given
// input, which the property tests rely on when comparing two evaluation
// strategies.

#ifndef AXML_NET_EVENT_LOOP_H_
#define AXML_NET_EVENT_LOOP_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "net/sim_time.h"

namespace axml {

/// Virtual-time event loop. Like every simulation object, it belongs to
/// the one thread that runs its System (docs/architecture.md).
class EventLoop {
 public:
  using Callback = std::function<void()>;

  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Current virtual time.
  SimTime now() const { return now_; }

  /// Schedules `cb` to run at absolute time `t` (clamped to now()).
  void ScheduleAt(SimTime t, Callback cb);
  /// Schedules `cb` to run `delay` seconds from now.
  void ScheduleAfter(SimTime delay, Callback cb);
  /// Schedules `cb` at the current time, after already-pending events at
  /// this time.
  void Post(Callback cb) { ScheduleAt(now_, std::move(cb)); }

  /// Registers a recurring task firing every `interval` (> 0) seconds of
  /// virtual time, starting one interval from now. Periodic tasks never
  /// keep the loop alive: a due tick fires only while real events are
  /// being processed (just before the event that would carry time past
  /// it), so an empty queue still quiesces and Run() terminates — the
  /// tick piggybacks on ongoing activity instead of spinning an idle
  /// simulation forever. When activity jumps time across several
  /// intervals at once, the missed ticks coalesce into one firing.
  /// Returns an id for RemovePeriodic.
  uint64_t AddPeriodic(SimTime interval, Callback cb);
  /// Cancels a periodic task; unknown ids are ignored.
  void RemovePeriodic(uint64_t id);

  /// Runs the earliest event (firing any periodic tasks due before it).
  /// Returns false when the queue is empty.
  bool RunOne();
  /// Runs to quiescence. Returns the number of events executed.
  uint64_t Run();
  /// Runs events with time <= `t`; leaves now() at `t` if the queue
  /// drains earlier. Returns events executed.
  uint64_t RunUntil(SimTime t);

  bool empty() const { return queue_.empty(); }
  size_t pending() const { return queue_.size(); }
  uint64_t executed() const { return executed_; }

 private:
  struct Event {
    SimTime time;
    uint64_t seq;
    Callback cb;
  };
  struct Periodic {
    uint64_t id;
    SimTime interval;
    SimTime next;  ///< next due time
    Callback cb;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// Fires every periodic task due at or before the current queue head,
  /// earliest first, re-reading the head after every firing (a tick may
  /// post events — possibly earlier than the old head — or mutate the
  /// registry).
  void FirePeriodics();

  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::vector<Periodic> periodics_;
  SimTime now_ = kSimStart;
  uint64_t next_seq_ = 0;
  uint64_t next_periodic_id_ = 1;
  uint64_t executed_ = 0;
};

}  // namespace axml

#endif  // AXML_NET_EVENT_LOOP_H_
