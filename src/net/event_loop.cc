#include "net/event_loop.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace axml {

void EventLoop::ScheduleAt(SimTime t, Callback cb) {
  AXML_CHECK(cb != nullptr);
  if (t < now_) t = now_;
  queue_.push(Event{t, next_seq_++, std::move(cb)});
}

void EventLoop::ScheduleAfter(SimTime delay, Callback cb) {
  AXML_CHECK_GE(delay, 0.0);
  ScheduleAt(now_ + delay, std::move(cb));
}

uint64_t EventLoop::AddPeriodic(SimTime interval, Callback cb) {
  AXML_CHECK(cb != nullptr);
  AXML_CHECK_GT(interval, 0.0);
  const uint64_t id = next_periodic_id_++;
  periodics_.push_back(Periodic{id, interval, now_ + interval,
                                std::move(cb)});
  return id;
}

void EventLoop::RemovePeriodic(uint64_t id) {
  for (auto it = periodics_.begin(); it != periodics_.end(); ++it) {
    if (it->id == id) {
      periodics_.erase(it);
      return;
    }
  }
}

void EventLoop::FirePeriodics() {
  // Ticks fire earliest first and may post events or add/remove
  // periodics, so both the horizon (the queue head) and the due scan
  // are re-derived after every firing — a tick that posts an event
  // earlier than the old head narrows the horizon, and that event must
  // run before any later-due tick.
  for (;;) {
    if (queue_.empty() || periodics_.empty()) return;
    const SimTime horizon = queue_.top().time;
    size_t due = periodics_.size();
    for (size_t i = 0; i < periodics_.size(); ++i) {
      if (periodics_[i].next <= horizon &&
          (due == periodics_.size() ||
           periodics_[i].next < periodics_[due].next)) {
        due = i;
      }
    }
    if (due == periodics_.size()) return;
    const uint64_t id = periodics_[due].id;
    now_ = std::max(now_, periodics_[due].next);
    periodics_[due].next += periodics_[due].interval;
    Callback cb = periodics_[due].cb;  // copy: the tick may mutate periodics_
    ++executed_;
    cb();
    // Idle-gap coalescing, decided against the *post-tick* head: if
    // this periodic is due again before the next event, nothing happens
    // in between for it to piggyback on — skip the missed intervals and
    // fire once per gap. A tick that posted nearer events moved the
    // head up instead, and the cadence is preserved.
    if (queue_.empty()) return;
    const SimTime new_horizon = queue_.top().time;
    for (Periodic& p : periodics_) {
      if (p.id != id) continue;
      while (p.next <= new_horizon) p.next += p.interval;
      break;
    }
  }
}

bool EventLoop::RunOne() {
  if (queue_.empty()) return false;
  // Periodic tasks due before the head event fire first — the head's
  // timestamp is where virtual time is headed, and a tick may post new
  // events (possibly earlier than the current head), so the head is
  // re-read after the ticks.
  if (!periodics_.empty()) FirePeriodics();
  // priority_queue::top returns const&; move out via const_cast is UB-free
  // here because we pop immediately and Event is not used elsewhere.
  Event ev = std::move(const_cast<Event&>(queue_.top()));
  queue_.pop();
  now_ = std::max(now_, ev.time);
  ++executed_;
  ev.cb();
  return true;
}

uint64_t EventLoop::Run() {
  uint64_t n = 0;
  while (RunOne()) ++n;
  return n;
}

uint64_t EventLoop::RunUntil(SimTime t) {
  uint64_t n = 0;
  while (!queue_.empty() && queue_.top().time <= t) {
    RunOne();
    ++n;
  }
  if (now_ < t) now_ = t;
  return n;
}

}  // namespace axml
