// Transfer accounting: the quantities the paper's optimizations are
// about. Every benchmark reports these counters for naive vs rewritten
// evaluation strategies.

#ifndef AXML_NET_NET_STATS_H_
#define AXML_NET_NET_STATS_H_

#include <cstdint>
#include <string>

#include "common/ids.h"
#include "common/logging.h"
#include "net/sim_time.h"
#include "obs/metrics.h"
#include "xml/wire.h"

namespace axml {

/// Global transfer statistics collected by the Network.
class NetStats {
 public:
  void Record(PeerId from, PeerId to, uint64_t bytes);
  /// Charges control traffic (catalog lookups, lease/anti-entropy
  /// digests). The aggregate counters take the whole roundtrip; the
  /// per-message sizes (bytes / messages) feed the shared msg-size
  /// histogram so control traffic is no longer invisible in obs.
  void RecordControl(uint64_t messages, uint64_t bytes);
  /// Records a message the fabric dropped — fault injection, a crashed
  /// endpoint — after it was charged as sent.
  void RecordDrop(uint64_t bytes);
  /// Records a replica-invalidation notification (origin -> copy
  /// holder): counted like any link message *and* tallied apart, so the
  /// push-refresh benches can report notify traffic next to data bytes.
  void RecordNotify(PeerId from, PeerId to, uint64_t bytes);
  /// Tallies one encoded payload against its message class — the
  /// per-class half of the accounting; the link half is Record /
  /// RecordNotify as before. Every payload-carrying send records both.
  void RecordPayload(wire::MessageClass cls, uint64_t bytes);
  void Reset();

  uint64_t total_messages() const { return total_messages_; }
  uint64_t total_bytes() const { return total_bytes_; }
  uint64_t control_messages() const { return control_messages_; }
  uint64_t control_bytes() const { return control_bytes_; }
  uint64_t notify_messages() const { return notify_messages_; }
  uint64_t notify_bytes() const { return notify_bytes_; }
  /// Bytes that actually crossed between distinct peers (loopback
  /// excluded).
  uint64_t remote_bytes() const { return remote_bytes_; }
  uint64_t remote_messages() const { return remote_messages_; }
  /// Messages (and their bytes) the fabric dropped — a subset of the
  /// sent totals above; 0 on a perfect fabric.
  uint64_t dropped_messages() const { return dropped_messages_; }
  uint64_t dropped_bytes() const { return dropped_bytes_; }
  /// Encoded messages/bytes by wire message class (kTree, kShipment,
  /// kNotify, ...). Only payload-carrying sends are classed; modeled
  /// byte-count traffic (analytic catalog backends) is not.
  uint64_t class_messages(wire::MessageClass cls) const {
    return class_messages_[static_cast<size_t>(cls)];
  }
  uint64_t class_bytes(wire::MessageClass cls) const {
    return class_bytes_[static_cast<size_t>(cls)];
  }

  /// Distribution of per-message sizes (log2 buckets; Record,
  /// RecordNotify and RecordControl all feed it — control roundtrips at
  /// their mean per-message size).
  const Histogram& message_bytes_histogram() const { return msg_bytes_; }

  std::string ToString() const { return CountersToString(*this); }

 private:
  uint64_t total_messages_ = 0;
  uint64_t total_bytes_ = 0;
  uint64_t remote_messages_ = 0;
  uint64_t remote_bytes_ = 0;
  uint64_t control_messages_ = 0;
  uint64_t control_bytes_ = 0;
  uint64_t notify_messages_ = 0;
  uint64_t notify_bytes_ = 0;
  uint64_t dropped_messages_ = 0;
  uint64_t dropped_bytes_ = 0;
  uint64_t class_messages_[wire::kMessageClassCount] = {};
  uint64_t class_bytes_[wire::kMessageClassCount] = {};
  Histogram msg_bytes_;

 public:
  /// Every counter above, under its registry name (obs/metrics.h).
  static constexpr auto kCounters = std::make_tuple(
      Counter{"total_messages", &NetStats::total_messages_},
      Counter{"total_bytes", &NetStats::total_bytes_},
      Counter{"remote_messages", &NetStats::remote_messages_},
      Counter{"remote_bytes", &NetStats::remote_bytes_},
      Counter{"control_messages", &NetStats::control_messages_},
      Counter{"control_bytes", &NetStats::control_bytes_},
      Counter{"notify_messages", &NetStats::notify_messages_},
      Counter{"notify_bytes", &NetStats::notify_bytes_},
      Counter{"dropped_messages", &NetStats::dropped_messages_},
      Counter{"dropped_bytes", &NetStats::dropped_bytes_},
      Counter{"class_msgs_", &NetStats::class_messages_,
              &wire::MessageClassName},
      Counter{"class_bytes_", &NetStats::class_bytes_,
              &wire::MessageClassName},
      Counter{"msg_bytes", &NetStats::msg_bytes_});
};
static_assert(CountersCover<NetStats>());

}  // namespace axml

#endif  // AXML_NET_NET_STATS_H_
