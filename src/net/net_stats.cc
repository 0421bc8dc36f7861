#include "net/net_stats.h"

namespace axml {

void NetStats::Record(PeerId from, PeerId to, uint64_t bytes) {
  AXML_DCHECK(from.is_concrete()) << "NetStats pair with non-peer "
                                  << from.ToString();
  AXML_DCHECK(to.is_concrete()) << "NetStats pair with non-peer "
                                << to.ToString();
  ++total_messages_;
  total_bytes_ += bytes;
  msg_bytes_.Add(bytes);
  if (from != to) {
    ++remote_messages_;
    remote_bytes_ += bytes;
  }
}

void NetStats::RecordControl(uint64_t messages, uint64_t bytes) {
  control_messages_ += messages;
  control_bytes_ += bytes;
  // Control roundtrips carry `messages` wire messages averaging
  // bytes / messages each; feed the shared size histogram at that mean
  // so catalog and lease traffic shows up next to data messages.
  const uint64_t per_message = messages == 0 ? bytes : bytes / messages;
  for (uint64_t i = 0; i < messages; ++i) msg_bytes_.Add(per_message);
}

void NetStats::RecordPayload(wire::MessageClass cls, uint64_t bytes) {
  ++class_messages_[static_cast<size_t>(cls)];
  class_bytes_[static_cast<size_t>(cls)] += bytes;
}

void NetStats::RecordDrop(uint64_t bytes) {
  ++dropped_messages_;
  dropped_bytes_ += bytes;
}

void NetStats::RecordNotify(PeerId from, PeerId to, uint64_t bytes) {
  Record(from, to, bytes);
  ++notify_messages_;
  notify_bytes_ += bytes;
}

// Wholesale reassignment so coverage is total by construction: every
// counter and the message-size histogram go back to zero (a test pins
// the full sweep).
void NetStats::Reset() { *this = NetStats(); }

}  // namespace axml
