#include "net/network.h"

#include <algorithm>
#include <memory>

#include "common/logging.h"
#include "common/str_util.h"
#include "net/fault_injector.h"

namespace axml {

namespace {
// Floor for retry backoffs: virtual time must advance between attempts
// or a retry loop at a frozen timestamp would never leave a partition
// window (and never terminate).
constexpr SimTime kMinRetryDelay = 1e-6;

/// Adapts a payload delivery to the DeliverFn plumbing: the encoded
/// bytes ride in the closure (shared, immutable) and are handed to the
/// receiver at arrival time — the sim's stand-in for the wire.
Network::DeliverFn CarryPayload(std::shared_ptr<const wire::Payload> p,
                                Network::PayloadDeliverFn on_deliver) {
  return [p = std::move(p), cb = std::move(on_deliver)]() {
    if (cb) cb(*p);
  };
}
}  // namespace

void Network::Send(PeerId from, PeerId to, uint64_t bytes,
                   DeliverFn on_deliver) {
  AXML_CHECK(from.is_concrete());
  AXML_CHECK(to.is_concrete());
  stats_.Record(from, to, bytes);
  ScheduleDelivery(from, to, bytes, std::move(on_deliver), "msg");
}

void Network::SendNotify(PeerId from, PeerId to, uint64_t bytes,
                         DeliverFn on_deliver) {
  AXML_CHECK(from.is_concrete());
  AXML_CHECK(to.is_concrete());
  stats_.RecordNotify(from, to, bytes);
  ScheduleDelivery(from, to, bytes, std::move(on_deliver), "notify");
}

void Network::SendReliable(PeerId from, PeerId to, uint64_t bytes,
                           DeliverFn on_deliver) {
  AXML_CHECK(from.is_concrete());
  AXML_CHECK(to.is_concrete());
  stats_.Record(from, to, bytes);
  ReliableAttempt(from, to, bytes, std::move(on_deliver));
}

void Network::Send(PeerId from, PeerId to, wire::Payload payload,
                   PayloadDeliverFn on_deliver) {
  // The boundary contract: what is priced is what is carried. The byte
  // count handed to the link accounting below IS payload.size(); no
  // other size exists on this path.
  auto p = std::make_shared<const wire::Payload>(std::move(payload));
  const uint64_t bytes = p->size();
  stats_.RecordPayload(p->message_class(), bytes);
  Send(from, to, bytes, CarryPayload(std::move(p), std::move(on_deliver)));
}

void Network::SendNotify(PeerId from, PeerId to, wire::Payload payload,
                         PayloadDeliverFn on_deliver) {
  auto p = std::make_shared<const wire::Payload>(std::move(payload));
  const uint64_t bytes = p->size();
  AXML_DCHECK(p->message_class() == wire::MessageClass::kNotify);
  stats_.RecordPayload(p->message_class(), bytes);
  SendNotify(from, to, bytes,
             CarryPayload(std::move(p), std::move(on_deliver)));
}

void Network::SendReliable(PeerId from, PeerId to, wire::Payload payload,
                           PayloadDeliverFn on_deliver) {
  auto p = std::make_shared<const wire::Payload>(std::move(payload));
  const uint64_t bytes = p->size();
  stats_.RecordPayload(p->message_class(), bytes);
  SendReliable(from, to, bytes,
               CarryPayload(std::move(p), std::move(on_deliver)));
}

void Network::ControlRoundtrip(PeerId from, PeerId to, uint64_t messages,
                               wire::Payload payload,
                               uint64_t response_bytes, SimTime delay,
                               DeliverFn on_done) {
  const uint64_t bytes = payload.size() + response_bytes;
  stats_.RecordPayload(payload.message_class(), payload.size());
  ControlRoundtrip(from, to, messages, bytes, delay, std::move(on_done));
}

void Network::ReliableAttempt(PeerId from, PeerId to, uint64_t bytes,
                              DeliverFn on_deliver) {
  // The drop path schedules a retransmission one RTO later (the sender
  // notices the missing ack); each retransmission advances virtual
  // time, so partition windows are eventually outlived. A send whose
  // endpoint has crashed is abandoned instead — retrying into a down
  // peer forever would keep the event loop alive.
  DeliverFn on_drop = [this, from, to, bytes, on_deliver]() {
    if (!IsPeerUp(from) || !IsPeerUp(to)) return;
    const LinkParams link = topology_.Get(from, to);
    const SimTime rto =
        std::max(2 * link.latency_s +
                     static_cast<double>(bytes) / link.bandwidth_bps,
                 kMinRetryDelay);
    loop_->ScheduleAfter(rto, [this, from, to, bytes, on_deliver]() {
      if (!IsPeerUp(from) || !IsPeerUp(to)) return;
      stats_.Record(from, to, bytes);  // the retransmission is real bytes
      ReliableAttempt(from, to, bytes, on_deliver);
    });
  };
  DeliverFn deliver = on_deliver;
  ScheduleDelivery(from, to, bytes, std::move(deliver), "msg",
                   /*min_delay=*/0, std::move(on_drop));
}

bool Network::ScheduleDelivery(PeerId from, PeerId to, uint64_t bytes,
                               DeliverFn on_deliver, const char* kind,
                               SimTime min_delay, DeliverFn on_drop) {
  if (!IsPeerUp(from)) {
    // A crashed peer originates nothing: dropped before reaching the
    // wire (no link occupancy, no trace span).
    stats_.RecordDrop(bytes);
    if (on_drop) loop_->ScheduleAt(loop_->now(), std::move(on_drop));
    return false;
  }

  const LinkParams link = topology_.Get(from, to);
  const double transmit =
      static_cast<double>(bytes) / link.bandwidth_bps;

  const SimTime now = loop_->now();
  if (link_busy_until_.size() >= busy_sweep_at_) {
    std::erase_if(link_busy_until_,
                  [now](const auto& entry) { return entry.second <= now; });
    busy_sweep_at_ = std::max(kMinBusySweep, 2 * link_busy_until_.size());
  }
  SimTime& busy_until = link_busy_until_[Key(from, to)];
  const SimTime start = std::max(now, busy_until);
  busy_until = start + transmit;
  SimTime arrival = start + std::max(transmit + link.latency_s, min_delay);

  bool dropped = false;
  if (injector_ != nullptr) {
    const FaultInjector::Verdict verdict = injector_->Judge(from, to, start);
    dropped = verdict.drop;
    arrival += verdict.extra_delay;
  }
  // The wire does not know who crashed: a message racing a crash is
  // committed at send time and evaporates on arrival at a down peer.
  if (dropped || !IsPeerUp(to)) {
    stats_.RecordDrop(bytes);
    if (tracer_ != nullptr && tracer_->enabled()) {
      tracer_->Record("net", "drop", from, bytes, arrival - loop_->now(),
                      StrCat("-> ", to.ToString()));
    }
    if (on_drop) {
      if (tracer_ != nullptr) on_drop = tracer_->Bind(std::move(on_drop));
      loop_->ScheduleAt(arrival, std::move(on_drop));
    }
    return true;
  }

  if (tracer_ != nullptr) {
    if (tracer_->enabled()) {
      // The span covers queueing + transmit + propagation, stamped at
      // the sender; it inherits whatever causal id is current.
      tracer_->Record("net", kind, from, bytes, arrival - loop_->now(),
                      StrCat("-> ", to.ToString()));
    }
    // Delivery runs under the sender's causal id — the cross-hop link.
    on_deliver = tracer_->Bind(std::move(on_deliver));
  }
  // The arrival callback re-checks liveness: `to` may crash while the
  // message is in flight.
  DeliverFn guarded_drop = std::move(on_drop);
  loop_->ScheduleAt(
      arrival, [this, to, bytes, cb = std::move(on_deliver),
                drop_cb = std::move(guarded_drop)]() mutable {
        if (!IsPeerUp(to)) {
          stats_.RecordDrop(bytes);
          if (drop_cb) drop_cb();
          return;
        }
        cb();
      });
  return true;
}

void Network::ControlRoundtrip(PeerId from, PeerId to, uint64_t messages,
                               uint64_t bytes, SimTime delay,
                               DeliverFn on_done) {
  AXML_CHECK(from.is_concrete());
  AXML_CHECK(to.is_concrete());
  stats_.RecordControl(messages, bytes);
  ControlAttempt(from, to, bytes, delay, std::move(on_done));
}

void Network::ControlAttempt(PeerId from, PeerId to, uint64_t bytes,
                             SimTime delay, DeliverFn on_done) {
  // A dropped roundtrip is retried after its own delay (the requester
  // times out and re-asks), charging one fresh control message per
  // retry. Only a crashed requester abandons the exchange — catalog
  // servers answer whoever is still alive.
  DeliverFn on_drop = [this, from, to, bytes, delay, on_done]() {
    if (!IsPeerUp(from)) return;
    const SimTime backoff = std::max(delay, kMinRetryDelay);
    loop_->ScheduleAfter(backoff, [this, from, to, bytes, delay, on_done]() {
      if (!IsPeerUp(from)) return;
      stats_.RecordControl(1, bytes);
      ControlAttempt(from, to, bytes, delay, on_done);
    });
  };
  DeliverFn done = on_done;
  ScheduleDelivery(from, to, bytes, std::move(done), "control",
                   /*min_delay=*/delay, std::move(on_drop));
}

void Network::SetPeerUp(PeerId peer, bool up) {
  AXML_CHECK(peer.is_concrete());
  if (up) {
    down_peers_.erase(peer.index());
  } else {
    down_peers_.insert(peer.index());
  }
}

bool Network::IsPeerUp(PeerId peer) const {
  return down_peers_.count(peer.index()) == 0;
}

uint64_t TracedLinkBytes(const Tracer& tracer, PeerId from, PeerId to) {
  AXML_CHECK_EQ(tracer.dropped(), 0u) << "trace ring wrapped";
  const std::string detail = StrCat("-> ", to.ToString());
  uint64_t bytes = 0;
  for (const TraceSpan& span : tracer.Events()) {
    const bool link_traffic = span.name == "msg" || span.name == "notify";
    if (span.category == "net" && link_traffic && span.peer == from &&
        span.detail == detail) {
      bytes += span.bytes;
    }
  }
  return bytes;
}

}  // namespace axml
