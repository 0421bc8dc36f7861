// The simulated transport: delivers opaque payloads between peers with
// latency + bandwidth delays, FIFO per directed link, full accounting.
//
// Substitution note (DESIGN.md): the paper's SOAP/WSDL transport is
// replaced by this simulator; the byte size charged for each message is
// the actual serialized XML size of what AXML would put on the wire.

#ifndef AXML_NET_NETWORK_H_
#define AXML_NET_NETWORK_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "common/ids.h"
#include "net/event_loop.h"
#include "net/net_stats.h"
#include "net/topology.h"
#include "obs/trace.h"
#include "xml/wire.h"

namespace axml {

class FaultInjector;

/// Point-to-point message fabric over an EventLoop. The in-flight link
/// bookkeeping and stats are touched from Send paths and from delivery
/// callbacks, which the loop runs one at a time.
class Network {
 public:
  /// Called on the destination peer when a message arrives.
  using DeliverFn = std::function<void()>;
  /// Payload-carrying variant: the destination receives the encoded
  /// bytes that were priced — decode happens there, never en route.
  using PayloadDeliverFn = std::function<void(const wire::Payload&)>;

  Network(EventLoop* loop, Topology topology)
      : loop_(loop), topology_(std::move(topology)) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Sends `bytes` from `from` to `to`; `on_deliver` runs at the arrival
  /// time. Messages on the same directed link are serialized FIFO: a
  /// message starts transmitting only after the previous one finished
  /// (propagation overlaps, as on a real pipe).
  void Send(PeerId from, PeerId to, uint64_t bytes, DeliverFn on_deliver);

  /// The payload-carrying sends: the priced size IS `payload.size()` —
  /// there is no separately estimated byte count to drift from the
  /// content. Each also tallies the payload's message class
  /// (NetStats::class_messages/class_bytes). The byte-count overloads
  /// above remain for *modeled* traffic (analytic catalog backends,
  /// closed-form benches) that never materializes bytes.
  void Send(PeerId from, PeerId to, wire::Payload payload,
            PayloadDeliverFn on_deliver);
  void SendNotify(PeerId from, PeerId to, wire::Payload payload,
                  PayloadDeliverFn on_deliver);
  void SendReliable(PeerId from, PeerId to, wire::Payload payload,
                    PayloadDeliverFn on_deliver);
  /// Control roundtrip whose request is a real encoded payload (lease
  /// renewals, anti-entropy digests): `messages` messages totalling
  /// `payload.size() + response_bytes` (the modeled response leg).
  void ControlRoundtrip(PeerId from, PeerId to, uint64_t messages,
                        wire::Payload payload, uint64_t response_bytes,
                        SimTime delay, DeliverFn on_done);

  /// Like Send, but tallied as replica-invalidation notify traffic
  /// (NetStats::notify_messages/bytes) on top of the link accounting.
  void SendNotify(PeerId from, PeerId to, uint64_t bytes,
                  DeliverFn on_deliver);

  /// Like Send, but retransmits deterministically (after a fixed
  /// retransmission timeout of about one RTT) whenever the fabric drops
  /// the message, so the payload eventually lands under lossy-link or
  /// partition-window fault schedules. Each retransmission is charged
  /// to NetStats like a fresh message. If either endpoint is down when
  /// a retransmission would fire the send is abandoned silently — a
  /// crashed peer must not keep the event loop alive forever. On a
  /// perfect fabric this is byte-identical to Send.
  void SendReliable(PeerId from, PeerId to, uint64_t bytes,
                    DeliverFn on_deliver);

  /// Charges control-plane traffic (e.g. catalog lookups, lease and
  /// anti-entropy digests) as `messages` messages totalling `bytes`,
  /// and runs `on_done` once the roundtrip completes — at least `delay`
  /// after the from->to link is free. Routed through the same per-link
  /// FIFO + fault-injector path as data messages, so control traffic is
  /// no longer invisible to the size histogram, trace spans, or the
  /// injector. A dropped roundtrip retries after `delay` (recharging
  /// one control message per retry) unless the requester is down.
  void ControlRoundtrip(PeerId from, PeerId to, uint64_t messages,
                        uint64_t bytes, SimTime delay, DeliverFn on_done);

  /// Attaches a fault injector that rules on every non-loopback message
  /// (nullptr detaches — the default, a perfect fabric).
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }
  FaultInjector* fault_injector() const { return injector_; }

  /// Marks a peer crashed (`up` false) or rejoined (`up` true).
  /// Messages from a down peer are dropped at send time; messages *to*
  /// a down peer are dropped on arrival — they were already committed
  /// to the wire when the peer went down.
  void SetPeerUp(PeerId peer, bool up);
  bool IsPeerUp(PeerId peer) const;

  const Topology& topology() const { return topology_; }
  Topology* mutable_topology() { return &topology_; }
  EventLoop* loop() { return loop_; }
  const NetStats& stats() const { return stats_; }
  NetStats* mutable_stats() { return &stats_; }

  /// Hooks the causal tracer in (AxmlSystem wires its own): every
  /// message records a "net" span covering its time on the wire, and the
  /// delivery callback runs under the causal id that was current at Send
  /// time — the hop that carries a trace across the network without
  /// touching any message struct. nullptr detaches.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  /// Lower-bound one-way delay for `bytes` on link from->to (ignoring
  /// queueing); used by the optimizer's cost model.
  double EstimateTransferTime(PeerId from, PeerId to,
                              uint64_t bytes) const {
    return topology_.Get(from, to).TransferTime(bytes);
  }

 private:
  static uint64_t Key(PeerId a, PeerId b) {
    return (static_cast<uint64_t>(a.index()) << 32) | b.index();
  }

  /// Shared FIFO-link scheduling behind Send/SendNotify/SendReliable/
  /// ControlRoundtrip (aggregate stats already recorded by the caller;
  /// `kind` names the trace span: "msg", "notify" or "control").
  /// Consults the fault injector and the peer up/down set; a dropped
  /// message still occupies the link (it was transmitted, then lost),
  /// is tallied via NetStats::RecordDrop + a "drop" trace span, and
  /// fires `on_drop` (if any) at what would have been the arrival time.
  /// `min_delay` floors the one-way delay (modelled control roundtrips
  /// take their full latency even when transmit is negligible).
  /// Returns false when the message was dropped at send time because
  /// `from` is down.
  bool ScheduleDelivery(PeerId from, PeerId to, uint64_t bytes,
                        DeliverFn on_deliver, const char* kind,
                        SimTime min_delay = 0, DeliverFn on_drop = nullptr);

  /// One (re)transmission attempt of a reliable send; wires the next
  /// attempt into the drop path.
  void ReliableAttempt(PeerId from, PeerId to, uint64_t bytes,
                       DeliverFn on_deliver);

  /// One attempt of a control roundtrip; retries itself on drop.
  void ControlAttempt(PeerId from, PeerId to, uint64_t bytes,
                      SimTime delay, DeliverFn on_done);

  EventLoop* loop_;
  Topology topology_;
  NetStats stats_;
  Tracer* tracer_ = nullptr;
  FaultInjector* injector_ = nullptr;
  /// Peers currently crashed (by index); empty on the happy path.
  std::unordered_set<uint32_t> down_peers_;
  /// Per directed link: when the link becomes free to start transmitting.
  std::unordered_map<uint64_t, SimTime> link_busy_until_;
};

}  // namespace axml

#endif  // AXML_NET_NETWORK_H_
