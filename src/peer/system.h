// AxmlSystem: the whole distributed state Σ (§3.3: "We call state of an
// AXML system over peers p1..pn, and denote by Σ, all documents and
// services on p1..pn").
//
// Owns the event loop, the network, the peers, the discovery catalog and
// the generic-class registry. The rule-equivalence property tests
// fingerprint Σ before/after evaluating two expressions and assert the
// fingerprints agree — the executable form of the paper's
// eval@p1(e1)(Σ) = eval@p2(e2)(Σ).

#ifndef AXML_PEER_SYSTEM_H_
#define AXML_PEER_SYSTEM_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "net/catalog.h"
#include "net/event_loop.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "peer/generic.h"
#include "peer/peer.h"
#include "replica/replica_manager.h"

namespace axml {

/// The complete simulated AXML deployment.
class AxmlSystem {
 public:
  /// Uses a uniform default topology; call `network().mutable_topology()`
  /// or construct with an explicit Topology to customize.
  AxmlSystem();
  explicit AxmlSystem(Topology topology);

  AxmlSystem(const AxmlSystem&) = delete;
  AxmlSystem& operator=(const AxmlSystem&) = delete;

  /// Creates a peer; names must be unique and not "any".
  PeerId AddPeer(std::string name);

  Peer* peer(PeerId id);
  const Peer* peer(PeerId id) const;
  /// PeerId::Invalid() when no peer has `name`.
  PeerId FindPeerId(const std::string& name) const;
  size_t peer_count() const { return peers_.size(); }

  EventLoop& loop() { return loop_; }
  Network& network() { return *network_; }
  const Network& network() const { return *network_; }

  /// Discovery catalog (defaults to a CentralCatalog on the first peer
  /// added; replaceable for the EXP-8 ablation).
  void SetCatalog(std::unique_ptr<CatalogBackend> catalog);
  CatalogBackend* catalog();

  GenericCatalog& generics() { return generics_; }

  /// Replica placement, transfer caches and versioned invalidation
  /// (src/replica/). Peer document mutations bump versions here; the
  /// evaluator and the cost model consult it for cache-aware reads.
  ReplicaManager& replicas() { return replicas_; }
  const ReplicaManager& replicas() const { return replicas_; }

  /// The unified metric namespace (obs/metrics.h). The constructor
  /// mounts the network stats at "net/..." and the whole replica layer
  /// ("replica/...", "peer/<idx>/replica/cache/..."); evaluators mount
  /// their own counters while they live.
  MetricRegistry& metrics() { return metrics_; }
  const MetricRegistry& metrics() const { return metrics_; }

  /// Everything the registry knows right now, as a flat JSON object.
  std::string DumpMetrics() const { return metrics_.Snapshot().ToJson(); }

  /// The causal tracer (obs/trace.h), clocked by the event loop and
  /// wired into the network. Disabled by default; call
  /// `tracer().set_enabled(true)` to start recording spans.
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }

  /// Encode/decode accounting for every wire payload this system
  /// produces or consumes, mounted at "wire/..." in the registry.
  /// Instance state, not process-global: twin systems in one process
  /// must stay byte-identical in DumpMetrics.
  wire::WireStats& wire_stats() { return wire_stats_; }
  const wire::WireStats& wire_stats() const { return wire_stats_; }

  // --- State manipulation helpers (register resources in the catalog) ---

  /// Installs a document on `p` and advertises it.
  Status InstallDocument(PeerId p, DocName name, TreePtr root);
  /// Parses and installs XML text.
  Status InstallDocumentXml(PeerId p, DocName name, std::string_view xml);
  /// Installs a service on `p` and advertises it.
  Status InstallService(PeerId p, Service service);

  /// Installs a replicated document: same content on every peer in
  /// `replicas` (cloned per peer), registered as document class
  /// `class_name`.
  Status InstallReplicatedDocument(const std::string& class_name,
                                   const DocName& name, const TreePtr& root,
                                   const std::vector<PeerId>& replicas);

  /// Runs the event loop until no events remain. Returns events run.
  uint64_t RunToQuiescence() { return loop_.Run(); }

  // --- Peer lifecycle (fault injection & churn) ---

  /// Crashes `p`: the network stops delivering to or accepting from it,
  /// its advertised copies are retracted, and with CrashMode::kLoseCache
  /// its replica cache is wiped (kDurableCache keeps the bytes on disk
  /// for rejoin-time reconciliation). The peer's *durable* documents
  /// survive either way — a crash loses soft state only.
  void CrashPeer(PeerId p, CrashMode mode);
  /// Brings a crashed peer back: the network resumes delivery and the
  /// replica layer reconciles whatever cache survived before the peer
  /// serves anything.
  void RejoinPeer(PeerId p);
  /// False between CrashPeer and RejoinPeer; true otherwise.
  bool IsPeerUp(PeerId p) const { return network_->IsPeerUp(p); }

  /// Canonical digest of Σ: every (peer, doc name, canonical tree) plus
  /// service inventories. Two runs ending in equal fingerprints ended in
  /// equivalent states. Cached replica copies are *soft* state and are
  /// skipped — Σ-equivalence is judged on durable documents only.
  std::string StateFingerprint() const;

  /// Pretty multi-line dump of Σ for debugging and examples.
  std::string DumpState() const;

 private:
  EventLoop loop_;
  std::unique_ptr<Network> network_;
  std::vector<std::unique_ptr<Peer>> peers_;
  /// name -> peer index; keeps AddPeer/FindPeerId O(1) so fleet bring-up
  /// (10k AddPeer calls) is linear, not quadratic.
  std::unordered_map<std::string, uint32_t> peer_index_by_name_;
  std::unique_ptr<CatalogBackend> catalog_;
  GenericCatalog generics_;
  ReplicaManager replicas_;
  MetricRegistry metrics_;
  Tracer tracer_;
  wire::WireStats wire_stats_;
};

}  // namespace axml

#endif  // AXML_PEER_SYSTEM_H_
