#include "scenario/fleet.h"

#include <set>
#include <utility>

#include "algebra/evaluator.h"
#include "common/logging.h"
#include "common/str_util.h"
#include "net/catalog.h"
#include "xml/tree_equal.h"

namespace axml {

namespace {

std::unique_ptr<CatalogBackend> MakeBackend(FleetBackend kind) {
  switch (kind) {
    case FleetBackend::kCentral:
      // The first peer doubles as the index server — the classic
      // well-known-coordinator deployment.
      return std::make_unique<CentralCatalog>(PeerId(0));
    case FleetBackend::kChordDht:
      return std::make_unique<ChordDhtCatalog>();
  }
  return nullptr;
}

}  // namespace

std::string FleetReport::ToString() const {
  return StrCat("backend=", backend, " peers=", peers, " ops=", ops,
                " generic_reads=", generic_reads, " mutations=", mutations,
                " stale_reads=", stale_reads, " lookups=", lookups,
                " msgs_per_lookup=", msgs_per_lookup,
                " max_node_share=", max_node_share,
                " advertise_messages=", advertise_messages,
                " wire_bytes=", wire_bytes, " sim_s=", sim_s,
                " crashes=", crashes, " rejoins=", rejoins);
}

FleetHarness::FleetHarness(FleetConfig config)
    : config_(std::move(config)),
      rng_(config_.seed),
      sys_(Topology::Hierarchical(config_.topo)) {
  const uint32_t n = config_.topo.peer_count();
  for (uint32_t i = 0; i < n; ++i) {
    sys_.AddPeer(StrCat("peer", i));
  }
  sys_.SetCatalog(MakeBackend(config_.backend));
  sys_.replicas().set_refresh_policy(config_.refresh);
  sys_.replicas().set_default_byte_budget(config_.cache_budget);
  if (config_.churn) {
    // The repair machinery the churn schedule is aimed at: leased
    // subscriptions (a crashed holder's origin-side state expires),
    // bounded shipment retries, periodic anti-entropy sweeps.
    sys_.replicas().ConfigureLeases(/*renew_interval_s=*/0.5,
                                    /*ttl_s=*/2.0);
    sys_.replicas().set_shipment_retry(/*max_attempts=*/3,
                                       /*backoff_base_s=*/0.25);
    sys_.replicas().set_anti_entropy_interval(2.0);
  }

  // Origins spread evenly over the fleet, so generic traffic crosses
  // regions rather than clustering around peer 0.
  const uint32_t stride = std::max<uint32_t>(1, n / std::max<uint32_t>(
                                                     1, config_.origins));
  CatalogBackend* catalog = sys_.catalog();
  // Bring-up is one advertisement batch: on the DHT backend the whole
  // install pays one digest per (origin, responsible node), not one
  // message per document.
  catalog->BeginAdvertiseBatch();
  for (uint32_t o = 0; o < config_.origins; ++o) {
    const PeerId origin((o * stride) % n);
    for (uint32_t d = 0; d < config_.docs_per_origin; ++d) {
      FleetDoc doc;
      doc.name = StrCat("d", o, "_", d);
      doc.origin = origin;
      doc.class_name = StrCat("cls_", doc.name);
      Status st = sys_.InstallDocument(
          doc.origin, doc.name, MakeDoc(doc, sys_.peer(origin)->gen()));
      AXML_CHECK(st.ok()) << st.ToString();
      sys_.generics().AddDocumentMember(doc.class_name,
                                        ClassMember{doc.name, doc.origin});
      docs_.push_back(doc);
    }
  }
  catalog->EndAdvertiseBatch();
  sys_.RunToQuiescence();
}

TreePtr FleetHarness::MakeDoc(const FleetDoc& doc, NodeIdGen* gen) const {
  TreePtr root = TreeNode::Element("doc", gen);
  root->AddChild(
      MakeTextElement("id", StrCat(doc.name, "#", doc.revision), gen));
  for (size_t i = 0; i < config_.doc_filler; ++i) {
    root->AddChild(MakeTextElement(
        "x", StrCat(doc.name, "-", doc.revision, "-", i), gen));
  }
  return root;
}

FleetReport FleetHarness::Run() {
  const uint32_t n = config_.topo.peer_count();
  EvalOptions opts;
  opts.use_replica_cache = true;
  opts.pick_policy = PickPolicy::kCacheAware;
  Evaluator ev(&sys_, opts);
  ZipfSampler zipf(docs_.size(), config_.zipf_s);

  FleetReport report;
  report.backend = sys_.catalog()->backend_name();
  report.peers = n;

  // Churn victims: the first `churn_peers` non-origin peers (origins
  // must stay up — they are the freshness ground truth; peer 0 stays
  // up for the central backend's server).
  std::vector<PeerId> victims;
  if (config_.churn) {
    std::set<uint32_t> origin_indices;
    for (const FleetDoc& d : docs_) origin_indices.insert(d.origin.index());
    for (uint32_t p = 1; p < n && victims.size() < config_.churn_peers;
         ++p) {
      if (origin_indices.count(p) == 0) victims.push_back(PeerId(p));
    }
  }

  for (uint64_t i = 0; i < config_.ops; ++i) {
    if (config_.churn && i == config_.ops / 3) {
      for (size_t v = 0; v < victims.size(); ++v) {
        sys_.CrashPeer(victims[v], v % 2 == 0 ? CrashMode::kLoseCache
                                              : CrashMode::kDurableCache);
        ++report.crashes;
      }
    }
    if (config_.churn && i == 2 * config_.ops / 3) {
      for (const PeerId v : victims) {
        sys_.RejoinPeer(v);
        ++report.rejoins;
      }
      sys_.RunToQuiescence();
    }
    FleetDoc& doc = docs_[zipf.Sample(&rng_)];
    PeerId reader(rng_.Index(n));
    while (!sys_.IsPeerUp(reader)) reader = PeerId(rng_.Index(n));
    const bool generic = rng_.Bernoulli(config_.generic_read_fraction);
    ExprPtr read = generic ? Expr::GenericDoc(doc.class_name)
                           : Expr::Doc(doc.name, doc.origin);
    auto out = ev.Eval(reader, read);
    AXML_CHECK(out.ok()) << out.status().ToString();
    ++report.ops;
    if (generic) ++report.generic_reads;
    TreePtr truth = sys_.peer(doc.origin)->GetDocument(doc.name);
    if (out->results.size() != 1 || truth == nullptr ||
        CanonicalForm(*out->results[0]) != CanonicalForm(*truth)) {
      ++report.stale_reads;
    }
    if (config_.mutate_every != 0 && i % config_.mutate_every ==
                                         config_.mutate_every - 1) {
      FleetDoc& victim = docs_[zipf.Sample(&rng_)];
      ++victim.revision;
      Peer* host = sys_.peer(victim.origin);
      host->PutDocument(victim.name, MakeDoc(victim, host->gen()));
      sys_.RunToQuiescence();
      ++report.mutations;
    }
  }
  sys_.RunToQuiescence();

  const CatalogStats& cat = sys_.catalog()->stats();
  report.lookups = cat.lookups;
  report.msgs_per_lookup =
      cat.lookups == 0 ? 0.0
                       : static_cast<double>(cat.lookup_messages) /
                             static_cast<double>(cat.lookups);
  report.max_node_share = sys_.catalog()->MaxNodeLoadShare();
  report.lookup_bytes = cat.lookup_bytes;
  // Every catalog digest, installs and retractions alike.
  report.advertise_messages = cat.advertise_messages + cat.retract_messages;
  report.advertise_bytes = cat.advertise_bytes + cat.retract_bytes;

  const NetStats& net = sys_.network().stats();
  report.wire_messages = net.total_messages();
  report.wire_bytes = net.total_bytes();
  report.remote_bytes = net.remote_bytes();
  report.sim_s = sys_.loop().now();
  return report;
}

}  // namespace axml
