#include "peer/system.h"

#include "common/logging.h"
#include "common/str_util.h"
#include "xml/tree_equal.h"
#include "xml/xml_parser.h"
#include "xml/xml_serializer.h"

namespace axml {

AxmlSystem::AxmlSystem() : AxmlSystem(Topology(LinkParams{})) {}

AxmlSystem::AxmlSystem(Topology topology)
    : network_(std::make_unique<Network>(&loop_, std::move(topology))),
      tracer_([this] { return loop_.now(); }) {
  replicas_.Bind(this);
  network_->set_tracer(&tracer_);
  // Each source reads the stats structs through their counter tables
  // (obs/metrics.h), the same fields the typed accessors return.
  metrics_.RegisterSource("net", [this](MetricSink& sink) {
    ExportCounters(network_->stats(), sink);
  });
  metrics_.RegisterSource("", [this](MetricSink& sink) {
    replicas_.ExportMetrics(sink);
  });
  metrics_.RegisterSource("catalog", [this](MetricSink& sink) {
    if (catalog_ != nullptr) catalog_->ExportMetrics(sink);
  });
  metrics_.RegisterSource("wire", [this](MetricSink& sink) {
    ExportCounters(wire_stats_, sink);
  });
  generics_.set_document_validator(
      [this](const std::string& cls, const ClassMember& m) {
        return replicas_.ValidateMember(cls, m);
      });
  // A pick sees what the caller's catalog lookup reports: every member,
  // except cached copies a region-scoped catalog keeps in their region.
  generics_.set_member_visibility([this](const ClassMember& m, PeerId from) {
    return catalog_ == nullptr ||
           catalog_->VisibleFrom(ResourceKind::kDocument, m.name, m.peer,
                                 from, network_->topology());
  });
  // Encoded sizes are memoized per (member, doc version) — computing
  // one walks the whole tree, and the pick consults every member. The
  // hint is the *wire* size (what fetching the member would move), not
  // the XML serialization.
  auto size_memo = std::make_shared<
      std::map<std::pair<PeerId, DocName>, std::pair<uint64_t, uint64_t>>>();
  generics_.set_member_size_hint(
      [this, size_memo](const ClassMember& m) -> uint64_t {
        const uint64_t version = replicas_.Version(m.peer, m.name);
        auto it = size_memo->find({m.peer, m.name});
        if (it != size_memo->end() && it->second.first == version) {
          return it->second.second;
        }
        const Peer* holder = peer(m.peer);
        TreePtr root =
            holder == nullptr ? nullptr : holder->GetDocument(m.name);
        const uint64_t bytes =
            root == nullptr ? 0 : wire::EncodedTreeSize(*root);
        (*size_memo)[{m.peer, m.name}] = {version, bytes};
        return bytes;
      });
}

PeerId AxmlSystem::AddPeer(std::string name) {
  AXML_CHECK(name != "any") << "\"any\" is reserved (§2.3)";
  AXML_CHECK(FindPeerId(name) == PeerId::Invalid())
      << "duplicate peer name " << name;
  PeerId id(static_cast<uint32_t>(peers_.size()));
  peers_.push_back(std::make_unique<Peer>(id, std::move(name)));
  peer_index_by_name_[peers_.back()->name()] = id.index();
  peers_.back()->add_mutation_listener(
      [this, id](const DocName& doc) { replicas_.NoteMutation(id, doc); });
  if (catalog_ == nullptr) {
    catalog_ = std::make_unique<CentralCatalog>(id);
    catalog_->AttachNetwork(network_.get());
  }
  catalog_->set_peer_count(static_cast<uint32_t>(peers_.size()));
  return id;
}

Peer* AxmlSystem::peer(PeerId id) {
  if (!id.is_concrete() || id.index() >= peers_.size()) return nullptr;
  return peers_[id.index()].get();
}

const Peer* AxmlSystem::peer(PeerId id) const {
  if (!id.is_concrete() || id.index() >= peers_.size()) return nullptr;
  return peers_[id.index()].get();
}

Peer* AxmlSystem::FindPeer(const std::string& name) {
  auto it = peer_index_by_name_.find(name);
  return it == peer_index_by_name_.end() ? nullptr
                                         : peers_[it->second].get();
}

PeerId AxmlSystem::FindPeerId(const std::string& name) const {
  auto it = peer_index_by_name_.find(name);
  return it == peer_index_by_name_.end() ? PeerId::Invalid()
                                         : PeerId(it->second);
}

void AxmlSystem::SetCatalog(std::unique_ptr<CatalogBackend> catalog) {
  catalog_ = std::move(catalog);
  if (catalog_ != nullptr) {
    catalog_->set_peer_count(static_cast<uint32_t>(peers_.size()));
    catalog_->AttachNetwork(network_.get());
  }
}

CatalogBackend* AxmlSystem::catalog() { return catalog_.get(); }

Status AxmlSystem::InstallDocument(PeerId p, DocName name, TreePtr root) {
  Peer* host = peer(p);
  if (host == nullptr) {
    return Status::NotFound(StrCat("no peer ", p.ToString()));
  }
  AXML_RETURN_NOT_OK(host->InstallDocument(name, std::move(root)));
  if (catalog_ != nullptr) {
    catalog_->Register(ResourceKind::kDocument, name, p);
  }
  return Status::OK();
}

Status AxmlSystem::InstallDocumentXml(PeerId p, DocName name,
                                      std::string_view xml) {
  Peer* host = peer(p);
  if (host == nullptr) {
    return Status::NotFound(StrCat("no peer ", p.ToString()));
  }
  AXML_ASSIGN_OR_RETURN(TreePtr root, ParseXml(xml, host->gen()));
  return InstallDocument(p, std::move(name), std::move(root));
}

Status AxmlSystem::InstallService(PeerId p, Service service) {
  Peer* host = peer(p);
  if (host == nullptr) {
    return Status::NotFound(StrCat("no peer ", p.ToString()));
  }
  const ServiceName name = service.name();
  AXML_RETURN_NOT_OK(host->InstallService(std::move(service)));
  if (catalog_ != nullptr) {
    catalog_->Register(ResourceKind::kService, name, p);
  }
  return Status::OK();
}

Status AxmlSystem::InstallReplicatedDocument(
    const std::string& class_name, const DocName& name, const TreePtr& root,
    const std::vector<PeerId>& replicas) {
  for (PeerId p : replicas) {
    Peer* host = peer(p);
    if (host == nullptr) {
      return Status::NotFound(StrCat("no peer ", p.ToString()));
    }
    AXML_RETURN_NOT_OK(InstallDocument(p, name, root->Clone(host->gen())));
    generics_.AddDocumentMember(class_name, ClassMember{name, p});
  }
  return Status::OK();
}

void AxmlSystem::CrashPeer(PeerId p, CrashMode mode) {
  // Order matters: the network gate goes down first so nothing the
  // replica-side crash handling does (retractions, cache clears) can
  // still route traffic through the dying peer. The catalog learns
  // next, so routed backends (Chord) stop steering lookups through the
  // dead peer before any repair traffic flows.
  network_->SetPeerUp(p, false);
  if (catalog_ != nullptr) catalog_->SetPeerLive(p, false);
  replicas_.OnPeerCrash(p, mode);
}

void AxmlSystem::RejoinPeer(PeerId p) {
  // Reverse of CrashPeer: the network comes back first so rejoin-time
  // reconciliation can reach the origins it compares against.
  network_->SetPeerUp(p, true);
  if (catalog_ != nullptr) catalog_->SetPeerLive(p, true);
  replicas_.OnPeerRejoin(p);
}

std::string AxmlSystem::StateFingerprint() const {
  std::string out;
  for (const auto& p : peers_) {
    out += StrCat("peer ", p->name(), "\n");
    for (const auto& [name, root] : p->documents()) {
      // Cached replica copies are soft state, reconstructible from their
      // origins; a Σ with and without them is the same Σ.
      if (replicas_.IsCachedCopy(p->id(), name)) continue;
      out += StrCat("  doc ", name, " = ", CanonicalForm(*root), "\n");
    }
    for (const auto& [name, svc] : p->services()) {
      out += StrCat("  svc ", name, " arity=", svc.arity(),
                    svc.is_declarative()
                        ? StrCat(" query=", svc.query().text())
                        : std::string(" native"),
                    "\n");
    }
  }
  return out;
}

std::string AxmlSystem::DumpState() const {
  std::string out;
  for (const auto& p : peers_) {
    out += StrCat("=== peer ", p->name(), " (", p->id().ToString(),
                  ") ===\n");
    for (const auto& [name, root] : p->documents()) {
      out += StrCat("--- doc ", name,
                    replicas_.IsCachedCopy(p->id(), name)
                        ? " (cached replica) ---\n"
                        : " ---\n",
                    SerializePretty(*root));
    }
    for (const auto& [name, svc] : p->services()) {
      out += StrCat("--- service ", name, " ---\n",
                    svc.is_declarative() ? svc.query().text() : "(native)",
                    "\n");
    }
  }
  return out;
}

}  // namespace axml
