#include "replica/shard_delta.h"

#include <set>
#include <string_view>
#include <utility>

#include "common/logging.h"
#include "xml/digest.h"

namespace axml {

ReplicaKey ManifestKey(PeerId origin, const DocName& name) {
  return ReplicaKey{origin, name, kManifestShardId};
}

ReplicaKey ShardDataKey(PeerId origin, const DocName& name,
                        const std::string& id) {
  return ReplicaKey{origin, name, id};
}

ShardDelta PlanShardDelta(const ShardedDocument& sd,
                          const TransferCache* cache, PeerId origin,
                          const DocName& name, uint64_t version) {
  ShardDelta delta;
  delta.doc = &sd;
  const TransferCache::Entry* m =
      cache == nullptr ? nullptr : cache->Peek(ManifestKey(origin, name));
  if (m != nullptr && m->origin_version == version) {
    delta.resident_manifest = m->encoded;
  }
  // Content-addressed ids make "lacks" independent of the version the
  // holder's stale copy was cut from.
  std::set<std::string> seen;
  for (const DocumentShard& s : sd.shards) {
    const std::string id = s.id.ToString();
    if (!seen.insert(id).second) continue;
    delta.distinct.push_back(&s);
    if (cache != nullptr &&
        cache->Peek(ShardDataKey(origin, name, id)) != nullptr) {
      delta.reused_bytes += s.bytes();
    } else {
      delta.missing.push_back(&s);
      delta.missing_bytes += s.bytes();
    }
  }
  return delta;
}

wire::Payload EncodeCopyShipment(PeerId origin, const DocName& name,
                                 uint64_t version, const ShardDelta* delta,
                                 const TreeNode* whole,
                                 wire::WireStats* stats) {
  // No clone crosses the process: the bytes ARE the shipment, and the
  // priced size is their count, envelope included.
  wire::Shipment ship;
  ship.origin = origin.index();
  ship.name = name;
  ship.snapshot_version = version;
  if (delta == nullptr) {
    // An unsharded document has no stored encoding: its tree changes in
    // place at the origin, so each shipment encodes the current one.
    ship.whole = wire::EncodeTree(*whole, stats);  // lint: allow-replica-encode
    return wire::EncodeShipment(ship, stats);
  }
  ship.sharded = true;
  if (delta->ships_manifest()) ship.manifest = delta->doc->manifest;
  for (const DocumentShard* s : delta->missing) {
    ship.shards.push_back({s->id.ToString(), s->encoded});
  }
  return wire::EncodeShipment(ship, stats);
}

std::optional<ShipmentPayload> DecodeCopyShipment(
    const wire::Payload& p, const EncodedBlob& resident_manifest,
    NodeIdGen* gen, wire::WireStats* stats) {
  // A payload that does not decode is a bug, not a tolerable fault; the
  // release build still refuses it instead of installing garbage.
  Result<wire::Shipment> got = wire::DecodeShipment(p, stats);
  AXML_DCHECK(got.ok());
  if (!got.ok()) return std::nullopt;
  wire::Shipment& arrived = got.value();
  ShipmentPayload landed;
  landed.snapshot_version = arrived.snapshot_version;
  if (!arrived.sharded) {
    landed.whole = DecodeStoredTree(arrived.whole, gen, stats);
    if (landed.whole == nullptr) return std::nullopt;
    landed.whole_encoded = std::move(arrived.whole);
    return landed;
  }
  if (!arrived.manifest.empty()) {
    landed.manifest = std::move(arrived.manifest);
  } else if (resident_manifest != nullptr) {
    landed.manifest = *resident_manifest;
  } else {
    return std::nullopt;
  }
  // Each shard is filed under the id it was shipped under, so its bytes
  // must digest to that id: a mismatch would cache content under a
  // name that promises other content.
  for (wire::Shipment::Shard& s : arrived.shards) {
    TreePtr tree = DecodeStoredTree(s.tree, gen, stats);
    if (tree == nullptr) return std::nullopt;
    const ContentDigest id = DigestOf(*tree);
    const std::string hex = id.ToString();
    AXML_DCHECK(hex == s.id) << "shard shipped as " << s.id
                             << " digests to " << hex;
    if (hex != s.id) return std::nullopt;
    landed.shards.push_back({id, std::move(s.tree)});
    landed.decoded[hex] = std::move(tree);
  }
  return landed;
}

TreePtr DecodeStoredTree(std::string_view blob, NodeIdGen* gen,
                         wire::WireStats* stats) {
  Result<TreePtr> tree = wire::DecodeTree(blob, gen, stats);
  AXML_DCHECK(tree.ok()) << tree.status();
  return tree.ok() ? std::move(tree).value() : nullptr;
}

TreePtr DecodeManifest(std::string_view blob, wire::WireStats* stats) {
  NodeIdGen scratch;
  return DecodeStoredTree(blob, &scratch, stats);
}

TreePtr AssembleCopy(const TreeNode& manifest, const ShardLookup& lookup,
                     NodeIdGen* gen, wire::WireStats* stats,
                     std::map<std::string, TreePtr>* decoded) {
  // Probe first: a half-built assembly would mint node ids for nothing.
  for (const std::string& id : ManifestShardIds(manifest)) {
    if (lookup(id) == nullptr) return nullptr;
  }
  return AssembleDocument(
      manifest,
      [&](const std::string& id) {
        // A repeated id needs fresh nodes the second time: take the
        // decoded tree once, then decode the bytes.
        if (decoded != nullptr) {
          if (auto it = decoded->find(id); it != decoded->end()) {
            TreePtr tree = std::move(it->second);
            decoded->erase(it);
            return tree;
          }
        }
        return DecodeStoredTree(*lookup(id), gen, stats);
      },
      gen);
}

TreePtr AssembleResident(const TransferCache& cache, PeerId origin,
                         const DocName& name, const TreeNode& manifest,
                         NodeIdGen* gen, wire::WireStats* stats) {
  return AssembleCopy(
      manifest,
      [&](const std::string& id) -> const std::string* {
        const TransferCache::Entry* e =
            cache.Peek(ShardDataKey(origin, name, id));
        return e == nullptr ? nullptr : e->encoded.get();
      },
      gen, stats);
}

uint64_t ResidentShardBytes(const TransferCache& cache, PeerId origin,
                            const DocName& name, const TreeNode& manifest) {
  uint64_t bytes = 0;
  for (const std::string& id : ManifestShardIds(manifest)) {
    const TransferCache::Entry* e =
        cache.Peek(ShardDataKey(origin, name, id));
    if (e == nullptr) return 0;
    bytes += e->bytes;
  }
  return bytes;
}

}  // namespace axml
