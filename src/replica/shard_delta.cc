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
  // Holding the resident manifest's TreePtr keeps its blob alive for the
  // landing even if the entry is evicted while the delta is on the wire.
  if (m != nullptr && m->origin_version == version) {
    delta.resident_manifest = m->tree;
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
      delta.reused_bytes += s.bytes;
    } else {
      delta.missing.push_back(&s);
      delta.missing_bytes += s.bytes;
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
    ship.whole = wire::EncodeTree(*whole, stats);
    return wire::EncodeShipment(ship, stats);
  }
  ship.sharded = true;
  if (delta->ships_manifest()) {
    ship.manifest = wire::EncodeTree(*delta->doc->manifest, stats);
  }
  for (const DocumentShard* s : delta->missing) {
    ship.shards.push_back({s->id.ToString(),
                           wire::EncodeTree(*s->content, stats)});
  }
  return wire::EncodeShipment(ship, stats);
}

std::optional<ShipmentPayload> DecodeCopyShipment(const wire::Payload& p,
                                                  TreePtr resident_manifest,
                                                  NodeIdGen* gen,
                                                  wire::WireStats* stats) {
  // A payload that does not decode is a bug, not a tolerable fault; the
  // release build still refuses it instead of installing garbage.
  Result<wire::Shipment> got = wire::DecodeShipment(p, stats);
  AXML_DCHECK(got.ok());
  if (!got.ok()) return std::nullopt;
  auto decode = [&](std::string_view blob) -> TreePtr {
    Result<TreePtr> tree = wire::DecodeTree(blob, gen, stats);
    AXML_DCHECK(tree.ok());
    return tree.ok() ? std::move(tree).value() : nullptr;
  };
  const wire::Shipment& arrived = got.value();
  ShipmentPayload landed;
  landed.snapshot_version = arrived.snapshot_version;
  if (!arrived.sharded) {
    landed.whole = decode(arrived.whole);
    if (landed.whole == nullptr) return std::nullopt;
    landed.whole_encoded = arrived.whole;
    return landed;
  }
  landed.manifest = arrived.manifest.empty() ? std::move(resident_manifest)
                                             : decode(arrived.manifest);
  if (landed.manifest == nullptr) return std::nullopt;
  for (const wire::Shipment::Shard& s : arrived.shards) {
    DocumentShard shard;
    shard.content = decode(s.tree);
    if (shard.content == nullptr) return std::nullopt;
    // Encode/decode preserves canonical form, so the recomputed digest
    // equals the id the sender addressed the shard by.
    shard.id = DigestOf(*shard.content);
    shard.bytes = s.tree.size();
    landed.shards.push_back(std::move(shard));
  }
  return landed;
}

TreePtr AssembleCopy(const TreeNode& manifest, const ShardLookup& lookup,
                     NodeIdGen* gen) {
  // Probe first: a half-built assembly would mint node ids for nothing.
  for (const std::string& id : ManifestShardIds(manifest)) {
    if (lookup(id) == nullptr) return nullptr;
  }
  return AssembleDocument(manifest, lookup, gen);
}

TreePtr AssembleResident(const TransferCache& cache, PeerId origin,
                         const DocName& name, const TreeNode& manifest,
                         NodeIdGen* gen) {
  return AssembleCopy(
      manifest,
      [&](const std::string& id) -> TreePtr {
        const TransferCache::Entry* e =
            cache.Peek(ShardDataKey(origin, name, id));
        return e == nullptr ? nullptr : e->tree;
      },
      gen);
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
