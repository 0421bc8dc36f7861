// Sharded replication, one step per function, over a holder's
// TransferCache and the origin's ShardedDocument (no AxmlSystem needed).
// Every ReplicaManager path that moves or rebuilds a sharded copy runs
// the same chain: plan (PlanShardDelta) -> encode (EncodeCopyShipment) ->
// decode at the receiver (DecodeCopyShipment) -> assemble (AssembleCopy).

#ifndef AXML_REPLICA_SHARD_DELTA_H_
#define AXML_REPLICA_SHARD_DELTA_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "replica/transfer_cache.h"
#include "xml/sharding.h"
#include "xml/wire.h"

namespace axml {

/// Data shards are immutable (their key *is* their content digest), so
/// they are stored and looked up at this sentinel version. Document
/// versions are always >= 1, so none can ever brand a shard stale.
inline constexpr uint64_t kImmutableShardVersion = 0;

/// Cache keys of the manifest and of data shard `id` (digest hex) of
/// origin's `name`.
ReplicaKey ManifestKey(PeerId origin, const DocName& name);
ReplicaKey ShardDataKey(PeerId origin, const DocName& name,
                        const std::string& id);

/// What a holder lacks of one version of a sharded document.
struct ShardDelta {
  const ShardedDocument* doc = nullptr;  ///< the split planned against
  /// The holder's manifest when it is at the planned version; nullptr
  /// means the manifest ships.
  TreePtr resident_manifest;
  /// Each distinct shard of `doc` once, in manifest order: a duplicated
  /// id (two byte-identical groups) ships and is charged once.
  std::vector<const DocumentShard*> distinct;
  /// The distinct shards the holder lacks, in manifest order.
  std::vector<const DocumentShard*> missing;
  uint64_t missing_bytes = 0;
  uint64_t reused_bytes = 0;  ///< distinct shards already resident

  bool ships_manifest() const { return resident_manifest == nullptr; }
  size_t reused() const { return distinct.size() - missing.size(); }
  /// Encoded tree bytes the delta ships, the shipment envelope excluded.
  uint64_t bytes() const {
    return missing_bytes + (ships_manifest() ? doc->manifest_bytes : 0);
  }
};

/// Plans the delta that brings `cache` (nullptr: nothing cached) to
/// version `version` of origin's `name`, split as `sd`. Peeks only.
ShardDelta PlanShardDelta(const ShardedDocument& sd,
                          const TransferCache* cache, PeerId origin,
                          const DocName& name, uint64_t version);

/// What one copy shipment carried, decoded at the landing site: a whole
/// document, or a sharded delta (manifest + the data shards the holder
/// lacked at launch). `whole_encoded` keeps the received wire blob so
/// the cache can store exactly the bytes that crossed the link.
struct ShipmentPayload {
  uint64_t snapshot_version = 0;
  TreePtr whole;
  std::string whole_encoded;
  TreePtr manifest;
  std::vector<DocumentShard> shards;
};

/// One copy of origin's `name` at `version`, encoded straight from the
/// origin's trees: `delta` when non-null, else the whole document.
wire::Payload EncodeCopyShipment(PeerId origin, const DocName& name,
                                 uint64_t version, const ShardDelta* delta,
                                 const TreeNode* whole,
                                 wire::WireStats* stats);

/// Decodes a landed copy shipment, minting every tree from the receiving
/// peer's `gen`. A delta that did not carry its manifest takes
/// `resident_manifest`. nullopt when any part does not decode.
std::optional<ShipmentPayload> DecodeCopyShipment(const wire::Payload& p,
                                                  TreePtr resident_manifest,
                                                  NodeIdGen* gen,
                                                  wire::WireStats* stats);

/// Maps a shard id (digest hex) to its `#shard-data` tree, or nullptr.
using ShardLookup = std::function<TreePtr(const std::string& id)>;

/// The complete document `manifest` describes, built from `lookup`'s
/// shards; nullptr, with no node id minted, when one is missing.
TreePtr AssembleCopy(const TreeNode& manifest, const ShardLookup& lookup,
                     NodeIdGen* gen);

/// AssembleCopy over the shards of origin's `name` resident in `cache`.
TreePtr AssembleResident(const TransferCache& cache, PeerId origin,
                         const DocName& name, const TreeNode& manifest,
                         NodeIdGen* gen);

/// Resident entry bytes of every shard `manifest` references (a repeated
/// id counts each time); 0 when one is missing.
uint64_t ResidentShardBytes(const TransferCache& cache, PeerId origin,
                            const DocName& name, const TreeNode& manifest);

}  // namespace axml

#endif  // AXML_REPLICA_SHARD_DELTA_H_
