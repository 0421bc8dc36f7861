// Sharded replication, one step per function, over a holder's
// TransferCache and the origin's ShardedDocument (no AxmlSystem needed).
// Every ReplicaManager path that moves or rebuilds a sharded copy runs
// the same chain: plan (PlanShardDelta) -> encode (EncodeCopyShipment) ->
// decode at the receiver (DecodeCopyShipment) -> assemble (AssembleCopy).
// Shard and manifest content travels as the bytes SplitDocument encoded
// once at the origin: shipments splice them, the holder's cache stores
// them as they arrived, and only an assembly decodes them into a tree.

#ifndef AXML_REPLICA_SHARD_DELTA_H_
#define AXML_REPLICA_SHARD_DELTA_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
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
  /// The holder's manifest blob when it is at the planned version;
  /// nullptr means the manifest ships. Holding it keeps the bytes alive
  /// for the landing even if the entry is evicted while the delta is on
  /// the wire.
  EncodedBlob resident_manifest;
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
    return missing_bytes + (ships_manifest() ? doc->manifest_bytes() : 0);
  }
};

/// Plans the delta that brings `cache` (nullptr: nothing cached) to
/// version `version` of origin's `name`, split as `sd`. Peeks only.
ShardDelta PlanShardDelta(const ShardedDocument& sd,
                          const TransferCache* cache, PeerId origin,
                          const DocName& name, uint64_t version);

/// What one copy shipment carried, at the landing site: a whole
/// document, or a sharded delta (manifest + the data shards the holder
/// lacked at launch). Every blob is kept as the bytes that crossed the
/// link, so the cache stores exactly what the shipment carried.
struct ShipmentPayload {
  uint64_t snapshot_version = 0;
  /// A whole document, decoded with the receiving peer's NodeIdGen;
  /// nullptr for a sharded delta.
  TreePtr whole;
  std::string whole_encoded;
  /// The manifest blob: shipped, or the holder's resident one.
  std::string manifest;
  /// The data shards that crossed the wire, each checked against the id
  /// it was shipped under.
  std::vector<DocumentShard> shards;
  /// Each shipped shard as the digest check decoded it with `gen`, by id
  /// hex, so a read's delivery assembles it without decoding it again.
  std::map<std::string, TreePtr> decoded;
};

/// One copy of origin's `name` at `version`: `delta` when non-null,
/// spliced from the bytes SplitDocument stored, else `whole` encoded.
wire::Payload EncodeCopyShipment(PeerId origin, const DocName& name,
                                 uint64_t version, const ShardDelta* delta,
                                 const TreeNode* whole,
                                 wire::WireStats* stats);

/// Decodes a landed copy shipment. A whole document and each shipped
/// shard are minted from the receiving peer's `gen`; a delta that did
/// not carry its manifest takes `resident_manifest`. nullopt when any
/// part does not decode, or when a shard's content does not digest to
/// the id it was shipped under.
std::optional<ShipmentPayload> DecodeCopyShipment(
    const wire::Payload& p, const EncodedBlob& resident_manifest,
    NodeIdGen* gen, wire::WireStats* stats);

/// Decodes a stored or shipped blob, minting node ids from `gen`. Such
/// bytes come from this system's own encoder, so a failure is a bug: it
/// DCHECKs, and returns nullptr in release builds.
TreePtr DecodeStoredTree(std::string_view blob, NodeIdGen* gen,
                         wire::WireStats* stats);

/// DecodeStoredTree with a throwaway NodeIdGen, for a manifest, which is
/// only read and never handed out.
TreePtr DecodeManifest(std::string_view blob, wire::WireStats* stats);

/// Maps a shard id (digest hex) to its `#shard-data` blob, or nullptr.
using ShardLookup = std::function<const std::string*(const std::string& id)>;

/// The complete document `manifest` describes, decoded from `lookup`'s
/// shard blobs with `gen`; nullptr, with no node id minted, when one is
/// missing. A shard that `decoded` (id hex -> tree minted from `gen`)
/// holds is taken from there instead, once.
TreePtr AssembleCopy(const TreeNode& manifest, const ShardLookup& lookup,
                     NodeIdGen* gen, wire::WireStats* stats,
                     std::map<std::string, TreePtr>* decoded = nullptr);

/// AssembleCopy over the shards of origin's `name` resident in `cache`.
TreePtr AssembleResident(const TransferCache& cache, PeerId origin,
                         const DocName& name, const TreeNode& manifest,
                         NodeIdGen* gen, wire::WireStats* stats);

/// Resident entry bytes of every shard `manifest` references (a repeated
/// id counts each time); 0 when one is missing.
uint64_t ResidentShardBytes(const TransferCache& cache, PeerId origin,
                            const DocName& name, const TreeNode& manifest);

}  // namespace axml

#endif  // AXML_REPLICA_SHARD_DELTA_H_
