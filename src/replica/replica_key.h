// The identity of one cached copy: where the original lives, and — since
// documents can be split into content-addressed shards (xml/sharding.h) —
// which piece of it this is.
//
// Split out of transfer_cache.h so the eviction-policy strategies (which
// bookkeep per-key state) and the subscription table can name keys
// without pulling in the cache itself.

#ifndef AXML_REPLICA_REPLICA_KEY_H_
#define AXML_REPLICA_REPLICA_KEY_H_

#include <string>

#include "common/ids.h"
#include "common/str_util.h"

namespace axml {

/// Shard value naming the manifest of a sharded copy. Data shards use
/// their ContentDigest hex instead; '#' keeps the two namespaces apart
/// (digest hex is [0-9a-f] only).
inline constexpr const char kManifestShardId[] = "#manifest";

/// Identity of one cached copy. The shard dimension distinguishes:
///  - ""              — a whole-document copy (the pre-sharding layout;
///                      also the *document-level* key used for versions
///                      and subscriptions);
///  - "#manifest"     — the manifest of a sharded copy, versioned like a
///                      whole-document copy;
///  - "<digest hex>"  — one data shard. Shard content is immutable (the
///                      id *is* its content digest), so these entries are
///                      stored at version 0 and can never go stale — they
///                      leave the cache only by eviction or explicit
///                      orphan cleanup.
struct ReplicaKey {
  PeerId origin;
  DocName name;
  std::string shard{};  // NSDMI: two-member aggregate init stays valid

  bool operator==(const ReplicaKey&) const = default;
  bool operator<(const ReplicaKey& o) const {
    if (origin != o.origin) return origin < o.origin;
    if (name != o.name) return name < o.name;
    return shard < o.shard;
  }

  bool is_doc() const { return shard.empty(); }
  bool is_manifest() const { return shard == kManifestShardId; }
  bool is_shard_data() const { return !shard.empty() && !is_manifest(); }

  /// "d@p1", "d@p1#manifest", "d@p1/3f2a..." for traces.
  std::string ToString() const {
    std::string s = StrCat(name, "@", origin.ToString());
    if (is_manifest()) return s + shard;
    if (!shard.empty()) s += StrCat("/", shard.substr(0, 8));
    return s;
  }
};

}  // namespace axml

#endif  // AXML_REPLICA_REPLICA_KEY_H_
