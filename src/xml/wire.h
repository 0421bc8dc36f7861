// The binary wire format: what actually crosses a link.
//
// Every message the simulator prices is encoded here first, and the
// priced size IS the encoded size — `Network`'s payload-carrying send
// paths charge `Payload::size()` bytes, so "priced != actual" drift is
// structurally impossible (an `AXML_DCHECK` at each send boundary pins
// the few places where a size is computed before the payload exists,
// e.g. budget admission). The format is deliberately small and
// versioned:
//
//   byte 0   kWireVersion (2)
//   byte 1   MessageClass
//   body     class-specific, varint-framed (see docs/wire-format.md)
//
// Trees encode with a per-blob interned-label table (most used label
// first) and *canonical child order* (children sorted by their canonical
// form, tree_equal.h); each node is one varint header, and an element
// holding only text carries it inline. Unordered-equal trees therefore
// encode byte-identically — the property the
// content-addressed blob store and shard ids already rely on. Decoding
// mints fresh node ids from the receiving peer's NodeIdGen (§3.2: every
// send copies the instance it sends).
//
// Decoders never trust the buffer: every length is bounds-checked,
// recursion depth is capped, and any malformed input returns a
// ParseError Status — truncation or corruption must never crash.

#ifndef AXML_XML_WIRE_H_
#define AXML_XML_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "xml/digest.h"
#include "xml/tree.h"

namespace axml {
namespace wire {

/// Bumped on any incompatible layout change; decoders reject mismatches.
inline constexpr uint8_t kWireVersion = 2;

/// Second header byte: what kind of message the payload carries. Used
/// for per-class byte accounting (NetStats) and decode dispatch.
enum class MessageClass : uint8_t {
  kTree = 0,      ///< one standalone tree blob (document / shard ship)
  kShipment = 1,  ///< replica shipment: whole doc or manifest + shards
  kNotify = 2,    ///< invalidation notify batch
  kLease = 3,     ///< subscription lease renewal
  kDigest = 4,    ///< anti-entropy manifest/shard digest exchange
  kControl = 5,   ///< modeled control traffic (catalog lookups etc.)
  kQuery = 6,     ///< query / service-call text
};
inline constexpr size_t kMessageClassCount = 7;

/// Stable lowercase name for metrics and traces ("tree", "notify", ...).
const char* MessageClassName(MessageClass c);

/// Encode/decode observability. Deterministic counters are always on;
/// the wall-clock latency histograms only fill when `timing_enabled`
/// (bench_wire turns it on) so twin simulations stay byte-identical.
struct WireStats {
  uint64_t encode_calls = 0;
  uint64_t encode_bytes = 0;
  uint64_t decode_calls = 0;
  uint64_t decode_bytes = 0;
  uint64_t decode_errors = 0;
  /// Per-class encoded message/byte counters, indexed by MessageClass.
  uint64_t class_messages[kMessageClassCount] = {};
  uint64_t class_bytes[kMessageClassCount] = {};
  Histogram encode_ns;
  Histogram decode_ns;
  bool timing_enabled = false;

  void RecordEncode(MessageClass c, size_t bytes, uint64_t ns);
  void RecordDecode(size_t bytes, uint64_t ns, bool ok);

  /// Every counter above, under its registry name (mounted at "wire/"
  /// by AxmlSystem).
  static constexpr auto kCounters = std::make_tuple(
      Counter{"encode_calls", &WireStats::encode_calls},
      Counter{"encode_bytes", &WireStats::encode_bytes},
      Counter{"decode_calls", &WireStats::decode_calls},
      Counter{"decode_bytes", &WireStats::decode_bytes},
      Counter{"decode_errors", &WireStats::decode_errors},
      Counter{"msgs_", &WireStats::class_messages, &MessageClassName},
      Counter{"bytes_", &WireStats::class_bytes, &MessageClassName},
      Counter{"encode_ns", &WireStats::encode_ns},
      Counter{"decode_ns", &WireStats::decode_ns});
};
// timing_enabled is a switch, not a counter.
static_assert(CountersCover<WireStats>(sizeof(bool)));

/// Reads the wall clock iff `stats` wants timing; 0 otherwise. The one
/// sanctioned nondeterminism: it only ever feeds the latency histograms.
uint64_t TimingNowNs(const WireStats* stats);

/// An encoded message: header + body, opaque to the transport. The
/// `size()` is the priced wire size — there is no other size.
class Payload {
 public:
  Payload() = default;
  explicit Payload(std::string bytes) : bytes_(std::move(bytes)) {}

  size_t size() const { return bytes_.size(); }
  bool empty() const { return bytes_.empty(); }
  const std::string& bytes() const { return bytes_; }
  /// Class from the header byte; kControl for empty/foreign buffers.
  MessageClass message_class() const;

 private:
  std::string bytes_;
};

// --- varint / fixed primitives (exposed for tests and bench_wire) ---

void AppendVarint(uint64_t v, std::string* out);
void AppendFixed64(uint64_t v, std::string* out);
void AppendLengthPrefixed(std::string_view s, std::string* out);

/// Bounds-checked sequential reader over an encoded buffer.
class Reader {
 public:
  explicit Reader(std::string_view buf) : buf_(buf) {}

  bool ReadVarint(uint64_t* v);
  bool ReadFixed64(uint64_t* v);
  bool ReadByte(uint8_t* b);
  /// Reads the next `n` bytes (aliasing the buffer).
  bool ReadBytes(uint64_t n, std::string_view* s);
  /// Reads a varint length then that many bytes (aliasing the buffer).
  bool ReadLengthPrefixed(std::string_view* s);
  size_t remaining() const { return buf_.size() - pos_; }
  bool done() const { return pos_ == buf_.size(); }

 private:
  std::string_view buf_;
  size_t pos_ = 0;
};

// --- trees ---

/// Encodes one tree as a standalone blob (class kTree): label table +
/// canonically ordered node records. Unordered-equal trees encode
/// byte-identically.
std::string EncodeTree(const TreeNode& root, WireStats* stats = nullptr);

/// The blob size `EncodeTree` would produce — THE wire size of a tree.
/// Every transfer-pricing path reads this (not xml_serializer's size).
/// It counts in one pass and never builds the canonical order: no
/// record's size depends on where its siblings sort.
uint64_t EncodedTreeSize(const TreeNode& root);

/// Decodes a tree blob, minting fresh node ids from `gen`.
Result<TreePtr> DecodeTree(std::string_view blob, NodeIdGen* gen,
                           WireStats* stats = nullptr);

// --- replica protocol messages ---

/// One invalidation notify batch origin -> holder: the keys whose
/// copies just went stale.
struct NotifyBatch {
  uint32_t origin = 0;
  struct Key {
    std::string name;
    std::string shard;  ///< "" whole doc, "#manifest", or shard id
  };
  std::vector<Key> keys;
};

Payload EncodeNotifyBatch(const NotifyBatch& batch,
                          WireStats* stats = nullptr);
Result<NotifyBatch> DecodeNotifyBatch(const Payload& p,
                                      WireStats* stats = nullptr);

/// One lease renewal holder -> origin covering all subscribed keys.
struct LeaseRenewal {
  uint32_t holder = 0;
  uint32_t origin = 0;
  uint64_t subscribed_keys = 0;
};

Payload EncodeLeaseRenewal(const LeaseRenewal& lease,
                           WireStats* stats = nullptr);
Result<LeaseRenewal> DecodeLeaseRenewal(const Payload& p,
                                        WireStats* stats = nullptr);

/// A replica shipment origin -> holder: a whole document, or a manifest
/// and/or the data shards the holder lacks. Embedded trees are complete
/// kTree blobs, byte-identical to what the holder's cache will store.
struct Shipment {
  uint32_t origin = 0;
  std::string name;
  uint64_t snapshot_version = 0;
  bool sharded = false;
  std::string whole;     ///< kTree blob; only when !sharded
  std::string manifest;  ///< kTree blob; "" = manifest not shipped
  struct Shard {
    std::string id;    ///< content-digest hex id
    std::string tree;  ///< kTree blob
  };
  std::vector<Shard> shards;
};

Payload EncodeShipment(const Shipment& s, WireStats* stats = nullptr);
Result<Shipment> DecodeShipment(const Payload& p,
                                WireStats* stats = nullptr);

/// Anti-entropy digest exchange holder <-> origin: per document, the
/// manifest version + digest and each resident shard digest, compared
/// shard-by-shard at the other end.
struct DigestExchange {
  uint32_t holder = 0;
  uint32_t origin = 0;
  struct Doc {
    std::string name;
    uint64_t version = 0;
    ContentDigest manifest;
    std::vector<ContentDigest> shards;
  };
  std::vector<Doc> docs;
};

Payload EncodeDigestExchange(const DigestExchange& d,
                             WireStats* stats = nullptr);
Result<DigestExchange> DecodeDigestExchange(const Payload& p,
                                            WireStats* stats = nullptr);

/// Free-form text message (query / service-call text) under `cls`
/// (kQuery for AQL text).
Payload EncodeText(MessageClass cls, std::string_view text,
                   WireStats* stats = nullptr);
Result<std::string> DecodeText(const Payload& p,
                               WireStats* stats = nullptr);
/// The wire size `EncodeText` would produce, for cost estimation.
uint64_t EncodedTextSize(std::string_view text);

}  // namespace wire
}  // namespace axml

#endif  // AXML_XML_WIRE_H_
