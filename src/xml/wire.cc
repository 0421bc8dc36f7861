#include "xml/wire.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/logging.h"
#include "common/str_util.h"

namespace axml {
namespace wire {

namespace {

Status Malformed(const char* what) {
  return Status::ParseError(StrCat("wire: malformed buffer (", what, ")"));
}

}  // namespace

const char* MessageClassName(MessageClass c) {
  switch (c) {
    case MessageClass::kTree:
      return "tree";
    case MessageClass::kShipment:
      return "shipment";
    case MessageClass::kNotify:
      return "notify";
    case MessageClass::kLease:
      return "lease";
    case MessageClass::kDigest:
      return "digest";
    case MessageClass::kControl:
      return "control";
    case MessageClass::kQuery:
      return "query";
  }
  return "unknown";
}

uint64_t TimingNowNs(const WireStats* stats) {
  if (stats == nullptr || !stats->timing_enabled) return 0;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          // lint: allow-determinism — opt-in latency histograms only.
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void WireStats::RecordEncode(MessageClass c, size_t bytes, uint64_t ns) {
  ++encode_calls;
  encode_bytes += bytes;
  ++class_messages[static_cast<size_t>(c)];
  class_bytes[static_cast<size_t>(c)] += bytes;
  if (timing_enabled) encode_ns.Add(ns);
}

void WireStats::RecordDecode(size_t bytes, uint64_t ns, bool ok) {
  ++decode_calls;
  decode_bytes += bytes;
  if (!ok) ++decode_errors;
  if (timing_enabled) decode_ns.Add(ns);
}

MessageClass Payload::message_class() const {
  if (bytes_.size() < 2) return MessageClass::kControl;
  const uint8_t c = static_cast<uint8_t>(bytes_[1]);
  return c < kMessageClassCount ? static_cast<MessageClass>(c)
                                : MessageClass::kControl;
}

// --- primitives ---

void AppendVarint(uint64_t v, std::string* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

void AppendFixed64(uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void AppendLengthPrefixed(std::string_view s, std::string* out) {
  AppendVarint(s.size(), out);
  out->append(s);
}

bool Reader::ReadVarint(uint64_t* v) {
  uint64_t result = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (pos_ >= buf_.size()) return false;
    const uint8_t byte = static_cast<uint8_t>(buf_[pos_++]);
    result |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *v = result;
      return true;
    }
  }
  return false;  // > 10 continuation bytes: not a valid varint64
}

bool Reader::ReadFixed64(uint64_t* v) {
  if (remaining() < 8) return false;
  uint64_t result = 0;
  for (int i = 0; i < 8; ++i) {
    result |= static_cast<uint64_t>(static_cast<uint8_t>(buf_[pos_ + i]))
              << (8 * i);
  }
  pos_ += 8;
  *v = result;
  return true;
}

bool Reader::ReadByte(uint8_t* b) {
  if (pos_ >= buf_.size()) return false;
  *b = static_cast<uint8_t>(buf_[pos_++]);
  return true;
}

bool Reader::ReadBytes(uint64_t n, std::string_view* s) {
  if (n > remaining()) return false;
  *s = buf_.substr(pos_, n);
  pos_ += n;
  return true;
}

bool Reader::ReadLengthPrefixed(std::string_view* s) {
  uint64_t len = 0;
  return ReadVarint(&len) && ReadBytes(len, s);
}

namespace {

void AppendHeader(MessageClass c, std::string* out) {
  out->push_back(static_cast<char>(kWireVersion));
  out->push_back(static_cast<char>(c));
}

/// Checks the two header bytes and positions `r` at the body. When
/// `expect` is kControl any class is accepted (generic inspection).
Status ReadHeader(Reader* r, MessageClass expect) {
  uint8_t version = 0;
  uint8_t cls = 0;
  if (!r->ReadByte(&version) || !r->ReadByte(&cls)) {
    return Malformed("truncated header");
  }
  if (version != kWireVersion) {
    return Status::ParseError(StrCat("wire: version ",
                                     static_cast<int>(version),
                                     ", expected ",
                                     static_cast<int>(kWireVersion)));
  }
  if (cls >= kMessageClassCount) return Malformed("unknown message class");
  if (expect != MessageClass::kControl &&
      static_cast<MessageClass>(cls) != expect) {
    return Status::ParseError(
        StrCat("wire: message class ",
               MessageClassName(static_cast<MessageClass>(cls)),
               ", expected ", MessageClassName(expect)));
  }
  return Status::OK();
}

// --- tree encoding ---
//
// A node record starts with one varint header, (value << 2) | kind. The
// boundaries of a varint's length (2^7, 2^14, ...) are multiples of 4,
// so a header's length depends on its value alone, never on its kind.

enum RecordKind : uint8_t {
  kKindText = 0,     ///< value = byte length; the raw bytes follow
  kKindElement = 1,  ///< value = label index; child count, children follow
  kKindLeaf = 2,     ///< value = label index; one length-prefixed text
  kKindEmpty = 3,    ///< value = label index; nothing follows
};

RecordKind KindOf(const TreeNode& n) {
  if (n.is_text()) return kKindText;
  if (n.child_count() == 0) return kKindEmpty;
  if (n.child_count() == 1 && n.child(0)->is_text()) return kKindLeaf;
  return kKindElement;
}

uint64_t Header(uint64_t value, RecordKind kind) { return (value << 2) | kind; }

size_t VarintSize(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// What a tree's encoding depends on apart from child order, gathered in
/// one pass: each label's use count, and every record byte except the
/// element headers (whose size waits on the label table).
struct Census {
  std::vector<uint32_t> uses;  ///< by LabelId
  std::vector<LabelId> labels;  ///< distinct, in first-seen order
  uint64_t body_bytes = 0;

  void Take(const TreeNode& n) {
    const RecordKind kind = KindOf(n);
    if (kind == kKindText) {
      body_bytes += VarintSize(Header(n.text().size(), kKindText)) +
                    n.text().size();
      return;
    }
    const LabelId label = n.label();
    if (label >= uses.size()) uses.resize(label + 1, 0);
    if (uses[label]++ == 0) labels.push_back(label);
    if (kind == kKindLeaf) {
      const std::string& text = n.child(0)->text();
      body_bytes += VarintSize(text.size()) + text.size();
    } else if (kind == kKindElement) {
      body_bytes += VarintSize(n.child_count());
      for (const auto& child : n.children()) Take(*child);
    }
  }

  /// Sorts `labels` into table order: descending use, ties by text. The
  /// most used labels get the one-byte headers, and no index depends on
  /// child order.
  void OrderLabels() {
    std::sort(labels.begin(), labels.end(), [this](LabelId a, LabelId b) {
      if (uses[a] != uses[b]) return uses[a] > uses[b];
      return LabelText(a) < LabelText(b);
    });
  }
};

/// Canonically ordered view of one subtree: children sorted by their
/// canonical form (tree_equal.h), each form computed exactly once, so
/// unordered-equal trees walk — and therefore encode — identically.
struct CanonNode {
  const TreeNode* node = nullptr;
  std::vector<CanonNode> kids;
  std::string form;
};

CanonNode Canonicalize(const TreeNode& n) {
  CanonNode c;
  c.node = &n;
  if (n.is_text()) {
    c.form = StrCat("t:", n.text());
    return c;
  }
  c.kids.reserve(n.child_count());
  for (const auto& child : n.children()) {
    c.kids.push_back(Canonicalize(*child));
  }
  std::sort(c.kids.begin(), c.kids.end(),
            [](const CanonNode& a, const CanonNode& b) {
              return a.form < b.form;
            });
  c.form = StrCat("e:", n.label_text(), "{");
  for (const CanonNode& k : c.kids) {
    c.form += k.form;
    c.form.push_back('|');
  }
  c.form.push_back('}');
  return c;
}

void EncodeNode(const CanonNode& c, const std::vector<uint32_t>& index_of,
                std::string* out) {
  const TreeNode& n = *c.node;
  const RecordKind kind = KindOf(n);
  if (kind == kKindText) {
    AppendVarint(Header(n.text().size(), kKindText), out);
    out->append(n.text());
    return;
  }
  AppendVarint(Header(index_of[n.label()], kind), out);
  if (kind == kKindLeaf) {
    AppendLengthPrefixed(n.child(0)->text(), out);
  } else if (kind == kKindElement) {
    AppendVarint(c.kids.size(), out);
    for (const CanonNode& k : c.kids) EncodeNode(k, index_of, out);
  }
}

/// `unclaimed` counts the records no element has claimed as a child
/// yet. Every record is at least one byte, so a valid blob never claims
/// more than the bytes its body had: that bound keeps the children
/// reserved across all nesting levels linear in the blob's size.
Result<TreePtr> DecodeNode(Reader* r, const std::vector<LabelId>& labels,
                           NodeIdGen* gen, size_t depth, uint64_t* unclaimed) {
  if (depth > kMaxNestingDepth) return Malformed("nesting too deep");
  uint64_t header = 0;
  if (!r->ReadVarint(&header)) return Malformed("truncated node header");
  const uint64_t value = header >> 2;
  const auto kind = static_cast<RecordKind>(header & 3);
  if (kind == kKindText) {
    std::string_view text;
    if (!r->ReadBytes(value, &text)) return Malformed("truncated text");
    return TreeNode::Text(std::string(text));
  }
  if (value >= labels.size()) return Malformed("label index");
  TreePtr node = TreeNode::Element(labels[value], gen->Next());
  if (kind == kKindLeaf) {
    std::string_view text;
    if (!r->ReadLengthPrefixed(&text)) return Malformed("truncated leaf text");
    node->AddChild(TreeNode::Text(std::string(text)));
  } else if (kind == kKindElement) {
    uint64_t child_count = 0;
    if (!r->ReadVarint(&child_count)) return Malformed("truncated element");
    // Every record occupies >= 1 byte; a count beyond that is corrupt.
    if (child_count > r->remaining() || child_count > *unclaimed) {
      return Malformed("child count");
    }
    *unclaimed -= child_count;
    // The encoder writes an empty element as kind 3 and a lone text
    // child as kind 2, so either as kind 1 is not a canonical blob.
    if (child_count == 0) return Malformed("empty element record");
    node->ReserveChildren(child_count);
    for (uint64_t i = 0; i < child_count; ++i) {
      auto child = DecodeNode(r, labels, gen, depth + 1, unclaimed);
      if (!child.ok()) return child.status();
      if (child_count == 1 && child.value()->is_text()) {
        return Malformed("text-only element record");
      }
      node->AddChild(std::move(child).value());
    }
  }
  return node;
}

/// Bytes of the label table: its count, then each label length-prefixed.
uint64_t LabelTableSize(const std::vector<LabelId>& labels) {
  uint64_t bytes = VarintSize(labels.size());
  for (LabelId label : labels) {
    const size_t len = LabelText(label).size();
    bytes += VarintSize(len) + len;
  }
  return bytes;
}

void EncodeTreeBody(const TreeNode& root, std::string* out) {
  Census census;
  census.Take(root);
  census.OrderLabels();
  std::vector<uint32_t> index_of(census.uses.size(), UINT32_MAX);
  AppendVarint(census.labels.size(), out);
  for (size_t i = 0; i < census.labels.size(); ++i) {
    index_of[census.labels[i]] = static_cast<uint32_t>(i);
    AppendLengthPrefixed(LabelText(census.labels[i]), out);
  }
  EncodeNode(Canonicalize(root), index_of, out);
}

Result<TreePtr> DecodeTreeBody(Reader* r, NodeIdGen* gen) {
  uint64_t label_count = 0;
  if (!r->ReadVarint(&label_count)) return Malformed("label table");
  if (label_count > r->remaining()) return Malformed("label table size");
  std::vector<LabelId> labels;
  labels.reserve(label_count);
  for (uint64_t i = 0; i < label_count; ++i) {
    std::string_view text;
    if (!r->ReadLengthPrefixed(&text)) return Malformed("label text");
    labels.push_back(InternLabel(text));
  }
  uint64_t unclaimed = r->remaining();
  return DecodeNode(r, labels, gen, /*depth=*/0, &unclaimed);
}

}  // namespace

std::string EncodeTree(const TreeNode& root, WireStats* stats) {
  const uint64_t t0 = TimingNowNs(stats);
  std::string out;
  AppendHeader(MessageClass::kTree, &out);
  EncodeTreeBody(root, &out);
  if (stats != nullptr) {
    stats->RecordEncode(MessageClass::kTree, out.size(),
                        TimingNowNs(stats) - t0);
  }
  return out;
}

uint64_t EncodedTreeSize(const TreeNode& root) {
  Census census;
  census.Take(root);
  census.OrderLabels();
  uint64_t bytes = 2 + LabelTableSize(census.labels) + census.body_bytes;
  for (size_t i = 0; i < census.labels.size(); ++i) {
    bytes += census.uses[census.labels[i]] * VarintSize(uint64_t{i} << 2);
  }
  return bytes;
}

Result<TreePtr> DecodeTree(std::string_view blob, NodeIdGen* gen,
                           WireStats* stats) {
  const uint64_t t0 = TimingNowNs(stats);
  Reader r(blob);
  Status header = ReadHeader(&r, MessageClass::kTree);
  Result<TreePtr> result =
      header.ok() ? DecodeTreeBody(&r, gen) : Result<TreePtr>(header);
  if (result.ok() && !r.done()) {
    result = Malformed("trailing bytes after tree");
  }
  if (stats != nullptr) {
    stats->RecordDecode(blob.size(), TimingNowNs(stats) - t0, result.ok());
  }
  return result;
}

// --- notify batches ---

Payload EncodeNotifyBatch(const NotifyBatch& batch, WireStats* stats) {
  const uint64_t t0 = TimingNowNs(stats);
  std::string out;
  AppendHeader(MessageClass::kNotify, &out);
  AppendVarint(batch.origin, &out);
  AppendVarint(batch.keys.size(), &out);
  for (const NotifyBatch::Key& key : batch.keys) {
    AppendLengthPrefixed(key.name, &out);
    AppendLengthPrefixed(key.shard, &out);
  }
  if (stats != nullptr) {
    stats->RecordEncode(MessageClass::kNotify, out.size(),
                        TimingNowNs(stats) - t0);
  }
  return Payload(std::move(out));
}

Result<NotifyBatch> DecodeNotifyBatch(const Payload& p, WireStats* stats) {
  const uint64_t t0 = TimingNowNs(stats);
  auto parse = [&]() -> Result<NotifyBatch> {
    Reader r(p.bytes());
    AXML_RETURN_NOT_OK(ReadHeader(&r, MessageClass::kNotify));
    NotifyBatch batch;
    uint64_t origin = 0;
    uint64_t count = 0;
    if (!r.ReadVarint(&origin) || !r.ReadVarint(&count)) {
      return Malformed("notify header");
    }
    if (count > r.remaining()) return Malformed("notify key count");
    batch.origin = static_cast<uint32_t>(origin);
    for (uint64_t i = 0; i < count; ++i) {
      std::string_view name;
      std::string_view shard;
      if (!r.ReadLengthPrefixed(&name) || !r.ReadLengthPrefixed(&shard)) {
        return Malformed("notify key");
      }
      batch.keys.push_back({std::string(name), std::string(shard)});
    }
    if (!r.done()) return Malformed("trailing bytes after notify");
    return batch;
  };
  Result<NotifyBatch> result = parse();
  if (stats != nullptr) {
    stats->RecordDecode(p.size(), TimingNowNs(stats) - t0, result.ok());
  }
  return result;
}

// --- lease renewals ---

Payload EncodeLeaseRenewal(const LeaseRenewal& lease, WireStats* stats) {
  const uint64_t t0 = TimingNowNs(stats);
  std::string out;
  AppendHeader(MessageClass::kLease, &out);
  AppendVarint(lease.holder, &out);
  AppendVarint(lease.origin, &out);
  AppendVarint(lease.subscribed_keys, &out);
  if (stats != nullptr) {
    stats->RecordEncode(MessageClass::kLease, out.size(),
                        TimingNowNs(stats) - t0);
  }
  return Payload(std::move(out));
}

Result<LeaseRenewal> DecodeLeaseRenewal(const Payload& p,
                                        WireStats* stats) {
  const uint64_t t0 = TimingNowNs(stats);
  auto parse = [&]() -> Result<LeaseRenewal> {
    Reader r(p.bytes());
    AXML_RETURN_NOT_OK(ReadHeader(&r, MessageClass::kLease));
    uint64_t holder = 0;
    uint64_t origin = 0;
    LeaseRenewal lease;
    if (!r.ReadVarint(&holder) || !r.ReadVarint(&origin) ||
        !r.ReadVarint(&lease.subscribed_keys)) {
      return Malformed("lease body");
    }
    if (!r.done()) return Malformed("trailing bytes after lease");
    lease.holder = static_cast<uint32_t>(holder);
    lease.origin = static_cast<uint32_t>(origin);
    return lease;
  };
  Result<LeaseRenewal> result = parse();
  if (stats != nullptr) {
    stats->RecordDecode(p.size(), TimingNowNs(stats) - t0, result.ok());
  }
  return result;
}

// --- shipments ---

Payload EncodeShipment(const Shipment& s, WireStats* stats) {
  const uint64_t t0 = TimingNowNs(stats);
  std::string out;
  AppendHeader(MessageClass::kShipment, &out);
  AppendVarint(s.origin, &out);
  AppendLengthPrefixed(s.name, &out);
  AppendVarint(s.snapshot_version, &out);
  out.push_back(s.sharded ? 1 : 0);
  if (s.sharded) {
    AppendLengthPrefixed(s.manifest, &out);
    AppendVarint(s.shards.size(), &out);
    for (const Shipment::Shard& shard : s.shards) {
      AppendLengthPrefixed(shard.id, &out);
      AppendLengthPrefixed(shard.tree, &out);
    }
  } else {
    AppendLengthPrefixed(s.whole, &out);
  }
  if (stats != nullptr) {
    stats->RecordEncode(MessageClass::kShipment, out.size(),
                        TimingNowNs(stats) - t0);
  }
  return Payload(std::move(out));
}

Result<Shipment> DecodeShipment(const Payload& p, WireStats* stats) {
  const uint64_t t0 = TimingNowNs(stats);
  auto parse = [&]() -> Result<Shipment> {
    Reader r(p.bytes());
    AXML_RETURN_NOT_OK(ReadHeader(&r, MessageClass::kShipment));
    Shipment s;
    uint64_t origin = 0;
    std::string_view name;
    uint8_t sharded = 0;
    if (!r.ReadVarint(&origin) || !r.ReadLengthPrefixed(&name) ||
        !r.ReadVarint(&s.snapshot_version) || !r.ReadByte(&sharded)) {
      return Malformed("shipment header");
    }
    if (sharded > 1) return Malformed("shipment mode");
    s.origin = static_cast<uint32_t>(origin);
    s.name = std::string(name);
    s.sharded = sharded == 1;
    if (s.sharded) {
      std::string_view manifest;
      uint64_t shard_count = 0;
      if (!r.ReadLengthPrefixed(&manifest) || !r.ReadVarint(&shard_count)) {
        return Malformed("shipment manifest");
      }
      if (shard_count > r.remaining()) return Malformed("shard count");
      s.manifest = std::string(manifest);
      for (uint64_t i = 0; i < shard_count; ++i) {
        std::string_view id;
        std::string_view tree;
        if (!r.ReadLengthPrefixed(&id) || !r.ReadLengthPrefixed(&tree)) {
          return Malformed("shipment shard");
        }
        s.shards.push_back({std::string(id), std::string(tree)});
      }
    } else {
      std::string_view whole;
      if (!r.ReadLengthPrefixed(&whole)) return Malformed("shipment body");
      s.whole = std::string(whole);
    }
    if (!r.done()) return Malformed("trailing bytes after shipment");
    return s;
  };
  Result<Shipment> result = parse();
  if (stats != nullptr) {
    stats->RecordDecode(p.size(), TimingNowNs(stats) - t0, result.ok());
  }
  return result;
}

// --- anti-entropy digests ---

Payload EncodeDigestExchange(const DigestExchange& d, WireStats* stats) {
  const uint64_t t0 = TimingNowNs(stats);
  std::string out;
  AppendHeader(MessageClass::kDigest, &out);
  AppendVarint(d.holder, &out);
  AppendVarint(d.origin, &out);
  AppendVarint(d.docs.size(), &out);
  for (const DigestExchange::Doc& doc : d.docs) {
    AppendLengthPrefixed(doc.name, &out);
    AppendVarint(doc.version, &out);
    AppendFixed64(doc.manifest.hi, &out);
    AppendFixed64(doc.manifest.lo, &out);
    AppendVarint(doc.shards.size(), &out);
    for (const ContentDigest& shard : doc.shards) {
      AppendFixed64(shard.hi, &out);
      AppendFixed64(shard.lo, &out);
    }
  }
  if (stats != nullptr) {
    stats->RecordEncode(MessageClass::kDigest, out.size(),
                        TimingNowNs(stats) - t0);
  }
  return Payload(std::move(out));
}

Result<DigestExchange> DecodeDigestExchange(const Payload& p,
                                            WireStats* stats) {
  const uint64_t t0 = TimingNowNs(stats);
  auto parse = [&]() -> Result<DigestExchange> {
    Reader r(p.bytes());
    AXML_RETURN_NOT_OK(ReadHeader(&r, MessageClass::kDigest));
    DigestExchange d;
    uint64_t holder = 0;
    uint64_t origin = 0;
    uint64_t doc_count = 0;
    if (!r.ReadVarint(&holder) || !r.ReadVarint(&origin) ||
        !r.ReadVarint(&doc_count)) {
      return Malformed("digest header");
    }
    if (doc_count > r.remaining()) return Malformed("digest doc count");
    d.holder = static_cast<uint32_t>(holder);
    d.origin = static_cast<uint32_t>(origin);
    for (uint64_t i = 0; i < doc_count; ++i) {
      DigestExchange::Doc doc;
      std::string_view name;
      uint64_t shard_count = 0;
      if (!r.ReadLengthPrefixed(&name) || !r.ReadVarint(&doc.version) ||
          !r.ReadFixed64(&doc.manifest.hi) ||
          !r.ReadFixed64(&doc.manifest.lo) || !r.ReadVarint(&shard_count)) {
        return Malformed("digest doc");
      }
      if (shard_count > r.remaining() / 16) {
        return Malformed("digest shard count");
      }
      doc.name = std::string(name);
      for (uint64_t j = 0; j < shard_count; ++j) {
        ContentDigest shard;
        if (!r.ReadFixed64(&shard.hi) || !r.ReadFixed64(&shard.lo)) {
          return Malformed("digest shard");
        }
        doc.shards.push_back(shard);
      }
      d.docs.push_back(std::move(doc));
    }
    if (!r.done()) return Malformed("trailing bytes after digest");
    return d;
  };
  Result<DigestExchange> result = parse();
  if (stats != nullptr) {
    stats->RecordDecode(p.size(), TimingNowNs(stats) - t0, result.ok());
  }
  return result;
}

// --- text ---

Payload EncodeText(MessageClass cls, std::string_view text,
                   WireStats* stats) {
  const uint64_t t0 = TimingNowNs(stats);
  std::string out;
  AppendHeader(cls, &out);
  AppendLengthPrefixed(text, &out);
  if (stats != nullptr) {
    stats->RecordEncode(cls, out.size(), TimingNowNs(stats) - t0);
  }
  return Payload(std::move(out));
}

Result<std::string> DecodeText(const Payload& p, WireStats* stats) {
  const uint64_t t0 = TimingNowNs(stats);
  auto parse = [&]() -> Result<std::string> {
    Reader r(p.bytes());
    AXML_RETURN_NOT_OK(ReadHeader(&r, MessageClass::kControl));
    std::string_view text;
    if (!r.ReadLengthPrefixed(&text)) return Malformed("text body");
    if (!r.done()) return Malformed("trailing bytes after text");
    return std::string(text);
  };
  Result<std::string> result = parse();
  if (stats != nullptr) {
    stats->RecordDecode(p.size(), TimingNowNs(stats) - t0, result.ok());
  }
  return result;
}

uint64_t EncodedTextSize(std::string_view text) {
  std::string len;
  AppendVarint(text.size(), &len);
  return 2 + len.size() + text.size();
}

}  // namespace wire
}  // namespace axml
