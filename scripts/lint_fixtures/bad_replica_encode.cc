// Negative fixture for the replica-encode check: tree encodes inside
// the replica layer (posed as src/replica/...), plus the nearby shapes
// that must NOT fire.

#include <cstdint>
#include <string>

namespace axml {

void ReplicaPaths(const TreeNode& tree, const std::string& blob,
                  wire::WireStats* stats) {
  // Re-encoding content whose bytes already exist fires, qualified or
  // not, and so does asking the encoder for a size.
  std::string a = wire::EncodeTree(tree, stats);  // MUST be flagged
  std::string b = EncodeTree(tree);  // MUST be flagged
  const uint64_t c = wire::EncodedTreeSize(tree);  // MUST be flagged

  // Decoding stored bytes and wrapping them in a shipment stay silent.
  Result<TreePtr> d = wire::DecodeTree(blob, gen, stats);
  wire::Payload e = wire::EncodeShipment(ship, stats);
  const uint64_t f = blob.size();

  // A mention in a comment is not a call: wire::EncodeTree(tree).

  // The waiver works on the line or the line above.
  std::string g = wire::EncodeTree(tree);  // lint: allow-replica-encode
  // lint: allow-replica-encode — an unsharded document has no stored bytes.
  std::string h = wire::EncodeTree(tree);
  (void)a; (void)b; (void)c; (void)d; (void)e; (void)f; (void)g; (void)h;
}

}  // namespace axml
