// Negative fixture: manual ownership. check_source.py's raw-new-delete
// check must flag the bare new and the delete expressions, while
// accepting unique_ptr-wrapped news and deleted special members.
// bad_shared_new.cc holds the news handed to shared ownership.

#include <memory>

namespace axml {

struct FixtureNode {
  int value = 0;

  FixtureNode(const FixtureNode&) = delete;  // deleted member: NOT flagged
};

using FixtureNodePtr = std::shared_ptr<FixtureNode>;

int FixtureRawOwnership() {
  auto* leaked = new FixtureNode();               // MUST be flagged
  int* array = new int[8];                        // MUST be flagged
  delete leaked;                                  // MUST be flagged
  delete[] array;                                 // MUST be flagged
  auto owned = std::unique_ptr<FixtureNode>(new FixtureNode());  // wrapped: NOT flagged
  FixtureNodePtr shared = std::make_shared<FixtureNode>();  // NOT flagged
  // lint: allow-raw-new-delete
  auto* waived = new FixtureNode();               // waived: NOT flagged
  int result = owned->value + shared->value + waived->value;
  // lint: allow-raw-new-delete
  delete waived;
  return result;
}

}  // namespace axml
