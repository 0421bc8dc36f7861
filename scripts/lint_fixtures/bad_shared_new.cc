// Negative fixture: a `new` handed to shared ownership. check_source.py's
// raw-new-delete check must flag every shared_ptr and `*Ptr` alias
// wrapper, which allocate the control block separately, while accepting
// make_shared through a passkey and the unique_ptr wrapper.

#include <memory>

namespace axml {

class SharedFixture {
  struct Key {
    explicit Key() = default;
  };

 public:
  explicit SharedFixture(Key) {}

  static std::shared_ptr<SharedFixture> Made() {
    return std::make_shared<SharedFixture>(Key{});  // passkey: NOT flagged
  }
  static std::shared_ptr<SharedFixture> Wrapped() {
    return std::shared_ptr<SharedFixture>(new SharedFixture(Key{}));  // MUST be flagged
  }

  int value = 0;
};

using SharedFixturePtr = std::shared_ptr<const SharedFixture>;

int FixtureSharedOwnership() {
  auto a = SharedFixturePtr(new SharedFixture(*SharedFixture::Made()));  // MUST be flagged
  static const SharedFixturePtr b(new SharedFixture(*a));  // MUST be flagged
  std::shared_ptr<const SharedFixture> c(new SharedFixture(*b));  // MUST be flagged
  auto d = std::unique_ptr<SharedFixture>(new SharedFixture(*c));  // unique: NOT flagged
  return a->value + b->value + c->value + d->value;
}

}  // namespace axml
