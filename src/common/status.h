// Status / Result error-handling primitives for the axml library.
//
// Follows the Arrow/Abseil convention: fallible functions return a Status
// (or a Result<T> when they produce a value). Errors carry a code and a
// human-readable message; no exceptions cross public API boundaries.

#ifndef AXML_COMMON_STATUS_H_
#define AXML_COMMON_STATUS_H_

#include <cassert>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <variant>

namespace axml {

/// Machine-readable category of an error.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,   ///< caller passed something malformed
  kNotFound,          ///< document / service / peer / node missing
  kAlreadyExists,     ///< name collision (e.g. installing d@p twice)
  kParseError,        ///< XML or AQL text could not be parsed
  kTypeError,         ///< value does not conform to a schema type
  kUndefined,         ///< paper semantics leave the operation undefined
                      ///< (e.g. send of a tree the sender does not own)
  kUnsupported,       ///< valid but outside the implemented fragment
  kInternal,          ///< invariant violation inside the library
};

/// Returns a stable lowercase name for `code` ("ok", "not_found", ...).
const char* StatusCodeName(StatusCode code);

/// Result of an operation that can fail but returns no value.
///
/// Cheap to copy in the OK case (empty message). Typical use:
///
///   Status s = peer.InstallDocument(doc);
///   if (!s.ok()) return s;
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string m) {
    return Status(StatusCode::kInvalidArgument, std::move(m));
  }
  static Status NotFound(std::string m) {
    return Status(StatusCode::kNotFound, std::move(m));
  }
  static Status AlreadyExists(std::string m) {
    return Status(StatusCode::kAlreadyExists, std::move(m));
  }
  static Status ParseError(std::string m) {
    return Status(StatusCode::kParseError, std::move(m));
  }
  static Status TypeError(std::string m) {
    return Status(StatusCode::kTypeError, std::move(m));
  }
  static Status Undefined(std::string m) {
    return Status(StatusCode::kUndefined, std::move(m));
  }
  static Status Internal(std::string m) {
    return Status(StatusCode::kInternal, std::move(m));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "ok" or "<code>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

/// A value-or-error sum type, in the spirit of arrow::Result.
///
///   Result<Document> r = ParseDocument(text);
///   if (!r.ok()) return r.status();
///   Document doc = std::move(r).value();
template <typename T>
class Result {
 public:
  /// Implicit from a value: makes `return value;` work.
  Result(T value) : v_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  /// Implicit from a non-OK status: makes `return Status::...;` work.
  Result(Status status) : v_(std::move(status)) {  // NOLINT
    assert(!std::get<Status>(v_).ok() && "Result constructed from OK status");
  }

  bool ok() const { return std::holds_alternative<T>(v_); }

  const Status& status() const {
    static const Status kOk;
    return ok() ? kOk : std::get<Status>(v_);
  }

  const T& value() const& {
    assert(ok());
    return std::get<T>(v_);
  }
  T& value() & {
    assert(ok());
    return std::get<T>(v_);
  }
  T&& value() && {
    assert(ok());
    return std::move(std::get<T>(v_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the value, or `fallback` when this holds an error.
  T value_or(T fallback) const {
    return ok() ? value() : std::move(fallback);
  }

 private:
  std::variant<T, Status> v_;
};

/// Propagates a non-OK Status out of the current function.
#define AXML_RETURN_NOT_OK(expr)            \
  do {                                      \
    ::axml::Status _axml_s = (expr);        \
    if (!_axml_s.ok()) return _axml_s;      \
  } while (0)

/// Evaluates a Result expression; on error returns its status, otherwise
/// move-assigns the value into `lhs`.
#define AXML_ASSIGN_OR_RETURN(lhs, rexpr)       \
  AXML_ASSIGN_OR_RETURN_IMPL_(                  \
      AXML_CONCAT_(_axml_res, __LINE__), lhs, rexpr)
#define AXML_CONCAT_INNER_(a, b) a##b
#define AXML_CONCAT_(a, b) AXML_CONCAT_INNER_(a, b)
#define AXML_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, rexpr) \
  auto tmp = (rexpr);                                \
  if (!tmp.ok()) return tmp.status();                \
  lhs = std::move(tmp).value();

}  // namespace axml

#endif  // AXML_COMMON_STATUS_H_
