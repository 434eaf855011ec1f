//===- support/Error.h - Lightweight error and result types -----*- C++ -*-===//
//
// Part of the swa-sched project: stopwatch-automata based schedulability
// analysis of modular computer systems.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Error and Result<T> are the project's recoverable-error primitives.
/// Library code never throws; fallible operations return Result<T> (or a
/// plain Error for void results). This mirrors the spirit of llvm::Expected
/// without the checked-flag machinery: a Result either holds a value or an
/// error message, and callers branch on ok().
///
//===----------------------------------------------------------------------===//

#ifndef SWA_SUPPORT_ERROR_H
#define SWA_SUPPORT_ERROR_H

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace swa {

/// Machine-checkable failure categories. Most library errors are Generic
/// (the message is the whole story); the durable-search layer needs
/// callers to branch on *why* a snapshot was rejected — corrupt files
/// degrade to a cold start, I/O failures are retried, version skew is
/// reported to the operator — without string matching, so those paths
/// attach a code. Model binding tags the rate conditions the stopwatch
/// encoding cannot represent, so tests can tell them from syntax errors.
/// The taxonomy is deliberately small: add a code only when some caller
/// dispatches on it.
enum class ErrorCode {
  Generic,                ///< Uncategorized; message-only errors.
  Io,                     ///< open/write/fsync/rename/read failed.
  SnapshotTruncated,      ///< File ends mid-header or mid-record.
  SnapshotCorrupt,        ///< Bad magic, CRC mismatch, malformed payload.
  SnapshotVersionSkew,    ///< Format version this reader does not speak.
  SnapshotEndianMismatch, ///< Written by a foreign-endian encoder.
  SnapshotMismatch,       ///< Valid snapshot, wrong problem (seed/base).
  UnsupportedRate,        ///< Rate condition one stopwatch cannot hold.
};

/// Stable lower-case name for an ErrorCode (log/CLI output).
const char *errorCodeName(ErrorCode Code);

/// A recoverable error: a human-readable message describing what went wrong,
/// plus an optional machine-checkable ErrorCode.
///
/// Messages follow tool conventions: lower-case first letter, no trailing
/// period. An empty-message Error still counts as an error state; use
/// Error::success() to represent "no error".
class Error {
public:
  /// Constructs the success (no-error) value.
  static Error success() { return Error(); }

  /// Constructs a failure carrying \p Message.
  static Error failure(std::string Message) {
    Error E;
    E.Failed = true;
    E.Message = std::move(Message);
    return E;
  }

  /// Constructs a typed failure: \p Code says what class of problem this
  /// is, \p Message describes the instance.
  static Error failure(ErrorCode Code, std::string Message) {
    Error E = failure(std::move(Message));
    E.Code = Code;
    return E;
  }

  /// True when this represents a failure.
  explicit operator bool() const { return Failed; }

  bool isFailure() const { return Failed; }

  /// Returns the failure message. Only valid on failures.
  const std::string &message() const {
    assert(Failed && "message() on a success Error");
    return Message;
  }

  /// The failure category; ErrorCode::Generic unless the producer
  /// attached one. Only valid on failures.
  ErrorCode code() const {
    assert(Failed && "code() on a success Error");
    return Code;
  }

  /// Prepends context to the message, building "context: original".
  /// The ErrorCode is preserved.
  Error withContext(const std::string &Context) const {
    if (!Failed)
      return Error::success();
    return Error::failure(Code, Context + ": " + Message);
  }

private:
  Error() = default;

  bool Failed = false;
  ErrorCode Code = ErrorCode::Generic;
  std::string Message;
};

inline const char *errorCodeName(ErrorCode Code) {
  switch (Code) {
  case ErrorCode::Generic:
    return "generic";
  case ErrorCode::Io:
    return "io";
  case ErrorCode::SnapshotTruncated:
    return "snapshot-truncated";
  case ErrorCode::SnapshotCorrupt:
    return "snapshot-corrupt";
  case ErrorCode::SnapshotVersionSkew:
    return "snapshot-version-skew";
  case ErrorCode::SnapshotEndianMismatch:
    return "snapshot-endian-mismatch";
  case ErrorCode::SnapshotMismatch:
    return "snapshot-mismatch";
  case ErrorCode::UnsupportedRate:
    return "unsupported-rate";
  }
  return "unknown";
}

/// Holds either a value of type T or an Error.
///
/// Typical usage:
/// \code
///   Result<int> R = parseInt(Text);
///   if (!R.ok())
///     return R.takeError();
///   use(R.value());
/// \endcode
template <typename T> class Result {
public:
  /// Success: wraps \p Value.
  Result(T Value) : Value(std::move(Value)), Err(Error::success()) {}

  /// Failure: wraps \p E (which must be a failure).
  Result(Error E) : Err(std::move(E)) {
    assert(Err.isFailure() && "Result constructed from success Error");
  }

  bool ok() const { return !Err.isFailure(); }
  explicit operator bool() const { return ok(); }

  /// Accesses the contained value. Only valid when ok().
  T &value() {
    assert(ok() && "value() on a failed Result");
    return *Value;
  }
  const T &value() const {
    assert(ok() && "value() on a failed Result");
    return *Value;
  }

  T &operator*() { return value(); }
  const T &operator*() const { return value(); }
  T *operator->() { return &value(); }
  const T *operator->() const { return &value(); }

  /// Moves the contained value out. Only valid when ok().
  T takeValue() {
    assert(ok() && "takeValue() on a failed Result");
    return std::move(*Value);
  }

  /// Returns the error (success if ok()).
  const Error &error() const { return Err; }

  /// Moves the error out. Only valid when !ok().
  Error takeError() {
    assert(!ok() && "takeError() on a successful Result");
    return std::move(Err);
  }

private:
  std::optional<T> Value;
  Error Err;
};

} // namespace swa

#endif // SWA_SUPPORT_ERROR_H
