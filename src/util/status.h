#ifndef STEGHIDE_UTIL_STATUS_H_
#define STEGHIDE_UTIL_STATUS_H_

#include <string>
#include <string_view>
#include <utility>

namespace steghide {

/// Error categories used across the library. Modeled after the
/// RocksDB/Arrow convention: functions that can fail return a Status (or a
/// Result<T>, see result.h) instead of throwing.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kNoSpace,
  kCorruption,
  kPermissionDenied,
  kFailedPrecondition,
  kIoError,
  kInternal,
  kDeadlineExceeded,
};

/// Returns a human-readable name for `code` (e.g. "InvalidArgument").
std::string_view StatusCodeToString(StatusCode code);

/// A cheap value type describing the outcome of an operation.
///
/// The OK status carries no allocation; error statuses carry a code and a
/// message. Statuses are copyable and movable.
class Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status NoSpace(std::string msg) {
    return Status(StatusCode::kNoSpace, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status PermissionDenied(std::string msg) {
    return Status(StatusCode::kPermissionDenied, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsDeadlineExceeded() const {
    return code_ == StatusCode::kDeadlineExceeded;
  }

  /// "OK" or "<Code>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Propagates a non-OK status to the caller.
#define STEGHIDE_RETURN_IF_ERROR(expr)             \
  do {                                             \
    ::steghide::Status _st = (expr);               \
    if (!_st.ok()) return _st;                     \
  } while (0)

}  // namespace steghide

#endif  // STEGHIDE_UTIL_STATUS_H_
