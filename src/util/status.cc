#include "util/status.h"

namespace steghide {

std::string_view StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kAlreadyExists:
      return "AlreadyExists";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kNoSpace:
      return "NoSpace";
    case StatusCode::kCorruption:
      return "Corruption";
    case StatusCode::kPermissionDenied:
      return "PermissionDenied";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
    case StatusCode::kIoError:
      return "IoError";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kDeadlineExceeded:
      return "DeadlineExceeded";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out(StatusCodeToString(code_));
  out += ": ";
  out += message_;
  return out;
}

}  // namespace steghide
