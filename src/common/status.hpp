// Minimal Status / Result error-handling vocabulary.
//
// The emulator is exception-free on its hot paths: device operations
// return `Status` or `Result<T>` so callers (the workload runner, tests)
// can branch on error codes the way a block layer branches on errno.
#pragma once

#include <cassert>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace conzone {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,   ///< Malformed request (misaligned, bad id).
  kOutOfRange,        ///< Address beyond the device or zone capacity.
  kFailedPrecondition,///< Operation illegal in current state (e.g. zone FULL).
  kResourceExhausted, ///< No free blocks / buffers / open-zone slots.
  kUnimplemented,
  kInternal,          ///< Emulator invariant violation (a bug).
  kMediaError,        ///< NAND fault: program/erase failure on the media.
};

std::string_view StatusCodeName(StatusCode code);

namespace internal {
/// Abort with a message. Status/Result misuse (reading the value of an
/// error result) is a logic bug that must fail loudly in Release builds
/// too — an `assert` compiles out and silently reads an empty optional.
[[noreturn]] void FailFast(const char* what);
}  // namespace internal

// OK is represented as a null rep so the success path — every per-IO
// return — costs one pointer move and no string traffic; only the error
// path (which aborts the run anyway) pays for an allocation.
class [[nodiscard]] Status {
 public:
  Status() = default;  // OK.
  Status(StatusCode code, std::string message)
      : rep_(code == StatusCode::kOk
                 ? nullptr
                 : std::make_unique<Rep>(Rep{code, std::move(message)})) {}

  Status(const Status& other)
      : rep_(other.rep_ ? std::make_unique<Rep>(*other.rep_) : nullptr) {}
  Status& operator=(const Status& other) {
    rep_ = other.rep_ ? std::make_unique<Rep>(*other.rep_) : nullptr;
    return *this;
  }
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status MediaError(std::string msg) {
    return Status(StatusCode::kMediaError, std::move(msg));
  }

  bool ok() const { return rep_ == nullptr; }
  StatusCode code() const { return rep_ ? rep_->code : StatusCode::kOk; }
  const std::string& message() const {
    static const std::string kEmpty;
    return rep_ ? rep_->message : kEmpty;
  }
  std::string ToString() const;

 private:
  struct Rep {
    StatusCode code;
    std::string message;
  };
  std::unique_ptr<Rep> rep_;
};

template <class T>
class [[nodiscard]] Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT: implicit by design.
  Result(Status status) : status_(std::move(status)) {
    if (status_.ok()) {
      internal::FailFast("Result constructed from OK status without a value");
    }
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    CheckOk();
    return *value_;
  }
  T& value() & {
    CheckOk();
    return *value_;
  }
  T&& value() && {
    CheckOk();
    return std::move(*value_);
  }
  const T& operator*() const& { return value(); }
  const T* operator->() const { return &value(); }

 private:
  void CheckOk() const {
    if (!ok()) internal::FailFast("Result::value() called on an error result");
  }

  Status status_;
  std::optional<T> value_;
};

}  // namespace conzone
