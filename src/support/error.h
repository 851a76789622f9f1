#pragma once
// Structured error hierarchy for the whole toolflow (header-only; every
// subsystem already has src/ on its include path). Replaces the bare
// std::runtime_error throws that used to escape the front end, the optimizer
// and the simulators, so callers — the hetacc CLI above all — can map a
// failure to a category (and a distinct process exit code) instead of
// printing an uncategorized what().
//
// Categories and CLI exit codes:
//   kParse      (2)  malformed input text: prototxt, strategy CSV
//   kValidate   (2)  structurally invalid network/config (degenerate shapes)
//   kInfeasible (3)  the optimizer proved no strategy fits the constraints
//   kFault      (4)  a fault-injection campaign detected an unrecovered
//                    hardware fault (wedged FIFO, uncorrectable burst, ...)
//   kServe      (5)  the serving runtime refused or abandoned a request
//                    (queue full, deadline blown, run cancelled, request
//                    failed on a degraded rung) — the request-lifecycle
//                    analogue of kFault
//   kInternal   (1)  invariant violation inside the toolflow itself

#include <stdexcept>
#include <string>

namespace hetacc {

enum class ErrorCategory : std::uint8_t {
  kParse,
  kValidate,
  kInfeasible,
  kFault,
  kServe,
  kInternal,
};

[[nodiscard]] constexpr std::string_view to_string(ErrorCategory c) {
  switch (c) {
    case ErrorCategory::kParse: return "parse";
    case ErrorCategory::kValidate: return "validate";
    case ErrorCategory::kInfeasible: return "infeasible";
    case ErrorCategory::kFault: return "fault";
    case ErrorCategory::kServe: return "serve";
    case ErrorCategory::kInternal: return "internal";
  }
  return "?";
}

/// Process exit code the CLI maps a category to.
[[nodiscard]] constexpr int exit_code(ErrorCategory c) {
  switch (c) {
    case ErrorCategory::kParse:
    case ErrorCategory::kValidate: return 2;
    case ErrorCategory::kInfeasible: return 3;
    case ErrorCategory::kFault: return 4;
    case ErrorCategory::kServe: return 5;
    case ErrorCategory::kInternal: return 1;
  }
  return 1;
}

class Error : public std::runtime_error {
 public:
  Error(ErrorCategory category, const std::string& message,
        std::string context = "")
      : std::runtime_error(context.empty() ? message
                                           : context + ": " + message),
        category_(category),
        context_(std::move(context)) {}

  [[nodiscard]] ErrorCategory category() const { return category_; }
  /// Where the error arose (file/line for parses, layer/stage for faults).
  [[nodiscard]] const std::string& context() const { return context_; }
  [[nodiscard]] int exit_code() const { return hetacc::exit_code(category_); }

 private:
  ErrorCategory category_;
  std::string context_;
};

/// Malformed input text. `line` is 1-based when known, 0 otherwise.
class ParseError : public Error {
 public:
  explicit ParseError(const std::string& message, int line = 0)
      : Error(ErrorCategory::kParse, message,
              line > 0 ? "line " + std::to_string(line) : ""),
        line_(line) {}

  [[nodiscard]] int line() const { return line_; }

 private:
  int line_;
};

/// Structurally invalid network or configuration (degenerate shapes,
/// out-of-range parameters) caught before the cost model can divide by zero.
class ValidationError : public Error {
 public:
  explicit ValidationError(const std::string& message, std::string where = "")
      : Error(ErrorCategory::kValidate, message, std::move(where)) {}
};

/// The optimizer proved no strategy satisfies the constraints; `reason`
/// carries the diagnosable cause (budget below minimum, no fusible range...).
class InfeasibleError : public Error {
 public:
  explicit InfeasibleError(const std::string& reason)
      : Error(ErrorCategory::kInfeasible, reason) {}
};

/// A modeled hardware fault that the protection layer could not absorb.
/// `stage` names the engine/FIFO/transaction where it surfaced; `unit` is
/// the numeric identity within that stage (FIFO channel, burst index,
/// weight panel) and `attempts` how many recovery attempts were spent
/// before escalating. The serving layer keys its retry/downgrade decisions
/// on this payload, so throw sites should always fill it in.
class FaultError : public Error {
 public:
  explicit FaultError(const std::string& message, std::string stage = "",
                      long long unit = -1, int attempts = 0)
      : Error(ErrorCategory::kFault, message, std::move(stage)),
        unit_(unit),
        attempts_(attempts) {}

  [[nodiscard]] const std::string& stage() const { return context(); }
  /// Channel / burst / panel index inside the stage; -1 when not applicable.
  [[nodiscard]] long long unit() const { return unit_; }
  /// Recovery attempts consumed before the fault escalated (0 = none made).
  [[nodiscard]] int attempts() const { return attempts_; }

 private:
  long long unit_;
  int attempts_;
};

/// The serving runtime refused, shed, or abandoned a request. `reason`
/// distinguishes admission rejection (bounded queue full) from deadline
/// load-shedding from mid-run cancellation, so clients can decide whether
/// to back off, re-submit, or give up.
class ServeError : public Error {
 public:
  enum class Reason : std::uint8_t {
    kQueueFull,   ///< admission control: bounded queue at capacity
    kDeadline,    ///< request was already past its deadline (shed)
    kCancelled,   ///< in-flight run cancelled via the pipeline cancel hook
    kShutdown,    ///< server is draining; no new work accepted
    kConfig,      ///< invalid serving configuration / trace
  };

  ServeError(Reason reason, const std::string& message,
             std::string context = "")
      : Error(ErrorCategory::kServe, message, std::move(context)),
        reason_(reason) {}

  [[nodiscard]] Reason reason() const { return reason_; }

 private:
  Reason reason_;
};

[[nodiscard]] constexpr std::string_view to_string(ServeError::Reason r) {
  switch (r) {
    case ServeError::Reason::kQueueFull: return "queue_full";
    case ServeError::Reason::kDeadline: return "deadline";
    case ServeError::Reason::kCancelled: return "cancelled";
    case ServeError::Reason::kShutdown: return "shutdown";
    case ServeError::Reason::kConfig: return "config";
  }
  return "?";
}

}  // namespace hetacc
