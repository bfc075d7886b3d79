// error.h -- error handling primitives shared by every agora module.
//
// We deliberately use exceptions for *programming errors and unsatisfiable
// preconditions* (bad model construction, dimension mismatches) and
// agora::Status for *expected outcomes* (an infeasible LP is not an error).
// Every exception type here carries the StatusCode it maps to, so layers
// that must not throw across a boundary (the wire service's pump, the
// engine's future-based submit results) convert with to_status() instead of
// string-matching what() -- see DESIGN.md §11.5 for the full mapping.
#pragma once

#include <cstdio>
#include <stdexcept>
#include <string>

#include "util/status.h"

namespace agora {

/// Thrown when a caller violates an API precondition (bad dimensions,
/// out-of-range principal ids, malformed agreement matrices, ...).
class PreconditionError : public std::logic_error {
 public:
  explicit PreconditionError(const std::string& what) : std::logic_error(what) {}
  StatusCode code() const { return StatusCode::InvalidArgument; }
};

/// Thrown when an internal invariant is violated; indicates a bug in agora.
class InternalError : public std::logic_error {
 public:
  explicit InternalError(const std::string& what) : std::logic_error(what) {}
  StatusCode code() const { return StatusCode::Internal; }
};

/// Thrown for I/O failures (trace files, CSV output).
class IoError : public std::runtime_error {
 public:
  explicit IoError(const std::string& what) : std::runtime_error(what) {}
  StatusCode code() const { return StatusCode::Io; }
};

/// The Status a caught agora exception denotes; unknown exception types map
/// to Internal (they indicate a bug escaping through an agora API).
inline Status to_status(const std::exception& e) {
  if (const auto* p = dynamic_cast<const PreconditionError*>(&e))
    return Status(p->code(), p->what());
  if (const auto* i = dynamic_cast<const InternalError*>(&e))
    return Status(i->code(), i->what());
  if (const auto* io = dynamic_cast<const IoError*>(&e)) return Status(io->code(), io->what());
  return Status::internal(e.what());
}

namespace detail {
[[noreturn]] inline void require_failed(const char* cond, const char* file, int line,
                                        const std::string& msg) {
  std::string full = std::string("precondition failed: ") + cond + " at " + file + ":" +
                     std::to_string(line);
  if (!msg.empty()) full += " -- " + msg;
  throw PreconditionError(full);
}

[[noreturn]] inline void invariant_failed(const char* cond, const char* file, int line,
                                          const std::string& msg) {
  std::string full = std::string("invariant violated: ") + cond + " at " + file + ":" +
                     std::to_string(line);
  if (!msg.empty()) full += " -- " + msg;
  throw InternalError(full);
}
}  // namespace detail

/// Precondition check: always on (cheap relative to the work the APIs do).
#define AGORA_REQUIRE(cond, msg)                                          \
  do {                                                                    \
    if (!(cond)) ::agora::detail::require_failed(#cond, __FILE__, __LINE__, (msg)); \
  } while (0)

/// Internal invariant check.
#define AGORA_INVARIANT(cond, msg)                                          \
  do {                                                                      \
    if (!(cond)) ::agora::detail::invariant_failed(#cond, __FILE__, __LINE__, (msg)); \
  } while (0)

}  // namespace agora
