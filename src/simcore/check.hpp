// Invariant checking helpers.
//
// Per the C++ Core Guidelines (I.6/I.8, E.12) we express preconditions and
// invariants as checked expressions that throw on violation. Exceptions
// (rather than abort) let tests assert that violations are detected.
//
// ensure() sits on the simulator's hottest paths (every event push/pop and
// every frame a VMM claims or releases runs through it), so the success
// path must cost exactly one predicted branch whatever the message. A
// fixed message stays a const char*. A message built at run time (naming a
// frame, a domain, a path) is passed as a callable that returns it; the
// callable runs, and its std::string is built, only when the check fails.
// Either way the exception is materialized in the out-of-line, cold throw
// helper.
#pragma once

#include <stdexcept>
#include <string>
#include <type_traits>

namespace rh {

/// Thrown when a simulator invariant or precondition is violated.
class InvariantViolation : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Cold path: constructs and throws InvariantViolation. Out of line so
/// ensure() inlines to a bare test-and-branch.
[[noreturn]] void throw_invariant_violation(const char* message);

/// Throws InvariantViolation with `message` unless `condition` holds.
inline void ensure(bool condition, const char* message) {
  if (!condition) [[unlikely]] {
    throw_invariant_violation(message);
  }
}

/// Throws InvariantViolation with the message `make_message()` returns
/// unless `condition` holds. The message is built only on failure:
///   ensure(free, [&] { return "frame " + std::to_string(mfn) + " busy"; });
template <typename MakeMessage>
  requires std::is_invocable_r_v<std::string, MakeMessage&>
inline void ensure(bool condition, MakeMessage&& make_message) {
  if (!condition) [[unlikely]] {
    throw_invariant_violation(std::string(make_message()).c_str());
  }
}

}  // namespace rh
