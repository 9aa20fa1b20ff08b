// Precondition / postcondition checking in the spirit of GSL Expects/Ensures.
//
// Violations indicate programming errors, not recoverable conditions, so they
// terminate via std::abort after printing the failed expression and location.
#pragma once

#include <cstdio>
#include <cstdlib>

namespace saath::detail {

[[noreturn]] inline void contract_violation(const char* kind, const char* expr,
                                            const char* file, int line) {
  std::fprintf(stderr, "%s violation: (%s) at %s:%d\n", kind, expr, file, line);
  std::abort();
}

[[noreturn]] inline void contract_violation_msg(const char* kind,
                                                const char* expr,
                                                const char* msg,
                                                const char* file, int line) {
  std::fprintf(stderr, "%s violation: (%s) at %s:%d — %s\n", kind, expr, file,
               line, msg);
  std::abort();
}

}  // namespace saath::detail

// ---------------------------------------------------------------------------
// Hot-path attribute macros. These are behavior-neutral (attributes only
// affect optimizer placement, never results) but they are also *markers* the
// static lint (tools/lint/saath_lint.py) keys on:
//
//  - SAATH_HOT marks a function as optimizer-hot (block placement, inlining
//    budget). No lint contract — hot functions may allocate scratch.
//  - SAATH_HOT_NOALLOC additionally asserts the steady-state allocation
//    contract (tests/alloc_steady_test.cc checks it at runtime): the lint's
//    `hot-alloc` check statically rejects `new` / make_unique / make_shared /
//    malloc and growth calls on function-local containers that were never
//    `reserve`d inside the annotated body. Member containers are exempt —
//    they recycle capacity across epochs, which is exactly what the runtime
//    probe verifies.
//  - SAATH_COLD marks error/report paths so they stay out of hot I-cache.
//  - SAATH_INLINE forces a per-element helper lambda inline. Place it after
//    the lambda's parameter list. GCC's size heuristics flip on unrelated
//    edits to the enclosing function, and an outlined per-flow call cost the
//    conservation walk about 10%.
//
// Place the other macros at the start of the function *definition* (before
// the return type); the lint associates the contract with the body that
// follows.
#if defined(__GNUC__) || defined(__clang__)
#define SAATH_HOT [[gnu::hot]]
#define SAATH_COLD [[gnu::cold]]
#define SAATH_INLINE __attribute__((always_inline))
#else
#define SAATH_HOT
#define SAATH_COLD
#define SAATH_INLINE
#endif
#define SAATH_HOT_NOALLOC SAATH_HOT

#define SAATH_EXPECTS(cond)                                                  \
  ((cond) ? void(0)                                                          \
          : ::saath::detail::contract_violation("precondition", #cond,       \
                                                __FILE__, __LINE__))

#define SAATH_ENSURES(cond)                                                  \
  ((cond) ? void(0)                                                          \
          : ::saath::detail::contract_violation("postcondition", #cond,      \
                                                __FILE__, __LINE__))

/// Precondition with a caller-facing message naming the fix (e.g. which API
/// replaces a misused one). `msg` must be a string literal.
#define SAATH_EXPECTS_MSG(cond, msg)                                         \
  ((cond) ? void(0)                                                          \
          : ::saath::detail::contract_violation_msg("precondition", #cond,   \
                                                    msg, __FILE__, __LINE__))
