// Clang Thread Safety Analysis (TSA) annotation macros.
//
// These compile the locking discipline into the type system: a member
// declared CR_GUARDED_BY(mu) cannot be read or written unless the
// capability `mu` is statically held, a function declared CR_REQUIRES(mu)
// cannot be called without it, and the `thread-safety` CMake preset
// (-Wthread-safety -Werror=thread-safety-analysis, clang only) turns any
// violation into a compile error. See DESIGN.md "Concurrency contracts &
// layering" for the per-module lock map and how to annotate new state.
//
// The macro set mirrors the vocabulary of the official mutex.h from the
// clang documentation (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html)
// with a CR_ prefix. Off clang — GCC builds, MSVC, anything without the
// attribute — every macro expands to nothing, so the annotations are pure
// documentation there and the tier-1 GCC build is unaffected.
//
// Known limits, and what this codebase does about them:
//  * TSA is intra-procedural and cannot model lock-free protocols. The
//    flight-recorder seqlock (src/obs/flight_recorder.hpp) stays on raw
//    atomics with explicit memory_order arguments and a documented
//    protocol comment; its runtime witness is the torn-read test.
//  * Constructors/destructors are not analyzed, and conditional or
//    address-ordered double locking cannot be expressed — such functions
//    carry CR_NO_THREAD_SAFETY_ANALYSIS with a comment explaining why the
//    discipline holds anyway (today only CondVar's wait internals).
#pragma once

#if defined(__clang__) && !defined(SWIG)
#define CR_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define CR_THREAD_ANNOTATION_(x)  // no-op off clang
#endif

/// Marks a class as a capability (e.g. CR_CAPABILITY("mutex")). The string
/// names the capability kind in diagnostics.
#define CR_CAPABILITY(x) CR_THREAD_ANNOTATION_(capability(x))

/// Marks an RAII class whose lifetime acquires/releases a capability.
#define CR_SCOPED_CAPABILITY CR_THREAD_ANNOTATION_(scoped_lockable)

/// Data member readable/writable only while holding the named capability.
#define CR_GUARDED_BY(x) CR_THREAD_ANNOTATION_(guarded_by(x))

/// Pointer member whose *pointee* is guarded by the named capability.
#define CR_PT_GUARDED_BY(x) CR_THREAD_ANNOTATION_(pt_guarded_by(x))

/// Declares lock-acquisition ordering between capabilities.
#define CR_ACQUIRED_BEFORE(...) \
  CR_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define CR_ACQUIRED_AFTER(...) \
  CR_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))

/// Function precondition: the caller must hold the capability (still held
/// on return).
#define CR_REQUIRES(...) \
  CR_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define CR_REQUIRES_SHARED(...) \
  CR_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))

/// Function acquires the capability (not held on entry, held on return).
#define CR_ACQUIRE(...) CR_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define CR_ACQUIRE_SHARED(...) \
  CR_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))

/// Function releases the capability (held on entry, not held on return).
#define CR_RELEASE(...) CR_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define CR_RELEASE_SHARED(...) \
  CR_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))

/// Function attempts the acquisition; the first argument is the return
/// value meaning "acquired" (e.g. CR_TRY_ACQUIRE(true)).
#define CR_TRY_ACQUIRE(...) \
  CR_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

/// Function must NOT be called while holding the capability (deadlock
/// documentation; catches re-entrant locking at compile time).
#define CR_EXCLUDES(...) CR_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Runtime assertion that the capability is held (informs the analysis
/// without acquiring).
#define CR_ASSERT_CAPABILITY(x) CR_THREAD_ANNOTATION_(assert_capability(x))

/// Function returns a reference to the named capability.
#define CR_RETURN_CAPABILITY(x) CR_THREAD_ANNOTATION_(lock_returned(x))

/// Escape hatch: the function body is not analyzed. Every use in src/ must
/// carry a comment explaining why the locking discipline holds anyway.
#define CR_NO_THREAD_SAFETY_ANALYSIS \
  CR_THREAD_ANNOTATION_(no_thread_safety_analysis)
