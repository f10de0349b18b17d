// Clang Thread Safety Analysis annotations (no-ops on other compilers).
//
// These macros attach the static lock-discipline contract to the code
// itself: which mutex guards which field, which capability a function
// requires, what a scoped lock acquires. Under clang the contract is
// machine-checked on every translation unit by `-Wthread-safety`
// (scripts/ci.sh --analyze builds src/ with -Wthread-safety -Werror);
// under gcc the macros expand to nothing and the annotations remain pure
// documentation. See docs/STATIC_ANALYSIS.md for the conventions and
// https://clang.llvm.org/docs/ThreadSafetyAnalysis.html for the model.
//
// Use the annotated wrapper types in util/mutex.h — std::mutex itself
// carries no capability attributes under libstdc++, so the analysis only
// fires on pta::Mutex and its scoped lock.

#ifndef PTA_UTIL_THREAD_ANNOTATIONS_H_
#define PTA_UTIL_THREAD_ANNOTATIONS_H_

#if defined(__clang__) && !defined(SWIG)
#define PTA_THREAD_ANNOTATION_ATTRIBUTE(x) __attribute__((x))
#else
#define PTA_THREAD_ANNOTATION_ATTRIBUTE(x)  // no-op off clang
#endif

/// Marks a class as a lockable capability ("mutex", ...).
#define PTA_CAPABILITY(x) PTA_THREAD_ANNOTATION_ATTRIBUTE(capability(x))

/// Marks an RAII class whose constructor acquires and destructor releases.
#define PTA_SCOPED_CAPABILITY PTA_THREAD_ANNOTATION_ATTRIBUTE(scoped_lockable)

/// Data member readable/writable only while holding `x`.
#define PTA_GUARDED_BY(x) PTA_THREAD_ANNOTATION_ATTRIBUTE(guarded_by(x))

/// Pointer member whose *pointee* is guarded by `x`.
#define PTA_PT_GUARDED_BY(x) PTA_THREAD_ANNOTATION_ATTRIBUTE(pt_guarded_by(x))

/// Function requires the capability held exclusively on entry.
#define PTA_REQUIRES(...) \
  PTA_THREAD_ANNOTATION_ATTRIBUTE(requires_capability(__VA_ARGS__))

/// Function acquires the capability exclusively (and did not hold it).
#define PTA_ACQUIRE(...) \
  PTA_THREAD_ANNOTATION_ATTRIBUTE(acquire_capability(__VA_ARGS__))

/// Function releases the (exclusively held) capability.
#define PTA_RELEASE(...) \
  PTA_THREAD_ANNOTATION_ATTRIBUTE(release_capability(__VA_ARGS__))

/// Function attempts the acquisition; first argument is the success value.
#define PTA_TRY_ACQUIRE(...) \
  PTA_THREAD_ANNOTATION_ATTRIBUTE(try_acquire_capability(__VA_ARGS__))

/// Caller must NOT hold the capability (non-reentrancy / deadlock guard).
#define PTA_EXCLUDES(...) \
  PTA_THREAD_ANNOTATION_ATTRIBUTE(locks_excluded(__VA_ARGS__))

/// Asserts (at runtime) that the capability is held; informs the analysis.
#define PTA_ASSERT_CAPABILITY(x) \
  PTA_THREAD_ANNOTATION_ATTRIBUTE(assert_capability(x))

/// Function returns a reference to the named capability.
#define PTA_RETURN_CAPABILITY(x) \
  PTA_THREAD_ANNOTATION_ATTRIBUTE(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Every use MUST
/// carry a comment stating why the contract cannot be expressed
/// (docs/STATIC_ANALYSIS.md, "Suppression policy").
#define PTA_NO_THREAD_SAFETY_ANALYSIS \
  PTA_THREAD_ANNOTATION_ATTRIBUTE(no_thread_safety_analysis)

#endif  // PTA_UTIL_THREAD_ANNOTATIONS_H_
