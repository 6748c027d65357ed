// Clang thread-safety analysis attributes behind portability macros.
//
// The concurrency invariants of this codebase (which mutex guards which
// state) are written into the types themselves via these annotations, so
// `clang -Wthread-safety` turns "forgot the lock" into a compile error.
// On compilers without the attribute (GCC) every macro expands to
// nothing — the annotations are documentation there, and ThreadSanitizer
// (the `tsan` CMake preset) provides the dynamic check instead.
//
// The macro set mirrors the standard capability vocabulary
// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html), prefixed
// SDL_ to stay out of other libraries' namespaces. They only attach to
// the annotated wrappers in support/mutex.hpp: libstdc++'s std::mutex
// is not a capability, so annotating it directly would be inert.
#pragma once

#if defined(__clang__) && defined(__has_attribute)
#define SDL_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define SDL_THREAD_ANNOTATION(x)
#endif

/// Marks a type as a lockable capability (mutexes).
#define SDL_CAPABILITY(x) SDL_THREAD_ANNOTATION(capability(x))

/// Marks an RAII type that acquires a capability for its lifetime.
#define SDL_SCOPED_CAPABILITY SDL_THREAD_ANNOTATION(scoped_lockable)

/// Data member readable/writable only while holding `x`.
#define SDL_GUARDED_BY(x) SDL_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member whose *pointee* is guarded by `x`.
#define SDL_PT_GUARDED_BY(x) SDL_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function that must be called with the capabilities held.
#define SDL_REQUIRES(...) SDL_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function that acquires the capabilities and returns holding them.
#define SDL_ACQUIRE(...) SDL_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function that releases the capabilities.
#define SDL_RELEASE(...) SDL_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function that acquires the capability when it returns `ret`.
#define SDL_TRY_ACQUIRE(ret, ...) \
    SDL_THREAD_ANNOTATION(try_acquire_capability(ret, __VA_ARGS__))

/// Function that must NOT be called while holding the capabilities.
#define SDL_EXCLUDES(...) SDL_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Escape hatch for code the analysis cannot model; use sparingly and
/// say why at the call site.
#define SDL_NO_THREAD_SAFETY_ANALYSIS \
    SDL_THREAD_ANNOTATION(no_thread_safety_analysis)
