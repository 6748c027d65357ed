// Load-time ISA dispatch for the GP's hot linalg kernels (linalg-private).
//
// SDL_LINALG_SIMD_CLONES compiles one function twice from its one source:
// a baseline x86-64 copy ("default") and an AVX2 copy. An ifunc resolver
// picks the copy once, when the program loads, from the CPU it runs on.
// Only the vector width differs between the copies. -ffp-contract=off
// (root CMakeLists) and the absence of an FMA target keep every element's
// multiplies and adds the same operations in the same order, so the two
// copies return the same bits (tests/test_solver.cpp PinnedBitsAcrossCpus).
//
// A cloned function must be a noexcept leaf that holds its loops itself:
// a helper it calls that the compiler does not inline stays a single
// baseline function, so helpers are force-inlined. Size checks and
// throws stay in the public caller. GCC cannot clone a constructor.
//
// The macro expands to nothing off GCC/x86-64/ELF, and under
// ThreadSanitizer: GCC 12's ifunc resolvers run before the TSan runtime
// is up, and the program crashes at startup.
#pragma once

#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && \
    defined(__ELF__) && !defined(__SANITIZE_THREAD__)
#define SDL_LINALG_SIMD_CLONES [[gnu::target_clones("avx2", "default")]]
#else
#define SDL_LINALG_SIMD_CLONES
#endif
