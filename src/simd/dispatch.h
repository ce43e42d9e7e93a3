// Runtime backend selection for the vector kernels (simd/kernels.h).
//
// The decision is made once, on first use, and never changes:
//   1. Built for a non-x86-64 target — the AVX2 backend does not exist
//      in the binary; everything is scalar.
//   2. WGRAP_SIMD=0|off|false in the environment — compiled in but
//      disabled at runtime (the kill-switch idiom WGRAP_OBS and
//      WGRAP_FAILPOINTS use).
//   3. Otherwise: AVX2 iff the CPU reports both AVX2 and FMA.
//
// Whatever is chosen, results are byte-identical: the AVX2 kernels
// vectorize only comparison/selection structure, never the order of
// floating-point accumulation (the contract simd/kernels.h documents and
// tests/simd_kernel_test.cc enforces). The choice is observable — not
// because outputs differ, but so perf numbers are attributable: the
// `wgrap_simd_backend_avx2` gauge (0/1) and ActiveBackendName() for
// `solve --verbose`.
#ifndef WGRAP_SIMD_DISPATCH_H_
#define WGRAP_SIMD_DISPATCH_H_

namespace wgrap::simd {

enum class Backend {
  kScalar,
  kAvx2,
};

/// The backend every dispatched kernel in simd/kernels.h uses, resolved
/// once on first call (thread-safe; cheap afterwards).
Backend ActiveBackend();

/// "scalar" / "avx2".
const char* BackendName(Backend backend);

/// BackendName(ActiveBackend()).
const char* ActiveBackendName();

/// True when the AVX2 backend exists in this binary and is enabled (i.e.
/// ActiveBackend() == kAvx2). The kernels branch on this.
inline bool UseAvx2() { return ActiveBackend() == Backend::kAvx2; }

}  // namespace wgrap::simd

#endif  // WGRAP_SIMD_DISPATCH_H_
