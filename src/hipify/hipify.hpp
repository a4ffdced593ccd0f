#pragma once
// HIPIFY: CUDA -> HIP source translation (a functional model of AMD's
// hipify-perl for the construct set our emitter generates).
//
// The paper's third experiment (Tables VII/VIII) runs HIPIFY-converted
// CUDA tests against nvcc and compares with natively generated HIP tests.
// Translation covers: runtime API renames (cudaMalloc -> hipMalloc, ...),
// the <<<grid, block>>> launch syntax -> hipLaunchKernelGGL, and header
// rewrites.  Numerical consequences of compiling *converted* sources are
// modeled on the compiler side (opt::pipeline_key's hipify_converted binds
// hipcc-based platforms to the CUDA-compat math wrapper — see
// vmath/compat_math.cpp).

#include <string>
#include <vector>

namespace gpudiff::hipify {

struct HipifyResult {
  std::string source;                 ///< translated HIP source
  int replacements = 0;               ///< API spellings rewritten
  int launches_converted = 0;         ///< <<< >>> sites rewritten
  std::vector<std::string> warnings;  ///< constructs passed through untouched
};

/// Translate a CUDA translation unit to HIP.
HipifyResult hipify_source(const std::string& cuda_source);

}  // namespace gpudiff::hipify
