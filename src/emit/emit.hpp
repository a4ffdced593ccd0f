#pragma once
// Source emitters: render a test kernel as a complete, self-contained
// CUDA (.cu) or HIP (.hip) translation unit, matching the artifacts Varity
// writes to disk (paper §III-B: kernel + main() that reads inputs from
// argv, allocates/initializes device arrays, launches <<<1,1>>> and prints
// comp with %.17g).
//
// The emitted text is what the HIPIFY experiment translates; goldens in
// tests/ lock the exact shape.

#include <string>

#include "ir/program.hpp"

namespace gpudiff::emit {

/// Kernel function only (the paper's Fig. 2 view).
std::string emit_kernel(const ir::Program& program);

/// Full CUDA translation unit.
std::string emit_cuda(const ir::Program& program);

/// Full HIP translation unit (what the extended Varity generates natively).
std::string emit_hip(const ir::Program& program);

}  // namespace gpudiff::emit
