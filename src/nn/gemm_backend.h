/// \file
/// The name of the GEMM kernel set behind the nn/matrix.h entry points, for
/// provenance lines. The kernels themselves (native-width register tiles
/// from nn/simd.h, run on the caller's thread) live in nn/gemm_backend.cpp
/// and are the only GEMM implementation.
#pragma once

#include <string>

namespace tpuperf::nn {

/// Always "builtin".
std::string CurrentGemmBackendName();

}  // namespace tpuperf::nn
