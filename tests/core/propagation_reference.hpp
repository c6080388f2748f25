// Reference step 3 doubling: the all-dense recurrence, kept as the oracle
// for core/propagation.cpp.
//
// The engine's SpectralLimit doubling starts on CSR kernels and densifies
// once the state's fill passes 20%. This reference runs the same
// max-renormalized recurrence S(2m) = S(m) + W^m S(m) on the blocked dense
// Matrix kernels from the first step, then pair-normalizes the sum as the
// engine does. tests/core/test_determinism.cpp pins the engine's closure
// to it bit for bit, wherever the engine switches representation.
#pragma once

#include "core/propagation.hpp"
#include "graph/preference_graph.hpp"
#include "util/matrix.hpp"

namespace crowdrank {

/// The SpectralLimit closure of `smoothed` for an explicit
/// `config.spectral_horizon` (>= 2), computed densely from step one.
Matrix dense_doubling_closure(const PreferenceGraph& smoothed,
                              const PropagationConfig& config);

}  // namespace crowdrank
