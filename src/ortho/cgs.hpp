#pragma once
// Column-wise Gram-Schmidt for standard GMRES (the paper's baseline
// "GMRES + CGS2", Table III).

#include "ortho/multivector.hpp"

#include <span>

namespace tsbo::ortho {

/// Classical Gram-Schmidt with re-orthogonalization: orthogonalizes v
/// against the q columns of Q and normalizes it.  Writes q + 1 values
/// into h (projection coefficients, then the norm).  3 global reduces
/// (2 projection passes + 1 norm) — BLAS-2, the standard-GMRES cost the
/// block algorithms beat.
void cgs2_step(OrthoContext& ctx, ConstMatrixView q, std::span<double> v,
               std::span<double> h);

}  // namespace tsbo::ortho
