#pragma once

#include <vector>

#include "grid/grid2d.h"
#include "grid/stencil_op.h"
#include "linalg/band_matrix.h"

/// \file poisson_assembly.h
/// Assembly of the 2-D elliptic systems as band matrices.
///
/// Interior unknowns of an n×n grid are ordered lexicographically
/// (idx = (i−1)·(n−2) + (j−1)), giving an SPD band matrix of dimension
/// (n−2)² with bandwidth n−2 — exactly the system the paper hands to
/// LAPACK's DPBSV in its Direct method.  Dirichlet boundary values are
/// lifted into the right-hand side.  The variable-coefficient entry
/// points assemble the same band structure from a grid::StencilOp; the
/// Poisson-named functions remain the specialised constant-coefficient
/// path.

namespace pbmg::linalg {

/// Assembles A = (4·u − Σ neighbours)/h², h = 1/(n−1) — the operator
/// grid::apply_poisson applies — for grid side n.
/// Requires n = 2^k + 1, n >= 3.
BandMatrix assemble_poisson_band(int n);

/// Builds the right-hand-side vector for interior unknowns from the grid
/// RHS `b` and the Dirichlet ring carried by `x_boundary` (only its ring is
/// read).  Requires matching valid sizes.
std::vector<double> gather_poisson_rhs(const Grid2D& b,
                                       const Grid2D& x_boundary);

/// Writes a solution vector (interior, lexicographic) into the interior of
/// `out`.  Requires out.n() consistent with x.size() == (n−2)².
void scatter_interior(const std::vector<double>& x, Grid2D& out);

/// Assembles a variable-coefficient operator (see stencil_op.h) as an SPD
/// band matrix: diag = center/h² + c, east/south off-diagonals −ax/h²,
/// −ay/h².  A 9-point operator additionally stores its south-west/south-
/// east corner couplings at offsets m∓1 (bandwidth m+1, m = n−2).  For
/// the Poisson fast path this reproduces assemble_poisson_band exactly.
BandMatrix assemble_stencil_band(const grid::StencilOp& op);

/// Right-hand-side vector for a variable-coefficient operator: boundary
/// lifting uses the actual edge coefficient of each boundary-crossing
/// edge.  For the Poisson fast path this reproduces gather_poisson_rhs.
std::vector<double> gather_stencil_rhs(const grid::StencilOp& op,
                                       const Grid2D& b,
                                       const Grid2D& x_boundary);

}  // namespace pbmg::linalg
