#pragma once

#include "grid/grid2d.h"
#include "grid/stencil_op.h"
#include "runtime/scheduler.h"

/// \file grid_ops.h
/// Numerical kernels on grids: the 5-point Laplacian, residuals, norms, and
/// the inter-grid transfer operators used by every multigrid variant.
///
/// Conventions:
///  - the discrete operator on an n×n grid is
///      (A x)(i,j) = (4·x(i,j) − x(i±1,j) − x(i,j±1)) / h²,  h = 1/(n−1);
///  - interior cells are (1..n−2)²; the boundary ring carries Dirichlet data;
///  - restriction is full weighting, interpolation is bilinear.
///
/// Every kernel takes the scheduler explicitly so callers control which
/// machine profile executes (the tuner measures under the active profile).

namespace pbmg::grid {

/// out(i,j) = (A x)(i,j) on the interior; out's boundary ring is zeroed.
/// Requires x and out to be the same valid size.
void apply_poisson(const Grid2D& x, Grid2D& out, rt::Scheduler& sched);

/// r = b − A x on the interior; r's boundary ring is zeroed.
/// Requires all three grids to share the same valid size.
void residual(const Grid2D& x, const Grid2D& b, Grid2D& r,
              rt::Scheduler& sched);

/// out(i,j) = (A x)(i,j) for a variable-coefficient operator (see
/// stencil_op.h); out's boundary ring is zeroed.  The Poisson fast path
/// dispatches to apply_poisson, bit-for-bit, and a 5-point operator keeps
/// its pre-9-point loop bit-for-bit; 9-point operators take the corner-
/// coupled kernel.  Requires x.n() == op.n().
void apply_op(const StencilOp& op, const Grid2D& x, Grid2D& out,
              rt::Scheduler& sched);

/// r = b − A x for a variable-coefficient operator; r's boundary ring is
/// zeroed.  The Poisson fast path dispatches to residual(), bit-for-bit.
/// `kernels` must name the legacy layout (validate_kernel_policy throws
/// InvalidArgument otherwise).
void residual_op(const StencilOp& op, const Grid2D& x, const Grid2D& b,
                 Grid2D& r, rt::Scheduler& sched,
                 const KernelPolicy& kernels = {});

/// Full-weighting restriction of the fine interior onto the coarse grid:
/// coarse(I,J) = 1/16 · [1 2 1; 2 4 2; 1 2 1] stencil at fine (2I, 2J).
/// The coarse boundary ring is zeroed (restriction is applied to residuals,
/// whose error equation has homogeneous Dirichlet boundaries).
/// Requires coarse.n() == coarse_size(fine.n()).
void restrict_full_weighting(const Grid2D& fine, Grid2D& coarse,
                             rt::Scheduler& sched);

/// Injection restriction: coarse(I,J) = fine(2I,2J) over the whole grid,
/// boundary included.  Used by full multigrid to coarsen the *problem*
/// (boundary conditions travel by injection).
void restrict_inject(const Grid2D& fine, Grid2D& coarse,
                     rt::Scheduler& sched);

/// Adds the bilinear interpolation of `coarse` to the fine interior:
/// fine += P·coarse.  Used for coarse-grid corrections.  The fine boundary
/// ring is untouched.  Requires coarse.n() == coarse_size(fine.n()).
void interpolate_add(const Grid2D& coarse, Grid2D& fine,
                     rt::Scheduler& sched);

/// Overwrites the fine interior with the bilinear interpolation of
/// `coarse`: fine = P·coarse.  Used by full multigrid to lift a coarse
/// solution into an initial guess.  The fine boundary ring is untouched.
void interpolate_assign(const Grid2D& coarse, Grid2D& fine,
                        rt::Scheduler& sched);

/// Discrete L2 norm over the interior: sqrt(Σ g(i,j)²).
double norm2_interior(const Grid2D& g, rt::Scheduler& sched);

/// Discrete L2 norm of (a − b) over the interior.
/// Requires matching sizes.
double norm2_diff_interior(const Grid2D& a, const Grid2D& b,
                           rt::Scheduler& sched);

/// Largest absolute interior value.
double max_abs_interior(const Grid2D& g, rt::Scheduler& sched);

/// axpy on the interior: y += alpha · x.  Requires matching sizes.
void axpy_interior(double alpha, const Grid2D& x, Grid2D& y,
                   rt::Scheduler& sched);

}  // namespace pbmg::grid
