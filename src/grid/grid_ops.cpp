#include "grid/grid_ops.h"

#include <algorithm>
#include <cmath>

#include "grid/level.h"

namespace pbmg::grid {

namespace {

void check_same_size(const Grid2D& a, const Grid2D& b, const char* what) {
  PBMG_CHECK(a.n() == b.n(), std::string(what) + ": grid size mismatch");
}

void check_valid(const Grid2D& g, const char* what) {
  PBMG_CHECK(is_valid_grid_size(g.n()),
             std::string(what) + ": grid size must be 2^k + 1");
}

void zero_boundary(Grid2D& g) {
  const int n = g.n();
  for (int j = 0; j < n; ++j) {
    g(0, j) = 0.0;
    g(n - 1, j) = 0.0;
  }
  for (int i = 0; i < n; ++i) {
    g(i, 0) = 0.0;
    g(i, n - 1) = 0.0;
  }
}

}  // namespace

void apply_poisson(const Grid2D& x, Grid2D& out, rt::Scheduler& sched) {
  check_valid(x, "apply_poisson");
  check_same_size(x, out, "apply_poisson");
  const int n = x.n();
  const double inv_h2 = static_cast<double>(n - 1) * static_cast<double>(n - 1);
  sched.parallel_for(1, n - 1, sched.grain_for(n - 2, n - 2),
                     [&](std::int64_t ib, std::int64_t ie) {
                       for (int i = static_cast<int>(ib);
                            i < static_cast<int>(ie); ++i) {
                         const double* up = x.row(i - 1);
                         const double* mid = x.row(i);
                         const double* down = x.row(i + 1);
                         double* o = out.row(i);
                         for (int j = 1; j < n - 1; ++j) {
                           o[j] = (4.0 * mid[j] - up[j] - down[j] -
                                   mid[j - 1] - mid[j + 1]) *
                                  inv_h2;
                         }
                       }
                     });
  zero_boundary(out);
}

void residual(const Grid2D& x, const Grid2D& b, Grid2D& r,
              rt::Scheduler& sched) {
  check_valid(x, "residual");
  check_same_size(x, b, "residual");
  check_same_size(x, r, "residual");
  const int n = x.n();
  const double inv_h2 = static_cast<double>(n - 1) * static_cast<double>(n - 1);
  sched.parallel_for(1, n - 1, sched.grain_for(n - 2, n - 2),
                     [&](std::int64_t ib, std::int64_t ie) {
                       for (int i = static_cast<int>(ib);
                            i < static_cast<int>(ie); ++i) {
                         const double* up = x.row(i - 1);
                         const double* mid = x.row(i);
                         const double* down = x.row(i + 1);
                         const double* rhs = b.row(i);
                         double* o = r.row(i);
                         for (int j = 1; j < n - 1; ++j) {
                           o[j] = rhs[j] - (4.0 * mid[j] - up[j] - down[j] -
                                            mid[j - 1] - mid[j + 1]) *
                                               inv_h2;
                         }
                       }
                     });
  zero_boundary(r);
}

namespace {

/// Shared variable-coefficient stencil loop; WithRhs selects residual
/// (rhs − A·x) versus plain application (A·x).  The accumulation order of
/// the generic path mirrors the Poisson kernels term for term, so a
/// variable operator whose coefficients happen to be exactly 1 (c = 0)
/// reproduces the fast path to the last ulp.
template <bool WithRhs>
void stencil_loop(const StencilOp& op, const Grid2D& x, const Grid2D* b,
                  Grid2D& out, rt::Scheduler& sched) {
  const int n = x.n();
  const double inv_h2 = static_cast<double>(n - 1) * static_cast<double>(n - 1);
  const double c = op.c();
  const Grid2D& ax = op.ax_grid();
  const Grid2D& ay = op.ay_grid();
  sched.parallel_for(
      1, n - 1, sched.grain_for(n - 2, n - 2),
      [&](std::int64_t ib, std::int64_t ie) {
        for (int i = static_cast<int>(ib); i < static_cast<int>(ie); ++i) {
          const double* up = x.row(i - 1);
          const double* mid = x.row(i);
          const double* down = x.row(i + 1);
          const double* axr = ax.row(i);      // aW = axr[j-1], aE = axr[j]
          const double* ay_up = ay.row(i - 1);  // aN = ay_up[j]
          const double* ay_dn = ay.row(i);      // aS = ay_dn[j]
          const double* rhs = WithRhs ? b->row(i) : nullptr;
          double* o = out.row(i);
          for (int j = 1; j < n - 1; ++j) {
            const double aw = axr[j - 1];
            const double ae = axr[j];
            const double an = ay_up[j];
            const double as = ay_dn[j];
            const double diag = ((aw + ae) + an) + as;
            const double av = (diag * mid[j] - an * up[j] - as * down[j] -
                               aw * mid[j - 1] - ae * mid[j + 1]) *
                                  inv_h2 +
                              c * mid[j];
            if constexpr (WithRhs) o[j] = rhs[j] - av;
            else o[j] = av;
          }
        }
      });
  zero_boundary(out);
}

/// 9-point variant: corner couplings and the explicit centre coefficient
/// join the accumulation (see stencil_op.h for the coupling layout).  The
/// 5-point loop above stays untouched so operators without corners keep
/// their bitwise-stable code path.
template <bool WithRhs>
void stencil_loop9(const StencilOp& op, const Grid2D& x, const Grid2D* b,
                   Grid2D& out, rt::Scheduler& sched) {
  const int n = x.n();
  const double inv_h2 = static_cast<double>(n - 1) * static_cast<double>(n - 1);
  const double c = op.c();
  sched.parallel_for(
      1, n - 1, sched.grain_for(n - 2, n - 2),
      [&](std::int64_t ib, std::int64_t ie) {
        for (int i = static_cast<int>(ib); i < static_cast<int>(ie); ++i) {
          const double* up = x.row(i - 1);
          const double* mid = x.row(i);
          const double* down = x.row(i + 1);
          const NinePointRows rows(op, i);
          const double* rhs = WithRhs ? b->row(i) : nullptr;
          double* o = out.row(i);
          for (int j = 1; j < n - 1; ++j) {
            const double nb = rows.neighbour_sum(up, mid, down, j);
            const double av =
                (rows.center[j] * mid[j] - nb) * inv_h2 + c * mid[j];
            if constexpr (WithRhs) o[j] = rhs[j] - av;
            else o[j] = av;
          }
        }
      });
  zero_boundary(out);
}

}  // namespace

void apply_op(const StencilOp& op, const Grid2D& x, Grid2D& out,
              rt::Scheduler& sched) {
  check_valid(x, "apply_op");
  check_same_size(x, out, "apply_op");
  PBMG_CHECK(op.n() == x.n(), "apply_op: operator/grid size mismatch");
  if (op.is_poisson()) {
    apply_poisson(x, out, sched);
    return;
  }
  if (op.is_nine_point()) {
    stencil_loop9<false>(op, x, nullptr, out, sched);
    return;
  }
  stencil_loop<false>(op, x, nullptr, out, sched);
}

void residual_op(const StencilOp& op, const Grid2D& x, const Grid2D& b,
                 Grid2D& r, rt::Scheduler& sched,
                 const KernelPolicy& kernels) {
  validate_kernel_policy(kernels);
  check_valid(x, "residual_op");
  check_same_size(x, b, "residual_op");
  check_same_size(x, r, "residual_op");
  PBMG_CHECK(op.n() == x.n(), "residual_op: operator/grid size mismatch");
  if (op.is_poisson()) {
    residual(x, b, r, sched);
    return;
  }
  if (op.is_nine_point()) {
    stencil_loop9<true>(op, x, &b, r, sched);
    return;
  }
  stencil_loop<true>(op, x, &b, r, sched);
}

void restrict_full_weighting(const Grid2D& fine, Grid2D& coarse,
                             rt::Scheduler& sched) {
  check_valid(fine, "restrict_full_weighting");
  PBMG_CHECK(coarse.n() == coarse_size(fine.n()),
             "restrict_full_weighting: coarse grid has wrong size");
  const int nc = coarse.n();
  sched.parallel_for(
      1, nc - 1, sched.grain_for(nc - 2, 4 * (nc - 2)),
      [&](std::int64_t ib, std::int64_t ie) {
        for (int ci = static_cast<int>(ib); ci < static_cast<int>(ie); ++ci) {
          const int fi = 2 * ci;
          const double* up = fine.row(fi - 1);
          const double* mid = fine.row(fi);
          const double* down = fine.row(fi + 1);
          double* out = coarse.row(ci);
          for (int cj = 1; cj < nc - 1; ++cj) {
            const int fj = 2 * cj;
            out[cj] = (4.0 * mid[fj] +
                       2.0 * (up[fj] + down[fj] + mid[fj - 1] + mid[fj + 1]) +
                       up[fj - 1] + up[fj + 1] + down[fj - 1] + down[fj + 1]) *
                      (1.0 / 16.0);
          }
        }
      });
  zero_boundary(coarse);
}

void restrict_inject(const Grid2D& fine, Grid2D& coarse,
                     rt::Scheduler& sched) {
  check_valid(fine, "restrict_inject");
  PBMG_CHECK(coarse.n() == coarse_size(fine.n()),
             "restrict_inject: coarse grid has wrong size");
  const int nc = coarse.n();
  sched.parallel_for(0, nc, sched.grain_for(nc, nc),
                     [&](std::int64_t ib, std::int64_t ie) {
                       for (int ci = static_cast<int>(ib);
                            ci < static_cast<int>(ie); ++ci) {
                         const double* src = fine.row(2 * ci);
                         double* out = coarse.row(ci);
                         for (int cj = 0; cj < nc; ++cj) {
                           out[cj] = src[2 * cj];
                         }
                       }
                     });
}

namespace {

/// Shared bilinear-interpolation loop; Assign selects overwrite vs add.
template <bool Assign>
void interpolate_impl(const Grid2D& coarse, Grid2D& fine,
                      rt::Scheduler& sched) {
  PBMG_CHECK(coarse.n() == coarse_size(fine.n()),
             "interpolate: coarse grid has wrong size");
  const int n = fine.n();
  sched.parallel_for(
      1, n - 1, sched.grain_for(n - 2, n - 2),
      [&](std::int64_t ib, std::int64_t ie) {
        for (int i = static_cast<int>(ib); i < static_cast<int>(ie); ++i) {
          double* out = fine.row(i);
          if (i % 2 == 0) {
            const double* c = coarse.row(i / 2);
            for (int j = 1; j < n - 1; ++j) {
              const double v = (j % 2 == 0)
                                   ? c[j / 2]
                                   : 0.5 * (c[j / 2] + c[j / 2 + 1]);
              if constexpr (Assign) out[j] = v;
              else out[j] += v;
            }
          } else {
            const double* c0 = coarse.row(i / 2);
            const double* c1 = coarse.row(i / 2 + 1);
            for (int j = 1; j < n - 1; ++j) {
              const double v =
                  (j % 2 == 0)
                      ? 0.5 * (c0[j / 2] + c1[j / 2])
                      : 0.25 * (c0[j / 2] + c0[j / 2 + 1] + c1[j / 2] +
                                c1[j / 2 + 1]);
              if constexpr (Assign) out[j] = v;
              else out[j] += v;
            }
          }
        }
      });
}

}  // namespace

void interpolate_add(const Grid2D& coarse, Grid2D& fine,
                     rt::Scheduler& sched) {
  check_valid(fine, "interpolate_add");
  interpolate_impl<false>(coarse, fine, sched);
}

void interpolate_assign(const Grid2D& coarse, Grid2D& fine,
                        rt::Scheduler& sched) {
  check_valid(fine, "interpolate_assign");
  interpolate_impl<true>(coarse, fine, sched);
}

double norm2_interior(const Grid2D& g, rt::Scheduler& sched) {
  const int n = g.n();
  if (n <= 2) return 0.0;
  const double sum = sched.parallel_reduce_sum(
      1, n - 1, sched.grain_for(n - 2, n - 2),
      [&](std::int64_t ib, std::int64_t ie) {
        double acc = 0.0;
        for (int i = static_cast<int>(ib); i < static_cast<int>(ie); ++i) {
          const double* r = g.row(i);
          for (int j = 1; j < n - 1; ++j) acc += r[j] * r[j];
        }
        return acc;
      });
  return std::sqrt(sum);
}

double norm2_diff_interior(const Grid2D& a, const Grid2D& b,
                           rt::Scheduler& sched) {
  check_same_size(a, b, "norm2_diff_interior");
  const int n = a.n();
  if (n <= 2) return 0.0;
  const double sum = sched.parallel_reduce_sum(
      1, n - 1, sched.grain_for(n - 2, n - 2),
      [&](std::int64_t ib, std::int64_t ie) {
        double acc = 0.0;
        for (int i = static_cast<int>(ib); i < static_cast<int>(ie); ++i) {
          const double* ra = a.row(i);
          const double* rb = b.row(i);
          for (int j = 1; j < n - 1; ++j) {
            const double d = ra[j] - rb[j];
            acc += d * d;
          }
        }
        return acc;
      });
  return std::sqrt(sum);
}

double max_abs_interior(const Grid2D& g, rt::Scheduler& sched) {
  const int n = g.n();
  if (n <= 2) return 0.0;
  // Reduce via max encoded in a sum-free way: compute per-chunk maxima and
  // combine under a mutex inside the chunk function.
  std::mutex mutex;
  double result = 0.0;
  sched.parallel_for(1, n - 1, sched.grain_for(n - 2, n - 2),
                     [&](std::int64_t ib, std::int64_t ie) {
                       double local = 0.0;
                       for (int i = static_cast<int>(ib);
                            i < static_cast<int>(ie); ++i) {
                         const double* r = g.row(i);
                         for (int j = 1; j < n - 1; ++j) {
                           local = std::max(local, std::abs(r[j]));
                         }
                       }
                       std::lock_guard<std::mutex> lock(mutex);
                       result = std::max(result, local);
                     });
  return result;
}

void axpy_interior(double alpha, const Grid2D& x, Grid2D& y,
                   rt::Scheduler& sched) {
  check_same_size(x, y, "axpy_interior");
  const int n = x.n();
  sched.parallel_for(1, n - 1, sched.grain_for(n - 2, n - 2),
                     [&](std::int64_t ib, std::int64_t ie) {
                       for (int i = static_cast<int>(ib);
                            i < static_cast<int>(ie); ++i) {
                         const double* xr = x.row(i);
                         double* yr = y.row(i);
                         for (int j = 1; j < n - 1; ++j) {
                           yr[j] += alpha * xr[j];
                         }
                       }
                     });
}

}  // namespace pbmg::grid
