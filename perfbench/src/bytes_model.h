#pragma once

#include <cstdint>

#include "grid/stencil_op.h"
#include "solvers/relax.h"

/// \file bytes_model.h
/// Computed (analytic) bytes one kernel sweep streams, used to turn a
/// timed sweep into achieved GB/s.  These are model bytes, not measured
/// traffic: every interior point touches each stream it reads or writes
/// exactly once per pass, 8 bytes per access, with neighbour reuse and
/// write-allocate traffic ignored (the STREAM convention).

namespace perfbench {

/// The kernels the benchmark probes.
enum class Sweep {
  kResidual,  ///< grid::residual_op: reads x, b, coefficients; writes r
  kSor,       ///< solvers::sor_sweep (red + black): reads b, coefficients;
              ///< reads and writes x
  kLine,      ///< solvers::line_relax_sweep: as kSor plus the Thomas
              ///< workspace written and read back, once per line pass
};

/// What decides a sweep's coefficient streams.
struct StencilShape {
  bool poisson = true;     ///< constant-coefficient fast path (no streams)
  bool nine_point = false; ///< corner couplings present
  bool packed = false;     ///< grid::StencilLayout::kPacked
};

/// Shape of `op` under kernel layout `layout`.
StencilShape shape_of(const pbmg::grid::StencilOp& op,
                      pbmg::grid::StencilLayout layout);

/// Coefficient grids a sweep streams: 0 on the Poisson fast path; legacy
/// 5-point ax, ay (2) and 9-point ax, ay, ase, asw, centre (5); packed
/// 5-point aW, aE, aN, aS, diag (5) and 9-point 4 sides + 4 corners +
/// centre (9).
int coefficient_streams(const StencilShape& shape);

/// Line passes per sweep: 2 for the alternating zebra smoother, else 1.
int line_passes(pbmg::solvers::RelaxKind kind);

/// Computed bytes of one sweep on an n×n grid ((n−2)² interior points).
/// `kind` matters only for Sweep::kLine.
std::int64_t computed_bytes(
    Sweep sweep, const StencilShape& shape, int n,
    pbmg::solvers::RelaxKind kind = pbmg::solvers::RelaxKind::kLineX);

}  // namespace perfbench
