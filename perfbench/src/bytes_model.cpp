#include "bytes_model.h"

namespace perfbench {

StencilShape shape_of(const pbmg::grid::StencilOp& op,
                      pbmg::grid::StencilLayout layout) {
  return StencilShape{op.is_poisson(), op.is_nine_point(),
                      layout == pbmg::grid::StencilLayout::kPacked};
}

int coefficient_streams(const StencilShape& shape) {
  if (shape.poisson) return 0;
  if (shape.packed) return shape.nine_point ? 9 : 5;
  return shape.nine_point ? 5 : 2;
}

int line_passes(pbmg::solvers::RelaxKind kind) {
  return kind == pbmg::solvers::RelaxKind::kLineZebraAlt ? 2 : 1;
}

std::int64_t computed_bytes(Sweep sweep, const StencilShape& shape, int n,
                            pbmg::solvers::RelaxKind kind) {
  const std::int64_t interior = std::int64_t{n - 2} * (n - 2);
  const int coeff = coefficient_streams(shape);
  int words = 0;
  switch (sweep) {
    case Sweep::kResidual:
      words = 3 + coeff;  // x, b read; r written
      break;
    case Sweep::kSor:
      words = 3 + coeff;  // b read; x read and written
      break;
    case Sweep::kLine:
      // b read, x read and written, workspace written and read back.
      words = line_passes(kind) * (5 + coeff);
      break;
  }
  return interior * words * 8;
}

}  // namespace perfbench
