#include "ortho/measures.hpp"

#include "dense/blas3.hpp"
#include "dense/svd.hpp"

#include <cassert>
#include <span>

namespace tsbo::ortho {

dense::Matrix gather_multivector(par::Communicator* comm,
                                 dense::ConstMatrixView local, int root) {
  if (comm == nullptr || comm->size() == 1) {
    return dense::copy_of(local);
  }
  // Row counts first (tiny), then the data blocks.
  const double my_rows = static_cast<double>(local.rows);
  std::vector<double> counts = comm->gather(std::span(&my_rows, 1), root);

  // Pack my block contiguously (column-major local block).
  dense::Matrix packed = dense::copy_of(local);
  std::vector<double> all = comm->gather(
      std::span<const double>(packed.data().data(), packed.data().size()),
      root);

  if (comm->rank() != root) return {};

  dense::index_t total_rows = 0;
  for (const double c : counts) total_rows += static_cast<dense::index_t>(c);
  dense::Matrix out(total_rows, local.cols);

  std::size_t offset = 0;
  dense::index_t row0 = 0;
  for (const double c : counts) {
    const auto rows_r = static_cast<dense::index_t>(c);
    for (dense::index_t j = 0; j < local.cols; ++j) {
      for (dense::index_t i = 0; i < rows_r; ++i) {
        out(row0 + i, j) =
            all[offset + static_cast<std::size_t>(j) * rows_r + i];
      }
    }
    offset += static_cast<std::size_t>(rows_r) * local.cols;
    row0 += rows_r;
  }
  return out;
}

double orthogonality_error(OrthoContext& ctx, dense::ConstMatrixView q_local) {
  dense::Matrix g(q_local.cols, q_local.cols);
  block_gram(ctx, q_local, g.view());
  for (dense::index_t j = 0; j < g.cols(); ++j) g(j, j) -= 1.0;
  return dense::norm_2(g.view());
}

double condition_number(OrthoContext& ctx, dense::ConstMatrixView local) {
  if (ctx.comm == nullptr || ctx.comm->size() == 1) {
    return dense::cond_2(local);
  }
  dense::Matrix full = gather_multivector(ctx.comm, local, 0);
  double kappa = 0.0;
  if (ctx.comm->rank() == 0) kappa = dense::cond_2(full.view());
  ctx.comm->broadcast(std::span(&kappa, 1), 0);
  return kappa;
}

}  // namespace tsbo::ortho
