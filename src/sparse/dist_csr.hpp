#pragma once
// Distributed CSR with halo exchange (Tpetra-style import).
//
// Each rank owns a contiguous block of rows (1-D block row format); the
// off-rank vector entries its rows touch are "ghosts" gathered by a
// neighbor exchange before every product.  This is the paper's standard
// (non-communication-avoiding) matrix-powers substrate: SpMV applied s
// times in sequence, each with neighborhood communication (Section III).
//
// One distributed product, apply(): Y = A X over a column-major
// n_local x k block, with ONE neighbor exchange for all k columns.
// spmv() is its one-column call.  The local rows are split into
// ascending runs of INTERIOR rows (touching only owned columns) and
// BOUNDARY rows (at least one ghost column) of the one stored matrix.
// apply() runs exchange_begin -> interior runs -> ghost gather +
// exchange_end -> boundary runs, hiding the modeled p2p latency behind
// the interior rows exactly like an MPI code posting Irecv/Isend
// around its interior sweep.  Every run and column goes through
// spmv_rows, so column t of an apply is bitwise spmv() of column t,
// and both equal the unsplit product, at any k, rank and thread
// count.

#include "dense/matrix.hpp"
#include "par/communicator.hpp"
#include "sparse/csr.hpp"
#include "sparse/partition.hpp"
#include "util/timer.hpp"
#include "util/aligned.hpp"

#include <span>
#include <vector>

namespace tsbo::sparse {

/// A run [begin, end) of consecutive local rows.
struct RowRange {
  ord begin = 0;
  ord end = 0;
};

class DistCsr {
 public:
  /// Builds rank `rank`'s piece of `global` (the global matrix is only
  /// read, not retained).  All ranks must use the same partition.
  DistCsr(const CsrMatrix& global, const RowPartition& partition, int rank);

  [[nodiscard]] ord n_global() const { return partition_.n(); }
  [[nodiscard]] ord n_local() const { return local_.rows; }
  [[nodiscard]] ord n_ghost() const { return static_cast<ord>(ghost_gid_.size()); }
  [[nodiscard]] ord row_begin() const { return partition_.begin(rank_); }
  [[nodiscard]] const RowPartition& partition() const { return partition_; }
  [[nodiscard]] const CsrMatrix& local_matrix() const { return local_; }
  /// Global nnz summed over ranks (identical on all ranks).
  [[nodiscard]] offset nnz_local() const { return local_.nnz(); }

  /// Interior/boundary row split (ghost-free vs ghost-touching local
  /// rows) as ascending runs over local_matrix(); together they cover
  /// every local row once.  Exposed for tests.
  [[nodiscard]] std::span<const RowRange> interior_ranges() const {
    return interior_;
  }
  [[nodiscard]] std::span<const RowRange> boundary_ranges() const {
    return boundary_;
  }

  /// Ghost-stripped rank-local diagonal block (block-Jacobi substrate
  /// shared by the local preconditioners).  Interior rows are copied
  /// verbatim — by construction they hold no ghost columns — and only
  /// boundary rows are filtered; entry order per row is preserved, so
  /// the result is identical to filtering every row.
  [[nodiscard]] CsrMatrix local_diagonal_block() const;

  /// Y = A X on the rank-local row blocks of a column-major n_local x k
  /// block, with compute-communication overlap: one neighbor exchange
  /// is opened on `comm` for all k columns, the interior rows are
  /// multiplied while the modeled halo latency progresses, then the
  /// ghosts are gathered and the boundary rows finish.  Each peer
  /// message carries k times the one-column volume.  The owned block
  /// is published as it is (zero copy), so its columns must be stored
  /// contiguously: k == 1 or x_local.ld == n_local (throws otherwise).
  /// `timers` (optional) receives "spmv/comm" and "spmv/local" phases.
  void apply(par::Communicator& comm, dense::ConstMatrixView x_local,
             dense::MatrixView y_local,
             util::PhaseTimers* timers = nullptr) const;

  /// y_local = A x: the one-column apply().
  void spmv(par::Communicator& comm, std::span<const double> x_local,
            std::span<double> y_local, util::PhaseTimers* timers = nullptr) const;

  /// Approximate heap footprint of this rank's piece: the one stored
  /// CSR block, the row runs, the ghost/comm-plan arrays, and the halo
  /// buffer.  Used by the operator cache's byte budget.
  [[nodiscard]] std::size_t footprint_bytes() const {
    return local_.storage_bytes() +
           (interior_.capacity() + boundary_.capacity()) * sizeof(RowRange) +
           (ghost_gid_.capacity() + ghost_peer_offset_.capacity()) *
               sizeof(ord) +
           ghost_owner_.capacity() * sizeof(int) +
           (peer_ghosts_.capacity() + peer_bytes_.capacity()) *
               sizeof(std::size_t) +
           xbuf_.capacity() * sizeof(double);
  }

 private:
  /// Copies the k columns of peers' published values into the ghost
  /// tails of xbuf_; valid only between exchange_begin and exchange_end.
  void fill_ghosts(par::Communicator& comm, ord k) const;

  /// Fault seam of apply(): consults the `spmv.interior` and
  /// `comm.exchange` sites once per apply on the completed first
  /// column (see the definition for the rank-count-invariance
  /// argument).
  void consult_spmv_faults(par::Communicator& comm,
                           std::span<double> y_local) const;

  int rank_;
  RowPartition partition_;
  CsrMatrix local_;  // columns remapped: [0,nlocal) own, then ghosts
  std::vector<RowRange> interior_;  // runs of ghost-free local rows
  std::vector<RowRange> boundary_;  // runs of ghost-touching local rows
  std::vector<ord> ghost_gid_;  // sorted global ids of ghost columns
  std::vector<int> ghost_owner_;
  std::vector<ord> ghost_peer_offset_;  // gid - peer row_begin
  std::vector<std::size_t> peer_ghosts_;  // ghost count per peer
  // Per-apply scratch: the per-peer pull sizes of a k-column exchange,
  // and the halo buffer, k columns of [owned | ghosts] (stride
  // local_.cols).
  mutable std::vector<std::size_t> peer_bytes_;
  mutable util::aligned_vector<double> xbuf_;
};

}  // namespace tsbo::sparse
