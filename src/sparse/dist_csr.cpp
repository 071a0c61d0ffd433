#include "sparse/dist_csr.hpp"

#include "sparse/spmv.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <map>
#include <stdexcept>

namespace tsbo::sparse {

DistCsr::DistCsr(const CsrMatrix& global, const RowPartition& partition,
                 int rank)
    : rank_(rank), partition_(partition.n(), partition.nranks()) {
  const ord begin = partition_.begin(rank);
  const ord end = partition_.end(rank);
  local_ = extract_rows(global, begin, end);

  // Collect off-rank (ghost) column ids.
  std::vector<ord> ghosts;
  for (const ord c : local_.col_idx) {
    if (c < begin || c >= end) ghosts.push_back(c);
  }
  std::sort(ghosts.begin(), ghosts.end());
  ghosts.erase(std::unique(ghosts.begin(), ghosts.end()), ghosts.end());
  ghost_gid_ = std::move(ghosts);

  // Remap columns: own rows -> [0, nlocal), ghosts -> nlocal + slot.
  const ord nlocal = end - begin;
  for (ord& c : local_.col_idx) {
    if (c >= begin && c < end) {
      c -= begin;
    } else {
      const auto it =
          std::lower_bound(ghost_gid_.begin(), ghost_gid_.end(), c);
      c = nlocal + static_cast<ord>(it - ghost_gid_.begin());
    }
  }
  local_.cols = nlocal + static_cast<ord>(ghost_gid_.size());

  // Deterministic interior/boundary split: a row is interior iff every
  // column it touches is owned (< nlocal).  Consecutive rows of one kind
  // form a run of local_ itself, so the split stores no second copy of
  // a row and each run streams the rows in place.
  for (ord i = 0; i < local_.rows; ++i) {
    bool has_ghost = false;
    for (offset k = local_.row_ptr[i]; k < local_.row_ptr[i + 1]; ++k) {
      if (local_.col_idx[static_cast<std::size_t>(k)] >= nlocal) {
        has_ghost = true;
        break;
      }
    }
    std::vector<RowRange>& runs = has_ghost ? boundary_ : interior_;
    if (!runs.empty() && runs.back().end == i) {
      runs.back().end = i + 1;
    } else {
      runs.push_back({i, i + 1});
    }
  }

  ghost_owner_.resize(ghost_gid_.size());
  ghost_peer_offset_.resize(ghost_gid_.size());
  std::map<int, std::size_t> per_peer;
  for (std::size_t g = 0; g < ghost_gid_.size(); ++g) {
    const int owner = partition_.owner(ghost_gid_[g]);
    ghost_owner_[g] = owner;
    ghost_peer_offset_[g] = ghost_gid_[g] - partition_.begin(owner);
    per_peer[owner] += 1;
  }
  // Per-peer pull sizes feed NetworkModel::p2p_round_seconds: the round
  // costs the sum over peers (single-port injection), not the max.
  peer_ghosts_.reserve(per_peer.size());
  for (const auto& [peer, count] : per_peer) {
    peer_ghosts_.push_back(count);
  }
  peer_bytes_.resize(peer_ghosts_.size());

  xbuf_.resize(static_cast<std::size_t>(local_.cols));
}

CsrMatrix DistCsr::local_diagonal_block() const {
  const ord n = local_.rows;
  std::vector<Triplet> t;
  t.reserve(static_cast<std::size_t>(local_.nnz()));
  // Interior rows hold no ghost columns by construction: copy verbatim.
  for (const RowRange& run : interior_) {
    for (ord i = run.begin; i < run.end; ++i) {
      for (offset k = local_.row_ptr[i]; k < local_.row_ptr[i + 1]; ++k) {
        t.push_back({i, local_.col_idx[static_cast<std::size_t>(k)],
                     local_.values[static_cast<std::size_t>(k)]});
      }
    }
  }
  // Boundary rows: drop the ghost columns (block Jacobi across ranks).
  for (const RowRange& run : boundary_) {
    for (ord i = run.begin; i < run.end; ++i) {
      for (offset k = local_.row_ptr[i]; k < local_.row_ptr[i + 1]; ++k) {
        const ord j = local_.col_idx[static_cast<std::size_t>(k)];
        if (j < n) {
          t.push_back({i, j, local_.values[static_cast<std::size_t>(k)]});
        }
      }
    }
  }
  return csr_from_triplets(n, n, std::move(t));
}

void DistCsr::fill_ghosts(par::Communicator& comm, ord k) const {
  // Column t of ghost g is entry t * n_local(owner) + offset of the
  // owner's published block.
  const auto nlocal = static_cast<std::size_t>(n_local());
  const auto ld = static_cast<std::size_t>(local_.cols);
  for (std::size_t g = 0; g < ghost_gid_.size(); ++g) {
    const int owner = ghost_owner_[g];
    const std::span<const double> src = comm.peer_buffer(owner);
    const auto src_ld = static_cast<std::size_t>(partition_.local_rows(owner));
    const auto off = static_cast<std::size_t>(ghost_peer_offset_[g]);
    for (std::size_t t = 0; t < static_cast<std::size_t>(k); ++t) {
      xbuf_[t * ld + nlocal + g] = src[t * src_ld + off];
    }
  }
}

void DistCsr::apply(par::Communicator& comm, dense::ConstMatrixView x_local,
                    dense::MatrixView y_local,
                    util::PhaseTimers* timers) const {
  const auto nlocal = static_cast<std::size_t>(n_local());
  const ord k = x_local.cols;
  assert(static_cast<std::size_t>(x_local.rows) == nlocal);
  assert(static_cast<std::size_t>(y_local.rows) == nlocal);
  assert(y_local.cols == k && k >= 1);
  if (k > 1 && static_cast<std::size_t>(x_local.ld) != nlocal) {
    throw std::invalid_argument(
        "DistCsr::apply: the columns of X must be contiguous (ld == n_local)");
  }
  const auto ld = static_cast<std::size_t>(local_.cols);
  xbuf_.resize(ld * static_cast<std::size_t>(k));
  const auto run_rows = [&](std::span<const RowRange> runs) {
    for (const RowRange& run : runs) {
      for (ord t = 0; t < k; ++t) {
        spmv_rows(local_, run.begin, run.end,
                  {xbuf_.data() + static_cast<std::size_t>(t) * ld, ld},
                  {y_local.col(t), nlocal});
      }
    }
  };
  const bool exchange = comm.size() > 1;
  // Split-phase apply: open the exchange, multiply the interior rows
  // while the modeled halo latency progresses, then gather the ghosts,
  // close the exchange (which discounts the interior compute from the
  // injected latency), and finish the boundary rows.
  if (exchange) {
    if (timers) timers->start("spmv/comm");
    comm.exchange_begin({x_local.data, nlocal * static_cast<std::size_t>(k)});
    if (timers) timers->stop("spmv/comm");
  }
  if (timers) timers->start("spmv/local");
  for (ord t = 0; t < k; ++t) {
    std::memcpy(xbuf_.data() + static_cast<std::size_t>(t) * ld,
                x_local.col(t), nlocal * sizeof(double));
  }
  run_rows(interior_);
  if (exchange) {
    if (timers) {
      timers->stop("spmv/local");
      timers->start("spmv/comm");
    }
    fill_ghosts(comm, k);
    const std::size_t col_bytes = static_cast<std::size_t>(k) * sizeof(double);
    for (std::size_t p = 0; p < peer_ghosts_.size(); ++p) {
      peer_bytes_[p] = peer_ghosts_[p] * col_bytes;
    }
    comm.exchange_end(peer_bytes_, ghost_gid_.size() * col_bytes);
    if (timers) {
      timers->stop("spmv/comm");
      timers->start("spmv/local");
    }
  }
  run_rows(boundary_);
  if (timers) timers->stop("spmv/local");
  // One fault consult per apply (not per column): a corrupt addresses
  // the global row in column 0.
  consult_spmv_faults(comm, {y_local.data, nlocal});
}

void DistCsr::spmv(par::Communicator& comm, std::span<const double> x_local,
                   std::span<double> y_local, util::PhaseTimers* timers) const {
  const auto n = static_cast<dense::index_t>(x_local.size());
  apply(comm, {x_local.data(), n, 1, n}, {y_local.data(), n, 1, n}, timers);
}

void DistCsr::consult_spmv_faults(par::Communicator& comm,
                                  std::span<double> y_local) const {
  par::FaultInjector* injector = comm.fault_injector();
  if (injector == nullptr) return;
  // Both spmv-layer sites are consulted once per apply, after every row
  // is written and the exchange window is closed: a throw fires on all
  // ranks with no half-open exchange (the piece stays reusable by a
  // retry), and a corrupt addresses a GLOBAL row — only the owner of
  // row (ordinal mod n) flips its local entry — so the corrupted
  // vector, and the whole downstream trajectory, is bitwise-identical
  // at any rank count.  `comm.exchange` is consulted here rather than
  // inside exchange_begin so its ordinal stream also exists at
  // ranks=1, where no exchange happens.
  const long n = static_cast<long>(n_global());
  const long begin = static_cast<long>(row_begin());
  const long nloc = static_cast<long>(n_local());
  const auto corrupt = [&](long ordinal) {
    const long g = ordinal % n;
    if (g >= begin && g < begin + nloc) {
      par::FaultInjector::flip_bit(y_local[static_cast<std::size_t>(g - begin)]);
    }
  };
  injector->consult(comm.rank(), par::FaultSite::kSpmvInterior, corrupt);
  injector->consult(comm.rank(), par::FaultSite::kCommExchange, corrupt);
}

}  // namespace tsbo::sparse
