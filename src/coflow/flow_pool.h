// Structure-of-arrays flow trajectory storage.
//
// A FlowPool is the SoA block behind one CoflowState's flows: the per-flow
// trajectory scalars (size / sent-base / rate / anchor / predicted-finish /
// rate-version / finished) plus the immutable src/dst endpoints live as
// parallel arrays carved out of a single
// cache-aligned allocation, indexed by the flow's position in
// CoflowState::flows() — the same index the CSR slot lists carry.
// FlowState is an index-backed handle over this pool: every accessor and
// mutator reads/writes exactly one array element with the same arithmetic
// the interleaved layout used, so trajectory values are bit-preserved (the
// quiescent-skip and checkpoint-restore invariants depend on that). The
// pool exists so the aggregate walks (total_sent, max_flow_sent, maxmin
// demand gathers, conservation backfill) and the scheduler queue passes
// stream dense 8-byte lanes instead of striding ~150-byte flow objects.
//
// Layout invariants (ROADMAP "SoA layout invariants" design note):
//  - Handle stability: the arrays are allocated once and never reallocate,
//    so FlowState handles and spans over the arrays stay valid for the
//    CoflowState's lifetime.
//  - Index identity: slot i of every array describes flows()[i], which is
//    also what the CSR sender/receiver slot lists index.
//  - One block per pool: a pool belongs to exactly one CoflowState and
//    its arrays are carved from one cache-aligned allocation, each
//    starting on its own 64-byte boundary — one allocation per admitted
//    CoFlow, one free on reclamation (see parallel::AlignedBuffer).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "common/ids.h"
#include "common/time.h"
#include "common/units.h"
#include "parallel/arena.h"

namespace saath {

class FlowPool {
 public:
  FlowPool() = default;
  explicit FlowPool(std::size_t n) { allocate(n); }
  /// Handles hold raw pointers into the arrays; the pool is pinned.
  FlowPool(const FlowPool&) = delete;
  FlowPool& operator=(const FlowPool&) = delete;

  /// Allocates and default-initializes slots for `n` flows: zero progress,
  /// zero rate, anchor 0, predicted finish kNever, version 0, unfinished.
  /// Callers overwrite size/anchor/predicted-finish per flow on admission.
  void allocate(std::size_t n) {
    n_ = n;
    const std::size_t lane_d = parallel::align_up_cache_line(n * sizeof(double));
    const std::size_t lane_t =
        parallel::align_up_cache_line(n * sizeof(SimTime));
    const std::size_t lane_v =
        parallel::align_up_cache_line(n * sizeof(std::uint64_t));
    const std::size_t lane_p =
        parallel::align_up_cache_line(n * sizeof(PortIndex));
    const std::size_t lane_b =
        parallel::align_up_cache_line(n * sizeof(std::uint8_t));
    storage_.reset(3 * lane_d + 2 * lane_t + lane_v + 2 * lane_p + lane_b);
    std::byte* base = storage_.data();
    size_bytes = reinterpret_cast<double*>(base);
    sent_base = reinterpret_cast<double*>(base + lane_d);
    rate = reinterpret_cast<Rate*>(base + 2 * lane_d);
    anchor = reinterpret_cast<SimTime*>(base + 3 * lane_d);
    predicted_finish = reinterpret_cast<SimTime*>(base + 3 * lane_d + lane_t);
    rate_version =
        reinterpret_cast<std::uint64_t*>(base + 3 * lane_d + 2 * lane_t);
    src = reinterpret_cast<PortIndex*>(base + 3 * lane_d + 2 * lane_t + lane_v);
    dst = reinterpret_cast<PortIndex*>(base + 3 * lane_d + 2 * lane_t + lane_v +
                                       lane_p);
    finished = reinterpret_cast<std::uint8_t*>(base + 3 * lane_d + 2 * lane_t +
                                               lane_v + 2 * lane_p);
    std::fill_n(size_bytes, n, 0.0);
    std::fill_n(sent_base, n, 0.0);
    std::fill_n(rate, n, Rate{0});
    std::fill_n(anchor, n, SimTime{0});
    std::fill_n(predicted_finish, n, kNever);
    std::fill_n(rate_version, n, std::uint64_t{0});
    std::fill_n(src, n, kInvalidPort);
    std::fill_n(dst, n, kInvalidPort);
    std::fill_n(finished, n, std::uint8_t{0});
  }

  [[nodiscard]] std::size_t size() const { return n_; }

  /// FlowState::sent() over slot `i` — the exact same branch and
  /// arithmetic, so dense walks produce the same bits as handle reads.
  [[nodiscard]] double sent(std::size_t i, SimTime now) const {
    const Rate r = rate[i];
    if (r <= 0 || now <= anchor[i]) {
      return finished[i] ? size_bytes[i] : sent_base[i];
    }
    return std::min(size_bytes[i],
                    sent_base[i] + r * to_seconds(now - anchor[i]));
  }
  [[nodiscard]] double remaining_of(std::size_t i, SimTime now) const {
    return size_bytes[i] - sent(i, now);
  }

  // Parallel arrays, each 64-byte aligned, length size(). Mutation goes
  // through FlowState / CoflowState so version and aggregate bookkeeping
  // stay coherent; direct access is for dense read-only walks.
  double* size_bytes = nullptr;
  double* sent_base = nullptr;
  Rate* rate = nullptr;
  SimTime* anchor = nullptr;
  SimTime* predicted_finish = nullptr;
  std::uint64_t* rate_version = nullptr;
  // The flows' endpoints, written once at construction. FlowState::src()
  // and dst() read them (the handle keeps no copy), and the conservation
  // backfill's flow walk (the hottest dense loop: visit every flow, probe
  // both ports' residual budgets) reads them without touching the handles.
  PortIndex* src = nullptr;
  PortIndex* dst = nullptr;
  std::uint8_t* finished = nullptr;

 private:
  parallel::AlignedBuffer storage_;
  std::size_t n_ = 0;
};

}  // namespace saath
