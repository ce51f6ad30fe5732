// Priority-queue structure shared by Aalo and Saath (§4.1).
//
// K logical queues Q0..Q(K-1) with exponentially growing byte thresholds:
// Q_hi(q) = S * E^q, Q_lo(0) = 0, Q_lo(q+1) = Q_hi(q), Q_hi(K-1) = inf.
// Aalo demotes a CoFlow by its *total* bytes sent; Saath divides the
// threshold equally among the CoFlow's flows and compares against the
// *maximum* bytes sent by any single flow (Eq. 1 — the per-flow threshold
// that produces the fast queue transition of Fig 5).
#pragma once

#include <limits>
#include <vector>

#include "common/expect.h"
#include "common/units.h"

namespace saath {

struct QueueConfig {
  /// Number of queues K (paper default 10).
  int num_queues = 10;
  /// Starting queue threshold S = Q_hi(0) (paper default 10MB).
  Bytes start_threshold = 10 * kMB;
  /// Exponential growth factor E (paper default 10).
  double growth = 10.0;
};

class QueueStructure {
 public:
  explicit QueueStructure(QueueConfig config = {});

  [[nodiscard]] int num_queues() const { return config_.num_queues; }
  [[nodiscard]] const QueueConfig& config() const { return config_; }

  /// Upper byte threshold of queue q; +inf for the last queue.
  [[nodiscard]] double hi_threshold(int q) const;
  [[nodiscard]] double lo_threshold(int q) const;

  /// Aalo: queue from total bytes sent by the CoFlow.
  [[nodiscard]] int queue_for_total_bytes(double total_sent) const;

  /// Saath Eq. (1): queue from the max bytes sent by any flow, with the
  /// queue threshold split equally across the CoFlow's `width` flows.
  [[nodiscard]] int queue_for_max_flow_bytes(double max_flow_sent,
                                             int width) const;

  /// Minimum time a CoFlow must spend in queue q before crossing into q+1,
  /// at full port bandwidth — the `t` of the starvation deadline d*C_q*t
  /// (§4.2 D5). The last queue uses the extrapolated finite threshold.
  [[nodiscard]] double min_residence_seconds(int q, Rate port_bandwidth) const;

 private:
  QueueConfig config_;
};

/// Incremental per-queue population. The starvation deadline d·C_q·t needs
/// C_q, the population of the queue a CoFlow just entered; recounting every
/// active CoFlow on every entry is O(active) per event, so consumers apply
/// the queue-change deltas they already know about (arrival, queue move,
/// completion) and read counts in O(1).
class QueuePopulation {
 public:
  explicit QueuePopulation(int num_queues)
      : count_(static_cast<std::size_t>(num_queues), 0) {
    SAATH_EXPECTS(num_queues >= 1);
  }

  void add(int queue) {
    ++count_[checked(queue)];
    ++total_;
  }
  void remove(int queue) {
    SAATH_EXPECTS(count_[checked(queue)] > 0);
    --count_[checked(queue)];
    --total_;
  }
  void move(int from, int to) {
    if (from == to) return;
    remove(from);
    add(to);
  }

  [[nodiscard]] int count(int queue) const {
    return count_[checked(queue)];
  }
  /// Tracked CoFlows across all queues. A consumer fed by lifecycle hooks
  /// checks it against its active-set size: a mismatch means a caller
  /// skipped a hook.
  [[nodiscard]] int total() const { return total_; }

 private:
  [[nodiscard]] std::size_t checked(int queue) const {
    SAATH_EXPECTS(queue >= 0 &&
                  queue < static_cast<int>(count_.size()));
    return static_cast<std::size_t>(queue);
  }

  std::vector<int> count_;
  int total_ = 0;
};

}  // namespace saath
