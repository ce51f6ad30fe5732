#include "coflow/coflow.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/expect.h"

namespace saath {

Bytes CoflowSpec::total_bytes() const {
  Bytes sum = 0;
  for (const auto& f : flows) sum += f.size;
  return sum;
}

Bytes CoflowSpec::max_flow_bytes() const {
  Bytes m = 0;
  for (const auto& f : flows) m = std::max(m, f.size);
  return m;
}

FlowState::FlowState(FlowId id, const FlowSpec& spec, SimTime origin)
    : FlowState(id, spec, origin, new FlowPool(1), 0) {
  own_pool_.reset(pool_);
}

FlowState::FlowState(FlowId id, const FlowSpec& spec, SimTime origin,
                     FlowPool* pool, std::uint32_t index)
    : pool_(pool), index_(index), id_(id), src_(spec.src), dst_(spec.dst) {
  SAATH_EXPECTS(spec.src >= 0);
  SAATH_EXPECTS(spec.dst >= 0);
  SAATH_EXPECTS(spec.size >= 0);
  pool_->size_bytes[index_] = static_cast<double>(spec.size);
  pool_->anchor[index_] = origin;
  pool_->src[index_] = spec.src;
  pool_->dst[index_] = spec.dst;
  // A zero-byte flow is done the moment it exists; everything else cannot
  // finish until it is given a rate.
  pool_->predicted_finish[index_] = spec.size <= 0 ? origin : kNever;
}

void FlowState::set_rate(Rate r, SimTime now) {
  SAATH_EXPECTS(r >= 0);
  if (pool_->finished[index_]) return;
  const double size_ = pool_->size_bytes[index_];
  double& sent_base_ = pool_->sent_base[index_];
  Rate& rate_ = pool_->rate[index_];
  SimTime& anchor_ = pool_->anchor[index_];
  SimTime& predicted_finish_ = pool_->predicted_finish[index_];
  std::uint64_t& rate_version_ = pool_->rate_version[index_];
  // Anchors never move backwards: a query/change dated before the last fold
  // behaves as if issued at the fold (only direct drivers ever do this).
  const SimTime at = std::max(now, anchor_);
  if (r == rate_) {
    // Same-rate assignment: the current trajectory is already correct. An
    // exact no-op (anchor, prediction and version all keep) is what makes a
    // recomputation over unchanged inputs bit-invisible — re-folding would
    // move the µs rounding of the finish instant.
    return;
  }
  if (rate_ == 0 && r == resume_rate_ && at == resume_zeroed_at_) {
    // The epoch-start zeroing is being cancelled by re-assigning the very
    // rate it took away, at the same instant: restore the pre-zero
    // trajectory exactly — version included, so the completion event
    // already queued for it stays valid and nothing is re-pushed (and the
    // owner's trajectory_version rolls back with it).
    anchor_ = resume_anchor_;
    sent_base_ = resume_base_;
    rate_ = resume_rate_;
    predicted_finish_ = resume_pf_;
    sync_version(rate_version_, resume_version_);
    rate_version_ = resume_version_;
    resume_zeroed_at_ = kNever;
    note_mutation(0, rate_);
    return;
  }
  if (r == 0 && rate_ > 0) {
    // Stash the live trajectory: if this zeroing is an epoch blank-slate
    // and the scheduler hands the same rate back, we restore it above.
    resume_zeroed_at_ = at;
    resume_anchor_ = anchor_;
    resume_base_ = sent_base_;
    resume_rate_ = rate_;
    resume_pf_ = predicted_finish_;
    resume_version_ = rate_version_;
  } else {
    resume_zeroed_at_ = kNever;  // a real rate change invalidates the stash
  }
  const Rate before = rate_;
  sent_base_ = sent(at);
  anchor_ = at;
  rate_ = r;
  sync_version(rate_version_, rate_version_ + 1);
  ++rate_version_;
  note_mutation(before, r);
  const double rem = size_ - sent_base_;
  if (rem <= 0) {
    predicted_finish_ = at;
  } else if (r <= 0) {
    predicted_finish_ = kNever;
  } else {
    const double us = std::ceil((rem / r) * 1e6);
    // Completions land on the µs grid, at least 1µs after the change so
    // time always advances. Saturate far-future instants to kNever — they
    // sit beyond any runaway guard and the add would overflow.
    predicted_finish_ = us < 9e18 ? at + std::max<SimTime>(
                                             1, static_cast<SimTime>(us))
                                  : kNever;
  }
}

void FlowState::complete(SimTime now) {
  SAATH_EXPECTS(!finished());
  Rate& rate_ = pool_->rate[index_];
  SimTime& anchor_ = pool_->anchor[index_];
  std::uint64_t& rate_version_ = pool_->rate_version[index_];
  const Rate before = rate_;
  pool_->sent_base[index_] = pool_->size_bytes[index_];
  rate_ = 0;
  anchor_ = std::max(now, anchor_);
  pool_->finished[index_] = 1;
  finish_time_ = now;
  pool_->predicted_finish[index_] = now;
  sync_version(rate_version_, rate_version_ + 1);
  ++rate_version_;
  note_mutation(before, 0);
}

double FlowState::restart(SimTime now) {
  SAATH_EXPECTS(!finished());
  Rate& rate_ = pool_->rate[index_];
  SimTime& anchor_ = pool_->anchor[index_];
  std::uint64_t& rate_version_ = pool_->rate_version[index_];
  const SimTime at = std::max(now, anchor_);
  const double lost = sent(at);
  const Rate before = rate_;
  pool_->sent_base[index_] = 0;
  rate_ = 0;
  anchor_ = at;
  pool_->predicted_finish[index_] =
      pool_->size_bytes[index_] <= 0 ? at : kNever;
  resume_zeroed_at_ = kNever;
  sync_version(rate_version_, rate_version_ + 1);
  ++rate_version_;
  note_mutation(before, 0);
  return lost;
}

void FlowState::note_mutation(Rate rate_before, Rate rate_after) {
  if (owner_ == nullptr) return;
  ++owner_->progress_version_;
  owner_->rated_flows_ +=
      static_cast<int>(rate_after > 0) - static_cast<int>(rate_before > 0);
}

void FlowState::sync_version(std::uint64_t old_version,
                             std::uint64_t new_version) {
  if (owner_ == nullptr) return;
  owner_->trajectory_version_ += new_version - old_version;
}

namespace {

void add_load(std::vector<PortLoad>& loads, PortIndex port) {
  for (auto& l : loads) {
    if (l.port == port) {
      ++l.unfinished_flows;
      return;
    }
  }
  loads.push_back({port, 1});
}

/// Sorted-by-port view over `loads`, built once at construction (a CoFlow's
/// port set never grows).
[[nodiscard]] std::vector<std::uint32_t> sorted_slots(
    const std::vector<PortLoad>& loads) {
  std::vector<std::uint32_t> order(loads.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return loads[a].port < loads[b].port;
  });
  return order;
}

}  // namespace

int CoflowState::find_slot(const std::vector<PortLoad>& loads,
                           const std::vector<std::uint32_t>& order,
                           PortIndex port) {
  const auto it = std::lower_bound(
      order.begin(), order.end(), port,
      [&](std::uint32_t idx, PortIndex p) { return loads[idx].port < p; });
  if (it == order.end() || loads[*it].port != port) return -1;
  return static_cast<int>(*it);
}

CoflowState::CoflowState(CoflowSpec spec, FlowId first_flow_id)
    : spec_(std::move(spec)) {
  SAATH_EXPECTS(!spec_.flows.empty());
  pool_.allocate(spec_.flows.size());
  flows_.reserve(spec_.flows.size());
  std::int64_t next = first_flow_id.value;
  std::uint32_t slot = 0;
  for (const auto& fs : spec_.flows) {
    flows_.emplace_back(FlowId{next++}, fs, spec_.arrival, &pool_, slot++);
    flows_.back().owner_ = this;
    add_load(senders_, fs.src);
    add_load(receivers_, fs.dst);
  }
  sender_order_ = sorted_slots(senders_);
  receiver_order_ = sorted_slots(receivers_);
  // Group flow indices by port slot (CSR): counting pass, prefix sum, fill
  // in flow order — which leaves every per-slot list ascending, the order
  // the backfill's slot walk depends on.
  const auto build_csr = [this](const std::vector<PortLoad>& loads,
                                const std::vector<std::uint32_t>& order,
                                std::vector<std::uint32_t>& slot_flows,
                                std::vector<std::uint32_t>& slot_begin,
                                const bool senders) {
    slot_begin.assign(loads.size() + 1, 0);
    for (const auto& f : flows_) {
      const int s = find_slot(loads, order, senders ? f.src() : f.dst());
      ++slot_begin[static_cast<std::size_t>(s) + 1];
    }
    for (std::size_t s = 1; s < slot_begin.size(); ++s) {
      slot_begin[s] += slot_begin[s - 1];
    }
    slot_flows.resize(flows_.size());
    std::vector<std::uint32_t> fill(loads.size(), 0);
    for (std::uint32_t i = 0; i < flows_.size(); ++i) {
      const auto s = static_cast<std::size_t>(find_slot(
          loads, order, senders ? flows_[i].src() : flows_[i].dst()));
      slot_flows[slot_begin[s] + fill[s]++] = i;
    }
  };
  build_csr(senders_, sender_order_, sender_slot_flows_, sender_slot_begin_,
            true);
  build_csr(receivers_, receiver_order_, receiver_slot_flows_,
            receiver_slot_begin_, false);
  // A slot walk over one side is ordered when, along each of the other
  // side's lists, the walked side's slot never decreases.
  const auto walk_ordered = [this](const std::vector<std::uint32_t>& slot_flows,
                                   const std::vector<std::uint32_t>& slot_begin,
                                   const bool senders) {
    for (std::size_t s = 0; s + 1 < slot_begin.size(); ++s) {
      int prev = 0;
      for (std::uint32_t k = slot_begin[s]; k < slot_begin[s + 1]; ++k) {
        const FlowState& f = flows_[slot_flows[k]];
        const int walked =
            senders ? find_slot(senders_, sender_order_, f.src())
                    : find_slot(receivers_, receiver_order_, f.dst());
        if (walked < prev) return false;
        prev = walked;
      }
    }
    return true;
  };
  sender_walk_ordered_ =
      walk_ordered(receiver_slot_flows_, receiver_slot_begin_, true);
  receiver_walk_ordered_ =
      walk_ordered(sender_slot_flows_, sender_slot_begin_, false);
  walk_flows_.resize(flows_.size());
  std::iota(walk_flows_.begin(), walk_flows_.end(), 0u);
  unfinished_ = static_cast<int>(flows_.size());
}

SimTime CoflowState::completion_time() const {
  SAATH_EXPECTS(finished());
  return finish_time_ - spec_.arrival;
}

double CoflowState::total_sent(SimTime now) const {
  return cached_aggregate(total_sent_cache_, now, [&] {
    double sum = 0;
    const std::size_t n = flows_.size();
    for (std::size_t i = 0; i < n; ++i) sum += pool_.sent(i, now);
    return sum;
  });
}

double CoflowState::max_flow_sent(SimTime now) const {
  return cached_aggregate(max_sent_cache_, now, [&] {
    double m = 0;
    const std::size_t n = flows_.size();
    for (std::size_t i = 0; i < n; ++i) {
      m = std::max(m, pool_.sent(i, now));
    }
    return m;
  });
}

double CoflowState::total_remaining(SimTime now) const {
  double rem = 0;
  const std::size_t n = flows_.size();
  for (std::size_t i = 0; i < n; ++i) {
    rem += pool_.size_bytes[i] - pool_.sent(i, now);
  }
  return rem;
}

double CoflowState::bottleneck_seconds(Rate port_bandwidth, SimTime now) const {
  SAATH_EXPECTS(port_bandwidth > 0);
  // Remaining bytes aggregated per port in one pass over the flows; Γ is
  // the worst port at line rate. The per-port accumulators live in the
  // (small) load lists, addressed through the sorted slot index.
  std::vector<double> send_bytes(senders_.size(), 0.0);
  std::vector<double> recv_bytes(receivers_.size(), 0.0);
  for (const auto& f : flows_) {
    if (f.finished()) continue;
    const int s = find_slot(senders_, sender_order_, f.src());
    const int r = find_slot(receivers_, receiver_order_, f.dst());
    SAATH_EXPECTS(s >= 0 && r >= 0);
    send_bytes[static_cast<std::size_t>(s)] += f.remaining(now);
    recv_bytes[static_cast<std::size_t>(r)] += f.remaining(now);
  }
  double worst = 0;
  for (double b : send_bytes) worst = std::max(worst, b);
  for (double b : recv_bytes) worst = std::max(worst, b);
  return worst / port_bandwidth;
}

void CoflowState::restore_flow_progress(std::size_t i, double sent_base,
                                        Rate rate, SimTime anchor,
                                        SimTime predicted_finish) {
  SAATH_EXPECTS(i < flows_.size());
  FlowState& f = flows_[i];
  SAATH_EXPECTS(!f.finished());
  SAATH_EXPECTS(rate >= 0);
  const Rate before = pool_.rate[i];
  pool_.sent_base[i] = sent_base;
  pool_.rate[i] = rate;
  pool_.anchor[i] = anchor;
  pool_.predicted_finish[i] = predicted_finish;
  f.note_mutation(before, rate);
}

void CoflowState::restore_flow_finished(std::size_t i, SimTime finish_time) {
  SAATH_EXPECTS(i < flows_.size());
  on_flow_complete(flows_[i], finish_time);
}

int CoflowState::restart_flows_on_port(PortIndex port, SimTime now) {
  int restarted = 0;
  for (auto& f : flows_) {
    if (f.finished() || (f.src() != port && f.dst() != port)) continue;
    f.restart(now);
    ++restarted;
  }
  return restarted;
}

int CoflowState::unfinished_on_sender(PortIndex port) const {
  const int slot = find_slot(senders_, sender_order_, port);
  return slot < 0 ? 0 : senders_[static_cast<std::size_t>(slot)].unfinished_flows;
}

int CoflowState::unfinished_on_receiver(PortIndex port) const {
  const int slot = find_slot(receivers_, receiver_order_, port);
  return slot < 0 ? 0
                  : receivers_[static_cast<std::size_t>(slot)].unfinished_flows;
}

OccupancyDelta CoflowState::on_flow_complete(FlowState& flow, SimTime now) {
  SAATH_EXPECTS(!flow.finished());
  flow.complete(now);
  const int s = find_slot(senders_, sender_order_, flow.src());
  const int r = find_slot(receivers_, receiver_order_, flow.dst());
  SAATH_EXPECTS(s >= 0 && r >= 0);
  auto& sload = senders_[static_cast<std::size_t>(s)];
  auto& rload = receivers_[static_cast<std::size_t>(r)];
  SAATH_EXPECTS(sload.unfinished_flows > 0);
  SAATH_EXPECTS(rload.unfinished_flows > 0);
  // Drop the flow from its two slot lists (still ascending), then from the
  // walk list once finished entries make up half of it.
  const auto unlist = [i = flow.pool_index()](std::vector<std::uint32_t>& csr,
                                              std::uint32_t begin, int live) {
    const auto first = csr.begin() + begin;
    const auto last = first + live;
    const auto it = std::lower_bound(first, last, i);
    SAATH_EXPECTS(it != last && *it == i);
    std::copy(it + 1, last, it);
  };
  unlist(sender_slot_flows_, sender_slot_begin_[static_cast<std::size_t>(s)],
         sload.unfinished_flows);
  unlist(receiver_slot_flows_,
         receiver_slot_begin_[static_cast<std::size_t>(r)],
         rload.unfinished_flows);
  if (2 * ++walk_finished_ >= walk_flows_.size()) {
    std::erase_if(walk_flows_,
                  [this](std::uint32_t i) { return pool_.finished[i] != 0; });
    walk_finished_ = 0;
  }
  OccupancyDelta delta;
  delta.sender_freed = --sload.unfinished_flows == 0;
  delta.receiver_freed = --rload.unfinished_flows == 0;
  finished_lengths_.push_back(flow.size());
  ++occupancy_version_;
  --unfinished_;
  if (unfinished_ == 0) finish_time_ = now;
  return delta;
}

double CoflowState::finished_length_median() const {
  SAATH_EXPECTS(!finished_lengths_.empty());
  if (median_for_count_ == finished_lengths_.size()) return median_cache_;
  std::vector<double> values = finished_lengths_;
  const auto mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(mid),
                   values.end());
  double median = values[mid];
  if (values.size() % 2 == 0) {
    const double hi = values[mid];
    std::nth_element(values.begin(),
                     values.begin() + static_cast<long>(mid) - 1, values.end());
    median = (values[mid - 1] + hi) / 2.0;
  }
  median_for_count_ = finished_lengths_.size();
  median_cache_ = median;
  return median;
}

}  // namespace saath
