#include "coflow/coflow.h"

#include <algorithm>
#include <bit>
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

const char* spec_defect(const CoflowSpec& spec, int num_ports) {
  if (spec.flows.empty()) return "coflow has no flows";
  for (const FlowSpec& f : spec.flows) {
    if (f.size < 0) return "negative flow size";
    if (f.src < 0 || f.src >= num_ports || f.dst < 0 || f.dst >= num_ports) {
      return "flow port outside the fabric";
    }
  }
  return nullptr;
}

FlowState::FlowState(FlowId id, const FlowSpec& spec, SimTime origin,
                     FlowPool* pool, std::uint32_t index)
    : pool_(pool), index_(index), id_(id) {
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
  ++owner_->progress_version_;
  owner_->rated_flows_ +=
      static_cast<int>(rate_after > 0) - static_cast<int>(rate_before > 0);
}

void FlowState::sync_version(std::uint64_t old_version,
                             std::uint64_t new_version) {
  owner_->trajectory_version_ += new_version - old_version;
}

namespace {

/// Port -> slot numbering for one side of one CoFlow under construction:
/// linear probing over a power-of-two prefix of `cells_` sized to the
/// flow count, never to a port's value. A cell counts only while it
/// carries the current pass's stamp, so starting a pass clears nothing and
/// the capacity a wide CoFlow grew serves every later one.
class PortSlots {
 public:
  /// Starts numbering a side with at most `flows` distinct ports.
  void begin(std::size_t flows) {
    const std::size_t cells =
        std::bit_ceil(std::max<std::size_t>(2 * flows, 8));
    if (cells_.size() < cells) cells_.resize(cells);
    mask_ = cells - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(cells));
    if (++stamp_ == 0) {  // wrapped: retire every stamp ever written
      for (Cell& c : cells_) c.stamp = 0;
      stamp_ = 1;
    }
    loads_.clear();
  }

  struct Cell {
    PortIndex port = 0;
    std::uint32_t slot = 0;
    /// The other side's slot of the port's latest flow (walk-flag check).
    std::uint32_t last_other = 0;
    std::uint32_t stamp = 0;
  };

  /// Counts one more flow on `port` and returns its cell, numbering the
  /// port with the next slot on its first appearance. The reference stays
  /// valid for the pass: cells never move once begin() sized them.
  Cell& count(PortIndex port) {
    for (std::size_t i = home(port);; i = (i + 1) & mask_) {
      Cell& c = cells_[i];
      if (c.stamp != stamp_) {
        c = {port, static_cast<std::uint32_t>(loads_.size()), 0, stamp_};
        loads_.push_back({port, 1});
        return c;
      }
      if (c.port == port) {
        ++loads_[c.slot].unfinished_flows;
        return c;
      }
    }
  }

  /// The side's load list so far, in slot order.
  [[nodiscard]] const std::vector<PortLoad>& loads() const { return loads_; }

 private:
  [[nodiscard]] std::size_t home(PortIndex port) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(port)) *
         0x9E3779B97F4A7C15ull) >>
        shift_);
  }

  std::vector<Cell> cells_;
  std::vector<PortLoad> loads_;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
  std::uint32_t stamp_ = 0;
};

/// CSR over one side's slots: begin[s]..begin[s+1] lists the flows whose
/// slot is s, ascending. The fill runs in flow order and uses begin[s+1]
/// as slot s's cursor, which leaves it at slot s+1's start.
template <typename SlotOf>
void build_csr(const std::vector<PortLoad>& loads, std::size_t flows,
               SlotOf&& slot_of, std::vector<std::uint32_t>& slot_flows,
               std::vector<std::uint32_t>& slot_begin) {
  slot_begin.resize(loads.size() + 1);
  slot_begin[0] = 0;
  std::uint32_t start = 0;
  for (std::size_t s = 0; s < loads.size(); ++s) {
    slot_begin[s + 1] = start;
    start += static_cast<std::uint32_t>(loads[s].unfinished_flows);
  }
  slot_flows.resize(flows);
  for (std::uint32_t i = 0; i < flows; ++i) {
    slot_flows[slot_begin[slot_of(i) + 1]++] = i;
  }
}

}  // namespace

CoflowState::CoflowState(CoflowSpec spec, FlowId first_flow_id)
    : spec_(std::move(spec)) {
  SAATH_EXPECTS(!spec_.flows.empty());
  const std::size_t n = spec_.flows.size();
  pool_.allocate(n);
  flows_.reserve(n);
  // Engines on separate threads build CoFlows concurrently.
  thread_local PortSlots sender_slots;
  thread_local PortSlots receiver_slots;
  sender_slots.begin(n);
  receiver_slots.begin(n);
  // A slot walk over one side is ordered when, along each of the other
  // side's lists (flows ascending), the walked side's slot never
  // decreases; each port's cell remembers the other side's slot of the
  // port's latest flow.
  sender_walk_ordered_ = true;
  receiver_walk_ordered_ = true;
  std::int64_t next = first_flow_id.value;
  for (std::uint32_t i = 0; i < n; ++i) {
    const FlowSpec& fs = spec_.flows[i];
    FlowState& f =
        flows_.emplace_back(FlowId{next++}, fs, spec_.arrival, &pool_, i);
    f.owner_ = this;
    PortSlots::Cell& sc = sender_slots.count(fs.src);
    PortSlots::Cell& rc = receiver_slots.count(fs.dst);
    if (sc.slot < rc.last_other) sender_walk_ordered_ = false;
    if (rc.slot < sc.last_other) receiver_walk_ordered_ = false;
    rc.last_other = sc.slot;
    sc.last_other = rc.slot;
    f.sender_slot_ = sc.slot;
    f.receiver_slot_ = rc.slot;
  }
  senders_.assign(sender_slots.loads().begin(), sender_slots.loads().end());
  receivers_.assign(receiver_slots.loads().begin(),
                    receiver_slots.loads().end());
  build_csr(senders_, n,
            [this](std::uint32_t i) { return flows_[i].sender_slot_; },
            sender_slot_flows_, sender_slot_begin_);
  build_csr(receivers_, n,
            [this](std::uint32_t i) { return flows_[i].receiver_slot_; },
            receiver_slot_flows_, receiver_slot_begin_);
  walk_flows_.resize(n);
  std::iota(walk_flows_.begin(), walk_flows_.end(), 0u);
  unfinished_ = static_cast<int>(n);
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
  // the worst port at line rate. The per-port accumulators are indexed by
  // each flow's port slots.
  std::vector<double> send_bytes(senders_.size(), 0.0);
  std::vector<double> recv_bytes(receivers_.size(), 0.0);
  for (const auto& f : flows_) {
    if (f.finished()) continue;
    send_bytes[f.sender_slot()] += f.remaining(now);
    recv_bytes[f.receiver_slot()] += f.remaining(now);
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

namespace {

[[nodiscard]] int unfinished_on(std::span<const PortLoad> loads,
                                PortIndex port) {
  for (const PortLoad& l : loads) {
    if (l.port == port) return l.unfinished_flows;
  }
  return 0;
}

/// Removes flow index `i` from the ascending list [first, first + live)
/// and keeps it ascending: walking from the tail, each later entry moves
/// down one place until `i` is overwritten, so finding `i` costs no more
/// than the shift.
void unlist(std::uint32_t* first, int live, std::uint32_t i) {
  std::uint32_t* at = first + live - 1;
  std::uint32_t carry = *at;
  while (carry != i) {
    SAATH_EXPECTS(at != first);
    --at;
    std::swap(carry, *at);
  }
}

}  // namespace

int CoflowState::unfinished_on_sender(PortIndex port) const {
  return unfinished_on(senders_, port);
}

int CoflowState::unfinished_on_receiver(PortIndex port) const {
  return unfinished_on(receivers_, port);
}

SAATH_HOT_NOALLOC OccupancyDelta CoflowState::on_flow_complete(FlowState& flow,
                                                               SimTime now) {
  SAATH_EXPECTS(flow.owner_ == this);
  SAATH_EXPECTS(!flow.finished());
  const std::size_t s = flow.sender_slot();
  const std::size_t r = flow.receiver_slot();
  SAATH_EXPECTS(s < senders_.size() && r < receivers_.size());
  flow.complete(now);
  auto& sload = senders_[s];
  auto& rload = receivers_[r];
  SAATH_EXPECTS(sload.unfinished_flows > 0);
  SAATH_EXPECTS(rload.unfinished_flows > 0);
  // Drop the flow from its two slot lists (still ascending), then from the
  // walk list once finished entries make up half of it.
  unlist(sender_slot_flows_.data() + sender_slot_begin_[s],
         sload.unfinished_flows, flow.pool_index());
  unlist(receiver_slot_flows_.data() + receiver_slot_begin_[r],
         rload.unfinished_flows, flow.pool_index());
  if (2 * ++walk_finished_ >= walk_flows_.size()) {
    std::erase_if(walk_flows_,
                  [this](std::uint32_t i) { return pool_.finished[i] != 0; });
    walk_finished_ = 0;
  }
  OccupancyDelta delta;
  delta.sender_freed = --sload.unfinished_flows == 0;
  delta.receiver_freed = --rload.unfinished_flows == 0;
  ++occupancy_version_;
  --unfinished_;
  if (unfinished_ == 0) finish_time_ = now;
  return delta;
}

double CoflowState::finished_length_median() const {
  const int finished = finished_flows();
  SAATH_EXPECTS(finished > 0);
  if (median_for_count_ == finished) return median_cache_;
  // The selection runs over a per-thread copy of the finished flows' sizes
  // that keeps its capacity; the median of a multiset does not depend on
  // the order the copy lists it in.
  thread_local std::vector<double> values;
  values.clear();
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    if (pool_.finished[i]) values.push_back(pool_.size_bytes[i]);
  }
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
  median_for_count_ = finished;
  median_cache_ = median;
  return median;
}

}  // namespace saath
