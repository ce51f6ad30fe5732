// Open-addressed hash table for per-event lookups by id or slot: Saath's
// one id -> slot table, and the spatial index's pair-overlap tables keyed
// by neighbor slot.
//
// Linear probing over a power-of-two cell array kept at most half full,
// with backward-shift deletion (no tombstones), so probe runs stay short
// under unbounded insert/erase churn. Capacity only grows: a table that
// once held n keys holds n again without allocating, which is what keeps
// arrival/completion/removal cycles allocation-free once warm. Cells are
// addressed by index, so a caller finds, updates and erases an entry with
// one probe sequence.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace saath {

/// `kEmpty` marks a free cell and is never a valid key.
template <typename Key, typename Value, Key kEmpty>
class FlatTable {
 public:
  static constexpr std::size_t npos = ~std::size_t{0};

  struct Hit {
    std::size_t index = npos;
    bool inserted = false;
  };

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Cell index holding `key`, or npos.
  [[nodiscard]] std::size_t find(Key key) const {
    if (cells_.empty()) return npos;
    for (std::size_t i = home(key);; i = next(i)) {
      if (cells_[i].key == key) return i;
      if (cells_[i].key == kEmpty) return npos;
    }
  }
  [[nodiscard]] bool contains(Key key) const { return find(key) != npos; }

  /// Cell index of `key`, inserted with a value-initialized Value when
  /// absent. Grows only when a new key would fill more than half the cells.
  Hit insert(Key key) {
    std::size_t i = 0;
    if (!cells_.empty()) {
      for (i = home(key); cells_[i].key != kEmpty; i = next(i)) {
        if (cells_[i].key == key) return {i, false};
      }
    }
    if (2 * (size_ + 1) > cells_.size()) {
      grow();
      for (i = home(key); cells_[i].key != kEmpty; i = next(i)) {
      }
    }
    cells_[i].key = key;
    cells_[i].value = Value{};
    ++size_;
    return {i, true};
  }

  [[nodiscard]] Value& value(std::size_t i) { return cells_[i].value; }
  [[nodiscard]] const Value& value(std::size_t i) const {
    return cells_[i].value;
  }

  /// Removes the entry in cell `i`, shifting later members of its probe run
  /// back so no tombstone is left.
  void erase_at(std::size_t i) {
    --size_;
    for (std::size_t j = next(i); cells_[j].key != kEmpty; j = next(j)) {
      // The entry at j may fill the hole unless its home lies cyclically
      // in (i, j].
      if (((j - home(cells_[j].key)) & mask_) >= ((j - i) & mask_)) {
        cells_[i] = cells_[j];
        i = j;
      }
    }
    cells_[i].key = kEmpty;
  }

  bool erase(Key key) {
    const std::size_t i = find(key);
    if (i == npos) return false;
    erase_at(i);
    return true;
  }

  /// Calls fn(key, value) for every entry, in cell order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Cell& c : cells_) {
      if (c.key != kEmpty) fn(c.key, c.value);
    }
  }

 private:
  struct Cell {
    Key key = kEmpty;
    Value value{};
  };

  [[nodiscard]] std::size_t home(Key key) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ull) >> shift_);
  }
  [[nodiscard]] std::size_t next(std::size_t i) const {
    return (i + 1) & mask_;
  }

  void grow() {
    std::vector<Cell> old;
    old.swap(cells_);
    cells_.resize(old.empty() ? 8 : 2 * old.size());
    mask_ = cells_.size() - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(cells_.size()));
    for (const Cell& c : old) {
      if (c.key == kEmpty) continue;
      std::size_t i = home(c.key);
      while (cells_[i].key != kEmpty) i = next(i);
      cells_[i] = c;
    }
  }

  std::vector<Cell> cells_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
};

/// A table keyed by an id's int64 value (CoflowId::value), which is never
/// INT64_MIN.
template <typename Value>
using IdTable =
    FlatTable<std::int64_t, Value, std::numeric_limits<std::int64_t>::min()>;

}  // namespace saath
