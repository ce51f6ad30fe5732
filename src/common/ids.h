// Strong identifier types.
//
// Ports, flows, coflows and jobs all index dense arrays, but mixing them up
// is a classic source of silent bugs; each gets its own wrapper type with
// explicit construction and ordering.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>

namespace saath {

namespace detail {

/// CRTP-free strong integer id; Tag makes instantiations distinct types.
template <typename Tag>
struct StrongId {
  std::int64_t value = -1;

  constexpr StrongId() = default;
  constexpr explicit StrongId(std::int64_t v) : value(v) {}

  [[nodiscard]] constexpr bool valid() const { return value >= 0; }
  friend constexpr auto operator<=>(StrongId, StrongId) = default;
};

}  // namespace detail

using CoflowId = detail::StrongId<struct CoflowIdTag>;
using FlowId = detail::StrongId<struct FlowIdTag>;
using JobId = detail::StrongId<struct JobIdTag>;

/// Network access port index. Senders and receivers live in separate index
/// spaces of the same size (machine i has sender port i and receiver port i).
using PortIndex = std::int32_t;

inline constexpr PortIndex kInvalidPort = -1;

/// A CoFlow's dense slot (CoflowState::slot()): the engine owns its state
/// there and schedulers index their per-CoFlow vectors by it. Slot numbers
/// carry no order; ties between CoFlows break by CoflowId.
using Slot = std::uint32_t;
inline constexpr Slot kNoSlot = ~Slot{0};

}  // namespace saath

template <typename Tag>
struct std::hash<saath::detail::StrongId<Tag>> {
  std::size_t operator()(saath::detail::StrongId<Tag> id) const noexcept {
    return std::hash<std::int64_t>{}(id.value);
  }
};
