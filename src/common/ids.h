// Strong identifier types shared across the WASP modules.
//
// Using distinct wrapper types (rather than bare ints) prevents accidentally
// passing a task id where a site id is expected -- the kind of mix-up that is
// otherwise easy to make in placement code that juggles several index spaces.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <ostream>

namespace wasp {

// A strongly-typed integer id. `Tag` is a phantom type used only to make
// different id families incompatible at compile time.
template <typename Tag>
class Id {
 public:
  constexpr Id() = default;
  constexpr explicit Id(std::int64_t value) : value_(value) {}

  [[nodiscard]] constexpr std::int64_t value() const { return value_; }
  [[nodiscard]] constexpr bool valid() const { return value_ >= 0; }

  friend constexpr auto operator<=>(Id, Id) = default;

  friend std::ostream& operator<<(std::ostream& os, Id id) {
    return os << id.value_;
  }

 private:
  std::int64_t value_ = -1;
};

struct SiteTag {};
struct OperatorTag {};
struct StageTag {};
struct TaskTag {};
struct QueryTag {};
struct FlowTag {};

using SiteId = Id<SiteTag>;
using OperatorId = Id<OperatorTag>;
using StageId = Id<StageTag>;
using TaskId = Id<TaskTag>;
using QueryId = Id<QueryTag>;
using FlowId = Id<FlowTag>;

}  // namespace wasp
