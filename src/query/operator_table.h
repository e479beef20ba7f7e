// One value per operator of a logical plan, indexed by OperatorId.
//
// Operator ids are dense within a plan (0..num_operators-1), so a table is a
// vector and every walk over it runs in id order. The control plane keys its
// rate, parallelism and remap tables this way rather than by hashing ids, so
// no result can depend on the standard library's hash order (`wasp::Id` has
// no std::hash, and an id-keyed hash container does not compile).
#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

#include "common/ids.h"

namespace wasp::query {

template <typename T>
class OperatorTable {
 public:
  OperatorTable() = default;
  // A table over operators 0..num_operators-1, each holding `fill`.
  explicit OperatorTable(std::size_t num_operators, const T& fill = T{})
      : values_(num_operators, fill) {}

  [[nodiscard]] std::size_t size() const { return values_.size(); }
  // Grows (or shrinks) to `num_operators` entries; new entries hold `fill`.
  void resize(std::size_t num_operators, const T& fill = T{}) {
    values_.resize(num_operators, fill);
  }

  decltype(auto) operator[](OperatorId id) { return values_[index(id)]; }
  [[nodiscard]] decltype(auto) operator[](OperatorId id) const {
    return values_[index(id)];
  }

 private:
  [[nodiscard]] std::size_t index(OperatorId id) const {
    assert(id.valid() && static_cast<std::size_t>(id.value()) < values_.size());
    return static_cast<std::size_t>(id.value());
  }

  std::vector<T> values_;
};

}  // namespace wasp::query
