#include "query/logical_plan.h"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <unordered_map>

namespace wasp::query {

const char* to_string(OperatorKind kind) {
  switch (kind) {
    case OperatorKind::kSource: return "source";
    case OperatorKind::kFilter: return "filter";
    case OperatorKind::kMap: return "map";
    case OperatorKind::kProject: return "project";
    case OperatorKind::kUnion: return "union";
    case OperatorKind::kWindowAggregate: return "window-agg";
    case OperatorKind::kJoin: return "join";
    case OperatorKind::kTopK: return "top-k";
    case OperatorKind::kSink: return "sink";
  }
  return "?";
}

OperatorId LogicalPlan::add_operator(LogicalOperator op) {
  const OperatorId id(static_cast<std::int64_t>(ops_.size()));
  op.id = id;
  ops_.push_back(std::move(op));
  upstream_.emplace_back();
  downstream_.emplace_back();
  return id;
}

void LogicalPlan::connect(OperatorId upstream, OperatorId downstream) {
  assert(upstream.valid() && downstream.valid());
  assert(static_cast<std::size_t>(upstream.value()) < ops_.size());
  assert(static_cast<std::size_t>(downstream.value()) < ops_.size());
  downstream_[static_cast<std::size_t>(upstream.value())].push_back(downstream);
  upstream_[static_cast<std::size_t>(downstream.value())].push_back(upstream);
}

const LogicalOperator& LogicalPlan::op(OperatorId id) const {
  return ops_[static_cast<std::size_t>(id.value())];
}

LogicalOperator& LogicalPlan::mutable_op(OperatorId id) {
  return ops_[static_cast<std::size_t>(id.value())];
}

const std::vector<OperatorId>& LogicalPlan::upstream(OperatorId id) const {
  return upstream_[static_cast<std::size_t>(id.value())];
}

const std::vector<OperatorId>& LogicalPlan::downstream(OperatorId id) const {
  return downstream_[static_cast<std::size_t>(id.value())];
}

std::vector<OperatorId> LogicalPlan::sources() const {
  std::vector<OperatorId> out;
  for (const auto& op : ops_) {
    if (op.is_source()) out.push_back(op.id);
  }
  return out;
}

std::vector<OperatorId> LogicalPlan::sinks() const {
  std::vector<OperatorId> out;
  for (const auto& op : ops_) {
    if (op.is_sink()) out.push_back(op.id);
  }
  return out;
}

std::vector<OperatorId> LogicalPlan::topological_order() const {
  std::vector<std::size_t> indegree(ops_.size(), 0);
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    indegree[i] = upstream_[i].size();
  }
  std::vector<OperatorId> ready;
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    if (indegree[i] == 0) ready.push_back(OperatorId(static_cast<std::int64_t>(i)));
  }
  std::vector<OperatorId> order;
  order.reserve(ops_.size());
  while (!ready.empty()) {
    const OperatorId id = ready.back();
    ready.pop_back();
    order.push_back(id);
    for (OperatorId d : downstream_[static_cast<std::size_t>(id.value())]) {
      if (--indegree[static_cast<std::size_t>(d.value())] == 0) {
        ready.push_back(d);
      }
    }
  }
  assert(order.size() == ops_.size() && "logical plan has a cycle");
  return order;
}

std::string LogicalPlan::validate() const {
  if (ops_.empty()) return "plan has no operators";
  std::vector<std::size_t> indegree(ops_.size(), 0);
  std::size_t visited = 0;
  for (const auto& op : ops_) {
    const auto i = static_cast<std::size_t>(op.id.value());
    if (op.is_source() && !upstream_[i].empty()) {
      return "source '" + op.name + "' has inputs";
    }
    if (!op.is_source() && upstream_[i].empty()) {
      return "non-source '" + op.name + "' has no inputs";
    }
    if (op.is_sink() && !downstream_[i].empty()) {
      return "sink '" + op.name + "' has outputs";
    }
    if (!op.is_sink() && downstream_[i].empty()) {
      return "non-sink '" + op.name + "' has no outputs";
    }
    if (op.kind == OperatorKind::kJoin && upstream_[i].size() != 2) {
      return "join '" + op.name + "' must have exactly two inputs";
    }
    if (op.is_source() && op.pinned_sites.empty()) {
      return "source '" + op.name + "' is not pinned to any site";
    }
  }
  // Acyclicity via Kahn count.
  for (std::size_t i = 0; i < ops_.size(); ++i) indegree[i] = upstream_[i].size();
  std::vector<std::size_t> ready;
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    if (indegree[i] == 0) ready.push_back(i);
  }
  while (!ready.empty()) {
    const std::size_t i = ready.back();
    ready.pop_back();
    ++visited;
    for (OperatorId d : downstream_[i]) {
      if (--indegree[static_cast<std::size_t>(d.value())] == 0) {
        ready.push_back(static_cast<std::size_t>(d.value()));
      }
    }
  }
  if (visited != ops_.size()) return "plan has a cycle";
  return "";
}

OperatorTable<OperatorRates> LogicalPlan::estimate_rates(
    const OperatorTable<double>& source_rates) const {
  assert(source_rates.size() == ops_.size());
  OperatorTable<OperatorRates> rates(ops_.size());
  for (OperatorId id : topological_order()) {
    const LogicalOperator& o = op(id);
    OperatorRates& r = rates[id];
    if (o.is_source()) {
      r.input_eps = source_rates[id];
    } else {
      for (OperatorId u : upstream(id)) r.input_eps += rates[u].output_eps;
    }
    r.output_eps = o.selectivity * r.input_eps;
  }
  return rates;
}

std::string LogicalPlan::signature(OperatorId id) const {
  const LogicalOperator& o = op(id);
  std::vector<std::string> children;
  for (OperatorId u : upstream(id)) children.push_back(signature(u));
  // Commutative operators are order-insensitive in their inputs.
  if (o.kind == OperatorKind::kJoin || o.kind == OperatorKind::kUnion) {
    std::sort(children.begin(), children.end());
  }
  std::ostringstream os;
  if (o.is_source()) {
    // Source identity is its name (the external stream it reads).
    os << "src(" << o.name << ")";
  } else {
    os << to_string(o.kind);
    if (o.window.windowed()) os << "[w=" << o.window.length_sec << "]";
    os << "(";
    for (std::size_t i = 0; i < children.size(); ++i) {
      if (i > 0) os << ",";
      os << children[i];
    }
    os << ")";
  }
  return os.str();
}

bool LogicalPlan::can_inherit_state_from(const LogicalPlan& old_plan) const {
  std::vector<std::string> mine;
  for (const auto& o : ops_) {
    if (o.stateful()) mine.push_back(signature(o.id));
  }
  for (const auto& o : old_plan.ops_) {
    if (!o.stateful()) continue;
    const std::string sig = old_plan.signature(o.id);
    if (std::find(mine.begin(), mine.end(), sig) == mine.end()) return false;
  }
  return true;
}

std::vector<std::pair<OperatorId, OperatorId>> LogicalPlan::matching_operators(
    const LogicalPlan& old_plan) const {
  std::vector<std::pair<OperatorId, OperatorId>> matches;
  std::unordered_map<std::string, OperatorId> mine;
  for (const auto& o : ops_) mine.emplace(signature(o.id), o.id);
  for (const auto& o : old_plan.ops_) {
    const auto it = mine.find(old_plan.signature(o.id));
    if (it != mine.end()) matches.emplace_back(o.id, it->second);
  }
  return matches;
}

}  // namespace wasp::query
