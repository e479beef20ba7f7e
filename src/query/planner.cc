#include "query/planner.h"

#include <algorithm>
#include <cassert>
#include <set>

namespace wasp::query {
namespace {

// Rebuilds `plan` without the operators marked in `removed`, copying all
// edges between kept operators. Returns the new plan and the old->new id
// mapping (removed operators map to an invalid id).
struct RebuiltPlan {
  LogicalPlan plan;
  OperatorTable<OperatorId> remap;
};

RebuiltPlan rebuild_without(const LogicalPlan& plan,
                            const OperatorTable<bool>& removed) {
  RebuiltPlan out;
  out.remap.resize(plan.num_operators());
  for (const auto& op : plan.operators()) {
    if (removed[op.id]) continue;
    LogicalOperator copy = op;
    out.remap[op.id] = out.plan.add_operator(std::move(copy));
  }
  for (const auto& op : plan.operators()) {
    if (removed[op.id]) continue;
    for (OperatorId d : plan.downstream(op.id)) {
      if (removed[d]) continue;
      out.plan.connect(out.remap[op.id], out.remap[d]);
    }
  }
  return out;
}

// A join tree found in the plan: its internal join nodes and its leaf inputs
// (operators outside the tree feeding it).
struct JoinTree {
  OperatorId root;                 // topmost join
  std::vector<OperatorId> joins;   // all internal joins, root included
  std::vector<OperatorId> leaves;  // external inputs, in discovery order
};

// Finds the topmost join tree: a join none of whose downstream operators is
// another join of the same tree. Returns nullopt-ish (root invalid) if the
// plan has no join.
JoinTree find_join_tree(const LogicalPlan& plan) {
  JoinTree tree;
  // Topmost join: a join whose downstream contains no join.
  for (const auto& op : plan.operators()) {
    if (op.kind != OperatorKind::kJoin) continue;
    bool feeds_join = false;
    for (OperatorId d : plan.downstream(op.id)) {
      if (plan.op(d).kind == OperatorKind::kJoin) {
        feeds_join = true;
        break;
      }
    }
    if (!feeds_join) {
      tree.root = op.id;
      break;
    }
  }
  if (!tree.root.valid()) return tree;

  // DFS through upstream joins. An upstream join belongs to the tree only if
  // it exclusively feeds the tree (single downstream); otherwise its output
  // is shared and it must stay intact -> treat as leaf.
  std::vector<OperatorId> stack{tree.root};
  while (!stack.empty()) {
    const OperatorId id = stack.back();
    stack.pop_back();
    tree.joins.push_back(id);
    for (OperatorId u : plan.upstream(id)) {
      const LogicalOperator& up = plan.op(u);
      if (up.kind == OperatorKind::kJoin && plan.downstream(u).size() == 1) {
        stack.push_back(u);
      } else {
        tree.leaves.push_back(u);
      }
    }
  }
  return tree;
}

}  // namespace

LogicalPlan QueryPlanner::push_down_filters(const LogicalPlan& plan) {
  // Find a filter whose only upstream is a union that only feeds it; pull
  // the filter below the union (one filter clone per union input). Repeat to
  // a fixed point.
  LogicalPlan current = plan;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& op : current.operators()) {
      if (op.kind != OperatorKind::kFilter) continue;
      if (current.upstream(op.id).size() != 1) continue;
      const OperatorId union_id = current.upstream(op.id)[0];
      const LogicalOperator& u = current.op(union_id);
      if (u.kind != OperatorKind::kUnion) continue;
      if (current.downstream(union_id).size() != 1) continue;

      // Rebuild: drop the filter; splice per-input filter clones in front of
      // the union.
      const LogicalOperator filter_template = op;
      const std::vector<OperatorId> union_downstream =
          current.downstream(op.id);  // filter's consumers move to the union
      OperatorTable<bool> removed(current.num_operators(), false);
      removed[op.id] = true;
      RebuiltPlan rebuilt = rebuild_without(current, removed);
      LogicalPlan& next = rebuilt.plan;
      const OperatorId new_union = rebuilt.remap[union_id];

      // The union's inputs currently connect straight to it; reroute each
      // through a filter clone. Rebuild edges: remove handled by rebuilding
      // again is overkill -- instead we rebuilt without the filter, so the
      // union's consumers are missing (they were the filter's consumers).
      for (OperatorId d : union_downstream) {
        next.connect(new_union, rebuilt.remap[d]);
      }
      // Insert filter clones on each union input edge. LogicalPlan has no
      // edge removal, so rebuild once more without the union's direct input
      // edges by reconstructing from scratch.
      LogicalPlan final_plan;
      OperatorTable<OperatorId> remap2(next.num_operators());
      for (const auto& o : next.operators()) {
        remap2[o.id] = final_plan.add_operator(o);
      }
      for (const auto& o : next.operators()) {
        for (OperatorId d : next.downstream(o.id)) {
          if (d == new_union) {
            LogicalOperator clone = filter_template;
            clone.name = filter_template.name + "@" + o.name;
            const OperatorId f = final_plan.add_operator(std::move(clone));
            final_plan.connect(remap2[o.id], f);
            final_plan.connect(f, remap2[new_union]);
          } else {
            final_plan.connect(remap2[o.id], remap2[d]);
          }
        }
      }
      current = std::move(final_plan);
      changed = true;
      break;  // restart scan on the rewritten plan
    }
  }
  return current;
}

std::vector<LogicalPlan> QueryPlanner::reorder_joins(const LogicalPlan& plan,
                                                     std::size_t max_inputs) {
  const JoinTree tree = find_join_tree(plan);
  if (!tree.root.valid() || tree.leaves.size() < 2 ||
      tree.leaves.size() > max_inputs) {
    return {plan};
  }

  const LogicalOperator root_template = plan.op(tree.root);
  const std::vector<OperatorId> root_downstream = [&] {
    std::vector<OperatorId> out;
    for (OperatorId d : plan.downstream(tree.root)) out.push_back(d);
    return out;
  }();

  OperatorTable<bool> removed(plan.num_operators(), false);
  for (OperatorId j : tree.joins) removed[j] = true;

  // Enumerate left-deep orders over leaf *indices*; the bottom join is
  // commutative, so enforce perm[0] < perm[1] to halve duplicates.
  std::vector<std::size_t> perm(tree.leaves.size());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;

  std::vector<LogicalPlan> plans;
  std::set<std::string> seen_signatures;
  do {
    if (perm[0] > perm[1]) continue;
    RebuiltPlan rebuilt = rebuild_without(plan, removed);
    LogicalPlan& p = rebuilt.plan;
    OperatorId left = rebuilt.remap[tree.leaves[perm[0]]];
    for (std::size_t i = 1; i < perm.size(); ++i) {
      LogicalOperator j = root_template;
      j.name = root_template.name + "#" + std::to_string(i - 1);
      const OperatorId join_id = p.add_operator(std::move(j));
      p.connect(left, join_id);
      p.connect(rebuilt.remap[tree.leaves[perm[i]]], join_id);
      left = join_id;
    }
    for (OperatorId d : root_downstream) {
      p.connect(left, rebuilt.remap[d]);
    }
    // Signature-level dedupe (different perms can yield isomorphic trees).
    const std::string sig = p.signature(left);
    if (seen_signatures.insert(sig).second) {
      assert(p.validate().empty());
      plans.push_back(std::move(p));
    }
  } while (std::next_permutation(perm.begin(), perm.end()));
  return plans;
}

// Cross-branch key duplication of a partially-aggregated stream: each
// branch holds its own partial result per key, so the merged input carries
// roughly this factor more records than the final aggregate emits.
constexpr double kPartialDuplication = 2.0;

std::optional<LogicalPlan> QueryPlanner::push_down_aggregation(
    const LogicalPlan& plan) {
  // Find a windowed aggregation whose single input is a union that only
  // feeds it (the union's branches are the partial-aggregation sites).
  for (const auto& agg : plan.operators()) {
    if (agg.kind != OperatorKind::kWindowAggregate || !agg.window.windowed()) {
      continue;
    }
    if (plan.upstream(agg.id).size() != 1) continue;
    const OperatorId union_id = plan.upstream(agg.id)[0];
    const LogicalOperator& u = plan.op(union_id);
    if (u.kind != OperatorKind::kUnion) continue;
    if (plan.downstream(union_id).size() != 1) continue;
    const auto& branches = plan.upstream(union_id);
    if (branches.size() < 2) continue;

    // Rebuild without the aggregation; splice partial aggs onto the union's
    // inputs and a merge aggregation after it.
    LogicalPlan next;
    OperatorTable<OperatorId> remap(plan.num_operators());
    for (const auto& op : plan.operators()) {
      if (op.id == agg.id) continue;
      remap[op.id] = next.add_operator(op);
    }
    // Partial aggregation per branch: same window/state semantics, higher
    // selectivity (duplicate partials), smaller per-branch state share.
    // Merge: combines partials into the exact final aggregate.
    LogicalOperator merge = agg;
    merge.name = agg.name + "-merge";
    merge.selectivity = 1.0 / kPartialDuplication;
    merge.state = StateSpec::windowed(1.0, 0.001);
    const OperatorId merge_id = next.add_operator(std::move(merge));

    for (const auto& op : plan.operators()) {
      if (op.id == agg.id) continue;
      for (OperatorId d : plan.downstream(op.id)) {
        if (d == agg.id) continue;  // re-attached below via merge
        if (d == union_id) {
          LogicalOperator partial = agg;
          partial.name = agg.name + "-partial@" + op.name;
          partial.selectivity =
              std::min(1.0, agg.selectivity * kPartialDuplication);
          const OperatorId pid = next.add_operator(std::move(partial));
          next.connect(remap[op.id], pid);
          next.connect(pid, remap[union_id]);
        } else {
          next.connect(remap[op.id], remap[d]);
        }
      }
    }
    next.connect(remap[union_id], merge_id);
    for (OperatorId d : plan.downstream(agg.id)) {
      next.connect(merge_id, remap[d]);
    }
    if (!next.validate().empty()) continue;
    return next;
  }
  return std::nullopt;
}

std::vector<LogicalPlan> QueryPlanner::enumerate(
    const LogicalPlan& input) const {
  LogicalPlan base =
      options_.enable_filter_pushdown ? push_down_filters(input) : input;
  if (!options_.enable_join_reordering) return {std::move(base)};

  // The (rewritten) original is always candidate 0 -- reorder_joins emits
  // left-deep trees only, so a bushy input would otherwise be lost (and a
  // stateful bushy plan would lose its only state-compatible candidate).
  auto full_signature = [](const LogicalPlan& p) {
    std::string sig;
    for (OperatorId s : p.sinks()) sig += p.signature(s);
    return sig;
  };
  const std::string base_sig = full_signature(base);

  std::vector<LogicalPlan> reordered =
      reorder_joins(base, options_.max_join_inputs);
  std::vector<LogicalPlan> plans;
  plans.push_back(std::move(base));
  for (auto& p : reordered) {
    if (full_signature(p) != base_sig) plans.push_back(std::move(p));
  }
  if (options_.enable_aggregation_pushdown) {
    // Aggregation-ordering variants of every plan gathered so far.
    const std::size_t before = plans.size();
    for (std::size_t i = 0; i < before; ++i) {
      if (auto pushed = push_down_aggregation(plans[i])) {
        if (full_signature(*pushed) != base_sig) {
          plans.push_back(std::move(*pushed));
        }
      }
    }
  }
  return plans;
}

namespace {

// Exact textual serialization of a logical plan: every operator field the
// rewrites and the state-inheritance test read, plus all edges. Two plans
// with equal serializations enumerate identical candidate sets.
std::string plan_memo_key(const LogicalPlan& plan) {
  std::string key;
  key.reserve(plan.num_operators() * 96);
  for (const auto& op : plan.operators()) {
    key += std::to_string(op.id.value());
    key += '|';
    key += op.name;
    key += '|';
    key += to_string(op.kind);
    key += '|';
    key += std::to_string(op.selectivity);
    key += '|';
    key += std::to_string(op.output_event_bytes);
    key += '|';
    key += std::to_string(op.events_per_sec_per_slot);
    key += '|';
    key += std::to_string(op.window.length_sec);
    key += '|';
    key += std::to_string(op.state.stateful);
    key += std::to_string(op.state.base_mb);
    key += '|';
    key += std::to_string(op.state.mb_per_kevent);
    key += '|';
    key += std::to_string(op.state.fixed_mb);
    key += '|';
    key += std::to_string(static_cast<int>(op.output_partitioning));
    key += std::to_string(op.splittable);
    for (SiteId s : op.pinned_sites) {
      key += ',';
      key += std::to_string(s.value());
    }
    key += '>';
    for (OperatorId d : plan.downstream(op.id)) {
      key += std::to_string(d.value());
      key += ',';
    }
    key += ';';
  }
  return key;
}

}  // namespace

std::vector<ReplanCandidate> QueryPlanner::enumerate_replans(
    const LogicalPlan& current) const {
  const std::string memo_key = plan_memo_key(current);
  if (const auto it = replan_memo_.find(memo_key); it != replan_memo_.end()) {
    return it->second;
  }
  std::vector<ReplanCandidate> admissible;
  for (auto& candidate : enumerate(current)) {
    // §4.3: every stateful operator of the running plan must either find a
    // signature match in the candidate (state carried over) or hold only
    // tumbling-window state, which re-initializes at the window boundary --
    // the switch then waits for that boundary.
    double boundary = 0.0;
    bool ok = true;
    for (const auto& op : current.operators()) {
      if (!op.stateful()) continue;
      const std::string sig = current.signature(op.id);
      bool matched = false;
      for (const auto& cop : candidate.operators()) {
        if (candidate.signature(cop.id) == sig) {
          matched = true;
          break;
        }
      }
      if (matched) continue;
      if (op.window.windowed()) {
        boundary = std::max(boundary, op.window.length_sec);
      } else {
        ok = false;  // unbounded state with no compatible home
        break;
      }
    }
    if (ok) {
      admissible.push_back(ReplanCandidate{std::move(candidate), boundary});
    }
  }
  replan_memo_.emplace(memo_key, admissible);
  return admissible;
}

}  // namespace wasp::query
