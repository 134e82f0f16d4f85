#include "opt/reconstruction.h"

#include <algorithm>
#include <set>

namespace dynopt {

QuerySpec ReplaceWithFiltered(const QuerySpec& spec, const std::string& alias,
                              const std::string& temp_name,
                              std::vector<std::string> provided) {
  QuerySpec out = spec;
  for (auto& ref : out.tables) {
    if (ref.alias == alias) {
      ref.table = temp_name;
      ref.is_intermediate = true;
      ref.filtered = true;
      ref.provided_columns = std::move(provided);
      break;
    }
  }
  out.predicates.erase(
      std::remove_if(out.predicates.begin(), out.predicates.end(),
                     [&](const LocalPredicate& p) { return p.alias == alias; }),
      out.predicates.end());
  return out;
}

QuerySpec ReconstructAfterJoin(const QuerySpec& spec, const JoinEdge& executed,
                               const std::string& temp_name,
                               const std::string& new_alias,
                               std::vector<std::string> provided) {
  QuerySpec out;
  out.params = spec.params;
  out.projections = spec.projections;
  out.base_tables = spec.base_tables;
  out.group_by = spec.group_by;
  out.aggregates = spec.aggregates;
  out.order_by = spec.order_by;
  out.limit = spec.limit;

  const std::string& a = executed.left_alias;
  const std::string& b = executed.right_alias;

  // FROM clause: drop the joined refs, add the intermediate.
  for (const auto& ref : spec.tables) {
    if (ref.alias == a || ref.alias == b) continue;
    out.tables.push_back(ref);
  }
  TableRef merged;
  merged.table = temp_name;
  merged.alias = new_alias;
  merged.is_intermediate = true;
  merged.filtered = true;
  merged.provided_columns = std::move(provided);
  out.tables.push_back(std::move(merged));

  // Local predicates of the joined refs were applied inside the executed
  // job; everything else is kept verbatim.
  for (const auto& pred : spec.predicates) {
    if (pred.alias == a || pred.alias == b) continue;
    out.predicates.push_back(pred);
  }

  // WHERE joins: remove the executed edge; re-point surviving edges that
  // touched a or b at the intermediate. Key column names are unchanged —
  // the intermediate provides them under their original qualified names.
  for (const auto& edge : spec.joins) {
    if ((edge.left_alias == a && edge.right_alias == b) ||
        (edge.left_alias == b && edge.right_alias == a)) {
      continue;  // The executed join.
    }
    JoinEdge updated = edge;
    if (updated.left_alias == a || updated.left_alias == b) {
      updated.left_alias = new_alias;
    }
    if (updated.right_alias == a || updated.right_alias == b) {
      updated.right_alias = new_alias;
    }
    out.joins.push_back(std::move(updated));
  }
  out.NormalizeJoins();
  return out;
}

std::vector<std::string> RequiredOutputColumns(const QuerySpec& spec,
                                               const JoinEdge& edge) {
  std::vector<std::string> out;
  std::set<std::string> seen;
  auto add = [&](const std::string& name) {
    if (seen.insert(name).second) out.push_back(name);
  };
  const TableRef* left = spec.FindRef(edge.left_alias);
  const TableRef* right = spec.FindRef(edge.right_alias);
  for (const auto& proj : spec.projections) {
    if (left->Provides(proj) || right->Provides(proj)) add(proj);
  }
  for (const auto& other : spec.joins) {
    bool is_executed = (other.left_alias == edge.left_alias &&
                        other.right_alias == edge.right_alias) ||
                       (other.left_alias == edge.right_alias &&
                        other.right_alias == edge.left_alias);
    if (is_executed) continue;
    for (const std::string& alias : {edge.left_alias, edge.right_alias}) {
      if (!other.Involves(alias)) continue;
      for (const auto& key : other.KeysOf(alias)) add(key);
    }
  }
  // Degenerate case: nothing downstream needs this result's columns (can
  // only happen for pathological projection-less queries); keep the join
  // keys so the dataset is non-empty schema-wise.
  if (out.empty()) {
    for (const auto& [l, r] : edge.keys) {
      add(l);
      add(r);
    }
  }
  return out;
}

}  // namespace dynopt
