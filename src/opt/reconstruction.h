#ifndef DYNOPT_OPT_RECONSTRUCTION_H_
#define DYNOPT_OPT_RECONSTRUCTION_H_

#include <string>
#include <vector>

#include "plan/query_spec.h"

namespace dynopt {

/// Query Reconstruction (Section 5.4 / Algorithm 1 lines 35-39).
///
/// After a re-optimization point materializes something, the remaining
/// query is rewritten around the new intermediate dataset. Intermediates
/// keep the original qualified column names of their inputs, so joins and
/// projections only need their provider re-pointed — no renaming.

/// Rewrites `spec` after the local predicates of `alias` were pushed down
/// and executed into temp table `temp_name` (which provides exactly
/// `provided` columns): the ref becomes an intermediate, its predicates are
/// dropped (already applied), and it is marked filtered.
QuerySpec ReplaceWithFiltered(const QuerySpec& spec, const std::string& alias,
                              const std::string& temp_name,
                              std::vector<std::string> provided);

/// Rewrites `spec` after join `executed` (between left_alias/right_alias)
/// was run and materialized into `temp_name` under `new_alias`: both joined
/// refs disappear, the intermediate takes their place, the executed edge is
/// removed and every other edge touching the joined refs is re-pointed at
/// `new_alias` (then joins are re-normalized, merging edges that now
/// connect the same pair).
QuerySpec ReconstructAfterJoin(const QuerySpec& spec, const JoinEdge& executed,
                               const std::string& temp_name,
                               const std::string& new_alias,
                               std::vector<std::string> provided);

/// Columns the materialized output of join `edge` must carry: projections
/// provided by either joined side and the keys of every *other* join edge
/// touching them (the `provided` list ReconstructAfterJoin expects).
std::vector<std::string> RequiredOutputColumns(const QuerySpec& spec,
                                               const JoinEdge& edge);

}  // namespace dynopt

#endif  // DYNOPT_OPT_RECONSTRUCTION_H_
