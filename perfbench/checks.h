#ifndef MATCHCATCHER_PERFBENCH_CHECKS_H_
#define MATCHCATCHER_PERFBENCH_CHECKS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "blocking/candidate_set.h"
#include "config/config_generator.h"
#include "ssj/topk_list.h"
#include "table/table.h"
#include "text/similarity.h"

namespace mc {
namespace perfbench {

/// CRC-32 over every (pair, score) of every list, in list order — the
/// per-session checksum runs and seeds are compared by.
uint32_t ListsCrc(const std::vector<std::vector<ScoredPair>>& lists);

/// What the brute-force spot check examined.
struct SpotCheckResult {
  /// Empty when every check passed; the first failure otherwise.
  std::string error;
  size_t rows_sampled = 0;
  size_t pairs_scored = 0;   ///< (a, b, config) triples scored by brute force.
  size_t listed_checked = 0;  ///< Listed entries whose score was recomputed.
};

/// Recomputes per-config scores from the raw cell strings for a seeded
/// sample of `sample_rows` table-A rows against every table-B row, using
/// the text module's tokenizer (DistinctWordTokens) and set measure — never
/// the corpus or the text plane. Fails when a listed pair is in C, when a
/// listed score differs from the recomputed one, or when a pair outside C
/// with overlap >= `q_used` scores strictly above its config list's k-th
/// score (or the list holds fewer than k pairs) and is missing from it.
SpotCheckResult BruteForceSpotCheck(
    const Table& table_a, const Table& table_b, const CandidateSet& excluded,
    const PromisingAttributes& attributes, const ConfigTree& tree,
    const std::vector<std::vector<ScoredPair>>& lists, size_t q_used,
    size_t k, SetMeasure measure, uint64_t seed, size_t sample_rows);

}  // namespace perfbench
}  // namespace mc

#endif  // MATCHCATCHER_PERFBENCH_CHECKS_H_
