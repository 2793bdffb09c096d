#include "checks.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>

#include "text/tokenize.h"
#include "util/crc32.h"
#include "util/random.h"

namespace mc {
namespace perfbench {

uint32_t ListsCrc(const std::vector<std::vector<ScoredPair>>& lists) {
  uint32_t crc = 0;
  for (const std::vector<ScoredPair>& list : lists) {
    const uint64_t size = list.size();
    crc = Crc32(&size, sizeof(size), crc);
    for (const ScoredPair& entry : list) {
      crc = Crc32(&entry.pair, sizeof(entry.pair), crc);
      crc = Crc32(&entry.score, sizeof(entry.score), crc);
    }
  }
  return crc;
}

namespace {

// A row as sorted (token id, attribute mask) entries: the set of distinct
// word tokens over the promising attributes, each tagged with the
// attributes it occurs in.
using RowTokens = std::vector<std::pair<uint32_t, uint32_t>>;

class Tokenizer {
 public:
  explicit Tokenizer(const PromisingAttributes& attributes)
      : columns_(attributes.columns) {}

  RowTokens Row(const Table& table, size_t row) {
    std::unordered_map<uint32_t, uint32_t> masks;
    for (size_t bit = 0; bit < columns_.size(); ++bit) {
      if (table.IsMissing(row, columns_[bit])) continue;
      for (const std::string& token :
           DistinctWordTokens(table.Value(row, columns_[bit]))) {
        auto [it, inserted] = ids_.emplace(
            token, static_cast<uint32_t>(ids_.size()));
        masks[it->second] |= uint32_t{1} << bit;
      }
    }
    RowTokens tokens(masks.begin(), masks.end());
    std::sort(tokens.begin(), tokens.end());
    return tokens;
  }

 private:
  std::vector<size_t> columns_;
  std::unordered_map<std::string, uint32_t> ids_;
};

std::string Exact(double value) {
  char text[32];
  std::snprintf(text, sizeof(text), "%.17g", value);
  return text;
}

size_t ConfigLength(const RowTokens& row, uint32_t config) {
  size_t length = 0;
  for (const auto& [id, mask] : row) length += (mask & config) != 0;
  return length;
}

}  // namespace

SpotCheckResult BruteForceSpotCheck(
    const Table& table_a, const Table& table_b, const CandidateSet& excluded,
    const PromisingAttributes& attributes, const ConfigTree& tree,
    const std::vector<std::vector<ScoredPair>>& lists, size_t q_used,
    size_t k, SetMeasure measure, uint64_t seed, size_t sample_rows) {
  SpotCheckResult result;
  if (lists.size() != tree.nodes.size()) {
    result.error = "list count differs from config count";
    return result;
  }
  const size_t configs = tree.nodes.size();
  Tokenizer tokenizer(attributes);
  std::vector<RowTokens> rows_b(table_b.num_rows());
  std::vector<std::vector<size_t>> lengths_b(table_b.num_rows());
  for (size_t b = 0; b < rows_b.size(); ++b) {
    rows_b[b] = tokenizer.Row(table_b, b);
    for (const ConfigNode& node : tree.nodes) {
      lengths_b[b].push_back(ConfigLength(rows_b[b], node.mask));
    }
  }

  // Seeded sample of distinct A rows, always including a row that owns the
  // root list's first entry so the check never samples only empty rows.
  Rng rng(seed);
  std::vector<RowId> sample;
  if (!lists.empty() && !lists[0].empty()) {
    sample.push_back(PairRowA(lists[0][0].pair));
  }
  const size_t wanted = std::min(sample_rows, table_a.num_rows());
  while (sample.size() < wanted) {
    const RowId row = static_cast<RowId>(rng.NextBelow(table_a.num_rows()));
    if (std::find(sample.begin(), sample.end(), row) == sample.end()) {
      sample.push_back(row);
    }
  }
  result.rows_sampled = sample.size();

  std::vector<double> kth(configs);
  for (size_t c = 0; c < configs; ++c) {
    kth[c] = lists[c].size() < k ? -std::numeric_limits<double>::infinity()
                                 : lists[c].back().score;
  }
  std::vector<std::pair<uint32_t, uint32_t>> common;
  for (RowId a : sample) {
    // Listed scores of this row, per config.
    std::vector<std::unordered_map<RowId, double>> listed(configs);
    for (size_t c = 0; c < configs; ++c) {
      for (const ScoredPair& entry : lists[c]) {
        if (PairRowA(entry.pair) != a) continue;
        if (excluded.Contains(entry.pair)) {
          result.error = "listed pair is in the blocker output C";
          return result;
        }
        listed[c].emplace(PairRowB(entry.pair), entry.score);
      }
    }
    const RowTokens row_a = tokenizer.Row(table_a, a);
    std::vector<size_t> lengths_a;
    for (const ConfigNode& node : tree.nodes) {
      lengths_a.push_back(ConfigLength(row_a, node.mask));
    }
    for (RowId b = 0; b < rows_b.size(); ++b) {
      if (excluded.Contains(a, b)) continue;
      common.clear();
      const RowTokens& row_b = rows_b[b];
      for (size_t i = 0, j = 0; i < row_a.size() && j < row_b.size();) {
        if (row_a[i].first == row_b[j].first) {
          common.emplace_back(row_a[i].second, row_b[j].second);
          ++i;
          ++j;
        } else if (row_a[i].first < row_b[j].first) {
          ++i;
        } else {
          ++j;
        }
      }
      for (size_t c = 0; c < configs; ++c) {
        const uint32_t config = tree.nodes[c].mask;
        auto it = listed[c].find(b);
        if (common.empty() && it == listed[c].end()) continue;
        size_t overlap = 0;
        for (const auto& [mask_a, mask_b] : common) {
          overlap += (mask_a & config) != 0 && (mask_b & config) != 0;
        }
        const double score = SetSimilarityFromCounts(
            measure, lengths_a[c], lengths_b[b][c], overlap);
        ++result.pairs_scored;
        if (it != listed[c].end()) {
          ++result.listed_checked;
          if (it->second != score) {
            result.error = "config " + std::to_string(c) + " pair (" +
                           std::to_string(a) + ", " + std::to_string(b) +
                           ") listed with score " + Exact(it->second) +
                           ", brute force gives " + Exact(score);
            return result;
          }
        } else if (overlap >= std::max<size_t>(q_used, 1) && score > kth[c]) {
          result.error = "config " + std::to_string(c) + " misses pair (" +
                         std::to_string(a) + ", " + std::to_string(b) +
                         ") scoring " + Exact(score) +
                         " above its k-th score " + Exact(kth[c]);
          return result;
        }
      }
    }
  }
  return result;
}

}  // namespace perfbench
}  // namespace mc
