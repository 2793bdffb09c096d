#include "joint/caching_scorer.h"

#include <algorithm>
#include <cmath>

#include "simd/kernels.h"

namespace mc {

namespace {

// Overlap by merging the two rows' view spans (sorted rank arrays already
// filtered to the active config). Equivalent to SsjCorpus::ConfigOverlap —
// a token survives the view iff its mask intersects the config on that side
// — but merges only the surviving tokens instead of the full tuples.
size_t SpanOverlap(TokenSpan a, TokenSpan b) {
  return simd::OverlapCount(a.data, a.size(), b.data, b.size());
}

// Smallest overlap whose similarity reaches `threshold` for the given set
// sizes (runtime-measure twin of the engine's RequiredOverlap, non-strict:
// ties must still be scored in full). Closed-form guess, then a local
// adjustment — a handful of iterations at most.
size_t RequiredOverlapFor(SetMeasure measure, size_t size_a, size_t size_b,
                          double threshold) {
  const size_t max_overlap = std::min(size_a, size_b);
  const double a = static_cast<double>(size_a);
  const double b = static_cast<double>(size_b);
  auto reaches = [&](size_t overlap) {
    return SetSimilarityFromCounts(measure, size_a, size_b, overlap) >=
           threshold;
  };
  double guess;
  switch (measure) {
    case SetMeasure::kJaccard:
      guess = threshold * (a + b) / (1.0 + threshold);
      break;
    case SetMeasure::kCosine:
      guess = threshold * std::sqrt(a * b);
      break;
    case SetMeasure::kDice:
      guess = threshold * (a + b) / 2.0;
      break;
    default:
      guess = threshold * std::min(a, b);
      break;
  }
  size_t o = guess <= 0.0                                ? 0
             : guess >= static_cast<double>(max_overlap) ? max_overlap
                                                         : static_cast<size_t>(guess);
  while (o > 0 && reaches(o - 1)) --o;
  while (o <= max_overlap && !reaches(o)) ++o;
  return o;
}

// SpanOverlap with a positional bound: returns false as soon as matching
// every remaining token would still leave the overlap below `required`.
bool SpanOverlapAbove(TokenSpan a, TokenSpan b, size_t required,
                      size_t* overlap_out) {
  return simd::OverlapAtLeast(a.data, a.size(), b.data, b.size(), required,
                              overlap_out);
}

}  // namespace

CachingPairScorer::CachingPairScorer(const ConfigView* view, ConfigMask config,
                                     SetMeasure measure,
                                     const OverlapCache* cache)
    : view_(view),
      config_(config),
      measure_(measure),
      snapshot_(cache->Size() * 2 + 64) {
  cache->ForEach([this](PairId pair, const CachedOverlap& overlap) {
    bool inserted = false;
    *snapshot_.FindOrInsert(pair, &overlap, &inserted) = &overlap;
  });
}

double CachingPairScorer::Score(RowId row_a, RowId row_b) {
  const PairId pair = MakePairId(row_a, row_b);
  size_t overlap = 0;
  if (const CachedOverlap** cached = snapshot_.Find(pair)) {
    ++hits_;
    overlap = OverlapCache::OverlapUnder(**cached, config_);
  } else {
    ++misses_;
    overlap = SpanOverlap(view_->a(row_a), view_->b(row_b));
  }
  return SetSimilarityFromCounts(measure_, view_->a(row_a).size(),
                                 view_->b(row_b).size(), overlap);
}

bool CachingPairScorer::ScoreAbove(RowId row_a, RowId row_b, double threshold,
                                   double* score) {
  const PairId pair = MakePairId(row_a, row_b);
  const TokenSpan a = view_->a(row_a);
  const TokenSpan b = view_->b(row_b);
  if (const CachedOverlap** cached = snapshot_.Find(pair)) {
    ++hits_;
    *score = SetSimilarityFromCounts(
        measure_, a.size(), b.size(),
        OverlapCache::OverlapUnder(**cached, config_));
    return true;
  }
  ++misses_;
  const size_t required =
      RequiredOverlapFor(measure_, a.size(), b.size(), threshold);
  size_t overlap = 0;
  if (!SpanOverlapAbove(a, b, required, &overlap)) return false;
  *score = SetSimilarityFromCounts(measure_, a.size(), b.size(), overlap);
  return true;
}

}  // namespace mc
