// Randomized equivalence harness for the QJoin engine: RunTopKJoin must
// match BruteForceTopK(min_overlap = q) — the exact top-k restricted to
// pairs sharing at least q tokens — across every SetMeasure, q in 1..4,
// the seeded/excluded variants, merged shard sub-joins, long rows whose
// shared tokens all sit past position 64, and the identity between a seeded
// join and an unseeded one merged with the seed afterwards.
// Scores must agree exactly (both sides use the same merge + count
// arithmetic), and so must pair identity at every rank: both sides keep the
// canonical k-minimum under (score desc, pair asc), so even equal-score
// ties at the boundary (k-th) score resolve to the same pairs.

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "joint/parent_merge.h"
#include "ssj/corpus.h"
#include "ssj/topk_join.h"
#include "table/table.h"
#include "util/random.h"
#include "util/run_context.h"

namespace mc {
namespace {

std::pair<Table, Table> RandomTables(Rng& rng, size_t rows) {
  Schema schema({{"text", AttributeType::kString}});
  Table a(schema), b(schema);
  auto make_row = [&](Table& table) {
    std::string text;
    size_t n = 2 + rng.NextBelow(7);
    for (size_t t = 0; t < n; ++t) {
      if (t > 0) text += ' ';
      text += "w" + std::to_string(rng.NextZipf(40, 0.8));
    }
    table.AddRow({text});
  };
  for (size_t i = 0; i < rows; ++i) {
    make_row(a);
    make_row(b);
  }
  return {std::move(a), std::move(b)};
}

size_t OverlapOf(const ConfigView& view, RowId i, RowId j) {
  TokenSpan a = view.a(i);
  TokenSpan b = view.b(j);
  size_t x = 0, y = 0, overlap = 0;
  while (x < a.size() && y < b.size()) {
    if (a[x] == b[y]) {
      ++overlap;
      ++x;
      ++y;
    } else if (a[x] < b[y]) {
      ++x;
    } else {
      ++y;
    }
  }
  return overlap;
}

// Pair and score equality at every rank, boundary ties included (see file
// comment).
void ExpectSameTopK(const TopKList& got, const TopKList& want,
                    const std::string& label = "") {
  std::vector<ScoredPair> g = got.SortedDescending();
  std::vector<ScoredPair> w = want.SortedDescending();
  ASSERT_EQ(g.size(), w.size()) << label;
  for (size_t r = 0; r < g.size(); ++r) {
    EXPECT_EQ(g[r].pair, w[r].pair) << label << " rank " << r;
    EXPECT_EQ(g[r].score, w[r].score) << label << " rank " << r;
  }
}

// Scores exactly (DirectPairScorer) and cancels the join's RunContext on
// its n-th Score call, simulating a deadline firing mid-run.
class CancellingScorer : public PairScorer {
 public:
  CancellingScorer(const ConfigView* view, SetMeasure measure,
                   RunContext context, int cancel_on_call)
      : direct_(view, measure),
        context_(context),
        countdown_(cancel_on_call) {}

  double Score(RowId row_a, RowId row_b) override {
    if (--countdown_ == 0) context_.Cancel();
    return direct_.Score(row_a, row_b);
  }

 private:
  DirectPairScorer direct_;
  RunContext context_;
  int countdown_;
};

struct CaseName {
  template <typename ParamType>
  std::string operator()(
      const ::testing::TestParamInfo<ParamType>& info) const {
    static const char* kMeasureNames[] = {"jaccard", "cosine", "dice",
                                          "overlap"};
    return std::string(kMeasureNames[static_cast<int>(
               std::get<0>(info.param))]) +
           "_q" + std::to_string(std::get<1>(info.param));
  }
};

class SsjEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<SetMeasure, size_t>> {
 protected:
  SetMeasure measure() const { return std::get<0>(GetParam()); }
  size_t q() const { return std::get<1>(GetParam()); }
};

TEST_P(SsjEquivalenceTest, MatchesBruteForce) {
  Rng rng(1000 + static_cast<uint64_t>(measure()) * 10 + q());
  auto [a, b] = RandomTables(rng, 90);
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0});
  ConfigView view = corpus.MakeConfigView(0b1);

  TopKJoinOptions options;
  options.k = 30;
  options.measure = measure();
  options.q = q();
  TopKList want = BruteForceTopK(view, options.k, measure(), nullptr, q());
  ExpectSameTopK(RunTopKJoin(view, options), want);
}

TEST_P(SsjEquivalenceTest, MatchesBruteForceWithExclusion) {
  Rng rng(2000 + static_cast<uint64_t>(measure()) * 10 + q());
  auto [a, b] = RandomTables(rng, 80);
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0});
  ConfigView view = corpus.MakeConfigView(0b1);

  CandidateSet exclude;
  for (RowId i = 0; i < 80; i += 2) exclude.Add(i, (i * 5 + 1) % 80);
  for (RowId i = 0; i < 80; i += 3) exclude.Add(i, i);

  TopKJoinOptions options;
  options.k = 25;
  options.measure = measure();
  options.q = q();
  options.exclude = &exclude;
  TopKList want = BruteForceTopK(view, options.k, measure(), &exclude, q());
  TopKList got = RunTopKJoin(view, options);
  ExpectSameTopK(got, want);
  for (const ScoredPair& entry : got.Entries()) {
    EXPECT_FALSE(exclude.Contains(entry.pair));
  }
}

TEST_P(SsjEquivalenceTest, MatchesBruteForceSeededAndMerged) {
  Rng rng(3000 + static_cast<uint64_t>(measure()) * 10 + q());
  auto [a, b] = RandomTables(rng, 80);
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0});
  ConfigView view = corpus.MakeConfigView(0b1);

  // Seed: exact scores for arbitrary q-eligible pairs (as a parent's
  // re-adjusted top-k would deliver). Pairs below the q-overlap floor are
  // left out so the q-restricted brute force stays the ground truth.
  DirectPairScorer scorer(&view, measure());
  std::vector<ScoredPair> seed;
  for (RowId i = 0; i < 80; i += 2) {
    RowId j = (i * 11 + 2) % 80;
    if (OverlapOf(view, i, j) < q()) continue;
    seed.push_back(ScoredPair{MakePairId(i, j), scorer.Score(i, j)});
  }

  TopKJoinOptions options;
  options.k = 25;
  options.measure = measure();
  options.q = q();
  TopKList got = RunTopKJoin(view, options, nullptr, &seed);
  ExpectSameTopK(got, BruteForceTopK(view, options.k, measure(), nullptr,
                                     q()));
}

// The joint executor's schedule rests on top-k being decomposable: a join
// seeded with S returns topk(Q ∪ S), Q being the view's q-eligible pair
// space, and an unseeded join whose list is merged with S afterwards
// returns topk(topk(Q) ∪ S) — the same list. S is a parent config's list
// re-adjusted to the child view, as the executor builds it, so it holds
// pairs below the child's q-overlap floor as well.
TEST_P(SsjEquivalenceTest, SeededJoinEqualsUnseededMergedWithSeed) {
  Rng rng(4000 + static_cast<uint64_t>(measure()) * 10 + q());
  Schema schema({{"name", AttributeType::kString},
                 {"desc", AttributeType::kString}});
  Table a(schema), b(schema);
  auto words = [&](size_t n) {
    std::string text;
    for (size_t t = 0; t < n; ++t) {
      if (t > 0) text += ' ';
      text += "w" + std::to_string(rng.NextZipf(40, 0.8));
    }
    return text;
  };
  for (size_t i = 0; i < 80; ++i) {
    a.AddRow({words(1 + rng.NextBelow(4)), words(rng.NextBelow(6))});
    b.AddRow({words(1 + rng.NextBelow(4)), words(rng.NextBelow(6))});
  }
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0, 1});
  ConfigView parent_view = corpus.MakeConfigView(0b11);
  ConfigView view = corpus.MakeConfigView(0b01);

  // The parent's list: its top pairs plus random ones, scored under the
  // parent config, then re-adjusted to the child.
  TopKJoinOptions parent_options;
  parent_options.k = 30;
  parent_options.measure = measure();
  std::vector<ScoredPair> parent =
      RunTopKJoin(parent_view, parent_options).SortedDescending();
  DirectPairScorer parent_scorer(&parent_view, measure());
  for (size_t n = 0; n < 30; ++n) {
    const RowId i = static_cast<RowId>(rng.NextBelow(80));
    const RowId j = static_cast<RowId>(rng.NextBelow(80));
    parent.push_back(ScoredPair{MakePairId(i, j), parent_scorer.Score(i, j)});
  }
  DirectPairScorer scorer(&view, measure());
  const std::vector<ScoredPair> seed = ReadjustToConfig(parent, view, scorer);
  size_t below_floor = 0;
  for (const ScoredPair& entry : seed) {
    if (OverlapOf(view, PairRowA(entry.pair), PairRowB(entry.pair)) < q()) {
      ++below_floor;
    }
  }
  EXPECT_GT(below_floor, 0u);

  for (size_t k : {size_t{5}, size_t{25}, size_t{60}}) {
    TopKJoinOptions options;
    options.k = k;
    options.measure = measure();
    options.q = q();
    TopKList want(k);
    want.MergeFrom(RunTopKJoin(view, options).SortedDescending());
    want.MergeFrom(seed);
    ExpectSameTopK(RunTopKJoin(view, options, nullptr, &seed), want,
                   "k=" + std::to_string(k));
  }
}

// The joint executor's shard tasks: the shard sub-join lists of one config,
// merged through TopKList::Add, are the canonical top-k of the whole space.
TEST_P(SsjEquivalenceTest, ShardedMatchesSequentialScores) {
  Rng rng(4000 + static_cast<uint64_t>(measure()) * 10 + q());
  auto [a, b] = RandomTables(rng, 90);
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0});
  ConfigView view = corpus.MakeConfigView(0b1);

  TopKJoinOptions options;
  options.k = 30;
  options.measure = measure();
  options.q = q();
  TopKList want = BruteForceTopK(view, options.k, measure(), nullptr, q());
  for (size_t shards : {size_t{2}, size_t{7}}) {
    TopKList merged(options.k);
    for (size_t s = 0; s < shards; ++s) {
      const TopKList shard = RunTopKJoinShard(view, options, s, shards);
      for (const ScoredPair& entry : shard.Entries()) {
        merged.Add(entry.pair, entry.score);
      }
    }
    ExpectSameTopK(merged, want);
  }
}

// Rows of 200+ distinct tokens: mostly rare ones (low ranks, early in the
// rank-sorted row), then a few from a small mid-frequency pool and from 12
// heavy hitters that most rows carry (the highest ranks, so the last
// positions of every row). Pairs share their tokens deep in both prefixes,
// so the "q-th shared token?" test runs with c = q - 1, q and q + 1 at
// positions far past 64.
std::pair<Table, Table> DeepPrefixTables(Rng& rng, size_t rows) {
  Schema schema({{"text", AttributeType::kString}});
  Table a(schema), b(schema);
  auto make_row = [&](Table& table, const char* side) {
    std::string text;
    for (size_t t = 0; t < 200; ++t) {
      if (t > 0) text += ' ';
      // Side-private rare tokens: they lengthen the prefixes without ever
      // being shared across the tables.
      text += side + std::to_string(rng.NextBelow(20000));
    }
    for (size_t t = 0; t < 12; ++t) {
      text += " m" + std::to_string(rng.NextZipf(30, 0.5));
    }
    for (size_t h = 0; h < 12; ++h) {
      if (rng.NextBelow(4) != 0) text += " h" + std::to_string(h);
    }
    table.AddRow({text});
  };
  for (size_t i = 0; i < rows; ++i) {
    make_row(a, "a");
    make_row(b, "b");
  }
  return {std::move(a), std::move(b)};
}

// Position of the n-th (1-based) shared token of rows i and j in row i and
// in row j, or {-1, -1} when they share fewer than n tokens.
std::pair<long, long> NthSharedPositions(const ConfigView& view, RowId i,
                                         RowId j, size_t n) {
  TokenSpan a = view.a(i);
  TokenSpan b = view.b(j);
  size_t x = 0, y = 0, seen = 0;
  while (x < a.size() && y < b.size()) {
    if (a[x] == b[y]) {
      if (++seen == n) return {static_cast<long>(x), static_cast<long>(y)};
      ++x;
      ++y;
    } else if (a[x] < b[y]) {
      ++x;
    } else {
      ++y;
    }
  }
  return {-1, -1};
}

// Scores exactly (DirectPairScorer) and counts the Score calls per pair.
class CountingScorer : public PairScorer {
 public:
  CountingScorer(const ConfigView* view, SetMeasure measure)
      : direct_(view, measure) {}

  double Score(RowId row_a, RowId row_b) override {
    ++calls_[MakePairId(row_a, row_b)];
    return direct_.Score(row_a, row_b);
  }

  const std::map<PairId, size_t>& calls() const { return calls_; }

 private:
  DirectPairScorer direct_;
  std::map<PairId, size_t> calls_;
};

// An unseeded pass scores each pair at most once — at its q-th shared
// token — so a count that misreads a later probe as the q-th shows up as a
// second Score call even though the re-scored list is unchanged.
void ExpectEachPairScoredOnceAtQ(const ConfigView& view,
                                 const CountingScorer& scorer,
                                 const TopKJoinStats& stats, size_t q,
                                 const std::string& label) {
  size_t total = 0;
  for (const auto& [pair, calls] : scorer.calls()) {
    EXPECT_EQ(calls, 1u) << label << " pair " << pair;
    EXPECT_GE(OverlapOf(view, PairRowA(pair), PairRowB(pair)), q) << label;
    total += calls;
  }
  EXPECT_EQ(total, stats.pairs_scored) << label;
}

TEST_P(SsjEquivalenceTest, DeepPrefixMatchesBruteForceAtEveryRank) {
  Rng rng(6000 + static_cast<uint64_t>(measure()) * 10 + q());
  auto [a, b] = DeepPrefixTables(rng, 40);
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0});
  ConfigView view = corpus.MakeConfigView(0b1);

  CandidateSet exclude;
  for (RowId i = 0; i < 40; i += 3) exclude.Add(i, (i * 7 + 2) % 40);

  TopKJoinOptions options;
  options.k = 120;
  options.measure = measure();
  options.q = q();
  options.exclude = &exclude;
  TopKList want = BruteForceTopK(view, options.k, measure(), &exclude, q());
  ASSERT_EQ(want.size(), options.k);

  // The fixture reaches the deep probes: every listed pair shares only
  // mid-frequency and heavy-hitter tokens, so its first shared token (and
  // every later one) sits past position 64 in both rows, and some listed
  // pairs share a (q+1)-th token, so probes with c = q + 1 occur too.
  size_t past_q = 0;
  for (const ScoredPair& entry : want.Entries()) {
    const RowId i = PairRowA(entry.pair);
    const RowId j = PairRowB(entry.pair);
    auto [x, y] = NthSharedPositions(view, i, j, 1);
    ASSERT_GT(x, 64);
    ASSERT_GT(y, 64);
    if (NthSharedPositions(view, i, j, q() + 1).first >= 0) ++past_q;
  }
  EXPECT_GT(past_q, 0u);

  ExpectSameTopK(RunTopKJoin(view, options), want, "event engine");
  {
    CountingScorer counting(&view, measure());
    TopKJoinStats stats;
    ExpectSameTopK(RunTopKJoin(view, options, &counting, nullptr, &stats),
                   want, "event engine, counted");
    ExpectEachPairScoredOnceAtQ(view, counting, stats, q(), "event engine");
  }

  const double kth = want.KthScore();
  const double overshoot = kth + (1.0 - kth) * 0.5 + 1e-6;
  for (double tau : {kth, overshoot}) {
    const std::string at = tau == kth ? " (done)" : " (restart)";
    TopKJoinOptions hybrid = options;
    hybrid.prefilter_threshold = tau;
    TopKJoinStats hybrid_stats;
    ExpectSameTopK(
        RunTopKJoin(view, hybrid, nullptr, nullptr, &hybrid_stats), want,
        "hybrid prefilter" + at);
    EXPECT_EQ(hybrid_stats.prefilter_restarts, tau == kth ? 0u : 1u) << at;

    TopKJoinStats threshold_stats;
    ExpectSameTopK(
        RunThresholdJoin(view, hybrid, nullptr, nullptr, &threshold_stats),
        want, "threshold join" + at);
    EXPECT_EQ(threshold_stats.prefilter_restarts, tau == kth ? 0u : 1u)
        << at;
  }
  {
    TopKJoinOptions threshold = options;
    threshold.prefilter_threshold = kth;
    CountingScorer counting(&view, measure());
    TopKJoinStats stats;
    ExpectSameTopK(
        RunThresholdJoin(view, threshold, &counting, nullptr, &stats), want,
        "threshold join, counted");
    ExpectEachPairScoredOnceAtQ(view, counting, stats, q(), "threshold join");
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMeasuresAllQ, SsjEquivalenceTest,
    ::testing::Combine(::testing::Values(SetMeasure::kJaccard,
                                         SetMeasure::kCosine,
                                         SetMeasure::kDice,
                                         SetMeasure::kOverlapCoefficient),
                       ::testing::Values(size_t{1}, size_t{2}, size_t{3},
                                         size_t{4})),
    CaseName());

TEST(SsjCancellationTest, TruncatedJoinReturnsExactlyScoredBestSoFar) {
  // Large enough that the full join pops several times the 1024-event
  // cancellation cadence, so the cancel lands mid-run.
  Rng rng(5000);
  auto [a, b] = RandomTables(rng, 600);
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0});
  ConfigView view = corpus.MakeConfigView(0b1);

  TopKJoinOptions options;
  options.k = 40;
  options.run_context = RunContext::Cancellable();
  CancellingScorer cancel(&view, options.measure, options.run_context,
                          /*cancel_on_call=*/4);
  TopKJoinStats stats;
  TopKList got = RunTopKJoin(view, options, &cancel, nullptr, &stats);

  // The run was cut mid-join: flagged truncated, and the best-so-far list
  // is a subset of the true q-eligible pair space with *exact* scores — a
  // cancelled join never returns an unverified or partially computed score.
  EXPECT_TRUE(stats.truncated);
  TopKJoinStats full_stats;
  TopKList full = RunTopKJoin(view,
                              TopKJoinOptions{
                                  .k = options.k,
                                  .measure = options.measure,
                                  .q = options.q,
                              },
                              nullptr, nullptr, &full_stats);
  // Stopped at the first cancellation poll, before draining.
  EXPECT_LT(stats.events_popped, full_stats.events_popped);
  DirectPairScorer scorer(&view, options.measure);
  for (const ScoredPair& entry : got.Entries()) {
    EXPECT_EQ(entry.score, scorer.Score(PairRowA(entry.pair),
                                        PairRowB(entry.pair)));
    EXPECT_GE(OverlapOf(view, PairRowA(entry.pair), PairRowB(entry.pair)),
              options.q);
  }
  EXPECT_LE(got.size(), full.size());
}

}  // namespace
}  // namespace mc
