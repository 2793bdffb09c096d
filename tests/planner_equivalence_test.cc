// Randomized planner-vs-direct equivalence suite for the cost-based join
// planner (src/ssj/join_planner.h). The planner only chooses *how* a join
// runs — q, shard count, hybrid prefilter threshold — so for every choice
// it can make, executing the chosen plan must be bit-identical (pairs and
// raw score bits) to executing the same plan directly without the planner's
// involvement, across seeded corpora, all four set measures, and a range of
// k values. Plan decisions themselves must be deterministic for a fixed
// MC_PLANNER_SEED / PlannerOptions::seed. Also pins satellite regressions:
// corpus planner statistics are invalidated by SsjCorpus::ApplyDelta (the
// generation bump), and the hybrid prefilter stays bit-identical through a
// forced restart. The per-q probe ladder must plan identically on a worker
// pool and on the calling thread. Run under ASan and TSan by the ci.sh
// `planner` stage.

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "config/config_generator.h"
#include "datagen/generator.h"
#include "joint/joint_executor.h"
#include "ssj/corpus.h"
#include "ssj/join_planner.h"
#include "ssj/topk_join.h"
#include "table/table.h"
#include "table/table_delta.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace mc {
namespace {

std::pair<Table, Table> RandomTables(Rng& rng, size_t rows) {
  Schema schema({{"text", AttributeType::kString}});
  Table a(schema), b(schema);
  auto make_row = [&](Table& table) {
    std::string text;
    size_t n = 3 + rng.NextBelow(8);
    for (size_t t = 0; t < n; ++t) {
      if (t > 0) text += ' ';
      text += "w" + std::to_string(rng.NextZipf(60, 0.9));
    }
    table.AddRow({text});
  };
  for (size_t i = 0; i < rows; ++i) {
    make_row(a);
    make_row(b);
  }
  return {std::move(a), std::move(b)};
}

// Bit-exact list comparison: pair identity AND raw score bits must agree at
// every rank. This is strictly stronger than the boundary-tie-tolerant
// check of ssj_equivalence_test — the planner contract is bit-identity to
// running its chosen plan directly, not merely score equivalence.
void ExpectBitIdentical(const TopKList& got, const TopKList& want,
                        const std::string& label) {
  std::vector<ScoredPair> g = got.SortedDescending();
  std::vector<ScoredPair> w = want.SortedDescending();
  ASSERT_EQ(g.size(), w.size()) << label;
  for (size_t r = 0; r < g.size(); ++r) {
    EXPECT_EQ(g[r].pair, w[r].pair) << label << " rank " << r;
    EXPECT_EQ(g[r].score, w[r].score) << label << " rank " << r;
  }
}

struct CaseName {
  template <typename ParamType>
  std::string operator()(
      const ::testing::TestParamInfo<ParamType>& info) const {
    static const char* kMeasureNames[] = {"jaccard", "cosine", "dice",
                                          "overlap"};
    return std::string(kMeasureNames[static_cast<int>(
               std::get<0>(info.param))]) +
           "_k" + std::to_string(std::get<1>(info.param));
  }
};

class PlannerEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<SetMeasure, size_t>> {
 protected:
  SetMeasure measure() const { return std::get<0>(GetParam()); }
  size_t k() const { return std::get<1>(GetParam()); }
};

// Executing the planner's chosen plan (q, shards, hybrid threshold) must be
// bit-identical to executing the same (q, shards) classically — the
// planner's extra machinery (prefilter) changes work, never output.
TEST_P(PlannerEquivalenceTest, PlannedExecutionMatchesDirectRun) {
  Rng rng(7000 + static_cast<uint64_t>(measure()) * 100 + k());
  auto [a, b] = RandomTables(rng, 140);
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0});
  ConfigView view = corpus.MakeConfigView(0b1);

  PlannerOptions planner_options;
  planner_options.k = k();
  planner_options.measure = measure();
  planner_options.seed = 42;
  JoinPlan plan = PlanTopKJoin(corpus, view, planner_options);
  ASSERT_FALSE(plan.truncated);
  ASSERT_GE(plan.q, 1u);
  ASSERT_LE(plan.q, 4u);

  TopKJoinOptions direct;
  direct.k = k();
  direct.measure = measure();
  direct.q = plan.q;
  TopKList want = RunTopKJoin(view, direct);

  TopKJoinOptions planned = direct;
  if (plan.hybrid) planned.prefilter_threshold = plan.prefilter_threshold;
  TopKJoinStats stats;
  TopKList got = RunTopKJoin(view, planned, nullptr, nullptr, &stats);
  ExpectBitIdentical(got, want, "planned vs direct");
  // And against the brute-force reference at the planned q.
  ExpectBitIdentical(got,
                     BruteForceTopK(view, k(), measure(), nullptr, plan.q),
                     "planned vs brute force");
}

// The hybrid prefilter is bit-identical in BOTH of its control paths: the
// done case (tau at or below the true k-th score) and the restart case (tau
// overshoots; phase-1 list falls short and the pass re-runs unbounded,
// seeded with the survivors).
TEST_P(PlannerEquivalenceTest, HybridPrefilterBitIdenticalBothPaths) {
  Rng rng(8000 + static_cast<uint64_t>(measure()) * 100 + k());
  auto [a, b] = RandomTables(rng, 120);
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0});
  ConfigView view = corpus.MakeConfigView(0b1);

  TopKJoinOptions classic;
  classic.k = k();
  classic.measure = measure();
  classic.q = 2;
  TopKList want = RunTopKJoin(view, classic);
  ASSERT_TRUE(want.full()) << "workload too small for k";
  const double true_kth = want.KthScore();

  // Done case: tau == the true k-th score is the tightest valid threshold.
  {
    TopKJoinOptions hybrid = classic;
    hybrid.prefilter_threshold = true_kth;
    TopKJoinStats stats;
    TopKList got = RunTopKJoin(view, hybrid, nullptr, nullptr, &stats);
    EXPECT_EQ(stats.prefilter_restarts, 0u);
    ExpectBitIdentical(got, want, "done case");
  }
  // Restart case: an impossible tau (above every score) guarantees the
  // phase-1 list cannot certify, forcing the unbounded re-run.
  {
    TopKJoinOptions hybrid = classic;
    hybrid.prefilter_threshold = 2.0;
    TopKJoinStats stats;
    TopKList got = RunTopKJoin(view, hybrid, nullptr, nullptr, &stats);
    EXPECT_GE(stats.prefilter_restarts, 1u);
    ExpectBitIdentical(got, want, "restart case");
  }
  // Degenerate tau = 0 passes every pair yet still tightens the initial
  // bound (no negative sentinel); output unchanged.
  {
    TopKJoinOptions hybrid = classic;
    hybrid.prefilter_threshold = 0.0;
    ExpectBitIdentical(RunTopKJoin(view, hybrid), want, "tau zero");
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMeasuresKValues, PlannerEquivalenceTest,
    ::testing::Combine(::testing::Values(SetMeasure::kJaccard,
                                         SetMeasure::kCosine,
                                         SetMeasure::kDice,
                                         SetMeasure::kOverlapCoefficient),
                       ::testing::Values(size_t{10}, size_t{40})),
    CaseName());

// Bitwise: two doubles are the same plan evidence only if every bit agrees.
uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

void ExpectSamePlan(const JoinPlan& got, const JoinPlan& want,
                    const std::string& label) {
  EXPECT_EQ(got.q, want.q) << label;
  EXPECT_EQ(got.shards, want.shards) << label;
  EXPECT_EQ(got.mode, want.mode) << label;
  EXPECT_EQ(got.hybrid, want.hybrid) << label;
  EXPECT_EQ(Bits(got.prefilter_threshold), Bits(want.prefilter_threshold))
      << label;
  EXPECT_EQ(Bits(got.sampled_kth), Bits(want.sampled_kth)) << label;
  EXPECT_EQ(Bits(got.half_sample_kth), Bits(want.half_sample_kth)) << label;
  EXPECT_EQ(Bits(got.threshold_prefix_fraction),
            Bits(want.threshold_prefix_fraction))
      << label;
  EXPECT_EQ(got.sample_rate, want.sample_rate) << label;
  EXPECT_EQ(got.sample_rows, want.sample_rows) << label;
  EXPECT_EQ(got.stats_generation, want.stats_generation) << label;
  EXPECT_EQ(got.seed, want.seed) << label;
  EXPECT_EQ(got.est_events, want.est_events) << label;
  EXPECT_EQ(got.est_scored, want.est_scored) << label;
  EXPECT_EQ(got.truncated, want.truncated) << label;
  ASSERT_EQ(got.cost_per_q.size(), want.cost_per_q.size()) << label;
  for (size_t i = 0; i < got.cost_per_q.size(); ++i) {
    EXPECT_EQ(Bits(got.cost_per_q[i]), Bits(want.cost_per_q[i]))
        << label << " q " << i + 1;
  }
}

// Plans are a pure function of (corpus generation, view, options): the same
// seed must reproduce every decision and every piece of evidence.
TEST(PlannerDeterminismTest, SameSeedSamePlan) {
  Rng rng(9100);
  auto [a, b] = RandomTables(rng, 130);
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0});
  ConfigView view = corpus.MakeConfigView(0b1);

  PlannerOptions options;
  options.k = 25;
  options.seed = 1234;
  ExpectSamePlan(PlanTopKJoin(corpus, view, options),
                 PlanTopKJoin(corpus, view, options), "same seed");
}

TEST(PlannerDeterminismTest, SeedResolvesFromEnvironment) {
  Rng rng(9200);
  auto [a, b] = RandomTables(rng, 100);
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0});
  ConfigView view = corpus.MakeConfigView(0b1);

  PlannerOptions options;
  options.k = 20;
  options.seed = 0;  // Defer to the environment.
  ASSERT_EQ(setenv("MC_PLANNER_SEED", "98765", /*overwrite=*/1), 0);
  EXPECT_EQ(PlannerSeedFromEnv(), 98765u);
  const JoinPlan env_plan = PlanTopKJoin(corpus, view, options);
  EXPECT_EQ(env_plan.seed, 98765u);
  ASSERT_EQ(unsetenv("MC_PLANNER_SEED"), 0);
  const JoinPlan default_plan = PlanTopKJoin(corpus, view, options);
  EXPECT_EQ(default_plan.seed, PlannerSeedFromEnv());
  EXPECT_NE(default_plan.seed, 0u);
  // An explicit options seed beats the environment.
  ASSERT_EQ(setenv("MC_PLANNER_SEED", "11111", /*overwrite=*/1), 0);
  options.seed = 5;
  EXPECT_EQ(PlanTopKJoin(corpus, view, options).seed, 5u);
  ASSERT_EQ(unsetenv("MC_PLANNER_SEED"), 0);
}

// The probe ladder on a 4-worker pool plans exactly what the sequential
// ladder plans, for every measure and every seed of the ci.sh planner
// stage's MC_PLANNER_SEED matrix.
TEST(PlannerEquivalenceParallelTest, PoolLadderEqualsSequentialLadder) {
  Rng rng(9300);
  auto [a, b] = RandomTables(rng, 600);
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0});
  ConfigView view = corpus.MakeConfigView(0b1);
  ThreadPool pool(4, "mc-test");
  for (SetMeasure measure :
       {SetMeasure::kJaccard, SetMeasure::kCosine, SetMeasure::kDice,
        SetMeasure::kOverlapCoefficient}) {
    for (uint64_t seed : {uint64_t{42}, uint64_t{31337},
                          uint64_t{909090909}}) {
      PlannerOptions options;
      options.k = 60;
      options.measure = measure;
      options.seed = seed;
      options.max_shards = 4;
      const JoinPlan sequential = PlanTopKJoin(corpus, view, options);
      const JoinPlan pooled = PlanTopKJoin(corpus, view, options, &pool);
      ASSERT_FALSE(sequential.truncated);
      ASSERT_GT(sequential.cost_per_q.size(), 1u)
          << "the ladder must have more than one probe to run in parallel";
      ExpectSamePlan(pooled, sequential,
                     "measure " +
                         std::to_string(static_cast<int>(measure)) +
                         " seed " + std::to_string(seed));
    }
  }
}

// A deadline that expires while the pooled probes run: the plan comes back
// truncated with the conservative fallback, and the call returns only once
// every probe has stopped, leaving the pool idle and reusable.
TEST(PlannerEquivalenceParallelTest, CancelMidLadderFallsBack) {
  Rng rng(9400);
  auto [a, b] = RandomTables(rng, 2000);
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0});
  ConfigView view = corpus.MakeConfigView(0b1);
  ThreadPool pool(4, "mc-test");

  PlannerOptions options;
  options.k = 500;
  options.seed = 42;
  // Probe the full table so the ladder far outlasts the deadline.
  options.sample_rate = 1;
  options.run_context = RunContext::WithDeadline(5);
  const JoinPlan plan = PlanTopKJoin(corpus, view, options, &pool);
  EXPECT_TRUE(plan.truncated);
  EXPECT_EQ(plan.q, 1u);
  EXPECT_EQ(plan.shards, 1u);
  EXPECT_FALSE(plan.hybrid);
  EXPECT_EQ(plan.mode, JoinExecMode::kTopK);
  EXPECT_LT(plan.prefilter_threshold, 0.0);

  EXPECT_TRUE(pool.Wait().ok());
  bool ran = false;
  pool.Submit([&ran] { ran = true; });
  EXPECT_TRUE(pool.Wait().ok());
  EXPECT_TRUE(ran);
}

// Satellite regression: planner statistics are cached per corpus
// *generation* — ApplyDelta yields a corpus whose stats recompute over the
// patched arenas and match a from-scratch rebuild field for field.
TEST(PlannerStatsDeltaTest, StatsInvalidatedAndRecomputedAfterApplyDelta) {
  datagen::GeneratedDataset dataset = datagen::GenerateFodorsZagats(
      datagen::ScaleDims(datagen::kDimsFodorsZagats, 0.12), 47);
  ConfigGeneratorOptions config_options;
  Result<PromisingAttributes> attributes = SelectPromisingAttributes(
      dataset.table_a, dataset.table_b, config_options);
  ASSERT_TRUE(attributes.ok()) << attributes.status().ToString();
  const std::vector<size_t> columns = attributes->columns;

  Table table_a = dataset.table_a;
  Table table_b = dataset.table_b;
  SsjCorpus corpus = SsjCorpus::Build(table_a, table_b, columns);
  ASSERT_EQ(corpus.generation(), 1u);
  // Populate the cache on the base generation, so a stale-serving bug
  // (returning generation-1 stats from the patched corpus) would be caught.
  const CorpusPlannerStats base_stats = corpus.PlannerStats();
  EXPECT_EQ(base_stats.generation, 1u);

  // One mutate + one append against table A.
  TableDelta delta;
  delta.side = 0;
  TableDelta::RowEdit edit;
  edit.row = 0;
  for (size_t c = 0; c < table_a.num_columns(); ++c) {
    edit.values.push_back(std::string(table_a.Value(0, c)));
  }
  edit.values[0] += " planner delta regression tokens";
  delta.mutated.push_back(std::move(edit));
  std::vector<std::string> appended;
  for (size_t c = 0; c < table_a.num_columns(); ++c) {
    appended.push_back(std::string(table_a.Value(1, c)));
  }
  appended[0] += " appended planner row";
  delta.appended.push_back(std::move(appended));

  const size_t base_rows = table_a.num_rows();
  ASSERT_TRUE(ApplyDeltaToTable(table_a, delta).ok());
  Result<RowsDelta> rows = MakeRowsDelta(delta, base_rows);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  std::optional<SsjCorpus> patched =
      SsjCorpus::ApplyDelta(corpus, table_a, table_b, columns, *rows);
  ASSERT_TRUE(patched.has_value());
  EXPECT_EQ(patched->generation(), 2u);

  const CorpusPlannerStats patched_stats = patched->PlannerStats();
  EXPECT_EQ(patched_stats.generation, 2u);
  const SsjCorpus rebuilt = SsjCorpus::Build(table_a, table_b, columns);
  const CorpusPlannerStats rebuilt_stats = rebuilt.PlannerStats();
  // Patching may keep dead dictionary entries a rebuild would not mint, so
  // compare live-token counts rather than raw dictionary sizes.
  EXPECT_EQ(patched_stats.dictionary_tokens - patched_stats.dead_tokens,
            rebuilt_stats.dictionary_tokens - rebuilt_stats.dead_tokens);
  EXPECT_DOUBLE_EQ(patched_stats.mean_tokens_a, rebuilt_stats.mean_tokens_a);
  EXPECT_DOUBLE_EQ(patched_stats.mean_tokens_b, rebuilt_stats.mean_tokens_b);
  EXPECT_EQ(patched_stats.max_tokens_a, rebuilt_stats.max_tokens_a);
  EXPECT_EQ(patched_stats.max_tokens_b, rebuilt_stats.max_tokens_b);
  EXPECT_DOUBLE_EQ(patched_stats.tail_mass, rebuilt_stats.tail_mass);
  for (size_t q = 0; q < 4; ++q) {
    EXPECT_DOUBLE_EQ(patched_stats.q_coverage_a[q],
                     rebuilt_stats.q_coverage_a[q])
        << "q " << q + 1;
    EXPECT_DOUBLE_EQ(patched_stats.required_overlap_frac[q],
                     rebuilt_stats.required_overlap_frac[q])
        << "measure " << q;
  }
  // The appended tokens changed table A's length profile, so the patched
  // stats must differ from the (cached, stale) base stats.
  EXPECT_NE(patched_stats.mean_tokens_a, base_stats.mean_tokens_a);
}

// Joint executor: a q = 0 run under the planner must produce per-config
// lists bit-identical to a run with the planner's chosen q fixed up front,
// and must report a full set of plan decisions.
TEST(JointPlannerTest, PlannerRunMatchesExplicitQRun) {
  datagen::GeneratedDataset dataset = datagen::GenerateFodorsZagats(
      datagen::ScaleDims(datagen::kDimsFodorsZagats, 0.12), 51);
  ConfigGeneratorOptions config_options;
  Result<PromisingAttributes> attributes = SelectPromisingAttributes(
      dataset.table_a, dataset.table_b, config_options);
  ASSERT_TRUE(attributes.ok()) << attributes.status().ToString();
  const ConfigTree tree = GenerateConfigTree(*attributes, config_options);
  SsjCorpus corpus =
      SsjCorpus::Build(dataset.table_a, dataset.table_b, attributes->columns);

  JointOptions planned;
  planned.k = 25;
  planned.q = 0;
  planned.planner_seed = 77;
  planned.num_threads = 2;
  const JointResult with_planner = RunJointTopKJoins(corpus, tree, planned);
  ASSERT_TRUE(with_planner.task_error.ok())
      << with_planner.task_error.ToString();
  ASSERT_TRUE(with_planner.planner_used);
  EXPECT_EQ(with_planner.q_used, with_planner.plan.q);
  EXPECT_EQ(with_planner.plan_decisions.size(),
            with_planner.per_config.size());
  for (size_t i = 0; i < with_planner.plan_decisions.size(); ++i) {
    EXPECT_EQ(with_planner.plan_decisions[i].config,
              with_planner.per_config[i].config);
    EXPECT_EQ(with_planner.plan_decisions[i].q, with_planner.plan.q);
    EXPECT_EQ(with_planner.plan_decisions[i].shards,
              with_planner.per_config[i].shards_used);
    EXPECT_EQ(with_planner.plan_decisions[i].seeded_from_parent,
              with_planner.per_config[i].seeded_from_parent);
  }

  JointOptions fixed = planned;
  fixed.q = with_planner.plan.q;
  const JointResult direct = RunJointTopKJoins(corpus, tree, fixed);
  ASSERT_TRUE(direct.task_error.ok()) << direct.task_error.ToString();
  EXPECT_FALSE(direct.planner_used);
  ASSERT_EQ(with_planner.per_config.size(), direct.per_config.size());
  for (size_t i = 0; i < direct.per_config.size(); ++i) {
    const auto& got = with_planner.per_config[i].topk;
    const auto& want = direct.per_config[i].topk;
    ASSERT_EQ(got.size(), want.size()) << "config " << i;
    for (size_t e = 0; e < want.size(); ++e) {
      EXPECT_EQ(got[e].pair, want[e].pair) << "config " << i << " entry "
                                           << e;
      EXPECT_EQ(got[e].score, want[e].score) << "config " << i << " entry "
                                             << e;
    }
  }

  // Same seed, same plan — determinism end to end through the executor.
  const JointResult replay = RunJointTopKJoins(corpus, tree, planned);
  ASSERT_TRUE(replay.planner_used);
  EXPECT_EQ(replay.plan.q, with_planner.plan.q);
  EXPECT_EQ(replay.plan.hybrid, with_planner.plan.hybrid);
  EXPECT_EQ(replay.plan.prefilter_threshold,
            with_planner.plan.prefilter_threshold);

  // The executor plans in two steps (the probe wave up front, the hybrid
  // step inside the root config's task), yet returns the whole plan:
  // exactly what PlanTopKJoin gives on the root view, so a service caches
  // the same plan either way.
  PlannerOptions planner_options;
  planner_options.k = planned.k;
  planner_options.measure = planned.measure;
  planner_options.seed = planned.planner_seed;
  planner_options.max_shards = planned.num_threads;
  const ConfigView root_view = corpus.MakeConfigView(tree.nodes[0].mask);
  ExpectSamePlan(with_planner.plan,
                 PlanTopKJoin(corpus, root_view, planner_options),
                 "executor vs PlanTopKJoin");
}

}  // namespace
}  // namespace mc
