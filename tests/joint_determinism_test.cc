// Determinism and cancellation pins for the two-level joint scheduler and
// the block-parallel corpus build: the per-config lists (pairs AND scores)
// must equal the brute-force reference bit for bit for every thread count
// and shard count; a deadline or injected fault mid-build or mid-schedule
// must degrade to best-so-far results without deadlocking.

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "config/config_generator.h"
#include "joint/joint_executor.h"
#include "joint/parent_merge.h"
#include "ssj/corpus.h"
#include "ssj/topk_join.h"
#include "table/table.h"
#include "util/fault_injection.h"
#include "util/random.h"
#include "util/run_context.h"

namespace mc {
namespace {

std::pair<Table, Table> RandomThreeAttrTables(Rng& rng, size_t rows) {
  Schema schema({{"name", AttributeType::kString},
                 {"city", AttributeType::kString},
                 {"desc", AttributeType::kString}});
  Table a(schema), b(schema);
  auto word = [&](const char* prefix, size_t vocab) {
    return std::string(prefix) + std::to_string(rng.NextZipf(vocab, 0.7));
  };
  auto make_row = [&](Table& table) {
    std::string name = word("n", 30) + " " + word("n", 30);
    std::string city = word("c", 10);
    std::string desc;
    size_t len = rng.NextBelow(6);
    for (size_t i = 0; i < len; ++i) {
      if (i > 0) desc += ' ';
      desc += word("d", 40);
    }
    if (rng.NextBool(0.1)) name = "";
    if (rng.NextBool(0.2)) city = "";
    table.AddRow({name, city, desc});
  };
  for (size_t i = 0; i < rows; ++i) make_row(a);
  for (size_t i = 0; i < rows; ++i) make_row(b);
  return {std::move(a), std::move(b)};
}

PromisingAttributes ThreeColumnAttrs() {
  PromisingAttributes attrs;
  attrs.columns = {0, 1, 2};
  attrs.e_scores = {0.9, 0.4, 0.6};
  attrs.avg_len_a = {2, 1, 3};
  attrs.avg_len_b = {2, 1, 3};
  return attrs;
}

// Exact equality, not EXPECT_NEAR: the determinism contract is bit-identical
// scores, not merely close ones. `ref` holds one list per config-tree node.
void ExpectIdenticalResults(const JointResult& got,
                            const std::vector<std::vector<ScoredPair>>& ref,
                            const std::string& label) {
  ASSERT_EQ(got.per_config.size(), ref.size()) << label;
  for (size_t i = 0; i < got.per_config.size(); ++i) {
    const std::vector<ScoredPair>& g = got.per_config[i].topk;
    const std::vector<ScoredPair>& r = ref[i];
    ASSERT_EQ(g.size(), r.size()) << label << " node " << i;
    for (size_t j = 0; j < g.size(); ++j) {
      EXPECT_EQ(g[j].pair, r[j].pair)
          << label << " node " << i << " rank " << j;
      EXPECT_EQ(g[j].score, r[j].score)
          << label << " node " << i << " rank " << j;
    }
  }
}

// --------------------------------------------------------------------------
// Joint scheduler determinism.
// --------------------------------------------------------------------------

TEST(JointDeterminismTest, BitIdenticalAcrossThreadsShardsAndSchedulers) {
  Rng rng(2024);
  auto [a, b] = RandomThreeAttrTables(rng, 60);
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0, 1, 2});
  ConfigTree tree = GenerateConfigTree(ThreeColumnAttrs());

  struct Case {
    bool reuse;
    size_t q;
  };
  for (const Case& c : {Case{false, 1}, Case{true, 1}, Case{true, 2},
                        Case{true, 3}}) {
    JointOptions base;
    base.k = 25;
    base.q = c.q;
    base.reuse_overlaps = c.reuse;
    base.reuse_topk = c.reuse;
    base.reuse_min_avg_tokens = 0.0;

    // Reference: brute-force top-k of every config over the pairs sharing
    // at least q tokens, with top-k reuse folding in the parent's
    // reference list re-adjusted to the config:
    // topk(BruteForce(q) ∪ ReadjustToConfig(ref[parent])). At q = 1 every
    // re-adjusted pair with a token in common is already a candidate, so
    // the reference is the exact top-k of the config (Theorem 4.2), with
    // or without reuse; at q > 1 the parent's list can add pairs below the
    // q floor.
    std::vector<std::vector<ScoredPair>> ref;
    for (const ConfigNode& node : tree.nodes) {
      const ConfigView view = corpus.MakeConfigView(node.mask);
      TopKList list = BruteForceTopK(view, base.k, base.measure, base.exclude,
                                     /*min_overlap=*/base.q);
      if (c.reuse && node.parent >= 0) {
        DirectPairScorer scorer(&view, base.measure);
        list.MergeFrom(ReadjustToConfig(
            ref[static_cast<size_t>(node.parent)], view, scorer));
      }
      ref.push_back(list.SortedDescending());
    }

    for (size_t threads : {size_t{1}, size_t{2}, size_t{7}}) {
      for (size_t shards : {size_t{0}, size_t{1}, size_t{3}}) {
        JointOptions options = base;
        options.num_threads = threads;
        options.shards_per_config = shards;
        JointResult got = RunJointTopKJoins(corpus, tree, options);
        ASSERT_FALSE(got.truncated);
        if (shards != 0) {
          EXPECT_EQ(got.per_config[0].shards_used, shards);
        }
        ExpectIdenticalResults(
            got, ref,
            "reuse=" + std::to_string(c.reuse) + " q=" + std::to_string(c.q) +
                " threads=" + std::to_string(threads) +
                " shards=" + std::to_string(shards));
      }
    }
  }
}

// --------------------------------------------------------------------------
// Corpus build determinism and the zero-copy view path.
// --------------------------------------------------------------------------

TEST(CorpusBuildDeterminismTest, ParallelBuildMatchesSequential) {
  Rng rng(31);
  auto [a, b] = RandomThreeAttrTables(rng, 90);

  CorpusBuildOptions sequential;
  sequential.num_threads = 1;
  sequential.block_rows = 16;  // Many blocks even on a small table.
  CorpusBuildOptions parallel = sequential;
  parallel.num_threads = 4;

  SsjCorpus ref = SsjCorpus::Build(a, b, {0, 1, 2}, sequential);
  SsjCorpus got = SsjCorpus::Build(a, b, {0, 1, 2}, parallel);
  EXPECT_FALSE(ref.truncated());
  EXPECT_FALSE(got.truncated());
  EXPECT_GT(got.build_stats().blocks, 1u);

  ASSERT_EQ(got.rows_a(), ref.rows_a());
  ASSERT_EQ(got.rows_b(), ref.rows_b());
  ASSERT_EQ(got.dictionary().size(), ref.dictionary().size());
  auto expect_same_tuple = [](const TupleTokens& x, const TupleTokens& y,
                              const char* side, size_t row) {
    ASSERT_EQ(x.size(), y.size()) << side << row;
    for (size_t t = 0; t < x.size(); ++t) {
      EXPECT_EQ(x.ranks[t], y.ranks[t]) << side << row << " token " << t;
      EXPECT_EQ(x.masks[t], y.masks[t]) << side << row << " token " << t;
    }
  };
  for (size_t row = 0; row < ref.rows_a(); ++row) {
    expect_same_tuple(got.tuple_a(row), ref.tuple_a(row), "a", row);
  }
  for (size_t row = 0; row < ref.rows_b(); ++row) {
    expect_same_tuple(got.tuple_b(row), ref.tuple_b(row), "b", row);
  }
}

TEST(CorpusBuildDeterminismTest, ZeroCopyViewMatchesMaterialized) {
  Rng rng(32);
  auto [a, b] = RandomThreeAttrTables(rng, 60);
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0, 1, 2});

  for (ConfigMask config : {0b111u, 0b101u, 0b010u, 0b001u}) {
    ConfigView view = corpus.MakeConfigView(config);
    EXPECT_EQ(view.zero_copy_rows() + view.materialized_rows(),
              view.rows_a() + view.rows_b());
    if (config == 0b111u) {
      // The root config filters nothing: every row is served zero-copy.
      EXPECT_EQ(view.materialized_rows(), 0u);
    }

    ASSERT_EQ(view.rows_a(), corpus.rows_a());
    ASSERT_EQ(view.rows_b(), corpus.rows_b());
    EXPECT_EQ(view.rank_limit(), corpus.dictionary().size());
    // Reference: the tuple's tokens filtered by the config mask, in order.
    size_t total_tokens = 0;
    auto expect_filtered = [&](TokenSpan span, const TupleTokens& tuple,
                               const char* side, size_t row) {
      std::vector<uint32_t> expected;
      for (size_t t = 0; t < tuple.size(); ++t) {
        if (tuple.masks[t] & config) expected.push_back(tuple.ranks[t]);
      }
      total_tokens += expected.size();
      ASSERT_EQ(span.size(), expected.size())
          << "config " << config << " " << side << row;
      for (size_t t = 0; t < expected.size(); ++t) {
        EXPECT_EQ(span[t], expected[t])
            << "config " << config << " " << side << row;
      }
    };
    for (size_t row = 0; row < view.rows_a(); ++row) {
      expect_filtered(view.a(row), corpus.tuple_a(row), "a", row);
    }
    for (size_t row = 0; row < view.rows_b(); ++row) {
      expect_filtered(view.b(row), corpus.tuple_b(row), "b", row);
    }
    EXPECT_DOUBLE_EQ(view.average_tokens(),
                     static_cast<double>(total_tokens) /
                         static_cast<double>(view.rows_a() + view.rows_b()));
  }
}

TEST(CorpusBuildDeterminismTest, ViewScratchReturnsToPool) {
  Rng rng(33);
  auto [a, b] = RandomThreeAttrTables(rng, 40);
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0, 1, 2});
  // A filtering config needs scratch; destroying its view must park the
  // buffer for the next view instead of freeing it.
  { ConfigView view = corpus.MakeConfigView(0b001); }
  ConfigView reuse = corpus.MakeConfigView(0b010);
  (void)reuse;
  SUCCEED();
}

// --------------------------------------------------------------------------
// Cancellation and fault injection: corpus build.
// --------------------------------------------------------------------------

class CorpusFaultTest : public ::testing::Test {
  void TearDown() override { FaultRegistry::Instance().Reset(); }
};

TEST_F(CorpusFaultTest, CancelledBuildTruncatesAndJointPropagates) {
  Rng rng(41);
  auto [a, b] = RandomThreeAttrTables(rng, 40);
  RunContext context = RunContext::Cancellable();
  context.Cancel();  // Fires "mid-build" at the very first block check.
  CorpusBuildOptions build;
  build.run_context = context;
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0, 1, 2}, build);
  EXPECT_TRUE(corpus.truncated());
  EXPECT_EQ(corpus.build_stats().dropped_blocks, corpus.build_stats().blocks);

  // A joint run over the truncated corpus must finish (no deadlock) and
  // carry the truncation flag even though every config task ran clean.
  ConfigTree tree = GenerateConfigTree(ThreeColumnAttrs());
  JointOptions options;
  options.k = 10;
  options.num_threads = 2;
  JointResult joint = RunJointTopKJoins(corpus, tree, options);
  EXPECT_TRUE(joint.truncated);
  EXPECT_TRUE(joint.task_error.ok()) << joint.task_error.ToString();
}

TEST_F(CorpusFaultTest, FaultedBlockIsDroppedNotFatal) {
  Rng rng(42);
  auto [a, b] = RandomThreeAttrTables(rng, 64);
  FaultRegistry::Instance().Reset();
  FaultRegistry::Instance().ArmNthHit("corpus/build_block", FaultKind::kThrow,
                                      1);
  CorpusBuildOptions build;
  build.num_threads = 2;
  build.block_rows = 16;
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0, 1, 2}, build);
  EXPECT_TRUE(corpus.truncated());
  EXPECT_EQ(corpus.build_stats().dropped_blocks, 1u);
  EXPECT_GT(corpus.build_stats().blocks, 1u);
  // The surviving blocks tokenized normally: some tuple has tokens.
  bool any_tokens = false;
  for (size_t row = 0; row < corpus.rows_a(); ++row) {
    if (corpus.tuple_a(row).size() > 0) any_tokens = true;
  }
  EXPECT_TRUE(any_tokens);
}

// --------------------------------------------------------------------------
// Fault injection: shard tasks of the two-level scheduler.
// --------------------------------------------------------------------------

class JointShardFaultTest : public ::testing::Test {
  void TearDown() override { FaultRegistry::Instance().Reset(); }
};

TEST_F(JointShardFaultTest, ThrowingShardTaskIsCapturedNotFatal) {
  Rng rng(51);
  auto [a, b] = RandomThreeAttrTables(rng, 40);
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0, 1, 2});
  ConfigTree tree = GenerateConfigTree(ThreeColumnAttrs());

  FaultRegistry::Instance().Reset();
  FaultRegistry::Instance().ArmNthHit("joint/shard_task", FaultKind::kThrow,
                                      1);

  JointOptions options;
  options.k = 10;
  options.num_threads = 4;
  options.shards_per_config = 3;
  JointResult joint = RunJointTopKJoins(corpus, tree, options);

  // Every config starts at once, so the first shard task to run may belong
  // to any config; the error names it ("joint/shard_task <node>/<shard>").
  // Exactly that config is incomplete; its children still ran and folded
  // in the partial list.
  EXPECT_EQ(joint.task_error.code(), StatusCode::kInternal);
  const std::string& message = joint.task_error.message();
  const std::string tag = "joint/shard_task ";
  const size_t at = message.find(tag);
  ASSERT_NE(at, std::string::npos) << joint.task_error.ToString();
  const size_t faulted = std::stoul(message.substr(at + tag.size()));
  ASSERT_LT(faulted, joint.per_config.size());
  EXPECT_TRUE(joint.truncated);
  size_t incomplete = 0;
  for (size_t i = 0; i < joint.per_config.size(); ++i) {
    if (!joint.per_config[i].completed) {
      ++incomplete;
      EXPECT_EQ(i, faulted);
    }
  }
  EXPECT_EQ(incomplete, 1u);
}

// --------------------------------------------------------------------------
// Parent-list re-adjustment.
// --------------------------------------------------------------------------

class CountingScorer : public PairScorer {
 public:
  double Score(RowId row_a, RowId row_b) override {
    (void)row_a;
    (void)row_b;
    ++calls;
    return 0.5;
  }
  size_t calls = 0;
};

TEST(ReadjustToConfigTest, DropsRowsEmptyUnderChildConfig) {
  Schema schema({{"name", AttributeType::kString},
                 {"city", AttributeType::kString}});
  Table a(schema), b(schema);
  a.AddRow({"alpha beta", ""});       // Row 0: empty under config 0b10.
  a.AddRow({"gamma", "delta"});       // Row 1: survives both configs.
  b.AddRow({"alpha", "delta epsilon"});
  SsjCorpus corpus = SsjCorpus::Build(a, b, {0, 1});
  ConfigView child = corpus.MakeConfigView(0b10);
  CountingScorer scorer;
  std::vector<ScoredPair> parent_list{{MakePairId(0, 0), 0.9},
                                      {MakePairId(1, 0), 0.4}};
  std::vector<ScoredPair> adjusted =
      ReadjustToConfig(parent_list, child, scorer);
  ASSERT_EQ(adjusted.size(), 1u);
  EXPECT_EQ(adjusted[0].pair, MakePairId(1, 0));
  EXPECT_EQ(scorer.calls, 1u);  // Only the surviving pair was re-scored.
}

}  // namespace
}  // namespace mc
