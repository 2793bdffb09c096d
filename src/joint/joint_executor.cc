#include "joint/joint_executor.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "joint/caching_scorer.h"
#include "joint/overlap_cache.h"
#include "joint/parent_merge.h"
#include "util/check.h"
#include "util/fault_injection.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace mc {

namespace {

// ---------------------------------------------------------------------------
// Two-level executor.
//
// Level 1: configs are scheduled over the config tree parents-first — a
// config's setup task is submitted only after its parent wrote its final
// list, so every child seeds from a finished parent (no mid-run polling, no
// idle spinning). Level 2: each config's join is decomposed into table-A
// shard sub-joins (RunTopKJoinShard) that run as independent pool tasks, so
// the machine stays busy even when few configs are ready.
//
// Determinism: every shard list is the canonical top-k of its sub-space
// under (score desc, pair asc), so the shard merge reproduces the
// sequential join's list exactly; parents-first makes the seeds — and hence
// every per-config list — identical for every thread count, shard count,
// and scheduling interleaving.
//
// Liveness: every setup path — cancelled, faulted, or normal — ends in
// Cascade, which submits the children's setups once the (possibly empty)
// list is written. No task ever blocks on another task, so a full drain of
// the pool is guaranteed; a failed parent yields one incomplete config, not
// an orphaned subtree.
// ---------------------------------------------------------------------------

class TwoLevelExecutor {
 public:
  TwoLevelExecutor(const SsjCorpus& corpus, const ConfigTree& tree,
                   const JointOptions& options, JointResult& result, size_t q,
                   bool overlap_reuse, OverlapCache& cache, ThreadPool& pool,
                   size_t shards_per_config)
      : corpus_(corpus),
        tree_(tree),
        options_(options),
        result_(result),
        q_(q),
        overlap_reuse_(overlap_reuse),
        cache_(cache),
        pool_(pool),
        nodes_(tree.size()) {
    for (size_t i = 0; i < tree_.size(); ++i) {
      const int32_t parent = tree_.nodes[i].parent;
      if (parent >= 0) nodes_[static_cast<size_t>(parent)].children.push_back(i);
    }
    shard_count_ = shards_per_config != 0
                       ? shards_per_config
                       : std::max<size_t>(
                             1, std::min<size_t>(
                                    pool_.num_threads(),
                                    std::max<size_t>(
                                        1, std::thread::hardware_concurrency())));
  }

  // Hybrid prefilter threshold for the root config (< 0 = off) and how the
  // root executes it (kHybridPrefilter vs the heap-free kThreshold driver).
  // Set only when the planner ran and decided for the hybrid mode.
  void SetRootPlan(double prefilter, JoinExecMode mode) {
    root_prefilter_ = prefilter;
    root_mode_ = mode;
  }

  void Run() {
    for (size_t i = 0; i < tree_.size(); ++i) {
      if (tree_.nodes[i].parent < 0) {
        pool_.Submit([this, i] { StartNode(i); });
      }
    }
    pool_.Wait();
  }

 private:
  struct Node {
    std::vector<size_t> children;
    // Setup products; alive from StartNode until FinishNode (shard tasks
    // reference them).
    ConfigView view;
    std::vector<std::unique_ptr<CachingPairScorer>> scorers;  // Per shard.
    std::vector<ScoredPair> seed;
    bool use_seed = false;
    std::vector<TopKList> shard_lists;
    std::vector<TopKJoinStats> shard_stats;
    std::atomic<size_t> shards_remaining{0};
    std::atomic<bool> failed{false};
    // Child of the session context (RunContext::WithParent): the session's
    // cancel/deadline still stops every shard, while a failed shard cancels
    // only its sibling shards — other configs keep running.
    RunContext context;
    Stopwatch watch;
  };

  void RecordTaskError(const Status& status) {
    std::lock_guard<std::mutex> lock(error_mutex_);
    if (result_.task_error.ok()) result_.task_error = status;
  }

  // Node-ready step: build the view and scorers, re-adjust the parent's
  // final list into the seed, and fan the config out into shard tasks.
  void StartNode(size_t index) {
    Node& node = nodes_[index];
    const ConfigNode& tree_node = tree_.nodes[index];
    ConfigJoinResult& out = result_.per_config[index];
    node.watch.Reset();
    out.config = tree_node.mask;
    out.completed = false;
    bool run_last_shard = false;
    try {
      if (options_.run_context.Cancelled()) {
        // Skipped entirely; children still cascade (and skip too).
        Cascade(index);
        return;
      }
      if (MC_FAULT_POINT("joint/run_node") == FaultKind::kThrow) {
        throw std::runtime_error("injected fault: joint/run_node " +
                                 std::to_string(index));
      }

      Stopwatch view_watch;
      node.view = corpus_.MakeConfigView(tree_node.mask);
      out.view_seconds = view_watch.ElapsedSeconds();
      out.shards_used = shard_count_;

      // Per-shard caching scorers: CachingPairScorer is single-threaded
      // (local snapshot + counters), so each shard gets its own instance
      // over the shared concurrent cache. Snapshots taken here — after the
      // parent finished — already contain every ancestor's kept pairs. The
      // scorers only read: FinishNode writes the k pairs that survived,
      // once, which is all a child's snapshot can observe anyway, since
      // children start only after the parent finished.
      if (overlap_reuse_) {
        node.scorers.reserve(shard_count_);
        for (size_t s = 0; s < shard_count_; ++s) {
          node.scorers.push_back(std::make_unique<CachingPairScorer>(
              &node.view, tree_node.mask, options_.measure, &cache_));
        }
      }

      // Parents-first guarantee: the parent's final list was written before
      // this task was submitted, so it is read in place — no copy, no
      // polling.
      if (options_.reuse_topk && tree_node.parent >= 0) {
        const std::vector<ScoredPair>& parent =
            result_.per_config[static_cast<size_t>(tree_node.parent)].topk;
        if (!node.scorers.empty()) {
          node.seed = ReadjustToConfig(parent, node.view, *node.scorers[0]);
        } else {
          DirectPairScorer direct(&node.view, options_.measure);
          node.seed = ReadjustToConfig(parent, node.view, direct);
        }
        node.use_seed = true;
        out.seeded_from_parent = true;
      }

      node.context = RunContext::WithParent(options_.run_context);
      node.shard_lists.reserve(shard_count_);
      for (size_t s = 0; s < shard_count_; ++s) {
        node.shard_lists.emplace_back(options_.k);
      }
      node.shard_stats.assign(shard_count_, TopKJoinStats{});
      node.shards_remaining.store(shard_count_, std::memory_order_relaxed);
      for (size_t s = 0; s + 1 < shard_count_; ++s) {
        pool_.Submit([this, index, s] { RunShardTask(index, s); });
      }
      run_last_shard = true;
    } catch (const std::exception& e) {
      RecordTaskError(
          Status::Internal(std::string("config task threw: ") + e.what()));
      node.failed.store(true, std::memory_order_relaxed);
      Cascade(index);
    } catch (...) {
      RecordTaskError(
          Status::Internal("config task threw a non-std exception"));
      node.failed.store(true, std::memory_order_relaxed);
      Cascade(index);
    }
    // The setup task runs the config's last shard itself, outside the try:
    // the shard task handles its own failures. The config then starts
    // joining at once instead of queueing behind the sibling setups already
    // in the FIFO, so setups do not pile up views, scorer snapshots and
    // seeds for configs that cannot run yet.
    if (run_last_shard) RunShardTask(index, shard_count_ - 1);
  }

  void RunShardTask(size_t index, size_t s) {
    Node& node = nodes_[index];
    try {
      if (MC_FAULT_POINT("joint/shard_task") == FaultKind::kThrow) {
        throw std::runtime_error("injected fault: joint/shard_task " +
                                 std::to_string(index) + "/" +
                                 std::to_string(s));
      }
      PairScorer* scorer =
          node.scorers.empty() ? nullptr : node.scorers[s].get();
      TopKJoinOptions join_options;
      join_options.k = options_.k;
      join_options.measure = options_.measure;
      join_options.q = q_;
      join_options.exclude = options_.exclude;
      join_options.run_context = node.context;
      // Hybrid prefilter, planned for the root config only (the planner
      // sampled the root view) and only in single-shard form: a shard
      // sub-space's k-th score can sit below the full-space bound the
      // sample provides, which would force per-shard restarts.
      if (index == 0 && node.shard_lists.size() == 1 && !node.use_seed &&
          root_prefilter_ >= 0.0) {
        join_options.prefilter_threshold = root_prefilter_;
        ConfigJoinResult& out = result_.per_config[index];
        out.mode = root_mode_;
        out.prefilter_threshold = root_prefilter_;
        // Threshold-mode dispatch: the plan's fixed bound runs the
        // heap-free driver instead of the prefiltered event engine. Same
        // gate, same accept-or-restart contract, bit-identical output.
        if (root_mode_ == JoinExecMode::kThreshold) {
          node.shard_lists[s] = RunThresholdJoin(node.view, join_options,
                                                 scorer, /*seed=*/nullptr,
                                                 &node.shard_stats[s]);
          if (node.shards_remaining.fetch_sub(
                  1, std::memory_order_acq_rel) == 1) {
            FinishNode(index);
          }
          return;
        }
      }
      node.shard_lists[s] = RunTopKJoinShard(
          node.view, join_options, s, shard_count_, scorer,
          node.use_seed ? &node.seed : nullptr, &node.shard_stats[s]);
    } catch (const std::exception& e) {
      RecordTaskError(
          Status::Internal(std::string("config task threw: ") + e.what()));
      node.failed.store(true, std::memory_order_relaxed);
      node.shard_stats[s].truncated = true;
      // The config is already lost; stop its sibling shards at their next
      // poll instead of letting them run the join to completion.
      node.context.Cancel();
    } catch (...) {
      RecordTaskError(
          Status::Internal("config task threw a non-std exception"));
      node.failed.store(true, std::memory_order_relaxed);
      node.shard_stats[s].truncated = true;
      node.context.Cancel();
    }
    // The last shard to finish merges and cascades (acq_rel: it observes
    // every other shard's list writes).
    if (node.shards_remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      FinishNode(index);
    }
  }

  // Runs on the worker that finished the config's last shard: merge the
  // shard lists deterministically, finalize the per-config result, release
  // the setup products, and cascade the children.
  void FinishNode(size_t index) {
    Node& node = nodes_[index];
    ConfigJoinResult& out = result_.per_config[index];

    TopKList merged(options_.k);
    for (const TopKList& list : node.shard_lists) {
      for (const ScoredPair& entry : list.Entries()) {
        merged.Add(entry.pair, entry.score);
      }
    }
    for (const TopKJoinStats& stats : node.shard_stats) {
      out.stats.events_popped += stats.events_popped;
      out.stats.pairs_discovered += stats.pairs_discovered;
      out.stats.pairs_scored += stats.pairs_scored;
      out.stats.pairs_pruned += stats.pairs_pruned;
      out.stats.tokens_indexed += stats.tokens_indexed;
      out.stats.prefilter_restarts += stats.prefilter_restarts;
      out.stats.truncated = out.stats.truncated || stats.truncated;
    }
    for (const std::unique_ptr<CachingPairScorer>& scorer : node.scorers) {
      out.cache_hits += scorer->cache_hits();
      out.cache_misses += scorer->cache_misses();
    }
    out.topk = merged.SortedDescending();
    // Cache writes: publish the overlap structure of the pairs that
    // survived the merge — exactly what descendants' snapshots will
    // re-score. Insert-only, first writer wins, so pairs already published
    // by an ancestor skip the ComputeShared entirely.
    if (!node.scorers.empty()) {
      for (const ScoredPair& entry : out.topk) {
        cache_.InsertWith(entry.pair, [&] {
          return OverlapCache::ComputeShared(
              corpus_.tuple_a(PairRowA(entry.pair)),
              corpus_.tuple_b(PairRowB(entry.pair)));
        });
      }
    }
    out.completed =
        !out.stats.truncated && !node.failed.load(std::memory_order_relaxed);
    out.seconds = node.watch.ElapsedSeconds();

    // Release the setup products now: the view's scratch buffer returns to
    // the corpus pool for the configs still to come.
    node.scorers.clear();
    node.view = ConfigView();
    node.seed.clear();
    node.seed.shrink_to_fit();
    node.shard_lists.clear();
    node.shard_stats.clear();

    Cascade(index);
  }

  // Every setup/finish path ends here exactly once per node, after the
  // node's (possibly empty) final list is written: submit the children's
  // setup tasks, which read that list as their seed.
  void Cascade(size_t index) {
    for (size_t child : nodes_[index].children) {
      pool_.Submit([this, child] { StartNode(child); });
    }
  }

  const SsjCorpus& corpus_;
  const ConfigTree& tree_;
  const JointOptions& options_;
  JointResult& result_;
  const size_t q_;
  const bool overlap_reuse_;
  OverlapCache& cache_;
  // The executor's one pool: created before planning (the planner's probes
  // run on it) and shared by the config tasks.
  ThreadPool& pool_;
  std::vector<Node> nodes_;
  size_t shard_count_ = 1;
  double root_prefilter_ = -1.0;
  JoinExecMode root_mode_ = JoinExecMode::kTopK;
  std::mutex error_mutex_;
};

}  // namespace

JointResult RunJointTopKJoins(const SsjCorpus& corpus, const ConfigTree& tree,
                              const JointOptions& options) {
  MC_CHECK_GT(tree.size(), 0u);
  Stopwatch total_watch;
  JointResult result;
  result.per_config.resize(tree.size());

  // Decide the plan (q, shard hint, hybrid prefilter) on the root config
  // with the cost-based planner. It respects the run context, so a deadline
  // also bounds this warm-up phase.
  size_t q = options.q;
  Stopwatch root_view_watch;
  ConfigView root_view = corpus.MakeConfigView(tree.nodes[0].mask);
  result.stages.view_seconds += root_view_watch.ElapsedSeconds();
  const size_t hardware =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  const size_t num_threads =
      options.num_threads != 0 ? options.num_threads : hardware;
  // One pool for the whole call: the planner's probes run on it first, then
  // the config tasks.
  ThreadPool pool(num_threads, ThreadPoolOptions{.name_prefix = "mc-joint",
                                                 .topology_aware = true});
  Stopwatch q_watch;
  if (q == 0) {
    if (options.cached_plan != nullptr) {
      // Cross-session plan cache hit: skip the sampling probes entirely.
      // The caller guarantees the plan was computed by PlanTopKJoin on an
      // identical corpus generation/config signature, so executing it is
      // bit-identical to planning fresh (the planner is deterministic).
      result.plan = *options.cached_plan;
      result.plan_from_cache = true;
    } else {
      PlannerOptions planner_options;
      planner_options.k = options.k;
      planner_options.measure = options.measure;
      planner_options.exclude = options.exclude;
      planner_options.seed = options.planner_seed;
      planner_options.max_shards = num_threads;
      planner_options.run_context = options.run_context;
      result.plan = PlanTopKJoin(corpus, root_view, planner_options, &pool);
    }
    result.planner_used = true;
    q = result.plan.q;
  }
  result.q_used = q;
  result.stages.q_select_seconds = q_watch.ElapsedSeconds();

  // The reuse trigger uses the average tuple length over the root config.
  const bool overlap_reuse =
      options.reuse_overlaps &&
      root_view.average_tokens() >= options.reuse_min_avg_tokens;
  result.overlap_reuse_active = overlap_reuse;

  const size_t cache_shards =
      options.overlap_cache_shards != 0
          ? options.overlap_cache_shards
          : OverlapCache::RecommendShards(
                corpus.rows_a(), corpus.rows_b(), options.k, tree.size(),
                result.planner_used && !result.plan.truncated
                    ? result.plan.est_scored
                    : 0);
  result.overlap_cache_shards_used = cache_shards;
  OverlapCache cache(cache_shards);

  size_t shards_per_config = options.shards_per_config;
  if (shards_per_config == 0 && result.planner_used &&
      !result.plan.truncated) {
    shards_per_config = result.plan.shards;
  }
  TwoLevelExecutor executor(corpus, tree, options, result, q, overlap_reuse,
                            cache, pool, shards_per_config);
  if (result.planner_used && result.plan.hybrid) {
    executor.SetRootPlan(result.plan.prefilter_threshold, result.plan.mode);
  }
  executor.Run();

  result.plan_decisions.reserve(tree.size());
  for (const ConfigJoinResult& config : result.per_config) {
    ConfigPlanDecision decision;
    decision.config = config.config;
    decision.q = q;
    decision.shards = config.shards_used;
    decision.seeded_from_parent = config.seeded_from_parent;
    decision.hybrid = config.mode != JoinExecMode::kTopK;
    decision.prefilter_threshold = config.prefilter_threshold;
    decision.mode = config.mode;
    result.plan_decisions.push_back(decision);
  }

  for (const ConfigJoinResult& config : result.per_config) {
    if (!config.completed) result.truncated = true;
    result.stages.view_seconds += config.view_seconds;
    result.stages.join_seconds +=
        std::max(0.0, config.seconds - config.view_seconds);
  }
  // A corpus cut short mid-build (deadline/fault during tokenization) makes
  // every per-config list best-so-far, not exact.
  if (corpus.truncated()) result.truncated = true;
  result.total_seconds = total_watch.ElapsedSeconds();
  return result;
}

}  // namespace mc
