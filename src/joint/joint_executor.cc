#include "joint/joint_executor.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
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
// Level 1: every config's setup task is submitted at once, in tree (BFS)
// order, so no config waits for another to start. A config whose parent's
// list is already final when its task starts seeds from it, re-adjusted to
// the config; any other config joins unseeded, and its finish step folds
// the parent's re-adjusted final list into its own once both have ended
// (the paper's merge of a late parent, §4.2, with no polling). Level 2:
// each config's join is decomposed into table-A shard sub-joins
// (RunTopKJoinShard) that run as independent pool tasks, so the machine
// stays busy even when few configs are left.
//
// Determinism: every shard list is the canonical top-k of its sub-space
// under (score desc, pair asc), so the shard merge reproduces the
// sequential join's list exactly. With Q the config's q-eligible pair space
// and S the parent's re-adjusted list, a seeded join returns topk(Q ∪ S)
// and an unseeded one topk(Q); the finish step's topk(topk(Q) ∪ S) is the
// same list, because a pair outside topk(Q) is beaten by k pairs of Q.
// So every per-config list is identical for every thread count, shard
// count, and scheduling interleaving, whichever configs happened to seed.
//
// Liveness: a node's finish step runs when its pending count reaches zero:
// one event for its own join ending (or being skipped, or failing), one for
// its parent finishing (non-roots only). Whichever event comes last runs
// the step, and the step ends by signalling the children. No task ever
// blocks on another task, so a full drain of the pool is guaranteed; a
// failed parent yields one incomplete config, not an orphaned subtree.
// ---------------------------------------------------------------------------

class TwoLevelExecutor {
 public:
  // `hybrid_step` is non-null when the planner ran fresh: the root's task
  // then completes `result.plan` with PlanHybridPrefilter on its own view
  // before it joins, off the other configs' critical path.
  TwoLevelExecutor(const SsjCorpus& corpus, const ConfigTree& tree,
                   const JointOptions& options, JointResult& result, size_t q,
                   bool overlap_reuse, OverlapCache& cache, ThreadPool& pool,
                   size_t shards_per_config,
                   const PlannerOptions* hybrid_step)
      : corpus_(corpus),
        tree_(tree),
        options_(options),
        result_(result),
        q_(q),
        overlap_reuse_(overlap_reuse),
        cache_(cache),
        pool_(pool),
        hybrid_step_(hybrid_step),
        nodes_(tree.size()) {
    for (size_t i = 0; i < tree_.size(); ++i) {
      const int32_t parent = tree_.nodes[i].parent;
      if (parent >= 0) nodes_[static_cast<size_t>(parent)].children.push_back(i);
      nodes_[i].pending.store(parent >= 0 ? 2 : 1, std::memory_order_relaxed);
    }
    shard_count_ = shards_per_config != 0
                       ? shards_per_config
                       : std::max<size_t>(
                             1, std::min<size_t>(
                                    pool_.num_threads(),
                                    std::max<size_t>(
                                        1, std::thread::hardware_concurrency())));
  }

  void Run() {
    for (size_t i = 0; i < tree_.size(); ++i) {
      pool_.Submit([this, i] { StartNode(i); });
    }
    pool_.Wait();
  }

 private:
  struct Node {
    std::vector<size_t> children;
    // Events still to come before the finish step: the node's own join
    // ending, plus its parent finishing for a non-root.
    std::atomic<int> pending{0};
    // Set (release) by the finish step once per_config[i].topk is final.
    std::atomic<bool> final{false};
    // Setup products; alive from StartNode until the join ends (shard
    // tasks reference them). The view may live on into the finish step.
    std::optional<ConfigView> view;
    std::vector<std::unique_ptr<CachingPairScorer>> scorers;  // Per shard.
    std::vector<ScoredPair> seed;
    bool use_seed = false;
    // Setup succeeded, so the join ran (possibly cut short or failed).
    bool ran = false;
    // The join ran unseeded: the finish step folds the parent's list in.
    bool merge_parent = false;
    std::vector<TopKList> shard_lists;
    std::vector<TopKJoinStats> shard_stats;
    // Busy time of the setup step and of each shard; summed into the
    // config's `seconds` by the merge, so time a shard spent queued is not
    // counted.
    double setup_seconds = 0.0;
    std::vector<double> shard_seconds;
    std::atomic<size_t> shards_remaining{0};
    std::atomic<bool> failed{false};
    // Child of the session context (RunContext::WithParent): the session's
    // cancel/deadline still stops every shard, while a failed shard cancels
    // only its sibling shards — other configs keep running.
    RunContext context;
  };

  void RecordTaskError(const Status& status) {
    std::lock_guard<std::mutex> lock(error_mutex_);
    if (result_.task_error.ok()) result_.task_error = status;
  }

  // The parent's final list re-scored under the config's view (`scorer`
  // null: direct scoring).
  std::vector<ScoredPair> ReadjustParent(size_t index, const ConfigView& view,
                                         PairScorer* scorer) const {
    const std::vector<ScoredPair>& parent =
        result_.per_config[static_cast<size_t>(tree_.nodes[index].parent)]
            .topk;
    if (scorer != nullptr) return ReadjustToConfig(parent, view, *scorer);
    DirectPairScorer direct(&view, options_.measure);
    return ReadjustToConfig(parent, view, direct);
  }

  // Setup task: build the view and scorers, seed from the parent's list if
  // it is already final, and fan the config out into shard tasks. A
  // cancelled run skips the config: its join ends at once, and the finish
  // step still signals the children (which skip too).
  void StartNode(size_t index) {
    Node& node = nodes_[index];
    ConfigJoinResult& out = result_.per_config[index];
    Stopwatch watch;
    out.config = tree_.nodes[index].mask;
    out.completed = false;
    bool run_last_shard = false;
    if (!options_.run_context.Cancelled()) {
      try {
        SetUpNode(index);
        run_last_shard = true;
      } catch (const std::exception& e) {
        RecordTaskError(
            Status::Internal(std::string("config task threw: ") + e.what()));
        node.failed.store(true, std::memory_order_relaxed);
      } catch (...) {
        RecordTaskError(
            Status::Internal("config task threw a non-std exception"));
        node.failed.store(true, std::memory_order_relaxed);
      }
    }
    node.setup_seconds = watch.ElapsedSeconds();
    // The setup task runs the config's last shard itself, outside the try:
    // the shard task handles its own failures. The config then starts
    // joining at once instead of queueing behind the sibling setups and
    // shards already in the FIFO, so setups do not pile up views and
    // scorer snapshots for configs that cannot run yet.
    if (run_last_shard) {
      RunShardTask(index, shard_count_ - 1);
    } else {
      EndJoin(index);
    }
  }

  void SetUpNode(size_t index) {
    Node& node = nodes_[index];
    const ConfigNode& tree_node = tree_.nodes[index];
    ConfigJoinResult& out = result_.per_config[index];
    if (MC_FAULT_POINT("joint/run_node") == FaultKind::kThrow) {
      throw std::runtime_error("injected fault: joint/run_node " +
                               std::to_string(index));
    }

    Stopwatch view_watch;
    node.view = corpus_.MakeConfigView(tree_node.mask);
    out.view_seconds = view_watch.ElapsedSeconds();
    out.shards_used = shard_count_;

    if (index == 0 && result_.planner_used) {
      if (hybrid_step_ != nullptr) {
        PlanHybridPrefilter(*node.view, *hybrid_step_, &result_.plan);
      }
      if (result_.plan.hybrid) {
        root_prefilter_ = result_.plan.prefilter_threshold;
        root_mode_ = result_.plan.mode;
      }
    }

    // Per-shard caching scorers: CachingPairScorer is single-threaded
    // (local snapshot + counters), so each shard gets its own instance
    // over the shared concurrent cache. The snapshots hold every pair
    // that finished configs published before this point; later pairs are
    // recomputed on a miss.
    if (overlap_reuse_) {
      node.scorers.reserve(shard_count_);
      for (size_t s = 0; s < shard_count_; ++s) {
        node.scorers.push_back(std::make_unique<CachingPairScorer>(
            &*node.view, tree_node.mask, options_.measure, &cache_));
      }
    }

    // A parent that is already final is read in place — no copy, no
    // polling. Otherwise the join runs unseeded and the finish step
    // merges the parent's list.
    const bool reuse_parent = options_.reuse_topk && tree_node.parent >= 0;
    if (reuse_parent &&
        nodes_[static_cast<size_t>(tree_node.parent)].final.load(
            std::memory_order_acquire)) {
      node.seed = ReadjustParent(
          index, *node.view,
          node.scorers.empty() ? nullptr : node.scorers[0].get());
      node.use_seed = true;
    }

    node.context = RunContext::WithParent(options_.run_context);
    node.shard_lists.reserve(shard_count_);
    for (size_t s = 0; s < shard_count_; ++s) {
      node.shard_lists.emplace_back(options_.k);
    }
    node.shard_stats.assign(shard_count_, TopKJoinStats{});
    node.shard_seconds.assign(shard_count_, 0.0);
    node.shards_remaining.store(shard_count_, std::memory_order_relaxed);
    node.ran = true;
    node.merge_parent = reuse_parent && !node.use_seed;
    out.seeded_from_parent = reuse_parent;
    for (size_t s = 0; s + 1 < shard_count_; ++s) {
      pool_.Submit([this, index, s] { RunShardTask(index, s); });
    }
  }

  void RunShardTask(size_t index, size_t s) {
    Node& node = nodes_[index];
    Stopwatch watch;
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
      }
      // Threshold-mode dispatch: the plan's fixed bound runs the heap-free
      // driver instead of the prefiltered event engine. Same gate, same
      // accept-or-restart contract, bit-identical output.
      if (join_options.prefilter_threshold >= 0.0 &&
          root_mode_ == JoinExecMode::kThreshold) {
        node.shard_lists[s] = RunThresholdJoin(*node.view, join_options,
                                               scorer, /*seed=*/nullptr,
                                               &node.shard_stats[s]);
      } else {
        node.shard_lists[s] = RunTopKJoinShard(
            *node.view, join_options, s, shard_count_, scorer,
            node.use_seed ? &node.seed : nullptr, &node.shard_stats[s]);
      }
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
    node.shard_seconds[s] = watch.ElapsedSeconds();
    // The last shard to finish merges and ends the join (acq_rel: it
    // observes every other shard's list writes).
    if (node.shards_remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      MergeShards(index);
    }
  }

  // Runs on the worker that finished the config's last shard: merge the
  // shard lists deterministically and end the join.
  void MergeShards(size_t index) {
    Node& node = nodes_[index];
    ConfigJoinResult& out = result_.per_config[index];
    Stopwatch watch;

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
    for (double seconds : node.shard_seconds) out.seconds += seconds;
    out.seconds += watch.ElapsedSeconds();
    EndJoin(index);
  }

  // Every path of a node's join — skipped, failed in setup, or merged —
  // ends here exactly once. Releases the setup products, keeping only the
  // list (and the view when the finish step can use it at once), then
  // counts the join-done event.
  void EndJoin(size_t index) {
    Node& node = nodes_[index];
    result_.per_config[index].seconds += node.setup_seconds;
    node.scorers.clear();
    node.seed.clear();
    node.seed.shrink_to_fit();
    node.shard_lists.clear();
    node.shard_stats.clear();
    node.shard_seconds.clear();
    // The view's scratch buffer returns to the corpus pool for the configs
    // still to come, unless the finish step is about to re-adjust the
    // (already final) parent list with it. A parent that becomes final
    // later finds the view gone, and the finish step rebuilds it.
    const bool parent_final =
        node.merge_parent &&
        nodes_[static_cast<size_t>(tree_.nodes[index].parent)].final.load(
            std::memory_order_acquire);
    if (!parent_final) node.view.reset();
    if (node.pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      Finish(index);
    }
  }

  // Runs once per node, when its join has ended and its parent (if any) is
  // final: fold the parent's re-adjusted list into an unseeded config's
  // list, publish the list to the overlap cache, mark it final, and signal
  // the children. `seconds` counts this step's own time, not the wait.
  void Finish(size_t index) {
    Node& node = nodes_[index];
    const ConfigNode& tree_node = tree_.nodes[index];
    ConfigJoinResult& out = result_.per_config[index];
    Stopwatch watch;
    if (node.merge_parent) {
      if (!node.view) {
        Stopwatch view_watch;
        node.view = corpus_.MakeConfigView(tree_node.mask);
        out.view_seconds += view_watch.ElapsedSeconds();
      }
      // A scorer snapshot taken now sees the pairs the parent just
      // published, which are exactly the pairs re-scored here.
      std::optional<CachingPairScorer> scorer;
      if (overlap_reuse_) {
        scorer.emplace(&*node.view, tree_node.mask, options_.measure, &cache_);
      }
      const std::vector<ScoredPair> adjusted = ReadjustParent(
          index, *node.view, scorer ? &*scorer : nullptr);
      if (scorer) {
        out.cache_hits += scorer->cache_hits();
        out.cache_misses += scorer->cache_misses();
      }
      scorer.reset();
      node.view.reset();
      TopKList merged(options_.k);
      merged.MergeFrom(out.topk);
      merged.MergeFrom(adjusted);
      out.topk = merged.SortedDescending();
    }
    // Cache writes: publish the overlap structure of the pairs in the final
    // list — exactly what descendants re-score. Insert-only, first writer
    // wins, so pairs already published by an ancestor skip the
    // ComputeShared entirely.
    if (overlap_reuse_) {
      for (const ScoredPair& entry : out.topk) {
        cache_.InsertWith(entry.pair, [&] {
          return OverlapCache::ComputeShared(
              corpus_.tuple_a(PairRowA(entry.pair)),
              corpus_.tuple_b(PairRowB(entry.pair)));
        });
      }
    }
    out.completed = node.ran && !out.stats.truncated &&
                    !node.failed.load(std::memory_order_relaxed);
    out.seconds += watch.ElapsedSeconds();
    node.final.store(true, std::memory_order_release);

    // A child whose join already ended finishes on a pool task of its own,
    // so the children's merges run in parallel.
    for (size_t child : node.children) {
      if (nodes_[child].pending.fetch_sub(1, std::memory_order_acq_rel) ==
          1) {
        pool_.Submit([this, child] { Finish(child); });
      }
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
  const PlannerOptions* const hybrid_step_;
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

  // Decide q and the shard hint on the root config with the cost-based
  // planner (the root's task completes the plan's hybrid step). It respects
  // the run context, so a deadline also bounds this warm-up phase.
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
  PlannerOptions planner_options;
  bool hybrid_in_root = false;
  if (q == 0) {
    if (options.cached_plan != nullptr) {
      // Cross-session plan cache hit: skip the sampling probes entirely.
      // The caller guarantees the plan was computed by PlanTopKJoin on an
      // identical corpus generation/config signature, so executing it is
      // bit-identical to planning fresh (the planner is deterministic).
      result.plan = *options.cached_plan;
      result.plan_from_cache = true;
    } else {
      planner_options.k = options.k;
      planner_options.measure = options.measure;
      planner_options.exclude = options.exclude;
      planner_options.seed = options.planner_seed;
      planner_options.max_shards = num_threads;
      planner_options.run_context = options.run_context;
      // The q-probe wave only: every config needs q before it starts. The
      // hybrid step concerns the root's join alone and runs in its task.
      result.plan = PlanTopKJoinQ(corpus, root_view, planner_options, &pool);
      hybrid_in_root = true;
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
                            cache, pool, shards_per_config,
                            hybrid_in_root ? &planner_options : nullptr);
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
