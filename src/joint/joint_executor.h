#ifndef MATCHCATCHER_JOINT_JOINT_EXECUTOR_H_
#define MATCHCATCHER_JOINT_JOINT_EXECUTOR_H_

#include <cstddef>
#include <vector>

#include "blocking/candidate_set.h"
#include "config/config_generator.h"
#include "ssj/corpus.h"
#include "ssj/join_planner.h"
#include "ssj/topk_join.h"
#include "text/similarity.h"
#include "util/run_context.h"
#include "util/status.h"

namespace mc {

/// Options for joint execution of top-k SSJs over all configs (paper §4.2).
struct JointOptions {
  /// Top-k size per config.
  size_t k = 1000;
  SetMeasure measure = SetMeasure::kJaccard;
  /// QJoin deferred-scoring parameter; 0 selects q per corpus once, on the
  /// root config, with the cost-based planner (src/ssj/join_planner.h) —
  /// or takes it from `cached_plan`. The planner replaces the paper's
  /// empirical q race (§4.1): sampled probe joins pick q by extrapolated
  /// operation counts, plus a shard hint and the hybrid threshold/top-k
  /// prefilter, deterministically for a fixed planner seed.
  size_t q = 1;
  /// Planner sample seed; 0 = MC_PLANNER_SEED (fixed default when unset).
  /// Plans are deterministic for a fixed seed on a fixed corpus generation.
  uint64_t planner_seed = 0;
  /// Skip planning entirely and execute this plan (the service's
  /// cross-session plan cache). Only consulted when q == 0; the plan must
  /// have been produced by PlanTopKJoin on an identical corpus generation
  /// and config signature — the caller owns that invariant (SessionManager
  /// keys its cache by it). The executed output is bit-identical to
  /// planning fresh because the planner is deterministic for a fixed
  /// (seed, generation) and every plan executes to the same canonical
  /// lists. Not owned; must outlive the call.
  const JoinPlan* cached_plan = nullptr;
  /// Worker threads ("one config per core"); 0 = hardware concurrency.
  size_t num_threads = 0;
  /// Table-A shards per config. 0 = the planner's hint, else auto:
  /// min(num_threads, hardware concurrency) — enough decomposition to fill
  /// the machine when ready configs are scarce (sharding splits only the
  /// table-A event stream; each shard re-walks table B, so shards beyond
  /// the core count only add overhead). The join output is independent of
  /// this value (canonical shard merge).
  size_t shards_per_config = 0;
  /// Stripe count for the shared OverlapCache. 0 = auto-sized from the
  /// expected pair volume via OverlapCache::RecommendShards(rows_a, rows_b,
  /// k, config count); the value actually used is reported in
  /// JointResult::overlap_cache_shards_used (bench sweeps set it
  /// explicitly).
  size_t overlap_cache_shards = 0;
  /// Reuse similarity-score computations through the shared overlap cache.
  bool reuse_overlaps = true;
  /// Fold each config's parent list, re-adjusted to the config, into the
  /// config's top-k list (paper §4.2). Every config starts at once; one
  /// whose parent is already final seeds its join from that list, any
  /// other joins unseeded and merges the parent's final list when both
  /// have ended. The two give the same list, because top-k is
  /// decomposable: topk(Q ∪ S) = topk(topk(Q) ∪ S).
  bool reuse_topk = true;
  /// Overlap reuse triggers only when the average tuple length (in tokens,
  /// over the root config) is at least this (paper's t = 20).
  double reuse_min_avg_tokens = 20.0;
  /// Blocker output C: pairs to exclude from every top-k list.
  const CandidateSet* exclude = nullptr;
  /// Cooperative cancellation/deadline (util/run_context.h). When it fires,
  /// every running join stops at its next poll (every 1024 join events)
  /// and unstarted configs are skipped; the result carries each config's
  /// best-so-far list with
  /// `ConfigJoinResult::completed == false` and `JointResult::truncated ==
  /// true`. Partial lists are still valid (every score exact, every pair in
  /// D), so the verifier can rank them — graceful degradation, not an
  /// error. The default inert context leaves behavior byte-identical to a
  /// run without deadlines.
  RunContext run_context;
};

/// Per-config outcome of the joint execution.
struct ConfigJoinResult {
  ConfigMask config = 0;
  /// Top-k pairs, ordered by (score desc, pair asc).
  std::vector<ScoredPair> topk;
  TopKJoinStats stats;
  /// The config's own busy time: setup, plus each of its shards, plus the
  /// shard merge and the finish step. Time spent waiting, for a worker or
  /// for the parent's list, is not counted.
  double seconds = 0.0;
  /// Time spent building this config's token view (part of `seconds`).
  double view_seconds = 0.0;
  /// Table-A shard tasks this config's join was decomposed into.
  size_t shards_used = 1;
  size_t cache_hits = 0;
  size_t cache_misses = 0;
  /// Execution mode the config's join ran and its prefilter threshold
  /// (< 0 when none): kHybridPrefilter/kThreshold only on an unsharded root
  /// config under a hybrid plan, kTopK for every other config and for a
  /// root that never ran (skipped or failed in setup).
  JoinExecMode mode = JoinExecMode::kTopK;
  double prefilter_threshold = -1.0;
  /// The parent's re-adjusted list is folded into `topk`: seeded into the
  /// join, or merged at its end when the parent finished later.
  bool seeded_from_parent = false;
  /// False when this config's join was cut short (deadline/cancel) or its
  /// task failed; `topk` then holds the best-so-far list (possibly empty),
  /// not the exact top-k.
  bool completed = true;
};

/// One config's resolved execution plan, reported for diagnostics
/// (`tools/mcserve --explain-plans`). Node order matches
/// JointResult::per_config.
struct ConfigPlanDecision {
  ConfigMask config = 0;
  /// The q the config ran with (shared across the tree).
  size_t q = 1;
  /// Table-A shard tasks the config was decomposed into.
  size_t shards = 1;
  /// Whether the hybrid threshold/top-k prefilter was applied.
  bool hybrid = false;
  /// The prefilter threshold used (< 0 when hybrid is off).
  double prefilter_threshold = -1.0;
  /// Execution mode the config actually ran (ConfigJoinResult::mode).
  JoinExecMode mode = JoinExecMode::kTopK;
  bool seeded_from_parent = false;
};

/// Where the joint execution spent its time, aggregated across configs
/// (bench/micro_joint reports these alongside corpus-build timings).
struct JointStageTimings {
  /// The optional plan-selection phase: the cost-based planner's q-probe
  /// wave on the root view, before any config starts. The hybrid step's
  /// half-sample probe runs in the root's task and counts in its `seconds`.
  double q_select_seconds = 0.0;
  /// Sum of per-config view construction times.
  double view_seconds = 0.0;
  /// Sum of per-config join execution times (shard runs + merges +
  /// seeding; per-config `seconds` minus `view_seconds`). Sums task time,
  /// not wall time: with parallel workers this exceeds the elapsed
  /// total_seconds.
  double join_seconds = 0.0;
};

/// Outcome of the whole joint execution, in config-tree node order.
struct JointResult {
  std::vector<ConfigJoinResult> per_config;
  double total_seconds = 0.0;
  /// Per-stage breakdown of total_seconds (see JointStageTimings).
  JointStageTimings stages;
  /// OverlapCache stripe count actually used (auto-sized or explicit).
  size_t overlap_cache_shards_used = 0;
  /// The q value actually used (after the optional planner).
  size_t q_used = 1;
  /// The cost-based plan, when the planner ran (q == 0);
  /// default-constructed otherwise. A fresh plan's hybrid step runs inside
  /// the root config's task, so a run that skipped the root (cancelled, or
  /// failed in setup; `truncated` is then set) leaves it incomplete.
  JoinPlan plan;
  bool planner_used = false;
  /// True when `plan` came from JointOptions::cached_plan instead of a
  /// fresh PlanTopKJoin run (the service's plan-cache hit path).
  bool plan_from_cache = false;
  /// Per-config resolved plan decisions, in config-tree node order.
  std::vector<ConfigPlanDecision> plan_decisions;
  /// Whether the overlap cache was active (average length reached t).
  bool overlap_reuse_active = false;
  /// True when any config did not complete (deadline, cancellation, or a
  /// failed task), or when the corpus itself was truncated mid-build — the
  /// partial-result flag of the graceful-degradation contract
  /// (docs/robustness.md).
  bool truncated = false;
  /// First error captured from a config task (a task that threw is caught
  /// at the pool boundary and converted to Status); OK when all tasks ran
  /// clean. The affected config has `completed == false`.
  Status task_error;
};

/// Runs one top-k SSJ per config of `tree` over `corpus`, in parallel, with
/// score-computation and top-k reuse across configs. With q = 1 each
/// config's result is exactly the top-k of D under that config (Theorem
/// 4.2). The per-config lists (pairs and scores) are bit-identical for every
/// num_threads/shards_per_config combination and equal the brute-force
/// reference — pinned by the joint_test property suite and the joint
/// determinism test.
JointResult RunJointTopKJoins(const SsjCorpus& corpus, const ConfigTree& tree,
                              const JointOptions& options);

}  // namespace mc

#endif  // MATCHCATCHER_JOINT_JOINT_EXECUTOR_H_
