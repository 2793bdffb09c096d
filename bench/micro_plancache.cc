// Cross-session plan cache benchmark: a hot-pair multi-session workload
// through two SessionManagers that differ ONLY in ServiceLimits::
// enable_plan_cache. Both arms share plane and corpus (one priming session
// each), so the warm A/B isolates exactly what the cache buys: every warm
// cached session is served the memoized joint plan, every warm no-cache
// session re-runs the planner's sampling probes ("cold planning") — the
// `mcserve --no-plan-cache` ablation, measured end to end per session.
//
// Output equality is enforced, not just reported: the run aborts (exit 1)
// unless every session of both arms — cached-plan and fresh-planned —
// produces the same per-config top-k checksum (identical_to_fresh, the
// bit-identity contract of the plan cache).
//
// `--json=PATH` emits the machine-readable record archived in
// bench/BENCH_plancache.json and checked by tools/validate_bench_json.py.
// Knobs: --scale=F (default 0.05), --sessions=N warm sessions per block
// (default 6), --reps=N blocks (default 3), --k=N (default 50),
// --threads=N (default 2), --attrs=N (default 1: the single-config shape
// where per-session planning dominates the warm path), --engine=LABEL.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "core/session_io.h"
#include "datagen/generator.h"
#include "service/session_manager.h"
#include "simd/kernels.h"
#include "util/stopwatch.h"

namespace mc {
namespace {

struct JsonBenchConfig {
  std::string path;
  std::string engine = "unspecified";
  double scale = 0.05;
  size_t sessions = 6;
  size_t reps = 3;
  size_t k = 50;
  size_t threads = 2;
  size_t attrs = 1;
};

// One arm of the A/B: a manager with the plan cache on or off, primed once
// (plane + corpus + for the cached arm the plan), then `reps` timed blocks
// of `sessions` sequential warm sessions.
struct ArmResult {
  double cold_seconds = 0.0;  // The priming session (plans either way).
  double best_seconds = 0.0;  // Best warm block.
  double total_seconds = 0.0;
  size_t plan_cache_hits = 0;
  size_t plan_cache_misses = 0;
  size_t plans_computed = 0;
  uint32_t checksum = 0;
  bool checksums_agree = true;  // Every session of the arm, same bytes.
};

ArmResult RunArm(const datagen::GeneratedDataset& dataset,
                 const JsonBenchConfig& config, bool enable_plan_cache) {
  ServiceLimits limits;
  limits.max_concurrent_sessions = 1;  // Sequential: clean per-session time.
  limits.enable_plan_cache = enable_plan_cache;
  SessionManager manager(limits);
  Status registered = manager.RegisterTablePair(
      "hot", dataset.table_a, dataset.table_b, dataset.gold);
  if (!registered.ok()) {
    std::fprintf(stderr, "register failed: %s\n",
                 registered.ToString().c_str());
    std::exit(1);
  }

  SessionRequest request;
  request.pair_key = "hot";
  request.options.joint.k = config.k;
  request.options.joint.q = 0;  // Planner-eligible: what the cache keys on.
  request.options.joint.num_threads = config.threads;
  request.options.config.max_attributes = config.attrs;
  request.options.infer_types = false;

  ArmResult result;
  auto run_session = [&]() -> const SessionOutcome {
    Result<uint64_t> id = manager.Submit(request);
    if (!id.ok()) {
      std::fprintf(stderr, "submit failed: %s\n",
                   id.status().ToString().c_str());
      std::exit(1);
    }
    Result<SessionOutcome> outcome = manager.Wait(*id);
    if (!outcome.ok() || outcome->state != SessionState::kComplete) {
      std::fprintf(stderr, "session did not complete\n");
      std::exit(1);
    }
    return *outcome;
  };

  Stopwatch cold_watch;
  const SessionOutcome primed = run_session();
  result.cold_seconds = cold_watch.ElapsedSeconds();
  result.checksum = TopKListsCrc(primed.lists);

  for (size_t rep = 0; rep < config.reps; ++rep) {
    Stopwatch block_watch;
    for (size_t s = 0; s < config.sessions; ++s) {
      const SessionOutcome outcome = run_session();
      result.checksums_agree = result.checksums_agree &&
                               TopKListsCrc(outcome.lists) == result.checksum;
    }
    const double seconds = block_watch.ElapsedSeconds();
    result.total_seconds += seconds;
    if (rep == 0 || seconds < result.best_seconds) {
      result.best_seconds = seconds;
    }
  }

  const ServiceStats stats = manager.stats();
  result.plan_cache_hits = stats.plan_cache_hits;
  result.plan_cache_misses = stats.plan_cache_misses;
  result.plans_computed = stats.plans_computed;
  return result;
}

int RunJsonBench(const JsonBenchConfig& config) {
  datagen::GeneratedDataset dataset = datagen::GenerateMusic(
      datagen::ScaleDims(datagen::kDimsMusic1, config.scale));

  const ArmResult cached = RunArm(dataset, config, /*enable_plan_cache=*/true);
  const ArmResult fresh = RunArm(dataset, config, /*enable_plan_cache=*/false);

  const bool identical_to_fresh = cached.checksums_agree &&
                                  fresh.checksums_agree &&
                                  cached.checksum == fresh.checksum;
  const double speedup =
      cached.best_seconds > 0.0 ? fresh.best_seconds / cached.best_seconds
                                : 0.0;
  const double sessions_per_block = static_cast<double>(config.sessions);

  std::ofstream out(config.path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", config.path.c_str());
    return 1;
  }
  bench::JsonWriter json(out);
  json.BeginObject();
  json.KV("schema_version", uint64_t{1});
  json.KV("benchmark", "micro_plancache");
  json.KV("engine", config.engine);
  json.Key("workload");
  json.BeginObject();
  json.KV("cpu_cores",
          static_cast<uint64_t>(std::thread::hardware_concurrency()));
  json.KV("simd_level", simd::SimdLevelName(simd::ActiveSimdLevel()));
  json.KV("dataset", "music");
  json.KV("scale", config.scale);
  json.KV("rows_a", uint64_t{dataset.table_a.num_rows()});
  json.KV("rows_b", uint64_t{dataset.table_b.num_rows()});
  json.KV("k", uint64_t{config.k});
  json.KV("threads", uint64_t{config.threads});
  json.KV("max_attributes", uint64_t{config.attrs});
  json.KV("sessions", uint64_t{config.sessions});
  json.KV("repetitions", uint64_t{config.reps});
  json.EndObject();
  json.Key("results");
  json.BeginArray();
  auto emit_arm = [&](const char* name, const ArmResult& arm) {
    json.BeginObject();
    json.KV("name", name);
    json.KV("cold_seconds", arm.cold_seconds);
    json.KV("best_seconds", arm.best_seconds);
    json.KV("mean_seconds",
            arm.total_seconds / static_cast<double>(config.reps));
    json.KV("sessions_per_sec", sessions_per_block / arm.best_seconds);
    json.KV("plan_cache_hits", uint64_t{arm.plan_cache_hits});
    json.KV("plan_cache_misses", uint64_t{arm.plan_cache_misses});
    json.KV("plans_computed", uint64_t{arm.plans_computed});
    char checksum[16];
    std::snprintf(checksum, sizeof(checksum), "%08x", arm.checksum);
    json.KV("topk_checksum", checksum);
    json.EndObject();
  };
  emit_arm("warm_cached", cached);
  emit_arm("warm_fresh_planned", fresh);
  json.EndArray();
  json.Key("comparison");
  json.BeginObject();
  json.KV("speedup", speedup);
  json.KV("identical_to_fresh", identical_to_fresh);
  json.KV("cached_hit_count", uint64_t{cached.plan_cache_hits});
  json.KV("fresh_plans_computed", uint64_t{fresh.plans_computed});
  json.EndObject();
  json.EndObject();
  out << "\n";
  std::printf(
      "wrote %s\n  warm cached: %.4fs/block (cold %.4fs, hits=%zu)\n"
      "  warm fresh:  %.4fs/block (plans=%zu)\n"
      "  speedup %.2fx identical_to_fresh=%d\n",
      config.path.c_str(), cached.best_seconds, cached.cold_seconds,
      cached.plan_cache_hits, fresh.best_seconds, fresh.plans_computed,
      speedup, identical_to_fresh ? 1 : 0);
  if (!identical_to_fresh) {
    std::fprintf(stderr,
                 "FATAL: cached-plan sessions are not bit-identical to "
                 "fresh-planned sessions — the plan cache contract is "
                 "broken\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace mc

int main(int argc, char** argv) {
  mc::JsonBenchConfig config;
  bool json_mode = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* prefix) -> const char* {
      size_t n = std::string(prefix).size();
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value_of("--json=")) {
      json_mode = true;
      config.path = v;
    } else if (const char* v = value_of("--engine=")) {
      config.engine = v;
    } else if (const char* v = value_of("--scale=")) {
      config.scale = std::atof(v);
    } else if (const char* v = value_of("--sessions=")) {
      config.sessions = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value_of("--reps=")) {
      config.reps = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value_of("--k=")) {
      config.k = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value_of("--threads=")) {
      config.threads = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value_of("--attrs=")) {
      config.attrs = static_cast<size_t>(std::atoll(v));
    }
  }
  if (!json_mode) {
    std::fprintf(stderr, "usage: micro_plancache --json=PATH [--scale=F] "
                         "[--sessions=N] [--reps=N] [--k=N] [--threads=N] [--attrs=N] "
                         "[--engine=LABEL]\n");
    return 2;
  }
  return mc::RunJsonBench(config);
}
