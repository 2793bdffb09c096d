// Microbenchmark for the topology-aware placement plane: the same joint
// top-k execution run under three forced topologies — a single fake node,
// a fake dual node (the joint pool's workers grouped into two nodes), and
// the machine's real detected topology — with the bit-identity contract
// enforced across all of them. Placement moves bytes and threads, never
// results: every placement's per-config lists must carry the same checksum
// (the binary exits 1 otherwise, and tools/validate_bench_json.py
// re-enforces it on the archived record).
//
// `--json=PATH` emits a machine-readable record (benchmark "micro_numa");
// bench/BENCH_numa.json archives one run of this binary on the default
// workload.
//
// Knobs: --engine=LABEL, --dataset=amazon_google|fodors_zagats, --scale=F
// (default 0.05), --reps=N (default 3), --k=N (default 50), --threads=N
// (default 4), --seed=S (default 17).

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "config/config_generator.h"
#include "core/session_io.h"
#include "datagen/generator.h"
#include "joint/joint_executor.h"
#include "mem/arena_stats.h"
#include "mem/topology.h"
#include "simd/kernels.h"
#include "ssj/corpus.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace mc {
namespace {

struct BenchConfig {
  std::string path;
  std::string engine = "unspecified";
  std::string dataset = "amazon_google";
  double scale = 0.05;
  size_t reps = 3;
  size_t k = 50;
  size_t threads = 4;
  uint64_t seed = 17;
};

struct PlacementResult {
  std::string name;
  double best = 0.0;
  double total = 0.0;
  size_t pairs = 0;
  uint32_t checksum = 0;
  void Record(size_t rep, double seconds) {
    total += seconds;
    if (rep == 0 || seconds < best) best = seconds;
  }
};

int RunJsonBench(const BenchConfig& config) {
  datagen::GeneratedDataset dataset =
      config.dataset == "fodors_zagats"
          ? datagen::GenerateFodorsZagats(
                datagen::ScaleDims(datagen::kDimsFodorsZagats, config.scale),
                config.seed)
          : datagen::GenerateAmazonGoogle(
                datagen::ScaleDims(datagen::kDimsAmazonGoogle, config.scale),
                config.seed);

  ConfigGeneratorOptions config_options;
  Result<PromisingAttributes> attributes = SelectPromisingAttributes(
      dataset.table_a, dataset.table_b, config_options);
  MC_CHECK(attributes.ok()) << attributes.status().ToString();
  const ConfigTree tree = GenerateConfigTree(*attributes, config_options);

  CorpusBuildOptions corpus_options;
  corpus_options.num_threads = config.threads;
  const SsjCorpus corpus = SsjCorpus::Build(
      dataset.table_a, dataset.table_b, attributes->columns, corpus_options);
  MC_CHECK(!corpus.truncated());

  JointOptions joint_options;
  joint_options.k = config.k;
  joint_options.num_threads = config.threads;
  joint_options.exclude = &dataset.gold;

  // The placements under test. Fake topologies route every placement
  // *decision* (arena slicing, shard->node windows, worker grouping)
  // without issuing syscalls, so the sweep is deterministic on any runner;
  // "machine" is whatever this host really has.
  struct Placement {
    const char* name;
    const char* spec;  // nullptr = real detection.
  };
  const Placement placements[] = {
      {"single_node", "nodes=1,cores_per_node=4"},
      {"dual_node", "nodes=2,cores_per_node=2"},
      {"machine", nullptr},
  };

  std::vector<PlacementResult> results;
  for (const Placement& placement : placements) {
    if (placement.spec != nullptr) {
      mem::SystemTopology topo;
      MC_CHECK(mem::SystemTopology::ParseSpec(placement.spec, &topo));
      mem::SystemTopology::SetForTest(topo);
    } else {
      mem::SystemTopology::ResetForTest();
    }
    PlacementResult result;
    result.name = placement.name;
    for (size_t rep = 0; rep < config.reps; ++rep) {
      Stopwatch watch;
      JointResult joint = RunJointTopKJoins(corpus, tree, joint_options);
      result.Record(rep, watch.ElapsedSeconds());
      MC_CHECK(!joint.truncated);
      std::vector<std::vector<ScoredPair>> lists;
      size_t pairs = 0;
      for (const ConfigJoinResult& per_config : joint.per_config) {
        pairs += per_config.topk.size();
        lists.push_back(per_config.topk);
      }
      result.pairs = pairs;
      result.checksum = TopKListsCrc(lists);
    }
    results.push_back(std::move(result));
  }
  mem::SystemTopology::ResetForTest();

  bool identical = true;
  for (const PlacementResult& result : results) {
    identical = identical && result.checksum == results[0].checksum;
  }

  const mem::ArenaStatsSnapshot arenas =
      mem::ArenaStatsRegistry::Instance().Snapshot();

  std::ofstream out(config.path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", config.path.c_str());
    return 1;
  }
  bench::JsonWriter json(out);
  json.BeginObject();
  json.KV("schema_version", uint64_t{1});
  json.KV("benchmark", "micro_numa");
  json.KV("engine", config.engine);
  json.Key("workload");
  json.BeginObject();
  json.KV("cpu_cores",
          static_cast<uint64_t>(std::thread::hardware_concurrency()));
  json.KV("simd_level", simd::SimdLevelName(simd::ActiveSimdLevel()));
  json.KV("dataset", config.dataset);
  json.KV("scale", config.scale);
  json.KV("rows_a", uint64_t{dataset.table_a.num_rows()});
  json.KV("rows_b", uint64_t{dataset.table_b.num_rows()});
  json.KV("k", uint64_t{config.k});
  json.KV("threads", uint64_t{config.threads});
  json.KV("repetitions", uint64_t{config.reps});
  json.KV("seed", config.seed);
  json.KV("machine_nodes",
          uint64_t{mem::SystemTopology::Detect().num_nodes()});
  json.EndObject();
  json.Key("results");
  json.BeginArray();
  char hex[16];
  for (const PlacementResult& result : results) {
    json.BeginObject();
    json.KV("name", result.name);
    json.KV("best_seconds", result.best);
    json.KV("mean_seconds",
            result.total / static_cast<double>(config.reps));
    json.KV("pairs", uint64_t{result.pairs});
    std::snprintf(hex, sizeof(hex), "%08x", result.checksum);
    json.KV("topk_checksum", hex);
    json.EndObject();
  }
  json.EndArray();
  json.Key("output");
  json.BeginObject();
  // dual-node-vs-single-node ratio: > 1 means the windowed decomposition
  // helped on this runner, < 1 means the extra groups cost more than the
  // locality bought (expected on genuinely single-node machines — the fake
  // topologies cannot conjure a second memory controller).
  json.KV("dual_node_speedup", results[0].best / results[1].best);
  json.KV("arena_reserved_bytes", uint64_t{arenas.total_reserved_bytes});
  json.KV("live_arenas", uint64_t{arenas.total_arenas});
  json.KV("topology_fallbacks", uint64_t{arenas.topology_fallbacks});
  json.KV("identical_across_placements", identical);
  json.EndObject();
  json.EndObject();
  out << "\n";
  std::printf(
      "wrote %s (single %.3fs, dual %.3fs, machine %.3fs, fallbacks %zu)\n",
      config.path.c_str(), results[0].best, results[1].best, results[2].best,
      arenas.topology_fallbacks);
  if (!identical) {
    std::fprintf(stderr,
                 "PLACEMENT VIOLATION: results differ across topologies\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace mc

int main(int argc, char** argv) {
  mc::BenchConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* prefix) -> const char* {
      size_t n = std::string(prefix).size();
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value_of("--json=")) {
      config.path = v;
    } else if (const char* v = value_of("--engine=")) {
      config.engine = v;
    } else if (const char* v = value_of("--dataset=")) {
      config.dataset = v;
    } else if (const char* v = value_of("--scale=")) {
      config.scale = std::atof(v);
    } else if (const char* v = value_of("--reps=")) {
      config.reps = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value_of("--k=")) {
      config.k = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value_of("--threads=")) {
      config.threads = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value_of("--seed=")) {
      config.seed = static_cast<uint64_t>(std::atoll(v));
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }
  if (config.path.empty()) {
    std::fprintf(stderr, "usage: micro_numa --json=PATH [--engine=LABEL] "
                         "[--dataset=D] [--scale=F] [--reps=N] [--k=N] "
                         "[--threads=N] [--seed=S]\n");
    return 2;
  }
  return mc::RunJsonBench(config);
}
