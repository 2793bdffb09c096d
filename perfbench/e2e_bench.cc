// End-to-end debugging-session benchmark. One workload per invocation:
//
//   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--state-dir <dir>] [--build-id <id>]
//
// Generates its inputs from the seed, times real debugging sessions through
// the public API for about --seconds, checks every output untimed afterwards,
// and prints one JSON result object as the last line of stdout. --trace 1
// runs the separate traced measurement that reports per-layer metrics and
// writes the spans as Chrome trace-event JSON into --state-dir. README.md in
// this directory maps each metric to its layer and workload.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "checks.h"
#include "core/match_catcher.h"
#include "datagen/generator.h"
#include "paper_blockers.h"
#include "service/session_manager.h"
#include "simd/kernels.h"
#include "table/profile.h"
#include "table/table_delta.h"
#include "table/tokenized_table.h"

namespace mc {
namespace perfbench {
namespace {

// Every session runs the cost planner (q = 0) with k = 1000.
constexpr size_t kQ = 0;
constexpr size_t kTopK = 1000;
// Set-up (generation, blocking, registration) repeats; setup_s is the median.
constexpr int kSetupRepeats = 5;
// Table-A rows per session scored by the brute-force spot check.
constexpr size_t kSpotCheckRows = 12;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string state_dir = ".";
  // Identifies the build; exact counts are compared only between runs of
  // the same build. Empty skips that comparison.
  std::string build_id;
};

struct DatasetSpec {
  std::string name;
  double scale = 1.0;
};

/// A cold workload: datasets (each with all its Table-2 blockers), run one
/// session after another at a fixed thread count.
struct ColdSpec {
  std::string workload;
  size_t threads = 1;
  std::vector<DatasetSpec> datasets;
};

const ColdSpec* FindColdSpec(const std::string& name) {
  static const std::vector<ColdSpec> specs = {
      {"cold-wa-4t", 4, {{"W-A", 0.3}}},
      {"cold-mix-1t", 1, {{"F-Z", 1.0}, {"A-D", 1.0}, {"M1", 0.01}}},
  };
  for (const ColdSpec& spec : specs) {
    if (spec.workload == name) return &spec;
  }
  return nullptr;
}

const char* kServiceWorkload = "service-warm-delta";
const std::vector<DatasetSpec> kServiceDatasets = {{"F-Z", 1.0},
                                                   {"A-D", 1.0}};
// The service's delta schedule: one small delta every kDeltaPeriodS seconds,
// alternating between the first kDeltaPairs pairs (one F-Z, one A-D). Both
// values are assumptions, not taken from any trace: no workload log gives a
// delta rate or a read/write ratio. The run prints the share of window
// sessions that ran on a fresh generation, the mix these values produce.
// Spreading deltas over every pair would make each session's cache state
// depend on timing.
constexpr double kDeltaPeriodS = 0.5;
constexpr size_t kDeltaPairs = 2;
constexpr size_t kServiceClients = 3;
constexpr size_t kServiceWorkers = 4;
// Pairs whose lists are compared against a direct Create.
constexpr size_t kServiceDirectChecks = 4;

MatchCatcherOptions SessionOptions(size_t threads) {
  MatchCatcherOptions options;
  options.joint.q = kQ;
  options.joint.k = kTopK;
  options.joint.num_threads = threads;
  options.verifier.num_threads = threads;
  return options;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

size_t CountGoldKilled(const CandidateSet& gold, const CandidateSet& c) {
  size_t killed = 0;
  for (PairId pair : gold) killed += !c.Contains(pair);
  return killed;
}

void PrintEnvironment(const Args& args, const std::string& threads,
                      const std::vector<DatasetSpec>& datasets) {
  std::ostringstream out;
  out << "env: {\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
      << ", \"simd\": \"" << simd::SimdLevelName(simd::ActiveSimdLevel())
      << "\", \"threads\": \"" << threads
      << "\", \"q_policy\": \"planner (q=0)\", \"k\": " << kTopK
      << ", \"seed\": " << args.seed << ", \"seconds\": " << args.seconds
      << ", \"trace\": " << (args.trace ? 1 : 0) << ", \"scales\": {";
  for (size_t i = 0; i < datasets.size(); ++i) {
    out << (i ? ", " : "") << "\"" << datasets[i].name
        << "\": " << datasets[i].scale;
  }
  out << "}}";
  std::cout << out.str() << "\n";
}

/// Exact per-session counts: they must repeat across rounds and across runs
/// at one seed.
struct SessionCounts {
  uint32_t crc = 0;
  size_t candidates = 0;    // |E|
  size_t gold_in_e = 0;     // M_E
  size_t iterations = 0;
  size_t pairs_labeled = 0;
  size_t found = 0;
  size_t q_used = 0;

  bool operator==(const SessionCounts& other) const {
    return crc == other.crc && candidates == other.candidates &&
           gold_in_e == other.gold_in_e && iterations == other.iterations &&
           pairs_labeled == other.pairs_labeled && found == other.found &&
           q_used == other.q_used;
  }
  std::string ToString() const {
    char text[200];
    std::snprintf(text, sizeof(text),
                  "crc=%08x E=%zu M_E=%zu found=%zu iterations=%zu "
                  "labeled=%zu q=%zu",
                  crc, candidates, gold_in_e, found, iterations,
                  pairs_labeled, q_used);
    return text;
  }
};

/// Timings of one session: creation to the verifier's natural stop.
struct SessionTiming {
  double session_s = 0.0;
  double first_batch_s = 0.0;
  std::vector<double> feedback_ms;
  std::vector<double> next_batch_ms;
  std::vector<double> submit_ms;
};

/// Drives `verifier` with the gold oracle to its natural stop, exactly as
/// MatchVerifier::Run does, timing each call. `start` is when the session
/// was handed its inputs.
void RunVerifierLoop(MatchVerifier& verifier, const CandidateSet& gold,
                     Clock::time_point start, SessionTiming& timing,
                     SessionCounts& counts, Trace* trace, int parent,
                     uint64_t session_id, int thread = 0) {
  GoldOracle oracle(&gold);
  Clock::time_point t = Clock::now();
  std::vector<PairId> batch;
  {
    ScopedSpan span(trace, "verifier.next_batch", parent, session_id, thread);
    batch = verifier.NextBatch();
  }
  timing.next_batch_ms.push_back(SecondsSince(t) * 1e3);
  timing.first_batch_s = SecondsSince(start);
  while (!batch.empty()) {
    std::vector<std::pair<PairId, bool>> labels;
    labels.reserve(batch.size());
    for (PairId pair : batch) labels.emplace_back(pair, oracle.IsMatch(pair));
    const Clock::time_point submit_start = Clock::now();
    {
      ScopedSpan span(trace, "verifier.submit", parent, session_id, thread);
      verifier.SubmitLabels(labels);
    }
    timing.submit_ms.push_back(SecondsSince(submit_start) * 1e3);
    if (verifier.ShouldStop()) {
      timing.feedback_ms.push_back(SecondsSince(submit_start) * 1e3);
      break;
    }
    const Clock::time_point next_start = Clock::now();
    {
      ScopedSpan span(trace, "verifier.next_batch", parent, session_id,
                      thread);
      batch = verifier.NextBatch();
    }
    timing.next_batch_ms.push_back(SecondsSince(next_start) * 1e3);
    timing.feedback_ms.push_back(SecondsSince(submit_start) * 1e3);
  }
  timing.session_s = SecondsSince(start);
  counts.iterations = verifier.iterations().size();
  for (const IterationTrace& iteration : verifier.iterations()) {
    counts.pairs_labeled += iteration.shown.size();
  }
  counts.found = verifier.confirmed_matches().size();
  counts.candidates = verifier.candidates().size();
  for (PairId pair : verifier.candidates()) {
    counts.gold_in_e += gold.Contains(pair);
  }
}

/// num / den, or 0 for an empty base.
double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

void PrintSamples(const char* label, const std::vector<double>& samples) {
  std::cout << label << ":";
  for (double sample : samples) std::cout << " " << sample;
  std::cout << "\n";
}

/// feedback_ms.p50 and .tail (the highest percentile with ten samples
/// beyond it) of the verifier iterations, printed with the sample count.
void SetFeedbackMetrics(const std::vector<double>& feedback_ms, Metrics& m) {
  const Tail tail = TailOf(feedback_ms);
  std::cout << "feedback samples: " << feedback_ms.size() << ", tail = p"
            << tail.percentile
            << (feedback_ms.size() < 20 ? " (too few samples for a tail)\n"
                                        : " (10 samples beyond it)\n");
  m.Set("verifier.feedback_ms.p50", Median(feedback_ms), "ms");
  m.Set("verifier.feedback_ms.tail", tail.value, "ms");
}

// ---------------------------------------------------------------------------
// Cold workloads.

struct ColdCase {
  std::string dataset;
  std::string blocker;
  const datagen::GeneratedDataset* data = nullptr;
  CandidateSet c;
  size_t killed = 0;  // M_D: gold matches the blocker killed off.
};

struct ColdSetup {
  std::vector<std::unique_ptr<datagen::GeneratedDataset>> datasets;
  std::vector<ColdCase> cases;
  double blocking_s = 0.0;
};

/// The Table-2 blockers run on `dataset`: all of them, except on W-A, where
/// the cold 4-thread workload runs the two ends of |C| (the tight title
/// overlap and the brand hash).
std::vector<bench::PaperBlocker> BlockersFor(const std::string& dataset,
                                             const Schema& schema) {
  std::vector<bench::PaperBlocker> blockers =
      bench::PaperBlockersFor(dataset, schema);
  if (dataset == "W-A") {
    std::erase_if(blockers, [](const bench::PaperBlocker& blocker) {
      return blocker.label != "OL" && blocker.label != "HASH";
    });
  }
  return blockers;
}

Result<ColdSetup> SetUpCold(const ColdSpec& spec, uint64_t seed) {
  ColdSetup setup;
  for (const DatasetSpec& dataset_spec : spec.datasets) {
    Result<datagen::GeneratedDataset> generated =
        datagen::GenerateByName(dataset_spec.name, dataset_spec.scale, seed);
    if (!generated.ok()) return generated.status();
    setup.datasets.push_back(std::make_unique<datagen::GeneratedDataset>(
        std::move(generated).value()));
    const datagen::GeneratedDataset& data = *setup.datasets.back();
    for (const bench::PaperBlocker& blocker :
         BlockersFor(dataset_spec.name, data.table_a.schema())) {
      const Clock::time_point start = Clock::now();
      ColdCase run{dataset_spec.name, blocker.label, &data,
                   blocker.blocker->Run(data.table_a, data.table_b), 0};
      setup.blocking_s += SecondsSince(start);
      run.killed = CountGoldKilled(data.gold, run.c);
      setup.cases.push_back(std::move(run));
    }
  }
  return setup;
}

/// Per-layer totals of one traced round (sums over its sessions).
struct LayerTotals {
  double copy_s = 0, infer_s = 0, plane_s = 0, config_s = 0, corpus_s = 0;
  double plan_s = 0, joint_s = 0, task_s = 0, extractor_s = 0;
  double aggregate_ms = 0, unattributed_s = 0;
  double threads_joint_wall = 0;  // Σ joint wall × threads.
  double q_used_sum = 0;
  double config_nodes = 0, shards = 0, events = 0, scored = 0, pruned = 0;
  double listed = 0, cache_hits = 0, cache_misses = 0, seeded = 0;
  double iterations = 0, pairs_labeled = 0, found = 0, sessions = 0;
  std::vector<double> next_batch_ms, submit_ms, feedback_ms;
};

struct ColdSessionResult {
  SessionCounts counts;
  SessionTiming timing;
  std::string error;
  std::unique_ptr<DebugSession> session;  // Untraced runs only.
};

/// One untraced session through DebugSession::Create (the copying overload:
/// A, B and C are handed over exactly as a user would).
ColdSessionResult RunColdSession(const ColdCase& run,
                                 const MatchCatcherOptions& options) {
  ColdSessionResult result;
  const Clock::time_point start = Clock::now();
  Result<DebugSession> created = DebugSession::Create(
      run.data->table_a, run.data->table_b, run.c, options);
  if (!created.ok()) {
    result.error = created.status().ToString();
    return result;
  }
  result.session = std::make_unique<DebugSession>(std::move(created).value());
  MatchVerifier verifier = result.session->MakeVerifier();
  RunVerifierLoop(verifier, run.data->gold, start, result.timing,
                  result.counts, nullptr, -1, 0);
  if (result.session->truncated()) result.error = "session truncated";
  result.counts.crc = ListsCrc(result.session->TopKLists());
  result.counts.q_used = result.session->joint_result().q_used;
  return result;
}

std::string Counters(
    std::initializer_list<std::pair<const char*, double>> values) {
  std::ostringstream out;
  bool first = true;
  for (const auto& [name, value] : values) {
    out << (first ? "" : ", ") << "\"" << name << "\": " << value;
    first = false;
  }
  return out.str();
}

/// One traced session, composed from the public calls
/// DebugSession::CreateShared makes, in its order, with a span around each.
ColdSessionResult RunTracedColdSession(const ColdCase& run,
                                       const MatchCatcherOptions& options,
                                       Trace& trace, uint64_t session_id,
                                       LayerTotals& totals) {
  ColdSessionResult result;
  const int root =
      trace.Begin(run.dataset + "/" + run.blocker, -1, session_id);
  const Clock::time_point start = Clock::now();
  double attributed = 0.0;
  // Times `body` under a child span of the session; returns its seconds.
  auto stage = [&](const char* name, auto&& body) {
    ScopedSpan span(&trace, name, root, session_id);
    const Clock::time_point stage_start = Clock::now();
    body(span.index());
    const double seconds = SecondsSince(stage_start);
    attributed += seconds;
    return seconds;
  };

  std::shared_ptr<Table> a, b;
  totals.copy_s += stage("table.copy", [&](int) {
    a = std::make_shared<Table>(run.data->table_a);
    b = std::make_shared<Table>(run.data->table_b);
  });
  totals.plane_s += stage("text.plane", [&](int span) {
    TextPlaneBuildOptions plane_options;
    plane_options.num_threads = options.joint.num_threads;
    TextPlaneBuildStats stats;
    TokenizedTable::BuildAndAttach(*a, *b, plane_options, &stats);
    trace.SetArgs(span, Counters({{"tokenize_s", stats.tokenize_seconds},
                                  {"merge_s", stats.merge_seconds},
                                  {"flatten_s", stats.flatten_seconds},
                                  {"blocks", double(stats.blocks)},
                                  {"dropped_blocks",
                                   double(stats.dropped_blocks)},
                                  {"threads", double(stats.threads)}}));
  });
  totals.infer_s += stage("table.infer", [&](int) {
    a->SetSchema(InferAttributeTypes(*a));
    b->SetSchema(a->schema());
  });
  PromisingAttributes attributes;
  ConfigTree tree;
  Status config_status;
  totals.config_s += stage("config", [&](int span) {
    Result<PromisingAttributes> selected =
        SelectPromisingAttributes(*a, *b, options.config);
    if (!selected.ok()) {
      config_status = selected.status();
      return;
    }
    attributes = std::move(selected).value();
    tree = GenerateConfigTree(attributes, options.config);
    trace.SetArgs(span, Counters({{"attributes",
                                   double(attributes.columns.size())},
                                  {"nodes", double(tree.nodes.size())}}));
  });
  if (!config_status.ok()) {
    result.error = config_status.ToString();
    trace.End(root);
    return result;
  }
  totals.config_nodes += tree.nodes.size();
  std::optional<SsjCorpus> corpus;
  totals.corpus_s += stage("ssj.corpus", [&](int span) {
    CorpusBuildOptions build_options;
    build_options.num_threads = options.joint.num_threads;
    CorpusBuildStats stats;
    corpus.emplace(
        SsjCorpus::Build(*a, *b, attributes.columns, build_options, &stats));
    trace.SetArgs(span, Counters({{"tokenize_s", stats.tokenize_seconds},
                                  {"merge_s", stats.merge_seconds},
                                  {"flatten_s", stats.flatten_seconds},
                                  {"blocks", double(stats.blocks)},
                                  {"threads", double(stats.threads)}}));
  });
  JointResult joint;
  const double joint_s = stage("joint", [&](int span) {
    JointOptions joint_options = options.joint;
    joint_options.exclude = &run.c;
    joint = RunJointTopKJoins(*corpus, tree, joint_options);
    size_t events = 0, scored = 0, shards = 0;
    for (const ConfigJoinResult& config : joint.per_config) {
      events += config.stats.events_popped;
      scored += config.stats.pairs_scored;
      shards += config.shards_used;
    }
    trace.SetArgs(span, Counters({{"q_used", double(joint.q_used)},
                                  {"plan_s", joint.stages.q_select_seconds},
                                  {"configs", double(joint.per_config.size())},
                                  {"events", double(events)},
                                  {"pairs_scored", double(scored)},
                                  {"shards", double(shards)}}));
  });
  if (!joint.task_error.ok() || joint.truncated) {
    result.error = joint.truncated ? "joint phase truncated"
                                   : joint.task_error.ToString();
    trace.End(root);
    return result;
  }
  std::unique_ptr<PairFeatureExtractor> extractor;
  totals.extractor_s += stage("learn.extractor", [&](int) {
    extractor = std::make_unique<PairFeatureExtractor>(a.get(), b.get());
  });
  std::optional<MatchVerifier> verifier;
  totals.aggregate_ms += 1e3 * stage("rank.aggregate", [&](int) {
    // The list copy DebugSession::MakeVerifier makes through TopKLists().
    std::vector<std::vector<ScoredPair>> lists;
    for (const ConfigJoinResult& config : joint.per_config) {
      lists.push_back(config.topk);
    }
    verifier.emplace(std::move(lists), extractor.get(), options.verifier);
  });
  RunVerifierLoop(*verifier, run.data->gold, start, result.timing,
                  result.counts, &trace, root, session_id);
  trace.End(root);

  // Bookkeeping, after the session's clock stopped.
  for (double ms : result.timing.next_batch_ms) attributed += ms / 1e3;
  for (double ms : result.timing.submit_ms) attributed += ms / 1e3;
  std::vector<std::vector<ScoredPair>> lists;
  for (const ConfigJoinResult& config : joint.per_config) {
    totals.task_s += config.seconds;
    totals.shards += config.shards_used;
    totals.events += config.stats.events_popped;
    totals.scored += config.stats.pairs_scored;
    totals.pruned += config.stats.pairs_pruned;
    totals.listed += config.topk.size();
    totals.cache_hits += config.cache_hits;
    totals.cache_misses += config.cache_misses;
    totals.seeded += config.seeded_from_parent;
    lists.push_back(config.topk);
  }
  result.counts.crc = ListsCrc(lists);
  result.counts.q_used = joint.q_used;
  totals.joint_s += joint_s;
  totals.threads_joint_wall +=
      joint_s * static_cast<double>(options.joint.num_threads);
  totals.plan_s += joint.stages.q_select_seconds;
  totals.q_used_sum += static_cast<double>(joint.q_used);
  totals.unattributed_s += result.timing.session_s - attributed;
  totals.iterations += result.counts.iterations;
  totals.pairs_labeled += result.counts.pairs_labeled;
  totals.found += result.counts.found;
  totals.sessions += 1;
  totals.next_batch_ms.insert(totals.next_batch_ms.end(),
                              result.timing.next_batch_ms.begin(),
                              result.timing.next_batch_ms.end());
  totals.submit_ms.insert(totals.submit_ms.end(),
                          result.timing.submit_ms.begin(),
                          result.timing.submit_ms.end());
  totals.feedback_ms.insert(totals.feedback_ms.end(),
                            result.timing.feedback_ms.begin(),
                            result.timing.feedback_ms.end());
  return result;
}

/// The outcome of a whole run: what the JSON line reports.
struct RunOutcome {
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> errors;
  Metrics metrics;

  void Fail(const std::string& error) {
    ++failed;
    errors.push_back(error);
  }
};

void WriteTrace(const Args& args, const Trace& trace, RunOutcome& outcome) {
  const std::string path = args.state_dir + "/trace-" + args.workload + "-" +
                           std::to_string(args.seed) + ".json";
  if (trace.WriteChromeJson(path)) {
    std::cout << "trace: " << trace.spans().size() << " spans written to "
              << path << "\n";
  } else {
    outcome.Fail("cannot write " + path);
  }
}

/// Exact counts must match those an earlier run of the same build with the
/// same workload and seed recorded in the state directory; the first run
/// records them. A changed program is a new build, so a correct change of
/// output (a different q, say) is never compared with the old counts.
void CheckAgainstRecordedCounts(const Args& args, const std::string& text,
                                RunOutcome& outcome) {
  if (args.build_id.empty()) {
    std::cout << "no --build-id: counts not compared across runs\n";
    return;
  }
  ++outcome.attempted;
  const std::string path = args.state_dir + "/counts-" + args.workload +
                           "-" + std::to_string(args.seed) + "-" +
                           args.build_id + ".txt";
  std::ifstream in(path);
  if (in) {
    std::stringstream recorded;
    recorded << in.rdbuf();
    if (recorded.str() != text) {
      outcome.Fail("exact counts differ from the earlier run recorded in " +
                   path);
    }
    return;
  }
  std::ofstream out(path);
  out << text;
}

void RunCold(const Args& args, const ColdSpec& spec, RunOutcome& outcome) {
  PrintEnvironment(args, std::to_string(spec.threads), spec.datasets);

  // Set-up: generation and blocking, repeated; the last copy is used.
  std::vector<double> setup_s, blocking_s;
  ColdSetup setup;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    setup = ColdSetup();
    const Clock::time_point start = Clock::now();
    Result<ColdSetup> built = SetUpCold(spec, args.seed);
    if (!built.ok()) {
      outcome.Fail("set-up failed: " + built.status().ToString());
      return;
    }
    setup = std::move(built).value();
    setup_s.push_back(SecondsSince(start));
    blocking_s.push_back(setup.blocking_s);
  }
  PrintSamples("setup_s per repeat", setup_s);
  const MatchCatcherOptions options = SessionOptions(spec.threads);
  const size_t n = setup.cases.size();

  // One untimed warm-up session, so process start-up (heap growth, page
  // faults) does not land on the first measured round.
  {
    ++outcome.attempted;
    ColdSessionResult warm = RunColdSession(setup.cases[0], options);
    if (!warm.error.empty()) {
      outcome.Fail("warm-up: " + warm.error);
      return;
    }
  }

  // Timed window: whole rounds over every case, untraced; in the traced run
  // an untraced round and a traced round alternate. A round starts only if
  // the previous one says it fits in the window.
  std::vector<double> round_pipeline, round_first_batch, traced_rounds;
  std::vector<std::vector<double>> session_samples(n);
  std::vector<std::vector<SessionCounts>> round_counts;
  std::vector<LayerTotals> layer_rounds;
  std::vector<ColdSessionResult> kept(n);
  Trace trace(args.trace);
  uint64_t next_session_id = 1;
  const Clock::time_point window = Clock::now();
  double last_unit_s = 0.0;
  while (round_counts.empty() ||
         SecondsSince(window) + last_unit_s <= args.seconds) {
    const Clock::time_point unit_start = Clock::now();
    std::vector<SessionCounts> counts(n);
    double pipeline = 0.0, first_batch = 0.0;
    for (size_t i = 0; i < n; ++i) {
      ++outcome.attempted;
      ColdSessionResult result = RunColdSession(setup.cases[i], options);
      if (!result.error.empty()) {
        outcome.Fail(setup.cases[i].dataset + "/" + setup.cases[i].blocker +
                     ": " + result.error);
        return;
      }
      pipeline += result.timing.session_s;
      first_batch += result.timing.first_batch_s;
      session_samples[i].push_back(result.timing.session_s);
      counts[i] = result.counts;
      kept[i] = std::move(result);
    }
    round_pipeline.push_back(pipeline);
    round_first_batch.push_back(first_batch);
    round_counts.push_back(counts);
    if (args.trace) {
      LayerTotals totals;
      double traced = 0.0;
      for (size_t i = 0; i < n; ++i) {
        ++outcome.attempted;
        ColdSessionResult result = RunTracedColdSession(
            setup.cases[i], options, trace, next_session_id++, totals);
        if (!result.error.empty()) {
          outcome.Fail("traced " + setup.cases[i].dataset + "/" +
                       setup.cases[i].blocker + ": " + result.error);
          return;
        }
        traced += result.timing.session_s;
        // The traced composition must produce Create's lists exactly.
        ++outcome.attempted;
        if (!(result.counts == counts[i])) {
          outcome.Fail("traced composition differs from Create on " +
                       setup.cases[i].dataset + "/" + setup.cases[i].blocker +
                       ": " + result.counts.ToString() + " vs " +
                       counts[i].ToString());
        }
      }
      traced_rounds.push_back(traced);
      layer_rounds.push_back(std::move(totals));
    }
    last_unit_s = SecondsSince(unit_start);
  }
  const double peak_rss_mb = PeakRssMb();

  // Untimed checks. Every round must repeat the first round's counts.
  for (size_t r = 1; r < round_counts.size(); ++r) {
    for (size_t i = 0; i < n; ++i) {
      ++outcome.attempted;
      if (!(round_counts[r][i] == round_counts[0][i])) {
        outcome.Fail("round " + std::to_string(r) + " differs on " +
                     setup.cases[i].dataset + "/" + setup.cases[i].blocker);
      }
    }
  }
  // Brute-force spot check of the last round's lists.
  for (size_t i = 0; i < n; ++i) {
    ++outcome.attempted;
    const DebugSession& session = *kept[i].session;
    SpotCheckResult check = BruteForceSpotCheck(
        session.table_a(), session.table_b(), setup.cases[i].c,
        session.attributes(), session.config_tree(), session.TopKLists(),
        session.joint_result().q_used, kTopK, options.joint.measure,
        args.seed * 7919 + i, kSpotCheckRows);
    if (!check.error.empty()) {
      outcome.Fail("spot check " + setup.cases[i].dataset + "/" +
                   setup.cases[i].blocker + ": " + check.error);
    }
    std::cout << "spot check " << setup.cases[i].dataset << "/"
              << setup.cases[i].blocker << ": " << check.rows_sampled
              << " A rows, " << check.pairs_scored << " scored, "
              << check.listed_checked << " listed entries recomputed\n";
  }

  // The Table 3 view: one row per (dataset, blocker). The same rows are
  // the exact counts compared against earlier runs at this seed.
  std::ostringstream table;
  size_t killed = 0, found = 0, labeled = 0;
  for (size_t i = 0; i < n; ++i) {
    const ColdCase& run = setup.cases[i];
    const SessionCounts& counts = round_counts[0][i];
    killed += run.killed;
    found += counts.found;
    labeled += counts.pairs_labeled;
    table << run.dataset << "/" << run.blocker << " |C|=" << run.c.size()
          << " M_D=" << run.killed << " " << counts.ToString() << "\n";
  }
  std::cout << table.str();
  CheckAgainstRecordedCounts(args, table.str(), outcome);
  std::cout << "rounds: " << round_counts.size()
            << ", sessions per round: " << n << "\n";
  PrintSamples("pipeline_s per round", round_pipeline);

  Metrics& m = outcome.metrics;
  if (!args.trace) {
    // Each session's time is its median over rounds; the percentiles run
    // over the workload's sessions.
    std::vector<double> session_medians;
    size_t sessions_run = 0;
    double session_total = 0.0;
    for (const std::vector<double>& samples : session_samples) {
      session_medians.push_back(Median(samples));
      for (double seconds : samples) session_total += seconds;
      sessions_run += samples.size();
    }
    m.Set("setup_s", Median(setup_s), "s");
    m.Set("pipeline_s", Median(round_pipeline), "s");
    m.Set("first_batch_s", Median(round_first_batch), "s");
    m.Set("session_s.p50", Median(session_medians), "s");
    m.Set("session_s.p90", Percentile(session_medians, 90), "s");
    m.Set("sessions_per_s", double(sessions_run) / session_total, "1/s");
    m.Set("pairs_labeled", static_cast<double>(labeled), "pairs");
    m.Set("recall_killed",
          killed == 0 ? 1.0 : static_cast<double>(found) / killed, "ratio");
    m.Set("peak_rss_mb", peak_rss_mb, "MB");
    return;
  }

  // Per-layer metrics from the traced rounds: times are medians over
  // rounds, counts come from the first traced round (they repeat).
  const LayerTotals& first = layer_rounds.front();
  auto median_of = [&](double LayerTotals::*field) {
    std::vector<double> values;
    for (const LayerTotals& totals : layer_rounds) {
      values.push_back(totals.*field);
    }
    return Median(values);
  };
  std::vector<double> busy_share, next_batch, submit, feedback;
  for (const LayerTotals& totals : layer_rounds) {
    busy_share.push_back(Ratio(totals.task_s, totals.threads_joint_wall));
    next_batch.insert(next_batch.end(), totals.next_batch_ms.begin(),
                      totals.next_batch_ms.end());
    submit.insert(submit.end(), totals.submit_ms.begin(),
                  totals.submit_ms.end());
    feedback.insert(feedback.end(), totals.feedback_ms.begin(),
                    totals.feedback_ms.end());
  }
  m.Set("blocking.s", Median(blocking_s), "s");
  m.Set("table.copy_s", median_of(&LayerTotals::copy_s), "s");
  m.Set("table.infer_s", median_of(&LayerTotals::infer_s), "s");
  m.Set("text.plane_s", median_of(&LayerTotals::plane_s), "s");
  m.Set("config.s", median_of(&LayerTotals::config_s), "s");
  m.Set("config.nodes", first.config_nodes, "count");
  m.Set("ssj.corpus_s", median_of(&LayerTotals::corpus_s), "s");
  m.Set("ssj.plan_s", median_of(&LayerTotals::plan_s), "s");
  m.Set("joint.q_used", first.q_used_sum / first.sessions, "q");
  m.Set("joint.s", median_of(&LayerTotals::joint_s), "s");
  m.Set("joint.task_s", median_of(&LayerTotals::task_s), "s");
  m.Set("joint.busy_share", Median(busy_share), "ratio");
  m.Set("joint.shards", first.shards, "count");
  m.Set("joint.events", first.events, "count");
  m.Set("joint.pairs_scored", first.scored, "count");
  m.Set("joint.pairs_pruned", first.pruned, "count");
  m.Set("joint.scored_per_kept", Ratio(first.scored, first.listed), "ratio");
  m.Set("joint.cache_hit_ratio",
        Ratio(first.cache_hits, first.cache_hits + first.cache_misses),
        "ratio");
  m.Set("joint.seeded_share", Ratio(first.seeded, first.config_nodes),
        "ratio");
  m.Set("learn.extractor_s", median_of(&LayerTotals::extractor_s), "s");
  m.Set("rank.aggregate_ms", median_of(&LayerTotals::aggregate_ms), "ms");
  m.Set("verifier.next_batch_ms", Median(next_batch), "ms");
  m.Set("verifier.submit_ms", Median(submit), "ms");
  SetFeedbackMetrics(feedback, m);
  m.Set("verifier.iterations", first.iterations, "count");
  m.Set("verifier.match_yield", Ratio(first.found, first.pairs_labeled),
        "ratio");
  m.Set("core.unattributed_s", median_of(&LayerTotals::unattributed_s), "s");
  m.Set("trace.overhead", Median(traced_rounds) / Median(round_pipeline),
        "ratio");
  WriteTrace(args, trace, outcome);
}

// ---------------------------------------------------------------------------
// Warm service with deltas.

/// One registered (dataset, blocker) pair with its registration tables.
struct ServicePair {
  std::string key;
  const datagen::GeneratedDataset* data = nullptr;
  std::shared_ptr<const CandidateSet> c;
  size_t killed = 0;
  std::shared_ptr<const Table> table_a, table_b;
};

struct ServiceSetup {
  std::vector<std::unique_ptr<datagen::GeneratedDataset>> datasets;
  std::vector<ServicePair> pairs;
  std::unique_ptr<SessionManager> manager;
  double blocking_s = 0.0;
};

/// Generates the datasets, resolves attribute types before registration
/// (the service's zero-copy warm path), runs the blockers and registers one
/// pair per (dataset, blocker), alternating datasets in key order.
Result<ServiceSetup> SetUpService(uint64_t seed) {
  ServiceSetup setup;
  std::vector<std::vector<ServicePair>> per_dataset;
  for (const DatasetSpec& spec : kServiceDatasets) {
    Result<datagen::GeneratedDataset> generated =
        datagen::GenerateByName(spec.name, spec.scale, seed);
    if (!generated.ok()) return generated.status();
    auto data = std::make_unique<datagen::GeneratedDataset>(
        std::move(generated).value());
    data->table_a.SetSchema(InferAttributeTypes(data->table_a));
    data->table_b.SetSchema(data->table_a.schema());
    auto table_a = std::make_shared<const Table>(data->table_a);
    auto table_b = std::make_shared<const Table>(data->table_b);
    per_dataset.emplace_back();
    for (const bench::PaperBlocker& blocker :
         BlockersFor(spec.name, data->table_a.schema())) {
      const Clock::time_point start = Clock::now();
      auto c = std::make_shared<const CandidateSet>(
          blocker.blocker->Run(data->table_a, data->table_b));
      setup.blocking_s += SecondsSince(start);
      ServicePair pair;
      pair.key = spec.name + "/" + blocker.label;
      pair.data = data.get();
      pair.killed = CountGoldKilled(data->gold, *c);
      pair.c = std::move(c);
      pair.table_a = table_a;
      pair.table_b = table_b;
      per_dataset.back().push_back(std::move(pair));
    }
    setup.datasets.push_back(std::move(data));
  }
  for (size_t i = 0;; ++i) {
    bool any = false;
    for (auto& pairs : per_dataset) {
      if (i < pairs.size()) {
        setup.pairs.push_back(std::move(pairs[i]));
        any = true;
      }
    }
    if (!any) break;
  }
  ServiceLimits limits;
  limits.max_concurrent_sessions = kServiceWorkers;
  limits.num_worker_threads = kServiceWorkers;
  setup.manager = std::make_unique<SessionManager>(limits);
  for (const ServicePair& pair : setup.pairs) {
    Status status = setup.manager->RegisterTablePair(
        pair.key, *pair.table_a, *pair.table_b, *pair.c);
    if (!status.ok()) return status;
  }
  return setup;
}

/// The micro_delta shape: a few mutated rows (one cell each gets fresh
/// tokens) plus one appended row, drawn from `rng`.
TableDelta SmallDelta(const Table& table, uint8_t side, size_t index,
                      Rng& rng) {
  constexpr size_t kMutatedRows = 3;
  TableDelta delta;
  delta.side = side;
  const size_t rows = table.num_rows();
  const size_t cols = table.num_columns();
  auto row_values = [&](size_t row) {
    std::vector<std::string> values;
    for (size_t c = 0; c < cols; ++c) values.emplace_back(table.Value(row, c));
    return values;
  };
  for (size_t m = 0; m < kMutatedRows; ++m) {
    const uint32_t row = static_cast<uint32_t>(rng.NextBelow(rows));
    bool seen = false;
    for (const auto& edit : delta.mutated) seen = seen || edit.row == row;
    if (seen) continue;
    TableDelta::RowEdit edit;
    edit.row = row;
    edit.values = row_values(row);
    edit.values[rng.NextBelow(cols)] +=
        " d" + std::to_string(index) + "m" + std::to_string(m);
    delta.mutated.push_back(std::move(edit));
  }
  std::vector<std::string> appended = row_values(rng.NextBelow(rows));
  appended[0] += " appended" + std::to_string(index);
  delta.appended.push_back(std::move(appended));
  return delta;
}

struct ServiceSessionRecord {
  size_t index = 0;
  size_t pair = 0;
  uint64_t generation = 0;
  double session_s = 0.0;  // Submit to terminal outcome.
  double admission_wait_s = 0.0;
  double run_s = 0.0;
  double aggregate_ms = 0.0;
  SessionCounts counts;
  SessionTiming timing;
  std::string error;
};

void RunService(const Args& args, RunOutcome& outcome) {
  PrintEnvironment(args,
                   "service workers " + std::to_string(kServiceWorkers) +
                       ", clients " + std::to_string(kServiceClients) +
                       ", joint/verifier threads per session 1",
                   kServiceDatasets);
  std::vector<double> setup_s, blocking_s;
  ServiceSetup setup;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    setup = ServiceSetup();
    const Clock::time_point start = Clock::now();
    Result<ServiceSetup> built = SetUpService(args.seed);
    if (!built.ok()) {
      outcome.Fail("set-up failed: " + built.status().ToString());
      return;
    }
    setup = std::move(built).value();
    setup_s.push_back(SecondsSince(start));
    blocking_s.push_back(setup.blocking_s);
  }
  PrintSamples("setup_s per repeat", setup_s);
  SessionManager& manager = *setup.manager;
  const std::vector<ServicePair>& pairs = setup.pairs;
  const size_t num_pairs = pairs.size();
  SessionRequest base_request;
  base_request.options = SessionOptions(1);
  base_request.options.infer_types = false;  // Resolved before registration.

  // Client-side state shared by the clients and the delta thread, per pair:
  // the table generations and their feature extractors. The delta thread
  // stages both before each commit (as a client keeping its own copy and
  // features current would), so sessions on the newest generations find
  // them ready; only the newest two extractors per pair are kept, and a
  // session pinned to an older generation builds its own.
  // Index g - 1 holds generation g.
  struct ClientPair {
    std::vector<std::shared_ptr<const Table>> gens_a, gens_b;
    std::vector<std::shared_ptr<const PairFeatureExtractor>> extractors;
  };
  std::mutex state_mutex;
  std::vector<ClientPair> client(num_pairs);
  for (size_t p = 0; p < num_pairs; ++p) {
    client[p].gens_a = {pairs[p].table_a};
    client[p].gens_b = {pairs[p].table_b};
    client[p].extractors.resize(1);
  }
  auto generation_tables = [&](size_t pair, uint64_t generation) {
    std::lock_guard<std::mutex> lock(state_mutex);
    return std::make_pair(client[pair].gens_a.at(generation - 1),
                          client[pair].gens_b.at(generation - 1));
  };
  auto extractor_for = [&](size_t pair, uint64_t generation) {
    std::shared_ptr<const Table> a, b;
    {
      std::lock_guard<std::mutex> lock(state_mutex);
      auto& slot = client[pair].extractors.at(generation - 1);
      if (slot != nullptr) return slot;
      a = client[pair].gens_a[generation - 1];
      b = client[pair].gens_b[generation - 1];
    }
    // Borrows tables the generation lists keep alive.
    auto built = std::make_shared<const PairFeatureExtractor>(a.get(), b.get());
    std::lock_guard<std::mutex> lock(state_mutex);
    if (generation + 2 > client[pair].extractors.size()) {
      client[pair].extractors[generation - 1] = built;
    }
    return built;
  };

  Trace trace(args.trace);
  // One session: Submit, Wait, then the client verifies the lists to the
  // natural stop over the generation's tables.
  auto run_session = [&](size_t index, int thread) {
    ServiceSessionRecord record;
    record.index = index;
    record.pair = index % num_pairs;
    const ServicePair& pair = pairs[record.pair];
    SessionRequest request = base_request;
    request.pair_key = pair.key;
    const int root = trace.Begin(pair.key, -1, index + 1, thread);
    const Clock::time_point start = Clock::now();
    Result<uint64_t> id = [&] {
      ScopedSpan span(&trace, "service.submit", root, index + 1, thread);
      return manager.Submit(request);
    }();
    if (!id.ok()) {
      record.error = "submit refused: " + id.status().ToString();
      trace.End(root);
      return record;
    }
    Result<SessionOutcome> waited = [&] {
      ScopedSpan span(&trace, "service.wait", root, index + 1, thread);
      return manager.Wait(*id);
    }();
    record.session_s = SecondsSince(start);
    if (!waited.ok() || waited->state != SessionState::kComplete) {
      record.error = waited.ok() ? std::string("session ended ") +
                                       SessionStateName(waited->state) + ": " +
                                       waited->status.ToString()
                                 : waited.status().ToString();
      trace.End(root);
      return record;
    }
    const SessionOutcome& result = *waited;
    record.generation = result.plane_generation;
    record.admission_wait_s = result.admission_wait_seconds;
    record.run_s = result.total_seconds - result.admission_wait_seconds;
    record.counts.crc = ListsCrc(result.lists);
    record.counts.q_used = result.plan.q;
    std::shared_ptr<const PairFeatureExtractor> extractor;
    {
      ScopedSpan span(&trace, "client.extractor", root, index + 1, thread);
      extractor = extractor_for(record.pair, record.generation);
    }
    std::optional<MatchVerifier> verifier;
    {
      ScopedSpan span(&trace, "rank.aggregate", root, index + 1, thread);
      const Clock::time_point aggregate_start = Clock::now();
      verifier.emplace(result.lists, extractor.get(),
                       base_request.options.verifier);
      record.aggregate_ms = SecondsSince(aggregate_start) * 1e3;
    }
    RunVerifierLoop(*verifier, pair.data->gold, start, record.timing,
                    record.counts, &trace, root, index + 1, thread);
    trace.End(root);
    return record;
  };

  // Warm-up, untimed: one session per pair fills the plane, corpus, config
  // and plan caches and the client's extractors.
  {
    std::vector<std::thread> warm;
    std::vector<std::string> errors(num_pairs);
    for (size_t i = 0; i < num_pairs; ++i) {
      warm.emplace_back([&, i] { errors[i] = run_session(i, 0).error; });
    }
    for (std::thread& thread : warm) thread.join();
    for (const std::string& error : errors) {
      ++outcome.attempted;
      if (!error.empty()) outcome.Fail("warm-up: " + error);
    }
    if (outcome.failed > 0) return;
  }
  const ServiceStats before = manager.stats();

  // Measured window: closed-loop clients plus the delta schedule.
  std::atomic<size_t> next_index{num_pairs};
  std::vector<std::vector<ServiceSessionRecord>> per_client(kServiceClients);
  std::vector<double> delta_ms, delta_late_ms;
  std::vector<std::string> delta_errors;
  const Clock::time_point window = Clock::now();
  const Clock::time_point window_end =
      window + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(args.seconds));
  std::vector<std::thread> clients;
  for (size_t client = 0; client < kServiceClients; ++client) {
    clients.emplace_back([&, client] {
      while (Clock::now() < window_end) {
        per_client[client].push_back(
            run_session(next_index.fetch_add(1), static_cast<int>(client) + 1));
      }
    });
  }
  std::thread delta_thread([&] {
    for (size_t d = 0;; ++d) {
      const Clock::time_point due =
          window + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(kDeltaPeriodS * (d + 1)));
      if (due >= window_end) break;
      // Stage the next generation's tables before it is due, so the
      // measured latency is the service's alone.
      const size_t p = d % kDeltaPairs;
      const uint8_t side = static_cast<uint8_t>((d / kDeltaPairs) % 2);
      Rng rng(args.seed * 1000003 + d);
      std::shared_ptr<const Table> base_a, base_b;
      {
        std::lock_guard<std::mutex> lock(state_mutex);
        base_a = client[p].gens_a.back();
        base_b = client[p].gens_b.back();
      }
      const TableDelta delta =
          SmallDelta(side == 0 ? *base_a : *base_b, side, d, rng);
      auto next = std::make_shared<Table>(side == 0 ? *base_a : *base_b);
      Status staged = ApplyDeltaToTable(*next, delta);
      const std::shared_ptr<const Table> next_a = side == 0 ? next : base_a;
      const std::shared_ptr<const Table> next_b = side == 0 ? base_b : next;
      auto extractor = std::make_shared<const PairFeatureExtractor>(
          next_a.get(), next_b.get());
      {
        std::lock_guard<std::mutex> lock(state_mutex);
        ClientPair& state = client[p];
        state.gens_a.push_back(next_a);
        state.gens_b.push_back(next_b);
        state.extractors.push_back(std::move(extractor));
        if (state.extractors.size() > 2) {
          state.extractors[state.extractors.size() - 3].reset();
        }
      }
      std::this_thread::sleep_until(due);
      delta_late_ms.push_back(SecondsSince(due) * 1e3);
      Status status;
      {
        ScopedSpan span(&trace, "service.apply_delta", -1, 0,
                        static_cast<int>(kServiceClients) + 1);
        status = staged.ok() ? manager.ApplyTableDelta(pairs[p].key, delta)
                             : staged;
      }
      delta_ms.push_back(SecondsSince(due) * 1e3);
      if (!status.ok()) {
        delta_errors.push_back(pairs[p].key + ": " + status.ToString());
        return;
      }
    }
  });
  for (std::thread& client : clients) client.join();
  delta_thread.join();
  const double window_s = SecondsSince(window);
  const double peak_rss_mb = PeakRssMb();
  const ServiceStats after = manager.stats();

  // Untimed checks.
  std::vector<ServiceSessionRecord> records;
  for (auto& client : per_client) {
    for (auto& record : client) records.push_back(std::move(record));
  }
  std::sort(records.begin(), records.end(),
            [](const auto& x, const auto& y) { return x.index < y.index; });
  for (const ServiceSessionRecord& record : records) {
    ++outcome.attempted;
    if (!record.error.empty()) {
      outcome.Fail(pairs[record.pair].key + ": " + record.error);
    }
  }
  for (const std::string& error : delta_errors) {
    outcome.Fail("delta " + error);
  }
  outcome.attempted += delta_ms.size();
  for (size_t p = 0; p < num_pairs; ++p) {
    ++outcome.attempted;
    Result<uint64_t> generation = manager.PairGeneration(pairs[p].key);
    const size_t applied = client[p].gens_a.size();
    if (!generation.ok() || *generation != applied) {
      outcome.Fail(pairs[p].key + ": service generation differs from the " +
                   std::to_string(applied) + " applied");
    }
  }
  // Service lists against a direct Create over the same generation's tables
  // and C, for the first kServiceDirectChecks pairs (the two delta pairs and
  // two warm ones), each at the newest generation its sessions saw.
  std::map<size_t, const ServiceSessionRecord*> newest;
  for (const ServiceSessionRecord& record : records) {
    if (!record.error.empty()) continue;
    const ServiceSessionRecord*& slot = newest[record.pair];
    if (slot == nullptr || record.generation > slot->generation) slot = &record;
  }
  size_t direct_checks = 0;
  for (const auto& [pair_index, record] : newest) {
    if (direct_checks++ == kServiceDirectChecks) break;
    ++outcome.attempted;
    const auto [a, b] = generation_tables(pair_index, record->generation);
    // At 4 joint threads: the lists are thread-count independent, so this
    // also checks that contract at no extra cost.
    MatchCatcherOptions direct_options = base_request.options;
    direct_options.joint.num_threads = 4;
    Result<DebugSession> direct =
        DebugSession::Create(a, b, *pairs[pair_index].c, direct_options);
    if (!direct.ok() || ListsCrc(direct->TopKLists()) != record->counts.crc) {
      outcome.Fail(pairs[pair_index].key + " generation " +
                   std::to_string(record->generation) +
                   ": service lists differ from a direct Create");
    } else {
      std::cout << "direct check " << pairs[pair_index].key << " generation "
                << record->generation << ": lists equal\n";
    }
  }

  // Aggregates. A pass is num_pairs consecutive session indices.
  struct Pass {
    size_t sessions = 0;
    double pipeline_s = 0.0, first_batch_s = 0.0;
  };
  std::map<size_t, Pass> passes;
  std::vector<double> session_samples, feedback, admission, run, aggregate,
      next_batch, submit;
  std::vector<std::vector<double>> pair_sessions(num_pairs);
  size_t killed = 0, found = 0, labeled = 0, iterations = 0;
  for (const ServiceSessionRecord& record : records) {
    if (!record.error.empty()) continue;
    Pass& pass = passes[record.index / num_pairs];
    pass.sessions += 1;
    pass.pipeline_s += record.timing.session_s;
    pass.first_batch_s += record.timing.first_batch_s;
    session_samples.push_back(record.session_s);
    pair_sessions[record.pair].push_back(record.session_s);
    const SessionTiming& timing = record.timing;
    feedback.insert(feedback.end(), timing.feedback_ms.begin(),
                    timing.feedback_ms.end());
    next_batch.insert(next_batch.end(), timing.next_batch_ms.begin(),
                      timing.next_batch_ms.end());
    submit.insert(submit.end(), timing.submit_ms.begin(),
                  timing.submit_ms.end());
    aggregate.push_back(record.aggregate_ms);
    iterations += record.counts.iterations;
    admission.push_back(record.admission_wait_s);
    run.push_back(record.run_s);
    killed += pairs[record.pair].killed;
    found += record.counts.found;
    labeled += record.counts.pairs_labeled;
  }
  std::vector<double> pass_pipeline, pass_first_batch;
  for (const auto& [index, pass] : passes) {
    if (pass.sessions != num_pairs) continue;  // Partial pass at the edge.
    pass_pipeline.push_back(pass.pipeline_s);
    pass_first_batch.push_back(pass.first_batch_s);
  }
  std::cout << "sessions: " << records.size() << " in " << window_s
            << " s, full passes: " << pass_pipeline.size()
            << ", deltas: " << delta_ms.size()
            << ", max generator lateness: "
            << (delta_late_ms.empty()
                    ? 0.0
                    : *std::max_element(delta_late_ms.begin(),
                                        delta_late_ms.end()))
            << " ms\n";
  // A session ran on a fresh generation when it was the first submitted on
  // its pair since a delta bumped the generation (the warm-up saw
  // generation 1 of every pair): its plan and config caches were
  // invalidated. This share is the read/write mix the delta schedule makes.
  std::set<std::pair<size_t, uint64_t>> seen_generations;
  for (size_t p = 0; p < num_pairs; ++p) seen_generations.insert({p, 1});
  size_t fresh = 0, completed = 0;
  for (const ServiceSessionRecord& record : records) {
    if (!record.error.empty()) continue;
    ++completed;
    fresh += seen_generations.insert({record.pair, record.generation}).second;
  }
  const double fresh_share = Ratio(double(fresh), double(completed));
  std::cout << "sessions on a fresh generation: " << fresh << " of "
            << completed << " (share " << fresh_share << ", delta every "
            << kDeltaPeriodS << " s over " << kDeltaPairs << " of "
            << num_pairs << " pairs)\n";
  if (pass_pipeline.empty()) {
    outcome.Fail("no full pass over the pairs completed in the window");
    return;
  }

  Metrics& m = outcome.metrics;
  if (!args.trace) {
    m.Set("setup_s", Median(setup_s), "s");
    m.Set("pipeline_s", Median(pass_pipeline), "s");
    m.Set("first_batch_s", Median(pass_first_batch), "s");
    // As on the cold workloads: percentiles over the pairs of each pair's
    // median session time (F-Z and A-D sessions differ ~5x, so a median
    // over raw samples would straddle the gap between them).
    std::vector<double> pair_medians;
    for (const std::vector<double>& samples : pair_sessions) {
      pair_medians.push_back(Median(samples));
    }
    m.Set("session_s.p50", Median(pair_medians), "s");
    m.Set("session_s.p90", Percentile(pair_medians, 90), "s");
    m.Set("sessions_per_s", double(session_samples.size()) / window_s, "1/s");
    m.Set("pairs_labeled",
          double(labeled * num_pairs) / double(session_samples.size()),
          "pairs");
    m.Set("recall_killed", killed == 0 ? 1.0 : double(found) / killed,
          "ratio");
    m.Set("peak_rss_mb", peak_rss_mb, "MB");
    return;
  }
  m.Set("blocking.s", Median(blocking_s), "s");
  m.Set("rank.aggregate_ms", Median(aggregate), "ms");
  m.Set("verifier.next_batch_ms", Median(next_batch), "ms");
  m.Set("verifier.submit_ms", Median(submit), "ms");
  SetFeedbackMetrics(feedback, m);
  m.Set("verifier.iterations",
        double(iterations * num_pairs) / double(session_samples.size()),
        "count");
  m.Set("verifier.match_yield", Ratio(found, labeled), "ratio");
  auto diff = [&](size_t ServiceStats::*field) {
    return double(after.*field - before.*field);
  };
  m.Set("service.admission_wait_s.p50", Median(admission), "s");
  m.Set("service.run_s.p50", Median(run), "s");
  m.Set("service.delta_ms.p50", Median(delta_ms), "ms");
  m.Set("service.plane_hit_ratio",
        Ratio(diff(&ServiceStats::plane_cache_hits),
              diff(&ServiceStats::plane_cache_hits) +
                  diff(&ServiceStats::plane_cache_misses)),
        "ratio");
  m.Set("service.corpus_hit_ratio",
        Ratio(diff(&ServiceStats::corpus_cache_hits),
              diff(&ServiceStats::corpus_cache_hits) +
                  diff(&ServiceStats::corpus_builds)),
        "ratio");
  m.Set("service.plan_hit_ratio",
        Ratio(diff(&ServiceStats::plan_cache_hits),
              diff(&ServiceStats::plan_cache_hits) +
                  diff(&ServiceStats::plan_cache_misses)),
        "ratio");
  m.Set("service.fresh_gen_share", fresh_share, "ratio");
  m.Set("service.rejected", diff(&ServiceStats::rejected), "count");
  m.Set("service.memory_peak_mb", double(after.memory_peak_bytes) / 1048576.0,
        "MB");
  std::cout << "service stats over the window: deltas_applied="
            << diff(&ServiceStats::deltas_applied)
            << " planes_patched=" << diff(&ServiceStats::planes_patched)
            << " corpora_patched=" << diff(&ServiceStats::corpora_patched)
            << " lists_repaired=" << diff(&ServiceStats::lists_repaired)
            << " lists_rejoined=" << diff(&ServiceStats::lists_rejoined)
            << " plans_computed=" << diff(&ServiceStats::plans_computed)
            << " plan_cache_hits=" << diff(&ServiceStats::plan_cache_hits)
            << " corpus_builds=" << diff(&ServiceStats::corpus_builds) << "\n";
  WriteTrace(args, trace, outcome);
}

// Every per-layer metric with its unit; a workload whose path does not
// include a layer reports it as 0 (README.md lists which workload measures
// which metric).
const std::vector<std::pair<const char*, const char*>> kPerLayerMetrics = {
    {"blocking.s", "s"},
    {"table.copy_s", "s"},
    {"table.infer_s", "s"},
    {"text.plane_s", "s"},
    {"config.s", "s"},
    {"config.nodes", "count"},
    {"ssj.corpus_s", "s"},
    {"ssj.plan_s", "s"},
    {"joint.q_used", "q"},
    {"joint.s", "s"},
    {"joint.task_s", "s"},
    {"joint.busy_share", "ratio"},
    {"joint.shards", "count"},
    {"joint.events", "count"},
    {"joint.pairs_scored", "count"},
    {"joint.pairs_pruned", "count"},
    {"joint.scored_per_kept", "ratio"},
    {"joint.cache_hit_ratio", "ratio"},
    {"joint.seeded_share", "ratio"},
    {"learn.extractor_s", "s"},
    {"rank.aggregate_ms", "ms"},
    {"verifier.next_batch_ms", "ms"},
    {"verifier.submit_ms", "ms"},
    {"verifier.feedback_ms.p50", "ms"},
    {"verifier.feedback_ms.tail", "ms"},
    {"verifier.iterations", "count"},
    {"verifier.match_yield", "ratio"},
    {"service.admission_wait_s.p50", "s"},
    {"service.run_s.p50", "s"},
    {"service.delta_ms.p50", "ms"},
    {"service.plane_hit_ratio", "ratio"},
    {"service.corpus_hit_ratio", "ratio"},
    {"service.plan_hit_ratio", "ratio"},
    {"service.fresh_gen_share", "ratio"},
    {"service.rejected", "count"},
    {"service.memory_peak_mb", "MB"},
    {"core.unattributed_s", "s"},
    {"trace.overhead", "ratio"},
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--state-dir") {
      args.state_dir = value;
    } else if (flag == "--build-id") {
      args.build_id = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::cerr << "usage: e2e_bench --workload <cold-wa-4t|cold-mix-1t|"
                 "service-warm-delta> --seed <n> --seconds <s> --trace <0|1> "
                 "[--state-dir <dir>] [--build-id <id>]\n";
    return 2;
  }
  RunOutcome outcome;
  if (const ColdSpec* spec = FindColdSpec(args.workload)) {
    RunCold(args, *spec, outcome);
  } else if (args.workload == kServiceWorkload) {
    RunService(args, outcome);
  } else {
    std::cerr << "unknown workload " << args.workload << "\n";
    return 2;
  }
  if (args.trace) {
    // Canonical order; layers this workload's path skips report 0.
    Metrics complete;
    for (const auto& [name, unit] : kPerLayerMetrics) {
      complete.Set(name, outcome.metrics.Get(name).value_or(0.0), unit);
    }
    outcome.metrics = complete;
  }
  const bool correct = outcome.failed == 0;
  for (const std::string& error : outcome.errors) {
    std::cout << "FAILED: " << error << "\n";
  }
  std::cout << outcome.metrics.ToText();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << std::max<size_t>(outcome.attempted, 1)
            << ", \"failed\": " << outcome.failed
            << ", \"metrics\": " << outcome.metrics.ToJson() << "}"
            << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace mc

int main(int argc, char** argv) { return mc::perfbench::Main(argc, argv); }
