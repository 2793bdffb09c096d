#include "util/thread_pool.h"

#include <cstdlib>
#include <exception>
#include <string>
#include <utility>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "mem/arena_stats.h"
#include "mem/topology.h"
#include "util/check.h"
#include "util/thread_name.h"

namespace mc {

namespace {

// Resolves the pinning policy against the environment and the detected
// topology. Pinning is only ever honored on a *real* topology: a faked one
// (MC_TOPOLOGY) synthesizes CPU ids that may not exist on the machine, so
// it routes decisions but never binds — requesting a bind there is a
// recorded topology fallback, not an error.
bool ShouldPin(ThreadPinning pinning, const mem::SystemTopology& topo) {
  const char* env = std::getenv("MC_PIN_THREADS");
  switch (pinning) {
    case ThreadPinning::kOff:
      return false;
    case ThreadPinning::kOn:
      break;
    case ThreadPinning::kAuto:
      if (env != nullptr) {
        if (env[0] == '0') return false;
        break;  // "1" (or anything else non-"0"): treat as kOn.
      }
      if (topo.num_nodes() <= 1) return false;
      break;
  }
  if (topo.fake()) {
    mem::ArenaStatsRegistry::Instance().RecordTopologyFallback();
    return false;
  }
  return true;
}

// Pins the calling thread to one core of its node (round-robin within the
// node's CPU list). Best effort: failure is a topology fallback.
void PinToCore(const std::vector<int>& cpus, size_t index) {
#if defined(__linux__)
  if (cpus.empty()) return;
  const int cpu = cpus[index % cpus.size()];
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (pthread_setaffinity_np(pthread_self(), sizeof(set), &set) != 0) {
    mem::ArenaStatsRegistry::Instance().RecordTopologyFallback();
  }
#else
  (void)cpus;
  (void)index;
  mem::ArenaStatsRegistry::Instance().RecordTopologyFallback();
#endif
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads, const std::string& name_prefix)
    : ThreadPool(num_threads, ThreadPoolOptions{.name_prefix = name_prefix}) {}

ThreadPool::ThreadPool(size_t num_threads, const ThreadPoolOptions& options) {
  if (num_threads == 0) num_threads = 1;
  topology_aware_ = options.topology_aware;
  threads_.reserve(num_threads);
  worker_nodes_.assign(num_threads, -1);
  if (!topology_aware_) {
    for (size_t i = 0; i < num_threads; ++i) {
      threads_.emplace_back([this, name = options.name_prefix + "-" +
                                       std::to_string(i)] {
        SetCurrentThreadName(name);
        WorkerLoop();
      });
    }
    return;
  }

  // Topology-aware: carve the workers into contiguous per-node groups —
  // worker i serves node NodeOfSlice(i, n) and, when pinned, runs on one of
  // that node's cores.
  const mem::SystemTopology& topo = mem::SystemTopology::Get();
  const bool pin = ShouldPin(options.pinning, topo);
  pinned_ = pin;
  std::vector<size_t> index_in_node(topo.num_nodes(), 0);
  for (size_t i = 0; i < num_threads; ++i) {
    const int node = static_cast<int>(topo.NodeOfSlice(i, num_threads));
    worker_nodes_[i] = node;
    const size_t core_index =
        index_in_node[static_cast<size_t>(node)]++;
    // The CPU list is copied into the worker: the cached topology can be
    // swapped under a running pool by SystemTopology::SetForTest.
    threads_.emplace_back([this, pin, node, core_index,
                           cpus = topo.nodes()[static_cast<size_t>(node)].cpus,
                           name = options.name_prefix + "-n" +
                                  std::to_string(node) + "-w" +
                                  std::to_string(i)] {
      SetCurrentThreadName(name);
      if (pin) PinToCore(cpus, core_index);
      WorkerLoop();
    });
  }
}

ThreadPool::~ThreadPool() {
  Wait();  // Drain; any unclaimed task error dies with the pool.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (auto& thread : threads_) thread.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  Submit(std::move(task), nullptr);
}

void ThreadPool::Submit(std::function<void()> task, ErrorSink error_sink) {
  MC_CHECK(task != nullptr);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    MC_CHECK(!shutting_down_)
        << "ThreadPool::Submit() during or after pool destruction; the task "
           "would run on dead workers. All producers (including running "
           "tasks) must stop submitting before the pool is destroyed.";
    queue_.push_back(Task{std::move(task), std::move(error_sink)});
  }
  work_available_.notify_one();
}

Status ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
  Status first = std::move(first_error_);
  first_error_ = Status::Ok();
  error_count_ = 0;
  return first;
}

size_t ThreadPool::error_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return error_count_;
}

void ThreadPool::RecordError(Status status) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (first_error_.ok()) first_error_ = std::move(status);
  ++error_count_;
}

void ThreadPool::WorkerLoop() {
  while (true) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(
          lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutting_down_ with no work left.
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    // Task boundary: exceptions stop here. A throwing task must neither
    // kill this worker (the pool would deadlock in Wait) nor unwind into
    // std::thread's terminate handler.
    Status failure;
    try {
      task.fn();
    } catch (const std::exception& e) {
      failure = Status::Internal(std::string("pool task threw: ") + e.what());
    } catch (...) {
      failure = Status::Internal("pool task threw a non-std exception");
    }
    if (!failure.ok()) {
      if (task.error_sink != nullptr) {
        task.error_sink(failure);
      } else {
        RecordError(std::move(failure));
      }
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --active_;
      if (queue_.empty() && active_ == 0) all_idle_.notify_all();
    }
  }
}

}  // namespace mc
