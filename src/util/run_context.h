#ifndef MATCHCATCHER_UTIL_RUN_CONTEXT_H_
#define MATCHCATCHER_UTIL_RUN_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>

namespace mc {

/// Cooperative cancellation token with an optional deadline.
///
/// A RunContext is a cheap copyable handle to shared cancellation state.
/// Long-running operations (the joint top-k executor, the QJoin inner loop,
/// config generation) accept one through their options and poll
/// `Cancelled()` at natural checkpoints; when it fires they stop cleanly
/// and return best-so-far results flagged as truncated (see
/// docs/robustness.md for the partial-result contract).
///
/// A default-constructed RunContext is inert: it carries no state, never
/// cancels, and `Cancelled()` is a single null check — the no-deadline path
/// stays byte-identical to a run without any context.
///
///   RunContext ctx = RunContext::WithDeadline(50);   // expires in 50 ms
///   options.joint.run_context = ctx;
///   ...                                              // another thread may
///   ctx.Cancel();                                    // also cancel manually
class RunContext {
 public:
  /// Inert context: never cancelled, no deadline.
  RunContext() = default;

  /// Context that auto-cancels `millis` milliseconds from now. Manual
  /// Cancel() still works and fires earlier.
  static RunContext WithDeadline(int64_t millis) {
    RunContext context = Cancellable();
    context.state_->deadline =
        Clock::now() + std::chrono::milliseconds(millis);
    context.state_->has_deadline = true;
    return context;
  }

  /// Context with shared state but no deadline; cancel via Cancel().
  static RunContext Cancellable() {
    RunContext context;
    context.state_ = std::make_shared<State>();
    return context;
  }

  /// Child context derived from `parent`: it cancels as soon as the parent
  /// cancels (deadline or manual), and cancelling the child never affects
  /// the parent. The optional own deadline may tighten but never loosen the
  /// parent's: the effective deadline is the earlier of the two. Pass a
  /// negative `deadline_millis` (the default) for no additional deadline.
  ///
  /// The service layer derives one child per session from a manager-wide
  /// root (so shutdown cancels everything), and the joint executor derives
  /// one per config node (so a failed shard stops its siblings without
  /// touching other configs).
  static RunContext WithParent(const RunContext& parent,
                               int64_t deadline_millis = -1) {
    RunContext context = Cancellable();
    if (deadline_millis >= 0) {
      context.state_->deadline =
          Clock::now() + std::chrono::milliseconds(deadline_millis);
      context.state_->has_deadline = true;
    }
    if (parent.state_ != nullptr) {
      context.state_->parent = parent.state_;
      if (parent.state_->has_deadline &&
          (!context.state_->has_deadline ||
           parent.state_->deadline < context.state_->deadline)) {
        context.state_->deadline = parent.state_->deadline;
        context.state_->has_deadline = true;
      }
    }
    return context;
  }

  /// Requests cancellation. Safe from any thread; no-op on an inert
  /// context. Idempotent.
  void Cancel() {
    if (state_ != nullptr) {
      state_->cancelled.store(true, std::memory_order_relaxed);
    }
  }

  /// True once Cancel() was called or the deadline passed. Polling this is
  /// cheap (atomic load, plus one clock read when a deadline is set) but
  /// not free — call it once per batch of work (e.g. every 1024 join
  /// events), not per element.
  bool Cancelled() const {
    if (state_ == nullptr) return false;
    if (state_->cancelled.load(std::memory_order_relaxed)) return true;
    if (state_->has_deadline && Clock::now() >= state_->deadline) {
      state_->cancelled.store(true, std::memory_order_relaxed);
      return true;
    }
    // Parent deadlines are folded into this state's deadline at WithParent
    // time; the chain walk only has to observe manual ancestor cancels.
    for (const State* ancestor = state_->parent.get(); ancestor != nullptr;
         ancestor = ancestor->parent.get()) {
      if (ancestor->cancelled.load(std::memory_order_relaxed)) {
        state_->cancelled.store(true, std::memory_order_relaxed);
        return true;
      }
    }
    return false;
  }

  /// Milliseconds until the deadline (clamped at 0), or INT64_MAX when no
  /// deadline is set. An already-cancelled context reports 0.
  int64_t RemainingMillis() const {
    if (state_ == nullptr) return std::numeric_limits<int64_t>::max();
    if (Cancelled()) return 0;
    if (!state_->has_deadline) return std::numeric_limits<int64_t>::max();
    auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
                         state_->deadline - Clock::now())
                         .count();
    return remaining > 0 ? remaining : 0;
  }

  /// True for contexts that can ever cancel (non-inert).
  bool can_cancel() const { return state_ != nullptr; }

 private:
  using Clock = std::chrono::steady_clock;

  struct State {
    std::atomic<bool> cancelled{false};
    bool has_deadline = false;
    Clock::time_point deadline{};
    // Set only by WithParent; immutable afterwards. Keeps the parent's
    // state alive so a child may outlive the handle it was derived from.
    std::shared_ptr<const State> parent;
  };

  std::shared_ptr<State> state_;
};

}  // namespace mc

#endif  // MATCHCATCHER_UTIL_RUN_CONTEXT_H_
