// Stage — a named pipeline-stage thread for the day-epoch driver. One
// Stage owns one std::thread running one body; the body's exception (if
// any) is captured and rethrown from join() on the wiring thread, so a
// failing stage surfaces as a normal exception in run_longitudinal
// instead of std::terminate. Bodies are expected to close their output
// Channel on all exits (including unwinds) so downstream stages drain and
// stop rather than deadlock.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>

#include "obs/trace.h"

namespace ddos::exec {

/// Per-stage progress cell a Stage body ticks once per processed item. The
/// stall watchdog polls progress() from other threads; the cell lives in a
/// shared_ptr so a watchdog callable registered on the observer stays
/// valid even if it is read during Stage teardown.
class StageContext {
 public:
  void tick(std::uint64_t n = 1) {
    items_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t progress() const {
    return items_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> items_{0};
};

class Stage {
 public:
  /// Launches `body` on a fresh thread. `trace_depth` pins the stage's
  /// spans to their own lane in the Chrome trace view (the worker pool
  /// uses depth 2; stages sit above the workers at depth 1). Bodies that
  /// accept a StageContext& receive this stage's progress cell and should
  /// tick() it once per item so the stall watchdog can see the stage move.
  template <typename Body>
  Stage(std::string name, Body body, std::uint32_t trace_depth = 1)
      : name_(std::move(name)), context_(std::make_shared<StageContext>()) {
    thread_ = std::thread(
        [this, body = std::move(body), trace_depth, context = context_] {
          obs::set_thread_span_depth(trace_depth);
          try {
            if constexpr (std::is_invocable_v<Body&, StageContext&>) {
              body(*context);
            } else {
              body();
            }
          } catch (...) {
            error_ = std::current_exception();
          }
        });
  }

  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;

  /// Waits for the stage to finish and rethrows its exception, if any.
  void join() {
    if (thread_.joinable()) thread_.join();
    if (error_) {
      std::exception_ptr e = std::exchange(error_, nullptr);
      std::rethrow_exception(e);
    }
  }

  /// Joining destructor; a captured exception is swallowed here (call
  /// join() first when the error matters — the driver always does).
  ~Stage() {
    if (thread_.joinable()) thread_.join();
  }

  const std::string& name() const { return name_; }
  /// Only meaningful after the stage thread has been joined (error_ is
  /// published by the join's happens-before edge, not by an atomic).
  bool failed() const { return error_ != nullptr; }

  /// Shared progress cell: safe to read from any thread, and to keep (via
  /// the shared_ptr) beyond the Stage's lifetime.
  const std::shared_ptr<StageContext>& context() const { return context_; }
  /// Items processed so far — the stage's monotonic progress counter.
  std::uint64_t progress() const { return context_->progress(); }

 private:
  std::string name_;
  std::shared_ptr<StageContext> context_;
  std::thread thread_;
  std::exception_ptr error_;
};

}  // namespace ddos::exec
