// The shared thread pool. Its workers serve two kinds of work:
//
// * Fork-join tasks (TaskGroup) for the task-parallel partitioner stages.
//   Recursive bisection is a fork-join tree: after one bisection the two
//   sub-hypergraphs are fully independent, so each recursion level forks the
//   two sides as tasks. The pool keeps one shared two-ended deque: workers
//   take from the FIFO end (oldest = biggest subtrees), while a thread
//   waiting on a TaskGroup steals from the LIFO end (newest = its own freshly
//   forked children) — the scheduling order of a per-thread work-stealing
//   deque with far less machinery, which is plenty because partitioner tasks
//   are coarse.
// * Team loops (parallel_for) for the executor's BSP supersteps, which are
//   short and run back to back. The caller publishes one job per call; every
//   thread, the caller included, claims indices from one atomic counter, and
//   the call returns when all indices have finished. No allocation, lock or
//   queue node per index. A worker that just ran team work spins for a short
//   constant time before parking, so the next superstep finds it awake; it
//   leaves the spin early when a fork-join task is queued.
//
// Determinism: the pool never makes scheduling visible to the algorithms —
// every fghp use pre-derives its per-task Rng streams before forking and
// writes to disjoint output ranges, so results are identical at any thread
// count (DESIGN.md invariant 7).
//
// FGHP_THREADS caps the default pool size (default: hardware concurrency;
// FGHP_THREADS=1 keeps every caller on the serial code path).
//
// Watchdog: set_watchdog_ms (or FGHP_WATCHDOG_MS) arms a monitor thread
// with a stall threshold. Workers publish per-task heartbeats (task start
// time + a task sequence number; each team job a worker joins counts as one
// task); the monitor scans them every half threshold and, when a worker has
// been inside one task for longer than the threshold, emits a trace
// instant + watchdog.stalls metric and dumps the in-flight task state to
// stderr — once per (worker, task), so a genuinely stuck task does not
// flood the log. The watchdog never kills anything: the
// pipeline's cancellation layer (util/cancel.hpp) is the cooperative path
// out, the watchdog is the flight recorder for tasks that stopped
// cooperating. The site "watchdog.stall" (ordinal = scan number) simulates
// a stall for tests without needing a real hung task.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace fghp {

class TaskGroup;

/// Non-owning reference to a callable taking a loop index, for
/// parallel_for. Unlike std::function it never allocates; the callable must
/// outlive the call it is passed to (a lambda argument does).
class IndexFn {
 public:
  template <class F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, IndexFn>)
  IndexFn(F&& f)  // implicit: a lambda argument converts
      : ctx_(const_cast<void*>(static_cast<const void*>(&f))),
        call_([](void* ctx, long i) { (*static_cast<std::remove_reference_t<F>*>(ctx))(i); }) {}

  void operator()(long i) const { call_(ctx_, i); }

 private:
  void* ctx_;
  void (*call_)(void*, long);
};

class ThreadPool {
 public:
  /// Spawns totalThreads - 1 workers; the submitting thread is the last one
  /// (it executes tasks while waiting on a TaskGroup).
  explicit ThreadPool(int totalThreads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker threads plus the submitting thread.
  int num_threads() const;

  /// Adds workers until num_threads() >= totalThreads. Never shrinks.
  /// Throws InvariantError after shutdown().
  void grow_to(int totalThreads);

  /// Stops accepting work, drains the queue, and joins every worker and the
  /// watchdog thread. Idempotent; also run by the destructor. Forking
  /// through the pool afterwards is a typed InvariantError, never undefined
  /// behavior; parallel_for then runs inline.
  void shutdown();

  /// Arms (ms > 0) or disarms (ms <= 0) the stall watchdog. The monitor
  /// thread is started on first arming and joined by shutdown().
  void set_watchdog_ms(long ms);

  /// One synchronous watchdog scan over the worker heartbeats; returns the
  /// number of stalls reported. Called periodically by the monitor thread,
  /// and directly by tests (deterministic, no sleeping required). The scan
  /// ordinal feeds the "watchdog.stall" fault site, which simulates a stall.
  long watchdog_scan();

  /// FGHP_WATCHDOG_MS if set and positive, else 0 (watchdog off).
  static long default_watchdog_ms();

  /// FGHP_THREADS if set and positive, else hardware_concurrency (min 1).
  static int default_num_threads();

  /// Process-wide pool, lazily built with default_num_threads().
  static ThreadPool& global();

  /// Pool to use for a run requesting `requested` threads (<= 0 = default):
  /// nullptr when the request resolves to one thread (serial path), else the
  /// global pool grown to the requested size.
  static ThreadPool* for_request(long requested);

 private:
  friend class TaskGroup;
  friend void parallel_for(ThreadPool& pool, long n, IndexFn fn);

  struct Task {
    std::function<void()> fn;
    TaskGroup* group = nullptr;
  };

  /// Per-worker heartbeat, written by the worker without locks and read by
  /// the watchdog. busySinceNs == 0 means idle; seq increments at each task
  /// start (and each team job joined) so the watchdog can tell "same stuck
  /// task" from "new task".
  /// activity mirrors the worker's innermost active trace-span name
  /// (trace::publish_activity) so a stall report can say *what* is stuck,
  /// not just which worker; the strings have static storage duration.
  struct Beat {
    std::atomic<std::int64_t> busySinceNs{0};
    std::atomic<std::uint64_t> seq{0};
    std::atomic<const char*> activity{nullptr};
  };

  void enqueue(Task t);
  /// Steals from the LIFO end (help-while-waiting). False when empty.
  bool try_steal(Task& out);
  static void run_task(Task& t);
  void worker_loop(std::size_t index);
  void watchdog_loop();

  /// Runs indices of team generation `gen` (job `fn`, `n` indices) until
  /// none is left to claim; `fn` is dereferenced only after a claim
  /// succeeds, which proves the job is still live.
  void team_work(std::uint32_t gen, const IndexFn* fn, long n);
  /// Joins the published team job if its generation differs from `seen`
  /// (then updates `seen`); false when there is nothing new.
  bool team_join(std::uint32_t& seen, Beat& beat);
  /// Spins for a bounded, constant time until a new team generation shows
  /// up; false when the time ran out or a task is queued.
  bool team_spin(std::uint32_t seen) const;

  mutable std::mutex mu_;
  std::condition_variable workReady_;
  std::deque<Task> queue_;
  std::atomic<long> queued_{0};               // queue_.size(), read without mu_
  std::atomic<int> numWorkers_{0};            // workers_.size(), read without mu_
  std::vector<std::thread> workers_;
  std::deque<Beat> beats_;                    // parallel to workers_; stable addresses
  std::vector<std::uint64_t> lastReported_;   // last stall-reported seq per worker (mu_)
  bool stop_ = false;

  std::atomic<long> watchdogMs_{0};
  std::atomic<long> watchdogScans_{0};
  std::mutex wdMu_;
  std::condition_variable wdCv_;
  std::thread watchdog_;
  bool wdStop_ = false;

  // Team state (parallel_for). teamClaim_ packs the job generation (high 32
  // bits) with the next index to claim (low 32 bits). When a call ends, its
  // owner closes the generation (index bits all ones) before releasing the
  // team, so a late claim on it fails instead of taking an index of the
  // next call. The job fields are written (release) after that close and
  // before the next generation is published; a worker reads them (acquire)
  // after it reads the generation and uses them only once a claim on that
  // generation succeeds.
  alignas(64) std::atomic<std::uint64_t> teamClaim_{0};
  alignas(64) std::atomic<long> teamDone_{0};  // indices finished
  std::atomic<const IndexFn*> teamJob_{nullptr};
  std::atomic<long> teamN_{0};
  std::atomic<bool> teamBusy_{false};          // a parallel_for owns the team
  std::atomic<int> parked_{0};                 // workers blocked on workReady_
  std::mutex teamErrMu_;
  std::vector<std::exception_ptr> teamErrs_;   // exceptions of the current job
};

/// Fork-join scope over a pool: run() forks a task, wait() joins all tasks
/// forked through this group. wait() executes queued tasks itself instead of
/// blocking, so nested groups in recursive code cannot deadlock even on a
/// pool with zero workers. Task exceptions are all collected: if exactly one
/// task threw, wait() rethrows that exception unchanged; if several did,
/// wait() throws an AggregateError carrying every one of them.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool) : pool_(pool) {}
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  void run(std::function<void()> fn);
  void wait();

 private:
  friend class ThreadPool;
  void finish_one(std::exception_ptr err);

  ThreadPool& pool_;
  std::mutex mu_;
  std::condition_variable done_;
  long pending_ = 0;
  std::vector<std::exception_ptr> errs_;
};

/// fn(i) for i in [0, n) on the pool's team; blocks until every index has
/// finished. The caller claims indices too and can finish all of them
/// alone, so a worker that is busy in a TaskGroup task, parked or preempted
/// never holds the call up. One call owns the team at a time: a call made
/// while another is in flight (nested inside fn, or from a second thread)
/// runs its indices inline on its caller, as does any call on a pool with
/// no workers. Exceptions follow TaskGroup::wait: one is rethrown
/// unchanged, several become an AggregateError; every index still runs.
void parallel_for(ThreadPool& pool, long n, IndexFn fn);

}  // namespace fghp
