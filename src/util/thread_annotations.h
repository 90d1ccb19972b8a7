// Compile-time concurrency enforcement: Clang Thread Safety Analysis macros
// and an annotated mutex/condition-variable wrapper set. Under clang the
// macros expand to the `capability` attribute family and every translation
// unit is compiled with -Wthread-safety (an error under DEEPPLAN_WERROR), so
// lock discipline — which field is guarded by which mutex, which private
// helper requires which lock — is checked on every build instead of only on
// the code paths a TSan run happens to execute. Under gcc the macros expand
// to nothing and the wrappers cost exactly a std::mutex.
//
// The repo has two concurrency regimes, and the annotations only cover the
// first:
//
//   1. *Internally synchronized* (annotated here): structures that threads
//      genuinely share — ThreadPool's work queue, JournalWriter (the target
//      CausalGraph hands retired requests to), and CausalGraph's recording
//      state. Their shared mutable fields are GUARDED_BY a Mutex and helpers
//      that expect the lock are REQUIRES-annotated.
//
//   2. *Thread-confined, deterministic hand-off* (NOT lockable): order-
//      sensitive sinks — one CausalGraph per sweep task, and the
//      TraceRecorder a journal's Chrome trace is exported into — the
//      per-run MetricsRegistry, and the sim-internal pools
//      (SlotPool/ObjectPool). Locking those would not make them correct:
//      their append *order* is part of the byte-identical-output contract,
//      and a shared locked instance would interleave in wall-clock order.
//      They stay owned by one thread and are stitched in deterministic task
//      order (CausalGraph::Adopt, SweepRunner's task-index result slots);
//      the happens-before edge for the hand-off is ThreadPool::Wait. See
//      DESIGN.md §14.
//
// Negative-compile tests in tests/static_analysis/ prove the annotations
// actually fire (an unguarded read of a GUARDED_BY field, a missing
// REQUIRES caller, and a leaked lock each fail to compile under
// -Wthread-safety -Werror).
#ifndef SRC_UTIL_THREAD_ANNOTATIONS_H_
#define SRC_UTIL_THREAD_ANNOTATIONS_H_

#include <condition_variable>
#include <mutex>

#if defined(__clang__)
#define DP_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define DP_THREAD_ANNOTATION__(x)  // no-op outside clang
#endif

// A type that acts as a lock (see `Mutex` below).
#define CAPABILITY(x) DP_THREAD_ANNOTATION__(capability(x))

// An RAII type whose lifetime equals a critical section (see `MutexLock`).
#define SCOPED_CAPABILITY DP_THREAD_ANNOTATION__(scoped_lockable)

// Field may only be read or written while holding the given mutex.
#define GUARDED_BY(x) DP_THREAD_ANNOTATION__(guarded_by(x))

// Pointer field whose *pointee* is protected by the given mutex.
#define PT_GUARDED_BY(x) DP_THREAD_ANNOTATION__(pt_guarded_by(x))

// Function may only be called while holding the given mutex(es) exclusively
// (REQUIRES) or at least shared (REQUIRES_SHARED).
#define REQUIRES(...) \
  DP_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  DP_THREAD_ANNOTATION__(requires_shared_capability(__VA_ARGS__))

// Function acquires / releases the given mutex(es) and must be called
// without / with them held.
#define ACQUIRE(...) DP_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  DP_THREAD_ANNOTATION__(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) DP_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  DP_THREAD_ANNOTATION__(release_shared_capability(__VA_ARGS__))

// Function acquires the mutex only when it returns the given value.
#define TRY_ACQUIRE(...) \
  DP_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))

// Function must be called *without* the given mutex held (deadlock guard for
// public entry points of internally-synchronized classes).
#define EXCLUDES(...) DP_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

// Runtime assertion that informs the analysis the mutex is held from here on
// (used at the top of condition-variable wait predicates, which clang cannot
// see through).
#define ASSERT_CAPABILITY(x) DP_THREAD_ANNOTATION__(assert_capability(x))

// Function returns a reference to the given mutex.
#define RETURN_CAPABILITY(x) DP_THREAD_ANNOTATION__(lock_returned(x))

// Escape hatch for functions the analysis cannot model (move constructors of
// lock-owning types, which by contract run with exclusive access to both
// objects). Every use needs a comment saying why it is safe.
#define NO_THREAD_SAFETY_ANALYSIS \
  DP_THREAD_ANNOTATION__(no_thread_safety_analysis)

namespace deepplan {

// std::mutex with the capability attribute attached (libstdc++'s std::mutex
// carries no annotations, so the analysis cannot track it directly).
// Non-movable: a Mutex pins the object that owns it, which is why movable
// classes keep their lock behind a unique_ptr (CausalGraph::StreamState).
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

  // No-op that tells the analysis this mutex is held — call it first thing
  // inside a CondVar wait predicate, the one place a guarded read happens in
  // a lambda the analysis cannot connect to the enclosing critical section.
  void AssertHeld() const ASSERT_CAPABILITY(this) {}

  // Underlying handle for CondVar; do not lock it directly.
  std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
};

// RAII critical section over a Mutex. The SCOPED_CAPABILITY annotation makes
// clang treat the object's lifetime as the lock-held region, so a GUARDED_BY
// field accessed outside a MutexLock scope (or a REQUIRES function called
// outside one) is a compile error.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// Condition variable bound to the annotated Mutex. Wait() demands the lock
// at compile time (REQUIRES), and on return the lock is held again — the
// standard condition-variable contract, now enforced instead of assumed.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // Blocks until pred() holds, releasing `mu` while asleep. `pred` runs with
  // `mu` held; start it with `mu.AssertHeld()` so the analysis knows (see
  // ThreadPool::WorkerLoop for the canonical use).
  template <typename Pred>
  void Wait(Mutex& mu, Pred pred) REQUIRES(mu) {
    // Adopt the already-held mutex for the wait, then release ownership back
    // to the caller's MutexLock: the lock's acquire/release bookkeeping stays
    // with the annotated scope, not with this adapter.
    std::unique_lock<std::mutex> lock(mu.native(), std::adopt_lock);
    cv_.wait(lock, std::move(pred));
    lock.release();
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace deepplan

#endif  // SRC_UTIL_THREAD_ANNOTATIONS_H_
