#pragma once

/// Thread-safety capability layer (Clang `-Wthread-safety`).
///
/// Every mutex in METAPREP is a `util::Mutex` (or `util::SharedMutex`), every
/// guarded field carries `GUARDED_BY(mutex_)`, and every `*_locked()` helper
/// carries `REQUIRES(mutex_)`.  Under Clang the attributes turn the lock
/// discipline comments into compile-time proofs; under GCC they expand to
/// nothing and the wrappers are zero-cost shims over the std primitives.
///
/// Global lock order (outermost first) — see DESIGN.md "Static concurrency
/// safety":
///
///   serve::JobQueue::mutex_
///     > session-registry mutexes (obs::TraceSession / obs::MetricsRegistry /
///       obs::MemRegistry)
///
/// The order is declared structurally with ACQUIRED_BEFORE / ACQUIRED_AFTER
/// at the mutex declarations (enforced under -Wthread-safety-beta; plain
/// -Wthread-safety treats them as documentation).

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

// Attribute plumbing.  `capability` needs clang; the macros must vanish under
// GCC, which parses (and ignores) some of these spellings but warns on others.
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define METAPREP_TSA(x) __attribute__((x))
#endif
#endif
#ifndef METAPREP_TSA
#define METAPREP_TSA(x)  // expands to nothing: GCC or pre-capability clang
#endif

#define CAPABILITY(x) METAPREP_TSA(capability(x))
#define SCOPED_CAPABILITY METAPREP_TSA(scoped_lockable)
#define GUARDED_BY(x) METAPREP_TSA(guarded_by(x))
#define PT_GUARDED_BY(x) METAPREP_TSA(pt_guarded_by(x))
#define ACQUIRED_BEFORE(...) METAPREP_TSA(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) METAPREP_TSA(acquired_after(__VA_ARGS__))
#define REQUIRES(...) METAPREP_TSA(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) METAPREP_TSA(requires_shared_capability(__VA_ARGS__))
#define ACQUIRE(...) METAPREP_TSA(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) METAPREP_TSA(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) METAPREP_TSA(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) METAPREP_TSA(release_shared_capability(__VA_ARGS__))
#define RELEASE_GENERIC(...) METAPREP_TSA(release_generic_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) METAPREP_TSA(try_acquire_capability(__VA_ARGS__))
#define EXCLUDES(...) METAPREP_TSA(locks_excluded(__VA_ARGS__))
#define ASSERT_CAPABILITY(x) METAPREP_TSA(assert_capability(x))
#define RETURN_CAPABILITY(x) METAPREP_TSA(lock_returned(x))
#define NO_THREAD_SAFETY_ANALYSIS METAPREP_TSA(no_thread_safety_analysis)

namespace metaprep::util {

/// Exclusive mutex carrying the `"mutex"` capability.  Satisfies
/// BasicLockable/Lockable, so `CondVar` (condition_variable_any) can park on
/// it directly.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  [[nodiscard]] bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// For negative capability / assertion use in annotations only.
  const Mutex& operator!() const { return *this; }

 private:
  std::mutex mu_;
};

/// Reader/writer mutex carrying the `"shared_mutex"` capability.
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  void lock_shared() ACQUIRE_SHARED() { mu_.lock_shared(); }
  void unlock_shared() RELEASE_SHARED() { mu_.unlock_shared(); }

  const SharedMutex& operator!() const { return *this; }

 private:
  std::shared_mutex mu_;
};

/// Tag selecting the deferred-lock MutexLock constructor.
struct defer_lock_t {
  explicit defer_lock_t() = default;
};
inline constexpr defer_lock_t defer_lock{};

/// Tag selecting the try-lock MutexLock constructor.
struct try_to_lock_t {
  explicit try_to_lock_t() = default;
};
inline constexpr try_to_lock_t try_to_lock{};

/// Scoped exclusive lock over `Mutex`.  Relockable: `Unlock()`/`Lock()` may
/// be used mid-scope (the destructor releases only if held), and the
/// deferred/try constructors support the try-to-lock probing idiom.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu), held_(true) { mu_.lock(); }
  MutexLock(Mutex& mu, defer_lock_t) EXCLUDES(mu) : mu_(mu), held_(false) {}
  MutexLock(Mutex& mu, try_to_lock_t) TRY_ACQUIRE(true, mu)
      : mu_(mu), held_(mu.try_lock()) {}
  ~MutexLock() RELEASE() {
    if (held_) mu_.unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  void Lock() ACQUIRE() {
    mu_.lock();
    held_ = true;
  }
  void Unlock() RELEASE() {
    mu_.unlock();
    held_ = false;
  }
  [[nodiscard]] bool TryLock() TRY_ACQUIRE(true) { return held_ = mu_.try_lock(); }
  [[nodiscard]] bool owns_lock() const noexcept { return held_; }

 private:
  friend class CondVar;
  Mutex& mu_;
  bool held_;
};

/// Scoped shared (reader) lock over `SharedMutex`.
class SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.lock_shared();
  }
  ~ReaderLock() RELEASE() { mu_.unlock_shared(); }

  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// Scoped exclusive (writer) lock over `SharedMutex`.
class SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~WriterLock() RELEASE() { mu_.unlock(); }

  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// Condition variable parking on `util::Mutex`.
///
/// All waits take the owning `Mutex` plus the live `MutexLock` and are
/// annotated `REQUIRES(mu)`: the capability is held on entry and on return,
/// which is exactly what the analysis can see (the internal release/reacquire
/// happens inside the unannotated std machinery).  Predicate waits are
/// deliberately absent — a predicate lambda is opaque to the analysis, so
/// call sites spell the `while (!cond) cv.wait(...)` loop with the guarded
/// reads inline where the checker can prove them.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(Mutex& mu, MutexLock& lock) REQUIRES(mu) {
    (void)lock;
    cv_.wait(mu);
  }

  template <class Clock, class Duration>
  std::cv_status wait_until(Mutex& mu, MutexLock& lock,
                            const std::chrono::time_point<Clock, Duration>& deadline)
      REQUIRES(mu) {
    (void)lock;
    return cv_.wait_until(mu, deadline);
  }

  template <class Rep, class Period>
  std::cv_status wait_for(Mutex& mu, MutexLock& lock,
                          const std::chrono::duration<Rep, Period>& dur) REQUIRES(mu) {
    (void)lock;
    return cv_.wait_for(mu, dur);
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace metaprep::util
