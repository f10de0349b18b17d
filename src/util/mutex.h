// Capability-annotated mutex wrappers for Clang Thread Safety Analysis.
//
// std::mutex carries no capability attributes under libstdc++, so
// `-Wthread-safety` cannot reason about it. Mutex is a thin wrapper that
// attaches the attributes (util/thread_annotations.h) and delegates every
// operation — zero behavioral difference, same codegen after inlining.
//
// Idiom:
//
//   class Cache {
//     mutable Mutex mu_;
//     std::deque<Entry> entries_ PTA_GUARDED_BY(mu_);
//   };
//
//   MutexLock lock(&mu_);  // scoped exclusive hold
//
// Condition variables: MutexLock exposes the underlying
// std::unique_lock<std::mutex> via native() for std::condition_variable
// waits. Write waits as explicit loops —
//
//   while (!ReadyLocked()) cv_.wait(lock.native());
//
// — so the guarded predicate reads stay inside the annotated function
// scope (a wait predicate lambda would be analyzed as an unannotated
// function and rejected under -Wthread-safety).

#ifndef PTA_UTIL_MUTEX_H_
#define PTA_UTIL_MUTEX_H_

#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

namespace pta {

/// \brief std::mutex with the "mutex" capability attached.
class PTA_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() PTA_ACQUIRE() { mu_.lock(); }
  void Unlock() PTA_RELEASE() { mu_.unlock(); }

  /// The wrapped mutex, for std::condition_variable plumbing (see the
  /// header comment); do not lock it directly around guarded state.
  std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
};

/// \brief Scoped exclusive hold of a Mutex.
class PTA_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) PTA_ACQUIRE(mu) : lock_(mu->native()) {}
  ~MutexLock() PTA_RELEASE() {}

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// For std::condition_variable::wait; the wait releases and reacquires
  /// the mutex internally, which the analysis (correctly) treats as the
  /// capability being held across the call.
  std::unique_lock<std::mutex>& native() { return lock_; }

 private:
  std::unique_lock<std::mutex> lock_;
};

}  // namespace pta

#endif  // PTA_UTIL_MUTEX_H_
