// Capability-annotated mutex wrappers for Clang Thread Safety Analysis.
//
// std::mutex carries no capability attributes under libstdc++, so
// `-Wthread-safety` cannot reason about it. Mutex is a thin wrapper that
// attaches the attributes (util/thread_annotations.h) and delegates every
// operation — zero behavioral difference, same codegen after inlining.
// SharedMutex is a reader/writer lock of its own (see its comment): unlike
// std::shared_mutex it prefers writers, so readers cannot starve them.
//
// Idiom:
//
//   class Cache {
//     mutable Mutex mu_;
//     std::deque<Entry> entries_ PTA_GUARDED_BY(mu_);
//   };
//
//   MutexLock lock(&mu_);              // scoped exclusive hold
//   ReaderMutexLock lock(&shared_mu_); // scoped shared hold
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
#include <cstddef>
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

/// \brief A writer-preferring reader/writer lock with the "shared_mutex"
/// capability attached.
///
/// Once a writer waits in Lock(), new LockShared() calls block until that
/// writer (and any writer queued behind it) has acquired and released the
/// lock; readers already inside finish first. A stream of overlapping
/// readers therefore cannot keep a writer out, which a reader-preferring
/// lock (glibc's std::shared_mutex) allows. The price is that shared
/// acquisitions must not nest: a thread that holds the lock shared and
/// asks for it shared again deadlocks behind a waiting writer. Take it
/// once per operation. Neither side is recursive.
class PTA_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() PTA_ACQUIRE() {
    std::unique_lock<std::mutex> lock(mu_);
    ++waiting_writers_;
    while (writer_ || readers_ != 0) writer_cv_.wait(lock);
    --waiting_writers_;
    writer_ = true;
  }
  void Unlock() PTA_RELEASE() {
    std::lock_guard<std::mutex> lock(mu_);
    writer_ = false;
    if (waiting_writers_ != 0) {
      writer_cv_.notify_one();
    } else {
      reader_cv_.notify_all();
    }
  }
  void LockShared() PTA_ACQUIRE_SHARED() {
    std::unique_lock<std::mutex> lock(mu_);
    while (writer_ || waiting_writers_ != 0) reader_cv_.wait(lock);
    ++readers_;
  }
  void UnlockShared() PTA_RELEASE_SHARED() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--readers_ == 0 && waiting_writers_ != 0) writer_cv_.notify_one();
  }

  /// Writers blocked in Lock() right now. A snapshot, for tests that must
  /// know a writer queued before they go on.
  size_t waiting_writers() const {
    std::lock_guard<std::mutex> lock(mu_);
    return waiting_writers_;
  }

 private:
  // The state below is guarded by mu_, a plain std::mutex the analysis
  // cannot see; every access is inside one of the methods above.
  mutable std::mutex mu_;
  std::condition_variable reader_cv_;  // writer_ cleared, no writer waits
  std::condition_variable writer_cv_;  // lock free for one waiting writer
  size_t readers_ = 0;
  size_t waiting_writers_ = 0;
  bool writer_ = false;
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

/// \brief Scoped exclusive hold of a SharedMutex (the writer side).
class PTA_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex* mu) PTA_ACQUIRE(mu) : mu_(mu) {
    mu_->Lock();
  }
  ~WriterMutexLock() PTA_RELEASE() { mu_->Unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex* mu_;
};

/// \brief Scoped shared hold of a SharedMutex (the reader side).
class PTA_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex* mu) PTA_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_->LockShared();
  }
  ~ReaderMutexLock() PTA_RELEASE_GENERIC() { mu_->UnlockShared(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex* mu_;
};

}  // namespace pta

#endif  // PTA_UTIL_MUTEX_H_
