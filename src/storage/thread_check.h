#ifndef STEGHIDE_STORAGE_THREAD_CHECK_H_
#define STEGHIDE_STORAGE_THREAD_CHECK_H_

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>

namespace steghide::storage {

/// Debug-mode enforcement of the one-owner-thread rule. Every component
/// below the request dispatcher has one owner thread at a time: the raw
/// devices (block_device.h), and the agents, StegFsCore, ObliviousStore
/// and the reader with the generators they own. None of them locks. The
/// owner may change over a run (a benchmark populates a volume on the
/// main thread, then hands the system to the dispatcher's I/O thread; the
/// thread start or join orders the hand-off), but calls must never
/// *overlap*.
///
/// The checker therefore flags concurrent entry rather than pinning one
/// thread id forever: each guarded scope marks the component busy on
/// entry and aborts with a diagnostic when a second thread enters while
/// the first is still inside. Overlap from the *same* thread (recursion)
/// is tolerated, since it cannot race.
///
/// Release builds (NDEBUG) compile the checker away entirely.
class SerialCallChecker {
 public:
#ifndef NDEBUG
  class Guard {
   public:
    Guard(SerialCallChecker& checker, const char* what) : checker_(checker) {
      // Ownership is established by the CAS itself (empty -> self), so a
      // loser can never observe a stale owner id and mistake a genuine
      // cross-thread overlap for recursion.
      const std::thread::id self = std::this_thread::get_id();
      std::thread::id expected{};
      if (!checker_.owner_.compare_exchange_strong(
              expected, self, std::memory_order_acquire) &&
          expected != self) {
        std::fprintf(stderr,
                     "steghide: concurrent %s calls break its one-owner-"
                     "thread rule (storage/thread_check.h); drive it from "
                     "one thread at a time, such as a RequestDispatcher's "
                     "I/O thread\n",
                     what);
        std::abort();
      }
      // Only the owning thread reaches here; depth_ needs no atomicity.
      ++checker_.depth_;
    }
    ~Guard() {
      if (--checker_.depth_ == 0) {
        checker_.owner_.store(std::thread::id{}, std::memory_order_release);
      }
    }

    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    SerialCallChecker& checker_;
  };

 private:
  friend class Guard;
  std::atomic<std::thread::id> owner_{};
  int depth_ = 0;  // touched only while owner_ == this thread
#else
  class Guard {
   public:
    Guard(SerialCallChecker&, const char*) {}
  };
#endif
};

}  // namespace steghide::storage

#define STEGHIDE_SERIAL_CALL_GUARD(checker, what) \
  ::steghide::storage::SerialCallChecker::Guard \
      steghide_serial_call_guard_(checker, what)

#endif  // STEGHIDE_STORAGE_THREAD_CHECK_H_
