// Tests for the annotated lock shims (common/mutex.hpp): xg::Mutex must
// actually exclude and xg::MutexLock must release on every exit path.
// These are the behaviors the thread-safety annotations *assert*; the
// annotations themselves are checked at compile time by the clang analyze
// lane (tests/analysis/), so this suite runs real threads under TSan via
// the `concurrent` label to back the static story with a dynamic one.
#include "common/mutex.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace xg {
namespace {

TEST(MutexTest, ExcludesConcurrentIncrements) {
  Mutex mu;
  long counter = 0;
  constexpr int kThreads = 4;
  constexpr int kIters = 20'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        MutexLock lk(mu);
        ++counter;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter, static_cast<long>(kThreads) * kIters);
}

TEST(MutexTest, TryLockFailsWhileHeldAndSucceedsAfterRelease) {
  Mutex mu;
  // Probe from a second thread: try_lock on a mutex the same thread holds
  // is UB for std::mutex (and a thread-safety-analysis error).
  auto probe = [&mu] {
    const bool acquired = mu.try_lock();
    if (acquired) mu.unlock();
    return acquired;
  };

  mu.lock();
  bool while_held = true;
  std::thread t1([&] { while_held = probe(); });
  t1.join();
  EXPECT_FALSE(while_held);
  mu.unlock();

  bool after_release = false;
  std::thread t2([&] { after_release = probe(); });
  t2.join();
  EXPECT_TRUE(after_release);
}

TEST(MutexTest, MutexLockReleasesOnScopeExit) {
  Mutex mu;
  {
    MutexLock lk(mu);
  }
  // If the scoped lock leaked the capability this would deadlock (and the
  // test would time out under ctest).
  MutexLock again(mu);
  SUCCEED();
}

}  // namespace
}  // namespace xg
