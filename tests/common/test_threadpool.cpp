#include "common/threadpool.hpp"

#include <gtest/gtest.h>

#include "common/contract.hpp"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <numeric>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

namespace xg {
namespace {

TEST(ThreadPool, SizeDefaultsToHardware) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

#if defined(__linux__)
// The default size follows the affinity mask, not the machine: narrow this
// thread to one CPU (the pool is sized from the calling thread's mask),
// build a default pool, then put the mask back.
TEST(ThreadPool, DefaultSizeFollowsAffinity) {
  cpu_set_t saved;
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(AvailableCpus(), static_cast<size_t>(CPU_COUNT(&saved)));
  int first = 0;
  while (first < CPU_SETSIZE && !CPU_ISSET(first, &saved)) ++first;
  ASSERT_LT(first, CPU_SETSIZE);
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const size_t narrowed_cpus = AvailableCpus();
  const size_t narrowed_pool = ThreadPool().size();
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(narrowed_cpus, 1u);
  EXPECT_EQ(narrowed_pool, 1u);
}
#endif

TEST(ThreadPool, ParallelForChunksNamesEachChunkOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> owner(10);
  for (auto& o : owner) o.store(-1);
  pool.ParallelForChunks(owner.size(), [&](size_t b, size_t e, size_t chunk) {
    ASSERT_LT(chunk, pool.size());
    for (size_t i = b; i < e; ++i) owner[i].store(static_cast<int>(chunk));
  });
  // Contiguous chunks in ascending order: chunk indices never decrease.
  for (size_t i = 0; i < owner.size(); ++i) {
    ASSERT_GE(owner[i].load(), 0);
    if (i > 0) {
      EXPECT_GE(owner[i].load(), owner[i - 1].load());
    }
  }
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  const size_t n = 10001;
  std::vector<std::atomic<int>> hits(n);
  pool.ParallelFor(n, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(0, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForSmallerThanWorkers) {
  ThreadPool pool(8);
  std::atomic<int> total{0};
  pool.ParallelFor(3, [&](size_t b, size_t e) {
    total.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(total.load(), 3);
}

TEST(ThreadPool, ChunksAreContiguousSlabs) {
  ThreadPool pool(4);
  std::mutex mu;
  std::vector<std::pair<size_t, size_t>> chunks;
  pool.ParallelFor(100, [&](size_t b, size_t e) {
    std::lock_guard<std::mutex> lk(mu);
    chunks.push_back({b, e});
  });
  std::sort(chunks.begin(), chunks.end());
  size_t expect_begin = 0;
  for (auto& [b, e] : chunks) {
    EXPECT_EQ(b, expect_begin);
    EXPECT_GT(e, b);
    expect_begin = e;
  }
  EXPECT_EQ(expect_begin, 100u);
}

TEST(ThreadPool, SequentialTasksReuseWorkers) {
  ThreadPool pool(3);
  std::atomic<long> sum{0};
  for (int round = 0; round < 20; ++round) {
    pool.ParallelFor(1000, [&](size_t b, size_t e) {
      long local = 0;
      for (size_t i = b; i < e; ++i) local += static_cast<long>(i);
      sum.fetch_add(local);
    });
  }
  EXPECT_EQ(sum.load(), 20L * (999L * 1000L / 2));
}

TEST(ThreadPool, RunOnAllHitsEveryWorker) {
  ThreadPool pool(5);
  std::vector<std::atomic<int>> hits(5);
  pool.RunOnAll([&](size_t worker) { hits[worker].fetch_add(1); });
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, SingleWorkerPool) {
  ThreadPool pool(1);
  std::vector<int> v(100, 0);
  pool.ParallelFor(v.size(), [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) v[i] = 1;
  });
  EXPECT_EQ(std::accumulate(v.begin(), v.end(), 0), 100);
}

TEST(ThreadPool, ResultsMatchSerialReduction) {
  ThreadPool pool(4);
  const size_t n = 4096;
  std::vector<double> data(n);
  for (size_t i = 0; i < n; ++i) data[i] = static_cast<double>(i) * 0.5;
  std::vector<double> partial(4, 0.0);
  std::atomic<size_t> slot{0};
  pool.ParallelFor(n, [&](size_t b, size_t e) {
    double s = 0.0;
    for (size_t i = b; i < e; ++i) s += data[i];
    partial[slot.fetch_add(1)] = s;
  });
  const double total = std::accumulate(partial.begin(), partial.end(), 0.0);
  EXPECT_DOUBLE_EQ(total, 0.5 * (n - 1) * n / 2.0);
}

// Exercised under TSan via the "concurrent" ctest label: several external
// threads submitting to one pool must serialize cleanly on the pool's
// submit lock with no lost or duplicated range chunks.
TEST(ThreadPool, ConcurrentSubmittersSerializeSafely) {
  ThreadPool pool(3);
  constexpr int kSubmitters = 4;
  constexpr int kRounds = 25;
  constexpr size_t kN = 512;
  std::atomic<uint64_t> for_total{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        pool.ParallelFor(kN, [&](size_t b, size_t e) {
          for_total.fetch_add(e - b, std::memory_order_relaxed);
        });
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  EXPECT_EQ(for_total.load(), static_cast<uint64_t>(kSubmitters) * kRounds * kN);
}

TEST(ThreadPoolContract, NestedParallelForFallsBackInsteadOfDeadlocking) {
  contract::ResetViolationStats();
  ThreadPool pool(2);
  std::atomic<int> inner_hits{0};
  pool.ParallelFor(4, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      // Nesting on the same pool is a contract violation; in return mode
      // it must degrade to inline execution and still cover the range.
      pool.ParallelFor(3, [&](size_t ib, size_t ie) {
        inner_hits.fetch_add(static_cast<int>(ie - ib));
      });
    }
  });
  EXPECT_EQ(inner_hits.load(), 4 * 3);
  EXPECT_GE(contract::ViolationCount(), 1u);
  contract::ResetViolationStats();
}

TEST(ThreadPoolContract, NestedRunOnAllFallsBack) {
  contract::ResetViolationStats();
  ThreadPool pool(2);
  std::atomic<int> inner_calls{0};
  pool.RunOnAll([&](size_t) {
    pool.RunOnAll([&](size_t) { inner_calls.fetch_add(1); });
  });
  // Each of the 2 outer workers runs the inner body once, inline.
  EXPECT_EQ(inner_calls.load(), 2);
  EXPECT_GE(contract::ViolationCount(), 1u);
  contract::ResetViolationStats();
}

TEST(ThreadPoolContract, SiblingPoolsMayNest) {
  contract::ResetViolationStats();
  ThreadPool outer(2), inner(2);
  std::atomic<int> hits{0};
  outer.ParallelFor(2, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      inner.ParallelFor(2, [&](size_t ib, size_t ie) {
        hits.fetch_add(static_cast<int>(ie - ib));
      });
    }
  });
  EXPECT_EQ(hits.load(), 4);
  EXPECT_EQ(contract::ViolationCount(), 0u);
}

}  // namespace
}  // namespace xg
