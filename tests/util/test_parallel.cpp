// Unit tests for the parallel execution engine (thread pool,
// parallel_for / parallel_reduce, determinism guarantees).
#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <iostream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/logging.hpp"

namespace crowdrank {
namespace {

/// Restores the ambient thread count after each test so the suite's
/// ordering never leaks pool state.
class ParallelTest : public ::testing::Test {
 protected:
  void TearDown() override { set_thread_count(configured_thread_count()); }
};

TEST_F(ParallelTest, SetThreadCountIsObservable) {
  set_thread_count(3);
  EXPECT_EQ(thread_count(), 3u);
  set_thread_count(1);
  EXPECT_EQ(thread_count(), 1u);
}

TEST_F(ParallelTest, ResizeRejectsZero) {
  EXPECT_THROW(set_thread_count(0), Error);
}

TEST_F(ParallelTest, ParallelForCoversEveryIndexOnce) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    set_thread_count(threads);
    constexpr std::size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    parallel_for(0, kN, 7, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      }
    });
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " at " << threads
                                   << " threads";
    }
  }
}

TEST_F(ParallelTest, ParallelForHandlesEmptyAndTinyRanges) {
  set_thread_count(4);
  bool ran = false;
  parallel_for(5, 5, 8, [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);

  std::size_t total = 0;
  parallel_for(10, 13, 100, [&](std::size_t b, std::size_t e) {
    total += e - b;  // single chunk: runs inline on the caller
  });
  EXPECT_EQ(total, 3u);
}

TEST_F(ParallelTest, ReduceMatchesSerialSumAtAnyThreadCount) {
  constexpr std::size_t kN = 12345;
  std::vector<double> values(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    values[i] = 0.1 * static_cast<double>(i % 97) + 1e-3;
  }
  const auto chunk_sum = [&](std::size_t b, std::size_t e) {
    double s = 0.0;
    for (std::size_t i = b; i < e; ++i) s += values[i];
    return s;
  };
  const auto add = [](double a, double b) { return a + b; };

  set_thread_count(1);
  const double serial =
      parallel_reduce(std::size_t{0}, kN, 256, 0.0, chunk_sum, add);
  set_thread_count(4);
  const double parallel =
      parallel_reduce(std::size_t{0}, kN, 256, 0.0, chunk_sum, add);

  // Identical chunking + in-order combine => bitwise-equal doubles.
  EXPECT_EQ(serial, parallel);
}

TEST_F(ParallelTest, NestedParallelForRunsInlineWithoutDeadlock) {
  set_thread_count(4);
  std::atomic<std::size_t> total{0};
  parallel_for(0, 8, 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      // Nested region: must run inline on this worker, not re-enter the
      // pool (which would deadlock or oversubscribe).
      parallel_for(0, 10, 2, [&](std::size_t nb, std::size_t ne) {
        total.fetch_add(ne - nb, std::memory_order_relaxed);
      });
    }
  });
  EXPECT_EQ(total.load(), 80u);
}

TEST_F(ParallelTest, ExceptionsInsideRegionPropagateToCaller) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    set_thread_count(threads);
    EXPECT_THROW(
        parallel_for(0, 64, 1,
                     [&](std::size_t b, std::size_t) {
                       if (b == 13) {
                         throw Error("boom");
                       }
                     }),
        Error);
    // The pool must stay usable after a failed region.
    std::atomic<std::size_t> count{0};
    parallel_for(0, 16, 1, [&](std::size_t b, std::size_t e) {
      count.fetch_add(e - b, std::memory_order_relaxed);
    });
    EXPECT_EQ(count.load(), 16u);
  }
}

TEST_F(ParallelTest, ConfiguredThreadCountIsPositive) {
  EXPECT_GE(configured_thread_count(), 1u);
}

TEST_F(ParallelTest, ConcurrentLogWritesNeverInterleaveMidLine) {
  // log_warn writes each line under a mutex (util/logging.hpp); lines
  // written from every pool lane at once must come out whole. Capture
  // stderr via an rdbuf swap, fan out writers, then check each captured
  // line verbatim. This test (in the TSan preset's suite) also gives the
  // sanitizer a concurrent-logging workload to chew on.
  set_thread_count(4);

  std::ostringstream captured;
  std::streambuf* old_buf = std::cerr.rdbuf(captured.rdbuf());
  parallel_for(0, 64, 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      log_warn() << "message-" << i << "-payload";
    }
  });
  std::cerr.rdbuf(old_buf);

  std::istringstream lines(captured.str());
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    ++count;
    // "[WARN ] message-<i>-payload" with nothing spliced into the middle.
    ASSERT_EQ(line.rfind("[WARN ] message-", 0), 0u) << line;
    ASSERT_EQ(line.substr(line.size() - 8), "-payload") << line;
  }
  EXPECT_EQ(count, 64u);
}

}  // namespace
}  // namespace crowdrank
