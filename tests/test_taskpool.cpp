#include "jedule/taskpool/pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <vector>

#include "jedule/model/composite.hpp"
#include "jedule/taskpool/log_schedule.hpp"
#include "jedule/taskpool/quicksort.hpp"
#include "jedule/util/parallel.hpp"

namespace jedule::taskpool {
namespace {

TEST(TaskPool, RunsAllInitialTasks) {
  for (bool stealing : {false, true}) {
    TaskPool::Options options;
    options.threads = 4;
    options.work_stealing = stealing;
    TaskPool pool(options);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i) {
      pool.create_initial_task([&count](TaskContext&) { ++count; });
    }
    const RunLog log = pool.run();
    EXPECT_EQ(count.load(), 100);
    EXPECT_EQ(log.tasks_executed, 100);
    EXPECT_EQ(log.threads, 4);
  }
}

TEST(TaskPool, RecursiveSpawningCompletes) {
  for (bool stealing : {false, true}) {
    TaskPool::Options options;
    options.threads = 4;
    options.work_stealing = stealing;
    TaskPool pool(options);
    std::atomic<int> leaves{0};
    // Binary fan-out of depth 6: 2^6 = 64 leaves.
    std::function<void(TaskContext&, int)> fan = [&](TaskContext& ctx,
                                                     int depth) {
      if (depth == 0) {
        ++leaves;
        return;
      }
      ctx.submit([&fan, depth](TaskContext& c) { fan(c, depth - 1); });
      ctx.submit([&fan, depth](TaskContext& c) { fan(c, depth - 1); });
    };
    pool.create_initial_task([&fan](TaskContext& c) { fan(c, 6); });
    const RunLog log = pool.run();
    EXPECT_EQ(leaves.load(), 64);
    EXPECT_EQ(log.tasks_executed, 127);  // full binary tree of tasks
  }
}

TEST(TaskPool, SingleThreadWorks) {
  TaskPool::Options options;
  options.threads = 1;
  TaskPool pool(options);
  std::atomic<int> count{0};
  pool.create_initial_task([&count](TaskContext& ctx) {
    ++count;
    ctx.submit([&count](TaskContext&) { ++count; });
  });
  const RunLog log = pool.run();
  EXPECT_EQ(count.load(), 2);
  EXPECT_DOUBLE_EQ(log.per_thread.size(), 1);
}

TEST(TaskPool, ThreadIndexIsInRange) {
  TaskPool::Options options;
  options.threads = 3;
  TaskPool pool(options);
  std::atomic<bool> ok{true};
  for (int i = 0; i < 50; ++i) {
    pool.create_initial_task([&ok](TaskContext& ctx) {
      if (ctx.thread_index() < 0 || ctx.thread_index() >= 3) ok = false;
      if (ctx.task_id() < 0) ok = false;
    });
  }
  pool.run();
  EXPECT_TRUE(ok.load());
}

TEST(TaskPool, LogIntervalsAreWellFormed) {
  TaskPool::Options options;
  options.threads = 4;
  TaskPool pool(options);
  for (int i = 0; i < 200; ++i) {
    pool.create_initial_task([](TaskContext&) {
      volatile int sink = 0;
      for (int k = 0; k < 2000; ++k) sink = sink + k;
    });
  }
  const RunLog log = pool.run();
  ASSERT_EQ(log.per_thread.size(), 4u);
  std::int64_t exec_count = 0;
  for (const auto& tl : log.per_thread) {
    // Exec intervals: ordered, non-overlapping, within [0, wallclock].
    double prev_end = 0;
    for (const auto& iv : tl.exec) {
      EXPECT_GE(iv.start, prev_end - 1e-9);
      EXPECT_GE(iv.end, iv.start);
      EXPECT_GE(iv.start, 0.0);
      EXPECT_LE(iv.end, log.wallclock + 1e-6);
      EXPECT_GE(iv.task_id, 0);
      prev_end = iv.end;
      ++exec_count;
    }
    for (const auto& iv : tl.wait) {
      EXPECT_GE(iv.end, iv.start);
      EXPECT_EQ(iv.task_id, -1);
    }
  }
  EXPECT_EQ(exec_count, 200);
}

TEST(TaskPool, MinLoggedIntervalFilters) {
  TaskPool::Options options;
  options.threads = 2;
  options.min_logged_interval = 3600.0;  // absurd: drop everything
  TaskPool pool(options);
  for (int i = 0; i < 10; ++i) {
    pool.create_initial_task([](TaskContext&) {});
  }
  const RunLog log = pool.run();
  EXPECT_EQ(log.tasks_executed, 10);  // executed but not logged
  for (const auto& tl : log.per_thread) {
    EXPECT_TRUE(tl.exec.empty());
    EXPECT_TRUE(tl.wait.empty());
  }
}

// -- quicksort --------------------------------------------------------------

class QuicksortInputs
    : public ::testing::TestWithParam<QuicksortOptions::Input> {};

TEST_P(QuicksortInputs, SortsCorrectly) {
  TaskPool::Options pool;
  pool.threads = 4;
  QuicksortOptions qs;
  qs.elements = 200000;
  qs.sequential_cutoff = 4096;
  qs.input = GetParam();
  const auto run = run_parallel_quicksort(pool, qs);
  EXPECT_TRUE(run.sorted);
  EXPECT_GT(run.tasks, 10);  // actually decomposed into tasks
  EXPECT_EQ(run.elements, qs.elements);
}

INSTANTIATE_TEST_SUITE_P(Both, QuicksortInputs,
                         ::testing::Values(QuicksortOptions::Input::kRandom,
                                           QuicksortOptions::Input::kReversed));

TEST(Quicksort, WorkStealingModeSortsToo) {
  TaskPool::Options pool;
  pool.threads = 4;
  pool.work_stealing = true;
  QuicksortOptions qs;
  qs.elements = 100000;
  const auto run = run_parallel_quicksort(pool, qs);
  EXPECT_TRUE(run.sorted);
}

TEST(Quicksort, AdversarialInputHasLongSequentialPhase) {
  // Fig. 12: inversely sorted input + middle pivot makes the root task
  // partition the whole array while every other worker waits. Judged from
  // the logged exec intervals rather than a wall-clock busy fraction: the
  // head is the root task's own interval, and the run is that head plus
  // the other tasks' work spread evenly over the paper's 8 workers. That
  // work is their count times their median duration, so the few intervals
  // a preempted worker stretches do not move it. The pool has no more
  // threads than the host has cores, so the pool does not stretch its own
  // intervals, and the measure does not depend on the host's core count.
  constexpr int kPaperThreads = 8;
  TaskPool::Options pool;
  pool.threads = std::min(kPaperThreads, util::hardware_threads());
  QuicksortOptions qs;
  qs.elements = 1 << 20;
  qs.input = QuicksortOptions::Input::kReversed;

  const auto run = run_parallel_quicksort(pool, qs);
  ASSERT_TRUE(run.sorted);
  double head = 0;
  std::vector<double> others;
  for (const auto& thread : run.log.per_thread) {
    for (const auto& iv : thread.exec) {
      if (iv.task_id == 0) {
        head = iv.end - iv.start;
      } else {
        others.push_back(iv.end - iv.start);
      }
    }
  }
  ASSERT_GT(head, 0);
  ASSERT_FALSE(others.empty());
  auto mid = others.begin() + static_cast<std::ptrdiff_t>(others.size() / 2);
  std::nth_element(others.begin(), mid, others.end());
  const double rest = static_cast<double>(others.size()) * *mid;
  EXPECT_GT(head / (head + rest / kPaperThreads), 0.15);  // a pronounced head
}

// -- log -> schedule ---------------------------------------------------------

TEST(LogToSchedule, OneHostPerThread) {
  TaskPool::Options options;
  options.threads = 3;
  TaskPool pool(options);
  for (int i = 0; i < 30; ++i) {
    pool.create_initial_task([](TaskContext&) {
      volatile int sink = 0;
      for (int k = 0; k < 1000; ++k) sink = sink + k;
    });
  }
  const RunLog log = pool.run();
  const auto schedule = log_to_schedule(log);
  EXPECT_NO_THROW(schedule.validate());
  EXPECT_EQ(schedule.total_hosts(), 3);
  EXPECT_EQ(schedule.meta_value("threads"), "3");
  EXPECT_EQ(schedule.meta_value("tasks"), "30");

  // Exec and wait tasks of one thread never overlap each other.
  EXPECT_FALSE(model::has_resource_conflicts(schedule));

  // Every exec interval appears as a computation task.
  std::size_t exec_tasks = 0;
  for (const auto& t : schedule.tasks()) {
    if (t.type() == "computation") ++exec_tasks;
  }
  std::size_t expected = 0;
  for (const auto& tl : log.per_thread) expected += tl.exec.size();
  EXPECT_EQ(exec_tasks, expected);
}

TEST(LogToSchedule, MergeGapCoalesces) {
  RunLog log;
  log.threads = 1;
  log.wallclock = 10;
  log.tasks_executed = 3;
  log.per_thread.resize(1);
  log.per_thread[0].exec = {{0.0, 1.0, 1}, {1.05, 2.0, 2}, {5.0, 6.0, 3}};
  LogScheduleOptions options;
  options.merge_gap = 0.2;
  options.include_waits = false;
  const auto schedule = log_to_schedule(log, options);
  EXPECT_EQ(schedule.tasks().size(), 2u);  // first two merged
}

TEST(LogToSchedule, WaitsCanBeExcluded) {
  RunLog log;
  log.threads = 1;
  log.wallclock = 3;
  log.per_thread.resize(1);
  log.per_thread[0].exec = {{1.0, 2.0, 1}};
  log.per_thread[0].wait = {{0.0, 1.0, -1}, {2.0, 3.0, -1}};
  LogScheduleOptions with;
  EXPECT_EQ(log_to_schedule(log, with).tasks().size(), 3u);
  LogScheduleOptions without;
  without.include_waits = false;
  EXPECT_EQ(log_to_schedule(log, without).tasks().size(), 1u);
}

}  // namespace
}  // namespace jedule::taskpool
