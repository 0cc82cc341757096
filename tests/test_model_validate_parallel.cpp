// The parallel paths that build and check the task table:
// Schedule::validate(threads) must accept exactly what the serial walk
// accepts and report its first error word for word, and
// ScheduleArena::to_schedule(threads) must build the same table at any
// thread count.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "jedule/model/arena.hpp"
#include "jedule/model/schedule.hpp"
#include "jedule/util/error.hpp"

namespace jedule::model {
namespace {

const int kThreadCounts[] = {1, 2, 8};

constexpr std::size_t kChunk = Schedule::kValidateChunkTasks;
// Above the parallel threshold, and not a multiple of the chunk size, so
// the last chunk is short.
const std::size_t kBig = Schedule::kParallelValidateMinTasks + kChunk / 2 + 7;
const std::size_t kSmall = 1000;

// Valid schedule: two clusters, mostly one-range configurations, some
// multi-range and multi-configuration tasks, properties and edges.
Schedule make_schedule(std::size_t n) {
  Schedule s;
  s.add_cluster(0, "alpha", 64);
  s.add_cluster(3, "beta", 16);
  s.set_meta("source", "test");
  for (std::size_t i = 0; i < n; ++i) {
    Task t("t" + std::to_string(i), i % 3 == 0 ? "transfer" : "computation",
           static_cast<double>(i) * 0.5, static_cast<double>(i) * 0.5 + 1.0);
    if (i % 7 == 0) {
      Configuration c;
      c.cluster_id = 3;
      c.hosts = {HostRange{5, 3}, HostRange{0, 2}, HostRange{9, 1}};
      t.add_configuration(std::move(c));
    } else {
      t.allocate(i % 2 == 0 ? 0 : 3, static_cast<int>(i % 8), 4);
    }
    if (i % 11 == 0) t.allocate(0, 60, 4);
    if (i % 13 == 0) t.set_property("user", std::to_string(i % 5));
    s.add_task(std::move(t));
  }
  for (std::size_t i = 1; i < n; i += 5) {
    s.add_dependency(static_cast<std::uint32_t>(i - 1),
                     static_cast<std::uint32_t>(i), static_cast<double>(i % 3));
  }
  return s;
}

// The error text of validate(threads), or "" when it accepts.
std::string error_of(const Schedule& s, int threads) {
  try {
    s.validate(threads);
  } catch (const ValidationError& e) {
    return e.what();
  }
  return "";
}

// validate(T) for every T agrees with the serial walk; returns its text.
std::string expect_same_verdict(const Schedule& s, const std::string& what) {
  const std::string serial = error_of(s, 1);
  for (int t : kThreadCounts) {
    EXPECT_EQ(error_of(s, t), serial) << what << " threads=" << t;
  }
  return serial;
}

Task bare(const Task& from) {
  return Task(from.id(), from.type(), from.start_time(), from.end_time());
}

Task with_config(const Task& from, int cluster, std::vector<HostRange> hosts) {
  Task t = bare(from);
  Configuration c;
  c.cluster_id = cluster;
  c.hosts = std::move(hosts);
  t.add_configuration(std::move(c));
  return t;
}

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// One violation of each kind, applied at task `i` of an n-task schedule.
struct TaskViolation {
  const char* name;
  std::function<void(Schedule&, std::size_t)> apply;
};

std::vector<TaskViolation> task_violations() {
  return {
      {"empty id", [](Schedule& s, std::size_t i) {
         s.mutable_tasks()[i].set_id("");
       }},
      {"duplicate id", [](Schedule& s, std::size_t i) {
         const std::size_t n = s.tasks().size();
         s.mutable_tasks()[i].set_id(s.tasks()[(i + n / 3) % n].id());
       }},
      {"nan start", [](Schedule& s, std::size_t i) {
         s.mutable_tasks()[i].set_times(kNaN, 1.0);
       }},
      {"infinite end", [](Schedule& s, std::size_t i) {
         s.mutable_tasks()[i].set_times(0.0, kInf);
       }},
      {"reversed times", [](Schedule& s, std::size_t i) {
         s.mutable_tasks()[i].set_times(5.0, 1.0);
       }},
      {"overflowing duration", [](Schedule& s, std::size_t i) {
         s.mutable_tasks()[i].set_times(-1e308, 1e308);
       }},
      {"overflowing span", [](Schedule& s, std::size_t i) {
         const std::size_t n = s.tasks().size();
         s.mutable_tasks()[i].set_times(1e308, 1e308);
         s.mutable_tasks()[(i + n / 2) % n].set_times(-1e308, -1e308);
       }},
      {"no configuration", [](Schedule& s, std::size_t i) {
         s.mutable_tasks()[i] = bare(s.tasks()[i]);
       }},
      {"unknown cluster", [](Schedule& s, std::size_t i) {
         s.mutable_tasks()[i] = with_config(s.tasks()[i], 99, {{0, 1}});
       }},
      {"empty hosts", [](Schedule& s, std::size_t i) {
         s.mutable_tasks()[i] = with_config(s.tasks()[i], 0, {});
       }},
      {"zero nb", [](Schedule& s, std::size_t i) {
         s.mutable_tasks()[i] = with_config(s.tasks()[i], 0, {{3, 0}});
       }},
      {"negative nb in a multi-range", [](Schedule& s, std::size_t i) {
         s.mutable_tasks()[i] =
             with_config(s.tasks()[i], 3, {{0, 2}, {4, -1}});
       }},
      {"host below zero", [](Schedule& s, std::size_t i) {
         s.mutable_tasks()[i] = with_config(s.tasks()[i], 0, {{-1, 2}});
       }},
      {"host past the cluster", [](Schedule& s, std::size_t i) {
         s.mutable_tasks()[i] = with_config(s.tasks()[i], 3, {{15, 2}});
       }},
      {"overlapping ranges", [](Schedule& s, std::size_t i) {
         s.mutable_tasks()[i] =
             with_config(s.tasks()[i], 0, {{0, 4}, {8, 2}, {2, 4}});
       }},
      {"overlapping unsorted ranges", [](Schedule& s, std::size_t i) {
         s.mutable_tasks()[i] =
             with_config(s.tasks()[i], 3, {{10, 2}, {4, 1}, {0, 5}});
       }},
      {"repeated single host", [](Schedule& s, std::size_t i) {
         s.mutable_tasks()[i] = with_config(s.tasks()[i], 0, {{7, 1}, {7, 1}});
       }},
  };
}

struct DepViolation {
  const char* name;
  std::function<void(Dependency&, std::size_t)> apply;  // n = task count
};

std::vector<DepViolation> dep_violations() {
  return {
      {"dst out of range",
       [](Dependency& d, std::size_t n) {
         d.dst = static_cast<std::uint32_t>(n);
       }},
      {"src out of range",
       [](Dependency& d, std::size_t n) {
         d.src = static_cast<std::uint32_t>(n + 5);
       }},
      {"backward edge", [](Dependency& d, std::size_t) { std::swap(d.src, d.dst); }},
      {"self edge", [](Dependency& d, std::size_t) { d.src = d.dst; }},
      {"negative data", [](Dependency& d, std::size_t) { d.data = -1.0; }},
      {"nan data", [](Dependency& d, std::size_t) { d.data = kNaN; }},
  };
}

std::vector<std::size_t> positions(std::size_t n) { return {0, n / 2, n - 1}; }

TEST(ParallelValidate, ValidSchedulesPassAtEveryThreadCount) {
  for (std::size_t n : {kSmall, kBig}) {
    const Schedule s = make_schedule(n);
    EXPECT_EQ(expect_same_verdict(s, "valid n=" + std::to_string(n)), "");
  }
}

TEST(ParallelValidate, EachTaskViolationMatchesTheSerialError) {
  for (std::size_t n : {kSmall, kBig}) {
    const Schedule base = make_schedule(n);
    for (const auto& v : task_violations()) {
      for (std::size_t i : positions(n)) {
        Schedule s = base;
        v.apply(s, i);
        const std::string what = std::string(v.name) + " at " +
                                 std::to_string(i) + " of " + std::to_string(n);
        EXPECT_NE(expect_same_verdict(s, what), "") << what;
      }
    }
  }
}

TEST(ParallelValidate, EachDependencyViolationMatchesTheSerialError) {
  for (std::size_t n : {kSmall, kBig}) {
    const Schedule base = make_schedule(n);
    for (const auto& v : dep_violations()) {
      for (std::size_t k : positions(base.dependencies().size())) {
        Schedule s = base;
        v.apply(s.mutable_dependencies()[k], n);
        const std::string what = std::string(v.name) + " at edge " +
                                 std::to_string(k) + " of " + std::to_string(n);
        EXPECT_NE(expect_same_verdict(s, what), "") << what;
      }
    }
  }
}

TEST(ParallelValidate, NoClusterMatchesTheSerialError) {
  Schedule s;
  for (std::size_t i = 0; i < kBig; ++i) {
    s.add_task(Task("t" + std::to_string(i), "x", 0, 1));
  }
  EXPECT_EQ(expect_same_verdict(s, "no cluster"),
            "a schedule requires at least one cluster");
}

TEST(ParallelValidate, FirstOfTwoViolationsInDifferentChunksWins) {
  const Schedule base = make_schedule(kBig);
  const std::size_t early = kChunk + 3;
  const std::size_t late = 6 * kChunk + 100;
  const auto violations = task_violations();
  // Every ordered pair of kinds would be slow; pair each kind with the
  // next one, in both orders.
  for (std::size_t a = 0; a < violations.size(); ++a) {
    const auto& first = violations[a];
    const auto& second = violations[(a + 1) % violations.size()];
    for (const bool swap : {false, true}) {
      Schedule s = base;
      (swap ? second : first).apply(s, early);
      (swap ? first : second).apply(s, late);
      const std::string what = std::string(first.name) + " / " + second.name +
                               (swap ? " (swapped)" : "");
      EXPECT_NE(expect_same_verdict(s, what), "") << what;
    }
  }
  // A dependency error never hides a task error: tasks are checked first.
  Schedule s = base;
  s.mutable_dependencies().front().data = -2.0;
  s.mutable_tasks()[late].set_times(3.0, 2.0);
  EXPECT_NE(expect_same_verdict(s, "edge before task").find("end_time"),
            std::string::npos);
}

TEST(ParallelValidate, DuplicateIdsAcrossAChunkBoundary) {
  const Schedule base = make_schedule(kBig);
  for (std::size_t chunk = 1; chunk * kChunk < kBig; chunk += 3) {
    Schedule s = base;
    const std::size_t edge = chunk * kChunk;
    s.mutable_tasks()[edge].set_id(s.tasks()[edge - 1].id());
    EXPECT_EQ(expect_same_verdict(s, "boundary " + std::to_string(edge)),
              "duplicate task id '" + s.tasks()[edge].id() + "'");
  }
  // Many duplicates at once, spread over every chunk: the serial walk
  // names the first repeated id in task order.
  Schedule s = base;
  for (std::size_t i = 1000; i < kBig; i += 997) {
    s.mutable_tasks()[i].set_id(s.tasks()[i - 1000].id());
  }
  EXPECT_EQ(expect_same_verdict(s, "many duplicates"),
            "duplicate task id '" + s.tasks()[1000].id() + "'");
}

// --- ScheduleArena::to_schedule(threads) ---------------------------------

void expect_same_tables(const Schedule& a, const Schedule& b, int threads) {
  EXPECT_EQ(a.clusters(), b.clusters()) << "threads=" << threads;
  EXPECT_EQ(a.meta(), b.meta()) << "threads=" << threads;
  EXPECT_EQ(a.dependencies(), b.dependencies()) << "threads=" << threads;
  ASSERT_EQ(a.tasks().size(), b.tasks().size()) << "threads=" << threads;
  for (std::size_t i = 0; i < a.tasks().size(); ++i) {
    const Task& x = a.tasks()[i];
    const Task& y = b.tasks()[i];
    ASSERT_EQ(x.id(), y.id()) << i;
    ASSERT_EQ(&x.type(), &y.type()) << i;  // the same interned string
    ASSERT_EQ(x.start_time(), y.start_time()) << i;
    ASSERT_EQ(x.end_time(), y.end_time()) << i;
    ASSERT_EQ(x.configurations(), y.configurations()) << i;
    ASSERT_EQ(x.properties(), y.properties()) << i;
  }
}

TEST(ParallelMaterialize, ToScheduleMatchesSerialFieldByField) {
  for (std::size_t n : {std::size_t{0}, kSmall, kBig}) {
    const Schedule source = make_schedule(n);
    const ScheduleArena arena(source);
    const Schedule serial = arena.to_schedule(1);
    expect_same_tables(serial, source, 1);
    for (int t : kThreadCounts) {
      expect_same_tables(arena.to_schedule(t), serial, t);
    }
  }
}

TEST(ParallelMaterialize, EdgeFreeArenaHasNoDependencies) {
  Schedule source = make_schedule(kSmall);
  source.mutable_dependencies().clear();
  const ScheduleArena arena(source);
  for (int t : kThreadCounts) {
    EXPECT_TRUE(arena.to_schedule(t).dependencies().empty()) << t;
  }
}

}  // namespace
}  // namespace jedule::model
