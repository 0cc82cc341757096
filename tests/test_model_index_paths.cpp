// Differential suite for the ways a TaskIndex comes to exist besides a
// full build: reopened from a `.jbin` snapshot (TaskIndex(Raw), segments
// read from the file) and grown by repeated append_entry calls (one
// extension segment per append, merged back once a cluster holds more
// than eight). Every window query must answer exactly like a fresh
// TaskIndex(schedule) over the same tasks.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "jedule/engine/events.hpp"
#include "jedule/engine/store.hpp"
#include "jedule/io/snapshot.hpp"
#include "jedule/model/builder.hpp"
#include "jedule/model/schedule.hpp"
#include "jedule/model/task_index.hpp"

namespace jedule::model {
namespace {

constexpr int kBaseTasks = 1500;
constexpr int kAppends = 10;  // > 8 extension segments: compaction runs
constexpr int kEventsPerAppend = 60;

// `base` tasks of mixed shape (multi-range, multi-cluster, zero-length),
// then single contiguous allocations — the shape events carry — cycling
// over the three clusters so every append extends every cluster.
Schedule make_schedule(int base, int appended, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> start(0.0, 100.0);
  std::uniform_real_distribution<double> dur(0.0, 6.0);
  std::uniform_int_distribution<int> host(0, 12);
  std::uniform_int_distribution<int> span(1, 3);
  std::uniform_int_distribution<int> coin(0, 3);

  ScheduleBuilder b;
  b.cluster(0, "c0", 16).cluster(1, "c1", 16).cluster(2, "c2", 16);
  for (int i = 0; i < base + appended; ++i) {
    const double s = start(rng);
    const double e = coin(rng) == 0 ? s : s + dur(rng);
    b.task("t" + std::to_string(i), i % 2 ? "computation" : "transfer", s, e);
    b.on(i % 3, host(rng), span(rng));
    if (i < base && coin(rng) == 0) {
      const int h = host(rng);
      b.hosts((i + 1) % 3, {h, (h + 5) % 13});
    }
  }
  return b.build();
}

using Key = std::tuple<double, double, int, int, std::uint32_t>;

std::multiset<Key> query_keys(const TaskIndex& index, int cluster, double t0,
                              double t1) {
  std::multiset<Key> keys;
  index.query(cluster, t0, t1, [&keys](const TaskIndex::Entry& e) {
    keys.insert({e.begin, e.end, e.host_start, e.host_end, e.task});
  });
  return keys;
}

// Compares every window query of `got` against `want` over 300 random
// windows, some of them points, plus one covering everything.
void expect_same_answers(const TaskIndex& got, const TaskIndex& want,
                         const char* path) {
  EXPECT_EQ(got.task_count(), want.task_count()) << path;
  EXPECT_EQ(got.content_hash(), want.content_hash()) << path;
  ASSERT_TRUE(want.time_range().has_value());
  ASSERT_TRUE(got.time_range().has_value()) << path;
  EXPECT_EQ(got.time_range()->begin, want.time_range()->begin) << path;
  EXPECT_EQ(got.time_range()->end, want.time_range()->end) << path;

  std::mt19937 rng(5);
  std::uniform_real_distribution<double> point(-10.0, 115.0);
  std::uniform_int_distribution<int> coin(0, 9);
  for (int w = 0; w < 300; ++w) {
    double t0 = point(rng), t1 = point(rng);
    if (t1 < t0) std::swap(t0, t1);
    if (coin(rng) == 0) t1 = t0;  // point windows
    if (w == 0) {
      t0 = -1e9;
      t1 = 1e9;
    }
    for (int cluster : {0, 1, 2, 99}) {
      SCOPED_TRACE(std::string(path) + " cluster " + std::to_string(cluster) +
                   " window [" + std::to_string(t0) + ", " +
                   std::to_string(t1) + "]");
      EXPECT_EQ(query_keys(got, cluster, t0, t1),
                query_keys(want, cluster, t0, t1));
      std::vector<std::uint32_t> g, f;
      got.collect_tasks(cluster, t0, t1, &g);
      want.collect_tasks(cluster, t0, t1, &f);
      EXPECT_EQ(g, f);
      for (std::size_t limit : {std::size_t{1}, std::size_t{7},
                                std::size_t{1} << 20}) {
        EXPECT_EQ(got.count_upto(cluster, t0, t1, limit),
                  want.count_upto(cluster, t0, t1, limit))
            << "limit " << limit;
      }
    }
  }
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          (name + "_" + std::to_string(::getpid()) + ".jbin"))
      .string();
}

// Saves `index` with its arena and reopens it from the file.
io::Snapshot reopen(const ScheduleArena& arena, const TaskIndex& index,
                    const std::string& name) {
  const std::string path = temp_path(name);
  io::save_snapshot(arena, index, path);
  io::Snapshot snap = io::load_snapshot(path);
  std::filesystem::remove(path);  // the mapping outlives the name
  return snap;
}

TEST(TaskIndexPaths, SnapshotReopenAnswersLikeAFreshBuild) {
  const Schedule full =
      make_schedule(kBaseTasks, kAppends * kEventsPerAppend, 17);
  const TaskIndex fresh(full);
  const io::Snapshot snap =
      reopen(ScheduleArena(full), fresh, "jedule_index_paths_full");
  EXPECT_TRUE(snap.mapped);
  expect_same_answers(snap.index, fresh, "snapshot reopen");
}

TEST(TaskIndexPaths, RepeatedAppendsAnswerLikeAFreshBuild) {
  const Schedule full =
      make_schedule(kBaseTasks, kAppends * kEventsPerAppend, 23);
  const TaskIndex fresh(full);

  Schedule base;
  for (const auto& c : full.clusters()) base.add_cluster(c);
  for (int i = 0; i < kBaseTasks; ++i) base.add_task(full.tasks()[i]);
  const auto events = engine::events_from_tasks(full, kBaseTasks);

  engine::EntryPtr entry = engine::make_entry(base, "base");
  for (int a = 0; a < kAppends; ++a) {
    const auto first = events.begin() + a * kEventsPerAppend;
    entry = engine::append_entry(entry, {first, first + kEventsPerAppend});
    // A generation before the first merge answers like a fresh build of
    // its own prefix.
    if (a == 3) {
      Schedule prefix = base;
      for (int i = kBaseTasks; i < kBaseTasks + 4 * kEventsPerAppend; ++i) {
        prefix.add_task(full.tasks()[i]);
      }
      expect_same_answers(entry->index, TaskIndex(prefix), "4 appends");
    }
  }
  expect_same_answers(entry->index, fresh, "10 appends");

  // The appended index saved and reopened: its segments merge into one
  // sorted run per cluster on the way out.
  const io::Snapshot snap =
      reopen(entry->arena(), entry->index, "jedule_index_paths_appended");
  expect_same_answers(snap.index, fresh, "appended, then reopened");
}

}  // namespace
}  // namespace jedule::model
