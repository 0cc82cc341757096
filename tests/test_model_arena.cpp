// Differential suite for the columnar ScheduleArena against the AoS
// Schedule (DESIGN.md §4h): both representations must agree on hashes,
// validation verdicts and bounds, and the O(delta) append must be
// indistinguishable from rebuilding from scratch.

#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <utility>
#include <string>
#include <vector>

#include "jedule/io/jedule_xml.hpp"
#include "jedule/model/arena.hpp"
#include "jedule/model/builder.hpp"
#include "jedule/model/schedule.hpp"
#include "jedule/model/task_index.hpp"
#include "jedule/util/error.hpp"
#include "jedule/util/rng.hpp"

namespace jedule::model {
namespace {

Schedule sample_schedule() {
  return ScheduleBuilder()
      .cluster(0, "c0", 8)
      .cluster(1, "c1", 4)
      .meta("algorithm", "CPA")
      .task("a", "computation", 0.0, 2.0)
      .on(0, 0, 4)
      .task("b", "transfer", 1.0, 3.0)
      .on(0, 4, 2)
      .on(1, 0, 2)
      .task("c", "computation", 2.5, 4.0)
      .hosts(0, {1, 3, 5})
      .task("d", "io", 0.5, 0.5)
      .on(1, 2, 1)
      .property("user", "42")
      .build();
}

// A larger pseudo-random schedule: many tasks, single contiguous
// allocations (the event shape), two clusters.
Schedule random_schedule(int tasks, unsigned seed) {
  util::Rng rng(seed);
  ScheduleBuilder b;
  b.cluster(0, "c0", 64).cluster(1, "c1", 32);
  for (int i = 0; i < tasks; ++i) {
    const int cluster = static_cast<int>(rng.uniform_int(0, 1));
    const int hosts = cluster == 0 ? 64 : 32;
    const int nb = static_cast<int>(rng.uniform_int(1, 4));
    const int first = static_cast<int>(rng.uniform_int(0, hosts - nb));
    const double start = rng.uniform(0.0, 100.0);
    b.task("t" + std::to_string(i), i % 3 ? "computation" : "transfer",
           start, start + rng.uniform(0.1, 5.0))
        .on(cluster, first, nb);
  }
  return b.build();
}

std::vector<ScheduleArena::Event> events_for(const Schedule& schedule,
                                             std::size_t first) {
  std::vector<ScheduleArena::Event> events;
  for (std::size_t i = first; i < schedule.tasks().size(); ++i) {
    const Task& t = schedule.tasks()[i];
    const Configuration& cfg = t.configurations().front();
    ScheduleArena::Event e;
    e.id = t.id();
    e.type = t.type();
    e.start = t.start_time();
    e.end = t.end_time();
    e.cluster_id = cfg.cluster_id;
    e.host_start = cfg.hosts.front().start;
    e.host_nb = cfg.hosts.front().nb;
    events.push_back(std::move(e));
  }
  return events;
}

TEST(ScheduleArena, RoundTripsThroughColumns) {
  const Schedule schedule = sample_schedule();
  const ScheduleArena arena(schedule);
  EXPECT_EQ(arena.task_count(), schedule.tasks().size());
  EXPECT_EQ(arena.clusters().size(), schedule.clusters().size());
  EXPECT_EQ(arena.meta(), schedule.meta());
  // The materialized schedule is byte-identical on the wire.
  EXPECT_EQ(io::write_schedule_xml(arena.to_schedule()),
            io::write_schedule_xml(schedule));
}

TEST(ScheduleArena, ContentHashMatchesTaskIndex) {
  for (const Schedule& s :
       {sample_schedule(), random_schedule(500, 7), Schedule{}}) {
    const ScheduleArena arena(s);
    EXPECT_EQ(arena.content_hash(), TaskIndex::hash_schedule(s));
  }
}

TEST(ScheduleArena, BoundsMatchSchedule) {
  const Schedule schedule = random_schedule(300, 11);
  const ScheduleArena arena(schedule);
  ASSERT_TRUE(arena.time_range().has_value());
  ASSERT_TRUE(schedule.time_range().has_value());
  EXPECT_EQ(arena.time_range()->begin, schedule.time_range()->begin);
  EXPECT_EQ(arena.time_range()->end, schedule.time_range()->end);

  Schedule empty;
  empty.add_cluster(0, "c0", 4);
  EXPECT_FALSE(ScheduleArena(empty).time_range().has_value());
}

// The error Schedule::validate() throws for `s`, or "" if it passes.
std::string validate_error(const Schedule& s) {
  try {
    s.validate();
  } catch (const ValidationError& e) {
    return e.what();
  }
  return "";
}

TEST(ScheduleArena, ValidateAgreesWithScheduleValidate) {
  // Valid schedules pass both.
  EXPECT_NO_THROW(ScheduleArena(sample_schedule()).validate_columns());

  // Each invalid shape must throw the same ValidationError columnarly.
  // The builder validates on build(), so assemble via Schedule directly.
  auto make = [](int cluster, int host_start, Time start, Time end) {
    Schedule s;
    s.add_cluster(0, "c0", 4);
    Task x("x", "computation", 0.0, 1.0);
    x.allocate(0, 0, 2);
    s.add_task(x);
    Task y("y", "computation", start, end);
    y.allocate(cluster, host_start, 2);
    s.add_task(y);
    return s;
  };
  const Schedule bad_host = make(0, 3, 0.0, 1.0);     // past the cluster
  const Schedule bad_cluster = make(7, 0, 0.0, 1.0);  // unknown cluster
  const Schedule bad_time = make(0, 0, 2.0, 1.0);     // end < start
  for (const Schedule* s : {&bad_host, &bad_cluster, &bad_time}) {
    const std::string want = validate_error(*s);
    ASSERT_NE(want, "");
    try {
      ScheduleArena(*s).validate_columns();
      ADD_FAILURE() << "accepted: " << want;
    } catch (const ValidationError& e) {
      EXPECT_EQ(std::string(e.what()), want);
    }
  }
}

TEST(ScheduleArena, NonFiniteTimesRejectedLikeScheduleValidate) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto& [start, end] : std::vector<std::pair<double, double>>{
           {0, inf}, {-inf, 0}, {-1e308, 1e308}}) {
    Schedule s;
    s.add_cluster(0, "c0", 4);
    for (int i = 0; i < 9; ++i) {  // enough rows for the SIMD scans
      Task t("t" + std::to_string(i), "computation", i, i + 1.0);
      if (i == 6) t.set_times(start, end);
      t.allocate(0, i % 4, 1);
      s.add_task(t);
    }
    std::string want;
    try {
      s.validate();
    } catch (const ValidationError& e) {
      want = e.what();
    }
    ASSERT_NE(want.find("task 't6'"), std::string::npos) << want;
    const ScheduleArena arena(s);
    try {
      arena.validate_columns();
      ADD_FAILURE() << "accepted [" << start << ", " << end << "]";
    } catch (const ValidationError& e) {
      EXPECT_EQ(std::string(e.what()), want);
    }
    // Appends go through the same check.
    ScheduleArena grown(ScheduleBuilder()
                            .cluster(0, "c0", 4)
                            .task("a", "computation", 0, 1)
                            .on(0, 0, 1)
                            .build());
    ScheduleArena::Event e;
    e.id = "t6";
    e.type = "computation";
    e.start = start;
    e.end = end;
    EXPECT_THROW(grown.append({e}), ValidationError);
    EXPECT_EQ(grown.task_count(), 1u);
  }
}

TEST(ScheduleArena, OverflowingSpanRejectedLikeScheduleValidate) {
  Schedule s;
  s.add_cluster(0, "c0", 4);
  for (int i = 0; i < 9; ++i) {  // enough rows for the SIMD scans
    Task t("t" + std::to_string(i), "computation", i, i + 1.0);
    if (i == 2) t.set_times(-1e308, -1e308);
    if (i == 6) t.set_times(1e308, 1e308);
    t.allocate(0, i % 4, 1);
    s.add_task(t);
  }
  std::string want;
  try {
    s.validate();
  } catch (const ValidationError& e) {
    want = e.what();
  }
  ASSERT_NE(want.find("overflows"), std::string::npos) << want;
  const ScheduleArena arena(s);
  try {
    arena.validate_columns();
    ADD_FAILURE() << "accepted a span of [-1e308, 1e308]";
  } catch (const ValidationError& e) {
    EXPECT_EQ(std::string(e.what()), want);
  }
  // An append that stretches a valid arena past a finite span.
  ScheduleArena grown(ScheduleBuilder()
                          .cluster(0, "c0", 4)
                          .task("a", "computation", -1e308, -1e308)
                          .on(0, 0, 1)
                          .build());
  ScheduleArena::Event e;
  e.id = "b";
  e.type = "computation";
  e.start = 1e308;
  e.end = 1e308;
  EXPECT_THROW(grown.append({e}), ValidationError);
  EXPECT_EQ(grown.task_count(), 1u);
  e.start = e.end = 0;
  grown.append({e});  // a finite span still appends
  EXPECT_EQ(grown.task_count(), 2u);
}

TEST(ScheduleArena, AppendMatchesFreshBuild) {
  const Schedule full = random_schedule(400, 21);
  // Base arena over the first 300 tasks.
  Schedule base_schedule;
  for (const auto& c : full.clusters()) {
    base_schedule.add_cluster(c.id, c.name, c.hosts);
  }
  for (const auto& [k, v] : full.meta()) base_schedule.set_meta(k, v);
  for (std::size_t i = 0; i < 300; ++i) {
    base_schedule.add_task(full.tasks()[i]);
  }

  ScheduleArena grown(base_schedule);
  grown.append(events_for(full, 300));

  const ScheduleArena fresh(full);
  EXPECT_EQ(grown.task_count(), fresh.task_count());
  EXPECT_EQ(grown.content_hash(), fresh.content_hash());
  EXPECT_EQ(grown.tasks_hash(), fresh.tasks_hash());
  ASSERT_TRUE(grown.time_range().has_value());
  EXPECT_EQ(grown.time_range()->begin, fresh.time_range()->begin);
  EXPECT_EQ(grown.time_range()->end, fresh.time_range()->end);
  EXPECT_EQ(io::write_schedule_xml(grown.to_schedule()),
            io::write_schedule_xml(full));
}

TEST(ScheduleArena, AppendRejectsBadEventsLeavingArenaUntouched) {
  ScheduleArena arena(sample_schedule());
  const std::uint64_t hash = arena.content_hash();
  const std::size_t count = arena.task_count();

  auto event = [](std::string id, double s, double e, int cluster, int h0,
                  int nb) {
    ScheduleArena::Event ev;
    ev.id = std::move(id);
    ev.type = "computation";
    ev.start = s;
    ev.end = e;
    ev.cluster_id = cluster;
    ev.host_start = h0;
    ev.host_nb = nb;
    return ev;
  };

  auto append_error = [&arena](const std::vector<ScheduleArena::Event>& e) {
    try {
      arena.append(e);
    } catch (const ValidationError& error) {
      return std::string(error.what());
    }
    return std::string();
  };

  // Duplicate id against the existing rows, on the call that seeds the
  // persistent id table (validate_columns() leaves ids to append()).
  EXPECT_EQ(append_error({event("a", 10, 11, 0, 0, 1)}),
            "duplicate task id 'a'");
  // Host range out of bounds.
  EXPECT_THROW(arena.append({event("z1", 10, 11, 0, 7, 3)}), ValidationError);
  // Unknown cluster.
  EXPECT_THROW(arena.append({event("z2", 10, 11, 9, 0, 1)}), ValidationError);
  // end < start.
  EXPECT_THROW(arena.append({event("z3", 11, 10, 0, 0, 1)}), ValidationError);
  // Duplicate id *within* the batch.
  EXPECT_EQ(append_error({event("z4", 1, 2, 0, 0, 1),
                          event("z4", 3, 4, 0, 2, 1)}),
            "duplicate task id 'z4'");

  EXPECT_EQ(arena.content_hash(), hash);
  EXPECT_EQ(arena.task_count(), count);

  // And a good append still works afterwards; the rejected batch left no
  // id behind, and an appended id is taken from then on.
  arena.append({event("z4", 10, 11, 0, 0, 2)});
  EXPECT_EQ(arena.task_count(), count + 1);
  EXPECT_NE(arena.content_hash(), hash);
  EXPECT_EQ(append_error({event("z4", 12, 13, 0, 0, 1)}),
            "duplicate task id 'z4'");
  EXPECT_EQ(arena.task_count(), count + 1);
}

TEST(TaskIndexArena, ExtensionMatchesFreshIndex) {
  const Schedule full = random_schedule(350, 31);
  Schedule base_schedule;
  for (const auto& c : full.clusters()) {
    base_schedule.add_cluster(c.id, c.name, c.hosts);
  }
  for (std::size_t i = 0; i < 250; ++i) {
    base_schedule.add_task(full.tasks()[i]);
  }

  ScheduleArena arena(base_schedule);
  arena.append(events_for(full, 250));

  const TaskIndex base(base_schedule);
  const TaskIndex extended(base, arena, 250);
  const TaskIndex fresh(full);

  EXPECT_EQ(extended.task_count(), fresh.task_count());
  EXPECT_EQ(extended.content_hash(), fresh.content_hash());
  EXPECT_EQ(extended.tasks_hash(), fresh.tasks_hash());

  // Same flattened geometry per cluster (order inside flatten() is the
  // canonical sorted form).
  const auto fe = extended.flatten();
  const auto ff = fresh.flatten();
  ASSERT_EQ(fe.size(), ff.size());
  for (std::size_t c = 0; c < ff.size(); ++c) {
    EXPECT_EQ(fe[c].cluster_id, ff[c].cluster_id);
    ASSERT_EQ(fe[c].entries.size(), ff[c].entries.size());
    for (std::size_t i = 0; i < ff[c].entries.size(); ++i) {
      EXPECT_EQ(fe[c].entries[i].begin, ff[c].entries[i].begin);
      EXPECT_EQ(fe[c].entries[i].end, ff[c].entries[i].end);
      EXPECT_EQ(fe[c].entries[i].task, ff[c].entries[i].task);
      EXPECT_EQ(fe[c].entries[i].host_start, ff[c].entries[i].host_start);
      EXPECT_EQ(fe[c].entries[i].host_end, ff[c].entries[i].host_end);
    }
    EXPECT_EQ(fe[c].max_end, ff[c].max_end);
  }
}

}  // namespace
}  // namespace jedule::model
