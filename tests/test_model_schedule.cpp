#include "jedule/model/schedule.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "jedule/model/builder.hpp"
#include "jedule/model/task_index.hpp"
#include "jedule/util/error.hpp"

namespace jedule::model {
namespace {

Schedule two_cluster_schedule() {
  return ScheduleBuilder()
      .cluster(0, "c0", 4)
      .cluster(1, "c1", 2)
      .task("a", "computation", 0.0, 2.0)
      .on(0, 0, 4)
      .task("b", "computation", 1.0, 3.0)
      .on(1, 0, 2)
      .task("x", "transfer", 2.0, 2.5)
      .on(0, 3, 1)
      .on(1, 0, 1)  // spans clusters
      .build();
}

TEST(Configuration, HostCountAndList) {
  Configuration cfg;
  cfg.cluster_id = 0;
  cfg.hosts = {{0, 2}, {5, 3}};
  EXPECT_EQ(cfg.host_count(), 5);
  EXPECT_EQ(cfg.host_list(), (std::vector<int>{0, 1, 5, 6, 7}));
}

TEST(Task, ConvenienceAllocate) {
  Task t("1", "computation", 0, 1);
  t.allocate(2, 4, 8);
  ASSERT_EQ(t.configurations().size(), 1u);
  EXPECT_EQ(t.configurations()[0].cluster_id, 2);
  EXPECT_EQ(t.total_hosts(), 8);
  EXPECT_DOUBLE_EQ(t.duration(), 1.0);
}

TEST(Task, PropertiesUpsert) {
  Task t;
  t.set_property("user", "1");
  t.set_property("user", "2");
  EXPECT_EQ(t.property("user"), "2");
  EXPECT_FALSE(t.property("missing").has_value());
  EXPECT_EQ(t.properties().size(), 1u);
}

TEST(Schedule, DuplicateClusterIdRejected) {
  Schedule s;
  s.add_cluster(0, "a", 4);
  EXPECT_THROW(s.add_cluster(0, "b", 2), ValidationError);
}

TEST(Schedule, NonPositiveClusterRejected) {
  Schedule s;
  EXPECT_THROW(s.add_cluster(0, "a", 0), ValidationError);
}

TEST(Schedule, GlobalResourceIndexStacksClusters) {
  const Schedule s = two_cluster_schedule();
  EXPECT_EQ(s.total_hosts(), 6);
  EXPECT_EQ(s.global_resource_index(0, 0), 0);
  EXPECT_EQ(s.global_resource_index(0, 3), 3);
  EXPECT_EQ(s.global_resource_index(1, 0), 4);
  EXPECT_EQ(s.global_resource_index(1, 1), 5);
  EXPECT_THROW(s.global_resource_index(9, 0), ValidationError);
}

TEST(Schedule, FindTask) {
  const Schedule s = two_cluster_schedule();
  ASSERT_NE(s.find_task("x"), nullptr);
  EXPECT_EQ(s.find_task("x")->type(), "transfer");
  EXPECT_EQ(s.find_task("nope"), nullptr);
}

TEST(Schedule, MetaPreservesOrderAndUpserts) {
  Schedule s;
  s.set_meta("b", "1");
  s.set_meta("a", "2");
  s.set_meta("b", "3");
  ASSERT_EQ(s.meta().size(), 2u);
  EXPECT_EQ(s.meta()[0].first, "b");
  EXPECT_EQ(s.meta()[0].second, "3");
  EXPECT_EQ(s.meta_value("a"), "2");
}

TEST(Schedule, GlobalTimeRange) {
  const Schedule s = two_cluster_schedule();
  const auto r = s.time_range();
  ASSERT_TRUE(r);
  EXPECT_DOUBLE_EQ(r->begin, 0.0);
  EXPECT_DOUBLE_EQ(r->end, 3.0);
  EXPECT_FALSE(Schedule().time_range().has_value());
}

TEST(Schedule, ClusterLocalTimeRanges) {
  const Schedule s = two_cluster_schedule();
  const auto r0 = s.cluster_time_range(0);
  ASSERT_TRUE(r0);
  EXPECT_DOUBLE_EQ(r0->begin, 0.0);
  EXPECT_DOUBLE_EQ(r0->end, 2.5);  // task a and the transfer
  const auto r1 = s.cluster_time_range(1);
  ASSERT_TRUE(r1);
  EXPECT_DOUBLE_EQ(r1->begin, 1.0);
  EXPECT_DOUBLE_EQ(r1->end, 3.0);
}

TEST(Schedule, ViewModesDifferPerCluster) {
  const Schedule s = two_cluster_schedule();
  const auto scaled = s.view_time_range(0, ViewMode::kScaled);
  const auto aligned = s.view_time_range(0, ViewMode::kAligned);
  EXPECT_DOUBLE_EQ(scaled->end, 2.5);   // local maximum
  EXPECT_DOUBLE_EQ(aligned->end, 3.0);  // global maximum
}

TEST(Schedule, TasksInClusterIncludesSpanningTasks) {
  // A cluster's tasks come from the TaskIndex: a task with configurations
  // in two clusters belongs to both.
  const Schedule s = two_cluster_schedule();
  const TaskIndex index(s);
  std::vector<std::uint32_t> c0, c1;
  index.collect_tasks(0, 0.0, 3.0, &c0);
  index.collect_tasks(1, 0.0, 3.0, &c1);
  EXPECT_EQ(c0, (std::vector<std::uint32_t>{0, 2}));  // a and x
  EXPECT_EQ(c1, (std::vector<std::uint32_t>{1, 2}));  // b and x
}

// -- validation branch coverage ----------------------------------------

TEST(Validate, RequiresCluster) {
  Schedule s;
  EXPECT_THROW(s.validate(), ValidationError);
}

TEST(Validate, DuplicateTaskIds) {
  Schedule s;
  s.add_cluster(0, "c", 2);
  Task a("same", "t", 0, 1);
  a.allocate(0, 0, 1);
  Task b("same", "t", 1, 2);
  b.allocate(0, 1, 1);
  s.add_task(a);
  s.add_task(b);
  EXPECT_THROW(s.validate(), ValidationError);
}

TEST(Validate, EndBeforeStart) {
  Schedule s;
  s.add_cluster(0, "c", 2);
  Task t("1", "t", 2, 1);
  t.allocate(0, 0, 1);
  s.add_task(t);
  EXPECT_THROW(s.validate(), ValidationError);
}

TEST(Validate, TaskWithoutConfiguration) {
  Schedule s;
  s.add_cluster(0, "c", 2);
  s.add_task(Task("1", "t", 0, 1));
  EXPECT_THROW(s.validate(), ValidationError);
}

TEST(Validate, UnknownClusterReference) {
  Schedule s;
  s.add_cluster(0, "c", 2);
  Task t("1", "t", 0, 1);
  t.allocate(7, 0, 1);
  s.add_task(t);
  EXPECT_THROW(s.validate(), ValidationError);
}

TEST(Validate, HostRangeOutOfBounds) {
  Schedule s;
  s.add_cluster(0, "c", 2);
  Task t("1", "t", 0, 1);
  t.allocate(0, 1, 2);  // hosts 1-2, cluster only has 0-1
  s.add_task(t);
  EXPECT_THROW(s.validate(), ValidationError);
}

TEST(Validate, DuplicateHostWithinConfiguration) {
  Schedule s;
  s.add_cluster(0, "c", 4);
  Task t("1", "t", 0, 1);
  Configuration cfg;
  cfg.cluster_id = 0;
  cfg.hosts = {{0, 2}, {1, 1}};  // host 1 twice
  t.add_configuration(cfg);
  s.add_task(t);
  EXPECT_THROW(s.validate(), ValidationError);
}

// Times must be finite, and so must durations: a task on [-1e308, 1e308]
// would otherwise give an infinite makespan and NaN utilization.
TEST(Validate, NonFiniteTimesAndOverflowingDurationsRejected) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::pair<std::pair<double, double>, std::string>> cases =
      {{{0, inf}, "non-finite"},     {{-inf, 0}, "non-finite"},
       {{-inf, inf}, "non-finite"},  {{nan, 1}, "non-finite"},
       {{0, nan}, "non-finite"},     {{-1e308, 1e308}, "overflows"},
       {{-1.7e308, 1.7e308}, "overflows"}};
  for (const auto& [times, what] : cases) {
    Schedule s;
    s.add_cluster(0, "c", 2);
    Task ok("0", "t", 0, 1);
    ok.allocate(0, 0, 1);
    s.add_task(ok);
    Task t("1", "t", times.first, times.second);
    t.allocate(0, 1, 1);
    s.add_task(t);
    try {
      s.validate();
      ADD_FAILURE() << "accepted [" << times.first << ", " << times.second
                    << "]";
    } catch (const ValidationError& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("task '1'"), std::string::npos)
          << e.what();
    }
  }
  // Huge but finite spans stay legal.
  EXPECT_TRUE(task_times_ok(-1e307, 1e307));
  EXPECT_TRUE(task_times_ok(1e308, 1e308));
  EXPECT_FALSE(task_times_ok(-1e308, 1e308));
}

// Each task's duration can be finite while the schedule's span is not:
// [-1e308, -1e308] and [1e308, 1e308] would give an infinite makespan.
TEST(Validate, OverflowingSpanAcrossTasksRejected) {
  for (const double far : {1e308, 1e307}) {
    Schedule s;
    s.add_cluster(0, "c", 2);
    Task lo("0", "t", -far, -far);
    lo.allocate(0, 0, 1);
    s.add_task(lo);
    Task hi("1", "t", far, far);
    hi.allocate(0, 1, 1);
    s.add_task(hi);
    if (far == 1e307) {
      EXPECT_NO_THROW(s.validate());  // a 2e307 span is finite
      continue;
    }
    try {
      s.validate();
      ADD_FAILURE() << "accepted a span of [-1e308, 1e308]";
    } catch (const ValidationError& e) {
      EXPECT_NE(std::string(e.what()).find("overflows"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Validate, ZeroDurationTaskIsLegal) {
  Schedule s;
  s.add_cluster(0, "c", 1);
  Task t("1", "t", 1, 1);
  t.allocate(0, 0, 1);
  s.add_task(t);
  EXPECT_NO_THROW(s.validate());
}

// -- builder ------------------------------------------------------------

TEST(Builder, HostsCompressesRuns) {
  const Schedule s = ScheduleBuilder()
                         .cluster(0, "c", 8)
                         .task("1", "t", 0, 1)
                         .hosts(0, {3, 1, 2, 6})
                         .build();
  const auto& cfg = s.tasks()[0].configurations()[0];
  ASSERT_EQ(cfg.hosts.size(), 2u);
  EXPECT_EQ(cfg.hosts[0], (HostRange{1, 3}));
  EXPECT_EQ(cfg.hosts[1], (HostRange{6, 1}));
}

TEST(Builder, RejectsMisuse) {
  EXPECT_THROW(ScheduleBuilder().on(0, 0, 1), ArgumentError);
  EXPECT_THROW(ScheduleBuilder().hosts(0, {1}), ArgumentError);
  EXPECT_THROW(ScheduleBuilder().property("k", "v"), ArgumentError);
  EXPECT_THROW(ScheduleBuilder()
                   .cluster(0, "c", 2)
                   .task("1", "t", 0, 1)
                   .hosts(0, {}),
               ArgumentError);
}

TEST(Builder, ValidatesOnBuild) {
  EXPECT_THROW(ScheduleBuilder()
                   .cluster(0, "c", 2)
                   .task("1", "t", 0, 1)
                   .on(0, 5, 1)
                   .build(),
               ValidationError);
}

}  // namespace
}  // namespace jedule::model
