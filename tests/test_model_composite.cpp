#include "jedule/model/composite.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>
#include <tuple>

#include "jedule/model/builder.hpp"
#include "jedule/model/task_index.hpp"
#include "jedule/util/rng.hpp"
#include "jedule/util/strings.hpp"

namespace jedule::model {
namespace {

Schedule overlap_pair() {
  // Paper Fig. 3 scenario: computation on hosts 0-7, transfer on 2-5
  // overlapping its tail.
  return ScheduleBuilder()
      .cluster(0, "c", 8)
      .task("1", "computation", 0.0, 0.31)
      .on(0, 0, 8)
      .task("2", "transfer", 0.25, 0.50)
      .on(0, 2, 4)
      .build();
}

TEST(Composite, NoOverlapNoComposites) {
  const Schedule s = ScheduleBuilder()
                         .cluster(0, "c", 2)
                         .task("1", "t", 0, 1)
                         .on(0, 0, 1)
                         .task("2", "t", 0, 1)
                         .on(0, 1, 1)
                         .build();
  EXPECT_TRUE(synthesize_composites(s).empty());
  EXPECT_FALSE(has_resource_conflicts(s));
}

TEST(Composite, TouchingIntervalsDoNotOverlap) {
  const Schedule s = ScheduleBuilder()
                         .cluster(0, "c", 1)
                         .task("1", "t", 0, 1)
                         .on(0, 0, 1)
                         .task("2", "t", 1, 2)
                         .on(0, 0, 1)
                         .build();
  EXPECT_TRUE(synthesize_composites(s).empty());
}

TEST(Composite, PairOverlapGeometry) {
  const auto composites = synthesize_composites(overlap_pair());
  ASSERT_EQ(composites.size(), 1u);
  const Composite& c = composites[0];
  EXPECT_EQ(c.task.id(), "1+2");
  EXPECT_EQ(c.task.type(), "composite");
  EXPECT_DOUBLE_EQ(c.task.start_time(), 0.25);
  EXPECT_DOUBLE_EQ(c.task.end_time(), 0.31);
  ASSERT_EQ(c.task.configurations().size(), 1u);
  const auto& cfg = c.task.configurations()[0];
  ASSERT_EQ(cfg.hosts.size(), 1u);
  EXPECT_EQ(cfg.hosts[0], (HostRange{2, 4}));
  EXPECT_EQ(c.member_ids, (std::vector<std::string>{"1", "2"}));
  EXPECT_EQ(c.member_types,
            (std::set<std::string>{"computation", "transfer"}));
}

TEST(Composite, ThreeWayOverlapSplitsByMemberSet) {
  // a: [0,10), b: [4,6), c: [5,8) on one host -> member sets change at
  // 4, 5, 6, 8.
  const Schedule s = ScheduleBuilder()
                         .cluster(0, "c", 1)
                         .task("a", "t", 0, 10)
                         .on(0, 0, 1)
                         .task("b", "t", 4, 6)
                         .on(0, 0, 1)
                         .task("c", "t", 5, 8)
                         .on(0, 0, 1)
                         .build();
  auto composites = synthesize_composites(s);
  ASSERT_EQ(composites.size(), 3u);
  std::map<std::string, std::pair<double, double>> by_id;
  for (const auto& comp : composites) {
    by_id[comp.task.id()] = {comp.task.start_time(), comp.task.end_time()};
  }
  EXPECT_EQ(by_id.at("a+b"), (std::pair<double, double>{4, 5}));
  EXPECT_EQ(by_id.at("a+b+c"), (std::pair<double, double>{5, 6}));
  EXPECT_EQ(by_id.at("a+c"), (std::pair<double, double>{6, 8}));
}

TEST(Composite, AdjacentHostsMergeIntoRanges) {
  const Schedule s = ScheduleBuilder()
                         .cluster(0, "c", 4)
                         .task("1", "t", 0, 2)
                         .on(0, 0, 4)
                         .task("2", "t", 1, 3)
                         .on(0, 1, 2)
                         .build();
  const auto composites = synthesize_composites(s);
  ASSERT_EQ(composites.size(), 1u);
  const auto& cfg = composites[0].task.configurations()[0];
  ASSERT_EQ(cfg.hosts.size(), 1u);
  EXPECT_EQ(cfg.hosts[0], (HostRange{1, 2}));
}

TEST(Composite, DisjointHostGroupsStaySeparate) {
  // Overlap on hosts 0 and 2 but not 1 -> one composite with two ranges.
  const Schedule s = ScheduleBuilder()
                         .cluster(0, "c", 3)
                         .task("1", "t", 0, 2)
                         .hosts(0, {0, 2})
                         .task("2", "t", 1, 3)
                         .hosts(0, {0, 2})
                         .build();
  const auto composites = synthesize_composites(s);
  ASSERT_EQ(composites.size(), 1u);
  const auto& cfg = composites[0].task.configurations()[0];
  ASSERT_EQ(cfg.hosts.size(), 2u);
  EXPECT_EQ(cfg.hosts[0], (HostRange{0, 1}));
  EXPECT_EQ(cfg.hosts[1], (HostRange{2, 1}));
}

TEST(Composite, ClustersNeverMerge) {
  // Identical overlaps in two clusters stay two composite tasks.
  const Schedule s = ScheduleBuilder()
                         .cluster(0, "c0", 1)
                         .cluster(1, "c1", 1)
                         .task("1", "t", 0, 2)
                         .on(0, 0, 1)
                         .on(1, 0, 1)
                         .task("2", "t", 1, 3)
                         .on(0, 0, 1)
                         .on(1, 0, 1)
                         .build();
  EXPECT_EQ(synthesize_composites(s).size(), 2u);
}

// Host bands follow the declared cluster size, but an unvalidated schedule
// may allocate hosts outside it: the outer bands take those, so every
// thread count still finds the overlap.
TEST(Composite, HostsOutsideTheDeclaredClusterStillOverlap) {
  Schedule s;
  s.add_cluster(0, "c", 4);
  for (const auto& [id, begin, first, nb] :
       std::vector<std::tuple<std::string, Time, int, int>>{
           {"a", 0, 2, 10}, {"b", 1, 6, 8}, {"c", 1, -5, 4}, {"d", 2, -3, 1}}) {
    Task t(id, "t", begin, 3);
    t.allocate(0, first, nb);
    s.add_task(t);
  }
  for (int threads : {1, 2, 8}) {
    const auto composites = synthesize_composites(s, nullptr, threads);
    ASSERT_EQ(composites.size(), 2u) << threads;
    EXPECT_EQ(composites[0].task.id(), "a+b");
    EXPECT_EQ(composites[0].task.configurations()[0].hosts,
              (std::vector<HostRange>{{6, 6}}));
    EXPECT_EQ(composites[1].task.id(), "c+d");
    EXPECT_EQ(composites[1].task.configurations()[0].hosts,
              (std::vector<HostRange>{{-3, 1}}));
  }
}

TEST(Composite, ZeroDurationTasksIgnored) {
  const Schedule s = ScheduleBuilder()
                         .cluster(0, "c", 1)
                         .task("1", "t", 0, 2)
                         .on(0, 0, 1)
                         .task("marker", "t", 1, 1)
                         .on(0, 0, 1)
                         .build();
  EXPECT_TRUE(synthesize_composites(s).empty());
}

TEST(Composite, FilterSelectsParticipants) {
  const Schedule s = overlap_pair();
  const auto only_compute = synthesize_composites(
      s, [](const Task& t) { return t.type() == "computation"; });
  EXPECT_TRUE(only_compute.empty());
  EXPECT_FALSE(has_resource_conflicts(
      s, [](const Task& t) { return t.type() == "computation"; }));
  EXPECT_TRUE(has_resource_conflicts(s));
}

TEST(WithComposites, AppendsValidTasksWithProperties) {
  const Schedule s = with_composites(overlap_pair());
  EXPECT_EQ(s.tasks().size(), 3u);
  const Task* comp = s.find_task("1+2");
  ASSERT_NE(comp, nullptr);
  EXPECT_EQ(comp->property("members"), "1,2");
  EXPECT_EQ(comp->property("member_types"), "computation,transfer");
  EXPECT_NO_THROW(s.validate());
}

TEST(WithComposites, DisambiguatesRepeatedMemberSets) {
  // The same pair overlaps twice in disjoint time windows -> two composite
  // tasks whose natural ids collide; validate() requires uniqueness.
  const Schedule s = with_composites(ScheduleBuilder()
                                         .cluster(0, "c", 1)
                                         .task("1", "t", 0, 2)
                                         .on(0, 0, 1)
                                         .task("2", "t", 1, 4)
                                         .on(0, 0, 1)
                                         .task("3", "t", 3, 6)
                                         .on(0, 0, 1)
                                         .build());
  EXPECT_NO_THROW(s.validate());
  EXPECT_EQ(s.tasks().size(), 5u);  // 3 tasks + 2 composites
}

// Property test: on random single-cluster schedules, composites cover
// exactly the multi-occupied instants (checked by dense sampling).
class CompositeProperty : public ::testing::TestWithParam<int> {};

TEST_P(CompositeProperty, CoversExactlyMultiOccupiedRegions) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const int hosts = 6;
  ScheduleBuilder builder;
  builder.cluster(0, "c", hosts);
  const int n = 12;
  for (int i = 0; i < n; ++i) {
    const double start = rng.uniform(0, 50);
    const double len = rng.uniform(1, 20);
    const int first = static_cast<int>(rng.uniform_int(0, hosts - 1));
    const int count =
        static_cast<int>(rng.uniform_int(1, hosts - first));
    builder.task("t" + std::to_string(i), "w", start, start + len)
        .on(0, first, count);
  }
  const Schedule s = builder.build();
  const auto composites = synthesize_composites(s);

  // Composites never overlap each other on any resource.
  {
    Schedule comp_only;
    comp_only.add_cluster(0, "c", hosts);
    int k = 0;
    for (const auto& comp : composites) {
      Task t = comp.task;
      t.set_id("comp" + std::to_string(k++));
      comp_only.add_task(std::move(t));
    }
    EXPECT_FALSE(has_resource_conflicts(comp_only));
  }

  // Dense sampling: composite coverage == (occupancy >= 2).
  for (double t = 0.25; t < 75.0; t += 1.37) {
    for (int h = 0; h < hosts; ++h) {
      int occupancy = 0;
      for (const auto& task : s.tasks()) {
        if (t < task.start_time() || t >= task.end_time()) continue;
        for (const auto& cfg : task.configurations()) {
          for (const auto& r : cfg.hosts) {
            if (h >= r.start && h < r.start + r.nb) ++occupancy;
          }
        }
      }
      int covered = 0;
      for (const auto& comp : composites) {
        if (t < comp.task.start_time() || t >= comp.task.end_time()) continue;
        for (const auto& cfg : comp.task.configurations()) {
          for (const auto& r : cfg.hosts) {
            if (h >= r.start && h < r.start + r.nb) ++covered;
          }
        }
      }
      EXPECT_EQ(covered, occupancy >= 2 ? 1 : 0)
          << "at t=" << t << " host=" << h << " occupancy=" << occupancy;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompositeProperty, ::testing::Range(1, 9));

// Differential: append_composites over any split/threads/filter must be
// indistinguishable from resweeping the whole schedule — the acceptance
// bar for the O(delta) live-trace path.
void expect_same_composites(const std::vector<Composite>& got,
                            const std::vector<Composite>& want,
                            const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const Composite& g = got[i];
    const Composite& w = want[i];
    EXPECT_EQ(g.task.id(), w.task.id()) << label << " #" << i;
    EXPECT_EQ(g.task.type(), w.task.type()) << label << " #" << i;
    EXPECT_EQ(g.task.start_time(), w.task.start_time()) << label << " #" << i;
    EXPECT_EQ(g.task.end_time(), w.task.end_time()) << label << " #" << i;
    EXPECT_EQ(g.task.configurations().size(), w.task.configurations().size())
        << label << " #" << i;
    for (std::size_t c = 0;
         c < g.task.configurations().size() &&
         c < w.task.configurations().size();
         ++c) {
      EXPECT_EQ(g.task.configurations()[c].cluster_id,
                w.task.configurations()[c].cluster_id)
          << label << " #" << i;
      EXPECT_EQ(g.task.configurations()[c].hosts,
                w.task.configurations()[c].hosts)
          << label << " #" << i;
    }
    EXPECT_EQ(g.member_ids, w.member_ids) << label << " #" << i;
    EXPECT_EQ(g.member_types, w.member_types) << label << " #" << i;
    EXPECT_EQ(g.member_indices, w.member_indices) << label << " #" << i;
  }
}

class CompositeAppend : public ::testing::TestWithParam<int> {};

TEST_P(CompositeAppend, ExtensionMatchesFullResweep) {
  util::Rng rng(static_cast<std::uint64_t>(1000 + GetParam()));
  const int hosts = 6;
  const int n = 24;
  struct Spec {
    std::string id, type;
    double start, end;
    int first, count;
  };
  std::vector<Spec> specs;
  for (int i = 0; i < n; ++i) {
    Spec s;
    s.id = "t" + std::to_string(i);
    s.type = i % 3 ? "computation" : "transfer";
    s.start = rng.uniform(0, 50);
    s.end = s.start + rng.uniform(1, 20);
    s.first = static_cast<int>(rng.uniform_int(0, hosts - 1));
    s.count = static_cast<int>(rng.uniform_int(1, hosts - s.first));
    specs.push_back(std::move(s));
  }
  auto build = [&](std::size_t count) {
    ScheduleBuilder builder;
    builder.cluster(0, "c", hosts);
    for (std::size_t i = 0; i < count; ++i) {
      builder.task(specs[i].id, specs[i].type, specs[i].start, specs[i].end)
          .on(0, specs[i].first, specs[i].count);
    }
    return builder.build();
  };

  const Schedule full = build(n);
  const TaskIndex index(full);
  const auto compute_only = [](const Task& t) {
    return t.type() == "computation";
  };

  for (std::size_t split : {std::size_t{0}, std::size_t{1}, std::size_t{8},
                            std::size_t{16}, std::size_t{23},
                            std::size_t{24}}) {
    const Schedule prefix = build(split);
    for (int threads : {1, 3}) {
      const std::string label = "split=" + std::to_string(split) +
                                " threads=" + std::to_string(threads);
      expect_same_composites(
          append_composites(full, index,
                            synthesize_composites(prefix, nullptr, threads),
                            split, nullptr, threads),
          synthesize_composites(full, nullptr, threads), label);
      // Same under a participation filter (the predicate the schedulers
      // use must thread through the cut logic unchanged).
      expect_same_composites(
          append_composites(full, index,
                            synthesize_composites(prefix, compute_only),
                            split, compute_only),
          synthesize_composites(full, compute_only), label + " filtered");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompositeAppend, ::testing::Range(1, 7));

// Differential against a brute-force oracle: sweep every host on its own,
// then merge equal (begin, end, members) segments of adjacent hosts.
std::vector<Composite> oracle_composites(
    const Schedule& s, const std::function<bool(const Task&)>& include) {
  struct Key {
    int cluster;
    Time begin, end;
    std::vector<std::size_t> members;
    auto operator<=>(const Key&) const = default;
  };
  std::map<Key, std::vector<int>> hosts_of;
  for (const auto& cluster : s.clusters()) {
    for (int h = 0; h < cluster.hosts; ++h) {
      std::vector<std::tuple<Time, int, std::size_t>> events;  // ends first
      for (std::size_t i = 0; i < s.tasks().size(); ++i) {
        const Task& t = s.tasks()[i];
        if ((include && !include(t)) || !(t.end_time() > t.start_time())) {
          continue;
        }
        for (const auto& cfg : t.configurations()) {
          for (const auto& r : cfg.hosts) {
            if (cfg.cluster_id != cluster.id || h < r.start ||
                h >= r.start + r.nb) {
              continue;
            }
            events.emplace_back(t.start_time(), 1, i);
            events.emplace_back(t.end_time(), 0, i);
          }
        }
      }
      std::sort(events.begin(), events.end());
      std::multiset<std::size_t> active;
      for (std::size_t e = 0; e < events.size(); ++e) {
        const auto [time, is_start, task] = events[e];
        if (is_start) {
          active.insert(task);
        } else {
          active.erase(active.find(task));
        }
        const Time next = e + 1 < events.size() ? std::get<0>(events[e + 1])
                                                : time;
        if (active.size() >= 2 && next > time) {
          hosts_of[Key{cluster.id, time, next, {active.begin(), active.end()}}]
              .push_back(h);
        }
      }
    }
  }
  std::vector<Composite> out;
  for (const auto& [key, hosts] : hosts_of) {
    Composite c;
    for (std::size_t m : key.members) {
      c.member_ids.push_back(s.tasks()[m].id());
      c.member_types.insert(s.tasks()[m].type());
    }
    c.member_indices = key.members;
    c.task = Task(util::join(c.member_ids, "+"), "composite", key.begin,
                  key.end);
    Configuration cfg;
    cfg.cluster_id = key.cluster;
    for (int h : hosts) {
      if (!cfg.hosts.empty() &&
          cfg.hosts.back().start + cfg.hosts.back().nb == h) {
        ++cfg.hosts.back().nb;
      } else {
        cfg.hosts.push_back(HostRange{h, 1});
      }
    }
    c.task.add_configuration(std::move(cfg));
    out.push_back(std::move(c));
  }
  return out;
}

// Layered random schedules on several clusters: slots tiled left to right
// with tasks of widths 1..max_width, `depth` overlays per task on a
// sub-range (some starting exactly where their base ends), scattered and
// cross-cluster allocations, and zero-area markers.
Schedule layered_schedule(std::uint64_t seed, int max_width, int depth) {
  util::Rng rng(seed);
  Schedule s;
  const std::vector<int> sizes = {static_cast<int>(2 * max_width + 7), 9, 64};
  for (int c = 0; c < 3; ++c) {
    s.add_cluster(c, "c" + std::to_string(c), sizes[c]);
  }
  int next_id = 0;
  const auto add = [&](Time begin, Time end, std::vector<Configuration> cfgs) {
    Task t("t" + std::to_string(next_id),
           next_id % 3 ? "computation" : "transfer", begin, end);
    ++next_id;
    for (auto& cfg : cfgs) t.add_configuration(std::move(cfg));
    s.add_task(std::move(t));
  };
  for (int slot = 0; slot < 6; ++slot) {
    for (int c = 0; c < 3; ++c) {
      const int hosts = sizes[c];
      for (int pos = static_cast<int>(rng.uniform_int(0, 2)); pos < hosts;) {
        const int width = static_cast<int>(std::min<std::int64_t>(
            rng.uniform_int(1, std::min(max_width, hosts)), hosts - pos));
        const Time begin =
            slot * 10 + static_cast<double>(rng.uniform_int(0, 3));
        const Time end = begin + static_cast<double>(rng.uniform_int(0, 6));
        std::vector<Configuration> cfgs{{c, {HostRange{pos, width}}}};
        if (rng.bernoulli(0.15)) {  // a second, disjoint range in the cluster
          const int gap = static_cast<int>(rng.uniform_int(1, 3));
          if (pos + width + gap < hosts) {
            cfgs[0].hosts.push_back(HostRange{pos + width + gap, 1});
          }
        }
        if (rng.bernoulli(0.1)) {  // cross-cluster
          const int other = (c + 1) % 3;
          const int nb = static_cast<int>(
              rng.uniform_int(1, std::min(max_width, sizes[other])));
          cfgs.push_back(Configuration{
              other, {HostRange{static_cast<int>(rng.uniform_int(
                                    0, sizes[other] - nb)),
                                nb}}});
        }
        add(begin, end, cfgs);
        for (int d = 0; d < depth; ++d) {
          const int nb = static_cast<int>(rng.uniform_int(1, width));
          const int first =
              pos + static_cast<int>(rng.uniform_int(0, width - nb));
          const Time b =
              rng.bernoulli(0.2)
                  ? end  // touches its base
                  : begin + static_cast<double>(rng.uniform_int(0, 4));
          add(b, b + static_cast<double>(rng.uniform_int(0, 5)),
              {Configuration{c, {HostRange{first, nb}}}});
        }
        pos += width + static_cast<int>(rng.uniform_int(0, 2));
      }
    }
  }
  s.validate();
  return s;
}

struct OracleCase {
  int max_width;
  int depth;
};

class CompositeOracle : public ::testing::TestWithParam<OracleCase> {};

TEST_P(CompositeOracle, SweepMatchesPerHostReference) {
  const auto [max_width, depth] = GetParam();
  const auto compute_only = [](const Task& t) {
    return t.type() == "computation";
  };
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Schedule s = layered_schedule(seed * 7919 + max_width * 31 + depth,
                                        max_width, depth);
    const TaskIndex index(s);
    for (const bool filtered : {false, true}) {
      const std::function<bool(const Task&)> include =
          filtered ? std::function<bool(const Task&)>(compute_only) : nullptr;
      const auto want = oracle_composites(s, include);
      if (depth >= 4 && !filtered) {
        EXPECT_FALSE(want.empty());
      }
      for (int threads : {1, 2, 8}) {
        const std::string label =
            "width<=" + std::to_string(max_width) + " depth=" +
            std::to_string(depth) + " seed=" + std::to_string(seed) +
            " threads=" + std::to_string(threads) +
            (filtered ? " filtered" : "");
        expect_same_composites(synthesize_composites(s, include, threads),
                               want, label);
        for (std::size_t split : {s.tasks().size() / 3,
                                  s.tasks().size() * 4 / 5}) {
          Schedule prefix;
          for (const auto& c : s.clusters()) prefix.add_cluster(c);
          for (std::size_t i = 0; i < split; ++i) prefix.add_task(s.tasks()[i]);
          expect_same_composites(
              append_composites(s, index,
                                synthesize_composites(prefix, include, threads),
                                split, include, threads),
              want, label + " split=" + std::to_string(split));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    WidthsAndDepths, CompositeOracle,
    ::testing::Values(OracleCase{1, 0}, OracleCase{1, 3}, OracleCase{4, 1},
                      OracleCase{4, 5}, OracleCase{16, 0}, OracleCase{16, 2},
                      OracleCase{64, 0}, OracleCase{64, 4}),
    [](const auto& info) {
      return "w" + std::to_string(info.param.max_width) + "d" +
             std::to_string(info.param.depth);
    });

}  // namespace
}  // namespace jedule::model
