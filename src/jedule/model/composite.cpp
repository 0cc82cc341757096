#include "jedule/model/composite.hpp"

#include <algorithm>
#include <climits>
#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <queue>
#include <tuple>
#include <utility>

#include "jedule/model/task_index.hpp"
#include "jedule/util/error.hpp"
#include "jedule/util/parallel.hpp"
#include "jedule/util/strings.hpp"

namespace jedule::model {

namespace {

using TaskId = std::uint32_t;

// One host range [lo, hi) of one participating task over [begin, end).
struct Alloc {
  Time begin, end;
  TaskId task;
  int lo, hi;
};

// A total order (a task's ranges in one cluster are disjoint).
bool begins_before(const Alloc& a, const Alloc& b) {
  return std::tie(a.begin, a.task, a.lo) < std::tie(b.begin, b.task, b.lo);
}

// The allocations dealt to one band of a cluster, a list per chunk of tasks.
using Lists = std::vector<const std::vector<Alloc>*>;

// Hosts [lo, hi) of one cluster on which the same two or more tasks ran
// together over [begin, end). One composite per key (cluster, begin, end,
// members); the records of a key never share a host.
struct Record {
  int cluster_id, lo, hi;
  Time begin, end;
  std::vector<TaskId> members;
  auto key() const { return std::tie(cluster_id, begin, end, members); }
};

// Sweeps one band of hosts of one cluster over time. The active set is a
// sorted vector of disjoint host pieces, each with the member set of all its
// hosts and the time that set has held since. A start over idle hosts adds
// one piece and an end that owns its piece erases it, O(log k) for k pieces;
// any other event splits only the pieces it touches.
class BandSweep {
 public:
  BandSweep(int cluster_id, Lists lists, long long lo, long long hi)
      : cluster_id_(cluster_id), lists_(std::move(lists)), lo_(lo), hi_(hi) {}

  // Sweeps the hosts the band's allocations cover, clipped to [lo_, hi_),
  // in blocks of about eight mean allocation widths (never more blocks
  // than allocations), one after another, so the active set stays a few
  // pieces long. Allocations are clipped at block edges.
  void run() {
    long long lo = LLONG_MAX, hi = LLONG_MIN, count = 0, hosts = 0;
    for (const auto* list : lists_) {
      for (const Alloc& a : *list) {
        const long long a0 = std::max<long long>(a.lo, lo_);
        const long long a1 = std::min<long long>(a.hi, hi_);
        lo = std::min(lo, a0);
        hi = std::max(hi, a1);
        hosts += a1 - a0;
        ++count;
      }
    }
    if (count == 0) return;
    const long long block = std::max((hosts + count - 1) / count * 8,
                                     (hi - lo + count - 1) / count);
    std::vector<std::vector<Alloc>> blocks((hi - lo + block - 1) / block);
    for (const auto* list : lists_) {
      for (const Alloc& a : *list) {
        for (long long b = (std::max<long long>(a.lo, lo) - lo) / block;
             lo + b * block < std::min<long long>(a.hi, hi); ++b) {
          Alloc& piece = blocks[b].emplace_back(a);
          piece.lo =
              static_cast<int>(std::max<long long>(a.lo, lo + b * block));
          piece.hi = static_cast<int>(
              std::min<long long>({a.hi, hi, lo + (b + 1) * block}));
        }
      }
    }
    for (auto& allocs : blocks) {
      std::sort(allocs.begin(), allocs.end(), begins_before);
      sweep(allocs);
    }
  }

  std::vector<Record> records;

 private:
  // One member is stored inline in `ref`; two or more live, sorted, in the
  // pool slot `ref`, so pieces stay trivially movable.
  struct Piece {
    int lo, hi;
    Time since;
    std::uint32_t count, ref;
  };

  // Sweeps allocations sorted by begins_before; the active set starts and
  // ends empty. Started allocations wait in a min-heap on (end, position),
  // so the ends need no sort of their own.
  void sweep(const std::vector<Alloc>& allocs) {
    using Running = std::pair<Time, std::uint32_t>;
    std::priority_queue<Running, std::vector<Running>, std::greater<>> running;
    const auto finish_next = [&] {
      const Alloc& a = allocs[running.top().second];
      event(a.end, a.task, a.lo, a.hi, false);
      running.pop();
    };
    for (std::uint32_t k = 0; k < allocs.size(); ++k) {
      const Alloc& a = allocs[k];
      // Ends first at equal times: touching half-open intervals never meet.
      while (!running.empty() && running.top().first <= a.begin) finish_next();
      event(a.begin, a.task, a.lo, a.hi, true);
      running.emplace(a.end, k);
    }
    while (!running.empty()) finish_next();
  }

  std::uint32_t new_set() {  // a cleared pool slot
    if (free_.empty()) {
      free_.push_back(static_cast<std::uint32_t>(sets_.size()));
      sets_.emplace_back();
    }
    const std::uint32_t id = free_.back();
    free_.pop_back();
    sets_[id].clear();
    return id;
  }

  void add(Piece& p, TaskId task) {
    if (p.count == 1) {  // moves into the pool
      const std::uint32_t id = new_set();
      sets_[id].push_back(std::exchange(p.ref, id));
    }
    auto& set = sets_[p.ref];
    set.insert(std::upper_bound(set.begin(), set.end(), task), task);
    ++p.count;
  }

  void remove(Piece& p, TaskId task) {
    if (--p.count == 0) return;  // it was the inline one
    auto& set = sets_[p.ref];
    const auto it = std::lower_bound(set.begin(), set.end(), task);
    JED_ASSERT(it != set.end() && *it == task);
    set.erase(it);
    if (p.count == 1) free_.push_back(std::exchange(p.ref, set.front()));
  }

  // Touching pieces with equal state merge. Below two members `since`
  // never reaches a record (the next change resets it), so it may differ.
  bool mergeable(const Piece& a, const Piece& b) const {
    if (a.hi != b.lo || a.count != b.count) return false;
    if (a.count == 1) return a.ref == b.ref;
    return a.since == b.since && sets_[a.ref] == sets_[b.ref];
  }

  // The first piece that ends after `host`.
  std::size_t find(int host) const {
    return std::partition_point(
               pieces_.begin(), pieces_.end(),
               [host](const Piece& p) { return p.hi <= host; }) -
           pieces_.begin();
  }

  // Cuts the piece holding `host` in two there (the far side gets its own
  // copy of the member set); returns the first piece at or after `host`.
  std::size_t split_at(int host) {
    const std::size_t at = find(host);
    if (at == pieces_.size() || pieces_[at].lo >= host) return at;
    Piece right = pieces_[at];
    if (right.count >= 2) {
      right.ref = new_set();
      sets_[right.ref] = sets_[pieces_[at].ref];
    }
    right.lo = pieces_[at].hi = host;
    pieces_.insert(pieces_.begin() + at + 1, right);
    return at + 1;
  }

  // Task `task` starts (or ends) on hosts [lo, hi) at `now`.
  void event(Time now, TaskId task, int lo, int hi, bool start) {
    std::size_t at = find(lo);
    if (start && (at == pieces_.size() || pieces_[at].lo >= hi)) {
      pieces_.insert(pieces_.begin() + at, Piece{lo, hi, now, 1, task});
      return;
    }
    JED_ASSERT(at < pieces_.size());
    const Piece& own = pieces_[at];
    if (!start && own.lo == lo && own.hi == hi && own.count == 1) {
      pieces_.erase(pieces_.begin() + at);
      return;
    }
    // Otherwise cut the pieces at lo and hi, update every piece between
    // (a start also fills the idle gaps) and merge equal neighbours.
    split_at(hi);
    at = split_at(lo);
    const std::size_t from = std::max<std::size_t>(at, 1);
    for (int pos = lo; pos < hi;) {
      if (at == pieces_.size() || pieces_[at].lo > pos) {
        JED_ASSERT(start);
        const int to = at < pieces_.size() ? std::min(pieces_[at].lo, hi) : hi;
        pieces_.insert(pieces_.begin() + at++, Piece{pos, to, now, 1, task});
        pos = to;
        continue;
      }
      Piece& q = pieces_[at];
      if (q.count >= 2 && now > q.since) {  // a composite segment ends
        records.push_back(
            Record{cluster_id_, q.lo, q.hi, q.since, now, sets_[q.ref]});
      }
      start ? add(q, task) : remove(q, task);
      q.since = now;
      pos = q.hi;
      if (q.count > 0) {
        ++at;
      } else {
        pieces_.erase(pieces_.begin() + at);
      }
    }
    for (std::size_t k = std::min(at, pieces_.size() - 1); k >= from; --k) {
      if (mergeable(pieces_[k - 1], pieces_[k])) {
        pieces_[k - 1].hi = pieces_[k].hi;
        if (pieces_[k].count >= 2) free_.push_back(pieces_[k].ref);
        pieces_.erase(pieces_.begin() + k);
      }
    }
  }

  int cluster_id_;
  Lists lists_;
  long long lo_, hi_;
  std::vector<Piece> pieces_;
  std::vector<std::vector<TaskId>> sets_;
  std::vector<std::uint32_t> free_;
};

// The synthesis core: collects the allocations of the tasks `ids` in
// parallel chunks, dealing each to the `threads` host bands of its cluster
// it touches (the outer bands also take any hosts outside the declared
// ones), sweeps the bands in parallel, then sorts the records and coalesces
// each key's hosts, so seams vanish.
std::vector<Composite> sweep(
    const Schedule& schedule, const std::vector<TaskId>& ids,
    const std::function<bool(const Task&)>& include_task, int threads) {
  const auto& tasks = schedule.tasks();
  // Band k of the n bands of a cluster of H hosts starts at host H * k / n.
  struct Banding {
    long long hosts, n;
    long long of(long long host) const {  // the band holding `host`
      return n == 1 ? 0 : std::clamp(((host + 1) * n - 1) / hosts, 0LL, n - 1);
    }
  };
  std::map<int, Banding> banding;
  for (const auto& c : schedule.clusters()) {
    banding[c.id] = Banding{
        c.hosts, std::clamp<long long>(threads, 1, std::max(c.hosts, 1))};
  }
  const auto banding_of = [&](int cluster_id) {
    const auto it = banding.find(cluster_id);
    return it != banding.end() ? it->second : Banding{0, 1};
  };
  const std::size_t chunks = std::clamp<std::size_t>(
      ids.size() / 4096, 1, static_cast<std::size_t>(std::max(threads, 1)));
  // Per chunk and cluster, one allocation list per band.
  std::vector<std::map<int, std::vector<std::vector<Alloc>>>> parts(chunks);
  util::parallel_for(chunks, threads, [&](std::size_t c) {
    int cluster_id = 0;  // of `bands` and `lists`, cached across tasks
    Banding bands{0, 0};
    std::vector<std::vector<Alloc>>* lists = nullptr;
    for (std::size_t k = ids.size() * c / chunks;
         k < ids.size() * (c + 1) / chunks; ++k) {
      const Task& t = tasks[ids[k]];
      if (include_task && !include_task(t)) continue;
      if (!(t.end_time() > t.start_time())) continue;  // zero area
      for (const auto& cfg : t.configurations()) {
        for (const auto& r : cfg.hosts) {
          if (r.nb <= 0) continue;  // no cluster list without allocations
          if (lists == nullptr || cfg.cluster_id != cluster_id) {
            cluster_id = cfg.cluster_id;
            bands = banding_of(cluster_id);
            lists = &parts[c][cluster_id];
            lists->resize(static_cast<std::size_t>(bands.n));
          }
          const Alloc a{t.start_time(), t.end_time(), ids[k], r.start,
                        r.start + r.nb};
          for (long long b = bands.of(a.lo); b <= bands.of(a.hi - 1); ++b) {
            (*lists)[static_cast<std::size_t>(b)].push_back(a);
          }
        }
      }
    }
  });
  std::map<int, std::vector<Lists>> clusters;
  for (const auto& part : parts) {
    for (const auto& [cluster_id, lists] : part) {
      auto& bands = clusters[cluster_id];
      bands.resize(lists.size());
      for (std::size_t b = 0; b < lists.size(); ++b) {
        bands[b].push_back(&lists[b]);
      }
    }
  }
  std::vector<BandSweep> bands;
  for (auto& [cluster_id, lists] : clusters) {
    const Banding banded = banding_of(cluster_id);
    for (long long b = 0; b < banded.n; ++b) {
      bands.emplace_back(
          cluster_id, std::move(lists[static_cast<std::size_t>(b)]),
          b == 0 ? LLONG_MIN : banded.hosts * b / banded.n,
          b + 1 == banded.n ? LLONG_MAX : banded.hosts * (b + 1) / banded.n);
    }
  }
  util::parallel_for(bands.size(), threads,
                     [&](std::size_t b) { bands[b].run(); });
  std::vector<Record> records;
  for (auto& s : bands) {
    std::move(s.records.begin(), s.records.end(), std::back_inserter(records));
  }
  std::sort(records.begin(), records.end(),
            [](const Record& a, const Record& b) {
              return std::tuple_cat(a.key(), std::tie(a.lo)) <
                     std::tuple_cat(b.key(), std::tie(b.lo));
            });
  std::vector<std::size_t> group_at;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (i == 0 || records[i - 1].key() != records[i].key()) {
      group_at.push_back(i);
    }
  }
  group_at.push_back(records.size());
  static const std::string* const kCompositeType =
      detail::intern_task_type("composite");
  std::vector<Composite> out(group_at.size() - 1);
  util::parallel_for(out.size(), threads, [&](std::size_t g) {
    const Record& key = records[group_at[g]];
    Composite& comp = out[g];
    for (const TaskId m : key.members) {
      comp.member_ids.push_back(tasks[m].id());
      comp.member_types.insert(tasks[m].type());
      comp.member_indices.push_back(m);
    }
    comp.task.set_id(util::join(comp.member_ids, "+"));
    comp.task.set_interned_type(kCompositeType);
    comp.task.set_times(key.begin, key.end);
    Configuration cfg;
    cfg.cluster_id = key.cluster_id;
    for (std::size_t i = group_at[g]; i < group_at[g + 1]; ++i) {
      const Record& r = records[i];
      if (i == group_at[g] || records[i - 1].hi != r.lo) {
        cfg.hosts.push_back(HostRange{r.lo, 0});
      }
      cfg.hosts.back().nb += r.hi - r.lo;
    }
    comp.task.add_configuration(std::move(cfg));
  });
  return out;
}

}  // namespace

std::vector<Composite> synthesize_composites(
    const Schedule& schedule,
    const std::function<bool(const Task&)>& include_task, int threads) {
  JED_ASSERT(schedule.tasks().size() <= std::numeric_limits<TaskId>::max());
  std::vector<TaskId> ids(schedule.tasks().size());
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<TaskId>(i);
  return sweep(schedule, ids, include_task, threads);
}

std::vector<Composite> synthesize_composites_of(
    const Schedule& schedule, const std::vector<std::uint32_t>& ids,
    const std::function<bool(const Task&)>& include_task, int threads) {
  JED_ASSERT(std::is_sorted(ids.begin(), ids.end()));
  JED_ASSERT(ids.empty() || ids.back() < schedule.tasks().size());
  return sweep(schedule, ids, include_task, threads);
}

std::vector<Composite> append_composites(
    const Schedule& schedule, const TaskIndex& index,
    std::vector<Composite> cached, std::size_t first_new,
    const std::function<bool(const Task&)>& include_task, int threads) {
  const auto& tasks = schedule.tasks();
  JED_ASSERT(index.task_count() == tasks.size());
  JED_ASSERT(first_new <= tasks.size());
  if (first_new >= tasks.size()) return cached;

  // The initial cut: the earliest participating appended task.
  const Time none = std::numeric_limits<Time>::infinity();
  Time t_cut = none;
  for (std::size_t i = first_new; i < tasks.size(); ++i) {
    const Task& t = tasks[i];
    if ((!include_task || include_task(t)) && t.end_time() > t.start_time()) {
      t_cut = std::min(t_cut, t.start_time());
    }
  }
  if (t_cut == none) return cached;

  // Fixpoint: lower t_cut until no included task strictly straddles it.
  // Each straddler lowers the cut at most once, so the loop ends; the guard
  // caps pathological nesting chains with a full resweep.
  for (int guard = 0;; ++guard) {
    if (guard >= 256) {
      return synthesize_composites(schedule, include_task, threads);
    }
    Time lowest = t_cut;
    for (const auto& cluster : schedule.clusters()) {
      index.query(cluster.id, t_cut, t_cut, [&](const TaskIndex::Entry& e) {
        if (!(e.begin < t_cut && e.end > t_cut)) return;
        const Task& t = tasks[e.task];
        if (include_task && !include_task(t)) return;
        lowest = std::min(lowest, e.begin);
      });
    }
    if (lowest == t_cut) break;
    t_cut = lowest;
  }

  // Head: cached composites entirely before the cut, kept verbatim. One
  // straddling the cut would need straddling members, which the fixpoint
  // ruled out, so every cached composite falls cleanly on one side.
  std::vector<Composite> head;
  head.reserve(cached.size());
  for (auto& comp : cached) {
    JED_ASSERT(comp.task.end_time() <= t_cut ||
               comp.task.start_time() >= t_cut);
    if (comp.task.end_time() <= t_cut) head.push_back(std::move(comp));
  }

  // Tail: the tasks starting at or after the cut (with no straddlers, the
  // ones the index reports ending after it), swept on their own.
  std::vector<std::uint32_t> tail_ids;
  for (const auto& cluster : schedule.clusters()) {
    index.collect_tasks(cluster.id, t_cut,
                        std::numeric_limits<double>::infinity(), &tail_ids);
  }
  std::erase_if(tail_ids,
                [&](std::uint32_t i) { return tasks[i].start_time() < t_cut; });
  std::sort(tail_ids.begin(), tail_ids.end());
  tail_ids.erase(std::unique(tail_ids.begin(), tail_ids.end()), tail_ids.end());
  std::vector<Composite> tail =
      sweep(schedule, tail_ids, include_task, threads);

  // Both halves are in key order, and within a cluster all head composites
  // begin before all tail ones: merging on (cluster, begin) is exact.
  std::vector<Composite> out;
  out.reserve(head.size() + tail.size());
  std::merge(std::make_move_iterator(head.begin()),
             std::make_move_iterator(head.end()),
             std::make_move_iterator(tail.begin()),
             std::make_move_iterator(tail.end()), std::back_inserter(out),
             [](const Composite& a, const Composite& b) {
               return std::pair(a.task.configurations()[0].cluster_id,
                                a.task.start_time()) <
                      std::pair(b.task.configurations()[0].cluster_id,
                                b.task.start_time());
             });
  return out;
}

bool has_resource_conflicts(
    const Schedule& schedule,
    const std::function<bool(const Task&)>& include_task) {
  return !synthesize_composites(schedule, include_task).empty();
}

std::vector<std::pair<std::string, std::string>> composite_properties(
    const Composite& comp) {
  const std::vector<std::string> types(comp.member_types.begin(),
                                       comp.member_types.end());
  return {{"members", util::join(comp.member_ids, ",")},
          {"member_types", util::join(types, ",")}};
}

Schedule with_composites(const Schedule& schedule) {
  Schedule out = schedule;
  auto composites = synthesize_composites(schedule);
  // A member set overlapping in several disjoint rectangles repeats its id,
  // so a suffix keeps task ids unique (validate() requires it).
  std::map<std::string, int> seen;
  for (auto& comp : composites) {
    Task t = std::move(comp.task);
    int& n = seen[t.id()];
    if (n > 0) t.set_id(t.id() + "#" + std::to_string(n));
    ++n;
    for (auto& [key, value] : composite_properties(comp)) {
      t.set_property(std::move(key), std::move(value));
    }
    out.add_task(std::move(t));
  }
  return out;
}

}  // namespace jedule::model
