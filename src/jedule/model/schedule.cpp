#include "jedule/model/schedule.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_set>

#include "jedule/util/error.hpp"
#include "jedule/util/parallel.hpp"

namespace jedule::model {

namespace detail {

namespace {

struct StringViewHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

struct StringViewEq {
  using is_transparent = void;
  bool operator()(std::string_view a, std::string_view b) const noexcept {
    return a == b;
  }
};

}  // namespace

const std::string* intern_task_type(std::string_view type) {
  // unordered_set is node-based, so &*it stays valid across rehashes. The
  // pool is never shrunk; a handful of types live for the process lifetime.
  static std::shared_mutex mutex;
  static std::unordered_set<std::string, StringViewHash, StringViewEq> pool;
  {
    std::shared_lock lock(mutex);
    auto it = pool.find(type);
    if (it != pool.end()) return &*it;
  }
  std::unique_lock lock(mutex);
  return &*pool.emplace(type).first;
}

}  // namespace detail

int Configuration::host_count() const {
  int n = 0;
  for (const auto& r : hosts) n += r.nb;
  return n;
}

std::vector<int> Configuration::host_list() const {
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(host_count()));
  for (const auto& r : hosts) {
    for (int h = r.start; h < r.start + r.nb; ++h) out.push_back(h);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void Task::allocate(int cluster_id, int first_host, int host_count) {
  Configuration c;
  c.cluster_id = cluster_id;
  c.hosts.push_back(HostRange{first_host, host_count});
  configs_.push_back(std::move(c));
}

int Task::total_hosts() const {
  int n = 0;
  for (const auto& c : configs_) n += c.host_count();
  return n;
}

void Task::set_property(std::string key, std::string value) {
  for (auto& [k, v] : properties_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  properties_.emplace_back(std::move(key), std::move(value));
}

std::optional<std::string_view> Task::property(std::string_view key) const {
  for (const auto& [k, v] : properties_) {
    if (k == key) return std::string_view(v);
  }
  return std::nullopt;
}

std::size_t Schedule::add_cluster(Cluster c) {
  if (cluster_index_.count(c.id) != 0) {
    throw ValidationError("duplicate cluster id " + std::to_string(c.id));
  }
  if (c.hosts <= 0) {
    throw ValidationError("cluster " + std::to_string(c.id) +
                          " must have a positive host count");
  }
  const std::size_t index = clusters_.size();
  cluster_index_[c.id] = index;
  clusters_.push_back(std::move(c));
  return index;
}

std::size_t Schedule::add_cluster(int id, std::string name, int hosts) {
  return add_cluster(Cluster{id, std::move(name), hosts});
}

const Cluster& Schedule::cluster_by_id(int id) const {
  auto it = cluster_index_.find(id);
  if (it == cluster_index_.end()) {
    throw ValidationError("unknown cluster id " + std::to_string(id));
  }
  return clusters_[it->second];
}

bool Schedule::has_cluster(int id) const {
  return cluster_index_.count(id) != 0;
}

int Schedule::total_hosts() const {
  int n = 0;
  for (const auto& c : clusters_) n += c.hosts;
  return n;
}

int Schedule::global_resource_index(int cluster_id, int host) const {
  int offset = 0;
  for (const auto& c : clusters_) {
    if (c.id == cluster_id) {
      JED_ASSERT(host >= 0 && host < c.hosts);
      return offset + host;
    }
    offset += c.hosts;
  }
  throw ValidationError("unknown cluster id " + std::to_string(cluster_id));
}

const Task* Schedule::find_task(std::string_view id) const {
  for (const auto& t : tasks_) {
    if (t.id() == id) return &t;
  }
  return nullptr;
}

void Schedule::set_meta(std::string key, std::string value) {
  for (auto& [k, v] : meta_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  meta_.emplace_back(std::move(key), std::move(value));
}

std::optional<std::string_view> Schedule::meta_value(
    std::string_view key) const {
  for (const auto& [k, v] : meta_) {
    if (k == key) return std::string_view(v);
  }
  return std::nullopt;
}

std::optional<TimeRange> Schedule::time_range() const {
  if (tasks_.empty()) return std::nullopt;
  TimeRange r{tasks_.front().start_time(), tasks_.front().end_time()};
  for (const auto& t : tasks_) {
    r.begin = std::min(r.begin, t.start_time());
    r.end = std::max(r.end, t.end_time());
  }
  return r;
}

std::optional<TimeRange> Schedule::cluster_time_range(int cluster_id) const {
  std::optional<TimeRange> r;
  for (const auto& t : tasks_) {
    bool in_cluster = false;
    for (const auto& c : t.configurations()) {
      if (c.cluster_id == cluster_id) {
        in_cluster = true;
        break;
      }
    }
    if (!in_cluster) continue;
    if (!r) {
      r = TimeRange{t.start_time(), t.end_time()};
    } else {
      r->begin = std::min(r->begin, t.start_time());
      r->end = std::max(r->end, t.end_time());
    }
  }
  return r;
}

std::map<int, TimeRange> Schedule::cluster_time_ranges() const {
  std::map<int, TimeRange> out;
  for (const auto& t : tasks_) {
    int last = 0;
    bool have_last = false;
    for (const auto& c : t.configurations()) {
      // Tasks repeat a cluster only in pathological inputs; skipping the
      // immediate repeat keeps the common multi-range case one lookup.
      if (have_last && c.cluster_id == last) continue;
      last = c.cluster_id;
      have_last = true;
      auto [it, fresh] =
          out.try_emplace(c.cluster_id, TimeRange{t.start_time(), t.end_time()});
      if (!fresh) {
        it->second.begin = std::min(it->second.begin, t.start_time());
        it->second.end = std::max(it->second.end, t.end_time());
      }
    }
  }
  return out;
}

std::optional<TimeRange> Schedule::view_time_range(int cluster_id,
                                                   ViewMode mode) const {
  if (mode == ViewMode::kAligned) return time_range();
  auto local = cluster_time_range(cluster_id);
  return local ? local : time_range();
}

bool task_times_ok(Time start, Time end) {
  return std::isfinite(start) && std::isfinite(end) && end >= start &&
         std::isfinite(end - start);
}

void check_task_times(std::string_view id, Time start, Time end) {
  if (task_times_ok(start, end)) return;
  const std::string what = "task '" + std::string(id) + "' ";
  if (!(end >= start) && std::isfinite(start) && std::isfinite(end)) {
    throw ValidationError(what + "has end_time " + std::to_string(end) +
                          " before start_time " + std::to_string(start));
  }
  char span[64];
  std::snprintf(span, sizeof(span), "[%g, %g]", start, end);
  if (!std::isfinite(start) || !std::isfinite(end)) {
    throw ValidationError(what + "has a non-finite time " + span);
  }
  throw ValidationError(what + "spans " + span + ", whose duration overflows");
}

void check_schedule_span(Time begin, Time end) {
  if (std::isfinite(end - begin)) return;
  char span[64];
  std::snprintf(span, sizeof(span), "[%g, %g]", begin, end);
  throw ValidationError(std::string("the tasks span ") + span +
                        ", whose length overflows");
}

void Schedule::validate(int threads) const {
  if (threads > 1 && tasks_.size() >= kParallelValidateMinTasks &&
      confirm_valid(threads)) {
    return;
  }
  validate_serial();
}

namespace {

// True iff the ranges of one configuration list no host twice. The ranges
// are already known to be non-empty; sorted by start, two of them overlap
// exactly when some range starts before its predecessor ends.
bool ranges_disjoint(const std::vector<HostRange>& hosts) {
  std::vector<HostRange> sorted(hosts);
  std::sort(sorted.begin(), sorted.end(),
            [](const HostRange& a, const HostRange& b) {
              return a.start < b.start;
            });
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i].start < sorted[i - 1].start + sorted[i - 1].nb) return false;
  }
  return true;
}

}  // namespace

bool Schedule::confirm_valid(int threads) const {
  // Answers only "does the serial walk accept this schedule?": every check
  // of validate_serial, without its messages and in no particular order.
  const std::size_t n = tasks_.size();
  if (clusters_.empty() || n >= std::numeric_limits<std::uint32_t>::max()) {
    return false;
  }
  // Lock-free duplicate-id table: open addressing over 32-bit slots that
  // hold task index + 1 (0 is empty), claimed by compare-and-swap.
  const std::size_t cap = std::bit_ceil(n * 2 + 16);
  const std::unique_ptr<std::uint32_t[]> slots(new std::uint32_t[cap]);
  constexpr std::size_t kFillSlots = 1u << 18;
  util::parallel_for((cap + kFillSlots - 1) / kFillSlots, threads,
                     [&](std::size_t p) {
                       const std::size_t lo = p * kFillSlots;
                       const std::size_t hi = std::min(cap, lo + kFillSlots);
                       std::fill(slots.get() + lo, slots.get() + hi, 0u);
                     });
  const auto claim_id = [&](std::size_t index) {
    const std::string_view id = tasks_[index].id();
    const auto mine = static_cast<std::uint32_t>(index + 1);
    std::size_t h = std::hash<std::string_view>{}(id) & (cap - 1);
    while (true) {
      std::atomic_ref<std::uint32_t> slot(slots[h]);
      std::uint32_t held = slot.load(std::memory_order_acquire);
      if (held == 0 &&
          slot.compare_exchange_strong(held, mine, std::memory_order_acq_rel)) {
        return true;
      }
      if (tasks_[held - 1].id() == id) return false;  // duplicate
      h = (h + 1) & (cap - 1);
    }
  };
  const auto task_ok = [&](const Task& t, int& cached_id,
                           const Cluster*& cached_cluster) {
    if (t.id().empty() || !task_times_ok(t.start_time(), t.end_time()) ||
        t.configurations().empty()) {
      return false;
    }
    for (const auto& cfg : t.configurations()) {
      if (cached_cluster == nullptr || cfg.cluster_id != cached_id) {
        const auto it = cluster_index_.find(cfg.cluster_id);
        if (it == cluster_index_.end()) return false;
        cached_id = cfg.cluster_id;
        cached_cluster = &clusters_[it->second];
      }
      if (cfg.hosts.empty()) return false;
      for (const auto& range : cfg.hosts) {
        if (range.nb <= 0 || range.start < 0 ||
            range.start + range.nb > cached_cluster->hosts) {
          return false;
        }
      }
      if (cfg.hosts.size() > 1 && !ranges_disjoint(cfg.hosts)) return false;
    }
    return true;
  };

  constexpr std::size_t kDepChunk = 1u << 16;
  const std::size_t task_pieces =
      (n + kValidateChunkTasks - 1) / kValidateChunkTasks;
  const std::size_t dep_pieces = (deps_.size() + kDepChunk - 1) / kDepChunk;
  std::vector<TimeRange> bounds(task_pieces);
  std::atomic<bool> bad{false};
  util::parallel_for(task_pieces + dep_pieces, threads, [&](std::size_t p) {
    if (bad.load(std::memory_order_relaxed)) return;
    if (p >= task_pieces) {
      const std::size_t lo = (p - task_pieces) * kDepChunk;
      const std::size_t hi = std::min(deps_.size(), lo + kDepChunk);
      for (std::size_t k = lo; k < hi; ++k) {
        const Dependency& d = deps_[k];
        if (d.dst >= n || d.src >= d.dst || !(d.data >= 0)) {
          bad.store(true, std::memory_order_relaxed);
          return;
        }
      }
      return;
    }
    const std::size_t lo = p * kValidateChunkTasks;
    const std::size_t hi = std::min(n, lo + kValidateChunkTasks);
    int cached_id = 0;
    const Cluster* cached_cluster = nullptr;
    TimeRange span{tasks_[lo].start_time(), tasks_[lo].end_time()};
    for (std::size_t i = lo; i < hi; ++i) {
      const Task& t = tasks_[i];
      if (!task_ok(t, cached_id, cached_cluster) || !claim_id(i)) {
        bad.store(true, std::memory_order_relaxed);
        return;
      }
      span.begin = std::min(span.begin, t.start_time());
      span.end = std::max(span.end, t.end_time());
    }
    bounds[p] = span;
  });
  if (bad.load()) return false;
  TimeRange span = bounds.front();
  for (const TimeRange& b : bounds) {
    span.begin = std::min(span.begin, b.begin);
    span.end = std::max(span.end, b.end);
  }
  return std::isfinite(span.end - span.begin);
}

void Schedule::validate_serial() const {
  if (clusters_.empty()) {
    throw ValidationError("a schedule requires at least one cluster");
  }
  // Duplicate-id probe over a flat open-addressed table: a node-based set
  // costs one allocation and several cache misses per insert, which at
  // million-task scale is most of the validate pass.
  constexpr std::size_t kEmpty = static_cast<std::size_t>(-1);
  const std::size_t cap = std::bit_ceil(tasks_.size() * 2 + 16);
  std::vector<std::size_t> slots(cap, kEmpty);
  const auto seen_before = [&](std::size_t index) {
    const std::string_view id = tasks_[index].id();
    std::size_t h = std::hash<std::string_view>{}(id) & (cap - 1);
    while (slots[h] != kEmpty) {
      if (tasks_[slots[h]].id() == id) return true;
      h = (h + 1) & (cap - 1);
    }
    slots[h] = index;
    return false;
  };
  // The common case is every task on the same cluster, so the id -> cluster
  // map lookup is cached across consecutive configurations.
  int cached_id = 0;
  const Cluster* cached_cluster = nullptr;
  Time span_lo = 0, span_hi = 0;  // the tasks' time bounds
  if (!tasks_.empty()) {
    span_lo = tasks_.front().start_time();
    span_hi = tasks_.front().end_time();
  }
  for (std::size_t ti = 0; ti < tasks_.size(); ++ti) {
    const Task& t = tasks_[ti];
    if (t.id().empty()) {
      throw ValidationError("task with empty id");
    }
    if (seen_before(ti)) {
      throw ValidationError("duplicate task id '" + t.id() + "'");
    }
    check_task_times(t.id(), t.start_time(), t.end_time());
    span_lo = std::min(span_lo, t.start_time());
    span_hi = std::max(span_hi, t.end_time());
    if (t.configurations().empty()) {
      throw ValidationError("task '" + t.id() + "' has no configuration");
    }
    for (const auto& cfg : t.configurations()) {
      if (cached_cluster == nullptr || cfg.cluster_id != cached_id) {
        auto it = cluster_index_.find(cfg.cluster_id);
        if (it == cluster_index_.end()) {
          throw ValidationError("task '" + t.id() +
                                "' references unknown cluster " +
                                std::to_string(cfg.cluster_id));
        }
        cached_id = cfg.cluster_id;
        cached_cluster = &clusters_[it->second];
      }
      const Cluster& cluster = *cached_cluster;
      if (cfg.hosts.empty()) {
        throw ValidationError("task '" + t.id() +
                              "' has a configuration without hosts");
      }
      // Disjoint used-host intervals [start, end), coalesced on insert. A
      // range overlapping earlier ones reports the same first duplicate
      // host the per-host scan found: the smallest overlapped index. A
      // single-range configuration (the common case by far) cannot repeat
      // a host, so the interval map is only kept for multi-range configs.
      std::map<int, int> used;
      for (const auto& range : cfg.hosts) {
        if (range.nb <= 0) {
          throw ValidationError("task '" + t.id() +
                                "' has a host range with nb <= 0");
        }
        if (range.start < 0 || range.start + range.nb > cluster.hosts) {
          throw ValidationError(
              "task '" + t.id() + "' host range [" +
              std::to_string(range.start) + ", " +
              std::to_string(range.start + range.nb) +
              ") exceeds cluster " + std::to_string(cluster.id) + " size " +
              std::to_string(cluster.hosts));
        }
        if (cfg.hosts.size() == 1) break;
        const int start = range.start;
        const int end = range.start + range.nb;
        int dup = -1;
        auto next = used.upper_bound(start);
        if (next != used.begin() && std::prev(next)->second > start) {
          dup = start;
        } else if (next != used.end() && next->first < end) {
          dup = next->first;
        }
        if (dup >= 0) {
          throw ValidationError("task '" + t.id() + "' lists host " +
                                std::to_string(dup) + " of cluster " +
                                std::to_string(cluster.id) + " twice");
        }
        int merged_start = start;
        int merged_end = end;
        if (next != used.begin() && std::prev(next)->second == start) {
          auto prev = std::prev(next);
          merged_start = prev->first;
          used.erase(prev);
        }
        if (next != used.end() && next->first == end) {
          merged_end = next->second;
          used.erase(next);
        }
        used[merged_start] = merged_end;
      }
    }
  }
  check_schedule_span(span_lo, span_hi);
  for (const Dependency& d : deps_) {
    if (d.src >= tasks_.size() || d.dst >= tasks_.size()) {
      throw ValidationError("dependency " + std::to_string(d.src) + " -> " +
                            std::to_string(d.dst) +
                            " references a task index out of range (" +
                            std::to_string(tasks_.size()) + " tasks)");
    }
    if (d.src >= d.dst) {
      throw ValidationError("dependency " + std::to_string(d.src) + " -> " +
                            std::to_string(d.dst) +
                            " must point forward in task order (src < dst)");
    }
    if (!(d.data >= 0)) {
      throw ValidationError("dependency " + std::to_string(d.src) + " -> " +
                            std::to_string(d.dst) + " has negative data " +
                            std::to_string(d.data));
    }
  }
}

}  // namespace jedule::model
