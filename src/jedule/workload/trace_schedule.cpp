#include "jedule/workload/trace_schedule.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "jedule/util/error.hpp"

namespace jedule::workload {

namespace {

using model::Configuration;
using model::HostRange;
using model::Task;

std::vector<HostRange> compress(std::vector<int>& nodes) {
  std::sort(nodes.begin(), nodes.end());
  std::vector<HostRange> ranges;
  for (int n : nodes) {
    if (!ranges.empty() && ranges.back().start + ranges.back().nb == n) {
      ++ranges.back().nb;
    } else {
      ranges.push_back(HostRange{n, 1});
    }
  }
  return ranges;
}

}  // namespace

TraceScheduleResult trace_to_schedule(const io::SwfTrace& trace,
                                      const TraceScheduleOptions& options) {
  TraceScheduleResult result;

  int total = options.total_nodes > 0 ? options.total_nodes
                                      : trace.max_procs();
  if (total <= 0) {
    throw ValidationError("trace declares no node count and has no jobs");
  }
  if (options.reserved_nodes < 0 || options.reserved_nodes >= total) {
    throw ArgumentError("reserved_nodes out of range");
  }

  result.schedule.add_cluster(0, options.cluster_name, total);

  // Jobs sorted by start time for the replay.
  std::vector<const io::SwfJob*> jobs;
  for (const auto& j : trace.jobs) {
    if (options.drop_malformed &&
        (j.run_time <= 0 || j.allocated_procs <= 0)) {
      ++result.dropped_jobs;
      continue;
    }
    if (options.window_end > options.window_begin) {
      if (j.end_time() < options.window_begin ||
          j.end_time() >= options.window_end) {
        ++result.dropped_jobs;
        continue;
      }
    }
    if (j.allocated_procs > total - options.reserved_nodes) {
      ++result.dropped_jobs;  // cannot fit even an empty machine
      continue;
    }
    jobs.push_back(&j);
  }
  std::sort(jobs.begin(), jobs.end(),
            [](const io::SwfJob* a, const io::SwfJob* b) {
              if (a->start_time() != b->start_time()) {
                return a->start_time() < b->start_time();
              }
              return a->job_id < b->job_id;
            });

  // free_at[n]: end time of the last job assigned to node n. Because jobs
  // are replayed in start order, node n is free for a job iff
  // free_at[n] <= job.start.
  std::vector<double> free_at(static_cast<std::size_t>(total), -1e300);

  for (const auto* j : jobs) {
    const double start = j->start_time();
    const double end = j->end_time();
    const int need = j->allocated_procs;

    std::vector<int> chosen;
    chosen.reserve(static_cast<std::size_t>(need));

    if (options.prefer_contiguous) {
      // First-fit contiguous run of `need` free nodes.
      int run_start = -1;
      int run_len = 0;
      for (int n = options.reserved_nodes; n < total; ++n) {
        if (free_at[static_cast<std::size_t>(n)] <= start) {
          if (run_len == 0) run_start = n;
          if (++run_len == need) break;
        } else {
          run_len = 0;
        }
      }
      if (run_len == need) {
        for (int n = run_start; n < run_start + need; ++n) chosen.push_back(n);
      }
    }
    if (chosen.empty()) {
      // Scattered: any free nodes, lowest index first.
      for (int n = options.reserved_nodes; n < total && (int)chosen.size() < need;
           ++n) {
        if (free_at[static_cast<std::size_t>(n)] <= start) chosen.push_back(n);
      }
    }
    if (static_cast<int>(chosen.size()) < need) {
      // Trace inconsistency (more processors in flight than the machine
      // has, e.g. clock skew): top up with the nodes that free earliest.
      ++result.overlapped_jobs;
      std::vector<int> busy;
      for (int n = options.reserved_nodes; n < total; ++n) {
        if (free_at[static_cast<std::size_t>(n)] > start) busy.push_back(n);
      }
      std::sort(busy.begin(), busy.end(), [&](int a, int b) {
        return free_at[static_cast<std::size_t>(a)] <
               free_at[static_cast<std::size_t>(b)];
      });
      for (int n : busy) {
        if (static_cast<int>(chosen.size()) == need) break;
        chosen.push_back(n);
      }
    }
    JED_ASSERT(static_cast<int>(chosen.size()) == need);

    for (int n : chosen) free_at[static_cast<std::size_t>(n)] = end;

    Task t(std::to_string(j->job_id), "job", start, end);
    Configuration cfg;
    cfg.cluster_id = 0;
    cfg.hosts = compress(chosen);
    t.add_configuration(std::move(cfg));
    t.set_property("user", std::to_string(j->user_id));
    t.set_property("status", std::to_string(j->status));
    t.set_property("queue", std::to_string(j->queue));
    result.schedule.add_task(std::move(t));
  }

  result.schedule.set_meta("source", "swf");
  result.schedule.set_meta("jobs", std::to_string(jobs.size()));
  result.schedule.validate(options.threads);
  return result;
}

}  // namespace jedule::workload
