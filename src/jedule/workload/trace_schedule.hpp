#pragma once

// Conversion of an SWF job trace into a displayable schedule (paper
// Sec. VII). SWF records *how many* processors a job used but not *which*,
// so the converter reconstructs a plausible placement by replaying the jobs
// through a first-fit node allocator — exactly what a bird's-eye workload
// view needs (the visual structure depends on sizes and times, not on the
// identity of the nodes).

#include <string>

#include "jedule/io/swf.hpp"
#include "jedule/model/schedule.hpp"

namespace jedule::workload {

struct TraceScheduleOptions {
  std::string cluster_name = "cluster";

  /// Nodes [0, reserved_nodes) never receive jobs (login/debug nodes; the
  /// Thunder trace reserves 20, visible in paper Fig. 13 as an empty band).
  int reserved_nodes = 0;

  /// Total nodes; 0 = use the trace's MaxProcs/MaxNodes header.
  int total_nodes = 0;

  /// Keep only jobs that *finish* inside [window_begin, window_end);
  /// disabled when window_end <= window_begin. (The paper selects "all jobs
  /// that finished on 02/02".)
  double window_begin = 0;
  double window_end = 0;

  /// Skip jobs with nonpositive runtime or processor count (trace noise).
  bool drop_malformed = true;

  /// Prefer a contiguous node range; fall back to scattered free nodes.
  bool prefer_contiguous = true;

  /// Worker threads for the final Schedule::validate (the placement replay
  /// itself is serial). The result does not depend on it.
  int threads = 1;
};

struct TraceScheduleResult {
  model::Schedule schedule;

  /// Jobs that could not be placed without overlapping an earlier job
  /// (inconsistent traces); they are placed anyway on the least-loaded
  /// nodes, and counted here.
  int overlapped_jobs = 0;

  int dropped_jobs = 0;
};

/// Converts `trace` to a schedule. Each job becomes one task of type "job"
/// with properties "user", "status", "queue".
TraceScheduleResult trace_to_schedule(const io::SwfTrace& trace,
                                      const TraceScheduleOptions& options = {});

}  // namespace jedule::workload
