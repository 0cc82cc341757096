#pragma once

// Seeded input generator. The same (workload, seed) always yields the
// same bytes: integer-only arithmetic on a splitmix64 stream, times
// written as exact millisecond decimals.
//
// Tasks are placed in time slots of one second. Within a slot each
// cluster's hosts are filled left to right with tasks of uniform random
// width (a width that does not fit waits for the next slot, so widths
// stay uniform), which alone gives an overlap-free schedule. Optional
// twins overlap a base task on a sub-range of its hosts, cross-cluster
// tasks add a configuration on a second cluster, and dependencies point
// back to a recent task — all at constant rates, so the overlap depth is
// the same throughout the schedule.

#include <cstdint>
#include <string>

#include "support.hpp"

namespace perfbench {

/// Bumped whenever generated bytes change; part of the input cache key.
inline constexpr int kGeneratorVersion = 3;

/// Writes the base schedule (base.csv, or base.xml.gz for XML workloads)
/// and meta.txt (slot count) into `dir`; returns the schedule's path.
std::string generate_base(const Workload& w, std::uint64_t seed,
                          const std::string& dir);

/// Base schedule file name inside an input directory.
std::string base_name(const Workload& w);

/// The live leg's append batches: event lines (engine/events.hpp format)
/// in fresh slots after the base schedule, one batch per next() call.
class EventStream {
 public:
  EventStream(const Workload& w, std::uint64_t seed, long long base_slots);
  std::string next();
  /// End time (seconds) of the last slot handed out so far.
  double end_time() const { return static_cast<double>(slot_); }

 private:
  const Workload& w_;
  Rng rng_;
  long long slot_;
  std::size_t next_id_ = 0;
};

/// Slot count recorded in `dir`/meta.txt by generate_base.
long long read_base_slots(const std::string& dir);

}  // namespace perfbench
