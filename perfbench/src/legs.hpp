#pragma once

// The two legs every workload runs over its own schedule:
//
//  * the export leg times the `jedule` CLI as a subprocess — `snapshot`,
//    then `render` from the text input and from the `.jbin` snapshot —
//    and checks every PNG against a --threads 1 reference;
//  * the live leg starts an in-process serve::Server, uploads the base
//    schedule, and drives a closed loop of one writer (append + full
//    render) and two readers (windowed render + tile) over loopback.
//
// The measured time of the two legs is interleaved in slices, so a burst
// of host noise lands on both legs' samples instead of on one leg.
//
// With a tracer (the --trace 1 run) both legs also attribute time to
// layers: the export leg replays the CLI pipeline in-process, one span
// per public layer function; the live leg replays every request against
// a shadow engine to split client latency into engine time and serve
// overhead.

#include <functional>
#include <string>
#include <vector>

#include "support.hpp"

namespace perfbench {

struct RunContext {
  const Workload* w = nullptr;
  std::uint64_t seed = 0;
  std::string jedule;     // CLI binary
  std::string input_dir;  // cached generated inputs
  std::string input;      // base schedule inside input_dir
  std::string work;       // per-run scratch directory
  std::string build_id;   // identifies the CLI build (reference cache key)
  int threads = 1;        // export/render threads (host CPU count)
  Results* res = nullptr;
  Tracer* tracer = nullptr;  // non-null in the traced run
};

/// Export leg. The constructor runs the set-up (`jedule snapshot`), makes
/// the --threads 1 reference and, in the traced run, does the in-process
/// replay and reports its metrics; slices of timed exports follow.
class ExportLeg {
 public:
  explicit ExportLeg(const RunContext& c);
  /// Exports, alternating text and `.jbin` input, until the leg's
  /// export time reaches `total_s` (at least one export per call).
  void run_until(double total_s);
  /// Reports the timed exports' metrics (nothing in the traced run).
  void finish();

 private:
  const RunContext& c_;
  std::string jbin_, ref_;
  std::vector<double> setup_s_, text_s_, jbin_s_;
  double spent_s_ = 0, rss_mb_ = 0;
};

/// Live leg with `budget_s` seconds of closed-loop traffic, cut into
/// `slices` equal parts; `between(i)` runs after slice i while the
/// server idles.
void live_leg(const RunContext& c, double budget_s, int slices,
              const std::function<void(int)>& between);

}  // namespace perfbench
