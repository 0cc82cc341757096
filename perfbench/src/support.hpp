#pragma once

// Shared plumbing of jbench: workload shapes, a seeded RNG,
// clocks and order statistics, child processes with their peak RSS, the
// span recorder of the traced run, and the result accumulator that prints
// the final JSON line.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// One workload: the schedule shape the generator draws, the CLI flags
/// of its exports, and how its measured time is split between the export
/// leg (CLI subprocesses) and the live leg (in-process server).
struct Workload {
  std::string name;
  std::size_t tasks = 0;           // base schedule size
  std::vector<int> cluster_hosts;  // hosts per cluster
  int width_min = 1, width_max = 1;
  int overlay_depth = 0;    // overlapping twins per base task
  double cross_frac = 0;    // tasks with a second-cluster configuration
  double dep_frac = 0;      // tasks with one dependency edge
  bool xml_gz = false;      // gzip'd Jedule XML instead of CSV
  std::vector<std::string> render_flags;  // CLI export flags
  std::size_t event_batch = 2000;         // tasks per live append
  bool setup_is_upload = false;  // setup_s: upload (else `jedule snapshot`)
  double export_share = 0.5;     // share of --seconds spent exporting
};

/// The named workloads; `smoke` shrinks every size for the self-test.
std::vector<Workload> workloads(bool smoke);

/// splitmix64: tiny, seedable, identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform integer in [lo, hi].
  long long range(long long lo, long long hi) {
    return lo + static_cast<long long>(next() %
                                       static_cast<std::uint64_t>(hi - lo + 1));
  }
  /// True with probability p (resolution 1e-6).
  bool chance(double p) {
    return static_cast<double>(next() % 1000000) < p * 1e6;
  }

 private:
  std::uint64_t s_;
};

double now_s();  // monotonic seconds

/// Linear-interpolated quantile q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

std::string read_file(const std::string& path);
void write_file(const std::string& path, const std::string& bytes);
std::uint64_t fnv1a(const std::string& bytes,
                    std::uint64_t h = 1469598103934665603ull);

struct ProcResult {
  int exit_code = -1;
  double wall_s = 0;
  double peak_rss_mb = 0;
  std::string stderr_tail;
};

/// Runs argv[0] with the given arguments, waits for it, and reports its
/// wall time and peak RSS (wait4 rusage). stdout goes to /dev/null.
ProcResult run_process(const std::vector<std::string>& argv);

/// The `jbench spawn ARGV...` helper behind run_process: runs ARGV with
/// stdout on /dev/null and prints "exit wall_s peak_rss_kib".
int spawn_main(const std::vector<std::string>& argv);

/// Structural PNG check: signature, IHDR with the expected size, and a
/// final IEND chunk.
bool valid_png(const std::string& bytes, int width, int height);

/// Span recorder of the traced run. Spans carry name, start, end, parent
/// span and run id; they stay in memory and are written when the run ends.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0, end = 0;
    int parent = -1;  // index into spans(), -1 for a root
  };

  explicit Tracer(std::string run_id) : run_id_(std::move(run_id)) {}

  int begin(const std::string& name);  // parent: this thread's open span
  void end(int id);
  std::vector<Span> spans() const;

  /// Summed duration (ms) per name of the direct children of span `root`.
  std::map<std::string, double> children_ms(int root) const;

  /// One JSON object per line: name, start, end, parent, self_ms, run.
  void write_jsonl(const std::string& path) const;

 private:
  std::string run_id_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a null tracer records nothing.
class Scope {
 public:
  Scope(Tracer* t, const std::string& name)
      : t_(t), id_(t ? t->begin(name) : -1) {}
  ~Scope() { close(); }
  /// Ends the span early; returns its duration in ms.
  double close();
  int id() const { return id_; }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  int id_;
  double t0_ = now_s();
  bool open_ = true;
  double ms_ = 0;
};

/// Metrics plus the attempted/failed operation counts of one run.
class Results {
 public:
  /// `samples`: how many measurements a median or percentile came from
  /// (printed with the metric; 0 for single values and counts).
  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples = 0);
  /// Records an operation; a failed one also logs `what` to stderr.
  void op(bool ok, const std::string& what = "");
  std::uint64_t failed() const { return failed_; }
  /// Prints one "name value unit (n=samples)" line per metric and then
  /// the result JSON, as the last line of stdout.
  void print(bool correct) const;

 private:
  mutable std::mutex mu_;
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::size_t samples;
  };
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0, failed_ = 0;
};

}  // namespace perfbench
