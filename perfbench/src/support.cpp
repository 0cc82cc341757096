#include "support.hpp"

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

std::vector<Workload> workloads(bool smoke) {
  // Sizes follow the paper's shapes: a wide 4096-host Thunder-like day
  // (Sec. VII), composite-heavy multi-cluster input with edges (Fig. 3),
  // and a narrow live trace that grows while it is viewed.
  Workload wide;
  wide.name = "wide_export";
  wide.tasks = smoke ? 3000 : 1000000;
  wide.cluster_hosts = {smoke ? 256 : 4096};
  wide.width_min = 1;
  wide.width_max = 64;
  wide.render_flags = {"--no-labels", "--width", "1000", "--height", "600"};
  wide.event_batch = smoke ? 40 : 2000;
  wide.export_share = 0.5;

  Workload overlap;
  overlap.name = "overlap_export";
  overlap.tasks = smoke ? 2000 : 100000;
  overlap.cluster_hosts = {256, 512, 128};
  overlap.width_min = 1;
  overlap.width_max = 8;
  overlap.overlay_depth = 5;
  overlap.cross_frac = 0.1;
  overlap.dep_frac = 0.25;
  overlap.xml_gz = true;
  overlap.render_flags = {"--edges", "auto"};
  overlap.event_batch = smoke ? 40 : 2000;
  overlap.export_share = 0.3;

  Workload live;
  live.name = "serve_live";
  live.tasks = smoke ? 3000 : 500000;
  live.cluster_hosts = {512};
  live.width_min = 1;
  live.width_max = 4;
  live.render_flags = {"--no-labels"};
  live.event_batch = smoke ? 40 : 2000;
  live.setup_is_upload = true;
  live.export_share = 0.3;
  return {wide, overlap, live};
}

double now_s() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("cannot write " + path);
}

std::uint64_t fnv1a(const std::string& bytes, std::uint64_t h) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

namespace {

// Forks and execs argv with stdout on `out_fd` and stderr on `err_fd`
// (both opened close-on-exec; dup2 clears the flag on the copies).
pid_t spawn(const std::vector<std::string>& argv, int out_fd, int err_fd) {
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::dup2(out_fd, 1);
    ::dup2(err_fd, 2);
    std::vector<char*> args;
    for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  return pid;
}

// Waits for `pid`; returns its exit code and fills `ru`.
int wait_exit(pid_t pid, rusage& ru) {
  int status = 0;
  while (::wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128;
}

std::string read_all(int fd, std::size_t keep_tail) {
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    out.append(buf, static_cast<std::size_t>(n));
    if (out.size() > 2 * keep_tail) out.erase(0, out.size() - keep_tail);
  }
  return out;
}

}  // namespace

ProcResult run_process(const std::vector<std::string>& argv) {
  // The command runs under `jbench spawn`, a freshly exec'd and therefore
  // small process: Linux carries a forking process's resident size into
  // its child's peak RSS, so forking the command from this (possibly
  // large) process would overstate it.
  std::vector<std::string> wrapped{"/proc/self/exe", "spawn"};
  wrapped.insert(wrapped.end(), argv.begin(), argv.end());
  int out_pipe[2], err_pipe[2];
  if (::pipe2(out_pipe, O_CLOEXEC) != 0 || ::pipe2(err_pipe, O_CLOEXEC) != 0) {
    throw std::runtime_error("pipe failed");
  }
  const pid_t pid = spawn(wrapped, out_pipe[1], err_pipe[1]);
  ::close(out_pipe[1]);
  ::close(err_pipe[1]);
  ProcResult r;
  r.stderr_tail = read_all(err_pipe[0], 4096);
  const std::string report = read_all(out_pipe[0], 4096);
  ::close(err_pipe[0]);
  ::close(out_pipe[0]);
  rusage ru{};
  const int spawn_exit = wait_exit(pid, ru);
  long maxrss_kb = 0;
  if (spawn_exit != 0 || std::sscanf(report.c_str(), "%d %lf %ld", &r.exit_code,
                                     &r.wall_s, &maxrss_kb) != 3) {
    r.exit_code = spawn_exit == 0 ? 128 : spawn_exit;
  }
  r.peak_rss_mb = static_cast<double>(maxrss_kb) / 1024.0;  // KiB -> MiB
  return r;
}

int spawn_main(const std::vector<std::string>& argv) {
  const int devnull = ::open("/dev/null", O_WRONLY | O_CLOEXEC);
  const double t0 = now_s();
  const pid_t pid = spawn(argv, devnull, 2);
  rusage ru{};
  const int code = wait_exit(pid, ru);
  std::printf("%d %.9f %ld\n", code, now_s() - t0, ru.ru_maxrss);
  return 0;
}

namespace {
std::uint32_t be32(const std::string& b, std::size_t at) {
  return (static_cast<std::uint32_t>(static_cast<unsigned char>(b[at])) << 24) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(b[at + 1])) << 16) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(b[at + 2])) << 8) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(b[at + 3]));
}
}  // namespace

bool valid_png(const std::string& b, int width, int height) {
  static const std::string kSig("\x89PNG\r\n\x1a\n", 8);
  if (b.size() < 8 + 25 + 12 || b.compare(0, 8, kSig) != 0) return false;
  if (b.compare(12, 4, "IHDR") != 0) return false;
  if (be32(b, 16) != static_cast<std::uint32_t>(width) ||
      be32(b, 20) != static_cast<std::uint32_t>(height)) {
    return false;
  }
  return b.compare(b.size() - 8, 4, "IEND") == 0;
}

int Tracer::begin(const std::string& name) {
  // This thread's open spans, innermost last; closed ones are popped
  // lazily, so the parent is the innermost span still open.
  static thread_local std::vector<std::pair<const Tracer*, int>> open;
  std::lock_guard<std::mutex> lock(mu_);
  while (!open.empty() &&
         (open.back().first != this ||
          spans_[static_cast<std::size_t>(open.back().second)].end != 0)) {
    open.pop_back();
  }
  Span s;
  s.name = name;
  s.start = now_s();
  s.parent = open.empty() ? -1 : open.back().second;
  spans_.push_back(s);
  const int id = static_cast<int>(spans_.size() - 1);
  open.emplace_back(this, id);
  return id;
}

void Tracer::end(int id) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end = now_s();
}

std::vector<Tracer::Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, double> Tracer::children_ms(int root) const {
  std::map<std::string, double> out;
  for (const auto& sp : spans()) {
    if (sp.parent == root) out[sp.name] += (sp.end - sp.start) * 1e3;
  }
  return out;
}

void Tracer::write_jsonl(const std::string& path) const {
  const auto s = spans();
  std::vector<double> child_ms(s.size(), 0);
  for (const auto& sp : s) {
    if (sp.parent >= 0) child_ms[static_cast<std::size_t>(sp.parent)] +=
        (sp.end - sp.start) * 1e3;
  }
  std::string out;
  const double origin = s.empty() ? 0 : s.front().start;
  char line[512];
  for (std::size_t i = 0; i < s.size(); ++i) {
    std::snprintf(line, sizeof(line),
                  "{\"run\":\"%s\",\"id\":%zu,\"name\":\"%s\",\"parent\":%d,"
                  "\"start_ms\":%.3f,\"end_ms\":%.3f,\"self_ms\":%.3f}\n",
                  run_id_.c_str(), i, s[i].name.c_str(), s[i].parent,
                  (s[i].start - origin) * 1e3, (s[i].end - origin) * 1e3,
                  (s[i].end - s[i].start) * 1e3 - child_ms[i]);
    out += line;
  }
  write_file(path, out);
}

double Scope::close() {
  if (open_) {
    open_ = false;
    ms_ = (now_s() - t0_) * 1e3;
    if (t_ != nullptr) t_->end(id_);
  }
  return ms_;
}

void Results::metric(const std::string& name, double value,
                     const std::string& unit, std::size_t samples) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_.push_back({name, value, unit, samples});
}

void Results::op(bool ok, const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << "jbench: FAILED " << what << "\n";
  }
}

void Results::print(bool correct) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  char buf[256];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    std::printf("%-28s %14.6f %s", m.name.c_str(), m.value, m.unit.c_str());
    if (m.samples > 0) std::printf(" (n=%zu)", m.samples);
    std::printf("\n");
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
