// jbench — end-to-end benchmark for jedule (see perfbench/README.md).
//
//   jbench --workload NAME --seed N --seconds S --trace 0|1
//          --root DIR --jedule PATH [--commit C] [--smoke]
//   jbench gen --workload NAME --seed N --out DIR [--smoke]
//   jbench spawn PROGRAM ARGS...
//
// The first form runs one workload: it generates (or reuses) the seeded
// inputs, runs the export leg and the live leg, checks every output, and
// prints the metrics; the last stdout line is the result JSON. The `gen`
// form only writes the inputs (it runs as a child process so generation
// never shows in jbench's own peak RSS). `spawn` runs one command
// and reports its exit code, wall time and peak RSS (see run_process).

#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>

#include "gen.hpp"
#include "jedule/render/kernels.hpp"
#include "legs.hpp"

namespace fs = std::filesystem;
using namespace perfbench;

namespace {

#ifndef NDEBUG
constexpr bool kReleaseBuild = false;
#else
constexpr bool kReleaseBuild = true;
#endif

constexpr int kSlices = 4;  // measured slices per leg

// CPU time the hypervisor gave to other guests (the `steal` column of
// /proc/stat), summed over CPUs; printed so noisy runs can be told apart.
double host_steal_s() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[8] = {};
  in >> cpu;
  for (double& x : v) in >> x;
  return v[7] / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

int host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::map<std::string, std::string> parse_args(int argc, char** argv, int from) {
  std::map<std::string, std::string> a;
  for (int i = from; i < argc; ++i) {
    const std::string k = argv[i];
    if (k.rfind("--", 0) != 0) throw std::runtime_error("unexpected " + k);
    if (k == "--smoke") {
      a["smoke"] = "1";
    } else if (i + 1 < argc) {
      a[k.substr(2)] = argv[++i];
    } else {
      throw std::runtime_error(k + " needs a value");
    }
  }
  return a;
}

const Workload& find_workload(const std::vector<Workload>& all,
                              const std::string& name) {
  for (const auto& w : all) {
    if (w.name == name) return w;
  }
  throw std::runtime_error("unknown workload '" + name + "'");
}

std::string need(const std::map<std::string, std::string>& a,
                 const std::string& k) {
  const auto it = a.find(k);
  if (it == a.end()) throw std::runtime_error("missing --" + k);
  return it->second;
}

int run(int argc, char** argv) {
  if (argc > 2 && std::string(argv[1]) == "spawn") {
    return spawn_main(std::vector<std::string>(argv + 2, argv + argc));
  }
  if (argc > 1 && std::string(argv[1]) == "gen") {
    const auto a = parse_args(argc, argv, 2);
    const auto all = workloads(a.count("smoke") != 0);
    const std::string out = need(a, "out");
    fs::create_directories(out);
    generate_base(find_workload(all, need(a, "workload")),
                  std::stoull(need(a, "seed")), out);
    return 0;
  }

  const auto a = parse_args(argc, argv, 1);
  if (!kReleaseBuild) {
    std::cerr << "jbench: refusing to time a build without NDEBUG\n";
    return 2;
  }
  const bool smoke = a.count("smoke") != 0;
  const auto all = workloads(smoke);
  const Workload& w = find_workload(all, need(a, "workload"));
  const std::uint64_t seed = std::stoull(need(a, "seed"));
  const double seconds = std::stod(need(a, "seconds"));
  const bool traced = need(a, "trace") == "1";
  const std::string root = need(a, "root");
  const std::string self = fs::canonical("/proc/self/exe").string();

  RunContext c;
  Results results;
  c.w = &w;
  c.seed = seed;
  c.jedule = need(a, "jedule");
  c.threads = host_cpus();
  c.res = &results;
  const std::string tag = w.name + (smoke ? "-smoke" : "") + "-s" +
                          std::to_string(seed) + "-g" +
                          std::to_string(kGeneratorVersion);
  c.input_dir = root + "/.bench_build/inputs/" + tag;
  c.input = c.input_dir + "/" + base_name(w);
  c.work = root + "/.bench_build/work/" + tag + "-" + std::to_string(::getpid());
  fs::create_directories(c.work);

  // Inputs are cached per (workload, seed, generator version); generation
  // time is reported here and never enters a metric.
  if (!fs::exists(c.input_dir + "/done")) {
    const std::string tmp = c.input_dir + ".tmp" + std::to_string(::getpid());
    std::vector<std::string> gen{self, "gen", "--workload", w.name, "--seed",
                                 std::to_string(seed), "--out", tmp};
    if (smoke) gen.push_back("--smoke");
    const ProcResult g = run_process(gen);
    if (g.exit_code != 0) {
      throw std::runtime_error("input generation failed: " + g.stderr_tail);
    }
    write_file(tmp + "/done", "");
    fs::remove_all(c.input_dir);
    fs::rename(tmp, c.input_dir);
    std::printf("generated %s in %.2f s (not measured)\n", c.input_dir.c_str(),
                g.wall_s);
  }
  c.build_id = hex(fnv1a(read_file(c.jedule)));

  const std::string run_id =
      tag + "-t" + (traced ? "1" : "0") + "-p" + std::to_string(::getpid());
  std::unique_ptr<Tracer> tracer;
  if (traced) {
    tracer = std::make_unique<Tracer>(run_id);
    c.tracer = tracer.get();
  }
  std::printf(
      "context: {\"run\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
      "\"nproc\": %d, \"export_threads\": %d, \"reference_threads\": 1, "
      "\"server_workers\": 2, \"server_render_threads\": %d, "
      "\"client_connections\": 3, \"build_type\": \"release\", "
      "\"simd_kernel\": \"%s\", \"commit\": \"%s\", \"cli_build\": \"%s\", "
      "\"traced\": %s}\n",
      run_id.c_str(), w.name.c_str(), static_cast<unsigned long long>(seed),
      c.threads, c.threads, std::max(1, c.threads / 2),
      jedule::render::kernels::active().name,
      a.count("commit") ? a.at("commit").c_str() : "unknown",
      c.build_id.c_str(), traced ? "true" : "false");

  const double steal0 = host_steal_s();
  // Both legs set up first; then their measured time alternates in
  // slices, an export slice after each live slice.
  const double export_s = seconds * w.export_share;
  ExportLeg exports(c);
  live_leg(c, seconds - export_s, kSlices, [&](int i) {
    exports.run_until(export_s * (i + 1) / kSlices);
  });
  exports.finish();
  std::printf("host steal during the run: %.2f CPU-s\n", host_steal_s() - steal0);

  if (tracer) {
    const std::string dir = root + "/.bench_build/traces";
    fs::create_directories(dir);
    tracer->write_jsonl(dir + "/" + run_id + ".jsonl");
    std::printf("spans: %s/%s.jsonl\n", dir.c_str(), run_id.c_str());
  }
  fs::remove_all(c.work);
  const bool correct = results.failed() == 0;
  results.print(correct);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "jbench: " << e.what() << "\n";
    return 1;
  }
}
