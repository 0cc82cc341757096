#include "gen.hpp"

#include <zlib.h>

#include <stdexcept>
#include <vector>

namespace perfbench {

namespace {

constexpr long long kSlotMs = 1000;

struct Range {
  int cluster = 0;
  int start = 0;
  int nb = 1;
};

struct Task {
  long long start_ms = 0, end_ms = 0;
  bool transfer = false;
  std::vector<Range> configs;
  long long dep = -1;  // index of the source task, -1 for none
};

// Fills slots with tasks, keeping per-cluster pending widths so every
// drawn width is eventually placed unchanged.
class SlotFiller {
 public:
  SlotFiller(const Workload& w, Rng& rng) : w_(w), rng_(rng) {
    pending_.assign(w.cluster_hosts.size(), 0);
  }

  // Appends the tasks of `slot` for every cluster.
  void fill(long long slot, bool extras, std::vector<Task>& out) {
    const long long t0 = slot * kSlotMs;
    for (std::size_t c = 0; c < w_.cluster_hosts.size(); ++c) {
      const int hosts = w_.cluster_hosts[c];
      int pos = static_cast<int>(rng_.range(0, 3));
      for (;;) {
        int& width = pending_[c];
        if (width == 0) {
          width = static_cast<int>(rng_.range(w_.width_min, w_.width_max));
        }
        if (pos + width > hosts) break;
        Task t;
        t.start_ms = t0 + rng_.range(0, 200);
        t.end_ms = t0 + 300 + rng_.range(0, 690);
        t.transfer = rng_.chance(0.2);
        t.configs.push_back({static_cast<int>(c), pos, width});
        pos += width + static_cast<int>(rng_.range(0, 2));
        width = 0;
        const Range base = t.configs.front();
        const long long s = t.start_ms, e = t.end_ms;
        push(std::move(t), extras, out);
        for (int d = 0; d < w_.overlay_depth; ++d) {
          // Overlaps its base task in time on a sub-range of its hosts.
          Task o;
          o.start_ms = s + rng_.range(1, e - s - 1);
          o.end_ms = std::min(o.start_ms + rng_.range(50, 600), t0 + kSlotMs - 1);
          o.transfer = rng_.chance(0.5);
          const int nb = static_cast<int>(rng_.range(1, base.nb));
          o.configs.push_back(
              {base.cluster,
               base.start + static_cast<int>(rng_.range(0, base.nb - nb)), nb});
          push(std::move(o), extras, out);
        }
      }
    }
  }

 private:
  // Appends `t`, first giving it a second-cluster configuration at the
  // workload's cross-cluster rate (base schedules only).
  void push(Task t, bool extras, std::vector<Task>& out) {
    const auto clusters = static_cast<long long>(w_.cluster_hosts.size());
    if (extras && w_.cross_frac > 0 && clusters > 1 &&
        rng_.chance(w_.cross_frac)) {
      const auto other = static_cast<std::size_t>(
          (t.configs.front().cluster + rng_.range(1, clusters - 1)) % clusters);
      const int hosts = w_.cluster_hosts[other];
      const int nb = static_cast<int>(rng_.range(w_.width_min, w_.width_max));
      t.configs.push_back({static_cast<int>(other),
                           static_cast<int>(rng_.range(0, hosts - nb)), nb});
    }
    out.push_back(std::move(t));
  }

  const Workload& w_;
  Rng& rng_;
  std::vector<int> pending_;
};

void put_ms(std::string& out, long long ms) {
  out += std::to_string(ms / 1000);
  out += '.';
  const long long frac = ms % 1000;
  if (frac < 100) out += '0';
  if (frac < 10) out += '0';
  out += std::to_string(frac);
}

const char* type_of(const Task& t) {
  return t.transfer ? "transfer" : "computation";
}

std::string hostspec(const Range& r) {
  std::string s = std::to_string(r.cluster) + ":" + std::to_string(r.start);
  if (r.nb > 1) s += "-" + std::to_string(r.start + r.nb - 1);
  return s;
}

std::string to_csv(const Workload& w, const std::vector<Task>& tasks) {
  std::string out;
  out.reserve(tasks.size() * 40);
  for (std::size_t c = 0; c < w.cluster_hosts.size(); ++c) {
    out += "!cluster," + std::to_string(c) + ",cluster-" + std::to_string(c) +
           "," + std::to_string(w.cluster_hosts[c]) + "\n";
  }
  out += "!meta,workload," + w.name + "\n";
  out += "task_id,type,start,end,allocs\n";
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const Task& t = tasks[i];
    out += std::to_string(i + 1);
    out += ',';
    out += type_of(t);
    out += ',';
    put_ms(out, t.start_ms);
    out += ',';
    put_ms(out, t.end_ms);
    out += ',';
    for (std::size_t k = 0; k < t.configs.size(); ++k) {
      if (k) out += '|';
      out += hostspec(t.configs[k]);
    }
    out += '\n';
  }
  return out;
}

std::string to_xml(const Workload& w, const std::vector<Task>& tasks) {
  std::string out;
  out.reserve(tasks.size() * 700);
  out += "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<jedule version=\"1.0\">\n";
  out += "  <jedule_meta>\n    <meta name=\"workload\" value=\"" + w.name +
         "\"/>\n  </jedule_meta>\n  <platform>\n";
  for (std::size_t c = 0; c < w.cluster_hosts.size(); ++c) {
    out += "    <cluster id=\"" + std::to_string(c) + "\" name=\"cluster-" +
           std::to_string(c) + "\" hosts=\"" +
           std::to_string(w.cluster_hosts[c]) + "\"/>\n";
  }
  out += "  </platform>\n  <node_infos>\n";
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const Task& t = tasks[i];
    out += "    <node_statistics>\n      <node_property name=\"id\" value=\"";
    out += std::to_string(i + 1);
    out += "\"/>\n      <node_property name=\"type\" value=\"";
    out += type_of(t);
    out += "\"/>\n      <node_property name=\"start_time\" value=\"";
    put_ms(out, t.start_ms);
    out += "\"/>\n      <node_property name=\"end_time\" value=\"";
    put_ms(out, t.end_ms);
    out += "\"/>\n";
    for (const Range& r : t.configs) {
      out += "      <configuration>\n        <conf_property name=\"cluster_id\" value=\"";
      out += std::to_string(r.cluster);
      out += "\"/>\n        <conf_property name=\"host_nb\" value=\"";
      out += std::to_string(r.nb);
      out += "\"/>\n        <host_lists>\n          <hosts start=\"";
      out += std::to_string(r.start);
      out += "\" nb=\"";
      out += std::to_string(r.nb);
      out += "\"/>\n        </host_lists>\n      </configuration>\n";
    }
    out += "    </node_statistics>\n";
  }
  out += "  </node_infos>\n";
  bool any_dep = false;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (tasks[i].dep < 0) continue;
    if (!any_dep) out += "  <precedences>\n";
    any_dep = true;
    out += "    <precedence src=\"" + std::to_string(tasks[i].dep + 1) +
           "\" dst=\"" + std::to_string(i + 1) + "\"/>\n";
  }
  if (any_dep) out += "  </precedences>\n";
  out += "</jedule>\n";
  return out;
}

// gzip member via zlib (level 6, no name, mtime 0): deterministic bytes.
std::string gzip(const std::string& in) {
  z_stream z{};
  if (deflateInit2(&z, 6, Z_DEFLATED, 15 + 16, 8, Z_DEFAULT_STRATEGY) != Z_OK) {
    throw std::runtime_error("deflateInit2 failed");
  }
  std::string out(deflateBound(&z, in.size()), '\0');
  z.next_in = reinterpret_cast<Bytef*>(const_cast<char*>(in.data()));
  z.avail_in = static_cast<uInt>(in.size());
  z.next_out = reinterpret_cast<Bytef*>(out.data());
  z.avail_out = static_cast<uInt>(out.size());
  const int rc = deflate(&z, Z_FINISH);
  out.resize(z.total_out);
  deflateEnd(&z);
  if (rc != Z_STREAM_END) throw std::runtime_error("deflate failed");
  return out;
}

}  // namespace

std::string base_name(const Workload& w) {
  return w.xml_gz ? "base.xml.gz" : "base.csv";
}

std::string generate_base(const Workload& w, std::uint64_t seed,
                          const std::string& dir) {
  Rng rng(seed * 0x100000001b3ull + 1);
  SlotFiller filler(w, rng);
  std::vector<Task> tasks;
  tasks.reserve(w.tasks + 64);
  long long slot = 0;
  while (tasks.size() < w.tasks) filler.fill(slot++, true, tasks);
  tasks.resize(w.tasks);
  if (w.dep_frac > 0) {
    for (std::size_t i = 1; i < tasks.size(); ++i) {
      if (!rng.chance(w.dep_frac)) continue;
      const auto back = rng.range(1, std::min<long long>(static_cast<long long>(i), 64));
      tasks[i].dep = static_cast<long long>(i) - back;
    }
  }
  const std::string path = dir + "/" + base_name(w);
  write_file(path, w.xml_gz ? gzip(to_xml(w, tasks)) : to_csv(w, tasks));
  write_file(dir + "/meta.txt", std::to_string(slot) + "\n");
  return path;
}

long long read_base_slots(const std::string& dir) {
  return std::stoll(read_file(dir + "/meta.txt"));
}

EventStream::EventStream(const Workload& w, std::uint64_t seed,
                         long long base_slots)
    : w_(w), rng_(seed * 0x100000001b3ull + 2), slot_(base_slots) {}

std::string EventStream::next() {
  // Events are single-configuration tasks: no cross-cluster extras.
  SlotFiller filler(w_, rng_);
  std::vector<Task> tasks;
  while (tasks.size() < w_.event_batch) filler.fill(slot_++, false, tasks);
  tasks.resize(w_.event_batch);
  std::string out;
  for (const Task& t : tasks) {
    out += "e" + std::to_string(next_id_++) + ",";
    out += type_of(t);
    out += ',';
    put_ms(out, t.start_ms);
    out += ',';
    put_ms(out, t.end_ms);
    out += ',' + hostspec(t.configs.front()) + '\n';
  }
  return out;
}

}  // namespace perfbench
