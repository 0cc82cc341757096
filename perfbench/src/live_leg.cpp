#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <thread>

#include "gen.hpp"
#include "jedule/engine/events.hpp"
#include "jedule/engine/options.hpp"
#include "jedule/engine/render_service.hpp"
#include "jedule/engine/store.hpp"
#include "jedule/serve/server.hpp"
#include "legs.hpp"

namespace perfbench {

namespace {

using namespace jedule;

constexpr int kServerWorkers = 2;
// Bounds the store's memory: the writer's newest entry and the one the
// readers view (the lockstep rounds below never need an older one).
constexpr std::size_t kStoreEntries = 2;
constexpr int kTileZoom = 5;
constexpr int kWindowsPerRange = 32;  // window width = base range / 32
constexpr int kReaderDelayMs = 10;    // lets the writer's request in first
constexpr int kReaderRequests = 8;    // per reader and round

struct Reply {
  int status = 0;
  std::string body;
  double ms = 0;
};

// One HTTP/1.1 exchange over a fresh loopback connection (the server
// closes every connection after one response).
Reply http(int port, const std::string& method, const std::string& target,
           const std::string& body = "") {
  Reply r;
  const double t0 = now_s();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (fd < 0 ||
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (fd >= 0) ::close(fd);
    return r;
  }
  const std::string req = method + " " + target +
                          " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: " +
                          std::to_string(body.size()) +
                          "\r\nConnection: close\r\n\r\n" + body;
  for (std::size_t sent = 0; sent < req.size();) {
    const ssize_t n =
        ::send(fd, req.data() + sent, req.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string resp;
  char buf[1 << 16];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    resp.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  r.ms = (now_s() - t0) * 1e3;
  const std::size_t head_end = resp.find("\r\n\r\n");
  if (resp.rfind("HTTP/1.1 ", 0) != 0 || head_end == std::string::npos) {
    return r;
  }
  r.status = std::atoi(resp.c_str() + 9);
  r.body = resp.substr(head_end + 4);
  const std::size_t cl = resp.find("Content-Length: ");
  if (cl == std::string::npos || cl > head_end ||
      std::stoull(resp.substr(cl + 16)) != r.body.size()) {
    r.status = 0;  // truncated or malformed response
  }
  return r;
}

std::string json_string(const std::string& body, const std::string& key) {
  const std::string k = "\"" + key + "\":\"";
  const std::size_t at = body.find(k);
  if (at == std::string::npos) return {};
  const std::size_t begin = at + k.size();
  return body.substr(begin, body.find('"', begin) - begin);
}

long long json_int(const std::string& body, const std::string& key) {
  const std::string k = "\"" + key + "\":";
  const std::size_t at = body.find(k);
  return at == std::string::npos ? -1 : std::atoll(body.c_str() + at + k.size());
}

render::RenderOptions query_options(const std::optional<std::string>& window,
                                    int threads) {
  render::RenderOptions opt = engine::render_options_from(
      [&window](const std::string& k) -> std::optional<std::string> {
        if (k == "window") return window;
        return std::nullopt;
      },
      /*allow_cmap_file=*/false);
  opt.threads = threads;
  return opt;
}

// Client latencies of one endpoint; in the traced run also the shadow
// engine's time for each replayed request and the difference of the two.
struct Samples {
  std::mutex mu;
  std::vector<double> client_ms;
  std::vector<double> overhead_ms;  // client minus engine, traced run
  std::vector<double> engine_ms;
  void add(double client, std::optional<double> engine) {
    std::lock_guard<std::mutex> lock(mu);
    client_ms.push_back(client);
    if (engine) {
      engine_ms.push_back(*engine);
      overhead_ms.push_back(client - *engine);
    }
  }
};

// The traced run's shadow engine: its own store and render service fed
// the same operations as the server, so the engine time of every request
// is measured on an identical, equally cold object graph. Requests are
// replayed one at a time when their round ends, in the order they were
// made, so the engine time is free of the round's contention.
struct Shadow {
  engine::ScheduleStore store;
  engine::RenderService renders;
  Shadow(const engine::ScheduleStore::Options& s,
         const engine::RenderService::Options& r)
      : store(s), renders(r) {}
};

}  // namespace

void live_leg(const RunContext& c, double budget_s, int slices,
              const std::function<void(int)>& between) {
  Results& r = *c.res;
  Tracer* t = c.tracer;
  const Workload& w = *c.w;

  serve::Server::Options opt;
  opt.port = 0;
  opt.threads = kServerWorkers;
  opt.store.max_entries = kStoreEntries;
  // Each worker renders with an equal share of the host's CPUs.
  opt.render.threads = std::max(1, c.threads / kServerWorkers);

  const int threads = opt.render.threads;
  const std::string upload = read_file(c.input);
  const std::string post_target = "/schedules?name=" + base_name(w);
  const bool report_setup = w.setup_is_upload && t == nullptr;

  // Set-up: server start until the base upload returns 201, measured
  // several times on fresh servers; the last server stays up.
  std::unique_ptr<serve::Server> server;
  std::vector<double> setup_s;
  Reply up;
  for (int i = 0; i < (report_setup ? 3 : 1); ++i) {
    if (server) server->stop();
    server.reset();
    const double t0 = now_s();
    server = std::make_unique<serve::Server>(opt);
    server->start();
    up = http(server->port(), "POST", post_target, upload);
    setup_s.push_back(now_s() - t0);
    r.op(up.status == 201, "upload answered " + std::to_string(up.status));
  }
  const int port = server->port();
  const std::string base_id = json_string(up.body, "id");
  const long long base_tasks = json_int(up.body, "tasks");
  r.op(base_tasks == static_cast<long long>(w.tasks),
       "upload reported " + std::to_string(base_tasks) + " tasks");

  std::unique_ptr<Shadow> shadow;
  Samples upload_s, render_s, tile_s, append_s, overview_s;
  if (t != nullptr) {
    shadow = std::make_unique<Shadow>(opt.store, opt.render);
    Scope sp(t, "engine.entry");
    auto entry = engine::parse_entry(upload, base_name(w));
    const double ms = sp.close();
    upload_s.add(up.ms, ms);
    shadow->store.put(std::move(entry));
  }

  const long long base_slots = read_base_slots(c.input_dir);
  const double window = static_cast<double>(base_slots) / kWindowsPerRange;
  EventStream stream(w, c.seed, base_slots);
  struct Entry {
    std::string id;
    long long tasks = 0;
    double end = 0;  // end time of the schedule, seconds
  };
  std::atomic<long long> requests{0};

  // Records a client sample; in the traced run the request's replay on
  // the shadow engine is queued and adds the sample when it runs.
  std::mutex pending_mu;
  std::vector<std::function<void()>> pending;
  auto record = [&](Samples* smp, double client_ms, const char* span,
                    std::function<bool()> call) {
    if (!shadow) {
      if (smp != nullptr) smp->add(client_ms, std::nullopt);
      return;
    }
    std::lock_guard<std::mutex> lock(pending_mu);
    pending.push_back([=, call = std::move(call)] {
      Scope sp(t, span);
      const bool ok = call();
      const double ms = sp.close();
      if (smp != nullptr) smp->add(client_ms, ok ? std::optional(ms) : std::nullopt);
    });
  };
  auto replay_pending = [&] {
    try {
      for (const auto& f : pending) f();
    } catch (const std::exception& e) {
      r.op(false, std::string("shadow replay: ") + e.what());
    }
    pending.clear();
  };

  // The writer's two steps: full render of `head`, or an append to it
  // that returns the new entry. `measured` selects whether the samples
  // count.
  auto overview = [&](const Entry& head, bool measured) {
    const Reply o = http(port, "GET", "/schedules/" + head.id + "/render.png");
    ++requests;
    r.op(o.status == 200 && valid_png(o.body, 1000, 600),
         "overview render answered " + std::to_string(o.status));
    record(measured ? &overview_s : nullptr, o.ms, "engine.overview",
           [&shadow, id = head.id, threads] {
             auto e = shadow->store.find(id);
             if (!e) return false;
             shadow->renders.render(e, query_options(std::nullopt, threads),
                                    "png");
             return true;
           });
  };
  auto append = [&](const Entry& head, bool measured) {
    const std::string events = stream.next();
    const Reply a =
        http(port, "POST", "/schedules/" + head.id + "/events", events);
    ++requests;
    const std::string next = json_string(a.body, "id");
    const long long tasks = json_int(a.body, "tasks");
    const bool ok = a.status == 201 && !next.empty() &&
                    tasks == head.tasks + static_cast<long long>(w.event_batch);
    r.op(ok, "append answered " + std::to_string(a.status) + " with " +
                 std::to_string(tasks) + " tasks");
    record(measured ? &append_s : nullptr, a.ms, "engine.append",
           [&shadow, id = head.id, events] {
             auto base = shadow->store.find(id);
             if (!base) return false;
             shadow->store.put(
                 engine::append_entry(base, engine::parse_event_lines(events)));
             return true;
           });
    return ok ? Entry{next, tasks, stream.end_time()} : head;
  };

  // Warm-up, not measured: the base's overview, as a viewer that opened
  // it before the trace started growing, and one append cycle, so the
  // store is full and every measured append evicts, as in steady state.
  Entry head{base_id, base_tasks, static_cast<double>(base_slots)};
  overview(head, false);
  head = append(head, false);
  overview(head, false);
  replay_pending();
  requests = 0;

  // The three connections run in lockstep rounds, so every run sees the
  // same mix of overlapping requests. In each round the writer appends
  // to the newest entry and then renders the result's overview, while
  // each reader makes kReaderRequests requests, alternating a window
  // render and a tile (the readers start on opposite kinds). The readers
  // start last, so with two workers the append never waits for a worker
  // and the overview waits for at most one reader request. Readers move
  // to the writer's entry in the round after its overview.
  Entry visible = head;
  bool stop = false;
  double deadline = 0;
  std::barrier sync(3, [&]() noexcept {
    replay_pending();
    visible = head;
    stop = now_s() >= deadline;
  });

  auto writer = [&] {
    while (!stop) {
      head = append(head, true);
      overview(head, true);
      sync.arrive_and_wait();
    }
  };

  long long renders[2] = {}, tiles[2] = {};  // per reader, across slices
  auto reader = [&](int which) {
    while (!stop) {
      std::this_thread::sleep_for(std::chrono::milliseconds(kReaderDelayMs));
      const Entry cur = visible;
      for (int j = 0; j < kReaderRequests; ++j) {
        if ((j + which) % 2 == 0) {
          // Pan by half a window per render across the visible entry.
          const double span = std::max(cur.end - window, window);
          const double t0 = std::fmod(
              static_cast<double>(2 * renders[which]++ + which) * window / 2, span);
          char win[64];
          std::snprintf(win, sizeof(win), "%.3f:%.3f", t0, t0 + window);
          const Reply a = http(
              port, "GET", "/schedules/" + cur.id + "/render.png?window=" + win);
          ++requests;
          r.op(a.status == 200 && valid_png(a.body, 1000, 600),
               "window render answered " + std::to_string(a.status));
          record(&render_s, a.ms, "engine.render",
                 [&shadow, id = cur.id, query = std::string(win), threads] {
                   auto e = shadow->store.find(id);
                   if (!e) return false;
                   shadow->renders.render(e, query_options(query, threads), "png");
                   return true;
                 });
        } else {
          const long long x = (2 * tiles[which]++ + which) % (1ll << kTileZoom);
          const Reply b = http(port, "GET",
                               "/schedules/" + cur.id + "/tile?x=" +
                                   std::to_string(x) +
                                   "&zoom=" + std::to_string(kTileZoom));
          ++requests;
          r.op(b.status == 200 && valid_png(b.body, 1000, 600),
               "tile answered " + std::to_string(b.status));
          record(&tile_s, b.ms, "engine.tile", [&shadow, id = cur.id, x, threads] {
            auto e = shadow->store.find(id);
            if (!e) return false;
            shadow->renders.render_tile(e, x, -1, kTileZoom,
                                        query_options(std::nullopt, threads));
            return true;
          });
        }
      }
      sync.arrive_and_wait();
    }
  };

  // Each slice runs whole rounds until its share of the budget is spent;
  // the server idles while `between` runs.
  double elapsed = 0;
  for (int i = 0; i < slices; ++i) {
    const double start = now_s();
    deadline = start + budget_s / slices;
    stop = false;
    std::thread wt(writer);
    std::thread r0(reader, 0);
    std::thread r1(reader, 1);
    wt.join();
    r0.join();
    r1.join();
    elapsed += now_s() - start;
    between(i);
  }
  const auto stats = server->renders().stats();
  const auto counters = server->counters();
  server->stop();
  r.op(counters.rejected_429 == 0 && counters.errors == 0,
       "server shed or failed requests");

  if (t == nullptr) {
    if (report_setup) {
      rusage ru{};
      ::getrusage(RUSAGE_SELF, &ru);
      r.metric("setup_s", median(setup_s), "s", setup_s.size());
      r.metric("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB");
    }
    const auto& rq = render_s.client_ms;
    const auto& tq = tile_s.client_ms;
    r.metric("render_p50_ms", quantile(rq, 0.5), "ms", rq.size());
    r.metric("render_p90_ms", quantile(rq, 0.9), "ms", rq.size());
    r.metric("tile_p50_ms", quantile(tq, 0.5), "ms", tq.size());
    r.metric("tile_p90_ms", quantile(tq, 0.9), "ms", tq.size());
    r.metric("append_p50_ms", median(append_s.client_ms), "ms",
             append_s.client_ms.size());
    r.metric("overview_p50_ms", median(overview_s.client_ms), "ms",
             overview_s.client_ms.size());
    r.metric("req_per_s", static_cast<double>(requests.load()) / elapsed, "1/s",
             static_cast<std::size_t>(requests.load()));
    return;
  }
  auto ratio = [](std::uint64_t hits, std::uint64_t misses) {
    return hits + misses == 0 ? 0.0
                              : static_cast<double>(hits) /
                                    static_cast<double>(hits + misses);
  };
  for (const auto& [name, smp] :
       {std::pair{"entry", &upload_s}, {"append", &append_s},
        {"render", &render_s}, {"tile", &tile_s}, {"overview", &overview_s}}) {
    r.metric(std::string("engine.") + name + "_ms", median(smp->engine_ms),
             "ms", smp->engine_ms.size());
  }
  r.metric("engine.artifact_hit_ratio",
           ratio(stats.artifact_hits, stats.artifact_misses), "ratio");
  r.metric("render.tile_hit_ratio", ratio(stats.tile.hits, stats.tile.misses),
           "ratio");
  for (const auto& [name, smp] :
       {std::pair{"upload", &upload_s}, {"render", &render_s},
        {"tile", &tile_s}, {"append", &append_s}, {"overview", &overview_s}}) {
    r.metric(std::string("serve.overhead_ms.") + name,
             median(smp->overhead_ms), "ms", smp->overhead_ms.size());
  }
  r.metric("serve.rejected_429", static_cast<double>(counters.rejected_429),
           "count");
}

}  // namespace perfbench
