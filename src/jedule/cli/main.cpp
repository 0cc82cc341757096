// jedule — command-line mode of the schedule visualizer (paper Sec. II.D.2).
//
//   jedule render <schedule> --out out.png [options]   batch image export
//   jedule batch <schedules...> --out-dir DIR          concurrent multi-export
//   jedule view <schedule> [--script file]             scripted interactive mode
//   jedule info <schedule>                             summary + statistics
//   jedule convert <schedule> --out out.{xml,csv}      format conversion
//   jedule snapshot <schedule> --out out.jbin          binary snapshot (mmap reopen)
//   jedule formats                                     registered parsers/exporters
//   jedule serve [--port N]                            long-lived HTTP render daemon

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <thread>

#include "jedule/cli/args.hpp"
#include "jedule/cli/demos.hpp"
#include "jedule/color/colormap.hpp"
#include "jedule/engine/options.hpp"
#include "jedule/engine/store.hpp"
#include "jedule/io/snapshot.hpp"
#include "jedule/interactive/session.hpp"
#include "jedule/io/colormap_xml.hpp"
#include "jedule/io/csv.hpp"
#include "jedule/io/file.hpp"
#include "jedule/io/jedule_xml.hpp"
#include "jedule/io/registry.hpp"
#include "jedule/model/edge_index.hpp"
#include "jedule/model/stats.hpp"
#include "jedule/model/task_index.hpp"
#include "jedule/render/ascii.hpp"
#include "jedule/render/exporter.hpp"
#include "jedule/render/kernels.hpp"
#include "jedule/render/profile.hpp"
#include "jedule/serve/server.hpp"
#include "jedule/util/error.hpp"
#include "jedule/util/log.hpp"
#include "jedule/util/parallel.hpp"
#include "jedule/util/strings.hpp"
#include "jedule/workload/swf_parser.hpp"

namespace jedule::cli {
namespace {

/// Built at startup so the format lists always match the exporter registry
/// (a user-registered exporter shows up here automatically).
std::string usage() {
  const auto& registry = render::ExporterRegistry::instance();
  std::string u =
      "usage: jedule <command> [options]\n"
      "       jedule [<command>] --help   print this message\n"
      "\n"
      "commands:\n"
      "  render <schedule> --out FILE    export an image (" +
      registry.extension_summary() +
      ")\n"
      "  batch <schedule...> --out-dir DIR\n"
      "                                  export many schedules concurrently\n"
      "  view <schedule> [--script FILE] scripted interactive session\n"
      "  info <schedule>                 print schedule statistics\n"
      "  convert <schedule> --out FILE   convert between formats (.xml .csv)\n"
      "  snapshot <schedule> --out FILE  write a .jbin binary snapshot;\n"
      "                                  .jbin inputs reopen via mmap\n"
      "                                  everywhere a schedule is accepted\n"
      "  formats                         list registered parsers and exporters\n"
      "  demo [NAME] [--out FILE]        regenerate a case-study schedule\n"
      "                                  (no NAME lists the catalog)\n"
      "  profile <schedule> --out FILE   utilization-over-time chart\n"
      "                                  (.png .ppm .svg)\n"
      "  serve [--port N]                HTTP daemon: POST /schedules,\n"
      "                                  GET /schedules/{id}/render.{ext},\n"
      "                                  GET /schedules/{id}/tile, GET /stats\n"
      "\n"
      "render options:\n"
      "  --out FILE          output image (required)\n"
      "  --cmap FILE         colormap XML (default: built-in standard map)\n"
      "  --grayscale         collapse the colormap to grays\n"
      "  --width N           image width in pixels (default 1000)\n"
      "  --height N          image height in pixels (default 600)\n"
      "  --aligned           align cluster time axes (default: scaled)\n"
      "  --window T0:T1      restrict the time axis to [T0, T1]\n"
      "  --clusters IDS      comma-separated cluster ids to display\n"
      "  --types NAMES       comma-separated task types to display\n"
      "  --no-composites     do not synthesize overlap (composite) tasks\n"
      "  --no-labels         do not draw task-id labels\n"
      "  --hatch-composites  hatch composite rectangles (grayscale safety)\n"
      "  --highlight K=V     highlight tasks whose property K equals V\n"
      "  --lod auto|off|force\n"
      "                      level of detail: collapse sub-pixel tasks into\n"
      "                      density bins (default: off for exports, auto\n"
      "                      for interactive frames)\n"
      "  --edges auto|off|force\n"
      "                      dependency rendering: arrows while the visible\n"
      "                      edge count fits the per-column budget, a heat\n"
      "                      lane above it; force always bundles (default:\n"
      "                      auto — schedules without dependencies draw\n"
      "                      nothing). The critical path overlays in red.\n"
      "  --edge-density N    arrows-vs-heat budget in visible edges per\n"
      "                      pixel column (default 2)\n"
      "  --format NAME       force the input parser (see 'jedule formats')\n"
      "  --image-format NAME force the output format: " +
      util::join(registry.exporter_names(), " ") +
      "\n"
      "  --threads N         worker threads for parsing *and* rendering\n"
      "                      (default: JEDULE_THREADS env, else hardware\n"
      "                      concurrency); output is identical for every\n"
      "                      thread count\n"
      "  --ingest-stats      print a parse summary to stderr (time, MB/s,\n"
      "                      threads, chunks, gzip/mmap)\n"
      "  --verbose           log progress to stderr\n"
      "\n"
      "batch options: render options plus\n"
      "  --out-dir DIR       output directory (required; created if missing)\n"
      "  --ext EXT           output extension, e.g. .png (default .png)\n"
      "\n"
      "view options: render options plus\n"
      "  --script FILE       read commands from FILE instead of stdin\n"
      "  --frame-stats       render a frame after every command and print\n"
      "                      its timing and tile-cache counters\n"
      "  --follow            after the command stream ends, keep polling the\n"
      "                      file and append new tasks in O(delta) (CSV\n"
      "                      tails byte-for-byte; XML re-parses, appends\n"
      "                      the delta). Ctrl-C stops.\n"
      "  --poll-ms N         --follow poll interval (default 500)\n"
      "  --quiet-polls N     stop --follow after N consecutive polls with\n"
      "                      no growth (default 0: poll until SIGINT)\n"
      "\n"
      "serve options:\n"
      "  --host ADDR         listen address (default 127.0.0.1)\n"
      "  --port N            TCP port (default 8080; 0 picks a free port)\n"
      "  --threads N         request worker threads (default 4)\n"
      "  --queue N           admission queue depth; a full queue answers\n"
      "                      429 + Retry-After (default 32)\n"
      "  --deadline-ms N     per-request socket read/write deadline\n"
      "                      (default 30000)\n"
      "  --store-entries N   schedule-store LRU capacity (default 64)\n"
      "  --cache-mb N        rendered-artifact cache budget (default 128)\n"
      "\n"
      "output formats:\n";
  for (const auto* exporter : registry.exporters()) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-7s %-12s %s\n",
                  exporter->name().c_str(),
                  util::join(exporter->extensions(), " ").c_str(),
                  exporter->description().c_str());
    u += line;
  }
  return u;
}

/// --threads N feeds the chunked parallel parse (0 = JEDULE_THREADS env,
/// else hardware); the loaded schedule is identical at any thread count.
io::IngestOptions ingest_options_from_args(const Args& args) {
  io::IngestOptions opt;
  if (const auto t = args.value("threads")) {
    opt.threads = engine::parse_positive_int(*t, "threads");
  }
  return opt;
}

/// Shared schedule-loading path of the single-input commands: mmap-backed
/// chunked ingest, with the --ingest-stats one-liner on stderr.
model::Schedule load_schedule_from_args(const Args& args,
                                        const std::string& path) {
  io::IngestStats stats;
  model::Schedule schedule = io::load_schedule(
      path, args.value_or("format", ""), ingest_options_from_args(args),
      &stats);
  if (args.has("ingest-stats")) {
    std::cerr << io::ingest_summary(stats) << "\n";
  }
  return schedule;
}

int cmd_render(const Args& args) {
  if (args.positional().size() != 2) {
    throw ArgumentError("render: expected exactly one schedule file");
  }
  auto out = args.value("out");
  if (!out) throw ArgumentError("render: --out FILE is required");
  const auto schedule = load_schedule_from_args(args, args.positional()[1]);
  JED_INFO() << "loaded " << schedule.tasks().size() << " tasks from "
             << args.positional()[1];
  auto options = options_from_args(args);
  options.assume_validated = true;  // load_schedule returns it validated
  // A windowed export only touches the visible tasks; the index makes the
  // layout O(visible) instead of a full scan (same bytes either way).
  std::optional<model::TaskIndex> index;
  if (options.style.time_window) {
    index.emplace(schedule);
    options.task_index = &*index;
  }
  // Same deal for dependency edges: the index turns the per-panel edge
  // layout into window queries instead of full dependency scans.
  std::optional<model::EdgeIndex> edge_index;
  if (!schedule.dependencies().empty()) {
    edge_index.emplace(schedule, options.resolved_threads());
    options.edge_index = &*edge_index;
  }
  render::export_schedule(schedule, options, *out,
                          args.value_or("image-format", ""));
  JED_INFO() << "wrote " << *out << " (threads=" << options.resolved_threads()
             << ")";
  return 0;
}

int cmd_batch(const Args& args) {
  const auto& pos = args.positional();
  if (pos.size() < 2) {
    throw ArgumentError("batch: expected at least one schedule file");
  }
  auto out_dir = args.value("out-dir");
  if (!out_dir) throw ArgumentError("batch: --out-dir DIR is required");
  std::string ext = args.value_or("ext", ".png");
  if (!ext.empty() && ext[0] != '.') ext = "." + ext;
  const std::string image_format = args.value_or("image-format", "");
  const std::string parser_format = args.value_or("format", "");

  // Validate the output format before doing any work.
  const auto& registry = render::ExporterRegistry::instance();
  if (image_format.empty()) {
    if (registry.find_for_path("x" + ext) == nullptr) {
      throw ArgumentError("batch: no exporter for extension '" + ext +
                          "' (use " + registry.extension_summary() + ")");
    }
  } else if (registry.find(image_format) == nullptr) {
    throw ArgumentError("batch: unknown --image-format '" + image_format +
                        "' (available: " +
                        util::join(registry.exporter_names(), ", ") + ")");
  }

  const std::vector<std::string> inputs(pos.begin() + 1, pos.end());
  std::vector<std::string> outputs(inputs.size());
  std::map<std::string, std::string> stem_of;  // collision -> first input
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const std::string stem = std::filesystem::path(inputs[i]).stem().string();
    auto [it, inserted] = stem_of.emplace(stem, inputs[i]);
    if (!inserted) {
      throw ArgumentError("batch: '" + inputs[i] + "' and '" + it->second +
                          "' would both write " + stem + ext);
    }
    outputs[i] = (std::filesystem::path(*out_dir) / (stem + ext)).string();
  }
  std::filesystem::create_directories(*out_dir);

  // One shared worker pool: files are dealt to the workers, and whatever
  // concurrency is not consumed at the file level is spent inside each
  // render, so a single huge trace still uses every thread.
  render::RenderOptions options = options_from_args(args);
  options.assume_validated = true;  // load_schedule returns it validated
  const int threads = options.resolved_threads();
  const int file_workers =
      static_cast<int>(std::min<std::size_t>(inputs.size(),
                                             static_cast<std::size_t>(threads)));
  options.threads = std::max(1, threads / file_workers);

  // Per-file parses stay chunked too, with the per-render thread share.
  io::IngestOptions ingest_opt = ingest_options_from_args(args);
  ingest_opt.threads = options.threads;
  const bool ingest_stats = args.has("ingest-stats");

  std::vector<std::string> errors(inputs.size());
  util::parallel_for(inputs.size(), file_workers, [&](std::size_t i) {
    try {
      io::IngestStats stats;
      const auto schedule =
          io::load_schedule(inputs[i], parser_format, ingest_opt, &stats);
      if (ingest_stats) {
        std::cerr << inputs[i] + ": " + io::ingest_summary(stats) + "\n";
      }
      render::RenderOptions file_options = options;
      std::optional<model::TaskIndex> index;
      if (file_options.style.time_window) {
        index.emplace(schedule);
        file_options.task_index = &*index;
      }
      std::optional<model::EdgeIndex> edge_index;
      if (!schedule.dependencies().empty()) {
        edge_index.emplace(schedule, file_options.threads);
        file_options.edge_index = &*edge_index;
      }
      render::export_schedule(schedule, file_options, outputs[i],
                              image_format);
      JED_INFO() << "wrote " << outputs[i];
    } catch (const std::exception& e) {
      errors[i] = e.what();
    }
  });

  int failed = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (!errors[i].empty()) {
      std::cerr << "jedule: batch: " << inputs[i] << ": " << errors[i] << "\n";
      ++failed;
    }
  }
  std::cout << "batch: wrote " << (inputs.size() - static_cast<std::size_t>(failed))
            << "/" << inputs.size() << " files to " << *out_dir << " ("
            << file_workers << " file worker(s) x " << options.threads
            << " render thread(s))\n";
  return failed > 0 ? 1 : 0;
}

// Shared by the long-lived loops (serve, view --follow): SIGINT/SIGTERM
// only raise the flag; the drain happens on the main thread.
std::atomic<int> g_stop{0};

void stop_signal_handler(int) { g_stop.store(1); }

void install_stop_handler() {
  g_stop.store(0);
  struct sigaction sa = {};
  sa.sa_handler = stop_signal_handler;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
}

int cmd_view(const Args& args) {
  if (args.positional().size() != 2) {
    throw ArgumentError("view: expected exactly one schedule file");
  }
  interactive::Session session(args.positional()[1], colormap_from_args(args),
                               style_from_args(args));
  std::istringstream script_stream;
  std::istream* in = &std::cin;
  if (auto script = args.value("script")) {
    script_stream.str(io::read_file(*script));
    in = &script_stream;
  }
  // --frame-stats renders a frame through the tile cache after every view
  // command and reports its timing (cache hits/misses, box count, LOD).
  const bool frame_stats = args.has("frame-stats");
  std::string line;
  while (std::getline(*in, line)) {
    const auto trimmed = util::trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    if (trimmed == "quit" || trimmed == "exit") break;
    try {
      const std::string output = session.execute(std::string(trimmed));
      if (!output.empty()) std::cout << output << "\n";
      if (frame_stats && trimmed != "frame" && trimmed != "stats") {
        session.frame();
        std::cout << session.frame_log().last().summary() << "\n";
      }
    } catch (const Error& e) {
      std::cout << "error: " << e.what() << "\n";
    }
  }
  // --follow: after the command stream ends, keep polling the file for
  // appended tasks. Each poll with growth extends the entry in O(delta)
  // (CSV tails byte-for-byte; XML re-parses and appends the delta).
  if (args.has("follow")) {
    int poll_ms = 500;
    if (const auto p = args.value("poll-ms")) {
      poll_ms = engine::parse_positive_int(*p, "poll-ms");
    }
    long long quiet_limit = 0;  // 0: poll until SIGINT
    if (const auto q = args.value("quiet-polls")) {
      quiet_limit = engine::parse_positive_int(*q, "quiet-polls");
    }
    install_stop_handler();
    long long quiet = 0;
    while (g_stop.load() == 0) {
      const std::string status = session.follow();
      if (status == "no new tasks") {
        if (quiet_limit > 0 && ++quiet >= quiet_limit) break;
      } else {
        quiet = 0;
        std::cout << status << "\n" << std::flush;
        if (frame_stats) {
          session.frame();
          std::cout << session.frame_log().last().summary() << "\n";
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
    }
  }
  if (frame_stats && session.frame_log().frames() > 0) {
    std::cout << session.frame_log().summary() << "\n";
  }
  return 0;
}

int cmd_snapshot(const Args& args) {
  if (args.positional().size() != 2) {
    throw ArgumentError("snapshot: expected exactly one schedule file");
  }
  auto out = args.value("out");
  if (!out) throw ArgumentError("snapshot: --out FILE is required");
  if (!util::ends_with(*out, ".jbin")) {
    throw ArgumentError("snapshot: --out must end in .jbin");
  }
  // load_entry builds exactly the two structures the snapshot holds; a
  // .jbin input round-trips (load mmapped, rewrite) without ever
  // materializing the AoS schedule.
  const engine::EntryPtr entry =
      engine::load_entry(args.positional()[1], args.value_or("format", ""),
                         ingest_options_from_args(args));
  if (args.has("ingest-stats") && !entry->ingest.format.empty()) {
    std::cerr << io::ingest_summary(entry->ingest) << "\n";
  }
  io::save_snapshot(entry->arena(), entry->index, *out, &entry->edges);
  std::cout << "wrote " << *out << " ("
            << std::filesystem::file_size(*out) << " bytes, "
            << entry->task_count() << " task(s), id " << entry->id << ")\n";
  return 0;
}

int cmd_info(const Args& args) {
  if (args.positional().size() != 2) {
    throw ArgumentError("info: expected exactly one schedule file");
  }
  const auto schedule = load_schedule_from_args(args, args.positional()[1]);
  const auto stats = model::compute_stats(schedule);
  std::cout << "clusters:    " << schedule.clusters().size() << "\n";
  for (const auto& c : schedule.clusters()) {
    std::cout << "  [" << c.id << "] " << c.name << ": " << c.hosts
              << " hosts\n";
  }
  std::cout << "tasks:       " << stats.task_count << "\n";
  std::cout << "makespan:    " << util::format_fixed(stats.makespan, 3)
            << "\n";
  std::cout << "utilization: "
            << util::format_fixed(stats.utilization * 100.0, 1) << "%\n";
  std::cout << "idle time:   " << util::format_fixed(stats.idle_time, 3)
            << "\n";
  for (const auto& [type, area] : stats.area_by_type) {
    std::cout << "  area[" << type << "] = " << util::format_fixed(area, 3)
              << "\n";
  }
  if (!schedule.dependencies().empty()) {
    const model::EdgeIndex edges(schedule);
    // Max per-column density on a 1000-column grid over the full time
    // range — the quantity the renderer's arrows-vs-heat budget compares
    // against (accumulated with the heat-lane kernel itself).
    constexpr std::size_t kCols = 1000;
    std::size_t max_col = 0;
    const auto range = schedule.time_range();
    if (range && range->length() > 0) {
      const double len = range->length();
      for (const auto& c : schedule.clusters()) {
        std::vector<float> acc(kCols, 0.0f);
        edges.query(
            c.id, range->begin, range->end,
            [&](const model::EdgeIndex::Entry& e) {
              const double u0 = (std::max(e.begin, range->begin) -
                                 range->begin) /
                                len * static_cast<double>(kCols);
              const double u1 = (std::min(e.end, range->end) -
                                 range->begin) /
                                len * static_cast<double>(kCols);
              auto c0 = static_cast<long long>(std::floor(u0));
              auto c1 = static_cast<long long>(std::ceil(u1));
              if (c1 <= c0) c1 = c0 + 1;
              c0 = std::clamp<long long>(c0, 0, kCols);
              c1 = std::clamp<long long>(c1, 0, kCols);
              if (c1 > c0) {
                render::kernels::active().heat_accum(
                    acc.data() + c0, static_cast<std::size_t>(c1 - c0),
                    1.0f);
              }
            });
        for (const float v : acc) {
          max_col = std::max(max_col, static_cast<std::size_t>(v));
        }
      }
    }
    std::cout << "edges:       " << edges.edge_count() << "\n";
    std::cout << "  max edges/column: " << max_col
              << " (1000-column grid)\n";
    std::cout << "  critical path: " << edges.critical_path().size()
              << " task(s), length "
              << util::format_fixed(edges.critical_path_time(), 3) << "\n";
  }
  if (!schedule.meta().empty()) {
    std::cout << "meta:\n";
    for (const auto& [k, v] : schedule.meta()) {
      std::cout << "  " << k << " = " << v << "\n";
    }
  }
  return 0;
}

int cmd_convert(const Args& args) {
  if (args.positional().size() != 2) {
    throw ArgumentError("convert: expected exactly one schedule file");
  }
  auto out = args.value("out");
  if (!out) throw ArgumentError("convert: --out FILE is required");
  const auto schedule = load_schedule_from_args(args, args.positional()[1]);
  if (util::ends_with(*out, ".csv")) {
    io::save_schedule_csv(schedule, *out);
  } else if (util::ends_with(*out, ".xml") ||
             util::ends_with(*out, ".jed")) {
    io::save_schedule_xml(schedule, *out);
  } else {
    throw ArgumentError("convert: output must end in .xml, .jed or .csv");
  }
  return 0;
}

int cmd_profile(const Args& args) {
  if (args.positional().size() != 2) {
    throw ArgumentError("profile: expected exactly one schedule file");
  }
  auto out = args.value("out");
  if (!out) throw ArgumentError("profile: --out FILE is required");
  const auto schedule = load_schedule_from_args(args, args.positional()[1]);
  render::ProfileStyle style;
  style.assume_validated = true;  // load_schedule returns it validated
  if (auto w = args.value("width")) {
    auto v = util::parse_int(*w);
    if (!v || *v <= 0) throw ArgumentError("bad --width");
    style.width = static_cast<int>(*v);
  }
  if (auto h = args.value("height")) {
    auto v = util::parse_int(*h);
    if (!v || *v <= 0) throw ArgumentError("bad --height");
    style.height = static_cast<int>(*v);
  }
  if (auto types = args.value("types")) {
    style.type_filter = util::split(*types, ',');
  }
  render::export_profile(schedule, style, *out);
  return 0;
}

int cmd_demo(const Args& args) {
  if (args.positional().size() == 1) {
    for (const auto& [name, description] : demo_catalog()) {
      std::printf("  %-18s %s\n", name.c_str(), description.c_str());
    }
    return 0;
  }
  if (args.positional().size() != 2) {
    throw ArgumentError("demo: expected at most one demo name");
  }
  const auto schedule = make_demo(args.positional()[1]);
  auto options = options_from_args(args);
  if (args.positional()[1] == "thunder") {
    // The bird's-eye view needs the Fig. 13 styling to be readable.
    options.style.show_labels = false;
    options.style.show_composites = false;
    if (options.style.highlight_key.empty()) {
      options.style.highlight_key = "user";
      options.style.highlight_value = "6447";
    }
  }
  if (auto out = args.value("out")) {
    if (util::ends_with(*out, ".jed") || util::ends_with(*out, ".xml")) {
      io::save_schedule_xml(schedule, *out);
    } else if (util::ends_with(*out, ".csv")) {
      io::save_schedule_csv(schedule, *out);
    } else {
      render::export_schedule(schedule, options, *out,
                              args.value_or("image-format", ""));
    }
    std::cout << "wrote " << *out << "\n";
  } else {
    render::AsciiOptions ascii;
    ascii.type_filter = options.style.type_filter;
    std::cout << render::render_ascii(schedule, ascii);
  }
  return 0;
}

int cmd_serve(const Args& args) {
  serve::Server::Options opt;
  opt.host = args.value_or("host", "127.0.0.1");
  opt.port = 8080;
  if (const auto port = args.value("port")) {
    const auto v = util::parse_int(*port);
    if (!v || *v < 0 || *v > 65535) {
      throw ArgumentError("port must be in [0, 65535] (got '" + *port + "')");
    }
    opt.port = static_cast<int>(*v);
  }
  if (const auto t = args.value("threads")) {
    opt.threads = engine::parse_positive_int(*t, "threads");
  }
  if (const auto q = args.value("queue")) {
    opt.queue_capacity =
        static_cast<std::size_t>(engine::parse_positive_int(*q, "queue"));
  }
  if (const auto d = args.value("deadline-ms")) {
    opt.request_timeout_ms = engine::parse_positive_int(*d, "deadline-ms");
  }
  if (const auto e = args.value("store-entries")) {
    opt.store.max_entries =
        static_cast<std::size_t>(engine::parse_positive_int(*e, "store-entries"));
  }
  if (const auto mb = args.value("cache-mb")) {
    opt.render.artifact_bytes =
        static_cast<std::size_t>(engine::parse_positive_int(*mb, "cache-mb"))
        << 20;
  }

  serve::Server server(opt);
  server.start();
  std::cout << "jedule serve: listening on " << opt.host << ":"
            << server.port() << " (" << opt.threads << " worker(s), queue "
            << opt.queue_capacity << ")\n"
            << std::flush;

  install_stop_handler();

  while (g_stop.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::cout << "jedule serve: draining...\n" << std::flush;
  server.stop();
  const auto counters = server.counters();
  std::cout << "jedule serve: stopped (served " << counters.served
            << ", shed " << counters.rejected_429 << ")\n";
  return 0;
}

int cmd_formats() {
  std::cout << "input parsers:\n";
  for (const auto& name : io::ParserRegistry::instance().parser_names()) {
    std::cout << "  " << name << "\n";
  }
  std::cout << "output exporters:\n";
  for (const auto* e : render::ExporterRegistry::instance().exporters()) {
    std::printf("  %-7s %-12s %s\n", e->name().c_str(),
                util::join(e->extensions(), " ").c_str(),
                e->description().c_str());
  }
  return 0;
}

int run(int argc, char** argv) {
  // Register the SWF parser the same way a user extension would, so
  // `jedule render trace.swf` works out of the box.
  workload::register_swf_parser();

  const std::vector<std::string> value_flags = {
      "out",      "cmap",  "width",     "height", "window",
      "clusters", "types", "highlight", "format", "script",
      "threads",  "out-dir", "ext",     "image-format", "lod",
      "edges",    "edge-density",
      "host",     "port",  "queue",     "deadline-ms",  "store-entries",
      "cache-mb", "poll-ms", "quiet-polls"};
  const std::vector<std::string> known_flags = {
      "out",       "cmap",          "width",      "height",
      "window",    "clusters",      "types",      "highlight",  "format",
      "script",    "grayscale",     "aligned",    "no-composites",
      "no-labels", "hatch-composites", "verbose", "threads",
      "out-dir",   "ext",           "image-format", "lod", "frame-stats",
      "edges",     "edge-density",
      "host",      "port",          "queue",      "deadline-ms",
      "store-entries", "cache-mb",  "follow",     "poll-ms",
      "quiet-polls", "ingest-stats"};

  Args args(argc - 1, argv + 1, value_flags);
  if (args.has("help")) {
    std::cout << usage();
    return 0;
  }
  if (args.has("verbose")) util::set_log_level(util::LogLevel::kInfo);
  for (const auto& flag : args.unused(known_flags)) {
    throw ArgumentError("unknown flag --" + flag);
  }
  if (args.positional().empty()) {
    std::cerr << usage();
    return 2;
  }
  const std::string& command = args.positional()[0];
  if (command == "render") return cmd_render(args);
  if (command == "batch") return cmd_batch(args);
  if (command == "view") return cmd_view(args);
  if (command == "info") return cmd_info(args);
  if (command == "convert") return cmd_convert(args);
  if (command == "snapshot") return cmd_snapshot(args);
  if (command == "formats") return cmd_formats();
  if (command == "demo") return cmd_demo(args);
  if (command == "profile") return cmd_profile(args);
  if (command == "serve") return cmd_serve(args);
  std::cerr << "unknown command '" << command << "'\n\n" << usage();
  return 2;
}

}  // namespace
}  // namespace jedule::cli

int main(int argc, char** argv) {
  try {
    return jedule::cli::run(argc, argv);
  } catch (const std::exception& e) {
    // jedule::Error and everything else alike (std::bad_alloc on an absurd
    // declared size, filesystem errors): a message and exit 1, never abort.
    std::cerr << "jedule: " << e.what() << "\n";
    return 1;
  }
}
