#include <malloc.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <optional>

#include "jedule/engine/options.hpp"
#include "jedule/io/registry.hpp"
#include "jedule/io/snapshot.hpp"
#include "jedule/model/composite.hpp"
#include "jedule/model/edge_index.hpp"
#include "jedule/render/framebuffer.hpp"
#include "jedule/render/gantt.hpp"
#include "jedule/render/options.hpp"
#include "jedule/render/png.hpp"
#include "jedule/render/raster_canvas.hpp"
#include "jedule/util/parallel.hpp"
#include "legs.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using namespace jedule;

std::vector<std::string> render_argv(const RunContext& c,
                                     const std::string& in,
                                     const std::string& out, int threads) {
  std::vector<std::string> a{c.jedule, "render", in, "--out", out,
                             "--threads", std::to_string(threads)};
  a.insert(a.end(), c.w->render_flags.begin(), c.w->render_flags.end());
  return a;
}

struct Export {
  ProcResult proc;
  std::string bytes;
};

// One CLI export of `in`, checked byte for byte against `expected`.
Export cli_export(const RunContext& c, const std::string& in,
                  const std::string& expected) {
  Export e;
  const std::string out = c.work + "/export.png";
  fs::remove(out);
  e.proc = run_process(render_argv(c, in, out, c.threads));
  if (e.proc.exit_code == 0 && fs::exists(out)) e.bytes = read_file(out);
  c.res->op(e.proc.exit_code == 0 && e.bytes == expected, "export of " + in + " (exit " +
                      std::to_string(e.proc.exit_code) +
                      ", differs from the --threads 1 reference or failed) " +
                      e.proc.stderr_tail);
  return e;
}

// The --threads 1 export of the text input by this build, cached next to
// the inputs under the build id.
std::string reference(const RunContext& c) {
  const std::string ref = c.input_dir + "/ref-" + c.build_id + ".png";
  if (!fs::exists(ref)) {
    const std::string tmp = c.work + "/ref.png";
    const ProcResult p = run_process(render_argv(c, c.input, tmp, 1));
    c.res->op(p.exit_code == 0, "reference export: " + p.stderr_tail);
    if (p.exit_code != 0) return {};
    fs::rename(tmp, ref);
  }
  return read_file(ref);
}

// `jedule snapshot` of the text input; returns its wall time.
double snapshot(const RunContext& c, const std::string& jbin) {
  fs::remove(jbin);
  const ProcResult p =
      run_process({c.jedule, "snapshot", c.input, "--out", jbin, "--threads",
                   std::to_string(c.threads)});
  c.res->op(p.exit_code == 0 && fs::exists(jbin),
            "snapshot: " + p.stderr_tail);
  return p.wall_s;
}

render::RenderOptions cli_options(const RunContext& c) {
  std::map<std::string, std::string> flags;
  const auto& f = c.w->render_flags;
  for (std::size_t i = 0; i < f.size(); ++i) {
    const std::string name = f[i].substr(2);
    const bool valued = i + 1 < f.size() && f[i + 1].rfind("--", 0) != 0;
    flags[name] = valued ? f[++i] : "";
  }
  render::RenderOptions opt = engine::render_options_from(
      [&flags](const std::string& k) -> std::optional<std::string> {
        const auto it = flags.find(k);
        if (it == flags.end()) return std::nullopt;
        return it->second;
      });
  opt.threads = c.threads;
  return opt;
}

struct Pipeline {
  std::string png;
  int root = -1;  // span id of the whole export
  double wall_ms = 0;
  io::IngestStats ingest;
  std::size_t composites = 0;
  std::size_t boxes = 0;
  double host_slots = 0;
};

// The CLI's `render` pipeline, one span per call into a layer's public
// functions. Validation and composite synthesis, which layout_gantt does
// internally on the CLI path, run as their own stages and are handed to
// the layout — the bytes are the same.
Pipeline pipeline(const RunContext& c, const std::string& in, Tracer* t) {
  // Hand the previous pass's heap back first, so every pass starts from
  // the same fresh-memory state a CLI process does.
  ::malloc_trim(0);
  Pipeline o;
  const render::RenderOptions opt = cli_options(c);
  const int threads = c.threads;
  Scope root(t, "export");
  o.root = root.id();
  model::Schedule s;
  {
    Scope sp(t, in.ends_with(".jbin") ? "io.load_schedule" : "io.parse");
    io::IngestOptions iopt;
    iopt.threads = threads;
    s = io::load_schedule(in, "", iopt, &o.ingest);
  }
  {
    Scope sp(t, "model.validate");
    s.validate();
  }
  std::vector<model::Composite> comps;
  const bool synth = opt.style.show_composites && opt.style.type_filter.empty();
  if (synth) {
    Scope sp(t, "model.composites");
    comps = model::synthesize_composites(s, nullptr, threads);
  }
  std::optional<model::EdgeIndex> edges;
  if (!s.dependencies().empty()) {
    Scope sp(t, "model.edge_index");
    edges.emplace(s, threads);
  }
  render::GanttLayout layout;
  {
    Scope sp(t, "render.layout");
    render::LayoutHints hints;
    hints.edge_index = edges ? &*edges : nullptr;
    hints.composites = synth ? &comps : nullptr;
    hints.assume_validated = true;
    layout = render::layout_gantt(s, opt.colormap, opt.style, threads, hints);
  }
  render::Framebuffer fb(opt.style.width, opt.style.height);
  {
    // Band painting exactly as render::render_raster does it.
    Scope sp(t, "render.paint");
    const int bands = std::min(threads, fb.height());
    if (bands <= 1) {
      render::RasterCanvas canvas(fb);
      render::paint_gantt(layout, canvas, opt.style);
    } else {
      util::parallel_for(static_cast<std::size_t>(bands), threads,
                         [&](std::size_t b) {
        const auto nb = static_cast<std::size_t>(bands);
        const int y0 = static_cast<int>(fb.height() * b / nb);
        const int y1 = static_cast<int>(fb.height() * (b + 1) / nb);
        render::Framebuffer band(fb.width(), y1 - y0);
        render::RasterCanvas canvas(band, y0, fb.height());
        render::paint_gantt(layout, canvas, opt.style);
        fb.blit_rows(band, y0);
      });
    }
  }
  {
    Scope sp(t, "render.encode");
    o.png = render::encode_png(fb, threads);
  }
  {
    Scope sp(t, "io.write");
    write_file(c.work + "/traced.png", o.png);
  }
  o.wall_ms = root.close();
  o.composites = comps.size();
  o.boxes = layout.boxes.size();
  for (const auto& task : s.tasks()) o.host_slots += task.total_hosts();
  return o;
}

void traced_export(const RunContext& c, const std::string& ref,
                   const std::string& jbin) {
  Results& r = *c.res;
  Tracer* t = c.tracer;
  std::vector<double> cli_s;
  Export cli_text;
  for (int i = 0; i < 2; ++i) {
    cli_text = cli_export(c, c.input, ref);
    cli_s.push_back(cli_text.proc.wall_s);
  }
  const Export cli_jbin = cli_export(c, jbin, ref);

  // A first in-process pass pays one-time costs (lazy tables, fresh heap
  // pages) that a CLI process pays at every start; it is not timed.
  r.op(pipeline(c, c.input, nullptr).png == cli_text.bytes,
       "untraced in-process export differs");
  const Pipeline plain = pipeline(c, c.input, nullptr);
  r.op(plain.png == cli_text.bytes, "untraced in-process export differs");
  const Pipeline text = pipeline(c, c.input, t);
  r.op(text.png == cli_text.bytes,
       "traced export bytes differ from the CLI's output");

  double snapshot_load_ms;
  {
    Scope sp(t, "io.load_snapshot");
    const io::Snapshot snap = io::load_snapshot(jbin);
    snapshot_load_ms = sp.close();
  }
  const Pipeline from_jbin = pipeline(c, jbin, t);
  r.op(from_jbin.png == cli_jbin.bytes,
       "traced .jbin export bytes differ from the CLI's output");

  const auto stages = t->children_ms(text.root);
  double traced_sum = 0;
  for (const auto& [name, ms] : stages) traced_sum += ms;
  auto stage = [&stages](const char* name) {
    const auto it = stages.find(name);
    return it == stages.end() ? 0.0 : it->second;
  };
  r.metric("io.parse_ms", stage("io.parse"), "ms");
  r.metric("io.bytes", static_cast<double>(text.ingest.bytes), "bytes");
  r.metric("io.chunks", static_cast<double>(text.ingest.chunks), "count");
  r.metric("io.parallel", text.ingest.parallel ? 1 : 0, "flag");
  r.metric("io.snapshot_load_ms", snapshot_load_ms, "ms");
  r.metric("model.materialize_ms",
           t->children_ms(from_jbin.root)["io.load_schedule"] -
               snapshot_load_ms,
           "ms");
  r.metric("model.validate_ms", stage("model.validate"), "ms");
  r.metric("model.composites_ms", stage("model.composites"), "ms");
  r.metric("model.composites", static_cast<double>(text.composites), "count");
  r.metric("model.host_slots", text.host_slots, "count");
  r.metric("render.layout_ms", stage("render.layout"), "ms");
  r.metric("render.boxes", static_cast<double>(text.boxes), "count");
  r.metric("render.paint_ms", stage("render.paint"), "ms");
  r.metric("render.encode_ms", stage("render.encode"), "ms");
  r.metric("render.png_bytes", static_cast<double>(text.png.size()), "bytes");
  r.metric("cli.other_ms", median(cli_s) * 1e3 - traced_sum, "ms",
           cli_s.size());
  r.metric("trace.overhead_ms", text.wall_ms - plain.wall_ms, "ms");
}

}  // namespace

ExportLeg::ExportLeg(const RunContext& c)
    : c_(c), jbin_(c.work + "/base.jbin") {
  // Set-up is measured several times and reported as the median.
  const bool report_setup = !c.w->setup_is_upload && c.tracer == nullptr;
  for (int i = 0; i < (report_setup ? 3 : 1); ++i) {
    setup_s_.push_back(snapshot(c, jbin_));
  }
  ref_ = reference(c);
  // The traced run replays the CLI pipeline before the live leg, while
  // the process heap is still as fresh as a CLI process's.
  if (c.tracer != nullptr) traced_export(c, ref_, jbin_);
}

void ExportLeg::run_until(double total_s) {
  if (c_.tracer != nullptr) return;  // replayed once, in the constructor
  do {
    const bool from_text = text_s_.size() <= jbin_s_.size();
    const Export e = cli_export(c_, from_text ? c_.input : jbin_, ref_);
    (from_text ? text_s_ : jbin_s_).push_back(e.proc.wall_s);
    spent_s_ += e.proc.wall_s;
    rss_mb_ = std::max(rss_mb_, e.proc.peak_rss_mb);
  } while (spent_s_ < total_s);
}

void ExportLeg::finish() {
  if (c_.tracer != nullptr) return;
  // At least one export of each input, even on a tiny budget.
  while (jbin_s_.empty()) run_until(spent_s_);
  Results& r = *c_.res;
  if (!c_.w->setup_is_upload) {
    r.metric("setup_s", median(setup_s_), "s", setup_s_.size());
    r.metric("peak_rss_mb", rss_mb_, "MB");
  }
  r.metric("export_s", median(text_s_), "s", text_s_.size());
  r.metric("snapshot_export_s", median(jbin_s_), "s", jbin_s_.size());
}

}  // namespace perfbench
