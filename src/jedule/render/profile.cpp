#include "jedule/render/profile.hpp"

#include <algorithm>

#include "jedule/io/file.hpp"
#include "jedule/model/stats.hpp"
#include "jedule/render/gantt.hpp"
#include "jedule/render/png.hpp"
#include "jedule/render/ppm.hpp"
#include "jedule/render/raster_canvas.hpp"
#include "jedule/render/svg.hpp"
#include "jedule/util/error.hpp"
#include "jedule/util/strings.hpp"

namespace jedule::render {

namespace {
const color::Color kFrame{60, 60, 60, 255};
const color::Color kText{30, 30, 30, 255};
const color::Color kGrid{225, 225, 225, 255};
}  // namespace

void paint_profile(const model::Schedule& schedule, Canvas& canvas,
                   const ProfileStyle& style) {
  if (!style.assume_validated) schedule.validate();
  if (style.width < 160 || style.height < 80) {
    throw ArgumentError("profile: canvas smaller than 160x80");
  }

  const double left = 52;
  const double right = 14;
  const double top = 22;
  const double bottom = 30;
  const double plot_w = style.width - left - right;
  const double plot_h = style.height - top - bottom;

  canvas.fill_rect(0, 0, style.width, style.height, color::kWhite);

  const auto range = schedule.time_range();
  const int hosts = schedule.total_hosts();
  const int samples = style.samples > 0
                          ? style.samples
                          : std::max(16, static_cast<int>(plot_w));

  if (range && range->length() > 0 && hosts > 0) {
    const auto profile =
        model::concurrency_profile(schedule, samples, style.type_filter);
    const double dx = plot_w / samples;
    for (int i = 0; i < samples; ++i) {
      const double frac =
          static_cast<double>(profile[static_cast<std::size_t>(i)]) / hosts;
      const double bar_h = plot_h * frac;
      canvas.fill_rect(left + i * dx, top + plot_h - bar_h, dx + 0.5, bar_h,
                       style.fill);
    }

    // Horizontal reference lines at 25/50/75/100 %.
    for (int pct = 25; pct <= 100; pct += 25) {
      const double y = top + plot_h * (1.0 - pct / 100.0);
      canvas.line(left, y, left + plot_w, y, kGrid);
      const std::string label = std::to_string(pct * hosts / 100);
      canvas.text(left - canvas.text_width(label, 11) - 4,
                  y - canvas.text_height(11) / 2, label, kText, 11);
    }

    // Time ticks reuse the Gantt axis logic.
    for (double t : nice_ticks(*range, 8)) {
      const double x = left + (t - range->begin) / range->length() * plot_w;
      canvas.line(x, top + plot_h, x, top + plot_h + 4, kFrame);
      const std::string label = util::format_fixed(
          t, range->length() < 10 ? 2 : 0);
      canvas.text(x - canvas.text_width(label, 11) / 2, top + plot_h + 6,
                  label, kText, 11);
    }
  }

  canvas.stroke_rect(left, top, plot_w, plot_h, kFrame);
  canvas.text(left, top - canvas.text_height(11) - 0,
              "busy resources (of " + std::to_string(hosts) + ")", kText, 11);
  canvas.flush();
}

Framebuffer render_profile(const model::Schedule& schedule,
                           const ProfileStyle& style) {
  Framebuffer fb(style.width, style.height);
  RasterCanvas canvas(fb);
  paint_profile(schedule, canvas, style);
  return fb;
}

void export_profile(const model::Schedule& schedule,
                    const ProfileStyle& style, const std::string& path) {
  const std::string lower = util::to_lower(path);
  if (util::ends_with(lower, ".png")) {
    save_png(render_profile(schedule, style), path);
  } else if (util::ends_with(lower, ".ppm")) {
    save_ppm(render_profile(schedule, style), path);
  } else if (util::ends_with(lower, ".svg")) {
    SvgCanvas canvas(style.width, style.height);
    paint_profile(schedule, canvas, style);
    io::write_file(path, canvas.finish());
  } else {
    throw ArgumentError("profile export supports .png, .ppm and .svg");
  }
}

}  // namespace jedule::render
