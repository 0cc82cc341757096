#pragma once

// Utilization-profile chart: busy resources as a step function of time —
// the quantitative companion of the Gantt view (the paper's related work,
// e.g. Alea2, plots "average system utilization [and] the number of
// running ... jobs"; this view makes the Fig. 4 idle holes and the Fig. 12
// sequential head directly measurable).

#include <string>
#include <vector>

#include "jedule/model/schedule.hpp"
#include "jedule/render/canvas.hpp"
#include "jedule/render/framebuffer.hpp"

namespace jedule::render {

struct ProfileStyle {
  int width = 800;
  int height = 300;

  /// Number of samples across the time axis (0 = one per pixel).
  int samples = 0;

  /// Count only tasks of these types as "busy" (empty = all). The task-
  /// pool case study uses {"computation"} so waiting time doesn't count.
  std::vector<std::string> type_filter;

  /// Fill color of the busy area.
  color::Color fill{70, 130, 200, 255};

  /// Skip Schedule::validate() (the caller validated once already).
  bool assume_validated = false;
};

/// Paints the profile chart onto any canvas backend.
void paint_profile(const model::Schedule& schedule, Canvas& canvas,
                   const ProfileStyle& style);

/// Renders to an in-memory raster.
Framebuffer render_profile(const model::Schedule& schedule,
                           const ProfileStyle& style = {});

/// Renders and writes `path` (.png, .ppm or .svg by extension).
void export_profile(const model::Schedule& schedule,
                    const ProfileStyle& style, const std::string& path);

}  // namespace jedule::render
