#include "jedule/render/profile.hpp"

#include <gtest/gtest.h>

#include <cstdio>

#include "jedule/io/file.hpp"
#include "jedule/model/builder.hpp"
#include "jedule/util/error.hpp"
#include "jedule/xml/xml.hpp"

namespace jedule::render {
namespace {

model::Schedule step_schedule() {
  // 4 hosts busy in [0,5), 2 hosts in [5,10).
  return model::ScheduleBuilder()
      .cluster(0, "c", 4)
      .task("a", "computation", 0, 5)
      .on(0, 0, 4)
      .task("b", "computation", 5, 10)
      .on(0, 0, 2)
      .build();
}

int count_pixels(const Framebuffer& fb, color::Color c) {
  int n = 0;
  for (int y = 0; y < fb.height(); ++y) {
    for (int x = 0; x < fb.width(); ++x) {
      if (fb.pixel(x, y) == c) ++n;
    }
  }
  return n;
}

TEST(Profile, StepFunctionAreaMatchesUtilization) {
  ProfileStyle style;
  style.width = 400;
  style.height = 200;
  const Framebuffer fb = render_profile(step_schedule(), style);
  // Busy fraction over the run: (4*5 + 2*5) / (4*10) = 0.75 of the plot
  // area should be filled.
  const int filled = count_pixels(fb, style.fill);
  const double plot_area = (400 - 52 - 14) * (200 - 22 - 30);
  EXPECT_NEAR(filled / plot_area, 0.75, 0.05);
}

TEST(Profile, TypeFilterDropsWaitingTime) {
  auto s = model::ScheduleBuilder()
               .cluster(0, "c", 2)
               .task("w", "waiting", 0, 10)
               .on(0, 0, 2)
               .task("e", "computation", 0, 5)
               .on(0, 0, 1)
               .build();
  ProfileStyle all;
  all.width = 300;
  all.height = 150;
  ProfileStyle compute_only = all;
  compute_only.type_filter = {"computation"};
  const int filled_all = count_pixels(render_profile(s, all), all.fill);
  const int filled_compute =
      count_pixels(render_profile(s, compute_only), all.fill);
  EXPECT_LT(filled_compute, filled_all / 2);
}

TEST(Profile, EmptyScheduleStillDraws) {
  model::Schedule s;
  s.add_cluster(0, "c", 4);
  EXPECT_NO_THROW(render_profile(s));
}

TEST(Profile, Deterministic) {
  const auto s = step_schedule();
  EXPECT_TRUE(render_profile(s) == render_profile(s));
}

TEST(Profile, RejectsTinyCanvas) {
  ProfileStyle style;
  style.width = 10;
  EXPECT_THROW(render_profile(step_schedule(), style), ArgumentError);
}

TEST(Profile, ExportsAllSupportedFormats) {
  const auto s = step_schedule();
  ProfileStyle style;
  for (const char* ext : {"png", "ppm", "svg"}) {
    const std::string path =
        ::testing::TempDir() + "/profile_test." + ext;
    export_profile(s, style, path);
    const std::string bytes = io::read_file(path);
    EXPECT_GT(bytes.size(), 100u) << ext;
    std::remove(path.c_str());
  }
  EXPECT_THROW(export_profile(s, style, "/tmp/profile.pdf"), ArgumentError);
}

TEST(Profile, ValidatesUnlessTheCallerAlreadyDid) {
  model::Schedule s = step_schedule();
  s.mutable_tasks()[1].set_id("a");  // duplicate id, otherwise drawable
  EXPECT_THROW(render_profile(s), ValidationError);
  ProfileStyle trusted;
  trusted.assume_validated = true;
  EXPECT_TRUE(render_profile(s, trusted) == render_profile(step_schedule()));
}

TEST(Profile, SvgIsWellFormed) {
  const std::string path = ::testing::TempDir() + "/profile_wf.svg";
  export_profile(step_schedule(), ProfileStyle{}, path);
  EXPECT_NO_THROW(xml::parse(io::read_file(path)));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace jedule::render
