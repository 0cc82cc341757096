// Task-type filtering across the stack: layout, interactive session, CLI
// style plumbing (paper Sec. II.B: "A user might only be interested in a
// certain task type"; conclusions: "filtering").

#include <gtest/gtest.h>

#include "jedule/interactive/session.hpp"
#include "jedule/model/builder.hpp"
#include "jedule/render/gantt.hpp"

namespace jedule::render {
namespace {

model::Schedule mixed_schedule() {
  return model::ScheduleBuilder()
      .cluster(0, "c", 4)
      .task("c1", "computation", 0, 4)
      .on(0, 0, 4)
      .task("x1", "transfer", 3, 6)
      .on(0, 1, 2)
      .task("io1", "io", 5, 7)
      .on(0, 0, 1)
      .build();
}

GanttStyle style_with_types(std::vector<std::string> types) {
  GanttStyle style;
  style.width = 600;
  style.height = 400;
  style.type_filter = std::move(types);
  return style;
}

TEST(TypeFilter, LayoutShowsOnlySelectedTypes) {
  const auto layout = layout_gantt(mixed_schedule(),
                                   color::standard_colormap(),
                                   style_with_types({"computation"}));
  const model::Schedule schedule = mixed_schedule();
  for (const auto& box : layout.boxes) {
    EXPECT_FALSE(box.composite);
    EXPECT_EQ(schedule.tasks()[box.task_index].type(), "computation");
  }
  ASSERT_NE(layout.composites, nullptr);
  EXPECT_TRUE(layout.composites->empty());  // no overlaps left
}

TEST(TypeFilter, CompositesComeFromFilteredTasksOnly) {
  // computation+transfer overlap on hosts 1-2 during [3,4); filtering to
  // those two types keeps the composite, filtering transfer out drops it.
  const auto both = layout_gantt(mixed_schedule(),
                                 color::standard_colormap(),
                                 style_with_types({"computation", "transfer"}));
  ASSERT_NE(both.composites, nullptr);
  EXPECT_FALSE(both.composites->empty());

  const auto one = layout_gantt(mixed_schedule(),
                                color::standard_colormap(),
                                style_with_types({"computation", "io"}));
  ASSERT_NE(one.composites, nullptr);
  EXPECT_TRUE(one.composites->empty());
}

TEST(TypeFilter, EmptyFilterShowsEverything) {
  const auto layout = layout_gantt(mixed_schedule(),
                                   color::standard_colormap(),
                                   style_with_types({}));
  // 3 tasks (4 boxes counting composite pieces).
  std::size_t plain = 0;
  for (const auto& box : layout.boxes) {
    if (!box.composite) ++plain;
  }
  EXPECT_EQ(plain, 3u);
}

TEST(TypeFilter, SessionCommand) {
  interactive::Session session(mixed_schedule(), color::standard_colormap());
  EXPECT_EQ(session.execute("types computation,io"),
            "showing 2 task type(s)");
  const std::string ascii = session.execute("ascii");
  EXPECT_EQ(ascii.find("=transfer"), std::string::npos);
  EXPECT_NE(ascii.find("=computation"), std::string::npos);
  EXPECT_EQ(session.execute("types all"), "showing all task types");
  EXPECT_NE(session.execute("ascii").find("=transfer"), std::string::npos);
}

}  // namespace
}  // namespace jedule::render
