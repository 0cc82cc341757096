// .jbin binary snapshots (DESIGN.md §4h): exact round-trips through
// serialize/parse and save/load (mmap), plus a corruption fuzz — any
// truncated, bit-flipped, wrong-version or wrong-endian file must be
// rejected with ParseError before a model object exists. Runs under the
// sanitize ctest label: a mapped-column overread would trip ASan here.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "jedule/io/file.hpp"
#include "jedule/io/jedule_xml.hpp"
#include "jedule/io/registry.hpp"
#include "jedule/io/snapshot.hpp"
#include "jedule/model/arena.hpp"
#include "jedule/model/builder.hpp"
#include "jedule/model/task_index.hpp"
#include "jedule/util/error.hpp"
#include "jedule/util/rng.hpp"

namespace jedule::io {
namespace {

using model::Schedule;
using model::ScheduleArena;
using model::TaskIndex;

Schedule sample_schedule(int tasks = 40) {
  util::Rng rng(5);
  model::ScheduleBuilder b;
  b.cluster(0, "c0", 16).cluster(1, "c1", 8);
  b.meta("algorithm", "HEFT").meta("trace", "unit");
  for (int i = 0; i < tasks; ++i) {
    const int cluster = i % 2;
    const int hosts = cluster == 0 ? 16 : 8;
    const int nb = 1 + i % 3;
    const double start = rng.uniform(0.0, 50.0);
    b.task("t" + std::to_string(i), i % 3 ? "computation" : "transfer",
           start, start + rng.uniform(0.1, 3.0))
        .on(cluster, i % (hosts - nb), nb);
    if (i % 7 == 0) b.property("user", std::to_string(i));
  }
  return b.build();
}

std::string snapshot_bytes(const Schedule& schedule) {
  const ScheduleArena arena(schedule);
  const TaskIndex index(schedule);
  return serialize_snapshot(arena, index);
}

Snapshot parse_copy(const std::string& bytes) {
  auto owner = std::make_shared<std::string>(bytes);
  return parse_snapshot(reinterpret_cast<const std::uint8_t*>(owner->data()),
                        owner->size(), owner, /*mapped_bytes=*/0);
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(Snapshot, SerializeParseRoundTrips) {
  const Schedule schedule = sample_schedule();
  const std::string bytes = snapshot_bytes(schedule);
  ASSERT_TRUE(is_snapshot(bytes));

  Snapshot snap = parse_copy(bytes);
  EXPECT_FALSE(snap.mapped);
  EXPECT_EQ(snap.file_bytes, bytes.size());
  EXPECT_EQ(snap.arena.task_count(), schedule.tasks().size());
  EXPECT_EQ(snap.arena.content_hash(), TaskIndex::hash_schedule(schedule));
  EXPECT_EQ(snap.index.content_hash(), snap.arena.content_hash());
  EXPECT_NO_THROW(snap.arena.validate_columns());
  // Materialization is byte-identical on the wire.
  EXPECT_EQ(write_schedule_xml(snap.arena.to_schedule()),
            write_schedule_xml(schedule));
  // Serializing the loaded pair reproduces the exact file bytes.
  EXPECT_EQ(serialize_snapshot(snap.arena, snap.index), bytes);
}

TEST(Snapshot, SaveLoadUsesTheMapping) {
  const Schedule schedule = sample_schedule();
  const ScheduleArena arena(schedule);
  const TaskIndex index(schedule);
  const std::string path = temp_path("jedule_snapshot_test.jbin");
  const auto before = snapshot_counters();
  save_snapshot(arena, index, path);

  Snapshot snap = load_snapshot(path);
  EXPECT_TRUE(snap.mapped);
  EXPECT_GT(snap.arena.mmap_bytes(), 0u);
  EXPECT_TRUE(snap.arena.mmap_backed());
  EXPECT_EQ(snap.arena.content_hash(), arena.content_hash());
  EXPECT_NO_THROW(snap.arena.validate_columns());

  // Index queries work straight off the mapping.
  const auto fresh = index.flatten();
  const auto loaded = snap.index.flatten();
  ASSERT_EQ(fresh.size(), loaded.size());
  for (std::size_t c = 0; c < fresh.size(); ++c) {
    ASSERT_EQ(fresh[c].entries.size(), loaded[c].entries.size());
    EXPECT_EQ(fresh[c].max_end, loaded[c].max_end);
  }

  // Appending to a mapped arena copies the columns out first
  // (copy-on-append) and keeps working.
  ScheduleArena::Event e;
  e.id = "appended";
  e.type = "computation";
  e.start = 100.0;
  e.end = 101.0;
  e.cluster_id = 0;
  e.host_start = 0;
  e.host_nb = 2;
  snap.arena.append({e});
  EXPECT_FALSE(snap.arena.mmap_backed());
  EXPECT_EQ(snap.arena.task_count(), schedule.tasks().size() + 1);

  const auto after = snapshot_counters();
  EXPECT_EQ(after.saves, before.saves + 1);
  EXPECT_EQ(after.loads, before.loads + 1);
  EXPECT_GT(after.save_bytes, before.save_bytes);
  std::filesystem::remove(path);
}

TEST(Snapshot, RegistryParsesJbinContent) {
  // .jbin goes through io::parse_schedule like any other format, so the
  // serve upload path and `--format jbin` both work.
  const Schedule schedule = sample_schedule(10);
  const std::string bytes = snapshot_bytes(schedule);
  const Schedule parsed = parse_schedule(std::string(bytes), "trace.jbin");
  EXPECT_EQ(write_schedule_xml(parsed), write_schedule_xml(schedule));
}

TEST(Snapshot, RejectsWrongVersionAndEndianness) {
  const std::string good = snapshot_bytes(sample_schedule(6));

  // Version field (offset 4, after the 4-byte magic).
  std::string bad = good;
  bad[4] = static_cast<char>(bad[4] + 1);
  EXPECT_THROW(parse_copy(bad), ParseError);

  // Endianness marker (offset 8): byte-swapped file from a big-endian
  // writer must be refused, not misread.
  bad = good;
  std::swap(bad[8], bad[11]);
  std::swap(bad[9], bad[10]);
  EXPECT_THROW(parse_copy(bad), ParseError);

  // Wrong magic entirely.
  bad = good;
  bad[0] = 'X';
  EXPECT_THROW(parse_copy(bad), ParseError);
  EXPECT_FALSE(is_snapshot(bad));
}

TEST(Snapshot, RejectsEveryTruncation) {
  const std::string good = snapshot_bytes(sample_schedule(6));
  // Every prefix shorter than the file must fail cleanly — including
  // cuts inside the header, the section table and each section.
  for (std::size_t cut = 0; cut < good.size();
       cut += (cut < 128 ? 1 : 97)) {
    const std::string trunc = good.substr(0, cut);
    EXPECT_THROW(parse_copy(trunc), ParseError) << "cut=" << cut;
  }
}

TEST(Snapshot, RejectsBitFlips) {
  const std::string good = snapshot_bytes(sample_schedule(12));
  std::mt19937 gen(1234);  // fixed seed: reproducible fuzz
  std::uniform_int_distribution<std::size_t> pos(0, good.size() - 1);
  std::uniform_int_distribution<int> bit(0, 7);
  const std::uint64_t good_hash = parse_copy(good).arena.content_hash();
  int rejected = 0;
  const int kTrials = 200;
  for (int t = 0; t < kTrials; ++t) {
    std::string bad = good;
    bad[pos(gen)] ^= static_cast<char>(1 << bit(gen));
    try {
      Snapshot snap = parse_copy(bad);
      // The only flips the CRCs don't cover are the 64-byte-alignment
      // padding gaps between sections; those leave every payload byte
      // intact, so the parsed snapshot must be identical to the original.
      snap.arena.validate_columns();
      EXPECT_EQ(snap.arena.content_hash(), good_hash) << "trial " << t;
      EXPECT_EQ(serialize_snapshot(snap.arena, snap.index), good)
          << "trial " << t;
    } catch (const ParseError&) {
      ++rejected;
    }
  }
  // CRC32 per section + header CRC: every payload flip is caught.
  EXPECT_GT(rejected, kTrials / 2);
}

TEST(Snapshot, LoadErrorsAreClean) {
  EXPECT_THROW(load_snapshot(temp_path("jedule_no_such_file.jbin")),
               IoError);
  const std::string path = temp_path("jedule_not_a_snapshot.jbin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a snapshot at all";
  }
  EXPECT_THROW(load_snapshot(path), ParseError);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace jedule::io
