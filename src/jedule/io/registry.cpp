#include "jedule/io/registry.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <utility>

#include "jedule/io/csv.hpp"
#include "jedule/io/file.hpp"
#include "jedule/io/jedule_xml.hpp"
#include "jedule/io/snapshot.hpp"
#include "jedule/platform/mmap.hpp"
#include "jedule/util/error.hpp"
#include "jedule/util/inflate.hpp"
#include "jedule/util/parallel.hpp"
#include "jedule/util/strings.hpp"

namespace jedule::io {

namespace {

class JeduleXmlParser final : public ScheduleParser {
 public:
  std::string name() const override { return "jedule-xml"; }

  bool sniff(const std::string& path, const std::string& head) const override {
    if (util::ends_with(path, ".jed") || util::ends_with(path, ".jedule")) {
      return true;
    }
    const auto body = util::trim(head);
    return util::ends_with(path, ".xml") ||
           util::starts_with(body, "<?xml") ||
           util::starts_with(body, "<jedule");
  }

  model::Schedule parse(std::string_view content) const override {
    return read_schedule_xml(content);
  }

  model::Schedule parse_chunked(TextSource& src, const IngestOptions& opt,
                                IngestStats* stats) const override {
    return read_schedule_xml_chunked(src, opt, stats);
  }
};

class CsvParser final : public ScheduleParser {
 public:
  std::string name() const override { return "csv"; }

  bool sniff(const std::string& path, const std::string& head) const override {
    if (util::ends_with(path, ".csv")) return true;
    const auto body = util::trim(head);
    return util::starts_with(body, "!cluster") ||
           util::starts_with(body, "task_id,");
  }

  model::Schedule parse(std::string_view content) const override {
    return read_schedule_csv(content);
  }

  model::Schedule parse_chunked(TextSource& src, const IngestOptions& opt,
                                IngestStats* stats) const override {
    return read_schedule_csv_chunked(src, opt, stats);
  }
};

// Generic-registry access to `.jbin` snapshots: materializes the AoS
// schedule from the columns, so every load_schedule() caller (view,
// export, diff, ...) accepts snapshots. The engine's store bypasses this
// and keeps the zero-copy arena/index (engine::load_entry).
class SnapshotParser final : public ScheduleParser {
 public:
  std::string name() const override { return "jbin"; }

  bool sniff(const std::string& path, const std::string& head) const override {
    return util::ends_with(path, ".jbin") || is_snapshot(head);
  }

  model::Schedule parse(std::string_view content) const override {
    return materialize(content, 1);
  }

  model::Schedule parse_chunked(TextSource& src, const IngestOptions& opt,
                                IngestStats* stats) const override {
    (void)stats;
    return materialize(src.all(), opt.threads);
  }

 private:
  // The arena's columns borrow from `content`, which outlives the call, and
  // the snapshot dies before it returns: no keep-alive owner is needed. The
  // columns are read in place, so input that does not start on an 8-byte
  // boundary (the sections' alignment) is copied first.
  static model::Schedule materialize(std::string_view content, int threads) {
    std::string aligned;
    if (reinterpret_cast<std::uintptr_t>(content.data()) % 8 != 0) {
      aligned.assign(content);
      content = aligned;
    }
    const Snapshot snap = parse_snapshot(
        reinterpret_cast<const std::uint8_t*>(content.data()), content.size(),
        nullptr, 0);
    model::Schedule schedule = snap.arena.to_schedule(threads);
    schedule.validate(threads);
    return schedule;
  }
};

}  // namespace

ParserRegistry& ParserRegistry::instance() {
  static ParserRegistry* registry = [] {
    auto* r = new ParserRegistry();
    r->register_parser(std::make_unique<JeduleXmlParser>());
    r->register_parser(std::make_unique<CsvParser>());
    r->register_parser(std::make_unique<SnapshotParser>());
    return r;
  }();
  return *registry;
}

void ParserRegistry::register_parser(std::unique_ptr<ScheduleParser> parser) {
  JED_ASSERT(parser != nullptr);
  for (auto& p : parsers_) {
    if (p->name() == parser->name()) {
      p = std::move(parser);
      return;
    }
  }
  parsers_.push_back(std::move(parser));
}

const ScheduleParser* ParserRegistry::find(const std::string& name) const {
  for (const auto& p : parsers_) {
    if (p->name() == name) return p.get();
  }
  return nullptr;
}

const ScheduleParser* ParserRegistry::sniff(const std::string& path,
                                            const std::string& head) const {
  for (auto it = parsers_.rbegin(); it != parsers_.rend(); ++it) {
    if ((*it)->sniff(path, head)) return it->get();
  }
  return nullptr;
}

std::vector<std::string> ParserRegistry::parser_names() const {
  std::vector<std::string> names;
  names.reserve(parsers_.size());
  for (const auto& p : parsers_) names.push_back(p->name());
  return names;
}

std::string ParserRegistry::supported_summary() const {
  return util::join(parser_names(), ", ");
}

model::Schedule parse_schedule(TextSource& src, const std::string& name_hint,
                               const std::string& format,
                               const IngestOptions& opt, IngestStats* stats) {
  const auto started = std::chrono::steady_clock::now();
  IngestStats local;
  IngestStats* s = stats != nullptr ? stats : &local;

  // Gzip container (e.g. schedule.jed.gz): detected by the magic bytes, not
  // the suffix, so piped/renamed files work too. The ".gz" is stripped
  // before sniffing so the inner format is chosen from the inner name.
  std::string sniff_path = name_hint;
  if (src.gzip() && util::ends_with(sniff_path, ".gz")) {
    sniff_path.resize(sniff_path.size() - 3);
  }

  const ParserRegistry& registry = ParserRegistry::instance();
  const ScheduleParser* parser = nullptr;
  if (!format.empty()) {
    parser = registry.find(format);
    if (parser == nullptr) {
      throw ParseError("no parser registered for format '" + format +
                       "' (supported formats: " +
                       registry.supported_summary() + ")");
    }
  } else {
    // Sniff on the first decoded bytes; for a gzip input this overlaps
    // with the producer thread already inflating the rest.
    const TextSource::View head = src.wait_for(512);
    parser = registry.sniff(sniff_path,
                            std::string(head.text().substr(
                                0, std::min<std::size_t>(head.size, 512))));
    if (parser == nullptr) {
      const std::string what =
          name_hint.empty() ? "the input" : "'" + name_hint + "'";
      throw ParseError("no registered parser recognizes " + what +
                       " (supported formats: " + registry.supported_summary() +
                       "; pick one explicitly with --format or ?format=)");
    }
  }

  IngestOptions resolved = opt;
  resolved.threads = util::resolve_threads(opt.threads);
  s->format = parser->name();
  s->gzip = src.gzip();
  s->threads = resolved.threads;

  model::Schedule schedule = parser->parse_chunked(src, resolved, s);

  s->bytes = src.all().size();
  s->parse_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - started)
                    .count();
  record_ingest(*s);
  return schedule;
}

model::Schedule parse_schedule(std::string content,
                               const std::string& name_hint,
                               const std::string& format,
                               const IngestOptions& opt, IngestStats* stats) {
  TextSource src(std::move(content));
  return parse_schedule(src, name_hint, format, opt, stats);
}

model::Schedule load_schedule(const std::string& path,
                              const std::string& format,
                              const IngestOptions& opt, IngestStats* stats) {
  std::shared_ptr<const platform::MappedFile> map;
  try {
    map = platform::MappedFile::open(path);
  } catch (const IoError&) {
    // Unreadable or non-seekable (pipe, device): read_file below either
    // succeeds streaming or raises its usual error for missing files.
    map = nullptr;
  }
  if (map != nullptr) {
    IngestStats local;
    IngestStats* s = stats != nullptr ? stats : &local;
    s->mapped_input = map->mapped();
    s->mapped_bytes = map->mapped() ? map->size() : 0;
    TextSource src(
        std::string_view(reinterpret_cast<const char*>(map->data()),
                         map->size()),
        map);
    return parse_schedule(src, path, format, opt, s);
  }
  TextSource src(read_file(path));
  return parse_schedule(src, path, format, opt, stats);
}

}  // namespace jedule::io
