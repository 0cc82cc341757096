#include "jedule/workload/swf_parser.hpp"

#include <memory>

#include "jedule/io/registry.hpp"
#include "jedule/io/swf.hpp"
#include "jedule/util/strings.hpp"
#include "jedule/workload/trace_schedule.hpp"

namespace jedule::workload {

namespace {

class SwfScheduleParser final : public io::ScheduleParser {
 public:
  std::string name() const override { return "swf"; }

  bool sniff(const std::string& path, const std::string& head) const override {
    if (util::ends_with(path, ".swf")) return true;
    // SWF headers start with "; " comments such as "; Computer: ...".
    const auto body = util::trim(head);
    return util::starts_with(body, ";");
  }

  model::Schedule parse(std::string_view content) const override {
    return from_trace(io::read_swf(content), 1);
  }

  // Chunked ingest: the trace lines parse in parallel (io::read_swf_chunked,
  // identical to read_swf at any thread count) and the schedule validates
  // in parallel; the trace-to-schedule packing stays serial — its host
  // placement is an inherently sequential sweep over jobs in submit order.
  model::Schedule parse_chunked(io::TextSource& src,
                                const io::IngestOptions& opt,
                                io::IngestStats* stats) const override {
    return from_trace(io::read_swf_chunked(src, opt, stats), opt.threads);
  }

 private:
  static model::Schedule from_trace(const io::SwfTrace& trace, int threads) {
    TraceScheduleOptions options;
    options.cluster_name = "trace";
    options.threads = threads;
    auto it = trace.header.find("Reserved");
    if (it != trace.header.end()) {
      if (auto v = util::parse_int(it->second); v && *v >= 0) {
        options.reserved_nodes = static_cast<int>(*v);
      }
    }
    return trace_to_schedule(trace, options).schedule;
  }
};

}  // namespace

void register_swf_parser() {
  io::ParserRegistry::instance().register_parser(
      std::make_unique<SwfScheduleParser>());
}

}  // namespace jedule::workload
