#include "driver/spans.h"

namespace perfbench {

void SpanRecorder::record(std::uint32_t id, const char* name,
                          std::uint32_t parent, std::int64_t start_ns,
                          std::int64_t end_ns) {
  Total& total = totals_[name];
  ++total.count;
  total.total_ns += end_ns - start_ns;
  if (spans_.size() < capacity_) {
    spans_.push_back(Span{name, id, parent, start_ns, end_ns});
  } else {
    ++dropped_;
  }
}

SpanRecorder::Total SpanRecorder::total(const std::string& name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() ? Total{} : it->second;
}

void SpanRecorder::write_chrome_trace(std::ostream& out) const {
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << static_cast<double>(s.start_ns - origin) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n],\"otherData\":{\"dropped_spans\":" << dropped_ << "}}\n";
}

}  // namespace perfbench
