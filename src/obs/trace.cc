#include "obs/trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace wasp::obs {
namespace {

// JSON string escaping for keys and string values, per RFC 8259: quotes,
// backslashes and control characters are escaped, and bytes that do not form
// a valid UTF-8 sequence are replaced with U+FFFD so the emitted line is
// always valid JSON even when a free-text field (abort_reason, recovery
// detail, a fault-schedule string read from a file) carries garbage.
void append_escaped(std::string& out, std::string_view text) {
  out.push_back('"');
  for (std::size_t i = 0; i < text.size();) {
    const unsigned char ch = static_cast<unsigned char>(text[i]);
    if (ch == '"') {
      out += "\\\"";
      ++i;
    } else if (ch == '\\') {
      out += "\\\\";
      ++i;
    } else if (ch == '\n') {
      out += "\\n";
      ++i;
    } else if (ch == '\r') {
      out += "\\r";
      ++i;
    } else if (ch == '\t') {
      out += "\\t";
      ++i;
    } else if (ch < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(ch));
      out += buf;
      ++i;
    } else if (ch < 0x80) {
      out.push_back(static_cast<char>(ch));
      ++i;
    } else {
      // Multi-byte UTF-8 lead byte: validate length, continuation bytes and
      // the no-overlong/no-surrogate/in-range rules; pass valid sequences
      // through verbatim, replace anything else with U+FFFD and resync at
      // the next byte.
      std::size_t len = 0;
      if ((ch & 0xE0) == 0xC0 && ch >= 0xC2) {
        len = 2;
      } else if ((ch & 0xF0) == 0xE0) {
        len = 3;
      } else if ((ch & 0xF8) == 0xF0 && ch <= 0xF4) {
        len = 4;
      }
      bool valid = len != 0 && i + len <= text.size();
      if (valid) {
        for (std::size_t k = 1; k < len; ++k) {
          const unsigned char cont = static_cast<unsigned char>(text[i + k]);
          if ((cont & 0xC0) != 0x80) valid = false;
        }
      }
      if (valid && len == 3) {
        const unsigned char b1 = static_cast<unsigned char>(text[i + 1]);
        if (ch == 0xE0 && b1 < 0xA0) valid = false;  // overlong
        if (ch == 0xED && b1 >= 0xA0) valid = false;  // UTF-16 surrogate
      }
      if (valid && len == 4) {
        const unsigned char b1 = static_cast<unsigned char>(text[i + 1]);
        if (ch == 0xF0 && b1 < 0x90) valid = false;  // overlong
        if (ch == 0xF4 && b1 >= 0x90) valid = false;  // > U+10FFFF
      }
      if (valid) {
        out.append(text.substr(i, len));
        i += len;
      } else {
        out += "\xEF\xBF\xBD";  // U+FFFD replacement character
        ++i;
      }
    }
  }
  out.push_back('"');
}

void append_number(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  // Shortest round-trippable form is overkill here; %.12g keeps lines compact
  // while preserving the precision the analyses care about.
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  out += buf;
}

}  // namespace

double TraceEvent::num(std::string_view key, double fallback) const {
  for (const auto& [k, v] : nums) {
    if (k == key) return v;
  }
  return fallback;
}

std::string_view TraceEvent::str(std::string_view key,
                                 std::string_view fallback) const {
  for (const auto& [k, v] : strs) {
    if (k == key) return v;
  }
  return fallback;
}

std::string to_json_line(const TraceEvent& event) {
  std::string out;
  out.reserve(96 + 32 * (event.nums.size() + event.strs.size()));
  out += "{\"schema\":";
  append_number(out, kTraceSchemaVersion);
  out += ",\"seq\":";
  append_number(out, static_cast<double>(event.seq));
  out += ",\"t\":";
  append_number(out, event.t);
  out += ",\"type\":";
  append_escaped(out, event.type);
  for (const auto& [key, value] : event.strs) {
    out.push_back(',');
    append_escaped(out, key);
    out.push_back(':');
    append_escaped(out, value);
  }
  for (const auto& [key, value] : event.nums) {
    out.push_back(',');
    append_escaped(out, key);
    out.push_back(':');
    append_number(out, value);
  }
  out.push_back('}');
  return out;
}

void MemorySink::write(const TraceEvent& event) {
  if (events_.size() >= capacity_) {
    events_.pop_front();
    ++dropped_;
  }
  events_.push_back(event);
}

std::vector<TraceEvent> MemorySink::of_type(std::string_view type) const {
  std::vector<TraceEvent> out;
  for (const TraceEvent& event : events_) {
    if (event.type == type) out.push_back(event);
  }
  return out;
}

void FileSink::write(const TraceEvent& event) {
  // Serialize outside the lock; emit the complete line in one locked write
  // so concurrent writers can interleave lines but never bytes.
  std::string line = to_json_line(event);
  line.push_back('\n');
  std::lock_guard<std::mutex> lock(mu_);
  if (!out_.good()) return;
  out_ << line;
}

void FileSink::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  out_.flush();
}

TraceEmitter::Event::Event(TraceEmitter* emitter, double t,
                           std::string_view type)
    : emitter_(emitter) {
  if (emitter_ == nullptr) return;
  event_.t = t;
  event_.type.assign(type);
}

TraceEmitter::Event::~Event() {
  if (emitter_ != nullptr) emitter_->commit(std::move(event_));
}

TraceEmitter::Event& TraceEmitter::Event::num(std::string_view key,
                                              double value) {
  if (emitter_ != nullptr) event_.nums.emplace_back(key, value);
  return *this;
}

TraceEmitter::Event& TraceEmitter::Event::str(std::string_view key,
                                              std::string_view value) {
  if (emitter_ != nullptr) event_.strs.emplace_back(key, value);
  return *this;
}

std::uint64_t TraceEmitter::begin_span(std::string_view name,
                                       std::uint64_t parent) {
  std::uint64_t id = kNoSpan;
  // No extra fields: the discarded builder commits the event right here.
  static_cast<void>(begin_span_event(name, &id, parent));
  return id;
}

TraceEmitter::Event TraceEmitter::begin_span_event(std::string_view name,
                                                   std::uint64_t* id_out,
                                                   std::uint64_t parent) {
  return begin_span_event_at(now_, name, id_out, parent);
}

TraceEmitter::Event TraceEmitter::begin_span_event_at(double t,
                                                      std::string_view name,
                                                      std::uint64_t* id_out,
                                                      std::uint64_t parent) {
  if (!enabled()) {
    if (id_out != nullptr) *id_out = kNoSpan;
    return Event(nullptr, t, {});
  }
  const std::uint64_t id = next_span_id_++;
  ++open_spans_;
  if (id_out != nullptr) *id_out = id;
  Event ev(this, t, "span_begin");
  ev.str("name", name)
      .num("span_id", static_cast<double>(id))
      .num("parent_id", static_cast<double>(resolve_parent(parent)));
  return ev;
}

TraceEmitter::Event TraceEmitter::end_span(std::uint64_t span_id) {
  return end_span_at(now_, span_id);
}

TraceEmitter::Event TraceEmitter::end_span_at(double t,
                                              std::uint64_t span_id) {
  if (!enabled() || span_id == kNoSpan) return Event(nullptr, t, {});
  if (open_spans_ > 0) --open_spans_;
  Event ev(this, t, "span_end");
  ev.num("span_id", static_cast<double>(span_id));
  return ev;
}

TraceEmitter::SpanScope::SpanScope(TraceEmitter* emitter,
                                   std::string_view name) {
  if (emitter == nullptr || !emitter->enabled()) return;
  emitter_ = emitter;
  id_ = emitter_->begin_span(name);
  emitter_->ambient_.push_back(id_);
  start_ = std::chrono::steady_clock::now();
}

TraceEmitter::SpanScope::~SpanScope() {
  if (emitter_ == nullptr) return;
  const auto elapsed = std::chrono::steady_clock::now() - start_;
  const double wall_us =
      std::chrono::duration<double, std::micro>(elapsed).count();
  // Pop our id specifically; scopes are strictly nested so it is the top.
  if (!emitter_->ambient_.empty() && emitter_->ambient_.back() == id_) {
    emitter_->ambient_.pop_back();
  }
  Event ev = emitter_->end_span(id_);
  for (const auto& [k, v] : end_strs_) ev.str(k, v);
  for (const auto& [k, v] : end_nums_) ev.num(k, v);
  ev.num("wall_us", wall_us);
}

TraceEmitter::SpanScope& TraceEmitter::SpanScope::num(std::string_view key,
                                                      double value) {
  if (emitter_ != nullptr) end_nums_.emplace_back(key, value);
  return *this;
}

TraceEmitter::SpanScope& TraceEmitter::SpanScope::str(std::string_view key,
                                                      std::string_view value) {
  if (emitter_ != nullptr) end_strs_.emplace_back(key, value);
  return *this;
}

TraceEmitter::ParentScope::ParentScope(TraceEmitter* emitter,
                                       std::uint64_t span_id) {
  if (emitter == nullptr || !emitter->enabled() || span_id == kNoSpan) return;
  emitter_ = emitter;
  emitter_->ambient_.push_back(span_id);
}

TraceEmitter::ParentScope::~ParentScope() {
  if (emitter_ != nullptr && !emitter_->ambient_.empty()) {
    emitter_->ambient_.pop_back();
  }
}

void TraceEmitter::commit(TraceEvent event) {
  event.seq = next_seq_++;
  sink_->write(event);
}

}  // namespace wasp::obs
