#include "obs/trace.h"

#include <charconv>
#include <cmath>
#include <cstdint>

namespace wasp::obs {
namespace {

// True for a byte append_json_string copies as it is: printable ASCII other
// than the quote and the backslash.
bool plain_byte(unsigned char ch) {
  return ch >= 0x20 && ch < 0x80 && ch != '"' && ch != '\\';
}

// Length of the valid UTF-8 sequence that starts at text[i] (a byte >= 0x80),
// or 0 when there is none: a bad lead byte, a truncated sequence, a missing
// continuation byte, an overlong form, a UTF-16 surrogate or a code point
// above U+10FFFF.
std::size_t utf8_length(std::string_view text, std::size_t i) {
  const unsigned char ch = static_cast<unsigned char>(text[i]);
  std::size_t len = 0;
  if ((ch & 0xE0) == 0xC0 && ch >= 0xC2) {
    len = 2;
  } else if ((ch & 0xF0) == 0xE0) {
    len = 3;
  } else if ((ch & 0xF8) == 0xF0 && ch <= 0xF4) {
    len = 4;
  }
  if (len == 0 || i + len > text.size()) return 0;
  for (std::size_t k = 1; k < len; ++k) {
    const unsigned char cont = static_cast<unsigned char>(text[i + k]);
    if ((cont & 0xC0) != 0x80) return 0;
  }
  const unsigned char b1 = static_cast<unsigned char>(text[i + 1]);
  if (len == 3) {
    if (ch == 0xE0 && b1 < 0xA0) return 0;   // overlong
    if (ch == 0xED && b1 >= 0xA0) return 0;  // UTF-16 surrogate
  }
  if (len == 4) {
    if (ch == 0xF0 && b1 < 0x90) return 0;   // overlong
    if (ch == 0xF4 && b1 >= 0x90) return 0;  // > U+10FFFF
  }
  return len;
}

// True when %.12g prints `value` as a plain integer with the digits of its
// integer conversion: a whole number below 1e12 in magnitude (1e12 itself
// prints "1e+12"), other than -0.0 (which prints "-0").
bool prints_as_integer(double value) {
  if (!(std::fabs(value) < 1e12)) return false;
  const auto whole = static_cast<std::int64_t>(value);
  return static_cast<double>(whole) == value &&
         !(whole == 0 && std::signbit(value));
}

}  // namespace

// Repairing bad UTF-8 keeps every line valid JSON even when a free-text
// field (abort_reason, recovery detail, a fault-schedule string read from a
// file) carries garbage.
void append_json_string(std::string& out, std::string_view text) {
  out.push_back('"');
  std::size_t i = 0;
  while (i < text.size()) {
    // Copy each run of plain bytes in one call; in practice the first run
    // is the whole text.
    std::size_t run_end = i;
    while (run_end < text.size() &&
           plain_byte(static_cast<unsigned char>(text[run_end]))) {
      ++run_end;
    }
    out.append(text.data() + i, run_end - i);
    i = run_end;
    if (i == text.size()) break;

    const unsigned char ch = static_cast<unsigned char>(text[i]);
    if (ch == '"') {
      out += "\\\"";
    } else if (ch == '\\') {
      out += "\\\\";
    } else if (ch == '\n') {
      out += "\\n";
    } else if (ch == '\r') {
      out += "\\r";
    } else if (ch == '\t') {
      out += "\\t";
    } else if (ch < 0x20) {
      static constexpr char kHex[] = "0123456789abcdef";
      out += "\\u00";
      out.push_back(kHex[ch >> 4]);
      out.push_back(kHex[ch & 0xF]);
    } else if (const std::size_t len = utf8_length(text, i); len != 0) {
      out.append(text.data() + i, len);  // valid UTF-8 passes verbatim
      i += len;
      continue;
    } else {
      out += "\xEF\xBF\xBD";  // U+FFFD; resync at the next byte
    }
    ++i;
  }
  out.push_back('"');
}

void append_json_number(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  // Most trace numbers are integers (seq, ids, sites, counts, whole-second
  // timestamps), and the integer conversion is several times cheaper than
  // the floating one. to_chars with a precision is defined as printf with
  // that precision, so both branches print exactly the %.12g bytes.
  char buf[32];
  char* end = buf;
  if (prints_as_integer(value)) {
    end = std::to_chars(buf, buf + sizeof(buf),
                        static_cast<std::int64_t>(value))
              .ptr;
  } else {
    end = std::to_chars(buf, buf + sizeof(buf), value,
                        std::chars_format::general, 12)
              .ptr;
  }
  out.append(buf, end);
}

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

void append_json_line(std::string& out, const TraceEvent& event) {
  out += "{\"schema\":";
  append_json_number(out, kTraceSchemaVersion);
  out += ",\"seq\":";
  append_json_number(out, static_cast<double>(event.seq));
  out += ",\"t\":";
  append_json_number(out, event.t);
  out += ",\"type\":";
  append_json_string(out, event.type);
  for (const auto& [key, value] : event.strs) {
    out.push_back(',');
    append_json_string(out, key);
    out.push_back(':');
    append_json_string(out, value);
  }
  for (const auto& [key, value] : event.nums) {
    out.push_back(',');
    append_json_string(out, key);
    out.push_back(':');
    append_json_number(out, value);
  }
  out.push_back('}');
}

std::string to_json_line(const TraceEvent& event) {
  std::string out;
  append_json_line(out, event);
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
  // Serialize outside the lock into this thread's reused buffer; emit the
  // complete line in one locked write so concurrent writers can interleave
  // lines but never bytes.
  thread_local std::string line;
  line.clear();
  append_json_line(line, event);
  line.push_back('\n');
  std::lock_guard<std::mutex> lock(mu_);
  if (!out_.good()) return;
  out_.write(line.data(), static_cast<std::streamsize>(line.size()));
}

void FileSink::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  out_.flush();
}

TraceEmitter::Event::Event(TraceEmitter* emitter, double t,
                           std::string_view type)
    : emitter_(emitter) {
  if (emitter_ == nullptr) return;
  if (!emitter_->spare_.empty()) {
    event_ = std::move(emitter_->spare_.back());
    emitter_->spare_.pop_back();
  }
  event_.t = t;
  event_.type.assign(type);
}

TraceEmitter::Event::~Event() {
  if (emitter_ != nullptr) emitter_->commit(event_);
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

void TraceEmitter::commit(TraceEvent& event) {
  event.seq = next_seq_++;
  sink_->write(event);
  // Hand the event back, emptied but with its vectors' capacity, for the
  // next builder to fill.
  event.nums.clear();
  event.strs.clear();
  spare_.push_back(std::move(event));
}

}  // namespace wasp::obs
