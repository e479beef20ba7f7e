#include "obs/trace.h"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>

namespace wasp::obs {
namespace {

constexpr std::uint64_t kOnes = 0x0101010101010101;
constexpr std::uint64_t kHighBits = 0x8080808080808080;

// The n <= 8 bytes at `p`, padded with plain bytes, as a word whose least
// significant byte is p[0].
std::uint64_t load_word(const char* p, std::size_t n) {
  std::uint64_t word = kOnes * 'a';
  std::memcpy(&word, p, n);
  if constexpr (std::endian::native == std::endian::big) {
    word = __builtin_bswap64(word);
  }
  return word;
}

// The high bit of every byte of `word` that append_json_string cannot copy
// as it is: < 0x20, '"', '\\' or >= 0x80. The subtractions borrow only out
// of such a byte, so a false flag can sit above a real one but never below
// it: the lowest flag marks the first byte that needs work.
std::uint64_t escape_flags(std::uint64_t word) {
  const std::uint64_t quote = word ^ (kOnes * '"');
  const std::uint64_t backslash = word ^ (kOnes * '\\');
  return (((word - kOnes * 0x20) & ~word) | ((quote - kOnes) & ~quote) |
          ((backslash - kOnes) & ~backslash) | word) &
         kHighBits;
}

// Length of the run of bytes at the start of `text` that append_json_string
// copies as it is (printable ASCII other than the quote and the backslash),
// found eight bytes at a time.
std::size_t plain_run(std::string_view text) {
  const char* p = text.data();
  const std::size_t n = text.size();
  for (std::size_t i = 0; i < n; i += 8) {
    const std::size_t len = std::min<std::size_t>(8, n - i);
    if (const std::uint64_t flags = escape_flags(load_word(p + i, len));
        flags != 0) {
      return i + static_cast<std::size_t>(std::countr_zero(flags)) / 8;
    }
  }
  return n;
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

using u128 = unsigned __int128;

constexpr std::uint64_t k1e11 = 100'000'000'000;
constexpr std::uint64_t k1e12 = 1'000'000'000'000;

// 10^0 .. 10^22; 10^22 < 2^74, so any 53-bit significand times one of them
// stays below 2^127.
constexpr std::array<u128, 23> kPow10 = [] {
  std::array<u128, 23> pow{};
  pow[0] = 1;
  for (std::size_t i = 1; i < pow.size(); ++i) pow[i] = pow[i - 1] * 10;
  return pow;
}();

// "00" "01" ... "99": the two digits of i at 2 * i.
constexpr std::array<char, 200> kDigitPairs = [] {
  std::array<char, 200> pairs{};
  for (std::size_t i = 0; i < 100; ++i) {
    pairs[2 * i] = static_cast<char>('0' + i / 10);
    pairs[2 * i + 1] = static_cast<char>('0' + i % 10);
  }
  return pairs;
}();

// Room for any number write_json_number writes; the longest,
// "-1.23456789012e-308", takes 19 bytes.
constexpr std::size_t kNumberChars = 32;

// Writes the %.12g bytes of a finite `value` that is not a whole number,
// with 1e-11 <= |value| < 1e12, at `p`; returns the end. The value is
// m * 2^-s with m its 53-bit significand and 13 <= s <= 89, and its 12
// significant digits are N = round(m * 10^(11 - x) / 2^s) for its decimal
// exponent x, found in exact integer arithmetic.
char* write_g12(char* p, double value) {
  const auto bits = std::bit_cast<std::uint64_t>(value);
  if ((bits >> 63) != 0) *p++ = '-';
  const int biased = static_cast<int>((bits >> 52) & 0x7FF);
  const std::uint64_t m = (bits & ((std::uint64_t{1} << 52) - 1)) |
                          (std::uint64_t{1} << 52);
  const int s = 1075 - biased;
  // 2^e <= |value| < 2^(e + 1) with e = biased - 1023, so
  // floor((e + 1) * log10(2)) is x or x + 1 (1233 / 4096 gives the exact
  // floor for every e here); |value| < 1e12 caps x at 11.
  int x = std::min(((biased - 1022) * 1233) >> 12, 11);
  const u128 q = u128{m} * kPow10[static_cast<std::size_t>(11 - x)];
  const u128 low_mask = (u128{1} << s) - 1;
  auto n = static_cast<std::uint64_t>(q >> s);
  u128 rem = q & low_mask;
  if (n < k1e11) {
    // The estimate was one too high: take one more digit from the remainder.
    rem *= 10;  // < 10 * 2^89
    n = n * 10 + static_cast<std::uint64_t>(rem >> s);
    rem &= low_mask;
    --x;
  }
  // printf rounds an exact tie to even.
  const u128 half = u128{1} << (s - 1);
  if (rem > half || (rem == half && (n & 1) != 0)) ++n;
  if (n == k1e12) {  // rounded up into the next decade
    n = k1e11;
    ++x;
  }

  char digits[12];
  for (int i = 10; i >= 0; i -= 2) {
    std::memcpy(digits + i, kDigitPairs.data() + 2 * (n % 100), 2);
    n /= 100;
  }
  // %g drops trailing zeros after the point; digits[0] is never '0'.
  int len = 12;
  while (digits[len - 1] == '0') --len;
  if (x < -4 || x >= 12) {
    *p++ = digits[0];
    if (len > 1) {
      *p++ = '.';
      std::memcpy(p, digits + 1, static_cast<std::size_t>(len - 1));
      p += len - 1;
    }
    *p++ = 'e';
    *p++ = x < 0 ? '-' : '+';
    const int exp = x < 0 ? -x : x;  // at most 12: always two digits
    std::memcpy(p, kDigitPairs.data() + 2 * exp, 2);
    return p + 2;
  }
  if (x >= 0) {
    std::memcpy(p, digits, static_cast<std::size_t>(x + 1));
    p += x + 1;
    if (len > x + 1) {
      *p++ = '.';
      std::memcpy(p, digits + x + 1, static_cast<std::size_t>(len - x - 1));
      p += len - x - 1;
    }
    return p;
  }
  *p++ = '0';
  *p++ = '.';
  for (int zeros = -x - 1; zeros > 0; --zeros) *p++ = '0';
  std::memcpy(p, digits, static_cast<std::size_t>(len));
  return p + len;
}

// Writes append_json_number's bytes at `p`, which has kNumberChars of room;
// returns the end.
char* write_json_number(char* p, double value) {
  if (!std::isfinite(value)) {
    std::memcpy(p, "null", 4);
    return p + 4;
  }
  // Most trace numbers are integers (seq, ids, sites, counts, whole-second
  // timestamps), and the integer conversion is the cheapest. Everything
  // else between 1e-11 and 1e12 takes the integer kernel; the rest (tiny,
  // huge and subnormal values) takes to_chars, which with a precision is
  // defined as printf with that precision.
  if (prints_as_integer(value)) {
    return std::to_chars(p, p + kNumberChars,
                         static_cast<std::int64_t>(value))
        .ptr;
  }
  const double magnitude = std::fabs(value);
  if (magnitude >= 1e-11 && magnitude < 1e12) return write_g12(p, value);
  return std::to_chars(p, p + kNumberChars, value,
                       std::chars_format::general, 12)
      .ptr;
}

// Longest key or string value a line writes from its stack buffer; a longer
// one takes append_json_string.
constexpr std::size_t kStackChars = 64;

// Writes `"text"` at `p` when `text` is plain and at most kStackChars long;
// returns the end, or null when append_json_string has to write it.
char* write_plain_string(char* p, std::string_view text) {
  if (text.size() > kStackChars || plain_run(text) != text.size()) {
    return nullptr;
  }
  *p++ = '"';
  std::memcpy(p, text.data(), text.size());
  p += text.size();
  *p++ = '"';
  return p;
}

void append_num_field(std::string& out, std::string_view key, double value) {
  char buf[kStackChars + 4 + kNumberChars];
  buf[0] = ',';
  if (char* p = write_plain_string(buf + 1, key); p != nullptr) {
    *p++ = ':';
    out.append(buf, write_json_number(p, value));
    return;
  }
  out.push_back(',');
  append_json_string(out, key);
  out.push_back(':');
  append_json_number(out, value);
}

void append_str_field(std::string& out, std::string_view key,
                      std::string_view value) {
  char buf[2 * kStackChars + 6];
  buf[0] = ',';
  if (char* p = write_plain_string(buf + 1, key); p != nullptr) {
    *p++ = ':';
    if (char* end = write_plain_string(p, value); end != nullptr) {
      out.append(buf, end);
      return;
    }
  }
  out.push_back(',');
  append_json_string(out, key);
  out.push_back(':');
  append_json_string(out, value);
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
    const std::size_t run = plain_run(text.substr(i));
    out.append(text.data() + i, run);
    i += run;
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
  char buf[kNumberChars];
  out.append(buf, write_json_number(buf, value));
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
  static_assert(kTraceSchemaVersion == 2, "the header below spells it");
  static constexpr std::string_view kHeader = R"({"schema":2,"seq":)";
  static constexpr std::string_view kT = R"(,"t":)";
  static constexpr std::string_view kType = R"(,"type":)";
  char buf[kHeader.size() + kT.size() + kType.size() + 2 * kNumberChars +
           kStackChars + 2];
  char* p = std::copy(kHeader.begin(), kHeader.end(), buf);
  p = write_json_number(p, static_cast<double>(event.seq));
  p = std::copy(kT.begin(), kT.end(), p);
  p = write_json_number(p, event.t);
  p = std::copy(kType.begin(), kType.end(), p);
  if (char* end = write_plain_string(p, event.type); end != nullptr) {
    out.append(buf, end);
  } else {
    out.append(buf, p);
    append_json_string(out, event.type);
  }
  for (const auto& [key, value] : event.strs) {
    append_str_field(out, key, value);
  }
  for (const auto& [key, value] : event.nums) {
    append_num_field(out, key, value);
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
