// Structured trace emission (the observability event stream).
//
// WASP's contribution is a control loop that observes rates, queues,
// backpressure and state sizes and then picks one adaptation action (§3.2,
// §6). Debugging a wrong decision needs the full causal chain: what the
// engine measured, what the policy diagnosed, which alternatives it rejected,
// and what the reconfiguration actually did. The TraceEmitter captures that
// chain as schema-versioned events written to a runtime-chosen sink:
//   - FileSink:   JSONL (one JSON object per line) for offline analysis;
//   - MemorySink: a bounded in-memory ring for tests and embedding;
//   - no sink:    the emitter is disabled and every call is a cheap no-op.
//
// Event layout (see DESIGN.md §6 for the per-type field tables):
//   {"schema":2,"seq":N,"t":<sim seconds>,"type":"...", ...fields}
//
// Schema v2 adds causal spans on top of the flat event stream: a span is a
// pair of ordinary events, "span_begin" (fields: name, span_id, parent_id)
// and "span_end" (field: span_id), so every sink and consumer of the flat
// stream keeps working unchanged. Spans form a forest via parent_id; nesting
// is either explicit (the caller passes a parent id) or ambient (SpanScope /
// ParentScope push a parent onto a stack that begin_span consults). Spans do
// NOT have to close in LIFO order -- long-lived spans (an adaptation waiting
// for a window boundary, a suspicion episode, an SLO violation) may overlap
// arbitrarily; only begin/end balance and parent-before-child are required.
//
// Producers hold a non-owning TraceEmitter* and guard hot paths with
// `enabled()`; fields are attached through a small RAII builder that commits
// the event when it goes out of scope. A producer that emits one event per
// entity per tick (the engine's tick, op_tick and channel_tick events, the
// network's link_alloc) passes that entity's TraceMemo, and an event whose
// fields repeat the memo's reuses their encoded bytes (DESIGN.md §6.2).
//
// Threading model (audited for the parallel sweep harness, DESIGN.md §9):
//   - TraceEmitter is NOT thread-safe: seq numbering, the span-id counter,
//     open-span accounting, and the ambient-parent stack are plain state. One
//     emitter belongs to one simulation run, and a run executes on exactly
//     one thread (the sweep worker that owns it); never share an emitter
//     across threads. A TraceMemo belongs to one producer, so to that
//     emitter's thread too.
//   - MemorySink is NOT thread-safe; it is confined to the run that owns its
//     emitter (tests, embedding).
//   - FileSink IS safe to share across runs: write()/flush() are serialized
//     and each JSON line is written atomically (see below). Deterministic
//     sweeps still prefer a private FileSink per run, because interleaving
//     order across concurrent runs is scheduling-dependent.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace wasp::obs {

inline constexpr int kTraceSchemaVersion = 2;

// Span id 0 means "no span": a root span's parent_id, or the id returned by
// every span call on a disabled emitter.
inline constexpr std::uint64_t kNoSpan = 0;

// One trace record: a type tag, a simulated-time stamp, and flat fields.
struct TraceEvent {
  std::uint64_t seq = 0;
  double t = 0.0;
  std::string type;
  std::vector<std::pair<std::string, double>> nums;
  std::vector<std::pair<std::string, std::string>> strs;

  // Field lookup (linear; events are small). Returns the fallback when the
  // key is absent.
  [[nodiscard]] double num(std::string_view key, double fallback = 0.0) const;
  [[nodiscard]] std::string_view str(std::string_view key,
                                     std::string_view fallback = {}) const;
};

// Serializes one event as a single JSON line (no trailing newline): the
// header, then each string field, then each number field. Numbers that JSON
// cannot represent (NaN, infinities) are emitted as null; string fields are
// escaped per RFC 8259 (quotes, backslashes, control characters) and
// invalid UTF-8 bytes are replaced with U+FFFD so the line always parses.
// The emitter's own events take the same writers through TraceEventView; this
// form serves events parsed back from a file and the sweep's records.
[[nodiscard]] std::string to_json_line(const TraceEvent& event);
// The same line appended to `out`, so a caller can reuse one buffer.
void append_json_line(std::string& out, const TraceEvent& event);

// The line's two value writers, shared by every JSON writer in src/obs.
// A number prints exactly as printf's "%.12g" would print it, or as null
// when it is NaN or infinite.
void append_json_number(std::string& out, double value);
// A quoted JSON string, escaped and repaired as to_json_line describes.
void append_json_string(std::string& out, std::string_view text);
// A metrics snapshot's (name, value) pairs as `"name":value` object
// members, written by the two writers above and joined by `separator`.
void append_json_members(
    std::string& out,
    const std::vector<std::pair<std::string, double>>& members,
    std::string_view separator);

// The fields of one built event, in the order the producer added them:
// numbers as (key, double) and strings as (key, value), every key and
// string copied into one byte arena, so adding a field allocates nothing
// once the arena and the two tables have grown to the event's size.
// Equality is bitwise: the same keys, the same bits in every number (-0.0
// differs from 0.0, and each NaN payload from the others) and the same
// bytes in every string, added in the same order.
class TraceFields {
 public:
  void add_num(std::string_view key, double value);
  void add_str(std::string_view key, std::string_view value);
  void clear();

  [[nodiscard]] std::size_t num_count() const { return nums_.size(); }
  [[nodiscard]] std::string_view num_key(std::size_t i) const {
    return view(nums_[i].key_at, nums_[i].key_len);
  }
  [[nodiscard]] double num_value(std::size_t i) const {
    return nums_[i].value;
  }
  [[nodiscard]] std::size_t str_count() const { return strs_.size(); }
  [[nodiscard]] std::string_view str_key(std::size_t i) const {
    return view(strs_[i].key_at, strs_[i].key_len);
  }
  [[nodiscard]] std::string_view str_value(std::size_t i) const {
    return view(strs_[i].value_at, strs_[i].value_len);
  }

  // Appends the fields' JSON bytes: `,"key":value` for each string field,
  // then for each number field.
  void append_json(std::string& out) const;

  friend bool operator==(const TraceFields& a, const TraceFields& b);

 private:
  friend class TraceMemo;

  struct Num {
    std::uint32_t key_at = 0;
    std::uint32_t key_len = 0;
    double value = 0.0;
  };
  struct Str {
    std::uint32_t key_at = 0;
    std::uint32_t key_len = 0;
    std::uint32_t value_at = 0;
    std::uint32_t value_len = 0;
  };

  [[nodiscard]] std::string_view view(std::uint32_t at,
                                      std::uint32_t len) const {
    return std::string_view(bytes_.data() + at, len);
  }
  std::uint32_t append_bytes(std::string_view text);

  std::string bytes_;
  std::vector<Num> nums_;
  std::vector<Str> strs_;
};

// What every sink receives for one committed event: its header, its typed
// fields, and those fields' JSON bytes as TraceFields::append_json writes
// them. The views last until write() returns.
struct TraceEventView {
  std::uint64_t seq = 0;
  double t = 0.0;
  std::string_view type;
  const TraceFields& fields;
  std::string_view fields_json;
};

// The last event one producer entity committed through it (a channel's
// channel_tick, a stage's op_tick, a WAN link's link_alloc, the engine's
// tick) and that event's encoded fields. When the next commit's fields
// equal the memo's bit for bit, the emitter reuses the memo's bytes and
// encodes only seq, t and type. Since the check compares every field, a
// memo that a rebuild hands to another entity simply misses once: memos
// need no invalidation.
//
// A memo takes its fixed capacity when it is constructed, so a producer
// sizes its memos where it builds its entities (and only with tracing on);
// an event too large for that capacity takes the plain encode and leaves
// the memo as it was. Committing through a memo never allocates.
class TraceMemo {
 public:
  TraceMemo();

 private:
  friend class TraceEmitter;

  // Keeps `fields` and their bytes when both fit the fixed capacity.
  void keep(const TraceFields& fields, std::string_view json);

  TraceFields fields_;
  std::string json_;
};

// The memo at `i`, or null when `memos` has none there (the producer sized
// no memos because tracing was off when it built its entities).
[[nodiscard]] inline TraceMemo* memo_at(std::vector<TraceMemo>& memos,
                                        std::size_t i) {
  return i < memos.size() ? &memos[i] : nullptr;
}

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void write(const TraceEventView& event) = 0;
  virtual void flush() {}
};

// Bounded ring of structured events; the oldest are dropped once full.
// Not thread-safe: confine to the (single-threaded) run that owns the
// emitter writing to it.
//
// Iterator/reference stability: `events()` exposes the live deque, so any
// reference or iterator into it is invalidated by the next write once the
// ring is at capacity (eviction pops the front). Accessors that outlive
// further writes -- `of_type` -- therefore return copies, not pointers.
class MemorySink final : public TraceSink {
 public:
  explicit MemorySink(std::size_t capacity = 1 << 16)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  // Keeps the event as a TraceEvent holding the exact field values.
  void write(const TraceEventView& event) override;

  [[nodiscard]] const std::deque<TraceEvent>& events() const {
    return events_;
  }
  // Copies of every retained event with the given type, in arrival order.
  // Safe to hold across later writes (unlike pointers into events()).
  [[nodiscard]] std::vector<TraceEvent> of_type(std::string_view type) const;
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

 private:
  std::size_t capacity_;
  std::deque<TraceEvent> events_;
  std::uint64_t dropped_ = 0;
};

// JSONL file sink. ok() turns false when the file fails to open or a write
// or flush fails, and a sink that is not ok swallows further writes. Check
// it after construction and again after the final flush(): writes are
// buffered, so a full disk may show only when they are flushed.
//
// Thread safety: write() and flush() serialize on an internal mutex, and a
// line is fully assembled (the header, then the event's field bytes, in a
// buffer each thread reuses) before the lock is taken, so each JSON line
// lands atomically even when several emitters share one sink (e.g. the
// traced runs of a parallel bench driver). Note that
// sharing a sink across concurrently running emitters interleaves *lines*
// nondeterministically and mixes their independent `seq` streams --
// deterministic sweeps give every run a private sink instead
// (exec::SweepOptions::trace_dir); the lock is a safety net, not an ordering
// guarantee.
class FileSink final : public TraceSink {
 public:
  explicit FileSink(const std::string& path) : out_(path) {}

  [[nodiscard]] bool ok() const { return out_.good(); }
  void write(const TraceEventView& event) override;
  void flush() override;

 private:
  std::mutex mu_;
  std::ofstream out_;
};

class TraceEmitter {
  // An event a builder is filling: its timestamp, type and fields.
  struct PendingEvent {
    double t = 0.0;
    std::string type;
    TraceFields fields;
  };

 public:
  TraceEmitter() = default;  // disabled: every event() is a no-op
  explicit TraceEmitter(std::shared_ptr<TraceSink> sink)
      : sink_(std::move(sink)) {}

  [[nodiscard]] bool enabled() const { return sink_ != nullptr; }
  [[nodiscard]] std::uint64_t emitted() const { return next_seq_; }

  // The default timestamp for event(); the runtime advances it once per tick
  // so producers without their own clock (e.g. the migration planner) stamp
  // correctly.
  void set_now(double t) { now_ = t; }
  [[nodiscard]] double now() const { return now_; }

  // RAII field builder: commits the event to the sink on destruction. Each
  // builder fills its own pooled event, so builders alive at the same time
  // never share fields, and seq follows the order in which they commit.
  class Event {
   public:
    Event(Event&& other) noexcept
        : emitter_(other.emitter_),
          memo_(other.memo_),
          event_(std::move(other.event_)) {
      other.emitter_ = nullptr;
    }
    Event(const Event&) = delete;
    Event& operator=(const Event&) = delete;
    Event& operator=(Event&&) = delete;
    ~Event();

    Event& num(std::string_view key, double value) {
      if (emitter_ != nullptr) event_.fields.add_num(key, value);
      return *this;
    }
    Event& str(std::string_view key, std::string_view value) {
      if (emitter_ != nullptr) event_.fields.add_str(key, value);
      return *this;
    }
    Event& flag(std::string_view key, bool value) {
      return str(key, value ? "true" : "false");
    }

   private:
    friend class TraceEmitter;
    Event(TraceEmitter* emitter, double t, std::string_view type,
          TraceMemo* memo = nullptr);

    TraceEmitter* emitter_;  // null when the emitter is disabled
    TraceMemo* memo_;        // null: encode the fields afresh
    PendingEvent event_;
  };

  [[nodiscard]] Event event(std::string_view type) {
    return Event(enabled() ? this : nullptr, now_, type);
  }
  // `memo`: the producer entity's memo for a per-tick event (null takes
  // the plain encode).
  [[nodiscard]] Event event_at(double t, std::string_view type,
                               TraceMemo* memo = nullptr) {
    return Event(enabled() ? this : nullptr, t, type, memo);
  }

  // ---- Spans (schema v2) ----------------------------------------------
  // Sentinel parent: "use the current ambient parent" (top of the stack
  // pushed by SpanScope/ParentScope, or no parent if the stack is empty).
  static constexpr std::uint64_t kAmbientParent = ~std::uint64_t{0};

  // Opens a span: returns the builder of a "span_begin" event carrying
  // name/span_id/parent_id, to which the caller can attach extra begin-time
  // fields; *id_out receives the fresh id (kNoSpan when disabled) before the
  // builder commits. The span stays open until end_span(id) -- spans are
  // not required to close in LIFO order.
  [[nodiscard]] Event begin_span_event(std::string_view name,
                                       std::uint64_t* id_out,
                                       std::uint64_t parent = kAmbientParent);
  // Same with an explicit timestamp (producers that record transition times
  // mid-tick, e.g. the failure detector).
  [[nodiscard]] Event begin_span_event_at(
      double t, std::string_view name, std::uint64_t* id_out,
      std::uint64_t parent = kAmbientParent);
  // Closes a span: emits a "span_end" event with span_id; attach end-time
  // fields (status, durations, counters) to the returned builder. A kNoSpan
  // id is a no-op.
  Event end_span(std::uint64_t span_id);
  Event end_span_at(double t, std::uint64_t span_id);

  // Number of spans begun without a matching end_span yet.
  [[nodiscard]] std::uint64_t open_spans() const { return open_spans_; }

  // RAII span covering a synchronous scope: the constructor emits span_begin
  // (ambient parent) and makes the new span the ambient parent; the
  // destructor emits span_end with the collected end fields plus "wall_us"
  // (wall-clock microseconds spent inside the scope). Null/disabled emitter
  // makes every method a no-op.
  class SpanScope {
   public:
    SpanScope(TraceEmitter* emitter, std::string_view name);
    ~SpanScope();
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

    // Fields attached to the span_end event.
    SpanScope& num(std::string_view key, double value);
    SpanScope& str(std::string_view key, std::string_view value);
    SpanScope& flag(std::string_view key, bool value) {
      return str(key, value ? "true" : "false");
    }
    [[nodiscard]] std::uint64_t id() const { return id_; }
    [[nodiscard]] bool active() const { return id_ != kNoSpan; }

   private:
    TraceEmitter* emitter_ = nullptr;
    std::uint64_t id_ = kNoSpan;
    std::chrono::steady_clock::time_point start_{};
    TraceFields end_fields_;
  };

  // Makes an already-open span the ambient parent for the current scope
  // without emitting anything -- used to nest synchronous work (diagnose,
  // plan, solver calls) under a long-lived span the caller keeps open.
  class ParentScope {
   public:
    ParentScope(TraceEmitter* emitter, std::uint64_t span_id);
    ~ParentScope();
    ParentScope(const ParentScope&) = delete;
    ParentScope& operator=(const ParentScope&) = delete;

   private:
    TraceEmitter* emitter_ = nullptr;  // null when nothing was pushed
  };

  void flush() {
    if (sink_ != nullptr) sink_->flush();
  }

 private:
  // Stamps seq, encodes the fields (or takes the memo's bytes when they
  // repeat), writes the event to the sink and keeps it as a spare.
  void commit(PendingEvent& event, TraceMemo* memo);
  [[nodiscard]] std::uint64_t resolve_parent(std::uint64_t parent) const {
    if (parent != kAmbientParent) return parent;
    return ambient_.empty() ? kNoSpan : ambient_.back();
  }

  std::shared_ptr<TraceSink> sink_;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_span_id_ = 1;
  std::uint64_t open_spans_ = 0;
  std::vector<std::uint64_t> ambient_;
  // Committed events, emptied, whose arenas and tables keep their capacity:
  // a builder takes one instead of allocating, so after warm-up an event
  // allocates nothing. Holds as many events as builders were ever alive at
  // once.
  std::vector<PendingEvent> spare_;
  // The fields' JSON bytes of the event being committed.
  std::string fields_json_;
};

}  // namespace wasp::obs
