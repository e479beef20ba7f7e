#include "obs/profiler.h"

#include <chrono>
#include <cstring>

namespace wasp::obs {
namespace {

// Names are dotted paths whose prefixes mirror the nesting ("engine.stage"
// runs inside "engine"); `wasp_trace profile` sorts and indents by them.
constexpr const char* kPhaseNames[static_cast<std::size_t>(Phase::kCount)] = {
    "step",
    "workload",
    "waterfill",
    "engine",
    "engine.reset",
    "engine.stage",
    "engine.channel",
    "engine.checkpoint",
    "engine.delay",
    "engine.emit",
    "monitor",
    "control",
    "control.policy",
    "control.solver.placement",
    "control.solver.migration",
    "control.standby_sync",
    "record",
};

}  // namespace

const char* phase_name(Phase phase) {
  const auto index = static_cast<std::size_t>(phase);
  if (index >= static_cast<std::size_t>(Phase::kCount)) return "?";
  return kPhaseNames[index];
}

bool phase_from_name(const char* name, Phase* out) {
  for (std::size_t i = 0; i < static_cast<std::size_t>(Phase::kCount); ++i) {
    if (std::strcmp(name, kPhaseNames[i]) == 0) {
      *out = static_cast<Phase>(i);
      return true;
    }
  }
  return false;
}

std::uint64_t Profiler::steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void Profiler::reset() {
  accums_ = {};
  // Open frames (there should be none between ticks) keep their start
  // times; their accounting lands in the post-reset table.
}

void Profiler::push(Phase phase, std::uint64_t now) {
  if (depth_ >= kMaxDepth) {
    // Deeper frames are silently untimed; count them so the matching pops
    // skip instead of closing an ancestor's frame.
    ++overflow_;
    return;
  }
  Frame& frame = stack_[depth_++];
  frame.phase = phase;
  frame.start_ns = now;
  frame.child_ns = 0;
}

void Profiler::pop(std::uint64_t now) {
  if (overflow_ > 0) {
    --overflow_;
    return;
  }
  if (depth_ == 0) return;
  const Frame& frame = stack_[--depth_];
  const std::uint64_t elapsed =
      now >= frame.start_ns ? now - frame.start_ns : 0;
  PhaseAccum& accum = accums_[static_cast<std::size_t>(frame.phase)];
  ++accum.calls;
  accum.total_ns += elapsed;
  accum.self_ns += elapsed >= frame.child_ns ? elapsed - frame.child_ns : 0;
  if (depth_ > 0) stack_[depth_ - 1].child_ns += elapsed;
}

}  // namespace wasp::obs
