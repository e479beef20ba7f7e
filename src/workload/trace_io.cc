#include "workload/trace_io.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <set>
#include <sstream>

namespace wasp::workload {

void TraceWorkload::add_sample(const std::string& source_name, SiteId site,
                               double t, double events_per_sec) {
  auto& series = samples_[{source_name, site.value()}];
  series.emplace_back(t, events_per_sec);
  if (series.size() > 1 &&
      series[series.size() - 2].first > series.back().first) {
    std::sort(series.begin(), series.end());
  }
}

void TraceWorkload::bind_source(OperatorId source, const std::string& name) {
  const auto needed = static_cast<std::size_t>(source.value()) + 1;
  if (bindings_.size() < needed) bindings_.resize(needed);
  bindings_[source] = name;
}

double TraceWorkload::rate(OperatorId source, SiteId site, double t) const {
  if (static_cast<std::size_t>(source.value()) >= bindings_.size() ||
      !bindings_[source].has_value()) {
    return 0.0;
  }
  const auto it = samples_.find({*bindings_[source], site.value()});
  if (it == samples_.end() || it->second.empty()) return 0.0;
  const auto& series = it->second;
  auto pos = std::upper_bound(
      series.begin(), series.end(), t,
      [](double x, const std::pair<double, double>& s) { return x < s.first; });
  if (pos == series.begin()) return series.front().second;
  return std::prev(pos)->second;
}

std::size_t TraceWorkload::num_samples() const {
  std::size_t n = 0;
  for (const auto& [key, series] : samples_) n += series.size();
  return n;
}

std::vector<std::string> TraceWorkload::source_names() const {
  std::set<std::string> names;
  for (const auto& [key, series] : samples_) names.insert(key.first);
  return {names.begin(), names.end()};
}

TraceWorkload load_workload_trace(std::istream& in, std::string* error) {
  TraceWorkload trace;
  if (error != nullptr) error->clear();
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;

    std::istringstream fields(line);
    std::string time_cell, name, site_cell, rate_cell;
    if (!std::getline(fields, time_cell, ',') ||
        !std::getline(fields, name, ',') ||
        !std::getline(fields, site_cell, ',') ||
        !std::getline(fields, rate_cell, ',')) {
      if (line_no == 1) continue;  // header
      if (error != nullptr) {
        *error = "malformed workload trace line " + std::to_string(line_no);
      }
      return TraceWorkload{};
    }
    double t = 0.0, rate = 0.0;
    std::int64_t site = 0;
    try {
      t = std::stod(time_cell);
      site = std::stoll(site_cell);
      rate = std::stod(rate_cell);
    } catch (...) {
      if (line_no == 1) continue;  // header
      if (error != nullptr) {
        *error = "non-numeric field on workload trace line " +
                 std::to_string(line_no);
      }
      return TraceWorkload{};
    }
    if (rate < 0.0 || site < 0) {
      if (error != nullptr) {
        *error = "negative value on workload trace line " +
                 std::to_string(line_no);
      }
      return TraceWorkload{};
    }
    trace.add_sample(name, SiteId(site), t, rate);
  }
  return trace;
}

void save_workload_trace(std::ostream& out, const WorkloadPattern& pattern,
                         const std::vector<SourceBinding>& bindings,
                         double horizon_sec, double period_sec) {
  out << "time_sec,source_name,site,events_per_sec\n";
  for (double t = 0.0; t < horizon_sec; t += period_sec) {
    for (const auto& binding : bindings) {
      for (SiteId site : binding.sites) {
        out << t << ',' << binding.name << ',' << site.value() << ','
            << pattern.rate(binding.source, site, t) << '\n';
      }
    }
  }
}

}  // namespace wasp::workload
