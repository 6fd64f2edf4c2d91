#include "obs/profiler.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

namespace sdnbuf::obs {

void EventLoopProfiler::on_event(const char* tag, double wall_seconds) {
  Row* row;
  const auto cached = by_ptr_.find(tag);
  if (cached != by_ptr_.end()) {
    row = cached->second;
  } else {
    const char* text = tag != nullptr ? tag : "(untagged)";
    row = &rows_[std::string(text)];
    if (row->tag.empty()) row->tag = text;
    by_ptr_.emplace(tag, row);
  }
  ++row->events;
  row->total_s += wall_seconds;
  if (wall_seconds > row->max_s) row->max_s = wall_seconds;
  ++total_events_;
  total_s_ += wall_seconds;
}

std::vector<EventLoopProfiler::Row> EventLoopProfiler::table(std::size_t top_n) const {
  std::vector<Row> out;
  out.reserve(rows_.size());
  for (const auto& [_, row] : rows_) out.push_back(row);
  std::sort(out.begin(), out.end(), [](const Row& a, const Row& b) {
    if (a.total_s != b.total_s) return a.total_s > b.total_s;
    return a.tag < b.tag;  // deterministic order for ties
  });
  if (top_n != 0 && out.size() > top_n) out.resize(top_n);
  return out;
}

void EventLoopProfiler::write_report(std::ostream& out, std::size_t top_n) const {
  char line[160];
  std::snprintf(line, sizeof line, "%-28s %10s %7s %12s %10s %10s\n", "tag", "events", "share",
                "total_ms", "mean_us", "max_us");
  out << "event-loop profile: " << total_events_ << " events, "
      << static_cast<long long>(total_s_ * 1e3) << " ms total\n"
      << line;
  for (const Row& row : table(top_n)) {
    const double share = total_s_ > 0.0 ? row.total_s / total_s_ * 100.0 : 0.0;
    std::snprintf(line, sizeof line, "%-28s %10llu %6.1f%% %12.3f %10.3f %10.3f\n",
                  row.tag.c_str(), static_cast<unsigned long long>(row.events), share,
                  row.total_s * 1e3, row.mean_us(), row.max_s * 1e6);
    out << line;
  }
}

void EventLoopProfiler::reset() {
  by_ptr_.clear();
  rows_.clear();
  total_events_ = 0;
  total_s_ = 0.0;
}

}  // namespace sdnbuf::obs
