#include "obs/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <limits>
#include <ostream>

namespace sdnbuf::obs {

namespace {

// Bucket index for a value: 0 for [0, unit), otherwise 1 + floor(log2(v/unit))
// clamped to the overflow bucket. Uses integer bit-width on the quotient so
// the hot path avoids libm.
std::size_t bucket_for(double value, double unit) {
  if (!(value >= 0.0)) return 0;  // negative / NaN guard: park in bucket 0
  const double q = value / unit;
  if (q < 1.0) return 0;
  // 2^62 is the lower bound of the overflow bucket; checking before the
  // cast also keeps huge quotients (> 2^64) off the UB float->int path.
  constexpr double kOverflowAt = 4611686018427387904.0;
  if (q >= kOverflowAt) return Histogram::kBuckets - 1;
  const auto scaled = static_cast<std::uint64_t>(q);
  std::size_t idx = 1;
  std::uint64_t v = scaled;
  while (v >>= 1) ++idx;
  return std::min(idx, Histogram::kBuckets - 1);
}

void write_json_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default: out << c; break;
    }
  }
  out << '"';
}

void write_json_number(std::ostream& out, double v) {
  if (!std::isfinite(v)) {
    out << "null";
    return;
  }
  // Round-trippable doubles without ostream state games.
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out << buf;
}

}  // namespace

Histogram::Histogram(double unit) : unit_(unit > 0.0 ? unit : 1.0) {}

void Histogram::record(double value) {
  if (value < 0.0) value = 0.0;
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    if (value < min_) min_ = value;
    if (value > max_) max_ = value;
  }
  ++count_;
  sum_ += value;
  ++buckets_[bucket_for(value, unit_)];
}

double Histogram::lower_bound(std::size_t bucket, double unit) {
  if (bucket == 0) return 0.0;
  return unit * std::ldexp(1.0, static_cast<int>(bucket) - 1);
}

double Histogram::upper_bound(std::size_t bucket, double unit) {
  if (bucket >= kBuckets - 1) return std::numeric_limits<double>::infinity();
  return unit * std::ldexp(1.0, static_cast<int>(bucket));
}

double Histogram::quantile(double p) const {
  if (count_ == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  // Same rank convention as util::Samples::percentile: rank in [0, n-1].
  const double rank = p / 100.0 * static_cast<double>(count_ - 1);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const std::uint64_t in_bucket = buckets_[i];
    if (in_bucket == 0) continue;
    if (rank < static_cast<double>(seen + in_bucket)) {
      // Interpolate within the bucket by rank position.
      const double frac =
          in_bucket == 1 ? 0.5
                         : (rank - static_cast<double>(seen)) / static_cast<double>(in_bucket - 1);
      double lo = lower_bound(i, unit_);
      double hi = upper_bound(i, unit_);
      if (!std::isfinite(hi)) hi = max_;  // overflow bucket: clamp to observed max
      double est = lo + frac * (hi - lo);
      return std::clamp(est, min_, max_);
    }
    seen += in_bucket;
  }
  return max_;
}

void Histogram::merge(const Histogram& other) {
  assert(unit_ == other.unit_ && "histogram merge requires matching units");
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
}

void Histogram::reset() {
  count_ = 0;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
  buckets_.fill(0);
}

Histogram& MetricsRegistry::histogram(const std::string& name, double unit) {
  auto it = histogram_index_.find(name);
  if (it != histogram_index_.end()) return histograms_[it->second];
  histogram_index_.emplace(name, histograms_.size());
  histogram_names_.push_back(name);
  return histograms_.emplace_back(Histogram(unit));
}

void MetricsRegistry::register_poll(const std::string& name, std::function<double()> poll) {
  // Get-or-replace by name, so re-installing over a reused registry (one
  // registry across a sweep's points) rebinds the callback instead of
  // growing a duplicate column per run.
  for (std::size_t i = 0; i < poll_names_.size(); ++i) {
    if (poll_names_[i] == name) {
      polls_[i] = std::move(poll);
      return;
    }
  }
  poll_names_.push_back(name);
  polls_.push_back(std::move(poll));
}

void MetricsRegistry::clear_polls() {
  // Only the callbacks die (they capture references into a testbed that is
  // about to be destroyed). The names stay: recorded rows keep their columns,
  // and any later snapshot records 0 for the dead polls.
  for (auto& poll : polls_) poll = nullptr;
}

void MetricsRegistry::set_meta(const std::string& key, const std::string& value) {
  for (auto& [k, v] : meta_) {
    if (k == key) {
      v = value;
      return;
    }
  }
  meta_.emplace_back(key, value);
}

void MetricsRegistry::take_snapshot(sim::SimTime now) {
  SnapshotRow row;
  row.t = now;
  row.values.reserve(polls_.size());
  for (const auto& poll : polls_) row.values.push_back(poll ? poll() : 0.0);
  snapshots_.push_back(std::move(row));
}

const Histogram* MetricsRegistry::find_histogram(const std::string& name) const {
  auto it = histogram_index_.find(name);
  return it == histogram_index_.end() ? nullptr : &histograms_[it->second];
}

std::optional<double> MetricsRegistry::snapshot_value(std::size_t row,
                                                      const std::string& name) const {
  if (row >= snapshots_.size()) return std::nullopt;
  const SnapshotRow& r = snapshots_[row];
  for (std::size_t col = 0; col < poll_names_.size() && col < r.values.size(); ++col) {
    if (poll_names_[col] == name) return r.values[col];
  }
  return std::nullopt;
}

sim::SimTime MetricsRegistry::snapshot_time(std::size_t row) const {
  return row < snapshots_.size() ? snapshots_[row].t : sim::SimTime::zero();
}

void MetricsRegistry::write_json(std::ostream& out) const {
  out << "{\n  \"meta\": {";
  bool first = true;
  for (const auto& [k, v] : meta_) {
    out << (first ? "\n    " : ",\n    ");
    write_json_string(out, k);
    out << ": ";
    write_json_string(out, v);
    first = false;
  }
  out << (first ? "},\n" : "\n  },\n");

  out << "  \"columns\": [\"t_ms\"";
  for (const std::string& n : poll_names_) {
    out << ", ";
    write_json_string(out, n);
  }
  out << "],\n";

  out << "  \"snapshots\": [";
  for (std::size_t i = 0; i < snapshots_.size(); ++i) {
    const SnapshotRow& row = snapshots_[i];
    out << (i == 0 ? "\n    [" : ",\n    [");
    write_json_number(out, row.t.ms());
    for (double v : row.values) {
      out << ", ";
      write_json_number(out, v);
    }
    out << "]";
  }
  out << (snapshots_.empty() ? "],\n" : "\n  ],\n");

  out << "  \"histograms\": {";
  for (std::size_t i = 0; i < histograms_.size(); ++i) {
    const Histogram& h = histograms_[i];
    out << (i == 0 ? "\n    " : ",\n    ");
    write_json_string(out, histogram_names_[i]);
    out << ": {\"unit\": ";
    write_json_number(out, h.unit());
    out << ", \"count\": " << h.count() << ", \"sum\": ";
    write_json_number(out, h.sum());
    out << ", \"min\": ";
    write_json_number(out, h.min());
    out << ", \"max\": ";
    write_json_number(out, h.max());
    out << ", \"p50\": ";
    write_json_number(out, h.quantile(50));
    out << ", \"p99\": ";
    write_json_number(out, h.quantile(99));
    out << ", \"overflow\": " << h.overflow_count() << ", \"buckets\": [";
    // Trailing zero buckets are elided; validate_trace.py treats absent
    // buckets as zero.
    std::size_t last = 0;
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
      if (h.buckets()[b] != 0) last = b + 1;
    }
    for (std::size_t b = 0; b < last; ++b) {
      if (b) out << ", ";
      out << h.buckets()[b];
    }
    out << "]}";
  }
  out << (histograms_.empty() ? "}\n" : "\n  }\n");
  out << "}\n";
}

void MetricsRegistry::reset() {
  polls_.clear();
  histograms_.clear();
  poll_names_.clear();
  histogram_names_.clear();
  histogram_index_.clear();
  meta_.clear();
  snapshots_.clear();
}

MetricsSnapshotter::MetricsSnapshotter(sim::Simulator& sim, MetricsRegistry& registry,
                                       sim::SimTime interval)
    : sim_(sim), registry_(registry), interval_(interval) {}

void MetricsSnapshotter::start() {
  if (running_) return;
  running_ = true;
  registry_.take_snapshot(sim_.now());
  event_ = sim_.schedule(interval_, [this] { tick(); });
}

void MetricsSnapshotter::stop() {
  if (!running_) return;
  running_ = false;
  if (event_.pending()) event_.cancel();
}

void MetricsSnapshotter::tick() {
  if (!running_) return;
  registry_.take_snapshot(sim_.now());
  event_ = sim_.schedule(interval_, [this] { tick(); });
}

}  // namespace sdnbuf::obs
