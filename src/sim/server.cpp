#include "sim/server.hpp"

#include <utility>

#include "util/check.hpp"

namespace sdnbuf::sim {

CpuServer::CpuServer(Simulator& sim, std::string name, unsigned cores)
    : sim_(sim), name_(std::move(name)), cores_(cores) {
  SDNBUF_CHECK_MSG(cores_ >= 1, "a server needs at least one core");
}

void CpuServer::submit(SimTime service, Job on_done) {
  SDNBUF_CHECK_MSG(service >= SimTime::zero(), "negative service time");
  Queued job{service, sim_.now(), std::move(on_done)};
  if (busy_ < cores_) {
    start(std::move(job));
  } else {
    queue_.push_back(std::move(job));
  }
}

void CpuServer::start(Queued job) {
  ++busy_;
  ++jobs_started_;
  wait_ms_.add((sim_.now() - job.enqueued_at).ms());
  if (free_slots_.empty()) {
    free_slots_.push_back(static_cast<std::uint32_t>(running_.size()));
    running_.emplace_back();
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  running_[slot] = std::move(job.on_done);
  const SimTime service = job.service;
  sim_.schedule(service, [this, service, slot]() {
    ScopedProfileTag tag{name_.c_str()};
    on_complete(service, slot);
  });
}

void CpuServer::on_complete(SimTime service, std::uint32_t slot) {
  SDNBUF_CHECK(busy_ > 0);
  --busy_;
  ++jobs_completed_;
  busy_time_ += service;
  // Take the callback out first: it may submit jobs that reuse the slot or
  // grow the slot array.
  Job on_done = std::move(running_[slot]);
  free_slots_.push_back(slot);
  // Free core: pull the next queued job before running the completion
  // callback, so callback-triggered submissions queue fairly behind it.
  if (!queue_.empty()) start(queue_.pop_front());
  if (on_done) on_done();
}

double CpuServer::utilization_percent(SimTime window_start, SimTime window_end) const {
  SDNBUF_CHECK(window_end > window_start);
  const double window = (window_end - window_start).sec();
  return busy_time_.sec() / window * 100.0;
}

void CpuServer::reset_stats() {
  busy_time_ = SimTime::zero();
  jobs_started_ = 0;
  jobs_completed_ = 0;
  wait_ms_ = util::Summary{};
}

}  // namespace sdnbuf::sim
