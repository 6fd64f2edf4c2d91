#include "switchd/egress_scheduler.hpp"

#include "util/check.hpp"

namespace sdnbuf::sw {

const char* scheduler_policy_name(SchedulerPolicy policy) {
  switch (policy) {
    case SchedulerPolicy::Fifo: return "fifo";
    case SchedulerPolicy::StrictPriority: return "strict-priority";
    case SchedulerPolicy::DeficitRoundRobin: return "deficit-round-robin";
  }
  return "?";
}

EgressScheduler::EgressScheduler(sim::Simulator& sim, EgressSchedulerConfig config,
                                 net::Link& link, DeliverFn deliver)
    : sim_(sim), config_(std::move(config)), link_(link), deliver_(std::move(deliver)) {
  SDNBUF_CHECK_MSG(config_.num_classes >= 1, "need at least one service class");
  if (config_.policy == SchedulerPolicy::Fifo) {
    config_.num_classes = 1;
    config_.drr_quanta.clear();
  }
  if (config_.drr_quanta.empty()) {
    config_.drr_quanta.assign(config_.num_classes, 1500);
  }
  SDNBUF_CHECK_MSG(config_.drr_quanta.size() == config_.num_classes,
                   "one DRR quantum per class");
  queues_.resize(config_.num_classes);
}

unsigned EgressScheduler::classify(const net::Packet& packet) const {
  if (config_.policy == SchedulerPolicy::Fifo) return 0;
  const unsigned precedence = (packet.ip.dscp >> 5) & 0x7;  // IP precedence bits
  return precedence < config_.num_classes ? precedence : config_.num_classes - 1;
}

void EgressScheduler::attach_mmu(mmu::SharedMemoryMmu& mmu, std::uint16_t port_no) {
  SDNBUF_CHECK_MSG(mmu_ == nullptr, "MMU already attached");
  mmu_ = &mmu;
  mmu_queues_.reserve(config_.num_classes);
  for (unsigned c = 0; c < config_.num_classes; ++c) {
    mmu_queues_.push_back(
        mmu.register_queue(mmu::QueueKind::Egress, port_no, c, config_.queue_limit_bytes));
  }
}

std::uint64_t EgressScheduler::mmu_threshold_for(const net::Packet& packet) const {
  if (mmu_ == nullptr) return 0;
  return mmu_->threshold(mmu_queues_[classify(packet)]);
}

bool EgressScheduler::enqueue(net::Packet&& packet) {
  const unsigned service_class = classify(packet);
  ClassQueue& queue = queues_[service_class];
  if (mmu_ != nullptr) {
    // Shared-pool admission: the native charge is the frame's bytes (the
    // legacy currency of queue_limit_bytes, which StaticPartition enforces
    // unchanged); the dynamic policies arbitrate the same bytes as cells.
    if (!mmu_->try_admit(mmu_queues_[service_class], packet.frame_size, packet.frame_size)) {
      ++queue.stats.dropped;
      return false;
    }
  } else if (queue.backlog_bytes + packet.frame_size > config_.queue_limit_bytes) {
    ++queue.stats.dropped;
    return false;
  }
  queue.backlog_bytes += packet.frame_size;
  queue.packets.push_back(Queued{std::move(packet), sim_.now()});
  ++queue.stats.enqueued;
  // Pure counters (no sim-state reads, no scheduling), so maintaining them
  // unconditionally cannot perturb the event sequence.
  const std::uint64_t backlog_pkts = total_backlog_packets();
  if (backlog_pkts > highwater_packets_) highwater_packets_ = backlog_pkts;
  const std::uint64_t backlog_b = total_backlog_bytes();
  if (backlog_b > highwater_bytes_) highwater_bytes_ = backlog_b;
  if (instr_.queue_depth != nullptr) {
    instr_.queue_depth->record(static_cast<double>(total_backlog_packets()));
  }
  maybe_start();
  return true;
}

int EgressScheduler::select_class() {
  switch (config_.policy) {
    case SchedulerPolicy::Fifo:
      return queues_[0].packets.empty() ? -1 : 0;
    case SchedulerPolicy::StrictPriority:
      // Highest class first.
      for (int c = static_cast<int>(config_.num_classes) - 1; c >= 0; --c) {
        if (!queues_[static_cast<unsigned>(c)].packets.empty()) return c;
      }
      return -1;
    case SchedulerPolicy::DeficitRoundRobin: {
      // Classic DRR: each queue gets its quantum once per visit of the
      // round-robin cursor and is served while its head packet fits the
      // accumulated credit; the cursor then moves on and the credit of
      // emptied queues is forfeited.
      bool any = false;
      for (const auto& q : queues_) any = any || !q.packets.empty();
      if (!any) return -1;
      // A head larger than its quantum needs several cursor round trips to
      // accumulate credit; bound the scan generously and fail loudly if the
      // configuration can never serve a packet (quantum of 0).
      for (int guard = 0; guard < 100000; ++guard) {
        ClassQueue& queue = queues_[drr_cursor_];
        if (queue.packets.empty()) {
          queue.deficit = 0;  // empty queues keep no credit
          drr_cursor_ = (drr_cursor_ + 1) % config_.num_classes;
          drr_topped_up_ = false;
          continue;
        }
        if (!drr_topped_up_) {
          queue.deficit += config_.drr_quanta[drr_cursor_];
          drr_topped_up_ = true;
        }
        if (queue.deficit >= static_cast<std::int64_t>(queue.packets.front().packet.frame_size)) {
          return static_cast<int>(drr_cursor_);
        }
        drr_cursor_ = (drr_cursor_ + 1) % config_.num_classes;
        drr_topped_up_ = false;
      }
      SDNBUF_CHECK_MSG(false, "DRR cannot accumulate enough credit — zero quantum?");
      return -1;
    }
  }
  return -1;
}

void EgressScheduler::maybe_start() {
  if (busy_) return;
  const int service_class = select_class();
  if (service_class < 0) return;
  transmit(static_cast<unsigned>(service_class));
}

void EgressScheduler::transmit(unsigned service_class) {
  ClassQueue& queue = queues_[service_class];
  SDNBUF_CHECK(!queue.packets.empty());
  Queued item = queue.packets.pop_front();
  const std::uint32_t frame_size = item.packet.frame_size;
  queue.backlog_bytes -= frame_size;
  ++queue.stats.dequeued;
  queue.stats.bytes_sent += frame_size;
  const sim::SimTime waited = sim_.now() - item.enqueued_at;
  queue.stats.queue_delay_ms.add(waited.ms());
  if (mmu_ != nullptr) {
    // The frame leaves switch memory at dequeue regardless of its fate on
    // the link (a link-fault drop happens after the buffer is freed), and
    // the measured wait is the delay-driven policy's steering signal.
    mmu_->release(mmu_queues_[service_class], frame_size, frame_size);
    mmu_->record_queue_delay(mmu_queues_[service_class], waited);
  }
  if (config_.policy == SchedulerPolicy::DeficitRoundRobin) {
    queue.deficit -= frame_size;
  }

  busy_ = true;
  // The delivery closure captures only `this` and pops the in-flight FIFO,
  // so it fits EventFn's inline buffer — no allocation per hop. The packet
  // is pushed only on Sent (dropped frames schedule no delivery), keeping
  // the ring in lockstep with the wire.
  const bool sent = link_.send(frame_size, [this]() {
    net::Packet packet = inflight_.pop_front();
    if (deliver_) deliver_(std::move(packet));
  });
  if (sent) {
    inflight_.push_back(std::move(item.packet));
  } else {
    ++queue.stats.link_dropped;
    if (on_drop_) on_drop_(item.packet, "link-down");
  }
  // The transmitter frees after the serialization time; queueing beyond that
  // happens here per class, not invisibly inside the link.
  const sim::SimTime tx = sim::transmission_time(frame_size, link_.bandwidth_bps());
  sim_.schedule(tx, [this]() {
    sim::ScopedProfileTag tag{"egress_scheduler"};
    busy_ = false;
    maybe_start();
  });
}

const EgressScheduler::ClassStats& EgressScheduler::class_stats(unsigned service_class) const {
  SDNBUF_CHECK(service_class < queues_.size());
  return queues_[service_class].stats;
}

std::uint64_t EgressScheduler::backlog_bytes(unsigned service_class) const {
  SDNBUF_CHECK(service_class < queues_.size());
  return queues_[service_class].backlog_bytes;
}

std::uint64_t EgressScheduler::total_backlog_packets() const {
  std::uint64_t n = 0;
  for (const auto& q : queues_) n += q.packets.size();
  return n;
}

std::uint64_t EgressScheduler::total_backlog_bytes() const {
  std::uint64_t n = 0;
  for (const auto& q : queues_) n += q.backlog_bytes;
  return n;
}

}  // namespace sdnbuf::sw
