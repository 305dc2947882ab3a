#include "net/chaos.hpp"

#include <algorithm>
#include <chrono>

namespace drrg::net {

ChaosSpec chaos_with_faults(ChaosSpec base, const sim::FaultSchedule& faults,
                            std::int64_t round_ms) {
  for (const sim::PartitionEvent& p : faults.partitions) {
    ChaosCut cut;
    cut.start_ms = static_cast<std::int64_t>(p.round) * round_ms;
    cut.heal_ms = p.heal_round == sim::kNeverRound
                      ? ChaosCut::kNoHeal
                      : static_cast<std::int64_t>(p.heal_round) * round_ms;
    cut.boundary = p.boundary;
    base.cuts.push_back(cut);
  }
  if (base.delay.zero() && !faults.latency.zero()) {
    base.delay = faults.latency;
    base.delay.min_delay = static_cast<std::uint32_t>(
        std::min<std::int64_t>(faults.latency.min_delay * round_ms, 60'000));
    base.delay.max_delay = static_cast<std::uint32_t>(
        std::min<std::int64_t>(faults.latency.max_delay * round_ms, 60'000));
  }
  return base;
}

ChaosDecision ChaosEngine::next() {
  ChaosDecision d;
  if (spec_.drop > 0.0 && rng_.next_bernoulli(spec_.drop)) {
    d.drop = true;
    return d;  // the datagram is gone; no further fate to decide
  }
  if (spec_.dup > 0.0 && rng_.next_bernoulli(spec_.dup)) d.duplicate = true;
  if (spec_.reorder > 0.0 && rng_.next_bernoulli(spec_.reorder)) {
    d.hold_sends = 1 + static_cast<std::uint32_t>(
                           rng_.next_below(std::max(1u, spec_.reorder_span)));
  } else if (!spec_.delay.zero()) {
    d.delay_ms = static_cast<std::int64_t>(spec_.delay.draw(rng_));
  }
  if (spec_.corrupt > 0.0 && rng_.next_bernoulli(spec_.corrupt)) {
    d.corrupt = true;
    d.corrupt_pos = static_cast<std::uint32_t>(rng_.next_below(1u << 16));
    d.corrupt_mask = static_cast<std::uint8_t>(1 + rng_.next_below(255));
  }
  return d;
}

bool ChaosEngine::cut(std::uint32_t src, std::uint32_t dst,
                      std::int64_t now_ms) const noexcept {
  for (const ChaosCut& c : spec_.cuts)
    if (c.active_at(now_ms) && c.cuts(src, dst)) return true;
  return false;
}

std::int64_t ChaosTransport::now_ms() const {
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration_cast<std::chrono::milliseconds>(now).count() - t0_ms_;
}

void ChaosTransport::set_chaos(const ChaosSpec& spec, std::uint32_t self, Rng rng,
                               std::int64_t clock_offset_ms) {
  armed_ = !spec.zero();
  self_ = self;
  engine_ = ChaosEngine{spec, rng};
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  t0_ms_ = std::chrono::duration_cast<std::chrono::milliseconds>(now).count() -
           clock_offset_ms;
}

void ChaosTransport::pump() {
  if (held_.empty()) return;
  const std::int64_t now = now_ms();
  for (std::size_t i = 0; i < held_.size();) {
    Held& h = held_[i];
    if (send_index_ >= h.release_send || now >= h.release_ms) {
      (void)inner_.send_raw(h.dst, h.bytes);
      held_.erase(held_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
}

bool ChaosTransport::send(const Frame& frame) {
  if (!armed_) return inner_.send(frame);
  pump();
  ++send_index_;
  const std::int64_t now = now_ms();
  buf_.clear();
  encode_frame(frame, buf_);
  if (engine_.cut(self_, frame.dst, now)) {
    chaos_stats_.cut_drops += 1;
    inner_.note_dropped(buf_.size());
    return true;
  }
  const ChaosDecision d = engine_.next();
  if (d.drop) {
    chaos_stats_.injected_drops += 1;
    inner_.note_dropped(buf_.size());
    return true;
  }
  if (d.corrupt && !buf_.empty()) {
    buf_[d.corrupt_pos % buf_.size()] ^= d.corrupt_mask;
    chaos_stats_.corruptions += 1;
  }
  bool ok = true;
  if (d.duplicate) {
    chaos_stats_.duplicates += 1;
    ok = inner_.send_raw(frame.dst, buf_);
  }
  if (d.hold_sends > 0 || d.delay_ms > 0) {
    if (held_.size() >= kMaxHeldDatagrams) {  // bounded: evict the oldest
      (void)inner_.send_raw(held_.front().dst, held_.front().bytes);
      held_.erase(held_.begin());
    }
    Held h;
    h.dst = frame.dst;
    h.release_send =
        d.hold_sends > 0 ? send_index_ + d.hold_sends : static_cast<std::uint64_t>(-1);
    h.release_ms = d.delay_ms > 0 ? now + d.delay_ms : INT64_MAX;
    h.bytes = buf_;
    held_.push_back(std::move(h));
    if (d.hold_sends > 0)
      chaos_stats_.reorders += 1;
    else
      chaos_stats_.delays += 1;
    return ok;
  }
  return inner_.send_raw(frame.dst, buf_) && ok;
}

bool ChaosTransport::poll(Frame& out, int timeout_ms) {
  if (!armed_) return inner_.poll(out, timeout_ms);
  pump();
  // Cap the wait so a held datagram is released close to its due time
  // even when nothing is arriving.
  const bool got = inner_.poll(out, held_.empty() ? timeout_ms
                                                  : std::min(timeout_ms, 5));
  pump();
  return got;
}

}  // namespace drrg::net
