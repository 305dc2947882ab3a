#include "api/scenario_text.hpp"

#include <charconv>
#include <cstdio>
#include <limits>
#include <utility>

#include "support/parse.hpp"

namespace drrg::api {

namespace {

// Splits "a,b,c" and hands each piece to `item_fn`; any piece it rejects
// rejects the whole schedule.  All the event grammars share this comma
// layer and differ only per item.
template <typename Fn>
bool for_each_item(std::string_view text, Fn&& item_fn) {
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t comma = std::min(text.find(',', pos), text.size());
    if (!item_fn(text.substr(pos, comma - pos))) return false;
    if (comma == text.size()) break;
    pos = comma + 1;
  }
  return true;
}

// Every number goes through support::parse_number: the whole text, no
// sign an unsigned field cannot hold, no blanks, no hex, no overflow,
// no NaN -- never a silent wrap or truncation.
template <class T>
bool parse_in(std::string_view text, T lo, T hi, T* out) {
  const std::optional<T> v = support::parse_number<T>(text, lo, hi);
  if (v.has_value()) *out = *v;
  return v.has_value();
}

bool parse_u32(std::string_view text, std::uint32_t* out) {
  return parse_in<std::uint32_t>(text, 0, std::numeric_limits<std::uint32_t>::max(), out);
}

// A fraction of a cohort, in (0, 1).
bool parse_frac(std::string_view text, double* out) {
  double v = 0.0;
  if (!parse_in(text, 0.0, 1.0, &v) || v == 0.0 || v == 1.0) return false;
  *out = v;
  return true;
}

// Shortest text that parses back to exactly `x`, so a rendered schedule
// re-parses to the same schedule ("%g" would round 0.99999995 up to
// "1", which no fraction grammar accepts).
std::string format_real(double x) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof buf, x).ptr);
}

// "R:F" events (churn and joins share the grammar).
template <class Event>
std::optional<std::vector<Event>> parse_round_fractions(std::string_view text) {
  std::vector<Event> events;
  if (text.empty()) return events;
  const bool ok = for_each_item(text, [&](std::string_view item) {
    const std::size_t colon = item.find(':');
    if (colon == std::string_view::npos) return false;
    Event e{};
    if (!parse_u32(item.substr(0, colon), &e.round)) return false;
    if (!parse_frac(item.substr(colon + 1), &e.fraction)) return false;
    events.push_back(e);
    return true;
  });
  if (!ok) return std::nullopt;
  return events;
}

template <class Event>
std::string format_round_fractions(const std::vector<Event>& events) {
  std::string out;
  for (const Event& e : events) {
    if (!out.empty()) out += ',';
    out += std::to_string(e.round) + ':' + format_real(e.fraction);
  }
  return out;
}

// "A-B" -> two u32s with A <= B.
bool parse_range(std::string_view text, std::uint32_t* lo, std::uint32_t* hi) {
  const std::size_t dash = text.find('-');
  if (dash == std::string_view::npos) return false;
  if (!parse_u32(text.substr(0, dash), lo)) return false;
  if (!parse_u32(text.substr(dash + 1), hi)) return false;
  return *lo <= *hi;
}

}  // namespace

std::optional<std::vector<sim::CrashEvent>> parse_churn(std::string_view text) {
  return parse_round_fractions<sim::CrashEvent>(text);
}

std::string format_churn(const std::vector<sim::CrashEvent>& churn) {
  return format_round_fractions(churn);
}

std::optional<std::vector<sim::JoinEvent>> parse_joins(std::string_view text) {
  return parse_round_fractions<sim::JoinEvent>(text);
}

std::string format_joins(const std::vector<sim::JoinEvent>& joins) {
  return format_round_fractions(joins);
}

std::optional<std::vector<sim::BlockCrashEvent>> parse_blocks(std::string_view text) {
  std::vector<sim::BlockCrashEvent> events;
  if (text.empty()) return events;
  const bool ok = for_each_item(text, [&](std::string_view item) {
    // R:LO-HI[:STRIDE/WIDTH]
    const std::size_t c1 = item.find(':');
    if (c1 == std::string_view::npos) return false;
    sim::BlockCrashEvent b{};
    if (!parse_u32(item.substr(0, c1), &b.round)) return false;
    std::string_view rest = item.substr(c1 + 1);
    const std::size_t c2 = rest.find(':');
    const std::string_view range = rest.substr(0, std::min(c2, rest.size()));
    if (!parse_range(range, &b.lo, &b.hi) || b.lo == b.hi) return false;
    if (c2 != std::string_view::npos) {
      const std::string_view grid = rest.substr(c2 + 1);
      const std::size_t slash = grid.find('/');
      if (slash == std::string_view::npos) return false;
      if (!parse_u32(grid.substr(0, slash), &b.stride)) return false;
      if (!parse_u32(grid.substr(slash + 1), &b.width)) return false;
      if (b.stride == 0 || b.width == 0 || b.width > b.stride) return false;
    }
    events.push_back(b);
    return true;
  });
  if (!ok) return std::nullopt;
  return events;
}

std::string format_blocks(const std::vector<sim::BlockCrashEvent>& blocks) {
  std::string out;
  char buf[96];
  for (const sim::BlockCrashEvent& b : blocks) {
    if (!out.empty()) out += ',';
    if (b.stride != 0)
      std::snprintf(buf, sizeof buf, "%u:%u-%u:%u/%u", b.round, b.lo, b.hi, b.stride,
                    b.width);
    else
      std::snprintf(buf, sizeof buf, "%u:%u-%u", b.round, b.lo, b.hi);
    out += buf;
  }
  return out;
}

std::optional<std::vector<sim::PartitionEvent>> parse_partitions(
    std::string_view text) {
  std::vector<sim::PartitionEvent> events;
  if (text.empty()) return events;
  const bool ok = for_each_item(text, [&](std::string_view item) {
    // R:B[:H]
    const std::size_t c1 = item.find(':');
    if (c1 == std::string_view::npos) return false;
    sim::PartitionEvent p{};
    if (!parse_u32(item.substr(0, c1), &p.round)) return false;
    std::string_view rest = item.substr(c1 + 1);
    const std::size_t c2 = rest.find(':');
    if (!parse_u32(rest.substr(0, std::min(c2, rest.size())), &p.boundary))
      return false;
    if (c2 != std::string_view::npos) {
      if (!parse_u32(rest.substr(c2 + 1), &p.heal_round)) return false;
      if (p.heal_round <= p.round) return false;
    }
    events.push_back(p);
    return true;
  });
  if (!ok) return std::nullopt;
  return events;
}

std::string format_partitions(const std::vector<sim::PartitionEvent>& partitions) {
  std::string out;
  char buf[96];
  for (const sim::PartitionEvent& p : partitions) {
    if (!out.empty()) out += ',';
    if (p.heal_round != sim::kNeverRound)
      std::snprintf(buf, sizeof buf, "%u:%u:%u", p.round, p.boundary, p.heal_round);
    else
      std::snprintf(buf, sizeof buf, "%u:%u", p.round, p.boundary);
    out += buf;
  }
  return out;
}

std::optional<sim::LatencyModel> parse_latency(std::string_view text) {
  sim::LatencyModel latency{};
  if (text.empty() || text == "zero") return latency;
  const std::size_t colon = text.find(':');
  if (colon == std::string_view::npos) return std::nullopt;
  const std::string_view kind = text.substr(0, colon);
  const std::string_view rest = text.substr(colon + 1);
  if (kind == "fixed") {
    if (!parse_u32(rest, &latency.min_delay)) return std::nullopt;
    latency.max_delay = latency.min_delay;
    latency.kind = latency.min_delay == 0 ? sim::LatencyModel::Kind::kZero
                                          : sim::LatencyModel::Kind::kFixed;
    return latency;
  }
  if (kind == "uniform") {
    if (!parse_range(rest, &latency.min_delay, &latency.max_delay)) return std::nullopt;
    latency.kind = sim::LatencyModel::Kind::kUniform;
    return latency;
  }
  if (kind == "tail") {
    const std::size_t c2 = rest.find(':');
    if (c2 == std::string_view::npos) return std::nullopt;
    if (!parse_range(rest.substr(0, c2), &latency.min_delay, &latency.max_delay))
      return std::nullopt;
    if (!parse_in(rest.substr(c2 + 1), 0.0, 1.0, &latency.tail_prob)) return std::nullopt;
    latency.kind = sim::LatencyModel::Kind::kHeavyTail;
    return latency;
  }
  return std::nullopt;
}

std::string format_latency(const sim::LatencyModel& latency) {
  if (latency.zero()) return "";
  char buf[96];
  switch (latency.kind) {
    case sim::LatencyModel::Kind::kZero:
      return "";
    case sim::LatencyModel::Kind::kFixed:
      std::snprintf(buf, sizeof buf, "fixed:%u", latency.min_delay);
      break;
    case sim::LatencyModel::Kind::kUniform:
      std::snprintf(buf, sizeof buf, "uniform:%u-%u", latency.min_delay,
                    latency.max_delay);
      break;
    case sim::LatencyModel::Kind::kHeavyTail:
      std::snprintf(buf, sizeof buf, "tail:%u-%u:", latency.min_delay, latency.max_delay);
      return buf + format_real(latency.tail_prob);
  }
  return buf;
}

bool is_schedule_flag(std::string_view flag) {
  return flag == "--churn" || flag == "--join" || flag == "--block-crash" ||
         flag == "--partition" || flag == "--latency";
}

bool apply_schedule_flag(std::string_view flag, std::string_view text,
                         sim::FaultSchedule& faults) {
  const auto store = [](auto parsed, auto& field) {
    if (parsed.has_value()) field = std::move(*parsed);
    return parsed.has_value();
  };
  if (flag == "--churn") return store(parse_churn(text), faults.churn);
  if (flag == "--join") return store(parse_joins(text), faults.joins);
  if (flag == "--block-crash") return store(parse_blocks(text), faults.blocks);
  if (flag == "--partition") return store(parse_partitions(text), faults.partitions);
  if (flag == "--latency") return store(parse_latency(text), faults.latency);
  return false;
}

namespace {

// Chaos probabilities allow 1.0 ("corrupt:1" is the always-reject soak),
// unlike the (0, 1) crash fractions.
bool parse_prob(std::string_view text, double* out) {
  double v = 0.0;
  if (!parse_in(text, 0.0, 1.0, &v) || v == 0.0) return false;
  *out = v;
  return true;
}

// A non-negative millisecond mark.
bool parse_ms(std::string_view text, std::int64_t* out) {
  return parse_in<std::int64_t>(text, 0, std::numeric_limits<std::int64_t>::max(), out);
}

}  // namespace

std::optional<net::ChaosSpec> parse_chaos(std::string_view text) {
  net::ChaosSpec spec;
  if (text.empty() || text == "none") return spec;
  const bool ok = for_each_item(text, [&](std::string_view item) {
    const std::size_t colon = item.find(':');
    if (colon == std::string_view::npos || colon + 1 >= item.size()) return false;
    const std::string_view key = item.substr(0, colon);
    const std::string_view rest = item.substr(colon + 1);
    if (key == "drop") return parse_prob(rest, &spec.drop);
    if (key == "dup") return parse_prob(rest, &spec.dup);
    if (key == "corrupt") return parse_prob(rest, &spec.corrupt);
    if (key == "reorder") {
      // P[/SPAN]
      const std::size_t slash = rest.find('/');
      if (!parse_prob(rest.substr(0, std::min(slash, rest.size())), &spec.reorder))
        return false;
      if (slash != std::string_view::npos) {
        if (!parse_u32(rest.substr(slash + 1), &spec.reorder_span)) return false;
        if (spec.reorder_span == 0) return false;
      }
      return true;
    }
    if (key == "delay") {
      const auto latency = parse_latency(rest);  // ms units on this layer
      if (!latency || latency->zero()) return false;
      spec.delay = *latency;
      return true;
    }
    if (key == "cut") {
      // B@S[-H]
      const std::size_t at = rest.find('@');
      if (at == std::string_view::npos) return false;
      net::ChaosCut cut;
      if (!parse_u32(rest.substr(0, at), &cut.boundary)) return false;
      const std::string_view marks = rest.substr(at + 1);
      const std::size_t dash = marks.find('-');
      if (!parse_ms(marks.substr(0, std::min(dash, marks.size())), &cut.start_ms))
        return false;
      if (dash != std::string_view::npos) {
        if (!parse_ms(marks.substr(dash + 1), &cut.heal_ms)) return false;
        if (cut.heal_ms <= cut.start_ms) return false;
      }
      spec.cuts.push_back(cut);
      return true;
    }
    return false;
  });
  if (!ok) return std::nullopt;
  return spec;
}

std::string format_chaos(const net::ChaosSpec& spec) {
  std::string out;
  const auto add = [&](const std::string& item) {
    if (!out.empty()) out += ',';
    out += item;
  };
  if (spec.drop > 0.0) add("drop:" + format_real(spec.drop));
  if (spec.dup > 0.0) add("dup:" + format_real(spec.dup));
  if (spec.corrupt > 0.0) add("corrupt:" + format_real(spec.corrupt));
  if (spec.reorder > 0.0)
    add("reorder:" + format_real(spec.reorder) + "/" + std::to_string(spec.reorder_span));
  if (!spec.delay.zero()) add("delay:" + format_latency(spec.delay));
  for (const net::ChaosCut& cut : spec.cuts) {
    std::string item =
        "cut:" + std::to_string(cut.boundary) + "@" + std::to_string(cut.start_ms);
    if (cut.heal_ms != net::ChaosCut::kNoHeal) {
      item += '-';
      item += std::to_string(cut.heal_ms);
    }
    add(item);
  }
  return out;
}

std::string topology_names() {
  return "complete chord-ring random-regular grid torus";
}

}  // namespace drrg::api
