#pragma once
// Text <-> scenario parsing shared by the front-ends (drrg_cli, drrg_node,
// the bench harnesses), so all spell topologies and fault schedules alike:
//
//   --topology    complete | chord-ring | random-regular | grid | torus
//   --churn       R:F[,R:F...]   e.g. "10:0.1,20:0.05" -- crash 10% of the
//                 then-alive nodes at round 10 and 5% more at round 20.
//   --join        R:F[,R:F...]   e.g. "8:0.05" -- 5% of the id space joins
//                 at round 8 (deferred out of the round-0 cohort).
//   --block-crash R:LO-HI[:STRIDE/WIDTH][,...]  e.g. "10:64-128" (rack) or
//                 "10:132-192:16/4" (grid rectangle on a 16-wide lattice).
//   --partition   R:B[:H][,...]  e.g. "10:128:20" -- cut the id space at
//                 boundary 128 from round 10, heal at round 20 (no :H =
//                 never heals).
//   --latency     fixed:D | uniform:A-B | tail:A-B:P  -- per-call delay in
//                 rounds (event-time delivery); absent/zero = historical
//                 lockstep.
//   --chaos       datagram-level adversity for the real UDP runtime,
//                 comma-joined tokens:
//                   drop:P            Bernoulli datagram loss
//                   dup:P             duplicate the datagram
//                   corrupt:P         flip one byte (wire checksum rejects)
//                   reorder:P[/SPAN]  hold back for up to SPAN later sends
//                   delay:<latency>   per-datagram delay, latency grammar
//                                     with ms units (e.g. delay:tail:5-150:0.1)
//                   cut:B@S[-H]       partition at boundary B from S ms,
//                                     healing at H ms (omit -H: never)
//                 e.g. "drop:0.1,dup:0.05,reorder:0.2/4,cut:24@500-4000".

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/chaos.hpp"
#include "sim/counters.hpp"
#include "sim/topology.hpp"

namespace drrg::api {

/// Parses a churn schedule "round:fraction[,round:fraction...]".
/// Fractions must be in (0, 1); rounds are global round indices.
/// Returns nullopt on malformed input; an empty string parses to {}.
[[nodiscard]] std::optional<std::vector<sim::CrashEvent>> parse_churn(
    std::string_view text);

/// "10:0.1,20:0.05" rendering of a schedule ("" when empty).
[[nodiscard]] std::string format_churn(const std::vector<sim::CrashEvent>& churn);

/// Parses a join schedule "round:fraction[,...]" (same grammar as churn).
[[nodiscard]] std::optional<std::vector<sim::JoinEvent>> parse_joins(
    std::string_view text);

[[nodiscard]] std::string format_joins(const std::vector<sim::JoinEvent>& joins);

/// Parses block-crash events "R:LO-HI[:STRIDE/WIDTH][,...]": at round R
/// every id in [LO, HI) crashes; with :STRIDE/WIDTH only offsets whose
/// (v - LO) % STRIDE < WIDTH do (a rectangle on a row-major lattice of
/// STRIDE columns).
[[nodiscard]] std::optional<std::vector<sim::BlockCrashEvent>> parse_blocks(
    std::string_view text);

[[nodiscard]] std::string format_blocks(const std::vector<sim::BlockCrashEvent>& blocks);

/// Parses partition events "R:B[:H][,...]": from round R messages
/// straddling boundary B are dropped; an optional :H heals the cut at
/// round H.
[[nodiscard]] std::optional<std::vector<sim::PartitionEvent>> parse_partitions(
    std::string_view text);

[[nodiscard]] std::string format_partitions(
    const std::vector<sim::PartitionEvent>& partitions);

/// Parses a latency model: "" or "zero" (no delay), "fixed:D",
/// "uniform:A-B", "tail:A-B:P" (delay A, but with probability P a
/// straggler uniform in [A, B]).
[[nodiscard]] std::optional<sim::LatencyModel> parse_latency(std::string_view text);

/// "fixed:3" / "uniform:0-4" / "tail:1-16:0.05" rendering ("" when zero).
[[nodiscard]] std::string format_latency(const sim::LatencyModel& latency);

/// True for --churn, --join, --block-crash, --partition and --latency.
[[nodiscard]] bool is_schedule_flag(std::string_view flag);

/// Parses `text` as schedule flag `flag`'s value into its field of
/// `faults`.  False, leaving `faults` alone, on malformed text or a
/// flag that is not a schedule flag.
[[nodiscard]] bool apply_schedule_flag(std::string_view flag, std::string_view text,
                                       sim::FaultSchedule& faults);

/// Parses a chaos spec (grammar in the header comment).  "" and "none"
/// parse to the zero spec (passthrough).  Probabilities are in (0, 1].
[[nodiscard]] std::optional<net::ChaosSpec> parse_chaos(std::string_view text);

/// Canonical rendering of a chaos spec ("" when zero).
[[nodiscard]] std::string format_chaos(const net::ChaosSpec& spec);

/// All parseable topology names, space-separated (for usage strings).
[[nodiscard]] std::string topology_names();

}  // namespace drrg::api
