// drrg_node -- one protocol node as one OS process.
//
// Runs the full DRR-gossip pipeline (Phase I DRR forest construction,
// Phase II convergecast, Phase III root gossip) over real UDP sockets on
// localhost, against n - 1 sibling processes started the same way:
//
//   for v in $(seq 0 63); do
//     drrg_node --id $v --n 64 --seed 42 --crash 0.15 --port-base 29600 &
//   done; wait
//
// Every process derives the workload, its DRR rank stream and the fault
// schedule from (--seed, --n, fault flags) alone -- the same pure
// functions the simulator evaluates -- so the cluster needs no
// coordinator and its survivor consensus is comparable to a simulated
// run field by field (bit-exact on --agg max/min over the same fault
// schedule).
//
// The process prints one JSON report line to stdout and exits 0 when it
// produced a final value (or was crashed by the schedule -- that is the
// experiment working, not failing), 1 otherwise.  --deadline-ms bounds
// the whole run: a wedged cluster degrades into failed reports, never
// hung processes.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "api/scenario_text.hpp"
#include "net/node.hpp"
#include "support/parse.hpp"

namespace {

[[noreturn]] void usage(int code) {
  std::fprintf(stderr,
               "usage: drrg_node --id V --n N [--seed S] [--loss D] [--crash F]\n"
               "                 [--churn R:F[,R:F...]] [--join R:F[,...]]\n"
               "                 [--block-crash R:LO-HI[:S/W][,...]]\n"
               "                 [--partition R:B[:H][,...]] [--latency MODEL]\n"
               "                 [--chaos SPEC] [--round-ms MS] [--no-self-halt]\n"
               "                 [--agg max|min|ave|sum|count]\n"
               "                 [--port-base P] [--bind-port P] [--seed-list L]\n"
               "                 [--bootstrap-min-ms MS] [--linger-ms MS]\n"
               "                 [--deadline-ms MS] [--quiet]\n"
               "  --id          this process's node id in [0, n)\n"
               "  --port-base   node v listens on 127.0.0.1:(P + v) (default 29600)\n"
               "  --bind-port   explicit own port (overrides --port-base for this node)\n"
               "  --seed-list   host:port,host:port,... with position i = node i\n"
               "                (overrides --port-base for the whole address table)\n"
               "  --chaos       deterministic datagram adversity: comma-joined\n"
               "                drop:P dup:P corrupt:P reorder:P[/SPAN]\n"
               "                delay:<latency-ms> cut:B@S[-H] tokens\n"
               "  --round-ms    wall-clock ms per scheduled round: maps churn /\n"
               "                block-crash deaths, partition cuts, join births\n"
               "                and latency onto the real clock (0 = step count)\n"
               "  --no-self-halt  never exit at the scheduled death mark (an\n"
               "                outer driver delivers the real SIGKILL instead)\n"
               "  --agg         selects which aggregate the report's 'value' field\n"
               "                renders; the pipeline always computes all of them\n"
               "  --quiet       suppress the report line (exit status only)\n");
  std::exit(code);
}

/// Reads `text` as the value of `flag` into `out`: the whole text must be
/// one number in [lo, hi], else the tool exits 2 naming the flag.
template <class T>
void read_number(T& out, const std::string& flag, const char* text,
                 T lo = std::numeric_limits<T>::lowest(),
                 T hi = std::numeric_limits<T>::max()) {
  const auto value = drrg::support::parse_number<T>(text, lo, hi);
  if (!value.has_value()) {
    std::fprintf(stderr, "invalid value for %s: %s\n", flag.c_str(), text);
    usage(2);
  }
  out = *value;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace drrg;
  net::NodeOptions opt;
  bool have_id = false;
  bool quiet = false;
  std::string agg = "max";

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", what);
        usage(2);
      }
      return argv[++i];
    };
    if (arg == "--id") { read_number(opt.node, arg, next("--id")); have_id = true; }
    else if (arg == "--n") read_number(opt.n, arg, next("--n"));
    else if (arg == "--seed") read_number(opt.seed, arg, next("--seed"));
    else if (arg == "--loss") read_number(opt.faults.loss_prob, arg, next("--loss"), 0.0, 1.0);
    else if (arg == "--crash") read_number(opt.faults.crash_fraction, arg, next("--crash"), 0.0, 1.0);
    else if (api::is_schedule_flag(arg)) {
      const char* text = next(arg.c_str());
      if (!api::apply_schedule_flag(arg, text, opt.faults)) {
        std::fprintf(stderr, "malformed %s value: %s\n", arg.c_str(), text);
        usage(2);
      }
    }
    else if (arg == "--chaos") {
      const auto parsed = api::parse_chaos(next("--chaos"));
      if (!parsed.has_value()) {
        std::fprintf(stderr, "malformed chaos spec (see --help for the grammar)\n");
        usage(2);
      }
      opt.chaos = *parsed;
    }
    else if (arg == "--round-ms") read_number(opt.round_ms, arg, next("--round-ms"), std::int64_t{0});
    else if (arg == "--no-self-halt") opt.self_halt = false;
    else if (arg == "--bootstrap-min-ms") read_number(opt.bootstrap_min_ms, arg, next("--bootstrap-min-ms"), std::int64_t{0});
    else if (arg == "--linger-ms") read_number(opt.linger_ms, arg, next("--linger-ms"), std::int64_t{0});
    else if (arg == "--agg") agg = next("--agg");
    else if (arg == "--port-base") read_number(opt.port_base, arg, next("--port-base"));
    else if (arg == "--bind-port") read_number(opt.bind_port, arg, next("--bind-port"));
    else if (arg == "--seed-list") {
      const auto seeds = net::parse_seed_list(next("--seed-list"));
      if (!seeds.has_value()) {
        std::fprintf(stderr, "malformed seed list (want host:port,host:port,...)\n");
        usage(2);
      }
      opt.seed_list = *seeds;
    }
    else if (arg == "--deadline-ms") read_number(opt.deadline_ms, arg, next("--deadline-ms"), std::int64_t{0});
    else if (arg == "--quiet") quiet = true;
    else if (arg == "--help" || arg == "-h") usage(0);
    else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      usage(2);
    }
  }
  if (!have_id || opt.n < 2 || opt.node >= opt.n) {
    std::fprintf(stderr, "--id and --n are required, with id < n and n >= 2\n");
    usage(2);
  }
  if (agg != "max" && agg != "min" && agg != "ave" && agg != "sum" && agg != "count") {
    std::fprintf(stderr, "unknown aggregate: %s (want max|min|ave|sum|count)\n",
                 agg.c_str());
    usage(2);
  }
  if (opt.faults.needs_wall_clock() && opt.round_ms <= 0) {
    std::fprintf(stderr,
                 "--block-crash/--partition/--join/--latency need --round-ms > 0 "
                 "to place rounds on the wall clock\n");
    usage(2);
  }

  const net::NodeReport report = net::run_node(opt);
  if (!quiet) {
    double value = 0.0;
    if (agg == "max") value = report.max;
    else if (agg == "min") value = report.min;
    else if (agg == "sum") value = report.sum;
    else if (agg == "count") value = static_cast<double>(report.count);
    else if (report.count != 0) value = report.sum / static_cast<double>(report.count);
    // The full report, plus the selected aggregate rendered for shell
    // one-liners that only want one number.
    std::string json = net::report_json(report);
    char extra[64];
    std::snprintf(extra, sizeof(extra), ",\"agg\":\"%s\",\"value\":%.17g}", agg.c_str(),
                  value);
    json.replace(json.size() - 1, 1, extra);
    std::printf("%s\n", json.c_str());
  }
  return (report.ok || report.scheduled_crash) ? 0 : 1;
}
