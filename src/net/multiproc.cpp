#include "net/multiproc.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "sim/scenario.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define DRRG_HAVE_FORK 1
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>
#else
#define DRRG_HAVE_FORK 0
#endif

namespace drrg::net {

bool multiproc_available() noexcept { return DRRG_HAVE_FORK != 0 && udp_available(); }

#if DRRG_HAVE_FORK

namespace {

using Clock = std::chrono::steady_clock;

std::mutex& cluster_mutex() {
  static std::mutex m;
  return m;
}

/// Tries to bind every port in [base, base + n) on loopback at once.
bool range_free(std::uint16_t base, std::uint32_t n) {
  std::vector<int> fds;
  fds.reserve(n);
  bool ok = true;
  for (std::uint32_t v = 0; v < n && ok; ++v) {
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    if (fd < 0) {
      ok = false;
      break;
    }
    fds.push_back(fd);
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    sa.sin_port = htons(static_cast<std::uint16_t>(base + v));
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) != 0) ok = false;
  }
  for (const int fd : fds) ::close(fd);
  return ok;
}

}  // namespace

std::uint16_t probe_port_range(std::uint32_t n, std::uint16_t hint) {
  if (n == 0 || n > 4096) return 0;
  // A pid-dependent start spreads concurrent clusters (parallel ctest
  // jobs) across the ephemeral space before the mutex even matters.
  std::uint32_t base = hint != 0 ? hint
                                 : 20000 + (static_cast<std::uint32_t>(::getpid()) * 131) %
                                               30000;
  for (int attempt = 0; attempt < 64; ++attempt) {
    if (base + n > 65000) base = 20000 + (base % 1000);
    if (range_free(static_cast<std::uint16_t>(base), n))
      return static_cast<std::uint16_t>(base);
    base += n + 17;  // odd stride: de-correlates from other probers
  }
  return 0;
}

ClusterReport run_cluster(const ClusterOptions& options) {
  std::lock_guard<std::mutex> lock(cluster_mutex());
  const auto t0 = Clock::now();
  ClusterReport out;
  out.nodes.resize(options.n);
  for (std::uint32_t v = 0; v < options.n; ++v) {
    out.nodes[v].node = v;
    out.nodes[v].error = "no report";
  }
  if (options.n < 2) {
    out.error = "cluster needs n >= 2";
    return out;
  }
  const bool explicit_seeds = !options.seed_list.empty();
  std::uint16_t base = 0;
  if (explicit_seeds) {
    if (options.seed_list.size() != options.n) {
      out.error = "seed list must name exactly n nodes (position i = node i)";
      return out;
    }
  } else {
    base = options.port_base != 0 ? options.port_base : probe_port_range(options.n, 0);
    if (base == 0 || !range_free(base, options.n)) {
      out.error = "no free UDP port range for the cluster";
      return out;
    }
  }
  out.port_base = base;

  // With a wall-clock round scale the parent shares the fault timeline
  // with every child (it is a pure function of seed + schedule): it
  // needs the death marks to deliver real SIGKILLs and the birth marks
  // to widen the deadline past the latest joiner.
  const std::int64_t round_ms = options.node_template.round_ms;
  sim::FaultTimeline timeline;
  if (round_ms > 0) {
    timeline = sim::full_timeline(options.n, RngFactory{options.seed}, options.faults);
  }
  const auto midrun_victim = [&](std::uint32_t v) {
    return round_ms > 0 && v < timeline.death.size() &&
           timeline.death[v] != 0 && timeline.death[v] != sim::kNeverCrashes;
  };

  struct Child {
    pid_t pid = -1;
    int fd = -1;  // read end of the report pipe
    std::string line;
    bool done = false;
    bool killed = false;  // parent delivered its scheduled SIGKILL
  };
  std::vector<Child> children(options.n);

  for (std::uint32_t v = 0; v < options.n; ++v) {
    int pipefd[2];
    if (::pipe(pipefd) != 0) {
      out.error = std::string{"pipe: "} + std::strerror(errno);
      break;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      out.error = std::string{"fork: "} + std::strerror(errno);
      ::close(pipefd[0]);
      ::close(pipefd[1]);
      break;
    }
    if (pid == 0) {
      // Child: run the node, ship one report line, vanish.  _exit (not
      // exit) keeps the forked copy from running parent-side atexit
      // hooks or flushing inherited stdio buffers twice.
      ::close(pipefd[0]);
      NodeOptions opt = options.node_template;
      opt.node = v;
      opt.n = options.n;
      opt.seed = options.seed;
      opt.faults = options.faults;
      opt.values = options.values;
      // A real-kill victim must not exit cleanly at its mark -- the
      // parent's SIGKILL is the death, arriving mid-whatever.
      if (midrun_victim(v)) opt.self_halt = false;
      if (explicit_seeds) {
        opt.seed_list = options.seed_list;
        opt.port_base = 0;
        opt.bind_port = options.seed_list[v].port;
      } else {
        opt.port_base = base;
        opt.bind_port = 0;
        opt.seed_list.clear();
      }
      const NodeReport report = run_node(opt);
      const std::string line = encode_report(report) + "\n";
      std::size_t off = 0;
      while (off < line.size()) {
        const ssize_t wrote = ::write(pipefd[1], line.data() + off, line.size() - off);
        if (wrote <= 0) break;
        off += static_cast<std::size_t>(wrote);
      }
      ::close(pipefd[1]);
      ::_exit(0);
    }
    ::close(pipefd[1]);
    children[v].pid = pid;
    children[v].fd = pipefd[0];
  }

  // Collect until every pipe closes or the cluster deadline passes.  A
  // joiner's own deadline clock only starts after its birth sleep, so
  // the cluster-wide bound stretches past the latest birth mark.
  std::int64_t deadline_ms = options.node_template.deadline_ms + 5000;
  if (round_ms > 0) {
    for (const std::uint32_t b : timeline.birth) {
      deadline_ms = std::max(deadline_ms, static_cast<std::int64_t>(b) * round_ms +
                                              options.node_template.deadline_ms + 5000);
    }
  }
  const auto deadline = t0 + std::chrono::milliseconds(deadline_ms);
  char buf[512];
  while (true) {
    // Deliver scheduled kills whose wall marks have passed: correlated
    // block outages land as a burst of real SIGKILLs, not clean exits.
    if (round_ms > 0) {
      const std::int64_t now = std::chrono::duration_cast<std::chrono::milliseconds>(
                                   Clock::now() - t0)
                                   .count();
      for (std::uint32_t v = 0; v < options.n; ++v) {
        Child& c = children[v];
        if (c.killed || c.pid <= 0 || !midrun_victim(v)) continue;
        if (now < static_cast<std::int64_t>(timeline.death[v]) * round_ms) continue;
        ::kill(c.pid, SIGKILL);
        c.killed = true;
      }
    }
    std::vector<pollfd> pfds;
    std::vector<std::uint32_t> who;
    for (std::uint32_t v = 0; v < options.n; ++v) {
      if (children[v].fd >= 0 && !children[v].done) {
        pfds.push_back(pollfd{children[v].fd, POLLIN, 0});
        who.push_back(v);
      }
    }
    if (pfds.empty()) break;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - Clock::now())
                          .count();
    if (left <= 0) break;
    const int ready = ::poll(pfds.data(), pfds.size(),
                             static_cast<int>(std::min<std::int64_t>(left, 200)));
    if (ready <= 0) continue;
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP)) == 0) continue;
      Child& c = children[who[i]];
      const ssize_t got = ::read(c.fd, buf, sizeof(buf));
      if (got > 0) {
        c.line.append(buf, static_cast<std::size_t>(got));
      } else {
        ::close(c.fd);
        c.fd = -1;
        c.done = true;
      }
    }
  }

  // Deadline or EOF: reap everyone, killing whatever is still running.
  for (std::uint32_t v = 0; v < options.n; ++v) {
    Child& c = children[v];
    if (c.fd >= 0) {
      ::close(c.fd);
      c.fd = -1;
    }
    if (c.pid > 0) {
      int status = 0;
      if (::waitpid(c.pid, &status, WNOHANG) == 0) {
        ::kill(c.pid, SIGKILL);
        ::waitpid(c.pid, &status, 0);
        out.nodes[v].error = "killed at cluster deadline";
      }
    }
    NodeReport parsed;
    const std::size_t nl = c.line.find('\n');
    if (nl != std::string::npos && decode_report(c.line.substr(0, nl), parsed)) {
      out.nodes[v] = parsed;
    }
    if (c.killed) {
      // A SIGKILLed victim reports nothing, by design: account it as
      // its scheduled crash so the cluster verdict skips it.
      out.nodes[v].node = v;
      out.nodes[v].ok = false;
      out.nodes[v].scheduled_crash = true;
      out.nodes[v].error = "SIGKILLed at its death mark";
    }
  }

  bool all_ok = true;
  for (const NodeReport& r : out.nodes) {
    if (r.scheduled_crash) continue;
    if (!r.ok) {
      all_ok = false;
      if (out.error.empty())
        out.error = "node " + std::to_string(r.node) + ": " +
                    (r.error.empty() ? std::string{"no final value"} : r.error);
    }
  }
  out.ok = all_ok && out.error.empty();
  out.wall_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() - t0).count();

  // Debuggability hook for the chaos matrix / CI: when set, dump every
  // node's report as JSON into the named directory (one file per node),
  // so a failed cluster run leaves per-node degradation counters behind
  // as artifacts instead of one aggregated error string.
  if (const char* dir = std::getenv("DRRG_UDP_REPORT_DIR"); dir != nullptr && *dir) {
    for (const NodeReport& r : out.nodes) {
      const std::string path =
          std::string{dir} + "/node_" + std::to_string(r.node) + ".json";
      if (std::FILE* f = std::fopen(path.c_str(), "w")) {
        const std::string json = report_json(r) + "\n";
        std::fwrite(json.data(), 1, json.size(), f);
        std::fclose(f);
      }
    }
  }
  return out;
}

#else  // !DRRG_HAVE_FORK

std::uint16_t probe_port_range(std::uint32_t, std::uint16_t) { return 0; }

ClusterReport run_cluster(const ClusterOptions& options) {
  ClusterReport out;
  out.nodes.resize(options.n);
  out.error = "multi-process runtime unavailable on this platform";
  return out;
}

#endif  // DRRG_HAVE_FORK

}  // namespace drrg::net
