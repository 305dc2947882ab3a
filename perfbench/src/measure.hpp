#pragma once
// Clocks, process resource readings, order statistics and the metric
// list the driver prints.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// User + system CPU seconds of the whole process, all threads included.
[[nodiscard]] inline double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

/// Peak resident set size of the process so far, in MiB.
[[nodiscard]] inline double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

/// Quantile q in [0, 1] by linear interpolation between order statistics.
[[nodiscard]] inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// a / b, or 0 when there is nothing to divide by (a phase that did not run).
[[nodiscard]] inline double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Named metrics in insertion order.
class MetricList {
 public:
  void add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }

  /// One "name  value unit" line per metric.
  void print_table(std::FILE* out) const {
    for (const Metric& m : metrics_)
      std::fprintf(out, "  %-28s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  /// {"name": {"value": v, "unit": "u"}, ...} with every digit kept.
  [[nodiscard]] std::string json() const {
    std::string s = "{";
    char buf[64];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%.17g", metrics_[i].value);
      s += (i ? ", \"" : "\"") + metrics_[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    return s + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

}  // namespace perfbench
