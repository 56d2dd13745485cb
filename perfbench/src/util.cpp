#include "util.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>

#include "common/json.hpp"

namespace perfbench {

double self_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

SpeedReference::SpeedReference() : table_(1u << 12) {
  std::uint32_t x = 2463534242u;
  for (std::uint32_t& v : table_) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    v = x;
  }
  for (int i = 0; i < 5; ++i) sample();
}

double SpeedReference::sample() {
  const auto t0 = Clock::now();
  // Independent chains, so the loop keeps several ports busy as the
  // program's code does, rather than waiting on one load at a time.
  std::uint64_t x = 88172645463325252ull;
  std::uint64_t y = 2463534242ull;
  double a = 1.0, b = 0.0, c = 0.0, d = 0.0;
  for (std::uint32_t k = 0; k < 28000; ++k) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    y ^= y << 13;
    y ^= y >> 7;
    y ^= y << 17;
    a = a * 0.999999 + static_cast<double>(x >> 40) * 1e-12;
    b += static_cast<double>(table_[y & (table_.size() - 1)]) * 1e-12;
    if ((x >> 62) == 0) {
      c += 1e-9;
    } else {
      d += 1e-9;
    }
  }
  sink_ += a + b + c + d;
  last_ = Clock::now();
  times_ms_.push_back(
      std::chrono::duration<double, std::milli>(last_ - t0).count());
  return times_ms_.back();
}

void SpeedReference::tick() {
  if (seconds_since(last_) >= 0.05) sample();
}

double SpeedReference::factor() const {
  return kNominalMs / median(times_ms_);
}

namespace {
bool pin(const std::vector<int>& ids) {
  cpu_set_t want;
  CPU_ZERO(&want);
  for (const int c : ids) CPU_SET(c, &want);
  return sched_setaffinity(0, sizeof want, &want) == 0;
}
}  // namespace

std::vector<int> pin_to_fastest_cpus(int cpus) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return {};
  std::vector<std::pair<double, int>> speeds;  // (loop ms, cpu)
  SpeedReference probe;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &allowed) || !pin({c})) continue;
    std::vector<double> t;
    for (int i = 0; i < 5; ++i) t.push_back(probe.sample());
    speeds.emplace_back(median(t), c);
  }
  std::vector<int> ids;
  if (static_cast<int>(speeds.size()) >= cpus) {
    std::sort(speeds.begin(), speeds.end());
    for (int i = 0; i < cpus; ++i) ids.push_back(speeds[i].second);
  }
  if (ids.empty() || !pin(ids)) {
    sched_setaffinity(0, sizeof allowed, &allowed);
    return {};
  }
  return ids;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {
std::size_t nearest_rank(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q / 100.0 * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}
}  // namespace

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t k = nearest_rank(v.size(), q) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - nearest_rank(n, q);
}

void add_end_to_end(RunResult& r, double setup_s, double wall_s,
                    const std::vector<double>& latencies_s, double tail_q,
                    double cpu_s, double peak_rss_mb,
                    const SpeedReference& speed) {
  using repro::json::format_double;
  const std::size_t n = latencies_s.size();
  const double ops = n == 0 ? 1.0 : static_cast<double>(n);
  const double ops_per_s = static_cast<double>(n) / wall_s;
  const double p50_ms = median(latencies_s) * 1e3;
  const double tail_ms = percentile(latencies_s, tail_q) * 1e3;
  const double cpu_ms = cpu_s * 1e3 / ops;
  const double f = speed.factor();
  r.add("setup_s", setup_s * f, "s");
  r.add("ops_per_s", ops_per_s / f, "1/s");
  r.add("op_p50_ms", p50_ms * f, "ms");
  r.add("op_tail_ms", tail_ms * f, "ms");
  r.add("cpu_ms_per_op", cpu_ms * f, "ms");
  r.add("peak_rss_mb", peak_rss_mb, "MB");
  r.note("op_tail_ms is p" + format_double(tail_q) + " of " +
         std::to_string(n) + " samples (" +
         std::to_string(samples_beyond(n, tail_q)) + " beyond it)");
  r.note("speed factor " + format_double(f) + " (median of " +
         std::to_string(speed.samples()) +
         " reference-loop timings); as read, unscaled: setup_s=" +
         format_double(setup_s) + " ops_per_s=" + format_double(ops_per_s) +
         " op_p50_ms=" + format_double(p50_ms) +
         " op_tail_ms=" + format_double(tail_ms) +
         " cpu_ms_per_op=" + format_double(cpu_ms));
}

std::string result_json(const RunResult& r) {
  using repro::json::Value;
  Value metrics = Value::object();
  for (const Metric& m : r.metrics) {
    Value o = Value::object();
    o.set("value", m.value);
    o.set("unit", m.unit);
    metrics.set(m.name, std::move(o));
  }
  Value out = Value::object();
  out.set("correct", r.correct);
  out.set("attempted", static_cast<std::int64_t>(r.attempted));
  out.set("failed", static_cast<std::int64_t>(r.failed));
  out.set("metrics", std::move(metrics));
  return out.dump();
}

std::uint64_t fnv1a(std::string_view s, std::uint64_t h) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace perfbench
