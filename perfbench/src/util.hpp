// Shared helpers of the benchmark runner: clocks, CPU accounting,
// order statistics and the result record every workload fills in.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// User + system CPU seconds of this process (all its threads).
double self_cpu_seconds();
// Peak resident set of this process, MiB.
double self_peak_rss_mb();

// The host's speed, measured as the run goes. The vCPUs of a shared
// host run at different speeds at the same moment and change speed
// from minute to minute (a plain loop took 0.22-0.32 s on one vCPU or
// another at once), and every kind of work the program does slows
// with them. A fixed reference loop (an integer LCG, a xorshift, a
// floating-point multiply-add, loads from a 16 KiB table and a branch
// taken one time in four; about 0.2 ms) is timed between operations,
// at most every 50 ms, on the CPUs the run is pinned to. A time
// measured in the run, multiplied by
// factor(), is that time at the reference speed: the speed at which
// the loop takes kNominalMs.
class SpeedReference {
 public:
  static constexpr double kNominalMs = 0.2;

  SpeedReference();  // times the loop five times

  // Times the loop when 50 ms or more passed since it last did.
  void tick();
  // Times the loop now; returns its time, ms.
  double sample();
  // kNominalMs / the median of every loop time so far.
  double factor() const;
  std::size_t samples() const { return times_ms_.size(); }

 private:
  std::vector<std::uint32_t> table_;
  std::vector<double> times_ms_;
  Clock::time_point last_;
  double sink_ = 0.0;
};

// Pins this process (and every thread and child it starts afterwards)
// to the `cpus` fastest CPUs of its allowed set, by the median of five
// reference-loop timings on each. Returns the CPUs used; an empty
// result means the set was left as it was.
std::vector<int> pin_to_fastest_cpus(int cpus);

// Median of a sample (the mean of the two middle values when even).
double median(std::vector<double> v);
// Nearest-rank percentile, q in (0, 100]: the smallest value with at
// least q % of the sample at or below it.
double percentile(std::vector<double> v, double q);
// How many samples lie strictly beyond the nearest-rank q percentile.
std::size_t samples_beyond(std::size_t n, double q);

// One metric as printed in the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  // Free-text labels for the human-readable listing (wall vs summed
  // over workers, deterministic vs schedule-dependent).
  std::string label;
};

// What one run reports. `failed` counts attempted operations whose
// output check failed; `correct` turns false only for a run-level
// inconsistency that no single operation owns.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // printed before the result line

  void add(std::string name, double value, std::string unit,
           std::string label = {}) {
    metrics.push_back({std::move(name), value, std::move(unit),
                       std::move(label)});
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
};

// The end-to-end metric block every workload reports: setup_s,
// ops_per_s, op_p50_ms, op_tail_ms (the workload's fixed tail
// percentile `tail_q`), cpu_ms_per_op and peak_rss_mb. Every time and
// rate is given at the reference speed (`speed.factor()` applied); the
// times as the clock read them go to the notes.
void add_end_to_end(RunResult& r, double setup_s, double wall_s,
                    const std::vector<double>& latencies_s, double tail_q,
                    double cpu_s, double peak_rss_mb,
                    const SpeedReference& speed);

// The one-line JSON result object (the run's last line of stdout).
std::string result_json(const RunResult& r);

// 64-bit FNV-1a (seeded sampling of the answers checked exactly).
std::uint64_t fnv1a(std::string_view s, std::uint64_t h = 1469598103934665603ull);

}  // namespace perfbench
