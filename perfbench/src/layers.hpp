// Per-layer accounting of a traced run. The benchmark's own code times
// each call it makes into a layer's public functions and adds the
// tuner's SweepStats counters of every Session it owns; nothing inside
// the program is instrumented.
#pragma once

#include <cstdint>

#include "tuner/session.hpp"
#include "util.hpp"

namespace perfbench {

struct Layers {
  // gpusim geometry/bound/pricing and the tuner memo, summed over the
  // sessions of the measured phase.
  repro::tuner::SweepStats sweep;
  // Calibrations made by the benchmark's code (set-up included).
  double calibrate_s = 0.0;
  std::uint64_t calibrations = 0;
  // common thread pool: CPU of the working process over the measured
  // wall time and the worker count it ran with.
  double pool_cpu_s = 0.0;
  double pool_wall_s = 0.0;
  int pool_workers = 0;
  // service: index, sessions, store, protocol, compute.
  double index_lookup_s = 0.0;
  std::uint64_t index_lookups = 0;
  std::uint64_t index_lines_read = 0;
  double session_create_s = 0.0;
  std::uint64_t sessions_created = 0;
  double store_load_s = 0.0;
  std::uint64_t store_hits = 0;
  std::uint64_t store_misses = 0;
  double store_save_s = 0.0;
  double index_append_s = 0.0;
  std::uint64_t store_writes = 0;
  std::uint64_t store_bytes = 0;
  std::uint64_t index_bytes = 0;
  double parse_s = 0.0;
  double render_s = 0.0;
  double compute_s = 0.0;
  // pipeline planner.
  double plan_s = 0.0;
  std::uint64_t plans = 0;
  std::uint64_t distinct_tasks = 0;
};

// Adds `s` into `into` (counters and timers alike).
void accumulate(repro::tuner::SweepStats& into,
                const repro::tuner::SweepStats& s);

// Appends every per-layer metric, per operation of the measured phase
// where the unit says /op.
void add_per_layer(RunResult& r, const Layers& l, std::uint64_t ops);

}  // namespace perfbench
