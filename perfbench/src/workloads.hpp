// The three workloads. Each runs set-up, a measured phase of
// `seconds`, then its output checks, and returns the run's result:
// end-to-end metrics with trace off, per-layer metrics with trace on.
#pragma once

#include <cstdint>
#include <string>

#include "inputs.hpp"
#include "layers.hpp"
#include "util.hpp"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Scale scale = Scale::kPaper;
  std::string tuned;    // path of the `tuned` binary (serve workloads)
  std::string workdir;  // scratch directory for stores and logs
};

RunResult run_sweep_paper(const RunOptions& opt);

// One sweep_paper set-up pass: calibrates every (device, stencil) pair
// into `calib` (timed into `layers`); returns its wall time, seconds.
double calibrate_pairs(const SweepInputs& in,
                       std::vector<repro::model::ModelInputs>& calib,
                       Layers& layers);
RunResult run_serve_tune(const RunOptions& opt);
RunResult run_serve_hit(const RunOptions& opt);

}  // namespace perfbench
