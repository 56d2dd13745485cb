// sweep_paper: the Fig. 6 strategy comparison at paper scale, run
// in-process through tuner::Session with two workers. One operation is
// one comparison on a fresh Session (the memo never carries over), so
// a round of the grid repeats exactly the same work.
#include <memory>
#include <vector>

#include "checks.hpp"
#include "gpusim/microbench.hpp"
#include "layers.hpp"
#include "tuner/space.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace tuner = repro::tuner;

namespace {

constexpr int kWorkers = 2;
// Nearest-rank p95: with the grid's 80 comparisons per round, three
// rounds already leave 12 samples beyond it.
constexpr double kTailQ = 95.0;

}  // namespace

double calibrate_pairs(const SweepInputs& in,
                       std::vector<repro::model::ModelInputs>& calib,
                       Layers& layers) {
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < in.pairs.size(); ++i) {
    const auto tc = Clock::now();
    calib[i] = repro::gpusim::calibrate_model(
        *in.pairs[i].first, repro::stencil::get_stencil(in.pairs[i].second));
    layers.calibrate_s += seconds_since(tc);
    ++layers.calibrations;
  }
  return seconds_since(t0);
}

RunResult run_sweep_paper(const RunOptions& opt) {
  RunResult r;
  const SweepInputs in = make_sweep_inputs(opt.seed, opt.scale);
  Layers layers;

  std::vector<repro::model::ModelInputs> calib(in.pairs.size());
  std::vector<double> setups;

  // A fresh Session per comparison and per check: no memo carries over.
  auto session_for = [&](const SweepOp& op) {
    return std::make_unique<tuner::Session>(
        tuner::TuningContext::with_inputs(
            *op.dev, repro::stencil::get_stencil(op.stencil), op.problem,
            calib[op.pair]),
        tuner::SessionOptions{}.with_jobs(kWorkers));
  };
  auto run_op = [&](const SweepOp& op, Layers* trace) {
    const auto s = session_for(op);
    tuner::StrategyComparison cmp = s->compare_strategies(in.compare);
    if (trace != nullptr) accumulate(trace->sweep, s->stats());
    return cmp;
  };

  // Measured phase: whole rounds of the grid until `seconds` of round
  // time is used. Each round is set up like a fresh fig6 run:
  // calibrate every (device, stencil) pair (Section 5.2's
  // micro-benchmarks), which its comparisons then share. setup_s is
  // the median of these passes; they stay out of the round timing.
  // (A 6 ms pass samples the host's speed at one instant; spread over
  // the run, the passes sample it as the rounds do.) The reference loop
  // is timed between comparisons.
  SpeedReference speed;
  std::vector<std::vector<tuner::StrategyComparison>> rounds;
  std::vector<double> lat;
  double wall = 0.0;
  double cpu = 0.0;
  while (wall < opt.seconds) {
    setups.push_back(calibrate_pairs(in, calib, layers));
    const double cpu0 = self_cpu_seconds();
    const auto t_round = Clock::now();
    std::vector<tuner::StrategyComparison> round;
    round.reserve(in.ops.size());
    for (const SweepOp& op : in.ops) {
      speed.tick();
      const auto t0 = Clock::now();
      round.push_back(run_op(op, opt.trace ? &layers : nullptr));
      lat.push_back(seconds_since(t0));
    }
    wall += seconds_since(t_round);
    cpu += self_cpu_seconds() - cpu0;
    rounds.push_back(std::move(round));
  }
  const double rss = self_peak_rss_mb();
  r.attempted = lat.size();

  // Checks, after timing. An op fails when any round's comparison
  // differs from the first round's, when a reported point does not
  // re-measure bit for bit on a fresh Session, or (sampled) when the
  // within-10 % winner is not the exact minimum of its candidates.
  std::vector<char> op_failed(in.ops.size(), 0);
  auto fail = [&](std::size_t i, const std::string& why) {
    if (!op_failed[i]) r.note("check failed: op " + std::to_string(i) + ": " + why);
    op_failed[i] = 1;
  };
  for (std::size_t i = 0; i < in.ops.size(); ++i) {
    const tuner::StrategyComparison& first = rounds[0][i];
    for (std::size_t k = 1; k < rounds.size(); ++k) {
      if (!(rounds[k][i] == first)) fail(i, "round " + std::to_string(k) + " differs");
    }
    const auto fresh = session_for(in.ops[i]);
    for (const tuner::EvaluatedPoint* ep :
         {&first.hhc_default, &first.talg_min, &first.baseline_best,
          &first.within10_best, &first.exhaustive}) {
      if (CheckResult c = check_remeasured(*fresh, *ep)) fail(i, *c);
    }
  }
  for (const std::size_t i : in.exact_sample) {
    const SweepOp& op = in.ops[i];
    const auto fresh = session_for(op);
    const auto space = tuner::enumerate_feasible(
        op.problem.dim, fresh->inputs().hw, in.compare.enumeration,
        repro::stencil::get_stencil(op.stencil).radius);
    const tuner::ModelSweep sweep =
        fresh->sweep_model(space, in.compare.delta);
    const tuner::EvaluatedPoint want = exact_best(*fresh, sweep.candidates);
    const tuner::EvaluatedPoint& got = rounds[0][i].within10_best;
    if (sweep.candidates.size() != rounds[0][i].candidates_tried ||
        !(want.dp == got.dp) || want.feasible != got.feasible ||
        !same_bits(want.texec, got.texec)) {
      fail(i, "within10_best is not the exact minimum of its candidates");
    }
  }
  if (opt.trace) {
    // The traced rounds must describe the same computation as the
    // untraced path: one extra untraced round, compared field by field.
    for (std::size_t i = 0; i < in.ops.size(); ++i) {
      if (!(run_op(in.ops[i], nullptr) == rounds[0][i])) {
        fail(i, "untraced comparison differs from the traced one");
        r.correct = false;
      }
    }
  }
  std::size_t bad_ops = 0;
  for (const char f : op_failed) bad_ops += static_cast<std::size_t>(f);
  r.failed = bad_ops * rounds.size();

  if (opt.trace) {
    layers.pool_cpu_s = cpu;
    layers.pool_wall_s = wall;
    layers.pool_workers = kWorkers;
    add_per_layer(r, layers, r.attempted);
  } else {
    add_end_to_end(r, median(setups), wall, lat, kTailQ, cpu, rss, speed);
  }
  r.note("sweep_paper: " + std::to_string(rounds.size()) + " rounds of " +
         std::to_string(in.ops.size()) + " comparisons, " +
         std::to_string(in.exact_sample.size()) + " exact within-10% checks");
  return r;
}

}  // namespace perfbench
