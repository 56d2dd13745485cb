// Seeded workload inputs. Everything a workload sends to the program
// is generated here from the run's seed (same seed, same inputs); the
// program under test only ever sees the generated requests.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "gpusim/device.hpp"
#include "stencil/problem.hpp"
#include "stencil/stencil.hpp"
#include "tuner/optimizer.hpp"

namespace perfbench {

// `paper` is the benchmark proper; `tiny` shrinks every grid so the
// self-test can run each workload end to end in seconds.
enum class Scale { kPaper, kTiny };

// --- sweep_paper -----------------------------------------------------

struct SweepOp {
  const repro::gpusim::DeviceParams* dev = nullptr;
  repro::stencil::StencilKind stencil{};
  repro::stencil::ProblemSize problem;
  std::size_t pair = 0;  // index into SweepInputs::pairs
};

struct SweepInputs {
  // (device, stencil) pairs, each calibrated once in set-up.
  std::vector<std::pair<const repro::gpusim::DeviceParams*,
                        repro::stencil::StencilKind>>
      pairs;
  std::vector<SweepOp> ops;  // one round, in the seed's visit order
  repro::tuner::CompareOptions compare;
  // Ops whose within-10 % winner is re-derived by an exact search.
  std::vector<std::size_t> exact_sample;
};

SweepInputs make_sweep_inputs(std::uint64_t seed, Scale scale);

// --- serve workloads -------------------------------------------------

// One request line for the daemon plus what the checks need to know.
struct ServeRequest {
  std::string kind;  // protocol kind name
  std::string line;  // the JSON request line (no newline)
};

// The best_tile/compare enumeration every serve request uses: the
// smoke-scale lattice of the Fig. 6 report, so one cold answer costs
// milliseconds and the history can hold hundreds of them.
std::string serve_enum_json();

// serve_tune: a history of best_tile results and an endless stream of
// distinct requests on problems next to it, so every request misses
// the store.
class TuneTraffic {
 public:
  TuneTraffic(std::uint64_t seed, Scale scale);

  const std::vector<ServeRequest>& history() const { return history_; }
  // The next request of the stream (ids t0, t1, ...); never repeats a
  // computation the stream or the history has already named.
  ServeRequest next();

 private:
  struct Point {
    std::size_t pair;
    std::int64_t s, t;
  };
  // A problem next to a history point (S +- 32..128, T +- 0..64).
  Point near_point();

  repro::Rng rng_;
  std::vector<std::pair<std::string, std::string>> pairs_;
  std::vector<Point> history_points_;
  std::vector<ServeRequest> history_;
  std::vector<std::size_t> deck_;  // history points left in this round
  std::set<std::string> used_;     // computation identities named so far
  std::uint64_t count_ = 0;
};

// serve_hit: a popular set of requests of every served kind, answered
// cold in set-up, then a zipfian stream over exactly those requests.
class HitTraffic {
 public:
  HitTraffic(std::uint64_t seed, Scale scale);

  // The popular set (ids p0, p1, ...), served cold in set-up.
  const std::vector<ServeRequest>& popular() const { return popular_; }
  // The next stream entry: which popular request, re-issued with its
  // own id (h0, h1, ...).
  std::size_t next_index();
  std::string line_for(std::size_t index, const std::string& id) const;

 private:
  repro::Rng rng_;
  std::vector<ServeRequest> popular_;
  std::vector<std::string> bodies_;  // request JSON minus the id
  std::vector<double> cdf_;          // zipf over a seeded rank order
  std::vector<std::size_t> rank_to_index_;
};

// The (device, stencil) pairs every serve workload targets.
std::vector<std::pair<std::string, std::string>> serve_pairs(Scale scale);

// A canonical text dump of the first `n` generated inputs of a
// workload, for the self-test's same-seed/other-seed comparison.
std::string dump_inputs(const std::string& workload, std::uint64_t seed,
                        Scale scale, std::size_t n);

}  // namespace perfbench
