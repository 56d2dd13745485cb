#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <stdexcept>

#include "common/json.hpp"
#include "tuner/space.hpp"

namespace perfbench {

namespace json = repro::json;
using repro::Rng;
using repro::stencil::ProblemSize;
using repro::stencil::StencilKind;

namespace {

// Fisher-Yates with the repo's seeded generator.
template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const std::size_t j = rng.next_below(i);
    std::swap(v[i - 1], v[j]);
  }
}

json::Value problem_json(std::int64_t s, std::int64_t t) {
  json::Value o = json::Value::object();
  json::Value sv = json::Value::array();
  sv.push_back(s);
  sv.push_back(s);
  o.set("S", std::move(sv));
  o.set("T", t);
  return o;
}

json::Value envelope(const std::string& id, const std::string& kind) {
  json::Value o = json::Value::object();
  o.set("v", 1);
  o.set("id", id);
  o.set("kind", kind);
  return o;
}

json::Value enum_value() {
  json::Value e = json::Value::object();
  e.set("tT_max", 24);
  e.set("tS1_max", 32);
  e.set("tS1_step", 4);
  e.set("tS2_max", 256);
  return e;
}

// The history / popular-set lattice: S in 512..4096 step 128, T in
// 64..1024 step 32.
std::int64_t lattice_s(Rng& rng) { return 512 + 128 * rng.uniform_int(0, 28); }
std::int64_t lattice_t(Rng& rng) { return 64 + 32 * rng.uniform_int(0, 30); }

// A three-level multigrid V-cycle in the shape of
// examples/pipelines/vcycle3.json, scaled from base size s0 with
// smoother depth ts.
json::Value vcycle(std::int64_t s0, std::int64_t ts) {
  struct StageSpec {
    const char* id;
    const char* stencil;
    int level;
    std::int64_t t;
    std::int64_t repeat;
    const char* after;
  };
  const StageSpec specs[] = {
      {"smooth_l0", "Jacobi2D", 0, ts, 2, nullptr},
      {"residual_l0", "Laplacian2D", 0, 2, 1, "smooth_l0"},
      {"restrict_01", "Gradient2D", 1, 2, 1, "residual_l0"},
      {"smooth_l1", "Jacobi2D", 1, ts, 2, "restrict_01"},
      {"residual_l1", "Laplacian2D", 1, 2, 1, "smooth_l1"},
      {"restrict_12", "Gradient2D", 2, 2, 1, "residual_l1"},
      {"solve_l2", "Jacobi2D", 2, 2 * ts, 1, "restrict_12"},
      {"prolong_21", "Gradient2D", 1, 2, 1, "solve_l2"},
      {"smooth_l1_up", "Jacobi2D", 1, ts, 2, "prolong_21"},
      {"prolong_10", "Gradient2D", 0, 2, 1, "smooth_l1_up"},
      {"smooth_l0_up", "Jacobi2D", 0, ts, 2, "prolong_10"},
  };
  json::Value stages = json::Value::array();
  for (const StageSpec& sp : specs) {
    json::Value st = json::Value::object();
    st.set("id", sp.id);
    st.set("stencil", sp.stencil);
    st.set("problem", problem_json(s0 >> sp.level, sp.t));
    if (sp.repeat != 1) st.set("repeat", sp.repeat);
    if (sp.after != nullptr) {
      json::Value after = json::Value::array();
      after.push_back(sp.after);
      st.set("after", std::move(after));
    }
    st.set("level", sp.level);
    stages.push_back(std::move(st));
  }
  json::Value p = json::Value::object();
  p.set("pipeline_version", 1);
  p.set("name", "vcycle3_s" + std::to_string(s0) + "_t" + std::to_string(ts));
  p.set("stages", std::move(stages));
  return p;
}

const char* const kDevices[] = {"GTX 980", "Titan X"};

}  // namespace

// --- sweep_paper -----------------------------------------------------

SweepInputs make_sweep_inputs(std::uint64_t seed, Scale scale) {
  SweepInputs in;
  Rng rng(seed ^ 0x5eedf00dull);
  std::vector<const repro::gpusim::DeviceParams*> devs = {
      &repro::gpusim::gtx980()};
  std::vector<StencilKind> kinds;
  std::vector<ProblemSize> sizes;
  auto& c = in.compare;
  if (scale == Scale::kPaper) {
    // fig6_strategies --full: both GPUs, the four 2D benchmarks, the
    // ten paper problem sizes, paper-scale enumeration and caps.
    devs.push_back(&repro::gpusim::titan_x());
    for (const StencilKind k : repro::stencil::paper_2d_benchmarks()) {
      kinds.push_back(k);
    }
    sizes = repro::stencil::paper_2d_problem_sizes();
    c.enumeration.tT_max = 48;
    c.enumeration.tS1_max = 64;
    c.enumeration.tS1_step = 2;
    c.enumeration.tS2_max = 512;
    c.exhaustive_cap = 1000;
    c.baseline_count = 85;
  } else {
    kinds = {StencilKind::kHeat2D};
    sizes = {{.dim = 2, .S = {1024, 1024, 0}, .T = 256},
             {.dim = 2, .S = {2048, 2048, 0}, .T = 512}};
    c.enumeration.tT_max = 24;
    c.enumeration.tS1_max = 32;
    c.enumeration.tS1_step = 4;
    c.enumeration.tS2_max = 256;
    c.exhaustive_cap = 150;
    c.baseline_count = 40;
  }
  for (const auto* d : devs) {
    for (const StencilKind k : kinds) {
      in.pairs.emplace_back(d, k);
      for (const ProblemSize& p : sizes) {
        in.ops.push_back({d, k, p, in.pairs.size() - 1});
      }
    }
  }
  shuffle(in.ops, rng);
  const std::size_t sample = scale == Scale::kPaper ? 8 : 1;
  std::vector<std::size_t> idx(in.ops.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  shuffle(idx, rng);
  idx.resize(std::min(sample, idx.size()));
  std::sort(idx.begin(), idx.end());
  in.exact_sample = idx;
  return in;
}

// --- serve workloads -------------------------------------------------

std::string serve_enum_json() { return enum_value().dump(); }

std::vector<std::pair<std::string, std::string>> serve_pairs(Scale scale) {
  if (scale == Scale::kTiny) return {{"GTX 980", "Heat2D"}};
  std::vector<std::pair<std::string, std::string>> out;
  for (const char* d : kDevices) {
    for (const StencilKind k : repro::stencil::paper_2d_benchmarks()) {
      out.emplace_back(d, std::string(repro::stencil::to_string(k)));
    }
  }
  return out;
}

namespace {

ServeRequest best_tile_request(const std::string& id, const std::string& dev,
                               const std::string& stencil, std::int64_t s,
                               std::int64_t t) {
  json::Value o = envelope(id, "best_tile");
  o.set("device", dev);
  o.set("stencil", stencil);
  o.set("problem", problem_json(s, t));
  o.set("enum", enum_value());
  return {"best_tile", o.dump()};
}

ServeRequest compare_request(const std::string& id, const std::string& dev,
                             const std::string& stencil, std::int64_t s,
                             std::int64_t t) {
  json::Value o = envelope(id, "compare_strategies");
  o.set("device", dev);
  o.set("stencil", stencil);
  o.set("problem", problem_json(s, t));
  o.set("enum", enum_value());
  return {"compare_strategies", o.dump()};
}

ServeRequest predict_request(const std::string& id, const std::string& dev,
                             const std::string& stencil, std::int64_t s,
                             std::int64_t t, Rng& rng) {
  // A plausible hand-picked point of the smoke lattice; it may be
  // infeasible for the problem, which the answer then reports.
  const auto threads = repro::tuner::default_thread_configs(2);
  const auto& thr = threads[rng.next_below(threads.size())];
  json::Value tile = json::Value::object();
  tile.set("tT", 2 * rng.uniform_int(2, 8));
  tile.set("tS1", 4 * rng.uniform_int(1, 5));
  tile.set("tS2", 32 * rng.uniform_int(2, 6));
  json::Value th = json::Value::object();
  th.set("n1", thr.n1);
  th.set("n2", thr.n2);
  json::Value o = envelope(id, "predict");
  o.set("device", dev);
  o.set("stencil", stencil);
  o.set("problem", problem_json(s, t));
  o.set("tile", std::move(tile));
  o.set("threads", std::move(th));
  return {"predict", o.dump()};
}

ServeRequest pipeline_request(const std::string& id, const std::string& dev,
                              std::int64_t s0, std::int64_t ts) {
  json::Value o = envelope(id, "pipeline");
  o.set("device", dev);
  o.set("pipeline", vcycle(s0, ts));
  return {"pipeline", o.dump()};
}

std::string identity(const std::string& kind, std::size_t pair,
                     std::int64_t s, std::int64_t t) {
  return kind + "|" + std::to_string(pair) + "|" + std::to_string(s) + "|" +
         std::to_string(t);
}

}  // namespace

TuneTraffic::TuneTraffic(std::uint64_t seed, Scale scale)
    : rng_(seed ^ 0x7e57ab1eull), pairs_(serve_pairs(scale)) {
  // The history is a fixed grid per pair (10 sizes x 5 depths; 3 x 3
  // tiny) that the seed jitters, so every seed's history costs about
  // the same to build and to search.
  const bool paper = scale == Scale::kPaper;
  for (std::size_t pi = 0; pi < pairs_.size(); ++pi) {
    for (int i = 0; i < (paper ? 10 : 3); ++i) {
      for (int j = 0; j < (paper ? 5 : 3); ++j) {
        const Point p{pi, 640 + 384 * i + 128 * rng_.uniform_int(-1, 1),
                      128 + 224 * j + 32 * rng_.uniform_int(-1, 1)};
        used_.insert(identity("best_tile", pi, p.s, p.t));
        history_points_.push_back(p);
        history_.push_back(best_tile_request(
            "w" + std::to_string(history_.size()), pairs_[pi].first,
            pairs_[pi].second, p.s, p.t));
      }
    }
  }
}

TuneTraffic::Point TuneTraffic::near_point() {
  // History points are visited in seeded rounds (a fresh permutation
  // each round), so every seed spreads its requests evenly over them.
  if (deck_.empty()) {
    deck_.resize(history_points_.size());
    for (std::size_t i = 0; i < deck_.size(); ++i) deck_[i] = i;
    shuffle(deck_, rng_);
  }
  const Point& h = history_points_[deck_.back()];
  deck_.pop_back();
  std::int64_t ds = 0;
  while (ds == 0) ds = rng_.uniform_int(-4, 4);
  return {h.pair, h.s + 32 * ds, h.t + 16 * rng_.uniform_int(-4, 4)};
}

ServeRequest TuneTraffic::next() {
  const std::string id = "t" + std::to_string(count_++);
  // A fixed cycle of ten: seven best_tile, one compare_strategies, one
  // predict and one V-cycle pipeline, so the mix is the same for every
  // seed and every run length.
  static constexpr char kCycle[] = "bbcbpbbxbb";
  const char kind = kCycle[(count_ - 1) % 10];
  if (kind == 'x') {
    for (int tries = 0; tries < 100000; ++tries) {
      const std::size_t dev = rng_.next_below(2);
      const std::int64_t s0 = 256 + 16 * rng_.uniform_int(0, 48);
      const std::int64_t ts = 2 * rng_.uniform_int(2, 8);
      if (used_.insert(identity("pipeline", dev, s0, ts)).second) {
        return pipeline_request(id, kDevices[dev], s0, ts);
      }
    }
    throw std::runtime_error("serve_tune: pipeline inputs exhausted");
  }
  const std::string name = kind == 'b'   ? "best_tile"
                           : kind == 'c' ? "compare_strategies"
                                         : "predict";
  for (int tries = 0; tries < 100000; ++tries) {
    const Point p = near_point();
    if (!used_.insert(identity(name, p.pair, p.s, p.t)).second) continue;
    const auto& [dev, stencil] = pairs_[p.pair];
    if (kind == 'b') return best_tile_request(id, dev, stencil, p.s, p.t);
    if (kind == 'c') return compare_request(id, dev, stencil, p.s, p.t);
    return predict_request(id, dev, stencil, p.s, p.t, rng_);
  }
  throw std::runtime_error("serve_tune: request inputs exhausted");
}

HitTraffic::HitTraffic(std::uint64_t seed, Scale scale)
    : rng_(seed ^ 0x4177f00dull) {
  const auto pairs = serve_pairs(scale);
  std::set<std::string> used;
  auto fresh_point = [&](const std::string& kind, std::size_t pi) {
    for (;;) {
      const std::int64_t s = lattice_s(rng_);
      const std::int64_t t = lattice_t(rng_);
      if (used.insert(identity(kind, pi, s, t)).second) {
        return std::make_pair(s, t);
      }
    }
  };
  auto id = [&] { return "p" + std::to_string(popular_.size()); };
  const bool paper = scale == Scale::kPaper;
  // Per pair: best_tile answers (3 / 1), then predict on half the
  // pairs' worth, one compare per pair, and V-cycle pipelines.
  for (std::size_t pi = 0; pi < pairs.size(); ++pi) {
    for (int k = 0; k < (paper ? 3 : 2); ++k) {
      const auto [s, t] = fresh_point("best_tile", pi);
      popular_.push_back(
          best_tile_request(id(), pairs[pi].first, pairs[pi].second, s, t));
    }
  }
  for (std::size_t k = 0; k < (paper ? 12u : 1u); ++k) {
    const std::size_t pi = k % pairs.size();
    const auto [s, t] = fresh_point("predict", pi);
    popular_.push_back(predict_request(id(), pairs[pi].first,
                                       pairs[pi].second, s, t, rng_));
  }
  for (std::size_t pi = 0; pi < pairs.size(); ++pi) {
    const auto [s, t] = fresh_point("compare_strategies", pi);
    popular_.push_back(
        compare_request(id(), pairs[pi].first, pairs[pi].second, s, t));
  }
  for (std::size_t k = 0; k < (paper ? 4u : 1u); ++k) {
    std::int64_t s0 = 0;
    std::int64_t ts = 0;
    std::size_t dev = 0;
    do {
      dev = rng_.next_below(2);
      s0 = 256 + 16 * rng_.uniform_int(0, 48);
      ts = 2 * rng_.uniform_int(2, 8);
    } while (!used.insert(identity("pipeline", dev, s0, ts)).second);
    popular_.push_back(pipeline_request(id(), kDevices[dev], s0, ts));
  }
  // Request bodies without the id, so the stream can re-issue each
  // one under a fresh id: the id is the second member of the envelope.
  for (const ServeRequest& r : popular_) {
    const std::size_t cut = r.line.find(",\"kind\":");
    bodies_.push_back(r.line.substr(cut));
  }
  // Zipf ranks: which kind holds each rank is fixed (a shuffle under a
  // constant seed), and the run's seed only permutes the requests of a
  // kind among that kind's ranks. Every seed thus sends each kind the
  // same share of the traffic; a seed that made a 6 KB pipeline answer
  // the most popular request would measure another workload.
  rank_to_index_.resize(popular_.size());
  for (std::size_t i = 0; i < popular_.size(); ++i) rank_to_index_[i] = i;
  Rng fixed(0x2a);
  shuffle(rank_to_index_, fixed);
  std::map<std::string, std::vector<std::size_t>> ranks_of_kind;
  for (std::size_t rank = 0; rank < rank_to_index_.size(); ++rank) {
    ranks_of_kind[popular_[rank_to_index_[rank]].kind].push_back(rank);
  }
  for (auto& [kind, ranks] : ranks_of_kind) {
    std::vector<std::size_t> members;
    for (const std::size_t rank : ranks) members.push_back(rank_to_index_[rank]);
    shuffle(members, rng_);
    for (std::size_t k = 0; k < ranks.size(); ++k) {
      rank_to_index_[ranks[k]] = members[k];
    }
  }
  double acc = 0.0;
  for (std::size_t k = 1; k <= popular_.size(); ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k), 1.1);
    cdf_.push_back(acc);
  }
  for (double& c : cdf_) c /= acc;
}

std::size_t HitTraffic::next_index() {
  const double u = rng_.next_double();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  const auto rank = static_cast<std::size_t>(
      std::min<std::ptrdiff_t>(it - cdf_.begin(),
                               static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
  return rank_to_index_[rank];
}

std::string HitTraffic::line_for(std::size_t index,
                                 const std::string& id) const {
  return "{\"v\":1,\"id\":\"" + id + "\"" + bodies_[index];
}

// --- self-test support -----------------------------------------------

std::string dump_inputs(const std::string& workload, std::uint64_t seed,
                        Scale scale, std::size_t n) {
  std::ostringstream out;
  if (workload == "sweep_paper") {
    const SweepInputs in = make_sweep_inputs(seed, scale);
    for (const SweepOp& op : in.ops) {
      out << op.dev->name << ' ' << repro::stencil::to_string(op.stencil)
          << ' ' << op.problem.to_string() << '\n';
    }
    for (const std::size_t i : in.exact_sample) out << "exact " << i << '\n';
  } else if (workload == "serve_tune") {
    TuneTraffic tt(seed, scale);
    for (const ServeRequest& r : tt.history()) out << r.line << '\n';
    for (std::size_t i = 0; i < n; ++i) out << tt.next().line << '\n';
  } else if (workload == "serve_hit") {
    HitTraffic ht(seed, scale);
    for (const ServeRequest& r : ht.popular()) out << r.line << '\n';
    for (std::size_t i = 0; i < n; ++i) {
      out << ht.line_for(ht.next_index(), "h" + std::to_string(i)) << '\n';
    }
  } else {
    throw std::invalid_argument("unknown workload: " + workload);
  }
  return out.str();
}

}  // namespace perfbench
