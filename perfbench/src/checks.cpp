#include "checks.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/json.hpp"
#include "device/registry.hpp"
#include "tuner/space.hpp"

namespace perfbench {

namespace json = repro::json;
namespace tuner = repro::tuner;
using repro::hhc::ThreadConfig;
using repro::hhc::TileSizes;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

namespace {

std::string describe(const tuner::EvaluatedPoint& ep) {
  return ep.dp.ts.to_string() + "/" + std::to_string(ep.dp.thr.total());
}

// A JSON number, or +inf for null (the payloads render non-finite
// doubles as null).
double num(const json::Value* v) {
  if (v == nullptr || !v->is_number()) {
    return std::numeric_limits<double>::infinity();
  }
  return v->as_double();
}

std::int64_t int_field(const json::Value& o, const char* key,
                       std::int64_t fallback) {
  const json::Value* v = o.find(key);
  return v != nullptr && v->is_int() ? v->as_int() : fallback;
}

TileSizes tile_from(const json::Value& o) {
  TileSizes ts;
  ts.tT = int_field(o, "tT", 0);
  ts.tS1 = int_field(o, "tS1", 0);
  ts.tS2 = int_field(o, "tS2", 1);
  ts.tS3 = int_field(o, "tS3", 1);
  return ts;
}

ThreadConfig threads_from(const json::Value& o) {
  ThreadConfig thr;
  thr.n1 = static_cast<int>(int_field(o, "n1", 1));
  thr.n2 = static_cast<int>(int_field(o, "n2", 1));
  thr.n3 = static_cast<int>(int_field(o, "n3", 1));
  return thr;
}

// A point object {"tile","threads","feasible","talg","texec","gflops"}
// as an EvaluatedPoint (default variant: the served kinds checked
// here never carry one).
std::optional<tuner::EvaluatedPoint> point_from(const json::Value* o) {
  if (o == nullptr || !o->is_object()) return std::nullopt;
  const json::Value* tile = o->find("tile");
  const json::Value* thr = o->find("threads");
  const json::Value* feas = o->find("feasible");
  if (tile == nullptr || thr == nullptr || feas == nullptr ||
      !feas->is_bool()) {
    return std::nullopt;
  }
  tuner::EvaluatedPoint ep;
  ep.dp.ts = tile_from(*tile);
  ep.dp.thr = threads_from(*thr);
  ep.feasible = feas->as_bool();
  ep.talg = num(o->find("talg"));
  ep.texec = num(o->find("texec"));
  ep.gflops = num(o->find("gflops"));
  return ep;
}

// Equal bits, or both non-finite (JSON renders those as null).
bool same_number(double a, double b) {
  return (!std::isfinite(a) && !std::isfinite(b)) || same_bits(a, b);
}

// Payload points went through JSON; an infeasible point's measured
// fields are zero on both sides and never compared.
CheckResult same_point(const tuner::EvaluatedPoint& want,
                       const tuner::EvaluatedPoint& got, const char* what) {
  if (want.feasible != got.feasible || !(want.dp == got.dp)) {
    return std::string(what) + ": expected " + describe(want) + " got " +
           describe(got);
  }
  if (want.feasible &&
      (!same_bits(want.texec, got.texec) || !same_bits(want.gflops, got.gflops) ||
       !same_number(want.talg, got.talg))) {
    return std::string(what) + ": measurement of " + describe(got) +
           " differs (texec " + json::format_double(want.texec) + " vs " +
           json::format_double(got.texec) + ")";
  }
  return std::nullopt;
}

std::unique_ptr<tuner::Session> fresh_session(
    const repro::service::Request& req) {
  return std::make_unique<tuner::Session>(
      *repro::device::registry().find(req.device), req.def, *req.problem,
      tuner::SessionOptions{}.with_jobs(2));
}

CheckResult check_best_tile(const repro::service::Request& req,
                            const json::Value& doc, bool exact) {
  auto s = fresh_session(req);
  const std::vector<TileSizes> space = tuner::enumerate_feasible(
      req.problem->dim, s->inputs().hw, req.enumeration, req.def.radius);
  const tuner::ModelSweep sweep = s->sweep_model(space, req.delta);
  if (int_field(doc, "space_size", -1) !=
          static_cast<std::int64_t>(sweep.space_size) ||
      int_field(doc, "candidates_tried", -1) !=
          static_cast<std::int64_t>(sweep.candidates.size())) {
    return "best_tile: space/candidate counts differ from the model sweep";
  }
  if (sweep.candidates.empty()) return std::nullopt;
  const json::Value* argmin = doc.find("argmin");
  if (argmin == nullptr || !(tile_from(*argmin) == sweep.argmin) ||
      !same_bits(num(doc.find("talg_min")), sweep.talg_min)) {
    return "best_tile: argmin differs from the model sweep";
  }
  const json::Value* best_v = doc.find("best");
  tuner::EvaluatedPoint got;  // null best == no feasible point
  if (best_v != nullptr && !best_v->is_null()) {
    const auto p = point_from(best_v);
    if (!p) return "best_tile: malformed best point";
    got = *p;
  }
  if (exact) return same_point(exact_best(*s, sweep.candidates), got,
                               "best_tile exact minimum");
  if (!got.feasible) return std::nullopt;
  return check_remeasured(*s, got);
}

CheckResult check_predict(const repro::service::Request& req,
                          const json::Value& doc) {
  auto s = fresh_session(req);
  if (doc.find("texec") != nullptr) {
    const auto p = point_from(&doc);
    if (!p) return "predict: malformed point";
    return check_remeasured(*s, *p);
  }
  const double talg =
      tuner::model_talg_or_inf(s->inputs(), *req.problem, *req.tile);
  if (!same_number(talg, num(doc.find("talg")))) {
    return "predict: model price differs";
  }
  return std::nullopt;
}

CheckResult check_compare(const repro::service::Request& req,
                          const json::Value& doc) {
  auto s = fresh_session(req);
  for (const char* name : {"hhc_default", "talg_min", "baseline_best",
                           "within10_best", "exhaustive"}) {
    const auto p = point_from(doc.find(name));
    if (!p) return std::string("compare: malformed ") + name;
    if (CheckResult r = check_remeasured(*s, *p)) return name + (": " + *r);
  }
  return std::nullopt;
}

CheckResult check_pipeline(const json::Value& doc) {
  const json::Value* stages = doc.find("stages");
  if (stages == nullptr || !stages->is_array()) {
    return "pipeline: no stages";
  }
  double talg = 0.0;
  double texec = 0.0;
  for (const json::Value& st : stages->items()) {
    const auto best = point_from(st.find("best"));
    if (!best || !best->feasible) return "pipeline: stage without a best point";
    const auto rep = static_cast<double>(int_field(st, "repeat", 0));
    talg += rep * best->talg;
    texec += rep * best->texec;
  }
  if (!same_number(talg, num(doc.find("talg"))) ||
      !same_bits(texec, num(doc.find("texec")))) {
    return "pipeline: talg/texec differ from the sum of repeat x stage best";
  }
  return std::nullopt;
}

}  // namespace

CheckResult check_remeasured(tuner::Session& fresh,
                             const tuner::EvaluatedPoint& reported) {
  tuner::EvaluatedPoint again = fresh.evaluate_point(reported.dp);
  if (!again.feasible) again = tuner::EvaluatedPoint{reported.dp};
  return same_point(again, reported, "re-measured point");
}

tuner::EvaluatedPoint exact_best(tuner::Session& s,
                                 std::span<const TileSizes> tiles) {
  const std::vector<ThreadConfig> threads = tuner::device_thread_configs(
      s.context().dev, s.context().problem.dim);
  std::vector<tuner::DataPoint> dps;
  dps.reserve(tiles.size() * threads.size());
  for (const TileSizes& ts : tiles) {
    for (const ThreadConfig& thr : threads) dps.push_back({ts, thr});
  }
  tuner::EvaluatedPoint best;
  for (const tuner::EvaluatedPoint& ep : s.evaluate_points(dps)) {
    if (ep.feasible && (!best.feasible || ep.texec < best.texec)) best = ep;
  }
  return best;
}

std::optional<std::string> result_payload(const std::string& response,
                                          const std::string& id,
                                          const std::string& kind) {
  const std::string prefix = "{\"v\":1,\"id\":\"" + id +
                             "\",\"ok\":true,\"kind\":\"" + kind +
                             "\",\"result\":";
  if (response.size() < prefix.size() + 1 ||
      response.compare(0, prefix.size(), prefix) != 0 ||
      response.back() != '}') {
    return std::nullopt;
  }
  return response.substr(prefix.size(), response.size() - prefix.size() - 1);
}

CheckResult check_answer(const repro::service::Request& req,
                         const std::string& payload, bool exact) {
  const std::optional<json::Value> doc = json::parse(payload);
  if (!doc || !doc->is_object()) return "payload is not a JSON object";
  switch (req.kind) {
    case repro::service::RequestKind::kBestTile:
      return check_best_tile(req, *doc, exact);
    case repro::service::RequestKind::kPredict:
      return check_predict(req, *doc);
    case repro::service::RequestKind::kCompareStrategies:
      return check_compare(req, *doc);
    case repro::service::RequestKind::kPipeline:
      return check_pipeline(*doc);
    default:
      return "no check for this request kind";
  }
}

CheckResult check_hit(const std::string& payload, const std::string& cold) {
  if (payload == cold) return std::nullopt;
  return "hit payload differs from the cold answer (" +
         std::to_string(payload.size()) + " vs " +
         std::to_string(cold.size()) + " bytes)";
}

}  // namespace perfbench
