// Self-tests of the benchmark's own code: the seeded inputs are
// reproducible, and every checker accepts a correct answer and rejects
// a corrupted one. (perfbench/selftest.py adds a tiny-scale run of
// every workload on top.)
#include <cmath>
#include <iostream>
#include <span>
#include <stdexcept>
#include <string>

#include "checks.hpp"
#include "common/json.hpp"
#include "device/registry.hpp"
#include "inputs.hpp"
#include "service/core.hpp"
#include "tuner/space.hpp"

namespace perfbench {

namespace json = repro::json;
namespace service = repro::service;
namespace tuner = repro::tuner;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "ok    " : "FAIL  ") << what << "\n";
  if (!ok) ++failures;
}

service::Request parse(const std::string& line) {
  repro::analysis::DiagnosticEngine diags;
  auto req = service::parse_request(line, diags);
  if (!req) throw std::runtime_error("selftest request rejected: " + line);
  return *req;
}

std::string request_line(const std::string& kind) {
  return "{\"v\":1,\"id\":\"s\",\"kind\":\"" + kind +
         "\",\"device\":\"GTX 980\",\"stencil\":\"Heat2D\","
         "\"problem\":{\"S\":[1024,1024],\"T\":256},\"enum\":" +
         serve_enum_json() + "}";
}

std::string payload_for(const service::Request& req) {
  tuner::Session s(*repro::device::registry().find(req.device), req.def,
                   *req.problem, tuner::SessionOptions{}.with_jobs(2));
  return service::compute_payload(req, &s);
}

// `doc` with the member at `path` replaced by `v`.
json::Value replaced(const json::Value& doc,
                     std::span<const char* const> path, const json::Value& v) {
  if (path.empty()) return v;
  json::Value out = doc;
  out.set(path[0], replaced(*doc.find(path[0]), path.subspan(1), v));
  return out;
}

std::string with_member(const std::string& payload,
                        std::initializer_list<const char*> path,
                        const json::Value& v) {
  return replaced(*json::parse(payload), {path.begin(), path.size()}, v)
      .dump();
}

void test_inputs() {
  for (const char* w : {"sweep_paper", "serve_tune", "serve_hit"}) {
    const std::string a = dump_inputs(w, 7, Scale::kPaper, 200);
    const std::string b = dump_inputs(w, 7, Scale::kPaper, 200);
    const std::string c = dump_inputs(w, 8, Scale::kPaper, 200);
    expect(a == b, std::string(w) + ": same seed gives byte-identical inputs");
    expect(a != c, std::string(w) + ": another seed gives other inputs");
  }
}

void test_remeasure() {
  const service::Request req = parse(request_line("best_tile"));
  tuner::Session s(*repro::device::registry().find(req.device), req.def,
                   *req.problem, tuner::SessionOptions{}.with_jobs(2));
  const auto space = tuner::enumerate_feasible(2, s.inputs().hw,
                                               req.enumeration, req.def.radius);
  const tuner::EvaluatedPoint ep = s.best_over_threads(space.front());
  tuner::Session fresh(*repro::device::registry().find(req.device), req.def,
                       *req.problem, tuner::SessionOptions{}.with_jobs(2));
  expect(!check_remeasured(fresh, ep), "re-measure accepts a true texec");
  tuner::EvaluatedPoint bad = ep;
  bad.texec = std::nextafter(ep.texec, 1.0);
  expect(check_remeasured(fresh, bad).has_value(),
         "re-measure rejects a texec perturbed by one ulp");
}

void test_best_tile() {
  const service::Request req = parse(request_line("best_tile"));
  const std::string payload = payload_for(req);
  expect(!check_answer(req, payload, true), "best_tile: true answer passes");

  // A feasible, correctly measured candidate point that is not the
  // minimum: the exact check must reject it.
  tuner::Session s(*repro::device::registry().find(req.device), req.def,
                   *req.problem, tuner::SessionOptions{}.with_jobs(2));
  const auto space = tuner::enumerate_feasible(2, s.inputs().hw,
                                               req.enumeration, req.def.radius);
  const tuner::ModelSweep sweep = s.sweep_model(space, req.delta);
  const tuner::EvaluatedPoint best = exact_best(s, sweep.candidates);
  tuner::EvaluatedPoint worse;
  for (const auto& thr : tuner::default_thread_configs(2)) {
    const tuner::EvaluatedPoint ep = s.evaluate_point({best.dp.ts, thr});
    if (ep.feasible && ep.texec > best.texec) {
      worse = ep;
      break;
    }
  }
  expect(worse.feasible, "best_tile: found a non-minimal candidate point");
  json::Value pt = json::Value::object();
  pt.set("tile", service::tile_to_json(worse.dp.ts));
  pt.set("threads", service::threads_to_json(worse.dp.thr));
  pt.set("feasible", true);
  pt.set("talg", worse.talg);
  pt.set("texec", worse.texec);
  pt.set("gflops", worse.gflops);
  const std::string wrong = with_member(payload, {"best"}, pt);
  expect(check_answer(req, wrong, true).has_value(),
         "best_tile: a non-minimal answer is rejected");
  expect(!check_answer(req, wrong, false),
         "best_tile: a non-minimal answer still re-measures (only the exact "
         "check can see it)");
}

void test_compare_and_predict() {
  const service::Request cmp = parse(request_line("compare_strategies"));
  const std::string payload = payload_for(cmp);
  expect(!check_answer(cmp, payload, false), "compare: true answer passes");
  const json::Value doc = *json::parse(payload);
  const double t = doc.find("within10_best")->find("texec")->as_double();
  const std::string bad = with_member(payload, {"within10_best", "texec"},
                                      json::Value(std::nextafter(t, 1.0)));
  expect(check_answer(cmp, bad, false).has_value(),
         "compare: a perturbed texec is rejected");

  std::string pline = request_line("predict");
  pline = pline.substr(0, pline.find(",\"enum\"")) +
          ",\"tile\":{\"tT\":8,\"tS1\":8,\"tS2\":96},"
          "\"threads\":{\"n1\":32,\"n2\":4}}";
  const service::Request pred = parse(pline);
  const std::string pp = payload_for(pred);
  expect(!check_answer(pred, pp, false), "predict: true answer passes");
  const double pt = json::parse(pp)->find("texec")->as_double();
  expect(check_answer(pred,
                      with_member(pp, {"texec"},
                                  json::Value(std::nextafter(pt, 0.0))),
                      false)
             .has_value(),
         "predict: a perturbed texec is rejected");
}

void test_hit() {
  const std::string cold = "{\"a\":1,\"texec\":0.001}";
  expect(!check_hit(cold, cold), "hit: the cold answer's bytes pass");
  std::string other = cold;
  other[other.size() - 2] = '2';
  expect(check_hit(other, cold).has_value(),
         "hit: a payload differing in one byte is rejected");
  const std::string resp =
      service::render_result("h1", service::RequestKind::kBestTile, cold);
  expect(result_payload(resp, "h1", "best_tile") == cold,
         "hit: the payload is cut out of the envelope verbatim");
  expect(!result_payload(resp, "h2", "best_tile"),
         "hit: an answer to another id is rejected");
}

}  // namespace

int selftest() {
  test_inputs();
  test_remeasure();
  test_best_tile();
  test_compare_and_predict();
  test_hit();
  std::cout << (failures == 0 ? "selftest: all passed"
                              : "selftest: " + std::to_string(failures) +
                                    " failed")
            << "\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
