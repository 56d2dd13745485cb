#include "replica.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "device/registry.hpp"
#include "pipeline/planner.hpp"
#include "service/core.hpp"
#include "service/protocol.hpp"

namespace perfbench {

namespace service = repro::service;
namespace tuner = repro::tuner;

namespace {

// The service's defaults, which the benchmark's daemon is started with:
// jobs per session and warm-start seeds per best_tile miss.
const service::ServiceOptions kDefaults;

std::uint64_t count_lines(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return static_cast<std::uint64_t>(
      std::count(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>(), '\n'));
}

}  // namespace

ServiceReplica::ServiceReplica(const std::string& store_dir, Layers& layers)
    : l_(layers), store_(store_dir), index_(store_dir) {
  index_lines_ = count_lines(index_.path());
}

std::string ServiceReplica::handle(const std::string& line) {
  auto t = Clock::now();
  repro::analysis::DiagnosticEngine diags;
  std::string id;
  const std::optional<service::Request> req =
      service::parse_request(line, diags, &id);
  if (!req) {
    l_.parse_s += seconds_since(t);
    return service::render_error(id, diags.diagnostics());
  }
  const std::string key = req->canonical_key();
  l_.parse_s += seconds_since(t);

  t = Clock::now();
  const std::optional<std::string> hit = store_.load(key);
  l_.store_load_s += seconds_since(t);
  if (hit) {
    ++l_.store_hits;
    t = Clock::now();
    std::string out = service::render_result(req->id, req->kind, *hit);
    l_.render_s += seconds_since(t);
    return out;
  }
  ++l_.store_misses;

  std::vector<tuner::WarmSeed> seeds;
  if (req->kind == service::RequestKind::kBestTile) {
    t = Clock::now();
    const auto near = index_.neighbors(req->device, req->stencil_name,
                                       req->stencil_text, *req->problem,
                                       repro::stencil::KernelVariant{},
                                       kDefaults.warm_seed_limit);
    l_.index_lookup_s += seconds_since(t);
    ++l_.index_lookups;
    l_.index_lines_read += index_lines_;
    for (const auto& n : near) {
      seeds.push_back({n.entry.tile, n.entry.threads, n.entry.variant});
    }
  }

  const repro::device::Descriptor& dev =
      *repro::device::registry().find(req->device);
  std::string payload;
  if (req->kind == service::RequestKind::kPipeline) {
    t = Clock::now();
    repro::pipeline::PlanOptions popt;
    popt.delta = req->delta;
    popt.enumeration = req->enumeration;
    popt.session = tuner::SessionOptions{}.with_jobs(kDefaults.session_jobs);
    repro::pipeline::Planner planner(dev, popt);
    const auto tp = Clock::now();
    const repro::pipeline::PipelinePlan plan = planner.plan(*req->pipe);
    l_.plan_s += seconds_since(tp);
    ++l_.plans;
    l_.distinct_tasks += plan.distinct_tasks;
    accumulate(l_.sweep, plan.stats);
    payload = repro::pipeline::plan_to_json(plan).dump();
    l_.compute_s += seconds_since(t);
  } else {
    // Sessions are shared by requests on the same (device, stencil,
    // problem), as in ServiceCore::session_entry.
    const std::string skey = req->device + "|" + req->stencil_name + "|" +
                             req->stencil_text + "|" +
                             req->problem->to_string();
    std::unique_ptr<tuner::Session>& s = sessions_[skey];
    if (!s) {
      t = Clock::now();
      const auto tc = Clock::now();
      tuner::TuningContext ctx =
          tuner::TuningContext::calibrate(dev, req->def, *req->problem);
      l_.calibrate_s += seconds_since(tc);
      ++l_.calibrations;
      s = std::make_unique<tuner::Session>(
          std::move(ctx),
          tuner::SessionOptions{}.with_jobs(kDefaults.session_jobs));
      l_.session_create_s += seconds_since(t);
      ++l_.sessions_created;
    }
    t = Clock::now();
    payload = service::compute_payload(*req, s.get(), seeds);
    l_.compute_s += seconds_since(t);
  }

  t = Clock::now();
  const bool saved = store_.save(key, payload);
  l_.store_save_s += seconds_since(t);
  ++l_.store_writes;
  if (saved) {
    t = Clock::now();
    if (const auto e = service::SimilarityIndex::entry_from(key, payload)) {
      if (index_.append(*e)) ++index_lines_;
    }
    l_.index_append_s += seconds_since(t);
  }

  t = Clock::now();
  std::string out = service::render_result(req->id, req->kind, payload);
  l_.render_s += seconds_since(t);
  return out;
}

void ServiceReplica::finish() {
  for (const auto& [key, s] : sessions_) accumulate(l_.sweep, s->stats());
  l_.store_bytes = store_.dir_stats().bytes;
  std::error_code ec;
  const auto size = std::filesystem::file_size(index_.path(), ec);
  l_.index_bytes = ec ? 0 : static_cast<std::uint64_t>(size);
}

}  // namespace perfbench
