// serve_tune and serve_hit: the real `tuned serve` daemon over its
// stdin/stdout, driven by this process as one closed-loop client (the
// next request goes out when the previous answer is in).
//
// A set-up pass starts a daemon on an empty store, serves it the
// history (serve_tune) or the popular set (serve_hit), stops it, and
// restarts it until it answers a `stats` readiness probe: cold start
// plus the store the measured phase depends on. The measured phase
// runs against the first pass's restarted daemon; setup_s is the
// median of several passes. The traced run replays the same stream
// through ServiceReplica and byte-compares its answers with a
// daemon's.
#include <filesystem>
#include <memory>
#include <unordered_map>
#include <vector>

#include "checks.hpp"
#include "common/json.hpp"
#include "daemon.hpp"
#include "replica.hpp"
#include "service/protocol.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fs = std::filesystem;
namespace json = repro::json;
namespace service = repro::service;

namespace {

constexpr int kDaemonWorkers = 2;  // tuned serve --workers=2
const char* const kStatsProbe = "{\"v\":1,\"id\":\"stats\",\"kind\":\"stats\"}";

// A numeric field of a `stats` response, or -1.
double stats_field(const std::string& response, const char* name) {
  const auto payload = result_payload(response, "stats", "stats");
  if (!payload) return -1.0;
  const auto doc = json::parse(*payload);
  const json::Value* v = doc ? doc->find(name) : nullptr;
  return v != nullptr && v->is_number() ? v->as_double() : -1.0;
}

struct Setup {
  std::unique_ptr<Daemon> daemon;  // restarted, answered the probe
  std::vector<std::string> responses;
  std::string store;
  double seconds = 0.0;
};

// One set-up pass into a fresh store directory.
Setup set_up(const RunOptions& opt, const std::string& dir,
             const std::vector<ServeRequest>& requests) {
  Setup s;
  s.store = dir + "/store";
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
  const auto t0 = Clock::now();
  {
    Daemon cold(opt.tuned, s.store, dir + "/cold.log");
    for (const ServeRequest& r : requests) s.responses.push_back(cold.call(r.line));
    cold.stop();
  }
  s.daemon = std::make_unique<Daemon>(opt.tuned, s.store, dir + "/serve.log");
  s.daemon->call(kStatsProbe);
  s.seconds = seconds_since(t0);
  return s;
}

// The run's set-up passes, `setup_s` their median. The first pass's
// daemon serves the measured phase. The others run between slices of
// the measured phase (outside its timing) and their daemons are
// stopped: a pass is short and samples the host's speed at one
// instant, so passes spread over the run sample it as the operations
// do, while passes made back to back all read one moment's speed.
// Every pass's cold answers must agree byte for byte.
class SetupPasses {
 public:
  SetupPasses(const RunOptions& opt, std::string work,
              const std::vector<ServeRequest>& requests, RunResult& r)
      : opt_(opt), work_(std::move(work)), requests_(requests), r_(r) {
    first_ = set_up(opt_, work_ + "/setup0", requests_);
    times_.push_back(first_.seconds);
  }

  Daemon& daemon() { return *first_.daemon; }
  const std::string& store() const { return first_.store; }
  const std::vector<std::string>& responses() const {
    return first_.responses;
  }
  double median_seconds() const { return median(times_); }
  // Lists every pass's time among the run's notes.
  void note_times() const {
    std::string line = "set-up passes (s):";
    for (const double t : times_) line += " " + json::format_double(t);
    r_.note(line);
  }

  // One more timed pass; its daemon is stopped afterwards.
  void another() {
    Setup s = set_up(opt_, work_ + "/setup" + std::to_string(times_.size()),
                     requests_);
    times_.push_back(s.seconds);
    s.daemon->stop();
    if (s.responses != first_.responses) {
      r_.correct = false;
      r_.note("set-up passes answered the same requests differently");
    }
  }

 private:
  const RunOptions& opt_;
  std::string work_;
  const std::vector<ServeRequest>& requests_;
  RunResult& r_;
  Setup first_;
  std::vector<double> times_;
};

// The seed-chosen share of best_tile answers re-derived exactly.
bool exact_sample(std::uint64_t seed, const std::string& id) {
  return fnv1a(id, seed * 0x9e3779b97f4a7c15ull + 1) % 8 == 0;
}

// Checks one served answer; returns whether the op failed.
bool check_op(const std::string& line, const std::string& response,
              const std::string& kind, std::uint64_t seed, RunResult& r) {
  repro::analysis::DiagnosticEngine diags;
  const auto req = service::parse_request(line, diags);
  const auto payload = req ? result_payload(response, req->id, kind)
                           : std::nullopt;
  CheckResult c;
  if (!payload) {
    c = "error or malformed response: " + response.substr(0, 200);
  } else {
    c = check_answer(*req, *payload, exact_sample(seed, req->id));
  }
  if (c) r.note("check failed: " + (req ? req->id : line) + ": " + *c);
  return c.has_value();
}

struct Work {
  std::string dir;
  explicit Work(const RunOptions& opt, const std::string& name)
      : dir(opt.workdir + "/" + name) {
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir);
  }
  ~Work() {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
};

}  // namespace

// --- serve_tune ------------------------------------------------------

RunResult run_serve_tune(const RunOptions& opt) {
  constexpr int kSetupPasses = 3;
  constexpr double kTailQ = 95.0;
  // The measured phase serves a fixed number of requests, whatever the
  // seed and the host's speed: the daemon's memory and its index grow
  // with every request, so peak RSS and lookup cost describe the same
  // work on every run. `seconds` only caps the phase: 1,200 requests
  // took 14-18 s on the 4-core VM the benchmark was written on, whose
  // speed varied by a third.
  const std::size_t requests = opt.scale == Scale::kPaper ? 1200 : 30;
  RunResult r;
  Work work(opt, "serve_tune");
  TuneTraffic traffic(opt.seed, opt.scale);
  SetupPasses setup(opt, work.dir, traffic.history(), r);
  for (std::size_t i = 0; i < setup.responses().size(); ++i) {
    if (!result_payload(setup.responses()[i], "w" + std::to_string(i),
                        "best_tile")) {
      r.correct = false;
      r.note("history request w" + std::to_string(i) + " failed");
    }
  }

  std::vector<ServeRequest> sent;
  std::vector<std::string> responses;
  std::vector<double> lat;
  Layers layers;
  double wall = 0.0;
  Daemon::Usage usage;
  SpeedReference speed;  // timed between requests
  if (!opt.trace) {
    for (int slice = 0; slice < kSetupPasses; ++slice) {
      if (slice > 0) setup.another();
      const std::size_t end = requests * (slice + 1) / kSetupPasses;
      const auto t_slice = Clock::now();
      while (sent.size() < end && wall + seconds_since(t_slice) < opt.seconds) {
        sent.push_back(traffic.next());
        speed.tick();
        const auto t0 = Clock::now();
        responses.push_back(setup.daemon().call(sent.back().line));
        lat.push_back(seconds_since(t0));
      }
      wall += seconds_since(t_slice);
    }
    const std::string stats = setup.daemon().call(kStatsProbe);
    usage = setup.daemon().stop();
    if (stats_field(stats, "store_hits") != 0.0) {
      r.correct = false;
      r.note("serve_tune: the daemon served store hits: " + stats);
    }
  } else {
    setup.daemon().stop();
    const std::string replica_store = work.dir + "/replica";
    fs::copy(setup.store(), replica_store, fs::copy_options::recursive);
    {
      // Scoped: its sessions are released before the replay daemon
      // builds its own.
      ServiceReplica replica(replica_store, layers);
      const auto t_start = Clock::now();
      while (sent.size() < requests && seconds_since(t_start) < opt.seconds) {
        sent.push_back(traffic.next());
        responses.push_back(replica.handle(sent.back().line));
      }
      replica.finish();
    }
    // The same stream through a daemon restarted on the set-up store.
    Daemon d(opt.tuned, setup.store(), work.dir + "/replay.log");
    for (std::size_t i = 0; i < sent.size(); ++i) {
      if (d.call(sent[i].line) != responses[i]) {
        r.correct = false;
        r.note("traced answer differs from the daemon's: " +
               sent[i].line.substr(0, 120));
      }
    }
    usage = d.stop();
    layers.pool_cpu_s = usage.cpu_seconds;
    layers.pool_wall_s = usage.wall_seconds;
    layers.pool_workers = kDaemonWorkers;
  }
  if (sent.size() < requests) {
    r.note("serve_tune: the " + std::to_string(opt.seconds) +
           " s cap cut the measured phase at " + std::to_string(sent.size()) +
           " of " + std::to_string(requests) + " requests");
  }
  r.attempted = sent.size();

  // Checks, after timing: every answer recomputed on a fresh Session
  // (a seed-chosen eighth of the best_tile answers exactly).
  for (std::size_t i = 0; i < sent.size(); ++i) {
    if (check_op(sent[i].line, responses[i], sent[i].kind, opt.seed, r)) {
      ++r.failed;
    }
  }

  if (opt.trace) {
    add_per_layer(r, layers, r.attempted);
  } else {
    add_end_to_end(r, setup.median_seconds(), wall, lat, kTailQ,
                   usage.cpu_seconds, usage.peak_rss_mb, speed);
  }
  setup.note_times();
  r.note("serve_tune: history of " + std::to_string(traffic.history().size()) +
         " best_tile results, " + std::to_string(sent.size()) +
         " distinct requests");
  return r;
}

// --- serve_hit -------------------------------------------------------

namespace {

// Hit answers, deduplicated: each response is kept as the index of
// its result payload (an answer that is not a well-formed success of
// the request is kept verbatim).
struct HitLog {
  std::vector<std::string> payloads;
  std::unordered_map<std::string, std::uint32_t> index;
  std::vector<std::uint32_t> entries;  // per response
  std::vector<std::string> bad;

  void add(const std::string& response, const std::string& id,
           const std::string& kind) {
    const auto p = result_payload(response, id, kind);
    if (!p) {
      entries.push_back(static_cast<std::uint32_t>(-1));
      bad.push_back(response);
      return;
    }
    auto it = index.find(*p);
    if (it == index.end()) {
      it = index.emplace(*p, static_cast<std::uint32_t>(payloads.size())).first;
      payloads.push_back(*p);
    }
    entries.push_back(it->second);
  }
};

}  // namespace

RunResult run_serve_hit(const RunOptions& opt) {
  constexpr int kSetupPasses = 9;
  constexpr double kTailQ = 99.0;
  RunResult r;
  Work work(opt, "serve_hit");
  HitTraffic traffic(opt.seed, opt.scale);
  const std::vector<ServeRequest>& popular = traffic.popular();
  SetupPasses setup(opt, work.dir, popular, r);

  // The cold answers, each checked against a recomputation.
  std::vector<std::string> cold(popular.size());
  std::vector<char> cold_ok(popular.size(), 0);
  for (std::size_t i = 0; i < popular.size(); ++i) {
    const std::string id = "p" + std::to_string(i);
    cold[i] = result_payload(setup.responses()[i], id, popular[i].kind).value_or("");
    cold_ok[i] = !check_op(popular[i].line, setup.responses()[i], popular[i].kind,
                           opt.seed, r);
  }

  std::vector<std::size_t> picks;
  HitLog log;
  std::vector<double> lat;
  Layers layers;
  double wall = 0.0;
  Daemon::Usage usage;
  SpeedReference speed;  // timed between requests
  auto id_of = [](std::size_t i) { return "h" + std::to_string(i); };
  if (!opt.trace) {
    for (int slice = 0; slice < kSetupPasses; ++slice) {
      if (slice > 0) setup.another();
      const auto t_slice = Clock::now();
      while (seconds_since(t_slice) < opt.seconds / kSetupPasses) {
        const std::size_t k = traffic.next_index();
        const std::string id = id_of(picks.size());
        const std::string line = traffic.line_for(k, id);
        speed.tick();
        const auto t0 = Clock::now();
        const std::string resp = setup.daemon().call(line);
        lat.push_back(seconds_since(t0));
        picks.push_back(k);
        log.add(resp, id, popular[k].kind);
      }
      wall += seconds_since(t_slice);
    }
    const std::string stats = setup.daemon().call(kStatsProbe);
    usage = setup.daemon().stop();
    if (stats_field(stats, "store_hits") != static_cast<double>(picks.size()) ||
        stats_field(stats, "store_misses") != 0.0) {
      r.correct = false;
      r.note("serve_hit: the daemon did not count every request as a hit: " +
             stats);
    }
  } else {
    setup.daemon().stop();
    const std::string replica_store = work.dir + "/replica";
    fs::copy(setup.store(), replica_store, fs::copy_options::recursive);
    ServiceReplica replica(replica_store, layers);
    const auto t_start = Clock::now();
    while (seconds_since(t_start) < opt.seconds) {
      const std::size_t k = traffic.next_index();
      const std::string id = id_of(picks.size());
      const std::string resp = replica.handle(traffic.line_for(k, id));
      picks.push_back(k);
      log.add(resp, id, popular[k].kind);
    }
    replica.finish();
    Daemon d(opt.tuned, setup.store(), work.dir + "/replay.log");
    std::size_t bad = 0;
    for (std::size_t i = 0; i < picks.size(); ++i) {
      const std::string id = id_of(i);
      const std::string resp = d.call(traffic.line_for(picks[i], id));
      const std::uint32_t e = log.entries[i];
      const std::string expect =
          e == static_cast<std::uint32_t>(-1)
              ? log.bad[bad++]
              : service::render_result(
                    id, *service::parse_kind(popular[picks[i]].kind),
                    log.payloads[e]);
      if (resp != expect) {
        r.correct = false;
        r.note("traced answer differs from the daemon's for " + id);
      }
    }
    usage = d.stop();
    layers.pool_cpu_s = usage.cpu_seconds;
    layers.pool_wall_s = usage.wall_seconds;
    layers.pool_workers = kDaemonWorkers;
  }
  r.attempted = picks.size();

  // Checks, after timing: every hit's payload byte-identical to the
  // (recomputation-checked) cold answer of its request.
  for (std::size_t i = 0; i < picks.size(); ++i) {
    const std::uint32_t e = log.entries[i];
    if (!cold_ok[picks[i]] || e == static_cast<std::uint32_t>(-1) ||
        check_hit(log.payloads[e], cold[picks[i]])) {
      ++r.failed;
    }
  }

  if (opt.trace) {
    add_per_layer(r, layers, r.attempted);
  } else {
    add_end_to_end(r, setup.median_seconds(), wall, lat, kTailQ,
                   usage.cpu_seconds, usage.peak_rss_mb, speed);
  }
  setup.note_times();
  r.note("serve_hit: popular set of " + std::to_string(popular.size()) +
         " requests, " + std::to_string(picks.size()) + " hits");
  return r;
}

}  // namespace perfbench
