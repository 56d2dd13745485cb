// The benchmark runner.
//
//   perfbench_runner run --workload NAME --seed N --seconds S --trace 0|1
//                        --tuned PATH --workdir DIR [--scale paper|tiny]
//     Runs one workload and prints, as its last line, the JSON result
//     {"correct", "attempted", "failed", "metrics"}: end-to-end metrics
//     with --trace 0, per-layer metrics with --trace 1.
//   perfbench_runner selftest
//     Checks the benchmark's own code (input determinism, checkers).
#include <csignal>
#include <exception>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {
int selftest();
}

namespace {

using namespace perfbench;

int usage() {
  std::cerr << "usage: perfbench_runner run --workload NAME --seed N "
               "--seconds S --trace 0|1 --tuned PATH --workdir DIR "
               "[--scale paper|tiny]\n"
               "       perfbench_runner selftest\n";
  return 2;
}

int run(const std::map<std::string, std::string>& args) {
  const auto get = [&](const std::string& k, const std::string& def) {
    const auto it = args.find(k);
    return it == args.end() ? def : it->second;
  };
  RunOptions opt;
  const std::string workload = get("workload", "");
  opt.seed = std::stoull(get("seed", "1"));
  opt.seconds = std::stod(get("seconds", "10"));
  opt.trace = get("trace", "0") == "1";
  opt.scale = get("scale", "paper") == "tiny" ? Scale::kTiny : Scale::kPaper;
  opt.tuned = get("tuned", "");
  opt.workdir = get("workdir", "");
  if (opt.workdir.empty() || opt.seconds <= 0.0) return usage();

  // Pin the run to the fastest CPUs of its allowed set: two for the
  // sweep's two workers; one shared by the client and the daemon (it
  // inherits the set) for the serve workloads, whose single client
  // keeps one thread busy at a time. Left to the scheduler, the same
  // run landed client and daemon on one core or on two, and hit
  // latency moved by a quarter between runs; pinned to fixed CPUs, a
  // run took whatever speed those vCPUs had at the time.
  const std::vector<int> cpus =
      pin_to_fastest_cpus(workload == "sweep_paper" ? 2 : 1);

  RunResult r;
  if (workload == "sweep_paper") {
    r = run_sweep_paper(opt);
  } else if (workload == "serve_tune" || workload == "serve_hit") {
    if (opt.tuned.empty()) return usage();
    r = workload == "serve_tune" ? run_serve_tune(opt) : run_serve_hit(opt);
  } else {
    std::cerr << "unknown workload: " << workload << "\n";
    return 2;
  }
  std::cout << "# pinned to CPU(s)";
  for (const int c : cpus) std::cout << " " << c;
  std::cout << (cpus.empty() ? " none (too few allowed)" : "") << "\n";
  for (const std::string& n : r.notes) std::cout << "# " << n << "\n";
  for (const Metric& m : r.metrics) {
    std::cout << "# " << m.name << " = " << m.value << " " << m.unit;
    if (!m.label.empty()) std::cout << "  [" << m.label << "]";
    std::cout << "\n";
  }
  std::cout << result_json(r) << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A daemon that dies mid-request must surface as an error, not kill
  // the runner with SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  std::map<std::string, std::string> args;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    if (k.rfind("--", 0) != 0) return usage();
    args[k.substr(2)] = argv[i + 1];
  }
  try {
    if (mode == "run") return run(args);
    if (mode == "selftest") return selftest();
  } catch (const std::exception& e) {
    std::cerr << "perfbench_runner: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
