// A `tuned serve` child process driven over its stdin/stdout: the
// load generator writes one request line and reads one response line
// (a closed loop of one client).
#pragma once

#include <sys/types.h>

#include <string>

namespace perfbench {

class Daemon {
 public:
  // Resource use of the daemon over its whole life, read by wait4()
  // once it has exited.
  struct Usage {
    double cpu_seconds = 0.0;  // user + system, all threads
    double peak_rss_mb = 0.0;
    double wall_seconds = 0.0;  // spawn to exit
    int exit_status = -1;
  };

  // Spawns `tuned serve --store=<store_dir> --workers=2
  // --session-jobs=1`; its stderr (the shutdown stats line) goes to
  // `log_path`.
  Daemon(const std::string& tuned, const std::string& store_dir,
         const std::string& log_path);
  ~Daemon();  // kills and reaps a daemon that was not stopped

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Sends one request line and blocks for its response line (returned
  // without the newline). Throws if the daemon has gone away.
  std::string call(const std::string& line);

  // Closes the daemon's stdin (its shutdown signal), waits for it to
  // exit and returns its resource use.
  Usage stop();

 private:
  pid_t pid_ = -1;
  int to_fd_ = -1;
  int from_fd_ = -1;
  std::string buf_;
  std::size_t buf_pos_ = 0;
  double started_ = 0.0;
};

}  // namespace perfbench
