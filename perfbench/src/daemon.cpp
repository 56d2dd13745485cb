#include "daemon.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

#include "service/core.hpp"

extern char** environ;

namespace perfbench {

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

Daemon::Daemon(const std::string& tuned, const std::string& store_dir,
               const std::string& log_path) {
  int in_pipe[2];
  int out_pipe[2];
  if (pipe2(in_pipe, O_CLOEXEC) != 0) fail("pipe2");
  if (pipe2(out_pipe, O_CLOEXEC) != 0) fail("pipe2");
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) fail("open " + log_path);

  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, in_pipe[0], 0);
  posix_spawn_file_actions_adddup2(&fa, out_pipe[1], 1);
  posix_spawn_file_actions_adddup2(&fa, log_fd, 2);

  // The lookup and session settings are spelled out from the service's
  // defaults, which ServiceReplica also reads.
  const repro::service::ServiceOptions defaults;
  std::vector<std::string> args = {
      tuned, "serve", "--store=" + store_dir, "--workers=2",
      "--session-jobs=" + std::to_string(defaults.session_jobs),
      "--warm-seeds=" + std::to_string(defaults.warm_seed_limit)};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  started_ = now_seconds();
  const int rc =
      posix_spawn(&pid_, tuned.c_str(), &fa, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  ::close(in_pipe[0]);
  ::close(out_pipe[1]);
  ::close(log_fd);
  to_fd_ = in_pipe[1];
  from_fd_ = out_pipe[0];
  if (rc != 0) {
    errno = rc;
    pid_ = -1;
    fail("posix_spawn " + tuned);
  }
}

Daemon::~Daemon() {
  if (to_fd_ >= 0) ::close(to_fd_);
  if (from_fd_ >= 0) ::close(from_fd_);
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
}

std::string Daemon::call(const std::string& line) {
  std::string out = line;
  out.push_back('\n');
  std::size_t off = 0;
  while (off < out.size()) {
    const ssize_t n = ::write(to_fd_, out.data() + off, out.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) fail("write to daemon");
    off += static_cast<std::size_t>(n);
  }
  for (;;) {
    const std::size_t nl = buf_.find('\n', buf_pos_);
    if (nl != std::string::npos) {
      std::string resp = buf_.substr(buf_pos_, nl - buf_pos_);
      buf_pos_ = nl + 1;
      if (buf_pos_ == buf_.size()) {
        buf_.clear();
        buf_pos_ = 0;
      }
      return resp;
    }
    char chunk[65536];
    const ssize_t n = ::read(from_fd_, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) fail("read from daemon");
    if (n == 0) throw std::runtime_error("daemon closed its output");
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

Daemon::Usage Daemon::stop() {
  Usage u;
  if (pid_ <= 0) return u;
  ::close(to_fd_);
  to_fd_ = -1;
  // The daemon prints its stats line and exits on stdin EOF; give it
  // a generous grace period before killing it.
  int status = 0;
  rusage ru{};
  pid_t r = 0;
  const double deadline = now_seconds() + 30.0;
  while ((r = ::wait4(pid_, &status, WNOHANG, &ru)) == 0 &&
         now_seconds() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (r == 0) {
    ::kill(pid_, SIGKILL);
    r = ::wait4(pid_, &status, 0, &ru);
  }
  u.wall_seconds = now_seconds() - started_;
  pid_ = -1;
  ::close(from_fd_);
  from_fd_ = -1;
  if (r < 0) fail("wait4");
  u.cpu_seconds =
      static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
      static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
  u.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  u.exit_status = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return u;
}

}  // namespace perfbench
