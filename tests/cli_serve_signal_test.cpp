// `ddosrepro serve --listen` shutdown: a harness that sends SIGTERM the
// moment it reads the "listening on" line must get the graceful drain —
// exit status 0 and the "served ... requests" summary — never a process
// killed by the default signal action. The test spawns the real CLI
// binary and signals it as soon as the line arrives, several times over,
// so a handler installed after that line would lose the race.
#include <gtest/gtest.h>

#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "scenario/driver.h"

extern char** environ;

namespace ddos {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::path(testing::TempDir()) /
          (std::to_string(::getpid()) + "-" + name))
      .string();
}

struct ServeRun {
  bool saw_listening = false;
  int status = 0;
  std::string output;
};

// Starts `serve --listen` on an ephemeral port, sends SIGTERM as soon as
// the "listening on" line has been read, then collects the rest of the
// output and the exit status.
ServeRun serve_and_terminate(const std::string& store_path) {
  int out_pipe[2];
  EXPECT_EQ(::pipe(out_pipe), 0);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out_pipe[1], STDOUT_FILENO);
  posix_spawn_file_actions_adddup2(&actions, out_pipe[1], STDERR_FILENO);
  posix_spawn_file_actions_addclose(&actions, out_pipe[0]);
  std::vector<std::string> args = {DDOSREPRO_CLI, "serve",   "--store",
                                   store_path,    "--listen", "127.0.0.1:0",
                                   "--threads",   "1"};
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int spawned = ::posix_spawn(&pid, DDOSREPRO_CLI, &actions, nullptr,
                                    argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(out_pipe[1]);
  ServeRun run;
  EXPECT_EQ(spawned, 0) << "cannot spawn " << DDOSREPRO_CLI;
  if (spawned != 0) {
    ::close(out_pipe[0]);
    return run;
  }

  char buf[4096];
  for (;;) {
    pollfd pfd{out_pipe[0], POLLIN, 0};
    if (::poll(&pfd, 1, 30000) <= 0) {
      ADD_FAILURE() << "no output from serve within 30 s";
      ::kill(pid, SIGKILL);
      break;
    }
    const ssize_t n = ::read(out_pipe[0], buf, sizeof buf);
    if (n <= 0) break;
    run.output.append(buf, static_cast<std::size_t>(n));
    if (!run.saw_listening &&
        run.output.find("listening on ") != std::string::npos) {
      run.saw_listening = true;
      ::kill(pid, SIGTERM);
    }
  }
  ::close(out_pipe[0]);
  ::waitpid(pid, &run.status, 0);
  return run;
}

TEST(CliServeSignal, SigtermRightAfterListeningLineDrainsGracefully) {
  scenario::LongitudinalConfig cfg = scenario::small_longitudinal_config(21);
  cfg.world.provider_count = 80;
  cfg.world.domain_count = 4000;
  cfg.workload.scale = 200.0;
  scenario::RunOptions options;
  options.store_path = temp_path("serve-signal.drs");
  scenario::run_longitudinal(cfg, options);

  for (int attempt = 0; attempt < 10; ++attempt) {
    const ServeRun run = serve_and_terminate(options.store_path);
    EXPECT_TRUE(run.saw_listening) << run.output;
    ASSERT_TRUE(WIFEXITED(run.status))
        << "attempt " << attempt << ": serve died by signal "
        << (WIFSIGNALED(run.status) ? WTERMSIG(run.status) : 0) << "\n"
        << run.output;
    EXPECT_EQ(WEXITSTATUS(run.status), 0) << run.output;
    EXPECT_NE(run.output.find("\nserved "), std::string::npos)
        << "attempt " << attempt << ": no served summary\n"
        << run.output;
  }
  std::filesystem::remove(options.store_path);
}

}  // namespace
}  // namespace ddos
