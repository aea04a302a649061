// perfbench: the repository benchmark's measuring binary.
//
//   perfbench --workload ui_session|tcl_script|wire_clients --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//
// Prints a human-readable report, then the result as one JSON line.  With
// --trace 0 the result holds the end-to-end metrics; with --trace 1 the
// per-layer metrics of a traced run.  perfbench/run.py builds and runs it.

#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "perfbench/harness.h"
#include "perfbench/workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload ui_session|tcl_script|wire_clients --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n");
  return 2;
}

int Run(const perfbench::Options& options) {
  perfbench::Plan plan;
  std::unique_ptr<perfbench::Workload> workload = perfbench::MakeWorkload(options, &plan);
  if (workload == nullptr) {
    return Usage();
  }
  perfbench::Report report;
  try {
    report = options.trace ? perfbench::RunTraced(*workload, plan, options)
                           : perfbench::RunEndToEnd(*workload, plan, options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
  for (const std::string& problem : report.problems) {
    std::printf("  problem: %s\n", problem.c_str());
  }
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::ScrubEnvironment();
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atoi(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || options.seconds < 1) {
    return Usage();
  }
  // ru_maxrss survives execve, so a process started by a larger one (the
  // python3 that runs perfbench/run.py) would report that one's peak.  The
  // run happens in a child forked before any thread exists, whose peak RSS
  // is its own.
  std::fflush(stdout);
  pid_t parent = getpid();
  pid_t child = fork();
  if (child < 0) {
    std::perror("perfbench: fork");
    return 1;
  }
  if (child == 0) {
    // A parent killed on a timeout takes the run with it.
    if (prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 || getppid() != parent) {
      _exit(1);
    }
    int code = Run(options);
    std::fflush(stdout);
    std::fflush(stderr);
    _exit(code);
  }
  int status = 0;
  while (waitpid(child, &status, 0) < 0) {
    if (errno != EINTR) {
      std::perror("perfbench: waitpid");
      return 1;
    }
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 1;
}
