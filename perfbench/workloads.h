// The three workloads, and helpers they share.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <memory>
#include <stdexcept>
#include <string>

#include "perfbench/harness.h"
#include "src/tcl/interp.h"

namespace perfbench {

std::unique_ptr<Workload> MakeUiSession(const Options& options, Plan* plan);
std::unique_ptr<Workload> MakeTclScript(const Options& options, Plan* plan);
std::unique_ptr<Workload> MakeWireClients(const Options& options, Plan* plan);

// The workload named by options.workload (nullptr for an unknown name); fills
// `plan` with its sizing.
inline std::unique_ptr<Workload> MakeWorkload(const Options& options, Plan* plan) {
  if (options.workload == "ui_session") {
    return MakeUiSession(options, plan);
  }
  if (options.workload == "tcl_script") {
    return MakeTclScript(options, plan);
  }
  if (options.workload == "wire_clients") {
    return MakeWireClients(options, plan);
  }
  return nullptr;
}

// Set-up that cannot complete means the program is broken, not slow.
[[noreturn]] inline void Fail(const std::string& why) { throw std::runtime_error(why); }

inline const char* ExecModeName(tcl::ExecMode mode) {
  return mode == tcl::ExecMode::kCompile ? "compile" : "interp";
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
