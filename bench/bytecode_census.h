// Static census of the bytecode the compiler emits for a bench's hot loop.
//
// The bench gate pins these counts exactly: a VM fast path that stops being
// compiled (a new guard, a bail-out, a disabled inline opcode) moves them on
// any machine, where a wall-clock speedup floor would only move by an amount
// that host noise can hide or fake.

#ifndef BENCH_BYTECODE_CENSUS_H_
#define BENCH_BYTECODE_CENSUS_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "src/tcl/compiler.h"
#include "src/tcl/parser.h"

namespace benchbytecode {

struct LoopCensus {
  uint64_t inline_commands = 0;    // Commands the VM runs without dispatch.
  uint64_t invokes = 0;            // Commands left to generic kInvoke.
  uint64_t canonical_exprs = 0;    // Expressions left to the text engine.
};

// Counts the instructions of the body of `script`'s first top-level `while`
// (condition included), as compiled by the same CompileScript the
// interpreter uses.  All zero when the script has no compiled while.
inline LoopCensus CensusFirstWhileLoop(std::string_view script) {
  LoopCensus census;
  std::shared_ptr<const tcl::ParsedScript> parsed = tcl::ParseScript(script);
  if (!parsed->ok) {
    return census;
  }
  std::shared_ptr<const tcl::CompiledScript> compiled = tcl::CompileScript(parsed);
  const std::vector<tcl::Instr>& instrs = compiled->instrs;
  size_t enter = 0;
  while (enter < instrs.size() && instrs[enter].op != tcl::Instr::Op::kEnterWhile) {
    ++enter;
  }
  if (enter == instrs.size()) {
    return census;
  }
  using Op = tcl::Instr::Op;
  for (size_t i = enter + 1; i < instrs[enter].b; ++i) {
    const tcl::Instr& in = instrs[i];
    switch (in.op) {
      case Op::kInvoke:
        ++census.invokes;
        break;
      case Op::kSetConst:
      case Op::kSetWord:
      case Op::kSetRead:
      case Op::kIncr:
      case Op::kExprCmd:
      case Op::kEnterIf:
      case Op::kEnterWhile:
      case Op::kEnterForeach:
      case Op::kEnterFor:
      case Op::kBreak:
      case Op::kContinue:
        ++census.inline_commands;
        break;
      default:
        break;
    }
    if (in.expr >= 0 && compiled->exprs[static_cast<size_t>(in.expr)].ops.empty()) {
      ++census.canonical_exprs;
    }
  }
  return census;
}

}  // namespace benchbytecode

#endif  // BENCH_BYTECODE_CENSUS_H_
