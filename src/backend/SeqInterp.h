//===- SeqInterp.h - Sequential reference interpreter ----------*- C++ -*-===//
//
// Part of the PDL reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a PDL pipe under the one-instruction-at-a-time semantics of
/// Section 3: one thread runs to completion per iteration, lock and
/// speculation operations are erased, verify statements become the tail
/// call, and memory writes are buffered so no thread reads its own writes.
/// This is the correctness oracle the pipelined executor is compared
/// against, and also the fastest way to run PDL programs functionally.
///
//===----------------------------------------------------------------------===//

#ifndef PDL_BACKEND_SEQINTERP_H
#define PDL_BACKEND_SEQINTERP_H

#include "backend/Bytecode.h"
#include "backend/Eval.h"
#include "hw/Extern.h"
#include "hw/Memory.h"
#include "pdl/AST.h"

#include <map>
#include <memory>
#include <optional>
#include <vector>

namespace pdl {
namespace backend {

/// What one thread (instruction) did to architectural state.
struct ThreadTrace {
  std::vector<Bits> Args;
  /// Committed writes as (memory name, address, value). Sorted before
  /// comparison, since the pipelined core may release locks for different
  /// memories in a different order within one thread.
  std::vector<std::tuple<std::string, uint64_t, uint64_t>> Writes;
  std::optional<Bits> Output;
};

class SeqInterpreter {
public:
  /// Builds storage for every memory of every pipe in \p Prog, namespaced
  /// as "pipe.mem", and compiles every pipe to the slot-indexed bytecode
  /// the interpreter runs (the tree walker remains available behind
  /// PDL_EVAL_TREE as a differential escape hatch).
  explicit SeqInterpreter(const ast::Program &Prog);

  /// Binds \p Module to the extern declaration \p Name.
  void bindExtern(const std::string &Name, hw::ExternModule *Module);

  /// Memory of \p Pipe named \p Mem (load programs/data through this).
  hw::Memory &memory(const std::string &Pipe, const std::string &Mem);

  /// Stops when a thread commits a write of any value to this location.
  void setHaltOnWrite(const std::string &Pipe, const std::string &Mem,
                      uint64_t Addr);

  /// Runs \p Pipe starting from \p Args for at most \p MaxThreads threads
  /// (iterations). Returns the per-thread traces, oldest first. Stops
  /// early when a thread terminates without a tail call, or at the
  /// halt-on-write address.
  std::vector<ThreadTrace> run(const std::string &Pipe,
                               std::vector<Bits> Args, uint64_t MaxThreads);

  /// True when the last run() stopped at the halt address (as opposed to
  /// exhausting MaxThreads).
  bool halted() const { return Halted; }

private:
  struct ThreadResult {
    std::optional<std::vector<Bits>> NextArgs;
    std::optional<Bits> Output;
  };

  /// Runs one thread of \p Pipe; commits buffered writes afterwards.
  ThreadResult runThread(const ast::PipeDecl &Pipe, std::vector<Bits> Args,
                        ThreadTrace &Trace);

  /// Legacy tree-walking statement loop (PDL_EVAL_TREE).
  void execList(const ast::PipeDecl &Pipe, const ast::StmtList &Stmts,
                Env &E, ThreadResult &R, ThreadTrace &Trace,
                std::vector<std::tuple<std::string, uint64_t, Bits>> &WBuf);

  /// Bytecode statement loop: same semantics, compiled operand programs
  /// over a dense frame.
  void execListC(const ast::PipeDecl &Pipe, const bc::PipeProgram &PP,
                 const ast::StmtList &Stmts, std::vector<Bits> &Frame,
                 ThreadResult &R, ThreadTrace &Trace,
                 std::vector<std::tuple<std::string, uint64_t, Bits>> &WBuf);

  /// bc::Hooks for the oracle: direct memory reads, extern dispatch.
  struct BcHooks final : bc::Hooks {
    SeqInterpreter *S = nullptr;
    const ast::PipeDecl *Pipe = nullptr;
    Bits readMem(const bc::ExprProgram &P, unsigned Site,
                 uint64_t Addr) override;
    Bits callExtern(const bc::ExprProgram &P, unsigned Site, const Bits *Args,
                    unsigned NumArgs) override;
  };

  const ast::Program &Prog;
  std::shared_ptr<const bc::ModuleIR> IR;
  std::map<std::string, std::unique_ptr<hw::Memory>> Mems;
  std::map<std::string, hw::ExternModule *> Externs;
  std::optional<std::tuple<std::string, uint64_t>> HaltWatch;
  bool Halted = false;
  bool TreeMode = false;
};

} // namespace backend
} // namespace pdl

#endif // PDL_BACKEND_SEQINTERP_H
