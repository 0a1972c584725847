//===- SeqInterp.cpp - Sequential reference interpreter --------------------===//
//
// Part of the PDL reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "backend/SeqInterp.h"

#include "backend/Compile.h"
#include "backend/Fuse.h"
#include "backend/NativeCache.h"

#include <cstdlib>

using namespace pdl;
using namespace pdl::ast;
using namespace pdl::backend;

SeqInterpreter::SeqInterpreter(const Program &Prog) : Prog(Prog) {
  for (const PipeDecl &P : Prog.Pipes)
    for (const MemDecl &M : P.Mems)
      Mems.emplace(P.Name + "." + M.Name,
                   std::make_unique<hw::Memory>(M.Name, M.ElemType.width(),
                                                M.AddrWidth, M.IsSync));
  IR = bc::compileModule(Prog);
  // The sequential oracle stays an interpreter in every mode: under
  // native it runs the same fused lowering the attached artifact was
  // emitted from, never the artifact itself — an independent check.
  if (bc::fusedModeRequested() || native::nativeModeRequested())
    IR = bc::fuseModule(*IR);
  TreeMode = std::getenv("PDL_EVAL_TREE") != nullptr;
}

Bits SeqInterpreter::BcHooks::readMem(const bc::ExprProgram &P,
                                      unsigned Site, uint64_t Addr) {
  return S->memory(Pipe->Name, P.MemSites[Site]->mem()).read(Addr);
}

Bits SeqInterpreter::BcHooks::callExtern(const bc::ExprProgram &P,
                                         unsigned SiteIdx, const Bits *Args,
                                         unsigned NumArgs) {
  const ExternCallExpr &Site = *P.ExternSites[SiteIdx];
  auto It = S->Externs.find(Site.module());
  assert(It != S->Externs.end() && "unbound extern module");
  std::vector<Bits> V(Args, Args + NumArgs);
  auto Result = It->second->invoke(Site.method(), V);
  assert(Result && "value method returned nothing");
  return *Result;
}

void SeqInterpreter::bindExtern(const std::string &Name,
                                hw::ExternModule *Module) {
  Externs[Name] = Module;
}

hw::Memory &SeqInterpreter::memory(const std::string &Pipe,
                                   const std::string &Mem) {
  auto It = Mems.find(Pipe + "." + Mem);
  assert(It != Mems.end() && "unknown memory");
  return *It->second;
}

void SeqInterpreter::setHaltOnWrite(const std::string &Pipe,
                                    const std::string &Mem, uint64_t Addr) {
  HaltWatch = {Pipe + "." + Mem, Addr};
}

void SeqInterpreter::execList(
    const PipeDecl &Pipe, const StmtList &Stmts, Env &E, ThreadResult &R,
    ThreadTrace &Trace,
    std::vector<std::tuple<std::string, uint64_t, Bits>> &WBuf) {
  EvalHooks Hooks;
  Hooks.ReadMem = [&](const MemReadExpr &Site, uint64_t Addr) {
    return memory(Pipe.Name, Site.mem()).read(Addr);
  };
  Hooks.CallExtern = [&](const ExternCallExpr &Site,
                         const std::vector<Bits> &Args) {
    auto It = Externs.find(Site.module());
    assert(It != Externs.end() && "unbound extern module");
    auto Result = It->second->invoke(Site.method(), Args);
    assert(Result && "value method returned nothing");
    return *Result;
  };

  for (const StmtPtr &SP : Stmts) {
    const Stmt &S = *SP;
    switch (S.kind()) {
    case Stmt::Kind::StageSep:
    case Stmt::Kind::Lock:
    case Stmt::Kind::SpecCheck:
    case Stmt::Kind::Update:
      continue; // erased by the sequential semantics

    case Stmt::Kind::Assign: {
      const auto *A = cast<AssignStmt>(&S);
      E[A->name()] = evalExpr(*A->value(), E, Prog, Hooks);
      continue;
    }
    case Stmt::Kind::SyncRead: {
      const auto *Rd = cast<SyncReadStmt>(&S);
      uint64_t Addr = evalExpr(*Rd->addr(), E, Prog, Hooks).zext();
      E[Rd->name()] = memory(Pipe.Name, Rd->mem()).read(Addr);
      continue;
    }
    case Stmt::Kind::MemWrite: {
      const auto *W = cast<MemWriteStmt>(&S);
      uint64_t Addr = evalExpr(*W->addr(), E, Prog, Hooks).zext();
      Bits V = evalExpr(*W->value(), E, Prog, Hooks);
      WBuf.emplace_back(W->mem(), Addr, V); // delayed to end of thread
      continue;
    }
    case Stmt::Kind::Output: {
      const auto *O = cast<OutputStmt>(&S);
      assert(!R.Output && "thread produced two outputs");
      R.Output = evalExpr(*O->value(), E, Prog, Hooks);
      continue;
    }
    case Stmt::Kind::PipeCall: {
      const auto *C = cast<PipeCallStmt>(&S);
      std::vector<Bits> Args;
      for (const ExprPtr &A : C->args())
        Args.push_back(evalExpr(*A, E, Prog, Hooks));
      if (C->isSpec())
        continue; // erased; the verify supplies the tail call
      if (C->pipe() == Pipe.Name) {
        assert(!R.NextArgs && "thread made two recursive calls");
        R.NextArgs = std::move(Args);
        continue;
      }
      // Cross-pipe request: run the callee's thread to completion now.
      const PipeDecl *Callee = Prog.findPipe(C->pipe());
      assert(Callee && "unknown callee pipe");
      ThreadTrace SubTrace;
      ThreadResult Sub = runThread(*Callee, std::move(Args), SubTrace);
      assert(!Sub.NextArgs && "sub-pipes must not make recursive calls");
      if (C->hasResult()) {
        assert(Sub.Output && "callee produced no output");
        E[C->resultName()] = *Sub.Output;
      }
      continue;
    }
    case Stmt::Kind::Verify: {
      const auto *V = cast<VerifyStmt>(&S);
      // verify == the tail call with the actual next value (Section 3.1).
      Bits Actual = evalExpr(*V->actual(), E, Prog, Hooks);
      assert(!R.NextArgs && "thread made two recursive calls");
      R.NextArgs = std::vector<Bits>{Actual};
      if (const ExternCallExpr *U = V->predictorUpdate()) {
        std::vector<Bits> Args;
        for (const ExprPtr &A : U->args())
          Args.push_back(evalExpr(*A, E, Prog, Hooks));
        auto It = Externs.find(U->module());
        assert(It != Externs.end() && "unbound extern module");
        It->second->invoke(U->method(), Args);
      }
      continue;
    }
    case Stmt::Kind::If: {
      const auto *I = cast<IfStmt>(&S);
      bool Taken = evalExpr(*I->cond(), E, Prog, Hooks).toBool();
      execList(Pipe, Taken ? I->thenBody() : I->elseBody(), E, R, Trace,
               WBuf);
      continue;
    }
    case Stmt::Kind::Return:
      assert(false && "return statement inside a pipe body");
      continue;
    }
  }
}

void SeqInterpreter::execListC(
    const PipeDecl &Pipe, const bc::PipeProgram &PP, const StmtList &Stmts,
    std::vector<Bits> &Frame, ThreadResult &R, ThreadTrace &Trace,
    std::vector<std::tuple<std::string, uint64_t, Bits>> &WBuf) {
  BcHooks H;
  H.S = this;
  H.Pipe = &Pipe;
  auto Run = [&](const Expr &E) {
    const bc::ExprProgram *BP = PP.programFor(&E);
    assert(BP && "expression missing a compiled program");
    return bc::exec(*BP, Frame.data(), H);
  };

  for (const StmtPtr &SP : Stmts) {
    const Stmt &S = *SP;
    switch (S.kind()) {
    case Stmt::Kind::StageSep:
    case Stmt::Kind::Lock:
    case Stmt::Kind::SpecCheck:
    case Stmt::Kind::Update:
      continue; // erased by the sequential semantics

    case Stmt::Kind::Assign: {
      const auto *A = cast<AssignStmt>(&S);
      Frame[PP.slotOf(A->name())] = Run(*A->value());
      continue;
    }
    case Stmt::Kind::SyncRead: {
      const auto *Rd = cast<SyncReadStmt>(&S);
      uint64_t Addr = Run(*Rd->addr()).zext();
      Frame[PP.slotOf(Rd->name())] = memory(Pipe.Name, Rd->mem()).read(Addr);
      continue;
    }
    case Stmt::Kind::MemWrite: {
      const auto *W = cast<MemWriteStmt>(&S);
      uint64_t Addr = Run(*W->addr()).zext();
      Bits V = Run(*W->value());
      WBuf.emplace_back(W->mem(), Addr, V); // delayed to end of thread
      continue;
    }
    case Stmt::Kind::Output: {
      const auto *O = cast<OutputStmt>(&S);
      assert(!R.Output && "thread produced two outputs");
      R.Output = Run(*O->value());
      continue;
    }
    case Stmt::Kind::PipeCall: {
      const auto *C = cast<PipeCallStmt>(&S);
      std::vector<Bits> Args;
      for (const ExprPtr &A : C->args())
        Args.push_back(Run(*A));
      if (C->isSpec())
        continue; // erased; the verify supplies the tail call
      if (C->pipe() == Pipe.Name) {
        assert(!R.NextArgs && "thread made two recursive calls");
        R.NextArgs = std::move(Args);
        continue;
      }
      // Cross-pipe request: run the callee's thread to completion now.
      const PipeDecl *Callee = Prog.findPipe(C->pipe());
      assert(Callee && "unknown callee pipe");
      ThreadTrace SubTrace;
      ThreadResult Sub = runThread(*Callee, std::move(Args), SubTrace);
      assert(!Sub.NextArgs && "sub-pipes must not make recursive calls");
      if (C->hasResult()) {
        assert(Sub.Output && "callee produced no output");
        Frame[PP.slotOf(C->resultName())] = *Sub.Output;
      }
      continue;
    }
    case Stmt::Kind::Verify: {
      const auto *V = cast<VerifyStmt>(&S);
      // verify == the tail call with the actual next value (Section 3.1).
      Bits Actual = Run(*V->actual());
      assert(!R.NextArgs && "thread made two recursive calls");
      R.NextArgs = std::vector<Bits>{Actual};
      if (const ExternCallExpr *U = V->predictorUpdate()) {
        // The update method is void: run the per-argument programs and
        // invoke the module directly (not via the value-asserting hook).
        std::vector<Bits> Args;
        for (const ExprPtr &A : U->args())
          Args.push_back(Run(*A));
        auto It = Externs.find(U->module());
        assert(It != Externs.end() && "unbound extern module");
        It->second->invoke(U->method(), Args);
      }
      continue;
    }
    case Stmt::Kind::If: {
      const auto *I = cast<IfStmt>(&S);
      bool Taken = Run(*I->cond()).toBool();
      execListC(Pipe, PP, Taken ? I->thenBody() : I->elseBody(), Frame, R,
                Trace, WBuf);
      continue;
    }
    case Stmt::Kind::Return:
      assert(false && "return statement inside a pipe body");
      continue;
    }
  }
}

SeqInterpreter::ThreadResult
SeqInterpreter::runThread(const PipeDecl &Pipe, std::vector<Bits> Args,
                          ThreadTrace &Trace) {
  assert(Args.size() == Pipe.Params.size() && "argument count mismatch");
  Trace.Args = Args;

  ThreadResult R;
  std::vector<std::tuple<std::string, uint64_t, Bits>> WBuf;
  if (TreeMode) {
    Env E;
    for (unsigned I = 0, N = Args.size(); I != N; ++I)
      E[Pipe.Params[I].Name] = Args[I];
    execList(Pipe, Pipe.Body, E, R, Trace, WBuf);
  } else {
    const bc::PipeProgram *PP = IR->pipe(Pipe.Name);
    assert(PP && "pipe missing from compiled circuit");
    std::vector<Bits> Frame = PP->InitFrame;
    for (unsigned I = 0, N = Args.size(); I != N; ++I)
      Frame[PP->ParamSlots[I]] = Args[I];
    execListC(Pipe, *PP, Pipe.Body, Frame, R, Trace, WBuf);
  }

  // Commit delayed writes: visible to the next thread, not this one.
  for (auto &[Mem, Addr, V] : WBuf) {
    memory(Pipe.Name, Mem).write(Addr, V);
    Trace.Writes.emplace_back(Mem, Addr, V.zext());
    if (HaltWatch && std::get<0>(*HaltWatch) == Pipe.Name + "." + Mem &&
        std::get<1>(*HaltWatch) == Addr)
      Halted = true;
  }
  Trace.Output = R.Output;
  return R;
}

std::vector<ThreadTrace> SeqInterpreter::run(const std::string &PipeName,
                                             std::vector<Bits> Args,
                                             uint64_t MaxThreads) {
  const PipeDecl *Pipe = Prog.findPipe(PipeName);
  assert(Pipe && "unknown pipe");
  Halted = false;
  std::vector<ThreadTrace> Traces;
  std::optional<std::vector<Bits>> Next = std::move(Args);
  while (Next && Traces.size() < MaxThreads && !Halted) {
    ThreadTrace Trace;
    ThreadResult R = runThread(*Pipe, std::move(*Next), Trace);
    Traces.push_back(std::move(Trace));
    Next = std::move(R.NextArgs);
  }
  return Traces;
}
