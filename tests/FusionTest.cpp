//===- FusionTest.cpp - Superinstruction fusion test matrix -----------------===//
//
// Part of the PDL reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The fusion-aware test matrix for backend/Fuse.cpp: every
/// superinstruction kind is pinned by shape (the expected opcode appears,
/// the window's instructions disappear) and by a three-way differential —
/// the fused program, the unfused bytecode, and the tree-walking evaluator
/// must agree bit-for-bit over an input sweep. On top of the per-opcode
/// rows: whole-System equivalence (event logs and stats identical in
/// fused and bytecode mode), snapshot/restore round-trips between fused
/// blocks, and the golden trace-digest pins re-checked under
/// PDL_EVAL_FUSED=1 — fusion must be observationally invisible.
///
//===----------------------------------------------------------------------===//

#include "GoldenDigests.h"
#include "backend/BcGen.h"
#include "backend/Compile.h"
#include "backend/Eval.h"
#include "backend/Fuse.h"
#include "backend/System.h"
#include "cores/Core.h"
#include "obs/Sinks.h"
#include "riscv/Assembler.h"
#include "verify/Differ.h"
#include "verify/ProgGen.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

using namespace pdl;
using namespace pdl::backend;

namespace {

CompiledProgram mustCompile(const std::string &Source) {
  CompiledProgram CP = compile(Source);
  EXPECT_TRUE(CP.ok()) << CP.Diags->render() << "\nsource:\n" << Source;
  return CP;
}

const ast::Expr *rhsOf(const ast::PipeDecl &Pipe, const std::string &Name) {
  for (const ast::StmtPtr &S : Pipe.Body)
    if (const auto *A = dyn_cast<ast::AssignStmt>(S.get()))
      if (A->name() == Name)
        return A->value();
  return nullptr;
}

unsigned countOps(const bc::ExprProgram &P, bc::Op O) {
  unsigned N = 0;
  for (const bc::Insn &I : P.Code)
    if (I.Opc == O)
      ++N;
  return N;
}

/// The tests below only fuse pure expressions: no hook may ever fire.
struct NoHooks final : bc::Hooks {
  Bits readMem(const bc::ExprProgram &, unsigned, uint64_t) override {
    ADD_FAILURE() << "unexpected memory read";
    return Bits();
  }
  Bits callExtern(const bc::ExprProgram &, unsigned, const Bits *,
                  unsigned) override {
    ADD_FAILURE() << "unexpected extern call";
    return Bits();
  }
};

/// Scoped PDL_EVAL_FUSED for the whole-System and golden-digest checks.
struct FusedModeGuard {
  FusedModeGuard() { setenv("PDL_EVAL_FUSED", "1", 1); }
  ~FusedModeGuard() { unsetenv("PDL_EVAL_FUSED"); }
};

/// One differential rig: compiles \p Source's pipe `p`, fuses it, and
/// exposes base program, fused program, and the tree evaluator for the
/// expression assigned to \p Var.
struct DiffRig {
  CompiledProgram CP;
  std::shared_ptr<const bc::ModuleIR> Base, Fused;
  const bc::PipeProgram *BasePP = nullptr, *FusedPP = nullptr;
  const ast::Expr *E = nullptr;
  const bc::ExprProgram *BaseP = nullptr, *FusedP = nullptr;
  bc::FuseStats Stats;

  DiffRig(const std::string &Source, const std::string &Var)
      : CP(mustCompile(Source)) {
    Base = bc::compileModule(CP);
    Fused = bc::fuseModule(*Base, &Stats);
    BasePP = Base->pipe("p");
    FusedPP = Fused->pipe("p");
    EXPECT_NE(BasePP, nullptr);
    EXPECT_NE(FusedPP, nullptr);
    E = rhsOf(*CP.AST->findPipe("p"), Var);
    EXPECT_NE(E, nullptr);
    if (BasePP && E)
      BaseP = BasePP->programFor(E);
    if (FusedPP && E)
      FusedP = FusedPP->programFor(E);
    EXPECT_NE(BaseP, nullptr);
    EXPECT_NE(FusedP, nullptr);
  }

  /// Runs one input assignment through all three evaluators and expects
  /// bit-identical results. \p Vars maps parameter names to values.
  void check(const std::vector<std::pair<std::string, Bits>> &Vars) {
    NoHooks H;
    std::vector<Bits> FrameB = BasePP->InitFrame;
    std::vector<Bits> FrameF = FusedPP->InitFrame;
    Env TreeEnv;
    std::string Trace;
    for (const auto &[Name, V] : Vars) {
      FrameB[BasePP->slotOf(Name)] = V;
      FrameF[FusedPP->slotOf(Name)] = V;
      TreeEnv[Name] = V;
      Trace += Name + "=" + std::to_string(V.zext()) + " ";
    }
    const Bits B = bc::exec(*BaseP, FrameB.data(), H);
    const Bits F = bc::exec(*FusedP, FrameF.data(), H);
    EvalHooks TH; // pure expressions: hooks never consulted
    const Bits T = evalExpr(*E, TreeEnv, *CP.AST, TH);
    EXPECT_EQ(F.width(), B.width()) << Trace;
    EXPECT_EQ(F.zext(), B.zext()) << Trace;
    EXPECT_EQ(T.width(), B.width()) << Trace;
    EXPECT_EQ(T.zext(), B.zext()) << Trace;
  }
};

//===----------------------------------------------------------------------===//
// Per-superinstruction differential rows
//===----------------------------------------------------------------------===//

TEST(FusionTest, CmpBrAndBinKFuseAndMatch) {
  // (a == b) ? a + 3 : b — the compare feeds the arm-select branch
  // (FusedCmpBr) and the constant operand folds into the Add (FusedBinK,
  // stranding its Const for the dead-store sweep).
  DiffRig R(R"(
    pipe p(a: uint<8>, b: uint<8>)[] {
      x = (a == b) ? a + uint<8>(3) : b;
      call p(x, b);
    }
  )",
            "x");
  EXPECT_GE(countOps(*R.FusedP, bc::Op::FusedCmpBr), 1u);
  EXPECT_GE(countOps(*R.FusedP, bc::Op::FusedBinK), 1u);
  EXPECT_EQ(countOps(*R.FusedP, bc::Op::Eq), 0u);
  EXPECT_LT(R.FusedP->Code.size(), R.BaseP->Code.size());
  EXPECT_GE(R.Stats.CmpBr, 1u);
  EXPECT_GE(R.Stats.BinK, 1u);
  for (uint64_t A : {0u, 1u, 3u, 255u})
    for (uint64_t B : {0u, 1u, 3u, 254u})
      R.check({{"a", Bits(A, 8)}, {"b", Bits(B, 8)}});
}

TEST(FusionTest, SelectFusesBothArmShapes) {
  // A bool-slot condition leaves the BrFalse unfused, exposing the full
  // diamond: Copy/Copy arms in x, Const/Copy arms in y.
  DiffRig RX(R"(
    pipe p(a: uint<8>, b: uint<8>, c: bool)[] {
      x = c ? a : b;
      call p(x, b, c);
    }
  )",
             "x");
  EXPECT_EQ(countOps(*RX.FusedP, bc::Op::FusedSelect), 1u);
  EXPECT_EQ(countOps(*RX.FusedP, bc::Op::Jump), 0u);
  EXPECT_GE(RX.Stats.Select, 1u);
  DiffRig RY(R"(
    pipe p(a: uint<8>, b: uint<8>, c: bool)[] {
      y = c ? uint<8>(7) : a;
      call p(y, b, c);
    }
  )",
             "y");
  EXPECT_EQ(countOps(*RY.FusedP, bc::Op::FusedSelect), 1u);
  for (uint64_t C : {0u, 1u})
    for (uint64_t A : {0u, 9u, 255u}) {
      RX.check({{"a", Bits(A, 8)}, {"b", Bits(42, 8)}, {"c", Bits(C, 1)}});
      RY.check({{"a", Bits(A, 8)}, {"b", Bits(42, 8)}, {"c", Bits(C, 1)}});
    }
}

TEST(FusionTest, RetOpFusesEveryTailShape) {
  // Binary, unary, and width-changing tails all end op;Ret — each fuses
  // to one FusedRetOp carrying the base opcode.
  const char *Sources[] = {
      "x = a + b;",      // binary
      "x = a * b;",      // binary, another opcode
      "x = ~a;",         // unary
      "x = a{3:0};",     // slice (bounds in Imm, not a slot)
  };
  for (const char *Stmt : Sources) {
    SCOPED_TRACE(Stmt);
    DiffRig R("pipe p(a: uint<8>, b: uint<8>)[] { " + std::string(Stmt) +
                  " call p(a, b); }",
              "x");
    EXPECT_EQ(countOps(*R.FusedP, bc::Op::FusedRetOp), 1u);
    EXPECT_EQ(countOps(*R.FusedP, bc::Op::Ret), 0u);
    for (uint64_t A : {0u, 5u, 200u})
      R.check({{"a", Bits(A, 8)}, {"b", Bits(3, 8)}});
  }
}

TEST(FusionTest, GuardEpiloguesFuseAndStillPartition) {
  // Stage-graph edge guards end in the Br/RetTrue/RetFalse epilogue. A
  // compare term fuses to FusedCmpRetBool, a bool-slot term to
  // FusedRetBool; the fused guards must still partition — exactly one
  // edge holds for every slot assignment, matching the unfused guards.
  CompiledProgram CP = mustCompile(R"(
    pipe p(a: uint<8>)[] {
      c = a == 0;
      call p(a + 1);
      if (c) {
        ---
        x = a + 1;
      } else {
        y = a + 2;
      }
    }
  )");
  auto Base = bc::compileModule(CP);
  bc::FuseStats S;
  auto Fused = bc::fuseModule(*Base, &S);
  const bc::PipeProgram *BP = Base->pipe("p"), *FP = Fused->pipe("p");
  ASSERT_NE(BP, nullptr);
  ASSERT_NE(FP, nullptr);
  ASSERT_FALSE(FP->Stages.empty());
  ASSERT_EQ(FP->Stages[0].EdgeGuards.size(),
            BP->Stages[0].EdgeGuards.size());
  EXPECT_GE(S.RetBool + S.CmpRetBool, 1u);

  unsigned FusedEpilogues = 0;
  for (const bc::ExprProgram *G : FP->Stages[0].EdgeGuards)
    FusedEpilogues += countOps(*G, bc::Op::FusedRetBool) +
                      countOps(*G, bc::Op::FusedCmpRetBool);
  EXPECT_GE(FusedEpilogues, 1u);

  NoHooks H;
  for (uint64_t A : {0u, 1u, 7u}) {
    for (uint64_t C : {0u, 1u}) {
      unsigned HoldsB = 0, HoldsF = 0;
      for (size_t I = 0; I != BP->Stages[0].EdgeGuards.size(); ++I) {
        std::vector<Bits> FrameB = BP->InitFrame, FrameF = FP->InitFrame;
        FrameB[BP->slotOf("a")] = FrameF[FP->slotOf("a")] = Bits(A, 8);
        FrameB[BP->slotOf("c")] = FrameF[FP->slotOf("c")] = Bits(C, 1);
        bool B = bc::exec(*BP->Stages[0].EdgeGuards[I], FrameB.data(), H)
                     .toBool();
        bool F = bc::exec(*FP->Stages[0].EdgeGuards[I], FrameF.data(), H)
                     .toBool();
        EXPECT_EQ(F, B) << "a=" << A << " c=" << C << " guard " << I;
        HoldsB += B;
        HoldsF += F;
      }
      EXPECT_EQ(HoldsB, 1u) << "a=" << A << " c=" << C;
      EXPECT_EQ(HoldsF, 1u) << "a=" << A << " c=" << C;
    }
  }
}

TEST(FusionTest, FusionIsIdempotentAndPure) {
  DiffRig R(R"(
    pipe p(a: uint<8>, b: uint<8>)[] {
      x = (a == b) ? a + uint<8>(3) : b;
      call p(x, b);
    }
  )",
            "x");
  // Fusing the fused program again changes nothing (fixpoint reached).
  bc::ExprProgram Twice = bc::fuseProgram(*R.FusedP);
  ASSERT_EQ(Twice.Code.size(), R.FusedP->Code.size());
  for (size_t I = 0; I != Twice.Code.size(); ++I) {
    EXPECT_EQ(unsigned(Twice.Code[I].Opc), unsigned(R.FusedP->Code[I].Opc));
    EXPECT_EQ(Twice.Code[I].Imm, R.FusedP->Code[I].Imm);
  }
  // And the input module still carries only base opcodes (purity).
  for (const bc::Insn &I : R.BaseP->Code)
    EXPECT_LT(unsigned(I.Opc), unsigned(bc::Op::FusedCmpBr));
}

//===----------------------------------------------------------------------===//
// Whole-System equivalence and snapshots
//===----------------------------------------------------------------------===//

TEST(FusionTest, SpecLockKernelRunsIdenticallyFused) {
  // The Figure-3 spec/lock kernel through two freshly-elaborated Systems,
  // one per evaluator: identical event logs (so the absolute golden pin
  // holds in fused mode too) and identical stats.
  CompiledProgram CP = mustCompile(tests::kSpecLockKernel);
  auto RunWith = [&](bool Fused) {
    obs::LogSink Log;
    ElabConfig Cfg;
    Cfg.EvalFused = Fused;
    Cfg.Sinks = {&Log};
    System Sys(CP, Cfg);
    Sys.start("ex1", {Bits(0, 4)});
    Sys.run(60);
    Sys.finishTrace();
    return Log.digest();
  };
  EXPECT_EQ(RunWith(false), tests::kSpecLockKernelDigest);
  EXPECT_EQ(RunWith(true), tests::kSpecLockKernelDigest);
}

TEST(FusionTest, GoldenCoreDigestsUnchangedUnderFusedMode) {
  // The pinned fuzz program through the core matrix in both modes — the
  // trace digests must collide exactly (the absolute pins live in
  // GoldenDigestTest; this is the relative non-perturbation half).
  verify::GenConfig G;
  G.Seed = 1;
  const std::string Program = verify::generateProgram(G);
  for (cores::CoreKind Kind :
       {cores::CoreKind::Pdl5Stage, cores::CoreKind::Pdl3Stage,
        cores::CoreKind::PdlRv32im}) {
    SCOPED_TRACE(cores::coreKindId(Kind));
    verify::DiffConfig DC;
    DC.Kind = Kind;
    DC.WantDigest = true;
    verify::DiffResult Bytecode = verify::runDiff(Program, DC);
    uint64_t FusedDigest;
    {
      FusedModeGuard Fused;
      FusedDigest = verify::runDiff(Program, DC).TraceDigest;
    }
    EXPECT_FALSE(Bytecode.failed()) << Bytecode.Reason;
    EXPECT_EQ(FusedDigest, Bytecode.TraceDigest);
  }
}

TEST(FusionTest, SnapshotRoundTripBetweenFusedBlocks) {
  // Interrupt a fused-mode run mid-flight, restore into a fresh
  // fused-mode System, finish: final snapshots byte-identical and the log
  // halves concatenate to the uninterrupted log (SnapshotTest's contract,
  // re-proven with superinstructions executing on both sides of the cut).
  FusedModeGuard Fused;
  verify::GenConfig G;
  G.Seed = 1;
  const std::vector<uint32_t> Words =
      riscv::assemble(verify::generateProgram(G));

  struct Rig {
    obs::LogSink Log; // declared first: the System delivers end() to it
    cores::Core Core;
    explicit Rig(const std::vector<uint32_t> &Words)
        : Core(cores::CoreKind::Pdl5Stage) {
      Core.system().setDrainOnHalt(true);
      Core.system().attachSink(Log);
      Core.loadProgram(Words);
    }
  };

  Rig A(Words);
  A.Core.system().start(A.Core.cpu(), {Bits(0, 32)});
  A.Core.system().run(50000);
  ASSERT_TRUE(A.Core.system().halted());
  const uint64_t Total = A.Core.system().stats().Cycles;
  const std::string FinalU = A.Core.system().snapshot();

  const uint64_t N = Total / 2;
  ASSERT_GE(N, 1u);
  Rig B(Words);
  B.Core.system().start(B.Core.cpu(), {Bits(0, 32)});
  B.Core.system().run(N);
  const std::string Mid = B.Core.system().snapshot();

  Rig C(Words);
  std::string Err;
  ASSERT_TRUE(C.Core.system().restore(Mid, &Err)) << Err;
  C.Core.system().run(50000 - N);
  ASSERT_TRUE(C.Core.system().halted());
  EXPECT_EQ(C.Core.system().stats().Cycles, Total);
  EXPECT_EQ(C.Core.system().snapshot(), FinalU);
  EXPECT_EQ(B.Log.log() + C.Log.log(), A.Log.log());
}

TEST(FusionTest, SnapshotRefusesCrossModeRestore) {
  // The eval mode is part of the config digest: a bytecode-mode snapshot
  // must not restore into a fused-mode System (and vice versa) — resume
  // must continue on the artifact that was interrupted.
  CompiledProgram CP = mustCompile(tests::kSpecLockKernel);
  auto MakeSys = [&](bool Fused) {
    ElabConfig Cfg;
    Cfg.EvalFused = Fused;
    auto Sys = std::make_unique<System>(CP, Cfg);
    Sys->start("ex1", {Bits(0, 4)});
    Sys->run(10);
    return Sys;
  };
  auto ByteSys = MakeSys(false), FusedSys = MakeSys(true);
  std::string Snap = ByteSys->snapshot();
  std::string Err;
  EXPECT_FALSE(FusedSys->restore(Snap, &Err));
  EXPECT_TRUE(MakeSys(false)->restore(Snap, &Err)) << Err;
}

TEST(FusionTest, RandomProgramsFuseIdentically) {
  // Property test over the seeded generator (backend/BcGen.h): for every
  // generated program, the fused rewrite must agree bit-for-bit with the
  // unfused bytecode at many random frames — the same differential the
  // pdlfuzz --bc-fuzz CI leg runs at larger scale, pinned here so a Fuse.cpp
  // regression fails in ctest before it reaches the fuzz job. The generator
  // is biased toward the exact windows fusion rewrites, so the corpus also
  // asserts every superinstruction actually fires.
  NoHooks H;
  bc::FuseStats Stats;
  for (uint64_t Seed = 1; Seed <= 60; ++Seed) {
    bc::GenProgram G = bc::genProgram(Seed * 0x9e3779b9u + 7);
    bc::ExprProgram Fused = bc::fuseProgram(G.Prog, &Stats);
    for (uint64_t FS = 0; FS != 12; ++FS) {
      std::vector<Bits> FrameU = bc::randomFrame(G, Seed * 131 + FS);
      std::vector<Bits> FrameF = FrameU;
      Bits RU = bc::execInterp(G.Prog, FrameU.data(), H);
      Bits RF = bc::execInterp(Fused, FrameF.data(), H);
      ASSERT_EQ(RU.zext(), RF.zext()) << "seed " << Seed << " frame " << FS;
      ASSERT_EQ(RU.width(), RF.width()) << "seed " << Seed << " frame " << FS;
    }
  }
  EXPECT_GT(Stats.CmpBr, 0u);
  EXPECT_GT(Stats.CmpRetBool, 0u);
  EXPECT_GT(Stats.RetBool, 0u);
  EXPECT_GT(Stats.Select, 0u);
  EXPECT_GT(Stats.BinK, 0u);
  EXPECT_GT(Stats.RetOp, 0u);
}

} // namespace
