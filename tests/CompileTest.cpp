//===- CompileTest.cpp - Bytecode expression compiler tests -----------------===//
//
// Part of the PDL reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Tests the elaboration-time expression compiler (backend/Compile.cpp):
/// shape properties of the emitted bytecode — constant folding, common
/// subexpression elimination, guard short-circuiting, dead-arm elision —
/// plus a seeded randomized differential check that the compiled programs
/// compute exactly what the tree-walking evaluator computes, over every
/// operator kind, both signednesses, and a spread of widths.
///
//===----------------------------------------------------------------------===//

#include "backend/Compile.h"
#include "backend/Eval.h"
#include "backend/Fuse.h"
#include "backend/System.h"

#include <gtest/gtest.h>

#include <random>
#include <sstream>

using namespace pdl;
using namespace pdl::backend;

namespace {

/// Compiles \p Source and dies loudly on a front-end diagnostic.
CompiledProgram mustCompile(const std::string &Source) {
  CompiledProgram CP = compile(Source);
  EXPECT_TRUE(CP.ok()) << CP.Diags->render() << "\nsource:\n" << Source;
  return CP;
}

/// The RHS expression of the assignment to \p Name in \p Pipe's body
/// (top-level statements only — enough for these tests).
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

/// Hooks that must never fire: the tests below only compile pure
/// expressions (no memory reads, no extern calls).
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

TEST(CompileTest, ConstantExpressionFoldsToSingleConst) {
  CompiledProgram CP = mustCompile(R"(
    pipe p(i: uint<8>)[] {
      x = (uint<8>(2) + uint<8>(3)) * uint<8>(4) - uint<8>(1);
      call p(i);
    }
  )");
  auto IR = bc::compileModule(*CP.AST);
  const bc::PipeProgram *PP = IR->pipe("p");
  ASSERT_NE(PP, nullptr);
  const ast::Expr *E = rhsOf(*CP.AST->findPipe("p"), "x");
  ASSERT_NE(E, nullptr);
  const bc::ExprProgram *P = PP->programFor(E);
  ASSERT_NE(P, nullptr);
  // The whole tree folds at compile time: one pool load, one return.
  EXPECT_EQ(P->Code.size(), 2u);
  EXPECT_EQ(countOps(*P, bc::Op::Const), 1u);
  EXPECT_EQ(countOps(*P, bc::Op::Add), 0u);
  EXPECT_EQ(countOps(*P, bc::Op::Mul), 0u);
  ASSERT_EQ(P->Pool.size(), 1u);
  EXPECT_EQ(P->Pool[0].zext(), 19u);

  NoHooks H;
  std::vector<Bits> Frame = PP->InitFrame;
  EXPECT_EQ(bc::exec(*P, Frame.data(), H).zext(), 19u);
}

TEST(CompileTest, RepeatedSubexpressionIsComputedOnce) {
  CompiledProgram CP = mustCompile(R"(
    pipe p(a: uint<8>, b: uint<8>)[] {
      x = (a + b) * (a + b);
      call p(a, b);
    }
  )");
  auto IR = bc::compileModule(*CP.AST);
  const bc::PipeProgram *PP = IR->pipe("p");
  const bc::ExprProgram *P =
      PP->programFor(rhsOf(*CP.AST->findPipe("p"), "x"));
  ASSERT_NE(P, nullptr);
  // Value numbering: one Add feeding one Mul, not two Adds.
  EXPECT_EQ(countOps(*P, bc::Op::Add), 1u);
  EXPECT_EQ(countOps(*P, bc::Op::Mul), 1u);
}

TEST(CompileTest, GuardConjunctionShortCircuits) {
  // The separator inside one if-arm forks the stage graph, so stage 0 has
  // two guarded successor edges with opposite polarities on `c`.
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
      z = a + 3;
    }
  )");
  auto IR = bc::compileModule(CP);
  const bc::PipeProgram *PP = IR->pipe("p");
  ASSERT_NE(PP, nullptr);
  ASSERT_FALSE(PP->Stages.empty());
  const bc::StageProg &S0 = PP->Stages[0];
  ASSERT_EQ(S0.EdgeGuards.size(), 2u);
  unsigned Branching = 0;
  for (const bc::ExprProgram *G : S0.EdgeGuards) {
    ASSERT_NE(G, nullptr);
    // A guard program bails to a RetFalse epilogue the moment a term
    // disagrees with its polarity, and falls through to RetTrue.
    EXPECT_EQ(countOps(*G, bc::Op::RetTrue), 1u);
    EXPECT_EQ(countOps(*G, bc::Op::RetFalse), 1u);
    Branching += countOps(*G, bc::Op::BrFalse) + countOps(*G, bc::Op::BrTrue);
  }
  EXPECT_GE(Branching, 2u);

  // The two edges partition: exactly one holds for any value of `c`.
  NoHooks H;
  for (uint64_t A : {0u, 1u, 7u}) {
    std::vector<Bits> Frame = PP->InitFrame;
    Frame[PP->ParamSlots[0]] = Bits(A, 8);
    // Materialize `c` the way the executor would (stage-0 assign).
    Frame[PP->slotOf("c")] = Bits(A == 0 ? 1 : 0, 1);
    unsigned Holds = 0;
    for (const bc::ExprProgram *G : S0.EdgeGuards)
      Holds += bc::exec(*G, Frame.data(), H).toBool();
    EXPECT_EQ(Holds, 1u) << "a=" << A;
  }
}

TEST(CompileTest, CseInvalidationAcrossTernaryArms) {
  // (a + b) occurs under both arms of the branch. The value-numbering
  // state is snapshotted before the then arm and restored before the else
  // arm, so neither arm may reuse the other's temporaries: three Adds (two
  // in the then arm, one in the else arm), not two. This is exactly the
  // invalidation the tv mutation self-test (PDL_TV_MUTATE=cse-ternary)
  // perturbs.
  CompiledProgram CP = mustCompile(R"(
    pipe p(a: uint<8>, b: uint<8>, c: bool)[] {
      x = c ? (a + b) + b : (a + b) - b;
      call p(x, b, c);
    }
  )");
  auto IR = bc::compileModule(*CP.AST);
  const bc::PipeProgram *PP = IR->pipe("p");
  ASSERT_NE(PP, nullptr);
  const bc::ExprProgram *P =
      PP->programFor(rhsOf(*CP.AST->findPipe("p"), "x"));
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(countOps(*P, bc::Op::Add), 3u);
  EXPECT_EQ(countOps(*P, bc::Op::Sub), 1u);

  NoHooks H;
  for (unsigned C : {0u, 1u}) {
    std::vector<Bits> Frame = PP->InitFrame;
    Frame[PP->slotOf("a")] = Bits(5, 8);
    Frame[PP->slotOf("b")] = Bits(3, 8);
    Frame[PP->slotOf("c")] = Bits(C, 1);
    EXPECT_EQ(bc::exec(*P, Frame.data(), H).zext(), C ? 11u : 5u) << C;
  }
}

TEST(CompileTest, TernaryJoinRestoresValueNumbering) {
  // A value computed inside an arm is conditional, so a post-join
  // occurrence of the same expression must be recomputed: the join
  // restores the pre-conditional value-numbering snapshot. Reusing the
  // then-arm's (a + b) would read a slot the else path never wrote.
  CompiledProgram CP = mustCompile(R"(
    pipe p(a: uint<8>, b: uint<8>, c: bool)[] {
      x = (c ? (a + b) : a) + (a + b);
      call p(x, b, c);
    }
  )");
  auto IR = bc::compileModule(*CP.AST);
  const bc::PipeProgram *PP = IR->pipe("p");
  ASSERT_NE(PP, nullptr);
  const bc::ExprProgram *P =
      PP->programFor(rhsOf(*CP.AST->findPipe("p"), "x"));
  ASSERT_NE(P, nullptr);
  // Then-arm (a + b), post-join (a + b), and the outer +: three Adds.
  EXPECT_EQ(countOps(*P, bc::Op::Add), 3u);

  NoHooks H;
  for (unsigned C : {0u, 1u}) {
    std::vector<Bits> Frame = PP->InitFrame;
    Frame[PP->slotOf("a")] = Bits(5, 8);
    Frame[PP->slotOf("b")] = Bits(3, 8);
    Frame[PP->slotOf("c")] = Bits(C, 1);
    EXPECT_EQ(bc::exec(*P, Frame.data(), H).zext(), C ? 16u : 13u) << C;
  }
}

TEST(CompileTest, GuardShortCircuitChecksEveryTerm) {
  // Nested separators give stage 0 a three-way guarded fan-out: [c, d],
  // [c, !d], and [!c]. The fused guard programs must check every term —
  // including the last one, whose fail-branch is what the guard-drop
  // mutation (PDL_TV_MUTATE=guard-drop) severs — so the edges partition
  // for all four (c, d) slot combinations, even the ones no single `a`
  // value can produce.
  CompiledProgram CP = mustCompile(R"(
    pipe p(a: uint<8>)[] {
      c = a == 0;
      d = a < 4;
      call p(a + 1);
      if (c) {
        if (d) {
          ---
          x = a + 1;
        } else {
          y = a + 2;
        }
      } else {
        z = a + 3;
      }
      w = a + 4;
    }
  )");
  auto IR = bc::compileModule(CP);
  const bc::PipeProgram *PP = IR->pipe("p");
  ASSERT_NE(PP, nullptr);
  ASSERT_FALSE(PP->Stages.empty());
  const bc::StageProg &S0 = PP->Stages[0];
  ASSERT_EQ(S0.EdgeGuards.size(), 3u);

  unsigned Branching = 0;
  for (const bc::ExprProgram *G : S0.EdgeGuards) {
    ASSERT_NE(G, nullptr);
    EXPECT_EQ(countOps(*G, bc::Op::RetTrue), 1u);
    EXPECT_EQ(countOps(*G, bc::Op::RetFalse), 1u);
    Branching += countOps(*G, bc::Op::BrFalse) + countOps(*G, bc::Op::BrTrue);
  }
  // One conditional branch per guard term: 2 + 2 + 1.
  EXPECT_EQ(Branching, 5u);

  NoHooks H;
  for (unsigned C : {0u, 1u})
    for (unsigned D : {0u, 1u}) {
      std::vector<Bits> Frame = PP->InitFrame;
      Frame[PP->ParamSlots[0]] = Bits(1, 8);
      Frame[PP->slotOf("c")] = Bits(C, 1);
      Frame[PP->slotOf("d")] = Bits(D, 1);
      unsigned Holds = 0;
      for (const bc::ExprProgram *G : S0.EdgeGuards)
        Holds += bc::exec(*G, Frame.data(), H).toBool();
      EXPECT_EQ(Holds, 1u) << "c=" << C << " d=" << D;
    }
}

TEST(CompileTest, ConstantTernaryDropsUntakenArm) {
  CompiledProgram CP = mustCompile(R"(
    pipe p(i: uint<8>)[m: uint<8>[4]] {
      x = true ? i + uint<8>(1) : m[i{3:0}];
      call p(x);
    }
  )");
  auto IR = bc::compileModule(*CP.AST);
  const bc::PipeProgram *PP = IR->pipe("p");
  const bc::ExprProgram *P =
      PP->programFor(rhsOf(*CP.AST->findPipe("p"), "x"));
  ASSERT_NE(P, nullptr);
  // Only the taken arm exists: the untaken memory read never compiled, so
  // its hook site cannot fire at runtime (same contract as the walker).
  EXPECT_EQ(countOps(*P, bc::Op::MemRead), 0u);
  EXPECT_EQ(countOps(*P, bc::Op::BrFalse), 0u);
  EXPECT_TRUE(P->MemSites.empty());
}

TEST(CompileTest, SlotTableMapsNamesBothWays) {
  CompiledProgram CP = mustCompile(R"(
    pipe p(a: uint<8>, b: uint<16>)[] {
      x = a + 1;
      call p(a, b);
    }
  )");
  auto IR = bc::compileModule(*CP.AST);
  const bc::PipeProgram *PP = IR->pipe("p");
  ASSERT_NE(PP, nullptr);
  for (const char *Name : {"a", "b", "x"}) {
    uint16_t S = PP->slotOf(Name);
    ASSERT_NE(S, bc::NoSlot) << Name;
    ASSERT_LT(S, PP->NumVars) << Name;
    EXPECT_EQ(PP->SlotNames[S], Name);
  }
  EXPECT_EQ(PP->slotOf("nonesuch"), bc::NoSlot);
  ASSERT_EQ(PP->ParamSlots.size(), 2u);
  EXPECT_EQ(PP->ParamSlots[0], PP->slotOf("a"));
  EXPECT_EQ(PP->ParamSlots[1], PP->slotOf("b"));
  // Declared widths seed the frame template (unbound reads = zero at the
  // declared width).
  EXPECT_EQ(PP->InitFrame[PP->slotOf("a")].width(), 8u);
  EXPECT_EQ(PP->InitFrame[PP->slotOf("b")].width(), 16u);
}

//===----------------------------------------------------------------------===//
// Randomized differential: compiled programs vs the tree walker
//===----------------------------------------------------------------------===//

/// Generates a random expression of type TY (uint<W> or int<W>) as source
/// text. Sub-terms that change width (slices, concats, comparisons) are
/// wrapped back to TY with explicit casts, so the whole program
/// type-checks without relying on implicit coercions.
class ExprGen {
public:
  ExprGen(std::mt19937 &Rng, unsigned W, bool Signed,
          const std::vector<std::string> &Vars)
      : Rng(Rng), W(W), Signed(Signed), Vars(Vars) {}

  std::string gen(unsigned Depth) {
    if (Depth == 0 || pick(5) == 0)
      return leaf();
    switch (pick(9)) {
    case 0:
    case 1: { // arithmetic / bitwise
      static const char *Ops[] = {"+", "-", "*", "/", "%", "&", "|", "^"};
      return "(" + gen(Depth - 1) + " " + Ops[pick(8)] + " " +
             gen(Depth - 1) + ")";
    }
    case 2: // shift (amount masked by the evaluator, any value is legal)
      return "(" + gen(Depth - 1) + (pick(2) ? " << " : " >> ") +
             gen(Depth - 1) + ")";
    case 3: // ternary on a comparison
      return "(" + cond(Depth - 1) + " ? " + gen(Depth - 1) + " : " +
             gen(Depth - 1) + ")";
    case 4: // unary
      return "(" + std::string(pick(2) ? "~" : "-") + gen(Depth - 1) + ")";
    case 5: { // slice of a variable, cast back to TY
      unsigned Hi = pick(W), Lo = pick(Hi + 1);
      std::ostringstream S;
      S << ty() << "(" << var() << "{" << Hi << ":" << Lo << "})";
      return S.str();
    }
    case 6: // concat of two variables, cast back (2W <= 64 by W choice)
      return ty() + "((" + var() + " ++ " + var() + "))";
    case 7: // width-changing cast round trip
      return ty() + "(" + other() + "(" + gen(Depth - 1) + "))";
    default:
      return "(" + gen(Depth - 1) + " + " + gen(Depth - 1) + ")";
    }
  }

private:
  std::mt19937 &Rng;
  unsigned W;
  bool Signed;
  const std::vector<std::string> &Vars;

  unsigned pick(unsigned N) { return std::uniform_int_distribution<unsigned>(
      0, N - 1)(Rng); }
  std::string var() { return Vars[pick(unsigned(Vars.size()))]; }
  std::string ty() const {
    return (Signed ? "int<" : "uint<") + std::to_string(W) + ">";
  }
  std::string other() const { // a different width, same signedness
    unsigned W2 = W == 8 ? 16 : 8;
    return (Signed ? "int<" : "uint<") + std::to_string(W2) + ">";
  }
  std::string leaf() {
    if (pick(3) == 0) {
      std::ostringstream S;
      S << ty() << "(" << pick(1u << (W < 16 ? W : 16)) << ")";
      return S.str();
    }
    return var();
  }
  std::string cond(unsigned Depth) {
    static const char *Cmp[] = {"==", "!=", "<", "<=", ">", ">="};
    std::string C = "(" + gen(Depth) + " " + Cmp[pick(6)] + " " +
                    gen(Depth) + ")";
    switch (pick(4)) {
    case 0:
      return "(!" + C + ")";
    case 1:
      return "(" + C + " && (" + gen(Depth) + " == " + gen(Depth) + "))";
    default:
      return C;
    }
  }
};

TEST(CompileTest, RandomizedDifferentialAgainstTreeWalker) {
  std::mt19937 Rng(0x9D17u);
  NoHooks BcH;
  EvalHooks TreeH; // never consulted: generated expressions are pure
  unsigned Programs = 0, Checks = 0;

  for (unsigned Iter = 0; Iter != 40; ++Iter) {
    const unsigned Widths[] = {4, 8, 16, 32};
    unsigned W = Widths[Iter % 4];
    bool Signed = (Iter / 4) % 2;
    std::string TY =
        (Signed ? "int<" : "uint<") + std::to_string(W) + ">";

    // Three assignments; later ones may reference earlier results.
    std::vector<std::string> Vars = {"a", "b", "c"};
    std::ostringstream Src;
    Src << "pipe p(a: " << TY << ", b: " << TY << ", c: " << TY << ")[] {\n";
    for (unsigned X = 0; X != 3; ++X) {
      ExprGen G(Rng, W, Signed, Vars);
      Src << "  x" << X << " = " << TY << "(" << G.gen(3) << ");\n";
      Vars.push_back("x" + std::to_string(X));
    }
    Src << "  call p(x0, x1, x2);\n}\n";

    CompiledProgram CP = compile(Src.str());
    ASSERT_TRUE(CP.ok()) << CP.Diags->render() << "\nsource:\n" << Src.str();
    auto IR = bc::compileModule(*CP.AST);
    const bc::PipeProgram *PP = IR->pipe("p");
    ASSERT_NE(PP, nullptr);
    const ast::PipeDecl *Pipe = CP.AST->findPipe("p");
    ++Programs;

    for (unsigned Trial = 0; Trial != 16; ++Trial) {
      uint64_t Mask = W == 64 ? ~0ull : ((1ull << W) - 1);
      Bits A(Rng() & Mask, W), B(Rng() & Mask, W), C(Rng() & Mask, W);

      Env E;
      E["a"] = A;
      E["b"] = B;
      E["c"] = C;
      std::vector<Bits> Frame = PP->InitFrame;
      Frame[PP->ParamSlots[0]] = A;
      Frame[PP->ParamSlots[1]] = B;
      Frame[PP->ParamSlots[2]] = C;

      for (const ast::StmtPtr &S : Pipe->Body) {
        const auto *As = dyn_cast<ast::AssignStmt>(S.get());
        if (!As)
          continue;
        Bits Tree = evalExpr(*As->value(), E, *CP.AST, TreeH);
        const bc::ExprProgram *P = PP->programFor(As->value());
        ASSERT_NE(P, nullptr);
        Bits Compiled = bc::exec(*P, Frame.data(), BcH);
        EXPECT_EQ(Compiled.zext(), Tree.zext())
            << As->name() << " in:\n" << Src.str() << "a=" << A.zext()
            << " b=" << B.zext() << " c=" << C.zext();
        EXPECT_EQ(Compiled.width(), Tree.width()) << As->name();
        E[As->name()] = Tree;
        Frame[PP->slotOf(As->name())] = Compiled;
        ++Checks;
      }
    }
  }
  EXPECT_EQ(Programs, 40u);
  EXPECT_GE(Checks, 40u * 16u * 3u);
}

//===----------------------------------------------------------------------===//
// Fusion degenerate-input regressions
//===----------------------------------------------------------------------===//

/// Regression: the fusion pass once assumed every epilogue window had a
/// branch target inside the code. An empty program, a lone Ret*, or a
/// branch whose target is one-past-the-end (an empty guarded block — the
/// executor treats falling off the end as RetFalse in guard position) must
/// come back as no-ops, never as an out-of-range read of Code[Imm].
TEST(CompileTest, FuseDegenerateProgramsAreNoOps) {
  auto Unchanged = [](const bc::ExprProgram &In) {
    bc::FuseStats S;
    bc::ExprProgram Out = bc::fuseProgram(In, &S);
    EXPECT_EQ(S.fusedInsns(), 0u);
    ASSERT_EQ(Out.Code.size(), In.Code.size());
    for (size_t I = 0; I != In.Code.size(); ++I) {
      EXPECT_EQ(unsigned(Out.Code[I].Opc), unsigned(In.Code[I].Opc)) << I;
      EXPECT_EQ(Out.Code[I].A, In.Code[I].A) << I;
      EXPECT_EQ(Out.Code[I].B, In.Code[I].B) << I;
      EXPECT_EQ(Out.Code[I].C, In.Code[I].C) << I;
      EXPECT_EQ(Out.Code[I].Imm, In.Code[I].Imm) << I;
    }
  };

  Unchanged(bc::ExprProgram{}); // empty block: nothing to scan

  bc::ExprProgram OnlyRetTrue;
  OnlyRetTrue.Code.push_back({bc::Op::RetTrue, 0, 0, 0, 0});
  Unchanged(OnlyRetTrue); // trivially-true guard

  bc::ExprProgram OnlyRetFalse;
  OnlyRetFalse.Code.push_back({bc::Op::RetFalse, 0, 0, 0, 0});
  Unchanged(OnlyRetFalse);

  // Br targeting one-past-the-end, then RetTrue: shaped exactly like the
  // FusedRetBool window except the RetFalse does not exist. The `Imm < N`
  // guard must reject it without touching Code[2].
  bc::ExprProgram BrOffEnd;
  BrOffEnd.Code.push_back({bc::Op::BrFalse, 0, 0, 0, 2});
  BrOffEnd.Code.push_back({bc::Op::RetTrue, 0, 0, 0, 0});
  Unchanged(BrOffEnd);

  // Same shape one level up: cmp;Br;RetTrue with the branch off the end
  // must not become FusedCmpRetBool (it may still become FusedCmpBr —
  // dest 1 is written before read, so the compare result is not dead;
  // with a live dest nothing fuses at all).
  bc::ExprProgram CmpBrOffEnd;
  CmpBrOffEnd.Code.push_back({bc::Op::Eq, 1, 0, 0, 0});
  CmpBrOffEnd.Code.push_back({bc::Op::BrFalse, 0, 1, 0, 3});
  CmpBrOffEnd.Code.push_back({bc::Op::Ret, 0, 1, 0, 0});
  Unchanged(CmpBrOffEnd);
}

/// An if-arm that is nothing but a stage separator compiles to an edge
/// guarded by a plain bool read; fusing the module must keep every guard
/// pointer valid and the guards partitioning, not strand an edge on a
/// dangling or truncated program.
TEST(CompileTest, FuseEmptyGuardedBlockKeepsPartition) {
  CompiledProgram CP = mustCompile(R"(
    pipe p(a: uint<8>)[] {
      c = a == 0;
      call p(a + 1);
      if (c) {
        ---
      } else {
        y = a + 2;
      }
    }
  )");
  auto Base = bc::compileModule(CP);
  auto Fused = bc::fuseModule(*Base);
  const bc::PipeProgram *PP = Fused->pipe("p");
  ASSERT_NE(PP, nullptr);
  ASSERT_FALSE(PP->Stages.empty());
  const bc::StageProg &S0 = PP->Stages[0];
  ASSERT_EQ(S0.EdgeGuards.size(), 2u);

  NoHooks H;
  for (uint64_t A : {0u, 1u, 9u}) {
    for (uint64_t C : {0u, 1u}) {
      std::vector<Bits> Frame = PP->InitFrame;
      Frame[PP->ParamSlots[0]] = Bits(A, 8);
      Frame[PP->slotOf("c")] = Bits(C, 1);
      unsigned Holds = 0;
      for (const bc::ExprProgram *G : S0.EdgeGuards) {
        ASSERT_NE(G, nullptr);
        ASSERT_FALSE(G->Code.empty());
        Holds += bc::exec(*G, Frame.data(), H).toBool();
      }
      EXPECT_EQ(Holds, 1u) << "a=" << A << " c=" << C;
    }
  }
}

} // namespace
