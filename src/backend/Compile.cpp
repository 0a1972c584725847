//===- Compile.cpp - AST -> bytecode expression compiler -------------------===//
//
// Part of the PDL reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "backend/Compile.h"

#include "hw/Lock.h"
#include "passes/PathCondition.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <map>
#include <tuple>

using namespace pdl;
using namespace pdl::ast;
using namespace pdl::backend;
using namespace pdl::backend::bc;

//===----------------------------------------------------------------------===//
// Interpreter loop
//===----------------------------------------------------------------------===//
//
// Threaded dispatch: on GNU-compatible compilers each opcode handler ends
// with its own indirect goto through a label table, so the branch predictor
// sees one distinct dispatch site per opcode instead of a single shared
// switch branch. PDL_NO_COMPUTED_GOTO (or a non-GNU compiler) selects the
// portable switch loop with identical semantics; both paths are built from
// the same handler bodies via the CASE/NEXT/JUMP_TO macros.

#if defined(__GNUC__) && !defined(PDL_NO_COMPUTED_GOTO)
#define PDL_BC_THREADED 1
#endif

namespace {

/// Applies a two-operand pure opcode — the shared core of the plain binary
/// handlers and the FusedBinK / FusedRetOp superinstructions. \p O must be
/// a binary op (Add..SLe, LogAnd, LogOr, Concat).
inline Bits applyBin(Op O, const Bits &B, const Bits &C) {
  switch (O) {
  case Op::Add:
    return B.add(C);
  case Op::Sub:
    return B.sub(C);
  case Op::Mul:
    return B.mul(C);
  case Op::UDiv:
    return B.udiv(C);
  case Op::SDiv:
    return B.sdiv(C);
  case Op::URem:
    return B.urem(C);
  case Op::SRem:
    return B.srem(C);
  case Op::And:
    return B.and_(C);
  case Op::Or:
    return B.or_(C);
  case Op::Xor:
    return B.xor_(C);
  case Op::Shl:
    return B.shl(C);
  case Op::LShr:
    return B.lshr(C);
  case Op::AShr:
    return B.ashr(C);
  case Op::Eq:
    return B.eq(C);
  case Op::Ne:
    return B.ne(C);
  case Op::ULt:
    return B.ult(C);
  case Op::ULe:
    return B.ule(C);
  case Op::SLt:
    return B.slt(C);
  case Op::SLe:
    return B.sle(C);
  case Op::LogAnd:
    return Bits(B.toBool() && C.toBool() ? 1 : 0, 1);
  case Op::LogOr:
    return Bits(B.toBool() || C.toBool() ? 1 : 0, 1);
  case Op::Concat:
    return B.concat(C);
  default:
    assert(false && "applyBin: not a binary opcode");
    return Bits(0, 1);
  }
}

/// FusedRetOp's sub-opcode evaluator: any pure op the fusion pass accepts
/// in an op→return tail (Fuse.cpp isRetFusable).
inline Bits applyRetOp(const ExprProgram &P, const Insn &I, const Bits *F) {
  const Op Sub = Op(I.A);
  switch (Sub) {
  case Op::Const:
    return P.Pool[I.Imm];
  case Op::Copy:
    return F[I.B];
  case Op::LogNot:
    return Bits(F[I.B].isZero() ? 1 : 0, 1);
  case Op::BitNot:
    return F[I.B].not_();
  case Op::Neg: {
    const Bits &V = F[I.B];
    return Bits(0, V.width()).sub(V);
  }
  case Op::Slice:
    return F[I.B].slice(I.Imm >> 16, I.Imm & 0xffff);
  case Op::ZExt:
    return F[I.B].zextTo(I.C);
  case Op::SExt:
    return F[I.B].sextTo(I.C);
  default:
    return applyBin(Sub, F[I.B], F[I.C]);
  }
}

} // namespace

Bits bc::execInterp(const ExprProgram &P, Bits *F, Hooks &H) {
  const Insn *Base = P.Code.data();
  const Bits *Pool = P.Pool.data();
  const Insn *I = Base;

#ifdef PDL_BC_THREADED
  // One table entry per opcode, in enum order (indexed by uint8_t value).
  static const void *const Tbl[NumOpcodes] = {
      &&L_Const,   &&L_Copy,    &&L_Add,      &&L_Sub,
      &&L_Mul,     &&L_UDiv,    &&L_SDiv,     &&L_URem,
      &&L_SRem,    &&L_And,     &&L_Or,       &&L_Xor,
      &&L_Shl,     &&L_LShr,    &&L_AShr,     &&L_Eq,
      &&L_Ne,      &&L_ULt,     &&L_ULe,      &&L_SLt,
      &&L_SLe,     &&L_LogAnd,  &&L_LogOr,    &&L_LogNot,
      &&L_BitNot,  &&L_Neg,     &&L_Slice,    &&L_ZExt,
      &&L_SExt,    &&L_Concat,  &&L_MemRead,  &&L_Extern,
      &&L_BrFalse, &&L_BrTrue,  &&L_Jump,     &&L_Ret,
      &&L_RetTrue, &&L_RetFalse, &&L_FusedCmpBr, &&L_FusedCmpRetBool,
      &&L_FusedRetBool, &&L_FusedSelect, &&L_FusedBinK, &&L_FusedRetOp};
#define CASE(Name) L_##Name:
#define NEXT                                                                  \
  do {                                                                        \
    ++I;                                                                      \
    goto *Tbl[size_t(I->Opc)];                                                \
  } while (0)
#define JUMP_TO(Target)                                                       \
  do {                                                                        \
    I = Base + (Target);                                                      \
    goto *Tbl[size_t(I->Opc)];                                                \
  } while (0)
  goto *Tbl[size_t(I->Opc)];
#else
#define CASE(Name) case Op::Name:
#define NEXT                                                                  \
  do {                                                                        \
    ++I;                                                                      \
    goto dispatch;                                                            \
  } while (0)
#define JUMP_TO(Target)                                                       \
  do {                                                                        \
    I = Base + (Target);                                                      \
    goto dispatch;                                                            \
  } while (0)
dispatch:
  switch (I->Opc) {
#endif

  CASE(Const) {
    F[I->A] = Pool[I->Imm];
    NEXT;
  }
  CASE(Copy) {
    F[I->A] = F[I->B];
    NEXT;
  }
  CASE(Add) {
    F[I->A] = F[I->B].add(F[I->C]);
    NEXT;
  }
  CASE(Sub) {
    F[I->A] = F[I->B].sub(F[I->C]);
    NEXT;
  }
  CASE(Mul) {
    F[I->A] = F[I->B].mul(F[I->C]);
    NEXT;
  }
  CASE(UDiv) {
    F[I->A] = F[I->B].udiv(F[I->C]);
    NEXT;
  }
  CASE(SDiv) {
    F[I->A] = F[I->B].sdiv(F[I->C]);
    NEXT;
  }
  CASE(URem) {
    F[I->A] = F[I->B].urem(F[I->C]);
    NEXT;
  }
  CASE(SRem) {
    F[I->A] = F[I->B].srem(F[I->C]);
    NEXT;
  }
  CASE(And) {
    F[I->A] = F[I->B].and_(F[I->C]);
    NEXT;
  }
  CASE(Or) {
    F[I->A] = F[I->B].or_(F[I->C]);
    NEXT;
  }
  CASE(Xor) {
    F[I->A] = F[I->B].xor_(F[I->C]);
    NEXT;
  }
  CASE(Shl) {
    F[I->A] = F[I->B].shl(F[I->C]);
    NEXT;
  }
  CASE(LShr) {
    F[I->A] = F[I->B].lshr(F[I->C]);
    NEXT;
  }
  CASE(AShr) {
    F[I->A] = F[I->B].ashr(F[I->C]);
    NEXT;
  }
  CASE(Eq) {
    F[I->A] = F[I->B].eq(F[I->C]);
    NEXT;
  }
  CASE(Ne) {
    F[I->A] = F[I->B].ne(F[I->C]);
    NEXT;
  }
  CASE(ULt) {
    F[I->A] = F[I->B].ult(F[I->C]);
    NEXT;
  }
  CASE(ULe) {
    F[I->A] = F[I->B].ule(F[I->C]);
    NEXT;
  }
  CASE(SLt) {
    F[I->A] = F[I->B].slt(F[I->C]);
    NEXT;
  }
  CASE(SLe) {
    F[I->A] = F[I->B].sle(F[I->C]);
    NEXT;
  }
  CASE(LogAnd) {
    F[I->A] = Bits(F[I->B].toBool() && F[I->C].toBool() ? 1 : 0, 1);
    NEXT;
  }
  CASE(LogOr) {
    F[I->A] = Bits(F[I->B].toBool() || F[I->C].toBool() ? 1 : 0, 1);
    NEXT;
  }
  CASE(LogNot) {
    F[I->A] = Bits(F[I->B].isZero() ? 1 : 0, 1);
    NEXT;
  }
  CASE(BitNot) {
    F[I->A] = F[I->B].not_();
    NEXT;
  }
  CASE(Neg) {
    const Bits &V = F[I->B];
    F[I->A] = Bits(0, V.width()).sub(V);
    NEXT;
  }
  CASE(Slice) {
    F[I->A] = F[I->B].slice(I->Imm >> 16, I->Imm & 0xffff);
    NEXT;
  }
  CASE(ZExt) {
    F[I->A] = F[I->B].zextTo(I->C);
    NEXT;
  }
  CASE(SExt) {
    F[I->A] = F[I->B].sextTo(I->C);
    NEXT;
  }
  CASE(Concat) {
    F[I->A] = F[I->B].concat(F[I->C]);
    NEXT;
  }
  CASE(MemRead) {
    F[I->A] = H.readMem(P, I->Imm, F[I->B].zext());
    NEXT;
  }
  CASE(Extern) {
    F[I->A] = H.callExtern(P, I->Imm, &F[I->B], I->C);
    NEXT;
  }
  CASE(BrFalse) {
    if (!F[I->B].toBool())
      JUMP_TO(I->Imm);
    NEXT;
  }
  CASE(BrTrue) {
    if (F[I->B].toBool())
      JUMP_TO(I->Imm);
    NEXT;
  }
  CASE(Jump) { JUMP_TO(I->Imm); }
  CASE(Ret) { return F[I->B]; }
  CASE(RetTrue) { return Bits(1, 1); }
  CASE(RetFalse) { return Bits(0, 1); }

  // Superinstructions: each executes exactly the unfused expansion
  // documented in Bytecode.h, minus the dead scratch store.
  CASE(FusedCmpBr) {
    bool T = applyBin(Op(I->A & 0xff), F[I->B], F[I->C]).toBool();
    if (T == ((I->A & 0x100) != 0))
      JUMP_TO(I->Imm);
    NEXT;
  }
  CASE(FusedCmpRetBool) {
    bool T = applyBin(Op(I->A & 0xff), F[I->B], F[I->C]).toBool();
    return Bits(T != ((I->A & 0x100) != 0) ? 1 : 0, 1);
  }
  CASE(FusedRetBool) {
    return Bits(F[I->B].toBool() != (I->A != 0) ? 1 : 0, 1);
  }
  CASE(FusedSelect) {
    bool TC = (I->Imm & (1u << 16)) != 0, EC = (I->Imm & (1u << 17)) != 0;
    if (F[I->B].toBool())
      F[I->A] = TC ? Pool[I->C] : F[I->C];
    else
      F[I->A] = EC ? Pool[I->Imm & 0xffff] : F[I->Imm & 0xffff];
    NEXT;
  }
  CASE(FusedBinK) {
    const Bits &K = Pool[I->Imm];
    const Bits &V = F[I->B];
    F[I->A] = (I->C & 0x100) ? applyBin(Op(I->C & 0xff), K, V)
                             : applyBin(Op(I->C & 0xff), V, K);
    NEXT;
  }
  CASE(FusedRetOp) { return applyRetOp(P, *I, F); }

#ifndef PDL_BC_THREADED
  }
  assert(false && "bc::exec: fell off the opcode switch");
  return Bits(0, 1);
#endif
#undef CASE
#undef NEXT
#undef JUMP_TO
}

//===----------------------------------------------------------------------===//
// Compiler
//===----------------------------------------------------------------------===//

namespace {

/// Same operator semantics as evalBinary in Eval.cpp, applied at compile
/// time to literal operands.
Bits foldBinary(BinaryOp Op, bool Signed, const Bits &L, const Bits &R) {
  switch (Op) {
  case BinaryOp::Add:
    return L.add(R);
  case BinaryOp::Sub:
    return L.sub(R);
  case BinaryOp::Mul:
    return L.mul(R);
  case BinaryOp::Div:
    return Signed ? L.sdiv(R) : L.udiv(R);
  case BinaryOp::Rem:
    return Signed ? L.srem(R) : L.urem(R);
  case BinaryOp::BitAnd:
    return L.and_(R);
  case BinaryOp::BitOr:
    return L.or_(R);
  case BinaryOp::BitXor:
    return L.xor_(R);
  case BinaryOp::Shl:
    return L.shl(R);
  case BinaryOp::Shr:
    return Signed ? L.ashr(R) : L.lshr(R);
  case BinaryOp::Eq:
    return L.eq(R);
  case BinaryOp::Ne:
    return L.ne(R);
  case BinaryOp::Lt:
    return Signed ? L.slt(R) : L.ult(R);
  case BinaryOp::Le:
    return Signed ? L.sle(R) : L.ule(R);
  case BinaryOp::Gt:
    return Signed ? R.slt(L) : R.ult(L);
  case BinaryOp::Ge:
    return Signed ? R.sle(L) : R.ule(L);
  case BinaryOp::LogicalAnd:
    return Bits(L.toBool() && R.toBool() ? 1 : 0, 1);
  case BinaryOp::LogicalOr:
    return Bits(L.toBool() || R.toBool() ? 1 : 0, 1);
  case BinaryOp::Concat:
    return L.concat(R);
  }
  assert(false && "unknown binary operator");
  return Bits();
}

/// A compile-time value: either a known constant or a frame slot.
struct Val {
  bool IsConst = false;
  uint16_t Slot = NoSlot;
  Bits K;

  static Val constant(Bits B) {
    Val V;
    V.IsConst = true;
    V.K = B;
    return V;
  }
  static Val slot(uint16_t S) {
    Val V;
    V.Slot = S;
    return V;
  }
};

/// Compiles one pipe: slot table, statement/if-condition programs, and
/// (when a stage graph is supplied) the executor's stage mirrors.
/// Deliberate-miscompile switch for the translation validator's self-test
/// (src/tv/): PDL_TV_MUTATE=cse-ternary keeps the then-arm's value numbers
/// alive into the else arm (the classic dropped-invalidation bug — the else
/// path then reads scratch slots only the then path wrote);
/// PDL_TV_MUTATE=guard-drop neutralizes the last short-circuit branch of
/// each fused guard program. Both must be rejected by tv::validateModule.
enum class Mutation { None, CseTernary, GuardDrop };

Mutation requestedMutation() {
  const char *E = std::getenv("PDL_TV_MUTATE");
  if (!E)
    return Mutation::None;
  if (std::strcmp(E, "cse-ternary") == 0)
    return Mutation::CseTernary;
  if (std::strcmp(E, "guard-drop") == 0)
    return Mutation::GuardDrop;
  return Mutation::None;
}

class PipeCompiler {
public:
  PipeCompiler(const ast::Program &AST, const PipeDecl &Pipe, PipeProgram &PP,
               const std::map<std::string, unsigned> *CkptStages)
      : AST(AST), Pipe(Pipe), PP(PP), CkptStages(CkptStages),
        Mut(requestedMutation()) {}

  void run(const StageGraph *G) {
    // Pass 1: discover every named variable and its declared width, and
    // intern the reservation keys every access site is resolved against.
    for (const Param &P : Pipe.Params)
      noteWidth(P.Name, P.Ty.width());
    for (const StmtPtr &S : Pipe.Body)
      collectStmt(*S.get());
    PP.NumVars = static_cast<unsigned>(PP.SlotNames.size());
    PP.FrameSize = PP.NumVars;
    for (const StmtPtr &S : Pipe.Body)
      noteReserves(*S.get());
    if (CkptStages)
      for (const auto &[Mem, Stage] : *CkptStages)
        PP.Ckpts.push_back({memIndex(Mem), Stage});

    // Pass 2: compile statement-operand and if-condition programs.
    for (const StmtPtr &S : Pipe.Body)
      compileStmtPrograms(*S.get());

    // Pass 3: stage mirrors for the pipelined executor.
    if (G)
      compileStages(*G);

    // Finalise the frame template.
    PP.Name = Pipe.Name;
    PP.InitFrame.assign(PP.FrameSize, Bits());
    for (unsigned I = 0; I != PP.NumVars; ++I)
      PP.InitFrame[I] = Bits(0, VarWidths[I] ? VarWidths[I] : 1);
    for (const Param &P : Pipe.Params)
      PP.ParamSlots.push_back(PP.SlotIndex.at(P.Name));
  }

private:
  const ast::Program &AST;
  const PipeDecl &Pipe;
  PipeProgram &PP;
  const std::map<std::string, unsigned> *CkptStages; // null: no stage graph
  Mutation Mut;
  std::vector<unsigned> VarWidths;
  // Interning tables behind PP.ResKeys and PP.Access, and the address
  // text of each address expression, printed once.
  std::map<std::tuple<uint16_t, std::string, uint8_t>, uint16_t> KeyIdx;
  std::unordered_map<const Expr *, std::string> AddrTexts;
  std::map<std::tuple<uint16_t, uint16_t, uint16_t, uint16_t>, uint16_t>
      SiteIdx;

  // ---- per-program state ----
  ExprProgram *Cur = nullptr;
  uint16_t NextTemp = 0;
  unsigned HighWater = 0;
  unsigned InlineDepth = 0;
  // Value numbering: (opcode, B, C, Imm) -> slot holding the result.
  using VNKey = std::tuple<uint8_t, uint16_t, uint16_t, uint32_t>;
  std::map<VNKey, uint16_t> VN;
  std::map<std::pair<uint64_t, unsigned>, uint32_t> PoolIds;

  /// Function-inlining scope: `def` bodies resolve names here only,
  /// mirroring the Locals environment in Eval.cpp.
  struct Scope {
    std::map<std::string, Val> Map;
  };

  //===--------------------------------------------------------------------===//
  // Pass 1: slot collection
  //===--------------------------------------------------------------------===//

  uint16_t noteName(const std::string &N) {
    auto It = PP.SlotIndex.find(N);
    if (It != PP.SlotIndex.end())
      return It->second;
    assert(PP.SlotNames.size() < NoSlot && "too many variables in one pipe");
    uint16_t S = static_cast<uint16_t>(PP.SlotNames.size());
    PP.SlotIndex.emplace(N, S);
    PP.SlotNames.push_back(N);
    VarWidths.push_back(0);
    return S;
  }

  void noteWidth(const std::string &N, unsigned W) {
    uint16_t S = noteName(N);
    if (!VarWidths[S])
      VarWidths[S] = W;
  }

  void collectExpr(const Expr &E) {
    switch (E.kind()) {
    case Expr::Kind::IntLit:
    case Expr::Kind::BoolLit:
      return;
    case Expr::Kind::VarRef:
      noteWidth(cast<VarRefExpr>(&E)->name(), E.type().width());
      return;
    case Expr::Kind::Unary:
      collectExpr(*cast<UnaryExpr>(&E)->operand());
      return;
    case Expr::Kind::Binary:
      collectExpr(*cast<BinaryExpr>(&E)->lhs());
      collectExpr(*cast<BinaryExpr>(&E)->rhs());
      return;
    case Expr::Kind::Ternary:
      collectExpr(*cast<TernaryExpr>(&E)->cond());
      collectExpr(*cast<TernaryExpr>(&E)->thenExpr());
      collectExpr(*cast<TernaryExpr>(&E)->elseExpr());
      return;
    case Expr::Kind::Slice:
      collectExpr(*cast<SliceExpr>(&E)->base());
      return;
    case Expr::Kind::Cast:
      collectExpr(*cast<CastExpr>(&E)->operand());
      return;
    case Expr::Kind::MemRead:
      collectExpr(*cast<MemReadExpr>(&E)->addr());
      return;
    case Expr::Kind::FuncCall:
      // Function bodies resolve names in function scope only; just the
      // arguments can reference pipe variables.
      for (const ExprPtr &A : cast<FuncCallExpr>(&E)->args())
        collectExpr(*A);
      return;
    case Expr::Kind::ExternCall:
      for (const ExprPtr &A : cast<ExternCallExpr>(&E)->args())
        collectExpr(*A);
      return;
    }
  }

  void collectStmt(const Stmt &S) {
    switch (S.kind()) {
    case Stmt::Kind::Assign: {
      const auto *A = cast<AssignStmt>(&S);
      noteWidth(A->name(), A->value()->type().width());
      collectExpr(*A->value());
      return;
    }
    case Stmt::Kind::SyncRead: {
      const auto *Rd = cast<SyncReadStmt>(&S);
      if (const MemDecl *M = Pipe.findMem(Rd->mem()))
        noteWidth(Rd->name(), M->ElemType.width());
      else
        noteName(Rd->name());
      collectExpr(*Rd->addr());
      return;
    }
    case Stmt::Kind::PipeCall: {
      const auto *C = cast<PipeCallStmt>(&S);
      for (const ExprPtr &A : C->args())
        collectExpr(*A);
      if (C->hasResult() && !C->isSpec()) {
        if (const PipeDecl *Callee = AST.findPipe(C->pipe()))
          noteWidth(C->resultName(), Callee->RetType.width());
        else
          noteName(C->resultName());
      }
      return;
    }
    case Stmt::Kind::MemWrite:
      collectExpr(*cast<MemWriteStmt>(&S)->addr());
      collectExpr(*cast<MemWriteStmt>(&S)->value());
      return;
    case Stmt::Kind::Output:
      collectExpr(*cast<OutputStmt>(&S)->value());
      return;
    case Stmt::Kind::Lock:
      if (const Expr *A = cast<LockStmt>(&S)->addr())
        collectExpr(*A);
      return;
    case Stmt::Kind::Verify: {
      const auto *V = cast<VerifyStmt>(&S);
      collectExpr(*V->actual());
      if (const ExternCallExpr *U = V->predictorUpdate())
        collectExpr(*U);
      return;
    }
    case Stmt::Kind::Update:
      collectExpr(*cast<UpdateStmt>(&S)->newPred());
      return;
    case Stmt::Kind::If: {
      const auto *I = cast<IfStmt>(&S);
      collectExpr(*I->cond());
      for (const StmtPtr &T : I->thenBody())
        collectStmt(*T.get());
      for (const StmtPtr &T : I->elseBody())
        collectStmt(*T.get());
      return;
    }
    case Stmt::Kind::Return:
      if (const Expr *V = cast<ReturnStmt>(&S)->value())
        collectExpr(*V);
      return;
    case Stmt::Kind::SpecCheck:
    case Stmt::Kind::StageSep:
      return;
    }
  }

  //===--------------------------------------------------------------------===//
  // Lock and speculation interning
  //===--------------------------------------------------------------------===//

  uint16_t memIndex(const std::string &Mem) const {
    for (size_t I = 0, N = Pipe.Mems.size(); I != N; ++I)
      if (Pipe.Mems[I].Name == Mem)
        return static_cast<uint16_t>(I);
    assert(false && "access to an undeclared memory");
    return 0;
  }

  static hw::Access accessFor(LockMode M) {
    switch (M) {
    case LockMode::Read:
      return hw::Access::Read;
    case LockMode::Write:
      return hw::Access::Write;
    case LockMode::None:
      return hw::Access::ReadWrite;
    }
    return hw::Access::ReadWrite;
  }

  /// Reservation keys are (memory, address text, mode) — the address text
  /// is what makes `rf[rs1]` reserved in one stage and blocked in another
  /// the same key.
  std::tuple<uint16_t, std::string, uint8_t> keyOf(uint16_t Mem,
                                                   const Expr *Addr,
                                                   hw::Access M) {
    auto [It, New] = AddrTexts.try_emplace(Addr);
    if (New && Addr)
      It->second = addrKey(*Addr);
    return {Mem, It->second, static_cast<uint8_t>(M)};
  }

  void noteReserves(const Stmt &S) {
    if (const auto *I = dyn_cast<IfStmt>(&S)) {
      for (const StmtPtr &T : I->thenBody())
        noteReserves(*T.get());
      for (const StmtPtr &T : I->elseBody())
        noteReserves(*T.get());
      return;
    }
    const auto *L = dyn_cast<LockStmt>(&S);
    if (!L || (L->op() != LockOp::Reserve && L->op() != LockOp::Acquire))
      return;
    uint16_t Mem = memIndex(L->mem());
    hw::Access M = accessFor(L->mode());
    auto [It, New] = KeyIdx.try_emplace(keyOf(Mem, L->addr(), M),
                                        PP.ResKeys.size());
    if (New)
      PP.ResKeys.push_back({Mem, static_cast<uint8_t>(M)});
  }

  /// Interns the access site of \p Mem[\p Addr] that looks its reservation
  /// up under the modes in \p Order.
  uint16_t accessSite(const std::string &MemName, const Expr *Addr,
                      std::initializer_list<hw::Access> Order) {
    AccessSite A;
    A.Mem = memIndex(MemName);
    unsigned N = 0;
    for (hw::Access M : Order) {
      auto It = KeyIdx.find(keyOf(A.Mem, Addr, M));
      if (It != KeyIdx.end())
        A.Keys[N++] = It->second;
    }
    auto [It, New] = SiteIdx.try_emplace(
        {A.Mem, A.Keys[0], A.Keys[1], A.Keys[2]}, PP.Access.size());
    if (New)
      PP.Access.push_back(A);
    return It->second;
  }

  uint16_t readSite(const std::string &Mem, const Expr *Addr) {
    return accessSite(Mem, Addr, {hw::Access::Read, hw::Access::ReadWrite});
  }

  uint16_t lockSite(const LockStmt &L) {
    if (L.op() == LockOp::Reserve || L.op() == LockOp::Acquire)
      return accessSite(L.mem(), L.addr(), {accessFor(L.mode())});
    if (L.mode() == LockMode::Read)
      return accessSite(L.mem(), L.addr(), {hw::Access::Read});
    if (L.mode() == LockMode::Write)
      return accessSite(L.mem(), L.addr(), {hw::Access::Write});
    return accessSite(L.mem(), L.addr(),
                      {hw::Access::ReadWrite, hw::Access::Read,
                       hw::Access::Write});
  }

  static uint16_t nameIndex(std::vector<std::string> &Names,
                            const std::string &N) {
    auto It = std::find(Names.begin(), Names.end(), N);
    if (It != Names.end())
      return static_cast<uint16_t>(It - Names.begin());
    Names.push_back(N);
    return static_cast<uint16_t>(Names.size() - 1);
  }

  //===--------------------------------------------------------------------===//
  // Program emission helpers
  //===--------------------------------------------------------------------===//

  void beginProgram(ExprProgram *P) {
    Cur = P;
    NextTemp = static_cast<uint16_t>(PP.NumVars);
    HighWater = PP.NumVars;
    VN.clear();
    PoolIds.clear();
  }

  void endProgram() {
    PP.FrameSize = std::max(PP.FrameSize, HighWater);
    Cur = nullptr;
  }

  uint16_t allocTemp() {
    assert(NextTemp < NoSlot && "expression too large for slot space");
    uint16_t S = NextTemp++;
    HighWater = std::max<unsigned>(HighWater, NextTemp);
    return S;
  }

  uint32_t emit(Op Opc, uint16_t A = 0, uint16_t B = 0, uint16_t C = 0,
                uint32_t Imm = 0) {
    Cur->Code.push_back(Insn{Opc, A, B, C, Imm});
    return static_cast<uint32_t>(Cur->Code.size() - 1);
  }

  uint32_t internConst(const Bits &K) {
    auto Key = std::make_pair(K.zext(), K.width());
    auto It = PoolIds.find(Key);
    if (It != PoolIds.end())
      return It->second;
    uint32_t Id = static_cast<uint32_t>(Cur->Pool.size());
    Cur->Pool.push_back(K);
    PoolIds.emplace(Key, Id);
    return Id;
  }

  uint16_t materialize(const Val &V) {
    if (!V.IsConst)
      return V.Slot;
    uint32_t Id = internConst(V.K);
    VNKey Key{static_cast<uint8_t>(Op::Const), 0, 0, Id};
    auto It = VN.find(Key);
    if (It != VN.end())
      return It->second;
    uint16_t D = allocTemp();
    emit(Op::Const, D, 0, 0, Id);
    VN.emplace(Key, D);
    return D;
  }

  /// Emits a pure three-address op with value numbering.
  Val emitVN(Op Opc, uint16_t B, uint16_t C = 0, uint32_t Imm = 0) {
    VNKey Key{static_cast<uint8_t>(Opc), B, C, Imm};
    auto It = VN.find(Key);
    if (It != VN.end())
      return Val::slot(It->second);
    uint16_t D = allocTemp();
    emit(Opc, D, B, C, Imm);
    VN.emplace(Key, D);
    return Val::slot(D);
  }

  void emitMove(uint16_t D, const Val &V) {
    if (V.IsConst)
      emit(Op::Const, D, 0, 0, internConst(V.K));
    else if (V.Slot != D)
      emit(Op::Copy, D, V.Slot);
  }

  //===--------------------------------------------------------------------===//
  // Expression lowering
  //===--------------------------------------------------------------------===//

  Val compileBinary(const BinaryExpr &B, const Scope *Sc) {
    Val L = compileExpr(*B.lhs(), Sc);
    Val R = compileExpr(*B.rhs(), Sc);
    bool Signed = B.lhs()->type().isSigned();
    if (L.IsConst && R.IsConst)
      return Val::constant(foldBinary(B.op(), Signed, L.K, R.K));
    uint16_t LS = materialize(L);
    uint16_t RS = materialize(R);
    switch (B.op()) {
    case BinaryOp::Add:
      return emitVN(Op::Add, LS, RS);
    case BinaryOp::Sub:
      return emitVN(Op::Sub, LS, RS);
    case BinaryOp::Mul:
      return emitVN(Op::Mul, LS, RS);
    case BinaryOp::Div:
      return emitVN(Signed ? Op::SDiv : Op::UDiv, LS, RS);
    case BinaryOp::Rem:
      return emitVN(Signed ? Op::SRem : Op::URem, LS, RS);
    case BinaryOp::BitAnd:
      return emitVN(Op::And, LS, RS);
    case BinaryOp::BitOr:
      return emitVN(Op::Or, LS, RS);
    case BinaryOp::BitXor:
      return emitVN(Op::Xor, LS, RS);
    case BinaryOp::Shl:
      return emitVN(Op::Shl, LS, RS);
    case BinaryOp::Shr:
      return emitVN(Signed ? Op::AShr : Op::LShr, LS, RS);
    case BinaryOp::Eq:
      return emitVN(Op::Eq, LS, RS);
    case BinaryOp::Ne:
      return emitVN(Op::Ne, LS, RS);
    case BinaryOp::Lt:
      return emitVN(Signed ? Op::SLt : Op::ULt, LS, RS);
    case BinaryOp::Le:
      return emitVN(Signed ? Op::SLe : Op::ULe, LS, RS);
    case BinaryOp::Gt: // swapped operands, like the tree walker
      return emitVN(Signed ? Op::SLt : Op::ULt, RS, LS);
    case BinaryOp::Ge:
      return emitVN(Signed ? Op::SLe : Op::ULe, RS, LS);
    case BinaryOp::LogicalAnd:
      return emitVN(Op::LogAnd, LS, RS);
    case BinaryOp::LogicalOr:
      return emitVN(Op::LogOr, LS, RS);
    case BinaryOp::Concat:
      return emitVN(Op::Concat, LS, RS);
    }
    assert(false && "unknown binary operator");
    return Val::constant(Bits());
  }

  Val compileTernary(const TernaryExpr &T, const Scope *Sc) {
    Val C = compileExpr(*T.cond(), Sc);
    // Constant condition: only the taken arm exists at runtime, exactly
    // like the tree walker (the untaken arm's hook sites never fire).
    if (C.IsConst)
      return compileExpr(C.K.toBool() ? *T.thenExpr() : *T.elseExpr(), Sc);
    uint16_t CS = materialize(C);
    uint16_t D = allocTemp();
    auto Snapshot = VN;
    uint16_t TempMark = NextTemp;
    uint32_t BrIx = emit(Op::BrFalse, 0, CS);
    Val TV = compileExpr(*T.thenExpr(), Sc);
    emitMove(D, TV);
    uint32_t JmpIx = emit(Op::Jump);
    Cur->Code[BrIx].Imm = static_cast<uint32_t>(Cur->Code.size());
    // Each arm starts from the post-condition value-numbering state; arm
    // temporaries are dead after the join, so the else arm reuses them.
    uint16_t ThenHigh = NextTemp;
    if (Mut != Mutation::CseTernary) {
      VN = Snapshot;
      NextTemp = TempMark;
    }
    Val EV = compileExpr(*T.elseExpr(), Sc);
    emitMove(D, EV);
    Cur->Code[JmpIx].Imm = static_cast<uint32_t>(Cur->Code.size());
    VN = std::move(Snapshot);
    NextTemp = std::max(NextTemp, ThenHigh);
    HighWater = std::max<unsigned>(HighWater, NextTemp);
    return Val::slot(D);
  }

  Val compileFuncCall(const FuncCallExpr &C, const Scope *Sc) {
    const FuncDecl *F = AST.findFunc(C.callee());
    assert(F && "call of unknown function survived type checking");
    assert(InlineDepth < 16 && "def-function recursion too deep to inline");
    Scope Local;
    for (unsigned I = 0, N = static_cast<unsigned>(C.args().size()); I != N;
         ++I)
      Local.Map[F->Params[I].Name] = compileExpr(*C.args()[I], Sc);
    ++InlineDepth;
    Val R = Val::constant(Bits());
    for (const StmtPtr &S : F->Body) {
      if (const auto *A = dyn_cast<AssignStmt>(S.get())) {
        Local.Map[A->name()] = compileExpr(*A->value(), &Local);
        continue;
      }
      R = compileExpr(*cast<ReturnStmt>(S.get())->value(), &Local);
      break;
    }
    --InlineDepth;
    return R;
  }

  Val compileExpr(const Expr &E, const Scope *Sc) {
    switch (E.kind()) {
    case Expr::Kind::IntLit:
      return Val::constant(
          Bits(cast<IntLitExpr>(&E)->value(), E.type().width()));
    case Expr::Kind::BoolLit:
      return Val::constant(Bits(cast<BoolLitExpr>(&E)->value() ? 1 : 0, 1));
    case Expr::Kind::VarRef: {
      const auto *V = cast<VarRefExpr>(&E);
      if (Sc) {
        // Inside an inlined def body: function scope only; unbound names
        // read as zero at the reference site's width (Eval.cpp Locals).
        auto It = Sc->Map.find(V->name());
        if (It != Sc->Map.end())
          return It->second;
        return Val::constant(Bits(0, E.type().width()));
      }
      auto It = PP.SlotIndex.find(V->name());
      assert(It != PP.SlotIndex.end() && "variable missed by slot collection");
      return Val::slot(It->second);
    }
    case Expr::Kind::Unary: {
      const auto *U = cast<UnaryExpr>(&E);
      Val V = compileExpr(*U->operand(), Sc);
      switch (U->op()) {
      case UnaryOp::LogicalNot:
        if (V.IsConst)
          return Val::constant(Bits(V.K.isZero() ? 1 : 0, 1));
        return emitVN(Op::LogNot, materialize(V));
      case UnaryOp::BitNot:
        if (V.IsConst)
          return Val::constant(V.K.not_());
        return emitVN(Op::BitNot, materialize(V));
      case UnaryOp::Negate:
        if (V.IsConst)
          return Val::constant(Bits(0, V.K.width()).sub(V.K));
        return emitVN(Op::Neg, materialize(V));
      }
      break;
    }
    case Expr::Kind::Binary:
      return compileBinary(*cast<BinaryExpr>(&E), Sc);
    case Expr::Kind::Ternary:
      return compileTernary(*cast<TernaryExpr>(&E), Sc);
    case Expr::Kind::Slice: {
      const auto *S = cast<SliceExpr>(&E);
      Val V = compileExpr(*S->base(), Sc);
      if (V.IsConst)
        return Val::constant(V.K.slice(S->hi(), S->lo()));
      return emitVN(Op::Slice, materialize(V), 0,
                    (static_cast<uint32_t>(S->hi()) << 16) | S->lo());
    }
    case Expr::Kind::Cast: {
      const auto *C = cast<CastExpr>(&E);
      Val V = compileExpr(*C->operand(), Sc);
      bool SrcSigned = C->operand()->type().isSigned();
      unsigned W = C->target().width();
      if (V.IsConst)
        return Val::constant(SrcSigned ? V.K.sextTo(W) : V.K.zextTo(W));
      return emitVN(SrcSigned ? Op::SExt : Op::ZExt, materialize(V),
                    static_cast<uint16_t>(W));
    }
    case Expr::Kind::MemRead: {
      const auto *M = cast<MemReadExpr>(&E);
      uint16_t AS = materialize(compileExpr(*M->addr(), Sc));
      uint32_t Site = static_cast<uint32_t>(Cur->MemSites.size());
      Cur->MemSites.push_back(M);
      auto [Known, New] = PP.ReadAccess.try_emplace(M);
      if (New)
        Known->second = readSite(M->mem(), M->addr());
      Cur->MemAccess.push_back(Known->second);
      uint16_t D = allocTemp(); // never value-numbered: hooks are stateful
      emit(Op::MemRead, D, AS, 0, Site);
      return Val::slot(D);
    }
    case Expr::Kind::FuncCall:
      return compileFuncCall(*cast<FuncCallExpr>(&E), Sc);
    case Expr::Kind::ExternCall: {
      const auto *C = cast<ExternCallExpr>(&E);
      std::vector<Val> Args;
      for (const ExprPtr &A : C->args())
        Args.push_back(compileExpr(*A, Sc));
      // Gather into a fresh contiguous block for the hook call.
      uint16_t Base = NextTemp;
      for (const Val &V : Args)
        emitMove(allocTemp(), V);
      uint32_t Site = static_cast<uint32_t>(Cur->ExternSites.size());
      Cur->ExternSites.push_back(C);
      Cur->ExternMods.push_back(nameIndex(PP.Externs, C->module()));
      uint16_t D = allocTemp();
      emit(Op::Extern, D, Base, static_cast<uint16_t>(Args.size()), Site);
      return Val::slot(D);
    }
    }
    assert(false && "unknown expression kind");
    return Val::constant(Bits());
  }

  //===--------------------------------------------------------------------===//
  // Pass 2/3 drivers
  //===--------------------------------------------------------------------===//

  const ExprProgram *compileExprProgram(const Expr &E) {
    auto It = PP.ExprIndex.find(&E);
    if (It != PP.ExprIndex.end())
      return It->second;
    ExprProgram &P = PP.Programs.emplace_back();
    beginProgram(&P);
    Val V = compileExpr(E, nullptr);
    emit(Op::Ret, 0, materialize(V));
    endProgram();
    PP.ExprIndex.emplace(&E, &P);
    return &P;
  }

  /// Fuses a guard conjunction into one short-circuiting program: each term
  /// evaluates in order and bails to RetFalse the moment it disagrees with
  /// its polarity — identical term-by-term evaluation (and hook) order to
  /// evalGuard, without re-entering the evaluator per term.
  const ExprProgram *compileGuardProgram(const Guard &G) {
    if (G.empty())
      return nullptr;
    ExprProgram &P = PP.Programs.emplace_back();
    beginProgram(&P);
    std::vector<uint32_t> FailFixups;
    bool ConstFalse = false;
    for (const GuardTerm &T : G) {
      Val V = compileExpr(*T.Cond, nullptr);
      if (V.IsConst) {
        if (V.K.toBool() != T.Polarity) {
          // Terms after a constantly-false one never evaluate — the tree
          // walker stops there too.
          emit(Op::RetFalse);
          ConstFalse = true;
          break;
        }
        continue; // constantly-true term: nothing to check at runtime
      }
      uint16_t S = materialize(V);
      FailFixups.push_back(emit(T.Polarity ? Op::BrFalse : Op::BrTrue, 0, S));
    }
    if (Mut == Mutation::GuardDrop && !FailFixups.empty()) {
      uint32_t Ix = FailFixups.back();
      FailFixups.pop_back();
      P.Code[Ix] = Insn{Op::Jump, 0, 0, 0, Ix + 1};
    }
    if (!ConstFalse)
      emit(Op::RetTrue);
    if (!FailFixups.empty()) {
      uint32_t FailAt = static_cast<uint32_t>(P.Code.size());
      emit(Op::RetFalse);
      for (uint32_t Ix : FailFixups)
        P.Code[Ix].Imm = FailAt;
    }
    endProgram();
    if (P.Code.size() == 1 && P.Code[0].Opc == Op::RetTrue) {
      // Every term folded away: an always-true guard is a null program.
      PP.Programs.pop_back();
      return nullptr;
    }
    return &P;
  }

  void compileStmtPrograms(const Stmt &S) {
    switch (S.kind()) {
    case Stmt::Kind::Assign:
      compileExprProgram(*cast<AssignStmt>(&S)->value());
      return;
    case Stmt::Kind::SyncRead:
      compileExprProgram(*cast<SyncReadStmt>(&S)->addr());
      return;
    case Stmt::Kind::PipeCall:
      for (const ExprPtr &A : cast<PipeCallStmt>(&S)->args())
        compileExprProgram(*A);
      return;
    case Stmt::Kind::MemWrite:
      compileExprProgram(*cast<MemWriteStmt>(&S)->addr());
      compileExprProgram(*cast<MemWriteStmt>(&S)->value());
      return;
    case Stmt::Kind::Output:
      compileExprProgram(*cast<OutputStmt>(&S)->value());
      return;
    case Stmt::Kind::Lock:
      if (const Expr *A = cast<LockStmt>(&S)->addr())
        compileExprProgram(*A);
      return;
    case Stmt::Kind::Verify: {
      const auto *V = cast<VerifyStmt>(&S);
      compileExprProgram(*V->actual());
      // The update method returns void, so the call cannot go through the
      // value-producing Extern opcode: compile each argument and let the
      // executor invoke the module directly.
      if (const ExternCallExpr *U = V->predictorUpdate())
        for (const ExprPtr &A : U->args())
          compileExprProgram(*A);
      return;
    }
    case Stmt::Kind::Update:
      compileExprProgram(*cast<UpdateStmt>(&S)->newPred());
      return;
    case Stmt::Kind::If: {
      const auto *I = cast<IfStmt>(&S);
      compileExprProgram(*I->cond());
      for (const StmtPtr &T : I->thenBody())
        compileStmtPrograms(*T.get());
      for (const StmtPtr &T : I->elseBody())
        compileStmtPrograms(*T.get());
      return;
    }
    case Stmt::Kind::Return:
      if (const Expr *V = cast<ReturnStmt>(&S)->value())
        compileExprProgram(*V);
      return;
    case Stmt::Kind::SpecCheck:
    case Stmt::Kind::StageSep:
      return;
    }
  }

  void compileStages(const StageGraph &G) {
    PP.Stages.resize(G.Stages.size());
    for (const Stage &S : G.Stages) {
      StageProg &SP = PP.Stages[S.Id];
      for (const StagedOp &O : S.Ops) {
        OpProg OP;
        OP.Guard = compileGuardProgram(O.G);
        switch (O.S->kind()) {
        case Stmt::Kind::Assign: {
          const auto *A = cast<AssignStmt>(O.S);
          OP.E0 = compileExprProgram(*A->value());
          OP.Dest = PP.SlotIndex.at(A->name());
          break;
        }
        case Stmt::Kind::SyncRead: {
          const auto *Rd = cast<SyncReadStmt>(O.S);
          OP.E0 = compileExprProgram(*Rd->addr());
          OP.Dest = PP.SlotIndex.at(Rd->name());
          OP.Site = readSite(Rd->mem(), Rd->addr());
          break;
        }
        case Stmt::Kind::PipeCall: {
          const auto *C = cast<PipeCallStmt>(O.S);
          for (const ExprPtr &A : C->args())
            OP.Args.push_back(compileExprProgram(*A));
          if (C->hasResult() && !C->isSpec())
            OP.Dest = PP.SlotIndex.at(C->resultName());
          if (C->isSpec())
            OP.Handle = nameIndex(PP.Handles, C->resultName());
          OP.Callee = nameIndex(PP.Callees, C->pipe());
          break;
        }
        case Stmt::Kind::MemWrite: {
          const auto *W = cast<MemWriteStmt>(O.S);
          OP.E0 = compileExprProgram(*W->addr());
          OP.E1 = compileExprProgram(*W->value());
          OP.Site = accessSite(W->mem(), W->addr(),
                               {hw::Access::Write, hw::Access::ReadWrite});
          break;
        }
        case Stmt::Kind::Output:
          OP.E0 = compileExprProgram(*cast<OutputStmt>(O.S)->value());
          break;
        case Stmt::Kind::Lock: {
          const auto *L = cast<LockStmt>(O.S);
          if (const Expr *A = L->addr())
            OP.E0 = compileExprProgram(*A);
          OP.Site = lockSite(*L);
          break;
        }
        case Stmt::Kind::Verify: {
          const auto *V = cast<VerifyStmt>(O.S);
          OP.E0 = compileExprProgram(*V->actual());
          OP.Handle = nameIndex(PP.Handles, V->handle());
          // Predictor-update arguments; the update method is void, so the
          // executor invokes it directly instead of via the Extern opcode.
          if (const ExternCallExpr *U = V->predictorUpdate()) {
            for (const ExprPtr &A : U->args())
              OP.Args.push_back(compileExprProgram(*A));
            OP.Extern = nameIndex(PP.Externs, U->module());
          }
          break;
        }
        case Stmt::Kind::Update: {
          const auto *U = cast<UpdateStmt>(O.S);
          OP.E0 = compileExprProgram(*U->newPred());
          OP.Handle = nameIndex(PP.Handles, U->handle());
          break;
        }
        default:
          break;
        }
        SP.Ops.push_back(std::move(OP));
      }
      for (const StageEdge &E : S.Succs)
        SP.EdgeGuards.push_back(compileGuardProgram(E.G));
      for (const TagRule &R : S.TagRules)
        SP.TagGuards.push_back(compileGuardProgram(R.G));
    }
  }
};

void compilePipe(const ast::Program &AST, const PipeDecl &Pipe,
                 const StageGraph *G,
                 const std::map<std::string, unsigned> *CkptStages,
                 PipeProgram &PP) {
  PipeCompiler(AST, Pipe, PP, CkptStages).run(G);
}

} // namespace

std::shared_ptr<const ModuleIR> bc::compileModule(const CompiledProgram &CP) {
  auto M = std::make_shared<ModuleIR>();
  for (const auto &Entry : CP.Pipes)
    compilePipe(*CP.AST, *Entry.second.Decl, &Entry.second.Graph,
                &Entry.second.Spec.CheckpointStage, M->Pipes[Entry.first]);
  return M;
}

std::shared_ptr<const ModuleIR> bc::compileModule(const ast::Program &AST) {
  auto M = std::make_shared<ModuleIR>();
  for (const PipeDecl &P : AST.Pipes)
    compilePipe(AST, P, nullptr, nullptr, M->Pipes[P.Name]);
  return M;
}
