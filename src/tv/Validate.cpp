//===- Validate.cpp - Symbolic co-execution translation validator ---------===//
//
// Part of the PDL reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The validator proper: symbolic evaluation of the expression tree
// (mirroring backend/Eval.cpp term for term) and of the compiled bytecode
// (mirroring the bc::exec interpreter loop), path-split over a shared
// decision map, with obligations discharged syntactically or via the
// DPLL(T) solver. See Tv.h for the contract.
//
//===----------------------------------------------------------------------===//

#include "tv/Tv.h"

#include "smt/Solver.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <map>
#include <memory>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

using namespace pdl;
using namespace pdl::tv;
namespace bc = pdl::backend::bc;
using bc::Op;

const char *tv::statusName(Status S) {
  switch (S) {
  case Status::Certified:
    return "certified";
  case Status::FuzzTrusted:
    return "fuzz-trusted";
  case Status::Rejected:
    return "rejected";
  }
  return "?";
}

namespace {

//===----------------------------------------------------------------------===//
// Digest helpers (FNV-1a, the same flavor sim::fnv1aHash uses)
//===----------------------------------------------------------------------===//

constexpr uint64_t FnvBasis = 0xcbf29ce484222325ull;
constexpr uint64_t FnvPrime = 0x100000001b3ull;

uint64_t fnvBytes(uint64_t H, const void *P, size_t N) {
  const unsigned char *B = static_cast<const unsigned char *>(P);
  for (size_t I = 0; I != N; ++I) {
    H ^= B[I];
    H *= FnvPrime;
  }
  return H;
}

uint64_t fnvU64(uint64_t H, uint64_t V) { return fnvBytes(H, &V, 8); }

uint64_t fnvStr(uint64_t H, const std::string &S) {
  return fnvBytes(H, S.data(), S.size());
}

//===----------------------------------------------------------------------===//
// Symbolic terms
//===----------------------------------------------------------------------===//

/// A node of the shared symbolic store. Hash-consed per validated unit, so
/// a faithful compile makes the tree side and the bytecode side produce
/// pointer-identical terms.
struct Term {
  enum class K : uint8_t { Const, Var, App, Hook };
  K Kind;
  Op Opc = Op::Const;    // App: the bytecode opcode vocabulary
  unsigned Width = 1;    // result width in bits
  Bits KVal;             // Const
  uint16_t Slot = 0;     // Var: frame slot index
  uint32_t Imm = 0;      // App: slice bounds / extension width
  bool IsExtern = false; // Hook
  unsigned SiteOrd = 0;  // Hook: per-unit site ordinal, first-use order
  unsigned Seq = 0;      // Hook: position in the hook-call trace
  std::vector<const Term *> Args;
};

class Arena {
public:
  const Term *constant(const Bits &B) {
    Term T;
    T.Kind = Term::K::Const;
    T.Width = B.width();
    T.KVal = B;
    return intern(std::move(T));
  }

  const Term *var(uint16_t Slot, unsigned Width) {
    Term T;
    T.Kind = Term::K::Var;
    T.Width = Width;
    T.Slot = Slot;
    return intern(std::move(T));
  }

  const Term *hook(bool IsExtern, const void *Site, unsigned Seq,
                   unsigned Width, std::vector<const Term *> Args) {
    Term T;
    T.Kind = Term::K::Hook;
    T.Width = Width;
    T.IsExtern = IsExtern;
    T.SiteOrd = siteOrd(Site);
    T.Seq = Seq;
    T.Args = std::move(Args);
    return intern(std::move(T));
  }

  /// Applies \p Opc, computing the result width and checking the width
  /// preconditions the Bits domain asserts. Folds to a constant when every
  /// operand is one — exactly the folding the compiler and both evaluators
  /// perform, no more. Returns nullptr on a width violation (a miscompile
  /// signal for the bytecode side).
  const Term *applyOp(Op Opc, const Term *B, const Term *C, uint32_t Imm) {
    unsigned W;
    switch (Opc) {
    case Op::Add:
    case Op::Sub:
    case Op::Mul:
    case Op::UDiv:
    case Op::SDiv:
    case Op::URem:
    case Op::SRem:
    case Op::And:
    case Op::Or:
    case Op::Xor:
      if (!C || B->Width != C->Width)
        return nullptr;
      W = B->Width;
      break;
    case Op::Shl:
    case Op::LShr:
    case Op::AShr:
      if (!C)
        return nullptr;
      W = B->Width;
      break;
    case Op::Eq:
    case Op::Ne:
    case Op::ULt:
    case Op::ULe:
    case Op::SLt:
    case Op::SLe:
      if (!C || B->Width != C->Width)
        return nullptr;
      W = 1;
      break;
    case Op::LogAnd:
    case Op::LogOr:
      if (!C)
        return nullptr;
      W = 1;
      break;
    case Op::LogNot:
      W = 1;
      break;
    case Op::BitNot:
    case Op::Neg:
      W = B->Width;
      break;
    case Op::Slice: {
      unsigned Hi = Imm >> 16, Lo = Imm & 0xffff;
      if (Hi < Lo || Hi >= B->Width)
        return nullptr;
      W = Hi - Lo + 1;
      break;
    }
    case Op::ZExt:
    case Op::SExt:
      if (Imm < 1 || Imm > 64)
        return nullptr;
      W = Imm;
      break;
    case Op::Concat:
      if (!C || B->Width + C->Width > 64)
        return nullptr;
      W = B->Width + C->Width;
      break;
    default:
      return nullptr;
    }

    if (B->Kind == Term::K::Const && (!C || C->Kind == Term::K::Const))
      return constant(fold(Opc, B->KVal, C ? &C->KVal : nullptr, Imm));

    Term T;
    T.Kind = Term::K::App;
    T.Opc = Opc;
    T.Width = W;
    T.Imm = Imm;
    T.Args.push_back(B);
    if (C)
      T.Args.push_back(C);
    return intern(std::move(T));
  }

  unsigned siteOrd(const void *Site) {
    auto It = SiteOrds.find(Site);
    if (It != SiteOrds.end())
      return It->second;
    unsigned Ord = static_cast<unsigned>(SiteOrds.size());
    SiteOrds.emplace(Site, Ord);
    return Ord;
  }

  /// Structural hash, stable across processes (pointer-free).
  uint64_t termHash(const Term *T) {
    auto It = Hashes.find(T);
    if (It != Hashes.end())
      return It->second;
    uint64_t H = FnvBasis;
    H = fnvU64(H, static_cast<uint64_t>(T->Kind));
    H = fnvU64(H, T->Width);
    switch (T->Kind) {
    case Term::K::Const:
      H = fnvU64(H, T->KVal.zext());
      break;
    case Term::K::Var:
      H = fnvU64(H, T->Slot);
      break;
    case Term::K::App:
      H = fnvU64(H, static_cast<uint64_t>(T->Opc));
      H = fnvU64(H, T->Imm);
      break;
    case Term::K::Hook:
      H = fnvU64(H, T->IsExtern ? 1 : 0);
      H = fnvU64(H, T->SiteOrd);
      H = fnvU64(H, T->Seq);
      break;
    }
    for (const Term *A : T->Args)
      H = fnvU64(H, termHash(A));
    Hashes.emplace(T, H);
    return H;
  }

private:
  static Bits fold(Op Opc, const Bits &L, const Bits *RP, uint32_t Imm) {
    // Mirrors the bc::exec cases (which mirror evalExpr/evalBinary).
    const Bits &R = RP ? *RP : L;
    switch (Opc) {
    case Op::Add:
      return L.add(R);
    case Op::Sub:
      return L.sub(R);
    case Op::Mul:
      return L.mul(R);
    case Op::UDiv:
      return L.udiv(R);
    case Op::SDiv:
      return L.sdiv(R);
    case Op::URem:
      return L.urem(R);
    case Op::SRem:
      return L.srem(R);
    case Op::And:
      return L.and_(R);
    case Op::Or:
      return L.or_(R);
    case Op::Xor:
      return L.xor_(R);
    case Op::Shl:
      return L.shl(R);
    case Op::LShr:
      return L.lshr(R);
    case Op::AShr:
      return L.ashr(R);
    case Op::Eq:
      return L.eq(R);
    case Op::Ne:
      return L.ne(R);
    case Op::ULt:
      return L.ult(R);
    case Op::ULe:
      return L.ule(R);
    case Op::SLt:
      return L.slt(R);
    case Op::SLe:
      return L.sle(R);
    case Op::LogAnd:
      return Bits(L.toBool() && R.toBool() ? 1 : 0, 1);
    case Op::LogOr:
      return Bits(L.toBool() || R.toBool() ? 1 : 0, 1);
    case Op::LogNot:
      return Bits(L.isZero() ? 1 : 0, 1);
    case Op::BitNot:
      return L.not_();
    case Op::Neg:
      return Bits(0, L.width()).sub(L);
    case Op::Slice:
      return L.slice(Imm >> 16, Imm & 0xffff);
    case Op::ZExt:
      return L.zextTo(Imm);
    case Op::SExt:
      return L.sextTo(Imm);
    case Op::Concat:
      return L.concat(R);
    default:
      assert(false && "fold of non-pure opcode");
      return Bits();
    }
  }

  /// Hash-consing: two terms are the same node when every field agrees —
  /// kind, opcode, width, constant value, slot, imm, hook kind, site and
  /// sequence — and their operands are the same (already interned) nodes.
  /// Fields a kind does not use keep their defaults, so comparing all of
  /// them is comparing the ones that kind uses.
  struct FieldHash {
    size_t operator()(const Term *T) const {
      uint64_t H = mix(0, static_cast<uint64_t>(T->Kind) |
                              static_cast<uint64_t>(T->Opc) << 8 |
                              uint64_t(T->IsExtern) << 16 |
                              uint64_t(T->Slot) << 24 |
                              uint64_t(T->Width) << 40);
      H = mix(H, T->KVal.zext());
      H = mix(H, uint64_t(T->Imm) << 32 | T->SiteOrd);
      H = mix(H, T->Seq);
      for (const Term *A : T->Args)
        H = mix(H, reinterpret_cast<uintptr_t>(A));
      return static_cast<size_t>(H);
    }
    static uint64_t mix(uint64_t H, uint64_t V) {
      H = (H ^ V) * 0x9e3779b97f4a7c15ull;
      return H ^ (H >> 29);
    }
  };
  struct FieldEq {
    bool operator()(const Term *A, const Term *B) const {
      return A->Kind == B->Kind && A->Opc == B->Opc && A->Width == B->Width &&
             A->KVal.zext() == B->KVal.zext() &&
             A->KVal.width() == B->KVal.width() && A->Slot == B->Slot &&
             A->Imm == B->Imm && A->IsExtern == B->IsExtern &&
             A->SiteOrd == B->SiteOrd && A->Seq == B->Seq &&
             A->Args == B->Args;
    }
  };

  const Term *intern(Term &&T) {
    Store.push_back(std::move(T));
    auto [It, New] = Index.insert(&Store.back());
    if (!New)
      Store.pop_back();
    return *It;
  }

  std::deque<Term> Store;
  std::unordered_set<const Term *, FieldHash, FieldEq> Index;
  std::unordered_map<const void *, unsigned> SiteOrds;
  std::unordered_map<const Term *, uint64_t> Hashes;
};

/// Depth- and length-capped rendering for certificate notes.
std::string printTerm(const Term *T, const bc::PipeProgram &PP,
                      unsigned Depth = 0) {
  if (Depth > 4)
    return "...";
  std::ostringstream OS;
  switch (T->Kind) {
  case Term::K::Const:
    OS << T->KVal.str();
    break;
  case Term::K::Var:
    if (T->Slot < PP.SlotNames.size())
      OS << PP.SlotNames[T->Slot];
    else
      OS << "s" << T->Slot;
    break;
  case Term::K::App:
    OS << "op" << static_cast<int>(T->Opc) << "(";
    for (unsigned I = 0, E = static_cast<unsigned>(T->Args.size()); I != E;
         ++I)
      OS << (I ? ", " : "") << printTerm(T->Args[I], PP, Depth + 1);
    OS << ")";
    break;
  case Term::K::Hook:
    OS << (T->IsExtern ? "extern" : "mem") << T->SiteOrd << "#" << T->Seq
       << "(";
    for (unsigned I = 0, E = static_cast<unsigned>(T->Args.size()); I != E;
         ++I)
      OS << (I ? ", " : "") << printTerm(T->Args[I], PP, Depth + 1);
    OS << ")";
    break;
  }
  std::string S = OS.str();
  if (S.size() > 160)
    S = S.substr(0, 157) + "...";
  return S;
}

//===----------------------------------------------------------------------===//
// Symbolic evaluation
//===----------------------------------------------------------------------===//

using DecisionMap = std::map<const Term *, bool>;

/// One symbolic run of either representation under a decision map.
struct Run {
  enum class St { Ok, Fork, Err };
  St S = St::Ok;
  const Term *Result = nullptr;
  std::vector<const Term *> Trace; // Hook terms in call order
  const Term *ForkOn = nullptr;
  std::string Err;
};

/// Shared branch resolution: constants decide themselves, decided terms
/// look up the path's decision, anything else forks the path.
bool decideTerm(const Term *T, const DecisionMap &D, Run &R, bool &Out) {
  if (T->Kind == Term::K::Const) {
    Out = T->KVal.toBool();
    return true;
  }
  auto It = D.find(T);
  if (It != D.end()) {
    Out = It->second;
    return true;
  }
  R.S = Run::St::Fork;
  R.ForkOn = T;
  return false;
}

/// Symbolic mirror of backend/Eval.cpp: same unbound-read-as-zero rule,
/// same eager logical connectives, same lazy ternary, same hook sequencing,
/// and constant folding exactly when every operand is constant (matching
/// the compiler, so both sides intern identical terms).
class TreeEval {
public:
  TreeEval(Arena &A, const ast::Program &Prog, const bc::PipeProgram &PP,
           const DecisionMap &D, Run &R)
      : A(A), Prog(Prog), PP(PP), D(D), R(R) {}

  using Scope = std::map<std::string, const Term *>;

  const Term *eval(const ast::Expr &E, const Scope *Sc) {
    using ast::Expr;
    switch (E.kind()) {
    case Expr::Kind::IntLit:
      return A.constant(
          Bits(cast<ast::IntLitExpr>(&E)->value(), E.type().width()));
    case Expr::Kind::BoolLit:
      return A.constant(
          Bits(cast<ast::BoolLitExpr>(&E)->value() ? 1 : 0, 1));
    case Expr::Kind::VarRef: {
      const auto *V = cast<ast::VarRefExpr>(&E);
      if (Sc) {
        auto It = Sc->find(V->name());
        if (It != Sc->end())
          return It->second;
        return A.constant(Bits(0, E.type().width()));
      }
      uint16_t S = PP.slotOf(V->name());
      if (S == bc::NoSlot)
        return err("variable '" + V->name() + "' missing from slot table");
      return A.var(S, PP.InitFrame[S].width());
    }
    case Expr::Kind::Unary: {
      const auto *U = cast<ast::UnaryExpr>(&E);
      const Term *V = eval(*U->operand(), Sc);
      if (!V)
        return nullptr;
      switch (U->op()) {
      case ast::UnaryOp::LogicalNot:
        return apply(Op::LogNot, V, nullptr, 0);
      case ast::UnaryOp::BitNot:
        return apply(Op::BitNot, V, nullptr, 0);
      case ast::UnaryOp::Negate:
        return apply(Op::Neg, V, nullptr, 0);
      }
      break;
    }
    case Expr::Kind::Binary: {
      const auto *B = cast<ast::BinaryExpr>(&E);
      const Term *L = eval(*B->lhs(), Sc);
      if (!L)
        return nullptr;
      const Term *R2 = eval(*B->rhs(), Sc);
      if (!R2)
        return nullptr;
      bool Signed = B->lhs()->type().isSigned();
      switch (B->op()) {
      case ast::BinaryOp::Add:
        return apply(Op::Add, L, R2, 0);
      case ast::BinaryOp::Sub:
        return apply(Op::Sub, L, R2, 0);
      case ast::BinaryOp::Mul:
        return apply(Op::Mul, L, R2, 0);
      case ast::BinaryOp::Div:
        return apply(Signed ? Op::SDiv : Op::UDiv, L, R2, 0);
      case ast::BinaryOp::Rem:
        return apply(Signed ? Op::SRem : Op::URem, L, R2, 0);
      case ast::BinaryOp::BitAnd:
        return apply(Op::And, L, R2, 0);
      case ast::BinaryOp::BitOr:
        return apply(Op::Or, L, R2, 0);
      case ast::BinaryOp::BitXor:
        return apply(Op::Xor, L, R2, 0);
      case ast::BinaryOp::Shl:
        return apply(Op::Shl, L, R2, 0);
      case ast::BinaryOp::Shr:
        return apply(Signed ? Op::AShr : Op::LShr, L, R2, 0);
      case ast::BinaryOp::Eq:
        return apply(Op::Eq, L, R2, 0);
      case ast::BinaryOp::Ne:
        return apply(Op::Ne, L, R2, 0);
      case ast::BinaryOp::Lt:
        return apply(Signed ? Op::SLt : Op::ULt, L, R2, 0);
      case ast::BinaryOp::Le:
        return apply(Signed ? Op::SLe : Op::ULe, L, R2, 0);
      case ast::BinaryOp::Gt: // swapped operands, like the tree walker
        return apply(Signed ? Op::SLt : Op::ULt, R2, L, 0);
      case ast::BinaryOp::Ge:
        return apply(Signed ? Op::SLe : Op::ULe, R2, L, 0);
      case ast::BinaryOp::LogicalAnd:
        return apply(Op::LogAnd, L, R2, 0);
      case ast::BinaryOp::LogicalOr:
        return apply(Op::LogOr, L, R2, 0);
      case ast::BinaryOp::Concat:
        return apply(Op::Concat, L, R2, 0);
      }
      break;
    }
    case Expr::Kind::Ternary: {
      const auto *T = cast<ast::TernaryExpr>(&E);
      const Term *C = eval(*T->cond(), Sc);
      if (!C)
        return nullptr;
      bool B;
      if (!decideTerm(C, D, R, B))
        return nullptr;
      return eval(B ? *T->thenExpr() : *T->elseExpr(), Sc);
    }
    case Expr::Kind::Slice: {
      const auto *S = cast<ast::SliceExpr>(&E);
      const Term *V = eval(*S->base(), Sc);
      if (!V)
        return nullptr;
      return apply(Op::Slice, V, nullptr,
                   (static_cast<uint32_t>(S->hi()) << 16) | S->lo());
    }
    case Expr::Kind::Cast: {
      const auto *C = cast<ast::CastExpr>(&E);
      const Term *V = eval(*C->operand(), Sc);
      if (!V)
        return nullptr;
      bool SrcSigned = C->operand()->type().isSigned();
      return apply(SrcSigned ? Op::SExt : Op::ZExt, V, nullptr,
                   C->target().width());
    }
    case Expr::Kind::MemRead: {
      const auto *M = cast<ast::MemReadExpr>(&E);
      const Term *Addr = eval(*M->addr(), Sc);
      if (!Addr)
        return nullptr;
      const Term *H =
          A.hook(false, M, static_cast<unsigned>(R.Trace.size()),
                 E.type().width(), {Addr});
      R.Trace.push_back(H);
      return H;
    }
    case Expr::Kind::FuncCall: {
      const auto *C = cast<ast::FuncCallExpr>(&E);
      const ast::FuncDecl *F = Prog.findFunc(C->callee());
      if (!F)
        return err("call of unknown function '" + C->callee() + "'");
      if (Depth >= 64)
        return err("def-function inlining too deep");
      Scope Local;
      for (unsigned I = 0, N = static_cast<unsigned>(C->args().size());
           I != N; ++I) {
        const Term *V = eval(*C->args()[I], Sc);
        if (!V)
          return nullptr;
        Local[F->Params[I].Name] = V;
      }
      ++Depth;
      const Term *Ret = A.constant(Bits());
      for (const ast::StmtPtr &S : F->Body) {
        if (const auto *AS = dyn_cast<ast::AssignStmt>(S.get())) {
          const Term *V = eval(*AS->value(), &Local);
          if (!V) {
            --Depth;
            return nullptr;
          }
          Local[AS->name()] = V;
          continue;
        }
        Ret = eval(*cast<ast::ReturnStmt>(S.get())->value(), &Local);
        break;
      }
      --Depth;
      return Ret;
    }
    case Expr::Kind::ExternCall: {
      const auto *C = cast<ast::ExternCallExpr>(&E);
      std::vector<const Term *> Args;
      for (const ast::ExprPtr &Arg : C->args()) {
        const Term *V = eval(*Arg, Sc);
        if (!V)
          return nullptr;
        Args.push_back(V);
      }
      const Term *H =
          A.hook(true, C, static_cast<unsigned>(R.Trace.size()),
                 E.type().width(), std::move(Args));
      R.Trace.push_back(H);
      return H;
    }
    }
    return err("unknown expression kind");
  }

  /// Mirror of evalGuard: terms evaluate (and fire hooks) in order, and
  /// evaluation stops at the first term that disagrees with its polarity.
  const Term *evalGuard(const Guard &G) {
    for (const GuardTerm &T : G) {
      const Term *V = eval(*T.Cond, nullptr);
      if (!V)
        return nullptr;
      bool B;
      if (!decideTerm(V, D, R, B))
        return nullptr;
      if (B != T.Polarity)
        return A.constant(Bits(0, 1));
    }
    return A.constant(Bits(1, 1));
  }

private:
  const Term *apply(Op Opc, const Term *B, const Term *C, uint32_t Imm) {
    const Term *T = A.applyOp(Opc, B, C, Imm);
    if (!T)
      return err("width violation in tree evaluation");
    return T;
  }

  const Term *err(std::string Msg) {
    R.S = Run::St::Err;
    R.Err = std::move(Msg);
    return nullptr;
  }

  Arena &A;
  const ast::Program &Prog;
  const bc::PipeProgram &PP;
  const DecisionMap &D;
  Run &R;
  unsigned Depth = 0;
};

/// Symbolic mirror of the bc::exec interpreter loop. Scratch slots start
/// uninitialized (nullptr): a read before a write is a hard refutation —
/// exactly the defect the dropped-CSE-invalidation mutation introduces.
class BcEval {
public:
  BcEval(Arena &A, const bc::PipeProgram &PP, const DecisionMap &D, Run &R)
      : A(A), PP(PP), D(D), R(R) {}

  void run(const bc::ExprProgram &P) {
    std::vector<const Term *> F(PP.FrameSize, nullptr);
    for (unsigned V = 0; V != PP.NumVars && V < F.size(); ++V)
      F[V] = A.var(static_cast<uint16_t>(V), PP.InitFrame[V].width());

    const size_t N = P.Code.size();
    if (N == 0)
      return err("empty bytecode program");
    size_t Steps = 0, Budget = 4 * N + 16;
    size_t PC = 0;
    for (;;) {
      if (PC >= N)
        return err("bytecode ran off the end");
      if (++Steps > Budget)
        return err("runaway bytecode (branch cycle)");
      const bc::Insn &I = P.Code[PC];
      switch (I.Opc) {
      case Op::Const:
        if (I.Imm >= P.Pool.size())
          return err("constant pool index out of range");
        if (!store(F, I.A, A.constant(P.Pool[I.Imm])))
          return;
        break;
      case Op::Copy: {
        const Term *V = load(F, I.B);
        if (!V || !store(F, I.A, V))
          return;
        break;
      }
      case Op::ZExt:
      case Op::SExt: {
        const Term *V = load(F, I.B);
        if (!V)
          return;
        const Term *T2 = A.applyOp(I.Opc, V, nullptr, I.C);
        if (!T2)
          return err("width violation in bytecode");
        if (!store(F, I.A, T2))
          return;
        break;
      }
      case Op::LogNot:
      case Op::BitNot:
      case Op::Neg:
      case Op::Slice: {
        const Term *V = load(F, I.B);
        if (!V)
          return;
        const Term *T2 = A.applyOp(I.Opc, V, nullptr, I.Imm);
        if (!T2)
          return err("width violation in bytecode");
        if (!store(F, I.A, T2))
          return;
        break;
      }
      case Op::MemRead: {
        if (I.Imm >= P.MemSites.size())
          return err("mem-site index out of range");
        const Term *Addr = load(F, I.B);
        if (!Addr)
          return;
        const ast::MemReadExpr *Site = P.MemSites[I.Imm];
        const Term *H =
            A.hook(false, Site, static_cast<unsigned>(R.Trace.size()),
                   Site->type().width(), {Addr});
        R.Trace.push_back(H);
        if (!store(F, I.A, H))
          return;
        break;
      }
      case Op::Extern: {
        if (I.Imm >= P.ExternSites.size())
          return err("extern-site index out of range");
        std::vector<const Term *> Args;
        for (unsigned K = 0; K != I.C; ++K) {
          const Term *V = load(F, static_cast<uint16_t>(I.B + K));
          if (!V)
            return;
          Args.push_back(V);
        }
        const ast::ExternCallExpr *Site = P.ExternSites[I.Imm];
        const Term *H =
            A.hook(true, Site, static_cast<unsigned>(R.Trace.size()),
                   Site->type().width(), std::move(Args));
        R.Trace.push_back(H);
        if (!store(F, I.A, H))
          return;
        break;
      }
      case Op::BrFalse:
      case Op::BrTrue: {
        const Term *V = load(F, I.B);
        if (!V)
          return;
        bool B;
        if (!decideTerm(V, D, R, B))
          return;
        bool Taken = (I.Opc == Op::BrTrue) == B;
        if (Taken) {
          PC = I.Imm;
          continue;
        }
        break;
      }
      case Op::Jump:
        PC = I.Imm;
        continue;
      case Op::Ret: {
        const Term *V = load(F, I.B);
        if (!V)
          return;
        R.Result = V;
        return;
      }
      case Op::RetTrue:
        R.Result = A.constant(Bits(1, 1));
        return;
      case Op::RetFalse:
        R.Result = A.constant(Bits(0, 1));
        return;

      // Superinstructions (backend/Fuse.h): each executes its documented
      // unfused expansion symbolically — same applyOp calls on base
      // opcodes (so the interned terms are pointer-identical to the
      // unfused run's) and same decideTerm forks (so the decision order,
      // and with it the obligations digest, is unchanged). The folded-away
      // compare/arm store is deliberately NOT performed: an illegally
      // fused window (PDL_TV_MUTATE=fuse-window) leaves a later read of
      // that slot uninitialized or stale, which this evaluator refutes.
      case Op::FusedCmpBr: {
        const Term *B = load(F, I.B);
        if (!B)
          return;
        const Term *C = load(F, I.C);
        if (!C)
          return;
        const Term *T2 = A.applyOp(Op(I.A & 0xff), B, C, 0);
        if (!T2)
          return err("width violation in bytecode");
        bool Bv;
        if (!decideTerm(T2, D, R, Bv))
          return;
        if (Bv == ((I.A & 0x100) != 0)) {
          PC = I.Imm;
          continue;
        }
        break;
      }
      case Op::FusedCmpRetBool: {
        const Term *B = load(F, I.B);
        if (!B)
          return;
        const Term *C = load(F, I.C);
        if (!C)
          return;
        const Term *T2 = A.applyOp(Op(I.A & 0xff), B, C, 0);
        if (!T2)
          return err("width violation in bytecode");
        bool Bv;
        if (!decideTerm(T2, D, R, Bv))
          return;
        R.Result = A.constant(Bits(Bv != ((I.A & 0x100) != 0) ? 1 : 0, 1));
        return;
      }
      case Op::FusedRetBool: {
        const Term *V = load(F, I.B);
        if (!V)
          return;
        bool Bv;
        if (!decideTerm(V, D, R, Bv))
          return;
        R.Result = A.constant(Bits(Bv != (I.A != 0) ? 1 : 0, 1));
        return;
      }
      case Op::FusedSelect: {
        const Term *V = load(F, I.B);
        if (!V)
          return;
        bool Bv;
        if (!decideTerm(V, D, R, Bv))
          return;
        const bool IsConst = (I.Imm & (1u << (Bv ? 16 : 17))) != 0;
        const uint32_t Operand = Bv ? I.C : (I.Imm & 0xffff);
        const Term *Picked;
        if (IsConst) {
          if (Operand >= P.Pool.size())
            return err("constant pool index out of range");
          Picked = A.constant(P.Pool[Operand]);
        } else {
          Picked = load(F, static_cast<uint16_t>(Operand));
          if (!Picked)
            return;
        }
        if (!store(F, I.A, Picked))
          return;
        break;
      }
      case Op::FusedBinK: {
        if (I.Imm >= P.Pool.size())
          return err("constant pool index out of range");
        const Term *K = A.constant(P.Pool[I.Imm]);
        const Term *V = load(F, I.B);
        if (!V)
          return;
        const Term *T2 = (I.C & 0x100) ? A.applyOp(Op(I.C & 0xff), K, V, 0)
                                       : A.applyOp(Op(I.C & 0xff), V, K, 0);
        if (!T2)
          return err("width violation in bytecode");
        if (!store(F, I.A, T2))
          return;
        break;
      }
      case Op::FusedRetOp: {
        const Op Sub = Op(I.A);
        const Term *V = nullptr;
        switch (Sub) {
        case Op::Const:
          if (I.Imm >= P.Pool.size())
            return err("constant pool index out of range");
          V = A.constant(P.Pool[I.Imm]);
          break;
        case Op::Copy:
          V = load(F, I.B);
          break;
        case Op::LogNot:
        case Op::BitNot:
        case Op::Neg:
        case Op::Slice: {
          const Term *B = load(F, I.B);
          if (!B)
            return;
          V = A.applyOp(Sub, B, nullptr, I.Imm);
          break;
        }
        case Op::ZExt:
        case Op::SExt: {
          const Term *B = load(F, I.B);
          if (!B)
            return;
          V = A.applyOp(Sub, B, nullptr, I.C);
          break;
        }
        default: { // pure binary sub-ops
          const Term *B = load(F, I.B);
          if (!B)
            return;
          const Term *C = load(F, I.C);
          if (!C)
            return;
          V = A.applyOp(Sub, B, C, 0);
          break;
        }
        }
        if (!V) {
          if (R.S != Run::St::Err)
            err("width violation in bytecode");
          return;
        }
        R.Result = V;
        return;
      }

      default: { // pure binary ops
        const Term *B = load(F, I.B);
        if (!B)
          return;
        const Term *C = load(F, I.C);
        if (!C)
          return;
        const Term *T2 = A.applyOp(I.Opc, B, C, I.Imm);
        if (!T2)
          return err("width violation in bytecode");
        if (!store(F, I.A, T2))
          return;
        break;
      }
      }
      ++PC;
    }
  }

private:
  const Term *load(std::vector<const Term *> &F, uint16_t S) {
    if (S >= F.size()) {
      err("slot index out of range");
      return nullptr;
    }
    if (!F[S]) {
      err("read of uninitialized scratch slot s" + std::to_string(S));
      return nullptr;
    }
    return F[S];
  }

  bool store(std::vector<const Term *> &F, uint16_t S, const Term *V) {
    if (S >= F.size()) {
      err("slot index out of range");
      return false;
    }
    F[S] = V;
    return true;
  }

  void err(std::string Msg) {
    R.S = Run::St::Err;
    R.Err = std::move(Msg);
  }

  Arena &A;
  const bc::PipeProgram &PP;
  const DecisionMap &D;
  Run &R;
};

//===----------------------------------------------------------------------===//
// Units
//===----------------------------------------------------------------------===//

/// One validated program: an expression unit or a guard unit. A guard unit
/// with a null bytecode program claims "always true" and must fold
/// constant-true on every path.
struct Unit {
  std::string Label;
  std::string Kind; // "expr" | "guard"
  std::string Source;
  const ast::Expr *E = nullptr;
  const Guard *G = nullptr;
  const bc::ExprProgram *Prog = nullptr;
};

std::string truncateSource(std::string S, size_t Max = 64) {
  std::replace(S.begin(), S.end(), '\n', ' ');
  if (S.size() > Max)
    S = S.substr(0, Max - 3) + "...";
  return S;
}

std::string guardSource(const Guard &G) {
  std::string S;
  for (unsigned I = 0, E = static_cast<unsigned>(G.size()); I != E; ++I) {
    if (I)
      S += " && ";
    S += (G[I].Polarity ? "" : "!");
    S += "(" + ast::printExpr(*G[I].Cond) + ")";
  }
  return truncateSource(std::move(S));
}

/// Mirrors compileStmtPrograms' visit order, so unit labels are stable and
/// every compiled statement program is covered.
void walkStmtExprs(const ast::Stmt &S, std::vector<const ast::Expr *> &Out) {
  using ast::Stmt;
  switch (S.kind()) {
  case Stmt::Kind::Assign:
    Out.push_back(cast<ast::AssignStmt>(&S)->value());
    return;
  case Stmt::Kind::SyncRead:
    Out.push_back(cast<ast::SyncReadStmt>(&S)->addr());
    return;
  case Stmt::Kind::PipeCall:
    for (const ast::ExprPtr &A : cast<ast::PipeCallStmt>(&S)->args())
      Out.push_back(A.get());
    return;
  case Stmt::Kind::MemWrite:
    Out.push_back(cast<ast::MemWriteStmt>(&S)->addr());
    Out.push_back(cast<ast::MemWriteStmt>(&S)->value());
    return;
  case Stmt::Kind::Output:
    Out.push_back(cast<ast::OutputStmt>(&S)->value());
    return;
  case Stmt::Kind::Lock:
    if (const ast::Expr *A = cast<ast::LockStmt>(&S)->addr())
      Out.push_back(A);
    return;
  case Stmt::Kind::Verify: {
    const auto *V = cast<ast::VerifyStmt>(&S);
    Out.push_back(V->actual());
    if (const ast::ExternCallExpr *U = V->predictorUpdate())
      for (const ast::ExprPtr &A : U->args())
        Out.push_back(A.get());
    return;
  }
  case Stmt::Kind::Update:
    Out.push_back(cast<ast::UpdateStmt>(&S)->newPred());
    return;
  case Stmt::Kind::If: {
    const auto *I = cast<ast::IfStmt>(&S);
    Out.push_back(I->cond());
    for (const ast::StmtPtr &T : I->thenBody())
      walkStmtExprs(*T, Out);
    for (const ast::StmtPtr &T : I->elseBody())
      walkStmtExprs(*T, Out);
    return;
  }
  case Stmt::Kind::Return:
    if (const ast::Expr *V = cast<ast::ReturnStmt>(&S)->value())
      Out.push_back(V);
    return;
  case Stmt::Kind::SpecCheck:
  case Stmt::Kind::StageSep:
    return;
  }
}

uint64_t exprTreeDigest(const ast::Expr &E) {
  return fnvStr(FnvBasis, ast::printExpr(E));
}

uint64_t guardTreeDigest(const Guard &G) {
  uint64_t H = FnvBasis;
  for (const GuardTerm &T : G) {
    H = fnvU64(H, T.Polarity ? 1 : 0);
    H = fnvStr(H, ast::printExpr(*T.Cond));
  }
  return H;
}

uint64_t bcProgramDigest(const bc::ExprProgram *P) {
  uint64_t H = FnvBasis;
  if (!P)
    return fnvStr(H, "null");
  for (const bc::Insn &I : P->Code) {
    H = fnvU64(H, static_cast<uint64_t>(I.Opc));
    H = fnvU64(H, I.A);
    H = fnvU64(H, I.B);
    H = fnvU64(H, I.C);
    H = fnvU64(H, I.Imm);
  }
  for (const Bits &B : P->Pool) {
    H = fnvU64(H, B.zext());
    H = fnvU64(H, B.width());
  }
  H = fnvU64(H, P->MemSites.size());
  H = fnvU64(H, P->ExternSites.size());
  return H;
}

//===----------------------------------------------------------------------===//
// Per-unit validation
//===----------------------------------------------------------------------===//

/// Maps an App/Hook term onto the solver's function-symbol grammar
/// (Solver.h groundEval for the interpreted part).
std::string smtSymbol(const Term *T) {
  if (T->Kind == Term::K::Hook) {
    std::ostringstream OS;
    OS << "hook:" << (T->IsExtern ? 'x' : 'm') << T->SiteOrd << ':' << T->Seq;
    return OS.str();
  }
  const char *N = nullptr;
  switch (T->Opc) {
  case Op::Add:
    N = "add";
    break;
  case Op::Sub:
    N = "sub";
    break;
  case Op::Mul:
    N = "mul";
    break;
  case Op::UDiv:
    N = "udiv";
    break;
  case Op::SDiv:
    N = "sdiv";
    break;
  case Op::URem:
    N = "urem";
    break;
  case Op::SRem:
    N = "srem";
    break;
  case Op::And:
    N = "and";
    break;
  case Op::Or:
    N = "or";
    break;
  case Op::Xor:
    N = "xor";
    break;
  case Op::Shl:
    N = "shl";
    break;
  case Op::LShr:
    N = "lshr";
    break;
  case Op::AShr:
    N = "ashr";
    break;
  case Op::Eq:
    N = "eq";
    break;
  case Op::Ne:
    N = "ne";
    break;
  case Op::ULt:
    N = "ult";
    break;
  case Op::ULe:
    N = "ule";
    break;
  case Op::SLt:
    N = "slt";
    break;
  case Op::SLe:
    N = "sle";
    break;
  case Op::LogAnd:
    N = "logand";
    break;
  case Op::LogOr:
    N = "logor";
    break;
  case Op::LogNot:
    N = "lognot";
    break;
  case Op::BitNot:
    N = "bitnot";
    break;
  case Op::Neg:
    N = "neg";
    break;
  case Op::Slice:
    N = "slice";
    break;
  case Op::ZExt:
    N = "zext";
    break;
  case Op::SExt:
    N = "sext";
    break;
  case Op::Concat:
    N = "concat";
    break;
  default:
    N = "unknown";
    break;
  }
  std::string S = std::string(N) + ":" + std::to_string(T->Width);
  if (T->Opc == Op::Slice)
    S += ":" + std::to_string(T->Imm);
  return S;
}

class UnitValidator {
public:
  UnitValidator(Arena &A, const ast::Program &Prog, const bc::PipeProgram &PP,
                const Unit &U, const ValidateOptions &Opts)
      : A(A), Prog(Prog), PP(PP), U(U), Opts(Opts) {}

  ProgramCert validate(unsigned &QueriesOut, unsigned &DecisionsOut) {
    ProgramCert C;
    C.Label = U.Label;
    C.Kind = U.Kind;
    C.Source = U.Source;
    C.TreeDigest = U.E ? exprTreeDigest(*U.E) : guardTreeDigest(*U.G);
    C.BcDigest = bcProgramDigest(U.Prog);

    struct Item {
      std::vector<std::pair<const Term *, bool>> Ord;
      DecisionMap D;
    };
    std::deque<Item> Work;
    Work.push_back({});
    uint64_t OblAcc = FnvBasis;

    while (!Work.empty()) {
      if (C.Paths >= Opts.MaxPathsPerProgram) {
        C.BudgetExceeded = true;
        note(C, "path budget (" + std::to_string(Opts.MaxPathsPerProgram) +
                    ") exhausted; remaining paths unproven");
        break;
      }
      Item It = std::move(Work.front());
      Work.pop_front();

      Run TR;
      TreeEval TE(A, Prog, PP, It.D, TR);
      TR.Result = U.E ? TE.eval(*U.E, nullptr) : TE.evalGuard(*U.G);
      if (TR.S == Run::St::Fork) {
        fork(Work, It, TR.ForkOn);
        continue;
      }
      Run BR;
      if (U.Prog) {
        BcEval BE(A, PP, It.D, BR);
        BE.run(*U.Prog);
      } else {
        // Null program: the compiler claims this guard is constant-true.
        BR.Result = A.constant(Bits(1, 1));
      }
      if (BR.S == Run::St::Fork) {
        fork(Work, It, BR.ForkOn);
        continue;
      }

      ++C.Paths;
      OblAcc = fnvU64(OblAcc, pathHash(It, TR, BR));
      judge(C, It, TR, BR);
    }

    C.ObligationsDigest = OblAcc;
    if (C.Refuted)
      C.ProgStatus = "rejected";
    else if (C.Unproven || C.BudgetExceeded)
      C.ProgStatus = "fuzz-trusted";
    else
      C.ProgStatus = "proved";
    QueriesOut += Sol ? Sol->queryCount() : 0;
    DecisionsOut += Sol ? Sol->decisionCount() : 0;
    return C;
  }

private:
  template <typename WorkT>
  void fork(WorkT &Work, const typename WorkT::value_type &It,
            const Term *On) {
    for (bool B : {false, true}) {
      auto Child = It;
      Child.Ord.emplace_back(On, B);
      Child.D.emplace(On, B);
      Work.push_back(std::move(Child));
    }
  }

  template <typename ItemT>
  uint64_t pathHash(const ItemT &It, const Run &TR, const Run &BR) {
    uint64_t H = FnvBasis;
    H = fnvU64(H, It.Ord.size());
    for (const auto &D : It.Ord) {
      H = fnvU64(H, A.termHash(D.first));
      H = fnvU64(H, D.second ? 1 : 0);
    }
    for (const Run *R : {&TR, &BR}) {
      H = fnvU64(H, static_cast<uint64_t>(R->S));
      if (R->S == Run::St::Err) {
        H = fnvStr(H, R->Err);
        continue;
      }
      H = fnvU64(H, R->Result ? A.termHash(R->Result) : 0);
      H = fnvU64(H, R->Trace.size());
      for (const Term *T : R->Trace)
        H = fnvU64(H, A.termHash(T));
    }
    return H;
  }

  void note(ProgramCert &C, std::string Msg) {
    if (C.Notes.size() < Opts.MaxNotes)
      C.Notes.push_back(std::move(Msg));
  }

  template <typename ItemT>
  void judge(ProgramCert &C, const ItemT &It, const Run &TR, const Run &BR) {
    if (TR.S == Run::St::Err) {
      ++C.Refuted;
      note(C, "tree evaluation error: " + TR.Err);
      return;
    }
    if (BR.S == Run::St::Err) {
      ++C.Refuted;
      note(C, "bytecode error: " + BR.Err);
      return;
    }

    // Syntactic: interning makes "same computation" pointer equality.
    if (TR.Result == BR.Result && TR.Trace == BR.Trace) {
      ++C.Syntactic;
      return;
    }

    // Structural refutations.
    if (TR.Trace.size() != BR.Trace.size()) {
      ++C.Refuted;
      note(C, "hook trace length differs: tree " +
                  std::to_string(TR.Trace.size()) + " vs bytecode " +
                  std::to_string(BR.Trace.size()));
      return;
    }
    std::vector<std::pair<const Term *, const Term *>> Residual;
    for (size_t K = 0; K != TR.Trace.size(); ++K) {
      const Term *TH = TR.Trace[K], *BH = BR.Trace[K];
      if (TH == BH)
        continue;
      if (TH->IsExtern != BH->IsExtern || TH->SiteOrd != BH->SiteOrd ||
          TH->Args.size() != BH->Args.size()) {
        ++C.Refuted;
        note(C, "hook #" + std::to_string(K) + " site/shape differs");
        return;
      }
      for (size_t J = 0; J != TH->Args.size(); ++J) {
        const Term *TA = TH->Args[J], *BA = BH->Args[J];
        if (TA == BA)
          continue;
        if (TA->Kind == Term::K::Const && BA->Kind == Term::K::Const) {
          ++C.Refuted;
          note(C, "hook #" + std::to_string(K) + " argument differs: " +
                      printTerm(TA, PP) + " vs " + printTerm(BA, PP));
          return;
        }
        Residual.emplace_back(TA, BA);
      }
    }
    if (TR.Result != BR.Result) {
      if (TR.Result->Kind == Term::K::Const &&
          BR.Result->Kind == Term::K::Const) {
        ++C.Refuted;
        note(C, "result differs: tree " + printTerm(TR.Result, PP) +
                    " vs bytecode " + printTerm(BR.Result, PP));
        return;
      }
      Residual.emplace_back(TR.Result, BR.Result);
    }

    // Residual equalities under the path condition: ask the solver.
    if (!Opts.UseSolver) {
      ++C.Unproven;
      note(C, "needs-solver: " + std::to_string(Residual.size()) +
                  " residual equalities");
      return;
    }
    if (proveResidual(It, Residual)) {
      ++C.Solver;
      return;
    }
    ++C.Unproven;
    if (!Residual.empty())
      note(C, "unproven: " + printTerm(Residual.front().first, PP) +
                  " == " + printTerm(Residual.front().second, PP));
    return;
  }

  template <typename ItemT>
  bool proveResidual(
      const ItemT &It,
      const std::vector<std::pair<const Term *, const Term *>> &Residual) {
    if (!Ctx) {
      Ctx = std::make_unique<smt::FormulaContext>();
      Sol = std::make_unique<smt::Solver>(*Ctx);
    }
    std::vector<const smt::Formula *> Assume;
    for (const auto &D : It.Ord) {
      const smt::Formula *NonZero = Ctx->notF(Ctx->eq(
          enc(D.first), Ctx->constant(0, D.first->Width)));
      Assume.push_back(D.second ? NonZero : Ctx->notF(NonZero));
    }
    std::vector<const smt::Formula *> Goals;
    for (const auto &P : Residual)
      Goals.push_back(Ctx->eq(enc(P.first), enc(P.second)));
    return Sol->proves(Ctx->andF(std::move(Assume)),
                       Ctx->andF(std::move(Goals)));
  }

  smt::TermId enc(const Term *T) {
    auto It = Enc.find(T);
    if (It != Enc.end())
      return It->second;
    smt::TermId Id = 0;
    switch (T->Kind) {
    case Term::K::Const:
      Id = Ctx->constant(T->KVal.zext(), T->KVal.width());
      break;
    case Term::K::Var:
      Id = Ctx->variable("s" + std::to_string(T->Slot));
      break;
    case Term::K::App:
    case Term::K::Hook: {
      std::vector<smt::TermId> Args;
      for (const Term *Arg : T->Args)
        Args.push_back(enc(Arg));
      Id = Ctx->apply(smtSymbol(T), std::move(Args));
      break;
    }
    }
    Enc.emplace(T, Id);
    return Id;
  }

  Arena &A;
  const ast::Program &Prog;
  const bc::PipeProgram &PP;
  const Unit &U;
  const ValidateOptions &Opts;
  std::unique_ptr<smt::FormulaContext> Ctx;
  std::unique_ptr<smt::Solver> Sol;
  std::map<const Term *, smt::TermId> Enc;
};

//===----------------------------------------------------------------------===//
// Layout obligations
//===----------------------------------------------------------------------===//

void layoutNote(Certificate &Cert, const std::string &Pipe, std::string Msg) {
  ++Cert.LayoutFailures;
  if (Cert.LayoutNotes.size() < 16)
    Cert.LayoutNotes.push_back(Pipe + ": " + std::move(Msg));
}

void checkLayoutEq(Certificate &Cert, const std::string &Pipe, bool Ok,
                   const std::string &What) {
  ++Cert.LayoutChecks;
  if (!Ok)
    layoutNote(Cert, Pipe, What);
}

/// Structural obligations: the stage mirrors must reference exactly the
/// programs the statement walk compiled, and destinations must match the
/// slot table — the wiring the executor trusts blindly every cycle.
void checkLayout(Certificate &Cert, const std::string &PipeName,
                 const StageGraph &G, const bc::PipeProgram &PP) {
  using ast::Stmt;
  checkLayoutEq(Cert, PipeName, PP.Stages.size() == G.Stages.size(),
                "stage count differs from graph");
  if (PP.Stages.size() != G.Stages.size())
    return;
  for (const Stage &S : G.Stages) {
    const bc::StageProg &SP = PP.Stages[S.Id];
    std::string SN = "stage " + std::to_string(S.Id);
    checkLayoutEq(Cert, PipeName, SP.Ops.size() == S.Ops.size(),
                  SN + ": op count");
    checkLayoutEq(Cert, PipeName, SP.EdgeGuards.size() == S.Succs.size(),
                  SN + ": edge-guard count");
    checkLayoutEq(Cert, PipeName, SP.TagGuards.size() == S.TagRules.size(),
                  SN + ": tag-guard count");
    if (SP.Ops.size() != S.Ops.size())
      continue;
    for (size_t I = 0; I != S.Ops.size(); ++I) {
      const bc::OpProg &OP = SP.Ops[I];
      const ast::Stmt *St = S.Ops[I].S;
      std::string ON = SN + ".op" + std::to_string(I);
      auto Expect = [&](const bc::ExprProgram *Got, const ast::Expr *E,
                        const char *Which) {
        checkLayoutEq(Cert, PipeName, Got == PP.programFor(E),
                      ON + ": " + Which + " program mismatch");
      };
      switch (St->kind()) {
      case Stmt::Kind::Assign: {
        const auto *AS = cast<ast::AssignStmt>(St);
        Expect(OP.E0, AS->value(), "value");
        checkLayoutEq(Cert, PipeName, OP.Dest == PP.slotOf(AS->name()),
                      ON + ": dest slot");
        break;
      }
      case Stmt::Kind::SyncRead: {
        const auto *Rd = cast<ast::SyncReadStmt>(St);
        Expect(OP.E0, Rd->addr(), "addr");
        checkLayoutEq(Cert, PipeName, OP.Dest == PP.slotOf(Rd->name()),
                      ON + ": dest slot");
        break;
      }
      case Stmt::Kind::PipeCall: {
        const auto *PC = cast<ast::PipeCallStmt>(St);
        checkLayoutEq(Cert, PipeName, OP.Args.size() == PC->args().size(),
                      ON + ": arg count");
        if (OP.Args.size() == PC->args().size())
          for (size_t K = 0; K != OP.Args.size(); ++K)
            Expect(OP.Args[K], PC->args()[K].get(), "arg");
        if (PC->hasResult() && !PC->isSpec())
          checkLayoutEq(Cert, PipeName,
                        OP.Dest == PP.slotOf(PC->resultName()),
                        ON + ": result slot");
        break;
      }
      case Stmt::Kind::MemWrite: {
        const auto *W = cast<ast::MemWriteStmt>(St);
        Expect(OP.E0, W->addr(), "addr");
        Expect(OP.E1, W->value(), "value");
        break;
      }
      case Stmt::Kind::Output:
        Expect(OP.E0, cast<ast::OutputStmt>(St)->value(), "value");
        break;
      case Stmt::Kind::Lock:
        if (const ast::Expr *Ad = cast<ast::LockStmt>(St)->addr())
          Expect(OP.E0, Ad, "addr");
        break;
      case Stmt::Kind::Verify: {
        const auto *V = cast<ast::VerifyStmt>(St);
        Expect(OP.E0, V->actual(), "actual");
        if (const ast::ExternCallExpr *Up = V->predictorUpdate()) {
          checkLayoutEq(Cert, PipeName, OP.Args.size() == Up->args().size(),
                        ON + ": update-arg count");
          if (OP.Args.size() == Up->args().size())
            for (size_t K = 0; K != OP.Args.size(); ++K)
              Expect(OP.Args[K], Up->args()[K].get(), "update-arg");
        }
        break;
      }
      case Stmt::Kind::Update:
        Expect(OP.E0, cast<ast::UpdateStmt>(St)->newPred(), "new-pred");
        break;
      default:
        break;
      }
    }
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Module driver
//===----------------------------------------------------------------------===//

Certificate tv::validateModule(const CompiledProgram &CP,
                               const bc::ModuleIR &IR,
                               const std::string &ModuleName,
                               const ValidateOptions &Opts) {
  auto T0 = std::chrono::steady_clock::now();
  Certificate Cert;
  Cert.Module = ModuleName;

  for (const auto &Entry : CP.Pipes) {
    const std::string &PipeName = Entry.first;
    const CompiledPipe &CPipe = Entry.second;
    const bc::PipeProgram *PP = IR.pipe(PipeName);
    ++Cert.LayoutChecks;
    if (!PP) {
      layoutNote(Cert, PipeName, "pipe missing from compiled module");
      continue;
    }

    // Expression units, in statement-walk (= compile) order.
    std::vector<Unit> Units;
    std::vector<const ast::Expr *> Exprs;
    for (const ast::StmtPtr &S : CPipe.Decl->Body)
      walkStmtExprs(*S, Exprs);
    for (size_t I = 0; I != Exprs.size(); ++I) {
      const bc::ExprProgram *Prog = PP->programFor(Exprs[I]);
      ++Cert.LayoutChecks;
      if (!Prog) {
        layoutNote(Cert, PipeName,
                   "expression e" + std::to_string(I) + " has no program");
        continue;
      }
      Unit U;
      U.Label = "e" + std::to_string(I);
      U.Kind = "expr";
      U.Source = truncateSource(ast::printExpr(*Exprs[I]));
      U.E = Exprs[I];
      U.Prog = Prog;
      Units.push_back(std::move(U));
    }

    // Guard units from the stage mirrors, plus the structural layout pass.
    checkLayout(Cert, PipeName, CPipe.Graph, *PP);
    if (PP->Stages.size() == CPipe.Graph.Stages.size()) {
      for (const Stage &S : CPipe.Graph.Stages) {
        const bc::StageProg &SP = PP->Stages[S.Id];
        auto addGuard = [&](const Guard &G, const bc::ExprProgram *Prog,
                            std::string Label) {
          if (G.empty() && !Prog)
            return; // trivially true on both sides
          Unit U;
          U.Label = std::move(Label);
          U.Kind = "guard";
          U.Source = guardSource(G);
          U.G = &G;
          U.Prog = Prog;
          Units.push_back(std::move(U));
        };
        std::string SN = "s" + std::to_string(S.Id);
        if (SP.Ops.size() == S.Ops.size())
          for (size_t I = 0; I != S.Ops.size(); ++I)
            addGuard(S.Ops[I].G, SP.Ops[I].Guard,
                     SN + ".op" + std::to_string(I) + ".guard");
        if (SP.EdgeGuards.size() == S.Succs.size())
          for (size_t I = 0; I != S.Succs.size(); ++I)
            addGuard(S.Succs[I].G, SP.EdgeGuards[I],
                     SN + ".edge" + std::to_string(I));
        if (SP.TagGuards.size() == S.TagRules.size())
          for (size_t I = 0; I != S.TagRules.size(); ++I)
            addGuard(S.TagRules[I].G, SP.TagGuards[I],
                     SN + ".tag" + std::to_string(I));
      }
    }

    for (const Unit &U : Units) {
      Arena A;
      UnitValidator V(A, *CP.AST, *PP, U, Opts);
      ProgramCert C = V.validate(Cert.SolverQueries, Cert.SolverDecisions);
      C.Pipe = PipeName;
      Cert.Programs.push_back(std::move(C));
    }
  }

  Cert.St = Status::Certified;
  for (const ProgramCert &C : Cert.Programs) {
    if (C.ProgStatus == "rejected")
      Cert.St = Status::Rejected;
    else if (C.ProgStatus == "fuzz-trusted" && Cert.St != Status::Rejected)
      Cert.St = Status::FuzzTrusted;
  }
  if (Cert.LayoutFailures)
    Cert.St = Status::Rejected;

  Cert.WallUs = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - T0)
          .count());
  return Cert;
}
