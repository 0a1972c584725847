//===- Fuse.cpp - Superinstruction fusion over the bytecode IR --------------===//
//
// Part of the PDL reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// A single linear scan per program. Windows are only folded when
//
//  (a) no branch targets the interior of the window (branch targets are
//      precomputed; branches are forward-only), and
//  (b) every scratch store the fold drops is dead — the slot is never read
//      at a later index. Programs write scratch slots only (Bytecode.h
//      contract) and scratch is define-before-use per program, so a suffix
//      scan within the program is a sound liveness oracle.
//
// Guard epilogues need one extra care: every short-circuit branch of a
// fused guard conjunction targets the shared RetFalse, so that insn can be
// multi-predecessor. The epilogue folds therefore consume only the branch
// and its fallthrough RetTrue; the RetFalse stays put (unreachable when
// the fold took its last predecessor — one dead insn, never executed).
//
//===----------------------------------------------------------------------===//

#include "backend/Fuse.h"

#include <cassert>
#include <cstdlib>
#include <cstring>
#include <map>
#include <vector>

using namespace pdl;
using namespace pdl::backend;
using namespace pdl::backend::bc;

namespace {

bool isCmp(Op O) { return O >= Op::Eq && O <= Op::SLe; }

/// Two-source-slot pure ops whose constant operand FusedBinK can read from
/// the pool directly.
bool isBin(Op O) {
  return (O >= Op::Add && O <= Op::SLe) || O == Op::LogAnd || O == Op::LogOr ||
         O == Op::Concat;
}

/// Pure ops FusedRetOp may return directly (no hooks, no control flow).
bool isRetFusable(Op O) {
  return O == Op::Const || O == Op::Copy || isBin(O) || O == Op::LogNot ||
         O == Op::BitNot || O == Op::Neg || O == Op::Slice || O == Op::ZExt ||
         O == Op::SExt;
}

/// Calls \p Fn for every frame slot \p I reads. ZExt/SExt carry a width in
/// C, Slice packs bounds in Imm — neither is a slot.
template <class FnT> void forEachRead(const Insn &I, FnT Fn) {
  switch (I.Opc) {
  case Op::Const:
  case Op::Jump:
  case Op::RetTrue:
  case Op::RetFalse:
    break;
  case Op::Copy:
  case Op::LogNot:
  case Op::BitNot:
  case Op::Neg:
  case Op::Slice:
  case Op::ZExt:
  case Op::SExt:
  case Op::MemRead:
  case Op::BrFalse:
  case Op::BrTrue:
  case Op::Ret:
  case Op::FusedBinK:
  case Op::FusedRetBool:
    Fn(I.B);
    break;
  case Op::Extern:
    for (uint16_t K = 0; K != I.C; ++K)
      Fn(uint16_t(I.B + K));
    break;
  case Op::FusedSelect:
    Fn(I.B);
    if (!(I.Imm & (1u << 16)))
      Fn(I.C);
    if (!(I.Imm & (1u << 17)))
      Fn(uint16_t(I.Imm & 0xffff));
    break;
  case Op::FusedRetOp:
    // Conservative: treat both fields as reads (Const/unary sub-ops just
    // over-approximate, which only ever blocks a fold).
    Fn(I.B);
    Fn(I.C);
    break;
  default: // all two-source ops, incl. FusedCmpBr / FusedCmpRetBool
    Fn(I.B);
    Fn(I.C);
    break;
  }
}

/// True when \p I writes a frame slot (branches and returns do not).
bool writesSlot(const Insn &I) {
  switch (I.Opc) {
  case Op::BrFalse:
  case Op::BrTrue:
  case Op::Jump:
  case Op::Ret:
  case Op::RetTrue:
  case Op::RetFalse:
  case Op::FusedCmpBr:
  case Op::FusedCmpRetBool:
  case Op::FusedRetBool:
  case Op::FusedRetOp:
    return false;
  default:
    return true;
  }
}

bool hasBranchTarget(Op O) {
  return O == Op::BrFalse || O == Op::BrTrue || O == Op::Jump ||
         O == Op::FusedCmpBr;
}

/// The deliberate-miscompile switch for the translation validator's
/// self-test: PDL_TV_MUTATE=fuse-window seeds the two classic window bugs.
/// It fuses compare→branch windows even when the compare's destination is
/// still live past the branch (the later read sees stale or undefined
/// scratch), and it leaves fused compare-branch targets in the
/// pre-deletion index space (a stale remap). tv::validateModule must
/// refute the result whenever either bug changes behaviour.
bool fuseWindowMutation() {
  const char *E = std::getenv("PDL_TV_MUTATE");
  return E && std::strcmp(E, "fuse-window") == 0;
}

} // namespace

namespace {

/// One linear fold pass. Returns the number of folds performed (window
/// fusions, BinK substitutions, dead-Const drops); the caller iterates to
/// a fixpoint — e.g. a BinK substitution only strands its Const's last
/// read for the *next* pass's liveness scan to notice.
uint64_t fuseOnce(const ExprProgram &In, ExprProgram &Out, FuseStats &S,
                  bool Mutate) {
  const std::vector<Insn> &C = In.Code;
  const size_t N = C.size();
  uint64_t Folds = 0;

  // Predecessor counts per branch target, and the last index reading each
  // slot (suffix-liveness oracle).
  std::vector<uint32_t> Preds(N + 1, 0);
  std::map<uint16_t, size_t> LastRead;
  for (size_t I = 0; I != N; ++I) {
    if (hasBranchTarget(C[I].Opc) && C[I].Imm <= N)
      ++Preds[C[I].Imm];
    forEachRead(C[I], [&](uint16_t Slot) { LastRead[Slot] = I; });
  }
  auto DeadAfter = [&](uint16_t Slot, size_t Ix) {
    auto It = LastRead.find(Slot);
    return It == LastRead.end() || It->second <= Ix;
  };
  auto Interior = [&](size_t Begin, size_t End) { // any preds in (Begin,End)?
    for (size_t I = Begin + 1; I < End; ++I)
      if (Preds[I])
        return true;
    return false;
  };

  Out.Pool = In.Pool;
  Out.MemSites = In.MemSites;
  Out.ExternSites = In.ExternSites;
  Out.MemAccess = In.MemAccess;
  Out.ExternMods = In.ExternMods;
  Out.Code.clear();
  Out.Code.reserve(N);

  // Which pool constant a slot currently holds, for FusedBinK. Flow-
  // sensitive: reset at every branch target (the state could arrive along
  // several paths).
  std::map<uint16_t, uint32_t> SlotConst;

  std::vector<uint32_t> NewIx(N + 1, 0);
  size_t I = 0;
  while (I < N) {
    if (Preds[I])
      SlotConst.clear();
    NewIx[I] = uint32_t(Out.Code.size());
    const Insn &A = C[I];
    size_t Consumed = 1;
    Insn F{};

    // cmp D,B,C ; Br D,L ; RetTrue   (L: RetFalse)  ->  FusedCmpRetBool
    if (isCmp(A.Opc) && I + 2 < N &&
        (C[I + 1].Opc == Op::BrFalse || C[I + 1].Opc == Op::BrTrue) &&
        C[I + 1].B == A.A && C[I + 2].Opc == Op::RetTrue &&
        C[I + 1].Imm < N && C[C[I + 1].Imm].Opc == Op::RetFalse &&
        !Interior(I, I + 3) && (Mutate || DeadAfter(A.A, I + 1))) {
      F.Opc = Op::FusedCmpRetBool;
      F.A = uint16_t(unsigned(A.Opc) |
                     (C[I + 1].Opc == Op::BrTrue ? 0x100u : 0u));
      F.B = A.B;
      F.C = A.C;
      Consumed = 3;
      ++S.CmpRetBool;
      ++Folds;
    }
    // cmp D,B,C ; Br D,L    ->  FusedCmpBr
    else if (isCmp(A.Opc) && I + 1 < N &&
             (C[I + 1].Opc == Op::BrFalse || C[I + 1].Opc == Op::BrTrue) &&
             C[I + 1].B == A.A && !Interior(I, I + 2) &&
             (Mutate || DeadAfter(A.A, I + 1))) {
      F.Opc = Op::FusedCmpBr;
      F.A = uint16_t(unsigned(A.Opc) |
                     (C[I + 1].Opc == Op::BrTrue ? 0x100u : 0u));
      F.B = A.B;
      F.C = A.C;
      F.Imm = C[I + 1].Imm; // old target; remapped below
      Consumed = 2;
      ++S.CmpBr;
      ++Folds;
    }
    // Br B,L ; RetTrue   (L: RetFalse)  ->  FusedRetBool
    else if ((A.Opc == Op::BrFalse || A.Opc == Op::BrTrue) && I + 1 < N &&
             C[I + 1].Opc == Op::RetTrue && A.Imm < N &&
             C[A.Imm].Opc == Op::RetFalse && !Interior(I, I + 2)) {
      F.Opc = Op::FusedRetBool;
      F.A = A.Opc == Op::BrTrue ? 1 : 0;
      F.B = A.B;
      Consumed = 2;
      ++S.RetBool;
      ++Folds;
    }
    // BrFalse c,Le ; then ; Jump Ld ; Le: else   (Ld == Le+1)  ->  FusedSelect
    else if (A.Opc == Op::BrFalse && I + 3 < N && A.Imm == I + 3 &&
             C[I + 2].Opc == Op::Jump && C[I + 2].Imm == I + 4 &&
             Preds[I + 1] == 0 && Preds[I + 2] == 0 && Preds[I + 3] == 1 &&
             (C[I + 1].Opc == Op::Copy || C[I + 1].Opc == Op::Const) &&
             (C[I + 3].Opc == Op::Copy || C[I + 3].Opc == Op::Const) &&
             C[I + 1].A == C[I + 3].A) {
      const Insn &Then = C[I + 1], &Else = C[I + 3];
      uint32_t ThenOp = Then.Opc == Op::Const ? Then.Imm : Then.B;
      uint32_t ElseOp = Else.Opc == Op::Const ? Else.Imm : Else.B;
      if (ThenOp < 0x10000 && ElseOp < 0x10000) {
        F.Opc = Op::FusedSelect;
        F.A = Then.A;
        F.B = A.B;
        F.C = uint16_t(ThenOp);
        F.Imm = ElseOp | (Then.Opc == Op::Const ? 1u << 16 : 0) |
                (Else.Opc == Op::Const ? 1u << 17 : 0);
        Consumed = 4;
        ++S.Select;
      ++Folds;
      }
    }
    // pure op D,... ; Ret D  ->  FusedRetOp
    if (Consumed == 1 && isRetFusable(A.Opc) && I + 1 < N &&
        C[I + 1].Opc == Op::Ret && C[I + 1].B == A.A &&
        !Interior(I, I + 2) && DeadAfter(A.A, I + 1)) {
      F.Opc = Op::FusedRetOp;
      F.A = uint16_t(A.Opc);
      F.B = A.B;
      F.C = A.C;
      F.Imm = A.Imm;
      Consumed = 2;
      ++S.RetOp;
      ++Folds;
    }
    // Const whose destination is never read: left dead by an earlier BinK
    // substitution (or dead on arrival). Drop it.
    if (Consumed == 1 && A.Opc == Op::Const && DeadAfter(A.A, I)) {
      for (size_t K = I; K != I + 1; ++K)
        NewIx[K] = uint32_t(Out.Code.size());
      ++S.DeadConst;
      ++Folds;
      ++I;
      continue;
    }

    if (Consumed == 1) {
      F = A;
      // bin A,B,C where one operand holds a known pool constant -> FusedBinK.
      if (isBin(F.Opc)) {
        auto BIt = SlotConst.find(F.B), CIt = SlotConst.find(F.C);
        if (CIt != SlotConst.end()) {
          F = Insn{Op::FusedBinK, A.A, A.B, uint16_t(unsigned(A.Opc)),
                   CIt->second};
          ++S.BinK;
      ++Folds;
        } else if (BIt != SlotConst.end()) {
          F = Insn{Op::FusedBinK, A.A, A.C,
                   uint16_t(unsigned(A.Opc) | 0x100u), BIt->second};
          ++S.BinK;
      ++Folds;
        }
      }
    }

    // Track constant-holding slots and kill stale entries on overwrite.
    if (writesSlot(F))
      SlotConst.erase(F.A);
    if (A.Opc == Op::Const && Consumed == 1)
      SlotConst[A.A] = A.Imm;

    for (size_t K = I; K != I + Consumed; ++K)
      NewIx[K] = uint32_t(Out.Code.size());
    Out.Code.push_back(F);
    I += Consumed;
  }
  NewIx[N] = uint32_t(Out.Code.size());

  // Remap branch targets into the new index space. Consumed interior
  // indices were never branch targets (checked per window), so every
  // surviving target lands on an emitted instruction boundary. Under the
  // fuse-window mutation, freshly fused compare-branches keep their
  // pre-deletion target — the stale-remap half of the seeded bug (the
  // live-compare half above rarely has a window to bite in real modules).
  for (Insn &X : Out.Code)
    if (hasBranchTarget(X.Opc) && !(Mutate && X.Opc == Op::FusedCmpBr))
      X.Imm = NewIx[X.Imm];

  return Folds;
}

} // namespace

ExprProgram bc::fuseProgram(const ExprProgram &In, FuseStats *Stats) {
  FuseStats Local;
  FuseStats &S = Stats ? *Stats : Local;
  const bool Mutate = fuseWindowMutation();

  // Iterate to a fixpoint: deletions make new windows adjacent, and a BinK
  // substitution's stranded Const only reads as dead on the next scan.
  // Each pass either folds something or terminates the loop, and every
  // fold strictly shrinks the code or converts an op that no later pass
  // reconsiders, so this is finite (in practice 1–3 passes).
  ExprProgram Cur, Next;
  uint64_t Folds = fuseOnce(In, Cur, S, Mutate);
  while (Folds) {
    Folds = fuseOnce(Cur, Next, S, Mutate);
    if (Folds)
      std::swap(Cur, Next);
  }
  return Cur;
}

std::shared_ptr<const ModuleIR> bc::fuseModule(const ModuleIR &In,
                                               FuseStats *Stats) {
  auto Out = std::make_shared<ModuleIR>();
  for (const auto &[Name, PP] : In.Pipes) {
    PipeProgram &NP = Out->Pipes[Name];
    // Copy the value parts wholesale, then re-point every program pointer
    // (stage mirrors, ExprIndex) at the fused storage. Programs is a deque
    // so addresses are stable once emplaced.
    NP = PP;
    NP.Programs.clear();
    std::map<const ExprProgram *, const ExprProgram *> Remap;
    Remap[nullptr] = nullptr;
    for (const ExprProgram &EP : PP.Programs) {
      NP.Programs.push_back(fuseProgram(EP, Stats));
      Remap[&EP] = &NP.Programs.back();
    }
    auto Fix = [&](const ExprProgram *&P) {
      auto It = Remap.find(P);
      assert(It != Remap.end() && "program pointer outside module storage");
      P = It->second;
    };
    for (StageProg &SP : NP.Stages) {
      for (OpProg &OP : SP.Ops) {
        Fix(OP.Guard);
        Fix(OP.E0);
        Fix(OP.E1);
        for (const ExprProgram *&AP : OP.Args)
          Fix(AP);
      }
      for (const ExprProgram *&G : SP.EdgeGuards)
        Fix(G);
      for (const ExprProgram *&G : SP.TagGuards)
        Fix(G);
    }
    for (auto &[E, P] : NP.ExprIndex)
      Fix(P);
  }
  return Out;
}

bool bc::fusedModeRequested() {
  return std::getenv("PDL_EVAL_FUSED") != nullptr &&
         std::getenv("PDL_EVAL_TREE") == nullptr;
}

const char *bc::dispatchModeName() {
#if defined(__GNUC__) && !defined(PDL_NO_COMPUTED_GOTO)
  return "threaded";
#else
  return "switch";
#endif
}
