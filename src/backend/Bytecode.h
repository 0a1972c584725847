//===- Bytecode.h - Flat slot-indexed expression IR -------------*- C++ -*-===//
//
// Part of the PDL reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A linear three-address bytecode for PDL expressions, produced once at
/// elaboration time (see Compile.h) and executed every cycle by a tight
/// interpreter loop. Values live in a dense frame of Bits slots: slot
/// indices [0, NumVars) are the pipe's named variables (resolved from
/// strings exactly once, at compile time), the rest is per-program scratch.
/// Memory reads and extern calls dispatch through a two-method virtual
/// interface instead of per-site std::function objects.
///
//===----------------------------------------------------------------------===//

#ifndef PDL_BACKEND_BYTECODE_H
#define PDL_BACKEND_BYTECODE_H

#include "pdl/AST.h"
#include "support/Bits.h"

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace pdl {
namespace backend {
namespace bc {

/// Opcodes. Three-address form: A is the destination slot, B and C are
/// source slots unless noted otherwise.
enum class Op : uint8_t {
  Const,   // A = Pool[Imm]
  Copy,    // A = B
  Add,     // A = B + C           (width-checked, wrapping)
  Sub,     // A = B - C
  Mul,     // A = B * C
  UDiv,    // A = B /u C          (RISC-V div-by-zero semantics)
  SDiv,    // A = B /s C
  URem,    // A = B %u C
  SRem,    // A = B %s C
  And,     // A = B & C
  Or,      // A = B | C
  Xor,     // A = B ^ C
  Shl,     // A = B << C
  LShr,    // A = B >>u C
  AShr,    // A = B >>s C
  Eq,      // A = (B == C)        (1-bit result)
  Ne,      // A = (B != C)
  ULt,     // A = (B <u C)
  ULe,     // A = (B <=u C)
  SLt,     // A = (B <s C)
  SLe,     // A = (B <=s C)
  LogAnd,  // A = (B != 0 && C != 0)   -- eager, like the tree walker
  LogOr,   // A = (B != 0 || C != 0)
  LogNot,  // A = (B == 0)
  BitNot,  // A = ~B
  Neg,     // A = 0 - B           (two's complement at B's width)
  Slice,   // A = B{hi:lo}        (Imm = hi << 16 | lo)
  ZExt,    // A = zext(B) to width C
  SExt,    // A = sext(B) to width C
  Concat,  // A = B ++ C          (B is the high part)
  MemRead, // A = hooks.readMem(program, Imm, zext(B)); site MemSites[Imm]
  Extern,  // A = hooks.callExtern(program, Imm, &frame[B], C)
  BrFalse, // if (B == 0) goto Imm
  BrTrue,  // if (B != 0) goto Imm
  Jump,    // goto Imm
  Ret,     // return frame[B]
  RetTrue, // return Bits(1, 1)   (guard epilogue)
  RetFalse, // return Bits(0, 1)

  // --- Superinstructions (Fuse.h) -----------------------------------------
  //
  // Never emitted by the base compiler: bc::fuseProgram folds the exact
  // unfused sequences documented per opcode, and only when the folded-away
  // scratch destination is dead (never read at a later index; branches are
  // forward-only, so liveness is a suffix scan) and no branch targets the
  // interior of the window. The translation validator executes each
  // superinstruction as precisely this expansion (src/tv/Validate.cpp,
  // BcEval), so a fused program discharges the same obligations as its
  // unfused original.

  FusedCmpBr,   // expansion: cmp D,B,C ; BrFalse/BrTrue D,Imm   (D dead)
                //   A = cmp sub-opcode (Eq..SLe) | polarity << 8
                //   polarity 0: branch when cmp is false (BrFalse)
                //   polarity 1: branch when cmp is true  (BrTrue)
  FusedCmpRetBool, // expansion: cmp D,B,C ; BrFalse D,L ; RetTrue ; L: RetFalse
                //   (guard epilogue; D dead). A = sub-opcode | polarity << 8;
                //   polarity 0 returns cmp(B,C), polarity 1 (the BrTrue dual)
                //   returns !cmp(B,C), both as Bits(·,1).
  FusedRetBool, // expansion: BrFalse B,L ; RetTrue ; L: RetFalse
                //   A = polarity: 0 returns toBool(B), 1 (BrTrue dual)
                //   returns !toBool(B), both as Bits(·,1).
  FusedSelect,  // expansion: BrFalse B,Le ; then ; Jump Ld ; Le: else ; Ld:
                //   where each arm is one Copy/Const writing slot A.
                //   C = then operand, Imm bits [15:0] = else operand,
                //   Imm bit 16 = then arm is Const (operand = pool index),
                //   Imm bit 17 = else arm is Const. A = toBool(B) ? then : else.
  FusedBinK,    // expansion: Const K,Imm ; bin A,B,K   (or bin A,K,B)
                //   A = dest, B = slot operand, C = bin sub-opcode |
                //   const-on-left << 8, Imm = pool index of the constant.
  FusedRetOp    // expansion: op D,... ; Ret D   (D dead; pure ops only,
                //   never MemRead/Extern). A = sub-opcode, B/C/Imm = the
                //   expanded op's B/C/Imm; returns the op's result directly.
};

/// One past the largest opcode — the size of threaded-dispatch tables.
constexpr unsigned NumOpcodes = unsigned(Op::FusedRetOp) + 1;

/// Sentinel for "no slot" (e.g. a pipe call with no result binding).
constexpr uint16_t NoSlot = 0xffff;

struct Insn {
  Op Opc;
  uint16_t A = 0;
  uint16_t B = 0;
  uint16_t C = 0;
  uint32_t Imm = 0;
};

/// Signature of a natively compiled program (backend/Emit.h): the emitted
/// `extern "C" void sym(const void *prog, NB *frame, void *hooks, NB *ret)`
/// seen through host-side void pointers. Layout compatibility between the
/// emitted NB mirror and Bits is verified at dlopen time (NativeCache.cpp).
using NativeThunk = void (*)(const void *Prog, void *Frame, void *Hooks,
                             void *Ret);

/// One compiled expression (or fused guard conjunction). Self-contained:
/// constant pool and hook-site tables travel with the code.
struct ExprProgram {
  std::vector<Insn> Code;
  std::vector<Bits> Pool;
  std::vector<const ast::MemReadExpr *> MemSites;
  std::vector<const ast::ExternCallExpr *> ExternSites;
  /// Interned identity of each hook site, parallel to MemSites and
  /// ExternSites: the owning PipeProgram's Access index of every memory
  /// read, and its Externs index of every extern call. The executor's
  /// hooks address lock and module state through these, never by name.
  std::vector<uint16_t> MemAccess;
  std::vector<uint16_t> ExternMods;
  /// Non-null once native::attachModule has bound a compiled artifact:
  /// bc::exec dispatches here instead of interpreting Code. Never set on
  /// uncertified bytecode; always semantically identical to Code.
  NativeThunk Native = nullptr;
};

/// Services the two opcodes that escape the frame. One virtual dispatch per
/// site replaces the per-call std::function indirection of EvalHooks. A
/// site is named by its program and its index in the program's MemSites /
/// ExternSites (and the parallel MemAccess / ExternMods) tables.
class Hooks {
public:
  virtual ~Hooks() = default;
  virtual Bits readMem(const ExprProgram &P, unsigned Site, uint64_t Addr) = 0;
  virtual Bits callExtern(const ExprProgram &P, unsigned Site,
                          const Bits *Args, unsigned NumArgs) = 0;
};

/// The interpreter entry point (Compile.cpp): runs \p P's Code. Callers
/// use exec() below, which peels the native fast path off first.
Bits execInterp(const ExprProgram &P, Bits *Frame, Hooks &H);

/// Runs \p P over \p Frame. The frame must be at least the owning
/// PipeProgram's FrameSize; programs only write scratch slots (never named
/// variable slots) and always define a scratch slot before reading it.
///
/// Inline so the native tier dispatches straight to its compiled thunk:
/// entering the interpreter function just to branch back out would pay its
/// whole register-spilling prologue on every one of the millions of
/// per-cycle program evaluations.
inline Bits exec(const ExprProgram &P, Bits *Frame, Hooks &H) {
  if (P.Native) {
    // Same frame, same hooks, same return value as the interpreter — the
    // artifact only loads under a strict TV certificate (NativeCache.cpp).
    Bits R;
    P.Native(&P, Frame, &H, &R);
    return R;
  }
  return execInterp(P, Frame, H);
}

/// Runs a compiled guard; a null program is an always-true guard.
inline bool execGuard(const ExprProgram *P, Bits *Frame, Hooks &H) {
  return !P || exec(*P, Frame, H).toBool();
}

/// Compiled operand programs for one staged operation, aligned with the
/// statement kind's evaluation sites in System::walkOp.
struct OpProg {
  const ExprProgram *Guard = nullptr; // fused op guard; null = always fires
  const ExprProgram *E0 = nullptr;    // value / addr / actual / new-pred
  const ExprProgram *E1 = nullptr;    // mem-write value / predictor update
  std::vector<const ExprProgram *> Args; // pipe-call argument programs
  uint16_t Dest = NoSlot; // assign/sync-read dest; pipe-call result slot
  /// Interned operands (indices into the owning PipeProgram's tables):
  uint16_t Site = NoSlot;   // lock / mem-write / sync-read: Access
  uint16_t Handle = NoSlot; // spec call / verify / update: Handles
  uint16_t Callee = NoSlot; // pipe call: Callees
  uint16_t Extern = NoSlot; // verify's predictor update: Externs
};

/// A reservation key: one (memory, address expression, access mode) the
/// pipe reserves. A thread holds at most one live reservation per key, so
/// the executor keeps a thread's reservations in an array indexed by key.
struct ResKey {
  uint16_t Mem = 0; // index into the pipe's declared memories
  uint8_t Mode = 0; // an hw::Access value
};

/// One memory-access site: a lock operation, a memory write, a synchronous
/// read or a combinational read hook. Keys lists the reservation keys the
/// site may act on, in lookup order, NoSlot-padded: a reserve names its own
/// key; a mode-less block or release tries exclusive, then read, then
/// write; reads try read then exclusive; writes try write then exclusive.
/// Keys no operation of the pipe reserves are left out.
struct AccessSite {
  uint16_t Mem = 0; // index into the pipe's declared memories
  uint16_t Keys[3] = {NoSlot, NoSlot, NoSlot};
};

/// A compiler-inserted checkpoint (Section 2.5): memory Mem is
/// checkpointed when a speculating thread fires stage Stage.
struct CkptSite {
  uint16_t Mem = 0;
  unsigned Stage = 0;
};

/// Per-stage mirror of the stage graph: programs are indexed positionally,
/// aligned with Stage::Ops, Stage::Succs, and Stage::TagRules.
struct StageProg {
  std::vector<OpProg> Ops;
  std::vector<const ExprProgram *> EdgeGuards;
  std::vector<const ExprProgram *> TagGuards;
};

/// Everything compiled for one pipe.
struct PipeProgram {
  std::string Name;

  /// Slot-index -> source-level variable name, for trace dumps, fault
  /// diagnostics, and the tree-mode Env view. Size NumVars.
  std::vector<std::string> SlotNames;
  std::unordered_map<std::string, uint16_t> SlotIndex;
  unsigned NumVars = 0;

  /// Total frame size: NumVars variable slots plus the widest program's
  /// scratch requirement.
  unsigned FrameSize = 0;

  /// Template for a fresh thread frame: per-variable zero defaults at the
  /// declared widths (an unbound read in the tree walker yields zero at the
  /// reference site's width; the dense frame bakes that in), scratch slots
  /// default-initialised.
  std::vector<Bits> InitFrame;

  /// Slot of each pipe parameter, in declaration order.
  std::vector<uint16_t> ParamSlots;

  /// Stage mirrors indexed by Stage::Id. Empty for modules compiled without
  /// a stage graph (the sequential oracle only needs statement programs).
  std::vector<StageProg> Stages;

  /// Lock and speculation state interned once per compiled circuit, so the
  /// executor addresses thread, lock and probe state by index. ResKeys in
  /// first-reserve order; Handles (spec handle names) and Callees / Externs
  /// (pipe and extern module names) in first-use order; Ckpts in memory
  /// name order, the order rollbacks are applied in.
  std::vector<ResKey> ResKeys;
  std::vector<AccessSite> Access;
  std::vector<std::string> Handles;
  std::vector<CkptSite> Ckpts;
  std::vector<std::string> Callees;
  std::vector<std::string> Externs;
  /// Access index of each combinational read by AST node, for the tree
  /// evaluator's hook, which sees only the node.
  std::unordered_map<const ast::MemReadExpr *, uint16_t> ReadAccess;

  /// Program storage (deque: stable addresses as programs are appended).
  std::deque<ExprProgram> Programs;

  /// Statement-operand and if-condition programs keyed by AST node, for
  /// callers that walk the statement list directly (SeqInterpreter).
  std::unordered_map<const ast::Expr *, const ExprProgram *> ExprIndex;

  uint16_t slotOf(const std::string &Name) const {
    auto It = SlotIndex.find(Name);
    return It == SlotIndex.end() ? NoSlot : It->second;
  }
  const ExprProgram *programFor(const ast::Expr *E) const {
    auto It = ExprIndex.find(E);
    return It == ExprIndex.end() ? nullptr : It->second;
  }
};

/// An immutable compiled circuit: one PipeProgram per pipe. Safe to share
/// across Systems and worker threads (construction happens-before use; all
/// members are read-only afterwards).
struct ModuleIR {
  std::unordered_map<std::string, PipeProgram> Pipes;

  /// Native-tier state (backend/NativeCache.h). NativeLib keeps the
  /// dlopen'd artifact alive for as long as any program's Native thunk may
  /// run; NativeCompiler is the compiler identity line ("" when the module
  /// is interpreted); NativeCacheHit says the artifact came warm from disk.
  std::shared_ptr<void> NativeLib;
  std::string NativeCompiler;
  bool NativeCacheHit = false;

  const PipeProgram *pipe(const std::string &Name) const {
    auto It = Pipes.find(Name);
    return It == Pipes.end() ? nullptr : &It->second;
  }
};

} // namespace bc
} // namespace backend
} // namespace pdl

#endif // PDL_BACKEND_BYTECODE_H
