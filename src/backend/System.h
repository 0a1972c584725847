//===- System.h - Elaborated pipelined circuit executor --------*- C++ -*-===//
//
// Part of the PDL reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The back half of the PDL compiler, standing in for the paper's BSV code
/// generation + RTL simulation (Section 5): a checked program elaborates
/// into an executable cycle-accurate circuit.
///
/// The execution model mirrors the paper's strategy one-to-one:
///  * each stage is one atomic rule, fired at most once per cycle;
///  * inter-stage edges are FIFOs (default depth 2, like the BSV default);
///    enqueues become visible the next cycle;
///  * rules run deepest-stage-first within a cycle so that lock writes and
///    speculation resolutions are combinationally visible to younger
///    threads in earlier stages — the two scheduling directives of §5.1;
///  * a rule stalls (does not fire) when: a block()ed lock is not ready, a
///    spec_barrier is unresolved, lock/speculation resources are exhausted,
///    a synchronous response is outstanding, or downstream FIFOs are full;
///  * stage rules are evaluated twice per firing: a pure probe pass that
///    decides fire/stall/kill, then a commit pass that applies effects --
///    this models the combinational stall logic of the generated circuit;
///  * out-of-order regions use per-join coordination-tag FIFOs fed by the
///    fork stage (Figure 2);
///  * misspeculated threads are squashed at stage entry and speculative
///    lock state is rolled back to the parent's checkpoint (Section 2.5).
///
/// Observability: every stage outcome (fire or a typed StallCause), thread
/// lifecycle step, FIFO move, lock reserve/release and speculation
/// resolution is emitted as a structured obs::Event to attached
/// obs::TraceSinks. With no sink attached emission is a single predictable
/// branch per site. Pipes and memories are addressed by interned
/// PipeHandle/MemHandle resolved once at elaboration; the string-keyed
/// accessors are retained as thin shims.
///
/// Inside the clock loop nothing is looked up by name: reservation keys,
/// access sites, spec handles and checkpointed memories are interned to
/// dense indices by bc::compileModule, and a thread's lock, speculation and
/// checkpoint state are arrays addressed by those indices.
///
//===----------------------------------------------------------------------===//

#ifndef PDL_BACKEND_SYSTEM_H
#define PDL_BACKEND_SYSTEM_H

#include "backend/Compile.h"
#include "backend/Eval.h"
#include "backend/SeqInterp.h"
#include "hw/Extern.h"
#include "hw/Fault.h"
#include "hw/Fifo.h"
#include "hw/Lock.h"
#include "hw/SpecTable.h"
#include "mem/MemModel.h"
#include "obs/Json.h"
#include "obs/TraceSink.h"
#include "passes/Compiler.h"
#include "support/BinIO.h"

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace pdl {
namespace backend {

enum class LockKind { Queue, Bypass, Rename };

/// How a run ended: the structured successor of the Halted/Deadlocked
/// booleans. `Running` until run() returns; `Drained` means every thread
/// retired without a halt-watch write; `TimedOut` means MaxCycles elapsed
/// with work still in flight.
enum class RunOutcome : uint8_t { Running, Halted, Drained, Deadlocked,
                                  TimedOut };

const char *runOutcomeName(RunOutcome O);

/// One blocked stage in the deadlock wait-for graph: which resource it
/// waits on and, when resolvable, the thread (and its current stage)
/// holding that resource.
struct WaitForEdge {
  std::string Pipe;
  std::string Stage;
  uint64_t Tid = 0; // the blocked thread (0 when no input thread)
  obs::StallCause Cause = obs::StallCause::None;
  std::string Resource;    // lock memory, "spec-table", a FIFO edge, ...
  uint64_t HolderTid = 0;  // 0 = no specific holding thread resolved
  std::string HolderStage; // "pipe/stage" where the holder sits
};

/// Captured by run() when it declares deadlock: every blocked stage, what
/// it waits for, and (when the holder chain closes) the cycle in the graph.
struct DeadlockDiagnosis {
  uint64_t Cycle = 0;
  std::vector<WaitForEdge> Edges;
  std::vector<std::string> WaitCycle; // "pipe/stage" nodes forming a cycle

  bool valid() const { return !Edges.empty(); }
  std::string render() const;
  obs::Json toJsonValue() const;
};

class System;

/// An interned reference to an elaborated pipe: resolved from its name
/// once, then O(1) to use. Obtained from System::pipeHandle().
class PipeHandle {
public:
  PipeHandle() = default;
  bool valid() const { return Idx != ~0u; }
  unsigned index() const { return Idx; }
  bool operator==(const PipeHandle &O) const { return Idx == O.Idx; }

private:
  friend class System;
  friend class MemHandle;
  explicit PipeHandle(unsigned Idx) : Idx(Idx) {}
  unsigned Idx = ~0u;
};

/// An interned reference to one memory of one pipe. Obtained from
/// System::memHandle().
class MemHandle {
public:
  MemHandle() = default;
  bool valid() const { return Pipe != ~0u; }
  PipeHandle pipe() const { return PipeHandle(Pipe); }
  unsigned index() const { return Mem; }
  bool operator==(const MemHandle &O) const {
    return Pipe == O.Pipe && Mem == O.Mem;
  }

private:
  friend class System;
  MemHandle(unsigned Pipe, unsigned Mem) : Pipe(Pipe), Mem(Mem) {}
  unsigned Pipe = ~0u;
  unsigned Mem = ~0u;
};

/// Elaboration parameters (the microarchitectural knobs outside the PDL
/// source: lock implementation choice, FIFO depths, table sizes) plus the
/// observability knobs.
struct ElabConfig {
  /// Lock implementation per "pipe.mem"; memories not listed get Default.
  std::map<std::string, LockKind> LockChoice;
  LockKind DefaultLock = LockKind::Bypass;
  unsigned FifoDepth = 2;
  unsigned EntryDepth = 4;
  unsigned TagDepth = 8;
  unsigned SpecCapacity = 8;
  /// Response latency (cycles) per synchronous "pipe.mem"; default 1
  /// (every access is a cache hit, as in the paper's evaluation).
  /// Deprecated shim: an entry here elaborates a mem::FixedLatency(N)
  /// model; MemModels below is the full-fidelity knob and wins on overlap.
  std::map<std::string, unsigned> MemLatency;
  /// Memory-hierarchy model per "pipe.mem" (falls back to the bare memory
  /// name, then to FixedLatency(1) — the paper's always-hit assumption).
  /// Cache configs sharing a non-empty ShareTag are elaborated over one
  /// shared single-ported backing (the L1I/L1D Hierarchy composition).
  std::map<std::string, mem::MemConfig> MemModels;
  /// Trace sinks attached at construction (equivalent to calling
  /// attachSink() on each). Caller-owned; must outlive the System.
  std::vector<obs::TraceSink *> Sinks;
  /// Pre-compiled bytecode circuit to share across Systems elaborated from
  /// the same CompiledProgram (sim::BatchRunner reuses one per core). When
  /// null the System compiles its own at construction. Must have been
  /// produced by bc::compileModule over the same CompiledProgram.
  std::shared_ptr<const bc::ModuleIR> CompiledIR;
  /// Evaluate expressions with the legacy tree walker instead of the
  /// compiled bytecode (differential escape hatch; also enabled by the
  /// PDL_EVAL_TREE environment variable).
  bool EvalTree = false;
  /// Run the superinstruction-fused lowering of the bytecode (backend/
  /// Fuse.h; also enabled by PDL_EVAL_FUSED). Ignored under EvalTree.
  /// When CompiledIR is supplied the caller is responsible for passing an
  /// already-fused circuit (cores::Core keys its shared cache by mode);
  /// otherwise the System fuses its self-compiled circuit. Results are
  /// byte-identical to bytecode mode by construction — fusion never
  /// changes frame layout or hook order.
  bool EvalFused = false;
  /// Run the natively compiled tier (backend/NativeCache.h; also enabled
  /// by PDL_EVAL_NATIVE). Ignored under EvalTree; outranks EvalFused.
  /// When CompiledIR is supplied the caller passes a fused circuit whose
  /// programs may carry attached native thunks (cores::Core certifies and
  /// attaches; see native::attachModule's certificate gate). A System that
  /// self-compiles under this flag runs the fused lowering uncompiled —
  /// attachment requires the TV certificate only the cores/pdlc layers can
  /// mint — which is the documented graceful-fallback behaviour, and
  /// byte-identical by construction.
  bool EvalNative = false;
};

/// Cheap always-on global counters. Retained for compatibility and for the
/// executor's internal attribution invariant; the structured per-pipe /
/// per-stage / per-cause view is obs::StatsReport, produced by an attached
/// obs::CounterSink.
struct SystemStats {
  uint64_t Cycles = 0;
  std::map<std::string, uint64_t> Retired; // per pipe
  std::map<std::string, uint64_t> Killed;  // squashed threads per pipe
  uint64_t StageFires = 0;
  /// Stage probes that had an input thread (fires + kills + stalls). The
  /// per-cause stall counters below must sum to
  /// ProbeAttempts - StageFires - StageKills every cycle; applyEndOfCycle
  /// asserts it so attribution stays exact as causes are added.
  uint64_t ProbeAttempts = 0;
  uint64_t StageKills = 0;    // input thread squashed at stage entry
  uint64_t StallLock = 0;     // block()/reserve resources
  uint64_t StallSpec = 0;     // spec_barrier / spec-table capacity
  uint64_t StallResponse = 0; // outstanding synchronous responses
  uint64_t StallBackpressure = 0;
  bool Deadlocked = false;
  /// Structured run outcome, set when run() returns.
  RunOutcome Outcome = RunOutcome::Running;
  /// Faults actually triggered by armed hw::FaultPlans (see armFault).
  uint64_t FaultsInjected = 0;
};

/// An elaborated, runnable system of pipelines.
class System {
public:
  System(const CompiledProgram &CP, ElabConfig Cfg);
  ~System();

  //===--------------------------------------------------------------------===//
  // Interned-handle API (primary): resolve names once at elaboration.
  //===--------------------------------------------------------------------===//

  /// Resolves a pipe name. Asserts the pipe exists.
  PipeHandle pipeHandle(const std::string &Pipe) const;

  /// Resolves one memory of a pipe. Asserts both exist.
  MemHandle memHandle(const std::string &Pipe, const std::string &Mem) const;
  MemHandle memHandle(PipeHandle P, const std::string &Mem) const;

  const std::string &pipeName(PipeHandle P) const;
  const std::string &memName(MemHandle M) const;

  /// Storage access (load programs before calling start()).
  hw::Memory &memory(MemHandle M);

  /// The memory-hierarchy timing model behind a synchronous memory, for
  /// reading its hit/miss/traffic stats; null for combinational memories.
  const mem::MemModel *memModel(MemHandle M) const;

  /// The lock instance guarding a memory (valid after start()).
  hw::HazardLock &lock(MemHandle M);

  /// Stops the simulation when a committed write hits this location.
  void setHaltOnWrite(MemHandle M, uint64_t Addr);

  /// True when \p P's entry queue can accept another start() request.
  bool canAccept(PipeHandle P);

  /// Spawns the initial thread of \p P (elaborates locks on first use).
  void start(PipeHandle P, std::vector<Bits> Args);

  /// Committed (retired) thread traces of \p P, oldest first.
  const std::vector<ThreadTrace> &trace(PipeHandle P) const;

  /// Reads committed architectural state through the lock (if any).
  Bits archRead(MemHandle M, uint64_t Addr);

  //===--------------------------------------------------------------------===//
  // String-keyed shims (deprecated): resolve the handle per call and
  // delegate. Kept so existing tests/benches keep compiling; new code
  // should intern handles once.
  //===--------------------------------------------------------------------===//

  hw::Memory &memory(const std::string &Pipe, const std::string &Mem) {
    return memory(memHandle(Pipe, Mem));
  }
  hw::HazardLock &lock(const std::string &Pipe, const std::string &Mem) {
    return lock(memHandle(Pipe, Mem));
  }
  void setHaltOnWrite(const std::string &Pipe, const std::string &Mem,
                      uint64_t Addr) {
    setHaltOnWrite(memHandle(Pipe, Mem), Addr);
  }
  /// With drain-on-halt, the halt store does not stop the clock at once:
  /// the system keeps cycling (bounded) until every thread at least as old
  /// as the halting one has left the pipeline, so that e.g. a load miss
  /// still waiting in writeback lands its architectural result. Threads
  /// younger than the halting store retire untraced and uncounted — they
  /// are past the architectural end of the program. Off by default; the
  /// differential harness enables it.
  void setDrainOnHalt(bool B) { DrainOnHalt = B; }
  bool canAccept(const std::string &Pipe) {
    return canAccept(pipeHandle(Pipe));
  }
  void start(const std::string &Pipe, std::vector<Bits> Args) {
    start(pipeHandle(Pipe), std::move(Args));
  }
  const std::vector<ThreadTrace> &trace(const std::string &Pipe) const {
    return trace(pipeHandle(Pipe));
  }
  Bits archRead(const std::string &Pipe, const std::string &Mem,
                uint64_t Addr) {
    return archRead(memHandle(Pipe, Mem), Addr);
  }

  void bindExtern(const std::string &Name, hw::ExternModule *Module);

  /// Advances one clock cycle.
  void cycle();

  /// Runs until halt, deadlock, or \p MaxCycles. Returns cycles consumed.
  uint64_t run(uint64_t MaxCycles);

  bool halted() const { return Halted; }
  const SystemStats &stats() const { return Stats; }

  //===--------------------------------------------------------------------===//
  // Snapshot / restore (src/backend/Snapshot.cpp)
  //===--------------------------------------------------------------------===//

  /// Digest of the elaborated structure (pipes, stages, memories, lock and
  /// model configuration). A snapshot only restores into a System whose
  /// digest matches — same program, same ElabConfig.
  uint64_t configDigest() const;

  /// Serializes the complete dynamic state — every in-flight thread, FIFO,
  /// lock, memory, spec table, timing model, predictor, pending delivery,
  /// armed fault and counter — as a versioned, digest-stamped, CRC-guarded
  /// blob. Must be taken at a cycle boundary (outside cycle()); resuming a
  /// restored System is byte-for-byte equivalent to never having stopped.
  std::string snapshot();

  /// Inverse of snapshot(): overwrites this System's dynamic state from
  /// \p Blob. The System must be freshly elaborated from the same program
  /// and ElabConfig (configDigest() match is enforced) with the same
  /// externs bound. Returns false — leaving no guarantees about partial
  /// state — on a truncated, corrupt, or mismatched blob; \p Err, when
  /// non-null, receives the reason.
  bool restore(const std::string &Blob, std::string *Err = nullptr);

  /// Arranges for \p Fn to run inside run() at every absolute-cycle
  /// multiple of \p Every (checkpoint cadence for crash-safe services).
  /// The hook must treat the System as read-only; taking a snapshot() is
  /// the intended use. Every = 0 disables.
  void setCheckpointHook(uint64_t Every, std::function<void(uint64_t)> Fn) {
    CkptEvery = Every;
    CkptHook = std::move(Fn);
  }

  //===--------------------------------------------------------------------===//
  // Verification harness
  //===--------------------------------------------------------------------===//

  /// Arms one seeded fault (src/hw/Fault.h) so the Nth matching operation
  /// is perturbed. Forces lock elaboration; call after construction, before
  /// or during the run. Triggered faults bump stats().FaultsInjected and
  /// emit an obs FaultInjected event.
  void armFault(const hw::FaultPlan &Plan);

  /// The wait-for-graph diagnosis captured when run() declared deadlock
  /// (invalid — no edges — otherwise).
  const DeadlockDiagnosis &deadlockDiagnosis() const { return Diag; }

  //===--------------------------------------------------------------------===//
  // Observability
  //===--------------------------------------------------------------------===//

  /// The interning table events are expressed against.
  const obs::TraceMeta &traceMeta() const { return Meta; }

  /// Attaches \p S for the rest of this System's life: it receives
  /// begin(traceMeta()) now and every subsequent event. Caller-owned; must
  /// outlive the System (or outlive finishTrace()).
  void attachSink(obs::TraceSink &S);

  /// Delivers end() to attached sinks (idempotent; also run by ~System).
  void finishTrace();

private:
  struct PipeInstance;

  /// A thread's live reservation under one reservation key.
  struct ResRec {
    hw::ResId Id = 0; // 0 = the key is not held
    uint64_t Addr = 0;
    uint64_t WrittenVal = 0;
    bool Written = false;
  };

  /// Capacities of a thread's reservation, spec-handle and checkpoint
  /// arrays; a pipe declaring more keys, handles or checkpointed memories
  /// is refused at elaboration.
  static constexpr unsigned MaxResKeys = 8;
  static constexpr unsigned MaxHandles = 4;
  static constexpr unsigned MaxCkpts = 4;

  struct Thread {
    uint64_t Tid = 0;
    /// Dense value frame, laid out by the pipe's bc::PipeProgram: slots
    /// [0, NumVars) are the named variables, the rest per-walk scratch.
    std::vector<Bits> Frame;
    hw::SpecId MySpec = 0; // 0 = spawned non-speculatively
    /// Reservations by interned key (bc::PipeProgram::ResKeys), NumRes of
    /// them held; spec entries by interned handle (PipeProgram::Handles);
    /// lock checkpoints by interned checkpoint (PipeProgram::Ckpts); id 0
    /// = none. Fixed arrays: spawning, reserving and releasing allocate
    /// nothing beyond the frame.
    std::array<ResRec, MaxResKeys> Res{};
    unsigned NumRes = 0;
    std::array<hw::SpecId, MaxHandles> Handles{};
    std::array<hw::CkptId, MaxCkpts> Ckpts{};
    unsigned UnresolvedSpec = 0;
    unsigned PendingResp = 0;
    ThreadTrace Trace;
    // Cross-pipe request bookkeeping (set on callee threads).
    PipeInstance *CallerP = nullptr;
    uint64_t CallerTid = 0;
    uint16_t CallerSlot = bc::NoSlot; // result slot in the caller's frame
    bool HasCaller = false;
  };

  /// A coordination tag: which predecessor the tagged thread will use.
  struct TagTok {
    unsigned Tag = 0;
    uint64_t Tid = 0;
  };

  /// A multi-stage lock region (Section 4.1): reservations for one memory
  /// spanning stages [First, Last] must be made atomically per thread, so
  /// only one thread may occupy those stages at a time.
  struct LockRegion {
    uint16_t Mem = 0; // interned memory index
    unsigned First = 0;
    unsigned Last = 0;
    std::optional<uint64_t> OccupantTid;
  };

  struct PipeInstance {
    const CompiledPipe *CP = nullptr;
    const bc::PipeProgram *Prog = nullptr; // compiled circuit for this pipe
    std::string Name;
    unsigned Index = 0; // position in PipeSeq == PipeHandle::index()
    std::vector<LockRegion> Regions;
    hw::Fifo<Thread> Entry;
    std::map<std::pair<unsigned, unsigned>, hw::Fifo<Thread>> EdgeFifos;
    std::vector<hw::Fifo<TagTok>> TagQueues; // by join stage id
    /// Dense per-stage views into EdgeFifos (which stays the owner),
    /// resolved once at elaboration so the per-cycle path never touches
    /// the pair-keyed map: input FIFO per predecessor index and output
    /// FIFO per successor-edge index (matching Stage::Preds/Succs order).
    std::vector<std::vector<hw::Fifo<Thread> *>> PredFifos;
    std::vector<std::vector<hw::Fifo<Thread> *>> SuccFifos;
    /// Join stages forked from each stage (J.ForkStage == stage id), in
    /// stage-graph order — replaces the per-firing scan over all stages.
    std::vector<std::vector<const Stage *>> ForkJoins;
    /// Prog->Ckpts indices whose checkpoint is taken at each stage (only
    /// memories with a lock), by stage id.
    std::vector<std::vector<uint16_t>> CkptsAt;
    /// Prog->Callees / Prog->Externs resolved to their instances.
    std::vector<PipeInstance *> Callees;
    std::vector<hw::ExternModule *> ExternByIdx;
    /// Lazily bound Stats.Retired / Stats.Killed entries for this pipe
    /// (node addresses are stable), so retire/kill skip the string map.
    uint64_t *RetiredCtr = nullptr;
    uint64_t *KilledCtr = nullptr;
    std::map<std::string, std::unique_ptr<hw::Memory>> Mems;
    std::map<std::string, std::unique_ptr<hw::HazardLock>> Locks;
    /// Interning tables for the handle API and event emission.
    std::vector<std::string> MemNames;       // by interned index
    std::map<std::string, unsigned> MemIdx;  // name -> interned index
    std::vector<hw::Memory *> MemByIdx;      // by interned index
    std::vector<hw::HazardLock *> LockByIdx; // by interned index (or null)
    /// Timing model per interned memory index (null for combinational
    /// memories, which answer in the same cycle and have no hierarchy).
    std::vector<mem::MemModel *> ModelByIdx;
    hw::SpecTable Spec;
    std::vector<ThreadTrace> Retired;

    PipeInstance(unsigned EntryDepth, unsigned SpecCap)
        : Entry(EntryDepth), Spec(SpecCap) {}
  };

  /// Forwards one FIFO's enq/deq activity to the trace bus (installed only
  /// once a sink is attached).
  struct FifoTap : hw::Fifo<Thread>::Listener {
    System *Sys = nullptr;
    uint16_t Pipe = 0;
    uint16_t From = obs::NoEdge, To = obs::NoEdge;
    void onEnq(const Thread &T, size_t Depth) override;
    void onDeq(const Thread &T, size_t Depth) override;
  };

  enum class WalkMode { Probe, Commit };
  enum class FireResult { Fire, Stall, Kill };

  struct WalkCtx {
    WalkMode Mode;
    /// Working frame (the commit pass runs in place on the thread's own
    /// frame; the probe pass on a reusable scratch copy).
    Bits *Frame = nullptr;
    /// Tree-mode only (ElabConfig::EvalTree): a name-keyed view of the
    /// frame for the legacy evaluator; synced back by slot after commit.
    Env TreeVars;
    /// Probe pass only: why the stage stalled (set exactly when an op
    /// returns Stall) and, for lock and memory stalls, the memory index
    /// responsible. The probe's lock state lives in System (ProbeReserved,
    /// LockProbes), reset per probe walk.
    obs::StallCause Cause = obs::StallCause::None;
    uint16_t CauseMem = obs::NoMem;
  };

  /// A reservation made earlier in the stage being probed.
  struct ProbeRes {
    uint16_t Key;
    uint64_t Addr;
  };

  PipeInstance &pipe(const std::string &Name);
  const PipeInstance &pipeFor(PipeHandle P) const;
  void elaborateLocks();

  /// Instantiates the timing model for every synchronous memory of \p P
  /// from Cfg.MemModels / Cfg.MemLatency (default FixedLatency(1)).
  void buildMemModels(PipeInstance &P);
  hw::HazardLock *lockFor(PipeInstance &P, const std::string &Mem);

  /// Dequeues squashed threads at the front of the stage's input, then
  /// returns the live input thread, or null if none.
  Thread *stageInput(PipeInstance &P, const Stage &S, unsigned &PredIdx);

  /// Removes and returns the stage's input thread (join stages also pop
  /// the coordination tag).
  Thread dequeueInput(PipeInstance &P, const Stage &S, unsigned PredIdx);

  FireResult walkStage(PipeInstance &P, const Stage &S, Thread &T,
                       WalkCtx &Ctx);
  FireResult walkOp(PipeInstance &P, const ast::Stmt &S, const bc::OpProg &OP,
                    Thread &T, WalkCtx &Ctx);

  /// Picks the successor edge whose guard holds (null if terminal stage).
  /// \p Ctx must hold the thread's values (probe frame or tree Env).
  const StageEdge *pickSuccessor(PipeInstance &P, const Stage &S,
                                 WalkCtx &Ctx);

  /// Points \p Ctx at the values of \p T: the probe pass copies the named
  /// variables into the reusable probe scratch frame, the commit pass runs
  /// in place on the thread's own frame. Tree mode builds the Env view.
  void bindWalkFrame(PipeInstance &P, Thread &T, WalkCtx &Ctx);
  /// Tree mode only: writes Ctx.TreeVars back into the thread frame after
  /// a commit walk (bytecode mode commits in place and needs no sync).
  void syncWalkFrame(PipeInstance &P, Thread &T, WalkCtx &Ctx);

  void tryFireStage(PipeInstance &P, const Stage &S);

  /// Books the single per-stage per-cycle outcome: updates the legacy
  /// counters and, when tracing, emits the StageOutcome event. \p CauseMem
  /// is the memory index responsible for a Lock stall (or obs::NoMem).
  void noteOutcome(PipeInstance &P, const Stage &S, obs::StallCause C,
                   uint64_t Tid, uint16_t CauseMem = obs::NoMem);

  /// A fresh thread of \p P: next tid, initial frame, empty lock state.
  Thread newThread(PipeInstance &P);
  void killThread(PipeInstance &P, Thread &&T);
  void retireThread(PipeInstance &P, Thread &&T);
  void recordCommit(PipeInstance &P, unsigned MemI, uint64_t Addr,
                    uint64_t Val, Thread &T);

  void emitThreadEvent(obs::Event::Kind K, PipeInstance &P, uint64_t Tid);
  void installTaps();

  /// Rebinds the persistent evaluation hooks (HotHooks) to this walk's
  /// pipe/thread/context and returns them. The hooks close over the Cur*
  /// members only, so rebinding is three pointer stores — not two
  /// std::function heap allocations per stage walk.
  const EvalHooks &hooksFor(PipeInstance &P, Thread &T, WalkCtx &Ctx);

  /// The probe walk's lock state for memory \p MemI of the pipe being
  /// probed (same-stage releases and reserves), reset on first use in each
  /// probe walk.
  hw::LockProbe &lockProbe(unsigned MemI);
  /// The first of \p A's keys \p T holds — or, in the probe pass, reserved
  /// earlier in the stage — in lookup order; NoSlot when none.
  uint16_t heldKey(const Thread &T, const bc::AccessSite &A, bool Probe) const;
  /// Index into ProbeReserved of key \p K, or -1.
  int probeReserved(uint16_t K) const;

  // Deferred activity applied at end of cycle.
  struct PendingEnq {
    PipeInstance *P;
    hw::Fifo<Thread> *F; // &P->Entry or an edge FIFO of P
    Thread T;
  };
  struct PendingTag {
    PipeInstance *P;
    unsigned Join;
    unsigned Tag;
    uint64_t Tid;
  };
  struct Delivery {
    uint64_t DueCycle;
    PipeInstance *P;
    uint64_t Tid;
    uint16_t Slot; // destination in the thread's frame
    Bits Value;
  };

  unsigned pendingEnqCount(const hw::Fifo<Thread> *F) const;
  void applyEndOfCycle();
  Thread *findThread(PipeInstance &P, uint64_t Tid);

  /// One armed executor-level fault (hw-level kinds are delegated to the
  /// primitive's own arming hooks in armFault).
  struct ArmedFault {
    hw::FaultPlan Plan;
    uint64_t Countdown = 1;
    bool Fired = false;
    uint64_t RescuedTid = 0; // SkipSquash: the thread spared its squash
  };

  /// Accounting for a fault that actually triggered.
  void noteFault(PipeInstance &P, hw::FaultKind K, uint64_t Tid);
  ArmedFault *armedFault(hw::FaultKind K, const PipeInstance &P);
  /// Consumes one occurrence of \p K in \p P (commit-pass sites only, so
  /// probe and commit never disagree). A memory index \p MemI filters lock
  /// faults by the plan's memory name.
  bool consumeFault(hw::FaultKind K, PipeInstance &P, uint64_t Tid,
                    unsigned MemI = ~0u);
  /// SkipSquash: true when the squash of \p Tid should be suppressed.
  /// Sticky per thread so every squash point sees the same answer.
  bool rescueSquash(PipeInstance &P, uint64_t Tid);

  DeadlockDiagnosis diagnoseDeadlock();
  /// "pipe/stage" the thread would fire at next, or "" if not queued.
  std::string stageOfThread(uint64_t Tid) const;

  // Snapshot codec helpers (Snapshot.cpp).
  void saveThread(support::BinWriter &W, const Thread &T) const;
  bool loadThread(support::BinReader &R, Thread &T);
  void saveStats(support::BinWriter &W) const;
  bool loadStats(support::BinReader &R);
  /// Remaining armed count of a hw-delegated fault plan, read back from the
  /// primitive it was armed on (0 = already fired / disarmed).
  uint64_t hwArmRemaining(const hw::FaultPlan &Plan);

  const CompiledProgram &CP;
  ElabConfig Cfg;
  std::map<std::string, std::unique_ptr<PipeInstance>> Pipes;
  std::vector<PipeInstance *> PipeSeq; // by PipeHandle index (map order)
  /// The firing order, precomputed at elaboration: pipes in PipeSeq order,
  /// stages deepest-first within each pipe (the §5.1 scheduling directive).
  std::vector<std::pair<PipeInstance *, const Stage *>> FireOrder;
  /// Probe-walk lock state (see lockProbe/heldKey): reservations made
  /// earlier in the stage, and one LockProbe per memory index, valid while
  /// its stamp equals ProbeStamp. Reused across walks: no allocation in
  /// steady state.
  std::vector<ProbeRes> ProbeReserved;
  std::vector<hw::LockProbe> LockProbes;
  std::vector<uint64_t> LockProbeStamp;
  uint64_t ProbeStamp = 0;
  hw::LockProbe ProbeMinus; // scratch for a block on a same-stage reserve
  /// See hooksFor(): the lazily built hook pair and the walk they are
  /// currently bound to.
  EvalHooks HotHooks;
  PipeInstance *CurP = nullptr;
  Thread *CurT = nullptr;
  WalkCtx *CurCtx = nullptr;

  /// Shared hook bodies behind both dispatch mechanisms (the bytecode
  /// interpreter's virtual Hooks and tree mode's std::function EvalHooks):
  /// a read at interned access site \p Site, a call of interned module
  /// \p Mod.
  Bits hookReadMem(uint16_t Site, uint64_t Addr);
  Bits hookCallExtern(const ast::ExternCallExpr &Call, uint16_t Mod,
                      const Bits *Args, unsigned NumArgs);

  /// bc::Hooks impl for the bytecode interpreter: one virtual dispatch per
  /// mem-read / extern-call site, no std::function on the hot path.
  struct BcDispatch final : bc::Hooks {
    System *Sys = nullptr;
    Bits readMem(const bc::ExprProgram &P, unsigned Site,
                 uint64_t Addr) override {
      return Sys->hookReadMem(P.MemAccess[Site], Addr);
    }
    Bits callExtern(const bc::ExprProgram &P, unsigned Site, const Bits *Args,
                    unsigned NumArgs) override {
      return Sys->hookCallExtern(*P.ExternSites[Site], P.ExternMods[Site],
                                 Args, NumArgs);
    }
  };
  BcDispatch Dispatch;

  /// The compiled circuit (shared via ElabConfig::CompiledIR or owned).
  std::shared_ptr<const bc::ModuleIR> IR;
  /// Reusable probe-pass frame, sized to the largest pipe FrameSize.
  std::vector<Bits> ProbeScratch;
  /// Reusable argument buffers for extern value calls and for verify's
  /// predictor update (whose argument programs may themselves call externs).
  std::vector<Bits> ArgScratch;
  std::vector<Bits> UpdateArgs;
  /// Legacy tree-walking evaluation (ElabConfig::EvalTree / PDL_EVAL_TREE).
  bool TreeMode = false;
  /// Superinstruction-fused bytecode (ElabConfig::EvalFused /
  /// PDL_EVAL_FUSED). Recorded in configDigest like TreeMode: snapshot
  /// resume is same-mode.
  bool FusedMode = false;
  /// Natively compiled circuit requested (ElabConfig::EvalNative /
  /// PDL_EVAL_NATIVE). Recorded in configDigest like the other modes —
  /// the *requested* mode, even when the tier degraded to fused
  /// interpretation, so cross-mode restore refusal stays deterministic.
  bool NativeMode = false;
  std::map<std::string, hw::ExternModule *> Externs;
  std::vector<PendingEnq> PendingEnqs;
  std::vector<PendingTag> PendingTags;
  std::vector<Delivery> Deliveries; // in request order
  /// Storage for the elaborated memory-hierarchy models, plus the shared
  /// single-ported backings keyed by MemConfig::ShareTag.
  std::vector<std::unique_ptr<mem::MemModel>> OwnedModels;
  std::map<std::string, std::unique_ptr<mem::MemModel>> SharedBackings;
  /// (pipe index, interned memory index, address) of the halt watch.
  std::optional<std::tuple<unsigned, unsigned, uint64_t>> HaltWatch;
  std::vector<ArmedFault> Faults;
  /// Fault plans whose arming was delegated to a hardware primitive
  /// (FIFO / lock / spec-table arms). Recorded so snapshot() can read the
  /// remaining count back from the primitive and restore() can re-arm.
  std::vector<hw::FaultPlan> HwArmedPlans;
  DeadlockDiagnosis Diag;
  SystemStats Stats;
  obs::TraceBus Bus;
  obs::TraceMeta Meta;
  std::vector<std::unique_ptr<FifoTap>> Taps;
  bool TapsInstalled = false;
  bool Halted = false;
  bool DrainOnHalt = false;
  std::optional<uint64_t> HaltTid; // drain mode: the halting thread
  uint64_t HaltCycle = 0;          // cycle the halt store committed
  bool LocksBuilt = false;
  uint64_t NextTid = 1;
  bool FiredThisCycle = false;
  /// Consecutive no-progress cycles inside run(). A member (not a run()
  /// local) so a snapshot taken mid-streak resumes the same countdown to
  /// the deadlock declaration; reset by start().
  uint64_t IdleStreak = 0;
  /// Checkpoint cadence (setCheckpointHook): 0 = off.
  uint64_t CkptEvery = 0;
  std::function<void(uint64_t)> CkptHook;
};

} // namespace backend
} // namespace pdl

#endif // PDL_BACKEND_SYSTEM_H
