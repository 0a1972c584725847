//===- System.cpp - Elaborated pipelined circuit executor ------------------===//
//
// Part of the PDL reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "backend/System.h"

#include "backend/Fuse.h"
#include "hw/BypassQueue.h"
#include "hw/QueueLock.h"
#include "hw/RenameLock.h"
#include "passes/PathCondition.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

static bool traceOn() {
  static bool On = std::getenv("PDL_TRACE") != nullptr;
  return On;
}

using namespace pdl;
using namespace pdl::ast;
using namespace pdl::backend;
using obs::StallCause;

System::System(const CompiledProgram &CP, ElabConfig Cfg)
    : CP(CP), Cfg(std::move(Cfg)) {
  assert(CP.ok() && "elaborating a program with errors");
  for (const auto &[Name, Pipe] : CP.Pipes) {
    auto PI = std::make_unique<PipeInstance>(this->Cfg.EntryDepth,
                                             this->Cfg.SpecCapacity);
    PI->CP = &Pipe;
    PI->Name = Name;
    for (const MemDecl &M : Pipe.Decl->Mems) {
      PI->Mems.emplace(M.Name, std::make_unique<hw::Memory>(
                                   M.Name, M.ElemType.width(), M.AddrWidth,
                                   M.IsSync));
      PI->MemIdx.emplace(M.Name, PI->MemNames.size());
      PI->MemNames.push_back(M.Name);
      PI->MemByIdx.push_back(PI->Mems.at(M.Name).get());
    }
    PI->LockByIdx.assign(PI->MemNames.size(), nullptr);
    buildMemModels(*PI);
    for (const Stage &S : Pipe.Graph.Stages) {
      for (const StageEdge &E : S.Succs)
        PI->EdgeFifos.emplace(std::make_pair(E.From, E.To),
                              hw::Fifo<Thread>(this->Cfg.FifoDepth));
    }
    // Multi-stage reservation regions are serialized (Section 4.1: "only
    // a single thread may execute inside a lock region at a time").
    for (const auto &[Mem, Stages] : Pipe.Locks.RegionStages) {
      if (Stages.size() < 2)
        continue; // single-stage regions are atomic by construction
      LockRegion R;
      R.Mem = static_cast<uint16_t>(PI->MemIdx.at(Mem));
      R.First = *Stages.begin();
      R.Last = *Stages.rbegin();
      PI->Regions.push_back(R);
    }
    Pipes.emplace(Name, std::move(PI));
  }
  for (auto &[Name, PI] : Pipes) {
    PI->Index = static_cast<unsigned>(PipeSeq.size());
    PipeSeq.push_back(PI.get());
    obs::TraceMeta::PipeMeta PM;
    PM.Name = Name;
    for (const Stage &S : PI->CP->Graph.Stages)
      PM.Stages.push_back(S.Name);
    PM.Mems = PI->MemNames;
    for (const auto &[Edge, F] : PI->EdgeFifos) {
      (void)F;
      PM.Edges.push_back(Edge);
    }
    Meta.Pipes.push_back(std::move(PM));
  }
  // Resolve the per-cycle dense tables: per-stage FIFO views, fork->join
  // lists, tag queues, and the global firing order (pipes in handle order,
  // stages deepest-first). EdgeFifos map nodes and Stage storage are both
  // address-stable for the System's lifetime.
  for (PipeInstance *PI : PipeSeq) {
    const StageGraph &G = PI->CP->Graph;
    PI->TagQueues.assign(G.Stages.size(),
                         hw::Fifo<TagTok>(std::max(1u, Cfg.TagDepth)));
    PI->PredFifos.resize(G.Stages.size());
    PI->SuccFifos.resize(G.Stages.size());
    PI->ForkJoins.resize(G.Stages.size());
    for (const Stage &S : G.Stages) {
      if (S.Id != G.Entry)
        for (unsigned PredId : S.Preds)
          PI->PredFifos[S.Id].push_back(&PI->EdgeFifos.at({PredId, S.Id}));
      for (const StageEdge &E : S.Succs)
        PI->SuccFifos[S.Id].push_back(&PI->EdgeFifos.at({E.From, E.To}));
      if (S.isJoin())
        PI->ForkJoins[S.ForkStage].push_back(&S);
    }
    for (unsigned Id = G.Stages.size(); Id-- > 0;)
      FireOrder.emplace_back(PI, &G.Stages[Id]);
  }
  // Bind the compiled bytecode circuit: reuse a shared one when supplied
  // (BatchRunner compiles once per core — pre-fused when the mode asks for
  // it, see cores::Core), otherwise compile (and, in fused mode, fuse) now.
  TreeMode = this->Cfg.EvalTree || std::getenv("PDL_EVAL_TREE") != nullptr;
  NativeMode =
      !TreeMode && (this->Cfg.EvalNative || std::getenv("PDL_EVAL_NATIVE"));
  FusedMode = !TreeMode && !NativeMode &&
              (this->Cfg.EvalFused || std::getenv("PDL_EVAL_FUSED"));
  if (this->Cfg.CompiledIR) {
    IR = this->Cfg.CompiledIR;
  } else {
    IR = bc::compileModule(CP);
    // The native tier emits from the fused lowering; a self-compiled
    // System has no TV certificate to offer native::attachModule, so under
    // NativeMode it runs that same fused lowering interpreted (the
    // documented fallback — cores::Core and pdlc are the attach points).
    if (FusedMode || NativeMode)
      IR = bc::fuseModule(*IR);
  }
  unsigned MaxFrame = 0, MaxMems = 0;
  for (PipeInstance *PI : PipeSeq) {
    PI->Prog = IR->pipe(PI->Name);
    assert(PI->Prog && "pipe missing from compiled circuit");
    const bc::PipeProgram &PP = *PI->Prog;
    if (PP.ResKeys.size() > MaxResKeys || PP.Handles.size() > MaxHandles ||
        PP.Ckpts.size() > MaxCkpts) {
      std::fprintf(stderr,
                   "pdl: pipe '%s' uses %zu reservation keys, %zu spec "
                   "handles and %zu checkpointed memories; the executor "
                   "supports %u, %u and %u\n",
                   PI->Name.c_str(), PP.ResKeys.size(), PP.Handles.size(),
                   PP.Ckpts.size(), MaxResKeys, MaxHandles, MaxCkpts);
      std::abort();
    }
    for (const std::string &Callee : PP.Callees)
      PI->Callees.push_back(&pipe(Callee));
    PI->ExternByIdx.assign(PP.Externs.size(), nullptr);
    MaxFrame = std::max(MaxFrame, PP.FrameSize);
    MaxMems = std::max<unsigned>(MaxMems, PI->MemNames.size());
  }
  ProbeScratch.resize(MaxFrame);
  LockProbes.resize(MaxMems);
  LockProbeStamp.assign(MaxMems, 0);
  Dispatch.Sys = this;
  for (obs::TraceSink *S : this->Cfg.Sinks)
    if (S)
      attachSink(*S);
}

System::~System() { Bus.finish(); }

void System::finishTrace() { Bus.finish(); }

//===----------------------------------------------------------------------===//
// Handle resolution and accessors
//===----------------------------------------------------------------------===//

System::PipeInstance &System::pipe(const std::string &Name) {
  auto It = Pipes.find(Name);
  assert(It != Pipes.end() && "unknown pipe");
  return *It->second;
}

const System::PipeInstance &System::pipeFor(PipeHandle P) const {
  assert(P.valid() && P.Idx < PipeSeq.size() && "invalid pipe handle");
  return *PipeSeq[P.Idx];
}

PipeHandle System::pipeHandle(const std::string &Pipe) const {
  auto It = Pipes.find(Pipe);
  assert(It != Pipes.end() && "unknown pipe");
  return PipeHandle(It->second->Index);
}

MemHandle System::memHandle(const std::string &Pipe,
                            const std::string &Mem) const {
  return memHandle(pipeHandle(Pipe), Mem);
}

MemHandle System::memHandle(PipeHandle P, const std::string &Mem) const {
  const PipeInstance &PI = pipeFor(P);
  auto It = PI.MemIdx.find(Mem);
  assert(It != PI.MemIdx.end() && "unknown memory");
  return MemHandle(P.Idx, It->second);
}

const std::string &System::pipeName(PipeHandle P) const {
  return pipeFor(P).Name;
}

const std::string &System::memName(MemHandle M) const {
  const PipeInstance &PI = pipeFor(M.pipe());
  assert(M.Mem < PI.MemNames.size() && "invalid memory handle");
  return PI.MemNames[M.Mem];
}

hw::Memory &System::memory(MemHandle M) {
  const PipeInstance &PI = pipeFor(M.pipe());
  assert(M.Mem < PI.MemByIdx.size() && "invalid memory handle");
  return *PI.MemByIdx[M.Mem];
}

hw::HazardLock &System::lock(MemHandle M) {
  const PipeInstance &PI = pipeFor(M.pipe());
  assert(M.Mem < PI.LockByIdx.size() && "invalid memory handle");
  hw::HazardLock *L = PI.LockByIdx[M.Mem];
  assert(L && "memory has no lock (or start() not called)");
  return *L;
}

void System::bindExtern(const std::string &Name, hw::ExternModule *Module) {
  Externs[Name] = Module;
  for (PipeInstance *PI : PipeSeq)
    for (size_t I = 0, N = PI->Prog->Externs.size(); I != N; ++I)
      if (PI->Prog->Externs[I] == Name)
        PI->ExternByIdx[I] = Module;
}

void System::setHaltOnWrite(MemHandle M, uint64_t Addr) {
  HaltWatch = {M.Pipe, M.Mem, Addr};
}

void System::elaborateLocks() {
  if (LocksBuilt)
    return;
  LocksBuilt = true;
  for (auto &[Name, PI] : Pipes) {
    const LockAnalysis &LA = PI->CP->Locks;
    for (const MemDecl &M : PI->CP->Decl->Mems) {
      // Only memories the pipe locks get a lock instance.
      if (!LA.ReadLocked.count(M.Name) && !LA.WriteLocked.count(M.Name))
        continue;
      hw::Memory &Mem = *PI->Mems.at(M.Name);
      LockKind Kind = Cfg.DefaultLock;
      auto It = Cfg.LockChoice.find(Name + "." + M.Name);
      if (It == Cfg.LockChoice.end())
        It = Cfg.LockChoice.find(M.Name);
      if (It != Cfg.LockChoice.end())
        Kind = It->second;
      std::unique_ptr<hw::HazardLock> L;
      switch (Kind) {
      case LockKind::Queue:
        L = std::make_unique<hw::QueueLock>(Mem);
        break;
      case LockKind::Bypass:
        L = std::make_unique<hw::BypassQueueLock>(Mem);
        break;
      case LockKind::Rename:
        L = std::make_unique<hw::RenameLock>(Mem);
        break;
      }
      PI->LockByIdx[PI->MemIdx.at(M.Name)] = L.get();
      PI->Locks.emplace(M.Name, std::move(L));
    }
    // Compiler-inserted checkpoints, by the stage that takes them.
    PI->CkptsAt.assign(PI->CP->Graph.Stages.size(), {});
    const std::vector<bc::CkptSite> &Ckpts = PI->Prog->Ckpts;
    for (size_t I = 0, N = Ckpts.size(); I != N; ++I)
      if (PI->LockByIdx[Ckpts[I].Mem])
        PI->CkptsAt[Ckpts[I].Stage].push_back(static_cast<uint16_t>(I));
  }
}

hw::HazardLock *System::lockFor(PipeInstance &P, const std::string &Mem) {
  auto It = P.Locks.find(Mem);
  return It == P.Locks.end() ? nullptr : It->second.get();
}

void System::buildMemModels(PipeInstance &P) {
  P.ModelByIdx.assign(P.MemNames.size(), nullptr);
  for (unsigned I = 0, N = P.MemNames.size(); I != N; ++I) {
    // Combinational memories answer in-cycle; no hierarchy in front of them.
    if (!P.MemByIdx[I]->isSync())
      continue;
    const std::string &MemName = P.MemNames[I];
    auto CIt = Cfg.MemModels.find(P.Name + "." + MemName);
    if (CIt == Cfg.MemModels.end())
      CIt = Cfg.MemModels.find(MemName);
    std::unique_ptr<mem::MemModel> M;
    if (CIt != Cfg.MemModels.end()) {
      const mem::MemConfig &C = CIt->second;
      if (C.K == mem::MemConfig::Kind::Fixed) {
        M = std::make_unique<mem::FixedLatency>(C.FixedLat, C.SinglePorted);
      } else {
        mem::MemModel *Next = nullptr;
        if (!C.ShareTag.empty()) {
          auto &Backing = SharedBackings[C.ShareTag];
          if (!Backing)
            Backing = std::make_unique<mem::FixedLatency>(
                C.ShareLatency, /*SinglePorted=*/true);
          Next = Backing.get();
        }
        M = std::make_unique<mem::SetAssocCache>(C.Cache, Next);
      }
    } else {
      // Legacy MemLatency shim, else the paper's always-hit default.
      unsigned Latency = 1;
      auto LIt = Cfg.MemLatency.find(P.Name + "." + MemName);
      if (LIt == Cfg.MemLatency.end())
        LIt = Cfg.MemLatency.find(MemName);
      if (LIt != Cfg.MemLatency.end())
        Latency = LIt->second;
      M = std::make_unique<mem::FixedLatency>(Latency);
    }
    P.ModelByIdx[I] = M.get();
    OwnedModels.push_back(std::move(M));
  }
}

const mem::MemModel *System::memModel(MemHandle M) const {
  const PipeInstance &PI = pipeFor(M.pipe());
  assert(M.Mem < PI.ModelByIdx.size() && "invalid memory handle");
  return PI.ModelByIdx[M.Mem];
}

bool System::canAccept(PipeHandle H) {
  PipeInstance &P = *PipeSeq[H.index()];
  return P.Entry.size() + pendingEnqCount(&P.Entry) < P.Entry.capacity();
}

System::Thread System::newThread(PipeInstance &P) {
  Thread T;
  T.Tid = NextTid++;
  T.Frame = P.Prog->InitFrame;
  return T;
}

void System::start(PipeHandle H, std::vector<Bits> Args) {
  elaborateLocks();
  IdleStreak = 0; // fresh work: restart the no-progress countdown
  PipeInstance &P = *PipeSeq[H.index()];
  const PipeDecl *Decl = P.CP->Decl;
  assert(Args.size() == Decl->Params.size() && "argument count mismatch");
  Thread T = newThread(P);
  for (unsigned I = 0, N = Args.size(); I != N; ++I)
    T.Frame[P.Prog->ParamSlots[I]] = Args[I];
  T.Trace.Args = Args;
  emitThreadEvent(obs::Event::Kind::ThreadSpawn, P, T.Tid);
  P.Entry.enq(std::move(T));
}

Bits System::archRead(MemHandle M, uint64_t Addr) {
  PipeInstance &P = *PipeSeq[M.Pipe];
  if (hw::HazardLock *L = P.LockByIdx[M.Mem])
    return L->archRead(Addr);
  return P.MemByIdx[M.Mem]->read(Addr);
}

const std::vector<ThreadTrace> &System::trace(PipeHandle P) const {
  return pipeFor(P).Retired;
}

//===----------------------------------------------------------------------===//
// Observability
//===----------------------------------------------------------------------===//

void System::FifoTap::onEnq(const Thread &T, size_t Depth) {
  Sys->Bus.emit(obs::Event::fifo(obs::Event::Kind::FifoEnq,
                                 Sys->Stats.Cycles, Pipe, From, To, T.Tid,
                                 Depth));
}

void System::FifoTap::onDeq(const Thread &T, size_t Depth) {
  Sys->Bus.emit(obs::Event::fifo(obs::Event::Kind::FifoDeq,
                                 Sys->Stats.Cycles, Pipe, From, To, T.Tid,
                                 Depth));
}

void System::installTaps() {
  if (TapsInstalled)
    return;
  TapsInstalled = true;
  for (PipeInstance *PI : PipeSeq) {
    auto MakeTap = [&](uint16_t From, uint16_t To) {
      auto Tap = std::make_unique<FifoTap>();
      Tap->Sys = this;
      Tap->Pipe = static_cast<uint16_t>(PI->Index);
      Tap->From = From;
      Tap->To = To;
      Taps.push_back(std::move(Tap));
      return Taps.back().get();
    };
    PI->Entry.setListener(MakeTap(obs::NoEdge, obs::NoEdge));
    for (auto &[Edge, F] : PI->EdgeFifos)
      F.setListener(MakeTap(static_cast<uint16_t>(Edge.first),
                            static_cast<uint16_t>(Edge.second)));
    unsigned Idx = PI->Index;
    PI->Spec.setObserver([this, Idx](hw::SpecId Id, hw::SpecStatus St) {
      Bus.emit(obs::Event::specResolve(Stats.Cycles,
                                       static_cast<uint16_t>(Idx), Id,
                                       St == hw::SpecStatus::Correct));
    });
  }
}

void System::attachSink(obs::TraceSink &S) {
  installTaps();
  Bus.attach(&S);
  S.begin(Meta);
}

void System::emitThreadEvent(obs::Event::Kind K, PipeInstance &P,
                             uint64_t Tid) {
  if (Bus.enabled())
    Bus.emit(obs::Event::thread(K, Stats.Cycles,
                                static_cast<uint16_t>(P.Index), Tid));
}

void System::noteOutcome(PipeInstance &P, const Stage &S, StallCause C,
                         uint64_t Tid, uint16_t CauseMem) {
  // Injected DropStageOutcome: the outcome never reaches the counters or
  // the trace bus (all counters skip together, so the executor's internal
  // balance assert stays consistent; the stall-balance monitor flags the
  // missing per-cycle outcome).
  if (C != StallCause::Idle &&
      consumeFault(hw::FaultKind::DropStageOutcome, P, Tid))
    return;
  switch (C) {
  case StallCause::None:
    ++Stats.StageFires;
    ++Stats.ProbeAttempts;
    break;
  case StallCause::Idle:
    break;
  case StallCause::Kill:
    ++Stats.StageKills;
    ++Stats.ProbeAttempts;
    break;
  case StallCause::Lock:
    ++Stats.StallLock;
    ++Stats.ProbeAttempts;
    break;
  case StallCause::Spec:
    ++Stats.StallSpec;
    ++Stats.ProbeAttempts;
    break;
  case StallCause::Response:
    ++Stats.StallResponse;
    ++Stats.ProbeAttempts;
    break;
  case StallCause::Backpressure:
    ++Stats.StallBackpressure;
    ++Stats.ProbeAttempts;
    break;
  }
  if (Bus.enabled())
    Bus.emit(obs::Event::stageOutcome(
        Stats.Cycles, static_cast<uint16_t>(P.Index),
        static_cast<uint16_t>(S.Id), C, Tid,
        C == StallCause::Lock ? CauseMem : obs::NoMem));
  if (traceOn() && C != StallCause::Idle)
    std::fprintf(stderr, "  %s %s/%s tid=%llu\n", obs::stallCauseName(C),
                 P.Name.c_str(), S.Name.c_str(), (unsigned long long)Tid);
}

//===----------------------------------------------------------------------===//
// Fault injection
//===----------------------------------------------------------------------===//

const char *backend::runOutcomeName(RunOutcome O) {
  switch (O) {
  case RunOutcome::Running:
    return "running";
  case RunOutcome::Halted:
    return "halted";
  case RunOutcome::Drained:
    return "drained";
  case RunOutcome::Deadlocked:
    return "deadlocked";
  case RunOutcome::TimedOut:
    return "timed_out";
  }
  return "?";
}

void System::noteFault(PipeInstance &P, hw::FaultKind K, uint64_t Tid) {
  ++Stats.FaultsInjected;
  if (Bus.enabled())
    Bus.emit(obs::Event::fault(Stats.Cycles, static_cast<uint16_t>(P.Index),
                               static_cast<uint64_t>(K), Tid));
}

System::ArmedFault *System::armedFault(hw::FaultKind K,
                                       const PipeInstance &P) {
  for (ArmedFault &F : Faults)
    if (!F.Fired && F.Plan.Kind == K &&
        (F.Plan.Pipe.empty() || F.Plan.Pipe == P.Name))
      return &F;
  return nullptr;
}

bool System::consumeFault(hw::FaultKind K, PipeInstance &P, uint64_t Tid,
                          unsigned MemI) {
  ArmedFault *F = armedFault(K, P);
  if (!F)
    return false;
  if (MemI != ~0u && !F->Plan.Mem.empty() && F->Plan.Mem != P.MemNames[MemI])
    return false;
  if (--F->Countdown > 0)
    return false;
  F->Fired = true;
  noteFault(P, K, Tid);
  return true;
}

bool System::rescueSquash(PipeInstance &P, uint64_t Tid) {
  for (ArmedFault &F : Faults) {
    if (F.Plan.Kind != hw::FaultKind::SkipSquash ||
        (!F.Plan.Pipe.empty() && F.Plan.Pipe != P.Name))
      continue;
    if (F.Fired)
      return F.RescuedTid == Tid;
    if (--F.Countdown > 0)
      return false;
    F.Fired = true;
    F.RescuedTid = Tid;
    noteFault(P, hw::FaultKind::SkipSquash, Tid);
    return true;
  }
  return false;
}

void System::armFault(const hw::FaultPlan &Plan) {
  elaborateLocks();
  PipeInstance &P = pipe(Plan.Pipe);
  auto FireNote = [this, &P](hw::FaultKind K) {
    return [this, &P, K] { noteFault(P, K, 0); };
  };
  switch (Plan.Kind) {
  case hw::FaultKind::FifoDropThread:
  case hw::FaultKind::FifoDupThread:
  case hw::FaultKind::FifoCorruptPayload: {
    hw::Fifo<Thread> *F = &P.Entry;
    if (!Plan.FromStage.empty() || !Plan.ToStage.empty()) {
      unsigned From = ~0u, To = ~0u;
      for (const Stage &S : P.CP->Graph.Stages) {
        if (S.Name == Plan.FromStage)
          From = S.Id;
        if (S.Name == Plan.ToStage)
          To = S.Id;
      }
      auto It = P.EdgeFifos.find({From, To});
      assert(It != P.EdgeFifos.end() && "fault plan names an unknown edge");
      F = &It->second;
    }
    if (Plan.Kind == hw::FaultKind::FifoDropThread) {
      F->armDropNext(Plan.Nth, FireNote(Plan.Kind));
    } else if (Plan.Kind == hw::FaultKind::FifoDupThread) {
      F->armDupNext(Plan.Nth, FireNote(Plan.Kind));
    } else {
      // Resolve the variable to its frame slot once, at arm time.
      uint16_t Slot = P.Prog->slotOf(Plan.Var);
      unsigned Bit = Plan.Bit;
      F->armCorruptNext(Plan.Nth, [this, &P, Slot, Bit](Thread &T) {
        if (Slot != bc::NoSlot) {
          Bits &V = T.Frame[Slot];
          V = Bits(V.zext() ^ (uint64_t(1) << Bit), V.width());
        }
        noteFault(P, hw::FaultKind::FifoCorruptPayload, T.Tid);
      });
    }
    HwArmedPlans.push_back(Plan);
    return;
  }
  case hw::FaultKind::HwDropLockRelease: {
    hw::HazardLock *L = lockFor(P, Plan.Mem);
    assert(L && "fault plan names a memory without a lock");
    L->armDropRelease(Plan.Nth, FireNote(Plan.Kind));
    HwArmedPlans.push_back(Plan);
    return;
  }
  case hw::FaultKind::SuppressMispredict:
    P.Spec.armSuppressMispredict(Plan.Nth, FireNote(Plan.Kind));
    HwArmedPlans.push_back(Plan);
    return;
  case hw::FaultKind::SkipCascade:
    P.Spec.armSkipCascade(Plan.Nth, FireNote(Plan.Kind));
    HwArmedPlans.push_back(Plan);
    return;
  case hw::FaultKind::DropLockRelease:
  case hw::FaultKind::SkipSquash:
  case hw::FaultKind::DropMemResponse:
  case hw::FaultKind::DoubleRollback:
  case hw::FaultKind::DropStageOutcome: {
    ArmedFault F;
    F.Plan = Plan;
    F.Countdown = Plan.Nth ? Plan.Nth : 1;
    Faults.push_back(std::move(F));
    return;
  }
  }
}

//===----------------------------------------------------------------------===//
// Evaluation hooks
//===----------------------------------------------------------------------===//

hw::LockProbe &System::lockProbe(unsigned MemI) {
  hw::LockProbe &LP = LockProbes[MemI];
  if (LockProbeStamp[MemI] != ProbeStamp) {
    LockProbeStamp[MemI] = ProbeStamp;
    LP.Released.clear();
    LP.Reserved.clear();
  }
  return LP;
}

int System::probeReserved(uint16_t K) const {
  for (size_t I = 0, N = ProbeReserved.size(); I != N; ++I)
    if (ProbeReserved[I].Key == K)
      return static_cast<int>(I);
  return -1;
}

uint16_t System::heldKey(const Thread &T, const bc::AccessSite &A,
                         bool Probe) const {
  for (uint16_t K : A.Keys) {
    if (K == bc::NoSlot)
      break;
    if (T.Res[K].Id || (Probe && probeReserved(K) >= 0))
      return K;
  }
  return bc::NoSlot;
}

Bits System::hookReadMem(uint16_t Site, uint64_t Addr) {
  PipeInstance &P = *CurP;
  const Thread &T = *CurT;
  const bc::AccessSite &A = P.Prog->Access[Site];
  hw::HazardLock *L = P.LockByIdx[A.Mem];
  if (!L)
    return P.MemByIdx[A.Mem]->read(Addr);
  bool Probe = CurCtx->Mode == WalkMode::Probe;
  uint16_t K = heldKey(T, A, Probe);
  assert(K != bc::NoSlot && "combinational read of a locked memory without "
                            "an acquired reservation");
  if (K == bc::NoSlot)
    return Bits(0, P.MemByIdx[A.Mem]->elemWidth());
  if (hw::ResId R = T.Res[K].Id)
    return Probe ? L->readP(lockProbe(A.Mem), R) : L->read(R);
  // Reserved earlier in this stage during the probe pass: peek the value a
  // fresh reservation would see.
  return L->peek(Addr, static_cast<hw::Access>(P.Prog->ResKeys[K].Mode));
}

Bits System::hookCallExtern(const ExternCallExpr &Call, uint16_t Mod,
                            const Bits *Args, unsigned NumArgs) {
  hw::ExternModule *M = CurP->ExternByIdx[Mod];
  assert(M && "unbound extern module");
  ArgScratch.assign(Args, Args + NumArgs);
  auto R = M->invoke(Call.method(), ArgScratch);
  assert(R && "extern value method returned nothing");
  return *R;
}

const EvalHooks &System::hooksFor(PipeInstance &P, Thread &T, WalkCtx &Ctx) {
  CurP = &P;
  CurT = &T;
  CurCtx = &Ctx;
  if (HotHooks.ReadMem)
    return HotHooks;
  // Tree-mode shims over the shared hook bodies (the bytecode interpreter
  // reaches them through the virtual BcDispatch instead).
  HotHooks.ReadMem = [this](const MemReadExpr &Site, uint64_t Addr) {
    return hookReadMem(CurP->Prog->ReadAccess.at(&Site), Addr);
  };
  HotHooks.CallExtern = [this](const ExternCallExpr &Site,
                               const std::vector<Bits> &Args) {
    auto It = Externs.find(Site.module());
    assert(It != Externs.end() && "unbound extern module");
    auto R = It->second->invoke(Site.method(), Args);
    assert(R && "extern value method returned nothing");
    return *R;
  };
  return HotHooks;
}

//===----------------------------------------------------------------------===//
// Per-cycle stage firing
//===----------------------------------------------------------------------===//

unsigned System::pendingEnqCount(const hw::Fifo<Thread> *F) const {
  unsigned N = 0;
  for (const PendingEnq &E : PendingEnqs)
    if (E.F == F)
      ++N;
  return N;
}

System::Thread *System::stageInput(PipeInstance &P, const Stage &S,
                                   unsigned &PredIdx) {
  auto DrainDead = [&](hw::Fifo<Thread> &F) -> Thread * {
    while (!F.empty()) {
      Thread &T = F.front();
      if (T.MySpec != 0 &&
          P.Spec.status(T.MySpec) == hw::SpecStatus::Mispredicted) {
        if (rescueSquash(P, T.Tid))
          return &T; // injected SkipSquash: the dead thread sails on
        Thread Dead = F.deq();
        killThread(P, std::move(Dead));
        continue;
      }
      return &T;
    }
    return nullptr;
  };

  if (S.Id == P.CP->Graph.Entry) {
    PredIdx = ~0u;
    return DrainDead(P.Entry);
  }
  if (S.isJoin()) {
    hw::Fifo<TagTok> &Tags = P.TagQueues[S.Id];
    while (!Tags.empty()) {
      TagTok Tok = Tags.front();
      assert(Tok.Tag < S.Preds.size() && "bad coordination tag");
      hw::Fifo<Thread> &F = *P.PredFifos[S.Id][Tok.Tag];
      if (F.empty())
        return nullptr; // the tagged thread has not arrived yet
      Thread &T = F.front();
      assert(T.Tid == Tok.Tid && "coordination tag out of sync");
      if (T.MySpec != 0 &&
          P.Spec.status(T.MySpec) == hw::SpecStatus::Mispredicted &&
          !rescueSquash(P, T.Tid)) {
        Thread Dead = F.deq();
        killThread(P, std::move(Dead)); // also purges its tag
        continue;
      }
      PredIdx = Tok.Tag;
      return &T;
    }
    return nullptr;
  }
  assert(S.Preds.size() == 1 && "non-join stage with multiple predecessors");
  PredIdx = 0;
  return DrainDead(*P.PredFifos[S.Id][0]);
}

const StageEdge *System::pickSuccessor(PipeInstance &P, const Stage &S,
                                       WalkCtx &Ctx) {
  if (S.Succs.empty())
    return nullptr;
  if (!TreeMode) {
    const bc::StageProg &SP = P.Prog->Stages[S.Id];
    for (size_t I = 0, N = S.Succs.size(); I != N; ++I)
      if (bc::execGuard(SP.EdgeGuards[I], Ctx.Frame, Dispatch))
        return &S.Succs[I];
    assert(false && "no successor edge guard held (guards must partition)");
    return nullptr;
  }
  Thread Scratch; // hooks need a thread; guards contain no mem reads
  WalkCtx TCtx;
  const EvalHooks &H = hooksFor(P, Scratch, TCtx);
  for (const StageEdge &E : S.Succs) {
    bool Taken = true;
    for (const GuardTerm &G : E.G) {
      if (evalExpr(*G.Cond, Ctx.TreeVars, *CP.AST, H).toBool() !=
          G.Polarity) {
        Taken = false;
        break;
      }
    }
    if (Taken)
      return &E;
  }
  assert(false && "no successor edge guard held (guards must partition)");
  return nullptr;
}

void System::bindWalkFrame(PipeInstance &P, Thread &T, WalkCtx &Ctx) {
  if (Ctx.Mode == WalkMode::Commit) {
    // The commit pass mutates architectural state, so it runs in place on
    // the thread's own frame — no copy at all.
    Ctx.Frame = T.Frame.data();
  } else {
    // The probe pass must leave the thread untouched on a stall: work on
    // the reusable scratch frame. Only the named-variable prefix needs
    // copying; scratch slots are defined before use by construction. The
    // probe's lock state starts empty.
    std::copy(T.Frame.begin(), T.Frame.begin() + P.Prog->NumVars,
              ProbeScratch.begin());
    Ctx.Frame = ProbeScratch.data();
    ProbeReserved.clear();
    ++ProbeStamp;
  }
  if (TreeMode) {
    Ctx.TreeVars = Env();
    for (unsigned I = 0, N = P.Prog->NumVars; I != N; ++I)
      Ctx.TreeVars[P.Prog->SlotNames[I]] = T.Frame[I];
  }
}

void System::syncWalkFrame(PipeInstance &P, Thread &T, WalkCtx &Ctx) {
  if (!TreeMode || Ctx.Mode != WalkMode::Commit)
    return;
  for (const auto &[Name, V] : Ctx.TreeVars) {
    uint16_t Slot = P.Prog->slotOf(Name);
    assert(Slot != bc::NoSlot && "tree walk bound an uncollected variable");
    T.Frame[Slot] = V;
  }
}

System::FireResult System::walkOp(PipeInstance &P, const Stmt &S,
                                  const bc::OpProg &OP, Thread &T,
                                  WalkCtx &Ctx) {
  bool Commit = Ctx.Mode == WalkMode::Commit;
  // Operand evaluation: the compiled bytecode program on the hot path, the
  // legacy tree walker in tree mode (hooks were bound by walkStage).
  auto Eval = [&](const bc::ExprProgram *BP, const Expr &E) {
    if (!TreeMode)
      return bc::exec(*BP, Ctx.Frame, Dispatch);
    return evalExpr(E, Ctx.TreeVars, *CP.AST, HotHooks);
  };
  // Writes a named variable in the walk's working state.
  auto Store = [&](uint16_t Slot, const std::string &Name, const Bits &V) {
    if (!TreeMode)
      Ctx.Frame[Slot] = V;
    else
      Ctx.TreeVars[Name] = V;
  };

  // Records the stall cause for the probe pass's outcome attribution (one
  // cause per stall; the first failing op wins since the walk stops).
  auto Stall = [&](StallCause C, uint16_t Mem = obs::NoMem) {
    Ctx.Cause = C;
    Ctx.CauseMem = Mem;
    return FireResult::Stall;
  };

  const bc::PipeProgram &PP = *P.Prog;
  switch (S.kind()) {
  case Stmt::Kind::Assign: {
    const auto *A = cast<AssignStmt>(&S);
    Store(OP.Dest, A->name(), Eval(OP.E0, *A->value()));
    return FireResult::Fire;
  }

  case Stmt::Kind::Lock: {
    const auto *L = cast<LockStmt>(&S);
    const bc::AccessSite &Site = PP.Access[OP.Site];
    hw::HazardLock *Lock = P.LockByIdx[Site.Mem];
    assert(Lock && "lock op on a memory without a lock");
    uint64_t Addr = Eval(OP.E0, *L->addr()).zext();

    switch (L->op()) {
    case LockOp::Reserve:
    case LockOp::Acquire: {
      uint16_t Key = Site.Keys[0];
      hw::Access M = static_cast<hw::Access>(PP.ResKeys[Key].Mode);
      if (!Commit) {
        hw::LockProbe &Probe = lockProbe(Site.Mem);
        if (!Lock->canReserveP(Probe, Addr, M))
          return Stall(StallCause::Lock, Site.Mem);
        if (L->op() == LockOp::Acquire && !Lock->readyNowP(Probe, Addr, M))
          return Stall(StallCause::Lock, Site.Mem);
        int PR = probeReserved(Key);
        if (PR < 0)
          ProbeReserved.push_back({Key, Addr});
        else
          ProbeReserved[PR].Addr = Addr;
        Probe.Reserved.emplace_back(Addr, M);
        return FireResult::Fire;
      }
      ResRec &Rec = T.Res[Key];
      T.NumRes += Rec.Id == 0;
      Rec = {Lock->reserve(Addr, M), Addr, 0, false};
      if (Bus.enabled())
        Bus.emit(obs::Event::lock(obs::Event::Kind::LockReserve,
                                  Stats.Cycles,
                                  static_cast<uint16_t>(P.Index), Site.Mem,
                                  T.Tid, Addr));
      return FireResult::Fire;
    }
    case LockOp::Block: {
      if (Commit)
        return FireResult::Fire;
      uint16_t Key = heldKey(T, Site, /*Probe=*/true);
      assert(Key != bc::NoSlot && "lock operation without a reservation");
      hw::LockProbe &Probe = lockProbe(Site.Mem);
      bool Ready;
      if (hw::ResId R = T.Res[Key].Id) {
        Ready = Lock->readyP(Probe, R);
      } else {
        // Reserved earlier in this same stage: probe combinationally. Its
        // own entry must not count against itself.
        uint64_t PAddr = ProbeReserved[probeReserved(Key)].Addr;
        hw::Access PMode = static_cast<hw::Access>(PP.ResKeys[Key].Mode);
        ProbeMinus = Probe;
        auto &Res = ProbeMinus.Reserved;
        auto It = std::find(Res.begin(), Res.end(), std::make_pair(PAddr, PMode));
        if (It != Res.end())
          Res.erase(It);
        Ready = Lock->readyNowP(ProbeMinus, PAddr, PMode);
      }
      if (!Ready)
        return Stall(StallCause::Lock, Site.Mem);
      return FireResult::Fire;
    }
    case LockOp::Release: {
      uint16_t Key = heldKey(T, Site, /*Probe=*/!Commit);
      assert(Key != bc::NoSlot && "lock operation without a reservation");
      if (!Commit) {
        hw::LockProbe &Probe = lockProbe(Site.Mem);
        if (hw::ResId R = T.Res[Key].Id) {
          Probe.Released.push_back(R);
        } else {
          // Releasing a same-stage probe reservation: cancel it out.
          int PR = probeReserved(Key);
          auto &Res = Probe.Reserved;
          auto It = std::find(
              Res.begin(), Res.end(),
              std::make_pair(ProbeReserved[PR].Addr,
                             static_cast<hw::Access>(PP.ResKeys[Key].Mode)));
          if (It != Res.end())
            Res.erase(It);
          ProbeReserved.erase(ProbeReserved.begin() + PR);
        }
        return FireResult::Fire;
      }
      ResRec Rec = T.Res[Key];
      assert(Rec.Id && "release without a live reservation");
      T.Res[Key] = ResRec();
      --T.NumRes;
      hw::Access Mode = static_cast<hw::Access>(PP.ResKeys[Key].Mode);
      // An injected DropLockRelease fault lets the release reach the lock
      // (the datapath stays live, so probe and commit keep agreeing) but
      // loses the completion on the way to the trace bus. The
      // lock-discipline monitor flags the unbalanced reserve when the
      // thread retires.
      bool Dropped =
          consumeFault(hw::FaultKind::DropLockRelease, P, T.Tid, Site.Mem);
      Lock->release(Rec.Id);
      if (!Dropped && Bus.enabled())
        Bus.emit(obs::Event::lock(obs::Event::Kind::LockRelease,
                                  Stats.Cycles,
                                  static_cast<uint16_t>(P.Index), Site.Mem,
                                  T.Tid, Rec.Addr));
      if (Mode != hw::Access::Read && Rec.Written)
        recordCommit(P, Site.Mem, Rec.Addr, Rec.WrittenVal, T);
      return FireResult::Fire;
    }
    }
    return FireResult::Fire;
  }

  case Stmt::Kind::MemWrite: {
    const auto *W = cast<MemWriteStmt>(&S);
    const bc::AccessSite &Site = PP.Access[OP.Site];
    uint16_t MemI = Site.Mem;
    mem::MemModel *Model = P.ModelByIdx[MemI];
    if (!Commit) {
      uint64_t Addr = Eval(OP.E0, *W->addr()).zext();
      Eval(OP.E1, *W->value()); // hook-sequence consistency only
      if (Model && !Model->canAcceptWrite(Addr, Stats.Cycles)) {
        if (Bus.enabled())
          Bus.emit(obs::Event::memAccess(
              obs::Event::Kind::MemBackpressure, Stats.Cycles,
              static_cast<uint16_t>(P.Index), MemI, T.Tid, Addr));
        return Stall(StallCause::Backpressure, MemI);
      }
      return FireResult::Fire;
    }
    uint64_t Addr = Eval(OP.E0, *W->addr()).zext();
    Bits V = Eval(OP.E1, *W->value());
    // Stores are posted: the pipeline never waits on the returned latency,
    // but the model's tags/LRU/miss queue advance and the outcome is traced.
    if (Model) {
      mem::Access A = Model->write(Addr, Stats.Cycles);
      if (A.Out != mem::Outcome::Uncached && Bus.enabled())
        Bus.emit(obs::Event::memAccess(A.Out == mem::Outcome::Hit
                                           ? obs::Event::Kind::MemHit
                                           : obs::Event::Kind::MemMiss,
                                       Stats.Cycles,
                                       static_cast<uint16_t>(P.Index), MemI,
                                       T.Tid, Addr));
    }
    hw::HazardLock *Lock = P.LockByIdx[MemI];
    if (!Lock) {
      P.MemByIdx[MemI]->write(Addr, V);
      recordCommit(P, MemI, Addr, V.zext(), T);
      return FireResult::Fire;
    }
    uint16_t Key = heldKey(T, Site, /*Probe=*/false);
    assert(Key != bc::NoSlot &&
           "write to a locked memory without a write lock");
    ResRec &Rec = T.Res[Key];
    Lock->write(Rec.Id, V);
    Rec.Written = true;
    Rec.WrittenVal = V.zext();
    Rec.Addr = Addr;
    return FireResult::Fire;
  }

  case Stmt::Kind::SyncRead: {
    const auto *Rd = cast<SyncReadStmt>(&S);
    uint64_t Addr = Eval(OP.E0, *Rd->addr()).zext();
    const bc::AccessSite &Site = PP.Access[OP.Site];
    uint16_t MemI = Site.Mem;
    mem::MemModel *Model = P.ModelByIdx[MemI];
    if (!Commit) {
      // The hierarchy may refuse the request (miss queue full): the stage
      // stalls on backpressure and the memory is named in a dedicated event
      // so per-memory attribution survives the shared Backpressure column.
      if (Model && !Model->canAcceptRead(Addr, Stats.Cycles)) {
        if (Bus.enabled())
          Bus.emit(obs::Event::memAccess(
              obs::Event::Kind::MemBackpressure, Stats.Cycles,
              static_cast<uint16_t>(P.Index), MemI, T.Tid, Addr));
        return Stall(StallCause::Backpressure, MemI);
      }
      return FireResult::Fire;
    }
    hw::HazardLock *Lock = P.LockByIdx[MemI];
    Bits V;
    if (Lock) {
      uint16_t Key = heldKey(T, Site, /*Probe=*/false);
      assert(Key != bc::NoSlot && "sync read of locked memory without a lock");
      V = Lock->read(T.Res[Key].Id);
    } else {
      V = P.MemByIdx[MemI]->read(Addr);
    }
    unsigned Latency = 1;
    if (Model) {
      mem::Access A = Model->read(Addr, Stats.Cycles);
      Latency = A.Latency < 1 ? 1 : A.Latency;
      if (A.Out != mem::Outcome::Uncached && Bus.enabled())
        Bus.emit(obs::Event::memAccess(A.Out == mem::Outcome::Hit
                                           ? obs::Event::Kind::MemHit
                                           : obs::Event::Kind::MemMiss,
                                       Stats.Cycles,
                                       static_cast<uint16_t>(P.Index), MemI,
                                       T.Tid, Addr));
    }
    Deliveries.push_back(
        {Stats.Cycles + (Latency - 1), &P, T.Tid, OP.Dest, V});
    ++T.PendingResp;
    return FireResult::Fire;
  }

  case Stmt::Kind::PipeCall: {
    const auto *C = cast<PipeCallStmt>(&S);
    PipeInstance &Callee = *P.Callees[OP.Callee];
    bool Recursive = &Callee == &P;

    if (!Commit) {
      if (C->isSpec() && !P.Spec.canAlloc())
        return Stall(StallCause::Spec);
      unsigned Pending = pendingEnqCount(&Callee.Entry);
      if (Callee.Entry.size() + Pending >= Callee.Entry.capacity())
        return Stall(StallCause::Backpressure);
      for (unsigned I = 0, N = C->args().size(); I != N; ++I)
        Eval(OP.Args[I], *C->args()[I]);
      return FireResult::Fire;
    }

    Thread Child = newThread(Callee);
    std::vector<Bits> &ArgV = Child.Trace.Args;
    ArgV.reserve(C->args().size());
    for (unsigned I = 0, N = C->args().size(); I != N; ++I) {
      ArgV.push_back(Eval(OP.Args[I], *C->args()[I]));
      Child.Frame[Callee.Prog->ParamSlots[I]] = ArgV.back();
    }
    if (C->isSpec()) {
      hw::SpecId Sid = P.Spec.alloc(ArgV[0]);
      Child.MySpec = Sid;
      T.Handles[OP.Handle] = Sid;
      ++T.UnresolvedSpec;
      if (Bus.enabled())
        Bus.emit(obs::Event::specAlloc(Stats.Cycles,
                                       static_cast<uint16_t>(P.Index),
                                       Child.Tid, Sid));
    } else if (!Recursive && C->hasResult()) {
      Child.HasCaller = true;
      Child.CallerP = &P;
      Child.CallerTid = T.Tid;
      Child.CallerSlot = OP.Dest; // result slot in the caller's frame
      ++T.PendingResp;
    }
    emitThreadEvent(obs::Event::Kind::ThreadSpawn, Callee, Child.Tid);
    PendingEnqs.push_back({&Callee, &Callee.Entry, std::move(Child)});
    return FireResult::Fire;
  }

  case Stmt::Kind::Output: {
    const auto *O = cast<OutputStmt>(&S);
    if (!Commit) {
      Eval(OP.E0, *O->value());
      return FireResult::Fire;
    }
    Bits V = Eval(OP.E0, *O->value());
    T.Trace.Output = V;
    if (T.HasCaller)
      Deliveries.push_back(
          {Stats.Cycles, T.CallerP, T.CallerTid, T.CallerSlot, V});
    return FireResult::Fire;
  }

  case Stmt::Kind::SpecCheck: {
    const auto *C = cast<SpecCheckStmt>(&S);
    if (T.MySpec == 0)
      return FireResult::Fire;
    hw::SpecStatus St = P.Spec.status(T.MySpec);
    if (St == hw::SpecStatus::Mispredicted) {
      if (!rescueSquash(P, T.Tid))
        return FireResult::Kill;
      // Injected SkipSquash: the wrong-path thread treats its entry as
      // resolved-correct and keeps executing.
      if (Commit) {
        P.Spec.free(T.MySpec);
        T.MySpec = 0;
      }
      return FireResult::Fire;
    }
    if (St == hw::SpecStatus::Pending)
      return C->isBlocking() ? Stall(StallCause::Spec) : FireResult::Fire;
    // Correct: the thread learns it is non-speculative; free the entry.
    if (Commit) {
      P.Spec.free(T.MySpec);
      T.MySpec = 0;
    }
    return FireResult::Fire;
  }

  case Stmt::Kind::Verify: {
    const auto *V = cast<VerifyStmt>(&S);
    if (!Commit) {
      // A mispredict respawns a corrected thread: require entry space.
      unsigned Pending = pendingEnqCount(&P.Entry);
      if (P.Entry.size() + Pending >= P.Entry.capacity())
        return Stall(StallCause::Backpressure);
      Eval(OP.E0, *V->actual());
      return FireResult::Fire;
    }
    Bits Actual = Eval(OP.E0, *V->actual());
    hw::SpecId Sid = T.Handles[OP.Handle];
    assert(Sid && "verify of an unspawned speculation");
    T.Handles[OP.Handle] = 0;
    assert(T.UnresolvedSpec > 0);
    --T.UnresolvedSpec;
    // Checkpoints in interned (memory name) order.
    auto ForEachCkpt = [&](auto Fn) {
      for (size_t I = 0, N = PP.Ckpts.size(); I != N; ++I)
        if (T.Ckpts[I])
          Fn(PP.Ckpts[I].Mem, T.Ckpts[I]);
    };
    if (!P.Spec.knows(Sid)) {
      // The child's entry is already gone: only a wrong-path thread kept
      // alive by an injected SkipSquash can get here, after its (squashed)
      // child freed the entry. Drop the resolution but keep the thread's
      // bookkeeping balanced so it can run on to retire, where the
      // spec-tree monitor flags it.
      bool Rescued = rescueSquash(P, T.Tid);
      (void)Rescued;
      assert(Rescued && "verify of an unknown speculation");
      ForEachCkpt([&](uint16_t Mem, hw::CkptId Ck) {
        P.LockByIdx[Mem]->commitCheckpoint(Ck);
      });
      T.Ckpts = {};
      return FireResult::Fire;
    }
    bool Correct = P.Spec.verify(Sid, Actual);
    if (Correct) {
      ForEachCkpt([&](uint16_t Mem, hw::CkptId Ck) {
        P.LockByIdx[Mem]->commitCheckpoint(Ck);
      });
      T.Ckpts = {};
    } else {
      ForEachCkpt([&](uint16_t Mem, hw::CkptId Ck) {
        P.LockByIdx[Mem]->rollback(Ck);
        P.LockByIdx[Mem]->commitCheckpoint(Ck);
        if (Bus.enabled())
          Bus.emit(obs::Event::specRollback(Stats.Cycles,
                                            static_cast<uint16_t>(P.Index),
                                            Mem, T.Tid, /*Final=*/true));
      });
      bool AnyCkpt = T.Ckpts != decltype(T.Ckpts){};
      if (AnyCkpt && consumeFault(hw::FaultKind::DoubleRollback, P, T.Tid)) {
        // Injected fault: report each checkpoint rolled back a second time.
        // The ckpt-once monitor must flag the repeated final rollback.
        ForEachCkpt([&](uint16_t Mem, hw::CkptId) {
          if (Bus.enabled())
            Bus.emit(obs::Event::specRollback(Stats.Cycles,
                                              static_cast<uint16_t>(P.Index),
                                              Mem, T.Tid, /*Final=*/true));
        });
      }
      T.Ckpts = {};
      // Respawn the corrected, non-speculative thread.
      Thread Child = newThread(P);
      Child.Frame[P.Prog->ParamSlots[0]] = Actual;
      Child.Trace.Args = {Actual};
      emitThreadEvent(obs::Event::Kind::ThreadSpawn, P, Child.Tid);
      PendingEnqs.push_back({&P, &P.Entry, std::move(Child)});
    }
    if (const ExternCallExpr *U = V->predictorUpdate()) {
      // The update method is void, so it cannot flow through the hook used
      // for value-producing extern calls: evaluate the compiled argument
      // programs and invoke the module directly.
      UpdateArgs.clear();
      for (unsigned I = 0, N = U->args().size(); I != N; ++I)
        UpdateArgs.push_back(Eval(OP.Args[I], *U->args()[I]));
      hw::ExternModule *M = P.ExternByIdx[OP.Extern];
      assert(M && "unbound extern module");
      M->invoke(U->method(), UpdateArgs);
    }
    return FireResult::Fire;
  }

  case Stmt::Kind::Update: {
    const auto *U = cast<UpdateStmt>(&S);
    if (!Commit) {
      if (!P.Spec.canAlloc())
        return Stall(StallCause::Spec);
      unsigned Pending = pendingEnqCount(&P.Entry);
      if (P.Entry.size() + Pending >= P.Entry.capacity())
        return Stall(StallCause::Backpressure);
      Eval(OP.E0, *U->newPred());
      return FireResult::Fire;
    }
    Bits NewPred = Eval(OP.E0, *U->newPred());
    hw::SpecId &Handle = T.Handles[OP.Handle];
    assert(Handle && "update of an unspawned speculation");
    auto NewSid = P.Spec.update(Handle, NewPred);
    if (!NewSid)
      return FireResult::Fire; // prediction unchanged
    Handle = *NewSid;
    // Undo the old child's speculative lock state but keep the
    // checkpoints alive for the re-steered child.
    for (size_t I = 0, N = PP.Ckpts.size(); I != N; ++I) {
      if (!T.Ckpts[I])
        continue;
      uint16_t Mem = PP.Ckpts[I].Mem;
      P.LockByIdx[Mem]->rollback(T.Ckpts[I]);
      if (Bus.enabled())
        Bus.emit(obs::Event::specRollback(Stats.Cycles,
                                          static_cast<uint16_t>(P.Index), Mem,
                                          T.Tid, /*Final=*/false));
    }
    Thread Child = newThread(P);
    Child.MySpec = *NewSid;
    Child.Frame[P.Prog->ParamSlots[0]] = NewPred;
    Child.Trace.Args = {NewPred};
    if (Bus.enabled())
      Bus.emit(obs::Event::specAlloc(Stats.Cycles,
                                     static_cast<uint16_t>(P.Index),
                                     Child.Tid, *NewSid));
    emitThreadEvent(obs::Event::Kind::ThreadSpawn, P, Child.Tid);
    PendingEnqs.push_back({&P, &P.Entry, std::move(Child)});
    return FireResult::Fire;
  }

  default:
    assert(false && "statement kind cannot appear as a staged op");
    return FireResult::Fire;
  }
}

System::FireResult System::walkStage(PipeInstance &P, const Stage &S,
                                     Thread &T, WalkCtx &Ctx) {
  // Bind the hook dispatch to this walk (three pointer stores).
  CurP = &P;
  CurT = &T;
  CurCtx = &Ctx;
  if (TreeMode)
    hooksFor(P, T, Ctx);
  const bc::StageProg &SP = P.Prog->Stages[S.Id];
  for (size_t I = 0, N = S.Ops.size(); I != N; ++I) {
    const StagedOp &Op = S.Ops[I];
    const bc::OpProg &OP = SP.Ops[I];
    bool Holds = TreeMode
                     ? evalGuard(Op.G, Ctx.TreeVars, *CP.AST, HotHooks)
                     : bc::execGuard(OP.Guard, Ctx.Frame, Dispatch);
    if (!Holds)
      continue;
    FireResult R = walkOp(P, *Op.S, OP, T, Ctx);
    if (R != FireResult::Fire)
      return R;
  }
  return FireResult::Fire;
}

void System::recordCommit(PipeInstance &P, unsigned MemI, uint64_t Addr,
                          uint64_t Val, Thread &T) {
  T.Trace.Writes.emplace_back(P.MemNames[MemI], Addr, Val);
  if (HaltWatch && std::get<0>(*HaltWatch) == P.Index &&
      std::get<1>(*HaltWatch) == MemI && std::get<2>(*HaltWatch) == Addr) {
    if (!DrainOnHalt) {
      Halted = true;
    } else if (!HaltTid) {
      HaltTid = T.Tid;
      HaltCycle = Stats.Cycles;
    }
  }
}

void System::killThread(PipeInstance &P, Thread &&T) {
  if (!P.KilledCtr)
    P.KilledCtr = &Stats.Killed[P.CP->Decl->Name];
  ++*P.KilledCtr;
  emitThreadEvent(obs::Event::Kind::ThreadSquash, P, T.Tid);
  for (LockRegion &Reg : P.Regions)
    if (Reg.OccupantTid == T.Tid)
      Reg.OccupantTid.reset();
  if (T.MySpec != 0)
    P.Spec.free(T.MySpec);
  // Remove the thread's coordination tags (it will never reach the joins).
  for (auto It = PendingTags.begin(); It != PendingTags.end();)
    It = (It->P == &P && It->Tid == T.Tid) ? PendingTags.erase(It)
                                           : std::next(It);
  for (hw::Fifo<TagTok> &Tags : P.TagQueues)
    Tags.removeIf([&](const TagTok &Tok) { return Tok.Tid == T.Tid; });
}

void System::retireThread(PipeInstance &P, Thread &&T) {
  assert(T.NumRes == 0 && "thread retired holding lock reservations");
  assert(T.PendingResp == 0 && "thread retired with outstanding responses");
  assert(T.Handles == decltype(T.Handles){} &&
         "thread retired with unresolved speculation");
  emitThreadEvent(obs::Event::Kind::ThreadRetire, P, T.Tid);
  // Threads younger than a pending halt store are past the architectural
  // end of the program: they drain, but neither count nor leave a trace.
  if (HaltTid && T.Tid > *HaltTid)
    return;
  if (!P.RetiredCtr)
    P.RetiredCtr = &Stats.Retired[P.CP->Decl->Name];
  ++*P.RetiredCtr;
  P.Retired.push_back(std::move(T.Trace));
}

System::Thread System::dequeueInput(PipeInstance &P, const Stage &S,
                                    unsigned PredIdx) {
  if (S.Id == P.CP->Graph.Entry)
    return P.Entry.deq();
  if (S.isJoin()) {
    P.TagQueues[S.Id].deq();
    return P.PredFifos[S.Id][PredIdx]->deq();
  }
  return P.PredFifos[S.Id][0]->deq();
}

void System::tryFireStage(PipeInstance &P, const Stage &S) {
  unsigned PredIdx = 0;
  Thread *T = stageInput(P, S, PredIdx);
  if (!T) {
    noteOutcome(P, S, StallCause::Idle, 0);
    return;
  }

  if (T->PendingResp > 0) {
    noteOutcome(P, S, StallCause::Response, T->Tid);
    return;
  }

  // Lock-region serialization: a thread may not enter a multi-stage
  // reservation region while another thread occupies it.
  for (const LockRegion &Reg : P.Regions) {
    if (S.Id == Reg.First && Reg.OccupantTid && *Reg.OccupantTid != T->Tid) {
      noteOutcome(P, S, StallCause::Lock, T->Tid, Reg.Mem);
      return;
    }
  }

  // Probe pass: pure except for harmless lock-read bookkeeping. Runs on
  // the reusable scratch frame so a stall leaves the thread untouched.
  WalkCtx Probe;
  Probe.Mode = WalkMode::Probe;
  bindWalkFrame(P, *T, Probe);
  FireResult R = walkStage(P, S, *T, Probe);
  if (R == FireResult::Stall) {
    assert(Probe.Cause != StallCause::None && "stall without a cause");
    noteOutcome(P, S, Probe.Cause, T->Tid, Probe.CauseMem);
    return;
  }

  if (R == FireResult::Kill) {
    noteOutcome(P, S, StallCause::Kill, T->Tid);
    Thread Dead = dequeueInput(P, S, PredIdx);
    killThread(P, std::move(Dead));
    return;
  }

  // Back-pressure checks with the probe frame.
  const StageEdge *Succ = pickSuccessor(P, S, Probe);
  hw::Fifo<Thread> *SuccF = nullptr;
  if (Succ) {
    SuccF = P.SuccFifos[S.Id][Succ - S.Succs.data()];
    if (SuccF->size() + pendingEnqCount(SuccF) >= SuccF->capacity()) {
      noteOutcome(P, S, StallCause::Backpressure, T->Tid);
      return;
    }
  }
  for (const Stage *J : P.ForkJoins[S.Id]) {
    auto &Q = P.TagQueues[J->Id];
    unsigned Pending = 0;
    for (const PendingTag &PT : PendingTags)
      if (PT.P == &P && PT.Join == J->Id)
        ++Pending;
    if (Q.size() + Pending >= Cfg.TagDepth) {
      noteOutcome(P, S, StallCause::Backpressure, T->Tid);
      return;
    }
  }

  // Commit pass: runs in place on the thread's own frame (zero copies).
  Thread Live = dequeueInput(P, S, PredIdx);
  WalkCtx Commit;
  Commit.Mode = WalkMode::Commit;
  bindWalkFrame(P, Live, Commit);
  FireResult CR = walkStage(P, S, Live, Commit);
  assert(CR == FireResult::Fire && "probe and commit disagreed");
  (void)CR;
  syncWalkFrame(P, Live, Commit);

  // Compiler-inserted checkpoints after the thread's final reservations.
  if (Live.UnresolvedSpec != 0)
    for (uint16_t I : P.CkptsAt[S.Id])
      if (!Live.Ckpts[I])
        Live.Ckpts[I] = P.LockByIdx[P.Prog->Ckpts[I].Mem]->checkpoint();

  // Coordination tags for joins forked here (the hook dispatch is still
  // bound to the commit walk: same pipe, thread, and context).
  for (const Stage *J : P.ForkJoins[S.Id]) {
    const bc::StageProg &JP = P.Prog->Stages[J->Id];
    for (size_t I = 0, N = J->TagRules.size(); I != N; ++I) {
      const TagRule &TR = J->TagRules[I];
      bool Holds = TreeMode
                       ? evalGuard(TR.G, Commit.TreeVars, *CP.AST, HotHooks)
                       : bc::execGuard(JP.TagGuards[I], Commit.Frame,
                                       Dispatch);
      if (Holds) {
        PendingTags.push_back({&P, J->Id, TR.PredIndex, Live.Tid});
        break;
      }
    }
  }

  for (LockRegion &Reg : P.Regions) {
    if (S.Id == Reg.First)
      Reg.OccupantTid = Live.Tid;
    if (S.Id == Reg.Last && Reg.OccupantTid == Live.Tid)
      Reg.OccupantTid.reset();
  }

  noteOutcome(P, S, StallCause::None, Live.Tid);
  FiredThisCycle = true;

  if (Succ) {
    PendingEnqs.emplace_back(&P, SuccF, std::move(Live));
  } else {
    retireThread(P, std::move(Live));
  }
}

//===----------------------------------------------------------------------===//
// Clock loop
//===----------------------------------------------------------------------===//

System::Thread *System::findThread(PipeInstance &P, uint64_t Tid) {
  for (Thread &T : P.Entry)
    if (T.Tid == Tid)
      return &T;
  for (auto &[Key, F] : P.EdgeFifos)
    for (Thread &T : F)
      if (T.Tid == Tid)
        return &T;
  for (PendingEnq &E : PendingEnqs)
    if (E.P == &P && E.T.Tid == Tid)
      return &E.T;
  return nullptr;
}

void System::applyEndOfCycle() {
  for (PendingEnq &E : PendingEnqs)
    E.F->enq(std::move(E.T));
  PendingEnqs.clear();
  for (PendingTag &T : PendingTags)
    T.P->TagQueues[T.Join].enq({T.Tag, T.Tid});
  PendingTags.clear();

  // Due responses land in request order; the rest keep theirs.
  size_t Kept = 0;
  for (Delivery &D : Deliveries) {
    if (D.DueCycle > Stats.Cycles) {
      Deliveries[Kept++] = D;
      continue;
    }
    PipeInstance &P = *D.P;
    if (consumeFault(hw::FaultKind::DropMemResponse, P, D.Tid)) {
      // Injected fault: the response vanishes. PendingResp stays high, so
      // the requester stalls on Response forever — an honest deadlock the
      // wait-for diagnosis attributes to the memory response.
      continue;
    }
    if (Thread *T = findThread(P, D.Tid)) {
      T->Frame[D.Slot] = D.Value;
      assert(T->PendingResp > 0);
      --T->PendingResp;
    }
    // else: the requester was squashed; drop the orphan response.
    FiredThisCycle = true;
  }
  Deliveries.erase(Deliveries.begin() + Kept, Deliveries.end());

  // Attribution exactness: every probe attempt (a stage with an input
  // thread) resolved to exactly one of fire / kill / a typed stall cause.
  // Keeping this exact is what makes the per-stage matrix rows sum to
  // (cycles - fires); it must stay balanced as stall causes are added.
  assert(Stats.StallLock + Stats.StallSpec + Stats.StallResponse +
                 Stats.StallBackpressure ==
             Stats.ProbeAttempts - Stats.StageFires - Stats.StageKills &&
         "per-cause stall counters out of sync with probe attempts");
}

void System::cycle() {
  assert(LocksBuilt && "call start() before cycling");
  FiredThisCycle = false;
  if (Bus.enabled())
    Bus.emit(obs::Event::cycleBegin(Stats.Cycles));
  if (traceOn())
    std::fprintf(stderr, "-- cycle %llu --\n",
                 (unsigned long long)Stats.Cycles);
  for (const auto &[PI, S] : FireOrder)
    tryFireStage(*PI, *S);
  applyEndOfCycle();
  ++Stats.Cycles;
}

uint64_t System::run(uint64_t MaxCycles) {
  uint64_t Start = Stats.Cycles;
  bool Drained = false;
  while (Stats.Cycles - Start < MaxCycles && !Halted) {
    // Checkpoint cadence: fires before the next cycle executes, i.e. after
    // every post-cycle check for the previous cycle has run, so a restored
    // snapshot resumes exactly where an uninterrupted run() would be.
    if (CkptEvery && CkptHook && Stats.Cycles && Stats.Cycles % CkptEvery == 0)
      CkptHook(Stats.Cycles);
    cycle();
    if (HaltTid && !Halted) {
      // Drain mode: the halt store has committed; stop once no thread at
      // least as old as it is still in flight. The bound keeps a wedged
      // older thread from turning a halt into a timeout.
      bool OlderInFlight = false;
      for (PipeInstance *PI : PipeSeq) {
        for (const Thread &T : PI->Entry)
          OlderInFlight |= T.Tid <= *HaltTid;
        for (auto &[Edge, F] : PI->EdgeFifos)
          for (const Thread &T : F)
            OlderInFlight |= T.Tid <= *HaltTid;
      }
      for (const PendingEnq &E : PendingEnqs)
        OlderInFlight |= E.T.Tid <= *HaltTid;
      if (!OlderInFlight || Stats.Cycles - HaltCycle > 1024) {
        Halted = true;
        continue;
      }
    }
    if (FiredThisCycle) {
      IdleStreak = 0;
      continue;
    }
    // Nothing fired: either the system drained or it deadlocked.
    bool InFlight = !Deliveries.empty() || !PendingEnqs.empty();
    for (PipeInstance *PI : PipeSeq) {
      if (!PI->Entry.empty())
        InFlight = true;
      for (auto &[K, F] : PI->EdgeFifos)
        if (!F.empty())
          InFlight = true;
    }
    if (!InFlight) {
      Drained = true;
      break;
    }
    if (!Deliveries.empty()) {
      // A long-latency memory response is still in flight (cache miss);
      // the pipeline legitimately sits idle until it arrives.
      IdleStreak = 0;
      continue;
    }
    if (++IdleStreak > 8) {
      Stats.Deadlocked = true;
      Diag = diagnoseDeadlock();
      if (Bus.enabled())
        Bus.emit(obs::Event::deadlock(Stats.Cycles));
      break;
    }
  }
  Stats.Outcome = Halted              ? RunOutcome::Halted
                  : Stats.Deadlocked  ? RunOutcome::Deadlocked
                  : Drained           ? RunOutcome::Drained
                                      : RunOutcome::TimedOut;
  return Stats.Cycles - Start;
}

//===----------------------------------------------------------------------===//
// Deadlock diagnosis
//===----------------------------------------------------------------------===//

std::string System::stageOfThread(uint64_t Tid) const {
  for (const PipeInstance *PI : PipeSeq) {
    const StageGraph &G = PI->CP->Graph;
    for (const Thread &T : PI->Entry)
      if (T.Tid == Tid)
        return PI->Name + "/" + G.Stages[G.Entry].Name;
    for (const auto &[Edge, F] : PI->EdgeFifos)
      for (const Thread &T : F)
        if (T.Tid == Tid)
          return PI->Name + "/" + G.Stages[Edge.second].Name;
  }
  return "";
}

DeadlockDiagnosis System::diagnoseDeadlock() {
  DeadlockDiagnosis D;
  D.Cycle = Stats.Cycles;
  // Dead fronts were already drained during the idle streak, so probing the
  // stages here re-derives each stall without perturbing state.
  auto ForEachThread = [](PipeInstance &P, auto Fn) {
    for (Thread &T : P.Entry)
      Fn(T);
    for (auto &[K, F] : P.EdgeFifos) {
      (void)K;
      for (Thread &T : F)
        Fn(T);
    }
  };
  for (PipeInstance *PI : PipeSeq) {
    const StageGraph &G = PI->CP->Graph;
    for (unsigned Id = G.Stages.size(); Id-- > 0;) {
      const Stage &S = G.Stages[Id];
      unsigned PredIdx = 0;
      Thread *T = stageInput(*PI, S, PredIdx);
      if (!T) {
        // A join can be wedged with threads waiting on its predecessor
        // FIFOs but no coordination tag to select one.
        if (S.isJoin()) {
          uint64_t WaitTid = 0;
          for (unsigned PredId : S.Preds) {
            auto &F = PI->EdgeFifos.at({PredId, S.Id});
            if (!F.empty())
              WaitTid = F.front().Tid;
          }
          if (WaitTid && PI->TagQueues[S.Id].empty()) {
            WaitForEdge E;
            E.Pipe = PI->Name;
            E.Stage = S.Name;
            E.Tid = WaitTid;
            E.Cause = StallCause::Backpressure;
            E.Resource = "coordination-tag";
            D.Edges.push_back(std::move(E));
          }
        }
        continue;
      }
      WaitForEdge E;
      E.Pipe = PI->Name;
      E.Stage = S.Name;
      E.Tid = T->Tid;
      if (T->PendingResp > 0) {
        E.Cause = StallCause::Response;
        E.Resource = "memory-response";
        D.Edges.push_back(std::move(E));
        continue;
      }
      bool RegionBlocked = false;
      for (const LockRegion &Reg : PI->Regions) {
        if (S.Id == Reg.First && Reg.OccupantTid &&
            *Reg.OccupantTid != T->Tid) {
          E.Cause = StallCause::Lock;
          E.Resource = PI->MemNames[Reg.Mem];
          E.HolderTid = *Reg.OccupantTid;
          E.HolderStage = stageOfThread(E.HolderTid);
          D.Edges.push_back(E);
          RegionBlocked = true;
          break;
        }
      }
      if (RegionBlocked)
        continue;
      WalkCtx Probe;
      Probe.Mode = WalkMode::Probe;
      bindWalkFrame(*PI, *T, Probe);
      FireResult R = walkStage(*PI, S, *T, Probe);
      if (R != FireResult::Stall) {
        if (R != FireResult::Fire)
          continue; // killable input cannot wedge the stage
        // The ops would fire: the block must be downstream backpressure.
        const StageEdge *Succ = pickSuccessor(*PI, S, Probe);
        if (Succ) {
          auto &F = PI->EdgeFifos.at({Succ->From, Succ->To});
          if (F.size() >= F.capacity()) {
            E.Cause = StallCause::Backpressure;
            E.Resource = "fifo " + S.Name + "->" + G.Stages[Succ->To].Name;
            if (!F.empty()) {
              E.HolderTid = F.front().Tid;
              E.HolderStage = PI->Name + "/" + G.Stages[Succ->To].Name;
            }
            D.Edges.push_back(std::move(E));
          }
        }
        continue;
      }
      E.Cause = Probe.Cause;
      switch (Probe.Cause) {
      case StallCause::Lock: {
        if (Probe.CauseMem == obs::NoMem) {
          E.Resource = "lock";
          break;
        }
        E.Resource = PI->MemNames[Probe.CauseMem];
        // The holder: another thread of the pipe with a live reservation
        // on the same memory (the queue head blocking ours).
        ForEachThread(*PI, [&](Thread &O) {
          if (E.HolderTid || O.Tid == T->Tid)
            return;
          for (size_t K = 0, N = PI->Prog->ResKeys.size(); K != N; ++K) {
            if (O.Res[K].Id && PI->Prog->ResKeys[K].Mem == Probe.CauseMem) {
              E.HolderTid = O.Tid;
              E.HolderStage = stageOfThread(O.Tid);
              return;
            }
          }
        });
        break;
      }
      case StallCause::Spec: {
        E.Resource = "spec-table";
        // The holder: the parent still holding an unresolved handle on
        // this thread's speculation entry.
        if (T->MySpec)
          ForEachThread(*PI, [&](Thread &O) {
            if (E.HolderTid)
              return;
            for (hw::SpecId Sid : O.Handles) {
              if (Sid == T->MySpec) {
                E.HolderTid = O.Tid;
                E.HolderStage = stageOfThread(O.Tid);
                return;
              }
            }
          });
        break;
      }
      case StallCause::Backpressure:
        E.Resource = Probe.CauseMem != obs::NoMem
                         ? PI->MemNames[Probe.CauseMem]
                         : "downstream";
        break;
      case StallCause::Response:
        E.Resource = "memory-response";
        break;
      default:
        E.Resource = obs::stallCauseName(Probe.Cause);
        break;
      }
      D.Edges.push_back(std::move(E));
    }
  }

  // Close the loop: follow blocked-stage -> holder-stage links and report
  // the first cycle found.
  std::map<std::string, std::string> Next;
  for (const WaitForEdge &E : D.Edges)
    if (!E.HolderStage.empty())
      Next[E.Pipe + "/" + E.Stage] = E.HolderStage;
  for (const auto &[StartNode, Ignored] : Next) {
    (void)Ignored;
    std::vector<std::string> Path{StartNode};
    std::string Cur = StartNode;
    while (true) {
      auto It = Next.find(Cur);
      if (It == Next.end())
        break;
      Cur = It->second;
      if (Cur == StartNode) {
        D.WaitCycle = Path;
        break;
      }
      if (std::find(Path.begin(), Path.end(), Cur) != Path.end())
        break;
      Path.push_back(Cur);
    }
    if (!D.WaitCycle.empty())
      break;
  }
  return D;
}

std::string DeadlockDiagnosis::render() const {
  std::string Out =
      "deadlock wait-for graph (cycle " + std::to_string(Cycle) + "):\n";
  for (const WaitForEdge &E : Edges) {
    Out += "  " + E.Pipe + "/" + E.Stage;
    if (E.Tid)
      Out += " tid=" + std::to_string(E.Tid);
    Out += " blocked[";
    Out += obs::stallCauseName(E.Cause);
    Out += "] on " + E.Resource;
    if (E.HolderTid) {
      Out += " held by tid=" + std::to_string(E.HolderTid);
      if (!E.HolderStage.empty())
        Out += " at " + E.HolderStage;
    }
    Out += "\n";
  }
  if (!WaitCycle.empty()) {
    Out += "  cycle:";
    for (const std::string &N : WaitCycle)
      Out += " " + N + " ->";
    Out += " " + WaitCycle.front() + "\n";
  }
  return Out;
}

obs::Json DeadlockDiagnosis::toJsonValue() const {
  obs::Json Root = obs::Json::object();
  Root.set("cycle", obs::Json(Cycle));
  obs::Json EdgesJ = obs::Json::array();
  for (const WaitForEdge &E : Edges) {
    obs::Json EJ = obs::Json::object();
    EJ.set("pipe", obs::Json(E.Pipe));
    EJ.set("stage", obs::Json(E.Stage));
    EJ.set("tid", obs::Json(E.Tid));
    EJ.set("cause", obs::Json(std::string(obs::stallCauseName(E.Cause))));
    EJ.set("resource", obs::Json(E.Resource));
    EJ.set("holder_tid", obs::Json(E.HolderTid));
    EJ.set("holder_stage", obs::Json(E.HolderStage));
    EdgesJ.push(std::move(EJ));
  }
  Root.set("edges", std::move(EdgesJ));
  obs::Json CycleJ = obs::Json::array();
  for (const std::string &N : WaitCycle)
    CycleJ.push(obs::Json(N));
  Root.set("wait_cycle", std::move(CycleJ));
  return Root;
}
