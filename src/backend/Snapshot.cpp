//===- Snapshot.cpp - Whole-system state serialization ---------------------===//
//
// Part of the PDL reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// System::snapshot()/restore(): a versioned, digest-stamped, CRC-guarded
/// binary image of every piece of dynamic simulator state. The contract is
/// resume equivalence: restoring a snapshot into a freshly elaborated
/// System (same program, same ElabConfig, same externs bound) and running
/// it to completion produces byte-identical stats, traces, and events to a
/// run that was never interrupted. The crash-safe simulation service
/// (pdlsimd --checkpoint-every) is built on this.
///
/// Layout: [magic u32][version u32][configDigest u64][payload][crc32 u32],
/// where the CRC covers everything before it. Every container with
/// nondeterministic iteration order is serialized through a sorted view so
/// identical logical state always produces identical bytes — that is what
/// lets tests compare snapshots with memcmp.
///
/// Snapshots are taken at cycle boundaries only (outside cycle()), where
/// the deferred-enqueue and deferred-tag buffers are structurally empty;
/// only the delayed memory-response deliveries persist across cycles.
///
//===----------------------------------------------------------------------===//

#include "backend/System.h"

#include <algorithm>
#include <cassert>

using namespace pdl;
using namespace pdl::backend;
using support::BinReader;
using support::BinWriter;

namespace {

constexpr uint32_t kMagic = 0x50444C53;   // "PDLS"
/// Version 2: threads carry their lock, spec-handle and checkpoint state as
/// arrays addressed by interned index instead of name-keyed maps.
constexpr uint32_t kVersion = 2;

uint64_t fnv1a64(const std::string &S) {
  uint64_t H = 1469598103934665603ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

void saveTrace(BinWriter &W, const ThreadTrace &T) {
  W.u32(static_cast<uint32_t>(T.Args.size()));
  for (const Bits &A : T.Args)
    W.bits(A);
  W.u32(static_cast<uint32_t>(T.Writes.size()));
  for (const auto &[Mem, Addr, Val] : T.Writes) {
    W.str(Mem);
    W.u64(Addr);
    W.u64(Val);
  }
  W.b(T.Output.has_value());
  if (T.Output)
    W.bits(*T.Output);
}

bool loadTrace(BinReader &R, ThreadTrace &T) {
  uint32_t NArgs = R.u32();
  T.Args.clear();
  for (uint32_t I = 0; I != NArgs && R.ok(); ++I)
    T.Args.push_back(R.bits());
  uint32_t NWrites = R.u32();
  T.Writes.clear();
  for (uint32_t I = 0; I != NWrites && R.ok(); ++I) {
    std::string Mem = R.str();
    uint64_t Addr = R.u64();
    uint64_t Val = R.u64();
    T.Writes.emplace_back(std::move(Mem), Addr, Val);
  }
  T.Output.reset();
  if (R.b())
    T.Output = R.bits();
  return R.ok();
}

void savePlan(BinWriter &W, const hw::FaultPlan &P) {
  W.str(hw::printFaultPlan(P));
}

bool loadPlan(BinReader &R, hw::FaultPlan &P) {
  std::string S = R.str();
  if (!R.ok())
    return false;
  std::optional<hw::FaultPlan> Parsed = hw::parseFaultPlan(S);
  if (!Parsed) {
    R.fail();
    return false;
  }
  P = *Parsed;
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// Structural digest
//===----------------------------------------------------------------------===//

uint64_t System::configDigest() const {
  BinWriter W;
  W.u32(kVersion);
  W.u32(Cfg.FifoDepth);
  W.u32(Cfg.EntryDepth);
  W.u32(Cfg.TagDepth);
  W.u32(Cfg.SpecCapacity);
  W.u8(static_cast<uint8_t>(Cfg.DefaultLock));
  W.b(TreeMode);
  W.b(FusedMode); // snapshot resume is same-mode, like TreeMode
  W.b(NativeMode); // the requested mode, even if attach degraded to fused
  W.u32(static_cast<uint32_t>(Cfg.LockChoice.size()));
  for (const auto &[Key, Kind] : Cfg.LockChoice) {
    W.str(Key);
    W.u8(static_cast<uint8_t>(Kind));
  }
  W.u32(static_cast<uint32_t>(Cfg.MemLatency.size()));
  for (const auto &[Key, Lat] : Cfg.MemLatency) {
    W.str(Key);
    W.u32(Lat);
  }
  W.u32(static_cast<uint32_t>(Cfg.MemModels.size()));
  for (const auto &[Key, MC] : Cfg.MemModels) {
    W.str(Key);
    W.u8(static_cast<uint8_t>(MC.K));
    W.u32(MC.FixedLat);
    W.b(MC.SinglePorted);
    W.u32(MC.Cache.Sets);
    W.u32(MC.Cache.Ways);
    W.u32(MC.Cache.LineElems);
    W.u32(MC.Cache.HitLatency);
    W.u32(MC.Cache.MissPenalty);
    W.u32(MC.Cache.WritebackPenalty);
    W.u32(MC.Cache.MshrCount);
    W.b(MC.Cache.WriteBack);
    W.str(MC.ShareTag);
    W.u32(MC.ShareLatency);
  }
  W.u32(static_cast<uint32_t>(PipeSeq.size()));
  for (const PipeInstance *PI : PipeSeq) {
    W.str(PI->Name);
    const StageGraph &G = PI->CP->Graph;
    W.u32(static_cast<uint32_t>(G.Stages.size()));
    for (const Stage &S : G.Stages)
      W.str(S.Name);
    W.u32(static_cast<uint32_t>(PI->Prog->InitFrame.size()));
    W.u32(static_cast<uint32_t>(PI->Mems.size()));
    for (const auto &[Name, M] : PI->Mems) {
      W.str(Name);
      W.u32(M->elemWidth());
      W.u32(M->addrWidth());
      W.b(M->isSync());
    }
  }
  return fnv1a64(W.buffer());
}

//===----------------------------------------------------------------------===//
// Per-component codecs
//===----------------------------------------------------------------------===//

void System::saveThread(BinWriter &W, const Thread &T) const {
  W.u64(T.Tid);
  W.u32(static_cast<uint32_t>(T.Frame.size()));
  for (const Bits &V : T.Frame)
    W.bits(V);
  W.u64(T.MySpec);
  for (const ResRec &Rec : T.Res) {
    W.u64(Rec.Id);
    W.u64(Rec.Addr);
    W.u64(Rec.WrittenVal);
    W.b(Rec.Written);
  }
  for (hw::SpecId Id : T.Handles)
    W.u64(Id);
  for (hw::CkptId Id : T.Ckpts)
    W.u64(Id);
  W.u32(T.UnresolvedSpec);
  W.u32(T.PendingResp);
  saveTrace(W, T.Trace);
  W.b(T.HasCaller);
  W.u32(T.CallerP ? T.CallerP->Index : ~0u);
  W.u64(T.CallerTid);
  W.u16(T.CallerSlot);
}

bool System::loadThread(BinReader &R, Thread &T) {
  T.Tid = R.u64();
  uint32_t FrameN = R.u32();
  if (!R.ok())
    return false;
  T.Frame.clear();
  T.Frame.reserve(FrameN);
  for (uint32_t I = 0; I != FrameN && R.ok(); ++I)
    T.Frame.push_back(R.bits());
  T.MySpec = R.u64();
  T.NumRes = 0;
  for (ResRec &Rec : T.Res) {
    Rec.Id = R.u64();
    Rec.Addr = R.u64();
    Rec.WrittenVal = R.u64();
    Rec.Written = R.b();
    T.NumRes += Rec.Id != 0;
  }
  for (hw::SpecId &Id : T.Handles)
    Id = R.u64();
  for (hw::CkptId &Id : T.Ckpts)
    Id = R.u64();
  T.UnresolvedSpec = R.u32();
  T.PendingResp = R.u32();
  if (!loadTrace(R, T.Trace))
    return false;
  T.HasCaller = R.b();
  uint32_t CallerIdx = R.u32();
  if (CallerIdx == ~0u) {
    T.CallerP = nullptr;
  } else {
    if (CallerIdx >= PipeSeq.size())
      return false;
    T.CallerP = PipeSeq[CallerIdx];
  }
  T.CallerTid = R.u64();
  T.CallerSlot = R.u16();
  return R.ok();
}

void System::saveStats(BinWriter &W) const {
  W.u64(Stats.Cycles);
  W.u32(static_cast<uint32_t>(Stats.Retired.size()));
  for (const auto &[Pipe, N] : Stats.Retired) {
    W.str(Pipe);
    W.u64(N);
  }
  W.u32(static_cast<uint32_t>(Stats.Killed.size()));
  for (const auto &[Pipe, N] : Stats.Killed) {
    W.str(Pipe);
    W.u64(N);
  }
  W.u64(Stats.StageFires);
  W.u64(Stats.ProbeAttempts);
  W.u64(Stats.StageKills);
  W.u64(Stats.StallLock);
  W.u64(Stats.StallSpec);
  W.u64(Stats.StallResponse);
  W.u64(Stats.StallBackpressure);
  W.b(Stats.Deadlocked);
  W.u8(static_cast<uint8_t>(Stats.Outcome));
  W.u64(Stats.FaultsInjected);
}

bool System::loadStats(BinReader &R) {
  Stats.Cycles = R.u64();
  uint32_t NRetired = R.u32();
  Stats.Retired.clear();
  for (uint32_t I = 0; I != NRetired && R.ok(); ++I) {
    std::string Pipe = R.str();
    Stats.Retired[Pipe] = R.u64();
  }
  uint32_t NKilled = R.u32();
  Stats.Killed.clear();
  for (uint32_t I = 0; I != NKilled && R.ok(); ++I) {
    std::string Pipe = R.str();
    Stats.Killed[Pipe] = R.u64();
  }
  Stats.StageFires = R.u64();
  Stats.ProbeAttempts = R.u64();
  Stats.StageKills = R.u64();
  Stats.StallLock = R.u64();
  Stats.StallSpec = R.u64();
  Stats.StallResponse = R.u64();
  Stats.StallBackpressure = R.u64();
  Stats.Deadlocked = R.b();
  uint8_t Outcome = R.u8();
  if (Outcome > static_cast<uint8_t>(RunOutcome::TimedOut))
    return false;
  Stats.Outcome = static_cast<RunOutcome>(Outcome);
  Stats.FaultsInjected = R.u64();
  return R.ok();
}

//===----------------------------------------------------------------------===//
// Hardware-delegated fault arms
//===----------------------------------------------------------------------===//

uint64_t System::hwArmRemaining(const hw::FaultPlan &Plan) {
  PipeInstance &P = pipe(Plan.Pipe);
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
    if (Plan.Kind == hw::FaultKind::FifoDropThread)
      return F->dropArm();
    if (Plan.Kind == hw::FaultKind::FifoDupThread)
      return F->dupArm();
    return F->corruptArm();
  }
  case hw::FaultKind::HwDropLockRelease: {
    hw::HazardLock *L = lockFor(P, Plan.Mem);
    return L ? L->dropReleaseArm() : 0;
  }
  case hw::FaultKind::SuppressMispredict:
    return P.Spec.suppressArm();
  case hw::FaultKind::SkipCascade:
    return P.Spec.skipCascadeArm();
  default:
    return 0;
  }
}

//===----------------------------------------------------------------------===//
// snapshot()
//===----------------------------------------------------------------------===//

std::string System::snapshot() {
  elaborateLocks();
  // Cycle-boundary contract: the deferred-enqueue and deferred-tag buffers
  // are flushed by applyEndOfCycle() before Stats.Cycles advances; only
  // delayed memory-response deliveries legitimately cross a boundary.
  assert(PendingEnqs.empty() && PendingTags.empty() &&
         "snapshot taken mid-cycle");

  BinWriter W;
  W.u32(kMagic);
  W.u32(kVersion);
  W.u64(configDigest());

  saveStats(W);
  W.b(Halted);
  W.b(DrainOnHalt);
  W.b(HaltTid.has_value());
  W.u64(HaltTid.value_or(0));
  W.u64(HaltCycle);
  W.b(HaltWatch.has_value());
  if (HaltWatch) {
    W.u32(std::get<0>(*HaltWatch));
    W.u32(std::get<1>(*HaltWatch));
    W.u64(std::get<2>(*HaltWatch));
  }
  W.u64(NextTid);
  W.u64(IdleStreak);
  W.b(FiredThisCycle);

  W.u32(static_cast<uint32_t>(PipeSeq.size()));
  for (const PipeInstance *PI : PipeSeq) {
    W.str(PI->Name);
    W.u32(static_cast<uint32_t>(PI->Entry.size()));
    for (const Thread &T : PI->Entry)
      saveThread(W, T);
    W.u32(static_cast<uint32_t>(PI->EdgeFifos.size()));
    for (const auto &[Edge, F] : PI->EdgeFifos) {
      W.u32(Edge.first);
      W.u32(Edge.second);
      W.u32(static_cast<uint32_t>(F.size()));
      for (const Thread &T : F)
        saveThread(W, T);
    }
    W.u32(static_cast<uint32_t>(PI->TagQueues.size()));
    for (const hw::Fifo<TagTok> &Tags : PI->TagQueues) {
      W.u32(static_cast<uint32_t>(Tags.size()));
      for (const TagTok &Tok : Tags) {
        W.u32(Tok.Tag);
        W.u64(Tok.Tid);
      }
    }
    W.u32(static_cast<uint32_t>(PI->Regions.size()));
    for (const LockRegion &Reg : PI->Regions) {
      W.b(Reg.OccupantTid.has_value());
      W.u64(Reg.OccupantTid.value_or(0));
    }
    W.u32(static_cast<uint32_t>(PI->Mems.size()));
    for (const auto &[Name, M] : PI->Mems) {
      W.str(Name);
      M->saveState(W);
    }
    W.u32(static_cast<uint32_t>(PI->Locks.size()));
    for (const auto &[Name, L] : PI->Locks) {
      W.str(Name);
      L->saveState(W);
    }
    PI->Spec.saveState(W);
    W.u32(static_cast<uint32_t>(PI->Retired.size()));
    for (const ThreadTrace &T : PI->Retired)
      saveTrace(W, T);
  }

  W.u32(static_cast<uint32_t>(Deliveries.size()));
  for (const Delivery &D : Deliveries) {
    W.u64(D.DueCycle);
    W.u32(D.P->Index);
    W.u64(D.Tid);
    W.u16(D.Slot);
    W.bits(D.Value);
  }

  W.u32(static_cast<uint32_t>(Externs.size()));
  for (const auto &[Name, Module] : Externs) {
    W.str(Name);
    Module->saveState(W);
  }

  W.u32(static_cast<uint32_t>(OwnedModels.size()));
  for (const auto &M : OwnedModels)
    M->saveState(W);
  W.u32(static_cast<uint32_t>(SharedBackings.size()));
  for (const auto &[Tag, M] : SharedBackings) {
    W.str(Tag);
    M->saveState(W);
  }

  W.u32(static_cast<uint32_t>(Faults.size()));
  for (const ArmedFault &F : Faults) {
    savePlan(W, F.Plan);
    W.u64(F.Countdown);
    W.b(F.Fired);
    W.u64(F.RescuedTid);
  }
  W.u32(static_cast<uint32_t>(HwArmedPlans.size()));
  for (const hw::FaultPlan &Plan : HwArmedPlans) {
    savePlan(W, Plan);
    W.u64(hwArmRemaining(Plan));
  }

  std::string Blob = W.take();
  uint32_t Crc = support::crc32(Blob);
  BinWriter Tail;
  Tail.u32(Crc);
  Blob += Tail.buffer();
  return Blob;
}

//===----------------------------------------------------------------------===//
// restore()
//===----------------------------------------------------------------------===//

bool System::restore(const std::string &Blob, std::string *Err) {
  auto Fail = [&](const char *Msg) {
    if (Err)
      *Err = Msg;
    return false;
  };
  if (Blob.size() < 20)
    return Fail("snapshot truncated");
  BinReader Tail(Blob.data() + Blob.size() - 4, 4);
  if (support::crc32(Blob.data(), Blob.size() - 4) != Tail.u32())
    return Fail("snapshot CRC mismatch");

  BinReader R(Blob.data(), Blob.size() - 4);
  if (R.u32() != kMagic)
    return Fail("not a PDL snapshot");
  if (R.u32() != kVersion)
    return Fail("unsupported snapshot version");
  elaborateLocks();
  if (R.u64() != configDigest())
    return Fail("snapshot was taken under a different configuration");

  if (!loadStats(R))
    return Fail("corrupt stats section");
  Halted = R.b();
  DrainOnHalt = R.b();
  HaltTid.reset();
  bool HasHaltTid = R.b();
  uint64_t HaltTidV = R.u64();
  if (HasHaltTid)
    HaltTid = HaltTidV;
  HaltCycle = R.u64();
  HaltWatch.reset();
  if (R.b()) {
    uint32_t P = R.u32(), M = R.u32();
    uint64_t A = R.u64();
    if (P >= PipeSeq.size())
      return Fail("corrupt halt watch");
    HaltWatch = std::make_tuple(P, M, A);
  }
  NextTid = R.u64();
  IdleStreak = R.u64();
  FiredThisCycle = R.b();
  if (!R.ok())
    return Fail("snapshot truncated");

  PendingEnqs.clear();
  PendingTags.clear();
  Diag = DeadlockDiagnosis();

  if (R.u32() != PipeSeq.size())
    return Fail("pipe count mismatch");
  for (PipeInstance *PI : PipeSeq) {
    if (R.str() != PI->Name)
      return Fail("pipe name mismatch");
    // The lazily bound per-pipe counter pointers target Stats map nodes
    // that loadStats() just rebuilt; they re-bind on the next retire/kill.
    // Binding them eagerly here would insert zero-count entries for pipes
    // that never retire, perturbing the final-state byte image.
    PI->RetiredCtr = nullptr;
    PI->KilledCtr = nullptr;

    uint32_t NEntry = R.u32();
    if (!R.ok() || NEntry > PI->Entry.capacity())
      return Fail("corrupt entry queue");
    std::vector<Thread> Entry;
    for (uint32_t I = 0; I != NEntry; ++I) {
      Thread T;
      if (!loadThread(R, T))
        return Fail("corrupt thread");
      Entry.push_back(std::move(T));
    }
    PI->Entry.restoreItems(std::move(Entry));

    if (R.u32() != PI->EdgeFifos.size())
      return Fail("edge FIFO count mismatch");
    for (auto &[Edge, F] : PI->EdgeFifos) {
      if (R.u32() != Edge.first || R.u32() != Edge.second)
        return Fail("edge FIFO key mismatch");
      uint32_t N = R.u32();
      if (!R.ok() || N > F.capacity())
        return Fail("corrupt edge FIFO");
      std::vector<Thread> Items;
      for (uint32_t I = 0; I != N; ++I) {
        Thread T;
        if (!loadThread(R, T))
          return Fail("corrupt thread");
        Items.push_back(std::move(T));
      }
      F.restoreItems(std::move(Items));
    }

    if (R.u32() != PI->TagQueues.size())
      return Fail("tag queue count mismatch");
    for (hw::Fifo<TagTok> &Tags : PI->TagQueues) {
      uint32_t N = R.u32();
      if (!R.ok() || N > Tags.capacity())
        return Fail("corrupt tag queue");
      std::vector<TagTok> Toks(N);
      for (TagTok &Tok : Toks) {
        Tok.Tag = R.u32();
        Tok.Tid = R.u64();
      }
      Tags.restoreItems(std::move(Toks));
    }

    if (R.u32() != PI->Regions.size())
      return Fail("lock region count mismatch");
    for (LockRegion &Reg : PI->Regions) {
      Reg.OccupantTid.reset();
      bool Has = R.b();
      uint64_t Tid = R.u64();
      if (Has)
        Reg.OccupantTid = Tid;
    }

    if (R.u32() != PI->Mems.size())
      return Fail("memory count mismatch");
    for (auto &[Name, M] : PI->Mems) {
      if (R.str() != Name)
        return Fail("memory name mismatch");
      if (!M->loadState(R))
        return Fail("corrupt memory contents");
    }

    if (R.u32() != PI->Locks.size())
      return Fail("lock count mismatch");
    for (auto &[Name, L] : PI->Locks) {
      if (R.str() != Name)
        return Fail("lock name mismatch");
      if (!L->loadState(R))
        return Fail("corrupt lock state");
    }

    if (!PI->Spec.loadState(R))
      return Fail("corrupt speculation table");

    uint32_t NRetired = R.u32();
    if (!R.ok())
      return Fail("snapshot truncated");
    PI->Retired.clear();
    for (uint32_t I = 0; I != NRetired; ++I) {
      ThreadTrace T;
      if (!loadTrace(R, T))
        return Fail("corrupt retired trace");
      PI->Retired.push_back(std::move(T));
    }
  }

  uint32_t NDeliveries = R.u32();
  if (!R.ok())
    return Fail("snapshot truncated");
  Deliveries.clear();
  for (uint32_t I = 0; I != NDeliveries; ++I) {
    Delivery D;
    D.DueCycle = R.u64();
    uint32_t PIdx = R.u32();
    if (!R.ok() || PIdx >= PipeSeq.size())
      return Fail("corrupt delivery");
    D.P = PipeSeq[PIdx];
    D.Tid = R.u64();
    D.Slot = R.u16();
    D.Value = R.bits();
    Deliveries.push_back(std::move(D));
  }

  uint32_t NExterns = R.u32();
  if (!R.ok() || NExterns != Externs.size())
    return Fail("extern module set mismatch");
  for (auto &[Name, Module] : Externs) {
    if (R.str() != Name)
      return Fail("extern module set mismatch");
    if (!Module->loadState(R))
      return Fail("corrupt extern module state");
  }

  uint32_t NModels = R.u32();
  if (!R.ok() || NModels != OwnedModels.size())
    return Fail("memory model count mismatch");
  for (size_t I = 0; I != OwnedModels.size(); ++I)
    if (!OwnedModels[I]->loadState(R))
      return Fail(("corrupt memory model state (model " + std::to_string(I) +
                   ", " + OwnedModels[I]->kindName() + ")")
                      .c_str());
  uint32_t NShared = R.u32();
  if (!R.ok() || NShared != SharedBackings.size())
    return Fail("shared backing count mismatch");
  for (auto &[Tag, M] : SharedBackings) {
    if (R.str() != Tag)
      return Fail("shared backing tag mismatch");
    if (!M->loadState(R))
      return Fail("corrupt shared backing state");
  }

  uint32_t NFaults = R.u32();
  if (!R.ok())
    return Fail("snapshot truncated");
  Faults.clear();
  for (uint32_t I = 0; I != NFaults; ++I) {
    ArmedFault F;
    if (!loadPlan(R, F.Plan))
      return Fail("corrupt fault plan");
    F.Countdown = R.u64();
    F.Fired = R.b();
    F.RescuedTid = R.u64();
    Faults.push_back(std::move(F));
  }

  uint32_t NHwPlans = R.u32();
  if (!R.ok())
    return Fail("snapshot truncated");
  std::vector<std::pair<hw::FaultPlan, uint64_t>> Pending;
  for (uint32_t I = 0; I != NHwPlans; ++I) {
    hw::FaultPlan Plan;
    if (!loadPlan(R, Plan))
      return Fail("corrupt fault plan");
    uint64_t Remaining = R.u64();
    Pending.emplace_back(std::move(Plan), Remaining);
  }
  if (!R.done())
    return Fail(R.ok() ? "snapshot has trailing bytes"
                       : "snapshot truncated");

  // Re-arm hardware-delegated fault plans with their remaining counts
  // (already-fired arms stay disarmed; their effect is in the state).
  HwArmedPlans.clear();
  for (auto &[Plan, Remaining] : Pending) {
    if (Remaining == 0)
      continue;
    Plan.Nth = Remaining;
    armFault(Plan); // re-records the plan in HwArmedPlans
  }
  return true;
}
