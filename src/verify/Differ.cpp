//===- Differ.cpp - Differential execution against the golden model ---------===//
//
// Part of the PDL reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "verify/Differ.h"

#include "obs/Json.h"
#include "obs/Sinks.h"
#include "obs/VcdWriter.h"
#include "riscv/Assembler.h"
#include "riscv/GoldenSim.h"
#include "sim/WorkerPool.h"
#include "support/BinIO.h"
#include "verify/ProgGen.h"

#include <filesystem>
#include <fstream>
#include <sstream>

using namespace pdl;
using namespace pdl::verify;

obs::Json DiffConfig::toJsonValue() const {
  obs::Json V = obs::Json::object();
  V.set("core", obs::Json(cores::coreKindId(Kind)));
  V.set("mem_profile", obs::Json(Profile.Name));
  V.set("max_cycles", obs::Json(MaxCycles));
  V.set("monitors", obs::Json(WithMonitors));
  V.set("digest", obs::Json(WantDigest));
  V.set("jobs", obs::Json(uint64_t(Jobs)));
  if (!VcdPath.empty())
    V.set("vcd_path", obs::Json(VcdPath));
  if (Fault)
    V.set("fault", obs::Json(hw::printFaultPlan(*Fault)));
  // Emitted only when set, so pre-certification configs serialize to the
  // same bytes as before.
  if (Certify)
    V.set("certify", obs::Json(true));
  return V;
}

std::optional<DiffConfig> DiffConfig::fromJsonValue(const obs::Json &V,
                                                    std::string *Err) {
  auto Fail = [Err](const std::string &Why) -> std::optional<DiffConfig> {
    if (Err)
      *Err = Why;
    return std::nullopt;
  };
  if (V.kind() != obs::Json::Kind::Object)
    return Fail("config is not an object");

  DiffConfig C;
  if (const obs::Json *Core = V.get("core")) {
    std::optional<cores::CoreKind> K = cores::parseCoreKind(Core->asString());
    if (!K)
      return Fail("unknown core '" + Core->asString() + "'");
    C.Kind = *K;
  }
  if (const obs::Json *Prof = V.get("mem_profile")) {
    std::optional<cores::CoreMemProfile> P =
        cores::parseMemProfile(Prof->asString());
    if (!P)
      return Fail("unknown mem_profile '" + Prof->asString() + "'");
    C.Profile = *P;
  }
  if (const obs::Json *MC = V.get("max_cycles")) {
    if (!MC->isNumber())
      return Fail("max_cycles is not a number");
    C.MaxCycles = MC->asU64();
  }
  if (const obs::Json *M = V.get("monitors"))
    C.WithMonitors = M->asBool();
  if (const obs::Json *D = V.get("digest"))
    C.WantDigest = D->asBool();
  if (const obs::Json *J = V.get("jobs")) {
    if (!J->isNumber())
      return Fail("jobs is not a number");
    C.Jobs = unsigned(J->asU64());
    if (!C.Jobs)
      C.Jobs = 1;
  }
  if (const obs::Json *P = V.get("vcd_path"))
    C.VcdPath = P->asString();
  if (const obs::Json *F = V.get("fault")) {
    std::string FErr;
    std::optional<hw::FaultPlan> Plan = hw::parseFaultPlan(F->asString(), &FErr);
    if (!Plan)
      return Fail("bad fault plan: " + FErr);
    C.Fault = *Plan;
  }
  if (const obs::Json *Cy = V.get("certify"))
    C.Certify = Cy->asBool();
  return C;
}

obs::Json DiffResult::toJsonValue() const {
  obs::Json V = obs::Json::object();
  V.set("divergent", obs::Json(Divergent));
  V.set("reason", obs::Json(Reason));
  V.set("outcome", obs::Json(Outcome));
  V.set("cycles", obs::Json(Cycles));
  V.set("instrs", obs::Json(Instrs));
  V.set("faults_injected", obs::Json(FaultsInjected));
  V.set("violations", obs::Json(Violations));
  V.set("trace_digest", obs::Json(TraceDigest));
  if (!Tv.empty())
    V.set("tv", obs::Json(Tv));
  if (!ViolationList.empty()) {
    obs::Json Vs = obs::Json::array();
    for (const Violation &Viol : ViolationList)
      Vs.push(obs::Json(Viol.str()));
    V.set("violation_list", std::move(Vs));
  }
  if (!DeadlockDiagnosis.empty())
    V.set("deadlock_diagnosis", obs::Json(DeadlockDiagnosis));
  V.set("report", Report.toJsonValue());
  return V;
}

DiffResult verify::runDiff(const std::string &AsmSource, const DiffConfig &C) {
  DiffResult Res;
  if (C.Certify) {
    Res.Tv = tv::statusName(cores::certify(C.Kind)->St);
    // A refuted certificate means the compiled (possibly fused) artifact
    // provably diverges from its expression trees — never execute it.
    // PDL_TV_MUTATE seeds exactly this; the row still fails (BatchRunner
    // treats tv=rejected as a failure) without running miscompiled code.
    if (Res.Tv == "rejected") {
      Res.Outcome = "uncertified";
      return Res;
    }
  }
  std::vector<uint32_t> Words = riscv::assemble(AsmSource);

  // The architectural oracle: run to the halt store, keep the final state.
  riscv::GoldenSim Golden(cores::ImemAddrBits, cores::DmemAddrBits);
  Golden.loadProgram(Words);
  Golden.setHaltStore(cores::HaltByteAddr);
  uint64_t GoldenInstrs = Golden.run(4 * C.MaxCycles + 64);

  // The sinks are declared before the Core: its System delivers end() to
  // them when it is destroyed, on every return path.
  obs::CounterSink Counters;
  obs::LogSink Log;
  MonitorSink Monitors;
  std::ofstream VcdOS;
  std::unique_ptr<obs::VcdWriter> Vcd;

  cores::Core Core(C.Kind, cores::PredictorKind::Bht2Bit, C.Profile);
  backend::System &Sys = Core.system();
  // Let older in-flight work (e.g. a load miss parked in writeback behind
  // the posted halt store) land before the clock stops, so the final
  // architectural state is comparable against the golden model.
  Sys.setDrainOnHalt(true);

  Sys.attachSink(Counters);
  if (C.WantDigest)
    Sys.attachSink(Log);
  if (C.WithMonitors)
    Sys.attachSink(Monitors);
  if (!C.VcdPath.empty()) {
    VcdOS.open(C.VcdPath);
    if (VcdOS) {
      Vcd = std::make_unique<obs::VcdWriter>(VcdOS);
      Sys.attachSink(*Vcd);
    }
  }
  Core.loadProgram(Words);

  // Job checkpoint blob: four length-prefixed sections — the System
  // snapshot, then the CounterSink / LogSink / MonitorSink states. The
  // blob is self-contained: restoring needs only a Core elaborated from
  // the same DiffConfig (the snapshot embeds the config digest).
  auto MakeCheckpoint = [&]() {
    support::BinWriter W;
    W.str(Sys.snapshot());
    support::BinWriter CW;
    Counters.saveState(CW);
    W.str(CW.take());
    support::BinWriter LW;
    Log.saveState(LW);
    W.str(LW.take());
    support::BinWriter MW;
    Monitors.saveState(MW);
    W.str(MW.take());
    return W.take();
  };

  bool Resumed = false;
  if (!C.ResumeBlob.empty()) {
    support::BinReader R(C.ResumeBlob);
    std::string SysBlob = R.str();
    std::string CtrBlob = R.str();
    std::string LogBlob = R.str();
    std::string MonBlob = R.str();
    std::string RErr;
    bool Ok = R.ok() && R.done();
    if (!Ok)
      RErr = "malformed job blob";
    Ok = Ok && Sys.restore(SysBlob, &RErr);
    if (Ok) {
      support::BinReader CR(CtrBlob);
      Ok = Counters.loadState(CR);
      if (!Ok)
        RErr = "counter state rejected";
    }
    if (Ok && C.WantDigest) {
      support::BinReader LR(LogBlob);
      Ok = Log.loadState(LR);
      if (!Ok)
        RErr = "log state rejected";
    }
    if (Ok && C.WithMonitors) {
      support::BinReader MR(MonBlob);
      Ok = Monitors.loadState(MR);
      if (!Ok)
        RErr = "monitor state rejected";
    }
    if (!Ok) {
      // Never trust a damaged checkpoint: structured rejection, the caller
      // discards the blob and re-runs from cycle 0.
      Res.Outcome = "resume_rejected";
      Res.Divergent = true;
      Res.Reason = "resume blob rejected: " + RErr;
      return Res;
    }
    Resumed = true;
  }

  // On resume the restore already re-armed whatever part of the fault plan
  // had not fired; arming again would double-inject.
  if (C.Fault && !Resumed)
    Sys.armFault(*C.Fault);
  if (C.CkptEvery && C.CkptSave)
    Sys.setCheckpointHook(C.CkptEvery, [&](uint64_t Cycle) {
      C.CkptSave(Cycle, MakeCheckpoint());
    });

  // MaxCycles is a total budget from cycle 0, resumed or not, so both
  // paths stop at the same wall cycle.
  uint64_t Budget = C.MaxCycles;
  if (Resumed)
    Budget = Sys.stats().Cycles < C.MaxCycles
                 ? C.MaxCycles - Sys.stats().Cycles
                 : 0;
  cores::Core::RunResult R = Core.run(Budget, /*CheckGolden=*/true, Resumed);
  Sys.finishTrace();

  Res.Outcome = R.Outcome;
  Res.Cycles = R.Cycles;
  Res.Instrs = R.Instrs;
  Res.FaultsInjected = Sys.stats().FaultsInjected;
  if (C.WithMonitors) {
    Res.Violations = Monitors.count();
    Res.ViolationList = Monitors.violations();
  }
  if (C.WantDigest)
    Res.TraceDigest = Log.digest();
  if (R.Deadlocked && Sys.deadlockDiagnosis().valid())
    Res.DeadlockDiagnosis = Sys.deadlockDiagnosis().render();

  Res.Report = Counters.report();
  Res.Report.Outcome = Res.Outcome;
  Res.Report.Violations = Res.Violations;

  auto Diverge = [&](std::string Why) {
    if (!Res.Divergent)
      Res.Reason = std::move(Why);
    Res.Divergent = true;
  };

  if (!Golden.halted()) {
    Diverge("golden simulator did not halt (generator bug?)");
    return Res;
  }
  if (!R.Halted) {
    Diverge("core did not halt: outcome=" + Res.Outcome);
    return Res;
  }
  if (!R.TraceMatches)
    Diverge("commit trace mismatch: " + R.TraceMismatch);
  // The golden model counts the halting store; the core stops simulating
  // when that store commits, before the thread reaches retire — so an
  // exact run retires GoldenInstrs or GoldenInstrs - 1 instructions.
  // Dropped/duplicated instructions inside that window are still caught by
  // the per-commit trace compare and the final-state diff below.
  if (R.Instrs + 1 != GoldenInstrs && R.Instrs != GoldenInstrs)
    Diverge("retired " + std::to_string(R.Instrs) + " instrs vs golden " +
            std::to_string(GoldenInstrs));

  // Final architectural state: the register file and the scratch window
  // the generator's loads/stores alias.
  backend::MemHandle Rf = Sys.memHandle(Core.cpu(), "rf");
  for (unsigned Reg = 1; Reg != 32 && !Res.Divergent; ++Reg) {
    uint64_t Got = Sys.archRead(Rf, Reg).zext();
    if (Got != Golden.reg(Reg)) {
      std::ostringstream OS;
      OS << "final x" << Reg << " = 0x" << std::hex << Got << " vs golden 0x"
         << Golden.reg(Reg);
      Diverge(OS.str());
    }
  }
  for (uint32_t W = ScratchBaseWord;
       W != ScratchBaseWord + ScratchWords && !Res.Divergent; ++W) {
    uint64_t Got = Sys.archRead(Core.dmem(), W).zext();
    if (Got != Golden.loadData(W)) {
      std::ostringstream OS;
      OS << "final dmem[" << W << "] = 0x" << std::hex << Got
         << " vs golden 0x" << Golden.loadData(W);
      Diverge(OS.str());
    }
  }
  return Res;
}

std::string verify::shrink(const std::string &AsmSource, const DiffConfig &C) {
  // Re-runs during shrinking never need waveforms or digests.
  DiffConfig SC = C;
  SC.VcdPath.clear();
  SC.WantDigest = false;

  std::vector<std::string> Lines;
  {
    std::istringstream IS(AsmSource);
    std::string L;
    while (std::getline(IS, L))
      Lines.push_back(L);
  }
  // Only plain instruction lines are removable: labels must survive for
  // branch targets, and the halt epilogue (everything touching x31 plus
  // the final spin loop) keeps every variant terminating.
  auto Removable = [](const std::string &L) {
    return L.size() > 2 && L[0] == ' ' && L.find(':') == std::string::npos &&
           L.find("x31") == std::string::npos &&
           L.find("j halt") == std::string::npos;
  };
  auto Join = [](const std::vector<std::string> &Ls) {
    std::string Out;
    for (const std::string &L : Ls) {
      Out += L;
      Out += '\n';
    }
    return Out;
  };

  // Round-based: evaluate every candidate's single-line removal against
  // the current program — in parallel over C.Jobs workers — then decide
  // from the whole round's results. The accept rule never looks at
  // completion order, so the shrunk program is identical for every jobs
  // count (pdlfuzz --jobs byte-identity covers the repro bundles too).
  unsigned Budget = 400; // cap on re-executions
  bool Improved = true;
  while (Improved && Budget) {
    Improved = false;
    std::vector<size_t> Cand;
    for (size_t I = 0; I != Lines.size(); ++I)
      if (Removable(Lines[I]))
        Cand.push_back(I);
    if (Cand.size() > Budget)
      Cand.resize(Budget);
    if (Cand.empty())
      break;
    Budget -= Cand.size();
    std::vector<char> StillFails(Cand.size(), 0);
    sim::parallelForOrdered(C.Jobs, Cand.size(), [&](size_t K) {
      std::vector<std::string> Trial = Lines;
      Trial.erase(Trial.begin() + Cand[K]);
      StillFails[K] = runDiff(Join(Trial), SC).failed();
    });
    std::vector<size_t> Keep;
    for (size_t K = 0; K != Cand.size(); ++K)
      if (StillFails[K])
        Keep.push_back(Cand[K]);
    if (Keep.empty())
      break;
    if (Keep.size() > 1 && Budget) {
      // Lines that are individually removable usually stay removable
      // together; one verification run commits the whole set.
      std::vector<std::string> Trial = Lines;
      for (size_t J = Keep.size(); J-- > 0;)
        Trial.erase(Trial.begin() + Keep[J]);
      --Budget;
      if (runDiff(Join(Trial), SC).failed()) {
        Lines = std::move(Trial);
        Improved = true;
        continue;
      }
    }
    // The combined removal repaired the failure (or there was only one
    // candidate): take the first line alone and re-evaluate next round.
    Lines.erase(Lines.begin() + Keep.front());
    Improved = true;
  }
  return Join(Lines);
}

bool verify::writeReproBundle(const std::string &Dir,
                              const std::string &AsmSource,
                              const std::string &Shrunk, uint64_t Seed,
                              const DiffConfig &C, const DiffResult &R) {
  namespace fs = std::filesystem;
  std::error_code EC;
  fs::create_directories(Dir, EC);
  if (EC)
    return false;

  auto WriteFile = [&](const char *Name, const std::string &Text) {
    std::ofstream OS(Dir + "/" + Name);
    OS << Text;
    return bool(OS);
  };

  // Files are written in sorted name order — config.json, program.s,
  // repro.json, shrunk.s, stats.json, trace.vcd — so bundle listings and
  // archives diff stably across producers.
  //
  // config.json pins the serial replay: seed plus the exact run
  // configuration, with jobs fixed at 1 so a bundle produced under
  // `pdlfuzz --jobs=N` replays one System on one thread.
  obs::Json Config = obs::Json::object();
  Config.set("seed", obs::Json(Seed));
  Config.set("jobs", obs::Json(uint64_t(1)));
  Config.set("core", obs::Json(cores::coreName(C.Kind)));
  Config.set("mem_profile", obs::Json(C.Profile.Name));
  Config.set("max_cycles", obs::Json(C.MaxCycles));
  if (C.Fault)
    Config.set("fault", obs::Json(hw::faultKindName(C.Fault->Kind)));
  if (!WriteFile("config.json", Config.dump(2) + "\n"))
    return false;
  if (!WriteFile("program.s", AsmSource))
    return false;

  obs::Json Repro = obs::Json::object();
  Repro.set("seed", obs::Json(Seed));
  Repro.set("core", obs::Json(cores::coreName(C.Kind)));
  Repro.set("mem_profile", obs::Json(C.Profile.Name));
  Repro.set("max_cycles", obs::Json(C.MaxCycles));
  if (C.Fault)
    Repro.set("fault", obs::Json(hw::faultKindName(C.Fault->Kind)));
  Repro.set("outcome", obs::Json(R.Outcome));
  Repro.set("divergent", obs::Json(R.Divergent));
  Repro.set("reason", obs::Json(R.Reason));
  Repro.set("cycles", obs::Json(R.Cycles));
  Repro.set("instrs", obs::Json(R.Instrs));
  Repro.set("faults_injected", obs::Json(R.FaultsInjected));
  Repro.set("violations", obs::Json(R.Violations));
  if (!R.ViolationList.empty()) {
    obs::Json Vs = obs::Json::array();
    for (const Violation &V : R.ViolationList)
      Vs.push(obs::Json(V.str()));
    Repro.set("violation_list", std::move(Vs));
  }
  if (!R.DeadlockDiagnosis.empty())
    Repro.set("deadlock_diagnosis", obs::Json(R.DeadlockDiagnosis));
  if (!WriteFile("repro.json", Repro.dump(2) + "\n"))
    return false;
  if (!Shrunk.empty() && !WriteFile("shrunk.s", Shrunk))
    return false;
  if (!WriteFile("stats.json", R.Report.toJson() + "\n"))
    return false;

  // Re-run once more with a waveform attached so the bundle is viewable.
  DiffConfig VC = C;
  VC.VcdPath = Dir + "/trace.vcd";
  VC.WantDigest = false;
  runDiff(AsmSource, VC);
  return true;
}
