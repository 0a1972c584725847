//===- SnapshotTest.cpp - System snapshot/restore resume equivalence --------===//
//
// Part of the PDL reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The crash-safety contract of backend::System::snapshot()/restore():
///
///  * resume equivalence — run N cycles, snapshot, restore into a fresh
///    System, run to completion: the final snapshot is byte-identical to
///    an uninterrupted run's, and the concatenated event logs are the
///    same text (so trace digests match). Checked across the full core x
///    memory-profile golden matrix.
///  * corruption safety — a flipped byte, a truncation, trailing garbage,
///    a blob in the previous format version, or a snapshot from a
///    differently-configured System is rejected by restore(), never
///    silently loaded.
///  * service-job checkpoints — runDiff's CkptEvery/ResumeBlob plumbing
///    produces results byte-identical to an uninterrupted run, and
///    rejects damaged blobs with outcome "resume_rejected".
///
//===----------------------------------------------------------------------===//

#include "backend/System.h"
#include "cores/Core.h"
#include "obs/Sinks.h"
#include "riscv/Assembler.h"
#include "verify/Differ.h"
#include "verify/ProgGen.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>

using namespace pdl;

namespace {

cores::CoreMemProfile profileByName(const std::string &Name) {
  if (Name == "l1-4k")
    return cores::memProfileL1_4K();
  if (Name == "l1-tiny")
    return cores::memProfileL1Tiny();
  return cores::memProfileAlwaysHit();
}

/// The same fixed workload the golden digest matrix is pinned on.
std::string pinnedProgram() {
  verify::GenConfig G;
  G.Seed = 1;
  return verify::generateProgram(G);
}

constexpr uint64_t kMaxCycles = 50000;

/// A core with the runDiff sink arrangement: drain-on-halt, one LogSink.
struct Rig {
  obs::LogSink Log; // declared first: the System delivers end() to it
  cores::Core Core;

  Rig(cores::CoreKind Kind, const cores::CoreMemProfile &Profile,
      const std::vector<uint32_t> &Words)
      : Core(Kind, cores::PredictorKind::Bht2Bit, Profile) {
    Core.system().setDrainOnHalt(true);
    Core.system().attachSink(Log);
    Core.loadProgram(Words);
  }

  backend::System &sys() { return Core.system(); }
};

TEST(SnapshotTest, ResumeEquivalenceAcrossGoldenMatrix) {
  const std::string Program = pinnedProgram();
  const std::vector<uint32_t> Words = riscv::assemble(Program);

  for (cores::CoreKind Kind : cores::allCoreKinds()) {
    for (const std::string &Profile : cores::memProfileNames()) {
      SCOPED_TRACE(std::string(cores::coreKindId(Kind)) + "/" + Profile);
      cores::CoreMemProfile P = profileByName(Profile);

      // Uninterrupted reference run.
      Rig A(Kind, P, Words);
      A.sys().start(A.Core.cpu(), {Bits(0, 32)});
      A.sys().run(kMaxCycles);
      ASSERT_TRUE(A.sys().halted());
      const uint64_t Total = A.sys().stats().Cycles;
      const std::string FinalU = A.sys().snapshot();

      // Same run, interrupted mid-flight.
      const uint64_t N = Total / 2;
      ASSERT_GE(N, 1u);
      Rig B(Kind, P, Words);
      B.sys().start(B.Core.cpu(), {Bits(0, 32)});
      B.sys().run(N);
      EXPECT_FALSE(B.sys().halted());
      const std::string Mid = B.sys().snapshot();

      // Restored into a fresh System, the run finishes identically: the
      // final snapshots are byte-identical and the two halves of the event
      // log concatenate to exactly the uninterrupted log.
      Rig C(Kind, P, Words);
      std::string Err;
      ASSERT_TRUE(C.sys().restore(Mid, &Err)) << Err;
      C.sys().run(kMaxCycles - N);
      ASSERT_TRUE(C.sys().halted());
      EXPECT_EQ(C.sys().stats().Cycles, Total);
      EXPECT_EQ(C.sys().snapshot(), FinalU);
      EXPECT_EQ(B.Log.log() + C.Log.log(), A.Log.log());
    }
  }
}

/// Restoring a snapshot into the System it was taken from is also exact:
/// rewind, re-run, same bytes (determinism of the executor itself).
TEST(SnapshotTest, RewindAndReplaySameSystem) {
  const std::vector<uint32_t> Words = riscv::assemble(pinnedProgram());
  Rig A(cores::CoreKind::Pdl5Stage, cores::memProfileL1_4K(), Words);
  A.sys().start(A.Core.cpu(), {Bits(0, 32)});
  A.sys().run(kMaxCycles);
  ASSERT_TRUE(A.sys().halted());
  const std::string Final = A.sys().snapshot();

  Rig B(cores::CoreKind::Pdl5Stage, cores::memProfileL1_4K(), Words);
  B.sys().start(B.Core.cpu(), {Bits(0, 32)});
  B.sys().run(40);
  const std::string Mid = B.sys().snapshot();
  std::string Err;
  ASSERT_TRUE(B.sys().restore(Mid, &Err)) << Err;
  B.sys().run(kMaxCycles);
  ASSERT_TRUE(B.sys().halted());
  EXPECT_EQ(B.sys().snapshot(), Final);
}

TEST(SnapshotTest, SnapshotDeterministicBytes) {
  const std::vector<uint32_t> Words = riscv::assemble(pinnedProgram());
  Rig A(cores::CoreKind::Pdl5StageRename, cores::memProfileL1Tiny(), Words);
  A.sys().start(A.Core.cpu(), {Bits(0, 32)});
  A.sys().run(100);
  // Snapshot has no side effects and identical state yields identical
  // bytes — the property the persistent result cache's digests rest on.
  EXPECT_EQ(A.sys().snapshot(), A.sys().snapshot());
}

TEST(SnapshotTest, CorruptBlobsRejected) {
  const std::vector<uint32_t> Words = riscv::assemble(pinnedProgram());
  Rig A(cores::CoreKind::Pdl5Stage, cores::memProfileAlwaysHit(), Words);
  A.sys().start(A.Core.cpu(), {Bits(0, 32)});
  A.sys().run(60);
  const std::string Blob = A.sys().snapshot();

  auto Rejects = [&](const std::string &Bad) {
    Rig Fresh(cores::CoreKind::Pdl5Stage, cores::memProfileAlwaysHit(),
              Words);
    std::string Err;
    bool Ok = Fresh.sys().restore(Bad, &Err);
    EXPECT_FALSE(Ok);
    if (!Ok)
      EXPECT_FALSE(Err.empty());
    return !Ok;
  };

  // Every single-byte corruption in a sampled set is caught (CRC trailer).
  for (size_t I = 0; I < Blob.size(); I += 97) {
    std::string Bad = Blob;
    Bad[I] = char(Bad[I] ^ 0x40);
    EXPECT_TRUE(Rejects(Bad)) << "flipped byte " << I << " not detected";
  }
  // Truncations at any boundary are caught.
  EXPECT_TRUE(Rejects(std::string()));
  EXPECT_TRUE(Rejects(Blob.substr(0, 3)));
  EXPECT_TRUE(Rejects(Blob.substr(0, Blob.size() / 2)));
  EXPECT_TRUE(Rejects(Blob.substr(0, Blob.size() - 1)));
  // Trailing garbage is caught too — a torn write that appended bytes
  // must not restore.
  EXPECT_TRUE(Rejects(Blob + std::string(1, '\0')));
  EXPECT_TRUE(Rejects(Blob + "extra"));

  // The pristine blob still restores (the harness above is not just
  // rejecting everything).
  Rig Fresh(cores::CoreKind::Pdl5Stage, cores::memProfileAlwaysHit(), Words);
  std::string Err;
  EXPECT_TRUE(Fresh.sys().restore(Blob, &Err)) << Err;
}

TEST(SnapshotTest, PreviousFormatVersionRejected) {
  const std::vector<uint32_t> Words = riscv::assemble(pinnedProgram());
  Rig A(cores::CoreKind::Pdl5Stage, cores::memProfileAlwaysHit(), Words);
  A.sys().start(A.Core.cpu(), {Bits(0, 32)});
  A.sys().run(60);
  const std::string Blob = A.sys().snapshot();

  // Layout: [magic u32][version u32]...[crc32 u32], little-endian. Stamp
  // the previous format version and recompute the CRC trailer, so the
  // version check — not the CRC — is what refuses the blob.
  ASSERT_GT(Blob.size(), 12u);
  support::BinReader In(Blob.data() + 4, 4);
  const uint32_t Version = In.u32();
  ASSERT_GE(Version, 2u);
  support::BinWriter Stamp;
  Stamp.u32(Version - 1);
  std::string Old = Blob;
  Old.replace(4, 4, Stamp.buffer());
  support::BinWriter Crc;
  Crc.u32(support::crc32(Old.data(), Old.size() - 4));
  Old.replace(Old.size() - 4, 4, Crc.buffer());

  Rig Fresh(cores::CoreKind::Pdl5Stage, cores::memProfileAlwaysHit(), Words);
  std::string Err;
  EXPECT_FALSE(Fresh.sys().restore(Old, &Err));
  EXPECT_EQ(Err, "unsupported snapshot version");
}

TEST(SnapshotTest, ConfigDigestMismatchRejected) {
  const std::vector<uint32_t> Words = riscv::assemble(pinnedProgram());
  Rig A(cores::CoreKind::Pdl5Stage, cores::memProfileAlwaysHit(), Words);
  A.sys().start(A.Core.cpu(), {Bits(0, 32)});
  A.sys().run(60);
  const std::string Blob = A.sys().snapshot();

  // A different pipeline: different elaboration, different config digest.
  Rig OtherCore(cores::CoreKind::Pdl3Stage, cores::memProfileAlwaysHit(),
                Words);
  std::string Err;
  EXPECT_FALSE(OtherCore.sys().restore(Blob, &Err));
  EXPECT_NE(Err.find("config"), std::string::npos) << Err;

  // Same pipeline, different memory hierarchy: also rejected.
  Rig OtherMem(cores::CoreKind::Pdl5Stage, cores::memProfileL1_4K(), Words);
  EXPECT_FALSE(OtherMem.sys().restore(Blob, &Err));

  // Config digests are stable across instances of the same config.
  Rig Same(cores::CoreKind::Pdl5Stage, cores::memProfileAlwaysHit(), Words);
  EXPECT_EQ(Same.sys().configDigest(), A.sys().configDigest());
  EXPECT_NE(OtherCore.sys().configDigest(), A.sys().configDigest());
}

TEST(SnapshotTest, NativeModeSnapshotsRefuseCrossModeRestore) {
  // The eval mode recorded in the config digest is the REQUESTED mode:
  // a native-mode snapshot names native even on a machine where attach
  // degraded to fused interpretation (no compiler), so resume refusal is
  // symmetric everywhere — this test needs no working compiler.
  const std::vector<uint32_t> Words = riscv::assemble(pinnedProgram());

  auto MakeRig = [&](const char *Env) {
    if (Env)
      setenv(Env, "1", 1);
    auto R = std::make_unique<Rig>(cores::CoreKind::Pdl5Stage,
                                   cores::memProfileAlwaysHit(), Words);
    if (Env)
      unsetenv(Env);
    return R;
  };

  auto NativeSys = MakeRig("PDL_EVAL_NATIVE");
  NativeSys->sys().start(NativeSys->Core.cpu(), {Bits(0, 32)});
  NativeSys->sys().run(60);
  const std::string NativeBlob = NativeSys->sys().snapshot();

  auto FusedSys = MakeRig("PDL_EVAL_FUSED");
  FusedSys->sys().start(FusedSys->Core.cpu(), {Bits(0, 32)});
  FusedSys->sys().run(60);
  const std::string FusedBlob = FusedSys->sys().snapshot();

  auto ByteSys = MakeRig(nullptr);

  // Native snapshots restore only into native-requested systems.
  std::string Err;
  EXPECT_FALSE(FusedSys->sys().restore(NativeBlob, &Err));
  EXPECT_NE(Err.find("config"), std::string::npos) << Err;
  EXPECT_FALSE(ByteSys->sys().restore(NativeBlob, &Err));
  EXPECT_NE(Err.find("config"), std::string::npos) << Err;

  // And the other direction: a native-requested system refuses fused and
  // bytecode snapshots.
  EXPECT_FALSE(NativeSys->sys().restore(FusedBlob, &Err));
  EXPECT_NE(Err.find("config"), std::string::npos) << Err;

  // Same-mode restore still works.
  auto NativeFresh = MakeRig("PDL_EVAL_NATIVE");
  EXPECT_TRUE(NativeFresh->sys().restore(NativeBlob, &Err)) << Err;
}

/// A snapshot taken mid-run with a fault armed re-arms the unfired part of
/// the plan on restore: the resumed run injects exactly as many faults as
/// the uninterrupted one, and the monitors still catch them.
TEST(SnapshotTest, ArmedFaultSurvivesSnapshot) {
  // The VerifyTest fault-matrix workload and dup plan: duplicate the 7th
  // MEM->WB handoff (the first store, which holds no reservations in WB),
  // caught by the fifo-conservation monitor. The plan is hw-delegated
  // (armed inside the Fifo), the interesting case for re-arming. The plan
  // is tuned to this exact program — an arbitrary workload would
  // duplicate a thread that still holds reservations.
  const std::string Program = R"(
  li x1, 1
  li x2, 2
  li x20, 256
  sw x1, 0(x20)
  lw x3, 0(x20)
  add x4, x3, x2
  blt x1, x2, over
  addi x5, x0, 99
  addi x6, x0, 98
over:
  sw x4, 4(x20)
  lw x7, 4(x20)
  add x8, x7, x1
  li x31, 65532
  sw x0, 0(x31)
halt:
  j halt
)";
  verify::DiffConfig Cold;
  Cold.Kind = cores::CoreKind::Pdl5Stage;
  Cold.WantDigest = true;
  Cold.Fault =
      hw::parseFaultPlan("fifo-dup-thread:pipe=cpu,from=S3,to=S4,nth=7");
  ASSERT_TRUE(Cold.Fault);
  verify::DiffResult R0 = verify::runDiff(Program, Cold);
  EXPECT_EQ(R0.FaultsInjected, 1u);

  std::vector<std::pair<uint64_t, std::string>> Ckpts;
  verify::DiffConfig WithCkpt = Cold;
  WithCkpt.CkptEvery = 5;
  WithCkpt.CkptSave = [&](uint64_t Cycle, const std::string &Blob) {
    Ckpts.emplace_back(Cycle, Blob);
  };
  verify::DiffResult R1 = verify::runDiff(Program, WithCkpt);
  EXPECT_EQ(R1.toJson(), R0.toJson());
  ASSERT_GE(Ckpts.size(), 2u);

  // Resume from the first checkpoint (fault not yet fired: the unfired
  // remainder of the plan is re-armed) and the last (fault already
  // fired: nothing re-arms, nothing double-fires). Both reproduce the
  // cold run, with the fault injected exactly once overall.
  for (const auto &Blob :
       {Ckpts.front().second, Ckpts.back().second}) {
    verify::DiffConfig Resume = Cold;
    Resume.ResumeBlob = Blob;
    verify::DiffResult R2 = verify::runDiff(Program, Resume);
    EXPECT_EQ(R2.toJson(), R0.toJson());
    EXPECT_EQ(R2.FaultsInjected, 1u);
  }
}

TEST(SnapshotTest, RunDiffResumeMatchesColdRun) {
  const std::string Program = pinnedProgram();

  for (const char *Profile : {"always-hit", "l1-tiny"}) {
    SCOPED_TRACE(Profile);
    verify::DiffConfig Cold;
    Cold.Kind = cores::CoreKind::Pdl5Stage;
    Cold.Profile = profileByName(Profile);
    Cold.WantDigest = true;
    verify::DiffResult R0 = verify::runDiff(Program, Cold);
    EXPECT_FALSE(R0.failed()) << R0.Reason;

    // checkpoint every 10 cycles; the checkpointing run itself must be
    // unperturbed (checkpointing is pure observation).
    std::vector<std::pair<uint64_t, std::string>> Ckpts;
    verify::DiffConfig WithCkpt = Cold;
    WithCkpt.CkptEvery = 10;
    WithCkpt.CkptSave = [&](uint64_t Cycle, const std::string &Blob) {
      Ckpts.emplace_back(Cycle, Blob);
    };
    verify::DiffResult R1 = verify::runDiff(Program, WithCkpt);
    EXPECT_EQ(R1.toJson(), R0.toJson());
    ASSERT_GE(Ckpts.size(), 2u);
    for (const auto &[Cycle, Blob] : Ckpts)
      EXPECT_EQ(Cycle % 10, 0u);

    // Resuming from every checkpoint reproduces the cold result to the
    // byte — including the trace digest, which covers cycle 0 onward.
    for (const auto &[Cycle, Blob] : Ckpts) {
      SCOPED_TRACE("resume@" + std::to_string(Cycle));
      verify::DiffConfig Resume = Cold;
      Resume.ResumeBlob = Blob;
      verify::DiffResult R2 = verify::runDiff(Program, Resume);
      EXPECT_EQ(R2.toJson(), R0.toJson());
    }
  }
}

TEST(SnapshotTest, RunDiffRejectsDamagedResumeBlob) {
  const std::string Program = pinnedProgram();

  std::vector<std::string> Blobs;
  verify::DiffConfig C;
  C.Kind = cores::CoreKind::Pdl5Stage;
  C.CkptEvery = 40;
  C.CkptSave = [&](uint64_t, const std::string &Blob) {
    Blobs.push_back(Blob);
  };
  verify::runDiff(Program, C);
  ASSERT_FALSE(Blobs.empty());

  auto RejectedWith = [&](std::string Blob) {
    verify::DiffConfig R;
    R.Kind = cores::CoreKind::Pdl5Stage;
    R.ResumeBlob = std::move(Blob);
    verify::DiffResult Res = verify::runDiff(Program, R);
    EXPECT_EQ(Res.Outcome, "resume_rejected");
    EXPECT_TRUE(Res.Divergent);
    return Res.Outcome == "resume_rejected";
  };

  std::string Bad = Blobs.front();
  Bad[Bad.size() / 2] = char(Bad[Bad.size() / 2] ^ 0x20);
  EXPECT_TRUE(RejectedWith(Bad));
  EXPECT_TRUE(RejectedWith(Blobs.front().substr(0, Blobs.front().size() / 3)));
  EXPECT_TRUE(RejectedWith("not a checkpoint"));
}

} // namespace
