//===- TvTest.cpp - Translation-validation subsystem tests ----------------===//
//
// Part of the PDL reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Tests src/tv/: certification of faithful compiles (straight-line,
/// branching, hooks, fused guards), certificate JSON round-trips and
/// tamper detection, solver-free replay via tv::checkCertificate, the path
/// budget downgrade, rejection of the seeded miscompiles (PDL_TV_MUTATE,
/// including the fusion-window bug), obligation-stability of the
/// superinstruction-fused lowering, strict certification plus replay of
/// every committed core under both bytecode lowerings, and the pin of every
/// core's certificate against cores_pdl/MANIFEST.json.
///
//===----------------------------------------------------------------------===//

#include "backend/Compile.h"
#include "backend/Fuse.h"
#include "cores/Core.h"
#include "obs/Json.h"
#include "tv/Tv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace pdl;
using namespace pdl::backend;

namespace {

CompiledProgram mustCompile(const std::string &Source) {
  CompiledProgram CP = compile(Source);
  EXPECT_TRUE(CP.ok()) << CP.Diags->render() << "\nsource:\n" << Source;
  return CP;
}

tv::Certificate validate(const CompiledProgram &CP,
                         const tv::ValidateOptions &Opts = {}) {
  auto IR = bc::compileModule(CP);
  return tv::validateModule(CP, *IR, "test", Opts);
}

const tv::ProgramCert *findProgram(const tv::Certificate &C,
                                   const std::string &Label) {
  for (const tv::ProgramCert &P : C.Programs)
    if (P.Label == Label)
      return &P;
  return nullptr;
}

/// Scoped PDL_TV_MUTATE: the mutation only applies to modules compiled
/// while the guard is alive, and never leaks into other tests (or into the
/// process-wide core circuit cache).
struct MutationGuard {
  explicit MutationGuard(const char *Value) {
    setenv("PDL_TV_MUTATE", Value, 1);
  }
  ~MutationGuard() { unsetenv("PDL_TV_MUTATE"); }
};

//===----------------------------------------------------------------------===//
// Faithful compiles certify
//===----------------------------------------------------------------------===//

TEST(TvTest, StraightLineCertifiesSyntactically) {
  CompiledProgram CP = mustCompile(R"(
    pipe p(a: uint<8>, b: uint<8>)[] {
      x = (a + b) * (a + b) - uint<8>(1);
      call p(x, b);
    }
  )");
  tv::Certificate C = validate(CP);
  EXPECT_EQ(C.St, tv::Status::Certified);
  EXPECT_EQ(C.LayoutFailures, 0u);
  ASSERT_FALSE(C.Programs.empty());
  for (const tv::ProgramCert &P : C.Programs) {
    EXPECT_EQ(P.ProgStatus, "proved") << P.Label;
    EXPECT_EQ(P.Refuted, 0u) << P.Label;
    EXPECT_EQ(P.Paths, P.Syntactic + P.Solver) << P.Label;
  }
  // A branch-free program is a single obligation, closed syntactically.
  const tv::ProgramCert *E0 = findProgram(C, "e0");
  ASSERT_NE(E0, nullptr);
  EXPECT_EQ(E0->Paths, 1u);
  EXPECT_EQ(E0->Syntactic, 1u);
}

TEST(TvTest, TernaryForksOnePathPerArm) {
  CompiledProgram CP = mustCompile(R"(
    pipe p(a: uint<8>, b: uint<8>, c: bool)[] {
      x = c ? a + b : a - b;
      call p(x, b, c);
    }
  )");
  tv::Certificate C = validate(CP);
  EXPECT_EQ(C.St, tv::Status::Certified);
  const tv::ProgramCert *E0 = findProgram(C, "e0");
  ASSERT_NE(E0, nullptr);
  EXPECT_EQ(E0->Paths, 2u);
  EXPECT_EQ(E0->Syntactic, 2u);
  EXPECT_EQ(E0->Refuted, 0u);
}

TEST(TvTest, HooksGuardsAndStagesCertify) {
  CompiledProgram CP = mustCompile(R"(
    pipe p(a: uint<8>)[m: uint<8>[4]] {
      c = a == 0;
      v = m[a{3:0}];
      call p(v + a);
      if (c) {
        ---
        m[uint<4>(0)] <- v + uint<8>(1);
      } else {
        x = a + uint<8>(2);
      }
    }
  )");
  tv::Certificate C = validate(CP);
  EXPECT_EQ(C.St, tv::Status::Certified) << C.toJsonValue().dump(2);
  EXPECT_EQ(C.LayoutFailures, 0u);
  EXPECT_GT(C.LayoutChecks, 0u);
  // The stage fork compiles guarded edges: guard units must exist and
  // certify alongside the expression units.
  bool SawGuard = false;
  for (const tv::ProgramCert &P : C.Programs) {
    if (P.Kind == "guard")
      SawGuard = true;
    EXPECT_EQ(P.ProgStatus, "proved") << P.Label << ": " << P.Source;
  }
  EXPECT_TRUE(SawGuard);
}

TEST(TvTest, DefInliningAndCastsCertify) {
  CompiledProgram CP = mustCompile(R"(
    def clamp(v: uint<16>): uint<8> {
      big = v > uint<16>(255);
      return big ? uint<8>(255) : uint<8>(v);
    }
    pipe p(a: uint<16>)[] {
      x = clamp(a + a);
      call p(uint<16>(x));
    }
  )");
  tv::Certificate C = validate(CP);
  EXPECT_EQ(C.St, tv::Status::Certified) << C.toJsonValue().dump(2);
  const tv::ProgramCert *E0 = findProgram(C, "e0");
  ASSERT_NE(E0, nullptr);
  EXPECT_EQ(E0->Paths, 2u); // the inlined ternary forks
}

//===----------------------------------------------------------------------===//
// Certificates: serialization, digests, replay
//===----------------------------------------------------------------------===//

TEST(TvTest, CertificateJsonRoundTrips) {
  CompiledProgram CP = mustCompile(R"(
    pipe p(a: uint<8>, c: bool)[] {
      x = c ? a + uint<8>(1) : a;
      call p(x, c);
    }
  )");
  tv::Certificate C = validate(CP);
  std::string Json = C.toJson();
  auto Parsed = obs::Json::parse(Json);
  ASSERT_TRUE(Parsed.has_value());
  tv::Certificate Back;
  ASSERT_TRUE(tv::Certificate::fromJsonValue(*Parsed, Back));
  EXPECT_EQ(Back.Module, C.Module);
  EXPECT_EQ(Back.St, C.St);
  ASSERT_EQ(Back.Programs.size(), C.Programs.size());
  for (size_t I = 0; I != C.Programs.size(); ++I) {
    EXPECT_EQ(Back.Programs[I].Label, C.Programs[I].Label);
    EXPECT_EQ(Back.Programs[I].ObligationsDigest,
              C.Programs[I].ObligationsDigest);
  }
  // The digest ignores wall time but pins everything else.
  EXPECT_EQ(Back.digest(), C.digest());
  Back.WallUs = C.WallUs + 12345;
  EXPECT_EQ(Back.digest(), C.digest());
  Back.Programs[0].ObligationsDigest ^= 1;
  EXPECT_NE(Back.digest(), C.digest());

  EXPECT_FALSE(tv::Certificate::fromJsonValue(obs::Json(uint64_t(3)), Back));
  EXPECT_FALSE(tv::Certificate::fromJsonValue(obs::Json::object(), Back));
}

TEST(TvTest, ReplayAcceptsGenuineAndRejectsTampered) {
  CompiledProgram CP = mustCompile(R"(
    pipe p(a: uint<8>, c: bool)[] {
      x = c ? a * a : a + a;
      call p(x, c);
    }
  )");
  auto IR = bc::compileModule(CP);
  tv::Certificate C = tv::validateModule(CP, *IR, "test");
  EXPECT_EQ(C.St, tv::Status::Certified);

  tv::CheckResult Ok = tv::checkCertificate(C, CP, *IR);
  EXPECT_TRUE(Ok.Ok) << Ok.Error;

  tv::Certificate Tampered = C;
  Tampered.Programs[0].ObligationsDigest ^= 0xdeadbeef;
  EXPECT_FALSE(tv::checkCertificate(Tampered, CP, *IR).Ok);

  // Claiming more proofs than obligations exist must not replay.
  Tampered = C;
  Tampered.Programs[0].Solver += 1;
  EXPECT_FALSE(tv::checkCertificate(Tampered, CP, *IR).Ok);

  // A rejected verdict laundered into "proved" must not replay either.
  Tampered = C;
  Tampered.Programs[0].Paths += 1;
  EXPECT_FALSE(tv::checkCertificate(Tampered, CP, *IR).Ok);
}

TEST(TvTest, ReplayPinsTheExactBytecode) {
  CompiledProgram CP = mustCompile(R"(
    pipe p(a: uint<8>, b: uint<8>, c: bool)[] {
      x = c ? (a + b) + b : (a + b) - b;
      call p(x, b, c);
    }
  )");
  auto Genuine = bc::compileModule(CP);
  tv::Certificate C = tv::validateModule(CP, *Genuine, "test");
  EXPECT_EQ(C.St, tv::Status::Certified);

  // Replaying the same certificate against a differently-compiled module
  // must fail: the certificate pins the artifact, not just the source.
  MutationGuard Mutate("cse-ternary");
  auto Mutated = bc::compileModule(CP);
  EXPECT_FALSE(tv::checkCertificate(C, CP, *Mutated).Ok);
}

//===----------------------------------------------------------------------===//
// Budget
//===----------------------------------------------------------------------===//

TEST(TvTest, PathBudgetDowngradesToFuzzTrusted) {
  CompiledProgram CP = mustCompile(R"(
    pipe p(a: uint<8>, c: bool, d: bool, e: bool)[] {
      x = (c ? a : a + uint<8>(1)) +
          (d ? a : a + uint<8>(2)) +
          (e ? a : a + uint<8>(3));
      call p(x, c, d, e);
    }
  )");
  tv::ValidateOptions Opts;
  Opts.MaxPathsPerProgram = 3; // 8 paths exist
  tv::Certificate C = validate(CP, Opts);
  EXPECT_EQ(C.St, tv::Status::FuzzTrusted);
  const tv::ProgramCert *E0 = findProgram(C, "e0");
  ASSERT_NE(E0, nullptr);
  EXPECT_TRUE(E0->BudgetExceeded);
  EXPECT_EQ(E0->ProgStatus, "fuzz-trusted");
  EXPECT_EQ(E0->Refuted, 0u);

  // The truncated exploration is still deterministic: replay agrees.
  auto IR = bc::compileModule(CP);
  tv::Certificate C2 = tv::validateModule(CP, *IR, "test", Opts);
  EXPECT_EQ(C2.digest(), validate(CP, Opts).digest());
}

//===----------------------------------------------------------------------===//
// Seeded miscompiles must be rejected
//===----------------------------------------------------------------------===//

TEST(TvTest, CseTernaryMutationRejected) {
  CompiledProgram CP = mustCompile(R"(
    pipe p(a: uint<8>, b: uint<8>, c: bool)[] {
      x = c ? (a + b) + b : (a + b) - b;
      call p(x, b, c);
    }
  )");
  {
    MutationGuard Mutate("cse-ternary");
    auto IR = bc::compileModule(CP);
    tv::Certificate C = tv::validateModule(CP, *IR, "test");
    EXPECT_EQ(C.St, tv::Status::Rejected) << C.toJsonValue().dump(2);
    const tv::ProgramCert *E0 = findProgram(C, "e0");
    ASSERT_NE(E0, nullptr);
    EXPECT_GT(E0->Refuted, 0u);
    EXPECT_EQ(E0->ProgStatus, "rejected");
    // The defect is the else path reading a then-arm temporary that was
    // never written on that path.
    bool SawUninit = false;
    for (const std::string &N : E0->Notes)
      SawUninit |= N.find("uninitialized") != std::string::npos;
    EXPECT_TRUE(SawUninit) << C.toJsonValue().dump(2);
  }
  // Without the mutation the same source certifies.
  EXPECT_EQ(validate(CP).St, tv::Status::Certified);
}

TEST(TvTest, GuardDropMutationRejected) {
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
    }
  )");
  {
    MutationGuard Mutate("guard-drop");
    auto IR = bc::compileModule(CP);
    tv::Certificate C = tv::validateModule(CP, *IR, "test");
    EXPECT_EQ(C.St, tv::Status::Rejected) << C.toJsonValue().dump(2);
    bool GuardRefuted = false;
    for (const tv::ProgramCert &P : C.Programs)
      GuardRefuted |= P.Kind == "guard" && P.Refuted > 0;
    EXPECT_TRUE(GuardRefuted) << C.toJsonValue().dump(2);
  }
  EXPECT_EQ(validate(CP).St, tv::Status::Certified);
}

//===----------------------------------------------------------------------===//
// The committed core matrix certifies strictly and replays
//===----------------------------------------------------------------------===//

TEST(TvTest, AllCoresCertifyStrictAndReplay) {
  for (cores::CoreKind K : cores::allCoreKinds()) {
    auto Cert = cores::certify(K);
    ASSERT_NE(Cert, nullptr);
    EXPECT_EQ(Cert->St, tv::Status::Certified)
        << cores::coreKindId(K) << ":\n"
        << Cert->toJsonValue().dump(2);
    EXPECT_EQ(Cert->LayoutFailures, 0u) << cores::coreKindId(K);
    for (const tv::ProgramCert &P : Cert->Programs)
      EXPECT_EQ(P.ProgStatus, "proved")
          << cores::coreKindId(K) << " " << P.Pipe << "/" << P.Label;

    // The certificate is cached with the circuit: same object each time.
    EXPECT_EQ(cores::certify(K).get(), Cert.get());

    // And it replays, solver-free, against the exact shared artifacts.
    tv::CheckResult R = tv::checkCertificate(
        *Cert, *cores::sharedProgram(K), *cores::sharedModuleIR(K));
    EXPECT_TRUE(R.Ok) << cores::coreKindId(K) << ": " << R.Error;
  }
}

// The certificates are pinned: every core's certificate digest and every
// program's obligations digest must match cores_pdl/MANIFEST.json. A change
// that alters a certified artifact fails here by design. Regenerate the
// manifest with `build/tools/dump_cores` (run from the repository root)
// only for deliberate compiler changes, and review the diff.
TEST(TvTest, CertificatesMatchCommittedManifest) {
  std::ifstream In(std::string(PDL_SOURCE_DIR) + "/cores_pdl/MANIFEST.json");
  ASSERT_TRUE(In.good()) << "cannot read cores_pdl/MANIFEST.json";
  std::stringstream Text;
  Text << In.rdbuf();
  std::string Err;
  std::optional<obs::Json> Manifest = obs::Json::parse(Text.str(), &Err);
  ASSERT_TRUE(Manifest.has_value()) << Err;
  const obs::Json *Cores = Manifest->get("cores");
  ASSERT_NE(Cores, nullptr);
  ASSERT_EQ(Cores->items().size(), cores::allCoreKinds().size());

  auto Hex = [](uint64_t V) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%016llx", (unsigned long long)V);
    return std::string(Buf);
  };
  for (cores::CoreKind K : cores::allCoreKinds()) {
    const char *Id = cores::coreKindId(K);
    const obs::Json *Row = nullptr;
    for (const obs::Json &C : Cores->items())
      if (const obs::Json *CId = C.get("id"); CId && CId->asString() == Id)
        Row = &C;
    ASSERT_NE(Row, nullptr) << Id << " missing from the manifest";
    auto Cert = cores::certify(K);
    ASSERT_NE(Cert, nullptr);
    const obs::Json *Digest = Row->get("certificate_digest");
    ASSERT_NE(Digest, nullptr) << Id;
    EXPECT_EQ(Hex(Cert->digest()), Digest->asString()) << Id;
    const obs::Json *Progs = Row->get("program_digests");
    ASSERT_NE(Progs, nullptr) << Id;
    EXPECT_EQ(Progs->members().size(), Cert->Programs.size()) << Id;
    for (const tv::ProgramCert &P : Cert->Programs) {
      std::string Label = P.Pipe + "/" + P.Label;
      const obs::Json *Pinned = Progs->get(Label);
      ASSERT_NE(Pinned, nullptr) << Id << " " << Label;
      EXPECT_EQ(Hex(P.ObligationsDigest), Pinned->asString())
          << Id << " " << Label;
    }
  }
}

//===----------------------------------------------------------------------===//
// Superinstruction fusion (backend/Fuse.cpp)
//===----------------------------------------------------------------------===//

TEST(TvTest, FusedLoweringCertifiesWithIdenticalObligations) {
  // Fusion changes the instruction encoding, never the semantics: BcEval
  // executes each superinstruction as its expansion, so every path interns
  // the same terms and forks the same decisions. The per-program
  // obligations digest must therefore be bit-identical to the unfused
  // validation's — only the BcDigest (the artifact identity) may move.
  CompiledProgram CP = mustCompile(R"(
    pipe p(a: uint<8>, b: uint<8>)[] {
      c = a == b;
      x = (a == b) ? a + uint<8>(3) : b;
      call p(x, b);
      if (c) {
        ---
        y = a + 1;
      } else {
        z = b + 2;
      }
    }
  )");
  auto Base = bc::compileModule(CP);
  auto Fused = bc::fuseModule(*Base);
  tv::Certificate CB = tv::validateModule(CP, *Base, "test");
  tv::Certificate CF = tv::validateModule(CP, *Fused, "test");
  EXPECT_EQ(CB.St, tv::Status::Certified);
  EXPECT_EQ(CF.St, tv::Status::Certified) << CF.toJsonValue().dump(2);
  ASSERT_EQ(CB.Programs.size(), CF.Programs.size());
  for (size_t I = 0; I != CB.Programs.size(); ++I) {
    const tv::ProgramCert &B = CB.Programs[I], &F = CF.Programs[I];
    EXPECT_EQ(B.Label, F.Label);
    EXPECT_EQ(B.Paths, F.Paths) << F.Label;
    EXPECT_EQ(B.ObligationsDigest, F.ObligationsDigest) << F.Label;
  }
  // The fused certificate replays against the fused module only — it pins
  // the artifact, and the two lowerings are different artifacts.
  EXPECT_TRUE(tv::checkCertificate(CF, CP, *Fused).Ok);
  EXPECT_FALSE(tv::checkCertificate(CF, CP, *Base).Ok);
}

TEST(TvTest, FuseWindowMutationRejected) {
  // A compare feeding a conditional branch fuses to FusedCmpBr; the window
  // shrinks the program, so the seeded stale-remap bug (the branch target
  // left in pre-deletion index space) changes behaviour whenever the fold
  // fires. Certification must refute the mutated module.
  CompiledProgram CP = mustCompile(R"(
    pipe p(a: uint<8>, b: uint<8>)[] {
      x = (a == b) ? a + uint<8>(3) : b;
      call p(x, b);
    }
  )");
  auto Base = bc::compileModule(CP);
  {
    MutationGuard Mutate("fuse-window");
    auto Mutated = bc::fuseModule(*Base);
    tv::Certificate C = tv::validateModule(CP, *Mutated, "test");
    EXPECT_EQ(C.St, tv::Status::Rejected) << C.toJsonValue().dump(2);
    const tv::ProgramCert *E0 = findProgram(C, "e0");
    ASSERT_NE(E0, nullptr);
    EXPECT_GT(E0->Refuted, 0u);
    EXPECT_EQ(E0->ProgStatus, "rejected");
  }
  // The honest fusion of the same module certifies.
  tv::Certificate C = tv::validateModule(CP, *bc::fuseModule(*Base), "test");
  EXPECT_EQ(C.St, tv::Status::Certified) << C.toJsonValue().dump(2);
}

TEST(TvTest, AllCoresCertifyStrictFused) {
  // The acceptance bar for the fused lowering: every committed core's
  // fused module certifies with all obligations proved, and the cached
  // certificate is per (kind, eval mode) — the fused one is a different
  // object from the base one, replaying only against the fused IR.
  for (cores::CoreKind K : cores::allCoreKinds()) {
    auto Cert = cores::certify(K, /*Fused=*/true);
    ASSERT_NE(Cert, nullptr);
    EXPECT_EQ(Cert->St, tv::Status::Certified)
        << cores::coreKindId(K) << ":\n"
        << Cert->toJsonValue().dump(2);
    for (const tv::ProgramCert &P : Cert->Programs)
      EXPECT_EQ(P.ProgStatus, "proved")
          << cores::coreKindId(K) << " " << P.Pipe << "/" << P.Label;
    EXPECT_EQ(cores::certify(K, /*Fused=*/true).get(), Cert.get());
    EXPECT_NE(cores::certify(K, /*Fused=*/false).get(), Cert.get());
    tv::CheckResult R =
        tv::checkCertificate(*Cert, *cores::sharedProgram(K),
                             *cores::sharedModuleIR(K, /*Fused=*/true));
    EXPECT_TRUE(R.Ok) << cores::coreKindId(K) << ": " << R.Error;
  }
}

} // namespace
