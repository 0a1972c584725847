//===- NativeTest.cpp - Native evaluation tier tests ------------------------===//
//
// Part of the PDL reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The native tier's unit matrix, below the core level: emitted modules are
/// deterministic, the artifact digest covers everything emission reads, the
/// compiled thunks agree bit-for-bit with the interpreter over randomly
/// generated programs (backend/BcGen.h — shapes far outside what the core
/// matrix compiles to), the on-disk artifact store turns a second attach of
/// the same module into a pure cache hit, and the trust gate refuses
/// uncertified bytecode before anything reaches the system compiler.
/// Core-level integration (golden digests under PDL_EVAL_NATIVE, snapshot
/// refusal, daemon warm restarts) lives in the existing suites.
///
//===----------------------------------------------------------------------===//

#include "backend/BcGen.h"
#include "backend/Emit.h"
#include "backend/Fuse.h"
#include "backend/NativeCache.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

using namespace pdl;
using namespace pdl::backend;

namespace {

/// BcGen programs are pure; no hook may ever fire.
struct NoHooks final : bc::Hooks {
  Bits readMem(const bc::ExprProgram &, unsigned, uint64_t) override {
    ADD_FAILURE() << "unexpected memory read";
    return Bits();
  }
  Bits callExtern(const bc::ExprProgram &, unsigned, const Bits *,
                  unsigned) override {
    ADD_FAILURE() << "unexpected extern call";
    return Bits();
  }
};

/// A fresh, private artifact directory per test: warm/cold expectations
/// must not leak between runs or between tests sharing a machine.
std::string freshCacheDir() {
  std::string Tmpl = ::testing::TempDir() + "pdl-native-test-XXXXXX";
  std::vector<char> Buf(Tmpl.begin(), Tmpl.end());
  Buf.push_back('\0');
  const char *Dir = mkdtemp(Buf.data());
  EXPECT_NE(Dir, nullptr);
  return Dir ? Dir : std::string();
}

/// Wraps one generated program as a single-pipe entry of a ModuleIR, the
/// shape attachModule and emitModule consume. Variable slots [0, NumInputs)
/// carry their declared widths in InitFrame — the emitter's width
/// specializer reads exactly that.
void addPipe(bc::ModuleIR &M, const std::string &Name,
             const bc::GenProgram &G, bool Fused) {
  bc::PipeProgram PP;
  PP.Name = Name;
  PP.NumVars = G.NumInputs;
  PP.FrameSize = G.FrameSize;
  for (unsigned S = 0; S != G.FrameSize; ++S)
    PP.InitFrame.push_back(S < G.NumInputs ? Bits(0, G.InputWidths[S])
                                           : Bits());
  PP.Programs.push_back(Fused ? bc::fuseProgram(G.Prog) : G.Prog);
  M.Pipes.emplace(Name, std::move(PP));
}

/// One module holding many generated pipes: a single compiler invocation
/// covers the whole corpus instead of paying a process spawn per program.
struct GenCorpus {
  bc::ModuleIR M;
  std::vector<bc::GenProgram> Gens;

  explicit GenCorpus(uint64_t BaseSeed, unsigned Count, bool Fused = true) {
    for (unsigned I = 0; I != Count; ++I) {
      Gens.push_back(bc::genProgram(BaseSeed + I));
      addPipe(M, "p" + std::to_string(I), Gens.back(), Fused);
    }
  }

  const bc::ExprProgram &program(unsigned I) const {
    return M.pipe("p" + std::to_string(I))->Programs.front();
  }
};

/// The unit tests attest certification themselves: BcGen programs have no
/// AST for tv::validateModule to re-execute, and the attestation contract
/// is explicitly the caller's burden (cores::certify / pdlc --certify in
/// production). The gate itself is pinned by UncertifiedAttachRefused.
native::AttachOptions testOptions(const std::string &Dir) {
  native::AttachOptions O;
  O.CacheDir = Dir;
  O.CertDigest = 0x600dc0de600dc0deull;
  O.Certified = true;
  O.ModuleName = "native-test";
  return O;
}

TEST(NativeTest, EmissionIsDeterministic) {
  GenCorpus C(1000, 6);
  native::EmitResult A = native::emitModule(C.M);
  native::EmitResult B = native::emitModule(C.M);
  EXPECT_EQ(A.Source, B.Source);
  ASSERT_EQ(A.Symbols.size(), B.Symbols.size());
  ASSERT_EQ(A.Symbols.size(), 6u);
  for (unsigned I = 0; I != A.Symbols.size(); ++I) {
    EXPECT_EQ(A.Symbols[I].first, B.Symbols[I].first);
    EXPECT_EQ(A.Symbols[I].second, B.Symbols[I].second);
  }
}

TEST(NativeTest, DigestCoversCodeAndVariableWidths) {
  GenCorpus A(2000, 3), B(2000, 3);
  EXPECT_EQ(native::moduleDigest(A.M), native::moduleDigest(B.M));

  // Different programs -> different digest.
  GenCorpus Other(3000, 3);
  EXPECT_NE(native::moduleDigest(A.M), native::moduleDigest(Other.M));

  // Same bytecode, one variable slot declared at another width: the width
  // specializer bakes declared widths into the emitted source, so the
  // digest must separate the artifacts.
  bc::PipeProgram &PP = B.M.Pipes.begin()->second;
  ASSERT_GT(PP.NumVars, 0u);
  unsigned W = PP.InitFrame[0].width();
  PP.InitFrame[0] = Bits(0, W == 64 ? 32 : W + 1);
  EXPECT_NE(native::moduleDigest(A.M), native::moduleDigest(B.M));
}

TEST(NativeTest, UncertifiedAttachRefused) {
  GenCorpus C(4000, 1);
  native::AttachOptions O = testOptions(freshCacheDir());
  O.Certified = false; // the gate under test
  std::string Err;
  const uint64_t Fallbacks0 = native::stats().Fallbacks;
  EXPECT_FALSE(native::attachModule(C.M, O, &Err));
  EXPECT_NE(Err.find("certificate"), std::string::npos) << Err;
  EXPECT_EQ(C.program(0).Native, nullptr);
  EXPECT_EQ(C.M.NativeLib, nullptr);
  EXPECT_EQ(native::stats().Fallbacks, Fallbacks0 + 1);
}

TEST(NativeTest, RandomProgramsMatchInterpreter) {
  if (!native::available())
    GTEST_SKIP() << "no usable C++ compiler";

  GenCorpus C(5000, 24);
  std::string Err;
  ASSERT_TRUE(native::attachModule(C.M, testOptions(freshCacheDir()), &Err))
      << Err;
  EXPECT_FALSE(C.M.NativeCompiler.empty());

  NoHooks H;
  for (unsigned I = 0; I != C.Gens.size(); ++I) {
    const bc::ExprProgram &P = C.program(I);
    ASSERT_NE(P.Native, nullptr) << "pipe " << I << " not patched";
    for (uint64_t FS = 0; FS != 16; ++FS) {
      std::vector<Bits> FrameN = bc::randomFrame(C.Gens[I], FS * 977 + 13);
      std::vector<Bits> FrameB = FrameN;
      Bits RN = bc::exec(P, FrameN.data(), H); // native fast path
      Bits RB = bc::execInterp(P, FrameB.data(), H);
      ASSERT_EQ(RN.zext(), RB.zext())
          << "seed " << (5000 + I) << " frame " << FS;
      ASSERT_EQ(RN.width(), RB.width())
          << "seed " << (5000 + I) << " frame " << FS;
    }
  }
}

TEST(NativeTest, WarmCacheSkipsRecompile) {
  if (!native::available())
    GTEST_SKIP() << "no usable C++ compiler";

  const std::string Dir = freshCacheDir();
  std::string Err;

  native::resetStatsForTest();
  GenCorpus Cold(6000, 4);
  ASSERT_TRUE(native::attachModule(Cold.M, testOptions(Dir), &Err)) << Err;
  native::Stats S1 = native::stats();
  EXPECT_EQ(S1.Compiles, 1u);
  EXPECT_EQ(S1.CacheHits, 0u);
  EXPECT_EQ(S1.Attached, 1u);
  EXPECT_FALSE(Cold.M.NativeCacheHit);

  // An identical module built from scratch (same seeds) must bind the
  // on-disk artifact without ever invoking the compiler — the property
  // pdlsimd's warm restarts rely on.
  native::resetStatsForTest();
  GenCorpus Warm(6000, 4);
  ASSERT_TRUE(native::attachModule(Warm.M, testOptions(Dir), &Err)) << Err;
  native::Stats S2 = native::stats();
  EXPECT_EQ(S2.Compiles, 0u);
  EXPECT_EQ(S2.CacheHits, 1u);
  EXPECT_TRUE(Warm.M.NativeCacheHit);
  EXPECT_EQ(S2.CompileMs, 0.0);

  // The warm binding still runs: differential over one pipe as a smoke.
  NoHooks H;
  std::vector<Bits> FN = bc::randomFrame(Warm.Gens[0], 7);
  std::vector<Bits> FB = FN;
  Bits RN = bc::exec(Warm.program(0), FN.data(), H);
  Bits RB = bc::execInterp(Warm.program(0), FB.data(), H);
  EXPECT_EQ(RN.zext(), RB.zext());
  EXPECT_EQ(RN.width(), RB.width());

  // A different certificate digest is a different artifact: the cache must
  // not serve an .so across attestations.
  native::resetStatsForTest();
  GenCorpus Re(6000, 4);
  native::AttachOptions O = testOptions(Dir);
  O.CertDigest ^= 1;
  ASSERT_TRUE(native::attachModule(Re.M, O, &Err)) << Err;
  EXPECT_EQ(native::stats().Compiles, 1u);
  EXPECT_EQ(native::stats().CacheHits, 0u);
}

TEST(NativeTest, UnfusedProgramsAlsoEmit) {
  if (!native::available())
    GTEST_SKIP() << "no usable C++ compiler";

  // Emission does not require fusion: the base opcodes stand alone. Attach
  // an unfused corpus and differential it the same way.
  GenCorpus C(7000, 8, /*Fused=*/false);
  std::string Err;
  ASSERT_TRUE(native::attachModule(C.M, testOptions(freshCacheDir()), &Err))
      << Err;
  NoHooks H;
  for (unsigned I = 0; I != C.Gens.size(); ++I) {
    for (uint64_t FS = 0; FS != 8; ++FS) {
      std::vector<Bits> FN = bc::randomFrame(C.Gens[I], FS + 31);
      std::vector<Bits> FB = FN;
      Bits RN = bc::exec(C.program(I), FN.data(), H);
      Bits RB = bc::execInterp(C.program(I), FB.data(), H);
      ASSERT_EQ(RN.zext(), RB.zext()) << "pipe " << I << " frame " << FS;
      ASSERT_EQ(RN.width(), RB.width()) << "pipe " << I << " frame " << FS;
    }
  }
}

} // namespace
