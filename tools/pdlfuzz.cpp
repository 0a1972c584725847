//===- pdlfuzz.cpp - Differential fuzzer for the PDL cores ------------------===//
//
// Part of the PDL reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Generates seeded random RISC-V programs (hazard-biased: RAW chains,
// forward branches, aliasing loads/stores), runs each through a matrix of
// PDL cores x memory profiles with the runtime invariant monitors
// attached, and diffs every run against the golden architectural
// simulator. Any divergence or invariant violation is shrunk to a minimal
// instruction sequence and dumped as a repro bundle (program, seed,
// config, VCD, stats JSON).
//
// The matrix itself runs on sim::runFuzzBatch — this file only parses
// arguments. `--jobs=N` fans the independent runs out over N worker
// threads; every byte of output (JSON, stderr, bundles) is identical for
// every N.
//
//   pdlfuzz --seed=1 --count=100                      fuzz the default matrix
//   pdlfuzz --cores=5stage,bht --profiles=always-hit,l1-tiny
//   pdlfuzz --jobs=8                                  8 worker threads
//   pdlfuzz --json                                    bench-schema rows on stdout
//   pdlfuzz --out=DIR                                 repro bundles go here
//   pdlfuzz --fail-fast                               stop at the first failure
//
// Exit status: 0 when every run agreed with the golden model, 1 on any
// divergence or violation, 2 on usage errors.
//
//===----------------------------------------------------------------------===//

#include "backend/BcGen.h"
#include "backend/Fuse.h"
#include "sim/BatchRunner.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

using namespace pdl;

static void usage() {
  std::fprintf(
      stderr,
      "usage: pdlfuzz [--seed=N] [--count=N] [--cycles=N] [--jobs=N]\n"
      "               [--cores=LIST] [--profiles=LIST] [--out=DIR]\n"
      "               [--fault=SPEC] [--json] [--fail-fast] [--certify]\n"
      "               [--eval=MODE] [--bc-fuzz=N]\n"
      "  cores:    5stage nobypass 3stage bht rv32im rename\n"
      "  profiles: always-hit l1-4k l1-tiny\n"
      "  fault:    kind[:pipe=P,mem=M,from=S,to=S,nth=N,bit=N,var=V]\n"
      "  certify:  translation-validate each core's compiled bytecode;\n"
      "            rows carry a 'tv' field and a rejected certificate\n"
      "            counts as a failure\n"
      "  eval:     'bytecode' (default), 'tree', 'fused' or 'native' — the\n"
      "            expression evaluator every job runs under; results (and\n"
      "            JSON rows, minus the eval_mode field) are byte-identical\n"
      "            per seed\n"
      "  bc-fuzz:  property-test the bytecode lowerings instead of the\n"
      "            cores: N seeded random programs, each executed fused vs\n"
      "            unfused over many random frames (honours --seed)\n");
}

namespace {
/// Generated bc-fuzz programs are pure by construction — any hook dispatch
/// is a generator bug worth an immediate loud stop.
struct NullHooks : backend::bc::Hooks {
  Bits readMem(const backend::bc::ExprProgram &, unsigned,
               uint64_t) override {
    std::fprintf(stderr, "pdlfuzz: --bc-fuzz program called readMem\n");
    std::abort();
  }
  Bits callExtern(const backend::bc::ExprProgram &, unsigned, const Bits *,
                  unsigned) override {
    std::fprintf(stderr, "pdlfuzz: --bc-fuzz program called callExtern\n");
    std::abort();
  }
};
} // namespace

/// Property test over the bytecode lowerings: N seeded random programs,
/// each run fused vs unfused over FramesPer random input frames. Returns
/// the number of divergent (program, frame) pairs.
static uint64_t runBcFuzz(uint64_t Seed, uint64_t Count) {
  namespace bc = backend::bc;
  constexpr unsigned FramesPer = 16;
  NullHooks Hooks;
  bc::FuseStats Stats;
  uint64_t Failures = 0;
  for (uint64_t N = 0; N != Count; ++N) {
    const uint64_t ProgSeed = Seed + N;
    bc::GenProgram G = bc::genProgram(ProgSeed);
    bc::ExprProgram Fused = bc::fuseProgram(G.Prog, &Stats);
    for (unsigned F = 0; F != FramesPer; ++F) {
      const uint64_t FrameSeed = ProgSeed * 1000003ull + F;
      std::vector<Bits> Base = bc::randomFrame(G, FrameSeed);
      std::vector<Bits> Other = Base;
      Bits R0 = bc::exec(G.Prog, Base.data(), Hooks);
      Bits R1 = bc::exec(Fused, Other.data(), Hooks);
      if (R0 != R1) {
        ++Failures;
        std::fprintf(stderr,
                     "pdlfuzz: FAIL bc-fuzz seed=%llu frame=%u: unfused %s "
                     "!= fused %s (%zu -> %zu insns)\n",
                     (unsigned long long)ProgSeed, F, R0.str().c_str(),
                     R1.str().c_str(), G.Prog.Code.size(),
                     Fused.Code.size());
        break; // one report per program is enough to reproduce
      }
    }
  }
  std::fprintf(stderr,
               "pdlfuzz: bc-fuzz %llu program(s) x %u frame(s), %llu "
               "failure(s); folds: cmpbr=%llu cmpretbool=%llu retbool=%llu "
               "select=%llu bink=%llu retop=%llu deadconst=%llu\n",
               (unsigned long long)Count, FramesPer,
               (unsigned long long)Failures, (unsigned long long)Stats.CmpBr,
               (unsigned long long)Stats.CmpRetBool,
               (unsigned long long)Stats.RetBool,
               (unsigned long long)Stats.Select,
               (unsigned long long)Stats.BinK, (unsigned long long)Stats.RetOp,
               (unsigned long long)Stats.DeadConst);
  return Failures;
}

static std::vector<std::string> splitList(const std::string &S) {
  std::vector<std::string> Out;
  size_t Pos = 0;
  while (Pos <= S.size()) {
    size_t Comma = S.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = S.size();
    if (Comma > Pos)
      Out.push_back(S.substr(Pos, Comma - Pos));
    Pos = Comma + 1;
  }
  return Out;
}

int main(int argc, char **argv) {
  sim::FuzzOptions O;
  uint64_t Jobs = 1, BcFuzz = 0;
  std::string CoreList = "5stage,bht", ProfileList = "always-hit,l1-tiny";

  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Num = [&](const char *Prefix, uint64_t &V) {
      size_t N = std::strlen(Prefix);
      if (A.rfind(Prefix, 0) != 0)
        return false;
      V = std::strtoull(A.c_str() + N, nullptr, 0);
      return true;
    };
    if (Num("--seed=", O.Seed) || Num("--count=", O.Count) ||
        Num("--cycles=", O.MaxCycles) || Num("--jobs=", Jobs) ||
        Num("--bc-fuzz=", BcFuzz)) {
    } else if (A.rfind("--cores=", 0) == 0) {
      CoreList = A.substr(8);
    } else if (A.rfind("--profiles=", 0) == 0) {
      ProfileList = A.substr(11);
    } else if (A.rfind("--out=", 0) == 0) {
      O.OutDir = A.substr(6);
    } else if (A.rfind("--fault=", 0) == 0) {
      std::string Err;
      O.Fault = hw::parseFaultPlan(A.substr(8), &Err);
      if (!O.Fault) {
        std::fprintf(stderr, "pdlfuzz: bad --fault: %s\n", Err.c_str());
        return 2;
      }
    } else if (A == "--json") {
      O.Json = true;
    } else if (A == "--fail-fast") {
      O.FailFast = true;
    } else if (A == "--certify") {
      O.Certify = true;
    } else if (A.rfind("--eval=", 0) == 0) {
      // Jobs consult the environment when they elaborate a System (and the
      // shared circuit cache keys on it), so setenv covers every worker.
      std::string Mode = A.substr(7);
      if (Mode == "tree") {
        setenv("PDL_EVAL_TREE", "1", 1);
      } else if (Mode == "fused") {
        setenv("PDL_EVAL_FUSED", "1", 1);
      } else if (Mode == "native") {
        setenv("PDL_EVAL_NATIVE", "1", 1);
      } else if (Mode != "bytecode") {
        std::fprintf(stderr,
                     "pdlfuzz: --eval wants 'bytecode', 'tree', 'fused' or "
                     "'native', got '%s'\n",
                     Mode.c_str());
        return 2;
      }
    } else if (A == "--help" || A == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "pdlfuzz: unknown option '%s'\n", A.c_str());
      usage();
      return 2;
    }
  }
  O.Jobs = Jobs ? unsigned(Jobs) : 1u;

  if (BcFuzz)
    return runBcFuzz(O.Seed, BcFuzz) ? 1 : 0;

  O.Kinds.clear();
  for (const std::string &S : splitList(CoreList)) {
    std::optional<cores::CoreKind> K = cores::parseCoreKind(S);
    if (!K) {
      std::fprintf(stderr, "pdlfuzz: unknown core '%s'\n", S.c_str());
      return 2;
    }
    O.Kinds.push_back(*K);
  }
  O.Profiles.clear();
  for (const std::string &S : splitList(ProfileList)) {
    std::optional<cores::CoreMemProfile> P = cores::parseMemProfile(S);
    if (!P) {
      std::fprintf(stderr, "pdlfuzz: unknown profile '%s'\n", S.c_str());
      return 2;
    }
    O.Profiles.push_back(*P);
  }
  if (O.Kinds.empty() || O.Profiles.empty() || !O.Count) {
    usage();
    return 2;
  }

  sim::FuzzBatchResult R = sim::runFuzzBatch(O);
  std::fputs(R.Log.c_str(), stderr);
  if (O.Json)
    std::printf("%s\n", R.JsonDoc.c_str());
  std::fprintf(stderr,
               "pdlfuzz: %llu run(s) over %llu program(s), %llu failure(s)\n",
               (unsigned long long)R.Runs, (unsigned long long)O.Count,
               (unsigned long long)R.Failures);
  return R.Failures ? 1 : 0;
}
