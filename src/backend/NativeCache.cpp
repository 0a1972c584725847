//===- NativeCache.cpp - Compile, cache, and dlopen emitted circuits ------===//
//
// Part of the PDL reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "backend/NativeCache.h"

#include "backend/Emit.h"
#include "support/Persist.h"

#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <vector>

#include <dlfcn.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace pdl;
using namespace pdl::backend;
using namespace pdl::backend::bc;
using pdl::service::persist::decodeRecord;
using pdl::service::persist::encodeRecord;
using pdl::service::persist::ensureDir;
using pdl::service::persist::fnv1a64;
using pdl::service::persist::hexDigest;
using pdl::service::persist::kNativeArtifactMagic;
using pdl::service::persist::readFileBytes;
using pdl::service::persist::writeFileAtomic;

//===----------------------------------------------------------------------===//
// Mode, compiler discovery, stats
//===----------------------------------------------------------------------===//

namespace {

/// Compile flags baked into the cache key: changing them must miss.
constexpr const char *kFlags = "-O3 -fPIC -shared -w";

struct Counters {
  std::atomic<uint64_t> Compiles{0}, CacheHits{0}, Attached{0}, Fallbacks{0};
  std::atomic<uint64_t> CompileUs{0};
};
Counters &counters() {
  static Counters C;
  return C;
}

/// Runs `cmd --version` and returns the first output line, or "" when the
/// command cannot be executed. \p Cmd comes from a fixed list or from the
/// user's own PDL_NATIVE_CXX — the same trust level as $CXX in any build.
std::string versionLine(const std::string &Cmd) {
  std::string Shell = Cmd + " --version 2>/dev/null";
  FILE *P = popen(Shell.c_str(), "r");
  if (!P)
    return "";
  char Buf[256] = {0};
  std::string Line;
  if (std::fgets(Buf, sizeof Buf, P)) {
    Line = Buf;
    while (!Line.empty() && (Line.back() == '\n' || Line.back() == '\r'))
      Line.pop_back();
  }
  // Drain so the child exits cleanly, then require success.
  while (std::fgets(Buf, sizeof Buf, P))
    ;
  if (pclose(P) != 0)
    return "";
  return Line;
}

struct Compiler {
  std::string Cmd;      // how to invoke it
  std::string Identity; // first --version line; "" = unusable
};

const Compiler &compiler() {
  static const Compiler C = [] {
    Compiler R;
    if (const char *Env = std::getenv("PDL_NATIVE_CXX")) {
      R.Cmd = Env;
      R.Identity = versionLine(R.Cmd);
      return R; // an override that fails to probe stays failed — no fallback
    }
    for (const char *Cand : {"c++", "g++", "clang++"}) {
      std::string Id = versionLine(Cand);
      if (!Id.empty()) {
        R.Cmd = Cand;
        R.Identity = Id;
        return R;
      }
    }
    return R;
  }();
  return C;
}

} // namespace

bool native::nativeModeRequested() {
  return std::getenv("PDL_EVAL_NATIVE") != nullptr &&
         std::getenv("PDL_EVAL_TREE") == nullptr;
}

const std::string &native::compilerIdentity() { return compiler().Identity; }

bool native::available() { return !compiler().Identity.empty(); }

std::string native::cacheDir() {
  if (const char *Env = std::getenv("PDL_NATIVE_CACHE_DIR"))
    return Env;
  const char *Tmp = std::getenv("TMPDIR");
  std::string Base = Tmp && *Tmp ? Tmp : "/tmp";
  return Base + "/pdl-native-" + std::to_string(uint64_t(getuid()));
}

native::Stats native::stats() {
  Counters &C = counters();
  Stats S;
  S.Compiles = C.Compiles.load();
  S.CacheHits = C.CacheHits.load();
  S.Attached = C.Attached.load();
  S.Fallbacks = C.Fallbacks.load();
  S.CompileMs = double(C.CompileUs.load()) / 1000.0;
  return S;
}

void native::resetStatsForTest() {
  Counters &C = counters();
  C.Compiles = 0;
  C.CacheHits = 0;
  C.Attached = 0;
  C.Fallbacks = 0;
  C.CompileUs = 0;
}

//===----------------------------------------------------------------------===//
// Hook trampolines
//===----------------------------------------------------------------------===//
//
// The emitted TU knows nothing about pdl::Bits or bc::Hooks: it calls back
// through two C function pointers registered by pdl_native_bind. The
// trampolines live on the host side, where the real types are visible, and
// index the program's site tables by integer — no AST addresses are ever
// baked into an artifact, which is what makes artifacts reusable across
// processes.

namespace {

// Host-side views of the emitted typedefs. NB* appears as void* here; the
// layouts are verified by the probe export before anything is called.
using MemFn = void (*)(void *Hooks, const void *Prog, unsigned Site,
                       unsigned long long Addr, void *Ret);
using ExtFn = void (*)(void *Hooks, const void *Prog, unsigned Site,
                       const void *Args, unsigned N, void *Ret);
using BindFn = void (*)(MemFn, ExtFn);
using AbiFn = unsigned (*)();
using ProbeFn = void (*)(void *);

void memTrampoline(void *Hooks, const void *Prog, unsigned Site,
                   unsigned long long Addr, void *Ret) {
  const ExprProgram &P = *static_cast<const ExprProgram *>(Prog);
  *static_cast<Bits *>(Ret) =
      static_cast<bc::Hooks *>(Hooks)->readMem(P, Site, Addr);
}

void extTrampoline(void *Hooks, const void *Prog, unsigned Site,
                   const void *Args, unsigned N, void *Ret) {
  const ExprProgram &P = *static_cast<const ExprProgram *>(Prog);
  *static_cast<Bits *>(Ret) = static_cast<bc::Hooks *>(Hooks)->callExtern(
      P, Site, static_cast<const Bits *>(Args), N);
}

//===----------------------------------------------------------------------===//
// Artifact store
//===----------------------------------------------------------------------===//

std::string u64Str(uint64_t V) { return std::to_string(V); }

/// Opens and fully verifies an artifact: ABI word, layout probe, symbol
/// presence. Returns the dlopen handle (caller owns) with every symbol
/// resolved into \p Thunks, or null with \p Err.
void *openAndVerify(const std::string &SoPath,
                    const std::vector<std::string> &Syms,
                    std::vector<NativeThunk> &Thunks, std::string *Err) {
  void *H = dlopen(SoPath.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!H) {
    if (Err)
      *Err = std::string("dlopen failed: ") + dlerror();
    return nullptr;
  }
  auto Fail = [&](const std::string &Msg) -> void * {
    if (Err)
      *Err = Msg;
    dlclose(H);
    return nullptr;
  };
  auto Abi = reinterpret_cast<AbiFn>(dlsym(H, "pdl_native_abi"));
  auto Probe = reinterpret_cast<ProbeFn>(dlsym(H, "pdl_native_probe"));
  auto Bind = reinterpret_cast<BindFn>(dlsym(H, "pdl_native_bind"));
  if (!Abi || !Probe || !Bind)
    return Fail("artifact missing an ABI export");
  if (Abi() != native::kAbiWord)
    return Fail("artifact ABI word mismatch");
  Bits ProbeOut;
  Probe(&ProbeOut);
  if (ProbeOut.zext() != native::kProbeValue ||
      ProbeOut.width() != native::kProbeWidth)
    return Fail("value layout probe mismatch (NB vs pdl::Bits)");
  Bind(&memTrampoline, &extTrampoline);
  Thunks.clear();
  Thunks.reserve(Syms.size());
  for (const std::string &S : Syms) {
    void *Fn = dlsym(H, S.c_str());
    if (!Fn)
      return Fail("artifact missing symbol " + S);
    Thunks.push_back(reinterpret_cast<NativeThunk>(Fn));
  }
  return H;
}

bool fileExists(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0 && S_ISREG(St.st_mode);
}

} // namespace

//===----------------------------------------------------------------------===//
// attachModule
//===----------------------------------------------------------------------===//

bool native::attachModule(ModuleIR &M, const AttachOptions &O,
                          std::string *Err) {
  auto Degrade = [&](const std::string &Msg) {
    counters().Fallbacks++;
    if (Err)
      *Err = Msg;
    return false;
  };
  if (!O.Certified)
    return Degrade("module '" + O.ModuleName +
                   "' has no strict TV certificate; refusing to emit");
  const Compiler &CC = compiler();
  if (CC.Identity.empty())
    return Degrade("no usable C++ compiler (PDL_NATIVE_CXX / c++ / g++ / "
                   "clang++)");

  // The certificate digest (and the module label it covers) is part of the
  // address: core kinds sharing one PDL source produce identical bytecode
  // but distinct attestations, and each attestation must bind its own
  // artifact descriptor.
  const uint64_t ModDigest = moduleDigest(M);
  const uint64_t Key = fnv1a64("native|" + u64Str(kAbiWord) + "|" +
                               CC.Identity + "|" + kFlags + "|" +
                               hexDigest(ModDigest) + "|" + O.ModuleName +
                               "|" + hexDigest(O.CertDigest));
  const std::string Dir = O.CacheDir.empty() ? cacheDir() : O.CacheDir;
  std::string DirErr;
  if (!ensureDir(Dir, &DirErr))
    return Degrade("cannot create artifact dir " + Dir + ": " + DirErr);
  const std::string Stem = Dir + "/" + hexDigest(Key);
  const std::string SoPath = Stem + ".so", MetaPath = Stem + ".meta";
  const std::string CppPath = Stem + ".cpp", LogPath = Stem + ".log";

  // The emission order is canonical (sorted pipes, deque order), so the
  // symbol list derived here matches the one a cached descriptor recorded.
  EmitResult Emitted = emitModule(M);
  std::vector<std::string> Syms;
  Syms.reserve(Emitted.Symbols.size());
  std::string SymList;
  for (const auto &[Sym, Prog] : Emitted.Symbols) {
    Syms.push_back(Sym);
    SymList += Sym;
    SymList += '\n';
  }

  // Warm path: descriptor + .so already on disk and fully consistent.
  bool CacheHit = false;
  if (fileExists(SoPath)) {
    if (std::optional<std::string> Bytes = readFileBytes(MetaPath)) {
      std::vector<std::string> Sec;
      std::string DecErr;
      if (decodeRecord(*Bytes, kNativeArtifactMagic, &Sec, &DecErr) &&
          Sec.size() == 5 && Sec[0] == u64Str(kAbiWord) &&
          Sec[1] == CC.Identity + "|" + kFlags &&
          Sec[2] == hexDigest(ModDigest) &&
          Sec[3] == hexDigest(O.CertDigest) && Sec[4] == SymList)
        CacheHit = true;
    }
  }

  if (!CacheHit) {
    // Cold path: write the TU, drive the compiler, publish atomically.
    std::string WErr;
    if (!writeFileAtomic(CppPath, Emitted.Source, &WErr))
      return Degrade("cannot write " + CppPath + ": " + WErr);
    const std::string TmpSo =
        SoPath + ".tmp." + std::to_string(uint64_t(getpid()));
    std::string Cmd = CC.Cmd + " " + kFlags + " -o " + TmpSo + " " + CppPath +
                      " > " + LogPath + " 2>&1";
    auto T0 = std::chrono::steady_clock::now();
    int Rc = std::system(Cmd.c_str());
    auto T1 = std::chrono::steady_clock::now();
    counters().CompileUs +=
        std::chrono::duration_cast<std::chrono::microseconds>(T1 - T0)
            .count();
    if (Rc != 0) {
      ::unlink(TmpSo.c_str());
      std::string Log;
      if (std::optional<std::string> L = readFileBytes(LogPath))
        Log = L->substr(0, 400);
      return Degrade("native compile failed (" + CC.Cmd + " exit " +
                     std::to_string(Rc) + "): " + Log);
    }
    if (::rename(TmpSo.c_str(), SoPath.c_str()) != 0) {
      ::unlink(TmpSo.c_str());
      return Degrade("cannot publish " + SoPath + ": " +
                     std::strerror(errno));
    }
    std::string Meta = encodeRecord(
        kNativeArtifactMagic,
        {u64Str(kAbiWord), CC.Identity + "|" + kFlags, hexDigest(ModDigest),
         hexDigest(O.CertDigest), SymList});
    if (!writeFileAtomic(MetaPath, Meta, &WErr)) {
      ::unlink(SoPath.c_str());
      return Degrade("cannot write " + MetaPath + ": " + WErr);
    }
    counters().Compiles++;
  }

  std::vector<NativeThunk> Thunks;
  std::string OpenErr;
  void *Handle = openAndVerify(SoPath, Syms, Thunks, &OpenErr);
  if (!Handle && CacheHit) {
    // A stale or corrupt cached artifact is not fatal: evict and recompile
    // once by re-entering the cold path on a recursive call.
    ::unlink(SoPath.c_str());
    ::unlink(MetaPath.c_str());
    return attachModule(M, O, Err);
  }
  if (!Handle)
    return Degrade("artifact rejected: " + OpenErr);

  for (size_t I = 0; I != Emitted.Symbols.size(); ++I)
    const_cast<ExprProgram *>(Emitted.Symbols[I].second)->Native = Thunks[I];
  M.NativeLib = std::shared_ptr<void>(Handle, [](void *H) { dlclose(H); });
  M.NativeCompiler = CC.Identity;
  M.NativeCacheHit = CacheHit;
  if (CacheHit)
    counters().CacheHits++;
  counters().Attached++;
  return true;
}
