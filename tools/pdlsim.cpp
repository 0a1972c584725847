//===- pdlsim.cpp - Thin client for the pdlsimd simulation daemon -----------===//
//
// Part of the PDL reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Submits simulations to a running pdlsimd over its Unix-domain socket and
// prints the response lines. Three modes:
//
//   matrix (default): pipeline the pdlfuzz seeds x cores x profiles matrix
//     pdlsim --socket=PATH --seed=1 --count=20 --cores=5stage,bht
//            --profiles=always-hit,l1-tiny [--fault=SPEC] [--json]
//     --min-cached=F   exit 1 unless >= F of the responses came from cache
//                      (the CI warm-resubmission assertion)
//
//   single program:
//     pdlsim --socket=PATH --asm=FILE --core=5stage --profile=l1-tiny
//            [--cycles=N] [--fault=SPEC] [--json]
//
//   control ops:
//     pdlsim --socket=PATH --ping | --stats | --drain | --shutdown
//
// Robustness: --timeout-ms bounds every connect/recv; --retries with
// --retry-delay-ms retries refused connects under bounded exponential
// backoff, and a connection dropped mid-batch is reconnected and the
// outstanding requests resubmitted (idempotent by request digest — a job
// the daemon already finished replays byte-identically from its cache).
// A batch keeps at most 16 requests in flight, so it never outgrows the
// socket buffers.
//
// With --json every raw response line goes to stdout (one JSON object per
// line, the bench-tooling service schema); a terminal transport failure
// emits a structured {"ok":false,"transport":...} row there too. The
// summary always goes to stderr. Exit status: 0 all runs agreed, 1 on any
// divergence/violation or an unmet --min-cached, 2 usage errors, 3
// transport errors (connection closed / protocol), 4 connection refused,
// 5 timed out.
//
//===----------------------------------------------------------------------===//

#include "service/Client.h"
#include "sim/BatchRunner.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

using namespace pdl;

static void usage() {
  std::fprintf(
      stderr,
      "usage: pdlsim --socket=PATH [mode options]\n"
      "  matrix:  [--seed=N] [--count=N] [--cycles=N] [--cores=LIST]\n"
      "           [--profiles=LIST] [--fault=SPEC] [--json] [--min-cached=F]\n"
      "  single:  --asm=FILE [--core=K] [--profile=P] [--cycles=N]\n"
      "           [--fault=SPEC] [--json]\n"
      "  control: --ping | --stats | --drain | --shutdown\n"
      "  robustness: [--timeout-ms=N] [--retries=N] [--retry-delay-ms=N]\n"
      "  cores:    5stage nobypass 3stage bht rv32im rename\n"
      "  profiles: always-hit l1-4k l1-tiny\n");
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
  std::string SocketPath, AsmFile, CoreName = "5stage",
                          ProfileName = "always-hit", FaultSpec;
  std::string CoreList = "5stage,bht", ProfileList = "always-hit,l1-tiny";
  sim::FuzzOptions O;
  O.Count = 20;
  uint64_t Cycles = 50000;
  uint64_t TimeoutMs = 0, Retries = 3, RetryDelayMs = 50;
  double MinCached = -1.0;
  bool Json = false;
  std::optional<service::Op> Control;

  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Num = [&](const char *Prefix, uint64_t &V) {
      size_t N = std::strlen(Prefix);
      if (A.rfind(Prefix, 0) != 0)
        return false;
      V = std::strtoull(A.c_str() + N, nullptr, 0);
      return true;
    };
    auto Str = [&](const char *Prefix, std::string &V) {
      size_t N = std::strlen(Prefix);
      if (A.rfind(Prefix, 0) != 0)
        return false;
      V = A.substr(N);
      return true;
    };
    if (Num("--seed=", O.Seed) || Num("--count=", O.Count) ||
        Num("--cycles=", Cycles) || Str("--socket=", SocketPath) ||
        Str("--cores=", CoreList) || Str("--profiles=", ProfileList) ||
        Str("--asm=", AsmFile) || Str("--core=", CoreName) ||
        Str("--profile=", ProfileName) || Str("--fault=", FaultSpec) ||
        Num("--timeout-ms=", TimeoutMs) || Num("--retries=", Retries) ||
        Num("--retry-delay-ms=", RetryDelayMs)) {
    } else if (A.rfind("--min-cached=", 0) == 0) {
      MinCached = std::strtod(A.c_str() + 13, nullptr);
    } else if (A == "--json") {
      Json = true;
    } else if (A == "--ping") {
      Control = service::Op::Ping;
    } else if (A == "--stats") {
      Control = service::Op::Stats;
    } else if (A == "--drain") {
      Control = service::Op::Drain;
    } else if (A == "--shutdown") {
      Control = service::Op::Shutdown;
    } else if (A == "--help" || A == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "pdlsim: unknown option '%s'\n", A.c_str());
      usage();
      return 2;
    }
  }
  if (SocketPath.empty()) {
    usage();
    return 2;
  }
  O.MaxCycles = Cycles;

  std::optional<hw::FaultPlan> Fault;
  if (!FaultSpec.empty()) {
    std::string Err;
    Fault = hw::parseFaultPlan(FaultSpec, &Err);
    if (!Fault) {
      std::fprintf(stderr, "pdlsim: bad --fault: %s\n", Err.c_str());
      return 2;
    }
  }

  service::SimClient Client;
  Client.setTimeoutMs(unsigned(TimeoutMs));
  service::SimClient::RetryPolicy Policy;
  Policy.Attempts = unsigned(Retries ? Retries : 1);
  Policy.InitialDelayMs = unsigned(RetryDelayMs);

  // Terminal transport failure: one summary line on stderr, a structured
  // error row on stdout under --json (so log parsers see the failure in
  // band), and a distinct exit code per failure class.
  auto TransportExit = [&](const std::string &Why) {
    service::SimClient::Transport T = Client.status();
    std::fprintf(stderr, "pdlsim: %s\n", Why.c_str());
    if (Json) {
      obs::Json Row = obs::Json::object();
      Row.set("ok", obs::Json(false));
      Row.set("error", obs::Json(Why));
      Row.set("transport",
              obs::Json(std::string(service::SimClient::transportName(T))));
      Row.set("socket", obs::Json(SocketPath));
      std::printf("%s\n", Row.dump().c_str());
    }
    switch (T) {
    case service::SimClient::Transport::Refused:
      return 4;
    case service::SimClient::Transport::Timeout:
      return 5;
    default:
      return 3;
    }
  };

  std::string Err;
  if (!Client.connectWithRetry(SocketPath, Policy, &Err))
    return TransportExit(Err);

  // Control ops are a single round trip.
  if (Control) {
    std::optional<obs::Json> Resp =
        Client.call(service::encodeControlRequest(1, *Control), &Err);
    if (!Resp)
      return TransportExit(Err);
    std::printf("%s\n", Resp->dump().c_str());
    const obs::Json *Ok = Resp->get("ok");
    return (Ok && Ok->asBool()) ? 0 : 1;
  }

  // Build the request list: one explicit program, or the fuzz matrix.
  std::vector<sim::SimRequest> Reqs;
  if (!AsmFile.empty()) {
    std::ifstream In(AsmFile);
    if (!In) {
      std::fprintf(stderr, "pdlsim: cannot read '%s'\n", AsmFile.c_str());
      return 2;
    }
    std::ostringstream SS;
    SS << In.rdbuf();
    sim::SimRequest R;
    R.Asm = SS.str();
    std::optional<cores::CoreKind> K = cores::parseCoreKind(CoreName);
    std::optional<cores::CoreMemProfile> P =
        cores::parseMemProfile(ProfileName);
    if (!K || !P) {
      std::fprintf(stderr, "pdlsim: unknown %s '%s'\n",
                   K ? "profile" : "core",
                   (K ? ProfileName : CoreName).c_str());
      return 2;
    }
    R.Cfg.Kind = *K;
    R.Cfg.Profile = *P;
    R.Cfg.MaxCycles = Cycles;
    R.Cfg.Fault = Fault;
    Reqs.push_back(std::move(R));
  } else {
    O.Kinds.clear();
    for (const std::string &S : splitList(CoreList)) {
      std::optional<cores::CoreKind> K = cores::parseCoreKind(S);
      if (!K) {
        std::fprintf(stderr, "pdlsim: unknown core '%s'\n", S.c_str());
        return 2;
      }
      O.Kinds.push_back(*K);
    }
    O.Profiles.clear();
    for (const std::string &S : splitList(ProfileList)) {
      std::optional<cores::CoreMemProfile> P = cores::parseMemProfile(S);
      if (!P) {
        std::fprintf(stderr, "pdlsim: unknown profile '%s'\n", S.c_str());
        return 2;
      }
      O.Profiles.push_back(*P);
    }
    O.Fault = Fault;
    if (O.Kinds.empty() || O.Profiles.empty() || !O.Count) {
      usage();
      return 2;
    }
    Reqs = sim::expandFuzzMatrix(O);
  }

  // Pipeline a bounded window of requests, reading a response before
  // sending past it: a client that wrote the whole batch first would fill
  // the socket in both directions once the daemon blocks writing responses
  // nobody reads. The daemon guarantees per-client submission order, so
  // response I matches request I. When the connection drops (or times out)
  // mid-batch, reconnect and resubmit the sent-but-unanswered suffix:
  // requests are idempotent by digest, so a job the dead connection
  // already completed is replayed from the daemon's cache rather than
  // re-simulated.
  constexpr size_t Window = 16;
  uint64_t Cached = 0, Failures = 0, ResponseErrors = 0, Resubmitted = 0;
  size_t Next = 0; // index of the next response we are owed
  size_t Sent = 0; // requests [Next, Sent) are in flight
  uint64_t RetryBudget = Retries;
  while (Next < Reqs.size()) {
    bool SendFailed = false;
    for (; Sent < Reqs.size() && Sent - Next < Window; ++Sent)
      if (!Client.sendLine(
              service::encodeSimRequest(uint64_t(Sent + 1), Reqs[Sent]))) {
        SendFailed = true;
        break;
      }
    std::optional<std::string> Line;
    if (!SendFailed)
      Line = Client.recvLine();
    if (!Line) {
      if (!RetryBudget--)
        return TransportExit("connection lost after " + std::to_string(Next) +
                             " response(s), retries exhausted");
      std::fprintf(stderr,
                   "pdlsim: connection %s after %zu response(s); "
                   "reconnecting to resubmit %zu outstanding request(s)\n",
                   service::SimClient::transportName(Client.status()),
                   Next, Reqs.size() - Next);
      Client.close();
      if (!Client.connectWithRetry(SocketPath, Policy, &Err))
        return TransportExit(Err);
      Resubmitted += Sent - Next;
      Sent = Next;
      continue;
    }
    ++Next;
    if (Json)
      std::printf("%s\n", Line->c_str());
    std::optional<obs::Json> Resp = obs::Json::parse(*Line);
    const obs::Json *Ok = Resp ? Resp->get("ok") : nullptr;
    if (!Resp || !Ok || !Ok->asBool()) {
      ++ResponseErrors;
      continue;
    }
    const obs::Json *C = Resp->get("cached");
    if (C && C->asBool())
      ++Cached;
    const obs::Json *Result = Resp->get("result");
    const obs::Json *Div = Result ? Result->get("divergent") : nullptr;
    const obs::Json *Vio = Result ? Result->get("violations") : nullptr;
    if ((Div && Div->asBool()) || (Vio && Vio->asU64() != 0))
      ++Failures;
  }

  double Frac = Reqs.empty() ? 0.0 : double(Cached) / double(Reqs.size());
  std::fprintf(stderr,
               "pdlsim: %zu response(s), %llu cached (%.0f%%), "
               "%llu failure(s), %llu error(s), %llu resubmitted\n",
               Reqs.size(), (unsigned long long)Cached, Frac * 100.0,
               (unsigned long long)Failures,
               (unsigned long long)ResponseErrors,
               (unsigned long long)Resubmitted);
  if (ResponseErrors)
    return 3;
  if (MinCached >= 0.0 && Frac < MinCached) {
    std::fprintf(stderr, "pdlsim: cached fraction %.2f below --min-cached=%.2f\n",
                 Frac, MinCached);
    return 1;
  }
  return Failures ? 1 : 0;
}
