// Tuning-as-a-service: the serve protocol must parse/format exactly, the
// daemon's handleLine state machine must answer warm queries without the
// evaluator and reproduce a fresh tune on the miss path, faults must score
// structured errors without killing the daemon, and the socket layer must
// round-trip lines over Unix and TCP.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "arch/machine.h"
#include "kernels/registry.h"
#include "opt/params.h"
#include "search/evalcache.h"
#include "search/orchestrator.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/protocol.h"
#include "support/hash.h"
#include "support/json.h"
#include "wisdom/wisdom.h"

namespace ifko::serve {
namespace {

std::string tmpFile(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

std::map<std::string, JsonValue> parseResponse(const std::string& line) {
  std::map<std::string, JsonValue> obj;
  EXPECT_TRUE(parseJsonObject(line, &obj)) << line;
  return obj;
}

bool okOf(const std::map<std::string, JsonValue>& obj) {
  auto it = obj.find("ok");
  return it != obj.end() && it->second.kind == JsonValue::Kind::Bool &&
         it->second.boolean;
}

std::string strOf(const std::map<std::string, JsonValue>& obj,
                  const char* key) {
  auto it = obj.find(key);
  return it != obj.end() && it->second.kind == JsonValue::Kind::String
             ? it->second.string
             : std::string();
}

int64_t numOf(const std::map<std::string, JsonValue>& obj, const char* key) {
  auto it = obj.find(key);
  return it != obj.end() && it->second.kind == JsonValue::Kind::Number
             ? it->second.asInt()
             : -1;
}

/// A daemon config sized for tests: smoke grids, small N, in-memory only.
ServeConfig smokeServeConfig() {
  ServeConfig cfg;
  cfg.orchestrator.search = search::SearchConfig::smoke();
  cfg.orchestrator.search.n = 1024;
  return cfg;
}

TEST(ServeProtocol, ParsesKernelVerbWithOptions) {
  std::string err;
  auto req = parseRequest("QUERY ddot arch=opteron context=inl2 n=5000", &err);
  ASSERT_TRUE(req.has_value()) << err;
  EXPECT_EQ(req->verb, Request::Verb::Query);
  EXPECT_EQ(req->target, "ddot");
  EXPECT_EQ(req->arch, "opteron");
  EXPECT_EQ(req->context, "inl2");
  EXPECT_EQ(req->n, 5000);

  req = parseRequest("TUNE sasum", &err);
  ASSERT_TRUE(req.has_value()) << err;
  EXPECT_EQ(req->verb, Request::Verb::Tune);
  EXPECT_EQ(req->target, "sasum");
  EXPECT_TRUE(req->arch.empty());
  EXPECT_EQ(req->n, 0);

  req = parseRequest("STATS", &err);
  ASSERT_TRUE(req.has_value()) << err;
  EXPECT_EQ(req->verb, Request::Verb::Stats);

  req = parseRequest("EXPORT /tmp/out.jsonl", &err);
  ASSERT_TRUE(req.has_value()) << err;
  EXPECT_EQ(req->verb, Request::Verb::Export);
  EXPECT_EQ(req->target, "/tmp/out.jsonl");

  req = parseRequest("IMPORT /tmp/peer.jsonl", &err);
  ASSERT_TRUE(req.has_value()) << err;
  EXPECT_EQ(req->verb, Request::Verb::Import);
  EXPECT_EQ(req->target, "/tmp/peer.jsonl");
  // IMPORT needs a path; EXPORT falls back to the daemon's wisdom file.
  EXPECT_FALSE(parseRequest("IMPORT", &err).has_value());
}

TEST(ServeProtocol, RejectsMalformedRequests) {
  std::string err;
  EXPECT_FALSE(parseRequest("", &err).has_value());
  EXPECT_FALSE(parseRequest("FROB ddot", &err).has_value());
  EXPECT_FALSE(parseRequest("QUERY", &err).has_value());  // kernel required
  EXPECT_FALSE(parseRequest("QUERY ddot arch=vax", &err).has_value());
  EXPECT_FALSE(parseRequest("QUERY ddot context=l3", &err).has_value());
  EXPECT_FALSE(parseRequest("QUERY ddot n=0", &err).has_value());
  EXPECT_FALSE(parseRequest("QUERY ddot n=many", &err).has_value());
  EXPECT_FALSE(parseRequest("QUERY ddot bogus=1", &err).has_value());
}

TEST(ServeProtocol, FormatParsesBackToItself) {
  Request req;
  req.verb = Request::Verb::Explain;
  req.target = "daxpy";
  req.arch = "opteron";
  req.context = "inl2";
  req.n = 4096;
  std::string err;
  auto back = parseRequest(formatRequest(req), &err);
  ASSERT_TRUE(back.has_value()) << err;
  EXPECT_EQ(back->verb, req.verb);
  EXPECT_EQ(back->target, req.target);
  EXPECT_EQ(back->arch, req.arch);
  EXPECT_EQ(back->context, req.context);
  EXPECT_EQ(back->n, req.n);

  // Defaults are omitted on the wire.
  Request bare;
  bare.verb = Request::Verb::Query;
  bare.target = "ddot";
  EXPECT_EQ(formatRequest(bare), "QUERY ddot");
}

TEST(Daemon, StructuredErrorsForBadRequests) {
  Daemon d(smokeServeConfig());
  auto resp = parseResponse(d.handleLine("FROB ddot"));
  EXPECT_FALSE(okOf(resp));
  EXPECT_EQ(strOf(resp, "code"), "parse_error");

  resp = parseResponse(d.handleLine("QUERY no_such_kernel"));
  EXPECT_FALSE(okOf(resp));
  EXPECT_EQ(strOf(resp, "code"), "unknown_kernel");

  resp = parseResponse(d.handleLine("EXPLAIN ddot"));
  EXPECT_FALSE(okOf(resp));
  EXPECT_EQ(strOf(resp, "code"), "no_wisdom");

  // No --wisdom file and no explicit path: EXPORT has nowhere to write.
  resp = parseResponse(d.handleLine("EXPORT"));
  EXPECT_FALSE(okOf(resp));
  EXPECT_EQ(strOf(resp, "code"), "export_failed");

  resp = parseResponse(d.handleLine("STATS"));
  EXPECT_TRUE(okOf(resp));
  EXPECT_EQ(numOf(resp, "requests"), 5);
  EXPECT_EQ(numOf(resp, "errors"), 4);
  EXPECT_EQ(numOf(resp, "evaluations"), 0);
  EXPECT_GE(numOf(resp, "kernels"), 14);
}

TEST(Daemon, TuneThenWarmQueryAndExplain) {
  Daemon d(smokeServeConfig());

  auto tuned = parseResponse(d.handleLine("TUNE ddot"));
  ASSERT_TRUE(okOf(tuned)) << d.handleLine("TUNE ddot");
  EXPECT_EQ(strOf(tuned, "match"), "tuned");
  EXPECT_GT(numOf(tuned, "evaluations"), 0);
  EXPECT_GT(numOf(tuned, "best_cycles"), 0);
  const std::string params = strOf(tuned, "params");
  EXPECT_TRUE(opt::parseTuningSpec(params).ok) << params;

  // Same (kernel, arch, context, N-class): answered from wisdom, evaluator
  // untouched.
  auto warm = parseResponse(d.handleLine("QUERY ddot"));
  ASSERT_TRUE(okOf(warm));
  EXPECT_EQ(strOf(warm, "match"), "exact");
  EXPECT_EQ(numOf(warm, "evaluations"), 0);
  EXPECT_EQ(strOf(warm, "params"), params);
  EXPECT_EQ(numOf(warm, "best_cycles"), numOf(tuned, "best_cycles"));

  // Another N in the same power-of-two class is the same record.
  auto sameClass = parseResponse(d.handleLine("QUERY ddot n=1000"));
  ASSERT_TRUE(okOf(sameClass));
  EXPECT_EQ(strOf(sameClass, "match"), "exact");

  // A different N-class falls back to the nearest record — still no
  // evaluator.
  auto near = parseResponse(d.handleLine("QUERY ddot n=80000"));
  ASSERT_TRUE(okOf(near));
  EXPECT_EQ(strOf(near, "match"), "near-n");
  EXPECT_EQ(numOf(near, "evaluations"), 0);

  auto explained = parseResponse(d.handleLine("EXPLAIN ddot"));
  ASSERT_TRUE(okOf(explained));
  EXPECT_EQ(strOf(explained, "params"), params);
  EXPECT_EQ(strOf(explained, "run"), "serve/line");

  auto stats = parseResponse(d.handleLine("STATS"));
  EXPECT_EQ(numOf(stats, "tuned"), 1);
  EXPECT_EQ(numOf(stats, "wisdom_exact"), 2);
  EXPECT_EQ(numOf(stats, "wisdom_near"), 1);
  EXPECT_EQ(numOf(stats, "evaluations"), numOf(tuned, "evaluations"));
  EXPECT_EQ(numOf(stats, "wisdom_records"), 1);
}

// The acceptance bar: for every surveyed kernel, in both timing contexts,
// the daemon's miss path finds exactly what a fresh one-shot tune finds,
// and the second query is a pure wisdom hit.
TEST(DaemonAcceptance, MissTuneMatchesFreshTuneAcrossContexts) {
  // One daemon per context: within one store the second context would be
  // answered by the near-context fallback instead of tuning, which is the
  // serving behavior but not what this test pins down.
  for (const sim::TimeContext context :
       {sim::TimeContext::OutOfCache, sim::TimeContext::InL2}) {
    const bool inl2 = context == sim::TimeContext::InL2;
    ServeConfig cfg = smokeServeConfig();
    cfg.orchestrator.search.context = context;
    Daemon d(cfg);
    search::OrchestratorConfig freshCfg;
    freshCfg.search = search::SearchConfig::smoke();
    freshCfg.search.n = 1024;
    freshCfg.search.context = context;
    search::Orchestrator fresh(arch::p4e(), freshCfg);
    int64_t expectEvals = 0;
    for (const kernels::KernelSpec& spec : kernels::allKernels()) {
      SCOPED_TRACE(spec.name() + (inl2 ? "/inl2" : "/ooc"));
      const search::KernelOutcome want =
          fresh.tune({spec.name(), spec.hilSource(), &spec});
      ASSERT_TRUE(want.result.ok) << want.result.error;
      expectEvals += want.result.evaluations;

      auto miss = parseResponse(d.handleLine("QUERY " + spec.name()));
      ASSERT_TRUE(okOf(miss));
      EXPECT_EQ(strOf(miss, "match"), "tuned");
      EXPECT_EQ(strOf(miss, "params"), opt::formatTuningSpec(want.result.best));
      EXPECT_EQ(numOf(miss, "best_cycles"),
                static_cast<int64_t>(want.result.bestCycles));
      EXPECT_EQ(numOf(miss, "default_cycles"),
                static_cast<int64_t>(want.result.defaultCycles));

      auto warm = parseResponse(d.handleLine("QUERY " + spec.name()));
      ASSERT_TRUE(okOf(warm));
      EXPECT_EQ(strOf(warm, "match"), "exact");
      EXPECT_EQ(numOf(warm, "evaluations"), 0);
      EXPECT_EQ(strOf(warm, "params"), strOf(miss, "params"));
    }
    // The warm queries must not have moved the evaluation counter.
    auto stats = parseResponse(d.handleLine("STATS"));
    EXPECT_EQ(numOf(stats, "evaluations"), expectEvals);
    EXPECT_EQ(numOf(stats, "tuned"),
              static_cast<int64_t>(kernels::allKernels().size()));
    EXPECT_EQ(numOf(stats, "wisdom_exact"),
              static_cast<int64_t>(kernels::allKernels().size()));
  }
}

TEST(Daemon, WisdomFileRoundTripAndExport) {
  const std::string wisdomPath = tmpFile("serve_wisdom.jsonl");
  const std::string exportPath = tmpFile("serve_export.jsonl");
  std::remove(wisdomPath.c_str());
  std::string tunedParams;
  {
    ServeConfig cfg = smokeServeConfig();
    cfg.wisdomPath = wisdomPath;
    Daemon d(cfg);
    auto tuned = parseResponse(d.handleLine("TUNE scopy"));
    ASSERT_TRUE(okOf(tuned));
    tunedParams = strOf(tuned, "params");
    auto exported = parseResponse(d.handleLine("EXPORT " + exportPath));
    ASSERT_TRUE(okOf(exported));
    EXPECT_EQ(numOf(exported, "records"), 1);
    auto down = parseResponse(d.handleLine("SHUTDOWN"));
    EXPECT_TRUE(okOf(down));
    EXPECT_TRUE(d.shutdownRequested());
  }
  // A fresh daemon on the same wisdom file answers without tuning.
  {
    ServeConfig cfg = smokeServeConfig();
    cfg.wisdomPath = wisdomPath;
    Daemon d(cfg);
    auto warm = parseResponse(d.handleLine("QUERY scopy"));
    ASSERT_TRUE(okOf(warm));
    EXPECT_EQ(strOf(warm, "match"), "exact");
    EXPECT_EQ(numOf(warm, "evaluations"), 0);
    EXPECT_EQ(strOf(warm, "params"), tunedParams);
  }
  // The EXPORT target is a loadable wisdom file with the same record.
  wisdom::WisdomStore store;
  ASSERT_TRUE(store.load(exportPath));
  ASSERT_EQ(store.size(), 1u);
  EXPECT_EQ(store.records()[0]->params, tunedParams);
  EXPECT_EQ(store.records()[0]->kernel, "scopy");
  std::remove(wisdomPath.c_str());
  std::remove(exportPath.c_str());
}

// The daemon's one eval cache persists every (arch, context, n) combination
// it tuned exactly once, and a restarted daemon replays all of them from
// the file without a single evaluation.
TEST(Daemon, SharedCacheRoundTripsAcrossRestart) {
  const std::string cachePath = tmpFile("serve_shared.cache.jsonl");
  std::remove(cachePath.c_str());
  const std::vector<std::string> tunes = {"TUNE ddot n=1024",
                                          "TUNE ddot n=2048",
                                          "TUNE ddot n=4096"};
  ServeConfig cfg = smokeServeConfig();
  cfg.orchestrator.cachePath = cachePath;

  std::vector<std::map<std::string, JsonValue>> first;
  {
    std::string error;
    Daemon d(cfg, &error);
    EXPECT_EQ(error, "");
    for (const std::string& line : tunes) {
      first.push_back(parseResponse(d.handleLine(line)));
      ASSERT_TRUE(okOf(first.back())) << line;
      EXPECT_GT(numOf(first.back(), "evaluations"), 0) << line;
    }
    auto stats = parseResponse(d.handleLine("STATS"));
    EXPECT_EQ(numOf(stats, "orchestrators"), 3);
    const int64_t entries = numOf(stats, "eval_cache_entries");
    EXPECT_EQ(entries, numOf(stats, "evaluations"));

    // One line per entry, no key twice: no combination re-read the file
    // into a private map and counted (or wrote) it again.
    std::ifstream in(cachePath);
    std::set<std::string> keys;
    int64_t lines = 0;
    for (std::string text; std::getline(in, text); ++lines) {
      search::EvalKey key;
      search::EvalRecord rec;
      ASSERT_TRUE(search::EvalCache::parseLine(text, &key, &rec)) << text;
      EXPECT_TRUE(keys.insert(key.str()).second) << "duplicate: " << text;
    }
    EXPECT_EQ(lines, entries);
  }

  std::string error;
  Daemon again(cfg, &error);
  EXPECT_EQ(error, "");
  for (size_t i = 0; i < tunes.size(); ++i) {
    SCOPED_TRACE(tunes[i]);
    auto replay = parseResponse(again.handleLine(tunes[i]));
    ASSERT_TRUE(okOf(replay));
    EXPECT_EQ(numOf(replay, "evaluations"), 0);
    EXPECT_EQ(strOf(replay, "params"), strOf(first[i], "params"));
    EXPECT_EQ(numOf(replay, "best_cycles"), numOf(first[i], "best_cycles"));
    EXPECT_EQ(numOf(replay, "default_cycles"),
              numOf(first[i], "default_cycles"));
  }
  std::remove(cachePath.c_str());
}

size_t threadCount() {
  size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task"))
    ++n;
  return n;
}

// At --jobs > 1 every combination borrows the daemon's one worker pool
// instead of starting jobs threads of its own.
TEST(Daemon, OneWorkerPoolForEveryCombination) {
  ServeConfig cfg = smokeServeConfig();
  cfg.orchestrator.search.jobs = 2;
  // A sanitizer runtime may start a helper thread along with the first
  // thread the process creates; let that happen before counting.
  std::thread([] {}).join();
  const size_t before = threadCount();
  Daemon d(cfg);
  for (const char* n : {"1024", "2048", "3000", "4096"})
    ASSERT_TRUE(okOf(parseResponse(d.handleLine(std::string("TUNE ddot n=") +
                                                n))))
        << n;
  auto stats = parseResponse(d.handleLine("STATS"));
  EXPECT_EQ(numOf(stats, "orchestrators"), 4);
  EXPECT_LE(threadCount(), before + 2);
}

// Cache problems reach the constructor's *error like wisdom warnings do,
// and never stop the daemon from tuning.
TEST(Daemon, ReportsCacheDamageAndOpenErrors) {
  const std::string damagedPath = tmpFile("serve_damaged.cache.jsonl");
  {
    std::ofstream out(damagedPath, std::ios::trunc);
    out << "this line is not json\n{\"also\":\"not a cache record\"}\n";
  }
  ServeConfig cfg = smokeServeConfig();
  cfg.orchestrator.cachePath = damagedPath;
  std::string error;
  {
    Daemon d(cfg, &error);
    EXPECT_NE(error.find("cache: skipped 2 damaged line(s) in " + damagedPath),
              std::string::npos)
        << error;
    EXPECT_TRUE(okOf(parseResponse(d.handleLine("TUNE ddot"))));
  }
  std::remove(damagedPath.c_str());

  cfg.orchestrator.cachePath = tmpFile("serve_no_such_dir/eval.cache.jsonl");
  Daemon d(cfg, &error);
  EXPECT_NE(error.find("cache: cannot open cache file"), std::string::npos)
      << error;
  EXPECT_TRUE(okOf(parseResponse(d.handleLine("TUNE ddot"))));
}

// IMPORT is the federation primitive: keep-best merge of a wisdom file
// into the live store, answering with what it adopted.
TEST(Daemon, ImportMergesKeepBestAndAnswersWarm) {
  const std::string peerPath = tmpFile("serve_import_peer.jsonl");
  std::remove(peerPath.c_str());
  std::string tunedParams;
  {
    // A "peer" daemon tunes one kernel and exports its store.
    Daemon peer(smokeServeConfig());
    auto tuned = parseResponse(peer.handleLine("TUNE scopy"));
    ASSERT_TRUE(okOf(tuned));
    tunedParams = strOf(tuned, "params");
    ASSERT_TRUE(okOf(parseResponse(peer.handleLine("EXPORT " + peerPath))));
  }

  Daemon d(smokeServeConfig());
  // A typo'd path must fail loudly — WisdomStore::load treats a missing
  // file as an empty store, which would silently adopt nothing.
  auto missing =
      parseResponse(d.handleLine("IMPORT " + tmpFile("serve_no_such.jsonl")));
  EXPECT_FALSE(okOf(missing));
  EXPECT_EQ(strOf(missing, "code"), "import_failed");

  auto imported = parseResponse(d.handleLine("IMPORT " + peerPath));
  ASSERT_TRUE(okOf(imported));
  EXPECT_EQ(numOf(imported, "loaded"), 1);
  EXPECT_EQ(numOf(imported, "adopted"), 1);
  EXPECT_EQ(numOf(imported, "records"), 1);

  // Importing the same file again adopts nothing (keep-best is idempotent).
  auto again = parseResponse(d.handleLine("IMPORT " + peerPath));
  ASSERT_TRUE(okOf(again));
  EXPECT_EQ(numOf(again, "adopted"), 0);

  // The adopted record answers queries without the evaluator.
  auto warm = parseResponse(d.handleLine("QUERY scopy"));
  ASSERT_TRUE(okOf(warm));
  EXPECT_EQ(strOf(warm, "match"), "exact");
  EXPECT_EQ(numOf(warm, "evaluations"), 0);
  EXPECT_EQ(strOf(warm, "params"), tunedParams);
  std::remove(peerPath.c_str());
}

// A quarantine-inducing kernel must cost a structured error, not the
// daemon: later requests — including wisdom hits for the same kernel —
// still answer.
TEST(Daemon, SurvivesQuarantinedTunes) {
  ServeConfig cfg = smokeServeConfig();
  std::string planError;
  // Spare the default evaluation so the search gets going, then crash
  // everything after it until the quarantine threshold trips.
  auto plan = search::FaultPlan::parse("crash@2+1", &planError);
  ASSERT_TRUE(plan.has_value()) << planError;
  cfg.orchestrator.faultPlan = *plan;
  cfg.orchestrator.search.maxEvalAttempts = 1;
  cfg.orchestrator.quarantineAfter = 2;

  // Pre-seed wisdom for ddot so the hit path has something to serve.
  const std::string wisdomPath = tmpFile("serve_faulted_wisdom.jsonl");
  {
    std::string source;
    for (const kernels::KernelSpec& spec : kernels::extendedKernels())
      if (spec.name() == "ddot") source = spec.hilSource();
    ASSERT_FALSE(source.empty());
    wisdom::WisdomRecord rec;
    rec.key = {hashHex(source), "P4E", "out-of-cache",
               wisdom::nClassFor(1024)};
    rec.kernel = "ddot";
    rec.params = "ur=4";
    rec.bestCycles = 1000;
    rec.defaultCycles = 2000;
    wisdom::WisdomStore seed;
    seed.record(rec);
    ASSERT_TRUE(seed.save(wisdomPath));
  }
  cfg.wisdomPath = wisdomPath;

  Daemon d(cfg);
  // Every evaluation crashes: the tune is quarantined, with a structured
  // error response.
  auto failed = parseResponse(d.handleLine("TUNE sasum"));
  EXPECT_FALSE(okOf(failed));
  EXPECT_EQ(strOf(failed, "code"), "quarantined");

  // The daemon is still serving: STATS answers and the pre-seeded wisdom
  // still hits without touching the (broken) evaluator.
  auto stats = parseResponse(d.handleLine("STATS"));
  EXPECT_TRUE(okOf(stats));
  EXPECT_EQ(numOf(stats, "errors"), 1);
  auto warm = parseResponse(d.handleLine("QUERY ddot"));
  ASSERT_TRUE(okOf(warm));
  EXPECT_EQ(strOf(warm, "match"), "exact");
  EXPECT_EQ(numOf(warm, "evaluations"), 0);
  EXPECT_EQ(strOf(warm, "params"), "ur=4");
  std::remove(wisdomPath.c_str());
}

TEST(DaemonSocket, UnixRoundTrip) {
  // Not TempDir: sun_path caps at ~107 bytes, /tmp is always short enough.
  const std::string path =
      "/tmp/ifko_serve_test_" + std::to_string(::getpid()) + ".sock";
  Daemon d(smokeServeConfig());
  std::string err;
  ASSERT_TRUE(d.listenUnix(path, &err)) << err;
  std::thread server([&d] { EXPECT_EQ(d.run(), 0); });

  Connection conn;
  ASSERT_TRUE(conn.connect({path, 0}, &err)) << err;
  auto resp = conn.roundTrip("STATS", &err);
  ASSERT_TRUE(resp.has_value()) << err;
  EXPECT_TRUE(okOf(parseResponse(*resp)));
  resp = conn.roundTrip("SHUTDOWN", &err);
  ASSERT_TRUE(resp.has_value()) << err;
  EXPECT_TRUE(okOf(parseResponse(*resp)));
  server.join();
}

TEST(DaemonSocket, TcpEphemeralPortRoundTrip) {
  Daemon d(smokeServeConfig());
  std::string err;
  ASSERT_TRUE(d.listenTcp(0, &err)) << err;
  ASSERT_GT(d.boundPort(), 0);
  std::thread server([&d] { EXPECT_EQ(d.run(), 0); });

  Request req;
  req.verb = Request::Verb::Stats;
  auto resp = requestOnce({"", d.boundPort()}, req, &err);
  ASSERT_TRUE(resp.has_value()) << err;
  EXPECT_TRUE(okOf(parseResponse(*resp)));

  Connection conn;
  ASSERT_TRUE(conn.connect({"", d.boundPort()}, &err)) << err;
  resp = conn.roundTrip("SHUTDOWN", &err);
  ASSERT_TRUE(resp.has_value()) << err;
  server.join();
}

// A client that connects and stalls mid-line must not park the serial
// accept loop: after the receive deadline it gets a structured timeout
// response, its connection drops, and the next client is served.
TEST(DaemonSocket, StalledClientTimesOutAndDaemonKeepsServing) {
  ServeConfig cfg = smokeServeConfig();
  cfg.recvTimeoutMs = 200;
  Daemon d(cfg);
  std::string err;
  ASSERT_TRUE(d.listenTcp(0, &err)) << err;
  std::thread server([&d] { EXPECT_EQ(d.run(), 0); });

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(d.boundPort()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::send(fd, "STA", 3, 0), 3);  // a line that never finishes

  std::string resp;
  char buf[512];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    resp.append(buf, static_cast<size_t>(n));
    if (resp.find('\n') != std::string::npos) break;
  }
  ::close(fd);
  auto timedOut = parseResponse(resp.substr(0, resp.find('\n')));
  EXPECT_FALSE(okOf(timedOut));
  EXPECT_EQ(strOf(timedOut, "code"), "timeout");

  // The accept loop survived; a well-behaved client still gets answers.
  Connection conn;
  ASSERT_TRUE(conn.connect({"", d.boundPort()}, &err)) << err;
  auto stats = conn.roundTrip("STATS", &err);
  ASSERT_TRUE(stats.has_value()) << err;
  EXPECT_TRUE(okOf(parseResponse(*stats)));
  auto down = conn.roundTrip("SHUTDOWN", &err);
  ASSERT_TRUE(down.has_value()) << err;
  server.join();
}

}  // namespace
}  // namespace ifko::serve
