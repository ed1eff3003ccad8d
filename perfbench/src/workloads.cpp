// The workloads (see perfbench/README.md for why each exists).
#include <algorithm>
#include <filesystem>
#include <functional>
#include <memory>
#include <set>
#include <tuple>

#include "bench.h"
#include "fko/compiler.h"
#include "kernels/registry.h"
#include "kernels/tester.h"
#include "loadgen.h"
#include "replay.h"
#include "serve/daemon.h"
#include "support/hash.h"
#include "wisdom/harvest.h"

namespace perfbench {

namespace {

/// Worker threads of the pool batch that closes every tune-workload run
/// (see poolBatch).
constexpr int kPoolJobs = 4;
/// Exact QUERYs the tune workloads time over a run (see Lookups).
constexpr size_t kLookups = 20000;
/// Batches a tune workload starts in its first this many seconds are
/// warm-up: written and checked, but not timed into the metrics, so caches
/// fill and lazy set-up finishes first.
constexpr double kWarmupSeconds = 2.0;
/// serve_mixed's open loop: requests per second and the TUNE share.  At
/// this rate the daemon is busy well under a third of the time, so no
/// backlog builds up.
constexpr double kServeRate = 100.0;
constexpr size_t kTuneEvery = 20;
/// serve_mixed's QUERYs come in bursts of this many from one client, each
/// sent as the answer before it arrives: the median QUERY follows the warm
/// path, not the host's cache state after an idle gap.
constexpr size_t kBurst = 8;
/// Share of serve_mixed QUERYs at an N two classes below the set-up class,
/// answered from the near-N wisdom tier.
constexpr double kNearShare = 0.2;
/// In-process QUERYs and TUNEs a traced run times through
/// Daemon::handleLine.
constexpr size_t kHandleQueries = 400;
constexpr size_t kHandleTunes = 8;

const char* const kArchs[] = {"p4e", "opteron"};

std::string archArg(const arch::MachineConfig& m) {
  return m.name == arch::opteron().name ? "opteron" : "p4e";
}

std::string contextArg(sim::TimeContext ctx) {
  return ctx == sim::TimeContext::InL2 ? "inl2" : "ooc";
}

const kernels::KernelSpec& specNamed(const std::string& name) {
  for (const kernels::KernelSpec& k : kernels::allKernels())
    if (k.name() == name) return k;
  return kernels::allKernels().front();
}

void emitSetupDone(Sink& sink) {
  JsonWriter w;
  w.field("type", "setup").field("done_ns", nowNs());
  sink.emit(w);
}

void emitEnd(Sink& sink) {
  JsonWriter w;
  w.field("type", "end").field("peak_rss_kb", peakRssKb());
  sink.emit(w);
}

int fail(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  return 1;
}

/// `jobs` in a seeded Fisher-Yates order.
std::vector<search::KernelJob> permuted(std::vector<search::KernelJob> jobs,
                                        SplitMix64& rng) {
  for (size_t i = jobs.size(); i > 1; --i)
    std::swap(jobs[i - 1], jobs[rng.below(i)]);
  return jobs;
}

/// Compiles `params` for `spec` and re-verifies the result against the
/// hand-written reference (kernels::testKernel).
bool referenceCheck(const kernels::KernelSpec& spec,
                    const arch::MachineConfig& machine,
                    const std::string& params) {
  const opt::TuningSpec parsed = opt::parseTuningSpec(params);
  if (!parsed.ok) return false;
  fko::CompileOptions opts;
  opts.tuning = parsed.params;
  const fko::CompileResult compiled =
      fko::compileKernel(spec.hilSource(), opts, machine);
  return compiled.ok && kernels::testKernel(spec, compiled.fn, 256).ok;
}

/// Writes a batch's "batch" line and one "kernel" line per kernel, with
/// each winner re-verified against the reference.
void emitBatch(Sink& sink, const TuneSetting& setting, const char* phase,
               int index, int64_t wallNs, int64_t cpuNs,
               const std::vector<search::KernelOutcome>& kernels) {
  int evaluations = 0, proposals = 0;
  for (const search::KernelOutcome& k : kernels) {
    evaluations += k.result.evaluations;
    proposals += k.result.proposals;
    const std::string params = opt::formatTuningSpec(k.result.best);
    JsonWriter w;
    w.field("type", "kernel")
        .field("batch", index)
        .field("kernel", k.name)
        .field("machine", setting.machine.name)
        .field("context",
               std::string(sim::contextName(setting.search.context)))
        .field("n", setting.search.n)
        .field("ok", k.result.ok)
        .field("quarantined", k.quarantined)
        .field("params", params)
        .field("best_cycles", k.result.bestCycles)
        .field("default_cycles", k.result.defaultCycles)
        .field("wall_ns", static_cast<int64_t>(k.seconds * 1e9))
        .field("reference_ok",
               k.result.ok && referenceCheck(specNamed(k.name),
                                             setting.machine, params));
    sink.emit(w);
  }
  JsonWriter w;
  w.field("type", "batch")
      .field("phase", phase)
      .field("batch", index)
      .field("wall_ns", wallNs)
      .field("cpu_ns", cpuNs)
      .field("evaluations", evaluations)
      .field("proposals", proposals)
      .field("peak_rss_kb", peakRssKb());
  sink.emit(w);
}

/// Runs one tuneAll batch and writes it (emitBatch) once the clock stops.
/// `betweenKernels` (may be empty) runs after each kernel; its time is
/// taken out of the batch's.
search::BatchOutcome timedBatch(search::Orchestrator& orch,
                                const TuneSetting& setting,
                                const std::vector<search::KernelJob>& jobs,
                                const char* phase, int index, Sink& sink,
                                const std::function<void()>& betweenKernels) {
  const int64_t wall0 = nowNs();
  const int64_t cpu0 = cpuNs();
  int64_t asideWall = 0, asideCpu = 0;
  search::BatchOutcome batch =
      orch.tuneAll(jobs, [&](const search::KernelOutcome&) {
        if (!betweenKernels) return;
        const int64_t w = nowNs();
        const int64_t c = cpuNs();
        betweenKernels();
        asideWall += nowNs() - w;
        asideCpu += cpuNs() - c;
      });
  const int64_t wall = nowNs() - wall0 - asideWall;
  const int64_t cpu = cpuNs() - cpu0 - asideCpu;
  emitBatch(sink, setting, phase, index, wall, cpu, batch.kernels);
  return batch;
}

/// One tuneAll batch at kPoolJobs worker threads on a fresh orchestrator,
/// written as phase "pool".  Its winners are checked like every batch's,
/// which holds --jobs invariance; its time is no end-to-end sample (with
/// as many workers as the host has cores, wall time follows the host's
/// scheduling), and the traced run reports the pool's scaling from it.
void poolBatch(const TuneSetting& setting,
               const std::vector<search::KernelJob>& jobs, int index,
               SplitMix64& rng, Sink& sink) {
  TuneSetting pooled = setting;
  pooled.search.jobs = kPoolJobs;
  search::OrchestratorConfig oc;
  oc.search = pooled.search;
  search::Orchestrator orch(pooled.machine, oc);
  (void)timedBatch(orch, pooled, permuted(jobs, rng), "pool", index, sink,
                   {});
}

/// Wisdom records of a batch's winners (attribution from `orch`'s cache).
std::vector<wisdom::WisdomRecord> harvest(
    const TuneSetting& setting,
    const std::vector<search::KernelOutcome>& kernels,
    search::Orchestrator& orch) {
  std::vector<wisdom::WisdomRecord> records;
  for (const search::KernelOutcome& k : kernels) {
    if (!k.result.ok) continue;
    wisdom::WisdomKey key;
    key.sourceHash = hashHex(specNamed(k.name).hilSource());
    key.machine = setting.machine.name;
    key.context = std::string(sim::contextName(setting.search.context));
    key.nClass = wisdom::nClassFor(setting.search.n);
    records.push_back(wisdom::harvestRecord(key, k.name, "perfbench",
                                            k.result, setting.search,
                                            &orch.cache()));
  }
  return records;
}

/// The tune workloads also serve what they tune: a daemon loads a batch's
/// winners from a wisdom file and answers exact QUERYs through
/// Daemon::handleLine in-process, each one timed.  There is no socket: at
/// a few microseconds per answer a round trip would mostly time the
/// host's scheduler, and serve_mixed covers the wire.
class Lookups {
 public:
  Lookups(const Args& args, const TuneSetting& setting,
          const std::vector<wisdom::WisdomRecord>& records)
      : setting_(setting), start_(nowNs()) {
    wisdom::WisdomStore store;
    for (const wisdom::WisdomRecord& rec : records) (void)store.record(rec);
    serve::ServeConfig sc;
    sc.orchestrator.search = setting.search;
    sc.wisdomPath = args.tmp + "/lookup.wisdom.jsonl";
    sc.runId = "perfbench";
    std::string error;
    if (!store.save(sc.wisdomPath, &error))
      std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    daemon_ = std::make_unique<serve::Daemon>(sc, &error);
  }

  /// Times `count` QUERYs for seeded kernels (a span each with `spans`),
  /// then writes them as "request" lines.
  void run(size_t count, SplitMix64& rng, Sink& sink, Spans* spans) {
    const std::vector<kernels::KernelSpec>& all = kernels::allKernels();
    std::vector<LoadRequest> reqs;
    std::vector<LoadResponse> responses;
    for (size_t i = 0; i < count; ++i) {
      LoadRequest r;
      r.kind = "exact";
      r.kernel = all[rng.below(all.size())].name();
      r.arch = archArg(setting_.machine);
      r.context = contextArg(setting_.search.context);
      r.n = setting_.search.n;
      const std::string line = requestLine(r);
      LoadResponse resp;
      const int64_t t0 = nowNs();
      resp.line = daemon_->handleLine(line);
      const int64_t t1 = nowNs();
      r.dueNs = resp.dueNs = resp.sendNs = t0 - start_;
      resp.recvNs = t1 - start_;
      if (spans != nullptr) spans->add("serve.handle_query", r.kernel, t0, t1);
      reqs.push_back(std::move(r));
      responses.push_back(std::move(resp));
    }
    emitRequests(sink, "lookup", reqs, responses, {});
  }

 private:
  const TuneSetting& setting_;
  int64_t start_;
  std::unique_ptr<serve::Daemon> daemon_;
};

}  // namespace

int runTuneWorkload(const Args& args, const TuneSetting& setting) {
  Sink sink(args.out);
  if (!sink.ok()) return fail("cannot write " + args.out);
  SplitMix64 rng(args.seed);
  const std::vector<search::KernelJob> jobs = registryJobs();
  search::OrchestratorConfig oc;
  oc.search = setting.search;
  auto orch = std::make_unique<search::Orchestrator>(setting.machine, oc);
  emitSetupDone(sink);
  if (args.mode == "setup") return 0;

  const int64_t start = nowNs();
  if (!args.trace) {
    // Back-to-back batches, each on a fresh orchestrator: its in-memory
    // evaluation cache would otherwise answer every later batch.  From the
    // second batch on, a chunk of lookups of the first batch's winners
    // runs after every kernel, so the lookups sample the whole run rather
    // than one short burst at the host's mercy.
    search::BatchOutcome last;
    std::unique_ptr<Lookups> lookups;
    size_t chunk = 0;
    bool measured = false;
    int b = 0;
    for (;; ++b) {
      if (b == 1) {
        lookups = std::make_unique<Lookups>(
            args, setting, harvest(setting, last.kernels, *orch));
        // Spread kLookups over the kernels of the batches still to come.
        const double left =
            args.seconds - static_cast<double>(nowNs() - start) / 1e9;
        const double batchesLeft = std::max(1.0, left / last.wallSeconds);
        chunk = std::max<size_t>(
            1, static_cast<size_t>(static_cast<double>(kLookups) /
                                   (batchesLeft * jobs.size())));
      }
      if (b > 0)
        orch = std::make_unique<search::Orchestrator>(setting.machine, oc);
      std::function<void()> between;
      if (lookups != nullptr)
        between = [&] { lookups->run(chunk, rng, sink, nullptr); };
      const bool warmup =
          static_cast<double>(nowNs() - start) / 1e9 < kWarmupSeconds;
      last = timedBatch(*orch, setting, permuted(jobs, rng),
                        warmup ? "warmup" : "measure", b, sink, between);
      measured = measured || !warmup;
      if (measured &&
          static_cast<double>(nowNs() - start) / 1e9 >= args.seconds)
        break;
    }
    if (lookups == nullptr) {  // one batch filled the run: serve it after
      lookups = std::make_unique<Lookups>(
          args, setting, harvest(setting, last.kernels, *orch));
      lookups->run(kLookups, rng, sink, nullptr);
    }
    poolBatch(setting, jobs, b + 1, rng, sink);
    emitEnd(sink);
    return 0;
  }

  // Traced run, kernel by kernel: an untraced tune (the overhead
  // baseline), a tune with the orchestrator's JSONL trace on, and the
  // layer replay of what that trace recorded, back to back so all three
  // run under the same host conditions.
  Spans spans;
  search::OrchestratorConfig traced = oc;
  traced.tracePath = args.tmp + "/tune.trace.jsonl";
  auto tracedOrch =
      std::make_unique<search::Orchestrator>(setting.machine, traced);
  Replay replay(setting.search, spans);
  std::vector<search::KernelOutcome> plain, withTrace;
  int64_t plainWall = 0, plainCpu = 0, tracedWall = 0, tracedCpu = 0;
  for (const search::KernelJob& job : permuted(jobs, rng)) {
    int64_t wall0 = nowNs(), cpu0 = cpuNs();
    plain.push_back(orch->tune(job));
    plainWall += nowNs() - wall0;
    plainCpu += cpuNs() - cpu0;
    wall0 = nowNs();
    cpu0 = cpuNs();
    {
      Scope s(spans, "search.kernel", job.name);
      withTrace.push_back(tracedOrch->tune(job));
    }
    tracedWall += nowNs() - wall0;
    tracedCpu += cpuNs() - cpu0;
    std::string error;
    const std::vector<TraceGroup> groups = readTrace(traced.tracePath, &error);
    if (groups.size() != withTrace.size())
      return fail("trace replay: " + error);
    replay.group(groups.back());
  }
  emitBatch(sink, setting, "untraced", 0, plainWall, plainCpu, plain);
  emitBatch(sink, setting, "traced", 1, tracedWall, tracedCpu, withTrace);
  poolBatch(setting, jobs, 2, rng, sink);
  const uint64_t mismatches = replay.emit(sink);
  const std::vector<wisdom::WisdomRecord> records =
      harvest(setting, withTrace, *tracedOrch);
  Lookups lookups(args, setting, records);
  lookups.run(kHandleQueries, rng, sink, &spans);
  replay.timeStores(records, args.tmp, sink);
  emitEnd(sink);
  if (!spans.write(args.out + ".spans.jsonl"))
    return fail("cannot write spans");
  return mismatches == 0 ? 0 : 1;
}

namespace {

struct SeedAnswer {
  std::string kernel;
  std::string arch;
  Answer answer;
};

/// serve_mixed's set-up: a daemon with an eval-cache file and a wisdom file
/// in `dir`, seeded by TUNEs of the 14 kernels on both machines at the
/// set-up key (in-L2, N=kServeN), then bound to a Unix socket.  Each pass
/// over one machine writes a "seed_pass" line.
std::unique_ptr<serve::Daemon> setUpServe(const std::string& dir, bool traced,
                                          const char* phase, Sink& sink,
                                          Spans* spans,
                                          std::vector<SeedAnswer>* answers) {
  std::filesystem::create_directories(dir);
  serve::ServeConfig cfg;
  cfg.orchestrator.search = serveSearch();
  cfg.orchestrator.cachePath = dir + "/eval.cache.jsonl";
  if (traced) cfg.orchestrator.tracePath = dir + "/serve.trace.jsonl";
  cfg.wisdomPath = dir + "/wisdom.jsonl";
  cfg.runId = "perfbench";
  std::string error;
  auto daemon = std::make_unique<serve::Daemon>(cfg, &error);
  for (const char* archName : kArchs) {
    const int64_t wall0 = nowNs();
    const int64_t cpu0 = cpuNs();
    int64_t evaluations = 0;
    for (const kernels::KernelSpec& k : kernels::allKernels()) {
      const std::string line = "TUNE " + k.name() + " arch=" + archName +
                               " context=inl2 n=" + std::to_string(kServeN);
      const int64_t t0 = nowNs();
      const std::string resp = daemon->handleLine(line);
      if (spans != nullptr)
        spans->add("search.kernel", k.name() + "/" + archName, t0, nowNs());
      SeedAnswer a{k.name(), archName, parseAnswer(resp)};
      evaluations += std::max<int64_t>(0, a.answer.evaluations);
      answers->push_back(std::move(a));
    }
    JsonWriter w;
    w.field("type", "seed_pass")
        .field("phase", phase)
        .field("arch", archName)
        .field("wall_ns", nowNs() - wall0)
        .field("cpu_ns", cpuNs() - cpu0)
        .field("evaluations", evaluations)
        .field("peak_rss_kb", peakRssKb());
    sink.emit(w);
  }
  if (!daemon->listenUnix(dir + "/d.sock", &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return nullptr;
  }
  return daemon;
}

void emitSeedAnswers(Sink& sink, const std::vector<SeedAnswer>& answers) {
  for (const SeedAnswer& s : answers) {
    const arch::MachineConfig machine =
        s.arch == "opteron" ? arch::opteron() : arch::p4e();
    JsonWriter w;
    w.field("type", "seed_tune")
        .field("kernel", s.kernel)
        .field("machine", machine.name)
        .field("context",
               std::string(sim::contextName(sim::TimeContext::InL2)))
        .field("n", kServeN)
        .field("ok", s.answer.ok)
        .field("match", s.answer.match)
        .field("params", s.answer.params)
        .field("best_cycles", s.answer.bestCycles)
        .field("default_cycles", s.answer.defaultCycles)
        .field("evaluations", s.answer.evaluations)
        .field("reference_ok",
               s.answer.ok && referenceCheck(specNamed(s.kernel), machine,
                                             s.answer.params));
    sink.emit(w);
  }
}

using KeySet = std::set<std::tuple<std::string, std::string, int64_t>>;

/// A TUNE on a fresh key: `kernel` on `arch` at a size from
/// (kServeN, 2*kServeN] not used before in this run for that pair.
LoadRequest freshTune(const std::string& kernel, const std::string& arch,
                      SplitMix64& rng, KeySet* used) {
  LoadRequest r;
  r.kind = "tune";
  r.kernel = kernel;
  r.arch = arch;
  r.context = "inl2";
  do {
    r.n = kServeN + 1 + static_cast<int64_t>(rng.below(kServeN));
  } while (!used->insert({r.kernel, r.arch, r.n}).second);
  return r;
}

/// Every (kernel, machine) pair once, in seeded order.
std::vector<std::pair<std::string, std::string>> shuffledPairs(
    SplitMix64& rng) {
  std::vector<std::pair<std::string, std::string>> pairs;
  for (const kernels::KernelSpec& k : kernels::allKernels())
    for (const char* a : kArchs) pairs.emplace_back(k.name(), a);
  for (size_t i = pairs.size(); i > 1; --i)
    std::swap(pairs[i - 1], pairs[rng.below(i)]);
  return pairs;
}

/// serve_mixed's seeded schedule: a fixed rate with jittered arrivals;
/// every kTuneEvery-th request is a TUNE on a distinct fresh key, spaced
/// so one TUNE has drained before the next arrives, and dealt from
/// shuffled rounds of every (kernel, machine) pair, so each seed tunes the
/// same mix of kernels and TUNE latency depends on the seed only through
/// order and sizes; the rest are QUERYs on the set-up keys (a kNearShare
/// of them at an N two classes below, so the near-N tier answers), in
/// bursts of kBurst: a burst's first QUERY is due at its own arrival time,
/// the others are chained.  Fresh TUNE sizes lie one class above the
/// set-up class, so their keep-best records never replace the set-up
/// records the QUERYs are checked against, and the near-N QUERYs still
/// resolve to the set-up class (two classes away versus three).
std::vector<LoadRequest> serveSchedule(size_t count, SplitMix64& rng,
                                       KeySet* used) {
  const std::vector<kernels::KernelSpec>& all = kernels::allKernels();
  const std::vector<int64_t> due = jitteredDue(count, kServeRate, rng);
  std::vector<LoadRequest> reqs;
  std::vector<std::pair<std::string, std::string>> deck;
  for (size_t i = 0; i < count; ++i) {
    LoadRequest r;
    if (i % kTuneEvery == kTuneEvery - 1) {
      if (deck.empty()) deck = shuffledPairs(rng);
      r = freshTune(deck.back().first, deck.back().second, rng, used);
      deck.pop_back();
    } else {
      r.kernel = all[rng.below(all.size())].name();
      r.arch = kArchs[rng.below(2)];
      r.context = "inl2";
      const bool near = rng.nextDouble() < kNearShare;
      r.kind = near ? "near" : "exact";
      const int64_t top = near ? kServeN / 4 : kServeN;
      r.n = top / 2 + 1 + static_cast<int64_t>(rng.below(top / 2));
      r.chained = i % kTuneEvery % kBurst != 0;
    }
    r.dueNs = due[i];
    reqs.push_back(std::move(r));
  }
  return reqs;
}

}  // namespace

int runServeWorkload(const Args& args) {
  Sink sink(args.out);
  if (!sink.ok()) return fail("cannot write " + args.out);
  SplitMix64 rng(args.seed);
  Spans spans;
  Spans* sp = args.trace ? &spans : nullptr;
  std::vector<SeedAnswer> answers;
  const std::string dir = args.tmp + "/serve";
  std::unique_ptr<serve::Daemon> daemon =
      setUpServe(dir, args.trace, args.trace ? "traced" : "measure", sink, sp,
                 &answers);
  if (daemon == nullptr) return fail("serve set-up failed");
  emitSetupDone(sink);
  if (args.mode == "setup") return 0;
  emitSeedAnswers(sink, answers);
  Replay replay(serveSearch(), spans);
  if (args.trace) {
    // The overhead baseline (the same set-up with the trace off), then the
    // replay of the traced set-up's TUNEs, close in time to both.
    std::vector<SeedAnswer> untracedAnswers;
    if (setUpServe(args.tmp + "/serve-untraced", false, "untraced", sink,
                   nullptr, &untracedAnswers) == nullptr)
      return fail("serve set-up failed");
    std::string error;
    const std::vector<TraceGroup> groups =
        readTrace(dir + "/serve.trace.jsonl", &error);
    if (groups.size() != answers.size()) return fail("trace replay: " + error);
    for (const TraceGroup& g : groups) replay.group(g);
  }

  KeySet used;
  const std::vector<LoadRequest> reqs = serveSchedule(
      static_cast<size_t>(kServeRate * args.seconds), rng, &used);
  serve::Endpoint endpoint;
  endpoint.unixPath = dir + "/d.sock";
  std::vector<LoadResponse> responses;
  std::string error;
  const bool ok = playOpenLoop(*daemon, endpoint, reqs, &responses, &error);
  if (!ok) std::fprintf(stderr, "perfbench: serve phase: %s\n", error.c_str());
  std::vector<char> referenceOk(reqs.size(), 1);
  for (size_t i = 0; i < reqs.size(); ++i)
    if (reqs[i].kind == "tune") {
      const Answer a = parseAnswer(responses[i].line);
      referenceOk[i] = a.ok && referenceCheck(specNamed(reqs[i].kernel),
                                              reqs[i].arch == "opteron"
                                                  ? arch::opteron()
                                                  : arch::p4e(),
                                              a.params);
    }
  emitRequests(sink, "serve", reqs, responses, referenceOk);

  uint64_t mismatches = 0;
  if (args.trace) {
    // In-process handle times on the same daemon (its accept loop has
    // stopped; handleLine is the whole state machine).
    for (size_t i = 0; i < reqs.size() && i < kHandleQueries; ++i)
      if (reqs[i].kind != "tune") {
        Scope s(spans, "serve.handle_query", reqs[i].kernel);
        (void)daemon->handleLine(requestLine(reqs[i]));
      }
    const std::vector<std::pair<std::string, std::string>> pairs =
        shuffledPairs(rng);
    for (size_t i = 0; i < kHandleTunes; ++i) {
      const LoadRequest r =
          freshTune(pairs[i].first, pairs[i].second, rng, &used);
      Scope s(spans, "serve.handle_tune", r.kernel);
      (void)daemon->handleLine(requestLine(r));
    }
    mismatches = replay.emit(sink);
    std::vector<wisdom::WisdomRecord> records;
    for (const wisdom::WisdomRecord* rec : daemon->store().records())
      records.push_back(*rec);
    replay.timeStores(records, dir, sink);
    if (!spans.write(args.out + ".spans.jsonl"))
      return fail("cannot write spans");
  }
  emitEnd(sink);
  return ok && mismatches == 0 ? 0 : 1;
}

int recordExpected(const std::string& workload) {
  std::vector<TuneSetting> settings;
  if (workload == "inl2_jobs1") {
    settings.push_back(inl2Jobs1());
  } else if (workload == "serve_mixed") {
    settings.push_back({arch::p4e(), serveSearch()});
    settings.push_back({arch::opteron(), serveSearch()});
  } else {
    return fail("unknown workload " + workload);
  }
  for (TuneSetting& s : settings) {
    s.search.jobs = 1;  // recorded serially; pool batches must match
    search::OrchestratorConfig oc;
    oc.search = s.search;
    search::Orchestrator orch(s.machine, oc);
    for (const search::KernelOutcome& k : orch.tuneAll(registryJobs()).kernels) {
      if (!k.result.ok) return fail("record: " + k.name + ": " + k.result.error);
      JsonWriter w;
      w.field("kernel", k.name)
          .field("machine", s.machine.name)
          .field("context", std::string(sim::contextName(s.search.context)))
          .field("n", s.search.n)
          .field("params", opt::formatTuningSpec(k.result.best))
          .field("best_cycles", k.result.bestCycles)
          .field("default_cycles", k.result.defaultCycles);
      std::printf("%s\n", w.str().c_str());
    }
  }
  return 0;
}

}  // namespace perfbench
