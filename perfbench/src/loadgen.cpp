#include "loadgen.h"

#include <algorithm>
#include <condition_variable>
#include <map>
#include <mutex>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

namespace perfbench {

std::string requestLine(const LoadRequest& r) {
  return std::string(r.kind == "tune" ? "TUNE " : "QUERY ") + r.kernel +
         " arch=" + r.arch + " context=" + r.context +
         " n=" + std::to_string(r.n);
}

std::vector<int64_t> jitteredDue(size_t count, double ratePerSec,
                                 SplitMix64& rng) {
  std::vector<int64_t> due(count);
  for (size_t i = 0; i < count; ++i)
    due[i] = static_cast<int64_t>((static_cast<double>(i) + rng.nextDouble()) /
                                  ratePerSec * 1e9);
  return due;
}

namespace {

class PinToOneCpu {
 public:
  PinToOneCpu() {
#if defined(__linux__)
    const int cpu = sched_getcpu();
    if (cpu < 0 || sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
#endif
  }
  ~PinToOneCpu() {
#if defined(__linux__)
    if (pinned_) (void)sched_setaffinity(0, sizeof(saved_), &saved_);
#endif
  }
  PinToOneCpu(const PinToOneCpu&) = delete;
  PinToOneCpu& operator=(const PinToOneCpu&) = delete;

 private:
#if defined(__linux__)
  cpu_set_t saved_{};
#endif
  bool pinned_ = false;
};

}  // namespace

bool playOpenLoop(serve::Daemon& daemon, const serve::Endpoint& endpoint,
                  const std::vector<LoadRequest>& reqs,
                  std::vector<LoadResponse>* responses, std::string* error) {
  const PinToOneCpu pin;
  int serveRc = 0;
  std::string serveError;
  std::thread server([&] { serveRc = daemon.run(&serveError); });

  serve::Connection conn;
  bool ok = conn.connect(endpoint, error);
  responses->assign(reqs.size(), LoadResponse{});
  if (ok) {
    std::vector<std::string> lines;
    lines.reserve(reqs.size());
    for (const LoadRequest& r : reqs) lines.push_back(requestLine(r));
    const int64_t start = nowNs();
    auto send = [&](size_t i, int64_t dueNs) {
      (*responses)[i].dueNs = dueNs;
      (*responses)[i].sendNs = nowNs() - start;
      return conn.sendLine(lines[i]);
    };
    // One connection carries the requests in order.  The sender thread
    // sends each burst's first request at its due time; this thread sends
    // a chained request the moment the answer before it arrives.
    std::mutex mu;
    std::condition_variable changed;
    size_t sent = 0;      // requests sent: all below this index
    size_t answered = 0;  // responses read: all below this index
    bool stop = false;
    std::thread sender([&] {
      for (size_t i = 0; i < reqs.size(); ++i) {
        if (reqs[i].chained) continue;
        const int64_t due = start + reqs[i].dueNs;
        // While a request is outstanding the daemon has the one CPU; once
        // all are answered, spin to the due time, so neither the host's
        // timer latency nor a cold, idle CPU is charged to the request.
        std::unique_lock<std::mutex> lock(mu);
        changed.wait(lock, [&] { return stop || sent == i; });
        changed.wait_until(lock,
                           Clock::time_point(std::chrono::nanoseconds(due)),
                           [&] { return stop || answered == i; });
        if (stop) return;
        lock.unlock();
        while (nowNs() < due) {
        }
        const bool sendOk = send(i, reqs[i].dueNs);
        lock.lock();
        // This thread's own chained successor may already be out.
        sent = std::max(sent, i + 1);
        if (!sendOk) {
          stop = true;
          return;
        }
      }
    });
    for (size_t i = 0; i < reqs.size() && ok; ++i) {
      std::optional<std::string> line = conn.recvLine(error);
      if (!line.has_value()) {
        ok = false;
        break;
      }
      const int64_t recvNs = nowNs() - start;
      (*responses)[i].recvNs = recvNs;
      (*responses)[i].line = std::move(*line);
      const bool chain = i + 1 < reqs.size() && reqs[i + 1].chained;
      if (chain) ok = send(i + 1, recvNs);
      {
        const std::lock_guard<std::mutex> lock(mu);
        answered = i + 1;
        if (chain) sent = i + 2;
        ok = ok && !stop;
      }
      changed.notify_one();
    }
    {
      const std::lock_guard<std::mutex> lock(mu);
      stop = true;
    }
    changed.notify_one();
    sender.join();
    if (!conn.roundTrip("SHUTDOWN").has_value()) ok = false;
  }
  if (!daemon.shutdownRequested()) {
    // The connection failed: stop the accept loop over a fresh one.
    (void)serve::requestOnce(endpoint, serve::Request{serve::Request::Verb::Shutdown});
  }
  server.join();
  if (serveRc != 0) {
    if (error != nullptr) *error = serveError;
    return false;
  }
  return ok;
}

Answer parseAnswer(const std::string& line) {
  Answer a;
  std::map<std::string, JsonValue> obj;
  if (!parseJsonObject(line, &obj)) return a;
  auto get = [&](const char* key) -> const JsonValue* {
    auto it = obj.find(key);
    return it == obj.end() ? nullptr : &it->second;
  };
  if (const JsonValue* v = get("ok")) a.ok = v->boolean;
  if (const JsonValue* v = get("match")) a.match = v->string;
  if (const JsonValue* v = get("params")) a.params = v->string;
  if (const JsonValue* v = get("best_cycles")) a.bestCycles = v->asUint();
  if (const JsonValue* v = get("default_cycles")) a.defaultCycles = v->asUint();
  if (const JsonValue* v = get("evaluations")) a.evaluations = v->asInt();
  return a;
}

void emitRequests(Sink& sink, const std::string& phase,
                  const std::vector<LoadRequest>& reqs,
                  const std::vector<LoadResponse>& responses,
                  const std::vector<char>& referenceOk) {
  for (size_t i = 0; i < reqs.size(); ++i) {
    const LoadRequest& r = reqs[i];
    const LoadResponse& resp = responses[i];
    const Answer a = parseAnswer(resp.line);
    JsonWriter w;
    w.field("type", "request")
        .field("phase", phase)
        .field("kind", r.kind)
        .field("kernel", r.kernel)
        .field("arch", r.arch)
        .field("context", r.context)
        .field("n", r.n)
        .field("due_ns", resp.dueNs)
        .field("send_ns", resp.sendNs)
        .field("recv_ns", resp.recvNs)
        .field("answered", !resp.line.empty())
        .field("ok", a.ok)
        .field("match", a.match)
        .field("params", a.params)
        .field("best_cycles", a.bestCycles)
        .field("default_cycles", a.defaultCycles)
        .field("evaluations", a.evaluations);
    if (i < referenceOk.size()) w.field("reference_ok", referenceOk[i] != 0);
    sink.emit(w);
  }
}

}  // namespace perfbench
