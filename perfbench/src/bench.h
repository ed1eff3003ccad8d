// perfbench: the repo benchmark's driver process.
//
// It runs one workload through the public APIs (search::Orchestrator,
// serve::Daemon and the serve client) and writes raw observations as JSON
// lines to a file; perfbench/run.py turns them into metrics and checks
// them against perfbench/expected/.  Times are written as integer
// nanoseconds so no digit is lost on the way.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "arch/machine.h"
#include "search/orchestrator.h"
#include "support/json.h"
#include "support/rng.h"

namespace perfbench {

using namespace ifko;
using Clock = std::chrono::steady_clock;

/// Nanoseconds on the monotonic clock (the same clock Python's
/// time.monotonic_ns() reads, so run.py can time process start to set-up).
[[nodiscard]] int64_t nowNs();
/// Process CPU time over all threads, in nanoseconds.
[[nodiscard]] int64_t cpuNs();
/// Peak resident set size of this process, in KiB.
[[nodiscard]] int64_t peakRssKb();

/// Appends one JSON object per line to the raw output file.
class Sink {
 public:
  explicit Sink(const std::string& path);
  ~Sink();
  Sink(const Sink&) = delete;
  Sink& operator=(const Sink&) = delete;
  [[nodiscard]] bool ok() const { return f_ != nullptr; }
  void emit(const ifko::JsonWriter& w);

 private:
  std::FILE* f_ = nullptr;
};

/// In-memory span recorder for the traced run: name, start, end, parent
/// and a per-kernel or per-request id.  Written out once, at exit.
class Spans {
 public:
  struct Span {
    std::string name;
    std::string id;
    int64_t startNs = 0;
    int64_t endNs = 0;
    int parent = -1;
  };
  /// Opens a span under the innermost open one; returns its index.
  int open(const std::string& name, const std::string& id);
  void close(int index);
  /// Records an already finished span under the innermost open one.
  void add(const std::string& name, const std::string& id, int64_t startNs,
           int64_t endNs);
  /// One JSON line per span, with its self time (duration minus the part
  /// covered by child spans).
  bool write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span: open on construction, close on destruction.
class Scope {
 public:
  Scope(Spans& spans, const std::string& name, const std::string& id)
      : spans_(spans), index_(spans.open(name, id)) {}
  ~Scope() { spans_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans& spans_;
  int index_;
};

struct Args {
  std::string mode;      ///< "run" | "setup" | "record"
  std::string workload;  ///< inl2_jobs1 | serve_mixed
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out;  ///< raw JSON-lines output file
  std::string tmp;  ///< scratch directory (wisdom, caches, sockets)
};

/// One tuning context: the machine, the search scale and the pool width.
struct TuneSetting {
  arch::MachineConfig machine;
  search::SearchConfig search;
};

/// inl2_jobs1's fixed scale (see perfbench/README.md).
[[nodiscard]] TuneSetting inl2Jobs1();
/// serve_mixed's daemon template: smoke grids, in-L2, jobs=1, N=kServeN.
[[nodiscard]] search::SearchConfig serveSearch();
inline constexpr int64_t kServeN = 1024;

/// The 14 registry kernels as jobs, in registry order.
[[nodiscard]] std::vector<search::KernelJob> registryJobs();
int runTuneWorkload(const Args& args, const TuneSetting& setting);
int runServeWorkload(const Args& args);
/// Prints the serial expected results of a workload as JSON lines.
int recordExpected(const std::string& workload);

}  // namespace perfbench
