// Tuning-as-a-service: the long-lived `ifko serve` daemon.
//
// One-shot tuning re-lowers, re-searches, and exits; the daemon inverts
// that posture.  It holds the hot state in memory across requests — the
// wisdom store (wisdom/wisdom.h) and one evaluation cache — so "give me
// the tuned kernel" is a wisdom lookup that never touches the evaluator,
// and a full empirical search runs only on the cache-miss path.  Misses
// tune through the wisdom front door (wisdom::tune, the call `ifko tune`
// and `tune-all` make) on the ordinary fault-isolated orchestrator
// (deadline, retry, quarantine), so a crashing or hanging kernel scores a structured error
// response and the daemon keeps serving.
//
// Memory model: the daemon opens its eval cache once, at construction, and
// creates at most one worker pool (--jobs > 1).  It lends both to a thin
// orchestrator per requested (arch, context, n) combination, which keeps
// only its trace stream, fault-injection counts and quarantine records.
// A repeat candidate is a hit in the one shared cache whichever
// combination asks, so no per-combination state grows with the cache.
//
// The request surface is serve/protocol.h (QUERY/TUNE/EXPLAIN/EXPORT/
// IMPORT/STATS/SHUTDOWN), carried over a Unix-domain or loopback TCP
// socket, one request line per response line.  Requests are handled
// serially on the accept loop — candidate-level parallelism inside a tune
// (--jobs) is where the cores go, and serial request handling keeps every
// response deterministic.  handleLine() is the whole state machine; the
// socket layer only moves lines, which is what makes the daemon testable
// without a socket.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "search/orchestrator.h"
#include "serve/protocol.h"
#include "wisdom/wisdom.h"

namespace ifko::serve {

struct ServeConfig {
  /// Template for the tune-on-miss path: search scale (n, context, smoke
  /// grids), jobs, cache/trace paths, strategy, budget, fault policy.  The
  /// daemon opens the cache it names once and clones the rest per
  /// requested (arch, context, n) combination.
  search::OrchestratorConfig orchestrator;
  std::string defaultArch = "p4e";  ///< when a request names no arch
  /// Wisdom file: loaded at startup, re-saved after every new record and
  /// on SHUTDOWN; also the default EXPORT target.  "" = in-memory only.
  std::string wisdomPath;
  /// Directory of extra *.hil kernels to serve by file stem; entries
  /// override registry kernels of the same name.  "" = registry only.
  std::string kernelsDir;
  std::string runId = "serve";  ///< provenance stamped into wisdom records
  /// Per-connection receive deadline (SO_RCVTIMEO), in milliseconds.  A
  /// client that connects and then stalls mid-line would otherwise park
  /// the serial accept loop forever; after this long with no bytes the
  /// daemon sends a structured `{"ok":false,"code":"timeout",...}` line
  /// and drops the connection.  0 disables the deadline.
  int recvTimeoutMs = 30000;
};

struct ServeStats {
  uint64_t requests = 0;
  uint64_t wisdomExact = 0;  ///< queries answered from an exact record
  uint64_t wisdomNear = 0;   ///< queries answered from a near record
  uint64_t tuned = 0;        ///< requests that ran a search (miss or TUNE)
  uint64_t errors = 0;       ///< structured error responses sent
  /// Real candidate evaluations performed since startup, summed over every
  /// tune — the "was this answered without the evaluator?" counter.
  uint64_t evaluations = 0;
};

class Daemon {
 public:
  /// Loads the wisdom file, the kernel table and the eval cache.  *error
  /// receives wisdom and cache damage warnings, wisdom schema warnings,
  /// cache open errors and kernel-dir problems, one per line; the daemon
  /// stays usable (a missing kernels dir just serves the registry, an
  /// unopenable cache file leaves the cache memory-only).
  explicit Daemon(ServeConfig config, std::string* error = nullptr);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Handles one protocol line, returns exactly one JSON response line
  /// (no trailing newline).  Never throws; every failure is a structured
  /// `{"ok":false,...}` response.  The whole daemon, minus the socket.
  [[nodiscard]] std::string handleLine(const std::string& line);

  /// True once a SHUTDOWN request was handled.
  [[nodiscard]] bool shutdownRequested() const { return shutdown_; }

  [[nodiscard]] const ServeStats& stats() const { return stats_; }
  [[nodiscard]] wisdom::WisdomStore& store() { return store_; }
  /// Kernel names the daemon can serve, sorted.
  [[nodiscard]] std::vector<std::string> kernelNames() const;

  // --- socket layer ---------------------------------------------------
  /// Binds a Unix-domain stream socket at `path` (an existing socket file
  /// is replaced).  Returns false with *error on failure.
  bool listenUnix(const std::string& path, std::string* error = nullptr);
  /// Binds loopback TCP on `port` (0 = ephemeral; see boundPort()).
  bool listenTcp(int port, std::string* error = nullptr);
  /// The TCP port actually bound (after listenTcp), 0 otherwise.
  [[nodiscard]] int boundPort() const { return boundPort_; }

  /// Accept loop: serves connections (one at a time, line by line) until a
  /// SHUTDOWN request arrives.  Returns 0 on clean shutdown, 1 on a socket
  /// error with *error set.
  int run(std::string* error = nullptr);

 private:
  struct KernelEntry {
    std::string source;
    const kernels::KernelSpec* spec = nullptr;
  };

  [[nodiscard]] std::string handleKernelVerb(const Request& req);
  [[nodiscard]] std::string handleExport(const Request& req);
  [[nodiscard]] std::string handleImport(const Request& req);
  [[nodiscard]] std::string handleStats();
  [[nodiscard]] std::string handleShutdown();
  [[nodiscard]] std::string errorResponse(const std::string& code,
                                          const std::string& message);
  /// The orchestrator serving one (arch, context, n) combination, created
  /// on first use around the shared cache and pool and kept for the
  /// daemon's life (its fault-plan counts and quarantine records persist).
  [[nodiscard]] search::Orchestrator& orchestratorFor(
      const arch::MachineConfig& machine, sim::TimeContext context, int64_t n);
  void saveWisdom();

  ServeConfig config_;
  wisdom::WisdomStore store_;
  std::map<std::string, KernelEntry> kernels_;
  search::SharedEvalState shared_;  ///< one cache + pool, lent to every orch
  std::map<std::string, std::unique_ptr<search::Orchestrator>> orchestrators_;
  ServeStats stats_;
  bool shutdown_ = false;
  int listenFd_ = -1;
  int boundPort_ = 0;
  std::string unixPath_;  ///< unlinked on destruction when we bound it
};

}  // namespace ifko::serve
