// Open-loop load generator over one serve-client connection.
//
// A sender thread writes each request at its due time whatever the state
// of earlier ones (independent users make an open loop); the calling
// thread reads the in-order responses and sends each chained request as
// soon as the answer before it arrives.  Latency is taken from the due
// time, so a stall also charges the requests queued behind it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "serve/client.h"
#include "serve/daemon.h"

namespace perfbench {

struct LoadRequest {
  std::string kind;  ///< "exact" | "near" | "tune": the expected answer class
  std::string kernel;
  std::string arch;  ///< "p4e" | "opteron"
  std::string context;
  int64_t n = 0;
  int64_t dueNs = 0;  ///< offset from the start of the phase
  /// Sent the moment the answer to the request before it arrives, as by a
  /// client asking for several kernels in turn; dueNs is then unused.
  bool chained = false;
};

struct LoadResponse {
  /// When it was due: the schedule's time, or for a chained request the
  /// arrival of the answer before it.  Offsets from the start of the phase.
  int64_t dueNs = 0;
  int64_t sendNs = 0;
  int64_t recvNs = 0;
  std::string line;  ///< empty when none arrived
};

/// The protocol line for `r`.
[[nodiscard]] std::string requestLine(const LoadRequest& r);

/// A fixed rate with seeded arrival times: request i is due at a uniform
/// point of the i-th 1/ratePerSec slot.  Offsets in ns.
[[nodiscard]] std::vector<int64_t> jitteredDue(size_t count,
                                               double ratePerSec,
                                               SplitMix64& rng);

/// Serves `daemon` on its listening socket in a thread, plays `reqs` over
/// one connection, then sends SHUTDOWN and joins.  `responses` gets one
/// entry per request.  False with *error on a socket failure.
bool playOpenLoop(serve::Daemon& daemon, const serve::Endpoint& endpoint,
                  const std::vector<LoadRequest>& reqs,
                  std::vector<LoadResponse>* responses, std::string* error);

/// Writes one "request" line per request: timing plus the parsed response
/// fields run.py checks.  `referenceOk[i]` (may be empty) is the
/// re-verification of a TUNE winner.
void emitRequests(Sink& sink, const std::string& phase,
                  const std::vector<LoadRequest>& reqs,
                  const std::vector<LoadResponse>& responses,
                  const std::vector<char>& referenceOk);

/// Parsed fields of a kernel-verb response.
struct Answer {
  bool ok = false;
  std::string match;
  std::string params;
  uint64_t bestCycles = 0;
  uint64_t defaultCycles = 0;
  int64_t evaluations = -1;
};
[[nodiscard]] Answer parseAnswer(const std::string& line);

}  // namespace perfbench
