// Timing model of the memory hierarchy: set-associative caches, a memory
// bus with occupancy and read/write turnaround, MSHRs, write-combining
// non-temporal stores, and the SSE/3DNow! prefetch family.
//
// Every mechanism the paper's analysis leans on is modeled explicitly:
//  * write-allocate stores do read-for-ownership on miss (why WNT wins on
//    copy: it removes one of the three bus transfers per line);
//  * prefetches are dropped when the bus backlog is deep or MSHRs are full
//    (why prefetch stops helping for bus-bound kernels like swap/axpy);
//  * NT stores to lines that are currently cached cost a flush on machines
//    with ntStoreCheapWhenCached=false (why blind WNT collapses on
//    Opteron's swap/axpy while copy's write-only Y is fine);
//  * reads and writes interleaving on the bus pay a turnaround penalty
//    (what AMD's block-fetch technique amortizes).
//
// All methods take the current cycle and return data-ready/commit cycles;
// the functional interpreter supplies addresses, so timing and semantics
// stay decoupled.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "arch/machine.h"
#include "ir/inst.h"

namespace ifko::sim {

class MemSystem {
 public:
  explicit MemSystem(const arch::MachineConfig& cfg);
  /// The config is held by reference: a temporary would dangle.
  explicit MemSystem(arch::MachineConfig&&) = delete;

  /// The level that serviced the most recent load()/store() call.  Read by
  /// the timing model immediately after each access to attribute the stall
  /// to a memory level (safe: one MemSystem is owned by one evaluation).
  enum class Service : uint8_t { None, L1, L2, Mem };
  [[nodiscard]] Service lastService() const { return last_service_; }

  /// Data-ready cycle for a load of `bytes` at `addr` executed at `now`.
  uint64_t load(uint64_t addr, uint32_t bytes, uint64_t now);
  /// Commit cycle for a write-allocate store (store buffer permitting).
  uint64_t store(uint64_t addr, uint32_t bytes, uint64_t now);
  /// Commit cycle for a non-temporal (write-combining) store.
  uint64_t storeNT(uint64_t addr, uint32_t bytes, uint64_t now);
  /// Issues (or silently drops) a prefetch of the line containing `addr`.
  void prefetch(ir::PrefKind kind, uint64_t addr, uint64_t now);

  /// Installs [addr, addr+bytes) into the caches as if previously accessed
  /// (used by the in-L2 timing context).  No stats, no bus traffic.
  void warm(uint64_t addr, uint64_t bytes);

  struct Stats {
    uint64_t loads = 0;
    uint64_t loadMissL1 = 0;
    uint64_t loadMissMem = 0;  ///< misses that went to memory
    uint64_t stores = 0;
    uint64_t storeRFOs = 0;
    uint64_t ntStores = 0;
    uint64_t ntFlushes = 0;  ///< NT stores that hit a cached line (penalized)
    uint64_t prefIssued = 0;
    uint64_t prefDropped = 0;
    uint64_t hwPrefetches = 0;
    uint64_t writebacks = 0;
    uint64_t busBytes = 0;
    // Per-level accounting (observability layer; appended so existing
    // aggregate initializers keep their field positions).
    uint64_t loadHitL1 = 0;
    uint64_t loadHitL2 = 0;   ///< L1 misses served by the L2
    uint64_t storeHitL1 = 0;
    uint64_t storeHitL2 = 0;
    uint64_t evictL1 = 0;     ///< valid lines displaced from the L1
    uint64_t evictL2 = 0;
    uint64_t prefUseful = 0;  ///< prefetched lines later hit by demand
    friend bool operator==(const Stats&, const Stats&) = default;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  void resetStats() { stats_ = {}; }

  /// Cycle at which the bus becomes idle (exposed for tests).
  [[nodiscard]] uint64_t busFreeTime() const { return bus_free_; }

 private:
  struct Line {
    uint64_t tag = 0;
    uint64_t lastUse = 0;    ///< LRU stamp (0 = prefer for eviction)
    uint64_t fillReady = 0;  ///< cycle the fill completes (in-flight lines)
    bool valid = false;
    bool dirty = false;
    bool exclusive = false;  ///< owned for writing (no upgrade needed)
    bool nt = false;         ///< non-temporal fill: preferred eviction victim
    bool pref = false;       ///< filled by a prefetch, not yet demand-hit
  };
  struct Level {
    arch::CacheLevelConfig cfg;
    int numSets = 0;
    std::vector<Line> lines;  ///< numSets * assoc

    Line* find(uint64_t lineAddr);
    /// Victim slot for lineAddr's set (invalid or least recently used).
    Line& victim(uint64_t lineAddr);
  };

  [[nodiscard]] uint64_t lineAddr(uint64_t addr) const {
    return addr & ~static_cast<uint64_t>(line_bytes_ - 1);
  }

  enum class BusDir { Read, Write };
  /// Acquires the bus for one line transfer; returns the grant cycle.
  uint64_t busAcquire(uint64_t now, BusDir dir);
  uint64_t busAcquireImpl(uint64_t now, BusDir dir, bool buffered);

  /// Fetches a line from memory (deduplicating against in-flight fills);
  /// returns the data-ready cycle.  `forWrite` installs it exclusive;
  /// `isPrefetch` marks the installed lines for prefetch-useful accounting.
  uint64_t fetchLine(uint64_t laddr, uint64_t now, bool forWrite,
                     bool intoL1, bool intoL2, bool ntHint,
                     bool isPrefetch = false);

  void installLine(Level& level, uint64_t laddr, uint64_t now,
                   uint64_t fillReady, bool dirty, bool exclusive, bool ntHint,
                   bool prefetched = false);
  /// Demand access touched `line`: credits a useful prefetch once.
  void noteDemandHit(Line& line);
  void flushWC(uint64_t now, size_t idx);
  /// Trains the hardware stride prefetcher on a demand miss and issues
  /// ahead-fetches into the L2 once a sequential stream is detected.
  void trainHwPrefetcher(uint64_t laddr, uint64_t now);

  /// L1 lookup accelerator: the two most recently hit lines (streaming
  /// kernels touch each line several times in a row, and two entries cover
  /// a load stream and a store stream).  Pure cache of Level::find — the
  /// tag/valid check re-validates on every use, so results are identical;
  /// pointers are stable because the line arrays never resize after
  /// construction.
  Line* findL1(uint64_t laddr);

  const arch::MachineConfig& cfg_;
  int line_bytes_;
  std::vector<Level> levels_;
  uint64_t bus_free_ = 0;
  BusDir bus_last_dir_ = BusDir::Read;
  uint64_t use_counter_ = 1;
  /// lineAddr -> ready cycle.  Flat, unordered, swap-pop erase: MSHR counts
  /// are a handful, so linear scans beat hashing; no consumer depends on
  /// order (min/existence scans only).
  std::vector<std::pair<uint64_t, uint64_t>> inflight_;
  std::vector<uint64_t> store_buffer_;  ///< outstanding commits
  Line* l1_memo_[2] = {nullptr, nullptr};  ///< MRU-first; see findL1
  /// Line known absent from every level (the last NT-stored line: storeNT
  /// invalidates it and only installLine can bring it back).  Lets the NT
  /// fast path skip the cache walk on streaming NT stores.
  uint64_t nt_uncached_line_ = UINT64_MAX;
  // Write-combining buffers (cfg.wcBuffers of them).
  struct WcEntry {
    uint64_t line = UINT64_MAX;
    uint32_t bytes = 0;
    uint64_t lastUse = 0;
  };
  std::vector<WcEntry> wc_;
  uint64_t wc_extra_delay_ = 0;  ///< pending NT flush penalty
  struct Stream {
    uint64_t lastLine = 0;
    int streak = 0;
    uint64_t lastUse = 0;
  };
  Stream streams_[8];
  Stats stats_;
  Service last_service_ = Service::None;
};

}  // namespace ifko::sim
