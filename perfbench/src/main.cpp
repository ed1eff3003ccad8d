// perfbench — see bench.h.
//
//   perfbench run    --workload W --seed S --seconds T --trace 0|1
//                    --out FILE --tmp DIR
//   perfbench setup  --workload W --seed S --out FILE --tmp DIR
//   perfbench record --workload W
//
// `run` measures one workload; `setup` only sets it up (run.py launches it
// several times to take the median set-up time); `record` prints the
// serial expected results that perfbench/expected/ holds.
#include <sys/resource.h>

#include <ctime>

#include "bench.h"
#include "support/str.h"

namespace perfbench {

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

int64_t cpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

int64_t peakRssKb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

Sink::Sink(const std::string& path) : f_(std::fopen(path.c_str(), "a")) {}

Sink::~Sink() {
  if (f_ != nullptr) std::fclose(f_);
}

void Sink::emit(const JsonWriter& w) {
  if (f_ == nullptr) return;
  std::fputs((w.str() + "\n").c_str(), f_);
  std::fflush(f_);
}

int Spans::open(const std::string& name, const std::string& id) {
  Span s;
  s.name = name;
  s.id = id;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.startNs = nowNs();
  spans_.push_back(std::move(s));
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void Spans::close(int index) {
  spans_[static_cast<size_t>(index)].endNs = nowNs();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

void Spans::add(const std::string& name, const std::string& id,
                int64_t startNs, int64_t endNs) {
  Span s;
  s.name = name;
  s.id = id;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.startNs = startNs;
  s.endNs = endNs;
  spans_.push_back(std::move(s));
}

namespace {

/// Self time of every span: its duration minus its children's durations.
/// Children of one span never overlap (the recorder is single-threaded and
/// strictly nested), so the sum is the covered part of the interval.
std::vector<int64_t> selfTimes(const std::vector<Spans::Span>& spans) {
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i)
    self[i] = spans[i].endNs - spans[i].startNs;
  for (const Spans::Span& s : spans)
    if (s.parent >= 0)
      self[static_cast<size_t>(s.parent)] -= s.endNs - s.startNs;
  return self;
}

}  // namespace

bool Spans::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<int64_t> self = selfTimes(spans_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    JsonWriter w;
    w.field("span", static_cast<int64_t>(i))
        .field("name", s.name)
        .field("id", s.id)
        .field("parent", s.parent)
        .field("start_ns", s.startNs)
        .field("end_ns", s.endNs)
        .field("self_ns", self[i]);
    std::fputs((w.str() + "\n").c_str(), f);
  }
  return std::fclose(f) == 0;
}

TuneSetting inl2Jobs1() {
  TuneSetting s{arch::opteron(), search::SearchConfig{}};
  s.search.n = 1024;
  s.search.context = sim::TimeContext::InL2;
  s.search.jobs = 1;
  return s;
}

search::SearchConfig serveSearch() {
  search::SearchConfig c = search::SearchConfig::smoke();
  c.n = kServeN;
  c.context = sim::TimeContext::InL2;
  c.jobs = 1;
  return c;
}

std::vector<search::KernelJob> registryJobs() {
  std::vector<search::KernelJob> jobs;
  for (const kernels::KernelSpec& k : kernels::allKernels()) {
    search::KernelJob job;
    job.name = k.name();
    job.hilSource = k.hilSource();
    job.spec = &k;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench run|setup|record --workload "
               "W [--seed S] [--seconds T] [--trace 0|1] [--out FILE] "
               "[--tmp DIR]\n",
               why);
  return 2;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) return usage("missing mode");
  Args args;
  args.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    int64_t num = 0;
    if (key == "--workload") {
      args.workload = val;
    } else if (key == "--seed" && parseInt64(val, &num) && num >= 0) {
      args.seed = static_cast<uint64_t>(num);
    } else if (key == "--seconds" && parseInt64(val, &num) && num > 0) {
      args.seconds = static_cast<double>(num);
    } else if (key == "--trace" && (val == "0" || val == "1")) {
      args.trace = val == "1";
    } else if (key == "--out") {
      args.out = val;
    } else if (key == "--tmp") {
      args.tmp = val;
    } else {
      return usage(("bad argument " + key + " " + val).c_str());
    }
  }
  if ((argc - 2) % 2 != 0) return usage("odd argument count");

  if (args.mode == "record") return recordExpected(args.workload);
  if (args.mode != "run" && args.mode != "setup") return usage("bad mode");
  if (args.out.empty() || args.tmp.empty())
    return usage("--out and --tmp are required");
  {
    Sink sink(args.out);
    JsonWriter w;
    w.field("type", "meta")
        .field("build_type", PERFBENCH_BUILD_TYPE)
        .field("compiler", PERFBENCH_COMPILER);
    sink.emit(w);
  }
  if (args.workload == "inl2_jobs1")
    return runTuneWorkload(args, inl2Jobs1());
  if (args.workload == "serve_mixed") return runServeWorkload(args);
  return usage(("unknown workload " + args.workload).c_str());
}
