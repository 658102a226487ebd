// Shared pieces of the end-to-end benchmark: the run configuration, the
// clock, the in-memory span log of the traced run, sample statistics, and
// the outcome every workload fills in.
#pragma once

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace e2e {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int nproc = 1;
  std::string golden_dir;   ///< checked-in golden corpus (tests/golden)
  std::string scratch_dir;  ///< sink files and the daemon socket
  std::string trace_out;    ///< span dump of the traced run
};

/// SplitMix64: derives every generated input (campaign seeds, job mixes,
/// axis subsets, visit orders) from the workload seed.
class Gen {
 public:
  explicit Gen(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

 private:
  std::uint64_t s_;
};

/// Moves the calling thread round-robin over the CPUs it may run on, and
/// restores its original affinity when destroyed. The host's vCPUs change
/// speed independently over seconds; a serial measurement that rotates
/// averages them instead of sampling whichever one the scheduler chose.
/// Threads inherit affinity, so none may be spawned while one is pinned.
class CpuRotor {
 public:
  CpuRotor() {
    if (sched_getaffinity(0, sizeof allowed_, &allowed_) == 0)
      for (int i = 0; i < CPU_SETSIZE; ++i)
        if (CPU_ISSET(i, &allowed_)) cpus_.push_back(i);
  }
  ~CpuRotor() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof allowed_, &allowed_);
  }
  CpuRotor(const CpuRotor&) = delete;
  CpuRotor& operator=(const CpuRotor&) = delete;

  /// Pins the thread to the next allowed CPU.
  void next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t allowed_{};
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// One span of the traced run. Spans of one point or job share `group`;
/// `parent` is the index of the enclosing span, -1 for a root.
struct Span {
  const char* name = "";
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  std::int32_t parent = -1;
  std::uint32_t group = 0;
};

/// In-memory span store. Spans are opened and closed by index; worker
/// threads (record sinks inside the campaign pool) name their parent
/// explicitly, so the log only needs a mutex, not a per-thread stack.
/// A disabled log records nothing and returns -1.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1u << 16);
  }
  [[nodiscard]] bool enabled() const { return enabled_; }

  int open(const char* name, std::uint32_t group, int parent) {
    if (!enabled_) return -1;
    const std::int64_t t = now_ns();
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back({name, t, t, parent, group});
    return static_cast<int>(spans_.size() - 1);
  }
  void close(int index) {
    if (index < 0) return;
    const std::int64_t t = now_ns();
    std::lock_guard<std::mutex> lk(mu_);
    spans_[static_cast<std::size_t>(index)].t1 = t;
  }
  /// Records an already-measured interval.
  int add(const char* name, std::uint32_t group, int parent, std::int64_t t0,
          std::int64_t t1) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back({name, t0, t1, parent, group});
    return static_cast<int>(spans_.size() - 1);
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span on the calling thread.
class Scope {
 public:
  Scope(SpanLog& log, const char* name, std::uint32_t group, int parent)
      : log_(log), index_(log.open(name, group, parent)) {}
  ~Scope() { log_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] int index() const { return index_; }

 private:
  SpanLog& log_;
  int index_;
};

/// Linear-interpolated quantile (q in [0, 1]) of unsorted samples.
double quantile(std::vector<double> v, double q);

/// Highest of p90/p99/p99.9 with at least ten samples beyond it; 0.5 when
/// not even p90 qualifies.
double tail_level(std::size_t n);

/// What one workload run measured. Timings are host wall time.
struct Outcome {
  std::uint64_t attempted = 0;  ///< points attempted
  std::uint64_t failed = 0;     ///< failed points, rejects and error jobs
  std::vector<std::string> failures;  ///< first few failure messages
  /// Campaigns checked by the oracles, and injected-noise records whose
  /// oracle violations outside the catalog campaign are reported, not
  /// failed (see check_oracles).
  std::uint64_t oracle_campaigns = 0;
  std::uint64_t oracle_flags = 0;
  std::vector<std::string> flag_notes;

  std::vector<double> setup_s;    ///< one per set-up repetition
  std::vector<double> expand_ms;  ///< spec expansion inside each set-up
  double wall_s = 0.0;          ///< measured (untraced) window
  std::uint64_t points = 0;     ///< completed points counted for rates
  std::uint64_t rank_steps = 0;
  std::vector<double> point_ms;        ///< request -> record of one point
  std::vector<double> job_first_ms;    ///< request -> first record
  std::vector<double> job_cold_ms;     ///< request -> terminal, computing
  std::vector<double> job_cached_ms;   ///< request -> terminal, all cached
  double peak_rss_mb = 0.0;

  /// Untraced vs traced completed points per second (traced runs only).
  double untraced_rate = 0.0;
  double traced_rate = 0.0;

  std::map<std::string, double> layer;  ///< per-layer metrics
  std::vector<std::string> notes;       ///< configuration lines to print

  void fail(const std::string& why) {
    failed += 1;
    if (failures.size() < 8) failures.push_back(why);
  }
};

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

}  // namespace e2e
