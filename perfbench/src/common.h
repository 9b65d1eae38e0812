// Shared plumbing of the MDV benchmark: sample sets, the error
// tally behind `error_ratio`, metric output and the workload settings.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "obs/metrics.h"

namespace perfbench {

using mdv::obs::NowNs;

inline double MsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

/// A set of measured values.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }
  const std::vector<double>& values() const { return values_; }

  /// The Harrell-Davis estimate of percentile `p` in [0, 100]: a
  /// weighted mean of every order statistic, steadier than any single
  /// one for the tail percentiles of a few hundred samples. 0 for an
  /// empty set.
  double Percentile(double p) const;
  double Median() const { return Percentile(50); }
  double Sum() const {
    double s = 0;
    for (double v : values_) s += v;
    return s;
  }

 private:
  std::vector<double> values_;
};

/// Counts attempted operations and everything that went wrong: failed
/// or refused calls, missing or duplicate notifications and failed
/// correctness checks. Thread-safe.
class Tally {
 public:
  void Attempt(int64_t n = 1) { attempted_.fetch_add(n); }
  void Fail(const std::string& what) {
    failed_.fetch_add(1);
    std::lock_guard<std::mutex> lock(mu_);
    if (messages_.size() < 20) messages_.push_back(what);
  }
  /// Records a failure when `status` is not OK. Returns status.ok().
  bool Check(const mdv::Status& status, const std::string& what) {
    if (status.ok()) return true;
    Fail(what + ": " + status.ToString());
    return false;
  }
  template <typename T>
  bool Check(const mdv::Result<T>& result, const std::string& what) {
    return result.ok() || Check(result.status(), what);
  }
  int64_t attempted() const { return attempted_.load(); }
  int64_t failed() const { return failed_.load(); }
  std::vector<std::string> messages() const {
    std::lock_guard<std::mutex> lock(mu_);
    return messages_;
  }

 private:
  std::atomic<int64_t> attempted_{0};
  std::atomic<int64_t> failed_{0};
  mutable std::mutex mu_;
  std::vector<std::string> messages_;
};

/// Aborts the run (exit code 1, no result line) on a setup failure: a
/// benchmark whose fixture cannot be built has nothing to report.
inline void Fatal(const std::string& what) {
  std::fprintf(stderr, "perfbench: fatal: %s\n", what.c_str());
  std::exit(1);
}
inline void Must(const mdv::Status& status, const std::string& what) {
  if (!status.ok()) Fatal(what + ": " + status.ToString());
}
template <typename T>
T Must(mdv::Result<T> result, const std::string& what) {
  if (!result.ok()) Fatal(what + ": " + result.status().ToString());
  return std::move(result).value();
}

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

// ---- Workload settings. -------------------------------------------------

/// The meshed deployment shared by the publish and churn phases.
struct DeploymentSpec {
  size_t docs = 2000;             ///< Initial corpus.
  size_t path_join_rules = 1800;  ///< Equality rules, one per memory value.
  size_t comp_rules = 200;        ///< Zipf-skewed COMP thresholds.
  int shards = 4;
  int workers = 2;
};

/// The offered load on one deployment. Rates are fixed numbers, not
/// derived from a run, so a faster program sees the same load.
struct LoadSpec {
  double publish_rate = 0;       ///< Open-loop ops/s, both MDPs together.
  double trickle_rate = 0;       ///< Publish ops/s beside the churn.
  double churn_rate = 0;         ///< Subscribe steps/s.
  double browse_rate = 0;        ///< Browse calls/s beside the churn.
  size_t churn_window = 64;      ///< Churn rules kept live per MDP.
  double warmup_s = 0.5;
  double closed_fraction = 0.3;  ///< Of the publish phase, closed loop.
};

/// The durable single-MDP deployment of the restart phase.
struct RestartSpec {
  size_t rules = 1000;
  size_t docs = 2000;
  size_t burst_docs = 192;   ///< Durable registrations per cycle.
  size_t fresh_rules = 64;   ///< Rules the freshly joined replica holds.
  size_t checked_rules = 24; ///< Browse-checked rules per replica.
};

enum class Phase { kPublish, kChurn, kRestart };

/// One workload. Every workload runs all three phases, so every run
/// reports every metric. The primary phase runs at full size for most
/// of the run; the other two run on the small deployment or image, so
/// a cost moved onto them still shows while they stay cheap.
struct WorkloadSpec {
  std::string name;
  Phase primary = Phase::kPublish;
  DeploymentSpec big_deploy;
  LoadSpec big_load;
  DeploymentSpec small_deploy;
  LoadSpec small_load;
  RestartSpec big_restart;
  RestartSpec small_restart;
  int setups = 3;  ///< Setup repetitions for setup_s.
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
