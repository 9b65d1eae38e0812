// The publish and subscribe-churn phases over the meshed deployment:
// closed- and open-loop publishers, the LMR query client, the churn
// subscriber, the MDP browse client and the publish trickle.

#ifndef PERFBENCH_PHASES_H_
#define PERFBENCH_PHASES_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common.h"
#include "deployment.h"
#include "inputs.h"

namespace perfbench {

/// One issued publish op. Open-loop ops carry the time they were due;
/// latencies are measured from it, so a generator running late shows up as
/// latency (and as lag) instead of silently throttling the load.
struct OpRecord {
  Op op;
  bool open_loop = false;
  bool ok = false;
  int64_t due_ns = 0;
  int64_t issue_ns = 0;
  int64_t done_ns = 0;
  double call_us = 0;  ///< Duration of the MDP call itself.
};

/// One churn step's subscription, made through a probe.
struct SubscribeRecord {
  int probe = 0;
  mdv::pubsub::SubscriptionId id = -1;
  bool ok = false;
  int64_t due_ns = 0;
  int64_t issue_ns = 0;
  double call_us = 0;
};

struct PublishStats {
  /// Closed-loop completions per second in each half-second slice.
  Samples closed_ops_per_s;
  Samples query_ms;
  Samples quiesce_ms;  ///< WaitQuiescent after each open loop.
};

struct ChurnStats {
  Samples browse_ms;
  Samples unsubscribe_us;
};

/// End-to-end samples joined from the op records and the probe log.
struct ProbeSamples {
  Samples notify_ms;     ///< Due time -> later of the two probes.
  Samples lag_ms;        ///< Issue time - due time (open loop).
  Samples subscribe_ms;  ///< Due time -> initial matches at the probe.
  Samples subscribe_call_us;
  Samples register_us, update_us, delete_us;
  int64_t publish_ops = 0;
  int64_t subscribes = 0;
};

/// Appends `from`'s samples and counts to `into`.
void Merge(ProbeSamples* into, const ProbeSamples& from);

/// Drives the deployment. Records accumulate across phases; Analyze
/// reads any suffix of them once the network has quiesced.
class LoadGenerator {
 public:
  LoadGenerator(const LoadSpec& load, const Corpus& corpus, Deployment* deployment,
         ProbeLog* probes, uint64_t seed, Tally* tally);

  /// Warm-up (when `warm_up`), closed loop (one publisher per MDP), then
  /// the open loop at load.publish_rate with the query client beside
  /// it. Quiesces.
  PublishStats RunPublish(double seconds, bool warm_up);
  /// Open-loop churn at load.churn_rate beside a browse client and a
  /// publish trickle at load.trickle_rate. Quiesces.
  ChurnStats RunChurn(double seconds);

  size_t op_count() const;
  size_t subscribe_count() const;
  /// Joins op/subscribe records from the given offsets with the probe
  /// arrivals; every missing or duplicate notification is a failure.
  ProbeSamples Analyze(size_t ops_from, size_t subs_from) const;

  /// Highest transport queue depth the publishers sampled.
  int64_t queue_depth_max() const { return queue_depth_max_.load(); }
  /// Query texts issued so far.
  const std::vector<std::string>& query_texts() const { return query_texts_; }
  const std::vector<OpRecord>& ops() const { return ops_; }

 private:
  OpRecord Issue(int mdp, const Op& op, int64_t due_ns, bool open_loop);
  void Record(const OpRecord& record);
  /// Closed loop until `end_ns` on stream/MDP `m`.
  void ClosedLoop(int m, int64_t end_ns);
  /// Poisson arrivals at `rate` until `end_ns`; `streams` lists which
  /// streams (and MDPs) take turns.
  void OpenLoop(const std::vector<int>& streams, double rate, int64_t end_ns,
                uint64_t rng_stream);
  void SampleQueueDepth();

  const LoadSpec load_;
  const Corpus& corpus_;
  Deployment* deployment_;
  ProbeLog* probes_;
  const uint64_t seed_;
  Tally* tally_;
  std::array<std::unique_ptr<OpStream>, kMdps> streams_;
  uint64_t phase_counter_ = 0;

  mutable std::mutex mu_;
  std::vector<OpRecord> ops_;
  std::vector<SubscribeRecord> subscribes_;
  /// Live churn subscriptions per probe, oldest first.
  std::array<std::vector<mdv::pubsub::SubscriptionId>, kMdps> churn_live_;
  std::vector<std::string> query_texts_;
  std::atomic<int64_t> queue_depth_max_{0};
  mdv::obs::Gauge* queue_depth_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PHASES_H_
