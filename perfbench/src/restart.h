// The restart phase: a durable MDP with two durable LMRs, recovered
// from a crash-time copy of its WAL, then rejoined and joined afresh.

#ifndef PERFBENCH_RESTART_H_
#define PERFBENCH_RESTART_H_

#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "inputs.h"
#include "mdv/system.h"
#include "wal/log.h"

namespace perfbench {

struct RestartResult {
  Samples recover_ms;    ///< New provider -> durable -> first Browse.
  Samples rejoin_ms;     ///< OpenDurable + delta JoinReplica, per LMR
                         ///< (the cycle's mean over its two LMRs).
  Samples join_full_ms;  ///< Fresh LMR: subscribe + full JoinReplica.
  /// Per chunk of one fsync batch (32 registrations).
  Samples durable_docs_per_s;
  Samples replay_records_per_s;
  Samples wal_bytes_per_op;
  Samples join_bytes_delta;
  Samples join_bytes_full;
  int cycles = 0;
  /// Subscriptions registered, replayed ones included (each cycle
  /// replays the image's rule base twice: bring-up and recovery).
  int64_t subscribes = 0;
  /// WAL payloads of the burst registrations, as the MDP journals them
  /// (for the scratch-journal append replay).
  std::vector<std::string> burst_payloads;
};

/// The fsync policy of every durable component in the timed cycles.
constexpr mdv::wal::FsyncPolicy kRestartFsync = mdv::wal::FsyncPolicy::kBatch;

class RestartBench {
 public:
  RestartBench(const RestartSpec& spec, uint64_t seed, std::string dir);
  ~RestartBench();

  RestartBench(const RestartBench&) = delete;
  RestartBench& operator=(const RestartBench&) = delete;

  const RestartSpec& spec() const { return spec_; }

  /// Setup: journals the rule base and the corpus through a durable MDP
  /// and its two LMRs into the image directory, without a checkpoint.
  void BuildImage();

  /// Restart cycles until `seconds` have passed (at least one), adding
  /// their samples to `result`. Each cycle starts from a fresh copy of
  /// the image, so cycles replay the same log and stay comparable.
  void Run(double seconds, RestartResult* result, Tally* tally);

 private:
  void Cycle(RestartResult* result, Tally* tally);
  std::unique_ptr<mdv::MdvSystem> NewSystem() const;

  const RestartSpec spec_;
  const Corpus corpus_;
  const std::string dir_;
  /// Rule texts per durable LMR, in subscription order.
  std::vector<std::string> rules_[2];
};

}  // namespace perfbench

#endif  // PERFBENCH_RESTART_H_
