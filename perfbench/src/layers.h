// Per-layer measurements of the traced run: single-threaded replays of
// the run's captured inputs through each layer's public functions, and
// ratios of the program's own obs counters across the timed phases.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "common.h"
#include "deployment.h"
#include "inputs.h"
#include "obs/metrics.h"
#include "phases.h"
#include "pubsub/notification.h"
#include "restart.h"

namespace perfbench {

struct LayerInputs {
  const DeploymentSpec* deploy = nullptr;
  const Corpus* corpus = nullptr;
  Deployment* deployment = nullptr;  ///< Quiesced.
  const LoadGenerator* generator = nullptr;
  /// Notifications the probes received during the traced phases.
  std::vector<mdv::pubsub::Notification> notes;
  const RestartResult* restart = nullptr;
  std::string scratch_dir;
  uint64_t seed = 0;
};

/// Replays the captured inputs through the side fixtures (a
/// bench_support::FilterFixture holding one MDP's rule base and the
/// corpus, a shadow volatile LMR, scratch WAL journals) and adds the
/// rules.*, filter.*, rdbms.insert_atoms_us, mdv.lmr_apply_us, net.*
/// codec and wal.append_us.* metrics.
void ReplayLayers(const LayerInputs& in, Metrics* out, Tally* tally);

/// Ratios of obs counters between two snapshots taken around the timed
/// phases: filter index hit ratio and pool utilization, rows examined
/// per index lookup, notifications per op and resources per note, lint
/// checks per subscribe, redelivery and dedup ratios.
void CounterRatios(const mdv::obs::MetricsSnapshot& before,
                   const mdv::obs::MetricsSnapshot& after,
                   int64_t publish_ops, int64_t subscribes, int workers,
                   Metrics* out);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
