// The meshed MDV deployment of the publish and churn phases, and the
// probe subscribers that time notifications end to end.

#ifndef PERFBENCH_DEPLOYMENT_H_
#define PERFBENCH_DEPLOYMENT_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common.h"
#include "inputs.h"
#include "mdv/system.h"
#include "pubsub/notification.h"

namespace perfbench {

constexpr int kMdps = 2;
constexpr int kLmrs = 4;
/// Probe subscriber ids (one per MDP), disjoint from the LMR ids 1..4.
constexpr mdv::pubsub::LmrId kProbeBase = 101;
/// The probes' standing rule: every CycleProvider, so every published
/// document reaches both probes, one of them across the backbone.
constexpr char kAllHostsRule[] = "search CycleProvider c register c";

/// The LMR holding rule `i` of the rule base: equality rules alternate
/// between LMRs 0 and 2, COMP rules between LMRs 1 and 3. LMRs 0 and 1
/// sit on MDP 0, LMRs 2 and 3 on MDP 1.
inline int LmrOfRule(const Corpus& corpus, size_t i) {
  return (i < corpus.path_join_rules() ? 0 : 1) + 2 * static_cast<int>(i % 2);
}

/// The async transport every phase runs over: 150±100 us one-way
/// latency and 0.2% frame loss, absorbed by the reliable link.
mdv::NetworkOptions BenchNetworkOptions();

/// Records when each probe received the notification naming each op
/// (by the op uid carried in the host's serverPort, or by the deleted
/// document for removals) and each churn subscription's initial match.
/// The handler runs on transport threads; readers query after quiescing.
class ProbeLog {
 public:
  void SetStandingSubscription(int probe, mdv::pubsub::SubscriptionId id);
  /// Call before issuing the deletion of `doc` by op `uid`.
  void ExpectDelete(uint64_t doc, uint64_t uid);
  void OnNote(int probe, const mdv::pubsub::Notification& note);

  /// Arrival time (steady ns) of op `uid` at `probe`; 0 when missing.
  int64_t OpArrival(uint64_t uid, int probe) const;
  /// Arrival of the initial-match notification of a churn subscription.
  int64_t SubscribeArrival(int probe, mdv::pubsub::SubscriptionId id) const;
  /// Notifications that named an op a probe had already seen.
  int64_t duplicates() const;

  /// Keeps copies of up to `max_notes` arriving notifications (for the
  /// per-layer replays of the traced run).
  void StartCapture(size_t max_notes);
  std::vector<mdv::pubsub::Notification> TakeCaptured();

 private:
  mutable std::mutex mu_;
  std::array<mdv::pubsub::SubscriptionId, kMdps> standing_{-1, -1};
  std::unordered_map<uint64_t, uint64_t> delete_uid_;  // doc -> op uid.
  std::unordered_map<uint64_t, std::array<int64_t, kMdps>> op_arrival_;
  std::map<std::pair<int, mdv::pubsub::SubscriptionId>, int64_t>
      sub_arrival_;
  int64_t duplicates_ = 0;
  size_t capture_max_ = 0;
  std::vector<mdv::pubsub::Notification> captured_;
};

/// Two meshed MDPs (sharded filter with a worker pool), four LMRs (two
/// per MDP) holding the rule base as LmrOfRule says, and one probe per
/// MDP. LMR 0, the one the query client reads, holds no COMP rule, so it
/// caches a steady half of the corpus.
class Deployment {
 public:
  /// Builds the deployment and loads the rule base and the initial
  /// corpus (documents 0..docs-1, each registered at the MDP owning it).
  Deployment(const DeploymentSpec& spec, const Corpus& corpus,
             ProbeLog* probes);

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  const DeploymentSpec& spec() const { return spec_; }
  mdv::MdvSystem& system() { return *system_; }
  mdv::Network& network() { return system_->network(); }
  mdv::MetadataProvider* mdp(int i) { return mdps_[i]; }
  mdv::LocalMetadataRepository* lmr(int i) { return lmrs_[i]; }
  int mdp_of_lmr(int i) const { return i / 2; }

 private:
  const DeploymentSpec spec_;
  std::unique_ptr<mdv::MdvSystem> system_;
  std::array<mdv::MetadataProvider*, kMdps> mdps_{};
  std::array<mdv::LocalMetadataRepository*, kLmrs> lmrs_{};
};

}  // namespace perfbench

#endif  // PERFBENCH_DEPLOYMENT_H_
