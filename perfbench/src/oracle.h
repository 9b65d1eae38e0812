// Correctness checks run after quiescing. Each failed check counts into
// error_ratio through the Tally.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "mdv/lmr.h"
#include "mdv/metadata_provider.h"

namespace perfbench {

using SubscriptionList =
    std::vector<std::pair<mdv::pubsub::SubscriptionId, std::string>>;

/// One cache entry's class, LWW version and sorted properties as text:
/// two replicas hold a resource identically when these compare equal.
std::string ContentDump(const mdv::CacheEntry& entry);

/// The LMR's cache must equal the MDP's Browse truth: every entry holds
/// the MDP's current content, AuditCacheInvariants is clean (match flags
/// name live subscriptions, no GC-dead entry is resident), and for up to
/// `max_checked` evenly spaced subscriptions the entries flagged with it
/// are exactly what Browse returns for its rule. Browse re-evaluates a
/// rule against the whole corpus, so checking every rule of a large base
/// would cost more than the measured phase.
void CheckCacheAgainstBrowse(const mdv::LocalMetadataRepository& lmr,
                             mdv::MetadataProvider* mdp,
                             const SubscriptionList& subscriptions,
                             size_t max_checked, const std::string& what,
                             Tally* tally);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
