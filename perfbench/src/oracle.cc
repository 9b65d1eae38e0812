#include "oracle.h"

#include <algorithm>
#include <set>
#include <sstream>

namespace perfbench {

std::string ContentDump(const mdv::CacheEntry& entry) {
  std::ostringstream out;
  out << entry.resource.class_name() << "|v" << entry.version.origin << "."
      << entry.version.seq;
  std::vector<std::string> props;
  for (const mdv::rdf::Property& prop : entry.resource.properties()) {
    props.push_back(prop.name + "=" +
                    (prop.value.is_literal() ? "lit:" : "ref:") +
                    prop.value.text());
  }
  std::sort(props.begin(), props.end());
  for (const std::string& prop : props) out << "|" << prop;
  return out.str();
}

void CheckCacheAgainstBrowse(const mdv::LocalMetadataRepository& lmr,
                             mdv::MetadataProvider* mdp,
                             const SubscriptionList& subscriptions,
                             size_t max_checked, const std::string& what,
                             Tally* tally) {
  auto fail = [&](const std::string& detail) {
    tally->Fail(what + ": " + detail);
  };
  // Every entry holds the MDP's current content.
  const std::vector<std::string> cached = lmr.CachedUris();
  const mdv::DocumentStore& documents = mdp->documents();
  for (const std::string& uri : cached) {
    const mdv::CacheEntry* entry = lmr.Find(uri);
    if (entry == nullptr || entry->local) continue;
    const mdv::rdf::Resource* truth = documents.FindResource(uri);
    if (truth == nullptr || !truth->ContentEquals(entry->resource)) {
      fail("stale or phantom content for " + uri);
    }
  }
  // For evenly spaced subscriptions: the entries flagged with it are
  // exactly the resources Browse returns for its rule.
  const size_t n = subscriptions.size();
  const size_t checked = std::min(n, max_checked);
  for (size_t k = 0; k < checked; ++k) {
    const auto& [id, text] = subscriptions[k * n / checked];
    const auto truth = mdp->Browse(text);
    if (!tally->Check(truth, what + ": browse truth")) continue;
    std::set<std::string> flagged;
    for (const std::string& uri : cached) {
      const mdv::CacheEntry* entry = lmr.Find(uri);
      if (entry != nullptr && entry->matched_subscriptions.count(id) != 0) {
        flagged.insert(uri);
      }
    }
    const std::set<std::string> want(truth.value().begin(),
                                     truth.value().end());
    if (flagged != want) {
      fail("subscription " + std::to_string(id) + " flags " +
           std::to_string(flagged.size()) + " entries, Browse finds " +
           std::to_string(want.size()) + " for " + text);
    }
  }
  tally->Check(lmr.AuditCacheInvariants(), what + ": audit");
}

}  // namespace perfbench
