#include "restart.h"

#include <filesystem>
#include <set>

#include "deployment.h"
#include "oracle.h"
#include "rdf/schema.h"
#include "rdf/writer.h"
#include "wal/record.h"

namespace perfbench {

namespace fs = std::filesystem;

namespace {

mdv::wal::WalOptions Wal(const fs::path& dir, mdv::wal::FsyncPolicy fsync) {
  mdv::wal::WalOptions options;
  options.dir = dir.string();
  options.fsync = fsync;
  return options;
}

int64_t DirBytes(const fs::path& dir) {
  int64_t bytes = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      bytes += static_cast<int64_t>(entry.file_size());
    }
  }
  return bytes;
}

void CopyTree(const fs::path& from, const fs::path& to) {
  fs::remove_all(to);
  fs::copy(from, to, fs::copy_options::recursive);
}

/// The journal payload of a single-document registration, as the MDP
/// writes it (count, uri, RDF/XML, version stamp).
std::string RegisterPayload(const mdv::rdf::RdfDocument& doc, uint64_t seq) {
  std::string payload;
  mdv::wal::PutU32(payload, 1);
  mdv::wal::PutString(payload, doc.uri());
  mdv::wal::PutString(payload, mdv::rdf::WriteRdfXml(doc));
  mdv::wal::PutU64(payload, 1);
  mdv::wal::PutU64(payload, seq);
  return payload;
}

}  // namespace

RestartBench::RestartBench(const RestartSpec& spec, uint64_t seed,
                           std::string dir)
    : spec_(spec),
      corpus_(spec.rules - spec.rules / 10, spec.rules / 10, seed + 1),
      dir_(std::move(dir)) {}

RestartBench::~RestartBench() {
  std::error_code ignored;
  fs::remove_all(dir_, ignored);
}

std::unique_ptr<mdv::MdvSystem> RestartBench::NewSystem() const {
  mdv::filter::RuleStoreOptions rule_options;
  rule_options.num_shards = 4;
  mdv::filter::EngineOptions engine_options;
  engine_options.num_workers = 2;
  return std::make_unique<mdv::MdvSystem>(mdv::rdf::MakeObjectGlobeSchema(),
                                          rule_options, BenchNetworkOptions(),
                                          engine_options);
}

void RestartBench::BuildImage() {
  const fs::path image = fs::path(dir_) / "image";
  fs::remove_all(dir_);
  fs::create_directories(image);
  rules_[0].clear();
  rules_[1].clear();
  std::unique_ptr<mdv::MdvSystem> system = NewSystem();
  mdv::MetadataProvider* mdp = Must(
      system->AddDurableProvider(Wal(image / "mdp", mdv::wal::FsyncPolicy::kNone)),
      "image mdp");
  mdv::LocalMetadataRepository* lmrs[2];
  for (int l = 0; l < 2; ++l) {
    lmrs[l] = Must(system->AddDurableRepository(
                       Wal(image / ("lmr" + std::to_string(l + 1)),
                           mdv::wal::FsyncPolicy::kNone),
                       mdp),
                   "image lmr");
  }
  for (size_t i = 0; i < spec_.rules; ++i) {
    const std::string text = corpus_.RuleText(i);
    Must(lmrs[i % 2]->Subscribe(text), "image subscribe");
    rules_[i % 2].push_back(text);
  }
  std::vector<mdv::rdf::RdfDocument> batch;
  for (uint64_t id = 0; id < spec_.docs; ++id) {
    batch.push_back(corpus_.MakeDoc(id, corpus_.InitialSynth(id), 0));
    if (batch.size() == 100 || id + 1 == spec_.docs) {
      Must(mdp->RegisterDocumentBatch(std::move(batch)), "image batch");
      batch.clear();
    }
  }
  if (!system->network().WaitQuiescent()) Fatal("image did not quiesce");
}

void RestartBench::Run(double seconds, RestartResult* result, Tally* tally) {
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  do {
    Cycle(result, tally);
    ++result->cycles;
  } while (NowNs() < end);
}

void RestartBench::Cycle(RestartResult* result, Tally* tally) {
  const fs::path root(dir_);
  const fs::path live_dir = root / "live";
  const fs::path crash_dir = root / "crash";
  CopyTree(root / "image", live_dir);

  // Bring the image up, then run a durable burst while LMR 2 is down.
  std::set<std::string> acknowledged;
  {
    std::unique_ptr<mdv::MdvSystem> live = NewSystem();
    mdv::MetadataProvider* mdp =
        Must(live->AddDurableProvider(Wal(live_dir / "mdp", kRestartFsync)),
             "bring-up mdp");
    Must(live->AddDurableRepository(Wal(live_dir / "lmr1", kRestartFsync), mdp),
         "bring-up lmr1");
    const int64_t bytes_before = DirBytes(live_dir / "mdp");
    // Registrations per second over chunks of one fsync batch each: the
    // median chunk is not moved by one stall.
    const size_t kChunk = static_cast<size_t>(
        Wal(live_dir, kRestartFsync).fsync_batch_records);
    int64_t chunk_start = NowNs();
    for (size_t b = 0; b < spec_.burst_docs; ++b) {
      const uint64_t id = spec_.docs + b;
      mdv::rdf::RdfDocument doc =
          corpus_.MakeDoc(id, corpus_.InitialSynth(id), b + 1);
      if (result->cycles == 0) {
        result->burst_payloads.push_back(RegisterPayload(doc, id + 1));
      }
      tally->Attempt();
      if (tally->Check(mdp->RegisterDocument(std::move(doc)),
                       "durable register")) {
        acknowledged.insert(Corpus::DocUri(id) + "#host");
      }
      if ((b + 1) % kChunk == 0) {
        const int64_t now = NowNs();
        result->durable_docs_per_s.Add(
            static_cast<double>(kChunk) /
            (static_cast<double>(now - chunk_start) / 1e9));
        chunk_start = now;
      }
    }
    result->wal_bytes_per_op.Add(
        static_cast<double>(DirBytes(live_dir / "mdp") - bytes_before) /
        static_cast<double>(spec_.burst_docs));
    // The copy taken while everything is still running is the crash
    // image: no shutdown path has run on it.
    CopyTree(live_dir, crash_dir);
  }

  std::unique_ptr<mdv::MdvSystem> system = NewSystem();
  const int64_t start = NowNs();
  mdv::MetadataProvider* mdp =
      Must(system->AddDurableProvider(Wal(crash_dir / "mdp", kRestartFsync)),
           "recover mdp");
  tally->Attempt();
  tally->Check(mdp->Browse(rules_[0].front()), "first browse");
  const double recover_ms = MsSince(start);
  result->recover_ms.Add(recover_ms);
  result->replay_records_per_s.Add(
      static_cast<double>(mdp->recovery_info().records.size()) /
      (recover_ms / 1e3));

  // Every acknowledged registration survived the crash.
  const auto hosts = mdp->Browse(kAllHostsRule);
  if (tally->Check(hosts, "recovered browse")) {
    const std::set<std::string> recovered(hosts.value().begin(),
                                          hosts.value().end());
    for (const std::string& uri : acknowledged) {
      if (recovered.count(uri) == 0) tally->Fail("lost acknowledged " + uri);
    }
    if (recovered.size() != spec_.docs + acknowledged.size()) {
      tally->Fail("recovered MDP holds " + std::to_string(recovered.size()) +
                  " hosts, expected " +
                  std::to_string(spec_.docs + acknowledged.size()));
    }
  }

  // Reopen both durable LMRs and catch them up by delta join; one
  // sample per cycle, the mean over the two.
  mdv::LocalMetadataRepository* lmrs[2];
  double rejoin_total_ms = 0;
  for (int l = 0; l < 2; ++l) {
    const int64_t t0 = NowNs();
    lmrs[l] = Must(system->AddDurableRepository(
                       Wal(crash_dir / ("lmr" + std::to_string(l + 1)),
                           kRestartFsync),
                       mdp),
                   "reopen lmr");
    const int64_t bytes0 = system->network().transport_stats().bytes_sent;
    tally->Attempt();
    tally->Check(lmrs[l]->JoinReplica(), "delta rejoin");
    rejoin_total_ms += MsSince(t0);
    result->join_bytes_delta.Add(static_cast<double>(
        system->network().transport_stats().bytes_sent - bytes0));
  }
  result->rejoin_ms.Add(rejoin_total_ms / 2);

  // A fresh replica with some of LMR 1's rules: subscribe, full join.
  const int64_t t0 = NowNs();
  mdv::LocalMetadataRepository* fresh = system->AddRepository(mdp);
  SubscriptionList fresh_subs;
  for (size_t i = 0; i < rules_[0].size() && i < spec_.fresh_rules; ++i) {
    const auto id = fresh->Subscribe(rules_[0][i]);
    tally->Attempt();
    if (tally->Check(id, "fresh subscribe")) {
      fresh_subs.emplace_back(id.value(), rules_[0][i]);
    }
  }
  const int64_t bytes0 = system->network().transport_stats().bytes_sent;
  mdv::JoinOptions full;
  full.delta = false;
  tally->Attempt();
  tally->Check(fresh->JoinReplica(full), "full join");
  result->join_full_ms.Add(MsSince(t0));
  result->join_bytes_full.Add(static_cast<double>(
      system->network().transport_stats().bytes_sent - bytes0));

  if (!system->network().WaitQuiescent()) {
    tally->Fail("restart cycle did not quiesce");
  }
  result->subscribes +=
      static_cast<int64_t>(2 * spec_.rules + fresh_subs.size());

  // The rejoined and the fresh replicas equal the recovered truth, and
  // every entry of the fresh one (whose rules LMR 1 also holds) is
  // byte-identical to LMR 1's.
  for (int l = 0; l < 2; ++l) {
    SubscriptionList subs;
    for (const mdv::pubsub::Subscription* sub :
         mdp->subscriptions().ByLmr(lmrs[l]->id())) {
      subs.emplace_back(sub->id, sub->rule_text);
    }
    CheckCacheAgainstBrowse(*lmrs[l], mdp, subs, spec_.checked_rules,
                            "rejoined lmr" + std::to_string(l + 1), tally);
  }
  CheckCacheAgainstBrowse(*fresh, mdp, fresh_subs, spec_.checked_rules,
                          "fresh lmr", tally);
  for (const std::string& uri : fresh->CachedUris()) {
    const mdv::CacheEntry* mine = fresh->Find(uri);
    const mdv::CacheEntry* theirs = lmrs[0]->Find(uri);
    if (theirs == nullptr || ContentDump(*mine) != ContentDump(*theirs)) {
      tally->Fail("fresh replica's " + uri + " differs from rejoined lmr1");
    }
  }
}

}  // namespace perfbench
