#include "deployment.h"

#include <thread>

#include "rdf/schema.h"

namespace perfbench {

mdv::NetworkOptions BenchNetworkOptions() {
  mdv::NetworkOptions options;
  options.asynchronous = true;
  options.transport.latency_us = 150;
  options.transport.jitter_us = 100;
  options.transport.faults.drop_probability = 0.002;
  options.transport.faults.seed = 20020226;
  options.transport.queue_capacity = 1 << 16;
  return options;
}

void ProbeLog::SetStandingSubscription(int probe,
                                       mdv::pubsub::SubscriptionId id) {
  std::lock_guard<std::mutex> lock(mu_);
  standing_[probe] = id;
}

void ProbeLog::ExpectDelete(uint64_t doc, uint64_t uid) {
  std::lock_guard<std::mutex> lock(mu_);
  delete_uid_[doc] = uid;
}

void ProbeLog::OnNote(int probe, const mdv::pubsub::Notification& note) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  if (captured_.size() < capture_max_) captured_.push_back(note);
  auto arrive = [&](uint64_t uid) {
    int64_t& slot = op_arrival_[uid][probe];
    if (slot != 0) {
      ++duplicates_;
    } else {
      slot = now;
    }
  };
  using Kind = mdv::pubsub::NotificationKind;
  const bool standing = note.subscription == standing_[probe];
  if (note.kind == Kind::kInsert && !standing) {
    // A churn subscription's initial matches: only the first counts.
    sub_arrival_.emplace(std::make_pair(probe, note.subscription), now);
    return;
  }
  for (const mdv::pubsub::TransmittedResource& res : note.resources) {
    const std::string& uri = res.uri_reference;
    if (uri.size() < 5 || uri.compare(uri.size() - 5, 5, "#host") != 0) {
      continue;
    }
    if (note.kind == Kind::kRemove) {
      if (!standing) continue;  // A churn rule losing its document.
      const int64_t doc = Corpus::DocIdOf(uri);
      auto it = delete_uid_.find(static_cast<uint64_t>(doc));
      if (it != delete_uid_.end()) arrive(it->second);
      continue;
    }
    const mdv::rdf::PropertyValue* port =
        res.resource.FindProperty("serverPort");
    if (port == nullptr) continue;
    const uint64_t uid = std::strtoull(port->text().c_str(), nullptr, 10);
    if (uid != 0) arrive(uid);  // 0 marks setup documents.
  }
}

int64_t ProbeLog::OpArrival(uint64_t uid, int probe) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = op_arrival_.find(uid);
  return it == op_arrival_.end() ? 0 : it->second[probe];
}

int64_t ProbeLog::SubscribeArrival(int probe,
                                   mdv::pubsub::SubscriptionId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sub_arrival_.find({probe, id});
  return it == sub_arrival_.end() ? 0 : it->second;
}

int64_t ProbeLog::duplicates() const {
  std::lock_guard<std::mutex> lock(mu_);
  return duplicates_;
}

void ProbeLog::StartCapture(size_t max_notes) {
  std::lock_guard<std::mutex> lock(mu_);
  capture_max_ = max_notes;
  captured_.clear();
}

std::vector<mdv::pubsub::Notification> ProbeLog::TakeCaptured() {
  std::lock_guard<std::mutex> lock(mu_);
  capture_max_ = 0;
  return std::move(captured_);
}

Deployment::Deployment(const DeploymentSpec& spec, const Corpus& corpus,
                       ProbeLog* probes)
    : spec_(spec) {
  mdv::filter::RuleStoreOptions rule_options;
  rule_options.num_shards = spec.shards;
  mdv::filter::EngineOptions engine_options;
  engine_options.num_workers = spec.workers;
  system_ = std::make_unique<mdv::MdvSystem>(mdv::rdf::MakeObjectGlobeSchema(),
                                             rule_options, BenchNetworkOptions(),
                                             engine_options);
  for (int m = 0; m < kMdps; ++m) mdps_[m] = system_->AddProvider();
  for (int l = 0; l < kLmrs; ++l) {
    lmrs_[l] = system_->AddRepository(mdps_[mdp_of_lmr(l)]);
  }
  for (int p = 0; p < kMdps; ++p) {
    const mdv::pubsub::LmrId id = kProbeBase + p;
    network().Attach(id, [probes, p](const mdv::pubsub::Notification& note) {
      probes->OnNote(p, note);
    });
    probes->SetStandingSubscription(
        p, Must(mdps_[p]->Subscribe(id, kAllHostsRule), "probe subscribe"));
  }

  // Rule base first (cheap to evaluate against an empty corpus), then
  // the corpus in batches; each MDP's share loads on its own thread.
  auto load = [&](int m) {
    for (size_t i = 0; i < corpus.num_rules(); ++i) {
      const int l = LmrOfRule(corpus, i);
      if (mdp_of_lmr(l) != m) continue;
      Must(lmrs_[l]->Subscribe(corpus.RuleText(i)), "rule base subscribe");
    }
    std::vector<mdv::rdf::RdfDocument> batch;
    for (uint64_t id = static_cast<uint64_t>(m); id < spec.docs;
         id += kMdps) {
      batch.push_back(corpus.MakeDoc(id, corpus.InitialSynth(id), 0));
      if (batch.size() == 100 || id + kMdps >= spec.docs) {
        Must(mdps_[m]->RegisterDocumentBatch(std::move(batch)),
             "corpus batch");
        batch.clear();
      }
    }
  };
  std::thread other([&] { load(1); });
  load(0);
  other.join();
  if (!network().WaitQuiescent()) Fatal("setup did not quiesce");
}

}  // namespace perfbench
