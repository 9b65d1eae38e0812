#include "phases.h"

#include <chrono>
#include <random>
#include <thread>

namespace perfbench {

namespace {

void SleepUntilNs(int64_t ns) {
  std::this_thread::sleep_until(
      std::chrono::steady_clock::time_point(std::chrono::nanoseconds(ns)));
}

int64_t SecondsToNs(double s) { return static_cast<int64_t>(s * 1e9); }

constexpr size_t kMaxRecordedTexts = 64;

}  // namespace

void Merge(ProbeSamples* into, const ProbeSamples& from) {
  into->notify_ms.Append(from.notify_ms);
  into->lag_ms.Append(from.lag_ms);
  into->subscribe_ms.Append(from.subscribe_ms);
  into->subscribe_call_us.Append(from.subscribe_call_us);
  into->register_us.Append(from.register_us);
  into->update_us.Append(from.update_us);
  into->delete_us.Append(from.delete_us);
  into->publish_ops += from.publish_ops;
  into->subscribes += from.subscribes;
}

LoadGenerator::LoadGenerator(const LoadSpec& load, const Corpus& corpus,
               Deployment* deployment, ProbeLog* probes, uint64_t seed,
               Tally* tally)
    : load_(load), corpus_(corpus), deployment_(deployment), probes_(probes),
      seed_(seed), tally_(tally),
      queue_depth_(&mdv::obs::DefaultMetrics().GetGauge("mdv.net.queue_depth")) {
  for (int m = 0; m < kMdps; ++m) {
    streams_[m] = std::make_unique<OpStream>(&corpus, m, kMdps,
                                             deployment->spec().docs, seed);
  }
}

size_t LoadGenerator::op_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ops_.size();
}

size_t LoadGenerator::subscribe_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return subscribes_.size();
}

void LoadGenerator::SampleQueueDepth() {
  const int64_t depth = queue_depth_->value();
  int64_t seen = queue_depth_max_.load();
  while (depth > seen && !queue_depth_max_.compare_exchange_weak(seen, depth)) {
  }
}

OpRecord LoadGenerator::Issue(int m, const Op& op, int64_t due_ns, bool open_loop) {
  OpRecord rec;
  rec.op = op;
  rec.open_loop = open_loop;
  rec.due_ns = due_ns;
  rec.issue_ns = NowNs();
  mdv::MetadataProvider* mdp = deployment_->mdp(m);
  mdv::Status status;
  int64_t start = 0;
  switch (op.kind) {
    case Op::Kind::kRegister: {
      mdv::rdf::RdfDocument doc = corpus_.MakeDoc(op.doc, op.synth, op.uid);
      start = NowNs();
      status = mdp->RegisterDocument(std::move(doc));
      break;
    }
    case Op::Kind::kUpdate: {
      mdv::rdf::RdfDocument doc = corpus_.MakeDoc(op.doc, op.synth, op.uid);
      start = NowNs();
      status = mdp->UpdateDocument(std::move(doc));
      break;
    }
    case Op::Kind::kDelete:
      probes_->ExpectDelete(op.doc, op.uid);
      start = NowNs();
      status = mdp->DeleteDocument(Corpus::DocUri(op.doc));
      break;
  }
  rec.done_ns = NowNs();
  rec.call_us = static_cast<double>(rec.done_ns - start) / 1e3;
  tally_->Attempt();
  rec.ok = tally_->Check(status, std::string(OpKindName(op.kind)) + " " +
                                     Corpus::DocUri(op.doc));
  SampleQueueDepth();
  return rec;
}

void LoadGenerator::Record(const OpRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  ops_.push_back(record);
}

void LoadGenerator::ClosedLoop(int m, int64_t end_ns) {
  while (NowNs() < end_ns) {
    const Op op = streams_[m]->Next();
    Record(Issue(m, op, NowNs(), false));
  }
}

void LoadGenerator::OpenLoop(const std::vector<int>& streams, double rate,
                      int64_t end_ns, uint64_t rng_stream) {
  std::mt19937_64 rng(seed_ * 7919 + rng_stream);
  std::exponential_distribution<double> gap(rate);
  int64_t due = NowNs();
  for (size_t k = 0;; ++k) {
    due += SecondsToNs(gap(rng));
    if (due > end_ns) break;
    SleepUntilNs(due);
    const int m = streams[k % streams.size()];
    const Op op = streams_[m]->Next();
    Record(Issue(m, op, due, true));
  }
}

PublishStats LoadGenerator::RunPublish(double seconds, bool warm_up) {
  PublishStats stats;
  const uint64_t phase = ++phase_counter_;
  const double warmup = warm_up ? std::min(load_.warmup_s, seconds / 4) : 0;
  const double closed = (seconds - warmup) * load_.closed_fraction;
  const double open = seconds - warmup - closed;

  // Warm-up and the closed loop: one publisher per MDP, as fast as the
  // MDPs answer.
  auto closed_loop = [&](int64_t end_ns) {
    std::thread other([&] { ClosedLoop(1, end_ns); });
    ClosedLoop(0, end_ns);
    other.join();
  };
  if (warmup > 0) closed_loop(NowNs() + SecondsToNs(warmup));
  const size_t closed_from = op_count();
  const int64_t closed_start = NowNs();
  closed_loop(closed_start + SecondsToNs(closed));
  const int64_t closed_end = NowNs();
  // Throughput per slice of at least half a second: the median of the
  // slices is not moved by one stall.
  const int slices = std::max(1, static_cast<int>(closed / 0.5));
  const double slice_ns =
      static_cast<double>(closed_end - closed_start) / slices;
  std::vector<int64_t> per_slice(static_cast<size_t>(slices), 0);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = closed_from; i < ops_.size(); ++i) {
      if (!ops_[i].ok) continue;
      const int slice = static_cast<int>(
          static_cast<double>(ops_[i].done_ns - closed_start) / slice_ns);
      ++per_slice[static_cast<size_t>(std::clamp(slice, 0, slices - 1))];
    }
  }
  for (int64_t done : per_slice) {
    stats.closed_ops_per_s.Add(static_cast<double>(done) / (slice_ns / 1e9));
  }
  if (!deployment_->network().WaitQuiescent()) {
    tally_->Fail("network did not quiesce after the closed loop");
  }

  // Open loop: Poisson arrivals split over one thread per MDP, with
  // the query client reading LMR 0 beside them.
  const int64_t open_end = NowNs() + SecondsToNs(open);
  std::atomic<bool> stop{false};
  std::thread query([&] {
    std::mt19937_64 rng(seed_ * 7919 + 300 + phase);
    mdv::LocalMetadataRepository* lmr = deployment_->lmr(0);
    while (!stop.load()) {
      const std::string text = corpus_.QueryText(&rng);
      const int64_t start = NowNs();
      const auto result = lmr->Query(text);
      stats.query_ms.Add(MsSince(start));
      tally_->Attempt();
      tally_->Check(result, "lmr query");
      std::lock_guard<std::mutex> lock(mu_);
      if (query_texts_.size() < kMaxRecordedTexts) query_texts_.push_back(text);
    }
  });
  std::thread other([&] {
    OpenLoop({1}, load_.publish_rate / kMdps, open_end, 200 + phase * 8 + 1);
  });
  OpenLoop({0}, load_.publish_rate / kMdps, open_end, 200 + phase * 8);
  other.join();
  stop.store(true);
  query.join();

  const int64_t quiesce_start = NowNs();
  if (!deployment_->network().WaitQuiescent()) {
    tally_->Fail("network did not quiesce after the open loop");
  }
  stats.quiesce_ms.Add(MsSince(quiesce_start));
  return stats;
}

ChurnStats LoadGenerator::RunChurn(double seconds) {
  ChurnStats stats;
  const uint64_t phase = ++phase_counter_;
  const int64_t start = NowNs();
  const int64_t end = start + SecondsToNs(seconds);

  // The browse client: Poisson arrivals at a fixed rate, alternating
  // MDPs, each timed from its due time.
  std::thread browse([&] {
    std::mt19937_64 rng(seed_ * 7919 + 400 + phase);
    std::exponential_distribution<double> gap(load_.browse_rate);
    int64_t due = start;
    for (size_t k = 0;; ++k) {
      due += SecondsToNs(gap(rng));
      if (due > end) break;
      SleepUntilNs(due);
      const std::string text = corpus_.BrowseText(&rng);
      const auto result =
          deployment_->mdp(static_cast<int>(k % kMdps))->Browse(text);
      stats.browse_ms.Add(MsSince(due));
      tally_->Attempt();
      tally_->Check(result, "browse");
    }
  });
  std::thread trickle([&] {
    OpenLoop({0, 1}, load_.trickle_rate, end, 500 + phase);
  });

  // Churn: each step subscribes a new rule through a probe; once the
  // window is full it also drops that MDP's oldest churn rule, so the
  // rule base stays near its initial size.
  std::mt19937_64 rng(seed_ * 7919 + 600 + phase);
  std::exponential_distribution<double> gap(load_.churn_rate);
  int64_t due = start;
  for (size_t k = 0;; ++k) {
    due += SecondsToNs(gap(rng));
    if (due > end) break;
    SleepUntilNs(due);
    const int p = static_cast<int>(k % kMdps);
    const std::string text =
        corpus_.ChurnRuleText(streams_[p]->PickYoung(&rng));
    SubscribeRecord rec;
    rec.probe = p;
    rec.due_ns = due;
    rec.issue_ns = NowNs();
    const auto id = deployment_->mdp(p)->Subscribe(kProbeBase + p, text);
    rec.call_us = static_cast<double>(NowNs() - rec.issue_ns) / 1e3;
    tally_->Attempt();
    rec.ok = tally_->Check(id, "churn subscribe");
    if (rec.ok) rec.id = id.value();
    {
      std::lock_guard<std::mutex> lock(mu_);
      subscribes_.push_back(rec);
    }
    if (!rec.ok) continue;
    std::vector<mdv::pubsub::SubscriptionId>& live = churn_live_[p];
    live.push_back(rec.id);
    if (live.size() > load_.churn_window) {
      const mdv::pubsub::SubscriptionId oldest = live.front();
      live.erase(live.begin());
      const int64_t t0 = NowNs();
      const mdv::Status st = deployment_->mdp(p)->Unsubscribe(oldest);
      stats.unsubscribe_us.Add(static_cast<double>(NowNs() - t0) / 1e3);
      tally_->Attempt();
      tally_->Check(st, "churn unsubscribe");
    }
  }
  trickle.join();
  browse.join();

  if (!deployment_->network().WaitQuiescent()) {
    tally_->Fail("network did not quiesce after the churn");
  }
  return stats;
}

ProbeSamples LoadGenerator::Analyze(size_t ops_from, size_t subs_from) const {
  ProbeSamples out;
  std::lock_guard<std::mutex> lock(mu_);
  int64_t missing = 0;
  for (size_t i = ops_from; i < ops_.size(); ++i) {
    const OpRecord& rec = ops_[i];
    ++out.publish_ops;
    if (!rec.ok) continue;
    switch (rec.op.kind) {
      case Op::Kind::kRegister:
        out.register_us.Add(rec.call_us);
        break;
      case Op::Kind::kUpdate:
        out.update_us.Add(rec.call_us);
        break;
      case Op::Kind::kDelete:
        out.delete_us.Add(rec.call_us);
        break;
    }
    int64_t last = 0;
    for (int p = 0; p < kMdps; ++p) {
      const int64_t at = probes_->OpArrival(rec.op.uid, p);
      if (at == 0) {
        if (++missing <= 5) {
          tally_->Fail(std::string("no notification at probe ") +
                       std::to_string(p) + " for " + OpKindName(rec.op.kind) +
                       " of " + Corpus::DocUri(rec.op.doc));
        } else {
          tally_->Fail("missing notification");
        }
      }
      last = std::max(last, at);
    }
    if (rec.open_loop && last != 0) {
      out.notify_ms.Add(static_cast<double>(last - rec.due_ns) / 1e6);
      out.lag_ms.Add(static_cast<double>(rec.issue_ns - rec.due_ns) / 1e6);
    }
  }
  for (size_t i = subs_from; i < subscribes_.size(); ++i) {
    const SubscribeRecord& rec = subscribes_[i];
    ++out.subscribes;
    if (!rec.ok) continue;
    out.subscribe_call_us.Add(rec.call_us);
    const int64_t at = probes_->SubscribeArrival(rec.probe, rec.id);
    if (at == 0) {
      tally_->Fail("no initial matches for churn subscription " +
                   std::to_string(rec.id));
      continue;
    }
    out.subscribe_ms.Add(static_cast<double>(at - rec.due_ns) / 1e6);
  }
  return out;
}

}  // namespace perfbench
