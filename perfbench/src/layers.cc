#include "layers.h"

#include <filesystem>
#include <random>

#include "bench_support/workload.h"
#include "filter/data_store.h"
#include "mdv/lmr.h"
#include "net/wire.h"
#include "rdf/schema.h"
#include "rules/compiler.h"
#include "rules/evaluator.h"
#include "wal/log.h"

namespace perfbench {

namespace fs = std::filesystem;

namespace {

double UsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e3;
}

void Put(Metrics* out, const std::string& name, double value,
         const std::string& unit) {
  (*out)[name] = Metric{value, unit};
}

/// Rule texts of the rule base the fixture holds: MDP 0's share.
std::vector<std::string> Mdp0Rules(const Corpus& corpus) {
  std::vector<std::string> texts;
  for (size_t i = 0; i < corpus.num_rules(); ++i) {
    if (LmrOfRule(corpus, i) < kLmrs / kMdps) {
      texts.push_back(corpus.RuleText(i));
    }
  }
  return texts;
}

void ReplayRulesAndFilter(const LayerInputs& in, Metrics* out, Tally* tally) {
  const mdv::rdf::RdfSchema schema = mdv::rdf::MakeObjectGlobeSchema();
  const Corpus& corpus = *in.corpus;
  std::mt19937_64 rng(in.seed * 7919 + 900);

  // Churn-shaped rules over documents the fixture holds.
  std::vector<std::string> churn;
  for (int i = 0; i < 100; ++i) {
    churn.push_back(corpus.ChurnRuleText(std::uniform_int_distribution<uint64_t>(
        in.deploy->docs / 2, in.deploy->docs - 1)(rng)));
  }

  // rules.compile_us over the workload's rule texts.
  const std::vector<std::string> base = Mdp0Rules(corpus);
  Samples compile_us;
  for (size_t i = 0; i < base.size(); i += std::max<size_t>(1, base.size() / 200)) {
    const int64_t t0 = NowNs();
    const auto compiled = mdv::rules::CompileRule(base[i], schema);
    compile_us.Add(UsSince(t0));
    tally->Check(compiled, "fixture compile");
  }
  for (const std::string& text : churn) {
    const int64_t t0 = NowNs();
    const auto compiled = mdv::rules::CompileRule(text, schema);
    compile_us.Add(UsSince(t0));
    tally->Check(compiled, "fixture compile");
  }
  Put(out, "rules.compile_us", compile_us.Median(), "us");

  // The fixture at the workload's per-MDP rule-base size, linted the way
  // an MDP registers rules, holding the initial corpus.
  mdv::filter::RuleStoreOptions rule_options;
  rule_options.num_shards = 4;
  mdv::bench_support::FilterFixture fixture(rule_options);
  for (const std::string& text : base) {
    const auto compiled = Must(mdv::rules::CompileRule(text, schema), "compile");
    Must(fixture.store().AddRule(compiled, schema), "fixture rule");
  }
  std::vector<mdv::rdf::RdfDocument> batch;
  for (uint64_t id = 0; id < in.deploy->docs; ++id) {
    batch.push_back(corpus.MakeDoc(id, corpus.InitialSynth(id), 0));
    if (batch.size() == 100 || id + 1 == in.deploy->docs) {
      Must(fixture.RegisterDocumentBatch(batch), "fixture corpus");
      batch.clear();
    }
  }

  // filter.run_us and rdbms.insert_atoms_us per captured registration.
  Samples insert_us, run_us;
  size_t replayed = 0;
  for (const OpRecord& rec : in.generator->ops()) {
    if (rec.op.kind != Op::Kind::kRegister || replayed >= 300) continue;
    ++replayed;
    const mdv::rdf::Statements delta =
        corpus.MakeDoc(rec.op.doc, rec.op.synth, rec.op.uid).ToStatements();
    int64_t t0 = NowNs();
    tally->Check(mdv::filter::InsertAtoms(&fixture.db(), delta),
                 "fixture insert atoms");
    insert_us.Add(UsSince(t0));
    t0 = NowNs();
    tally->Check(fixture.engine().Run(delta), "fixture run");
    run_us.Add(UsSince(t0));
  }
  Put(out, "rdbms.insert_atoms_us", insert_us.Median(), "us");
  Put(out, "filter.run_us", run_us.Median(), "us");

  // filter.add_rule_us and filter.evaluate_new_rules_us per churn rule,
  // each released again so the base stays at its size.
  Samples add_us, evaluate_us;
  for (const std::string& text : churn) {
    const auto compiled = Must(mdv::rules::CompileRule(text, schema), "compile");
    int64_t t0 = NowNs();
    const auto added = fixture.store().AddRule(compiled, schema);
    add_us.Add(UsSince(t0));
    if (!tally->Check(added, "fixture add rule")) continue;
    std::vector<int64_t> to_evaluate = added->created;
    if (std::find(to_evaluate.begin(), to_evaluate.end(),
                  added->end_rule_id) == to_evaluate.end()) {
      to_evaluate.push_back(added->end_rule_id);
    }
    t0 = NowNs();
    tally->Check(fixture.engine().EvaluateNewRules(to_evaluate),
                 "fixture evaluate new rules");
    evaluate_us.Add(UsSince(t0));
    tally->Check(fixture.store().Unregister(added->end_rule_id),
                 "fixture unregister");
  }
  Put(out, "filter.add_rule_us", add_us.Median(), "us");
  Put(out, "filter.evaluate_new_rules_us", evaluate_us.Median(), "us");

  // rules.evaluate_us: the query texts over LMR 0's quiesced cache.
  const mdv::LocalMetadataRepository& lmr = *in.deployment->lmr(0);
  mdv::rules::ResourceMap resources;
  for (const std::string& uri : lmr.CachedUris()) {
    const mdv::CacheEntry* entry = lmr.Find(uri);
    if (entry != nullptr) resources[uri] = &entry->resource;
  }
  std::vector<std::string> queries = in.generator->query_texts();
  while (queries.size() < 20) queries.push_back(corpus.QueryText(&rng));
  queries.resize(20);
  Samples rule_eval_us;
  for (const std::string& text : queries) {
    const int64_t t0 = NowNs();
    const auto matches = mdv::rules::EvaluateRuleText(text, schema, resources);
    rule_eval_us.Add(UsSince(t0));
    tally->Check(matches, "evaluate query text");
  }
  Put(out, "rules.evaluate_us", rule_eval_us.Median(), "us");
}

void ReplayNotifications(const LayerInputs& in, Metrics* out, Tally* tally) {
  // mdv.lmr_apply_us: the probe-captured stream applied to a shadow
  // volatile LMR on a private synchronous network.
  mdv::Network shadow_network;
  mdv::LocalMetadataRepository shadow(kProbeBase + 100,
                                      &in.deployment->system().schema(),
                                      in.deployment->mdp(0), &shadow_network);
  Samples apply_us;
  for (const mdv::pubsub::Notification& note : in.notes) {
    const int64_t t0 = NowNs();
    shadow.ApplyNotification(note);
    apply_us.Add(UsSince(t0));
  }
  Put(out, "mdv.lmr_apply_us", apply_us.Median(), "us");

  // net.*: the wire codec over the same notifications.
  int64_t encode_ns = 0, decode_ns = 0, bytes = 0, frames = 0;
  for (int pass = 0; pass < 3; ++pass) {
    for (size_t i = 0; i < in.notes.size(); ++i) {
      mdv::net::NotifyFrame frame;
      frame.sender = 1;
      frame.sequence = i + 1;
      frame.notification = in.notes[i];
      int64_t t0 = NowNs();
      const std::string encoded = mdv::net::EncodeNotifyFrame(frame);
      encode_ns += NowNs() - t0;
      t0 = NowNs();
      const auto decoded = mdv::net::DecodeFrame(encoded);
      decode_ns += NowNs() - t0;
      tally->Check(decoded, "decode captured frame");
      bytes += static_cast<int64_t>(encoded.size());
      ++frames;
    }
  }
  const double n = static_cast<double>(std::max<int64_t>(frames, 1));
  Put(out, "net.encode_ns_per_note", static_cast<double>(encode_ns) / n, "ns");
  Put(out, "net.decode_ns_per_note", static_cast<double>(decode_ns) / n, "ns");
  Put(out, "net.bytes_per_note", static_cast<double>(bytes) / n, "bytes");
}

void ReplayWal(const LayerInputs& in, Metrics* out, Tally* tally) {
  struct Policy {
    const char* name;
    mdv::wal::FsyncPolicy fsync;
    size_t appends;
  };
  const Policy policies[] = {{"none", mdv::wal::FsyncPolicy::kNone, 400},
                             {"batch", mdv::wal::FsyncPolicy::kBatch, 400},
                             {"always", mdv::wal::FsyncPolicy::kAlways, 100}};
  const std::vector<std::string>& payloads = in.restart->burst_payloads;
  for (const Policy& policy : policies) {
    const fs::path dir = fs::path(in.scratch_dir) / ("wal_" + std::string(policy.name));
    fs::remove_all(dir);
    mdv::wal::WalOptions options;
    options.dir = dir.string();
    options.fsync = policy.fsync;
    mdv::wal::Manifest meta;
    meta.kind = "mdp";
    auto journal = Must(mdv::wal::Journal::Open(options, meta), "scratch wal");
    Samples append_us;
    for (size_t i = 0; i < policy.appends && !payloads.empty(); ++i) {
      const int64_t t0 = NowNs();
      tally->Check(journal->Append(1, payloads[i % payloads.size()]),
                   "scratch wal append");
      append_us.Add(UsSince(t0));
    }
    journal.reset();
    fs::remove_all(dir);
    Put(out, std::string("wal.append_us.") + policy.name, append_us.Median(),
        "us");
  }
}

int64_t Delta(const mdv::obs::MetricsSnapshot& before,
              const mdv::obs::MetricsSnapshot& after, const std::string& name) {
  auto value = [&](const mdv::obs::MetricsSnapshot& s) -> int64_t {
    auto it = s.counters.find(name);
    return it == s.counters.end() ? 0 : it->second;
  };
  return value(after) - value(before);
}

/// Sum of counter deltas over names with `prefix` and `suffix`.
int64_t DeltaSum(const mdv::obs::MetricsSnapshot& before,
                 const mdv::obs::MetricsSnapshot& after,
                 const std::string& prefix, const std::string& suffix) {
  int64_t sum = 0;
  for (const auto& [name, value] : after.counters) {
    if (name.compare(0, prefix.size(), prefix) != 0 ||
        name.size() < suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    sum += Delta(before, after, name);
  }
  return sum;
}

double Ratio(int64_t num, int64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

void ReplayLayers(const LayerInputs& in, Metrics* out, Tally* tally) {
  ReplayRulesAndFilter(in, out, tally);
  ReplayNotifications(in, out, tally);
  ReplayWal(in, out, tally);
}

void CounterRatios(const mdv::obs::MetricsSnapshot& before,
                   const mdv::obs::MetricsSnapshot& after,
                   int64_t publish_ops, int64_t subscribes, int workers,
                   Metrics* out) {
  auto d = [&](const std::string& name) { return Delta(before, after, name); };
  Put(out, "filter.index_hit_ratio",
      Ratio(d("mdv.filter.index_hits_total"), d("mdv.filter.index_probes_total")),
      "ratio");
  Put(out, "filter.pool_utilization_pct",
      100.0 * Ratio(d("mdv.filter.pool.busy_us_total"),
                    d("mdv.filter.pool.wall_us_total") * workers),
      "%");
  Put(out, "rdbms.rows_examined_per_lookup",
      Ratio(DeltaSum(before, after, "mdv.rdbms.table.", ".rows_examined_total"),
            DeltaSum(before, after, "mdv.rdbms.table.", ".index_lookups_total")),
      "rows");
  const int64_t notes = d("mdv.publish.notifications_total");
  Put(out, "pubsub.notes_per_op", Ratio(notes, publish_ops), "notes");
  Put(out, "pubsub.resources_per_note",
      Ratio(d("mdv.publish.resources_shipped_total"), notes), "resources");
  Put(out, "rules.lint_checks_per_subscribe",
      Ratio(d("mdv.lint.checked_total"), subscribes), "checks");
  Put(out, "net.redelivered_ratio",
      Ratio(d("mdv.net.redelivered_total"), d("mdv.net.enqueued_total")),
      "ratio");
  Put(out, "net.dedup_ratio",
      Ratio(d("mdv.net.dedup_suppressed_total"), d("mdv.net.delivered_total")),
      "ratio");
}

}  // namespace perfbench
