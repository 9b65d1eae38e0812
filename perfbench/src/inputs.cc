#include "inputs.h"

#include <cmath>

namespace perfbench {

namespace {

constexpr int64_t kMemoryBase = 1000000;
constexpr size_t kCompRanks = 200;  ///< Distinct COMP threshold classes.
constexpr double kZipfS = 1.1;

std::mt19937_64 SeededRng(uint64_t seed, uint64_t stream) {
  std::seed_seq seq{static_cast<uint32_t>(seed), static_cast<uint32_t>(seed >> 32),
                    static_cast<uint32_t>(stream),
                    static_cast<uint32_t>(stream >> 32)};
  return std::mt19937_64(seq);
}

}  // namespace

Corpus::Corpus(size_t path_join_rules, size_t comp_rules, uint64_t seed)
    : path_join_rules_(path_join_rules == 0 ? 1 : path_join_rules),
      seed_(seed) {
  // Zipf over threshold classes: class k takes a share of the rules
  // proportional to 1/(k+1)^s, threshold 10 * (classes - k), so the hot
  // classes are the selective high thresholds and the rule groups the
  // filter shares are skewed the way real rule bases are. Rule i takes
  // the class at Zipf quantile (i + 0.5) / n: the rule base is the same
  // for every seed (so is the lint work it causes), and the seed varies
  // the documents and the operations.
  std::vector<double> cdf;
  double sum = 0;
  for (size_t k = 0; k < kCompRanks; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k + 1), kZipfS);
    cdf.push_back(sum);
  }
  std::vector<int64_t> by_rank;
  for (size_t i = 0; i < comp_rules; ++i) {
    const double q = (static_cast<double>(i) + 0.5) /
                     static_cast<double>(comp_rules) * sum;
    const size_t rank = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), q) - cdf.begin());
    by_rank.push_back(10 * static_cast<int64_t>(kCompRanks - rank));
  }
  // Interleave hot and cold thresholds across the rule order, so every
  // LMR gets a similar mix.
  for (size_t i = 0; i < comp_rules; ++i) {
    thresholds_.push_back(by_rank[(i * 7919) % comp_rules]);
  }
  sorted_thresholds_ = thresholds_;
  std::sort(sorted_thresholds_.begin(), sorted_thresholds_.end());
}

std::string Corpus::RuleText(size_t i) const {
  if (i >= path_join_rules_) {
    return "search CycleProvider c register c where c.synthValue > " +
           std::to_string(thresholds_[i - path_join_rules_]);
  }
  const std::string memory = std::to_string(kMemoryBase + static_cast<int64_t>(i));
  if (i % 4 == 3) {
    return "search CycleProvider c register c "
           "where c.serverHost contains 'uni-passau.de' "
           "and c.serverInformation.cpu = 600 "
           "and c.serverInformation.memory = " + memory;
  }
  return "search CycleProvider c register c "
         "where c.serverInformation.memory = " + memory;
}

int64_t Corpus::DrawSynth(std::mt19937_64* rng) const {
  if (sorted_thresholds_.empty()) return 0;
  const size_t m = std::uniform_int_distribution<size_t>(4, 9)(*rng);
  return sorted_thresholds_[std::min(m, sorted_thresholds_.size() - 1)] + 1;
}

int64_t Corpus::InitialSynth(uint64_t id) const {
  std::mt19937_64 rng = SeededRng(seed_, 1000 + id);
  return DrawSynth(&rng);
}

mdv::rdf::RdfDocument Corpus::MakeDoc(uint64_t id, int64_t synth,
                                      uint64_t marker) const {
  const std::string uri = DocUri(id);
  mdv::rdf::RdfDocument doc(uri);
  mdv::rdf::Resource info("info", "ServerInformation");
  info.AddProperty("memory", mdv::rdf::PropertyValue::Literal(std::to_string(
                                 kMemoryBase + static_cast<int64_t>(
                                                   id % path_join_rules_))));
  info.AddProperty("cpu", mdv::rdf::PropertyValue::Literal("600"));
  mdv::rdf::Resource host("host", "CycleProvider");
  host.AddProperty("serverHost", mdv::rdf::PropertyValue::Literal(
                                     "h" + std::to_string(id) +
                                     ".uni-passau.de"));
  host.AddProperty("serverPort",
                   mdv::rdf::PropertyValue::Literal(std::to_string(marker)));
  host.AddProperty("synthValue",
                   mdv::rdf::PropertyValue::Literal(std::to_string(synth)));
  host.AddProperty("serverInformation",
                   mdv::rdf::PropertyValue::ResourceRef(uri + "#info"));
  Must(doc.AddResource(std::move(info)), "AddResource info");
  Must(doc.AddResource(std::move(host)), "AddResource host");
  return doc;
}

int64_t Corpus::DocIdOf(const std::string& uri_reference) {
  if (uri_reference.size() < 2 || uri_reference[0] != 'd') return -1;
  int64_t id = 0;
  size_t i = 1;
  for (; i < uri_reference.size() && uri_reference[i] >= '0' &&
         uri_reference[i] <= '9';
       ++i) {
    id = id * 10 + (uri_reference[i] - '0');
  }
  return i > 1 && uri_reference.compare(i, 4, ".rdf") == 0 ? id : -1;
}

std::string Corpus::ChurnRuleText(uint64_t id) const {
  return "search CycleProvider c register c "
         "where c.serverInformation.memory = " +
         std::to_string(kMemoryBase +
                        static_cast<int64_t>(id % path_join_rules_)) +
         " and c.serverHost contains 'h" + std::to_string(id) + ".'";
}

std::string Corpus::QueryText(std::mt19937_64* rng) const {
  // A memory value of an equality rule LMR 0 holds (rules 0, 2, 4, ...),
  // so the query names cached documents.
  const size_t i = 2 * std::uniform_int_distribution<size_t>(
                           0, (path_join_rules_ - 1) / 2)(*rng);
  return "search CycleProvider c register c "
         "where c.serverInformation.memory = " +
         std::to_string(kMemoryBase + static_cast<int64_t>(i));
}

std::string Corpus::BrowseText(std::mt19937_64* rng) const {
  const size_t i =
      std::uniform_int_distribution<size_t>(0, path_join_rules_ - 1)(*rng);
  return "search CycleProvider c register c "
         "where c.serverInformation.memory = " +
         std::to_string(kMemoryBase + static_cast<int64_t>(i));
}

const char* OpKindName(Op::Kind kind) {
  switch (kind) {
    case Op::Kind::kRegister:
      return "register";
    case Op::Kind::kUpdate:
      return "update";
    case Op::Kind::kDelete:
      return "delete";
  }
  return "?";
}

OpStream::OpStream(const Corpus* corpus, int owner, int owners,
                   size_t initial_docs, uint64_t seed)
    : corpus_(corpus), owner_(owner), owners_(owners),
      rng_(SeededRng(seed, 100 + static_cast<uint64_t>(owner))) {
  for (uint64_t id = static_cast<uint64_t>(owner); id < initial_docs;
       id += static_cast<uint64_t>(owners)) {
    live_.push_back(id);
  }
  // The first id past the initial corpus that this stream owns.
  next_doc_ = initial_docs;
  while (next_doc_ % static_cast<uint64_t>(owners) !=
         static_cast<uint64_t>(owner)) {
    ++next_doc_;
  }
}

Op OpStream::Next() {
  std::lock_guard<std::mutex> lock(mu_);
  Op op;
  op.uid = (++counter_) * static_cast<uint64_t>(owners_) +
           static_cast<uint64_t>(owner_);
  const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng_);
  // Keep enough documents that deletions and updates always have a
  // target, even in the small-scale mode.
  const bool sparse = live_.size() < 16;
  if (u < 0.6 && !sparse) {
    op.kind = Op::Kind::kUpdate;
    op.doc = live_[std::uniform_int_distribution<size_t>(
        0, live_.size() - 1)(rng_)];
  } else if (u < 0.8 || sparse) {
    op.kind = Op::Kind::kRegister;
    op.doc = next_doc_;
    next_doc_ += static_cast<uint64_t>(owners_);
    live_.push_back(op.doc);
  } else {
    op.kind = Op::Kind::kDelete;
    op.doc = live_.front();
    live_.pop_front();
  }
  op.synth = corpus_->DrawSynth(&rng_);
  return op;
}

uint64_t OpStream::PickYoung(std::mt19937_64* rng) const {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t n = live_.size();
  const size_t skip = std::min<size_t>(4, n / 4);
  const size_t lo = n / 2;
  const size_t hi = n - 1 - skip;
  return live_[std::uniform_int_distribution<size_t>(lo, std::max(lo, hi))(
      *rng)];
}

}  // namespace perfbench
