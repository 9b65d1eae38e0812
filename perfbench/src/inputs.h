// Seeded input generation: the rule base, the document corpus, the
// publish op streams and the churn/query/browse texts. The program under
// test sees only what these produce; the same seed gives the same inputs.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include "common.h"
#include "rdf/document.h"

namespace perfbench {

/// The §4 rule types over the ObjectGlobe schema. Rules [0, path_join)
/// are PATH (three in four) or JOIN equality rules on one memory value
/// each, so each matches the documents carrying that value; the rest are
/// COMP thresholds drawn Zipf-skewed, hot thresholds being the selective
/// (high) ones. Documents pick a synthValue that clears 5-10 thresholds.
class Corpus {
 public:
  Corpus(size_t path_join_rules, size_t comp_rules, uint64_t seed);

  size_t num_rules() const { return path_join_rules_ + thresholds_.size(); }
  size_t path_join_rules() const { return path_join_rules_; }
  std::string RuleText(size_t i) const;

  /// A synthValue that matches about 5-10 COMP rules.
  int64_t DrawSynth(std::mt19937_64* rng) const;
  /// The synthValue of initial document `id` (fixed by the seed).
  int64_t InitialSynth(uint64_t id) const;

  /// Document `id`: one CycleProvider ("#host") strongly referencing one
  /// ServerInformation ("#info"). `marker` goes into serverPort, so a
  /// notification carrying the host names the op that produced it.
  mdv::rdf::RdfDocument MakeDoc(uint64_t id, int64_t synth, uint64_t marker) const;
  static std::string DocUri(uint64_t id) {
    return "d" + std::to_string(id) + ".rdf";
  }
  /// Document id of a "d<id>.rdf#..." reference, or -1.
  static int64_t DocIdOf(const std::string& uri_reference);

  /// A rule matching exactly document `id` (non-empty initial match set
  /// while the document lives), distinct from every base rule.
  std::string ChurnRuleText(uint64_t id) const;
  /// LMR query / MDP browse texts: PATH equalities.
  std::string QueryText(std::mt19937_64* rng) const;
  std::string BrowseText(std::mt19937_64* rng) const;

 private:
  size_t path_join_rules_;
  uint64_t seed_;
  std::vector<int64_t> thresholds_;         // COMP rule order.
  std::vector<int64_t> sorted_thresholds_;  // Ascending.
};

/// One publish operation.
struct Op {
  enum class Kind { kRegister, kUpdate, kDelete };
  Kind kind = Kind::kRegister;
  uint64_t uid = 0;  ///< Unique, non-zero; the document's marker.
  uint64_t doc = 0;
  int64_t synth = 0;
};
const char* OpKindName(Op::Kind kind);

/// The op stream of one publisher: it owns the documents whose id is
/// `owner` modulo `owners`, so every op on a document is issued by one
/// thread in order. Mix: 50% update of a random live document (the
/// three-pass protocol), 25% registration of a new one, 25% deletion of
/// the oldest, which holds the corpus near its initial size.
/// Thread-safe: Next() and PickYoung() may run on different threads.
class OpStream {
 public:
  OpStream(const Corpus* corpus, int owner, int owners, size_t initial_docs,
           uint64_t seed);

  Op Next();
  /// A random live document among the newest half, skipping the very
  /// newest (whose registration may still be on its way): safe to
  /// subscribe to with a non-empty initial match set.
  uint64_t PickYoung(std::mt19937_64* rng) const;

 private:
  const Corpus* corpus_;
  const int owner_;
  const int owners_;
  mutable std::mutex mu_;
  std::mt19937_64 rng_;
  std::deque<uint64_t> live_;
  uint64_t next_doc_;
  uint64_t counter_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
