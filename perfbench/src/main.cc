// mdv_perfbench: one workload of the MDV benchmark, end to end
// (--trace 0) or layer by layer (--trace 1). See ../README.md.
//
//   mdv_perfbench --workload publish_query|restart_rejoin
//                 --seed N --seconds S --trace 0|1 --run-dir DIR
//                 [--scale full|small]
//
// The last line of standard output is the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// A detailed report (sample counts, phase times, failure messages) goes
// to DIR/report.json and the program's log to DIR/mdv.log.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "common.h"
#include "common/logging.h"
#include "deployment.h"
#include "inputs.h"
#include "layers.h"
#include "obs/trace.h"
#include "obs/trace_aggregate.h"
#include "oracle.h"
#include "phases.h"
#include "restart.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool small = false;
  std::string run_dir;
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "mdv_perfbench: %s\nusage: mdv_perfbench --workload W --seed N "
               "--seconds S --trace 0|1 --run-dir DIR [--scale full|small]\n",
               why.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--scale") {
      args.small = value == "small";
    } else if (flag == "--run-dir") {
      args.run_dir = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (args.run_dir.empty() || args.seconds <= 0) Usage("bad arguments");
  return args;
}

/// The workloads (README.md says why each exists). They share every
/// size and rate; only the primary phase differs.
WorkloadSpec SpecFor(const std::string& name, bool small) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "publish_query") {
    spec.primary = Phase::kPublish;
  } else if (name == "restart_rejoin") {
    spec.primary = Phase::kRestart;
  } else {
    Usage("unknown workload " + name);
  }
  // The full-size deployment only runs the publish phase.
  spec.big_deploy = DeploymentSpec{1000, 1800, 200, 4, 2};
  spec.big_load = LoadSpec{20, 0, 0, 0, 0, 0.5, 0.25};
  spec.small_deploy = DeploymentSpec{400, 360, 40, 4, 2};
  spec.small_load = LoadSpec{80, 8, 80, 80, 32, 0.5, 0.25};
  spec.big_restart = RestartSpec{500, 1000, 192, 64, 24};
  spec.small_restart = RestartSpec{100, 200, 96, 32, 16};
  if (small) {
    // The benchmark's own tests: every phase, a fraction of the size.
    spec.big_deploy = DeploymentSpec{200, 180, 20, 4, 2};
    spec.big_load = LoadSpec{60, 0, 0, 0, 0, 0.2, 0.3};
    spec.small_deploy = DeploymentSpec{100, 90, 10, 4, 2};
    spec.small_load = LoadSpec{60, 6, 40, 40, 8, 0.2, 0.3};
    spec.big_restart = RestartSpec{100, 200, 32, 16, 8};
    spec.small_restart = RestartSpec{50, 100, 32, 8, 4};
    spec.setups = 1;
  }
  return spec;
}

double VmHwmMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string MetricsJson(const Metrics& metrics) {
  std::ostringstream out;
  out.precision(17);
  out << "{";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    out << (first ? "" : ", ") << JsonString(name) << ": {\"value\": "
        << metric.value << ", \"unit\": " << JsonString(metric.unit) << "}";
    first = false;
  }
  out << "}";
  return out.str();
}

/// One meshed deployment with its inputs and load generator.
struct Stack {
  std::unique_ptr<Corpus> corpus;
  std::unique_ptr<ProbeLog> probes;
  std::unique_ptr<Deployment> deployment;
  std::unique_ptr<LoadGenerator> generator;

  explicit operator bool() const { return deployment != nullptr; }
  /// Dependents first: the network's handlers point into the probes.
  void Reset() {
    generator.reset();
    deployment.reset();
    probes.reset();
    corpus.reset();
  }
};

/// Everything a run builds before its first timed op: the full-size
/// deployment of a publish primary, the small deployment of the other
/// phases, and the restart phase's WAL image.
struct Fixture {
  Stack big;
  Stack small;
  std::unique_ptr<RestartBench> restart;

  Stack& publish_stack(const WorkloadSpec& spec) {
    return spec.primary == Phase::kPublish ? big : small;
  }
  void Reset() {
    restart.reset();
    small.Reset();
    big.Reset();
  }
};

void BuildStack(const DeploymentSpec& deploy, const LoadSpec& load,
                uint64_t seed, Tally* tally, Stack* stack) {
  stack->corpus = std::make_unique<Corpus>(deploy.path_join_rules,
                                           deploy.comp_rules, seed);
  stack->probes = std::make_unique<ProbeLog>();
  stack->deployment = std::make_unique<Deployment>(deploy, *stack->corpus,
                                                   stack->probes.get());
  stack->generator = std::make_unique<LoadGenerator>(load, *stack->corpus,
                                           stack->deployment.get(),
                                           stack->probes.get(), seed, tally);
}

void BuildFixture(const WorkloadSpec& spec, const Args& args, Tally* tally,
                  Fixture* f) {
  // Tear the previous repetition down first: one deployment at a time.
  f->Reset();
  if (spec.primary != Phase::kRestart) {
    BuildStack(spec.big_deploy, spec.big_load, args.seed, tally, &f->big);
  }
  BuildStack(spec.small_deploy, spec.small_load, args.seed + 1, tally,
             &f->small);
  f->restart = std::make_unique<RestartBench>(
      spec.primary == Phase::kRestart ? spec.big_restart : spec.small_restart,
      args.seed, (fs::path(args.run_dir) / "restart").string());
  f->restart->BuildImage();
}

/// The samples of one pass over the phases.
struct PassResult {
  PublishStats publish;
  ProbeSamples publish_probes;
  ChurnStats churn;
  ProbeSamples churn_probes;
  RestartResult restart;
  double publish_s = 0, churn_s = 0, restart_s = 0;  ///< Wall time.
};

const std::vector<Phase> kAllPhases = {Phase::kPublish, Phase::kChurn,
                                       Phase::kRestart};

/// Rounds each pass is split into: every phase runs once per round, so
/// each phase's samples spread over the whole run instead of one block
/// of it, and a slow stretch of the host moves all of them a little
/// rather than one of them a lot.
constexpr int kRounds = 3;

/// Runs the phases named in `phases`, each for an equal share of
/// `seconds`: a small phase needs as many samples as a full-size one
/// for its figures to be as steady.
PassResult RunPass(const WorkloadSpec& spec, double seconds,
                   const std::vector<Phase>& phases, Fixture* f,
                   Tally* tally) {
  PassResult pass;
  for (int round = 0; round < kRounds; ++round) {
    for (Phase phase : phases) {
      const double s =
          seconds / static_cast<double>(kAllPhases.size()) / kRounds;
      const int64_t start = NowNs();
      if (phase == Phase::kPublish) {
        LoadGenerator& d = *f->publish_stack(spec).generator;
        const size_t ops = d.op_count(), subs = d.subscribe_count();
        const PublishStats stats = d.RunPublish(s, round == 0);
        pass.publish.closed_ops_per_s.Append(stats.closed_ops_per_s);
        pass.publish.query_ms.Append(stats.query_ms);
        pass.publish.quiesce_ms.Append(stats.quiesce_ms);
        Merge(&pass.publish_probes, d.Analyze(ops, subs));
        pass.publish_s += MsSince(start) / 1e3;
      } else if (phase == Phase::kChurn) {
        LoadGenerator& d = *f->small.generator;
        const size_t ops = d.op_count(), subs = d.subscribe_count();
        const ChurnStats stats = d.RunChurn(s);
        pass.churn.browse_ms.Append(stats.browse_ms);
        pass.churn.unsubscribe_us.Append(stats.unsubscribe_us);
        Merge(&pass.churn_probes, d.Analyze(ops, subs));
        pass.churn_s += MsSince(start) / 1e3;
      } else {
        f->restart->Run(s, &pass.restart, tally);
        pass.restart_s += MsSince(start) / 1e3;
      }
    }
  }
  return pass;
}

/// After the passes: each deployment's LMR caches against Browse, and
/// no probe saw any op twice.
void CheckStack(const Stack& stack, const std::string& name, Tally* tally) {
  if (!stack) return;
  Deployment& d = *stack.deployment;
  for (int l = 0; l < kLmrs; ++l) {
    mdv::MetadataProvider* mdp = d.mdp(d.mdp_of_lmr(l));
    SubscriptionList subs;
    for (const mdv::pubsub::Subscription* sub :
         mdp->subscriptions().ByLmr(d.lmr(l)->id())) {
      subs.emplace_back(sub->id, sub->rule_text);
    }
    CheckCacheAgainstBrowse(*d.lmr(l), mdp, subs, 24,
                            name + " lmr" + std::to_string(l), tally);
  }
  for (int64_t i = 0; i < stack.probes->duplicates(); ++i) {
    tally->Fail(name + ": duplicate notification at a probe");
  }
}

/// The end-to-end metric each workload's tracing overhead is read from.
double PrimaryE2e(const WorkloadSpec& spec, const PassResult& pass) {
  return spec.primary == Phase::kPublish
             ? pass.publish_probes.notify_ms.Median()
             : pass.restart.recover_ms.Median();
}

void Put(Metrics* out, const std::string& name, double value,
         const std::string& unit) {
  (*out)[name] = Metric{value, unit};
}

void EndToEndMetrics(const PassResult& p, const Samples& setup_s,
                     Metrics* out) {
  Put(out, "setup_s", setup_s.Median(), "s");
  Put(out, "notify_p50_ms", p.publish_probes.notify_ms.Percentile(50), "ms");
  Put(out, "publish_docs_per_s", p.publish.closed_ops_per_s.Median(), "ops/s");
  Put(out, "subscribe_p50_ms", p.churn_probes.subscribe_ms.Percentile(50),
      "ms");
  Put(out, "subscribe_p99_ms", p.churn_probes.subscribe_ms.Percentile(99),
      "ms");
  Put(out, "browse_p50_ms", p.churn.browse_ms.Percentile(50), "ms");
  Put(out, "recover_ms", p.restart.recover_ms.Median(), "ms");
  Put(out, "rejoin_ms", p.restart.rejoin_ms.Median(), "ms");
  Put(out, "join_full_ms", p.restart.join_full_ms.Median(), "ms");
  Put(out, "durable_publish_docs_per_s", p.restart.durable_docs_per_s.Median(),
      "ops/s");
}

void PerLayerMetrics(const PassResult& p, Metrics* out) {
  const ProbeSamples& pub = p.publish_probes;
  // Tails whose run-to-run spread on a shared 4-CPU host exceeds any
  // bound the benchmark may set: reported here, unbounded.
  Put(out, "notify_p99_ms", pub.notify_ms.Percentile(99), "ms");
  Put(out, "query_p50_ms", p.publish.query_ms.Percentile(50), "ms");
  Put(out, "query_p90_ms", p.publish.query_ms.Percentile(90), "ms");
  Put(out, "driver.lag_p99_ms", pub.lag_ms.Percentile(99), "ms");
  Put(out, "mdv.register_us", pub.register_us.Median(), "us");
  Put(out, "mdv.update_us", pub.update_us.Median(), "us");
  Put(out, "mdv.delete_us", pub.delete_us.Median(), "us");
  const Samples& sub = p.churn_probes.subscribe_call_us;
  Put(out, "mdv.subscribe_us_p50", sub.Percentile(50), "us");
  Put(out, "mdv.subscribe_us_p99", sub.Percentile(99), "us");
  Put(out, "mdv.unsubscribe_us_p50", p.churn.unsubscribe_us.Percentile(50),
      "us");
  Put(out, "mdv.unsubscribe_us_p99", p.churn.unsubscribe_us.Percentile(99),
      "us");
  Put(out, "mdv.lmr_query_us_p50", 1e3 * p.publish.query_ms.Percentile(50),
      "us");
  Put(out, "mdv.lmr_query_us_p90", 1e3 * p.publish.query_ms.Percentile(90),
      "us");
  Put(out, "mdv.quiesce_ms", p.publish.quiesce_ms.Median(), "ms");
  Put(out, "mdv.join_bytes_delta", p.restart.join_bytes_delta.Median(),
      "bytes");
  Put(out, "mdv.join_bytes_full", p.restart.join_bytes_full.Median(), "bytes");
  Put(out, "wal.replay_records_per_s",
      p.restart.replay_records_per_s.Median(), "records/s");
  Put(out, "wal.bytes_per_op", p.restart.wal_bytes_per_op.Median(), "bytes");
}

void SloStageMetrics(const mdv::obs::TraceAggregator& aggregator,
                     Metrics* out) {
  for (const char* stage : {"ingest", "filter", "publish", "transport",
                            "deliver", "holdback", "apply"}) {
    Put(out, std::string("slo.stage.") + stage + "_p50_us",
        aggregator.StageSnapshot(stage).Percentile(50), "us");
  }
}

void WriteReport(const Args& args, const Metrics& metrics, const Tally& tally,
                 const PassResult& pass, const Samples& setup_s) {
  std::ofstream report(fs::path(args.run_dir) / "report.json");
  report << "{\"workload\": " << JsonString(args.workload)
         << ", \"seed\": " << args.seed << ", \"seconds\": " << args.seconds
         << ", \"trace\": " << (args.trace ? 1 : 0)
         << ", \"scale\": " << JsonString(args.small ? "small" : "full")
         << ",\n \"samples\": {\"notify\": "
         << pass.publish_probes.notify_ms.size()
         << ", \"query\": " << pass.publish.query_ms.size()
         << ", \"subscribe\": " << pass.churn_probes.subscribe_ms.size()
         << ", \"browse\": " << pass.churn.browse_ms.size()
         << ", \"publish_ops\": " << pass.publish_probes.publish_ops
         << ", \"trickle_notify\": " << pass.churn_probes.notify_ms.size()
         << ", \"restart_cycles\": " << pass.restart.cycles
         << ", \"setups\": " << setup_s.size() << "},\n \"phase_s\": {"
         << "\"setup\": " << setup_s.Sum() << ", \"publish\": "
         << pass.publish_s << ", \"churn\": " << pass.churn_s
         << ", \"restart\": " << pass.restart_s << "},\n \"attempted\": "
         << tally.attempted() << ", \"failed\": " << tally.failed()
         << ",\n \"failures\": [";
  bool first = true;
  for (const std::string& message : tally.messages()) {
    report << (first ? "" : ", ") << JsonString(message);
    first = false;
  }
  report << "],\n \"metrics\": " << MetricsJson(metrics) << "}\n";
  // The raw samples behind the percentiles, in measurement order.
  std::ofstream raw(fs::path(args.run_dir) / "samples.json");
  auto list = [&](const char* name, const Samples& samples, bool last) {
    raw << "\"" << name << "\": [";
    for (size_t i = 0; i < samples.size(); ++i) {
      raw << (i ? ", " : "") << samples.values()[i];
    }
    raw << "]" << (last ? "}\n" : ",\n ");
  };
  raw << "{";
  list("notify_ms", pass.publish_probes.notify_ms, false);
  list("query_ms", pass.publish.query_ms, false);
  list("subscribe_ms", pass.churn_probes.subscribe_ms, false);
  list("browse_ms", pass.churn.browse_ms, false);
  list("recover_ms", pass.restart.recover_ms, false);
  list("rejoin_ms", pass.restart.rejoin_ms, false);
  list("join_full_ms", pass.restart.join_full_ms, false);
  list("durable_docs_per_s", pass.restart.durable_docs_per_s, false);
  list("closed_ops_per_s", pass.publish.closed_ops_per_s, true);
}

int Run(const Args& args) {
  fs::create_directories(args.run_dir);
  // Log lines go to a file in the run directory, so terminal speed never
  // enters a number.
  std::FILE* log =
      std::fopen((fs::path(args.run_dir) / "mdv.log").c_str(), "a");
  if (log == nullptr) Fatal("cannot open the log file");
  mdv::SetLogSink([log](mdv::LogLevel, const std::string& message) {
    std::fprintf(log, "%s\n", message.c_str());
  });
  mdv::obs::Tracer& tracer = mdv::obs::DefaultTracer();
  tracer.set_enabled(false);

  const WorkloadSpec spec = SpecFor(args.workload, args.small);
  Tally tally;
  Fixture fixture;
  Samples setup_s;
  for (int k = 0; k < (args.trace ? 1 : spec.setups); ++k) {
    const int64_t start = NowNs();
    BuildFixture(spec, args, &tally, &fixture);
    setup_s.Add(static_cast<double>(NowNs() - start) / 1e9);
  }
  Stack& main_stack = spec.primary == Phase::kRestart ? fixture.small
                                                      : fixture.big;

  Metrics metrics;
  PassResult pass;
  if (!args.trace) {
    pass = RunPass(spec, args.seconds, kAllPhases, &fixture, &tally);
    CheckStack(fixture.big, "big", &tally);
    CheckStack(fixture.small, "small", &tally);
    EndToEndMetrics(pass, setup_s, &metrics);
    Put(&metrics, "peak_rss_mb", VmHwmMb(), "MB");
  } else {
    // Half the run untraced, primary phase only (the base of the
    // tracing overhead); half traced, every phase, the tracer retaining
    // every span.
    const double half = args.seconds / 2;
    const PassResult untraced =
        RunPass(spec, half, {spec.primary}, &fixture, &tally);

    tracer.SetCapacity(size_t{1} << 23);
    main_stack.probes->StartCapture(4000);
    const mdv::obs::MetricsSnapshot before =
        mdv::obs::DefaultMetrics().Snapshot();
    tracer.set_enabled(true);
    pass = RunPass(spec, half, kAllPhases, &fixture, &tally);
    tracer.set_enabled(false);
    const mdv::obs::MetricsSnapshot after =
        mdv::obs::DefaultMetrics().Snapshot();

    mdv::obs::TraceAggregator aggregator;
    aggregator.IngestTracer(tracer);
    if (aggregator.dropped_spans() > 0 || aggregator.incomplete_traces() > 0) {
      std::fprintf(stderr,
                   "perfbench: trace data lost: %lld dropped spans, %lld "
                   "incomplete traces of %lld\n",
                   static_cast<long long>(aggregator.dropped_spans()),
                   static_cast<long long>(aggregator.incomplete_traces()),
                   static_cast<long long>(aggregator.traces()));
      return 3;
    }
    tracer.SetCapacity(1);  // Release the retained spans.

    PerLayerMetrics(pass, &metrics);
    SloStageMetrics(aggregator, &metrics);
    CounterRatios(before, after,
                  pass.publish_probes.publish_ops +
                      pass.churn_probes.publish_ops +
                      pass.restart.cycles * static_cast<int64_t>(
                          fixture.restart->spec().burst_docs),
                  pass.churn_probes.subscribes + pass.restart.subscribes,
                  spec.big_deploy.workers, &metrics);
    int64_t queue_depth = 0;
    for (const Stack* s : {&fixture.big, &fixture.small}) {
      if (*s) queue_depth = std::max(queue_depth, s->generator->queue_depth_max());
    }
    Put(&metrics, "net.queue_depth_max", static_cast<double>(queue_depth),
        "frames");
    const double base = PrimaryE2e(spec, untraced);
    Put(&metrics, "obs.trace_overhead_pct",
        base > 0 ? 100.0 * (PrimaryE2e(spec, pass) / base - 1.0) : 0.0, "%");

    CheckStack(fixture.big, "big", &tally);
    CheckStack(fixture.small, "small", &tally);
    LayerInputs in;
    in.deploy = &main_stack.deployment->spec();
    in.corpus = main_stack.corpus.get();
    in.deployment = main_stack.deployment.get();
    in.generator = main_stack.generator.get();
    in.notes = main_stack.probes->TakeCaptured();
    in.restart = &pass.restart;
    in.scratch_dir = (fs::path(args.run_dir) / "scratch").string();
    in.seed = args.seed;
    ReplayLayers(in, &metrics, &tally);
    Put(&metrics, "error_ratio",
        static_cast<double>(tally.failed()) /
            static_cast<double>(std::max<int64_t>(tally.attempted(), 1)),
        "fraction");
  }

  WriteReport(args, metrics, tally, pass, setup_s);
  for (const std::string& message : tally.messages()) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", message.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              tally.failed() == 0 ? "true" : "false",
              static_cast<long long>(std::max<int64_t>(tally.attempted(), 1)),
              static_cast<long long>(tally.failed()),
              MetricsJson(metrics).c_str());
  std::fflush(stdout);
  // Shut the deployments down before the log sink's file closes.
  fixture.Reset();
  mdv::SetLogSink(nullptr);
  std::fclose(log);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Run(perfbench::ParseArgs(argc, argv));
}
