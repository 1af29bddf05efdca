// The repository's serving benchmark. One workload per invocation:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>]
//   perfbench --self-test
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
// of a separate traced run (spans written to <dir> when --out is given).
// Human-readable lines go first; the last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"}. Exit status 0
// on a correct run, 1 when any request was refused, failed or answered
// wrong (or a pool grew mid-run), 2 on a usage or set-up error.
// See README.md for every metric's definition and clock.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "analytics/server.h"
#include "datagen/datagen.h"
#include "gpu/platform.h"
#include "metrics.h"
#include "serving.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using gtadoc::CorpusServer;
using Clock = std::chrono::steady_clock;

/// Set-ups per untraced run; setup_s reports their median.
constexpr int kSetupRepeats = 5;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool self_test = false;
  std::string out_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      args->self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--out") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return args->self_test || have_workload;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Simulated end-to-end latency of one served request: the probe work the
/// server charged at Submit, the queue wait, and the run itself.
double SimLatencyS(const Outcome& o) {
  return o.admission.admission_seconds + o.queue_wait_s +
         (o.completion_s - o.start_s);
}

/// The served requests among the first `window` outcomes.
std::vector<const Outcome*> Window(const std::vector<Outcome>& outcomes,
                                   size_t window) {
  std::vector<const Outcome*> out;
  for (size_t i = 0; i < outcomes.size() && i < window; ++i) {
    if (outcomes[i].served) out.push_back(&outcomes[i]);
  }
  return out;
}

/// Simulated span of the window's bursts. The client's bursts are serial
/// (each waits for all its replies), so the span is the sum over bursts of
/// last completion - first submit on the scheduler's clock, plus the probe
/// seconds the burst's Submits charged (they precede queueing and are not
/// on that clock). For a closed loop this is the sum of simulated latencies.
double SimSpanS(const std::vector<Outcome>& outcomes, size_t window,
                size_t burst) {
  double span = 0;
  for (size_t lo = 0; lo < window && lo < outcomes.size(); lo += burst) {
    double first = 0, last = 0, probes = 0;
    bool any = false;
    for (size_t i = lo; i < lo + burst && i < window && i < outcomes.size();
         ++i) {
      const Outcome& o = outcomes[i];
      if (!o.served) continue;
      const double submit = o.start_s - o.queue_wait_s;
      first = any ? std::min(first, submit) : submit;
      last = any ? std::max(last, o.completion_s) : o.completion_s;
      probes += o.admission.admission_seconds;
      any = true;
    }
    if (any) span += last - first + probes;
  }
  return span;
}

std::vector<double> Ms(const std::vector<double>& seconds) {
  std::vector<double> out;
  out.reserve(seconds.size());
  for (double s : seconds) out.push_back(s * 1e3);
  return out;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

void PrintTally(const Tally& tally, const std::vector<Outcome>& outcomes) {
  std::printf(
      "requests: attempted=%llu served=%zu rejected=%llu failed=%llu "
      "wrong=%llu error_rate=%.6f\n",
      static_cast<unsigned long long>(tally.attempted),
      static_cast<size_t>(std::count_if(
          outcomes.begin(), outcomes.end(),
          [](const Outcome& o) { return o.served; })),
      static_cast<unsigned long long>(tally.rejected),
      static_cast<unsigned long long>(tally.failed),
      static_cast<unsigned long long>(tally.wrong), tally.error_rate());
}

/// Prints the metrics and the result line; returns the exit status.
int Finish(const MetricSet& metrics, const Tally& tally, uint64_t growths) {
  std::printf("metrics:\n");
  metrics.Print(stdout);
  bool correct = tally.bad() == 0 && growths == 0;
  for (const std::string& refused : metrics.refused()) {
    std::printf("percentile refused, too few samples: %s\n", refused.c_str());
    correct = false;
  }
  if (growths > 0) {
    std::printf("mid-run pool growths: %llu (must be 0)\n",
                static_cast<unsigned long long>(growths));
  }
  std::printf("%s\n", ResultJson(correct, tally.attempted, tally.bad(),
                                 metrics)
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int Fail(const std::string& what, const gtadoc::Status& status) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  return 2;
}

/// --trace 0: set up kSetupRepeats times (setup_s is the median), then
/// measure the closed loop / bursts on the last server.
int RunUntraced(const Args& args, const Workload& w) {
  std::vector<double> setups;
  std::optional<Deployment> deployment;
  for (int i = 0; i < kSetupRepeats; ++i) {
    deployment.reset();  // the previous server goes before its corpus
    const Clock::time_point t0 = Clock::now();
    auto deployed = Deploy(w, nullptr);
    setups.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
    if (!deployed.ok()) return Fail("set-up", deployed.status());
    deployment.emplace(std::move(*deployed));
  }
  auto oracle = BuildOracle(w, *deployment->corpus);
  if (!oracle.ok()) return Fail("oracle", oracle.status());

  Tally tally;
  const Clock::time_point t0 = Clock::now();
  const std::vector<Outcome> outcomes = RunClient(
      &*deployment, w, *oracle, 0, w.window, args.seconds, nullptr, &tally);
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - t0).count();
  PrintTally(tally, outcomes);

  std::vector<double> latency;
  for (const Outcome& o : outcomes) {
    if (o.served) latency.push_back(o.latency_s);
  }
  const std::vector<const Outcome*> window = Window(outcomes, w.window);
  std::vector<double> sim_latency;
  for (const Outcome* o : window) sim_latency.push_back(SimLatencyS(*o));
  std::printf("samples: host latency %zu, simulated window %zu\n",
              latency.size(), sim_latency.size());

  MetricSet m;
  m.Add("setup_s", "s", Median(setups));
  m.AddPercentile("latency_p50_ms", "ms", Ms(latency), 0.5);
  m.AddPercentile("latency_p90_ms", "ms", Ms(latency), 0.9);
  m.Add("throughput_rps", "1/s", static_cast<double>(latency.size()) / elapsed);
  m.AddPercentile("sim_latency_p50_ms", "ms", Ms(sim_latency), 0.5);
  m.AddPercentile("sim_latency_p90_ms", "ms", Ms(sim_latency), 0.9);
  const double span = SimSpanS(outcomes, w.window, w.burst);
  m.Add("sim_throughput_rps", "1/s",
        span > 0 ? static_cast<double>(window.size()) / span : 0.0);
  m.Add("peak_rss_mb", "MB", PeakRssMb());
  m.Add("stored_bytes_per_token", "bytes",
        static_cast<double>(deployment->container_bytes) /
            static_cast<double>(w.input_tokens));
  return Finish(m, tally, deployment->server->stats().mid_run_pool_growths);
}

/// --trace 1: an untraced and a traced pass over the same window from
/// identical fresh servers (their latency difference is the tracing
/// overhead), then a layer-by-layer replay of the window's first requests.
int RunTraced(const Args& args, const Workload& w) {
  Tally tally;
  std::vector<double> untraced_latency;
  std::vector<gtadoc::AnalyticsResult> reference;
  {
    auto plain = Deploy(w, nullptr);
    if (!plain.ok()) return Fail("set-up", plain.status());
    auto oracle = BuildOracle(w, *plain->corpus);
    if (!oracle.ok()) return Fail("oracle", oracle.status());
    reference = std::move(*oracle);
    for (const Outcome& o : RunClient(&*plain, w, reference, 0, w.window, 0.0,
                                      nullptr, &tally)) {
      if (o.served) untraced_latency.push_back(o.latency_s);
    }
  }

  Tracer tracer;
  auto deployed = Deploy(w, &tracer);
  if (!deployed.ok()) return Fail("set-up", deployed.status());
  Deployment& d = *deployed;

  const CorpusServer::Stats before = d.server->stats();
  const std::vector<Outcome> outcomes =
      RunClient(&d, w, reference, 0, w.window, 0.0, &tracer, &tally);
  // Retire every completion so slot-seconds and device counters cover
  // exactly the window.
  if (auto st = d.server->ServeUntilIdle(); !st.ok()) return Fail("drain", st);
  const CorpusServer::Stats after = d.server->stats();
  PrintTally(tally, outcomes);

  std::vector<gtadoc::RunTiming> gpu_runs;
  if (auto st = Replay(d, w, reference, outcomes, w.replay, &tracer,
                       &tally, &gpu_runs);
      !st.ok()) {
    return Fail("replay", st);
  }

  const std::vector<const Outcome*> window = Window(outcomes, w.window);
  std::vector<double> traced_latency, submit, overhead, probe, queue_wait,
      batch_wall, overlap, estimate_error, gather, shards;
  uint64_t cpu_runs = 0, docs = 0, skipped = 0, growths = 0;
  double slot_seconds_sum = 0;
  for (const Outcome* o : window) {
    traced_latency.push_back(o->latency_s);
    submit.push_back(o->submit_s);
    if (o->serve_overhead_s >= 0) overhead.push_back(o->serve_overhead_s);
    probe.push_back(o->admission.admission_seconds);
    queue_wait.push_back(o->queue_wait_s);
    batch_wall.push_back(o->timing.wall_seconds);
    overlap.push_back(o->timing.overlap_saved_seconds);
    gather.push_back(o->gather_s);
    const double actual = o->completion_s - o->start_s;
    if (actual > 0) {
      estimate_error.push_back(
          std::abs(o->admission.backend_estimate_seconds - actual) / actual);
    }
    const bool cpu = o->admission.backend == CorpusServer::RunBackend::kCpu;
    cpu_runs += cpu ? 1 : 0;
    if (!cpu && o->documents > o->documents_skipped) {
      shards.push_back(
          o->device_durations.empty()
              ? 1.0
              : static_cast<double>(std::count_if(
                    o->device_durations.begin(), o->device_durations.end(),
                    [](double s) { return s > 0; })));
    }
    docs += o->documents;
    skipped += o->documents_skipped;
    growths += o->mid_run_pool_growths;
  }
  for (const auto& [id, tenant] : after.tenants) {
    auto was = before.tenants.find(id);
    slot_seconds_sum += tenant.slot_seconds_held -
                        (was == before.tenants.end()
                             ? 0.0
                             : was->second.slot_seconds_held);
  }
  std::vector<double> busy;
  for (size_t dev = 0; dev < after.devices.size(); ++dev) {
    busy.push_back(after.devices[dev].busy_seconds -
                   (dev < before.devices.size()
                        ? before.devices[dev].busy_seconds
                        : 0.0));
  }
  std::vector<double> init, traversal, upload, ops;
  for (const gtadoc::RunTiming& t : gpu_runs) {
    init.push_back(t.init_seconds);
    traversal.push_back(t.traversal_seconds);
    upload.push_back(t.upload_seconds);
    ops.push_back(static_cast<double>(t.traversal_ops));
  }
  const double n = static_cast<double>(std::max<size_t>(1, window.size()));
  const uint64_t hits = after.plan_cache.hits - before.plan_cache.hits;
  const uint64_t lookups =
      hits + after.plan_cache.misses - before.plan_cache.misses;
  const double span = SimSpanS(outcomes, w.window, w.burst);
  const double budget = static_cast<double>(d.options.device_slot_budget);
  const double devices = static_cast<double>(after.devices.size());
  double peak_ratio = 0;
  if (budget > 0) {
    for (const auto& dev : after.devices) {
      peak_ratio = std::max(
          peak_ratio, static_cast<double>(dev.peak_admitted_slots) / budget);
    }
  }
  const double busy_mean = Mean(busy);
  const auto untraced_p50 = Percentile(untraced_latency, 0.5);
  const auto traced_p50 = Percentile(traced_latency, 0.5);

  MetricSet m;
  m.Add("sequitur.compress_s", "s", tracer.TotalSeconds("sequitur.compress"));
  m.Add("format.container_bytes", "bytes",
        static_cast<double>(d.container_bytes));
  m.Add("format.parse_s", "s", tracer.TotalSeconds("format.parse"));
  m.AddPercentile("format.dag_build_ms", "ms",
                  tracer.DurationsMs("format.dag_build"), 0.5);
  m.Add("run_plan.cache_hit_ratio", "ratio",
        lookups > 0 ? static_cast<double>(hits) / lookups : 0.0);
  m.Add("run_plan.cache_evictions", "count",
        static_cast<double>(after.plan_cache.evictions -
                            before.plan_cache.evictions));
  m.AddPercentile("run_plan.probe_sim_ms", "ms", Ms(probe), 0.5);
  m.AddPercentile("server.submit_ms.p50", "ms", Ms(submit), 0.5);
  m.AddPercentile("server.submit_ms.p90", "ms", Ms(submit), 0.9);
  m.AddPercentile("server.serve_overhead_ms", "ms", Ms(overhead), 0.5);
  m.Add("server.cpu_dispatch_share", "ratio", static_cast<double>(cpu_runs) / n);
  m.AddPercentile("server.estimate_error_p50", "ratio", estimate_error, 0.5);
  m.Add("server.bloom_skip_ratio", "ratio",
        docs > 0 ? static_cast<double>(skipped) / docs : 0.0);
  m.AddPercentile("batch.exec_ms", "ms", Ms(batch_wall), 0.5);
  m.Add("batch.overlap_saved_sim_ms", "ms", Mean(Ms(overlap)));
  m.AddPercentile("gtadoc.rebind_ms", "ms", tracer.DurationsMs("gtadoc.rebind"),
                  0.5);
  for (const char* shape : {"global", "per_file", "sequence"}) {
    m.AddPercentile(std::string("gtadoc.run_ms.") + shape, "ms",
                    tracer.DurationsMs(std::string("gtadoc.run.") + shape),
                    0.5);
  }
  m.AddPercentile("gtadoc.init_sim_ms", "ms", Ms(init), 0.5);
  m.AddPercentile("gtadoc.traversal_sim_ms", "ms", Ms(traversal), 0.5);
  m.AddPercentile("gtadoc.upload_sim_ms", "ms", Ms(upload), 0.5);
  m.AddPercentile("gtadoc.traversal_ops", "count", ops, 0.5);
  for (const char* shape : {"global", "per_file", "sequence"}) {
    m.AddPercentile(std::string("tadoc.run_ms.") + shape, "ms",
                    tracer.DurationsMs(std::string("tadoc.run.") + shape),
                    0.5);
  }
  m.AddPercentile("scheduler.queue_wait_sim_p50_ms", "ms", Ms(queue_wait), 0.5);
  m.AddPercentile("scheduler.queue_wait_sim_p90_ms", "ms", Ms(queue_wait), 0.9);
  m.Add("scheduler.backfills", "count",
        static_cast<double>(after.backfills - before.backfills));
  m.Add("scheduler.slot_utilization", "ratio",
        budget > 0 && span > 0 ? slot_seconds_sum / (budget * devices * span)
                               : 0.0);
  m.Add("sharding.device_busy_imbalance", "ratio",
        busy_mean > 0 ? *std::max_element(busy.begin(), busy.end()) / busy_mean
                      : 0.0);
  m.Add("sharding.shards_per_run", "count", Mean(shards));
  m.Add("sharding.gather_sim_ms", "ms", Mean(Ms(gather)));
  m.Add("gpu.peak_slot_ratio", "ratio", peak_ratio);
  m.Add("gpu.mid_run_pool_growths", "count", static_cast<double>(growths));
  m.Add("trace.overhead_ms", "ms",
        untraced_p50 && traced_p50 ? (*traced_p50 - *untraced_p50) * 1e3 : 0.0);

  if (!args.out_dir.empty()) {
    const std::string path = args.out_dir + "/" + w.name + "-seed" +
                             std::to_string(args.seed) + ".spans.jsonl";
    if (!tracer.WriteJson(path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 2;
    }
    std::printf("spans: %zu written to %s\n", tracer.spans().size(),
                path.c_str());
  }
  return Finish(m, tally, growths + after.mid_run_pool_growths);
}

// ------------------------------------------------------------ self-test

int SelfTest() {
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "self-test FAILED: %s\n", what);
      ++failures;
    }
  };

  // The percentile helper refuses a p90 with fewer than 10 samples beyond.
  std::vector<double> values;
  for (int i = 0; i < 99; ++i) values.push_back(i);
  expect(!Percentile(values, 0.9).has_value(), "p90 of 99 samples refused");
  values.push_back(99);
  expect(Percentile(values, 0.9) == 89.0, "p90 of 0..99 is 89");
  expect(!Percentile(std::vector<double>(19, 1.0), 0.5).has_value(),
         "p50 of 19 samples refused");
  expect(Percentile(std::vector<double>(20, 1.0), 0.5) == 1.0,
         "p50 of 20 samples reported");

  // Self time on a hand-built tree: overlapping children count once and a
  // child running past its parent's end is clipped.
  std::vector<Span> tree(5);
  tree[0] = {"root", 0, 100, -1, 0};
  tree[1] = {"a", 10, 40, 0, 0};
  tree[2] = {"b", 30, 60, 0, 0};
  tree[3] = {"a.child", 15, 20, 1, 0};
  tree[4] = {"late", 90, 130, 0, 0};
  const std::vector<double> self = SelfTimesUs(tree);
  expect(self[0] == 40.0, "root self = 100 - |[10,60] u [90,100]|");
  expect(self[1] == 25.0, "a self = 30 - 5");
  expect(self[2] == 30.0, "b self = its duration");
  expect(self[3] == 5.0, "leaf self = its duration");
  expect(self[4] == 40.0, "clipped child keeps its own duration");

  // A corrupted result raises the error rate: a real served answer judged
  // against its oracle, before and after one count is altered.
  Workload tiny;
  tiny.name = "self-test";
  gtadoc::DatasetSpec spec = gtadoc::DatasetA();
  spec.num_files = 8;
  spec.total_tokens = 4000;
  spec.vocabulary = 200;
  gtadoc::TokenizedCorpus tokens = gtadoc::GenerateTokens(spec);
  tiny.documents.resize(2);
  for (size_t f = 0; f < tokens.file_tokens.size(); ++f) {
    tiny.documents[f % 2].push_back(std::move(tokens.file_tokens[f]));
  }
  tiny.num_words = spec.vocabulary;
  tiny.server.engine.gpu = gtadoc::gpu::VoltaPlatform().gpu;
  tiny.tenants.push_back({});
  tiny.pool.push_back(Request{});
  tiny.pool[0].run.task = gtadoc::Task::kWordCount;
  auto deployed = Deploy(tiny, nullptr);
  if (!deployed.ok()) return Fail("self-test set-up", deployed.status());
  auto oracle = BuildOracle(tiny, *deployed->corpus);
  if (!oracle.ok()) return Fail("self-test oracle", oracle.status());
  auto submitted = deployed->tenants[0].Submit(tiny.pool[0].run);
  if (!submitted.ok() || !submitted->admitted()) {
    expect(false, "self-test submit admitted");
    return 1;
  }
  auto served = submitted->ticket->Await();
  if (!served.ok()) return Fail("self-test await", served.status());
  Tally tally;
  tally.attempted = 2;
  Judge(served->batch.merged, (*oracle)[0], &tally);
  expect(tally.error_rate() == 0.0, "a correct result is not counted");
  gtadoc::AnalyticsResult corrupted = served->batch.merged;
  if (corrupted.word_count.empty()) {
    expect(false, "word count result is non-empty");
  } else {
    corrupted.word_count.begin()->second += 1;
  }
  Judge(corrupted, (*oracle)[0], &tally);
  expect(tally.error_rate() == 0.5, "a corrupted result raises error_rate");

  if (failures == 0) std::fprintf(stderr, "perfbench self-test OK\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out <dir>]\n       perfbench --self-test\n");
    return 2;
  }
  if (args.self_test) return SelfTest();
  auto workload = MakeWorkload(args.workload, args.seed);
  if (!workload.ok()) return Fail("workload", workload.status());
  std::printf("workload %s seed %llu: %zu documents, %llu tokens, %zu distinct "
              "requests, burst %zu, window %zu, trace %d\n",
              workload->name.c_str(),
              static_cast<unsigned long long>(args.seed),
              workload->documents.size(),
              static_cast<unsigned long long>(workload->input_tokens),
              workload->pool.size(), workload->burst, workload->window,
              args.trace ? 1 : 0);
  return args.trace ? RunTraced(args, *workload) : RunUntraced(args, *workload);
}
