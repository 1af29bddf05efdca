#include "serving.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <string>
#include <utility>

#include "analytics/batch.h"
#include "analytics/query_spec.h"
#include "analytics/task_kernel.h"
#include "analytics/uncompressed.h"
#include "format/dag.h"
#include "format/serializer.h"
#include "gtadoc/engine.h"
#include "sequitur/compressor.h"
#include "tadoc/cpu_engine.h"

namespace perfbench {

using gtadoc::AnalyticsResult;
using gtadoc::CorpusServer;
using gtadoc::Grammar;
using gtadoc::Result;
using gtadoc::Status;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// The per-device slot budget and the sized tenants' quotas, from an
/// unmetered sizing server: the budget is the largest run footprint, a sized
/// tenant's quota 1.5x the largest footprint among its own requests
/// (footprints move a little with replica routing).
Status SizeBudget(const Workload& w, const gtadoc::PartitionedCorpus* corpus,
                  CorpusServer::Options* options,
                  std::vector<CorpusServer::TenantOptions>* tenants) {
  CorpusServer::Options unmetered = *options;
  unmetered.device_slot_budget = 0;
  auto sizer = CorpusServer::Create(corpus, unmetered);
  if (!sizer.ok()) return sizer.status();
  auto handle = (*sizer)->OpenTenant({});
  if (!handle.ok()) return handle.status();
  uint64_t largest = 0;
  std::vector<uint64_t> tenant_largest(w.tenants.size(), 0);
  for (const Request& r : w.pool) {
    auto submitted = handle->Submit(r.run, r.options);
    if (!submitted.ok()) return submitted.status();
    if (!submitted->admitted()) {
      return Status::Internal("sizing submit refused: " +
                              submitted->rejection->detail);
    }
    const uint64_t fp = submitted->admission->footprint_slots;
    largest = std::max(largest, fp);
    tenant_largest[r.tenant] = std::max(tenant_largest[r.tenant], fp);
  }
  options->device_slot_budget = largest;
  for (size_t t = 0; t < tenants->size(); ++t) {
    if (t < w.sized_quota.size() && w.sized_quota[t]) {
      (*tenants)[t].slot_quota = std::min(
          options->device_slot_budget * options->num_devices,
          tenant_largest[t] + tenant_largest[t] / 2);
    }
  }
  return Status::OK();
}

const char* ShapeName(gtadoc::Task task) {
  auto kernel = gtadoc::TaskRegistry::Get(task);
  if (!kernel.ok()) return "unknown";
  switch ((*kernel)->shape()) {
    case gtadoc::TraversalShape::kGlobalWeight:
      return "global";
    case gtadoc::TraversalShape::kPerFileWeight:
      return "per_file";
    case gtadoc::TraversalShape::kSequence:
      return "sequence";
  }
  return "unknown";
}

}  // namespace

Result<Deployment> Deploy(const Workload& w, Tracer* tracer) {
  ScopedSpan setup(tracer, "setup");
  Deployment out;
  out.options = w.server;
  std::vector<Grammar> documents;
  documents.reserve(w.documents.size());
  for (const auto& files : w.documents) {
    Result<Grammar> compressed = Status::Internal("not compressed");
    {
      ScopedSpan span(tracer, "sequitur.compress", -1, setup.id());
      compressed = gtadoc::CompressTokenStreams(files, w.num_words);
    }
    if (!compressed.ok()) return compressed.status();
    std::string bytes;
    {
      ScopedSpan span(tracer, "format.serialize", -1, setup.id());
      bytes = gtadoc::SerializeGrammar(*compressed);
    }
    out.container_bytes += bytes.size();
    Result<Grammar> parsed = Status::Internal("not parsed");
    {
      ScopedSpan span(tracer, "format.parse", -1, setup.id());
      parsed = gtadoc::ParseGrammar(bytes);
    }
    if (!parsed.ok()) return parsed.status();
    documents.push_back(std::move(*parsed));
  }
  {
    ScopedSpan span(tracer, "server.corpus", -1, setup.id());
    auto corpus = gtadoc::CorpusFromDocuments(std::move(documents));
    if (!corpus.ok()) return corpus.status();
    out.corpus =
        std::make_unique<gtadoc::PartitionedCorpus>(std::move(*corpus));
  }
  std::vector<CorpusServer::TenantOptions> tenants = w.tenants;
  if (w.size_budget) {
    ScopedSpan span(tracer, "server.size_budget", -1, setup.id());
    GTADOC_RETURN_IF_ERROR(
        SizeBudget(w, out.corpus.get(), &out.options, &tenants));
  }
  {
    ScopedSpan span(tracer, "server.create", -1, setup.id());
    auto server = CorpusServer::Create(out.corpus.get(), out.options);
    if (!server.ok()) return server.status();
    out.server = std::move(*server);
  }
  for (const CorpusServer::TenantOptions& tenant : tenants) {
    ScopedSpan span(tracer, "server.open_tenant", -1, setup.id());
    auto handle = out.server->OpenTenant(tenant);
    if (!handle.ok()) return handle.status();
    out.tenants.push_back(*handle);
  }
  for (const Request& r : w.pool) {
    ScopedSpan span(tracer, "server.warmup", -1, setup.id());
    auto submitted = out.tenants[r.tenant].Submit(r.run, r.options);
    if (!submitted.ok()) return submitted.status();
    if (!submitted->admitted()) {
      return Status::Internal("warm-up submit refused: " +
                              submitted->rejection->detail);
    }
    auto served = submitted->ticket->Await();
    if (!served.ok()) return served.status();
  }
  GTADOC_RETURN_IF_ERROR(out.server->ServeUntilIdle());
  return out;
}

Result<std::vector<AnalyticsResult>> BuildOracle(
    const Workload& w, const gtadoc::PartitionedCorpus& corpus) {
  std::vector<std::vector<uint32_t>> files;
  for (const Grammar& doc : corpus.partitions) {
    auto expanded = gtadoc::ExpandFiles(doc);
    if (!expanded.ok()) return expanded.status();
    for (auto& file : *expanded) files.push_back(std::move(file));
  }
  size_t f = 0;
  for (const auto& doc : w.documents) {
    for (const auto& file : doc) {
      if (f >= files.size() || files[f] != file) {
        return Status::Internal("decompressed file " + std::to_string(f) +
                                " differs from the generated input");
      }
      ++f;
    }
  }
  if (f != files.size()) {
    return Status::Internal("decompressed corpus has extra files");
  }
  std::vector<AnalyticsResult> oracle;
  oracle.reserve(w.pool.size());
  for (const Request& r : w.pool) {
    const gtadoc::UncompressedAnalytics reference(
        files, gtadoc::ResolveQueryDefaults(r.run, w.server.engine));
    oracle.push_back(reference.RunSequential(r.run.task));
  }
  return oracle;
}

void Judge(const AnalyticsResult& served, const AnalyticsResult& reference,
           Tally* tally) {
  if (!served.SameAs(reference)) ++tally->wrong;
}

std::vector<Outcome> RunClient(Deployment* d, const Workload& w,
                               const std::vector<AnalyticsResult>& oracle,
                               size_t first, size_t min_requests,
                               double seconds, Tracer* tracer, Tally* tally) {
  struct InFlight {
    Outcome outcome;
    int64_t id = 0;
    Clock::time_point submitted_at;
    std::optional<CorpusServer::RunTicket> ticket;
    int64_t request_span = -1;
  };
  std::vector<Outcome> outcomes;
  const Clock::time_point begin = Clock::now();
  size_t next = first;
  while (outcomes.size() < min_requests ||
         SecondsBetween(begin, Clock::now()) < seconds) {
    std::vector<InFlight> burst(w.burst);
    for (InFlight& f : burst) {
      f.id = static_cast<int64_t>(next - first);
      f.outcome.pool = w.stream[next % w.stream.size()];
      ++next;
      const Request& r = w.pool[f.outcome.pool];
      if (tracer != nullptr) f.request_span = tracer->Begin("request", f.id);
      ++tally->attempted;
      f.submitted_at = Clock::now();
      Result<CorpusServer::Submitted> submitted = Status::Internal("unset");
      {
        ScopedSpan span(tracer, "server.submit", f.id, f.request_span);
        submitted = d->tenants[r.tenant].Submit(r.run, r.options);
      }
      f.outcome.submit_s = SecondsBetween(f.submitted_at, Clock::now());
      if (!submitted.ok()) {
        ++tally->failed;
      } else if (!submitted->admitted()) {
        ++tally->rejected;
      } else {
        f.ticket = *submitted->ticket;
        f.outcome.admission = *submitted->admission;
      }
      if (!f.ticket.has_value() && tracer != nullptr) {
        tracer->End(f.request_span);
      }
    }
    // Await in the scheduler's QoS order (priority desc, deadline asc, then
    // submission): the client collects urgent replies first, so a burst's
    // latencies are not inflated by blocking on a batch run that happened
    // to be submitted earlier.
    std::vector<size_t> order;
    for (size_t i = 0; i < burst.size(); ++i) {
      if (burst[i].ticket.has_value()) order.push_back(i);
    }
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      const CorpusServer::Admission& x = burst[a].outcome.admission;
      const CorpusServer::Admission& y = burst[b].outcome.admission;
      if (x.priority != y.priority) return x.priority > y.priority;
      return x.deadline < y.deadline;
    });
    for (size_t k = 0; k < order.size(); ++k) {
      InFlight& f = burst[order[k]];
      // Which runs of this burst are still unserved: whatever this Await
      // serves besides its own run is charged against its overhead.
      std::vector<size_t> unserved;
      if (tracer != nullptr) {
        for (size_t j = k; j < order.size(); ++j) {
          if (burst[order[j]].ticket->TryGet() == nullptr) {
            unserved.push_back(order[j]);
          }
        }
      }
      const Clock::time_point await_at = Clock::now();
      Result<CorpusServer::ServedRun> served = Status::Internal("unset");
      {
        ScopedSpan span(tracer, "server.await", f.id, f.request_span);
        served = f.ticket->Await();
      }
      const Clock::time_point done = Clock::now();
      if (tracer != nullptr) tracer->End(f.request_span);
      f.outcome.latency_s = SecondsBetween(f.submitted_at, done);
      if (!served.ok()) {
        ++tally->failed;
        continue;
      }
      if (tracer != nullptr && !unserved.empty()) {
        double wall = 0;
        for (size_t j : unserved) {
          const CorpusServer::ServedRun* run =
              j == order[k] ? &*served : burst[j].ticket->TryGet();
          if (run != nullptr) wall += run->batch.timing.wall_seconds;
        }
        f.outcome.serve_overhead_s = SecondsBetween(await_at, done) - wall;
      }
      Judge(served->batch.merged, oracle[f.outcome.pool], tally);
      Outcome& o = f.outcome;
      o.served = true;
      o.start_s = served->start_seconds;
      o.completion_s = served->completion_seconds;
      o.queue_wait_s = served->queue_wait_seconds;
      o.gather_s = served->gather_seconds;
      o.device_durations = std::move(served->device_durations);
      o.timing = served->batch.timing;
      o.documents = static_cast<uint32_t>(served->batch.documents.size());
      o.documents_skipped = served->batch.documents_skipped;
      o.mid_run_pool_growths = served->batch.mid_run_pool_growths;
    }
    for (InFlight& f : burst) outcomes.push_back(std::move(f.outcome));
  }
  return outcomes;
}

Status Replay(const Deployment& d, const Workload& w,
              const std::vector<AnalyticsResult>& oracle,
              const std::vector<Outcome>& outcomes, size_t count,
              Tracer* tracer, Tally* tally,
              std::vector<gtadoc::RunTiming>* gpu_runs) {
  const gtadoc::PartitionedCorpus& corpus = *d.corpus;
  // A private cache: the replay must not perturb the server's counters.
  gtadoc::PlanCache cache(std::max<size_t>(256, 8 * corpus.partitions.size()));
  count = std::min(count, outcomes.size());
  for (size_t i = 0; i < count; ++i) {
    const Outcome& o = outcomes[i];
    if (!o.served) continue;
    const Request& r = w.pool[o.pool];
    const int64_t id = static_cast<int64_t>(i);
    ScopedSpan replay(tracer, "replay", id);
    GTADOC_ASSIGN_OR_RETURN(const gtadoc::TaskKernel* kernel,
                            gtadoc::TaskRegistry::Get(r.run.task));
    gtadoc::GTadocEngine::Options engine = d.options.engine;
    static_cast<gtadoc::QuerySpec&>(engine) =
        gtadoc::ResolveQueryDefaults(r.run, d.options.engine);
    engine.plan_cache = &cache;
    const bool cpu = o.admission.backend == CorpusServer::RunBackend::kCpu;
    const std::string shape = ShapeName(r.run.task);
    const std::string gpu_run = "gtadoc.run." + shape;
    const std::string cpu_run = "tadoc.run." + shape;
    const std::vector<uint8_t> mask =
        d.options.bloom_skip
            ? gtadoc::BloomExecuteMask(
                  corpus, *kernel,
                  gtadoc::GTadocEngine::InputFromOptions(engine))
            : std::vector<uint8_t>{};
    std::unique_ptr<gtadoc::GTadocEngine> gpu;
    gtadoc::CpuTadocOptions cpu_options;
    static_cast<gtadoc::QuerySpec&>(cpu_options) = engine;
    cpu_options.cpu = d.options.cpu;
    cpu_options.plan_cache = &cache;
    for (size_t doc = 0; doc < corpus.partitions.size(); ++doc) {
      if (!mask.empty() && mask[doc] == 0) continue;
      const Grammar* g = &corpus.partitions[doc];
      {
        ScopedSpan span(tracer, "format.dag_build", id, replay.id());
        GTADOC_RETURN_IF_ERROR(gtadoc::DagView::Build(*g).status());
      }
      if (cpu) {
        GTADOC_ASSIGN_OR_RETURN(gtadoc::CpuTadocEngine cpu_engine,
                                gtadoc::CpuTadocEngine::Create(g, cpu_options));
        ScopedSpan span(tracer, cpu_run.c_str(), id, replay.id());
        GTADOC_RETURN_IF_ERROR(cpu_engine.Run(r.run.task).status());
        continue;
      }
      if (gpu == nullptr) {
        ScopedSpan span(tracer, "gtadoc.create", id, replay.id());
        GTADOC_ASSIGN_OR_RETURN(gpu, gtadoc::GTadocEngine::Create(g, engine));
      } else {
        ScopedSpan span(tracer, "gtadoc.rebind", id, replay.id());
        GTADOC_RETURN_IF_ERROR(gpu->Rebind(g));
      }
      {
        ScopedSpan span(tracer, "gtadoc.plan_only", id, replay.id());
        GTADOC_RETURN_IF_ERROR(gpu->PlanOnly(r.run.task).status());
      }
      ScopedSpan span(tracer, gpu_run.c_str(), id, replay.id());
      GTADOC_ASSIGN_OR_RETURN(gtadoc::EngineRun run, gpu->Run(r.run.task));
      gpu_runs->push_back(run.timing);
    }
    gtadoc::BatchEngine::Options batch;
    batch.engine = engine;
    if (cpu) {
      batch.backend = gtadoc::kCpuPlanBackend;
      batch.cpu = d.options.cpu;
    }
    batch.host_workers = d.options.host_workers;
    batch.reuse_device_state = d.options.reuse_device_state;
    batch.overlap_uploads = d.options.overlap_uploads;
    ScopedSpan span(tracer, "batch.run", id, replay.id());
    GTADOC_ASSIGN_OR_RETURN(auto batch_engine,
                            gtadoc::BatchEngine::Create(&corpus, batch));
    GTADOC_ASSIGN_OR_RETURN(gtadoc::BatchEngine::BatchRun run,
                            batch_engine->Run(r.run.task, mask));
    Judge(run.merged, oracle[o.pool], tally);
  }
  return Status::OK();
}

}  // namespace perfbench
