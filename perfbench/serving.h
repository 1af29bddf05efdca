#ifndef GTADOC_PERFBENCH_SERVING_H_
#define GTADOC_PERFBENCH_SERVING_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "analytics/results.h"
#include "analytics/server.h"
#include "common/result.h"
#include "tadoc/parallel_engine.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

/// A warm server over the compressed corpus, owned together with it (the
/// server holds a pointer into the corpus).
struct Deployment {
  std::unique_ptr<gtadoc::PartitionedCorpus> corpus;
  std::unique_ptr<gtadoc::CorpusServer> server;
  std::vector<gtadoc::CorpusServer::TenantHandle> tenants;
  /// Resolved server options (the sized slot budget included).
  gtadoc::CorpusServer::Options options;
  uint64_t container_bytes = 0;  ///< serialized containers, all documents
};

/// Set-up, the span `setup_s` times: compresses every document
/// (CompressTokenStreams), round-trips it through SerializeGrammar ->
/// ParseGrammar (the load path), wraps the corpus, sizes the slot budget
/// when the workload asks for it, creates the server, opens the tenants and
/// serves one warm-up submission per distinct request, then drains. Spans
/// go to `tracer` when non-null.
gtadoc::Result<Deployment> Deploy(const Workload& workload, Tracer* tracer);

/// Reference answers, one per pool request: UncompressedAnalytics over the
/// ExpandFiles of every document in corpus order (global file ids). Also
/// fails when the expanded files differ from the generated input.
gtadoc::Result<std::vector<gtadoc::AnalyticsResult>> BuildOracle(
    const Workload& workload, const gtadoc::PartitionedCorpus& corpus);

/// Request outcomes against the oracle.
struct Tally {
  uint64_t attempted = 0;
  uint64_t rejected = 0;  ///< refused at Submit
  uint64_t failed = 0;    ///< Submit or Await returned an error
  uint64_t wrong = 0;     ///< served result differs from the oracle

  uint64_t bad() const { return rejected + failed + wrong; }
  double error_rate() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(bad()) /
                                static_cast<double>(attempted);
  }
};

/// Counts one served result as wrong when it differs from its reference.
void Judge(const gtadoc::AnalyticsResult& served,
           const gtadoc::AnalyticsResult& reference, Tally* tally);

/// What the client kept of one measured request (the results themselves are
/// judged and dropped).
struct Outcome {
  size_t pool = 0;      ///< pool index of the request
  bool served = false;  ///< admitted and awaited without error
  double submit_s = 0;   ///< host time inside Submit
  double latency_s = 0;  ///< host time from Submit until its Await returned
  /// Traced runs only: host time inside this request's Await minus the
  /// BatchRun wall time of every run that Await served; -1 when the Await
  /// served no run (an earlier Await already had).
  double serve_overhead_s = -1;
  gtadoc::CorpusServer::Admission admission;
  double start_s = 0;       ///< simulated
  double completion_s = 0;  ///< simulated
  double queue_wait_s = 0;  ///< simulated
  double gather_s = 0;      ///< simulated
  std::vector<double> device_durations;
  gtadoc::RunTiming timing;  ///< the BatchRun's composed timing
  uint32_t documents = 0;
  uint32_t documents_skipped = 0;
  uint64_t mid_run_pool_growths = 0;
};

/// The client: submits `workload.stream` from position `first` in bursts of
/// `workload.burst` (1 = closed loop), awaiting every ticket of a burst
/// (in the scheduler's QoS order) before the next, until at least
/// `min_requests` requests completed and `seconds` passed. Every result is
/// judged against `oracle`. Outcomes are in submission order.
std::vector<Outcome> RunClient(Deployment* deployment, const Workload& workload,
                               const std::vector<gtadoc::AnalyticsResult>& oracle,
                               size_t first, size_t min_requests,
                               double seconds, Tracer* tracer, Tally* tally);

/// Replays served requests layer by layer, outside the server, with spans
/// around each public call: DagView::Build per executed document, then
/// GTadocEngine Create/Rebind + PlanOnly + Run (GPU-dispatched runs) or
/// CpuTadocEngine::Run (CPU-dispatched runs) per document, then one
/// BatchEngine::Run over the corpus, whose merged result is judged too.
/// `runs` receives every per-document GPU EngineRun timing.
gtadoc::Status Replay(const Deployment& deployment, const Workload& workload,
                      const std::vector<gtadoc::AnalyticsResult>& oracle,
                      const std::vector<Outcome>& outcomes, size_t count,
                      Tracer* tracer, Tally* tally,
                      std::vector<gtadoc::RunTiming>* gpu_runs);

}  // namespace perfbench

#endif  // GTADOC_PERFBENCH_SERVING_H_
