#ifndef GTADOC_PERFBENCH_WORKLOADS_H_
#define GTADOC_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "analytics/server.h"
#include "common/result.h"

namespace perfbench {

/// One client request: what a tenant submits, and with which QoS options.
struct Request {
  gtadoc::CorpusServer::RunRequest run;
  gtadoc::CorpusServer::RunOptions options;
  size_t tenant = 0;  ///< index into Workload::tenants
};

/// \brief One benchmark workload: generated inputs, server configuration
/// and the request stream, all a pure function of (name, seed).
///
/// The server under test only ever sees the generated token streams and the
/// requests; the seed stays on this side.
struct Workload {
  std::string name;
  /// document -> file -> word-id stream, over one shared dictionary of
  /// `num_words` words.
  std::vector<std::vector<std::vector<uint32_t>>> documents;
  uint32_t num_words = 0;
  uint64_t input_tokens = 0;
  gtadoc::CorpusServer::Options server;
  std::vector<gtadoc::CorpusServer::TenantOptions> tenants;
  /// Set-up sizes the per-device slot budget to the largest run footprint
  /// seen on an unmetered sizing server, and gives each tenant flagged in
  /// `sized_quota` a slot quota of 1.5x the largest footprint among its own
  /// requests.
  bool size_budget = false;
  std::vector<bool> sized_quota;
  /// The distinct requests (one oracle answer and one warm-up each).
  std::vector<Request> pool;
  /// Pool indices in submission order; the client wraps around at the end.
  std::vector<size_t> stream;
  /// Submits per burst before every ticket is awaited; 1 = closed loop.
  size_t burst = 1;
  /// Leading requests of the measured phase over which simulated metrics
  /// are taken: a fixed request set, so they repeat exactly per seed.
  size_t window = 200;
  /// Leading requests the traced run replays layer by layer: enough that
  /// every traversal shape the mix executes yields 20 per-document samples.
  size_t replay = 20;
};

/// The workload names, in the order BENCHMARK.json lists them.
std::vector<std::string> WorkloadNames();

/// Builds workload `name` from `seed`; NotFound for an unknown name.
gtadoc::Result<Workload> MakeWorkload(const std::string& name, uint64_t seed);

}  // namespace perfbench

#endif  // GTADOC_PERFBENCH_WORKLOADS_H_
