#include "workloads.h"

#include <algorithm>
#include <utility>

#include "common/random.h"
#include "datagen/datagen.h"
#include "gpu/platform.h"
#include "sequitur/compressor.h"

namespace perfbench {

using gtadoc::CorpusServer;
using gtadoc::Result;
using gtadoc::Rng;
using gtadoc::Status;
using gtadoc::Task;

namespace {

/// Rounds of the request template generated up front; the client wraps
/// around after that many requests (far more than one run submits).
constexpr size_t kStreamRounds = 400;

/// SplitMix64 finalizer: derives independent sub-seeds from the run seed.
uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Request Plain(Task task, size_t tenant = 0) {
  Request r;
  r.run.task = task;
  r.tenant = tenant;
  return r;
}

/// `len` consecutive words from a random position of a random file that is
/// long enough: a phrase (or keyword) that occurs in the corpus. Empty (the
/// server's default query) if no drawn file was long enough.
std::vector<uint32_t> DrawWords(const Workload& w, size_t len, Rng* rng) {
  for (int attempt = 0; attempt < 1000; ++attempt) {
    const auto& doc = w.documents[rng->Uniform(w.documents.size())];
    const auto& file = doc[rng->Uniform(doc.size())];
    if (file.size() < len) continue;
    const size_t pos = rng->Uniform(file.size() - len + 1);
    return std::vector<uint32_t>(file.begin() + pos, file.begin() + pos + len);
  }
  return {};
}

/// One template slot: a fixed pool index, or (variants > 1) one of
/// `variants` consecutive pool entries starting at `first`, drawn per round.
struct Slot {
  size_t first = 0;
  size_t variants = 1;
};

/// Shuffles the slot template once per round (Fisher-Yates on the seeded
/// generator) and resolves each slot's variant: every round has the same
/// request mix, so a seed changes order and query words, not composition.
std::vector<size_t> MakeStream(const std::vector<Slot>& slots, uint64_t seed) {
  Rng rng(SubSeed(seed, 7));
  std::vector<size_t> stream;
  stream.reserve(slots.size() * kStreamRounds);
  std::vector<Slot> round = slots;
  for (size_t r = 0; r < kStreamRounds; ++r) {
    for (size_t i = round.size(); i > 1; --i) {
      std::swap(round[i - 1], round[rng.Uniform(i)]);
    }
    for (const Slot& slot : round) {
      stream.push_back(slot.first + rng.Uniform(slot.variants));
    }
  }
  return stream;
}

void AddSlots(std::vector<Slot>* slots, Slot slot, size_t count) {
  slots->insert(slots->end(), count, slot);
}

void CountTokens(Workload* w) {
  w->input_tokens = 0;
  for (const auto& doc : w->documents) {
    for (const auto& file : doc) w->input_tokens += file.size();
  }
}

/// Dataset A's character at half its token count: 800 small files
/// (~120k tokens) compressed as 64 documents, one
/// simulated GPU plus two CPU lanes under hybrid dispatch, a closed loop
/// over all ten kernels (two of each per 20-request round).
Result<Workload> CorpusMixed(uint64_t seed) {
  Workload w;
  w.name = "corpus_mixed";
  gtadoc::DatasetSpec spec = gtadoc::DatasetA();
  spec.seed = SubSeed(seed, 1);
  gtadoc::TokenizedCorpus tokens = gtadoc::GenerateTokens(spec, 0.5);
  constexpr size_t kDocuments = 64;
  const size_t files = tokens.file_tokens.size();
  w.documents.resize(kDocuments);
  for (size_t f = 0; f < files; ++f) {
    w.documents[f * kDocuments / files].push_back(
        std::move(tokens.file_tokens[f]));
  }
  w.num_words = spec.vocabulary;
  CountTokens(&w);

  const gtadoc::gpu::Platform platform = gtadoc::gpu::VoltaPlatform();
  w.server.engine.gpu = platform.gpu;
  w.server.engine.charge_pcie = true;
  w.server.cpu = platform.cpu;
  w.server.scheduler.cpu_lanes = 2;
  w.server.host_workers = 1;
  w.tenants.push_back({});

  std::vector<Slot> slots;
  for (Task t : {Task::kWordCount, Task::kSort, Task::kInvertedIndex,
                 Task::kTermVector, Task::kSequenceCount,
                 Task::kRankedInvertedIndex, Task::kTopKWords, Task::kTfIdf}) {
    AddSlots(&slots, Slot{w.pool.size(), 1}, 2);
    w.pool.push_back(Plain(t));
  }
  constexpr size_t kVariants = 6;
  Rng rng(SubSeed(seed, 2));
  for (Task t : {Task::kKeywordSearch, Task::kPhraseSearch}) {
    AddSlots(&slots, Slot{w.pool.size(), kVariants}, 2);
    for (size_t v = 0; v < kVariants; ++v) {
      Request r = Plain(t);
      const size_t len = t == Task::kKeywordSearch ? 1 + v % 2 : 2 + v % 2;
      r.run.query_words = DrawWords(w, len, &rng);
      w.pool.push_back(std::move(r));
    }
  }
  w.stream = MakeStream(slots, seed);
  w.burst = 1;
  w.window = 200;
  return w;
}

/// Dataset E's character: one 320k-token file split into 8 documents,
/// GPU-only, 70% sequence-shape kernels per 20-request round.
Result<Workload> LargeDocSequence(uint64_t seed) {
  Workload w;
  w.name = "large_doc_sequence";
  gtadoc::DatasetSpec spec = gtadoc::DatasetE();
  spec.seed = SubSeed(seed, 1);
  gtadoc::TokenizedCorpus tokens = gtadoc::GenerateTokens(spec);
  constexpr size_t kDocuments = 8;
  const std::vector<uint32_t>& file = tokens.file_tokens.at(0);
  for (size_t d = 0; d < kDocuments; ++d) {
    const size_t lo = d * file.size() / kDocuments;
    const size_t hi = (d + 1) * file.size() / kDocuments;
    w.documents.push_back(
        {std::vector<uint32_t>(file.begin() + lo, file.begin() + hi)});
  }
  w.num_words = spec.vocabulary;
  CountTokens(&w);

  const gtadoc::gpu::Platform platform = gtadoc::gpu::VoltaPlatform();
  w.server.engine.gpu = platform.gpu;
  w.server.engine.charge_pcie = true;
  w.server.host_workers = 2;
  w.tenants.push_back({});

  std::vector<Slot> slots;
  // sequenceCount and rankedInvertedIndex are the slow cluster of host
  // latencies; at 60% of the mix both p50 and p90 fall inside it rather
  // than on the edge between clusters, where they would jump with the data.
  const std::pair<Task, size_t> plain[] = {
      {Task::kSequenceCount, 6}, {Task::kRankedInvertedIndex, 6},
      {Task::kWordCount, 1},     {Task::kInvertedIndex, 1},
      {Task::kTermVector, 1},    {Task::kTopKWords, 1},
      {Task::kTfIdf, 1}};
  for (const auto& [task, count] : plain) {
    AddSlots(&slots, Slot{w.pool.size(), 1}, count);
    w.pool.push_back(Plain(task));
  }
  Rng rng(SubSeed(seed, 2));
  const std::pair<Task, size_t> queried[] = {{Task::kPhraseSearch, 2},
                                             {Task::kKeywordSearch, 1}};
  constexpr size_t kVariants = 4;
  for (const auto& [task, count] : queried) {
    AddSlots(&slots, Slot{w.pool.size(), kVariants}, count);
    for (size_t v = 0; v < kVariants; ++v) {
      Request r = Plain(task);
      r.run.query_words = DrawWords(w, 2 + v % 2, &rng);
      w.pool.push_back(std::move(r));
    }
  }
  w.stream = MakeStream(slots, seed);
  w.burst = 1;
  w.window = 200;
  // One global-shape request (8 documents) per round: three rounds.
  w.replay = 60;
  return w;
}

/// The marker fixture (32 documents over a 48-word vocabulary, markers in
/// a quarter of them, so root Blooms reject), on 4 simulated devices with
/// replication 2. An interactive tenant (high priority, deadlines,
/// selective requests) and a quota-bound batch tenant (corpus-wide scans)
/// submit in bursts of 16.
Result<Workload> ShardedBurst(uint64_t seed) {
  Workload w;
  w.name = "sharded_burst";
  gtadoc::MarkerCorpusSpec mspec;
  mspec.num_docs = 32;
  mspec.relevant = 8;
  mspec.num_markers = 8;
  mspec.files_per_doc = 4;
  mspec.tokens_per_doc = 3000;
  mspec.seed = SubSeed(seed, 1);
  auto built = gtadoc::BuildMarkerCorpus(mspec);
  if (!built.ok()) return built.status();
  // The fixture arrives compressed; its expanded files are the generated
  // input, which set-up compresses again like every other workload.
  for (const gtadoc::Grammar& doc : built->corpus.partitions) {
    auto files = gtadoc::ExpandFiles(doc);
    if (!files.ok()) return files.status();
    w.documents.push_back(std::move(*files));
  }
  w.num_words = built->num_words;
  CountTokens(&w);
  const std::vector<uint32_t>& markers = built->markers;

  const gtadoc::gpu::Platform platform = gtadoc::gpu::VoltaPlatform();
  w.server.engine.gpu = platform.gpu;
  w.server.engine.charge_pcie = true;
  w.server.num_devices = 4;
  w.server.replication = 2;
  w.server.host_workers = 1;
  constexpr size_t kInteractive = 0;
  constexpr size_t kBatch = 1;
  CorpusServer::TenantOptions interactive;
  interactive.name = "interactive";
  interactive.default_priority = 10;
  CorpusServer::TenantOptions batch;
  batch.name = "batch";
  w.tenants = {interactive, batch};
  w.size_budget = true;
  w.sized_quota = {false, true};

  std::vector<Slot> slots;
  const size_t m = markers.size();
  auto add_variants = [&](size_t count, size_t variants, auto make) {
    AddSlots(&slots, Slot{w.pool.size(), variants}, count);
    for (size_t v = 0; v < variants; ++v) {
      Request r = make(v);
      r.tenant = kInteractive;
      w.pool.push_back(std::move(r));
    }
  };
  add_variants(4, m, [&](size_t v) {
    Request r = Plain(Task::kKeywordSearch);
    r.run.query_words = {markers[v]};
    r.options.deadline_seconds = 0.5e-3;
    return r;
  });
  // Consecutive markers are adjacent where they were injected.
  add_variants(3, m - 1, [&](size_t v) {
    Request r = Plain(Task::kPhraseSearch);
    r.run.query_words = {markers[v], markers[v + 1]};
    r.options.deadline_seconds = 1e-3;
    return r;
  });
  add_variants(3, m / 2, [&](size_t v) {
    Request r = Plain(Task::kKeywordSearch);
    for (size_t k = 0; k < 3; ++k) {
      r.run.query_sets.push_back({markers[(2 * v + k) % m]});
    }
    r.options.deadline_seconds = 2e-3;
    return r;
  });
  for (Task t : {Task::kWordCount, Task::kInvertedIndex, Task::kTermVector,
                 Task::kSort, Task::kTfIdf, Task::kSequenceCount}) {
    AddSlots(&slots, Slot{w.pool.size(), 1}, 1);
    w.pool.push_back(Plain(t, kBatch));
  }
  w.stream = MakeStream(slots, seed);
  w.burst = slots.size();
  w.window = 16 * w.burst;
  w.replay = w.burst;
  return w;
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"corpus_mixed", "large_doc_sequence", "sharded_burst"};
}

Result<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "corpus_mixed") return CorpusMixed(seed);
  if (name == "large_doc_sequence") return LargeDocSequence(seed);
  if (name == "sharded_burst") return ShardedBurst(seed);
  return Status::NotFound("unknown workload '" + name + "'");
}

}  // namespace perfbench
