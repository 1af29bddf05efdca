#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

double Tracer::NowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int64_t Tracer::Begin(const char* name, int64_t request, int64_t parent) {
  Span span;
  span.name = name;
  span.request = request;
  span.parent = parent;
  span.start_us = NowUs();
  span.end_us = span.start_us;
  spans_.push_back(std::move(span));
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::End(int64_t id) {
  if (id < 0 || static_cast<size_t>(id) >= spans_.size()) return;
  spans_[static_cast<size_t>(id)].end_us = NowUs();
}

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back((span.end_us - span.start_us) * 1e-3);
  }
  return out;
}

double Tracer::TotalSeconds(const std::string& name) const {
  double total = 0;
  for (double ms : DurationsMs(name)) total += ms * 1e-3;
  return total;
}

std::vector<double> SelfTimesUs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent < 0 || static_cast<size_t>(span.parent) >= spans.size()) {
      continue;
    }
    children[static_cast<size_t>(span.parent)].emplace_back(span.start_us,
                                                            span.end_us);
  }
  std::vector<double> self(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start_us;
    const double hi = spans[i].end_us;
    std::vector<std::pair<double, double>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to [lo, hi].
    double covered = 0;
    double run_lo = 0;
    double run_hi = -1;
    bool open = false;
    for (const auto& [start, end] : kids) {
      const double s = std::max(start, lo);
      const double e = std::min(end, hi);
      if (e <= s) continue;
      if (open && s <= run_hi) {
        run_hi = std::max(run_hi, e);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = s;
      run_hi = e;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<double> self = SelfTimesUs(spans_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                 "\"end_us\": %.3f, \"self_us\": %.3f, \"parent\": %lld, "
                 "\"request\": %lld}\n",
                 i, s.name.c_str(), s.start_us, s.end_us, self[i],
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
