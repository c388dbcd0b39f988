#include "obs/metrics.hpp"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#ifndef OVO_GIT_DESCRIBE
#define OVO_GIT_DESCRIBE "unknown"
#endif
#ifndef OVO_BUILD_TYPE
#define OVO_BUILD_TYPE "unknown"
#endif

namespace ovo::obs {

Registry& Registry::global() {
  static Registry g;
  return g;
}

Ledger Registry::snapshot() const {
  Ledger out;
  for (std::size_t i = 0; i < kMetricCount; ++i)
    out.set(static_cast<Metric>(i),
            v_[i].load(std::memory_order_relaxed));
  return out;
}

namespace {

void appendf(std::string& s, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  s += buf;
}

}  // namespace

void append_json_u64(std::string& s, const char* key, std::uint64_t v) {
  appendf(s, ",\"%s\":%" PRIu64, key, v);
}

void append_json_f64(std::string& s, const char* key, double v) {
  appendf(s, ",\"%s\":%.4f", key, v);
}

void append_json_str(std::string& s, const char* key, const char* v) {
  appendf(s, ",\"%s\":\"%s\"", key, v);
}

void append_metric_json(std::string& s, const Ledger& l, Metric m) {
  if (agg(m) == Agg::kSumF64)
    append_json_f64(s, json_key(m), l.get_f64(m));
  else
    append_json_u64(s, json_key(m), l.get(m));
}

void append_metrics_json(std::string& s, const Ledger& l,
                         std::initializer_list<Metric> ms) {
  for (const Metric m : ms) append_metric_json(s, l, m);
}

void append_counters_json(std::string& s, const Ledger& l) {
  append_metrics_json(s, l,
                      {Metric::kOracleQueries, Metric::kOracleEvals,
                       Metric::kOracleMemoHits, Metric::kFsTableCells,
                       Metric::kFsCutCells, Metric::kFsStates});
  // The bound-pruning ledger appears whenever the run pruned against an
  // incumbent or enumerated a state, so a run whose bound proved the
  // incumbent before its first layer still prints what it pruned
  // against (and a prune_ratio of 0).
  const std::uint64_t enumerated =
      l.get(Metric::kFsPruneGenerated) + l.get(Metric::kFsPruneDead);
  if (enumerated > 0 || l.get(Metric::kFsPruneUpperBound) > 0) {
    append_metrics_json(s, l,
                        {Metric::kFsPruneUpperBound, Metric::kFsPruneGenerated,
                         Metric::kFsPrunePruned, Metric::kFsPruneDead,
                         Metric::kFsPruneSurviving});
    const double ratio =
        enumerated == 0
            ? 0.0
            : static_cast<double>(l.get(Metric::kFsPrunePruned) +
                                  l.get(Metric::kFsPruneDead)) /
                  static_cast<double>(enumerated);
    append_json_f64(s, "prune_ratio", ratio);
    append_metrics_json(
        s, l, {Metric::kFsPruneDenseCells, Metric::kFsPruneSparseCells});
  }
}

void append_run_info_json(std::string& s, int threads) {
  append_json_u64(s, "schema_version", kSchemaVersion);
  append_json_str(s, "git", build_git_describe());
  append_json_str(s, "build", build_type());
  append_json_u64(s, "threads",
                  threads < 0 ? 0 : static_cast<std::uint64_t>(threads));
}

const char* build_git_describe() { return OVO_GIT_DESCRIBE; }
const char* build_type() { return OVO_BUILD_TYPE; }

}  // namespace ovo::obs
