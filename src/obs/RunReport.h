//===- obs/RunReport.h - Machine-readable run summaries ---------*- C++ -*-===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A versioned JSON summary of one tool run: tool-specific stats (cache
/// hit/miss/fold counts, stop-reason taxonomy, candidates/s, ...) plus the
/// merged observability state — counters, histogram summaries, and the
/// phase tree — captured at write() time. Consumers key on the schema
/// version field.
///
/// Schema (version 1):
///
///   {"swa_run_report": 1,
///    "tool": "config_search",
///    "stats": {"cache.hits": 12, "candidates_per_sec": 3451.2, ...},
///    "counters": {merged registry counters by name},
///    "histograms": {"name": {"n":..,"sum":..,"min":..,"max":..}, ...},
///    "phases": [{"name","ns","count","children":[...]}, ...]}
///
/// Stats preserve insertion order; counters/histograms are sorted by name
/// (the merged registry's deterministic order).
///
//===----------------------------------------------------------------------===//

#ifndef SWA_OBS_RUNREPORT_H
#define SWA_OBS_RUNREPORT_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace swa {
namespace obs {

/// Escapes \p S for inclusion in a JSON string literal (quotes, backslash,
/// control characters; everything else passes through). Shared by every
/// JSON writer: run reports, the Chrome trace export and the JSONL trace.
std::string jsonEscape(std::string_view S);

class RunReport {
public:
  static constexpr int SchemaVersion = 1;

  explicit RunReport(std::string Tool) : Tool(std::move(Tool)) {}

  /// Adds an integer stat (exact in the JSON output).
  void addCount(std::string_view Name, uint64_t Value);
  /// Adds a floating-point stat (rates, ratios, per-second figures).
  void addStat(std::string_view Name, double Value);

  /// Serializes the report, capturing the merged registry and phase tree
  /// at this moment. Call at a quiescent point (after the run finished).
  void write(std::ostream &OS) const;

  /// write() to \p Path; returns false and fills \p Error on I/O failure.
  bool writeFile(const std::string &Path, std::string &Error) const;

private:
  struct Entry {
    std::string Name;
    bool IsCount = false;
    uint64_t U = 0;
    double D = 0.0;
  };

  std::string Tool;
  std::vector<Entry> Entries;
};

} // namespace obs
} // namespace swa

#endif // SWA_OBS_RUNREPORT_H
