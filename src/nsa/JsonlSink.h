//===- nsa/JsonlSink.h - JSON Lines trace writer ----------------*- C++ -*-===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A RunObserver that streams the simulator's step stream as JSON Lines,
/// one object per line, for jq/pandas style offline inspection: action
/// steps (internal / binary / broadcast synchronizations), delay steps,
/// shared-variable writes, and an end record with the stop reason.
///
///   {"k":"action","t":12,"chan":"exec[1]","init":"ts_p0","edge":3,"recv":["t1"]}
///   {"k":"delay","from":12,"to":20}
///   {"k":"write","t":20,"var":"is_ready[3]","slot":17,"val":1}
///   {"k":"end","stop":"completed"}
///
/// Channel, automaton and variable names come from the network passed to
/// onRunStart. The writer never reports a violation, so attaching it
/// cannot perturb the deterministic run.
///
//===----------------------------------------------------------------------===//

#ifndef SWA_NSA_JSONLSINK_H
#define SWA_NSA_JSONLSINK_H

#include "nsa/Simulator.h"

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace swa {
namespace nsa {

/// Streams a run as JSON Lines to an ostream.
///
/// Crash-safe by default: every record is flushed at its line boundary and
/// an explicit {"k":"end",...} record (with the StopReason) is written on
/// every exit path, so a campaign killed mid-run leaves a parseable event
/// log whose last line tells whether the run completed. Pass
/// FlushEachRecord = false for throughput-sensitive offline dumps where
/// losing the tail of a crashed run is acceptable.
class JsonlSink : public RunObserver {
public:
  explicit JsonlSink(std::ostream &OS, bool FlushEachRecord = true)
      : OS(OS), FlushEachRecord(FlushEachRecord) {}

  void onRunStart(const sa::Network &Net, const State &Initial) override;
  std::string onStep(const State &Post, const Step &St,
                     const std::vector<int32_t> &Writes) override;
  std::string onDelay(int64_t From, const State &Post) override;
  std::string onRunEnd(const State &Final, StopReason Stop,
                       const std::string &Error) override;

  uint64_t linesWritten() const { return Lines; }

private:
  void sealRecord();

  std::ostream &OS;
  bool FlushEachRecord;
  uint64_t Lines = 0;
  const sa::Network *Net = nullptr;
  /// Display name of every store slot ("x" or "arr[3]").
  std::vector<std::string> SlotNames;
};

} // namespace nsa
} // namespace swa

#endif // SWA_NSA_JSONLSINK_H
