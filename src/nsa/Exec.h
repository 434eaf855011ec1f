//===- nsa/Exec.h - Shared NSA execution semantics --------------*- C++ -*-===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exec implements the operational semantics of a bound network — the parts
/// shared by the deterministic simulator (nsa/Simulator.h) and the
/// exhaustive model checker (mc/ModelChecker.h):
///
///  * local edge-instance enabledness (data guard, clock guards, select
///    combinations, runtime channel indices);
///  * step construction (internal / binary rendezvous / broadcast) and
///    application (sender-then-receiver updates, clock resets, location
///    moves, post-state invariant checks);
///  * stopwatch-aware delay computation: the maximal delay permitted by
///    invariants and the earliest time any clock guard can become enabled.
///
/// Semantics follow UPPAAL conventions: committed locations suppress delay
/// and require a committed participant in every action; broadcast senders
/// never block; guards are evaluated in the pre-state.
///
//===----------------------------------------------------------------------===//

#ifndef SWA_NSA_EXEC_H
#define SWA_NSA_EXEC_H

#include "nsa/Event.h"
#include "nsa/State.h"
#include "sa/Network.h"
#include "usl/Interp.h"

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

namespace swa {
namespace nsa {

/// Sentinel for "no bound".
inline constexpr int64_t TimeInfinity =
    std::numeric_limits<int64_t>::max() / 4;

/// One locally enabled edge instance: an edge together with chosen select
/// values and its (runtime-evaluated) flat channel id.
struct EnabledInst {
  int32_t Edge = -1;
  int32_t ChanId = -1; ///< -1 for internal edges.
  bool IsSend = false;
  bool Broadcast = false;
  std::vector<int64_t> Selects;
};

/// A fully determined action step.
struct Step {
  EnabledInst Initiator; ///< Internal edge or the sender.
  int32_t InitiatorAut = -1;
  struct Recv {
    int32_t Aut = -1;
    EnabledInst Inst;
  };
  std::vector<Recv> Receivers;
};

class Exec {
public:
  explicit Exec(const sa::Network &Net);

  const sa::Network &network() const { return Net; }

  /// Initializes \p S to the network's initial state.
  void initState(State &S);

  /// Enumerates this automaton's locally enabled edge instances in
  /// deterministic order (edge index, then select values ascending).
  /// Partner availability is not considered.
  void collectEnabled(const State &S, int Aut,
                      std::vector<EnabledInst> &Out);

  /// True when the invariant of \p Aut's current location holds in \p S
  /// (data part and clock upper bounds).
  bool invariantHolds(const State &S, int Aut);

  /// Applies \p Step to \p S: runs updates (initiator first, then
  /// receivers in order), resets clocks, moves locations.
  ///
  /// \p WriteLog, when non-null, receives every written store slot.
  /// \returns false when a participant's target-location invariant is
  /// violated afterwards (the state is then inconsistent; callers that need
  /// to survive this must apply to a copy).
  bool applyStep(State &S, const Step &St,
                 std::vector<int32_t> *WriteLog = nullptr);

  /// Computes the wake deadline of \p Aut relative to absolute time: the
  /// minimum over (a) invariant upper-bound expiry of its current location
  /// and (b) earliest enabling time of any clock guard on its out-edges.
  /// Returns TimeInfinity when the automaton is time-independent.
  int64_t wakeTime(const State &S, int Aut);

  /// Advances time by \p Delta. Running clocks store their origin, so
  /// only the automata whose rates read the store are re-synced first
  /// (their rates are evaluated in the pre-delay state); every other
  /// automaton's clocks already run or stand as its location says.
  void advanceTime(State &S, int64_t Delta);

  /// Re-bases \p Aut's clocks to the rates of its current location in
  /// \p S: a clock that starts running stores its origin, one that stops
  /// stores its value. initState and applyStep call it.
  void syncRates(State &S, int Aut);

  /// The rate (0 or 1) of clock \p ClockIdx for automaton \p Aut in its
  /// current location.
  int rateOf(const State &S, int Aut, int ClockIdx);

  /// Whether \p Aut currently occupies a committed location.
  bool inCommitted(const State &S, int Aut) const {
    return Net.Automata[static_cast<size_t>(Aut)]
        ->Locations[static_cast<size_t>(
            S.Locs[static_cast<size_t>(Aut)])]
        .Committed;
  }

  /// Number of automata currently in committed locations.
  int countCommitted(const State &S) const;

  /// Evaluates a bound data expression in \p S with an optional select
  /// frame (used by analysis layers to probe variables).
  int64_t evalIn(const State &S, const usl::Expr &E,
                 const std::vector<int64_t> &Frame = {});

private:
  int64_t evalExprIn(State &S, const usl::Expr &E,
                     const std::vector<int64_t> &Frame);
  /// Evaluates a site: runs compiled bytecode when available, else the
  /// tree interpreter.
  int64_t evalSite(State &S, const usl::Expr &E, const usl::Code &C,
                   const std::vector<int64_t> &Frame);
  bool clockGuardsHold(State &S, int Aut, int Edge);
  void runUpdate(State &S, const sa::Edge &E,
                 const std::vector<int64_t> &Selects,
                 std::vector<int32_t> *WriteLog);

  const sa::Network &Net;
  usl::EvalContext Ctx;
  /// Automata with a rate condition that does not fold to a literal: their
  /// clocks can start or stop without a location move, so advanceTime
  /// re-syncs them before each delay.
  std::vector<int32_t> DynamicRateAuts;

  /// Sentinel in the folded-bound tables: the bound is a dynamic
  /// expression and must be evaluated.
  static constexpr int64_t DynamicBound =
      std::numeric_limits<int64_t>::min();

  /// Clock-bound expressions are overwhelmingly literals after template
  /// instantiation (periods, window edges); folding them at construction
  /// removes an interpreter/VM dispatch from every guard check and wake
  /// computation on the hot path.
  struct FoldedAut {
    /// [Loc][I]: folded Location::Uppers[I] bound, or DynamicBound.
    std::vector<std::vector<int64_t>> UpperBounds;
    /// [Edge][I]: folded Edge::ClockGuards[I] bound, or DynamicBound.
    std::vector<std::vector<int64_t>> GuardBounds;
    /// [Loc]: location has stopwatch rate conditions.
    std::vector<char> LocHasRates;
    /// One rate condition with its expression pre-folded. The model
    /// library's rates are almost all the literal 0 ("clock stopped
    /// here"), so re-basing a clock on a location move needs no
    /// expression evaluation at all.
    struct FoldedRate {
      int32_t Clock;
      int64_t Value;            ///< Folded rate, or DynamicBound.
      const sa::RateCond *Cond; ///< For dynamic evaluation.
    };
    /// [Loc]: the location's rate conditions, folded.
    std::vector<std::vector<FoldedRate>> LocRates;
  };
  std::vector<FoldedAut> Folded;

  /// Scratch select frame for collectEnabled (steady-state allocation-free).
  std::vector<int64_t> FrameScratch;

  int64_t upperBound(State &S, int Aut, const sa::Location &L, size_t I);
  int64_t guardBound(State &S, int Aut, int Edge, size_t I);
};

} // namespace nsa
} // namespace swa

#endif // SWA_NSA_EXEC_H
