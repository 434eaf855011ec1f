//===- sa/NetworkBuilder.cpp - NSA instance construction -------------------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//

#include "sa/NetworkBuilder.h"

#include "support/StringUtils.h"
#include "usl/Interp.h"
#include "usl/Parser.h"

#include <unordered_map>

using namespace swa;
using namespace swa::sa;

std::string Network::channelIdName(int Id) const {
  const ChannelInfo *C = channelOf(Id);
  if (!C)
    return formatString("<chan:%d>", Id);
  if (C->Count == 1)
    return C->Name;
  return formatString("%s[%d]", C->Name.c_str(), Id - C->Base);
}

NetworkBuilder::NetworkBuilder() : Net(std::make_unique<Network>()) {
  GlobalBinder = std::make_unique<usl::Binder>(Net->Bind);
}

Error NetworkBuilder::addGlobals(std::string_view Source) {
  if (GlobalsLaidOut)
    return Error::failure(
        "global declarations must be added before instances");
  return usl::parseDeclarations(Source, Globals, /*IsTemplate=*/false);
}

Error NetworkBuilder::layoutGlobals() {
  if (GlobalsLaidOut)
    return Error::success();
  GlobalsLaidOut = true;

  // Variables: decl order, arrays contiguous.
  for (const usl::Declarations::VarInit &VI : Globals.Vars) {
    int Base = static_cast<int>(Net->InitialStore.size());
    int Size = VI.Sym->Ty.isArray() ? VI.Sym->Ty.Size : 1;
    for (int I = 0; I < Size; ++I) {
      int64_t Init = 0;
      if (static_cast<size_t>(I) < VI.Init.size()) {
        Result<int64_t> V = usl::foldConst(*VI.Init[static_cast<size_t>(I)]);
        if (!V.ok())
          return V.takeError().withContext(
              "initializer of global '" + VI.Sym->Name + "'");
        Init = *V;
      }
      Net->InitialStore.push_back(Init);
    }
    Net->Vars.push_back({VI.Sym->Name, Base, Size});
    GlobalBinder->mapStore(VI.Sym, Base);
  }

  // Clocks.
  for (const usl::Symbol *C : Globals.Clocks) {
    GlobalBinder->mapClock(C, static_cast<int>(Net->ClockNames.size()));
    Net->ClockNames.push_back(C->Name);
  }

  // Channels.
  for (const usl::Symbol *Ch : Globals.Channels) {
    ChannelInfo CI;
    CI.Name = Ch->Name;
    CI.Base = Net->NumChannelIds;
    CI.Count = Ch->Ty.Kind == usl::TypeKind::ChanArray ? Ch->Ty.Size : 1;
    CI.Broadcast = Ch->Broadcast;
    Net->NumChannelIds += CI.Count;
    Net->Channels.push_back(std::move(CI));
  }
  return Error::success();
}

namespace {

/// Rejects direct frame references (select variables) in an expression that
/// will be evaluated outside an edge frame (clock guard bounds).
bool hasDirectFrameRef(const usl::Expr &E) {
  if (E.Ref == usl::RefKind::Frame)
    return true;
  for (const usl::ExprPtr &C : E.Children)
    if (hasDirectFrameRef(*C))
      return true;
  return false;
}

} // namespace

Result<Automaton *> NetworkBuilder::addInstance(const Template &T,
                                                const std::string &InstName,
                                                const ParamMap &Params) {
  assert(!Finished && "builder already finished");
  if (Error E = layoutGlobals())
    return E;

  auto Context = [&](const std::string &What) {
    return "instance '" + InstName + "' of template '" + T.name() + "' " +
           What;
  };

  usl::Binder Binder(Net->Bind, *GlobalBinder);

  // Bind parameters.
  std::unordered_map<std::string, const std::vector<int64_t> *> Provided;
  for (const auto &[Name, Values] : Params)
    Provided[Name] = &Values;
  for (const usl::Symbol *P : T.decls().Params) {
    auto It = Provided.find(P->Name);
    if (It == Provided.end())
      return Error::failure(Context("is missing parameter '" + P->Name +
                                    "'"));
    if (!P->Ty.isArray() && It->second->size() != 1)
      return Error::failure(Context("parameter '" + P->Name +
                                    "' expects a scalar value"));
    if (P->Ty.isArray() && It->second->empty())
      return Error::failure(Context("parameter '" + P->Name +
                                    "' expects a non-empty array"));
    Binder.mapParam(P, *It->second);
    Provided.erase(It);
  }
  if (!Provided.empty())
    return Error::failure(Context("got unknown parameter '" +
                                  Provided.begin()->first + "'"));

  // Allocate instance-local variables.
  for (const usl::Declarations::VarInit &VI : T.decls().Vars) {
    int Base = static_cast<int>(Net->InitialStore.size());
    int Size = VI.Sym->Ty.isArray() ? VI.Sym->Ty.Size : 1;
    Binder.mapStore(VI.Sym, Base);
    for (int I = 0; I < Size; ++I) {
      int64_t Init = 0;
      if (static_cast<size_t>(I) < VI.Init.size()) {
        Result<int64_t> V =
            Binder.bindAndFold(*VI.Init[static_cast<size_t>(I)]);
        if (!V.ok())
          return V.takeError().withContext(
              Context("initializer of '" + VI.Sym->Name + "'"));
        Init = *V;
      }
      Net->InitialStore.push_back(Init);
    }
    Net->Vars.push_back({InstName + "." + VI.Sym->Name, Base, Size});
  }

  auto A = std::make_unique<Automaton>();
  A->Name = InstName;
  A->TemplateName = T.name();
  A->InitialLocation = T.initialLocation();

  // Instance-local clocks.
  for (const usl::Symbol *C : T.decls().Clocks) {
    int Index = static_cast<int>(Net->ClockNames.size());
    Binder.mapClock(C, Index);
    Net->ClockNames.push_back(InstName + "." + C->Name);
    A->Clocks.push_back(Index);
  }

  // Locations.
  for (const Template::LocationDef &LD : T.locations()) {
    Location L;
    L.Name = LD.Name;
    L.Committed = LD.Committed;
    if (LD.Invariant.DataPart) {
      Result<usl::ExprPtr> B = Binder.bindExpr(*LD.Invariant.DataPart);
      if (!B.ok())
        return B.takeError().withContext(Context("location " + LD.Name));
      L.DataInvariant = B.takeValue();
    }
    for (const usl::InvariantAst::ClockUpper &U : LD.Invariant.Uppers) {
      ClockUpper CU;
      Result<int> CI = Binder.clockIndex(U.Clock);
      if (!CI.ok())
        return CI.takeError().withContext(Context("location " + LD.Name));
      CU.Clock = *CI;
      CU.Strict = U.Strict;
      Result<usl::ExprPtr> B = Binder.bindExpr(*U.Bound);
      if (!B.ok())
        return B.takeError().withContext(Context("location " + LD.Name));
      CU.Bound = B.takeValue();
      L.Uppers.push_back(std::move(CU));
    }
    for (const usl::InvariantAst::RateCond &R : LD.Invariant.Rates) {
      // Each clock has one running bit, owned by the one automaton whose
      // location decides it (see nsa/State.h).
      if (R.Clock->Kind != usl::SymbolKind::TemplateClock)
        return Error::failure(
            ErrorCode::UnsupportedRate,
            Context("location " + LD.Name + ": rate condition on global "
                    "clock '" + R.Clock->Name +
                    "'; only the template's own clocks can stop"));
      RateCond RC;
      Result<int> CI = Binder.clockIndex(R.Clock);
      if (!CI.ok())
        return CI.takeError().withContext(Context("location " + LD.Name));
      RC.Clock = *CI;
      for (const RateCond &Prev : L.Rates)
        if (Prev.Clock == RC.Clock)
          return Error::failure(
              ErrorCode::UnsupportedRate,
              Context("location " + LD.Name + ": clock '" + R.Clock->Name +
                      "' has two rate conditions"));
      Result<usl::ExprPtr> B = Binder.bindExpr(*R.Rate);
      if (!B.ok())
        return B.takeError().withContext(Context("location " + LD.Name));
      RC.Rate = B.takeValue();
      L.Rates.push_back(std::move(RC));
    }
    A->Locations.push_back(std::move(L));
  }

  // Edges.
  for (const Template::EdgeDef &ED : T.edges()) {
    Edge E;
    E.Src = ED.Src;
    E.Dst = ED.Dst;

    for (const usl::SelectAst &S : ED.Labels.Selects) {
      SelectBinding SB;
      SB.FrameSlot = S.Var->Index;
      Result<int64_t> Lo = Binder.bindAndFold(*S.Lo);
      Result<int64_t> Hi = Binder.bindAndFold(*S.Hi);
      if (!Lo.ok())
        return Lo.takeError().withContext(Context("select bound"));
      if (!Hi.ok())
        return Hi.takeError().withContext(Context("select bound"));
      SB.Lo = *Lo;
      SB.Hi = *Hi;
      if (SB.Lo > SB.Hi)
        return Error::failure(Context("has an empty select range"));
      E.Selects.push_back(SB);
    }

    if (ED.Labels.Guard.DataPart) {
      Result<usl::ExprPtr> B = Binder.bindExpr(*ED.Labels.Guard.DataPart);
      if (!B.ok())
        return B.takeError().withContext(Context("guard"));
      E.DataGuard = B.takeValue();
    }
    for (const usl::GuardAst::ClockRel &CR : ED.Labels.Guard.Clocks) {
      ClockGuard CG;
      Result<int> CI = Binder.clockIndex(CR.Clock);
      if (!CI.ok())
        return CI.takeError().withContext(Context("guard"));
      CG.Clock = *CI;
      CG.Op = CR.Op;
      Result<usl::ExprPtr> B = Binder.bindExpr(*CR.Bound);
      if (!B.ok())
        return B.takeError().withContext(Context("guard"));
      if (hasDirectFrameRef(**B))
        return Error::failure(
            Context("clock guard bounds may not reference select "
                    "variables"));
      CG.Bound = B.takeValue();
      E.ClockGuards.push_back(std::move(CG));
    }

    if (ED.Labels.Sync.Chan) {
      const usl::Symbol *Ch = ED.Labels.Sync.Chan;
      const ChannelInfo *CI = nullptr;
      for (const ChannelInfo &C : Net->Channels)
        if (C.Name == Ch->Name) {
          CI = &C;
          break;
        }
      if (!CI)
        return Error::failure(Context("references unknown channel '" +
                                      Ch->Name + "'"));
      SyncAction SA;
      SA.ChannelBase = CI->Base;
      SA.ChannelCount = CI->Count;
      SA.IsSend = ED.Labels.Sync.IsSend;
      SA.Broadcast = CI->Broadcast;
      if (ED.Labels.Sync.IndexExpr) {
        Result<usl::ExprPtr> B = Binder.bindExpr(*ED.Labels.Sync.IndexExpr);
        if (!B.ok())
          return B.takeError().withContext(Context("sync"));
        SA.Index = B.takeValue();
      }
      E.Sync = std::move(SA);
    }

    for (const usl::StmtPtr &S : ED.Labels.Update.Stmts) {
      Result<usl::StmtPtr> B = Binder.bindStmt(*S);
      if (!B.ok())
        return B.takeError().withContext(Context("update"));
      E.Update.push_back(B.takeValue());
    }
    for (const usl::Symbol *CS : ED.Labels.Update.ClockResets) {
      Result<int> CI = Binder.clockIndex(CS);
      if (!CI.ok())
        return CI.takeError().withContext(Context("update"));
      E.ClockResets.push_back(*CI);
    }

    A->Locations[static_cast<size_t>(E.Src)].OutEdges.push_back(
        static_cast<int>(A->Edges.size()));
    A->Edges.push_back(std::move(E));
  }

  // Static read set for dirty tracking.
  if (!ReadSets)
    ReadSets = std::make_unique<usl::ReadSetCollector>(Net->Bind.FuncTable);
  else
    ReadSets->refresh();
  usl::ReadSet Reads;
  for (const Edge &E : A->Edges) {
    if (E.DataGuard)
      ReadSets->collect(*E.DataGuard, Reads);
    if (E.Sync && E.Sync->Index)
      ReadSets->collect(*E.Sync->Index, Reads);
    for (const ClockGuard &CG : E.ClockGuards)
      ReadSets->collect(*CG.Bound, Reads);
  }
  for (const Location &L : A->Locations) {
    if (L.DataInvariant)
      ReadSets->collect(*L.DataInvariant, Reads);
    for (const ClockUpper &U : L.Uppers)
      ReadSets->collect(*U.Bound, Reads);
    for (const RateCond &R : L.Rates)
      ReadSets->collect(*R.Rate, Reads);
  }

  // Apply the template's read hints: for each hinted global array, drop
  // every read of it, whole-array entries unexpanded, and substitute the
  // promised elements.
  for (const Template::ReadHintDef &HD : T.readHints()) {
    int ArrBase = -1, ArrSize = 0;
    for (const VarInfo &V : Net->Vars)
      if (V.Name == HD.Array) {
        ArrBase = V.Base;
        ArrSize = V.Size;
        break;
      }
    if (ArrBase < 0)
      return Error::failure(Context("read hint references unknown array '" +
                                    HD.Array + "'"));
    Reads.dropArray(ArrBase, ArrSize);
    if (HD.isRange()) {
      Result<int64_t> Base = Binder.bindAndFold(*HD.Base);
      Result<int64_t> Count = Binder.bindAndFold(*HD.Count);
      if (!Base.ok() || !Count.ok())
        return Error::failure(Context("read hint bounds must fold at "
                                      "instantiation"));
      for (int64_t I = 0; I < *Count; ++I) {
        int64_t Idx = *Base + I;
        if (Idx >= 0 && Idx < ArrSize)
          Reads.Slots.push_back(static_cast<int32_t>(ArrBase + Idx));
      }
    } else {
      Result<int64_t> Count = Binder.bindAndFold(*HD.ElemsCount);
      if (!Count.ok())
        return Error::failure(Context("read hint count must fold at "
                                      "instantiation"));
      const std::vector<int64_t> *Values = nullptr;
      for (const auto &[PName, PValues] : Params)
        if (PName == HD.ElemsParam)
          Values = &PValues;
      if (!Values)
        return Error::failure(Context("read hint parameter '" +
                                      HD.ElemsParam + "' was not bound"));
      for (int64_t I = 0; I < *Count &&
                          I < static_cast<int64_t>(Values->size());
           ++I) {
        int64_t Idx = (*Values)[static_cast<size_t>(I)];
        if (Idx >= 0 && Idx < ArrSize)
          Reads.Slots.push_back(static_cast<int32_t>(ArrBase + Idx));
      }
    }
  }

  // Only un-hinted arrays expand, once per instance.
  A->StaticReads = Reads.expand();

  // Record which ConstArrays slot each array parameter was interned at,
  // so post-build passes (core::WindowRebinder) can patch an instance's
  // array parameters in place. Slots are per-instance by construction.
  for (const usl::Symbol *P : T.decls().Params) {
    if (!P->Ty.isArray())
      continue;
    auto It = Binder.constArraySlots().find(P);
    if (It != Binder.constArraySlots().end())
      A->Meta["carr." + P->Name] = It->second;
  }

  Net->Automata.push_back(std::move(A));
  return Net->Automata.back().get();
}

Result<std::unique_ptr<Network>> NetworkBuilder::finish() {
  assert(!Finished && "builder already finished");
  if (Error E = layoutGlobals())
    return E;
  Finished = true;
  return std::move(Net);
}
