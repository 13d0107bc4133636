//===-- analysis/RaceDetector.cpp - Static shared-memory races ------------===//

#include "analysis/RaceDetector.h"

#include "analysis/Dataflow.h"

#include "ast/Printer.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>
#include <unordered_map>

using namespace gpuc;

std::string RaceFinding::str() const {
  std::string Kind = WriteWrite ? "write-write" : "write-read";
  std::string S = strFormat(
      "shared-memory race on '%s' word %lld in barrier phase %d: "
      "%s conflict between thread (%d,%d) and thread (%d,%d)",
      Array.c_str(), Word, Phase, Kind.c_str(), T1x, T1y, T2x, T2y);
  if (Ref1)
    S += strFormat("; first access %s", printExpr(Ref1).c_str());
  if (Ref2 && Ref2 != Ref1)
    S += strFormat(", second access %s", printExpr(Ref2).c_str());
  return S;
}

namespace {

/// Max free-loop value combinations enumerated per access.
constexpr long long MaxCombos = 4096;
/// Max findings reported (further races are counted but dropped).
constexpr int MaxFindings = 16;

/// First occupant of one shared word within a phase.
struct Occupant {
  int Tx = -1, Ty = -1;
  const SharedAccess *A = nullptr;
  /// Evaluated source element for staging stores (SharedAccess::HasSrc).
  bool HasSrc = false;
  long long Src = 0;
  bool valid() const { return Tx >= 0; }
};

class RaceScan {
public:
  RaceScan(const KernelFunction &K, const PhaseModel &Model,
           const DataflowResult *Facts)
      : K(K), Model(Model), Facts(Facts) {}

  RaceReport run() {
    Report.Analyzable = Model.Analyzable;
    Report.Notes = Model.Problems;
    if (!Model.Analyzable)
      return std::move(Report);
    assert(Facts && "an analyzable phase model is scanned with its facts");

    // Word extents of every write per (phase, array), from the dataflow
    // engine's range facts; unknown when any write's extent is unknown.
    // An unresolved *read* whose word interval is disjoint from all of its
    // phase's write extents provably cannot race — the range facts triage
    // what the exact symbolic enumeration cannot model.
    struct WriteExtents {
      std::vector<Interval> Extents;
      bool AllKnown = true;
    };
    std::map<std::pair<int, const DeclStmt *>, WriteExtents> Writes;
    for (const SharedAccess &A : Model.Accesses) {
      if (!A.IsWrite)
        continue;
      WriteExtents &W = Writes[{A.Phase, A.Decl}];
      Interval Ext = wordExtent(A);
      W.AllKnown &= Ext.Known;
      W.Extents.push_back(Ext);
    }
    auto RangeTriaged = [&](const SharedAccess &A) {
      if (A.IsWrite)
        return false;
      Interval RE = wordExtent(A);
      if (!RE.Known)
        return false;
      auto It = Writes.find({A.Phase, A.Decl});
      if (It == Writes.end())
        return true; // no writes to this array in this phase at all
      if (!It->second.AllKnown)
        return false;
      for (const Interval &WE : It->second.Extents)
        if (RE.Lo <= WE.Hi && WE.Lo <= RE.Hi)
          return false;
      return true;
    };

    // Group accesses by (phase, array); skip groups with no writes.
    std::map<std::pair<int, const DeclStmt *>,
             std::vector<const SharedAccess *>>
        Groups;
    for (const SharedAccess &A : Model.Accesses) {
      if (!A.Resolved) {
        if (!RangeTriaged(A))
          noteUnresolved(A);
        continue;
      }
      Groups[{A.Phase, A.Decl}].push_back(&A);
    }
    for (const auto &[Key, Accesses] : Groups) {
      bool AnyWrite = false;
      for (const SharedAccess *A : Accesses)
        AnyWrite |= A->IsWrite;
      if (AnyWrite)
        scanGroup(Key.first, Accesses);
    }
    std::sort(Report.Findings.begin(), Report.Findings.end(),
              [](const RaceFinding &A, const RaceFinding &B) {
                return std::tie(A.Phase, A.Word) < std::tie(B.Phase, B.Word);
              });
    return std::move(Report);
  }

private:
  /// Closed word interval [first, last] the access may touch, from the
  /// dataflow engine; unknown when the engine has no fact for it.
  Interval wordExtent(const SharedAccess &A) const {
    const AccessFact *F = Facts->factFor(A.Ref);
    if (!F || !F->Words.Known)
      return Interval::top();
    return Interval::make(F->Words.Lo, F->Words.Hi + F->Lanes - 1);
  }

  void noteUnresolved(const SharedAccess &A) {
    std::string Expr = A.Ref ? printExpr(A.Ref) : std::string("<access>");
    Report.Notes.push_back(strFormat(
        "shared access %s has a non-affine subscript; race-freedom not "
        "proved for it",
        Expr.c_str()));
  }

  /// Distinct sample blocks: shared addresses rarely depend on block ids,
  /// but when they do (through expanded idx/idy), corner blocks witness
  /// the extremes.
  std::vector<std::pair<long long, long long>>
  sampleBlocks(const std::vector<const SharedAccess *> &Accesses) const {
    bool NeedsBlocks = false;
    for (const SharedAccess *A : Accesses) {
      NeedsBlocks |= A->FlatFloat.CBidx != 0 || A->FlatFloat.CBidy != 0;
      for (const AccessGuard &G : A->Guards)
        NeedsBlocks |= G.Delta.CBidx != 0 || G.Delta.CBidy != 0;
    }
    if (!NeedsBlocks)
      return {{0, 0}};
    const LaunchConfig &L = K.launch();
    std::set<std::pair<long long, long long>> S;
    for (long long Bx : {0LL, L.GridDimX - 1})
      for (long long By : {0LL, L.GridDimY - 1})
        S.insert({Bx, By});
    return {S.begin(), S.end()};
  }

  void scanGroup(int Phase, const std::vector<const SharedAccess *> &Group) {
    for (auto [Bx, By] : sampleBlocks(Group)) {
      Words.clear();
      for (const SharedAccess *A : Group)
        enumerateAccess(*A, Phase, Bx, By);
    }
  }

  void enumerateAccess(const SharedAccess &A, int Phase, long long Bx,
                       long long By) {
    // Only loops whose iterator appears in the address or a guard matter.
    std::set<std::string> Needed;
    for (const auto &[Name, C] : A.FlatFloat.LoopCoeffs)
      if (C != 0)
        Needed.insert(Name);
    for (const AccessGuard &G : A.Guards)
      for (const auto &[Name, C] : G.Delta.LoopCoeffs)
        if (C != 0)
          Needed.insert(Name);

    std::vector<const EnumLoop *> Loops;
    for (const EnumLoop &L : A.Loops)
      if (Needed.count(L.Name)) {
        if (!L.Resolved || L.Values.empty()) {
          noteUnresolved(A);
          return;
        }
        Loops.push_back(&L);
        Needed.erase(L.Name);
      }
    if (!Needed.empty()) {
      // Iterator not bound by any enclosing loop (e.g. a local int): the
      // address is effectively data-dependent.
      noteUnresolved(A);
      return;
    }

    long long Combos = 1;
    for (const EnumLoop *L : Loops)
      Combos *= static_cast<long long>(L->Values.size());
    if (Combos > MaxCombos)
      Report.Notes.push_back(strFormat(
          "access %s enumerates %lld loop combinations; sampled to %lld",
          printExpr(A.Ref).c_str(), Combos, MaxCombos));

    // The same-value signature is usable only when every loop iterator it
    // mentions is enumerated here anyway; otherwise drop it (conservative:
    // the overlap is then reported).
    bool UseSrc = A.HasSrc && A.Lanes == 1;
    if (UseSrc) {
      std::set<std::string> Bound;
      for (const EnumLoop *EL : Loops)
        Bound.insert(EL->Name);
      for (const auto &[Name, C] : A.SrcAddr.LoopCoeffs)
        if (C != 0 && !Bound.count(Name))
          UseSrc = false;
    }

    const LaunchConfig &L = K.launch();
    std::map<std::string, long long> Values;
    std::vector<size_t> Pos(Loops.size(), 0);
    long long Done = 0;
    do {
      for (size_t I = 0; I < Loops.size(); ++I)
        Values[Loops[I]->Name] = Loops[I]->Values[Pos[I]];
      for (int Ty = 0; Ty < L.BlockDimY; ++Ty) {
        for (int Tx = 0; Tx < L.BlockDimX; ++Tx) {
          bool Live = true;
          for (const AccessGuard &G : A.Guards)
            if (!guardHolds(G, Tx, Ty, Bx, By, Values)) {
              Live = false;
              break;
            }
          if (!Live)
            continue;
          long long Base = A.FlatFloat.evaluate(Tx, Ty, Bx, By, Values);
          long long Src =
              UseSrc ? A.SrcAddr.evaluate(Tx, Ty, Bx, By, Values) : 0;
          for (int Lane = 0; Lane < A.Lanes; ++Lane)
            touch(A, Phase, Base + Lane, Tx, Ty, UseSrc, Src);
        }
      }
      ++Done;
    } while (Done < MaxCombos && advance(Pos, Loops));
  }

  static bool advance(std::vector<size_t> &Pos,
                      const std::vector<const EnumLoop *> &Loops) {
    for (size_t I = Pos.size(); I-- > 0;) {
      if (++Pos[I] < Loops[I]->Values.size())
        return true;
      Pos[I] = 0;
    }
    return false;
  }

  void touch(const SharedAccess &A, int Phase, long long Word, int Tx,
             int Ty, bool HasSrc = false, long long Src = 0) {
    WordState &S = Words[Word];
    auto Differs = [&](const Occupant &O) {
      return O.valid() && (O.Tx != Tx || O.Ty != Ty);
    };
    if (A.IsWrite) {
      if (Differs(S.W)) {
        // Both writers copying the same element of the same global array
        // store identical values: the redundant halo-load idiom, benign.
        bool Benign = HasSrc && S.W.HasSrc && S.W.Src == Src &&
                      S.W.A->SrcArray == A.SrcArray;
        if (!Benign)
          record(A, *S.W.A, Phase, Word, Tx, Ty, S.W.Tx, S.W.Ty,
                 /*WriteWrite=*/true);
      } else if (!S.W.valid())
        S.W = {Tx, Ty, &A, HasSrc, Src};
      // Two distinct recorded readers guarantee at least one conflicts
      // with any writer thread.
      if (Differs(S.R1))
        record(A, *S.R1.A, Phase, Word, Tx, Ty, S.R1.Tx, S.R1.Ty,
               /*WriteWrite=*/false);
      else if (Differs(S.R2))
        record(A, *S.R2.A, Phase, Word, Tx, Ty, S.R2.Tx, S.R2.Ty,
               /*WriteWrite=*/false);
      return;
    }
    if (Differs(S.W))
      record(*S.W.A, A, Phase, Word, S.W.Tx, S.W.Ty, Tx, Ty,
             /*WriteWrite=*/false);
    if (!S.R1.valid())
      S.R1 = {Tx, Ty, &A};
    else if (Differs(S.R1) && !S.R2.valid())
      S.R2 = {Tx, Ty, &A};
  }

  void record(const SharedAccess &A1, const SharedAccess &A2, int Phase,
              long long Word, int T1x, int T1y, int T2x, int T2y,
              bool WriteWrite) {
    // One finding per (site pair, phase, kind) keeps reports readable.
    auto Key = std::make_tuple(A1.Ref, A2.Ref, Phase, WriteWrite);
    if (!Seen.insert(Key).second)
      return;
    if (static_cast<int>(Report.Findings.size()) >= MaxFindings)
      return;
    RaceFinding F;
    F.Array = A1.Decl->name();
    F.WriteWrite = WriteWrite;
    F.Phase = Phase;
    F.Word = Word;
    F.T1x = T1x;
    F.T1y = T1y;
    F.T2x = T2x;
    F.T2y = T2y;
    F.Ref1 = A1.Ref;
    F.Ref2 = A2.Ref;
    F.Loc1 = A1.Loc;
    F.Loc2 = A2.Loc;
    Report.Findings.push_back(std::move(F));
  }

  struct WordState {
    Occupant W, R1, R2;
  };

  const KernelFunction &K;
  const PhaseModel &Model;
  const DataflowResult *Facts;
  RaceReport Report;
  std::unordered_map<long long, WordState> Words;
  std::set<std::tuple<const ArrayRef *, const ArrayRef *, int, bool>> Seen;
};

} // namespace

RaceReport gpuc::detectSharedRaces(const KernelFunction &K,
                                   const PhaseModel &Model,
                                   const DataflowResult *Facts) {
  return RaceScan(K, Model, Facts).run();
}
