//===-- analysis/Lint.cpp - Kernel lint passes ----------------------------===//

#include "analysis/Lint.h"

#include "analysis/Dataflow.h"
#include "analysis/SharedAccess.h"
#include "ast/Printer.h"
#include "core/Accesses.h"
#include "core/Coalescing.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>

using namespace gpuc;

namespace {

/// Shared-memory banks on the paper's hardware.
constexpr int SharedBanks = 16;

/// Loop-iterator intervals by name, and their rangeOfAffine view.
using IterRanges = std::map<std::string, Interval>;

RangeEnv rangeEnv(const IterRanges &Iters) {
  return {&Iters, [](const void *Ctx, const std::string &Name) {
            const auto &M = *static_cast<const IterRanges *>(Ctx);
            const auto It = M.find(Name);
            return It == M.end() ? nullptr : &It->second;
          }};
}

class Linter {
public:
  Linter(KernelFunction &K, const PhaseModel &Model,
         const DataflowResult *Facts, DiagnosticsEngine &Diags,
         const LintOptions &Opt)
      : K(K), Model(Model), Facts(Facts), Diags(Diags), Opt(Opt) {}

  int run() {
    Globals = collectGlobalAccesses(K);
    if (Opt.Strict) {
      // Verdict mode: the dataflow engine subsumes both bounds lints and
      // sees through guards instead of skipping them.
      assert(Facts && "strict lints read the kernel's dataflow facts");
      lintStrictBounds();
    } else {
      collectGuarded(K.body(), /*UnderIf=*/false);
      lintGlobalBounds();
      lintSharedBounds();
    }
    lintBankConflicts();
    if (Opt.Coalescing)
      lintCoalescing();
    return NumWarnings;
  }

private:
  void warn(SourceLocation Loc, std::string Msg) {
    if (!Opt.Context.empty())
      Msg = "[" + Opt.Context + "] " + Msg;
    Diags.warning(Loc, std::move(Msg));
    ++NumWarnings;
  }

  /// Statements nested under some if: their accesses are guard-restricted,
  /// so interval analysis over the full thread/loop space would produce
  /// false positives (e.g. the `if (tidx < s)` reduction idiom).
  void collectGuarded(const Stmt *S, bool UnderIf) {
    if (UnderIf)
      Guarded.insert(S);
    switch (S->kind()) {
    case StmtKind::Compound:
      for (const Stmt *Child : cast<CompoundStmt>(S)->body())
        collectGuarded(Child, UnderIf);
      return;
    case StmtKind::If: {
      const auto *I = cast<IfStmt>(S);
      collectGuarded(I->thenBody(), /*UnderIf=*/true);
      if (I->elseBody())
        collectGuarded(I->elseBody(), /*UnderIf=*/true);
      return;
    }
    case StmtKind::For:
      collectGuarded(cast<ForStmt>(S)->body(), UnderIf);
      return;
    case StmtKind::While:
      // A while body executes only when its (data-dependent) condition
      // holds, so treat it like a guarded region.
      collectGuarded(cast<WhileStmt>(S)->body(), /*UnderIf=*/true);
      return;
    default:
      return;
    }
  }

  void lintGlobalBounds() {
    std::set<const ArrayRef *> Reported;
    for (const AccessInfo &A : Globals) {
      if (!A.Resolved || !A.Param || !Reported.insert(A.Ref).second)
        continue;
      if (A.Owner && Guarded.count(A.Owner))
        continue;
      // An iterator ranges over its outermost loop of that name (the one
      // loopNamed finds), when that loop runs at least once.
      IterRanges Iters;
      for (const LoopInfo &LI : A.Loops) {
        const long long Trip = LI.Resolved ? LI.trip() : 0;
        Iters.emplace(LI.Loop->iterName(),
                      Trip > 0 ? Interval::make(LI.Init,
                                                LI.Init + (Trip - 1) * LI.Step)
                               : Interval::top());
      }
      const Interval Bytes =
          rangeOfAffine(A.Addr, K.launch(), rangeEnv(Iters));
      if (!Bytes.Known)
        continue;
      const long long Size = A.Param->sizeInBytes();
      if (Bytes.Lo < 0 || Bytes.Hi + A.ElemBytes > Size)
        warn(A.Ref->loc(),
             strFormat("%s of '%s' may be out of bounds: byte address range "
                       "[%lld, %lld] exceeds the declared %lld bytes",
                       A.IsStore ? "store" : "load", printExpr(A.Ref).c_str(),
                       Bytes.Lo, Bytes.Hi + A.ElemBytes - 1, Size));
    }
  }

  void lintStrictBounds() {
    std::set<const ArrayRef *> Reported;
    for (const AccessFact &A : Facts->Accesses) {
      if (A.Bounds == Verdict::Proven || !Reported.insert(A.Ref).second)
        continue;
      const char *Kind = A.IsStore ? "store" : "load";
      const char *Space = A.IsShared ? "__shared__ " : "";
      if (A.Bounds == Verdict::Violation)
        warn(A.Loc,
             strFormat("%s of %s'%s' is proven out of bounds: word range %s "
                       "with %d lane(s) exceeds the declared %lld words",
                       Kind, Space, printExpr(A.Ref).c_str(),
                       A.Words.str().c_str(), A.Lanes, A.TotalWords));
      else
        warn(A.Loc,
             strFormat("%s of %s'%s' is possibly out of bounds (in-bounds "
                       "not proven): word range %s with %d lane(s) against "
                       "%lld declared words",
                       Kind, Space, printExpr(A.Ref).c_str(),
                       A.Words.str().c_str(), A.Lanes, A.TotalWords));
    }
  }

  void lintSharedBounds() {
    std::set<const ArrayRef *> Reported;
    for (const SharedAccess &A : Model.Accesses) {
      if (!A.Resolved || !A.Decl || !Reported.insert(A.Ref).second)
        continue;
      // Guards restrict the executing threads; skip rather than warn on a
      // thread the guard masks off.
      if (!A.Guards.empty() || A.UnknownGuard)
        continue;
      // An iterator ranges over its innermost loop of that name.
      IterRanges Iters;
      for (const EnumLoop &EL : A.Loops)
        Iters[EL.Name] =
            EL.Resolved ? Interval::make(EL.Min, EL.Max) : Interval::top();
      const Interval W =
          rangeOfAffine(A.FlatFloat, K.launch(), rangeEnv(Iters));
      if (!W.Known)
        continue;
      const long long Words =
          A.Decl->sharedElemCount() * A.Decl->declType().sizeInBytes() / 4;
      if (W.Lo < 0 || W.Hi + A.Lanes > Words)
        warn(A.Ref->loc(),
             strFormat("%s of __shared__ '%s' may be out of bounds: word "
                       "range [%lld, %lld] exceeds the declared %lld words",
                       A.IsWrite ? "store" : "load",
                       printExpr(A.Ref).c_str(), W.Lo, W.Hi + A.Lanes - 1,
                       Words));
    }
  }

  void lintBankConflicts() {
    const LaunchConfig &L = K.launch();
    long long HalfWarp = std::min<long long>(16, L.threadsPerBlock());
    if (HalfWarp < 2)
      return;
    std::set<const ArrayRef *> Reported;
    for (const SharedAccess &A : Model.Accesses) {
      if (!A.Resolved || !A.Decl || !Reported.insert(A.Ref).second)
        continue;
      // A guard masks off lanes, so the all-lanes degree is only an upper
      // bound; strict mode still reports it, qualified as "possible".
      const bool GuardMasked = !A.Guards.empty() || A.UnknownGuard;
      if (GuardMasked && !Opt.Strict)
        continue;
      // First iteration of every enclosing loop; the affine stride makes
      // later iterations shift all lanes alike, so the conflict degree is
      // the same (Section 3.2's periodicity argument).
      std::map<std::string, long long> Values;
      bool Known = true;
      for (const auto &[Name, C] : A.FlatFloat.LoopCoeffs) {
        if (C == 0)
          continue;
        const EnumLoop *EL = nullptr;
        for (const EnumLoop &Cand : A.Loops)
          if (Cand.Name == Name)
            EL = &Cand;
        if (!EL || !EL->Resolved || EL->Values.empty()) {
          Known = false;
          break;
        }
        Values[Name] = EL->Values.front();
      }
      if (!Known)
        continue;
      // Lanes of the first half warp, in flat thread order. Same word from
      // two lanes is a broadcast, not a conflict.
      std::map<long long, std::set<long long>> BankWords;
      for (long long Flat = 0; Flat < HalfWarp; ++Flat) {
        long long Tx = Flat % L.BlockDimX;
        long long Ty = Flat / L.BlockDimX;
        long long Word = A.FlatFloat.evaluate(Tx, Ty, 0, 0, Values);
        BankWords[((Word % SharedBanks) + SharedBanks) % SharedBanks].insert(
            Word);
      }
      size_t Degree = 1;
      for (const auto &[Bank, WordsInBank] : BankWords)
        Degree = std::max(Degree, WordsInBank.size());
      if (Degree > 1)
        warn(A.Ref->loc(),
             strFormat("%s%zu-way shared-memory bank conflict on %s "
                       "(half-warp lanes hit %zu distinct words in one bank "
                       "of %d); consider padding the innermost dimension",
                       !Opt.Strict          ? ""
                       : GuardMasked        ? "possible "
                                            : "proven ",
                       Degree, printExpr(A.Ref).c_str(), Degree,
                       SharedBanks));
    }
  }

  void lintCoalescing() {
    std::set<const ArrayRef *> Reported;
    for (const AccessInfo &A : Globals) {
      if (!A.Ref || !Reported.insert(A.Ref).second)
        continue;
      CoalesceInfo CI = checkCoalescing(A, K);
      if (CI.Coalesced)
        continue;
      if (CI.Failure == CoalesceFailure::Unresolved) {
        // Default mode stays silent on unresolved addresses; strict mode's
        // contract is "prove it or hear about it".
        if (Opt.Strict)
          warn(A.Ref->loc(),
               strFormat("global %s %s is possibly non-coalesced (address "
                         "not statically resolvable)",
                         A.IsStore ? "store" : "load",
                         printExpr(A.Ref).c_str()));
        continue;
      }
      warn(A.Ref->loc(),
           strFormat("global %s %s is %snot coalesced (%s, thread stride "
                     "%lld bytes)",
                     A.IsStore ? "store" : "load", printExpr(A.Ref).c_str(),
                     Opt.Strict ? "provenly " : "",
                     coalesceFailureName(CI.Failure), CI.ThreadStrideBytes));
    }
  }

  KernelFunction &K;
  const PhaseModel &Model;
  const DataflowResult *Facts;
  DiagnosticsEngine &Diags;
  const LintOptions &Opt;
  std::vector<AccessInfo> Globals;
  std::set<const Stmt *> Guarded;
  int NumWarnings = 0;
};

} // namespace

int gpuc::lintKernel(KernelFunction &K, const PhaseModel &Model,
                     const DataflowResult *Facts, DiagnosticsEngine &Diags,
                     const LintOptions &Opt) {
  return Linter(K, Model, Facts, Diags, Opt).run();
}
