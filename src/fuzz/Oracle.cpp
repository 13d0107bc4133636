//===-- fuzz/Oracle.cpp - Differential translation validation -------------===//

#include "fuzz/Oracle.h"

#include "analysis/Dataflow.h"
#include "analysis/RaceDetector.h"
#include "ast/Clone.h"
#include "ast/Hash.h"
#include "ast/Printer.h"
#include "ast/Walk.h"
#include "sim/Simulator.h"
#include "support/StringUtils.h"

#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <unordered_set>

using namespace gpuc;

void gpuc::fillFuzzInputs(const KernelFunction &K, BufferSet &Buffers,
                          unsigned Seed) {
  fillPipelineFuzzInputs({&K}, Buffers, Seed);
}

void gpuc::fillPipelineFuzzInputs(
    const std::vector<const KernelFunction *> &Stages, BufferSet &Buffers,
    unsigned Seed) {
  // One LCG continues across every buffer, so a fixed allocation order
  // fixes every byte.
  unsigned State = Seed ? Seed : 1u;
  for (const KernelFunction *K : Stages)
    for (const ParamDecl &P : K->params()) {
      if (!P.IsArray || Buffers.has(P.Name))
        continue;
      auto &V = Buffers.alloc(P.Name, static_cast<size_t>(P.elemCount()) *
                                          P.ElemTy.vectorWidth());
      for (float &X : V) {
        State = State * 1664525u + 1013904223u;
        X = static_cast<float>(State >> 20) / 4096.0f - 0.5f;
      }
    }
}

bool gpuc::kernelHasFloatArith(const KernelFunction &K) {
  bool Arith = false;
  forEachStmt(K.body(), [&](Stmt *S) {
    if (auto *A = dyn_cast<AssignStmt>(S))
      if (A->op() != AssignOp::Assign)
        Arith = true;
  });
  if (Arith)
    return true;
  forEachExpr(K.body(), [&](Expr *E) {
    if (auto *B = dyn_cast<Binary>(E)) {
      if (B->type().isFloat())
        Arith = true;
    } else if (isa<Call>(E)) {
      Arith = true;
    }
  });
  return Arith;
}

long long gpuc::ulpDistance(float A, float B) {
  if (A == B)
    return 0;
  if (std::isnan(A) || std::isnan(B))
    return std::isnan(A) && std::isnan(B)
               ? 0
               : std::numeric_limits<long long>::max();
  int32_t IA, IB;
  std::memcpy(&IA, &A, sizeof(float));
  std::memcpy(&IB, &B, sizeof(float));
  // Map to a monotonic integer line (sign-magnitude -> offset binary).
  if (IA < 0)
    IA = std::numeric_limits<int32_t>::min() - IA;
  if (IB < 0)
    IB = std::numeric_limits<int32_t>::min() - IB;
  return std::llabs(static_cast<long long>(IA) - static_cast<long long>(IB));
}

namespace {

using Chain = std::vector<const KernelFunction *>;

/// Float tolerances: an element of a kernel with float arithmetic passes
/// within either bound. Data-movement-only kernels must match bit-exactly.
constexpr long long UlpBound = 256;
constexpr double RelBound = 1e-4;

/// Per-element acceptance for one output array.
struct Comparator {
  bool Exact;

  bool accept(float Want, float Got) const {
    if (std::memcmp(&Want, &Got, sizeof(float)) == 0)
      return true;
    if (Exact)
      return false;
    if (ulpDistance(Want, Got) <= UlpBound)
      return true;
    double Denom = std::max(1.0, static_cast<double>(std::fabs(Want)));
    return std::fabs(static_cast<double>(Want) - Got) / Denom <= RelBound;
  }
};

/// Compares every output array of \p K; fills mismatch fields of \p F.
/// \returns true when all elements are accepted.
bool compareOutputs(const KernelFunction &K, const BufferSet &Ref,
                    const BufferSet &Got, const Comparator &Cmp,
                    OracleFailure &F) {
  bool Ok = true;
  for (const ParamDecl &P : K.params()) {
    if (!P.IsArray || !P.IsOutput)
      continue;
    const auto &A = Ref.data(P.Name);
    const auto &B = Got.data(P.Name);
    for (size_t I = 0; I < A.size() && I < B.size(); ++I) {
      if (Cmp.accept(A[I], B[I]))
        continue;
      if (F.MismatchCount == 0) {
        F.Array = P.Name;
        F.FirstBadIndex = static_cast<long long>(I);
        F.Want = A[I];
        F.Got = B[I];
      }
      ++F.MismatchCount;
      Ok = false;
    }
  }
  return Ok;
}

std::string describeRaces(const RaceLog &Races) {
  std::string S;
  for (const RaceRecord &R : Races.Races)
    S += strFormat("%s race on '%s' word %lld (phase %d, block %lld, "
                   "threads %lld/%lld)\n",
                   R.WriteWrite ? "write-write" : "write-read",
                   R.Array.c_str(), R.Word, R.Phase, R.Block, R.T1, R.T2);
  return S;
}

/// One race-logged run of a kernel chain on fresh seeded inputs.
struct Run {
  bool Ok = false;
  BufferSet Buffers;
  RaceLog Races;
  std::string Diags;
};

/// Runs \p Kernels in order on \p Sim against one buffer set seeded from
/// the array parameters of \p Inputs. A single kernel is a chain of one.
Run runChain(const Simulator &Sim, const Chain &Inputs, const Chain &Kernels,
             unsigned Seed) {
  Run R;
  fillPipelineFuzzInputs(Inputs, R.Buffers, Seed);
  DiagnosticsEngine Diags;
  R.Ok = Sim.runPipelineFunctional(Kernels, R.Buffers, Diags, &R.Races);
  R.Diags = Diags.str();
  return R;
}

/// Static classification of one kernel for the --check-static
/// differential. Clean demands Proven verdicts on every access and
/// barrier plus a clean race report; ProvenOOB means some access carries
/// a Violation verdict (must-execute, proven out of bounds), which the
/// dynamic sanitizer is then obligated to observe.
struct StaticClass {
  bool Clean = false;
  bool ProvenOOB = false;
  std::string Desc;
};

bool sameRaceLog(const RaceLog &A, const RaceLog &B) {
  if (A.Phases != B.Phases || A.Races.size() != B.Races.size())
    return false;
  for (size_t I = 0; I < A.Races.size(); ++I) {
    const RaceRecord &X = A.Races[I], &Y = B.Races[I];
    if (X.Array != Y.Array || X.WriteWrite != Y.WriteWrite ||
        X.Phase != Y.Phase || X.Word != Y.Word || X.T1 != Y.T1 ||
        X.T2 != Y.T2 || X.Block != Y.Block)
      return false;
  }
  return true;
}

/// Bit-compares one named buffer between two BufferSets; fills \p Detail
/// and \returns false at the first diverging element.
bool bufferBitEqual(const std::string &Name, const BufferSet &BufS,
                    const BufferSet &BufV, std::string &Detail) {
  const auto &A = BufS.data(Name);
  const auto &B = BufV.data(Name);
  if (A.size() == B.size() &&
      (A.empty() ||
       std::memcmp(A.data(), B.data(), A.size() * sizeof(float)) == 0))
    return true;
  for (size_t I = 0; I < A.size() && I < B.size(); ++I) {
    if (std::memcmp(&A[I], &B[I], sizeof(float)) != 0) {
      Detail = strFormat("buffer '%s' diverges at [%zu]: scalar %.9g, "
                         "vector %.9g",
                         Name.c_str(), I, A[I], B[I]);
      break;
    }
  }
  if (Detail.empty())
    Detail = strFormat("buffer '%s' sizes diverge", Name.c_str());
  return false;
}

/// The engine differential: reruns \p Kernels on the interpreter engine
/// \p Sim does not use and demands the outcome, every buffer bit for bit
/// and the race log record for record of \p Mine, the run on \p Sim.
/// \returns the divergence, or "" when the engines agree.
std::string engineDivergence(const Simulator &Sim, const Chain &Inputs,
                             const Chain &Kernels, unsigned Seed,
                             const Run &Mine) {
  bool MineScalar = Sim.interpBackend() == InterpBackend::Scalar;
  Simulator Other(Sim.device());
  Other.setInterpBackend(MineScalar ? InterpBackend::Vector
                                    : InterpBackend::Scalar);
  Run Theirs = runChain(Other, Inputs, Kernels, Seed);
  const Run &S = MineScalar ? Mine : Theirs;
  const Run &V = MineScalar ? Theirs : Mine;
  const char *Of = Kernels.size() > 1 ? "chain " : "";
  if (S.Ok != V.Ok)
    return strFormat("engines disagree on %soutcome: scalar %s, vector %s\n",
                     Of, S.Ok ? "ok" : "error", V.Ok ? "ok" : "error") +
           S.Diags + V.Diags;
  if (!S.Ok)
    return ""; // both faulted; the run is judged on its fault
  std::string Detail;
  for (const KernelFunction *K : Kernels)
    for (const ParamDecl &P : K->params())
      if (P.IsArray && !bufferBitEqual(P.Name, S.Buffers, V.Buffers, Detail))
        return Detail;
  if (sameRaceLog(S.Races, V.Races))
    return "";
  Detail = std::string(Of) + "race logs diverge:\nscalar:\n" +
           describeRaces(S.Races) + "vector:\n" + describeRaces(V.Races);
  if (Kernels.size() == 1)
    Detail += strFormat("(%zu vs %zu records, %d vs %d phases)",
                        S.Races.Races.size(), V.Races.Races.size(),
                        S.Races.Phases, V.Races.Phases);
  return Detail;
}

StaticClass classifyStatic(const KernelFunction &K) {
  StaticClass C;
  const DataflowResult DF = runDataflow(K);
  const RaceReport RR = detectSharedRaces(K, buildPhaseModel(K), &DF);
  int Proven = 0, Possible = 0, Violations = 0;
  for (const AccessFact &A : DF.Accesses) {
    if (A.Bounds == Verdict::Proven)
      ++Proven;
    else if (A.Bounds == Verdict::Violation)
      ++Violations;
    else
      ++Possible;
  }
  C.ProvenOOB = Violations > 0;
  C.Clean = DF.boundsClean() && DF.barriersClean() && RR.clean();
  C.Desc = strFormat("accesses: %d proven, %d possible, %d violation; "
                     "barriers %s; races %s",
                     Proven, Possible, Violations,
                     DF.barriersClean() ? "proven" : "unproven",
                     RR.clean() ? "clean" : "unproven");
  return C;
}

/// What makes two checks alike: the comparator's exactness, the
/// cross-check setting, and for each kernel of the chain its hashKernel
/// (which covers bindings and the work domain) and its printKernel text
/// with the kernel name masked. Requiring both digests means neither a
/// hash collision nor anything the printer leaves out can merge two
/// different kernels.
std::string checkKey(const Chain &Kernels, bool CrossCheck,
                     const Comparator &Cmp) {
  std::string Key = strFormat("%d%d", Cmp.Exact, CrossCheck);
  for (const KernelFunction *K : Kernels) {
    std::string Text = printKernel(*K);
    const size_t At = Text.find("void " + K->name() + "(");
    assert(At != std::string::npos && "printKernel prints the signature");
    Text.erase(At + 5, K->name().size());
    Key += strFormat("\n%016llx\n", static_cast<unsigned long long>(
                                        hashKernel(*K)));
    Key += Text;
  }
  return Key;
}

/// The options every oracle compiles with: one lane (the fuzzer
/// parallelizes across seeds, not inside a case), so the injected fault,
/// when there is one, observes the stages in the one-lane order.
CompileOptions oracleCompileOptions(const OracleOptions &Opt) {
  CompileOptions CO = Opt.Compile;
  CO.Jobs = 1;
  if (Opt.Inject)
    CO.HookFactory = [&Opt](DiagnosticsEngine &) { return Opt.Inject; };
  return CO;
}

/// The sanitizer half of a judgment: a fault is a RunError, then (when
/// \p CheckRaces) a shared-memory race is a Race. \returns false with
/// \p F's kind and detail filled.
bool sanitizerClean(const Run &R, bool CheckRaces, OracleFailure &F) {
  if (R.Ok && (!CheckRaces || R.Races.clean()))
    return true;
  F.FailKind =
      !R.Ok ? OracleFailure::Kind::RunError : OracleFailure::Kind::Race;
  F.Detail = !R.Ok ? R.Diags : describeRaces(R.Races);
  return false;
}

/// One oracle case: the naive chain, the engine every run uses, the
/// reference every check is judged against and the checks that passed.
/// All three oracles send each kernel or chain they check through
/// check(): one race-logged run on the oracle's engine, the engine
/// differential when asked for, and one judgment against the reference —
/// or, for a chain the case already passed alike, that pass.
class OracleCase {
public:
  OracleCase(const OracleOptions &Opt, OracleResult &Res, Chain Naive)
      : Opt(Opt), Res(Res), Naive(std::move(Naive)), Sim(Opt.Compile.Device) {
    Sim.setInterpBackend(Opt.Compile.Interp);
  }

  void fail(OracleFailure F) {
    Res.Failures.push_back(std::move(F));
    Res.Passed = false;
  }

  /// The reference step: runs the naive chain, engine-checks it, and
  /// judges it on its own — a fault, or a race when \p CheckRaces, fails
  /// the case. \p SC (under --check-static) turns a verdict that refutes
  /// the static classification into StaticUnsound. \returns false after
  /// recording the failure under variant \p Variant.
  bool reference(const char *Variant, bool CheckRaces,
                 const StaticClass *SC) {
    Ref = runChain(Sim, Naive, Naive, Opt.InputSeed);
    OracleFailure F;
    F.Variant = Variant;
    F.Stage = "interp";
    if (!enginesAgree(Naive, Ref, F)) {
      fail(F);
      return false;
    }
    F.Stage = "input";
    if (!sanitizerClean(Ref, CheckRaces, F)) {
      if (SC && SC->Clean) {
        // The engine proved this kernel in-bounds, barrier-uniform and
        // race-free; the dynamic sanitizer disagrees. Unsound analysis.
        F.FailKind = OracleFailure::Kind::StaticUnsound;
        F.Stage = "static";
        F.Detail = "statically clean kernel failed the dynamic sanitizer "
                   "(" + SC->Desc + "):\n" + F.Detail;
      }
      fail(F);
      return false;
    }
    if (SC && SC->ProvenOOB) {
      // A Violation verdict asserts some thread must fault; a clean run
      // refutes the proof. Unsound in the other direction.
      F.FailKind = OracleFailure::Kind::StaticUnsound;
      F.Stage = "static";
      F.Detail = "proven out-of-bounds access did not fault dynamically (" +
                 SC->Desc + ")";
      fail(F);
      return false;
    }
    return true;
  }

  /// The check step for one kernel or chain under test: counts it, and
  /// returns the earlier pass of an identical chain under the same
  /// comparator and cross-check (checkKey), which would run alike on the
  /// same seeded inputs. Otherwise it runs the chain, engine-checks it
  /// when \p CrossCheck (a divergence ends the check), judges it and
  /// records a pass. \returns false with \p F classified; the caller
  /// records the failure.
  bool check(const Chain &Kernels, bool CrossCheck, const Comparator &Cmp,
             OracleFailure &F) {
    ++Res.VariantsChecked;
    std::string Key = checkKey(Kernels, CrossCheck, Cmp);
    if (PassedKeys.contains(Key))
      return true;
    ++Res.VariantsRun;
    Run Got = runChain(Sim, Naive, Kernels, Opt.InputSeed);
    if (CrossCheck && !enginesAgree(Kernels, Got, F))
      return false;
    if (!judge(Got, Cmp, F))
      return false;
    PassedKeys.insert(std::move(Key));
    return true;
  }

  /// Re-compiles one search variant with a snapshot hook and blames the
  /// first stage whose intermediate kernel fails the same run and
  /// judgment as check() (without the engine differential).
  std::string attributeStage(int BlockN, int ThreadM,
                             const Comparator &Cmp) const {
    Module CompileM;
    Module SnapM; // snapshots survive the pipeline mutating the variant
    DiagnosticsEngine Diags;
    GpuCompiler GC(CompileM, Diags);

    std::vector<std::pair<std::string, KernelFunction *>> Snaps;
    CompileOptions O = Opt.Compile;
    O.HookFactory = [&](DiagnosticsEngine &) -> StageHook {
      return [&](const char *Stage, KernelFunction &K, bool Final) {
        if (Opt.Inject)
          Opt.Inject(Stage, K, Final);
        Snaps.emplace_back(Stage, cloneKernel(SnapM, &K, K.name()));
      };
    };
    GC.compileVariant(*Naive.front(), O, BlockN, ThreadM);

    for (const auto &[Stage, Snap] : Snaps) {
      OracleFailure Scratch;
      if (!judge(runChain(Sim, Naive, {Snap}, Opt.InputSeed), Cmp, Scratch))
        return Stage;
    }
    return "unattributed";
  }

private:
  /// The engine differential, when Opt.CheckInterp is on. \returns false
  /// with \p F an InterpDivergence when the other engine disagrees.
  bool enginesAgree(const Chain &Kernels, const Run &Mine,
                    OracleFailure &F) const {
    if (!Opt.CheckInterp)
      return true;
    std::string Divergence =
        engineDivergence(Sim, Naive, Kernels, Opt.InputSeed, Mine);
    if (Divergence.empty())
      return true;
    F.FailKind = OracleFailure::Kind::InterpDivergence;
    F.Detail = Divergence;
    return false;
  }

  /// A fault, then a race, then an element of the naive chain's final
  /// output arrays that \p Cmp rejects against the reference. \returns
  /// false with \p F classified.
  bool judge(const Run &Got, const Comparator &Cmp, OracleFailure &F) const {
    if (!sanitizerClean(Got, /*CheckRaces=*/true, F))
      return false;
    if (compareOutputs(*Naive.back(), Ref.Buffers, Got.Buffers, Cmp, F))
      return true;
    F.FailKind = OracleFailure::Kind::Mismatch;
    return false;
  }

  const OracleOptions &Opt;
  OracleResult &Res;
  /// Every run is seeded from this chain's array parameters.
  const Chain Naive;
  Simulator Sim;
  Run Ref;
  /// checkKey of every check that passed; only passes are kept, so a
  /// failing chain runs, and is judged and attributed, every time.
  std::unordered_set<std::string> PassedKeys;
};

} // namespace

OracleResult gpuc::runOracle(Module &M, const KernelFunction &Naive,
                             const OracleOptions &Opt) {
  OracleResult Res;
  OracleCase C(Opt, Res, {&Naive});

  // Under --check-static the naive run is itself race-checked, since the
  // static claim being audited covers race-freedom too.
  StaticClass SC;
  if (Opt.CheckStatic)
    SC = classifyStatic(Naive);
  if (!C.reference("naive", Opt.CheckStatic, Opt.CheckStatic ? &SC : nullptr))
    return Res;

  Comparator Cmp{!kernelHasFloatArith(Naive)};
  Res.ExactCompare = Cmp.Exact;

  // Full pipeline + design-space search.
  DiagnosticsEngine CompDiags;
  GpuCompiler GC(M, CompDiags);
  CompileOutput Out = GC.compile(Naive, oracleCompileOptions(Opt));
  if (!Out.Best || CompDiags.hasErrors()) {
    OracleFailure F;
    F.FailKind = OracleFailure::Kind::CompileError;
    F.Variant = "compile";
    F.Stage = "final";
    F.Detail = CompDiags.str() + Out.Log;
    C.fail(F);
    return Res;
  }
  Res.BestBlockN = Out.BestVariant.BlockMergeN;
  Res.BestThreadM = Out.BestVariant.ThreadMergeM;

  // Execute every variant the search produced (feasible or not — pruned
  // and occupancy-limited kernels still must be semantically correct).
  for (const VariantResult &V : Out.Variants) {
    if (!V.Kernel)
      continue;
    OracleFailure F;
    F.Variant = V.Kernel->name();
    F.BlockN = V.BlockMergeN;
    F.ThreadM = V.ThreadMergeM;
    if (C.check({V.Kernel}, /*CrossCheck=*/false, Cmp, F))
      continue;
    F.Stage = C.attributeStage(V.BlockMergeN, V.ThreadMergeM, Cmp);
    // A sanitizer-level failure (fault or race, not a value mismatch) on
    // a variant the engine proved clean is the same unsoundness the naive
    // check hunts for, surfaced on a transformed kernel.
    if (Opt.CheckStatic && F.FailKind != OracleFailure::Kind::Mismatch) {
      StaticClass VSC = classifyStatic(*V.Kernel);
      if (VSC.Clean) {
        F.FailKind = OracleFailure::Kind::StaticUnsound;
        F.Detail = "statically clean variant failed the dynamic sanitizer "
                   "(" + VSC.Desc + "):\n" + F.Detail;
      }
    }
    C.fail(F);
  }
  return Res;
}

OracleResult gpuc::runLayoutOracle(Module &M, const KernelFunction &Naive,
                                   const OracleOptions &Opt) {
  OracleResult Res;
  OracleCase C(Opt, Res, {&Naive});
  if (!C.reference("naive", /*CheckRaces=*/false, nullptr))
    return Res;

  // Tier one: pure block-id remaps installed directly on the naive
  // kernel. A legal remap is a bijection on block ids — it only relabels
  // which physical block runs which logical tile — so the outputs must be
  // bit-identical to naive even for float-arithmetic kernels. This is the
  // strongest claim of the battery and holds with no tolerance at all.
  {
    const LaunchConfig &L = Naive.launch();
    const std::pair<const char *, BlockRemap> Pure[] = {
        {"shift", {1, 0, 0, 1, 1, 0}},
        {"swap", {0, 1, 1, 0, 0, 0}},
        {"skew-x", {1, 1, 0, 1, 0, 0}},
        {"skew-y", {1, 0, 1, 1, 0, 0}},
        {"diagonal", BlockRemap::diagonal()},
    };
    for (const auto &[Name, Remap] : Pure) {
      if (!remapLegal(Remap, L.GridDimX, L.GridDimY))
        continue;
      KernelFunction *Clone =
          cloneKernel(M, &Naive, Naive.name() + "_remap_" + Name);
      Clone->launch().Remap = Remap;
      OracleFailure F;
      F.Variant = Clone->name();
      F.Stage = std::string("layout:") + Name;
      if (!C.check({Clone}, /*CrossCheck=*/true, Comparator{/*Exact=*/true},
                   F))
        C.fail(F);
    }
  }

  Comparator Cmp{!kernelHasFloatArith(Naive)};
  Res.ExactCompare = Cmp.Exact;

  const CompileOptions CO = oracleCompileOptions(Opt);

  // Identity probe at unit merge factors: yields the post-pipeline launch
  // and the camping scan that seed the family enumeration.
  Module ProbeM;
  DiagnosticsEngine ProbeDiags;
  GpuCompiler ProbeGC(ProbeM, ProbeDiags);
  LayoutPoint Identity = LayoutPoint::identityPoint();
  CampingAnalysis Scan;
  KernelFunction *Probe = ProbeGC.compileVariant(Naive, CO, 1, 1, nullptr,
                                                 nullptr, &Identity, &Scan);
  if (!Probe || ProbeDiags.hasErrors()) {
    OracleFailure F;
    F.FailKind = OracleFailure::Kind::CompileError;
    F.Variant = "compile";
    F.Stage = "layout:identity";
    F.Detail = ProbeDiags.str();
    C.fail(F);
    return Res;
  }

  // Tier two: every point of the full family — enumerated
  // unconditionally, not just when camping is detected — compiled through
  // the whole pipeline and compared against naive under the usual
  // comparator. Illegal points degrade to the identity inside applyLayout
  // and still must agree (the degradation itself is under test).
  std::vector<LayoutPoint> Points =
      enumerateLayouts(*Probe, CO.Device, Scan, /*FullFamily=*/true);
  for (const LayoutPoint &P : Points) {
    Module VarM;
    DiagnosticsEngine Diags;
    GpuCompiler GC(VarM, Diags);
    KernelFunction *V = P.identity()
                            ? Probe
                            : GC.compileVariant(Naive, CO, 1, 1, nullptr,
                                                nullptr, &P, nullptr);
    OracleFailure F;
    F.Stage = std::string("layout:") + P.name();
    if (!V || (!P.identity() && Diags.hasErrors())) {
      F.FailKind = OracleFailure::Kind::CompileError;
      F.Variant = "compile";
      F.Detail = Diags.str();
      C.fail(F);
      continue;
    }
    F.Variant = V->name();
    if (!C.check({V}, /*CrossCheck=*/true, Cmp, F))
      C.fail(F);
  }
  return Res;
}

OracleResult gpuc::runPipelineOracle(
    Module &M, const std::vector<const KernelFunction *> &Stages,
    const OracleOptions &Opt) {
  OracleResult Res;
  // Reference: the unfused naive chain, stage by stage against one shared
  // buffer set (the simulator is the paper-semantics oracle the fusion
  // transform is tested against). Every run is seeded from the chain.
  OracleCase C(Opt, Res, Stages);
  if (!C.reference("chain", /*CheckRaces=*/true, nullptr))
    return Res;

  bool AnyFloat = false;
  for (const KernelFunction *K : Stages)
    AnyFloat |= kernelHasFloatArith(*K);
  Comparator Cmp{!AnyFloat};
  Res.ExactCompare = Cmp.Exact;

  // Fusion legality + both sides of the design-space search.
  DiagnosticsEngine CompDiags;
  GpuCompiler GC(M, CompDiags);
  ProgramCompileOutput Out =
      GC.compileProgram(Stages, oracleCompileOptions(Opt));
  bool StageBests = true;
  for (const CompileOutput &SO : Out.StageOuts)
    StageBests &= SO.Best != nullptr;
  if (CompDiags.hasErrors() || Out.StageOuts.size() != Stages.size() ||
      !StageBests) {
    OracleFailure F;
    F.FailKind = OracleFailure::Kind::CompileError;
    F.Variant = "compile";
    F.Stage = "final";
    F.Detail = CompDiags.str();
    C.fail(F);
    return Res;
  }
  if (Out.UseFused && Out.FusedOut.Best) {
    Res.BestBlockN = Out.FusedOut.BestVariant.BlockMergeN;
    Res.BestThreadM = Out.FusedOut.BestVariant.ThreadMergeM;
  }

  if (Out.Fused) {
    // The fused *naive* kernel is held to the strongest claim: bit-exact
    // agreement with the chain on the final stage's outputs, regardless
    // of float arithmetic — register/shared-stage placement must preserve
    // the per-element evaluation order exactly. It is new code (possibly
    // with a staging barrier), so both engines must agree on it too.
    OracleFailure F;
    F.Variant = Out.Fused->name();
    F.Stage = "fusion";
    if (!C.check({Out.Fused}, /*CrossCheck=*/true, Comparator{/*Exact=*/true},
                 F)) {
      if (F.FailKind == OracleFailure::Kind::Mismatch)
        F.Detail = "fused naive kernel diverges bit-wise from the unfused "
                   "chain";
      C.fail(F);
    }

    // Every compiled fused variant must match the chain within tolerance.
    for (const VariantResult &V : Out.FusedOut.Variants) {
      if (!V.Kernel)
        continue;
      OracleFailure FV;
      FV.Variant = V.Kernel->name();
      FV.BlockN = V.BlockMergeN;
      FV.ThreadM = V.ThreadMergeM;
      FV.Stage = "fused-search";
      if (!C.check({V.Kernel}, /*CrossCheck=*/false, Cmp, FV))
        C.fail(FV);
    }
  }

  // The unfused compiled side: each stage's winner chained in order.
  OracleFailure F;
  F.Variant = "unfused-best";
  F.Stage = "stage-search";
  Chain Bests;
  for (const CompileOutput &SO : Out.StageOuts)
    Bests.push_back(SO.Best);
  if (!C.check(Bests, /*CrossCheck=*/false, Cmp, F))
    C.fail(F);
  return Res;
}
