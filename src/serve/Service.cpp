//===-- serve/Service.cpp - One compile request, start to finish ----------===//

#include "serve/Service.h"

#include "analysis/Sanitizer.h"
#include "ast/Printer.h"
#include "cache/DiskCache.h"
#include "core/Report.h"
#include "parser/Parser.h"
#include "sim/SimCache.h"
#include "support/StringUtils.h"

#include <algorithm>

using namespace gpuc;
using namespace gpuc::serve;

bool gpuc::serve::deviceFromName(const std::string &Name, DeviceSpec &Out) {
  if (Name == "gtx280") {
    Out = DeviceSpec::gtx280();
    return true;
  }
  if (Name == "gtx8800") {
    Out = DeviceSpec::gtx8800();
    return true;
  }
  if (Name == "hd5870") {
    Out = DeviceSpec::hd5870();
    return true;
  }
  return false;
}

bool gpuc::serve::optionsFromJob(const CompileJob &J,
                                 const ServiceContext &Ctx,
                                 CompileOptions &Out) {
  if (!deviceFromName(J.DeviceName, Out.Device))
    return false;
  Out.Vectorize = (J.Flags & JF_Vectorize) != 0;
  Out.Coalesce = (J.Flags & JF_Coalesce) != 0;
  Out.Merge = (J.Flags & JF_Merge) != 0;
  Out.Prefetch = (J.Flags & JF_Prefetch) != 0;
  Out.PartitionElim = (J.Flags & JF_PartitionElim) != 0;
  Out.Fold = (J.Flags & JF_Fold) != 0;
  Out.ExhaustiveSearch = (J.Flags & JF_Exhaustive) != 0;
  Out.Interp = J.Interp == 1 ? InterpBackend::Scalar : InterpBackend::Vector;
  Out.Jobs = Ctx.Jobs <= 0 ? 1 : Ctx.Jobs;
  Out.Cache = Ctx.Mem;
  Out.Disk = Ctx.Disk;
  Out.CancelFlag = Ctx.Cancel;
  return true;
}

namespace {

/// Modes derived from the job's flag word.
struct JobModes {
  bool Sanitize, Lint, LintStrict, Werror, Report, SearchStats, PrintNaive;
  PrintDialect Dialect;

  explicit JobModes(const CompileJob &J)
      : Sanitize(J.Flags & JF_Sanitize), Lint(J.Flags & JF_Lint),
        LintStrict(J.Flags & JF_LintStrict), Werror(J.Flags & JF_Werror),
        Report(J.Flags & JF_Report), SearchStats(J.Flags & JF_SearchStats),
        PrintNaive(J.Flags & JF_PrintNaive),
        Dialect(J.Dialect == 1 ? PrintDialect::OpenCL
                               : PrintDialect::Cuda) {}

  /// The warm winner-replay may only answer invocations whose output is
  /// exactly the cold run's plain CUDA text (stored entries are
  /// diagnostics-clean).
  bool fastPathEligible(const CompileJob &J) const {
    return !Report && !Sanitize && !Lint && !PrintNaive && !SearchStats &&
           J.BlockN == 0 && J.ThreadM == 0 && Dialect == PrintDialect::Cuda;
  }
};

std::string sanitizeSummaryLine(const SanitizeSummary &S) {
  return strFormat("sanitizer: %d kernels checked, %d races, %d lint "
                   "warnings, %d not statically analyzable\n",
                   S.KernelsChecked, S.RaceErrors, S.LintWarnings,
                   S.Unanalyzable);
}

} // namespace

CompileResult gpuc::serve::runCompileJob(const CompileJob &J,
                                         const ServiceContext &Ctx,
                                         CompileKeep *Keep) {
  CompileResult R;
  CompileOptions Opt;
  if (!optionsFromJob(J, Ctx, Opt)) {
    R.Code = 1;
    R.Err = strFormat("gpucc: error: unknown device '%s'\n",
                      J.DeviceName.c_str());
    return R;
  }
  JobModes Modes(J);

  // Per-request isolation: the Module (AST arena) and DiagnosticsEngine
  // live and die with this job (or with the caller's Keep); only the
  // caches are shared.
  CompileKeep Own;
  CompileKeep &K = Keep ? *Keep : Own;
  DiagnosticsEngine Diags;
  if (Modes.Werror)
    Diags.setWarningsAsErrors(true);
  Parser P(J.Source, Diags);
  K.Stages = P.parseProgram(K.M);
  if (K.Stages.empty()) {
    R.Code = 1;
    R.Err = Diags.str();
    return R;
  }
  // A '#pragma gpuc pipeline(...)' input compiles as a program: fusion
  // legality, fused and unfused searches, the winner program emitted.
  const bool Pipeline = K.Stages.size() > 1;
  std::vector<const KernelFunction *> CStages(K.Stages.begin(),
                                              K.Stages.end());
  KernelFunction &Naive = *K.Stages.front();
  if (Pipeline &&
      (J.BlockN > 0 || J.ThreadM > 0 || Modes.Dialect != PrintDialect::Cuda)) {
    R.Code = 1;
    R.Err = "gpucc: error: --block/--thread/--opencl are not "
            "supported for multi-kernel pipelines\n";
    return R;
  }
  if (Modes.PrintNaive)
    R.Out += "// ---- naive input ----\n" +
             (Pipeline ? printNaiveProgram(CStages)
                       : printKernel(Naive, Modes.Dialect)) +
             "\n";

  // Warm fast path: a clean prior search of this exact (kernel or
  // program, device, options) already published its winner; replay it
  // byte-for-byte.
  if (Ctx.Disk && !Keep && Modes.fastPathEligible(J)) {
    CachedCompile Cached;
    const uint64_t Key = Pipeline ? programCacheKey(CStages, Opt)
                                  : compileCacheKey(Naive, Opt);
    if (Ctx.Disk->loadText(Key, Cached)) {
      R.Out += Cached.KernelText;
      R.WarmFastPath = 1;
      return R;
    }
  }

  SanitizeSummary SanSummary;
  if (Modes.Sanitize || Modes.Lint) {
    SanitizeOptions SanOpt;
    SanOpt.Races = Modes.Sanitize;
    SanOpt.Lint = Modes.Lint;
    SanOpt.LintStrict = Modes.LintStrict;
    attachStageSanitizer(Opt, SanOpt, &SanSummary);
  }

  GpuCompiler GC(K.M, Diags);
  if (Pipeline) {
    K.Program = GC.compileProgram(CStages, Opt);
    if (K.Program.UseFused)
      K.Kernels.push_back(K.Program.FusedOut.Best);
    else
      for (const CompileOutput &C : K.Program.StageOuts)
        K.Kernels.push_back(C.Best);
  } else {
    if (J.BlockN > 0 || J.ThreadM > 0) {
      VariantResult VR;
      VR.BlockMergeN = std::max(1, J.BlockN);
      VR.ThreadMergeM = std::max(1, J.ThreadM);
      VR.Kernel = GC.compileVariant(Naive, Opt, VR.BlockMergeN,
                                    VR.ThreadMergeM, &K.Out.Plan,
                                    &K.Out.Camping);
      K.Out.Best = VR.Kernel;
      K.Out.Variants.push_back(VR);
    } else {
      K.Out = GC.compile(Naive, Opt);
    }
    K.Kernels.push_back(K.Out.Best);
  }
  const SearchStats &Search = Pipeline ? K.Program.Search : K.Out.Search;
  R.CritPathMs = Search.CritPathMs;
  const bool Emitted =
      !K.Kernels.empty() &&
      std::find(K.Kernels.begin(), K.Kernels.end(), nullptr) ==
          K.Kernels.end();
  if (!Emitted || Diags.hasErrors()) {
    R.Code = 1;
    // A pipeline's K.Out stays default, so its log is empty.
    R.Err += Diags.str() + Diags.summary() + K.Out.Log;
    return R;
  }
  if (Diags.hasWarnings())
    R.Err += Diags.str() + Diags.summary() + "\n";
  if (Modes.Sanitize || Modes.Lint)
    R.Err += sanitizeSummaryLine(SanSummary);

  R.Out += Pipeline ? K.Program.ProgramText
                    : printKernel(*K.Out.Best, Modes.Dialect);

  if (Modes.Report)
    R.Err += Pipeline ? fusionReport(K.Program)
                      : fullReport(Naive, K.Out, Opt.Device);
  if (Modes.SearchStats)
    R.Err += searchStatsReport(Search);
  return R;
}
