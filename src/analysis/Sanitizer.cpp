//===-- analysis/Sanitizer.cpp - Static kernel sanitizer ------------------===//

#include "analysis/Sanitizer.h"

#include "analysis/Dataflow.h"
#include "analysis/Lint.h"
#include "analysis/RaceDetector.h"
#include "support/StringUtils.h"

#include <memory>
#include <mutex>
#include <optional>

using namespace gpuc;

namespace {

/// Race-checks and lints \p K, reporting into \p Diags. \p Context names
/// the pipeline stage in every message; \p Final enables the lints that
/// are only meaningful on a fully compiled kernel (the coalescing lint —
/// naive inputs are legitimately non-coalesced).
void sanitizeKernel(KernelFunction &K, DiagnosticsEngine &Diags,
                    const SanitizeOptions &Opt, const std::string &Context,
                    bool Final, SanitizeSummary &Summary) {
  auto Prefixed = [&](const std::string &Msg) {
    return "[" + Context + "] " + Msg;
  };
  ++Summary.KernelsChecked;
  // The race detector and the lints share one phase model and one run of
  // the dataflow engine, made only when one of them reads its facts: the
  // detector on an analyzable model, or the strict lints.
  const PhaseModel Model = buildPhaseModel(K);
  std::optional<const DataflowResult> Flow;
  if ((Opt.Races && Model.Analyzable) || (Opt.Lint && Opt.LintStrict))
    Flow.emplace(runDataflow(K));
  const DataflowResult *Facts = Flow ? &*Flow : nullptr;

  if (Opt.Races) {
    const RaceReport Report = detectSharedRaces(K, Model, Facts);
    for (const RaceFinding &F : Report.Findings) {
      Diags.error(F.Loc1, Prefixed(strFormat("kernel '%s': %s",
                                             K.name().c_str(),
                                             F.str().c_str())));
      if (F.Loc2.isValid() && !(F.Loc2 == F.Loc1))
        Diags.note(F.Loc2, "conflicting access is here");
      ++Summary.RaceErrors;
    }
    if (!Report.Analyzable)
      ++Summary.Unanalyzable;
    // Notes on an analyzable kernel mean some accesses were skipped
    // (non-affine subscripts, capped enumeration): the verdict has caveats.
    if (!Report.Analyzable || !Report.Notes.empty()) {
      Diags.warning(SourceLocation(),
                    Prefixed(strFormat("kernel '%s': %s", K.name().c_str(),
                                       Report.Analyzable
                                           ? "race analysis incomplete"
                                           : "race-freedom not proved")));
      for (const std::string &Note : Report.Notes)
        Diags.note(SourceLocation(), Note);
    }
  }

  if (Opt.Lint)
    Summary.LintWarnings += lintKernel(
        K, Model, Facts, Diags,
        {.Coalescing = Final, .Strict = Opt.LintStrict, .Context = Context});
}

} // namespace

void gpuc::attachStageSanitizer(CompileOptions &CO, const SanitizeOptions &Opt,
                                SanitizeSummary *Summary) {
  // Copy Opt by value: the hooks outlive the caller's options object. The
  // summary is shared across search tasks; a mutex keeps its counters
  // exact (sums are order-independent, so the totals are deterministic).
  auto Mutex = std::make_shared<std::mutex>();
  CO.HookFactory = [Opt, Summary, Mutex](DiagnosticsEngine &TaskDiags) {
    return [&TaskDiags, Opt, Summary, Mutex](const char *Stage,
                                             KernelFunction &K, bool Final) {
      // "final" is itself a stage name; avoid "after final, final".
      std::string Context = strFormat(
          "after %s%s", Stage,
          Final && std::string(Stage) != "final" ? ", final" : "");
      SanitizeSummary Local;
      sanitizeKernel(K, TaskDiags, Opt, Context, Final, Local);
      if (Summary) {
        std::lock_guard<std::mutex> Lock(*Mutex);
        Summary->KernelsChecked += Local.KernelsChecked;
        Summary->RaceErrors += Local.RaceErrors;
        Summary->LintWarnings += Local.LintWarnings;
        Summary->Unanalyzable += Local.Unanalyzable;
      }
    };
  };
}
