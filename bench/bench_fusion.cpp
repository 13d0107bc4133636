//===-- bench/bench_fusion.cpp - Kernel fusion: fused vs unfused ----------===//
//
// Measures what the fusion transform (DESIGN.md section 15) buys on
// multi-kernel pipelines: the modeled time of the best fused kernel
// against the summed best per-stage times of the unfused chain, on the
// BLAS-2 mv->axpy pipeline at several sizes and on a shared-stage
// stencil chain, all on GTX 280.
//
// The acceptance gates are structural:
//  * the design-space search must pick the fused side on every BLAS-2
//    size (eliminating the intermediate's global round trip wins under
//    the model, as in the paper's cross-kernel redundancy discussion);
//  * every legal fused kernel must reproduce the unfused chain's final
//    outputs bit for bit on randomized inputs;
//  * the loop-reduction consumer must be rejected by legality analysis.
// BENCH_fusion.json records the modeled speedups so the perf trajectory
// diffs across PRs.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "core/Fusion.h"
#include "fuzz/Oracle.h"
#include "parser/Parser.h"
#include "support/Timer.h"

#include <cstring>

using namespace gpuc;
using namespace gpuc::bench;

namespace {

std::string blas2Source(long long N) {
  return strFormat(
      "#pragma gpuc pipeline(mv -> axpy)\n"
      "#pragma gpuc output(y)\n"
      "#pragma gpuc bind(w=%lld)\n"
      "__global__ void mv(float a[%lld][%lld], float x[%lld],"
      " float y[%lld], int w) {\n"
      "  float sum = 0.0f;\n"
      "  for (int i = 0; i < w; i = i + 1) {\n"
      "    sum += (a[idx][i]*x[i]);\n"
      "  }\n"
      "  y[idx] = sum;\n"
      "}\n"
      "#pragma gpuc output(z)\n"
      "__global__ void axpy(float y[%lld], float b[%lld], float z[%lld]) {\n"
      "  z[idx] = (y[idx]+b[idx]);\n"
      "}\n",
      N, N, N, N, N, N, N, N);
}

std::string stencilSource(long long N) {
  return strFormat(
      "#pragma gpuc pipeline(blur0 -> blur1)\n"
      "#pragma gpuc output(t)\n"
      "__global__ void blur0(float a[%lld], float t[%lld]) {\n"
      "  t[idx] = (a[idx]*0.5f);\n"
      "}\n"
      "#pragma gpuc output(z)\n"
      "__global__ void blur1(float t[%lld], float z[%lld]) {\n"
      "  if (idx >= 1) {\n"
      "    if (idx < %lld) {\n"
      "      z[idx] = ((t[(idx-1)]+t[idx])+t[(idx+1)]);\n"
      "    } else {\n"
      "      z[idx] = t[idx];\n"
      "    }\n"
      "  } else {\n"
      "    z[idx] = t[idx];\n"
      "  }\n"
      "}\n",
      N, N, N, N, N - 1);
}

std::string rejectedSource(long long N) {
  return strFormat(
      "#pragma gpuc pipeline(prod -> dot)\n"
      "#pragma gpuc output(t)\n"
      "__global__ void prod(float a[%lld], float t[%lld]) {\n"
      "  t[idx] = (a[idx]+a[idx]);\n"
      "}\n"
      "#pragma gpuc output(z)\n"
      "#pragma gpuc bind(n=%lld)\n"
      "__global__ void dot(float t[%lld], float z[%lld], int n) {\n"
      "  float acc = 0.0f;\n"
      "  for (int i = 0; i < n; i = i + 1) {\n"
      "    acc += t[i];\n"
      "  }\n"
      "  z[idx] = acc;\n"
      "}\n",
      N, N, N, N, N);
}

struct PipeResult {
  std::string Label;
  bool Legal = false, UseFused = false, BitIdentical = false;
  std::string Placement;
  double FusedMs = 0, UnfusedMs = 0, SearchWallMs = 0;
};

std::vector<PipeResult> Results;

/// Runs the unfused chain and the fused naive kernel on identically
/// seeded random inputs and compares the final stage's output arrays
/// byte for byte.
bool fusedChainBitIdentical(const std::vector<const KernelFunction *> &Stages,
                            const KernelFunction &Fused) {
  Simulator Sim(DeviceSpec::gtx280());
  DiagnosticsEngine D;

  BufferSet Ref;
  fillPipelineFuzzInputs(Stages, Ref, /*Seed=*/11u);
  if (!Sim.runPipelineFunctional(Stages, Ref, D))
    return false;

  BufferSet Got;
  fillPipelineFuzzInputs(Stages, Got, /*Seed=*/11u);
  if (!Sim.runFunctional(Fused, Got, D))
    return false;

  for (const ParamDecl &P : Stages.back()->params()) {
    if (!P.IsArray || !P.IsOutput)
      continue;
    const std::vector<float> &A = Ref.data(P.Name);
    const std::vector<float> &B = Got.data(P.Name);
    if (A.size() != B.size() ||
        std::memcmp(A.data(), B.data(), A.size() * sizeof(float)) != 0)
      return false;
  }
  return true;
}

void runPipeline(const char *Label, const std::string &Source) {
  PipeResult R;
  R.Label = Label;

  Module M;
  DiagnosticsEngine D;
  Parser P(Source, D);
  std::vector<KernelFunction *> Stages = P.parseProgram(M);
  if (Stages.size() < 2) {
    Results.push_back(R);
    return;
  }
  std::vector<const KernelFunction *> CStages(Stages.begin(), Stages.end());

  GpuCompiler GC(M, D);
  CompileOptions Opt;
  Opt.Device = DeviceSpec::gtx280();
  Opt.Jobs = 1;
  WallTimer T;
  ProgramCompileOutput Out = GC.compileProgram(CStages, Opt);
  R.SearchWallMs = T.elapsedMs();

  R.Legal = Out.FusionLegal;
  R.UseFused = Out.UseFused;
  R.FusedMs = Out.FusedMs;
  R.UnfusedMs = Out.UnfusedMs;
  if (!Out.FusionSteps.empty())
    R.Placement = fusePlacementName(Out.FusionSteps.back().Placement);
  if (R.Legal && Out.Fused)
    R.BitIdentical = fusedChainBitIdentical(CStages, *Out.Fused);

  Results.push_back(R);
}

} // namespace

int main(int, char **argv) {
  Report::get().setTitle(
      "Kernel fusion: modeled fused vs unfused pipelines, GTX 280");
  runPipeline("blas2_mv_axpy_128", blas2Source(128));
  runPipeline("blas2_mv_axpy_256", blas2Source(256));
  runPipeline("blas2_mv_axpy_512", blas2Source(512));
  runPipeline("stencil_blur_4096", stencilSource(4096));
  runPipeline("rejected_dot_64", rejectedSource(64));

  Report &Rep = Report::get();
  bool GatesOk = !Results.empty();
  int FusedWins = 0, Rejections = 0;

  for (const PipeResult &R : Results) {
    double Speedup = R.FusedMs > 0 ? R.UnfusedMs / R.FusedMs : 0;
    Rep.add(R.Label, {{"fused_ms", R.FusedMs},
                      {"unfused_ms", R.UnfusedMs},
                      {"model_speedup", Speedup},
                      {"use_fused", R.UseFused ? 1.0 : 0.0},
                      {"bit_identical", R.BitIdentical ? 1.0 : 0.0},
                      {"search_wall_ms", R.SearchWallMs}});

    const bool IsBlas2 = R.Label.rfind("blas2", 0) == 0;
    const bool IsRejected = R.Label.rfind("rejected", 0) == 0;
    if (IsRejected) {
      // Gate: the loop-reduction consumer must be refused, not fused.
      if (R.Legal || R.UseFused)
        GatesOk = false;
      else
        ++Rejections;
      continue;
    }
    // Gates for legal pipelines: correct placement class, bit-exact
    // against the unfused chain; BLAS-2 must additionally win.
    if (!R.Legal || !R.BitIdentical)
      GatesOk = false;
    if (IsBlas2) {
      if (!R.UseFused || R.Placement != "register")
        GatesOk = false;
      else
        ++FusedWins;
    } else if (R.Placement != "shared-stage") {
      GatesOk = false;
    }
  }

  Rep.addMeta("fused_wins", static_cast<double>(FusedWins));
  Rep.addMeta("rejections", static_cast<double>(Rejections));
  Rep.addMeta("gates_ok", GatesOk ? 1.0 : 0.0);
  Rep.addNote("fused_ms / unfused_ms are modeled times of the winning "
              "variants; unfused_ms sums the per-stage winners");
  Rep.addNote("bit_identical compares the fused naive kernel against the "
              "unfused chain on randomized inputs (final outputs)");
  Rep.addNote("use_fused=1 on every blas2 row and legal=0 on the rejected "
              "row are acceptance gates, not observations");

  return Rep.finish(argv[0], GatesOk ? 0 : 1);
}
