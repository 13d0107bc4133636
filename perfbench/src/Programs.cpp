//===-- perfbench/src/Programs.cpp - Benchmark programs and winners -------===//

#include "Programs.h"
#include "Bench.h"

#include "ast/Printer.h"
#include "baselines/CpuReference.h"
#include "fuzz/Oracle.h"
#include "parser/Parser.h"
#include "serve/Service.h"
#include "sim/SimCache.h"

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace gpuc;
using namespace perfbench;

namespace {

/// Figure-11 sizes: 1024 except strsm 512, vv 2^20 and rd 2^21.
long long figure11Size(Algo A) {
  switch (A) {
  case Algo::STRSM:
    return 512;
  case Algo::VV:
    return 1LL << 20;
  case Algo::RD:
    return 1LL << 21;
  default:
    return 1024;
  }
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

/// Modeled time to 4 significant digits, trailing zeros kept.
std::string fourDigits(double Ms) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%#.4g", Ms);
  return Buf;
}

Winner winnerOf(const VariantResult &V, double Ms, const std::string &Text) {
  Winner W;
  W.BlockN = V.BlockMergeN;
  W.ThreadM = V.ThreadMergeM;
  W.Layout = V.Layout ? V.Layout : "identity";
  W.ModeledMs = fourDigits(Ms);
  W.TextFnv = hex64(fnv1a(Text));
  return W;
}

} // namespace

bool perfbench::loadPrograms(const std::string &Root,
                             std::vector<Program> &Out, std::string &Err) {
  Out.clear();
  for (Algo A : table1Algos()) {
    Program P;
    P.A = A;
    P.N = figure11Size(A);
    P.Name = std::string(algoInfo(A).Name) + "-" + std::to_string(P.N);
    P.Source = naiveSource(A, P.N);
    Out.push_back(std::move(P));
  }
  Program P;
  P.Name = "blas2_pipeline";
  P.Pipeline = true;
  const std::string Path = Root + "/examples/kernels/blas2_pipeline.cu";
  if (!readFile(Path, P.Source)) {
    Err = "cannot read " + Path;
    return false;
  }
  Out.push_back(std::move(P));
  return true;
}

bool perfbench::isSmokeProgram(const Program &P) {
  if (P.Pipeline)
    return true;
  switch (P.A) {
  case Algo::TMV:
  case Algo::MV:
  case Algo::VV:
  case Algo::RD:
  case Algo::TP:
    return true;
  default:
    return false;
  }
}

serve::CompileJob perfbench::searchJob(const Program &P) {
  serve::CompileJob J;
  J.Name = P.Name;
  J.Source = P.Source;
  J.DeviceName = "gtx280";
  J.Flags = serve::jobDefaultFlags();
  return J;
}

std::string Winner::str() const {
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf), "%s b%d t%d %s %s ms text %s",
                Fused ? "fused" : "single", BlockN, ThreadM, Layout.c_str(),
                ModeledMs.c_str(), TextFnv.c_str());
  return Buf;
}

bool perfbench::loadExpected(const std::string &Path,
                             std::map<std::string, Winner> &Out,
                             std::string &Err) {
  std::string Text;
  if (!readFile(Path, Text)) {
    Err = "cannot read expected-winner file " + Path;
    return false;
  }
  std::istringstream In(Text);
  std::string Line;
  int LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream LS(Line);
    std::string Name, Kind;
    Winner W;
    if (!(LS >> Name >> Kind >> W.BlockN >> W.ThreadM >> W.Layout >>
          W.ModeledMs >> W.TextFnv) ||
        (Kind != "single" && Kind != "fused")) {
      Err = Path + ":" + std::to_string(LineNo) + ": malformed line";
      return false;
    }
    W.Fused = Kind == "fused";
    Out[Name] = W;
  }
  return true;
}

std::string perfbench::expectedFileText(const std::vector<Program> &Programs,
                                        const std::map<std::string, Winner> &W) {
  std::string T =
      "# Expected search winners on gtx280 with the default pipeline.\n"
      "# program kind block thread layout modeled_ms text_fnv1a\n";
  for (const Program &P : Programs) {
    auto It = W.find(P.Name);
    if (It == W.end())
      continue;
    const Winner &X = It->second;
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf), "%-16s %-6s %3d %3d %-9s %-10s %s\n",
                  P.Name.c_str(), X.Fused ? "fused" : "single", X.BlockN,
                  X.ThreadM, X.Layout.c_str(), X.ModeledMs.c_str(),
                  X.TextFnv.c_str());
    T += Buf;
  }
  return T;
}

DirectCompile
perfbench::compileDirect(const Program &P, int Lanes, SimCache *Mem,
                         DiskCache *Disk, const ConfigureFn &Configure,
                         Trace *T) {
  Trace Off(false);
  Trace &Tr = T ? *T : Off;
  DirectCompile R;
  R.M = std::make_unique<Module>();
  serve::ServiceContext Ctx;
  Ctx.Mem = Mem;
  Ctx.Disk = Disk;
  Ctx.Jobs = Lanes;
  CompileOptions Opt;
  serve::optionsFromJob(searchJob(P), Ctx, Opt);

  DiagnosticsEngine Diags;
  std::vector<KernelFunction *> Parsed;
  {
    Trace::Scope S(Tr, "parser.parse", -1, P.Name);
    Parser Ps(P.Source, Diags);
    Parsed = Ps.parseProgram(*R.M);
  }
  if (Parsed.empty()) {
    R.Error = "parse failed: " + Diags.str();
    return R;
  }
  R.Stages.assign(Parsed.begin(), Parsed.end());
  {
    Trace::Scope S(Tr, "cache.key", -1, P.Name);
    volatile uint64_t Key = P.Pipeline ? programCacheKey(R.Stages, Opt)
                                       : compileCacheKey(*Parsed[0], Opt);
    (void)Key;
  }

  GpuCompiler GC(*R.M, Diags);
  if (P.Pipeline) {
    {
      Trace::Scope S(Tr, "core.search", -1, P.Name);
      if (Configure)
        Configure(Opt, S.id());
      R.Prog = GC.compileProgram(R.Stages, Opt);
    }
    R.Search = R.Prog.Search;
    R.Text = R.Prog.ProgramText;
    if (!R.Prog.AllFeasible || Diags.hasErrors()) {
      R.Error = "pipeline search failed: " + Diags.str();
      return R;
    }
    if (R.Prog.UseFused) {
      R.W = winnerOf(R.Prog.FusedOut.BestVariant, R.Prog.FusedMs, R.Text);
      R.W.Fused = true;
    } else {
      VariantResult None;
      None.Layout = "-";
      R.W = winnerOf(None, R.Prog.UnfusedMs, R.Text);
    }
  } else {
    {
      Trace::Scope S(Tr, "core.search", -1, P.Name);
      if (Configure)
        Configure(Opt, S.id());
      R.Single = GC.compile(*Parsed[0], Opt);
    }
    R.Search = R.Single.Search;
    if (!R.Single.Best || Diags.hasErrors()) {
      R.Error = "search failed: " + Diags.str() + R.Single.Log;
      return R;
    }
    R.Text = printKernel(*R.Single.Best);
    R.W = winnerOf(R.Single.BestVariant, R.Single.BestVariant.Perf.TimeMs,
                   R.Text);
  }
  R.Ok = true;
  return R;
}

std::string perfbench::validateWinner(const Program &P, const Winner &W) {
  Module M;
  DiagnosticsEngine Diags;
  Parser Ps(P.Source, Diags);
  std::vector<KernelFunction *> Parsed = Ps.parseProgram(M);
  if (Parsed.empty())
    return "parse failed: " + Diags.str();
  Simulator Sim(DeviceSpec::gtx280());

  if (P.Pipeline) {
    // No CPU reference exists for the pipeline; the unfused naive chain is
    // the reference, as in the fusion-differential oracle.
    std::vector<const KernelFunction *> Stages(Parsed.begin(), Parsed.end());
    GpuCompiler GC(M, Diags);
    CompileOptions Opt;
    Opt.Jobs = 1;
    ProgramCompileOutput Out = GC.compileProgram(Stages, Opt);
    if (!Out.AllFeasible || Out.UseFused != W.Fused)
      return "pipeline decision differs from the expected winner";
    if (!W.Fused)
      return "";
    if (hex64(fnv1a(Out.ProgramText)) != W.TextFnv)
      return "program text differs from the expected winner";
    const KernelFunction *Fused = Out.FusedOut.Best;
    if (Out.FusedOut.BestVariant.BlockMergeN != W.BlockN ||
        Out.FusedOut.BestVariant.ThreadMergeM != W.ThreadM)
      return "fused winner factors differ from the expected winner";
    BufferSet Ref, Got;
    fillPipelineFuzzInputs(Stages, Ref, 7);
    fillPipelineFuzzInputs(Stages, Got, 7);
    if (!Sim.runPipelineFunctional(Stages, Ref, Diags) ||
        !Sim.runFunctional(*Fused, Got, Diags))
      return "functional run failed: " + Diags.str();
    const std::string Outp = Stages.back()->outputName();
    long long Bad = countMismatches(Got.data(Outp), Ref.data(Outp));
    return Bad ? std::to_string(Bad) + " mismatching elements" : "";
  }

  const KernelFunction &Naive = *Parsed[0];
  CompileOptions Opt;
  GpuCompiler GC(M, Diags);
  // The search enumerates layout points on its unit-factor probe.
  LayoutPoint Identity = LayoutPoint::identityPoint();
  CampingAnalysis Scan;
  MergePlan Plan;
  PartitionCampResult Camp;
  KernelFunction *Probe =
      GC.compileVariant(Naive, Opt, 1, 1, &Plan, &Camp, &Identity, &Scan);
  if (!Probe)
    return "probe compile failed: " + Diags.str();
  const LayoutPoint *Point = nullptr;
  std::vector<LayoutPoint> Points =
      enumerateLayouts(*Probe, Opt.Device, Scan, /*FullFamily=*/true);
  for (const LayoutPoint &L : Points)
    if (W.Layout == L.name())
      Point = &L;
  if (!Point)
    return "layout point '" + W.Layout + "' not in the family";
  // A fresh module, as each search task uses: temporaries are numbered
  // per module, so the probe above would shift the winner's names.
  Module VM;
  GpuCompiler VGC(VM, Diags);
  KernelFunction *K = VGC.compileVariant(Naive, Opt, W.BlockN, W.ThreadM,
                                         nullptr, nullptr, Point);
  if (!K || Diags.hasErrors())
    return "winner compile failed: " + Diags.str();
  if (hex64(fnv1a(printKernel(*K))) != W.TextFnv)
    return "compiled text differs from the expected winner";

  BufferSet B;
  initInputs(P.A, P.N, B);
  std::vector<float> Ref = cpuReference(P.A, P.N, B);
  if (!Sim.runFunctional(*K, B, Diags))
    return "functional run failed: " + Diags.str();
  long long Bad = countMismatches(B.data(outputBufferName(P.A)), Ref);
  return Bad ? std::to_string(Bad) + " mismatching elements" : "";
}
