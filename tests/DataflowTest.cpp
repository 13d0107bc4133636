//===-- tests/DataflowTest.cpp - abstract-interpretation golden facts -----===//
//
// Golden range/divergence/verdict facts for the dataflow engine
// (analysis/Dataflow.h): every paper kernel must come out statically
// clean (no Violation access, every barrier Proven), representative
// kernels pin exact intervals and divergence lattice points, and
// adversarial kernels (divergent barriers, clamped vs unclamped halo
// guards, non-affine subscripts, proven out-of-bounds stores) must land
// on exactly the right side of the Proven / Possible / Violation fence.
//
//===----------------------------------------------------------------------===//

#include "analysis/Dataflow.h"
#include "ast/Printer.h"
#include "baselines/NaiveKernels.h"
#include "core/Compiler.h"
#include "parser/Parser.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

using namespace gpuc;

namespace {

KernelFunction *parseSource(Module &M, const std::string &Src) {
  DiagnosticsEngine D;
  Parser P(Src, D);
  KernelFunction *K = P.parseKernel(M);
  EXPECT_NE(K, nullptr) << D.str();
  EXPECT_FALSE(D.hasErrors()) << D.str();
  return K;
}

/// Canonical 16x1 blocks over the kernel's work domain, as the sanitizer
/// tests use.
void setLaunch(KernelFunction &K, long long Bx = 16, long long By = 1) {
  LaunchConfig &L = K.launch();
  L.BlockDimX = Bx;
  L.BlockDimY = By;
  L.GridDimX = std::max<long long>(1, K.workDomainX() / Bx);
  L.GridDimY = std::max<long long>(1, K.workDomainY() / By);
}

/// First access fact on the named array (store or load per \p IsStore).
const AccessFact *findAccess(const DataflowResult &R,
                             const std::string &Array, bool IsStore) {
  for (const AccessFact &A : R.Accesses)
    if (A.Array == Array && A.IsStore == IsStore)
      return &A;
  return nullptr;
}

std::string describe(const DataflowResult &R) {
  std::string S;
  for (const AccessFact &A : R.Accesses)
    S += std::string(A.IsStore ? "store " : "load ") + A.Array + " " +
         A.Words.str() + " verdict=" + verdictName(A.Bounds) + "\n";
  for (const BarrierFact &B : R.Barriers)
    S += std::string(B.IsGlobal ? "globalSync" : "syncthreads") +
         " verdict=" + verdictName(B.Uniformity) + " (" + B.Reason + ")\n";
  return S;
}

} // namespace

//===----------------------------------------------------------------------===//
// Paper kernels: all statically clean.
//===----------------------------------------------------------------------===//

class PaperKernelDataflow : public ::testing::TestWithParam<Algo> {};

TEST_P(PaperKernelDataflow, NoViolationsAndBarriersProven) {
  Module M;
  DiagnosticsEngine D;
  long long N = GetParam() == Algo::CONV || GetParam() == Algo::STRSM
                    ? 64
                    : 128;
  if (GetParam() == Algo::RD || GetParam() == Algo::CRD ||
      GetParam() == Algo::VV)
    N = 4096;
  KernelFunction *K = parseNaive(M, GetParam(), N, D);
  ASSERT_NE(K, nullptr) << D.str();
  setLaunch(*K);
  DataflowResult R = runDataflow(*K);
  EXPECT_FALSE(R.anyViolation()) << describe(R);
  EXPECT_TRUE(R.barriersClean()) << describe(R);
  // Every paper kernel addresses its arrays affinely: the engine must
  // resolve a finite word interval for each access.
  for (const AccessFact &A : R.Accesses)
    EXPECT_TRUE(A.Words.Known) << A.Array << ": " << describe(R);
}

INSTANTIATE_TEST_SUITE_P(AllPaperKernels, PaperKernelDataflow,
                         ::testing::Values(Algo::TMV, Algo::MM, Algo::MV,
                                           Algo::VV, Algo::RD, Algo::STRSM,
                                           Algo::CONV, Algo::TP,
                                           Algo::DEMOSAIC, Algo::IMREGIONMAX,
                                           Algo::CRD));

//===----------------------------------------------------------------------===//
// Golden range and divergence facts.
//===----------------------------------------------------------------------===//

TEST(Dataflow, AffineLocalRangeAndDivergence) {
  Module M;
  KernelFunction *K = parseSource(M,
                                  "#pragma gpuc output(out)\n"
                                  "#pragma gpuc domain(64,1)\n"
                                  "__global__ void k(float out[128]) {\n"
                                  "  int i = tidx * 2 + 1;\n"
                                  "  out[i] = 0.0f;\n"
                                  "}\n");
  ASSERT_NE(K, nullptr);
  setLaunch(*K); // blockDim (16,1), grid (4,1)
  DataflowResult R = runDataflow(*K);
  auto It = R.ExitVars.find("i");
  ASSERT_NE(It, R.ExitVars.end());
  const VarFact &V = It->second;
  EXPECT_TRUE(V.HasForm);
  // tidx in [0,15]: i = 2*tidx + 1 in [1, 31], both endpoints attained.
  EXPECT_TRUE(V.Range.Known);
  EXPECT_EQ(V.Range.Lo, 1);
  EXPECT_EQ(V.Range.Hi, 31);
  EXPECT_TRUE(V.Range.Exact);
  EXPECT_EQ(V.Div.Thread, Divergence::TidDependent);
  EXPECT_EQ(V.Div.Block, Divergence::Uniform);
}

TEST(Dataflow, IdxRangeSpansGrid) {
  Module M;
  KernelFunction *K = parseSource(M,
                                  "#pragma gpuc output(c)\n"
                                  "__global__ void k(float a[4096],\n"
                                  "                  float c[4096]) {\n"
                                  "  c[idx] = a[idx];\n"
                                  "}\n");
  ASSERT_NE(K, nullptr);
  setLaunch(*K); // 16 threads x 256 blocks = exactly 4096 lanes
  DataflowResult R = runDataflow(*K);
  ASSERT_TRUE(R.boundsClean()) << describe(R);
  const AccessFact *A = findAccess(R, "c", /*IsStore=*/true);
  ASSERT_NE(A, nullptr);
  EXPECT_TRUE(A->Words.Known);
  EXPECT_EQ(A->Words.Lo, 0);
  EXPECT_EQ(A->Words.Hi, 4095);
  EXPECT_EQ(A->TotalWords, 4096);
  EXPECT_EQ(A->Bounds, Verdict::Proven);
  EXPECT_EQ(A->AddrDiv.Thread, Divergence::TidDependent);
  EXPECT_FALSE(A->Guarded);
}

TEST(Dataflow, LoopIteratorRangeFeedsAccessInterval) {
  Module M;
  KernelFunction *K = parseSource(M,
                                  "#pragma gpuc output(c)\n"
                                  "#pragma gpuc domain(64,1)\n"
                                  "__global__ void k(float a[64][32],\n"
                                  "                  float c[64]) {\n"
                                  "  float s = 0.0f;\n"
                                  "  for (int j = 0; j < 32; j = j + 1) {\n"
                                  "    s += a[idx][j];\n"
                                  "  }\n"
                                  "  c[idx] = s;\n"
                                  "}\n");
  ASSERT_NE(K, nullptr);
  setLaunch(*K);
  DataflowResult R = runDataflow(*K);
  EXPECT_TRUE(R.boundsClean()) << describe(R);
  const AccessFact *A = findAccess(R, "a", /*IsStore=*/false);
  ASSERT_NE(A, nullptr);
  // a[idx][j]: word = 32*idx + j, idx in [0,63], j in [0,31].
  EXPECT_TRUE(A->Words.Known);
  EXPECT_EQ(A->Words.Lo, 0);
  EXPECT_EQ(A->Words.Hi, 63 * 32 + 31);
  EXPECT_EQ(A->Bounds, Verdict::Proven);
  // The accumulator folds in array loads, whose divergence the engine
  // does not track: it must degrade toward Unknown, never claim Uniform.
  auto It = R.ExitVars.find("s");
  ASSERT_NE(It, R.ExitVars.end());
  EXPECT_NE(It->second.Div.Thread, Divergence::Uniform);
}

TEST(Dataflow, UniformScalarStaysUniform) {
  Module M;
  KernelFunction *K = parseSource(M,
                                  "#pragma gpuc output(c)\n"
                                  "#pragma gpuc bind(n=64)\n"
                                  "#pragma gpuc domain(64,1)\n"
                                  "__global__ void k(float c[64], int n) {\n"
                                  "  int half = n / 2;\n"
                                  "  int base = bidx * 16;\n"
                                  "  c[base + tidx] = 1.0f;\n"
                                  "  int t = half + base;\n"
                                  "}\n");
  ASSERT_NE(K, nullptr);
  setLaunch(*K);
  DataflowResult R = runDataflow(*K);
  // n is bound to 64: half is the exact point 32, thread- and
  // block-uniform.
  auto Half = R.ExitVars.find("half");
  ASSERT_NE(Half, R.ExitVars.end());
  EXPECT_TRUE(Half->second.Range.Known);
  EXPECT_EQ(Half->second.Range.Lo, 32);
  EXPECT_EQ(Half->second.Range.Hi, 32);
  EXPECT_EQ(Half->second.Div.Thread, Divergence::Uniform);
  EXPECT_EQ(Half->second.Div.Block, Divergence::Uniform);
  // base is block-dependent but uniform within a block.
  auto Base = R.ExitVars.find("base");
  ASSERT_NE(Base, R.ExitVars.end());
  EXPECT_EQ(Base->second.Div.Thread, Divergence::Uniform);
  EXPECT_EQ(Base->second.Div.Block, Divergence::TidDependent);
}

//===----------------------------------------------------------------------===//
// Adversarial: barrier uniformity.
//===----------------------------------------------------------------------===//

TEST(Dataflow, DivergentBarrierIsViolation) {
  Module M;
  KernelFunction *K = parseSource(M,
                                  "#pragma gpuc output(s)\n"
                                  "#pragma gpuc domain(64,1)\n"
                                  "__global__ void k(float s[64]) {\n"
                                  "  __shared__ float t[16];\n"
                                  "  t[tidx] = s[idx];\n"
                                  "  if (tidx < 8) {\n"
                                  "    __syncthreads();\n"
                                  "  }\n"
                                  "  s[idx] = t[tidx];\n"
                                  "}\n");
  ASSERT_NE(K, nullptr);
  setLaunch(*K);
  DataflowResult R = runDataflow(*K);
  ASSERT_EQ(R.Barriers.size(), 1u);
  EXPECT_EQ(R.Barriers[0].Uniformity, Verdict::Violation) << describe(R);
}

TEST(Dataflow, ThreadDependentTripBarrierIsViolation) {
  Module M;
  KernelFunction *K = parseSource(M,
                                  "#pragma gpuc output(s)\n"
                                  "#pragma gpuc domain(64,1)\n"
                                  "__global__ void k(float s[64]) {\n"
                                  "  __shared__ float t[16];\n"
                                  "  t[tidx] = s[idx];\n"
                                  "  for (int i = 0; i < tidx; i = i + 1) {\n"
                                  "    __syncthreads();\n"
                                  "  }\n"
                                  "  s[idx] = t[tidx];\n"
                                  "}\n");
  ASSERT_NE(K, nullptr);
  setLaunch(*K);
  DataflowResult R = runDataflow(*K);
  ASSERT_EQ(R.Barriers.size(), 1u);
  EXPECT_EQ(R.Barriers[0].Uniformity, Verdict::Violation) << describe(R);
  EXPECT_NE(R.Barriers[0].Reason.find("trip"), std::string::npos);
}

TEST(Dataflow, UniformTripBarrierIsProven) {
  Module M;
  KernelFunction *K = parseSource(M,
                                  "#pragma gpuc output(s)\n"
                                  "#pragma gpuc bind(n=8)\n"
                                  "#pragma gpuc domain(64,1)\n"
                                  "__global__ void k(float s[64], int n) {\n"
                                  "  __shared__ float t[16];\n"
                                  "  for (int i = 0; i < n; i = i + 1) {\n"
                                  "    t[tidx] = s[idx];\n"
                                  "    __syncthreads();\n"
                                  "    s[idx] = t[15 - tidx];\n"
                                  "    __syncthreads();\n"
                                  "  }\n"
                                  "}\n");
  ASSERT_NE(K, nullptr);
  setLaunch(*K);
  DataflowResult R = runDataflow(*K);
  ASSERT_EQ(R.Barriers.size(), 2u);
  EXPECT_TRUE(R.barriersClean()) << describe(R);
}

TEST(Dataflow, WhileWithThreadDependentConditionFlagsBarrier) {
  Module M;
  KernelFunction *K = parseSource(M,
                                  "#pragma gpuc output(s)\n"
                                  "#pragma gpuc domain(64,1)\n"
                                  "__global__ void k(float s[64]) {\n"
                                  "  __shared__ float t[16];\n"
                                  "  int i = tidx;\n"
                                  "  while (i < 16) {\n"
                                  "    t[tidx] = s[idx];\n"
                                  "    __syncthreads();\n"
                                  "    i = i + 1;\n"
                                  "  }\n"
                                  "}\n");
  ASSERT_NE(K, nullptr);
  setLaunch(*K);
  DataflowResult R = runDataflow(*K);
  ASSERT_EQ(R.Barriers.size(), 1u);
  // Different threads run the loop a different number of times: the
  // barrier must not be proven uniform.
  EXPECT_NE(R.Barriers[0].Uniformity, Verdict::Proven) << describe(R);
}

//===----------------------------------------------------------------------===//
// Adversarial: bounds verdicts.
//===----------------------------------------------------------------------===//

TEST(Dataflow, ClampedHaloGuardIsProven) {
  Module M;
  KernelFunction *K = parseSource(M,
                                  "#pragma gpuc output(out)\n"
                                  "#pragma gpuc domain(64,1)\n"
                                  "__global__ void k(float in[64],\n"
                                  "                  float out[64]) {\n"
                                  "  int i = idx - 1;\n"
                                  "  if (i >= 0) {\n"
                                  "    out[i] = in[i];\n"
                                  "  }\n"
                                  "}\n");
  ASSERT_NE(K, nullptr);
  setLaunch(*K);
  DataflowResult R = runDataflow(*K);
  const AccessFact *A = findAccess(R, "out", /*IsStore=*/true);
  ASSERT_NE(A, nullptr);
  // The guard clips i to [0, 62]: provably in bounds, and marked guarded.
  EXPECT_EQ(A->Bounds, Verdict::Proven) << describe(R);
  EXPECT_TRUE(A->Guarded);
}

TEST(Dataflow, UnclampedHaloIsPossible) {
  Module M;
  KernelFunction *K = parseSource(M,
                                  "#pragma gpuc output(out)\n"
                                  "#pragma gpuc domain(64,1)\n"
                                  "__global__ void k(float in[64],\n"
                                  "                  float out[64]) {\n"
                                  "  int i = idx - 1;\n"
                                  "  out[idx] = in[i];\n"
                                  "}\n");
  ASSERT_NE(K, nullptr);
  setLaunch(*K);
  DataflowResult R = runDataflow(*K);
  const AccessFact *A = findAccess(R, "in", /*IsStore=*/false);
  ASSERT_NE(A, nullptr);
  // i ranges over [-1, 62]: not proven, but the first thread's fault is
  // real, so the engine may even prove the violation; it must not claim
  // Proven.
  EXPECT_NE(A->Bounds, Verdict::Proven) << describe(R);
}

TEST(Dataflow, ProvenOutOfBoundsStoreIsViolation) {
  Module M;
  KernelFunction *K = parseSource(M,
                                  "#pragma gpuc output(out)\n"
                                  "#pragma gpuc domain(64,1)\n"
                                  "__global__ void k(float out[64]) {\n"
                                  "  out[idx + 64] = 1.0f;\n"
                                  "}\n");
  ASSERT_NE(K, nullptr);
  setLaunch(*K);
  DataflowResult R = runDataflow(*K);
  const AccessFact *A = findAccess(R, "out", /*IsStore=*/true);
  ASSERT_NE(A, nullptr);
  // Every thread writes past the end: word range [64, 127] against 64
  // declared words, unguarded.
  EXPECT_EQ(A->Bounds, Verdict::Violation) << describe(R);
  EXPECT_TRUE(R.anyViolation());
  EXPECT_FALSE(R.boundsClean());
}

TEST(Dataflow, ExactEndpointOutOfBoundsIsViolation) {
  Module M;
  KernelFunction *K = parseSource(M,
                                  "#pragma gpuc output(out)\n"
                                  "#pragma gpuc domain(64,1)\n"
                                  "__global__ void k(float out[63]) {\n"
                                  "  out[idx] = 1.0f;\n"
                                  "}\n");
  ASSERT_NE(K, nullptr);
  setLaunch(*K);
  DataflowResult R = runDataflow(*K);
  const AccessFact *A = findAccess(R, "out", /*IsStore=*/true);
  ASSERT_NE(A, nullptr);
  // idx attains 63 exactly (affine over the full launch), and word 63 is
  // one past the declared extent: a proven violation even though most
  // threads are fine.
  EXPECT_EQ(A->Bounds, Verdict::Violation) << describe(R);
}

TEST(Dataflow, NonAffineIndexIsPossibleNotViolation) {
  Module M;
  KernelFunction *K = parseSource(M,
                                  "#pragma gpuc output(out)\n"
                                  "#pragma gpuc domain(64,1)\n"
                                  "__global__ void k(float in[64],\n"
                                  "                  float out[64]) {\n"
                                  "  int i = tidx * tidx;\n"
                                  "  out[idx] = in[i];\n"
                                  "}\n");
  ASSERT_NE(K, nullptr);
  setLaunch(*K);
  DataflowResult R = runDataflow(*K);
  const AccessFact *A = findAccess(R, "in", /*IsStore=*/false);
  ASSERT_NE(A, nullptr);
  // tidx*tidx has no affine form; the engine must degrade to Possible,
  // never to a spurious proof in either direction.
  EXPECT_EQ(A->Bounds, Verdict::Possible) << describe(R);
}

TEST(Dataflow, SharedAccessBoundsProven) {
  Module M;
  KernelFunction *K = parseSource(M,
                                  "#pragma gpuc output(out)\n"
                                  "#pragma gpuc domain(64,1)\n"
                                  "__global__ void k(float in[64],\n"
                                  "                  float out[64]) {\n"
                                  "  __shared__ float t[16];\n"
                                  "  t[tidx] = in[idx];\n"
                                  "  __syncthreads();\n"
                                  "  out[idx] = t[15 - tidx];\n"
                                  "}\n");
  ASSERT_NE(K, nullptr);
  setLaunch(*K);
  DataflowResult R = runDataflow(*K);
  EXPECT_TRUE(R.boundsClean()) << describe(R);
  EXPECT_TRUE(R.barriersClean()) << describe(R);
  const AccessFact *A = findAccess(R, "t", /*IsStore=*/true);
  ASSERT_NE(A, nullptr);
  EXPECT_TRUE(A->IsShared);
  EXPECT_EQ(A->TotalWords, 16);
  EXPECT_EQ(A->Words.Lo, 0);
  EXPECT_EQ(A->Words.Hi, 15);
}

//===----------------------------------------------------------------------===//
// Soundness invariant: Violation implies the verdict-mode contract.
//===----------------------------------------------------------------------===//

TEST(Dataflow, VerdictNamesStable) {
  EXPECT_STREQ(verdictName(Verdict::Proven), "proven");
  EXPECT_STREQ(verdictName(Verdict::Possible), "possible");
  EXPECT_STREQ(verdictName(Verdict::Violation), "violation");
}

//===----------------------------------------------------------------------===//
// Whole-result digests over every variant of the Figure-11 searches.
//===----------------------------------------------------------------------===//

namespace {

std::string divStr(const DivFact &D) {
  return std::string(divergenceName(D.Thread)) + "/" +
         divergenceName(D.Block);
}

/// Every fact of \p R as text: accesses and barriers in program order,
/// exit variables in name order.
std::string serializeFacts(const DataflowResult &R) {
  std::string S;
  for (const AccessFact &A : R.Accesses)
    S += strFormat("access %s shared=%d store=%d words=%s total=%lld "
                   "lanes=%d bounds=%s div=%s guarded=%d loc=%d:%d\n",
                   A.Array.c_str(), A.IsShared, A.IsStore,
                   A.Words.str().c_str(), A.TotalWords, A.Lanes,
                   verdictName(A.Bounds), divStr(A.AddrDiv).c_str(),
                   A.Guarded, A.Loc.Line, A.Loc.Col);
  for (const BarrierFact &B : R.Barriers)
    S += strFormat("barrier global=%d %s (%s)\n", B.IsGlobal,
                   verdictName(B.Uniformity), B.Reason.c_str());
  for (const auto &[Name, F] : R.ExitVars)
    S += strFormat("var %s range=%s form=%s div=%s\n", Name.c_str(),
                   F.Range.str().c_str(),
                   F.HasForm ? F.Form.str().c_str() : "none",
                   divStr(F.Div).c_str());
  return S;
}

uint64_t fnv1a(const std::string &S, uint64_t H = 0xcbf29ce484222325ull) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H;
}

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

} // namespace

TEST(DataflowDigest, EveryFigure11VariantKeepsItsFacts) {
  // One digest per program over the engine's whole result on every
  // variant its gtx280 search builds (remap copies included), in slot
  // order. Any change to a fact — an interval, a verdict, a divergence
  // point, a reason string — moves the digest.
  const std::pair<Algo, uint64_t> Pins[] = {
      {Algo::TMV, 0xf97fc648e411f3fcull},
      {Algo::MM, 0xd147236fadbca61dull},
      {Algo::MV, 0x249bf220521f72f2ull},
      {Algo::VV, 0x68984177dd19b9b1ull},
      {Algo::RD, 0xcfafcafddc088d13ull},
      {Algo::STRSM, 0xb4b12ae4fdbb11daull},
      {Algo::CONV, 0x634d9a5099a2efe1ull},
      {Algo::TP, 0x1129b67f5c6f9fa6ull},
      {Algo::DEMOSAIC, 0x164603277b9cd158ull},
      {Algo::IMREGIONMAX, 0x78c1e89e1da6f349ull},
  };
  for (const auto &[A, Want] : Pins) {
    Module M;
    DiagnosticsEngine D;
    KernelFunction *Naive = parseNaive(M, A, figure11Size(A), D);
    ASSERT_NE(Naive, nullptr) << D.str();
    GpuCompiler GC(M, D);
    CompileOptions Opt;
    Opt.Device = DeviceSpec::gtx280();
    Opt.Jobs = 1;
    CompileOutput Out = GC.compile(*Naive, Opt);
    ASSERT_NE(Out.Best, nullptr) << D.str() << Out.Log;
    uint64_t H = fnv1a(algoInfo(A).Name);
    for (const VariantResult &V : Out.Variants) {
      ASSERT_NE(V.Kernel, nullptr);
      H = fnv1a(strFormat("variant %s b%d t%d\n", V.Layout, V.BlockMergeN,
                          V.ThreadMergeM),
                H);
      H = fnv1a(serializeFacts(runDataflow(*V.Kernel)), H);
    }
    EXPECT_EQ(H, Want) << algoInfo(A).Name
                       << strFormat(": digest 0x%016llxull",
                                    static_cast<unsigned long long>(H));
  }
}
