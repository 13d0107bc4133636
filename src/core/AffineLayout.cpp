//===-- core/AffineLayout.cpp - Affine index-space layout search ----------===//

#include "core/AffineLayout.h"

#include "ast/Clone.h"
#include "ast/Walk.h"
#include "core/Accesses.h"

#include <numeric>
#include <set>

using namespace gpuc;

const char *LayoutPoint::name() const {
  switch (K) {
  case Kind::Identity:
    return "identity";
  case Kind::Shift:
    return "shift";
  case Kind::Swap:
    return "swap";
  case Kind::SkewX:
    return "skew-x";
  case Kind::SkewY:
    return "skew-y";
  case Kind::Diagonal:
    return "diagonal";
  case Kind::OffsetRotation:
    return "offset";
  }
  return "?";
}

bool gpuc::campedStride(long long StrideBytes, const DeviceSpec &Device) {
  if (StrideBytes == 0)
    return false;
  // Blocks starting mid-partition cover all partitions over time.
  if (StrideBytes % Device.PartitionBytes != 0)
    return false;
  const long long Window =
      static_cast<long long>(Device.PartitionBytes) * Device.NumPartitions;
  // The paper's rule (stride a multiple of the whole window: every
  // neighboring block in ONE partition), generalized to partial coverage:
  // a per-block partition step sharing a factor with the partition count
  // reaches only a strict subset of the partitions.
  long long Step =
      (StrideBytes / Device.PartitionBytes) % Device.NumPartitions;
  long long G = std::gcd(Step, static_cast<long long>(Device.NumPartitions));
  return StrideBytes % Window == 0 || G > 1;
}

namespace {

/// One camping access plus the loop usable for the offset rotation (name
/// empty when the access has no full-row unit-coefficient sweep).
struct CampingAccess {
  AccessInfo Access;
  std::string LoopName;
  long long RowElems = 0;
};

struct Detection {
  bool Detected = false;
  std::vector<CampingAccess> Camping;
};

/// Section 3.7's per-access detection at the kernel's own launch.
Detection detectCamping(KernelFunction &K, const DeviceSpec &Device) {
  Detection D;
  for (const AccessInfo &A : collectGlobalAccesses(K)) {
    if (!A.Resolved)
      continue;
    long long Stride = A.Addr.CBidx;
    // Accesses not involving bidx hit the same partition only at
    // different times (the paper's bidy argument); skip them.
    if (Stride == 0 || !campedStride(Stride, Device))
      continue;
    D.Detected = true;
    CampingAccess CA;
    CA.Access = A;
    // Offset rotation requires a full-row sweep by some loop iterator in
    // the contiguous dimension.
    const AffineExpr &Last = A.DimAffine.back();
    for (const auto &[Name, Coeff] : Last.LoopCoeffs) {
      if (Coeff != 1)
        continue;
      const LoopInfo *L = A.loopNamed(Name);
      if (!L || !L->Resolved || L->Init != 0)
        continue;
      long long RowElems = A.Param->Dims.back();
      if (L->Bound == RowElems) {
        CA.LoopName = Name;
        CA.RowElems = RowElems;
        break;
      }
    }
    D.Camping.push_back(std::move(CA));
  }
  return D;
}

/// Figure 9b's 1-D remedy: rotate the reduction index of EVERY access
/// driven by a camping access's full-row loop by (PartitionBytes/4)*bidx,
/// mod the row length. All-or-nothing: if any such access cannot be
/// rotated safely, the whole rewrite is abandoned. \returns true when the
/// rotation was applied.
bool applyOffsetRotation(KernelFunction &K, ASTContext &Ctx,
                         const DeviceSpec &Device, const Detection &D) {
  const long long OffsetElems = Device.PartitionBytes / 4;
  std::set<std::string> RotateLoops;
  for (const CampingAccess &CA : D.Camping)
    if (!CA.LoopName.empty())
      RotateLoops.insert(CA.LoopName);
  if (RotateLoops.empty())
    return false;

  struct Rotation {
    ArrayRef *Ref;
    std::string LoopName;
    long long RowElems;
  };
  std::vector<Rotation> Rotations;
  for (const AccessInfo &A : collectGlobalAccesses(K)) {
    if (!A.Resolved)
      continue;
    const AffineExpr &Last = A.DimAffine.back();
    std::string Used;
    for (const std::string &LN : RotateLoops)
      if (Last.loopCoeff(LN) != 0)
        Used = LN;
    if (Used.empty())
      continue;
    const LoopInfo *L = A.loopNamed(Used);
    long long RowElems = A.Param->Dims.back();
    if (Last.loopCoeff(Used) != 1 || !L || !L->Resolved || L->Init != 0 ||
        L->Bound != RowElems || RowElems % 16 != 0)
      return false; // unsafe to rotate consistently: keep the camping
    Rotations.push_back({A.Ref, Used, RowElems});
  }
  bool Applied = false;
  for (const Rotation &Rot : Rotations) {
    unsigned LastDim = Rot.Ref->numIndices() - 1;
    Expr *Rotated =
        rewriteExpr(Rot.Ref->index(LastDim), [&](Expr *E) -> Expr * {
          auto *V = dyn_cast<VarRef>(E);
          if (!V || V->name() != Rot.LoopName)
            return nullptr;
          // i -> (i + PW*bidx) % RowElems
          Expr *Shift = Ctx.mul(Ctx.intLit(OffsetElems),
                                Ctx.builtin(BuiltinId::Bidx));
          return Ctx.rem(
              Ctx.add(Ctx.varRef(Rot.LoopName, Type::intTy()), Shift),
              Ctx.intLit(Rot.RowElems));
        });
    Rot.Ref->setIndex(LastDim, Rotated);
    Applied = true;
  }
  return Applied;
}

/// gcd(coeff mod M, M) == 1 — the per-axis unit condition (any value is a
/// unit mod 1).
bool unitMod(long long A, long long M) {
  if (M <= 1)
    return true;
  long long R = ((A % M) + M) % M;
  return std::gcd(R, M) == 1;
}

long long modReduce(long long V, long long M) {
  return M <= 1 ? 0 : ((V % M) + M) % M;
}

} // namespace

CampingAnalysis gpuc::analyzeCamping(KernelFunction &K,
                                     const DeviceSpec &Device,
                                     const std::vector<int> &ScaleFactors) {
  CampingAnalysis CA;
  Detection D = detectCamping(K, Device);
  CA.Detected = D.Detected;
  CA.CampingAccesses = static_cast<int>(D.Camping.size());
  for (const CampingAccess &C : D.Camping)
    CA.OffsetFeasible |= !C.LoopName.empty();
  // Block merging scales the per-block stride by the merge degree, so a
  // camping-free naive kernel can still camp in its merged variants —
  // probe each candidate factor against every resolved bidx stride.
  for (const AccessInfo &A : collectGlobalAccesses(K)) {
    if (!A.Resolved || A.Addr.CBidx == 0)
      continue;
    for (int F : ScaleFactors)
      if (F > 1 && campedStride(A.Addr.CBidx * F, Device))
        CA.PotentialAtMerge = true;
  }
  return CA;
}

bool gpuc::remapLegal(const BlockRemap &R, long long GX, long long GY) {
  if (GX <= 0 || GY <= 0)
    return false;
  const bool MixX = R.A01 != 0 && GY > 1; // ebidx reads bidy
  const bool MixY = R.A10 != 0 && GX > 1; // ebidy reads bidx
  if (!MixX && !MixY)
    return unitMod(R.A00, GX) && unitMod(R.A11, GY);
  if (!MixY) // upper triangular: ebidy = f(bidy), ebidx = g(bidx; bidy)
    return unitMod(R.A00, GX) && unitMod(R.A11, GY);
  if (!MixX) // lower triangular
    return unitMod(R.A00, GX) && unitMod(R.A11, GY);
  // Fully mixed: exact on square grids (A invertible mod N iff
  // gcd(det, N) = 1); conservatively illegal otherwise.
  if (GX != GY)
    return false;
  long long Det = static_cast<long long>(R.A00) * R.A11 -
                  static_cast<long long>(R.A01) * R.A10;
  return unitMod(Det, GX);
}

BlockRemap gpuc::composeRemap(const BlockRemap &Outer, const BlockRemap &Inner,
                              long long N) {
  BlockRemap R;
  R.A00 = static_cast<int>(
      modReduce(static_cast<long long>(Outer.A00) * Inner.A00 +
                    static_cast<long long>(Outer.A01) * Inner.A10,
                N));
  R.A01 = static_cast<int>(
      modReduce(static_cast<long long>(Outer.A00) * Inner.A01 +
                    static_cast<long long>(Outer.A01) * Inner.A11,
                N));
  R.A10 = static_cast<int>(
      modReduce(static_cast<long long>(Outer.A10) * Inner.A00 +
                    static_cast<long long>(Outer.A11) * Inner.A10,
                N));
  R.A11 = static_cast<int>(
      modReduce(static_cast<long long>(Outer.A10) * Inner.A01 +
                    static_cast<long long>(Outer.A11) * Inner.A11,
                N));
  R.C0 = modReduce(static_cast<long long>(Outer.A00) * Inner.C0 +
                       static_cast<long long>(Outer.A01) * Inner.C1 +
                       Outer.C0,
                   N);
  R.C1 = modReduce(static_cast<long long>(Outer.A10) * Inner.C0 +
                       static_cast<long long>(Outer.A11) * Inner.C1 +
                       Outer.C1,
                   N);
  return R;
}

bool gpuc::invertRemap(const BlockRemap &R, long long N, BlockRemap &Out) {
  if (N <= 0)
    return false;
  if (N == 1) {
    Out = BlockRemap();
    return true;
  }
  long long Det = modReduce(static_cast<long long>(R.A00) * R.A11 -
                                static_cast<long long>(R.A01) * R.A10,
                            N);
  // Modular inverse of the determinant by the extended Euclid algorithm.
  long long T = 0, NewT = 1, Rr = N, NewR = Det;
  while (NewR != 0) {
    long long Q = Rr / NewR;
    long long Tmp = T - Q * NewT;
    T = NewT;
    NewT = Tmp;
    Tmp = Rr - Q * NewR;
    Rr = NewR;
    NewR = Tmp;
  }
  if (Rr != 1)
    return false; // det not a unit mod N
  long long DetInv = modReduce(T, N);
  // A^-1 = det^-1 * adj(A); C' = -A^-1 * C.
  Out.A00 = static_cast<int>(modReduce(DetInv * R.A11, N));
  Out.A01 = static_cast<int>(modReduce(-DetInv * R.A01, N));
  Out.A10 = static_cast<int>(modReduce(-DetInv * R.A10, N));
  Out.A11 = static_cast<int>(modReduce(DetInv * R.A00, N));
  Out.C0 = modReduce(-(static_cast<long long>(Out.A00) * R.C0 +
                       static_cast<long long>(Out.A01) * R.C1),
                     N);
  Out.C1 = modReduce(-(static_cast<long long>(Out.A10) * R.C0 +
                       static_cast<long long>(Out.A11) * R.C1),
                     N);
  return true;
}

std::vector<LayoutPoint> gpuc::enumerateLayouts(const KernelFunction &K,
                                                const DeviceSpec &Device,
                                                const CampingAnalysis &CA,
                                                bool FullFamily) {
  (void)Device;
  std::vector<LayoutPoint> Pts;
  Pts.push_back(LayoutPoint::identityPoint());
  // Camping-free kernels search the identity only: the family cannot help
  // and the must-not-fire pins rely on the search staying flat.
  if (!FullFamily && !CA.Detected && !CA.PotentialAtMerge)
    return Pts;

  const LaunchConfig &L = K.launch();
  using Kind = LayoutPoint::Kind;
  if (L.GridDimY > 1) {
    // 2-D grids: block-id permutations. The paper's diagonal (skew ∘
    // swap) leads so ties between equally-scored decorrelations keep the
    // paper's transform.
    if (L.GridDimX == L.GridDimY) {
      Pts.push_back(
          LayoutPoint::makeRemap(Kind::Diagonal, BlockRemap::diagonal()));
      Pts.push_back(
          LayoutPoint::makeRemap(Kind::Swap, BlockRemap{0, 1, 1, 0, 0, 0}));
    }
    Pts.push_back(
        LayoutPoint::makeRemap(Kind::SkewX, BlockRemap{1, 1, 0, 1, 0, 0}));
    Pts.push_back(
        LayoutPoint::makeRemap(Kind::SkewY, BlockRemap{1, 0, 1, 1, 0, 0}));
    Pts.push_back(
        LayoutPoint::makeRemap(Kind::Shift, BlockRemap{1, 0, 0, 1, 1, 0}));
  } else {
    // 1-D grids: Figure 9b's rotation (when a full-row sweep exists to
    // rotate) plus the constant block shift.
    if (CA.OffsetFeasible || FullFamily)
      Pts.push_back(LayoutPoint::offsetRotation());
    Pts.push_back(
        LayoutPoint::makeRemap(Kind::Shift, BlockRemap{1, 0, 0, 1, 1, 0}));
  }
  return Pts;
}

PartitionCampResult gpuc::applyLayout(KernelFunction &K, ASTContext &Ctx,
                                      const DeviceSpec &Device,
                                      const LayoutPoint &P) {
  PartitionCampResult R;
  Detection D = detectCamping(K, Device);
  R.Detected = D.Detected;
  R.CampingAccesses = static_cast<int>(D.Camping.size());
  switch (P.K) {
  case LayoutPoint::Kind::Identity:
    break;
  case LayoutPoint::Kind::OffsetRotation:
    // Detection-gated like the paper's 1-D remedy: without camping (or
    // on a 2-D grid) the point degrades to the identity.
    if (D.Detected && K.launch().GridDimY == 1)
      R.AppliedOffset = applyOffsetRotation(K, Ctx, Device, D);
    break;
  default:
    R.AppliedDiagonal =
        installRemap(K, P) && P.K == LayoutPoint::Kind::Diagonal;
    break;
  }
  return R;
}

bool gpuc::installRemap(KernelFunction &K, const LayoutPoint &P) {
  if (P.Remap.identity() ||
      !remapLegal(P.Remap, K.launch().GridDimX, K.launch().GridDimY))
    return false;
  K.launch().Remap = P.Remap;
  return true;
}

LayoutPoint gpuc::paperLayoutPoint(KernelFunction &K,
                                   const DeviceSpec &Device) {
  if (!detectCamping(K, Device).Detected)
    return LayoutPoint::identityPoint();
  const LaunchConfig &L = K.launch();
  if (L.GridDimY == 1)
    return LayoutPoint::offsetRotation();
  // The diagonal reordering needs a square grid to be a bijection.
  if (L.GridDimX == L.GridDimY)
    return LayoutPoint::makeRemap(LayoutPoint::Kind::Diagonal,
                                  BlockRemap::diagonal());
  return LayoutPoint::identityPoint();
}
