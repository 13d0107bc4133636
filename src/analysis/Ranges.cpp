//===-- analysis/Ranges.cpp - Symbolic value intervals --------------------===//

#include "analysis/Ranges.h"

#include "support/StringUtils.h"

#include <algorithm>

using namespace gpuc;

namespace {

/// 64-bit checked helpers; failure poisons the whole interval to top.
bool checkedAdd(long long A, long long B, long long &Out) {
  return !__builtin_add_overflow(A, B, &Out);
}

bool checkedMul(long long A, long long B, long long &Out) {
  return !__builtin_mul_overflow(A, B, &Out);
}

} // namespace

std::string Interval::str() const {
  if (!Known)
    return "unknown";
  return strFormat("%s[%lld, %lld]", Exact ? "" : "~", Lo, Hi);
}

bool Interval::operator==(const Interval &O) const {
  if (Known != O.Known)
    return false;
  if (!Known)
    return true;
  return Exact == O.Exact && Lo == O.Lo && Hi == O.Hi;
}

Interval gpuc::joinI(const Interval &A, const Interval &B) {
  if (!A.Known || !B.Known)
    return Interval::top();
  Interval R = Interval::make(std::min(A.Lo, B.Lo), std::max(A.Hi, B.Hi));
  R.Exact = A.Exact && B.Exact && A.Lo == B.Lo && A.Hi == B.Hi;
  return R;
}

Interval gpuc::meetI(const Interval &A, const Interval &B) {
  if (!A.Known)
    return B;
  if (!B.Known)
    return A;
  Interval R = Interval::make(std::max(A.Lo, B.Lo), std::min(A.Hi, B.Hi));
  if (R.Hi < R.Lo) {
    // Contradictory facts: the path is unreachable, any enclosure holds.
    R.Lo = R.Hi = std::max(A.Lo, B.Lo);
    return R;
  }
  R.Exact = (A.Exact && R.Lo == A.Lo && R.Hi == A.Hi) ||
            (B.Exact && R.Lo == B.Lo && R.Hi == B.Hi);
  return R;
}

Interval gpuc::negI(const Interval &A) {
  if (!A.Known)
    return Interval::top();
  long long Lo, Hi;
  if (!checkedMul(A.Hi, -1, Lo) || !checkedMul(A.Lo, -1, Hi))
    return Interval::top();
  Interval R = Interval::make(Lo, Hi);
  R.Exact = A.Exact;
  return R;
}

Interval gpuc::addI(const Interval &A, const Interval &B) {
  if (!A.Known || !B.Known)
    return Interval::top();
  long long Lo, Hi;
  if (!checkedAdd(A.Lo, B.Lo, Lo) || !checkedAdd(A.Hi, B.Hi, Hi))
    return Interval::top();
  Interval R = Interval::make(Lo, Hi);
  // A point shift relocates the attained set wholesale.
  R.Exact = A.Exact && B.Exact && (A.isPoint() || B.isPoint());
  return R;
}

Interval gpuc::subI(const Interval &A, const Interval &B) {
  return addI(A, negI(B));
}

Interval gpuc::mulI(const Interval &A, const Interval &B) {
  if (!A.Known || !B.Known)
    return Interval::top();
  long long C[4];
  if (!checkedMul(A.Lo, B.Lo, C[0]) || !checkedMul(A.Lo, B.Hi, C[1]) ||
      !checkedMul(A.Hi, B.Lo, C[2]) || !checkedMul(A.Hi, B.Hi, C[3]))
    return Interval::top();
  Interval R = Interval::make(*std::min_element(C, C + 4),
                              *std::max_element(C, C + 4));
  // Scaling by an attained constant preserves endpoint attainment.
  R.Exact = A.Exact && B.Exact && (A.isPoint() || B.isPoint());
  return R;
}

Interval gpuc::divI(const Interval &A, const Interval &B) {
  if (!A.Known || !B.Known || B.contains(0))
    return Interval::top();
  // Truncating division is monotone in the dividend and piecewise
  // monotone in the (sign-pure) divisor, so the extremes sit on corners.
  long long C[4] = {A.Lo / B.Lo, A.Lo / B.Hi, A.Hi / B.Lo, A.Hi / B.Hi};
  Interval R = Interval::make(*std::min_element(C, C + 4),
                              *std::max_element(C, C + 4));
  R.Exact = A.isPoint() && B.isPoint();
  return R;
}

Interval gpuc::remI(const Interval &A, const Interval &B) {
  if (!A.Known || !B.Known || B.contains(0))
    return Interval::top();
  if (A.isPoint() && B.isPoint())
    return Interval::point(A.Lo % B.Lo);
  long long M = std::max(std::llabs(B.Lo), std::llabs(B.Hi));
  // C semantics: the result's sign follows the dividend.
  long long Lo = A.Lo >= 0 ? 0 : -(M - 1);
  long long Hi = A.Hi <= 0 ? 0 : M - 1;
  Interval R = Interval::make(Lo, Hi);
  // a % b == a whenever 0 <= a < min(|b|): the identity pass-through.
  long long MinAbsB = std::min(std::llabs(B.Lo), std::llabs(B.Hi));
  if (B.Lo > 0 || B.Hi < 0) {
    if (A.Lo >= 0 && A.Hi < MinAbsB)
      return A;
  }
  return R;
}

Interval RangeEnv::lookup(const std::string &Name) const {
  const Interval *I = Find ? Find(Ctx, Name) : nullptr;
  return I ? *I : Interval::top();
}

Interval gpuc::rangeOfAffine(const AffineExpr &A, const LaunchConfig &L,
                             const RangeEnv &Env) {
  // Accumulate per-term extremes directly: unlike generic addI, the sum of
  // attained extremes is attained here because the terms' variables are
  // independent (see the header note).
  long long Lo = A.Const, Hi = A.Const;
  bool Exact = true;
  auto Term = [&](long long C, const Interval &V) -> bool {
    if (C == 0)
      return true;
    if (!V.Known)
      return false;
    long long TLo, THi;
    if (!checkedMul(C, C > 0 ? V.Lo : V.Hi, TLo) ||
        !checkedMul(C, C > 0 ? V.Hi : V.Lo, THi))
      return false;
    if (!checkedAdd(Lo, TLo, Lo) || !checkedAdd(Hi, THi, Hi))
      return false;
    Exact = Exact && V.Exact;
    return true;
  };
  if (!Term(A.CTidx, Interval::make(0, L.BlockDimX - 1, true)) ||
      !Term(A.CTidy, Interval::make(0, L.BlockDimY - 1, true)) ||
      !Term(A.CBidx, Interval::make(0, L.GridDimX - 1, true)) ||
      !Term(A.CBidy, Interval::make(0, L.GridDimY - 1, true)))
    return Interval::top();
  for (const auto &[Name, C] : A.LoopCoeffs)
    if (!Term(C, Env.lookup(Name)))
      return Interval::top();
  return Interval::make(Lo, Hi, Exact);
}
