//===-- baselines/CpuReference.cpp - Gold implementations -----------------===//

#include "baselines/CpuReference.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

using namespace gpuc;

namespace {

/// Small deterministic generator (xorshift) for reproducible inputs.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed * 2654435761u + 1) {}
  float next() {
    State ^= State << 13;
    State ^= State >> 7;
    State ^= State << 17;
    return static_cast<float>((State >> 11) % 10000) / 10000.0f - 0.5f;
  }

private:
  uint64_t State;
};

void fill(BufferSet &B, const std::string &Name, size_t Count, uint64_t Seed,
          float Scale = 1.0f) {
  std::vector<float> &V = B.alloc(Name, Count);
  Rng R(Seed);
  for (float &X : V)
    X = R.next() * Scale;
}

} // namespace

const char *gpuc::outputBufferName(Algo A) {
  switch (A) {
  case Algo::MM:
  case Algo::MV:
  case Algo::TMV:
  case Algo::VV:
    return "c";
  case Algo::RD:
    return "a";
  case Algo::CRD:
    return "r";
  case Algo::STRSM:
    return "x";
  case Algo::CONV:
  case Algo::TP:
  case Algo::DEMOSAIC:
  case Algo::IMREGIONMAX:
    return "out";
  }
  return "";
}

void gpuc::initInputs(Algo A, long long N, BufferSet &B) {
  size_t n = static_cast<size_t>(N);
  switch (A) {
  case Algo::MM:
    fill(B, "a", n * n, 1);
    fill(B, "b", n * n, 2);
    B.alloc("c", n * n);
    break;
  case Algo::MV:
  case Algo::TMV:
    fill(B, "a", n * n, 3);
    fill(B, "b", n, 4);
    B.alloc("c", n);
    break;
  case Algo::VV:
    fill(B, "a", n, 5);
    fill(B, "b", n, 6);
    B.alloc("c", n);
    break;
  case Algo::RD:
    fill(B, "a", n, 7);
    break;
  case Algo::CRD:
    fill(B, "a", 2 * n + 16, 8);
    B.alloc("r", n);
    break;
  case Algo::STRSM:
    // Keep the recurrence contractive so the solution stays bounded.
    fill(B, "l", n * n, 9, 0.5f / static_cast<float>(N));
    fill(B, "b", n * n, 10);
    B.alloc("x", n * n);
    break;
  case Algo::CONV:
    fill(B, "img", (n + 32) * (n + 32), 11);
    fill(B, "ker", 32 * 32, 12, 1.0f / 1024.0f);
    B.alloc("out", n * n);
    break;
  case Algo::TP:
    fill(B, "in", n * n, 13);
    B.alloc("out", n * n);
    break;
  case Algo::DEMOSAIC:
    fill(B, "bay", (n + 2) * (n + 16), 14);
    B.alloc("out", n * n);
    break;
  case Algo::IMREGIONMAX:
    fill(B, "in", (n + 2) * (n + 16), 15);
    B.alloc("out", n * n);
    break;
  }
}

std::vector<float> gpuc::cpuReference(Algo A, long long N,
                                      const BufferSet &B) {
  size_t n = static_cast<size_t>(N);
  switch (A) {
  case Algo::MM: {
    const auto &a = B.data("a");
    const auto &b = B.data("b");
    std::vector<float> c(n * n, 0.0f);
    for (size_t y = 0; y < n; ++y)
      for (size_t x = 0; x < n; ++x) {
        float Sum = 0;
        for (size_t i = 0; i < n; ++i)
          Sum += a[y * n + i] * b[i * n + x];
        c[y * n + x] = Sum;
      }
    return c;
  }
  case Algo::MV: {
    const auto &a = B.data("a");
    const auto &b = B.data("b");
    std::vector<float> c(n, 0.0f);
    for (size_t y = 0; y < n; ++y) {
      float Sum = 0;
      for (size_t i = 0; i < n; ++i)
        Sum += a[y * n + i] * b[i];
      c[y] = Sum;
    }
    return c;
  }
  case Algo::TMV: {
    const auto &a = B.data("a");
    const auto &b = B.data("b");
    std::vector<float> c(n, 0.0f);
    for (size_t x = 0; x < n; ++x) {
      float Sum = 0;
      for (size_t i = 0; i < n; ++i)
        Sum += a[i * n + x] * b[i];
      c[x] = Sum;
    }
    return c;
  }
  case Algo::VV: {
    const auto &a = B.data("a");
    const auto &b = B.data("b");
    std::vector<float> c(n);
    for (size_t i = 0; i < n; ++i)
      c[i] = a[i] * b[i];
    return c;
  }
  case Algo::RD: {
    // Same pairwise tree as the kernel, so float results match closely.
    std::vector<float> a = B.data("a");
    for (size_t s = n / 2; s >= 1; s /= 2) {
      for (size_t i = 0; i < s; ++i)
        a[i] += a[i + s];
      if (s == 1)
        break;
    }
    return a;
  }
  case Algo::CRD: {
    const auto &a = B.data("a");
    std::vector<float> r(n);
    for (size_t i = 0; i < n; ++i)
      r[i] = std::fabs(a[2 * i]) + std::fabs(a[2 * i + 1]);
    for (size_t s = n / 2; s >= 1; s /= 2) {
      for (size_t i = 0; i < s; ++i)
        r[i] += r[i + s];
      if (s == 1)
        break;
    }
    return r;
  }
  case Algo::STRSM: {
    const auto &l = B.data("l");
    const auto &b = B.data("b");
    std::vector<float> x(n * n, 0.0f);
    std::vector<float> acc(b.begin(), b.end());
    for (size_t k = 0; k < n; ++k) {
      for (size_t col = 0; col < n; ++col)
        x[k * n + col] = acc[k * n + col];
      for (size_t row = k + 1; row < n; ++row)
        for (size_t col = 0; col < n; ++col)
          acc[row * n + col] -= l[row * n + k] * x[k * n + col];
    }
    return x;
  }
  case Algo::CONV: {
    const auto &img = B.data("img");
    const auto &ker = B.data("ker");
    size_t W = n + 32;
    std::vector<float> out(n * n, 0.0f);
    for (size_t y = 0; y < n; ++y)
      for (size_t x = 0; x < n; ++x) {
        float Sum = 0;
        for (size_t ky = 0; ky < 32; ++ky)
          for (size_t kx = 0; kx < 32; ++kx)
            Sum += img[(y + ky) * W + x + kx] * ker[ky * 32 + kx];
        out[y * n + x] = Sum;
      }
    return out;
  }
  case Algo::TP: {
    const auto &in = B.data("in");
    std::vector<float> out(n * n);
    for (size_t y = 0; y < n; ++y)
      for (size_t x = 0; x < n; ++x)
        out[x * n + y] = in[y * n + x];
    return out;
  }
  case Algo::DEMOSAIC: {
    const auto &bay = B.data("bay");
    size_t W = n + 16;
    std::vector<float> out(n * n);
    for (size_t y = 0; y < n; ++y)
      for (size_t x = 0; x < n; ++x) {
        float g = (bay[y * W + x + 1] + bay[(y + 2) * W + x + 1] +
                   bay[(y + 1) * W + x] + bay[(y + 1) * W + x + 2]) *
                  0.25f;
        float r = (bay[y * W + x] + bay[y * W + x + 2] +
                   bay[(y + 2) * W + x] + bay[(y + 2) * W + x + 2]) *
                  0.25f;
        float bl = bay[(y + 1) * W + x + 1];
        float lum = 0.299f * r + 0.587f * g + 0.114f * bl;
        out[y * n + x] = lum + 0.1f * (r - bl);
      }
    return out;
  }
  case Algo::IMREGIONMAX: {
    const auto &in = B.data("in");
    size_t W = n + 16;
    std::vector<float> out(n * n);
    for (size_t y = 0; y < n; ++y)
      for (size_t x = 0; x < n; ++x) {
        float c = in[(y + 1) * W + x + 1];
        float m = in[y * W + x];
        m = std::max(m, in[y * W + x + 1]);
        m = std::max(m, in[y * W + x + 2]);
        m = std::max(m, in[(y + 1) * W + x]);
        m = std::max(m, in[(y + 1) * W + x + 2]);
        m = std::max(m, in[(y + 2) * W + x]);
        m = std::max(m, in[(y + 2) * W + x + 1]);
        m = std::max(m, in[(y + 2) * W + x + 2]);
        out[y * n + x] = c > m ? 1.0f : 0.0f;
      }
    return out;
  }
  }
  return {};
}

long long gpuc::countMismatches(const std::vector<float> &Got,
                                const std::vector<float> &Want,
                                double RelTol) {
  if (Got.size() != Want.size())
    return static_cast<long long>(std::max(Got.size(), Want.size()));
  long long Bad = 0;
  for (size_t I = 0; I < Got.size(); ++I) {
    const double G = Got[I], W = Want[I];
    if (G == W || (std::isnan(G) && std::isnan(W)))
      continue;
    // Negated so that a NaN quotient (one NaN side, or an infinite
    // reference) counts, where a "> RelTol" test would pass it.
    const double Denom = std::max(1.0, std::fabs(W));
    if (!(std::fabs(G - W) / Denom <= RelTol))
      ++Bad;
  }
  return Bad;
}
