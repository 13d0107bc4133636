//===-- ast/Kernel.h - Kernel functions and launch configs ------*- C++ -*-===//
//
// Part of the gpuc project: a reproduction of "A GPGPU Compiler for Memory
// Optimization and Parallelism Management" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A kernel function is the unit both the compiler and the simulator work
/// on: parameters (global arrays with compile-time dimensions plus scalars),
/// a body, and the launch configuration the compiler derives (the paper's
/// compiler emits "the optimized kernel and the kernel invocation
/// parameters").
///
//===----------------------------------------------------------------------===//

#ifndef GPUC_AST_KERNEL_H
#define GPUC_AST_KERNEL_H

#include "ast/ASTContext.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace gpuc {

/// A kernel parameter: either a global-memory array with compile-time
/// dimensions (row-major) or a scalar.
struct ParamDecl {
  std::string Name;
  Type ElemTy;
  bool IsArray = false;
  /// Row-major dimensions; innermost (contiguous) dimension last.
  std::vector<long long> Dims;
  /// True if the kernel writes this array (from #pragma gpuc output or
  /// inferred from stores).
  bool IsOutput = false;

  long long elemCount() const {
    long long N = 1;
    for (long long D : Dims)
      N *= D;
    return N;
  }
  long long sizeInBytes() const { return elemCount() * ElemTy.sizeInBytes(); }
};

/// An affine permutation of the block-id space, applied before any block
/// id is consumed (interpreter and emitted code alike):
///
///   ebidx = (A00*bidx + A01*bidy + C0) mod GridDimX
///   ebidy = (A10*bidx + A11*bidy + C1) mod GridDimY
///
/// The identity is A = I, C = 0. Section 3.7's diagonal block reordering
/// (newbidx = (bidx+bidy) mod gridDim.x, newbidy = bidx) is the point
/// A = [[1,1],[1,0]], C = 0 — the composition of a row/column swap with a
/// diagonal skew. Legality (bijectivity over the grid) is checked by
/// core/AffineLayout's remapLegal; an illegal remap must never be
/// installed on a kernel.
struct BlockRemap {
  int A00 = 1, A01 = 0;
  int A10 = 0, A11 = 1;
  long long C0 = 0, C1 = 0;

  bool identity() const {
    return A00 == 1 && A01 == 0 && A10 == 0 && A11 == 1 && C0 == 0 &&
           C1 == 0;
  }
  /// The paper's diagonal block reordering point.
  bool isDiagonal() const {
    return A00 == 1 && A01 == 1 && A10 == 1 && A11 == 0 && C0 == 0 &&
           C1 == 0;
  }
  static BlockRemap diagonal() { return {1, 1, 1, 0, 0, 0}; }

  /// Applies the remap to one raw block id pair.
  void apply(long long Bx, long long By, long long GX, long long GY,
             long long &EX, long long &EY) const {
    auto Mod = [](long long V, long long M) {
      return M <= 1 ? 0 : ((V % M) + M) % M;
    };
    EX = Mod(A00 * Bx + A01 * By + C0, GX);
    EY = Mod(A10 * Bx + A11 * By + C1, GY);
  }

  bool operator==(const BlockRemap &O) const {
    return A00 == O.A00 && A01 == O.A01 && A10 == O.A10 && A11 == O.A11 &&
           C0 == O.C0 && C1 == O.C1;
  }
  bool operator!=(const BlockRemap &O) const { return !(*this == O); }
};

/// Thread grid and block dimensions plus the affine block-id permutation
/// (identity by default; Section 3.7's diagonal block reordering and its
/// generalizations — see core/AffineLayout).
struct LaunchConfig {
  int BlockDimX = 1;
  int BlockDimY = 1;
  long long GridDimX = 1;
  long long GridDimY = 1;
  BlockRemap Remap;

  long long threadsPerBlock() const {
    return static_cast<long long>(BlockDimX) * BlockDimY;
  }
  long long numBlocks() const { return GridDimX * GridDimY; }
  long long totalThreads() const { return threadsPerBlock() * numBlocks(); }

  /// The (bidx, bidy) the kernel body sees in launched block \p BlockId
  /// (row-major over the grid), after the remap.
  void logicalBlock(long long BlockId, long long &BidX,
                    long long &BidY) const {
    BidX = BlockId % GridDimX;
    BidY = BlockId / GridDimX;
    if (!Remap.identity())
      Remap.apply(BlockId % GridDimX, BlockId / GridDimX, GridDimX, GridDimY,
                  BidX, BidY);
  }
};

/// A kernel function. Owned by a Module; nodes live in the Module's
/// ASTContext.
class KernelFunction {
public:
  KernelFunction(std::string Name, CompoundStmt *Body)
      : Name(std::move(Name)), Body(Body) {}

  const std::string &name() const { return Name; }
  void setName(std::string N) { Name = std::move(N); }

  CompoundStmt *body() const { return Body; }
  void setBody(CompoundStmt *B) { Body = B; }

  std::vector<ParamDecl> &params() { return Params; }
  const std::vector<ParamDecl> &params() const { return Params; }
  /// \returns the parameter named \p Name, or null.
  const ParamDecl *findParam(const std::string &Name) const;
  ParamDecl *findParam(const std::string &Name);

  LaunchConfig &launch() { return Launch; }
  const LaunchConfig &launch() const { return Launch; }

  /// Compile-time value of a scalar parameter (from #pragma gpuc bind);
  /// the design-space search recompiles per input size, mirroring the
  /// paper's per-input-size versioning.
  const std::map<std::string, long long> &scalarBindings() const {
    return Bindings;
  }
  void bindScalar(const std::string &Name, long long V) {
    Bindings[Name] = V;
  }
  /// \returns the binding for \p Name or \p Default.
  long long scalarBindingOr(const std::string &Name, long long Default) const;

  /// Name of the declared output array (first output param).
  std::string outputName() const;

  /// The work domain: one naive work item per output element. X is the
  /// contiguous dimension.
  long long workDomainX() const { return DomainX; }
  long long workDomainY() const { return DomainY; }
  void setWorkDomain(long long X, long long Y) {
    DomainX = X;
    DomainY = Y;
  }

  /// Collects every shared-array declaration in the body (in order).
  std::vector<const DeclStmt *> sharedDecls() const;

  /// Total shared-memory bytes used by this kernel.
  long long sharedBytes() const;

private:
  std::string Name;
  std::vector<ParamDecl> Params;
  CompoundStmt *Body;
  LaunchConfig Launch;
  std::map<std::string, long long> Bindings;
  long long DomainX = 1;
  long long DomainY = 1;
};

/// A parsed or constructed compilation unit: the node arena plus kernels.
class Module {
public:
  ASTContext &context() { return Ctx; }

  KernelFunction *createKernel(std::string Name, CompoundStmt *Body) {
    Kernels.push_back(std::make_unique<KernelFunction>(std::move(Name), Body));
    return Kernels.back().get();
  }

  const std::vector<std::unique_ptr<KernelFunction>> &kernels() const {
    return Kernels;
  }

  /// Pipeline stage order for multi-kernel translation units, from the
  /// `#pragma gpuc pipeline(a -> b -> ...)` clause: each stage's declared
  /// output arrays feed same-named array parameters of later stages.
  /// Empty for single-kernel units.
  const std::vector<std::string> &pipeline() const { return PipelineStages; }
  void setPipeline(std::vector<std::string> Stages) {
    PipelineStages = std::move(Stages);
  }

private:
  ASTContext Ctx;
  std::vector<std::unique_ptr<KernelFunction>> Kernels;
  std::vector<std::string> PipelineStages;
};

} // namespace gpuc

#endif // GPUC_AST_KERNEL_H
