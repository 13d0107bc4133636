//===-- sim/Bytecode.h - Flat op stream for the SPMD interpreter -*- C++ -*-===//
//
// Part of the gpuc project: a reproduction of "A GPGPU Compiler for Memory
// Optimization and Parallelism Management" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One-time lowering of a resolved kernel AST into a flat register-based op
/// stream (DESIGN.md section 14). Each expression value is a BcValue: up to
/// four float lane-plane references plus one int plane reference, mirroring
/// the scalar interpreter's Value{F0..F3,I} — except that a "register" here
/// names a whole plane of GroupThreads lanes, so the vector executor
/// (VectorExec.h) runs every op once per plane instead of once per thread.
///
/// Slots, array descriptors and affine index recipes are pre-resolved at
/// compile time; the executor never touches the AST except for diagnostics
/// (array names in fault messages, site pointers for the memory model and
/// race log, which must match the scalar interpreter's pointers exactly).
///
//===----------------------------------------------------------------------===//

#ifndef GPUC_SIM_BYTECODE_H
#define GPUC_SIM_BYTECODE_H

#include <cstdint>
#include <memory>
#include <vector>

namespace gpuc {

class ArrayRef;
class Interpreter;

/// Plane reference kinds. A reference packs kind<<24 | index; index space
/// is per kind (FSlot indexes slot*KW+lane planes, ISlot indexes slots).
enum class BcPlane : uint8_t {
  FZero,    ///< all-zero float plane (shared, read-only)
  FTemp,    ///< float temporary plane
  FSlot,    ///< frame slot float lane plane (index = slot * KW + lane)
  FConst,   ///< splatted float constant plane
  IZero,    ///< all-zero int plane (shared, read-only)
  ITemp,    ///< int temporary plane
  ISlot,    ///< frame slot int plane (index = slot)
  IConst,   ///< splatted int constant plane
  IBuiltin, ///< per-thread builtin plane (idx/idy/tidx/.../griddimy)
  LTemp,    ///< 64-bit temporary plane (flattened array indices)
};

constexpr int32_t bcRef(BcPlane K, int32_t Idx = 0) {
  return (static_cast<int32_t>(K) << 24) | Idx;
}
constexpr BcPlane bcKind(int32_t Ref) {
  return static_cast<BcPlane>(static_cast<uint32_t>(Ref) >> 24);
}
constexpr int32_t bcIdx(int32_t Ref) { return Ref & 0xffffff; }

constexpr int32_t BcFZero = bcRef(BcPlane::FZero);
constexpr int32_t BcIZero = bcRef(BcPlane::IZero);

/// The plane-reference analogue of the scalar interpreter's Value: four
/// float parts plus an int part. Parts an expression does not define stay
/// zero-plane references, exactly like the scalar Value's zero fields.
struct BcValue {
  int32_t F[4] = {BcFZero, BcFZero, BcFZero, BcFZero};
  int32_t I = BcIZero;
};

enum class BcOp : uint8_t {
  // Dense float ops (run over every lane; garbage in masked-off lanes is
  // harmless and IEEE-defined).
  CopyF, ///< D = A
  NegF,  ///< D = -A
  AddF,  ///< D = A + B
  SubF,  ///< D = A - B
  MulF,  ///< D = A * B
  DivF,  ///< D = A / B
  CvtIF, ///< D = (float)A   (int -> float, dense)
  Call1, ///< D = callee(A)          (Aux = BcCallee)
  Call2, ///< D = callee(A, B)       (Aux = BcCallee)
  CmpFF, ///< D = (double)A cmp (double)B  (Aux = BcCmp; int result)
  // Dense int ops (wrap-defined via unsigned arithmetic).
  CopyI, ///< D = A
  NotI,  ///< D = !A
  NegI,  ///< D = -A
  AddI,  ///< D = A + B
  SubI,  ///< D = A - B
  MulI,  ///< D = A * B
  AndI,  ///< D = A && B
  OrI,   ///< D = A || B
  CmpII, ///< D = A cmp B            (Aux = BcCmp)
  // Masked ops (only defined for active lanes).
  CvtFI, ///< D = (int)A   (float -> int; masked, scalar-exact faults aside)
  DivI,  ///< D = A / B; B == 0 reports "integer division by zero"
  RemI,  ///< D = A % B; B == 0 reports "integer remainder by zero"
  SetL,  ///< D = (long long)A * Imm     (first index dimension)
  MadL,  ///< D = A + (long long)B * Imm (subsequent index dimensions)
  Load,  ///< array load; Aux = BcAccess index
  Store, ///< array store; Aux = BcAccess index
};

/// Comparison codes shared by CmpFF/CmpII (Aux field).
enum class BcCmp : uint8_t { LT, GT, LE, GE, EQ, NE };

/// Builtin callees for Call1/Call2 (Aux field).
enum class BcCallee : uint8_t { Sqrt, Fabs, Fmin, Fmax, Exp, Log, Sin, Cos };

struct BcInstr {
  BcOp Op;
  uint8_t Aux = 0;   ///< BcCmp / BcCallee / BcAccess index (low bits)
  int32_t D = 0;     ///< destination plane ref (always a Temp kind)
  int32_t A = 0;     ///< operand plane ref
  int32_t B = 0;     ///< operand plane ref
  int32_t Aux32 = 0; ///< wide Aux (BcAccess index)
  long long Imm = 0; ///< SetL/MadL stride
};

/// Pre-resolved array access site. Site is the ArrayRef node itself so the
/// memory-model buckets and race records key on the same pointers as the
/// scalar interpreter.
struct BcAccess {
  const ArrayRef *Site = nullptr;
  bool Shared = false;
  bool IsStore = false;
  int ArrayIdx = 0;     ///< index into Interpreter Shareds/Globals
  int AccessLanes = 1;  ///< floats moved per access (1 or vector width)
  long long Factor = 1; ///< flat-index -> float-offset multiplier
  int32_t Flat = 0;     ///< LTemp ref holding the flattened index
  int32_t Lane[4] = {0, 0, 0, 0}; ///< dst FTemps (load) / src refs (store)
};

/// Half-open instruction range plus its statically-known per-active-thread
/// statistics weight. The scalar interpreter has no expression-level
/// short-circuiting, so every thread that evaluates a range accrues exactly
/// this DynOps/Flops contribution; the executor multiplies by the active
/// count (integral values summed in double — exact, order-free).
///
/// SharedOps counts the range's shared-memory Load/Store ops. It decides
/// how a race-logged run replays them to the sanitizer in the scalar
/// engine's thread-major order: one op's thread loop already runs in that
/// order and checks inline; two or more are buffered and merged by thread.
struct BcRange {
  int32_t Begin = 0, End = 0;
  double DynOps = 0, Flops = 0;
  int SharedOps = 0;
};

/// Fat statement node. One per AST statement, preserving tree structure so
/// the executor can replicate the scalar driver's sequencing (mask splits,
/// loop rounds, sampling, memory-model statement windows) exactly.
struct BcStmt {
  enum class Kind : uint8_t { Compound, Decl, Assign, If, For, While, Sync };
  Kind K = Kind::Compound;
  bool MMWrap = false; ///< wrap Eval(+commit) in MM begin/endStatement
  std::vector<int32_t> Children; ///< Compound members (BcStmt indices)

  // Decl/Assign: Eval computes the committed value; Commit re-runs array
  // index expressions and performs the store (array targets), or is empty
  // with CommitSlot/CommitField naming a frame-slot target.
  BcRange Eval;
  BcRange Commit;
  int32_t CommitSlot = -1;  ///< frame slot target; -1 = array store / none
  int32_t CommitField = -1; ///< >= 0: member store into slot float lane
  BcValue CommitVal;

  // If/While: Eval computes the condition.
  int32_t CondRef = 0;
  bool CondIsInt = false;
  int32_t ThenChild = -1, ElseChild = -1, BodyChild = -1;

  // For: single-emission init/bound/step ranges, re-run by the driver for
  // iterator setup, per-round bound checks, step commits, uniform trip
  // counting and sampled fast-forward.
  BcRange InitR, BoundR, StepR;
  int32_t InitRef = 0, BoundRef = 0, StepRef = 0; ///< int plane refs
  int32_t IterSlot = -1;
  uint8_t Cmp = 0;     ///< ast CmpKind
  uint8_t SKind = 0;   ///< ast StepKind
  bool IsGlobal = false; ///< Sync: __globalSync vs __syncthreads
};

/// A compiled kernel body. Produced once per Interpreter by BcCompiler;
/// executed by VectorExec over SoA lane planes.
struct BcProgram {
  std::vector<BcInstr> Code;
  std::vector<BcStmt> Stmts;
  std::vector<BcAccess> Accesses;
  int32_t Root = -1;

  /// Kernel lane width: max vector width (and Member field + 1) observable
  /// anywhere in the kernel. Slot planes carry KW float lanes instead of
  /// the scalar Value's fixed four (ISSUE 7 satellite: float kernels stop
  /// paying for float4 storage).
  int KW = 1;

  int NumFTemps = 0, NumITemps = 0, NumLTemps = 0;
  std::vector<float> FConsts;
  std::vector<int> IConsts;
};

/// Lowers the (prepared) interpreter's kernel AST. \returns nullptr when
/// the kernel uses a construct the vector engine does not model, or has a
/// store whose index expressions load the array it stores (the commit
/// range re-evaluates the index for all lanes before any lane stores,
/// where the scalar walk interleaves each thread's read and store; see
/// DESIGN.md section 14). The caller silently falls back to the scalar
/// path, which also reproduces the scalar diagnostics for genuinely
/// malformed kernels.
std::unique_ptr<BcProgram> compileBytecode(const Interpreter &Interp);

} // namespace gpuc

#endif // GPUC_SIM_BYTECODE_H
