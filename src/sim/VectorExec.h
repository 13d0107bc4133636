//===-- sim/VectorExec.h - Lane-vectorized bytecode executor ----*- C++ -*-===//
//
// Part of the gpuc project: a reproduction of "A GPGPU Compiler for Memory
// Optimization and Parallelism Management" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a BcProgram over SoA lane planes: every op runs once for the
/// whole thread group (a tight loop the host compiler vectorizes) instead
/// of once per simulated thread per AST node. Divergence is an execution
/// mask; reconvergence is structural (the mask a statement received is
/// restored when it completes — DESIGN.md section 14).
///
/// The executor is bit-compatible with the scalar Interpreter: outputs,
/// SimStats, memory-model folds and the race log match record for record
/// on every non-failing run (on failing runs both engines report a runtime
/// error and the simulation result is discarded either way).
///
//===----------------------------------------------------------------------===//

#ifndef GPUC_SIM_VECTOREXEC_H
#define GPUC_SIM_VECTOREXEC_H

#include "sim/Bytecode.h"
#include "sim/Interpreter.h"

namespace gpuc {

class VectorExec {
public:
  /// \p In must be prepared, with In.Opt set and the group set up
  /// (runBlocks/runGrid do this before constructing the executor).
  VectorExec(Interpreter &In, const BcProgram &P);

  /// Refreshes the per-thread builtin planes from the interpreter's bound
  /// block ids (call after Interpreter::bindBlock).
  void bindBlockPlanes();

  /// Executes the kernel body once over the current group (one block in
  /// block mode, the whole grid in grid mode).
  void run();

private:
  Interpreter &In;
  const BcProgram &P;
  const InterpOptions &Opt;
  long long N; ///< group threads = lanes per plane

  bool Collect;
  SimStats *St;
  MemoryModel *MM;
  bool Races;

  // SoA planes. Slot float planes hold P.KW lanes per slot.
  std::vector<float> FT, SlotF, FCP, ZeroF;
  std::vector<int> IT, SlotI, ICP, ZeroI, BP;
  std::vector<long long> LT, RegionP;

  // Divergence mask pool (stack discipline along the statement tree).
  std::vector<std::vector<uint8_t>> MaskPool;
  size_t MaskTop = 0;

  /// The race sanitizer must see a range's shared accesses in the scalar
  /// engine's thread-major order. A range with one shared op (BcRange::
  /// SharedOps) checks each access inside that op's ascending thread loop.
  /// A range with more buffers them here, one run per op, each run in
  /// ascending thread order; flushReads merges the runs by thread id, equal
  /// ids in run (instruction) order — the scalar engine's per-thread tree
  /// order. Writes carry the pre-store word contents (Old) because the
  /// benign redundant-write exemption compares against the value the word
  /// held when the scalar engine would have checked — before this thread's
  /// own store, which has already committed by flush time.
  struct PendingAcc {
    long long T;
    const ArrayRef *Site;
    long long Abs, Rel;
    int Lanes;
    bool IsWrite;
    float New[4], Old[4];
  };
  std::vector<PendingAcc> Pending;
  /// Where each op's run begins in Pending, and the merge cursors.
  std::vector<size_t> RunBegin, RunHead;
  /// The current range buffers its accesses (race-logged, SharedOps > 1).
  bool BufferRaces = false;

  const float *fsrc(int32_t Ref) const;
  float *fdst(int32_t Ref);
  const int *isrc(int32_t Ref) const;
  int *idst(int32_t Ref);
  long long *ltmp(int32_t Ref);

  void step(const BcInstr &I, const uint8_t *M);
  void execLoad(const BcAccess &AC, const uint8_t *M);
  void execStore(const BcAccess &AC, const uint8_t *M);
  void runRange(const BcRange &R, const uint8_t *M, long long Cnt);
  void flushReads();

  uint8_t *acquireMask();
  void releaseMasks(size_t Count) { MaskTop -= Count; }

  void exec(int32_t SI, const uint8_t *M, long long Cnt);
  void execAssign(const BcStmt &S, const uint8_t *M, long long Cnt);
  void execFor(const BcStmt &S, const uint8_t *M, long long Cnt);
  void execWhile(const BcStmt &S, const uint8_t *M, long long Cnt);
  bool tripCount(const BcStmt &S, const uint8_t *M, long long &Trip);
  void commitValue(int Slot, const BcValue &V, const uint8_t *M);
  void commitMember(int Slot, int Field, const BcValue &V, const uint8_t *M);

  /// True while inside an MMWrap statement window. The scalar engine only
  /// folds accesses recorded between beginStatement and endStatement —
  /// loop-header evaluations (for/while init, bound, step) run outside any
  /// window and their accesses are discarded by the next beginStatement —
  /// so the executor must not feed the memory model outside a window
  /// either.
  bool MMOpen = false;

  void mmBegin(const BcStmt &S) {
    if (S.MMWrap && Collect && MM) {
      MM->beginStatement();
      MMOpen = true;
    }
  }
  void mmEnd(const BcStmt &S) {
    if (S.MMWrap && Collect && MM) {
      MM->endStatement(*St);
      MMOpen = false;
    }
  }
};

} // namespace gpuc

#endif // GPUC_SIM_VECTOREXEC_H
