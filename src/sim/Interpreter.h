//===-- sim/Interpreter.h - SPMD kernel interpreter -------------*- C++ -*-===//
//
// Part of the gpuc project: a reproduction of "A GPGPU Compiler for Memory
// Optimization and Parallelism Management" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes kernels in SPMD-vector style: each statement runs for every
/// active thread of the interpreted group before the next statement starts,
/// which makes __syncthreads()/__globalSync() natural and lets the memory
/// model see whole half-warps per access site.
///
/// Two grouping modes:
///  * block mode — one thread block at a time (memory-frugal; used for
///    functional runs of sync-free kernels and for sampled performance
///    runs);
///  * grid mode — the entire grid as one group (required for functional
///    correctness of kernels that use __globalSync()).
///
/// Two execution engines (DESIGN.md section 14):
///  * vector (default) — the kernel body is lowered once to flat bytecode
///    (Bytecode.h) and stepped over SoA lane planes (VectorExec.h), one
///    host loop per op instead of one AST walk per thread;
///  * scalar — the original per-thread recursive walk, kept as the
///    differential oracle and as the fallback for kernels that do not
///    lower to bytecode.
/// Both engines produce bit-identical outputs, SimStats, memory-model
/// folds and race logs on every non-failing run.
///
/// In performance mode, uniform loops longer than a threshold execute only
/// their first few iterations and the statistics delta is extrapolated
/// (addresses in the paper's kernels are data-independent, so the access
/// pattern of the remaining iterations is exactly periodic — the same
/// observation Section 3.2 makes about checking only 16 iterations). A
/// race-logged run never samples: only functional runs log races, and they
/// run every iteration.
///
//===----------------------------------------------------------------------===//

#ifndef GPUC_SIM_INTERPRETER_H
#define GPUC_SIM_INTERPRETER_H

#include "ast/Kernel.h"
#include "sim/DeviceSpec.h"
#include "sim/Memory.h"
#include "sim/MemoryModel.h"
#include "sim/Stats.h"
#include "support/Diagnostics.h"

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace gpuc {

struct BcProgram;

/// One conflict observed by the dynamic race sanitizer.
struct RaceRecord {
  std::string Array;
  /// True: write-write; false: write-read (in either order).
  bool WriteWrite = false;
  /// Barrier phase the conflict occurred in (barriers executed so far).
  int Phase = 0;
  /// Float-word offset within the shared array.
  long long Word = 0;
  /// In-block flat thread ids of the two conflicting threads.
  long long T1 = 0, T2 = 0;
  long long Block = 0;
};

/// Dynamic cross-check of the static race detector: per-word shared-memory
/// access logs, cleared at every barrier; same-phase conflicting accesses
/// from distinct threads of a block are recorded here.
struct RaceLog {
  std::vector<RaceRecord> Races;
  /// Total barrier phases executed (per block).
  int Phases = 1;
  bool clean() const { return Races.empty(); }
};

/// Which execution engine interprets the kernel body.
enum class InterpBackend : uint8_t {
  Scalar, ///< per-thread recursive AST walk (differential oracle)
  Vector, ///< lane-vectorized bytecode over SoA planes (default)
};

/// Options controlling one interpretation run.
struct InterpOptions {
  /// Collect SimStats / feed the memory model.
  bool CollectStats = false;
  SimStats *Stats = nullptr;
  MemoryModel *MM = nullptr;
  /// When > 0, uniform loops with more iterations than this are sampled.
  /// Must be 0 when Races is set.
  int LoopSampleThreshold = 0;
  /// Number of iterations actually executed for a sampled loop.
  int LoopSampleCount = 4;
  /// When set, shared-memory accesses are race-checked phase by phase.
  RaceLog *Races = nullptr;
  /// Execution engine. Results are bit-identical either way, so this is
  /// excluded from compile/sim cache keys.
  InterpBackend Backend = InterpBackend::Vector;
};

/// Where Interpreter::prepare binds an array parameter the caller's
/// BufferSet does not hold. Arrays the caller did bind are used in place
/// either way.
enum class UnboundArrays : uint8_t {
  /// Allocated zero-filled in the BufferSet, where the caller reads the
  /// outputs (functional runs).
  InBufferSet,
  /// Anonymous zero pages the interpreter owns and unmaps when destroyed:
  /// only the pages a run touches are ever faulted in, and untouched ones
  /// read as zero (sampled performance runs, whose buffer contents nobody
  /// reads).
  LazyZeroPages,
};

/// Interprets one kernel against one buffer set.
class Interpreter {
public:
  Interpreter(const DeviceSpec &Device, const KernelFunction &K,
              BufferSet &Buffers, DiagnosticsEngine &Diags);
  /// Unmaps the lazy zero pages.
  ~Interpreter();
  Interpreter(const Interpreter &) = delete;
  Interpreter &operator=(const Interpreter &) = delete;

  /// Resolves names, assigns device addresses and shared offsets, and
  /// binds every array parameter (\p Unbound says where unbound ones go).
  /// \returns false on binding errors (missing buffers, size mismatches).
  bool prepare(UnboundArrays Unbound = UnboundArrays::InBufferSet);

  /// Runs blocks [Begin, End) one at a time.
  void runBlocks(long long Begin, long long End, const InterpOptions &Opt);

  /// Runs the whole grid as a single SPMD group (__globalSync capable).
  void runGrid(const InterpOptions &Opt);

  bool ok() const { return !Failed; }

  /// True when the kernel contains __globalSync, so a functional run needs
  /// runGrid. Known after prepare().
  bool hasGlobalSync() const { return HasGlobalSync; }

  /// True once a run requested the vector engine but executed on the
  /// scalar walk because the kernel did not lower to bytecode. Purely
  /// observational: the outputs are bit-identical either way, so this
  /// feeds SearchStats::ScalarFallbacks, never SimStats or the caches.
  bool usedScalarFallback() const { return ScalarFallback; }

private:
  friend class BcBuilder;  // Bytecode.cpp: AST -> op stream lowering
  friend class VectorExec; // VectorExec.cpp: plane executor

  struct Value {
    float F0 = 0, F1 = 0, F2 = 0, F3 = 0;
    int I = 0;
  };

  struct GlobalArray {
    float *Data = nullptr;
    size_t Size = 0; // floats at Data
    long long BaseAddr = 0;
    std::vector<long long> Strides; // element-unit strides per dimension
    long long ElemCount = 0;
    int ElemLanes = 1; // floats per element
  };

  struct SharedArray {
    long long ByteOffset = 0;
    std::vector<long long> Strides;
    long long ElemCount = 0;
    int ElemLanes = 1;
  };

  // Resolution.
  bool bindGlobal(const ParamDecl &P, UnboundArrays Unbound, GlobalArray &G);
  int slotFor(const std::string &Name);

  // Execution over the current group.
  void setupGroup(long long NumThreads, bool ScalarFrame);
  void bindBlock(long long BlockId, long long ThreadBase);
  /// True when this run can use the plane executor: vector backend
  /// requested and the kernel lowered to bytecode. Compiles the bytecode
  /// on first use.
  bool vectorEligible(const InterpOptions &O);
  void execStmt(Stmt *S, const std::vector<uint8_t> &Mask);
  void execAssign(AssignStmt *A, const std::vector<uint8_t> &Mask);
  void execFor(ForStmt *F, const std::vector<uint8_t> &Mask);
  void execForRounds(ForStmt *F, const std::vector<uint8_t> &Mask,
                     std::vector<uint8_t> &LoopMask);
  void execWhile(WhileStmt *W, const std::vector<uint8_t> &Mask);
  void execWhileRounds(WhileStmt *W, const std::vector<uint8_t> &Mask,
                       std::vector<uint8_t> &LoopMask);
  bool uniformLoopTrip(ForStmt *F, const std::vector<uint8_t> &Mask,
                       long long &Trip);

  Value evalExpr(const Expr *E, long long T);
  float evalFloat(const Expr *E, long long T);
  int evalInt(const Expr *E, long long T);
  Value loadArray(const ArrayRef *A, long long T, bool CountStats);
  void storeArray(const ArrayRef *A, long long T, const Value &V);

  // Dynamic race sanitizer.
  void raceCheckSetup();
  void raceCheckBarrier();
  /// \p T is the group thread id: the in-block id in block mode (the
  /// group is one block), the grid-flat id in grid mode. Both engines call
  /// this for every shared access in thread-major order within a range.
  /// \p NewVals: the per-lane values about to be stored (null for loads);
  /// a second write that deposits the value a word already holds this
  /// phase is the benign redundant halo-load idiom, not a race. \p
  /// OldVals, when non-null, supplies the pre-store word contents for that
  /// comparison instead of SharedData (the vector executor commits data
  /// before replaying buffered checks; its inline checks pass null).
  void raceCheckAccess(const ArrayRef *A, long long T, long long AbsWord,
                       long long RelWord, int Lanes, bool IsWrite,
                       const float *NewVals = nullptr,
                       const float *OldVals = nullptr);
  /// Computes the flat element index; false if out of bounds.
  bool flattenIndex(const ArrayRef *A, long long T, long long &FlatOut);

  Value &slot(int Slot, long long T) {
    return Frame[static_cast<size_t>(Slot) * GroupThreads +
                 static_cast<size_t>(T)];
  }

  // Reusable divergence-mask scratch (stack discipline along the statement
  // recursion; deque keeps references stable while the pool grows).
  std::vector<uint8_t> &acquireMask();
  void releaseMasks(size_t Count) { MaskTop -= Count; }

  void reportOnce(const std::string &Message);

  const DeviceSpec &Dev;
  const KernelFunction &K;
  BufferSet &Buffers;
  DiagnosticsEngine &Diags;

  // Resolved state.
  /// UnboundArrays::LazyZeroPages mappings (address, bytes), unmapped by
  /// the destructor.
  std::vector<std::pair<void *, size_t>> ZeroMappings;
  std::unordered_map<std::string, int> SlotByName;
  int NumSlots = 0;
  std::vector<GlobalArray> Globals;
  std::vector<SharedArray> Shareds;
  std::vector<long long> ScalarArgs;
  long long SharedBytesPerBlock = 0;
  bool HasGlobalSync = false;
  bool Prepared = false;
  bool Failed = false;
  bool ReportedRuntimeError = false;
  bool ScalarFallback = false;

  // Lazily-compiled bytecode (shared by every vector run of this kernel).
  std::unique_ptr<BcProgram> BC;
  bool BCTried = false;

  // Group state.
  long long GroupThreads = 0;
  long long BlocksInGroup = 1;
  std::vector<Value> Frame;
  std::vector<float> SharedData;
  // Per-thread ids.
  std::vector<int> TidX, TidY;
  std::vector<long long> IdX, IdY, BidX, BidY;
  std::vector<uint8_t> FullMask;

  // Scratch for two-phase assignment.
  std::vector<Value> RhsScratch;
  std::deque<std::vector<uint8_t>> MaskPool;
  size_t MaskTop = 0;

  // Race-sanitizer state: first writer / first two distinct readers per
  // shared float word this phase (thread id + 1; 0 = none). Two readers
  // suffice: at least one of them differs from any later writer.
  std::vector<int> ShWr, ShRd1, ShRd2;
  int CurPhase = 0;
  long long CurBlock = 0;
  struct RaceKey {
    std::string Array;
    bool WriteWrite;
    int Phase;
    bool operator==(const RaceKey &O) const {
      return WriteWrite == O.WriteWrite && Phase == O.Phase &&
             Array == O.Array;
    }
  };
  struct RaceKeyHash {
    size_t operator()(const RaceKey &Key) const {
      size_t H = std::hash<std::string>()(Key.Array);
      return H * 1315423911u + static_cast<size_t>(Key.Phase) * 2 +
             (Key.WriteWrite ? 1 : 0);
    }
  };
  std::unordered_set<RaceKey, RaceKeyHash> RaceSeen;

  // Current run options.
  const InterpOptions *Opt = nullptr;
};

} // namespace gpuc

#endif // GPUC_SIM_INTERPRETER_H
