//===-- sim/Occupancy.cpp - SM occupancy calculation ----------------------===//

#include "sim/Occupancy.h"

#include "ast/Walk.h"

#include <algorithm>
#include <string_view>
#include <unordered_map>
#include <vector>

using namespace gpuc;

namespace {

int regsOfStmt(const Stmt *S);

/// Register demand of a block, modeled as the maximum number of
/// simultaneously live locals: a declaration's live range runs from its
/// statement to the last statement in the block that mentions it (long-
/// lived accumulators therefore count everywhere they are reused, while
/// straight-line temporaries overlap only briefly, like after register
/// allocation). Nested regions add their own demand at their position;
/// if/else arms take the max. One walk over the block records each local's
/// last mention and a difference array sums the live widths, so the cost
/// is linear in the block: thread-merged bodies run to 600 statements and
/// 100 locals, and the search asks for the estimate several times per
/// candidate.
int regsOfCompound(const CompoundStmt *C) {
  const auto &Body = C->body();
  const size_t N = Body.size();
  if (N == 0)
    return 0;
  // Index of the last statement that mentions each local declared here.
  std::unordered_map<std::string_view, size_t> LastUse;
  for (const Stmt *S : Body)
    if (const auto *D = dyn_cast<DeclStmt>(S); D && !D->isShared())
      LastUse.emplace(D->name(), 0);
  for (size_t J = 0; J < N; ++J)
    forEachExpr(Body[J], [&](Expr *E) {
      if (const auto *V = dyn_cast<VarRef>(E))
        if (auto It = LastUse.find(V->name()); It != LastUse.end())
          It->second = J;
    });
  // Live width change at each position.
  std::vector<int> Delta(N + 1, 0);
  for (size_t I = 0; I < N; ++I) {
    const auto *D = dyn_cast<DeclStmt>(Body[I]);
    if (!D || D->isShared())
      continue;
    const size_t Last = std::max(I, LastUse[D->name()]);
    Type Ty = D->declType();
    const int Width = Ty.isFloatVector() ? Ty.vectorWidth() : 1;
    Delta[I] += Width;
    Delta[Last + 1] -= Width;
  }
  int MaxDemand = 0;
  int Live = 0;
  for (size_t P = 0; P < N; ++P) {
    Live += Delta[P];
    MaxDemand = std::max(MaxDemand, Live + regsOfStmt(Body[P]));
  }
  return MaxDemand;
}

/// Demand contributed by a nested statement at its position.
int regsOfStmt(const Stmt *S) {
  switch (S->kind()) {
  case StmtKind::Compound:
    return regsOfCompound(cast<CompoundStmt>(S));
  case StmtKind::If: {
    const auto *If = cast<IfStmt>(S);
    int ThenRegs = regsOfCompound(If->thenBody());
    int ElseRegs = If->elseBody() ? regsOfCompound(If->elseBody()) : 0;
    return std::max(ThenRegs, ElseRegs);
  }
  case StmtKind::For:
    return 1 + regsOfCompound(cast<ForStmt>(S)->body());
  case StmtKind::While:
    return regsOfCompound(cast<WhileStmt>(S)->body());
  case StmtKind::Decl:
  case StmtKind::Assign:
  case StmtKind::Sync:
    return 0;
  }
  return 0;
}

} // namespace

int gpuc::estimateRegistersPerThread(const KernelFunction &K) {
  // Maximum simultaneously-live locals plus a fixed allowance for address
  // computation and the idx/idy preamble, mirroring nvcc's allocation.
  const int AddressingAllowance = 6;
  return regsOfCompound(K.body()) + AddressingAllowance;
}

Occupancy gpuc::computeOccupancy(const DeviceSpec &Device,
                                 const KernelFunction &K) {
  Occupancy O;
  O.RegsPerThread = estimateRegistersPerThread(K);
  O.SharedBytesPerBlock = K.sharedBytes();
  long long ThreadsPerBlock = K.launch().threadsPerBlock();

  if (ThreadsPerBlock > Device.MaxThreadsPerBlock ||
      O.SharedBytesPerBlock > Device.SharedBytesPerSM ||
      O.RegsPerThread * ThreadsPerBlock > Device.regFileRegsPerSM()) {
    O.Infeasible = true;
    O.BlocksPerSM = 0;
    O.ActiveThreadsPerSM = 0;
    O.LimitedBy = "infeasible";
    return O;
  }

  int ByBlocks = Device.MaxBlocksPerSM;
  int ByThreads =
      static_cast<int>(Device.MaxThreadsPerSM / std::max<long long>(1,
          ThreadsPerBlock));
  int ByShared =
      O.SharedBytesPerBlock == 0
          ? Device.MaxBlocksPerSM
          : static_cast<int>(Device.SharedBytesPerSM / O.SharedBytesPerBlock);
  long long RegsPerBlock = O.RegsPerThread * ThreadsPerBlock;
  int ByRegs = RegsPerBlock == 0
                   ? Device.MaxBlocksPerSM
                   : static_cast<int>(Device.regFileRegsPerSM() / RegsPerBlock);

  O.BlocksPerSM = std::min(std::min(ByBlocks, ByThreads),
                           std::min(ByShared, ByRegs));
  if (O.BlocksPerSM == ByBlocks)
    O.LimitedBy = "blocks";
  if (O.BlocksPerSM == ByThreads)
    O.LimitedBy = "threads";
  if (O.BlocksPerSM == ByShared)
    O.LimitedBy = "shared";
  if (O.BlocksPerSM == ByRegs)
    O.LimitedBy = "registers";

  // Never more resident blocks than the grid provides per SM.
  long long GridBlocks = K.launch().numBlocks();
  long long PerSM = (GridBlocks + Device.NumSMs - 1) / Device.NumSMs;
  if (PerSM < O.BlocksPerSM) {
    O.BlocksPerSM = static_cast<int>(std::max<long long>(1, PerSM));
    O.LimitedBy = "grid";
  }

  O.ActiveThreadsPerSM = static_cast<int>(O.BlocksPerSM * ThreadsPerBlock);
  return O;
}
