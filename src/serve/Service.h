//===-- serve/Service.h - One compile request, start to finish --*- C++ -*-===//
//
// Part of the gpuc project: a reproduction of "A GPGPU Compiler for Memory
// Optimization and Parallelism Management" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes one CompileJob — parse, warm fast path, sanitize/lint hooks,
/// single-kernel or pipeline search, report/search-stats rendering — into
/// strings instead of stdio. It is the only copy of the compile flow:
///
///   - gpucc runs it for every in-process compile (a single file, each
///     --batch lane, and the --connect fallback), and
///   - the gpucd daemon's worker pool runs it per request, one isolated
///     Module / DiagnosticsEngine over the shared two-tier cache.
///
/// That shared implementation is what makes the soak battery's central
/// assertion possible: a daemon response is byte-identical to a serial
/// in-process compile of the same job, by construction.
///
//===----------------------------------------------------------------------===//

#ifndef GPUC_SERVE_SERVICE_H
#define GPUC_SERVE_SERVICE_H

#include "core/Compiler.h"
#include "serve/Protocol.h"

#include <atomic>
#include <vector>

namespace gpuc {

class DiskCache;
class SimCache;

namespace serve {

/// Shared state a request executes against. The caches are the warm
/// tiers every request shares (SimCache is thread-safe; DiskCache is
/// opened once per daemon); Cancel is the per-request timeout hook.
struct ServiceContext {
  SimCache *Mem = nullptr;
  DiskCache *Disk = nullptr;
  /// Cooperative cancellation for this request (null = never cancelled).
  const std::atomic<bool> *Cancel = nullptr;
  /// Search lanes for this request (daemon policy: requests parallelize
  /// across each other, so workers run each search serially by default).
  int Jobs = 1;
};

/// Maps a wire device name onto its DeviceSpec. \returns false for
/// unknown names (the daemon answers Unsupported; the client falls back).
bool deviceFromName(const std::string &Name, DeviceSpec &Out);

/// Translates the job's option subset into CompileOptions (cache wiring
/// and lane count come from \p Ctx). \returns false on an unknown device.
bool optionsFromJob(const CompileJob &J, const ServiceContext &Ctx,
                    CompileOptions &Out);

/// What runCompileJob hands an in-process caller for local post-steps
/// (gpucc's --validate and --time-report): the parsed naive stages, the
/// emitted kernel(s), and the search output that owns them.
struct CompileKeep {
  /// Owns the parsed stages and the kernels compiled in the caller's
  /// arena.
  Module M;
  /// The naive kernels in pipeline order (one for a plain kernel).
  std::vector<KernelFunction *> Stages;
  /// The emitted kernels in launch order: the single winner, the fused
  /// pipeline kernel, or each unfused stage's winner (valid when the
  /// result's Code is 0).
  std::vector<const KernelFunction *> Kernels;
  /// The single-kernel search (or fixed-factor compile); default for
  /// pipelines.
  CompileOutput Out;
  /// The pipeline compile; default for single kernels.
  ProgramCompileOutput Program;
};

/// Runs \p J start to finish. Never throws; failures surface as the exit
/// code + stderr text gpucc would have produced. A cancelled run returns
/// code 1 with "search cancelled" in Err (the server maps it to a
/// Timeout error response). A non-null \p Keep receives the compiled
/// kernels; the warm fast path is then skipped, because replayed text
/// carries no kernel.
CompileResult runCompileJob(const CompileJob &J, const ServiceContext &Ctx,
                            CompileKeep *Keep = nullptr);

} // namespace serve
} // namespace gpuc

#endif // GPUC_SERVE_SERVICE_H
