//===-- sim/Memory.h - Global-memory buffers --------------------*- C++ -*-===//
//
// Part of the gpuc project: a reproduction of "A GPGPU Compiler for Memory
// Optimization and Parallelism Management" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Host-side binding of kernel parameters to simulated global-memory
/// buffers. Buffers receive device addresses aligned the way cudaMalloc
/// aligns them, so the coalescing and partition rules see realistic
/// addresses.
///
//===----------------------------------------------------------------------===//

#ifndef GPUC_SIM_MEMORY_H
#define GPUC_SIM_MEMORY_H

#include <cassert>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace gpuc {

/// Named float buffers plus scalar arguments for one kernel launch.
/// All array parameters are float-family; vector types view the same
/// storage.
class BufferSet {
public:
  /// Allocates (or reuses) a buffer of \p FloatCount floats.
  std::vector<float> &alloc(const std::string &Name, size_t FloatCount) {
    std::vector<float> &B = Buffers[Name];
    B.assign(FloatCount, 0.0f);
    return B;
  }

  bool has(const std::string &Name) const { return Buffers.count(Name) > 0; }

  std::vector<float> &data(const std::string &Name) {
    auto It = Buffers.find(Name);
    assert(It != Buffers.end() && "unbound buffer");
    return It->second;
  }
  const std::vector<float> &data(const std::string &Name) const {
    auto It = Buffers.find(Name);
    assert(It != Buffers.end() && "unbound buffer");
    return It->second;
  }

  void setScalar(const std::string &Name, long long V) { Scalars[Name] = V; }
  bool hasScalar(const std::string &Name) const {
    return Scalars.count(Name) > 0;
  }
  long long scalar(const std::string &Name) const {
    auto It = Scalars.find(Name);
    assert(It != Scalars.end() && "unbound scalar");
    return It->second;
  }

private:
  std::map<std::string, std::vector<float>> Buffers;
  std::map<std::string, long long> Scalars;
};

} // namespace gpuc

#endif // GPUC_SIM_MEMORY_H
