//===-- exec/Parallel.cpp - Blocking parallel loop ------------------------===//

#include "exec/Parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <system_error>
#include <thread>
#include <vector>

using namespace gpuc;

namespace {
/// Set while this thread runs a Body; a parallelFor it calls then runs
/// inline instead of starting helpers of its own.
thread_local bool InBody = false;
} // namespace

unsigned gpuc::defaultConcurrency() {
  return std::max(1u, std::thread::hardware_concurrency());
}

void gpuc::parallelFor(unsigned Lanes, size_t N,
                       const std::function<void(size_t)> &Body) {
  if (N == 0)
    return;

  std::vector<std::exception_ptr> Errors(N);
  std::atomic<size_t> Next{0};
  auto Drain = [&] {
    const bool Outer = InBody;
    InBody = true;
    for (size_t I = Next.fetch_add(1); I < N; I = Next.fetch_add(1)) {
      try {
        Body(I);
      } catch (...) {
        Errors[I] = std::current_exception();
      }
    }
    InBody = Outer;
  };

  const size_t Helpers =
      InBody || Lanes <= 1 ? 0 : std::min<size_t>(Lanes, N) - 1;
  std::vector<std::thread> Threads;
  Threads.reserve(Helpers);
  for (size_t T = 0; T < Helpers; ++T) {
    try {
      Threads.emplace_back(Drain);
    } catch (const std::system_error &) {
      break; // fewer helpers: the caller still claims every index left
    }
  }
  Drain();
  for (std::thread &T : Threads)
    T.join();

  for (std::exception_ptr &E : Errors)
    if (E)
      std::rethrow_exception(E);
}
