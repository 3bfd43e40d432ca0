// Host-time attribution from outside the simulator: a SIGPROF (ITIMER_PROF)
// program-counter sampler plus a symbolizer that reads this binary's own ELF
// symbol table and charges every sample to the `repro::<module>::` namespace
// of the function it landed in.
//
// Nothing here touches the simulator's code: samples are taken by the
// kernel's profiling timer, and attribution is by symbol name. Inlined code
// is charged to the function it was inlined into; `SmallFn` and
// `std::function` thunks are charged to the module of the lambda they wrap
// when the symbol names it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Process-wide PC sampler. Only one may be active at a time.
class PcSampler {
 public:
  PcSampler() = default;
  ~PcSampler();
  PcSampler(const PcSampler&) = delete;
  PcSampler& operator=(const PcSampler&) = delete;

  void start();
  void stop();
  /// Program counters captured so far (valid after stop()).
  std::vector<std::uintptr_t> samples() const;

 private:
  bool running_ = false;
};

/// Modules a sample can be charged to, in report order: the `src/`
/// directories the simulator is built from, then `bench` (this benchmark) and
/// `other` (libc, libstdc++ and `std::` code outside any lambda).
const std::vector<std::string>& share_modules();

struct Attribution {
  /// Samples per module; every module of `share_modules()` is present.
  std::map<std::string, std::uint64_t> by_module;
  /// The most-sampled functions, (demangled name, samples), descending.
  std::vector<std::pair<std::string, std::uint64_t>> top;
};

/// Buckets `pcs` by module and lists the `top_n` hottest functions.
Attribution attribute_samples(const std::vector<std::uintptr_t>& pcs,
                              std::size_t top_n);

}  // namespace perfbench
