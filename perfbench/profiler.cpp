#include "profiler.h"

#include <cxxabi.h>
#include <elf.h>
#include <link.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string_view>
#include <unordered_map>

namespace perfbench {

namespace {

/// Process CPU time (all threads) between samples.
constexpr int kPeriodUs = 500;
constexpr std::size_t kMaxSamples = 1 << 20;
std::uintptr_t g_pcs[kMaxSamples];
std::atomic<std::size_t> g_count{0};

void on_sigprof(int, siginfo_t*, void* context) {
  const auto* uc = static_cast<const ucontext_t*>(context);
#if defined(__x86_64__)
  const auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  const auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
  (void)uc;
  const std::uintptr_t pc = 0;
#endif
  const std::size_t i = g_count.fetch_add(1, std::memory_order_relaxed);
  if (i < kMaxSamples) g_pcs[i] = pc;
}

void set_timer(int period_us) {
  itimerval tv{};
  tv.it_interval.tv_sec = period_us / 1000000;
  tv.it_interval.tv_usec = period_us % 1000000;
  tv.it_value = tv.it_interval;
  setitimer(ITIMER_PROF, &tv, nullptr);
}

/// Function symbols of the running executable, sorted by runtime address.
class SymbolTable {
 public:
  SymbolTable() {
    std::ifstream f("/proc/self/exe", std::ios::binary);
    image_.assign(std::istreambuf_iterator<char>(f),
                  std::istreambuf_iterator<char>());
    if (!load(SHT_SYMTAB)) load(SHT_DYNSYM);
    std::sort(syms_.begin(), syms_.end(),
              [](const Sym& a, const Sym& b) { return a.lo < b.lo; });
    dl_iterate_phdr(
        [](dl_phdr_info* info, std::size_t, void* bias) {
          *static_cast<std::uintptr_t*>(bias) = info->dlpi_addr;
          return 1;  // the first object is the main program
        },
        &bias_);
  }

  /// Mangled name of the function containing `pc`, or nullptr.
  const char* lookup(std::uintptr_t pc) const {
    if (pc < bias_) return nullptr;
    const std::uintptr_t addr = pc - bias_;
    auto it = std::upper_bound(
        syms_.begin(), syms_.end(), addr,
        [](std::uintptr_t a, const Sym& s) { return a < s.lo; });
    if (it == syms_.begin()) return nullptr;
    --it;
    return addr < it->hi ? image_.data() + it->name : nullptr;
  }

 private:
  struct Sym {
    std::uintptr_t lo = 0;
    std::uintptr_t hi = 0;
    std::size_t name = 0;  ///< offset into image_
  };

  bool load(std::uint32_t type) {
    if (image_.size() < sizeof(Elf64_Ehdr)) return false;
    Elf64_Ehdr eh;
    std::memcpy(&eh, image_.data(), sizeof eh);
    if (std::memcmp(eh.e_ident, ELFMAG, SELFMAG) != 0 ||
        eh.e_ident[EI_CLASS] != ELFCLASS64 ||
        eh.e_shentsize != sizeof(Elf64_Shdr) ||
        eh.e_shoff + std::uint64_t{eh.e_shnum} * sizeof(Elf64_Shdr) >
            image_.size()) {
      return false;
    }
    auto section = [&](std::size_t i) {
      Elf64_Shdr sh;
      std::memcpy(&sh, image_.data() + eh.e_shoff + i * sizeof sh, sizeof sh);
      return sh;
    };
    for (std::size_t i = 0; i < eh.e_shnum; ++i) {
      const Elf64_Shdr sh = section(i);
      if (sh.sh_type != type || sh.sh_link >= eh.e_shnum) continue;
      const Elf64_Shdr strtab = section(sh.sh_link);
      if (sh.sh_offset + sh.sh_size > image_.size() ||
          strtab.sh_offset + strtab.sh_size > image_.size()) {
        return false;
      }
      for (std::size_t off = 0; off + sizeof(Elf64_Sym) <= sh.sh_size;
           off += sizeof(Elf64_Sym)) {
        Elf64_Sym s;
        std::memcpy(&s, image_.data() + sh.sh_offset + off, sizeof s);
        if (ELF64_ST_TYPE(s.st_info) != STT_FUNC || s.st_value == 0 ||
            s.st_size == 0 || s.st_name >= strtab.sh_size) {
          continue;
        }
        syms_.push_back({s.st_value, s.st_value + s.st_size,
                         strtab.sh_offset + s.st_name});
      }
      return !syms_.empty();
    }
    return false;
  }

  std::vector<char> image_;
  std::vector<Sym> syms_;
  std::uintptr_t bias_ = 0;
};

bool is_module(std::string_view m) {
  const auto& mods = share_modules();
  return std::find(mods.begin(), mods.end(), m) != mods.end() &&
         m != "bench" && m != "other" && m != "common";
}

/// Module of a name that starts with "repro::<module>::", or "".
std::string_view leading_module(std::string_view name) {
  constexpr std::string_view kRoot = "repro::";
  if (name.substr(0, kRoot.size()) != kRoot) return {};
  const std::string_view rest = name.substr(kRoot.size());
  const std::size_t end = rest.find("::");
  if (end == std::string_view::npos) return {};
  const std::string_view mod = rest.substr(0, end);
  return is_module(mod) ? mod : std::string_view{};
}

/// Qualified name of the function enclosing the first lambda in `name`
/// ("a::b::f(args)::{lambda()#1}..." -> "a::b::f"), or "".
std::string_view lambda_owner(std::string_view name) {
  const std::size_t at = name.find("::{lambda");
  if (at == std::string_view::npos) return {};
  std::size_t end = at;
  if (name.substr(0, end).ends_with(" const")) end -= 6;
  if (end > 0 && name[end - 1] == ')') {  // skip the parameter list
    int depth = 0;
    while (end > 0) {
      const char c = name[--end];
      if (c == ')') ++depth;
      if (c == '(' && --depth == 0) break;
    }
  }
  std::size_t begin = end;
  int depth = 0;  // template brackets, scanned right to left
  while (begin > 0) {
    const char c = name[begin - 1];
    if (c == '>') ++depth;
    if (c == '<') {
      if (depth == 0) break;
      --depth;
    }
    if (depth == 0 && (c == ' ' || c == ',' || c == '(')) break;
    --begin;
  }
  return name.substr(begin, end - begin);
}

std::string module_of_symbol(std::string_view name) {
  // A lambda (or a SmallFn / std::function thunk around one) belongs to the
  // module of the function that wrote it.
  if (const std::string_view owner = lambda_owner(name); !owner.empty()) {
    if (const auto mod = leading_module(owner); !mod.empty()) {
      return std::string(mod);
    }
    if (owner.starts_with("perfbench::")) return "bench";
  }
  if (const auto mod = leading_module(name); !mod.empty()) {
    return std::string(mod);
  }
  if (name.starts_with("repro::SmallFn")) {
    // A thunk around a named functor: charge the functor's module.
    for (std::size_t at = name.find("repro::", 1);
         at != std::string_view::npos; at = name.find("repro::", at + 1)) {
      if (const auto mod = leading_module(name.substr(at)); !mod.empty()) {
        return std::string(mod);
      }
    }
  }
  if (name.starts_with("perfbench::")) return "bench";
  if (name.starts_with("repro::")) return "common";  // src/common
  return "other";
}

}  // namespace

PcSampler::~PcSampler() { stop(); }

void PcSampler::start() {
  if (running_) return;
  struct sigaction sa {};
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);
  set_timer(kPeriodUs);
  running_ = true;
}

void PcSampler::stop() {
  if (!running_) return;
  set_timer(0);
  running_ = false;
}

std::vector<std::uintptr_t> PcSampler::samples() const {
  const std::size_t n =
      std::min(g_count.load(std::memory_order_relaxed), kMaxSamples);
  return std::vector<std::uintptr_t>(g_pcs, g_pcs + n);
}

const std::vector<std::string>& share_modules() {
  static const std::vector<std::string> kModules = {
      "sim",   "net",     "transport", "rdma",      "solar", "stack",
      "sa",    "dpu",     "storage",   "ec",        "kernels",
      "placement", "qos", "ebs",       "workload",  "obs",   "chaos",
      "proto", "p4",      "common",    "bench",     "other"};
  return kModules;
}

Attribution attribute_samples(const std::vector<std::uintptr_t>& pcs,
                              std::size_t top_n) {
  Attribution out;
  for (const std::string& m : share_modules()) out.by_module[m] = 0;
  const SymbolTable table;
  struct Hit {
    std::string name;
    std::string module;
    std::uint64_t samples = 0;
  };
  std::unordered_map<const char*, Hit> hits;
  for (const std::uintptr_t pc : pcs) {
    const char* mangled = table.lookup(pc);
    if (mangled == nullptr) {
      ++out.by_module["other"];
      continue;
    }
    auto it = hits.find(mangled);
    if (it == hits.end()) {
      int status = 0;
      std::unique_ptr<char, void (*)(void*)> demangled(
          abi::__cxa_demangle(mangled, nullptr, nullptr, &status), std::free);
      Hit h;
      h.name = status == 0 ? demangled.get() : mangled;
      h.module = module_of_symbol(h.name);
      it = hits.emplace(mangled, std::move(h)).first;
    }
    ++it->second.samples;
    ++out.by_module[it->second.module];
  }
  for (const auto& [mangled, h] : hits) {
    out.top.emplace_back(h.module + " " + h.name, h.samples);
  }
  std::sort(out.top.begin(), out.top.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  if (out.top.size() > top_n) out.top.resize(top_n);
  return out;
}

}  // namespace perfbench
