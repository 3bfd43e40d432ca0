// The five stack generations of the paper's timeline, as data.
//
//   kKernelTcp — SA in software + kernel TCP        (pre-2019)
//   kLuna      — SA in software + user-space TCP    (§3)
//   kRdma      — SA in software + RC RDMA           (the rejected option)
//   kSolarStar — SOLAR protocol, data path on CPU   (§4.7 ablation)
//   kSolar     — SOLAR fully offloaded              (§4)
//
// Everything that needs to branch on a generation goes through this header
// (or the adapters in this directory); the rest of the tree treats a stack
// as an opaque ComputeStack/ServerStack.
#pragma once

#include <cstdint>
#include <string>

namespace repro::stack {

enum class StackKind { kKernelTcp, kLuna, kRdma, kSolarStar, kSolar };

/// Canonical display name: "kernel-tcp", "luna", "rdma", "solar*", "solar".
std::string to_string(StackKind kind);

/// CLI-safe name (no '*' or '-'): "kernel_tcp", ..., "solar_star", "solar".
std::string cli_string(StackKind kind);

/// Inverse of both `to_string` and `cli_string`. Returns false on unknown
/// names and leaves `*out` untouched.
bool stack_from_string(const std::string& name, StackKind* out);

/// SOLAR protocol family (fused SA + transport on the DPU): SOLAR*, SOLAR.
bool solar_family(StackKind kind);

/// Only the fully-offloaded generation pushes payloads through the FPGA
/// pipeline; SOLAR* and the software stacks never touch it.
bool has_fpga_datapath(StackKind kind);

/// Which server-side engine a generation talks to. Kernel TCP and LUNA
/// share the byte-stream server (profile differs), the SOLAR pair shares
/// the one-block-one-packet server. Erasure coding is not a family: its
/// striping lives compute-side and its fragments are plain blocks served
/// by the fleet's transport family.
enum class ServerFamily { kTcp, kRdma, kSolar };

inline constexpr int kNumServerFamilies = 3;

ServerFamily server_family(StackKind kind);

/// UDP/TCP destination port the family's server listens on — the demux key
/// for heterogeneous storage nodes serving several generations at once.
std::uint16_t server_port(ServerFamily family);

}  // namespace repro::stack
