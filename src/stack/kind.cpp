#include "stack/kind.h"

#include "rdma/rdma.h"
#include "solar/client.h"
#include "transport/tcp.h"

namespace repro::stack {

namespace {

struct Name {
  StackKind kind;
  const char* canonical;
  const char* cli;
};
constexpr Name kNames[] = {
    {StackKind::kKernelTcp, "kernel-tcp", "kernel_tcp"},
    {StackKind::kLuna, "luna", "luna"},
    {StackKind::kRdma, "rdma", "rdma"},
    {StackKind::kSolarStar, "solar*", "solar_star"},
    {StackKind::kSolar, "solar", "solar"},
};

}  // namespace

std::string to_string(StackKind kind) {
  for (const Name& n : kNames) {
    if (n.kind == kind) return n.canonical;
  }
  return "?";
}

std::string cli_string(StackKind kind) {
  for (const Name& n : kNames) {
    if (n.kind == kind) return n.cli;
  }
  return "?";
}

bool stack_from_string(const std::string& name, StackKind* out) {
  for (const Name& n : kNames) {
    if (name == n.canonical || name == n.cli) {
      *out = n.kind;
      return true;
    }
  }
  return false;
}

bool solar_family(StackKind kind) {
  return kind == StackKind::kSolar || kind == StackKind::kSolarStar;
}

bool has_fpga_datapath(StackKind kind) { return kind == StackKind::kSolar; }

ServerFamily server_family(StackKind kind) {
  switch (kind) {
    case StackKind::kKernelTcp:
    case StackKind::kLuna:
      return ServerFamily::kTcp;
    case StackKind::kRdma:
      return ServerFamily::kRdma;
    case StackKind::kSolarStar:
    case StackKind::kSolar:
      return ServerFamily::kSolar;
  }
  return ServerFamily::kTcp;
}

std::uint16_t server_port(ServerFamily family) {
  switch (family) {
    case ServerFamily::kTcp: return transport::TcpStack::kServerPort;
    case ServerFamily::kRdma: return rdma::RdmaStack::kServerPort;
    case ServerFamily::kSolar: return solar::SolarClient::kServerPort;
  }
  return 0;
}

}  // namespace repro::stack
