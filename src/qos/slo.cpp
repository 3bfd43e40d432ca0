#include "qos/slo.h"

namespace repro::qos {

const char* to_string(SloClass c) {
  return c == SloClass::kGuaranteed ? "guaranteed" : "best_effort";
}

bool slo_class_from_string(const std::string& s, SloClass* out) {
  if (s == "guaranteed") {
    *out = SloClass::kGuaranteed;
    return true;
  }
  if (s == "best_effort") {
    *out = SloClass::kBestEffort;
    return true;
  }
  return false;
}

}  // namespace repro::qos
