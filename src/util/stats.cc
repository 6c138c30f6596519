#include "util/stats.h"

#include <cstdio>

namespace scalla::util {

std::string FormatNanos(double ns) {
  char buf[48];
  const double abs = ns < 0 ? -ns : ns;
  if (abs < 1e3) {
    std::snprintf(buf, sizeof(buf), "%.0fns", ns);
  } else if (abs < 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fus", ns / 1e3);
  } else if (abs < 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2fms", ns / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fs", ns / 1e9);
  }
  return buf;
}

}  // namespace scalla::util
